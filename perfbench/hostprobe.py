"""Host speed probe: a fixed piece of work timed between the benchmark's passes.

The machines this benchmark runs on are shared; their speed drifts by 15 to
40% over minutes, in step for every workload, which swamps the run-to-run
comparison the benchmark exists for.  The probe does a fixed amount of work
of the same kind as peftlab's (small numpy contractions, erf, softmax and
layer-norm arithmetic, plus per-op Python objects like a tape's records),
using neither peftlab nor anything peftlab configures.  The end-to-end
metrics are scaled by ``PROBE_REFERENCE_MS / median probe time``: they read
as on a host where the probe takes ``PROBE_REFERENCE_MS``.  The raw values,
the probe median and the factor are in each run's details.

``PROBE_REFERENCE_MS`` is a fixed constant: changing it rescales every
reported time, so it never changes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import erf

PROBE_REFERENCE_MS = 10.0
SAMPLE_EVERY_S = 0.25        # roughly one probe per quarter second of passes
MAX_SAMPLES_PER_GAP = 8


class _Record:
    __slots__ = ("value", "inputs", "rule")

    def __init__(self, value, inputs, rule):
        self.value, self.inputs, self.rule = value, inputs, rule


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.normal(size=(16, 32, 64))
        self._w1 = rng.normal(0.0, 0.1, size=(64, 128))
        self._w2 = rng.normal(0.0, 0.1, size=(128, 64))
        self.samples_ms: list = []
        self._last = time.perf_counter()

    def _work(self) -> float:
        """One encoder-like forward of five layers, with a record per op."""
        tape = []
        h = self._x
        for _ in range(5):
            mu = h.mean(axis=-1, keepdims=True)
            c = h - mu
            x = c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5)
            tape.append(_Record(x, (h,), None))
            a = x @ self._w1
            g = 0.5 * a * (1.0 + erf(a / 1.4142135623730951))
            tape.append(_Record(g, (a,), None))
            q = x[:, :, :32]
            s = q @ q.swapaxes(1, 2)
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            s /= s.sum(axis=-1, keepdims=True)
            tape.append(_Record(s, (x,), None))
            h = h + 0.1 * (g @ self._w2)
            for k in range(24):
                tape.append(_Record(k, (tape[-1],), lambda grad: (grad,)))
        return float(h[0, 0, 0]) + len({id(r): r for r in tape})

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._work()
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)
        self._last = time.perf_counter()

    def between_passes(self) -> None:
        """Probe about once per ``SAMPLE_EVERY_S`` of elapsed passes."""
        gap = time.perf_counter() - self._last
        if gap >= SAMPLE_EVERY_S:
            self.sample(min(MAX_SAMPLES_PER_GAP, int(gap / SAMPLE_EVERY_S)))

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def factor(self) -> float:
        """Multiply times by this (divide rates) to read them at reference speed."""
        return PROBE_REFERENCE_MS / self.median_ms()
