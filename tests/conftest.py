import sys

import numpy as np
import pytest

from peftlab.model import ModelDims

# one layer, tiny widths: fast enough for grad checks through the full stack
TINY_DIMS = ModelDims(num_layers=1, hidden=8, heads=2, intermediate=16,
                      vocab=40, max_seq=32)
SMALL_DIMS = ModelDims(num_layers=2, hidden=16, heads=2, intermediate=32,
                       vocab=60, max_seq=48)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_tokens(rng, batch, seq, vocab, low: int = 0):
    return rng.integers(low, vocab, size=(batch, seq))


@pytest.fixture
def rng_callers(monkeypatch):
    """The module of each caller of ``np.random.default_rng`` while the test
    runs, in call order; every call still returns its generator."""
    callers = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    return callers
