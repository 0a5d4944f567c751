#!/usr/bin/env python3
"""Run one peftlab benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload sweep-flat --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload once untraced and once with the span tracer installed, and prints
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and run details.

peftlab is imported from ``src/`` next to this directory, never from an
installed copy: without ``src/peftlab`` the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ROOT / ".bench_work"       # checkpoints written while running
OUT_DIR = ROOT / ".bench_out"         # trace files

WORKLOADS = ("sweep-flat", "sweep-milestones", "serve-compose", "lifecycle")

# One BLAS thread (nproc is 2 where the baseline was taken): the run-to-run
# spread of the sweeps roughly halves against letting BLAS take both cores.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("grid_s", "s"), ("train_samples_per_s", "samples/s"),
              ("eval_seqs_per_s", "seqs/s"), ("request_p50_ms", "ms"),
              ("request_tail_ms", "ms"), ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, no reference)."""


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_peftlab():
    src = ROOT / "src"
    if not (src / "peftlab" / "__init__.py").is_file():
        raise BenchError(f"no peftlab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import peftlab
    if Path(peftlab.__file__).resolve().parent != (src / "peftlab").resolve():
        raise BenchError(f"peftlab was imported from {peftlab.__file__}, not from {src}")
    return peftlab


def load_reference(workload: str, size: str = "full") -> dict:
    """Parameter counts, and per-seed outputs when ``size`` is the stored one."""
    try:
        doc = json.loads(REFERENCE.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError(f"cannot read {REFERENCE}: {e}") from None
    seeds = doc.get(workload, {}).get("seeds", {}) if size == "full" else {}
    return {"n_params": doc["n_params"], "seeds": seeds}


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, size: str) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
    }


def measure(wl, ctx, stats, seconds: float, probe=None) -> dict:
    """Run whole passes: a fixed number on the sweeps, else until ``seconds``.

    Each pass starts from a collected heap.  peftlab's tape and the tensors
    it records point at each other, so a training step's activations wait
    for the cyclic collector; without this, how much garbage a pass inherits
    depends on where the previous one stopped."""
    fixed = wl.passes_for(seconds)
    before = stats.attempted
    start = time.perf_counter()
    i = 0
    while (i < fixed) if fixed else (i == 0 or time.perf_counter() - start < seconds):
        gc.collect()
        if probe is not None:
            probe.between_passes()
        wl.run_pass(ctx, i, stats)
        i += 1
    return {"passes": i, "units": stats.attempted - before,
            "wall_s": time.perf_counter() - start}


def end_to_end(wl, stats, setup_times: list, factor: float) -> tuple:
    """Metrics at reference host speed (times times ``factor``, rates divided
    by it), and details holding the raw values."""
    lat = stats.unit_ms
    details = {"setup_times_s": setup_times}
    if not lat or not stats.pass_s or not stats.train_s or not stats.eval_s:
        # Nothing to time (every unit failed): report zeros; correct is false.
        return {name: 0.0 for name, _ in END_TO_END}, details
    import workloads
    pct, tail_ms = workloads.tail(lat)
    details.update(tail_percentile=pct, latency_samples=len(lat),
                   samples_beyond_tail=sum(v > tail_ms for v in lat),
                   median_ms_by_kind={k: statistics.median(v) for k, v in stats.by_kind.items()
                                      if k is not None})
    raw = {
        "setup_s": statistics.median(setup_times),
        "grid_s": statistics.median(stats.pass_s),
        "train_samples_per_s": stats.train_samples / stats.train_s,
        "eval_seqs_per_s": stats.eval_seqs / stats.eval_s,
        "request_p50_ms": statistics.median(lat),
        "request_tail_ms": tail_ms,
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details["raw_metrics"] = raw
    scaled = {}
    for name, unit in END_TO_END:
        if unit in ("s", "ms"):
            scaled[name] = raw[name] * factor
        elif unit.endswith("/s"):
            scaled[name] = raw[name] / factor
        else:
            scaled[name] = raw[name]
    return scaled, details


def run_plain(wl, stats, seconds: float) -> tuple:
    from hostprobe import HostProbe

    probe = HostProbe()
    probe.sample(3)
    setup_times = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        ctx = None                      # let the previous set-up go first
        gc.collect()
        probe.sample()
        t0 = time.perf_counter()
        ctx = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        wl.absorb_setup(ctx, stats)
    wl.prepare(ctx, stats)
    run = measure(wl, ctx, stats, seconds, probe)
    gc.collect()
    probe.sample(3)
    values, details = end_to_end(wl, stats, setup_times, probe.factor())
    details.update(measure=run, probe_median_ms=probe.median_ms(),
                   probe_samples=len(probe.samples_ms), host_factor=probe.factor())
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, details


def run_traced(wl, stats, seconds: float, pkg, out_path: Path) -> tuple:
    """Half the time untraced, half traced; per-layer metrics come from the
    traced half, and the difference in mean unit time is the overhead.  The
    values are raw; each half's host factor is in the details, because host
    speed can change between the halves by more than tracing costs."""
    from hostprobe import HostProbe
    from tracer import CHECK, MEASURE, SETUP, Tracer, find_wrappers, per_layer_names

    half = seconds / 2.0
    probe_plain = HostProbe()
    probe_plain.sample(3)
    ctx = wl.setup()
    wl.prepare(ctx, stats)
    # One pass first, not counted: the first pass of a process grows the heap,
    # which would otherwise be charged to the untraced half only.
    wl.run_pass(ctx, 0, type(stats)())
    mark = len(stats.unit_ms)
    plain = measure(wl, ctx, stats, half, probe_plain)
    plain_ms = statistics.fmean(stats.unit_ms[mark:]) if stats.unit_ms[mark:] else 0.0
    ctx = None

    probe = HostProbe()               # touches no peftlab code, so no spans
    probe.sample(3)
    tracer = Tracer(pkg)
    tracer.head_labels.update(wl.head_labels)
    wl.tracer = tracer
    tracer.install()
    try:
        tracer.cur_phase = SETUP
        ctx = wl.setup()
        tracer.cur_phase = CHECK
        wl.prepare(ctx, stats)
        tracer.cur_phase = MEASURE
        mark = len(stats.unit_ms)
        traced = measure(wl, ctx, stats, half, probe)
    finally:
        tracer.uninstall()
        wl.tracer = None
    traced_ms = statistics.fmean(stats.unit_ms[mark:]) if stats.unit_ms[mark:] else 0.0
    leftover = find_wrappers()
    if leftover:
        stats.check(False, f"wrappers left installed: {leftover[:5]}")

    values = tracer.per_layer(units=max(1, traced["units"]), setups=1)
    values["trace.overhead_ms"] = traced_ms - plain_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms / plain_ms - 1.0) if plain_ms else 0.0
    details = {"untraced": plain, "traced": traced, "untraced_unit_ms": plain_ms,
               "traced_unit_ms": traced_ms, "host_factor_untraced": probe_plain.factor(),
               "host_factor_traced": probe.factor(), "spans": len(tracer.t0),
               "trace_file": os.path.relpath(out_path.with_suffix(".npz"), ROOT)}
    tracer.dump(out_path, {"workload": wl.name, "seed": wl.seed, "units": traced["units"]})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, size: str = "full", reference: dict = None) -> int:
    """``size`` and ``reference`` let the benchmark's tests run it small."""
    args = parse_args(argv)
    try:
        pkg = import_peftlab()
        ref = load_reference(args.workload, size) if reference is None else reference
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import workloads as W

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    stats = W.Stats()
    try:
        wl = W.CLASSES[args.workload](size, args.seed, ref, work)
        if args.trace:
            out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
            metrics, details = run_traced(wl, stats, args.seconds, pkg, out)
        else:
            metrics, details = run_plain(wl, stats, args.seconds)
        details.update(wl.details())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass                        # another run is still using it
    details["failures"] = stats.failures
    print(json.dumps({"env": environment(args, size), "details": details}, sort_keys=True))
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    pin_blas_threads()
    sys.exit(main(sys.argv[1:]))
