#!/usr/bin/env python3
"""Regenerate ``reference.json``, the outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference (a change that alters results on purpose regenerates it and says
why)::

    python3 perfbench/make_reference.py --seeds 32

Stores, per seed, every sweep cell's metric and final loss and a digest of
every ``serve-compose`` setup's logits, plus the parameter count of each
config string at desk dims (the same for every seed).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDED = ("sweep-flat", "sweep-milestones", "serve-compose")


def build(workloads, seeds, size: str = "full") -> dict:
    """The reference document for ``seeds`` of ``workloads`` at ``size``."""
    pkg = run.import_peftlab()
    import workloads as W
    dims = W.DIMS
    n_params = {name: pkg.configs.count_params(pkg.configs.parse_config(name), dims)
                for name in pkg.configs.CONFIG_NAMES}
    n_params[pkg.training.FULL_FT] = pkg.registry.AdapterModel(dims).encoder.num_params()
    doc = {"n_params": n_params}
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR))
    try:
        for name in workloads:
            seeds_doc = {}
            for seed in seeds:
                wl = W.CLASSES[name](size, seed, {"n_params": n_params}, work)
                seeds_doc[str(seed)] = wl.reference_entry(wl.setup())
                print(f"{name} seed {seed}", file=sys.stderr)
            doc[name] = {"seeds": seeds_doc}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=32, help="store seeds 0 .. N-1")
    args = p.parse_args(argv)
    doc = build(SEEDED, range(args.seeds))
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    run.pin_blas_threads()
    sys.exit(main())
