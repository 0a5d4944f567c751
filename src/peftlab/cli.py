"""Command-line harness for parameter audits, synthetic-task training,
composition execution, adapter averaging, and low-rank merging.

Verbs::

    count-params   trainable-parameter audits from builds that allocate nothing
                   (``--check-paper`` compares the published grid extremes,
                   exit 2 on mismatch)
    check-paper    shorthand for ``count-params --check-paper``
    train          hyperparameter-grid training on a synthetic task: JSON-line
                   records (optionally CSV); on stderr a ``# blas <kernel>
                   threads=<n> encode_threads=<m>`` line first, then a
                   per-method ranking
    eval           evaluate a saved adapter (or bare head) on a task split
    compose        execute a composition DSL string over saved adapters
    average        weighted parameter averaging of same-config adapters
    merge          fold a low-rank adapter into the base weights checkpoint

Exit codes: 0 success, 1 validation failure (flags, configs, inputs,
checkpoints), 2 acceptance-check failure (``--check-paper`` mismatch).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import model as M
from .checkpoint import HEAD_FILE, CheckpointError, write_atomic
from .composition import CompositionError, parse_setup
from .configs import (AUDIT_GRID, ConfigError, audit_counts, config_label,
                      count_params, parse_config, run_count_audit)
from .methods import StateError
from .model import DIM_PRESETS, CapacityError, InputError
from .registry import AdapterModel, RegistryError
from .tasks import TASK_KINDS, TaskSpec, make_task
from .training import (CSV_FIELDS, DEFAULT_EPOCHS, DEFAULT_LRS, FULL_FT,
                       GridSpec, best_metric, evaluate, grid_chains, prepare_base,
                       record_to_csv_row, run_cell, run_grid)

# every anticipated failure maps to exit code 1, a MemoryError for a size
# the allocator refuses included; mismatched --check-paper audits are the
# only exit-2 path
_CLI_ERRORS = (ConfigError, CompositionError, CheckpointError, RegistryError,
               InputError, CapacityError, StateError, ValueError, OSError,
               MemoryError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here bad flags are validation
    failures and exit code 2 is reserved for failed acceptance checks."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared argument plumbing


def _add_task_args(p, default_samples: int = 4000):
    p.add_argument("--task", choices=TASK_KINDS, default="parity",
                   help="synthetic task kind (default parity)")
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--num-labels", type=int, default=4,
                   help="label count for the tagging task")
    p.add_argument("--samples", type=int, default=default_samples,
                   help="training examples (default %(default)s)")
    p.add_argument("--eval-samples", type=int, default=1000)
    p.add_argument("--pretrain-samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)


def _task_spec(args, pretrain: bool = True) -> TaskSpec:
    """The task the flags describe, every flag checked; without
    ``pretrain``, with no pretraining split, which the generator draws
    last, so the other splits are unchanged."""
    spec = TaskSpec(kind=args.task, vocab=args.vocab, seq_len=args.seq_len,
                    n_train=args.samples, n_eval=args.eval_samples,
                    n_pretrain=args.pretrain_samples,
                    num_labels=args.num_labels, seed=args.seed)
    return spec if pretrain else dataclasses.replace(spec, n_pretrain=0)


def _split_pair(text: str):
    """'name=dir' -> (name, dir); bare 'dir' -> (None, dir)."""
    if "=" in text:
        name, _, d = text.partition("=")
        if not name or not d:
            raise ValueError(f"expected NAME=DIR, got {text!r}")
        return name, d
    return None, text


def _parse_values(text: str) -> tuple:
    """``--axis`` values, each read as an int, a float, ``true``/``false`` or
    else a string; the types of the config's fields then judge them."""
    vals = []
    for part in text.split(","):
        part = part.strip()
        try:
            vals.append(int(part))
        except ValueError:
            try:
                vals.append(float(part))
            except ValueError:
                vals.append({"true": True, "false": False}.get(part, part))
    return tuple(vals)


# ---------------------------------------------------------------------------
# count-params / check-paper


def cmd_count_params(args) -> int:
    check = getattr(args, "check_paper", False) or args.verb == "check-paper"
    if check:
        dims = DIM_PRESETS[args.dims or "roberta-base"]
        rows = run_count_audit(dims)
        payload = []
        for name, exp_min, got_min, exp_max, got_max, ok in rows:
            payload.append({"method": name, "min": got_min, "expected_min": exp_min,
                            "max": got_max, "expected_max": exp_max, "ok": ok})
            if not args.json:
                mark = "ok" if ok else "MISMATCH"
                print(f"{name:16s} min {got_min:>12,} (expected {exp_min:>12,})"
                      f"  max {got_max:>12,} (expected {exp_max:>12,})  {mark}")
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        if not all(r[-1] for r in rows):
            print("parameter audit FAILED", file=sys.stderr)
            return 2
        return 0

    dims = DIM_PRESETS[args.dims or "desk"]
    if args.config:
        payload = []
        for s in args.config:
            cfg = parse_config(s)
            n = count_params(cfg, dims)
            payload.append({"config": s, "label": config_label(cfg), "params": n})
            if not args.json:
                print(f"{s:16s} {n:>12,}  ({config_label(cfg)})")
    else:
        payload = []
        for name in sorted(AUDIT_GRID):
            counts = [c for _, c in audit_counts(name, dims)]
            payload.append({"method": name, "min": counts[0], "max": counts[-1]})
            if not args.json:
                print(f"{name:16s} min {counts[0]:>12,}  max {counts[-1]:>12,}")
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    task = _task_spec(args)
    axes = {}
    for spec_text in args.axis or []:
        field_name, _, values = spec_text.partition("=")
        if not field_name or not values:
            raise ValueError(f"expected --axis FIELD=V1,V2,..., got {spec_text!r}")
        axes[field_name] = axes.get(field_name, ()) + _parse_values(values)
    grid = GridSpec(methods=args.config or (), lrs=args.lr or DEFAULT_LRS,
                    epochs=args.epochs or DEFAULT_EPOCHS,
                    batch_size=args.batch_size, seed=args.seed,
                    pretrain_epochs=args.pretrain_epochs,
                    include_full_ft=args.full_ft, axes=axes)

    base = AdapterModel.load_base(args.base) if args.base else None
    dims = DIM_PRESETS[args.dims or "desk"] if base is None else base.dims
    if base is not None and args.dims is not None and DIM_PRESETS[args.dims] != dims:
        raise ValueError(f"--dims {args.dims} disagrees with the base "
                         f"checkpoint at {args.base}")
    chains = grid_chains(grid, dims, task.seq_len)   # every config fits before any training
    cells = [(m, cfg, lr, ep) for m, cfg, lr, eps in chains for ep in eps]
    if args.save and len(cells) != 1:
        raise ValueError("--save requires exactly one grid cell (one --config with "
                         f"one --lr and one --epochs); this grid has {len(cells)}")
    if args.save and cells[0][0] == FULL_FT:
        raise ValueError("full fine-tuning has no adapter to save; "
                         "use --save-base for the encoder weights")
    if base is not None:
        data, base_state = make_task(task), base.encoder.state_array()
    else:
        data, base_state = prepare_base(dims, task, grid)
    core, threads = blas_kernel()
    print(f"# blas {core} threads={threads} encode_threads={M.ENCODE_THREADS}",
          file=sys.stderr)

    if args.save_base:
        AdapterModel(dims, base_state=base_state).save_base(args.save_base)

    out_f = open(args.out, "a") if args.out else None
    csv_f = open(args.csv, "w") if args.csv else None
    if csv_f:
        csv_f.write(",".join(CSV_FIELDS) + "\n")

    def sink(rec):
        line = rec.to_json()
        if not args.quiet:
            print(line, flush=True)
        if out_f:
            out_f.write(line + "\n")
        if csv_f:
            csv_f.write(record_to_csv_row(rec) + "\n")

    try:
        if args.save:
            method, cfg, lr, epochs = cells[0]
            capture = {}
            rec = run_cell(dims, task, data, base_state, method, cfg, lr, epochs,
                           grid.batch_size, grid.seed, capture=capture)
            sink(rec)
            records = [rec]
            model, head = capture["model"], capture["head"]
            model.save_adapter(head, args.save)
            model.save_head(head, Path(args.save) / HEAD_FILE)
        else:
            records = run_grid(dims, task, grid, sink=sink, data=data,
                               base_state=base_state)
    finally:
        if out_f:
            out_f.close()
        if csv_f:
            csv_f.close()

    _print_summary(records, task.metric_name)
    return 0


def blas_kernel() -> tuple:
    """(kernel name, thread count) of numpy's bundled OpenBLAS, as text, read
    through ``ctypes``: the kernel decides the rounding of every product, so
    the bits of a run.  ``unknown`` for each that numpy's BLAS does not
    export."""
    core = threads = "unknown"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get_core = getattr(lib, "scipy_openblas_get_corename64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_core is not None:
            get_core.argtypes, get_core.restype = [], ctypes.c_char_p
            core = get_core().decode()
        if get_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            threads = str(get_threads())
    return core, threads


def _print_summary(records, metric_name: str) -> None:
    """Print ``# best[<method>] <metric>=<value>`` for each method of the
    records to stderr, best first and NaN last.  When ``full-ft`` ran, each
    adapter's line ends with its gap to the ``full-ft`` result."""
    sign = 1.0 if metric_name == "mse" else -1.0      # rank best-first either way
    best = {m: best_metric(records, m) for m in dict.fromkeys(r.method for r in records)}
    baseline = best.get(FULL_FT)
    for m in sorted(best, key=lambda m: sign * best[m] if math.isfinite(best[m]) else math.inf):
        gap = ""
        if baseline is not None and m != FULL_FT:
            gap = f" ({FULL_FT} {best[m] - baseline:+.4f})"
        print(f"# best[{m}] {metric_name}={best[m]:.4f}{gap}", file=sys.stderr)


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    if not (args.adapter or args.head_file):
        raise ValueError("pass --adapter and/or --head-file")
    model = AdapterModel.load_base(args.base)
    task = _task_spec(args, pretrain=False)
    data = make_task(task)
    head = model.load_adapter(args.adapter) if args.adapter else "head"
    head_file = Path(args.head_file or Path(args.adapter) / HEAD_FILE)
    if not (args.head_file or head_file.exists()):
        raise ValueError(f"no {HEAD_FILE} in {args.adapter}; pass --head-file")
    model.load_head(head, head_file)
    if args.adapter:
        model.set_active(head)
    metric = evaluate(model, head, data.eval_x, data.eval_y)
    print(json.dumps({"task": task.kind, "metric": metric,
                      "metric_name": task.metric_name,
                      "eval_samples": int(data.eval_x.shape[0])},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# compose


def cmd_compose(args) -> int:
    model = AdapterModel.load_base(args.base)
    for pair in args.adapter or []:
        name, directory = _split_pair(pair)
        loaded = model.load_adapter(directory, name=name)
        if (Path(directory) / HEAD_FILE).exists():
            model.load_head(loaded, Path(directory) / HEAD_FILE)
    if args.fuse:
        names = [s.strip() for s in args.fuse.split(",")]
        unknown = [n for n in names if not model.has_adapter(n)]
        if unknown:
            raise ValueError(f"--fuse names adapters that were not loaded: {unknown}")
        model.add_adapter_fusion(names)
    model.set_active(parse_setup(args.setup))

    if args.input:
        tokens = np.load(args.input)
        if tokens.ndim != 2 or not np.issubdtype(tokens.dtype, np.integer):
            raise ValueError(f"--input must hold a 2-D integer token array, "
                             f"got {tokens.dtype} with shape {tokens.shape}")
    else:
        data = make_task(_task_spec(args, pretrain=False))
        tokens = data.eval_x[:args.samples]

    state = model.encode(tokens)
    outputs = model.branch_logits(state)
    doc = {
        "setup": args.setup,
        "input_rows": int(tokens.shape[0]),
        "branches": [{"label": lbl, "rows": n} for lbl, n in state.branches],
        "outputs": {lbl: t.data.tolist() for lbl, t in outputs.items()},
    }
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        write_atomic(args.out, (text + "\n").encode("utf-8"))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# average / merge


def cmd_average(args) -> int:
    model = AdapterModel.load_base(args.base)
    pairs = [_split_pair(pair) for pair in args.adapter]
    # sources get private registry names so --name may reuse a stored one
    names = [model.load_adapter(directory, name=name or f"source{i}")
             for i, (name, directory) in enumerate(pairs)]
    weights = [float(w) for w in args.weights.split(",")] if args.weights else None
    new_name = args.name or "averaged"
    model.average_adapters(new_name, names, weights)
    first_head = Path(pairs[0][1]) / HEAD_FILE        # the first source's head travels
    if first_head.exists():
        model.load_head(new_name, first_head)
    model.save_adapter(new_name, args.out)
    if model.has_head(new_name):
        model.save_head(new_name, Path(args.out) / HEAD_FILE)
    print(json.dumps({"name": new_name, "sources": names,
                      "out": str(args.out)}, sort_keys=True))
    return 0


def cmd_merge(args) -> int:
    model = AdapterModel.load_base(args.base)
    name = model.load_adapter(args.adapter)
    if (Path(args.adapter) / HEAD_FILE).exists():
        model.load_head(name, Path(args.adapter) / HEAD_FILE)
    model.merge_adapter(name)
    model.save_base(args.out)
    if model.has_head(name):
        model.save_head(name, Path(args.out) / HEAD_FILE)
    print(json.dumps({"merged": name, "out": str(args.out)}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="peftlab",
                     description="adapter methods, composition, and training "
                                 "harness over a minimal encoder")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count-params", parents=[], help="trainable-parameter audit")
    p.add_argument("--config", action="append",
                   help="config string (repeatable); omit for the full grid table")
    p.add_argument("--dims", choices=sorted(DIM_PRESETS),
                   help="dimension preset (default desk; check-paper defaults "
                        "to roberta-base)")
    p.add_argument("--check-paper", action="store_true",
                   help="assert the published grid extremes; exit 2 on mismatch")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("check-paper", help="alias for count-params --check-paper")
    p.add_argument("--dims", choices=sorted(DIM_PRESETS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("train", help="grid-train adapters on a synthetic task")
    _add_task_args(p)
    p.add_argument("--config", action="append",
                   help="adapter config string (repeatable)")
    p.add_argument("--full-ft", action="store_true",
                   help="include the full fine-tuning baseline")
    p.add_argument("--lr", type=float, action="append",
                   help=f"learning rate (repeatable; default {list(DEFAULT_LRS)})")
    p.add_argument("--epochs", type=int, action="append",
                   help=f"epoch count (repeatable; default {list(DEFAULT_EPOCHS)})")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--pretrain-epochs", type=int, default=4,
                   help="full-model epochs on the disjoint pretraining split")
    p.add_argument("--axis", action="append", metavar="FIELD=V1,V2",
                   help="extra per-method hyperparameter axis (repeatable)")
    p.add_argument("--dims", choices=sorted(DIM_PRESETS))
    p.add_argument("--base", help="reuse a saved base checkpoint (skips pretraining)")
    p.add_argument("--save-base", help="write the pretrained base checkpoint here")
    p.add_argument("--save", help="write the trained adapter + head here "
                                  "(single-cell grids only)")
    p.add_argument("--out", help="append JSONL records to this file")
    p.add_argument("--csv", help="write CSV records to this file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell records on stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved adapter on a task split")
    _add_task_args(p)
    p.add_argument("--base", required=True, help="base checkpoint directory")
    p.add_argument("--adapter", help="adapter checkpoint directory")
    p.add_argument("--head-file", help="explicit head.json path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compose", help="run a composition over saved adapters")
    _add_task_args(p, default_samples=8)
    p.add_argument("--setup", required=True,
                   help="composition text, e.g. "
                        "'Stack(a, Average(b, c, weights=[0.3, 0.7]))'")
    p.add_argument("--base", required=True, help="base checkpoint directory")
    p.add_argument("--adapter", action="append", metavar="NAME=DIR",
                   help="adapter checkpoint to load (repeatable)")
    p.add_argument("--fuse", metavar="A,B,...",
                   help="add a fusion layer over these adapter names")
    p.add_argument("--input", help=".npy file of token ids (batch, seq)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("average", help="weighted average of same-config adapters")
    p.add_argument("--base", required=True)
    p.add_argument("--adapter", action="append", required=True,
                   metavar="[NAME=]DIR")
    p.add_argument("--weights", help="comma-separated weights (default uniform)")
    p.add_argument("--name", help="name recorded in the new checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("merge", help="fold a low-rank adapter into base weights")
    p.add_argument("--base", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except _CLI_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
