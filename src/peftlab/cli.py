"""Command-line harness for parameter audits, synthetic-task training,
composition execution, adapter averaging, and low-rank merging.

Verbs::

    count-params   trainable-parameter audits from builds that allocate nothing
                   (``--check-paper`` compares the published grid extremes,
                   exit 2 on mismatch)
    check-paper    shorthand for ``count-params --check-paper``
    train          hyperparameter-grid training on a synthetic task; emits
                   line-delimited JSON records (and optionally CSV)
    eval           evaluate a saved adapter (or bare head) on a task split
    compose        execute a composition DSL string over saved adapters
    average        weighted parameter averaging of same-config adapters
    merge          fold a low-rank adapter into the base weights checkpoint

Exit codes: 0 success, 1 validation failure (flags, configs, inputs,
checkpoints), 2 acceptance-check failure (``--check-paper`` mismatch).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (FORMAT_VERSION, CheckpointError, read_json_object,
                         read_weights, write_atomic, write_weights)
from .composition import CompositionError, parse_setup
from .configs import (AUDIT_GRID, ConfigError, audit_counts, config_label,
                      count_params, expand_axes, parse_config, run_count_audit)
from .methods import StateError
from .model import (DESK_DIMS, DIM_PRESETS, ROBERTA_BASE_DIMS, CapacityError,
                    InputError, ModelDims)
from .registry import AdapterModel, RegistryError
from .tasks import TASK_KINDS, TaskSpec, make_task
from .training import (CSV_FIELDS, DEFAULT_EPOCHS, DEFAULT_LRS, FULL_FT,
                       GridSpec, best_metric, evaluate, prepare_base,
                       record_to_csv_row, run_cell, run_grid)

BASE_CONFIG_FILE = "base_config.json"
BASE_WEIGHTS_FILE = "base_weights.bin"
HEAD_FILE = "head.json"

# every anticipated failure maps to exit code 1; mismatched --check-paper
# audits are the only exit-2 path
_CLI_ERRORS = (ConfigError, CompositionError, CheckpointError, RegistryError,
               InputError, CapacityError, StateError, ValueError, OSError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; here bad flags are validation
    failures and exit code 2 is reserved for failed acceptance checks."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# persistence helpers (base weights and prediction heads; the adapter
# checkpoint itself is owned by the registry)


def save_base(model: AdapterModel, directory) -> Path:
    """Write ``base_weights.bin`` and then ``base_config.json`` for the
    encoder, each atomically, so a failed save leaves the directory's
    manifest as it was."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_weights(directory / BASE_WEIGHTS_FILE,
                  {k: t.data for k, t in model.encoder.params.items()})
    doc = {"format_version": FORMAT_VERSION, "dims": model.dims.to_dict()}
    write_atomic(directory / BASE_CONFIG_FILE,
                 (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    return directory


def load_base(directory) -> AdapterModel:
    directory = Path(directory)
    path = directory / BASE_CONFIG_FILE
    doc = read_json_object(path, "base manifest")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported base format version {doc.get('format_version')!r}")
    if not isinstance(doc.get("dims"), dict):
        raise CheckpointError(f"base manifest {path} has no dims object")
    try:
        dims = ModelDims.from_dict(doc["dims"])
    except (TypeError, ValueError) as e:      # unknown, missing or bad extents
        raise CheckpointError(f"bad dims in base manifest {path}: {e}") from None
    model = AdapterModel(dims)
    model.encoder.load_state_array(read_weights(directory / BASE_WEIGHTS_FILE))
    return model


def save_head(model: AdapterModel, name: str, directory) -> Path:
    h = model.head(name)
    doc = {"kind": h.kind, "num_labels": h.num_labels,
           "w": h.w.data.tolist(), "b": h.b.data.tolist()}
    path = Path(directory) / HEAD_FILE
    write_atomic(path, (json.dumps(doc) + "\n").encode("utf-8"))
    return path


def load_head_file(model: AdapterModel, name: str, path) -> None:
    doc = read_json_object(path, "head file")
    missing = [k for k in ("kind", "num_labels", "w", "b") if k not in doc]
    if missing:
        raise CheckpointError(f"head file {path} is missing {', '.join(missing)}")
    try:
        w = np.asarray(doc["w"], dtype=np.float64)
        b = np.asarray(doc["b"], dtype=np.float64)
        num_labels = int(doc["num_labels"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed head file {path}: {e}") from None
    model.add_prediction_head(name, doc["kind"], num_labels)
    h = model.head(name)
    if w.shape != h.w.data.shape or b.shape != h.b.data.shape:
        raise CheckpointError(
            f"head in {path} has shape {w.shape}, expected {h.w.data.shape}")
    h.w.data = w
    h.b.data = b


def maybe_load_head(model: AdapterModel, name: str, directory) -> bool:
    path = Path(directory) / HEAD_FILE
    if not path.exists():
        return False
    load_head_file(model, name, path)
    return True


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


def _task_spec(args) -> TaskSpec:
    return TaskSpec(kind=args.task, vocab=args.vocab, seq_len=args.seq_len,
                    n_train=args.samples, n_eval=args.eval_samples,
                    n_pretrain=args.pretrain_samples,
                    num_labels=args.num_labels, seed=args.seed)


def _resolve_dims(name) -> ModelDims:
    if name is None:
        return DESK_DIMS
    return DIM_PRESETS[name]


def _split_pair(text: str):
    """'name=dir' -> (name, dir); bare 'dir' -> (None, dir)."""
    if "=" in text:
        name, _, d = text.partition("=")
        if not name or not d:
            raise ValueError(f"expected NAME=DIR, got {text!r}")
        return name, d
    return None, text


def _parse_values(text: str) -> tuple:
    vals = []
    for part in text.split(","):
        part = part.strip()
        try:
            vals.append(int(part))
        except ValueError:
            try:
                vals.append(float(part))
            except ValueError:
                vals.append(part)
    return tuple(vals)


# ---------------------------------------------------------------------------
# count-params / check-paper


def cmd_count_params(args) -> int:
    check = getattr(args, "check_paper", False) or args.verb == "check-paper"
    if check:
        dims = ROBERTA_BASE_DIMS if args.dims is None else _resolve_dims(args.dims)
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

    dims = _resolve_dims(args.dims)
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
    methods = list(args.config or [])
    for m in methods:
        parse_config(m)                       # fail fast on unknown strings
    if args.full_ft and FULL_FT not in methods:
        methods = [FULL_FT] + methods
    if not methods:
        raise ValueError("nothing to train: pass --config and/or --full-ft")

    axes = {}
    for spec_text in args.axis or []:
        field_name, _, values = spec_text.partition("=")
        if not field_name or not values:
            raise ValueError(f"expected --axis FIELD=V1,V2,..., got {spec_text!r}")
        axes[field_name] = _parse_values(values)
    method_axes = {}
    for m in methods:
        if m == FULL_FT:
            continue
        cfg = parse_config(m)
        applicable = {k: v for k, v in axes.items() if hasattr(cfg, k)}
        if applicable:
            method_axes[m] = applicable
    for field_name in axes:
        if not any(field_name in a for a in method_axes.values()):
            raise ValueError(f"axis {field_name!r} does not apply to any "
                             f"selected config")

    grid = GridSpec(methods=tuple(methods),
                    lrs=tuple(args.lr) if args.lr else DEFAULT_LRS,
                    epochs=tuple(args.epochs) if args.epochs else DEFAULT_EPOCHS,
                    batch_size=args.batch_size, seed=args.seed,
                    pretrain_epochs=args.pretrain_epochs,
                    method_axes=method_axes)

    if args.base:
        model0 = load_base(args.base)
        if args.dims is not None and _resolve_dims(args.dims) != model0.dims:
            raise ValueError(f"--dims {args.dims} disagrees with the base "
                             f"checkpoint at {args.base}")
        dims = model0.dims
        data = make_task(task)
        base_state = model0.encoder.state_array()
    else:
        dims = _resolve_dims(args.dims)
        data, base_state = prepare_base(dims, task, grid)

    if args.save_base:
        snapshot = AdapterModel(dims, seed=args.seed)
        snapshot.encoder.load_state_array(base_state)
        save_base(snapshot, args.save_base)

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
            cells = [(m, cfg) for m in methods if m != FULL_FT
                     for _, cfg in expand_axes(parse_config(m), method_axes.get(m, {}))]
            n_cells = (len(cells) + (FULL_FT in methods)) * len(grid.lrs) * len(grid.epochs)
            if n_cells != 1:
                raise ValueError(
                    "--save requires exactly one grid cell (one --config with "
                    f"one --lr and one --epochs); this grid has {n_cells}")
            if not cells:
                raise ValueError("full fine-tuning has no adapter to save; "
                                 "use --save-base for the encoder weights")
            method, cfg = cells[0]
            capture = {}
            rec = run_cell(dims, task, data, base_state, method, cfg,
                           grid.lrs[0], grid.epochs[0], grid.batch_size,
                           grid.seed, capture=capture)
            sink(rec)
            records = [rec]
            model, head = capture["model"], capture["head"]
            model.save_adapter(head, args.save)
            save_head(model, head, args.save)
        else:
            records = run_grid(dims, task, grid, sink=sink, data=data,
                               base_state=base_state)
    finally:
        if out_f:
            out_f.close()
        if csv_f:
            csv_f.close()

    for m in methods:
        print(f"# best[{m}] {task.metric_name}={best_metric(records, m):.4f}",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    model = load_base(args.base)
    task = _task_spec(args)
    data = make_task(task)
    if args.adapter:
        name = model.load_adapter(args.adapter)
        if args.head_file:
            load_head_file(model, name, args.head_file)
        elif not maybe_load_head(model, name, args.adapter):
            raise ValueError(f"no {HEAD_FILE} in {args.adapter}; pass --head-file")
        model.set_active(name)
        head = name
    else:
        if not args.head_file:
            raise ValueError("pass --adapter and/or --head-file")
        head = "head"
        load_head_file(model, head, args.head_file)
    metric = evaluate(model, head, data.eval_x, data.eval_y)
    print(json.dumps({"task": task.kind, "metric": metric,
                      "metric_name": task.metric_name,
                      "eval_samples": int(data.eval_x.shape[0])},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# compose


def cmd_compose(args) -> int:
    model = load_base(args.base)
    for pair in args.adapter or []:
        name, directory = _split_pair(pair)
        loaded = model.load_adapter(directory, name=name)
        maybe_load_head(model, loaded, directory)
    if args.fuse:
        names = [s.strip() for s in args.fuse.split(",")]
        model.add_adapter_fusion(names)
    setup = parse_setup(args.setup)
    model.validate_setup(setup)
    model.set_active(setup)

    if args.input:
        tokens = np.load(args.input)
        if tokens.ndim != 2 or not np.issubdtype(tokens.dtype, np.integer):
            raise ValueError(f"--input must hold a 2-D integer token array, "
                             f"got {tokens.dtype} with shape {tokens.shape}")
    else:
        data = make_task(_task_spec(args))
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
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# average / merge


def cmd_average(args) -> int:
    model = load_base(args.base)
    names = []
    first_dir = None
    for i, pair in enumerate(args.adapter):
        name, directory = _split_pair(pair)
        # sources get private registry names so --name may reuse a stored one
        names.append(model.load_adapter(directory, name=name or f"source{i}"))
        if first_dir is None:
            first_dir = directory
    weights = None
    if args.weights:
        weights = [float(w) for w in args.weights.split(",")]
    new_name = args.name or "averaged"
    model.average_adapters(new_name, names, weights)
    model.save_adapter(new_name, args.out)
    head_src = Path(first_dir) / HEAD_FILE
    if head_src.exists():
        shutil.copyfile(head_src, Path(args.out) / HEAD_FILE)
    print(json.dumps({"name": new_name, "sources": names,
                      "out": str(args.out)}, sort_keys=True))
    return 0


def cmd_merge(args) -> int:
    model = load_base(args.base)
    name = model.load_adapter(args.adapter)
    model.merge_adapter(name)
    out = Path(args.out)
    save_base(model, out)
    head_src = Path(args.adapter) / HEAD_FILE
    if head_src.exists():
        shutil.copyfile(head_src, out / HEAD_FILE)
    print(json.dumps({"merged": name, "out": str(out)}, sort_keys=True))
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
