"""The four peftlab benchmark workloads and their output checks.

Each workload is a closed loop with one client in one process: the next
unit starts only after the previous one returned.  A unit is one grid cell
on the sweeps, one request on ``serve-compose`` and one control-plane
operation on ``lifecycle``.  Every workload drives peftlab only through
public functions, looked up through module attributes so that a traced run
sees every call.

Why these four (see README.md for the layer map):

* ``sweep-flat``: all eleven presets plus ``full-ft`` at one lr and one
  epochs value.  The training hot path of every method; it bypasses any
  epoch-prefix sharing, because no (method, lr) has two milestones.
* ``sweep-milestones``: a regression grid with several epoch milestones
  per (method, lr), the shape of the default ``peftlab train`` grid.
  Grid-runner changes show here; ``sweep-flat`` is their no-change control.
* ``serve-compose``: forward only, at one fixed small batch shape, over a
  seeded rotation of composition setups.  Per-call overhead (setup
  validation, routing contexts, op dispatch) is a large share here, and
  backward and Adam are bypassed.
* ``lifecycle``: add, save, load, average, merge, validate, delete and
  ``check-paper``.  The only workload where ``checkpoint`` and ``configs``
  do most of the work.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import peftlab
from peftlab import cli as CLI
from peftlab import composition as C
from peftlab import registry as R
from peftlab import tasks as TK
from peftlab import training as TR
from peftlab.model import DESK_DIMS, REGRESSION, TAGGING

DIMS = DESK_DIMS
BATCH = 16                     # training batch on the sweeps
REL_TOL = 1e-6                 # stored-reference tolerance for losses, mse and sums
ALLCLOSE = dict(rtol=1e-9, atol=1e-12)   # same values computed two ways
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

WORKLOADS = ("sweep-flat", "sweep-milestones", "serve-compose", "lifecycle")

# Sizes: "full" is what the benchmark measures; "tiny" keeps the
# benchmark's own tests fast.
SIZES = {
    "sweep-flat": {
        "full": dict(seq_len=32, n_train=32, n_eval=32, n_pretrain=64, pretrain_epochs=1,
                     methods=peftlab.configs.CONFIG_NAMES, full_ft=True, lrs=(1e-3,),
                     epochs=(2,), pair_s=5.0),
        "tiny": dict(seq_len=8, n_train=16, n_eval=8, n_pretrain=16, pretrain_epochs=1,
                     methods=("seq_bn", "lora"), full_ft=True, lrs=(1e-3,), epochs=(1,),
                     pair_s=1.0),
    },
    "sweep-milestones": {
        "full": dict(seq_len=32, n_train=16, n_eval=16, n_pretrain=64, pretrain_epochs=1,
                     methods=("seq_bn", "lora", "ia3"), full_ft=False, lrs=(1e-4, 1e-3),
                     epochs=(1, 2, 3, 5), pair_s=5.0),
        "tiny": dict(seq_len=8, n_train=16, n_eval=8, n_pretrain=16, pretrain_epochs=1,
                     methods=("seq_bn",), full_ft=False, lrs=(1e-3,), epochs=(1, 2),
                     pair_s=1.0),
    },
    "serve-compose": {
        "full": dict(batch=4, seq_len=32, n_finetune=32, finetune_lr=1e-2),
        "tiny": dict(batch=4, seq_len=8, n_finetune=8, finetune_lr=1e-2),
    },
    "lifecycle": {
        "full": dict(seq_len=16, n_train=8, n_eval=8, presets=peftlab.configs.CONFIG_NAMES),
        "tiny": dict(seq_len=8, n_train=8, n_eval=8, presets=("seq_bn", "lora", "prompt_tuning")),
    },
}


def percentile(sorted_vals: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail(values: list) -> tuple:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it; the maximum when there are too few samples."""
    vals = sorted(values)
    n = len(vals)
    for pct in TAIL_PERCENTILES:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return pct, percentile(vals, pct)
    return 100, vals[-1]


def close_rel(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


@dataclass
class Stats:
    """Everything one measured phase observed."""

    unit_ms: list = field(default_factory=list)     # latency of each unit that succeeded
    pass_s: list = field(default_factory=list)      # one value per grid / rotation / cycle
    train_samples: int = 0
    train_s: float = 0.0
    eval_seqs: int = 0
    eval_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)     # unit kind -> latencies (ms)

    def record(self, ok: bool, ms, msg=None, kind=None) -> None:
        self.attempted += 1
        if ok:
            if ms is not None:
                self.unit_ms.append(ms)
                self.by_kind.setdefault(kind, []).append(ms)
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(msg)

    def check(self, ok: bool, msg: str) -> None:
        """An output check made outside any unit (set-up cross-checks)."""
        self.record(ok, None, msg)


class Workload:
    """Set-up (timed by the harness), untimed preparation, then passes."""

    name = ""

    def __init__(self, size: str, seed: int, reference: dict, work: Path):
        self.cfg = SIZES[self.name][size]
        self.seed = seed
        self.reference = reference or {}
        self.seed_ref = self.reference.get("seeds", {}).get(str(seed))
        self.work = work
        self.tracer = None
        self.head_labels: dict = {}     # train_model head -> method, for the tracer

    def next_unit(self) -> None:
        if self.tracer is not None:
            self.tracer.cur_unit += 1

    def passes_for(self, seconds: float) -> int:
        """A fixed pass count, or 0 to run passes until the time is spent."""
        return 0

    def setup(self):
        raise NotImplementedError

    def absorb_setup(self, ctx, stats: Stats) -> None:
        """Fold what one timed set-up measured into ``stats``."""

    def prepare(self, ctx, stats: Stats) -> None:
        """Warm-up and cross-checks; untimed, after the last set-up."""

    def run_pass(self, ctx, index: int, stats: Stats) -> None:
        raise NotImplementedError

    def details(self) -> dict:
        return {"reference_checked": self.seed_ref is not None}


# ---------------------------------------------------------------------------
# sweeps


class Sweep(Workload):
    """Grid passes (``run_grid``) alternate with direct passes that drive the
    same cells through ``train_model`` and ``evaluate``, so training and
    evaluation rates are timed without wrapping the program.  Both must
    give the same records."""

    task = ""

    def __init__(self, size, seed, reference, work):
        super().__init__(size, seed, reference, work)
        c = self.cfg
        self.spec = TK.TaskSpec(kind=self.task, vocab=DIMS.vocab, seq_len=c["seq_len"],
                                n_train=c["n_train"], n_eval=c["n_eval"],
                                n_pretrain=c["n_pretrain"], seed=seed)
        self.grid = TR.GridSpec(methods=tuple(c["methods"]), lrs=c["lrs"], epochs=c["epochs"],
                                batch_size=BATCH, seed=seed,
                                pretrain_epochs=c["pretrain_epochs"],
                                include_full_ft=c["full_ft"])
        methods = ([TR.FULL_FT] if c["full_ft"] else []) + list(c["methods"])
        self.cells = [(m, lr, ep) for m in methods for lr in c["lrs"] for ep in c["epochs"]]
        self.grid_records: dict = {}
        self.snapshot_changed = 0

    def passes_for(self, seconds: float) -> int:
        # Fixed work per run: a whole number of (grid, direct) pairs, so the
        # cell count, and with it the tail percentile, is the same each run.
        return 2 * max(1, round(seconds / self.cfg["pair_s"]))

    def setup(self):
        return TR.prepare_base(DIMS, self.spec, self.grid)

    def run_pass(self, ctx, index, stats):
        # run_cell hands the snapshot's own arrays to the encoder, so the
        # full-ft cell's Adam updates write into it and every later cell of
        # the same grid starts from that fine-tuned base.  Each pass gets a
        # fresh copy so that passes repeat; whether the copy changed is
        # reported in the run details.
        data, base = ctx
        snapshot = {k: v.copy() for k, v in base.items()}
        if index % 2 == 0:
            self._grid_pass(data, snapshot, stats)
        else:
            self._direct_pass(data, snapshot, stats)
        if any(not np.array_equal(snapshot[k], base[k]) for k in base):
            self.snapshot_changed += 1

    def _grid_pass(self, data, base, stats):
        recs = []
        last = [0.0]

        def sink(rec):
            now = time.perf_counter()
            recs.append((rec, (now - last[0]) * 1e3))
            last[0] = now
            self.next_unit()

        self.next_unit()
        start = last[0] = time.perf_counter()
        error = None
        try:
            TR.run_grid(DIMS, self.spec, self.grid, sink=sink, data=data, base_state=base)
        except Exception as e:        # counted as failed cells, the run goes on
            error = repr(e)
        stats.pass_s.append(time.perf_counter() - start)
        for i, cell in enumerate(self.cells):
            if i >= len(recs):
                stats.record(False, None, f"grid cell {cell} missing: {error}")
                continue
            rec, ms = recs[i]
            got = dict(method=rec.method, lr=rec.lr, epochs=rec.epochs, n_params=rec.n_params,
                       metric=rec.metric, final_loss=rec.final_loss, diverged=rec.diverged)
            problem = self._check_cell(cell, got)
            self.grid_records[cell] = got
            stats.record(problem is None, ms, problem, kind=cell[0])

    def _direct_pass(self, data, base, stats):
        for cell in self.cells:
            self.next_unit()
            method, lr, epochs = cell
            start = time.perf_counter()
            try:
                got, train_s, eval_s = self._direct_cell(data, base, method, lr, epochs)
            except Exception as e:
                stats.record(False, None, f"direct cell {cell}: {e!r}")
                continue
            ms = (time.perf_counter() - start) * 1e3
            stats.train_samples += data.train_x.shape[0] * epochs
            stats.train_s += train_s
            stats.eval_seqs += data.eval_x.shape[0]
            stats.eval_s += eval_s
            problem = self._check_cell(cell, got)
            grid = self.grid_records.get(cell)
            if problem is None and grid is not None:
                for key in ("metric", "final_loss"):
                    if not close_rel(got[key], grid[key]):
                        problem = f"{cell} {key}: run_grid {grid[key]!r} != direct {got[key]!r}"
            stats.record(problem is None, ms, problem, kind=method)

    def _direct_cell(self, data, base, method, lr, epochs):
        """The cell ``run_grid`` runs, driven through the public calls."""
        seed = self.seed
        model = R.AdapterModel(DIMS, seed=seed)
        model.encoder.load_state_array(base)
        head = method if method != TR.FULL_FT else "baseline"
        model.add_prediction_head(head, self.spec.head_kind, self.spec.head_labels)
        if method == TR.FULL_FT:
            model.train_full(head=head)
            n_params = model.encoder.num_params()
        else:
            model.add_adapter(head, peftlab.configs.parse_config(method))
            model.train_adapter(head)
            n_params = model.adapter_instance(head).num_params()
        t0 = time.perf_counter()
        res = TR.train_model(model, head, data.train_x, data.train_y, lr=lr, epochs=epochs,
                             batch_size=BATCH, seed=seed)
        t1 = time.perf_counter()
        model.set_active(None if method == TR.FULL_FT else head)
        t2 = time.perf_counter()
        metric = TR.evaluate(model, head, data.eval_x, data.eval_y)
        t3 = time.perf_counter()
        got = dict(method=method, lr=lr, epochs=epochs, n_params=n_params, metric=metric,
                   final_loss=res.losses[-1] if res.losses else None, diverged=res.diverged)
        return got, t1 - t0, t3 - t2

    def _check_cell(self, cell, got):
        method, lr, epochs = cell
        if (got["method"], got["lr"], got["epochs"]) != cell:
            return f"cell order: expected {cell}, got {(got['method'], got['lr'], got['epochs'])}"
        want = self.reference.get("n_params", {}).get(method)
        if got["n_params"] != want:
            return f"{cell} n_params {got['n_params']} != reference {want}"
        if got["diverged"] or got["final_loss"] is None:
            return f"{cell} diverged"
        metric, loss = got["metric"], got["final_loss"]
        if not (math.isfinite(metric) and math.isfinite(loss)):
            return f"{cell} non-finite metric {metric!r} / loss {loss!r}"
        if self.spec.metric_name == "accuracy" and not 0.0 <= metric <= 1.0:
            return f"{cell} accuracy {metric} outside [0, 1]"
        if self.spec.metric_name == "mse" and metric < 0.0:
            return f"{cell} negative mse {metric}"
        if self.seed_ref is not None:
            ref = self.seed_ref.get(f"{method}|{lr!r}|{epochs}")
            if ref is None:
                return f"{cell} has no stored reference"
            ref_metric, ref_loss = ref
            # One flipped prediction is the finest step an accuracy can take.
            metric_ok = (abs(metric - ref_metric) <= 1.0 / self.spec.n_eval + 1e-12
                         if self.spec.metric_name == "accuracy"
                         else close_rel(metric, ref_metric))
            if not metric_ok:
                return f"{cell} metric {metric!r} != reference {ref_metric!r}"
            if not close_rel(loss, ref_loss):
                return f"{cell} final_loss {loss!r} != reference {ref_loss!r}"
        return None

    def reference_entry(self, ctx) -> dict:
        """Records of one grid at this seed, in the stored-reference layout."""
        data, base = ctx
        recs = TR.run_grid(DIMS, self.spec, self.grid, data=data,
                           base_state={k: v.copy() for k, v in base.items()})
        return {f"{r.method}|{r.lr!r}|{r.epochs}": [r.metric, r.final_loss] for r in recs}

    def details(self):
        d = super().details()
        d["cells_per_pass"] = len(self.cells)
        d["passes_that_changed_base_snapshot"] = self.snapshot_changed
        return d


class SweepFlat(Sweep):
    name = "sweep-flat"
    task = TK.PARITY


class SweepMilestones(Sweep):
    name = "sweep-milestones"
    task = TK.MASKED_SUM


# ---------------------------------------------------------------------------
# serve-compose


SERVE_ADAPTERS = (("s1", "seq_bn"), ("s2", "seq_bn"), ("pb", "par_bn"), ("lo", "lora"),
                  ("ia", "ia3"), ("cp", "compacter"), ("pf", "prefix_tuning"),
                  ("pr", "prompt_tuning"))
GENERIC_HEAD = "tag"


def serve_setups(b: int, s: int) -> list:
    """(setup text, expected branches) with the branches worked out by hand
    from the composition rules: a leaf labels its rows, ``Stack`` keeps the
    label of its last leaf, ``Parallel`` repeats the batch per child,
    ``BatchSplit`` gives each child its declared rows, and ``Average``,
    ``Fuse`` and ``Split`` keep one unlabelled block.

    The count is odd on purpose: with every setup served equally often, the
    median request then falls inside one setup's latencies instead of on
    the edge between two setups of different cost."""
    h, w = b // 2, s // 2
    return [
        ("s1", [("s1", b)]),
        ("pb", [("pb", b)]),
        ("lo", [("lo", b)]),
        ("ia", [("ia", b)]),
        ("cp", [("cp", b)]),
        ("pf", [("pf", b)]),
        ("Stack(s1, lo)", [("lo", b)]),
        ("Stack(pr, s1)", [("s1", b)]),
        ("Parallel(s1, pb)", [("s1", b), ("pb", b)]),
        (f"BatchSplit(s1, lo, batch_sizes=[{h}, {b - h}])", [("s1", h), ("lo", b - h)]),
        ("Average(s1, s2, weights=[0.25, 0.75])", [(None, b)]),
        ("Fuse(s1, s2)", [(None, b)]),
        (f"Split(s1, pb, splits=[{w}, {s - w}])", [(None, b)]),
    ]


@dataclass
class ServeCtx:
    model: object
    inputs: list
    order: list
    train_samples: int
    train_s: float
    outputs: dict = field(default_factory=dict)


class ServeCompose(Workload):
    name = "serve-compose"

    def __init__(self, size, seed, reference, work):
        super().__init__(size, seed, reference, work)
        self.setups = serve_setups(self.cfg["batch"], self.cfg["seq_len"])
        self.head_labels = dict(SERVE_ADAPTERS)
        self._setup_count = 0

    def setup(self):
        c = self.cfg
        spec = TK.TaskSpec(kind=TK.POSITION_TAG, vocab=DIMS.vocab, seq_len=c["seq_len"],
                           n_train=c["n_finetune"], n_eval=1, n_pretrain=1, num_labels=4,
                           seed=self.seed)
        data = TK.make_task(spec)
        ckpt = self.work / f"serve{self._setup_count}"
        self._setup_count += 1
        trainer = R.AdapterModel(DIMS, seed=self.seed)
        samples, train_s = 0, 0.0
        for name, preset in SERVE_ADAPTERS:
            trainer.add_adapter(name, preset)
            trainer.add_prediction_head(name, TAGGING, 4)
            trainer.train_adapter(name)
            t0 = time.perf_counter()
            TR.train_model(trainer, name, data.train_x, data.train_y, lr=c["finetune_lr"],
                           epochs=1, batch_size=8, seed=self.seed)
            train_s += time.perf_counter() - t0
            samples += data.train_x.shape[0]
            trainer.save_adapter(name, ckpt / name)
        model = R.AdapterModel(DIMS, seed=self.seed)
        for name, _ in SERVE_ADAPTERS:
            model.load_adapter(ckpt / name)
            model.add_prediction_head(name, TAGGING, 4)
        model.add_prediction_head(GENERIC_HEAD, TAGGING, 4)
        model.add_adapter_fusion(("s1", "s2"))
        rng = np.random.default_rng([self.seed, 7])
        inputs = [rng.integers(2, DIMS.vocab, size=(c["batch"], c["seq_len"]))
                  for _ in self.setups]
        order = [int(i) for i in rng.permutation(len(self.setups))]
        return ServeCtx(model, inputs, order, samples, train_s)

    def absorb_setup(self, ctx, stats):
        stats.train_samples += ctx.train_samples
        stats.train_s += ctx.train_s

    def _request(self, model, text, tokens):
        """One request: activate the setup, encode, read the tagging heads."""
        model.set_active(text)
        state = model.encode(tokens)
        if state.branches[0][0] is None:
            outs = {None: model.logits(state, GENERIC_HEAD).data}
        else:
            outs = {k: v.data for k, v in model.branch_logits(state).items()}
        return [tuple(b) for b in state.branches], outs

    def _check_shape(self, i, branches, outs):
        text, expected = self.setups[i]
        if branches != expected:
            return f"{text}: branches {branches} != expected {expected}"
        for label, rows in expected:
            arr = outs.get(label)
            if arr is None or arr.shape != (rows, self.cfg["seq_len"], 4):
                return f"{text}: branch {label} has logits {None if arr is None else arr.shape}"
            if not np.all(np.isfinite(arr)):
                return f"{text}: branch {label} logits are not finite"
        return None

    def prepare(self, ctx, stats):
        model = ctx.model
        for i, (text, _) in enumerate(self.setups):
            branches, outs = self._request(model, text, ctx.inputs[i])
            problem = self._check_shape(i, branches, outs)
            stats.check(problem is None, problem)
            ctx.outputs[i] = outs
        self._cross_checks(ctx, stats)
        if self.seed_ref is not None:
            for i, (text, _) in enumerate(self.setups):
                want = self.seed_ref.get(text)
                got = self._digest(ctx.outputs[i])
                ok = want is not None and len(want) == len(got) and all(
                    w[0] == g[0] and w[1] == g[1] and close_rel(w[2], g[2]) and close_rel(w[3], g[3])
                    for w, g in zip(want, got))
                stats.check(ok, f"{text}: outputs {got} != reference {want}")

    def _cross_checks(self, ctx, stats):
        """Composed outputs against the single adapters they are built from."""
        model = ctx.model
        idx = {text: i for i, (text, _) in enumerate(self.setups)}
        tokens = ctx.inputs[idx["Parallel(s1, pb)"]]
        par = ctx.outputs[idx["Parallel(s1, pb)"]]
        for name in ("s1", "pb"):
            _, single = self._request(model, name, tokens)
            stats.check(np.allclose(par[name], single[name], **ALLCLOSE),
                        f"Parallel branch {name} differs from {name} alone")
        text = next(t for t in idx if t.startswith("BatchSplit"))
        tokens, split = ctx.inputs[idx[text]], ctx.outputs[idx[text]]
        h = self.cfg["batch"] // 2
        for name, part in (("s1", tokens[:h]), ("lo", tokens[h:])):
            _, single = self._request(model, name, part)
            stats.check(np.allclose(split[name], single[name], **ALLCLOSE),
                        f"BatchSplit block {name} differs from {name} on its rows")
        # Fine-tuning in set-up moved every adapter away from the identity.
        tokens = ctx.inputs[0]
        model.set_active(None)
        base = model.encode(tokens).hidden.data
        for name, _ in SERVE_ADAPTERS:
            model.set_active(name)
            hid = model.encode(tokens).hidden.data
            stats.check(hid.shape != base.shape or not np.allclose(hid, base, rtol=0, atol=1e-9),
                        f"adapter {name} still acts as the identity")
        model.set_active(None)

    @staticmethod
    def _digest(outs) -> list:
        return [[label, int(arr.shape[0]), float(arr.sum()), float(np.abs(arr).sum())]
                for label, arr in outs.items()]

    def run_pass(self, ctx, index, stats):
        model = ctx.model
        start = len(stats.unit_ms)
        for i in ctx.order:
            text = self.setups[i][0]
            self.next_unit()
            t0 = time.perf_counter()
            try:
                branches, outs = self._request(model, text, ctx.inputs[i])
            except Exception as e:
                stats.record(False, None, f"{text}: {e!r}")
                continue
            dt = time.perf_counter() - t0
            problem = self._check_shape(i, branches, outs)
            if problem is None:
                ref = ctx.outputs[i]
                if any(not np.array_equal(outs[k], ref[k]) for k in ref):
                    problem = f"{text}: output differs from its first run"
            stats.record(problem is None, dt * 1e3, problem, kind=text)
            stats.eval_seqs += self.cfg["batch"]
            stats.eval_s += dt
        stats.pass_s.append(sum(stats.unit_ms[start:]) / 1e3)

    def reference_entry(self, ctx) -> dict:
        return {text: self._digest(self._request(ctx.model, text, ctx.inputs[i])[1])
                for i, (text, _) in enumerate(self.setups)}

    def details(self):
        d = super().details()
        d["rotation"] = [self.setups[i][0] for i in range(len(self.setups))]
        d["batch_shape"] = [self.cfg["batch"], self.cfg["seq_len"]]
        return d


# ---------------------------------------------------------------------------
# lifecycle


@dataclass
class LifeCtx:
    model: object
    data: object
    order: list


class Lifecycle(Workload):
    name = "lifecycle"

    def __init__(self, size, seed, reference, work):
        super().__init__(size, seed, reference, work)
        self.head_labels = {"keep_lora": "lora"}

    def setup(self):
        c = self.cfg
        spec = TK.TaskSpec(kind=TK.MASKED_SUM, vocab=DIMS.vocab, seq_len=c["seq_len"],
                           n_train=c["n_train"], n_eval=c["n_eval"], n_pretrain=1,
                           seed=self.seed)
        data = TK.make_task(spec)
        model = R.AdapterModel(DIMS, seed=self.seed)
        model.add_adapter("keep", "seq_bn")
        model.add_adapter("keep_lora", "lora")
        model.add_prediction_head("keep_lora", REGRESSION, 1)
        rng = np.random.default_rng([self.seed, 11])
        presets = list(c["presets"])
        order = [presets[int(i)] for i in rng.permutation(len(presets))]
        return LifeCtx(model, data, order)

    def _op(self, stats, label, fn, check=None):
        """Time ``fn`` as one unit; ``check(result)`` returns a problem or None."""
        self.next_unit()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:
            stats.record(False, None, f"{label}: {e!r}")
            return None
        ms = (time.perf_counter() - t0) * 1e3
        problem = check(out) if check is not None else None
        stats.record(problem is None, ms, problem and f"{label}: {problem}",
                     kind=label.split()[0])
        return out

    def run_pass(self, ctx, index, stats):
        start = len(stats.unit_ms)
        self._model_ops(ctx, stats)
        for preset in ctx.order:
            self._adapter_ops(ctx, preset, stats)
        stats.pass_s.append(sum(stats.unit_ms[start:]) / 1e3)

    def _model_ops(self, ctx, stats):
        """Fine-tune, evaluate, merge, unmerge and check-paper, once a pass."""
        m, d = ctx.model, ctx.data
        n_train, n_eval = d.train_x.shape[0], d.eval_x.shape[0]

        def train():
            m.train_adapter("keep_lora")
            t0 = time.perf_counter()
            res = TR.train_model(m, "keep_lora", d.train_x, d.train_y, lr=1e-3, epochs=1,
                                 batch_size=8, seed=self.seed)
            stats.train_s += time.perf_counter() - t0
            stats.train_samples += n_train
            return res

        def evaluate():
            t0 = time.perf_counter()
            val = TR.evaluate(m, "keep_lora", d.eval_x, d.eval_y)
            stats.eval_s += time.perf_counter() - t0
            stats.eval_seqs += n_eval
            return val

        self._op(stats, "train", train,
                       lambda r: None if not r.diverged and math.isfinite(r.losses[-1])
                       else f"diverged or non-finite loss {r.losses[-1:]}")
        m.set_active("keep_lora")
        with_adapter = self._op(stats, "evaluate", evaluate,
                                lambda v: None if math.isfinite(v) else f"mse {v}")
        m.set_active(None)
        before = {k: t.data.copy() for k, t in m.encoder.params.items()}
        fp = m.base_fingerprint()
        self._op(stats, "merge", lambda: m.merge_adapter("keep_lora"),
                 lambda _: "merge left the base unchanged" if m.base_fingerprint() == fp
                 else None)
        self._op(stats, "evaluate merged", evaluate,
                          lambda v: None if with_adapter is not None and close_rel(
                              v, with_adapter, rel=1e-9)
                          else f"merged mse {v!r} != adapter mse {with_adapter!r}")
        self._op(stats, "unmerge", lambda: m.unmerge_adapter("keep_lora"),
                 lambda _: None if all(np.allclose(t.data, before[k], **ALLCLOSE)
                                       for k, t in m.encoder.params.items())
                 else "unmerge did not restore the base weights")

        def check_paper():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return CLI.main(["check-paper"])

        self._op(stats, "check-paper", check_paper,
                 lambda rc: None if rc == 0 else f"exit code {rc}")

    def _adapter_ops(self, ctx, preset, stats):
        m = ctx.model
        seq = self.cfg["seq_len"]
        path = self.work / "lc"
        want_params = self.reference.get("n_params", {}).get(preset)

        self._op(stats, f"add {preset}", lambda: m.add_adapter("lc", preset),
                 lambda inst: None if inst.num_params() == want_params
                 else f"{inst.num_params()} params, reference {want_params}")
        self._op(stats, f"save {preset}", lambda: m.save_adapter("lc", path),
                 lambda p: None if (p / "weights.bin").is_file() else "no weights file")

        def same_as_saved(_):
            src, got = m.adapter_instance("lc").tensors, m.adapter_instance("lc_loaded").tensors
            if set(src) != set(got):
                return "tensor names differ"
            for k, t in src.items():
                if not np.array_equal(got[k].data, t.data.astype(np.float32).astype(np.float64)):
                    return f"tensor {k} is not bit-exact after save/load"
            return None

        self._op(stats, f"load {preset}", lambda: m.load_adapter(path, name="lc_loaded"),
                 same_as_saved)

        def average_is_identity(inst):
            src = m.adapter_instance("lc").tensors
            for k, t in inst.tensors.items():
                if not np.array_equal(t.data, src[k].data):
                    return f"average(a, a) differs from a in {k}"
            return None

        self._op(stats, f"average {preset}", lambda: m.average_adapters("lc_avg", ["lc", "lc"]),
                 average_is_identity)

        valid = ["Stack(keep, lc)"]
        invalid = ["Stack(keep, lc",                              # parse error
                   "Fuse(Stack(keep, lc), keep)",                 # nesting
                   "Stack(keep, no_such_adapter)",                # unknown adapter
                   "BatchSplit(keep, lc, batch_sizes=[1, 2])",    # rows != batch
                   f"Split(keep_lora, keep, splits=[{seq // 2}, {seq - seq // 2}])"]  # attention

        def validate():
            outcome = []
            for text in valid + invalid:
                try:
                    m.validate_setup(C.parse_setup(text), batch=4, seq=seq)
                    outcome.append(None)
                except C.CompositionError as e:
                    outcome.append(e)
            return outcome

        self._op(stats, f"validate {preset}", validate,
                 lambda out: None if out[:len(valid)] == [None] * len(valid)
                 and all(e is not None for e in out[len(valid):])
                 else f"valid/invalid verdicts {[e is None for e in out]}")

        def delete():
            for name in ("lc_avg", "lc_loaded", "lc"):
                m.delete_adapter(name)
            return m.adapter_names()

        self._op(stats, f"delete {preset}", delete,
                 lambda names: None if names == ["keep", "keep_lora"] else f"left {names}")
        shutil.rmtree(path, ignore_errors=True)


CLASSES = {cls.name: cls for cls in (SweepFlat, SweepMilestones, ServeCompose, Lifecycle)}

