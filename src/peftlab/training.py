"""Training loops, the Adam optimizer, and the hyperparameter grid runner.

Cells are fully deterministic: a (seed, lr, epochs, method) tuple always
reproduces the same metric, and report records carry everything needed to
rerun one cell.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from itertools import groupby
from multiprocessing.connection import wait
from typing import Optional

import numpy as np

from . import model as M
from . import tensor as T
from .composition import Leaf, validate_composition
from .configs import ConfigError, config_to_dict, expand_axes, parse_config, prepended_rows
from .methods import instantiate_adapter
from .model import (REGRESSION, TAGGING, Activations, CapacityError, ModelDims, Stage,
                    TransformerEncoder)
from .registry import AdapterModel
from .tasks import Dataset, TaskSpec, make_task
from .tensor import Tape, Tensor


class Adam:
    """Standard bias-corrected Adam over a list of tensors.

    Tensors without a gradient are skipped; gradients are cleared by
    ``zero_grad`` (accumulation is the caller's choice otherwise).
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        if isinstance(params, dict):
            params = list(params.values())
        self.params = list(params)
        self.lr = float(lr)
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._size = max((p.data.size for p in self.params), default=0)

    def step(self) -> None:
        """``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` after the moment
        updates, each operation in that order, in two work rows that every
        tensor shares and the step frees."""
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        work = np.empty((2, self._size))
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            a, b = (row[:m.size].reshape(m.shape) for row in work)
            m *= self.b1
            m += np.multiply(g, 1.0 - self.b1, out=a)
            v *= self.b2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.b2
            v += a
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# losses and metrics


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood; accepts (B, C) or (B, S, C) logits."""
    labels = np.asarray(labels)
    logp = T.log_softmax(logits, axis=-1)
    onehot = np.zeros(logits.shape)
    if logits.ndim == 2:
        onehot[np.arange(labels.shape[0]), labels] = 1.0
        n = labels.shape[0]
    else:
        b_idx, s_idx = np.meshgrid(np.arange(labels.shape[0]), np.arange(labels.shape[1]),
                                   indexing="ij")
        onehot[b_idx, s_idx, labels] = 1.0
        n = labels.size
    return T.scale(T.tsum(T.mul(logp, T.constant(onehot))), -1.0 / n)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64).reshape(pred.shape)
    diff = pred - T.constant(target)
    return T.tmean(T.mul(diff, diff))


def task_loss(kind: str, logits: Tensor, y: np.ndarray) -> Tensor:
    if kind == REGRESSION:
        return mse_loss(logits, y)
    return cross_entropy(logits, y)


def task_metric(kind: str, logits: np.ndarray, y: np.ndarray) -> float:
    """Accuracy for (token) classification, mean squared error otherwise."""
    if kind == REGRESSION:
        return float(np.mean((logits.reshape(y.shape) - y) ** 2))
    pred = logits.argmax(axis=-1)
    return float(np.mean(pred == y))


def evaluate(model: AdapterModel, head: str, x: np.ndarray, y: np.ndarray,
             batch_size: int = 64, start: Optional[Activations] = None) -> float:
    """``head``'s task metric on ``x`` against ``y``, through the active
    setup, in batches of ``batch_size``.  Classification and regression
    heads read one position, so they use the encoder's pooled readout.  A
    setup with more than one output branch is refused before anything is
    encoded: each branch has its own rows, which
    :meth:`AdapterModel.branch_logits` scores.  So are an ``x`` with no
    sequence, a ``y`` row count other than ``x``'s and a ``batch_size``
    that is not an int >= 1 (:class:`ValueError`).

    Each batch of many tokens is encoded in row blocks on threads (see
    :meth:`AdapterModel.encode`), and the head runs once on the joined
    batch, so the metric is the same to all digits as on one thread.

    ``start``, ``x``'s activations at a frozen stage
    (:meth:`~peftlab.model.TransformerEncoder.prefix`), lets each batch
    start there (see :meth:`AdapterModel.encode`); the metric is the same
    to all digits.  Evaluation reads each sequence once, so it computes no
    such activations itself."""
    kind = model.head(head).kind
    _check_batches(x, y, batch_size, start)
    if model.active is not None:
        branches = len(model.validate_setup(model.active).branches)
        if branches > 1:
            raise ValueError(f"the active setup has {branches} output branches; "
                             f"score each with branch_logits")
    outs = []
    for off in range(0, x.shape[0], batch_size):
        rows = slice(off, off + batch_size)
        state = model.encode(x[rows], pooled=kind != TAGGING,
                             start=None if start is None else start.take(rows))
        outs.append(model.logits(state, head).data)
    return task_metric(kind, np.concatenate(outs, axis=0), y)


def _check_batches(x: np.ndarray, y: np.ndarray, batch_size,
                   start: Optional[Activations] = None) -> None:
    """:class:`ValueError` unless ``x`` has a sequence, ``y`` one row per
    sequence, ``batch_size`` is an int >= 1 and ``start``, when given, holds
    one row per sequence."""
    if x.shape[0] == 0:
        raise ValueError("x needs at least one sequence")
    if np.shape(y)[0] != x.shape[0]:
        raise ValueError(f"y has {np.shape(y)[0]} rows but x has {x.shape[0]}")
    if not _is_int(batch_size, 1):
        raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r}")
    if start is not None and start.arrays["h"].shape[:2] != x.shape[:2]:
        raise ValueError(f"start holds activations of shape {start.arrays['h'].shape[:2]} "
                         f"for x of shape {x.shape[:2]}")


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    losses: list
    steps: int
    diverged: bool


def train_milestones(model: AdapterModel, head: str, x: np.ndarray, y: np.ndarray,
                     lr: float, milestones, batch_size: int = 16, seed: int = 0,
                     start: Optional[Activations] = None, compute_start: bool = True):
    """Minimize the task loss over the model's trainable partition, once
    through every epoch count in ``milestones``.

    Returns a generator that yields ``(epochs, TrainResult)`` at each
    milestone, in ascending order with duplicates dropped, while the model
    holds exactly the state that training for ``epochs`` from scratch gives
    (each epoch's shuffle comes from one seeded stream and there is no LR
    schedule).  A non-finite loss ends training; every later milestone then
    reports the same diverged result.

    Steps start at the active setup's frozen stage
    (:meth:`AdapterModel.frozen_stage`) from ``start``, ``x``'s activations
    there (see :func:`evaluate`), each step taking its batch's rows of them
    in the epoch's shuffled order.  Without ``start``, when
    ``compute_start`` is set and training reads ``x`` more than once (the
    last milestone is 2 or more), they are computed here first, if they fit
    ``PREFIX_CACHE_BYTES``.  The losses and the trained weights are the
    same to all digits either way.

    Bad input raises when this is called, before any step:
    :class:`ValueError` for a milestone that is not an int >= 1, and for
    the cases :func:`evaluate` refuses (no sequence, a ``y`` row count
    other than ``x``'s, a ``batch_size`` that is not an int >= 1, a
    ``start`` with other rows) and for an active setup that copies rows
    (``Parallel``), whose branches the loss, reading one label row per
    input row, cannot score; :class:`RuntimeError` when nothing is
    trainable."""
    _check_batches(x, y, batch_size, start)
    milestones = list(milestones)
    if not all(_is_int(m, 1) for m in milestones):
        raise ValueError(f"every milestone must be an int >= 1, got {milestones}")
    if model.active is not None and model.validate_setup(model.active).root.replicates:
        raise ValueError("the active setup copies each input row into several branches, "
                         "but the loss reads one label row per input row; train each "
                         "branch alone and score branches with branch_logits")
    params = model.trainable_parameters()
    if not params:
        raise RuntimeError("nothing is trainable; call train_adapter or train_full first")
    return _milestones(model, head, x, y, Adam(params, lr=lr), sorted(set(milestones)),
                       batch_size, seed, start, compute_start)


def _milestones(model: AdapterModel, head: str, x: np.ndarray, y: np.ndarray, opt: Adam,
                milestones: list, batch_size: int, seed: int, start: Optional[Activations],
                compute_start: bool):
    """The generator behind :func:`train_milestones`, over checked input."""
    kind = model.head(head).kind
    if start is None and compute_start and milestones[-1] > 1:
        stage = model.frozen_stage()
        if stage is not None and _prefix_bytes(stage, x, model.dims) <= PREFIX_CACHE_BYTES:
            start = model.encoder.prefix(x, stage)
    rng = np.random.default_rng(seed)
    losses = []
    n = x.shape[0]
    done, diverged = 0, False
    for target in milestones:
        while done < target and not diverged:
            perm = rng.permutation(n)
            for off in range(0, n, batch_size):
                idx = perm[off:off + batch_size]
                val = _train_step(model, head, kind, x[idx], y[idx],
                                  None if start is None else start.take(idx))
                if not np.isfinite(val):
                    diverged = True
                    break
                opt.step()
                opt.zero_grad()
                losses.append(val)
            done += 1
        yield target, TrainResult(losses[:], len(losses), diverged)


def _train_step(model: AdapterModel, head: str, kind: str, xb: np.ndarray,
                yb: np.ndarray, start: Optional[Activations] = None) -> float:
    """Forward one batch, from ``start`` when given, and, when its loss is
    finite, backward into the trainable gradients.  The step's activations
    are freed on return.  Classification and regression heads train through
    the encoder's pooled readout, whose gradients equal the full path's bit
    for bit."""
    with Tape() as tape:
        state = model.encode(xb, pooled=kind != TAGGING, start=start)
        loss = task_loss(kind, model.logits(state, head), yb)
        val = loss.item()
        if np.isfinite(val):
            tape.backward(loss)
    return val


def train_model(model: AdapterModel, head: str, x: np.ndarray, y: np.ndarray,
                lr: float, epochs: int, batch_size: int = 16,
                seed: int = 0) -> TrainResult:
    """Minimize the task loss over the model's trainable partition for
    ``epochs`` epochs: :func:`train_milestones` with one milestone."""
    return next(train_milestones(model, head, x, y, lr, (epochs,), batch_size, seed))[1]


def pretrain_base(model: AdapterModel, spec: TaskSpec, data: Dataset,
                  epochs: int, lr: float = 1e-3, seed: int = 0) -> None:
    """Fit the raw backbone on the held-out pretraining split (full
    fine-tuning with a throwaway head), then freeze it again."""
    if epochs <= 0:
        return
    head = "_pretrain"
    if not model.has_head(head):
        model.add_prediction_head(head, spec.head_kind, spec.head_labels)
    model.train_full(head=head)
    train_model(model, head, data.pretrain_x, data.pretrain_y,
                lr=lr, epochs=epochs, seed=seed)
    model.freeze_all()
    model.set_active(None)


# ---------------------------------------------------------------------------
# grid runner


# Hyperparameter sets mirrored by the harness; the learning-rate list is the
# deduplicated published set.
DEFAULT_LRS = (1e-5, 1e-4, 5e-4, 1e-3)
DEFAULT_EPOCHS = (5, 10, 20, 30)

FULL_FT = "full-ft"


@dataclass(frozen=True)
class GridSpec:
    """A grid's cells.  Every list is a set: methods, lrs and axis values
    keep their first-seen order and epochs ascend, the order a chain
    reaches them in.  Each axis (config field -> values) applies to every
    selected config with that field.  Values no grid can run, and a grid
    with no cells, raise :class:`ValueError`; a bool is never a number."""

    methods: tuple = ("seq_bn",)
    lrs: tuple = DEFAULT_LRS
    epochs: tuple = DEFAULT_EPOCHS
    batch_size: int = 16
    seed: int = 0
    pretrain_epochs: int = 4
    include_full_ft: bool = False
    axes: dict = field(default_factory=dict)   # config field -> values

    def __post_init__(self):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < np.inf
                   for v in self.lrs):
            raise ValueError(f"every lr must be a finite number > 0, got {list(self.lrs)}")
        if not all(_is_int(v, 1) for v in self.epochs):
            raise ValueError(f"every epoch count must be an int >= 1, got {list(self.epochs)}")
        if not _is_int(self.batch_size, 1):
            raise ValueError(f"batch_size must be an int >= 1, got {self.batch_size!r}")
        if not _is_int(self.pretrain_epochs, 0):
            raise ValueError(f"pretrain_epochs must be an int >= 0, got {self.pretrain_epochs!r}")
        object.__setattr__(self, "methods", tuple(dict.fromkeys(self.methods)))
        object.__setattr__(self, "lrs", tuple(dict.fromkeys(self.lrs)))
        object.__setattr__(self, "epochs", tuple(sorted(set(self.epochs))))
        # keyed by type as well, so that 8 and 8.0 each meet the field's type check
        object.__setattr__(self, "axes", {k: tuple({(type(v), v): v for v in vs}.values())
                                          for k, vs in self.axes.items()})
        if (not (self.methods or self.include_full_ft) or not self.lrs or not self.epochs
                or not all(self.axes.values())):
            raise ValueError("nothing to train: a grid needs a method or full-ft, an lr, "
                             "an epoch count and a value for each axis")


def _is_int(v, least: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


@dataclass
class CellRecord:
    """One grid cell's result.

    ``seconds`` is the wall time spent on the cell's chain (see
    :func:`run_grid`) from its start, model construction included, until
    this record was ready, in the process that ran the chain: a grid
    worker, or the caller's.  Time spent between records, handing them
    on, is not counted.  A chain's last milestone therefore carries its
    whole cost, and a cell run on its own carries exactly its own."""

    method: str
    config: dict
    lr: float
    epochs: int
    seed: int
    metric: float
    metric_name: str
    n_params: int
    seconds: float
    diverged: bool = False
    final_loss: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


CSV_FIELDS = ("method", "config", "lr", "epochs", "seed", "metric", "metric_name",
              "n_params", "seconds", "diverged", "final_loss")


def record_to_csv_row(rec: CellRecord) -> str:
    d = dataclasses.asdict(rec)
    d["config"] = json.dumps(d["config"], sort_keys=True).replace(",", ";")
    return ",".join(str(d[k]) for k in CSV_FIELDS)


def prepare_base(dims: ModelDims, spec: TaskSpec, grid: GridSpec):
    """Build the task data and a pretrained-base snapshot shared by cells.
    Pretraining for an epoch or more needs a pretraining split, so
    ``spec.n_pretrain`` 0 then raises :class:`ValueError` before any of it."""
    if grid.pretrain_epochs > 0 and spec.n_pretrain < 1:
        raise ValueError(f"pretrain_epochs {grid.pretrain_epochs} needs n_pretrain >= 1, "
                         f"got {spec.n_pretrain}")
    data = make_task(spec)
    model = AdapterModel(dims, seed=grid.seed)
    pretrain_base(model, spec, data, epochs=grid.pretrain_epochs, seed=grid.seed)
    return data, model.encoder.state_array()


def run_cell(dims: ModelDims, spec: TaskSpec, data: Dataset, base_state: dict,
             method: str, config, lr: float, epochs: int, batch_size: int,
             seed: int, capture: Optional[dict] = None) -> CellRecord:
    """Train one (method, lr, epochs) cell from the shared base snapshot.

    When ``capture`` is a dict, the trained model and head name are stored
    under ``"model"``/``"head"`` so callers can persist the result."""
    return next(_run_chain(dims, spec, data, base_state, method, config, lr, (epochs,),
                           batch_size, seed, capture))


def _run_chain(dims: ModelDims, spec: TaskSpec, data: Dataset, base_state: dict,
               method: str, config, lr: float, milestones, batch_size: int,
               seed: int, capture: Optional[dict] = None, starts: Optional[tuple] = None):
    """Build one (method, config, lr) model from the base snapshot, train it
    once through ``milestones`` and yield the record of each, in ascending
    epoch order.  ``starts``, the train and eval splits' activations at the
    adapter's frozen stage, lets every step and evaluation start there; a
    grid passes ``(None, None)`` for a chain whose stage it did not store,
    and the chain then computes none itself."""
    train_start, eval_start = starts or (None, None)
    start = time.perf_counter()
    model = AdapterModel(dims, seed=seed, base_state=base_state)
    head = method if method != FULL_FT else "baseline"
    model.add_prediction_head(head, spec.head_kind, spec.head_labels)
    if method == FULL_FT:
        model.train_full(head=head)
        n_params = model.encoder.num_params()
    else:
        model.add_adapter(head, config)
        model.train_adapter(head)
        n_params = model.adapter_instance(head).num_params()
    if capture is not None:
        capture["model"] = model
        capture["head"] = head
    axes = {} if config is None else _config_axes(config, method)
    for epochs, result in train_milestones(model, head, data.train_x, data.train_y,
                                           lr, milestones, batch_size, seed, train_start,
                                           compute_start=starts is None):
        if result.diverged:
            metric = float("nan")
        else:
            metric = evaluate(model, head, data.eval_x, data.eval_y, start=eval_start)
        spent = time.perf_counter() - start
        yield CellRecord(
            method=method,
            config=dict(axes),
            lr=lr,
            epochs=epochs,
            seed=seed,
            metric=metric,
            metric_name=spec.metric_name,
            n_params=n_params,
            seconds=round(spent, 3),
            diverged=result.diverged,
            final_loss=result.losses[-1] if result.losses else None,
        )
        start = time.perf_counter() - spent


def _config_axes(config, method: str) -> dict:
    """Record only the axes that distinguish this cell from the preset."""
    base = config_to_dict(parse_config(method))
    return {k: v for k, v in config_to_dict(config).items() if v != base[k]}


def grid_chains(grid: GridSpec, dims: ModelDims, seq_len: int) -> list:
    """The grid's cells in grid order, as ``(method, config, lr, epochs)``
    chains: the methods, with ``full-ft`` first when ``include_full_ft`` is
    set, then each method's axis variants, then the lrs, then the epochs.
    An adapter chain holds every epoch count of ``grid.epochs``; a
    ``full-ft`` chain (config ``None``) holds one, since full-ft cells are
    not chained (see :func:`run_grid`).  Before anything is returned, every
    adapter config is checked against ``dims`` (:func:`validate_config`),
    every axis must apply to one, and sequences of ``seq_len`` tokens, plus
    the rows each config prepends, must fit ``dims.max_seq``
    (:class:`CapacityError`)."""
    if seq_len > dims.max_seq:
        raise CapacityError(f"sequence length {seq_len} exceeds max_seq {dims.max_seq}")
    methods = list(grid.methods)
    if grid.include_full_ft and FULL_FT not in methods:
        methods = [FULL_FT] + methods
    chains, applied = [], set()
    for method in methods:
        if method == FULL_FT:
            chains += [(method, None, lr, (ep,)) for lr in grid.lrs for ep in grid.epochs]
            continue
        preset = parse_config(method)
        names = {f.name for f in dataclasses.fields(preset)}
        axes = {k: v for k, v in grid.axes.items() if k in names}
        applied.update(axes)
        for _, cfg in expand_axes(preset, axes):
            rows = prepended_rows(cfg, dims)
            if seq_len + rows > dims.max_seq:
                raise CapacityError(f"sequence {seq_len} + prepended rows {rows} exceeds "
                                    f"max_seq {dims.max_seq} for {method}")
            chains += [(method, cfg, lr, grid.epochs) for lr in grid.lrs]
    for name in grid.axes:
        if name not in applied:
            raise ConfigError(f"axis {name!r} does not apply to any selected config")
    return chains


def run_grid(dims: ModelDims, spec: TaskSpec, grid: GridSpec, sink=None,
             data: Optional[Dataset] = None, base_state: Optional[dict] = None) -> list:
    """Run the cells of :func:`grid_chains`; returns all cell records in
    grid order, invoking ``sink(record)`` on each in that order.

    Each adapter (method, config, lr) is one chain: its model is trained
    once, to ``max(grid.epochs)``, and evaluated at every requested epoch
    count.  Every record equals what :func:`run_cell` gives for that cell
    on its own, to all digits; only ``seconds`` differs (see
    :class:`CellRecord`).

    Chains run in worker processes forked from this one, one per CPU this
    process may run on (``os.sched_getaffinity``) and no more than there
    are chains; with one such CPU, or without ``fork``, they run here, in
    grid order.  Workers take chains longest first, by the ``STEP_COST``
    estimate, when a simulation of the hand-out predicts that this ends
    the run strictly sooner than grid order; otherwise in grid order, which
    brings the first records soonest.  They send each record as its
    milestone is reached.  Only this process calls ``sink``: the earliest
    unfinished chain's records pass through as they arrive, and later
    chains' records wait for their turn, so the order of work never
    changes the records or their order.  An exception raised in a chain is
    raised here, with its own type, once every earlier record has reached
    ``sink``; a worker that exits without finishing its chain raises
    :class:`RuntimeError`.  When several chains fail, the earliest in grid
    order is raised, as a serial run raises it.  No worker outlives the
    call.

    ``full-ft`` cells are not chained, and they run in this process:
    full fine-tuning trains in the ``base_state`` arrays themselves (a
    chain's encoder is built over them, not over a copy), so each full-ft
    cell, and every cell after it, starts from the base the previous
    full-ft cell left, and a chain would change those records.  Each run of adapter chains between
    full-ft cells forks its own workers, so every chain sees the base a
    serial run gives it.

    Below an adapter's first adapted stage (:attr:`Plan.start`) its encodes
    compute only frozen layers.  So before each run of adapter chains, on
    the base the full-ft cells before it left, this process computes the
    train and eval splits' activations at each stage that run's adapters
    start at, once, within ``PREFIX_CACHE_BYTES`` (latest stage first, as
    a later stage skips more per stored byte); workers share them
    copy-on-write.  Every step and evaluation of a chain starts there; the
    records are the same to all digits.

    This process's forward-only encodes (those activations, and the
    evaluations of full-ft cells) run in row blocks on one thread per CPU
    (:meth:`~peftlab.model.TransformerEncoder.in_row_blocks`), which are
    joined before each encode returns, so no fork copies a live thread.
    Workers encode on one thread each, since together they already use
    every CPU.

    ``data``/``base_state`` may be supplied to reuse an existing pretrained
    snapshot; otherwise the base is pretrained here, once every config of
    the grid has passed :func:`validate_config`."""
    chains = grid_chains(grid, dims, spec.seq_len)
    if data is None or base_state is None:
        data, base_state = prepare_base(dims, spec, grid)

    records = []

    def emit(rec):
        records.append(rec)
        if sink is not None:
            sink(rec)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for full_ft, run in groupby(chains, key=lambda chain: chain[0] == FULL_FT):
        run = list(run)
        starts = {} if full_ft else _frozen_starts(dims, data, base_state, run)

        def run_one(chain, starts=starts):       # (method, config, lr, milestones)
            return _run_chain(dims, spec, data, base_state, *chain, grid.batch_size,
                              grid.seed, None, starts.get(chain[1], (None, None)))

        workers = 1 if full_ft else min(cpus, len(run))
        order = range(len(run)) if full_ft else _hand_out_order(run, workers)
        _run_chains(run, run_one, emit, workers, order)
    return records


# The most bytes of stored activations (TransformerEncoder.prefix) that one
# training run, or one run of grid chains, computes; a stage that would pass
# it is not stored, and its runs start at the embedding.  One stored array
# costs 8 bytes per token per hidden width: 16 KiB per 32-token sequence at
# desk dims.  The criterion-9 grid (4,000 train and 1,000 eval sequences)
# stores its bottleneck stages, 3 arrays (h and f_in after the feed-forward
# residual, h after the attention residual), in 246 MB; its attention stage
# would add 5 arrays, 410 MB, for the least work skipped per byte, and is
# left out.  A grid's workers share the parent's arrays copy-on-write and
# compute none of their own, so this bounds what a grid adds to the host's
# memory.
PREFIX_CACHE_BYTES = 256 << 20

# The relative cost of one training step of each preset, in ms: the
# per-method `training.step_ms` of
#   python3 perfbench/run.py --workload sweep-flat --seed 11 --seconds 10 --trace 1
# (desk dims, batch 16 x 32 tokens, from stored activations where the preset
# has a frozen stage, BLAS on one thread), rounded.  A chain's cost is its
# preset's times its last milestone.  It only decides the order in which
# workers take chains (see _hand_out_order), never a record.
STEP_COST = {"seq_bn": 7, "par_bn": 8, "double_seq_bn": 10, "ia3": 12, "lora": 13,
             "seq_bn_inv": 14, "prompt_tuning": 15, "compacter": 16, "prefix_tuning": 17,
             "mam": 22, "unipelt": 32}


def _prefix_bytes(stage: Stage, x: np.ndarray, dims: ModelDims) -> int:
    """The bytes of ``x``'s activations at ``stage``."""
    return len(stage.arrays) * x.size * dims.hidden * 8


def _adapter_stage(dims: ModelDims, config) -> Optional[Stage]:
    """The frozen stage of a one-adapter setup of ``config`` (see
    :attr:`Plan.start`), from a dry build of it."""
    inst = instantiate_adapter("a", config, dims, None)
    return validate_composition(Leaf("a"), lambda _: inst).start


def _frozen_starts(dims: ModelDims, data: Dataset, base_state: dict, chains: list) -> dict:
    """config -> the (train, eval) activations that the adapter ``chains``
    with that config start from: one pair per stage, at the position the
    configs start at, holding every array any of them reads there, kept
    latest stage first while they fit ``PREFIX_CACHE_BYTES`` and computed in
    one walk per split."""
    stages = {cfg: _adapter_stage(dims, cfg) for cfg in dict.fromkeys(c[1] for c in chains)}
    merged = {}
    for st in filter(None, stages.values()):
        held = merged.get(st.position)
        merged[st.position] = st if held is None else held._replace(reads=held.reads | st.reads)
    kept, spent = [], 0
    for position in sorted(merged, reverse=True):
        stage = merged[position]
        size = _prefix_bytes(stage, data.train_x, dims) + _prefix_bytes(stage, data.eval_x, dims)
        if spent + size <= PREFIX_CACHE_BYTES:
            spent += size
            kept.append(stage)
    encoder = TransformerEncoder(dims, state=base_state)
    pairs = dict(zip((st.position for st in kept),
                     zip(encoder.prefix(data.train_x, kept), encoder.prefix(data.eval_x, kept))))
    return {cfg: pairs[st.position] for cfg, st in stages.items()
            if st is not None and st.position in pairs}


def _makespan(costs: list, order, workers: int) -> int:
    """When the last of ``workers`` ends if each free worker, the lowest
    index first, takes the next chain of ``order``; chain ``i`` costs
    ``costs[i]``."""
    ends = [0] * workers
    for i in order:
        ends[ends.index(min(ends))] += costs[i]
    return max(ends)


def _hand_out_order(chains: list, workers: int) -> list:
    """The order in which ``workers`` take the adapter ``chains``, by their
    ``STEP_COST`` estimate: longest first (ties in grid order) when that is
    predicted to end strictly sooner than grid order, else grid order,
    whose earliest records reach the sink soonest."""
    costs = [STEP_COST[method] * milestones[-1] for method, _, _, milestones in chains]
    grid_order = list(range(len(costs)))
    longest = sorted(grid_order, key=lambda i: -costs[i])
    if _makespan(costs, longest, workers) < _makespan(costs, grid_order, workers):
        return longest
    return grid_order


def _run_chains(chains: list, run_one, emit, workers: int, order) -> None:
    """``emit`` the records of ``chains`` in grid order, running the chains
    in ``workers`` forked processes, which take them in ``order`` (chain
    indices), or in this one, in grid order, when ``workers`` is 1 or
    ``fork`` is not available.

    A chain fails when it raises or its worker exits before it ends; a
    worker that exits is replaced while chains are left to hand out.  After
    a failure only the chains before it in grid order are still handed out,
    and the earliest failure's exception is raised once every record before
    it has been emitted: what running the chains here, in grid order,
    raises."""
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        for chain in chains:
            for rec in run_one(chain):
                emit(rec)
        return
    ctx = multiprocessing.get_context("fork")
    received = [[] for _ in chains]   # records not yet emitted, per chain
    outcome = [None] * len(chains)    # True once done, or the exception it raised
    todo = list(order)[::-1]          # chains not handed out, the next one last
    owed = len(chains)                # the earliest failed chain; none from it on is owed
    held = {}                         # worker's connection -> [process, the chain it runs]
    head = 0                          # the earliest chain not wholly emitted

    def next_chain():
        while todo:
            if (i := todo.pop()) < owed:
                return i
        return None

    def fail(i, exc):
        nonlocal owed
        outcome[i], owed = exc, min(owed, i)

    def start():                      # a worker for the next chain, if one is left
        if (i := next_chain()) is None:
            return
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_chain_worker,
                           args=(child_conn, [*held, conn], chains, run_one))
        proc.start()
        child_conn.close()
        held[conn] = [proc, i]
        conn.send(i)

    try:
        for _ in range(workers):
            start()
        while head < len(chains):
            ready = wait([*held] + [proc.sentinel for proc, _ in held.values()])
            for conn, entry in list(held.items()):
                proc = entry[0]
                gone = proc.sentinel in ready
                try:
                    while conn.poll():
                        i, msg = conn.recv()
                        if isinstance(msg, CellRecord):
                            received[i].append(msg)
                            continue
                        if msg is None:               # chain i is done
                            outcome[i] = True
                        else:                         # chain i raised
                            exc, tb = msg
                            exc.__cause__ = RuntimeError(f"raised in a grid worker:\n{tb}")
                            fail(i, exc)
                        entry[1] = next_chain()
                        conn.send(entry[1])
                except (EOFError, ConnectionError):
                    gone = True
                if gone:
                    del held[conn]
                    proc.join()
                    code = proc.exitcode
                    proc.close()
                    conn.close()
                    i = entry[1]
                    if i is not None and outcome[i] is None:
                        method, _, lr, _ = chains[i]
                        fail(i, RuntimeError(f"grid worker exited with code {code} before "
                                             f"finishing the {method} chain at lr {lr}"))
                        start()
            while head < len(chains):
                for rec in received[head]:
                    emit(rec)
                received[head].clear()
                if outcome[head] is None:
                    break
                if outcome[head] is not True:
                    raise outcome[head]
                head += 1
    finally:
        for proc, _ in held.values():
            proc.terminate()
        for conn, (proc, _) in held.items():
            proc.join()
            proc.close()
            conn.close()


def _chain_worker(conn, parent_ends: list, chains: list, run_one) -> None:
    """Run the chains whose indices the parent sends, until it sends
    ``None``.  Sends ``(index, record)`` for each record, then ``(index,
    None)`` when the chain is done, or ``(index, (exception, traceback
    text))`` when it raised."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)     # the parent stops its workers
    M.ENCODE_THREADS = 1              # the workers already fill the CPUs
    for end in parent_ends:           # so that a lost parent reads as end of file here
        end.close()
    while (i := conn.recv()) is not None:
        try:
            for rec in run_one(chains[i]):
                conn.send((i, rec))
        except Exception as e:
            conn.send((i, (e, traceback.format_exc())))
        else:
            conn.send((i, None))


def best_metric(records, method: str) -> float:
    """Best finite metric across a method's cells (max accuracy / min mse)."""
    vals = [r.metric for r in records if r.method == method and np.isfinite(r.metric)]
    if not vals:
        return float("nan")
    kind = next(r.metric_name for r in records if r.method == method)
    return min(vals) if kind == "mse" else max(vals)
