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
from dataclasses import dataclass, field, replace
from itertools import groupby
from multiprocessing.connection import wait
from typing import Optional

import numpy as np

from . import tensor as T
from .configs import expand_axes, parse_config
from .model import REGRESSION, ModelDims
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

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

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
             batch_size: int = 64) -> float:
    kind = model.head(head).kind
    outs = []
    for off in range(0, x.shape[0], batch_size):
        state = model.encode(x[off:off + batch_size])
        outs.append(model.logits(state, head).data)
    return task_metric(kind, np.concatenate(outs, axis=0), y)


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    losses: list
    steps: int
    diverged: bool


def train_milestones(model: AdapterModel, head: str, x: np.ndarray, y: np.ndarray,
                     lr: float, milestones, batch_size: int = 16, seed: int = 0):
    """Minimize the task loss over the model's trainable partition, once
    through every epoch count in ``milestones``.

    A generator: yields ``(epochs, TrainResult)`` at each milestone, in
    ascending order with duplicates dropped, while the model holds exactly
    the state that training for ``epochs`` from scratch gives (each epoch's
    shuffle comes from one seeded stream and there is no LR schedule).  A
    non-finite loss ends training; every later milestone then reports the
    same diverged result."""
    params = model.trainable_parameters()
    if not params:
        raise RuntimeError("nothing is trainable; call train_adapter or train_full first")
    opt = Adam(params, lr=lr)
    kind = model.head(head).kind
    rng = np.random.default_rng(seed)
    losses = []
    n = x.shape[0]
    done, diverged = 0, False
    for target in sorted(set(milestones)):
        while done < target and not diverged:
            perm = rng.permutation(n)
            for off in range(0, n, batch_size):
                idx = perm[off:off + batch_size]
                val = _train_step(model, head, kind, x[idx], y[idx])
                if not np.isfinite(val):
                    diverged = True
                    break
                opt.step()
                opt.zero_grad()
                losses.append(val)
            done += 1
        yield target, TrainResult(losses[:], len(losses), diverged)


def _train_step(model: AdapterModel, head: str, kind: str, xb: np.ndarray,
                yb: np.ndarray) -> float:
    """Forward one batch and, when its loss is finite, backward into the
    trainable gradients.  The step's activations are freed on return."""
    with Tape() as tape:
        loss = task_loss(kind, model.logits(model.encode(xb), head), yb)
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
    methods: tuple = ("seq_bn",)
    lrs: tuple = DEFAULT_LRS
    epochs: tuple = DEFAULT_EPOCHS
    batch_size: int = 16
    seed: int = 0
    pretrain_epochs: int = 4
    pretrain_lr: float = 1e-3
    include_full_ft: bool = False
    method_axes: dict = field(default_factory=dict)   # method -> {axis: values}


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
    """Build the task data and a pretrained-base snapshot shared by cells."""
    data = make_task(spec)
    model = AdapterModel(dims, seed=grid.seed)
    pretrain_base(model, spec, data, epochs=grid.pretrain_epochs,
                  lr=grid.pretrain_lr, seed=grid.seed)
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
               seed: int, capture: Optional[dict] = None):
    """Build one (method, config, lr) model from the base snapshot, train it
    once through ``milestones`` and yield the record of each, in ascending
    epoch order."""
    start = time.perf_counter()
    model = AdapterModel(dims, seed=seed)
    model.encoder.load_state_array(base_state)
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
                                           lr, milestones, batch_size, seed):
        if result.diverged:
            metric = float("nan")
        else:
            model.set_active(None if method == FULL_FT else head)
            metric = evaluate(model, head, data.eval_x, data.eval_y)
        spent = time.perf_counter() - start
        yield CellRecord(
            method=method,
            config=axes,
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
    base = parse_config(method)
    if config == base:
        return {}
    out = {}
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if getattr(base, f.name) != v:
            out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def run_grid(dims: ModelDims, spec: TaskSpec, grid: GridSpec, sink=None,
             data: Optional[Dataset] = None, base_state: Optional[dict] = None) -> list:
    """Cross methods (and their axes) with lrs and epochs; returns all cell
    records in grid order, invoking ``sink(record)`` on each in that order.

    Each adapter (method, config, lr) is one chain: its model is trained
    once, to ``max(grid.epochs)``, and evaluated at every requested epoch
    count.  Every record equals what :func:`run_cell` gives for that cell
    on its own, to all digits; only ``seconds`` differs (see
    :class:`CellRecord`).

    Chains run in worker processes forked from this one, one per CPU this
    process may run on (``os.sched_getaffinity``) and no more than there
    are chains; with one such CPU, or without ``fork``, they run here.
    Workers take chains in grid order and send each record as its
    milestone is reached.  Only this process calls ``sink``: the earliest
    unfinished chain's records pass through as they arrive, and later
    chains' records wait for their turn, as do a chain's records when
    ``grid.epochs`` is unsorted or repeats a value.  An exception raised in
    a chain is raised here, with its own type, once every earlier record
    has reached ``sink``; a worker that exits without finishing its chain
    raises :class:`RuntimeError`.  No worker outlives the call.

    ``full-ft`` cells are not chained, and they run in this process:
    full fine-tuning trains in the ``base_state`` arrays themselves
    (``load_state_array`` keeps them), so each full-ft cell, and every cell
    after it, starts from the base the previous full-ft cell left, and a
    chain would change those records.  Each run of adapter chains between
    full-ft cells forks its own workers, so every chain sees the base a
    serial run gives it.

    ``data``/``base_state`` may be supplied to reuse an existing pretrained
    snapshot; otherwise the base is pretrained here."""
    if data is None or base_state is None:
        data, base_state = prepare_base(dims, spec, grid)
    methods = list(grid.methods)
    if grid.include_full_ft and FULL_FT not in methods:
        methods = [FULL_FT] + methods
    epochs = tuple(grid.epochs)
    chains = []                       # (method, config, lr, epochs) in grid order
    for method in methods:
        if method == FULL_FT:
            chains += [(method, None, lr, (ep,)) for lr in grid.lrs for ep in epochs]
        else:
            axes = grid.method_axes.get(method, {})
            chains += [(method, cfg, lr, epochs)
                       for _, cfg in expand_axes(parse_config(method), axes) for lr in grid.lrs]

    def run_one(chain):
        method, config, lr, chain_epochs = chain
        return _in_order(_run_chain(dims, spec, data, base_state, method, config, lr,
                                    chain_epochs, grid.batch_size, grid.seed), chain_epochs)

    records = []

    def emit(rec):
        records.append(rec)
        if sink is not None:
            sink(rec)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for full_ft, run in groupby(chains, key=lambda chain: chain[0] == FULL_FT):
        run = list(run)
        _run_chains(run, run_one, emit, workers=1 if full_ft else min(cpus, len(run)))
    return records


def _run_chains(chains: list, run_one, emit, workers: int) -> None:
    """``emit`` the records of ``chains`` in order, running the chains in
    ``workers`` forked processes, or in this one when ``workers`` is 1 or
    ``fork`` is not available."""
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        for chain in chains:
            for rec in run_one(chain):
                emit(rec)
        return
    ctx = multiprocessing.get_context("fork")
    received = [[] for _ in chains]   # records not yet emitted, per chain
    outcome = [None] * len(chains)    # True once done, or the exception it raised
    todo = iter(range(len(chains)))
    procs, conns, held = [], [], []   # per worker; ``held`` is the chain it runs
    failed = False
    head = 0                          # the earliest chain not wholly emitted
    try:
        for w in range(workers):
            conn, child_conn = ctx.Pipe()
            conns.append(conn)
            proc = ctx.Process(target=_chain_worker,
                               args=(child_conn, list(conns), chains, run_one))
            proc.start()
            procs.append(proc)
            child_conn.close()
            held.append(next(todo))
            conn.send(held[w])
        running = set(range(workers))
        while head < len(chains):
            ready = wait([conns[w] for w in running] + [procs[w].sentinel for w in running])
            for w in list(running):
                gone = procs[w].sentinel in ready
                try:
                    while conns[w].poll():
                        i, msg = conns[w].recv()
                        if isinstance(msg, CellRecord):
                            received[i].append(msg)
                        elif msg is None:             # chain i is done
                            outcome[i] = True
                            held[w] = None if failed else next(todo, None)
                            conns[w].send(held[w])
                        else:                         # chain i raised; the worker stops
                            exc, tb = msg
                            exc.__cause__ = RuntimeError(f"raised in a grid worker:\n{tb}")
                            outcome[i], held[w], failed = exc, None, True
                except (EOFError, ConnectionError):
                    gone = True
                if gone:
                    running.discard(w)
                    if held[w] is not None:
                        procs[w].join()
                        method, _, lr, _ = chains[held[w]]
                        outcome[held[w]] = RuntimeError(
                            f"grid worker exited with code {procs[w].exitcode} before "
                            f"finishing the {method} chain at lr {lr}")
                        failed = True
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
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
            proc.close()
        for conn in conns:
            conn.close()


def _chain_worker(conn, parent_ends: list, chains: list, run_one) -> None:
    """Run the chains whose indices the parent sends, until it sends
    ``None``.  Sends ``(index, record)`` for each record, then
    ``(index, None)`` when the chain is done, or ``(index, (exception,
    traceback text))`` when it raised, and then stops."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)     # the parent stops its workers
    for end in parent_ends:           # so that a lost parent reads as end of file here
        end.close()
    while (i := conn.recv()) is not None:
        try:
            for rec in run_one(chains[i]):
                conn.send((i, rec))
        except Exception as e:
            conn.send((i, (e, traceback.format_exc())))
            return
        conn.send((i, None))


def _in_order(chain, epochs: tuple):
    """The chain's records in the order of ``epochs`` (one per entry, so a
    repeated value gets its own copy), each as soon as it and every record
    before it are ready."""
    ready, i = {}, 0
    for rec in chain:
        ready[rec.epochs] = rec
        while i < len(epochs) and epochs[i] in ready:
            due = ready[epochs[i]]
            yield replace(due, config=dict(due.config))
            i += 1


def best_metric(records, method: str) -> float:
    """Best finite metric across a method's cells (max accuracy / min mse)."""
    vals = [r.metric for r in records if r.method == method and np.isfinite(r.metric)]
    if not vals:
        return float("nan")
    kind = next(r.metric_name for r in records if r.method == method)
    return min(vals) if kind == "mse" else max(vals)
