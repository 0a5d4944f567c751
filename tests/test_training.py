"""Optimizer, loss, and grid-runner tests.

The Adam oracle is an independent numpy re-derivation of the update rule;
grid determinism is asserted bit-for-bit because every source of randomness
is seeded.
"""

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peftlab import tensor as T
from peftlab import training
from peftlab.configs import CONFIG_NAMES, ConfigError, parse_config
from peftlab.model import DESK_DIMS, InputError, ModelDims
from peftlab.registry import AdapterModel
from peftlab.tasks import TaskSpec, make_task
from peftlab.tensor import Tape, Tensor
from peftlab.training import (CSV_FIELDS, DEFAULT_EPOCHS, DEFAULT_LRS, FULL_FT,
                              Adam, CellRecord, GridSpec, best_metric,
                              cross_entropy, evaluate, mse_loss, prepare_base,
                              record_to_csv_row, run_cell, run_grid,
                              task_metric, train_model)

from conftest import SMALL_DIMS

TINY_TASK = TaskSpec(kind="parity", vocab=SMALL_DIMS.vocab, seq_len=6,
                     n_train=48, n_eval=24, n_pretrain=16, seed=5)

# (records digest, base digest) of test_a_full_ft_first_grid_keeps_its_pinned_records_and_base
FULL_FT_FIRST_GOLDEN = ("302fc0b8f31b7a0d", "0ada1f9f07e0fac7")


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail with ``TimeoutError`` where the body would hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    outer, start = signal.alarm(seconds), time.monotonic()
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        if outer:                     # an enclosing deadline keeps its time
            signal.alarm(max(1, outer - int(time.monotonic() - start)))


@pytest.fixture(autouse=True)
def _no_test_hangs_or_leaves_a_worker():
    with _deadline(120):
        yield
    assert multiprocessing.active_children() == []


def adam_oracle(grads, lr, betas=(0.9, 0.999), eps=1e-8, x0=0.0):
    """Scalar reference implementation of bias-corrected Adam."""
    b1, b2 = betas
    m = v = 0.0
    x = x0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return x


def test_adam_single_step_closed_form():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.5])
    Adam([p], lr=0.1).step()
    # bias correction makes the first step lr * g / (|g| + eps)
    want = 2.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert np.allclose(p.data, [want], atol=1e-12)


def test_adam_trajectory_matches_oracle():
    grads = [0.5, -1.25, 0.0, 3.0, 0.125]
    p = Tensor(np.array([0.7]), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    assert np.allclose(p.data, [adam_oracle(grads, 0.05, x0=0.7)], atol=1e-14)


def test_adam_skips_missing_grads_and_zero_grad_clears():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    a.grad = np.full(3, 2.0)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    opt.step()
    assert not np.array_equal(a.data, np.ones(3))
    assert np.array_equal(b.data, np.ones(3))       # no grad, untouched
    opt.zero_grad()
    assert a.grad is None and b.grad is None


def test_cross_entropy_matches_logsumexp_formula(rng):
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    got = cross_entropy(Tensor(logits), labels).item()
    logp = logits - scipy.special.logsumexp(logits, axis=-1, keepdims=True)
    want = -logp[np.arange(5), labels].mean()
    assert np.allclose(got, want, atol=1e-12)


def test_cross_entropy_handles_token_level_labels(rng):
    logits = rng.normal(size=(2, 4, 3))
    labels = rng.integers(0, 3, size=(2, 4))
    got = cross_entropy(Tensor(logits), labels).item()
    logp = logits - scipy.special.logsumexp(logits, axis=-1, keepdims=True)
    want = -logp[np.arange(2)[:, None], np.arange(4)[None, :], labels].mean()
    assert np.allclose(got, want, atol=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_onehot(rng):
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    labels = np.array([0, 2, 1, 2])
    with Tape() as tape:
        loss = cross_entropy(logits, labels)
        tape.backward(loss)
    soft = scipy.special.softmax(logits.data, axis=-1)
    onehot = np.zeros((4, 3))
    onehot[np.arange(4), labels] = 1.0
    assert np.allclose(logits.grad, (soft - onehot) / 4.0, atol=1e-12)


def test_mse_loss_closed_form(rng):
    pred = Tensor(rng.normal(size=(6, 1)))
    target = rng.normal(size=(6,))
    got = mse_loss(pred, target).item()
    assert np.allclose(got, np.mean((pred.data.ravel() - target) ** 2), atol=1e-12)


def test_task_metric_paths():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
    assert task_metric("classification", logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
    pred = np.array([[1.0], [2.0]])
    assert task_metric("regression", pred, np.array([0.0, 2.0])) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# training loops


def _tiny_setup():
    data = make_task(TINY_TASK)
    model = AdapterModel(SMALL_DIMS, seed=0)
    model.add_prediction_head("bn", TINY_TASK.head_kind, TINY_TASK.head_labels)
    model.add_adapter("bn", "seq_bn")
    model.train_adapter("bn")
    return model, data


def test_train_model_requires_a_trainable_partition():
    model = AdapterModel(SMALL_DIMS, seed=0)
    model.add_prediction_head("h", "classification", 2)
    model.freeze_all()
    data = make_task(TINY_TASK)
    with pytest.raises(RuntimeError, match="nothing is trainable"):
        train_model(model, "h", data.train_x, data.train_y, lr=1e-3, epochs=1)


def test_train_model_reduces_loss_and_counts_steps():
    model, data = _tiny_setup()
    res = train_model(model, "bn", data.train_x, data.train_y,
                      lr=5e-3, epochs=3, batch_size=16, seed=1)
    assert not res.diverged
    assert res.steps == 3 * 3                    # 48 samples / 16 per batch
    assert np.mean(res.losses[-3:]) < np.mean(res.losses[:3])


def test_training_is_bit_deterministic():
    r1 = train_model(*_tiny_setup_pair(), lr=5e-3, epochs=2, batch_size=16, seed=7)
    r2 = train_model(*_tiny_setup_pair(), lr=5e-3, epochs=2, batch_size=16, seed=7)
    assert r1.losses == r2.losses


def _tiny_setup_pair():
    model, data = _tiny_setup()
    return model, "bn", data.train_x, data.train_y


def test_evaluate_agrees_with_direct_metric():
    model, data = _tiny_setup()
    got = evaluate(model, "bn", data.eval_x, data.eval_y, batch_size=7)
    state = model.encode(data.eval_x)
    logits = model.logits(state, "bn").data
    assert got == task_metric("classification", logits, data.eval_y)


@pytest.mark.parametrize("kind, labels, pooled", [("classification", 2, True),
                                                  ("regression", 1, True),
                                                  ("tagging", 3, False)])
def test_evaluate_asks_for_the_pooled_readout_only_for_heads_reading_one_position(
        monkeypatch, kind, labels, pooled):
    model, data = _tiny_setup()
    model.add_prediction_head("other", kind, labels)
    seen = []
    encode = model.encode
    monkeypatch.setattr(model, "encode", lambda x, pooled=False, start=None:
                        seen.append(pooled) or encode(x, pooled=pooled, start=start))
    y = (np.zeros(data.eval_x.shape, dtype=np.int64) if kind == "tagging"
         else data.eval_y)
    evaluate(model, "other", data.eval_x, y, batch_size=10)
    assert seen == [pooled] * 3


@pytest.mark.parametrize("setup", ["Parallel(bn, b2)", "BatchSplit(bn, b2, batch_sizes=[4, 4])"])
@pytest.mark.parametrize("kind, labels", [("classification", 2), ("regression", 1)])
def test_evaluate_refuses_a_setup_with_several_branches(setup, kind, labels):
    model, data = _tiny_setup()
    model.add_adapter("b2", "seq_bn")
    model.add_prediction_head("b2", "classification", 2)
    model.add_prediction_head("h", kind, labels)
    model.set_active(setup)
    with pytest.raises(ValueError, match="2 output branches.*branch_logits"):
        evaluate(model, "h", data.eval_x[:8], data.eval_y[:8])


def test_evaluate_refuses_empty_input_and_mismatched_labels():
    model, data = _tiny_setup()
    with pytest.raises(ValueError, match="at least one sequence"):
        evaluate(model, "bn", data.eval_x[:0], data.eval_y[:0])
    with pytest.raises(ValueError, match="y has 5 rows but x has 6"):
        evaluate(model, "bn", data.eval_x[:6], data.eval_y[:5])


@pytest.mark.parametrize("batch_size", [-1, 0, 2.5, True, "8", None])
def test_evaluate_refuses_a_batch_size_that_is_not_a_positive_int(batch_size):
    model, data = _tiny_setup()
    with pytest.raises(ValueError, match="batch_size must be an int >= 1"):
        evaluate(model, "bn", data.eval_x, data.eval_y, batch_size=batch_size)


BAD_TRAINING_INPUT = {
    "batch_size -1": ({"batch_size": -1}, "batch_size must be an int >= 1"),
    "batch_size 0": ({"batch_size": 0}, "batch_size must be an int >= 1"),
    "batch_size 2.0": ({"batch_size": 2.0}, "batch_size must be an int >= 1"),
    "batch_size True": ({"batch_size": True}, "batch_size must be an int >= 1"),
    "milestone 2.5": ({"milestones": (1, 2.5)}, "every milestone must be an int >= 1"),
    "milestone 0": ({"milestones": (0,)}, "every milestone must be an int >= 1"),
    "milestone -1": ({"milestones": (2, -1)}, "every milestone must be an int >= 1"),
    "milestone True": ({"milestones": (True,)}, "every milestone must be an int >= 1"),
    "empty x": ({"rows": slice(0, 0)}, "at least one sequence"),
    "3 labels for 8 rows": ({"rows": slice(0, 8), "labels": 3}, "y has 3 rows but x has 8"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAINING_INPUT))
def test_training_refuses_bad_input_before_any_step(monkeypatch, case):
    kwargs, message = BAD_TRAINING_INPUT[case]
    model, data = _tiny_setup()
    before = {k: t.data.copy() for k, t in model.trainable_parameters().items()}
    monkeypatch.setattr(training, "_train_step", lambda *a: pytest.fail("a step ran"))
    rows = kwargs.get("rows", slice(None))
    x = data.train_x[rows]
    y = data.train_y[rows][:kwargs.get("labels")]
    batch_size = kwargs.get("batch_size", 16)
    milestones = kwargs.get("milestones", (1,))
    with pytest.raises(ValueError, match=message):     # on the call, not on the first next
        training.train_milestones(model, "bn", x, y, 1e-3, milestones, batch_size)
    if "milestones" not in kwargs:
        with pytest.raises(ValueError, match=message):
            train_model(model, "bn", x, y, lr=1e-3, epochs=1, batch_size=batch_size)
    after = model.trainable_parameters()
    assert all(after[k].data.tobytes() == v.tobytes() for k, v in before.items())


@pytest.mark.parametrize("kind, labels, pooled", [("classification", 2, True),
                                                  ("regression", 1, True),
                                                  ("tagging", 3, False)])
def test_a_train_step_asks_for_the_pooled_readout_only_for_heads_reading_one_position(
        monkeypatch, kind, labels, pooled):
    model, data = _tiny_setup()
    model.add_prediction_head("other", kind, labels)
    model.train_adapter("bn", extra_heads=("other",))
    seen = []
    encode = model.encode
    monkeypatch.setattr(model, "encode", lambda x, pooled=False, start=None:
                        seen.append(pooled) or encode(x, pooled=pooled, start=start))
    y = (np.zeros(data.train_x.shape, dtype=np.int64) if kind == "tagging"
         else data.train_y)
    res = train_model(model, "other", data.train_x, y, lr=1e-3, epochs=1, batch_size=16)
    assert res.steps == 3 and seen == [pooled] * 3


# ---------------------------------------------------------------------------
# grid runner


def test_prepare_base_pretrains_the_backbone():
    grid = GridSpec(methods=("seq_bn",), pretrain_epochs=2)
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    fresh = AdapterModel(SMALL_DIMS, seed=grid.seed).encoder.state_array()
    assert set(state) == set(fresh)
    assert any(not np.array_equal(state[k], fresh[k]) for k in state)


def test_prepare_base_with_zero_epochs_is_the_raw_init():
    grid = GridSpec(methods=("seq_bn",), pretrain_epochs=0)
    _, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    fresh = AdapterModel(SMALL_DIMS, seed=grid.seed).encoder.state_array()
    assert all(np.array_equal(state[k], fresh[k]) for k in state)


def _mini_grid(**kw):
    defaults = dict(methods=("seq_bn",), lrs=(5e-3,), epochs=(1,),
                    batch_size=16, seed=0, pretrain_epochs=0)
    defaults.update(kw)
    return GridSpec(**defaults)


def test_run_cell_records_the_essentials():
    grid = _mini_grid()
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    rec = run_cell(SMALL_DIMS, TINY_TASK, data, state, "seq_bn",
                   parse_config("seq_bn"),
                   lr=5e-3, epochs=1, batch_size=16, seed=0)
    assert rec.method == "seq_bn"
    assert rec.config == {}                       # preset, no axis overrides
    assert rec.metric_name == "accuracy"
    assert 0.0 <= rec.metric <= 1.0
    assert rec.n_params > 0 and not rec.diverged
    assert rec.seconds >= 0
    round_tripped = json.loads(rec.to_json())
    assert round_tripped["method"] == "seq_bn"
    assert round_tripped["lr"] == 5e-3


def test_run_cell_is_deterministic_to_all_digits():
    grid = _mini_grid()
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    cfg = parse_config("seq_bn")
    a = run_cell(SMALL_DIMS, TINY_TASK, data, state, "seq_bn", cfg,
                 lr=5e-3, epochs=2, batch_size=16, seed=7)
    b = run_cell(SMALL_DIMS, TINY_TASK, data, state, "seq_bn", cfg,
                 lr=5e-3, epochs=2, batch_size=16, seed=7)
    assert a.metric == b.metric
    assert a.final_loss == b.final_loss


def test_run_cell_captures_the_trained_model():
    grid = _mini_grid()
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    capture = {}
    rec = run_cell(SMALL_DIMS, TINY_TASK, data, state, "seq_bn",
                   parse_config("seq_bn"),
                   lr=5e-3, epochs=1, batch_size=16, seed=0, capture=capture)
    assert capture["head"] == "seq_bn"
    model = capture["model"]
    assert evaluate(model, "seq_bn", data.eval_x, data.eval_y) == rec.metric


def test_divergence_is_recorded_not_fatal():
    spec = TaskSpec(kind="masked-sum", vocab=SMALL_DIMS.vocab, seq_len=6,
                    n_train=32, n_eval=16, n_pretrain=8, seed=5)
    grid = _mini_grid()
    data, state = prepare_base(SMALL_DIMS, spec, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run_cell(SMALL_DIMS, spec, data, state, "seq_bn",
                       parse_config("seq_bn"),
                       lr=1e200, epochs=3, batch_size=16, seed=0)
    assert rec.diverged
    assert np.isnan(rec.metric)


def test_run_grid_crosses_all_axes_and_streams_records():
    grid = _mini_grid(methods=("seq_bn", "lora"), lrs=(1e-3, 5e-3), epochs=(1,),
                      include_full_ft=True)
    seen = []
    records = run_grid(SMALL_DIMS, TINY_TASK, grid, sink=seen.append)
    assert len(records) == 3 * 2 * 1               # (full-ft + 2 methods) x lrs
    assert seen == records
    assert {r.method for r in records} == {FULL_FT, "seq_bn", "lora"}
    full = [r for r in records if r.method == FULL_FT]
    assert all(r.config == {} for r in full)
    assert all(r.n_params == AdapterModel(SMALL_DIMS).encoder.num_params() for r in full)


def test_run_grid_expands_method_axes():
    grid = _mini_grid(methods=("seq_bn",), axes={"reduction_factor": (2, 4)})
    records = run_grid(SMALL_DIMS, TINY_TASK, grid)
    assert len(records) == 2
    assert [r.config for r in records] == [{"reduction_factor": 2},
                                           {"reduction_factor": 4}]
    assert records[0].n_params > records[1].n_params


@pytest.mark.parametrize("axes", [{"r": (8.0,)}, {"targets": ("query",)}, {"alpha": (True,)},
                                  {"validate": (1,)}], ids=repr)
def test_run_grid_rejects_a_mistyped_or_unknown_axis_before_pretraining(monkeypatch, axes):
    monkeypatch.setattr(training, "prepare_base", lambda *a: pytest.fail("pretrained"))
    seen = []
    with pytest.raises(ConfigError):
        run_grid(SMALL_DIMS, TINY_TASK, _mini_grid(methods=("lora",), axes=axes),
                 sink=seen.append)
    assert seen == []


def test_grid_lists_are_sets_in_canonical_order():
    grid = GridSpec(methods=("lora", "seq_bn", "lora"), lrs=(1e-3, 5e-4, 1e-3),
                    epochs=(3, 1, 2, 3), axes={"r": (4, 2, 4), "alpha": (8, 8.0, 8)})
    assert grid.methods == ("lora", "seq_bn")
    assert grid.lrs == (1e-3, 5e-4)
    assert grid.epochs == (1, 2, 3)
    # 8 and 8.0 stay apart, so each meets the field's type check
    assert grid.axes == {"r": (4, 2), "alpha": (8, 8.0)}
    assert [type(v) for v in grid.axes["alpha"]] == [int, float]


@pytest.mark.parametrize("changes", [
    dict(lrs=(float("nan"),)), dict(lrs=(float("inf"),)), dict(lrs=(-float("inf"),)),
    dict(lrs=(0.0,)), dict(lrs=(-1e-3,)), dict(lrs=(1e-3, 0)), dict(lrs=(True,)),
    dict(lrs=("1e-3",)), dict(lrs=(None,)),
    dict(epochs=(0,)), dict(epochs=(-2,)), dict(epochs=(1, 0)), dict(epochs=(1.0,)),
    dict(epochs=(True,)), dict(epochs=("1",)),
    dict(batch_size=0), dict(batch_size=-3), dict(batch_size=2.0), dict(batch_size=True),
    dict(pretrain_epochs=-1), dict(pretrain_epochs=1.5), dict(pretrain_epochs=False),
    dict(methods=()), dict(lrs=()), dict(epochs=()), dict(axes={"r": ()}),
], ids=repr)
def test_a_grid_no_run_can_train_is_a_value_error(changes):
    with pytest.raises(ValueError):
        _mini_grid(**changes)


def test_an_empty_method_list_is_fine_with_full_ft():
    assert _mini_grid(methods=(), include_full_ft=True).methods == ()


def test_each_axis_applies_to_every_config_with_the_field():
    grid = _mini_grid(methods=("seq_bn", "lora", "par_bn"), lrs=(1e-3, 5e-3),
                      axes={"reduction_factor": (2, 4), "r": (2,)})
    got = [(m, cfg, lr) for m, cfg, lr, _ in training.grid_chains(grid, SMALL_DIMS, 6)]
    seq_bn, lora, par_bn = (parse_config(m) for m in ("seq_bn", "lora", "par_bn"))
    assert got == [
        ("seq_bn", dataclasses.replace(seq_bn, reduction_factor=2), 1e-3),
        ("seq_bn", dataclasses.replace(seq_bn, reduction_factor=2), 5e-3),
        ("seq_bn", dataclasses.replace(seq_bn, reduction_factor=4), 1e-3),
        ("seq_bn", dataclasses.replace(seq_bn, reduction_factor=4), 5e-3),
        ("lora", dataclasses.replace(lora, r=2), 1e-3),
        ("lora", dataclasses.replace(lora, r=2), 5e-3),
        ("par_bn", dataclasses.replace(par_bn, reduction_factor=2), 1e-3),
        ("par_bn", dataclasses.replace(par_bn, reduction_factor=2), 5e-3),
        ("par_bn", dataclasses.replace(par_bn, reduction_factor=4), 1e-3),
        ("par_bn", dataclasses.replace(par_bn, reduction_factor=4), 5e-3),
    ]
    with pytest.raises(ConfigError, match="'r' does not apply"):
        training.grid_chains(_mini_grid(methods=("seq_bn",), include_full_ft=True,
                                        axes={"r": (2,)}), SMALL_DIMS, 6)


def test_run_grid_trains_each_distinct_cell_once():
    grid = _mini_grid(methods=("seq_bn", "seq_bn"), lrs=(5e-3, 5e-3), epochs=(2, 1, 2),
                      axes={"reduction_factor": (4, 4)})
    got = run_grid(SMALL_DIMS, TINY_TASK, grid)
    assert [(r.method, r.config, r.lr, r.epochs) for r in got] == [
        ("seq_bn", {"reduction_factor": 4}, 5e-3, 1), ("seq_bn", {"reduction_factor": 4}, 5e-3, 2)]


REGRESSION_TASK = TaskSpec(kind="masked-sum", vocab=SMALL_DIMS.vocab, seq_len=6,
                           n_train=32, n_eval=16, n_pretrain=8, seed=5)


def _cell_fields(rec) -> str:
    """Every field but ``seconds``, floats at full precision (NaN included)."""
    d = dataclasses.asdict(rec)
    d.pop("seconds")
    return json.dumps(d, sort_keys=True)


def _independent_cells(spec, grid, data, state):
    """The unchained loop: ``run_cell`` for every cell, in grid order."""
    methods = ([FULL_FT] if grid.include_full_ft else []) + list(grid.methods)
    out = []
    for method in methods:
        configs = [None] if method == FULL_FT else [parse_config(method)]
        for axis, values in grid.axes.items():
            if method != FULL_FT and hasattr(configs[0], axis):
                configs = [dataclasses.replace(c, **{axis: v}) for c in configs for v in values]
        for cfg in configs:
            for lr in grid.lrs:
                for epochs in grid.epochs:
                    out.append(run_cell(SMALL_DIMS, spec, data, state, method, cfg, lr,
                                        epochs, grid.batch_size, grid.seed))
    return out


def _check_against_independent_cells(spec, grid):
    data, state = prepare_base(SMALL_DIMS, spec, grid)
    copy = {k: v.copy() for k, v in state.items()}
    want = _independent_cells(spec, grid, data, copy)
    seen = []
    got = run_grid(SMALL_DIMS, spec, grid, sink=seen.append, data=data, base_state=state)
    assert [_cell_fields(r) for r in got] == [_cell_fields(r) for r in want]
    assert len(seen) == len(got) and all(a is b for a, b in zip(seen, got))
    assert all(np.array_equal(state[k], copy[k]) for k in state)
    return got


def test_run_grid_chains_equal_independent_cells_with_unsorted_epochs():
    grid = _mini_grid(methods=("seq_bn", "lora"), lrs=(5e-3,), epochs=(3, 1, 2, 3),
                      axes={"reduction_factor": (2, 4)})
    assert grid.epochs == (1, 2, 3)
    got = _check_against_independent_cells(REGRESSION_TASK, grid)
    assert [(r.method, r.config, r.epochs) for r in got[:3]] == [
        ("seq_bn", {"reduction_factor": 2}, ep) for ep in (1, 2, 3)]
    assert len(got) == 3 * 3
    assert got[0].config is not got[1].config
    # a chain's last milestone carries its whole cost
    assert got[2].seconds >= got[1].seconds >= got[0].seconds


def test_run_grid_chain_keeps_reporting_a_divergence():
    # one step per epoch: epoch 1 is finite, the 1e200 update then diverges
    grid = _mini_grid(methods=("seq_bn",), lrs=(1e200,), epochs=(1, 2, 3, 5),
                      batch_size=REGRESSION_TASK.n_train)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _check_against_independent_cells(REGRESSION_TASK, grid)
    assert [r.diverged for r in got] == [False, True, True, True]
    assert all(np.isnan(r.metric) for r in got[1:])
    assert {r.final_loss for r in got} == {got[0].final_loss}


def test_run_grid_runs_full_ft_cells_unchained():
    # full-ft trains in the snapshot's own arrays, so the epochs-2 cell and
    # the seq_bn chain start from the base the epochs-1 cell left behind
    grid = _mini_grid(methods=("seq_bn",), epochs=(1, 2), include_full_ft=True)
    got = _check_against_independent_cells(TINY_TASK, grid)
    assert [(r.method, r.epochs) for r in got] == [
        (FULL_FT, 1), (FULL_FT, 2), ("seq_bn", 1), ("seq_bn", 2)]


def test_a_chain_builds_its_encoder_over_the_base_arrays_without_drawing(rng_callers):
    grid = _mini_grid()
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    for method, config in ((FULL_FT, None), ("seq_bn", parse_config("seq_bn"))):
        rng_callers.clear()
        capture = {}
        run_cell(SMALL_DIMS, TINY_TASK, data, state, method, config, 5e-3, 1,
                 grid.batch_size, grid.seed, capture=capture)
        assert "peftlab.model" not in rng_callers
        assert "peftlab.registry" in rng_callers        # the head's own rng
        assert all(t.data is state[k] for k, t in capture["model"].encoder.params.items())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_a_full_ft_first_grid_keeps_its_pinned_records_and_base():
    # The full-ft cells train in the snapshot's own arrays, so the adapter
    # chains after them, and the snapshot itself, carry their updates.
    # perfbench's stored sweep-flat reference depends on this; a chain
    # that copied the base would change both digests.
    grid = _mini_grid(methods=("seq_bn", "lora"), epochs=(1, 2), include_full_ft=True,
                      pretrain_epochs=1)
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    got = run_grid(SMALL_DIMS, TINY_TASK, grid, data=data, base_state=state)
    records = _digest("\n".join(_cell_fields(r) for r in got).encode())
    base = _digest(b"".join(k.encode() + state[k].tobytes() for k in sorted(state)))
    assert (records, base) == FULL_FT_FIRST_GOLDEN


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that grids fork workers on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("grid", [
    # six full-ft cells (2 lrs x 3 epoch counts) in this process, then six
    # chains (3 configs x 2 lrs) in workers
    _mini_grid(methods=("seq_bn", "lora"), lrs=(5e-3, 1e-3), epochs=(3, 1, 2, 3),
               include_full_ft=True, axes={"reduction_factor": (2, 4)}),
    # a run of chains on each side of the full-ft cells, each with its own
    # workers; one step per epoch, so lr 1e200 diverges at epoch 2
    _mini_grid(methods=("seq_bn", FULL_FT, "lora"), lrs=(5e-3, 1e200), epochs=(1, 2, 3),
               batch_size=REGRESSION_TASK.n_train),
], ids=["full-ft-first", "full-ft-between"])
def test_parallel_grid_equals_independent_cells(two_cpus, grid):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _check_against_independent_cells(REGRESSION_TASK, grid)
    assert any(r.diverged for r in got) == (1e200 in grid.lrs)


def test_parallel_grid_leaves_the_base_a_serial_grid_leaves(monkeypatch):
    grid = _mini_grid(methods=("seq_bn", "ia3", FULL_FT, "lora"), epochs=(1, 2))
    data, state = prepare_base(SMALL_DIMS, TINY_TASK, grid)
    records, bases = {}, {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        bases[len(cpus)] = {k: v.copy() for k, v in state.items()}
        records[len(cpus)] = [_cell_fields(r) for r in run_grid(
            SMALL_DIMS, TINY_TASK, grid, data=data, base_state=bases[len(cpus)])]
    assert records[1] == records[2]
    assert all(bases[1][k].tobytes() == bases[2][k].tobytes() for k in state)
    assert any(not np.array_equal(bases[2][k], state[k]) for k in state)   # full-ft wrote


def test_one_cpu_runs_the_grid_in_process(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(os, "fork", no_fork)
    _check_against_independent_cells(TINY_TASK, _mini_grid(methods=("seq_bn", "lora"),
                                                            lrs=(5e-3, 1e-3), epochs=(1, 2)))


def _raise_input_error():
    raise InputError("token id out of range")


def _exit_worker():
    if multiprocessing.parent_process() is None:     # os._exit would end the test run
        raise AssertionError("the chain ran in the test process")
    os._exit(1)


FAILING_GRID = _mini_grid(methods=("seq_bn", "lora", "ia3"), lrs=(5e-3, 1e-3), epochs=(1, 2))


@pytest.mark.parametrize("fail, error, match", [
    (_raise_input_error, InputError, "token id out of range"),
    (_exit_worker, RuntimeError, "exited with code 1"),
], ids=["raises", "exits"])
def test_a_failing_chain_fails_the_grid_after_every_earlier_record(two_cpus, monkeypatch,
                                                                   fail, error, match):
    real_chain = training._run_chain

    def chain(dims, spec, data, base_state, method, *rest):
        for n, rec in enumerate(real_chain(dims, spec, data, base_state, method, *rest)):
            if method == "lora" and n == 1:
                fail()
            yield rec

    monkeypatch.setattr(training, "_run_chain", chain)
    seen = []
    with pytest.raises(error, match=match):
        run_grid(SMALL_DIMS, TINY_TASK, FAILING_GRID, sink=seen.append)
    assert [(r.method, r.lr, r.epochs) for r in seen] == [
        ("seq_bn", 5e-3, 1), ("seq_bn", 5e-3, 2), ("seq_bn", 1e-3, 1), ("seq_bn", 1e-3, 2),
        ("lora", 5e-3, 1)]


def _fake_run_one(plan):
    """A chain runner that trains nothing: chain ``m<i>`` yields one record
    per milestone, each after ``plan[i][2]`` ms, and, when ``plan[i]`` is
    ``("raise", n, _)`` or ``("exit", n, _)``, fails before its record ``n``.
    An exit in a worker ends it with code 3; in this process, which the
    serial path runs it in, it raises what the parent makes of that exit."""
    def run_one(chain):
        method, _, lr, milestones = chain
        mode, after, ms = plan[int(method[1:])]
        for n, epochs in enumerate(milestones):
            time.sleep(ms / 1e3)
            if n == after and mode == "raise":
                raise ValueError(f"{method} raised")
            if n == after and mode == "exit":
                if multiprocessing.parent_process() is None:
                    raise RuntimeError(f"grid worker exited with code 3 before finishing "
                                       f"the {method} chain at lr {lr}")
                os._exit(3)
            yield CellRecord(method, {}, lr, epochs, 0, 0.5, "accuracy", 1, 0.0)
    return run_one


def _chains_outcome(chains, run_one, workers, order):
    """The records ``_run_chains`` emits, and the type and text of what it
    raises (None when it returns)."""
    seen = []
    try:
        training._run_chains(chains, run_one, seen.append, workers, order)
        error = None
    except Exception as e:
        error = (type(e), str(e))
    return [(r.method, r.epochs) for r in seen], error


FAILURES = st.tuples(st.sampled_from([None, "raise", "exit"]), st.integers(0, 3),
                     st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(plan=st.lists(FAILURES, min_size=1, max_size=6), workers=st.integers(1, 3),
       shuffle=st.permutations(range(6)))
@example(plan=[(None, 0, 1)] * 4 + [("raise", 1, 0)], workers=2, shuffle=(4, 3, 2, 1, 0, 5))
@example(plan=[(None, 0, 1)] * 2 + [("exit", 0, 0)] * 2, workers=2, shuffle=(3, 2, 1, 0, 4, 5))
def test_chains_handed_out_in_any_order_fail_as_the_serial_path_does(plan, workers, shuffle):
    if workers == 1:                  # the chains run here, where an exit ends the test run
        plan = [("raise" if mode == "exit" else mode, n, ms) for mode, n, ms in plan]
    chains = [(f"m{i}", None, 1e-3, (1, 2, 3)) for i in range(len(plan))]
    order = [i for i in shuffle if i < len(plan)]
    run_one = _fake_run_one(plan)
    with _deadline(20):
        got = _chains_outcome(chains, run_one, workers, order)
    assert multiprocessing.active_children() == []
    assert got == _chains_outcome(chains, run_one, 1, range(len(chains)))


def _adapter_chains(**grid):
    return training.grid_chains(GridSpec(**grid), DESK_DIMS, 32)


def test_an_all_preset_grid_hands_out_longest_first():
    chains = _adapter_chains(methods=CONFIG_NAMES, lrs=(1e-3,), epochs=(2,))
    order = training._hand_out_order(chains, 2)
    assert [chains[i][0] for i in order] == sorted(CONFIG_NAMES,
                                                   key=lambda m: -training.STEP_COST[m])
    assert chains[order[0]][0] == "unipelt"


@pytest.mark.parametrize("grid", [
    # longest-first would hand out lora and ia3 first, and end no sooner
    dict(methods=("seq_bn", "lora", "ia3"), lrs=(1e-4, 1e-3), epochs=(1, 2, 3, 5)),
    dict(),                           # the default train grid: one method
    dict(methods=("unipelt",), lrs=(1e-3, 1e-4), epochs=(1, 2)),
], ids=["milestones", "default", "one-method"])
def test_grids_longest_first_would_not_shorten_keep_grid_order(grid):
    chains = _adapter_chains(**grid)
    assert training._hand_out_order(chains, 2) == list(range(len(chains)))


def test_every_preset_has_a_step_cost():
    assert sorted(training.STEP_COST) == sorted(CONFIG_NAMES)
    assert all(isinstance(c, int) and c > 0 for c in training.STEP_COST.values())


@pytest.mark.parametrize("interrupt", [ValueError, KeyboardInterrupt])
def test_a_failing_sink_stops_every_worker(two_cpus, interrupt):
    def sink(rec):
        raise interrupt("stop")

    with pytest.raises(interrupt):
        run_grid(SMALL_DIMS, TINY_TASK, FAILING_GRID, sink=sink)


def test_best_metric_direction_depends_on_the_metric():
    recs = [
        CellRecord("m", {}, 1e-3, 5, 0, 0.7, "accuracy", 10, 0.1),
        CellRecord("m", {}, 1e-3, 10, 0, 0.9, "accuracy", 10, 0.1),
        CellRecord("m", {}, 1e-3, 20, 0, float("nan"), "accuracy", 10, 0.1, diverged=True),
        CellRecord("r", {}, 1e-3, 5, 0, 0.05, "mse", 10, 0.1),
        CellRecord("r", {}, 1e-3, 10, 0, 0.02, "mse", 10, 0.1),
    ]
    assert best_metric(recs, "m") == 0.9
    assert best_metric(recs, "r") == 0.02
    assert np.isnan(best_metric(recs, "ghost"))


def test_csv_row_matches_the_field_order():
    rec = CellRecord("seq_bn", {"reduction_factor": 4}, 1e-3, 5, 0,
                     0.75, "accuracy", 123, 1.5, False, 0.31)
    row = record_to_csv_row(rec).split(",")
    assert len(row) == len(CSV_FIELDS)
    assert row[0] == "seq_bn"
    assert row[CSV_FIELDS.index("metric")] == "0.75"
    assert ";" in row[1] or "reduction_factor" in row[1]


def test_default_hyperparameter_sets_are_pinned():
    assert DEFAULT_LRS == (1e-5, 1e-4, 5e-4, 1e-3)
    assert DEFAULT_EPOCHS == (5, 10, 20, 30)
