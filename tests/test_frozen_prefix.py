"""Encodes that start at a setup's first adapted stage.

Below the first stage a setup acts at (``Plan.start``), an encode computes
only frozen layers, so training and evaluation can start there from
activations computed once (``TransformerEncoder.prefix``), one row per
sequence.  A sequence's activations do not depend on the batch they are
computed in, so records and trained weights must equal those of encodes from
the tokens byte for byte: for every preset and composed setup that has such
a stage, with every head kind, for any batching, and on every BLAS kernel.
Setups that act at the embedding, full fine-tuning and a trainable base keep
encoding from the tokens.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import model as M
from peftlab import training
from peftlab.configs import CONFIG_NAMES, parse_config
from peftlab.model import (ATTENTION, ATTENTION_RESIDUAL, CLASSIFICATION, DESK_DIMS,
                           FFN_RESIDUAL, REGRESSION, TAGGING, Stage, TransformerEncoder)
from peftlab.registry import AdapterModel
from peftlab.training import FULL_FT, GridSpec, evaluate, prepare_base, run_grid

from conftest import SMALL_DIMS
from test_golden import COMPOSED_GOLDEN, composed_model
from test_training import REGRESSION_TASK, _cell_fields, _independent_cells

ROOT = Path(__file__).resolve().parent.parent

HEADS = ((CLASSIFICATION, 3), (REGRESSION, 1), (TAGGING, 4))

PRESET_STAGES = {
    "seq_bn": Stage(0, FFN_RESIDUAL),
    "par_bn": Stage(0, FFN_RESIDUAL, frozenset({"f_in"})),
    "double_seq_bn": Stage(0, ATTENTION_RESIDUAL),
    "compacter": Stage(0, ATTENTION_RESIDUAL),
    "lora": Stage(0, ATTENTION, frozenset({"x"})),
    "ia3": Stage(0, ATTENTION),
    "prefix_tuning": Stage(0, ATTENTION),
    "mam": Stage(0, ATTENTION),
    "unipelt": Stage(0, ATTENTION, frozenset({"x"})),
    "prompt_tuning": None,
    "seq_bn_inv": None,
}

COMPOSED_STAGES = {
    "BatchSplit(s1, lo, batch_sizes=[2, 2])": Stage(0, ATTENTION, frozenset({"x"})),
    "Fuse(s1, s2)": Stage(0, FFN_RESIDUAL),
    "Split(s1, pb, splits=[3, 2])": Stage(0, FFN_RESIDUAL, frozenset({"f_in"})),
    "Split(s1, pb, splits=[4, 4])": Stage(0, FFN_RESIDUAL, frozenset({"f_in"})),
    "Stack(s1, lo)": Stage(0, ATTENTION, frozenset({"x"})),
    "Stack(un, lo)": Stage(0, ATTENTION, frozenset({"x"})),
    "cp": Stage(0, ATTENTION_RESIDUAL),
    "ia": Stage(0, ATTENTION),
    "lo": Stage(0, ATTENTION, frozenset({"x"})),
    "pb": Stage(0, FFN_RESIDUAL, frozenset({"f_in"})),
    "pf": Stage(0, ATTENTION),
    "s1": Stage(0, FFN_RESIDUAL),
}


# ---------------------------------------------------------------------------
# helpers


def _data(kind, labels, rows, seq, seed=0, vocab=DESK_DIMS.vocab):
    r = np.random.default_rng(seed)
    x = r.integers(0, vocab, size=(rows, seq))
    if kind == REGRESSION:
        return x, r.normal(size=rows)
    return x, r.integers(0, labels, size=(rows, seq) if kind == TAGGING else rows)


@pytest.fixture
def prefix_calls(monkeypatch):
    """Each stage that ``TransformerEncoder.prefix`` computes, in order."""
    calls = []
    real = TransformerEncoder.prefix

    def spy(self, tokens, stage, mask=None):
        for st in [stage] if isinstance(stage, Stage) else stage:
            calls.append((len(tokens), st, _digest(self.state_array())))
        return real(self, tokens, stage, mask)

    monkeypatch.setattr(TransformerEncoder, "prefix", spy)
    return calls


def _digest(state: dict) -> str:
    return hashlib.sha256(b"".join(k.encode() + state[k].tobytes()
                                   for k in sorted(state))).hexdigest()[:16]


def _no_prefix(monkeypatch):
    monkeypatch.setattr(TransformerEncoder, "prefix",
                        lambda *a, **k: pytest.fail("computed stored activations"))


def _train_and_evaluate(model, head, x, y, batch_size, milestones, seed=3):
    """Losses per milestone, the logits' bytes and, for a setup with one
    output branch, the eval metric (from the frozen stage when there is
    one), and every trainable tensor's bytes."""
    runs = [(ep, res.losses, res.diverged) for ep, res in training.train_milestones(
        model, head, x, y, 5e-3, milestones, batch_size, seed)]
    stage = model.frozen_stage()
    start = None if stage is None else model.encoder.prefix(x, stage)
    pooled = model.head(head).kind != TAGGING
    logits = [model.logits(model.encode(x[off:off + batch_size], pooled=pooled, start=(
        None if start is None else start.take(slice(off, off + batch_size)))), head)
        .data.tobytes() for off in range(0, len(x), batch_size)]
    metric = None
    if len(model.validate_setup(model.active).branches) == 1:
        metric = evaluate(model, head, x, y, batch_size, start=start)
    weights = {k: t.data.tobytes() for k, t in model.trainable_parameters().items()}
    return runs, logits, metric, weights


def _assert_same_with_and_without_stage(make, x, y, batch_size, milestones, monkeypatch):
    """Training and evaluating ``make()``'s model from its frozen stage gives
    the bytes that encoding from the tokens gives; returns the stage."""
    model, head = make()
    stage = model.frozen_stage()
    assert stage is not None
    calls = []
    real = TransformerEncoder.prefix
    with monkeypatch.context() as mp:
        mp.setattr(TransformerEncoder, "prefix",
                   lambda self, *a: calls.append(a[1]) or real(self, *a))
        cached = _train_and_evaluate(model, head, x, y, batch_size, milestones)
    assert calls == [stage, stage]           # the train split, then the eval split
    model, head = make()
    with monkeypatch.context() as mp:
        mp.setattr(model, "frozen_stage", lambda: None)
        plain = _train_and_evaluate(model, head, x, y, batch_size, milestones)
    assert cached == plain
    return stage


def _preset_model(preset, kind, labels, dims=DESK_DIMS):
    model = AdapterModel(dims, seed=11)
    model.add_prediction_head("a", kind, labels)
    model.add_adapter("a", preset)
    model.train_adapter("a")
    return model, "a"


def _composed(setup, kind, labels):
    model = composed_model()
    model.add_prediction_head("h", kind, labels)
    model.train_adapter(setup, extra_heads=("h",))
    return model, "h"


# ---------------------------------------------------------------------------
# the plan's first adapted stage


def test_each_preset_reports_its_first_adapted_stage():
    model = AdapterModel(DESK_DIMS)
    for name in CONFIG_NAMES:
        model.add_adapter(name, name)
    assert {n: model.validate_setup(n).start for n in CONFIG_NAMES} == PRESET_STAGES


def test_no_setup_starts_inside_the_last_layer():
    model = AdapterModel(dataclasses.replace(DESK_DIMS, num_layers=1))
    for name in ("seq_bn", "lora", "ia3", "double_seq_bn"):
        model.add_adapter(name, name)
        assert model.validate_setup(name).start is None


def test_composed_setups_start_at_their_earliest_leaf():
    model = composed_model()
    got = {s: model.validate_setup(s).start for s in COMPOSED_GOLDEN}
    assert {s: st for s, st in got.items() if st is not None} == COMPOSED_STAGES
    # Parallel replicates rows, Average sums every hook's output, prompts
    # prepend rows: each acts at the embedding
    assert all(got[s] is None for s in COMPOSED_GOLDEN if s not in COMPOSED_STAGES)
    assert model.validate_setup("Stack(s1, pb)").start == PRESET_STAGES["par_bn"]
    assert model.validate_setup("Parallel(lo)").start == PRESET_STAGES["lora"]


def test_frozen_stage_needs_an_active_setup_over_a_frozen_base():
    model, head = _preset_model("seq_bn", CLASSIFICATION, 2)
    assert model.frozen_stage() == PRESET_STAGES["seq_bn"]
    model.encoder.params["layer1.ffn.w1"].requires_grad = True
    assert model.frozen_stage() is None
    model.train_full(head)
    assert model.frozen_stage() is None
    model.freeze_all()
    assert model.frozen_stage() is None                  # no active setup


# ---------------------------------------------------------------------------
# encodes from stored activations


@pytest.mark.parametrize("stage", [Stage(0, ATTENTION, frozenset({"x"})),
                                   Stage(0, ATTENTION_RESIDUAL),
                                   Stage(0, FFN_RESIDUAL, frozenset({"f_in"})),
                                   Stage(1, ATTENTION)])
@pytest.mark.parametrize("pooled", [False, True])
def test_the_base_encoder_resumes_at_any_stage_bit_for_bit(stage, pooled):
    encoder = TransformerEncoder(SMALL_DIMS, seed=2)
    x = np.random.default_rng(0).integers(0, SMALL_DIMS.vocab, size=(9, 7))
    acts = encoder.prefix(x, stage)
    assert sorted(acts.arrays) == sorted(stage.arrays)
    assert all(a.shape == x.shape + (SMALL_DIMS.hidden,) for a in acts.arrays.values())
    rows = np.random.default_rng(1).permutation(9)[:4]
    want = encoder.encode(x[rows], pooled=pooled)
    got = encoder.encode(x[rows], pooled=pooled, start=acts.take(rows))
    assert got.hidden.data.tobytes() == want.hidden.data.tobytes()
    assert got.window_start == want.window_start


def test_prefix_does_not_depend_on_its_chunks(monkeypatch):
    encoder = TransformerEncoder(DESK_DIMS, seed=2)
    x = np.random.default_rng(0).integers(0, DESK_DIMS.vocab, size=(10, 9))
    stage = Stage(0, FFN_RESIDUAL, frozenset({"f_in"}))
    whole = encoder.prefix(x, stage)
    monkeypatch.setattr(M, "PREFIX_CHUNK", 3)
    chunked = encoder.prefix(x, stage)
    assert all(chunked.arrays[k].tobytes() == a.tobytes() for k, a in whole.arrays.items())


def test_prefix_of_several_stages_walks_once_and_equals_each_stage_alone(monkeypatch):
    encoder = TransformerEncoder(SMALL_DIMS, seed=2)
    x = np.random.default_rng(0).integers(0, SMALL_DIMS.vocab, size=(10, 7))
    mask = (np.random.default_rng(1).random(x.shape) > 0.3).astype(np.float64)
    stages = [Stage(0, FFN_RESIDUAL, frozenset({"f_in"})), Stage(0, ATTENTION_RESIDUAL),
              Stage(0, ATTENTION, frozenset({"x"})), Stage(1, ATTENTION)]
    alone = [encoder.prefix(x, st, mask) for st in stages]
    monkeypatch.setattr(M, "PREFIX_CHUNK", 4)
    walks = []
    real = TransformerEncoder._forward
    monkeypatch.setattr(TransformerEncoder, "_forward",
                        lambda self, *a: walks.append(a[-1]) or real(self, *a))
    together = encoder.prefix(x, stages, mask)
    assert walks == [stages] * 3                      # one walk per chunk of 4 rows
    assert [acts.stage for acts in together] == stages
    for got, want in zip(together, alone):
        assert sorted(got.arrays) == sorted(want.arrays)
        assert all(got.arrays[k].tobytes() == a.tobytes() for k, a in want.arrays.items())
    assert encoder.prefix(x, []) == ()


def test_encode_refuses_a_start_the_active_setup_cannot_use():
    model, _ = _preset_model("par_bn", CLASSIFICATION, 2)
    x = np.random.default_rng(0).integers(0, DESK_DIMS.vocab, size=(3, 5))
    enc = model.encoder
    later = enc.prefix(x, Stage(1, ATTENTION))
    without_f_in = enc.prefix(x, Stage(0, FFN_RESIDUAL))
    for start in (later, without_f_in):
        with pytest.raises(ValueError, match="cannot start the active setup"):
            model.encode(x, start=start)
    earlier = enc.prefix(x, Stage(0, ATTENTION))        # an earlier stage serves
    assert (model.encode(x, start=earlier).hidden.data.tobytes()
            == model.encode(x).hidden.data.tobytes())
    model.encoder.params["layer0.ln1.g"].requires_grad = True
    with pytest.raises(ValueError, match="cannot start the active setup"):
        model.encode(x, start=earlier)
    model.set_active(None)
    with pytest.raises(ValueError, match="cannot start the active setup"):
        model.encode(x, start=earlier)


def test_training_refuses_activations_of_other_sequences():
    model, head = _preset_model("seq_bn", CLASSIFICATION, 2)
    x, y = _data(CLASSIFICATION, 2, 6, 5)
    start = model.encoder.prefix(x[:4], model.frozen_stage())
    with pytest.raises(ValueError, match="start holds activations"):
        training.train_milestones(model, head, x, y, 1e-3, (2,), 4, start=start)
    with pytest.raises(ValueError, match="start holds activations"):
        evaluate(model, head, x, y, start=start)


# ---------------------------------------------------------------------------
# the same bytes as encoding from the tokens


@pytest.mark.parametrize("kind, labels", HEADS, ids=[h[0] for h in HEADS])
@pytest.mark.parametrize("preset", [p for p in CONFIG_NAMES if PRESET_STAGES[p]])
def test_each_preset_trains_the_same_from_its_frozen_stage(monkeypatch, preset, kind, labels):
    x, y = _data(kind, labels, 11, 7)
    _assert_same_with_and_without_stage(lambda: _preset_model(preset, kind, labels),
                                        x, y, 4, (1, 2), monkeypatch)


@pytest.mark.parametrize("kind, labels", HEADS, ids=[h[0] for h in HEADS])
@pytest.mark.parametrize("setup", sorted(COMPOSED_STAGES))
def test_each_composed_setup_trains_the_same_from_its_frozen_stage(monkeypatch, setup, kind,
                                                                   labels):
    x, y = _data(kind, labels, 8, 8)      # BatchSplit needs batches of 4
    stage = _assert_same_with_and_without_stage(lambda: _composed(setup, kind, labels),
                                                x, y, 4, (2,), monkeypatch)
    assert stage == COMPOSED_STAGES[setup]


@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from(["seq_bn", "par_bn", "double_seq_bn", "lora", "ia3"]),
       rows=st.integers(1, 13), batch_size=st.integers(1, 6), seq=st.integers(1, 9),
       seed=st.integers(0, 2 ** 16))
def test_training_from_the_frozen_stage_equals_any_batching(preset, rows, batch_size, seq,
                                                             seed):
    # any batch size, the shuffle of any seed, and a short last batch
    x, y = _data(CLASSIFICATION, 2, rows, seq, seed, SMALL_DIMS.vocab)
    with pytest.MonkeyPatch.context() as mp:
        got = []
        for budget in (training.PREFIX_CACHE_BYTES, -1):
            mp.setattr(training, "PREFIX_CACHE_BYTES", budget)
            model, head = _preset_model(preset, CLASSIFICATION, 2, SMALL_DIMS)
            res = training.train_model(model, head, x, y, 1e-2, 2, batch_size, seed)
            got.append((res.losses, {k: t.data.tobytes()
                                     for k, t in model.trainable_parameters().items()}))
    assert got[0] == got[1]


# ---------------------------------------------------------------------------
# the paths that keep encoding from the tokens


@pytest.mark.parametrize("preset", ["prompt_tuning", "seq_bn_inv"])
def test_setups_acting_at_the_embedding_train_from_the_tokens(monkeypatch, preset):
    _no_prefix(monkeypatch)
    model, head = _preset_model(preset, CLASSIFICATION, 2)
    x, y = _data(CLASSIFICATION, 2, 6, 5)
    assert training.train_model(model, head, x, y, 1e-3, 2, 4).steps == 4


def test_full_ft_and_a_trainable_base_train_from_the_tokens(monkeypatch):
    _no_prefix(monkeypatch)
    x, y = _data(CLASSIFICATION, 2, 6, 5)
    model, head = _preset_model("seq_bn", CLASSIFICATION, 2)
    model.train_full(head)
    assert training.train_model(model, head, x, y, 1e-3, 2, 4).steps == 4
    model, head = _preset_model("seq_bn", CLASSIFICATION, 2)
    model.encoder.params["layer1.attn.wq"].requires_grad = True
    assert training.train_model(model, head, x, y, 1e-3, 2, 4).steps == 4


def test_reading_x_once_builds_no_stored_activations(monkeypatch):
    _no_prefix(monkeypatch)
    model, head = _preset_model("seq_bn", CLASSIFICATION, 2)
    x, y = _data(CLASSIFICATION, 2, 6, 5)
    assert training.train_model(model, head, x, y, 1e-3, 1, 2).steps == 3
    evaluate(model, head, x, y)


def test_stored_activations_past_the_byte_bound_are_not_computed(monkeypatch):
    _no_prefix(monkeypatch)
    model, head = _preset_model("seq_bn", CLASSIFICATION, 2)
    x, y = _data(CLASSIFICATION, 2, 6, 5)
    monkeypatch.setattr(training, "PREFIX_CACHE_BYTES", x.size * DESK_DIMS.hidden * 8 - 1)
    training.train_model(model, head, x, y, 1e-3, 2, 4)


# ---------------------------------------------------------------------------
# grids


def _grid(**changes):
    base = dict(methods=("seq_bn", "par_bn", FULL_FT, "lora", "ia3", "prompt_tuning"),
                lrs=(5e-3, 1e-3), epochs=(1, 2), batch_size=8, seed=1, pretrain_epochs=1)
    return GridSpec(**{**base, **changes})


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_grid_computes_each_stage_once_per_run_after_each_barrier(monkeypatch,
                                                                   prefix_calls, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    grid = _grid()
    data, state = prepare_base(SMALL_DIMS, REGRESSION_TASK, grid)
    pretrained = _digest(state)
    want = _independent_cells(REGRESSION_TASK, grid, data, {k: v.copy() for k, v in state.items()})
    prefix_calls.clear()
    got = run_grid(SMALL_DIMS, REGRESSION_TASK, grid, data=data, base_state=state)
    assert [_cell_fields(r) for r in got] == [_cell_fields(r) for r in want]
    n_train, n_eval = REGRESSION_TASK.n_train, REGRESSION_TASK.n_eval
    ffn = PRESET_STAGES["par_bn"]                  # seq_bn's stage, with par_bn's f_in
    attention = PRESET_STAGES["lora"]              # ia3's stage, with lora's x
    # the second run's stage is computed on the base the full-ft cells left
    assert prefix_calls == [(n_train, ffn, pretrained), (n_eval, ffn, pretrained),
                            (n_train, attention, _digest(state)),
                            (n_eval, attention, _digest(state))]
    assert _digest(state) != pretrained


def test_a_grid_stores_its_latest_stages_within_the_byte_bound(monkeypatch, prefix_calls):
    grid = _grid(methods=("ia3", "double_seq_bn"), lrs=(5e-3,))
    data, state = prepare_base(SMALL_DIMS, REGRESSION_TASK, grid)
    array = SMALL_DIMS.hidden * 8
    # room for the attention residual's one array of both splits, and for
    # ia3's four arrays of the train split alone, not of both: the grid
    # stores the first, and ia3's chain, which it gave none, computes none
    monkeypatch.setattr(training, "PREFIX_CACHE_BYTES",
                        (data.train_x.size + data.eval_x.size + 4 * data.train_x.size) * array)
    want = _independent_cells(REGRESSION_TASK, grid, data, state)
    prefix_calls.clear()
    got = run_grid(SMALL_DIMS, REGRESSION_TASK, grid, data=data, base_state=state)
    assert [_cell_fields(r) for r in got] == [_cell_fields(r) for r in want]
    assert [stage for _, stage, _ in prefix_calls] == [PRESET_STAGES["compacter"]] * 2
    prefix_calls.clear()                 # outside a grid, the same cell does
    training.run_cell(SMALL_DIMS, REGRESSION_TASK, data, state, "ia3", parse_config("ia3"),
                      5e-3, 2, grid.batch_size, grid.seed)
    assert [stage for _, stage, _ in prefix_calls] == [PRESET_STAGES["ia3"]]


# ---------------------------------------------------------------------------
# other BLAS kernels


def _openblas_core(env) -> str:
    """The kernel numpy's OpenBLAS runs under ``env``, or '' when numpy's
    BLAS is not an OpenBLAS that reports it."""
    probe = ("import ctypes, glob, os, numpy as np\n"
             "libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,\n"
             "                              'numpy.libs', '*openblas*'))\n"
             "fn = next((getattr(ctypes.CDLL(p), n) for p in libs for n in\n"
             "           ('scipy_openblas_get_corename64_', 'openblas_get_corename')\n"
             "           if hasattr(ctypes.CDLL(p), n)), None)\n"
             "if fn is not None:\n"
             "    fn.restype = ctypes.c_char_p\n"
             "    print(fn().decode())\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_training_from_the_frozen_stage_is_the_same_on_other_blas_kernels(core):
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    running = _openblas_core(env)
    if running != core:
        pytest.skip(f"numpy's BLAS does not run OpenBLAS's {core} kernel here "
                    f"(it reports {running or 'no OpenBLAS kernel'})")
    tests = [f"{__file__}::{name}" for name in (
        "test_each_preset_trains_the_same_from_its_frozen_stage",
        "test_each_composed_setup_trains_the_same_from_its_frozen_stage",
        "test_the_base_encoder_resumes_at_any_stage_bit_for_bit")]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
