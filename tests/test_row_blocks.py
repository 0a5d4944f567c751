"""Forward-only encodes in row blocks on threads.

With no tape recording, ``AdapterModel.encode`` and
``TransformerEncoder.prefix`` run a batch of many tokens as contiguous row
blocks on threads and join them in row order.  A sequence's activations do
not depend on its batch, so the joined state, every head's logits and the
stored activations must equal one call's bit for bit.  Here the block size
and thread budget are shrunk so that every encode splits.
"""

import contextlib
import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import model as M
from peftlab import tensor as T
from peftlab import training
from peftlab.configs import CONFIG_NAMES
from peftlab.model import (ATTENTION, CLASSIFICATION, DESK_DIMS, TAGGING, InputError, Stage,
                           TransformerEncoder)
from peftlab.registry import AdapterModel
from peftlab.training import evaluate, run_grid

from test_frozen_prefix import _openblas_core
from test_golden import COMPOSED_GOLDEN, composed_model
from test_lifecycle import randomize
from test_training import TINY_TASK, _mini_grid

from conftest import SMALL_DIMS

ROUTED = sorted(s for s in COMPOSED_GOLDEN if "Parallel" in s or "BatchSplit" in s)
CASES = tuple(CONFIG_NAMES) + tuple(s for s in sorted(COMPOSED_GOLDEN) if s not in ROUTED)
_MODELS = {}


def _model(case):
    """A desk-dims model with the case active and heads ``h``
    (classification) and ``t`` (tagging); built once per case."""
    if case not in _MODELS:
        if case in COMPOSED_GOLDEN:
            model = composed_model()
        else:
            model = AdapterModel(DESK_DIMS, seed=0)
            randomize(model.add_adapter("a", case), seed=5)
        model.add_prediction_head("h", CLASSIFICATION, 3)
        model.add_prediction_head("t", TAGGING, 2)
        model.set_active(case if case in COMPOSED_GOLDEN else "a")
        _MODELS[case] = model
    return _MODELS[case]


@contextlib.contextmanager
def _split(threads: int, blocks: list):
    """Every encode of at least ``threads`` rows splits into ``threads``
    blocks; the block count of each ``in_row_blocks`` call lands in
    ``blocks``."""
    saved = M.SPLIT_MIN_TOKENS, M.ENCODE_THREADS, M.TransformerEncoder.in_row_blocks
    real = M.TransformerEncoder.in_row_blocks

    def spy(run, shape, plan=None):
        out = real(run, shape, plan)
        blocks.append(len(out))
        return out

    M.SPLIT_MIN_TOKENS, M.ENCODE_THREADS = 1, threads
    M.TransformerEncoder.in_row_blocks = staticmethod(spy)
    try:
        yield
    finally:
        M.SPLIT_MIN_TOKENS, M.ENCODE_THREADS = saved[:2]
        M.TransformerEncoder.in_row_blocks = staticmethod(saved[2])


def _outputs(model, tokens, mask, pooled, use_start):
    """The bytes of the prefix arrays, the state and each head's logits."""
    stage = model.frozen_stage() or Stage(1, ATTENTION, frozenset({"x"}))
    acts = model.encoder.prefix(tokens, stage, mask)
    start = acts if use_start and model.frozen_stage() is not None else None
    state = model.encode(tokens, mask, pooled=pooled, start=start)
    heads = ("h",) if state.window_start is not None else ("h", "t")
    return ([acts.arrays[k].tobytes() for k in sorted(acts.arrays)],
            (state.hidden.data.tobytes(), state.branches, state.prompt_len,
             state.window_start), [model.logits(state, h).data.tobytes() for h in heads])


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), batch=st.integers(2, 9), seq=st.integers(1, 12),
       pooled=st.booleans(), use_start=st.booleans(), threads=st.integers(2, 3),
       seed=st.integers(0, 2 ** 16))
def test_a_split_encode_equals_one_call_bit_for_bit(case, batch, seq, pooled, use_start,
                                                    threads, seed):
    if case in COMPOSED_GOLDEN:
        seq = 8                       # the Split setups cover 5 and 8 of 8 tokens
    model = _model(case)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, DESK_DIMS.vocab, size=(batch, seq))
    mask = (rng.random((batch, seq)) > 0.3).astype(np.float64)
    mask[:, 0] = 1.0
    want = _outputs(model, tokens, mask, pooled, use_start)
    blocks = []
    with _split(threads, blocks):
        got = _outputs(model, tokens, mask, pooled, use_start)
    assert blocks and set(blocks) == {min(threads, batch)}
    assert got == want


def test_a_split_is_the_same_on_haswell():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    running = _openblas_core(env)
    if running != "Haswell":
        pytest.skip(f"numpy's BLAS does not run OpenBLAS's Haswell kernel here "
                    f"(it reports {running or 'no OpenBLAS kernel'})")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{__file__}::test_a_split_encode_equals_one_call_bit_for_bit"],
                          cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("setup", ROUTED)
def test_setups_that_route_rows_never_split(setup):
    model = composed_model()
    model.set_active(setup)
    batch = COMPOSED_GOLDEN[setup][0]
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(batch, 8))
    blocks = []
    with _split(3, blocks):
        model.encode(tokens)
    assert blocks == [1]
    assert model.validate_setup(setup).routes_rows


def test_only_setups_that_route_rows_have_several_branches():
    model = composed_model()
    for setup in COMPOSED_GOLDEN:
        plan = model.validate_setup(setup, batch=COMPOSED_GOLDEN[setup][0], seq=8)
        assert plan.routes_rows == (setup in ROUTED)
        assert plan.routes_rows or len(plan.branches) == 1


def test_an_encode_under_a_tape_never_splits():
    model = _model("lora")
    model.train_adapter("a")
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(6, 8))
    blocks = []
    with _split(3, blocks), T.Tape():
        model.encode(tokens, pooled=True)
        model.encoder.prefix(tokens, Stage(1, ATTENTION))
    model.set_active("a")
    model.freeze_all()
    assert blocks == [1, 1]


def test_many_threads_on_few_cpus_keep_their_own_row_windows():
    # pooled encodes run their last layer in a row window; a window shared
    # between threads would reach another block's full-path products
    model = _model("seq_bn")
    tokens = np.random.default_rng(4).integers(0, DESK_DIMS.vocab, size=(16, 9))
    want = model.encode(tokens, pooled=True).hidden.data.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _split(8, []):
            got = [model.encode(tokens, pooled=True).hidden.data.tobytes() for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 5


@pytest.mark.parametrize("bad_row", [0, 4, 8])
def test_a_bad_token_in_any_block_raises_what_one_call_raises(bad_row):
    model = _model("seq_bn")
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(9, 8))
    tokens[bad_row, 3] = DESK_DIMS.vocab
    calls = (lambda: model.encode(tokens), lambda: model.encode(tokens, np.ones((9, 7))),
             lambda: model.encoder.prefix(tokens, Stage(1, ATTENTION)))
    for call in calls:
        with pytest.raises(InputError) as one:
            call()
        with _split(3, []), pytest.raises(InputError) as split:
            call()
        assert str(split.value) == str(one.value)
    with _split(3, []), pytest.raises(InputError, match="mask shape"):
        model.encode(tokens[:, :7] % 2, np.ones((9, 8)))


def test_no_thread_outlives_an_encode_a_prefix_an_evaluation_or_a_grid(monkeypatch):
    model = _model("seq_bn")
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(9, 8))
    before = threading.active_count()
    blocks = []
    with _split(3, blocks):
        model.encode(tokens)
        assert threading.active_count() == before
        model.encoder.prefix(tokens, Stage(1, ATTENTION))
        assert threading.active_count() == before
        evaluate(model, "h", tokens, np.zeros(9, dtype=int), batch_size=6)
        assert threading.active_count() == before
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            run_grid(SMALL_DIMS, TINY_TASK, _mini_grid(methods=("seq_bn", "lora")))
            assert threading.active_count() == before
    assert max(blocks) == 3


def test_a_chain_run_in_a_grid_worker_encodes_unsplit(monkeypatch):
    # each record carries, in place of its seconds, the most blocks any
    # encode of its chain ran in
    blocks = []
    real = training._run_chain

    def chain(*args, **kwargs):
        blocks.clear()
        for rec in real(*args, **kwargs):
            yield dataclasses.replace(rec, seconds=float(max(blocks)))

    monkeypatch.setattr(training, "_run_chain", chain)
    grid = _mini_grid(methods=("seq_bn", "lora"))
    most = {}
    with _split(2, blocks):
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            most[len(cpus)] = [r.seconds for r in run_grid(SMALL_DIMS, TINY_TASK, grid)]
    assert most == {1: [2.0, 2.0], 2: [1.0, 1.0]}


def test_evaluate_refuses_a_branched_setup_before_encoding(monkeypatch):
    model = composed_model()
    model.add_prediction_head("s1", CLASSIFICATION, 2)
    model.set_active("Parallel(s1, pb)")
    encodes = []
    real = AdapterModel.encode
    monkeypatch.setattr(AdapterModel, "encode",
                        lambda self, *a, **k: encodes.append(a) or real(self, *a, **k))
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(4, 8))
    with pytest.raises(ValueError, match="2 output branches; score each with branch_logits"):
        evaluate(model, "s1", tokens, np.zeros(4, dtype=int))
    assert encodes == []


def test_the_default_block_holds_the_measured_crossover():
    assert M.SPLIT_MIN_TOKENS == 512
    assert M.ENCODE_THREADS == (len(os.sched_getaffinity(0))
                                if hasattr(os, "sched_getaffinity") else 1)
    assert TransformerEncoder.in_row_blocks(lambda rows: rows, (16, 32)) == [slice(0, 16)]
