"""The encoder's pooled readout.

With ``pooled=True`` the last layer finishes on a two-position window that
holds the pooled position.  Its values must equal those positions of the
full path bit for bit, for the base model, every preset and every composed
setup; setups that cannot pool (a ``Split``, a gate read after the last
attention) must keep the full path.  Under a tape, the loss and every
trainable gradient must equal the full path's bit for bit too.
"""

import hashlib
import os
import subprocess
import sys
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import routing
from peftlab import tensor as T
from peftlab.composition import Split
from peftlab.configs import (CONFIG_NAMES, BottleneckConfig, ConfigUnion, IA3Config,
                             LoraConfig, PrefixTuningConfig, PromptTuningConfig)
from peftlab.model import (CLASSIFICATION, DESK_DIMS, REGRESSION, TAGGING, InputError,
                           TransformerEncoder)
from peftlab.registry import AdapterModel
from peftlab.tensor import ContractError, ShapeError, Tape
from peftlab.training import FULL_FT, task_loss

from test_frozen_prefix import _openblas_core
from test_golden import COMPOSED_GOLDEN, composed_model
from test_lifecycle import randomize

PRESETS = (None,) + tuple(CONFIG_NAMES)
FALLBACK_PRESETS = {"unipelt"}
BATCHES = (1, 2, 3, 4, 7, 8, 16, 32)
SEQS = (1, 2, 3, 5, 8, 16, 32)


def _model(preset, seed=0):
    """A desk-dims model with a classification head ``h`` and, unless
    ``preset`` is None, an active adapter of that preset off its identity."""
    model = AdapterModel(DESK_DIMS, seed=seed)
    model.add_prediction_head("h", CLASSIFICATION, 3)
    if preset is not None:
        randomize(model.add_adapter("a", preset), seed=seed + 5)
        model.set_active("a")
    return model


def _assert_pooled_equals_full(model, tokens, mask=None):
    """The pooled state's window and logits equal the full path's bytes;
    returns the pooled state."""
    full = model.encode(tokens, mask)
    pooled = model.encode(tokens, mask, pooled=True)
    assert pooled.branches == full.branches
    assert (pooled.prompt_len, pooled.seq_len) == (full.prompt_len, full.seq_len)
    if pooled.window_start is None:
        assert pooled.hidden.data.tobytes() == full.hidden.data.tobytes()
    else:
        assert pooled.hidden.shape[1] == 2
        assert 0 <= full.prompt_len - pooled.window_start <= 1
        window = full.hidden.data[:, pooled.window_start:pooled.window_start + 2]
        assert pooled.hidden.data.tobytes() == np.ascontiguousarray(window).tobytes()
    assert (model.logits(pooled, "h").data.tobytes()
            == model.logits(full, "h").data.tobytes())
    return pooled


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p or "base")
def test_pooled_readout_equals_the_full_path_bit_for_bit(preset):
    model = _model(preset)
    rng = np.random.default_rng(1)
    for batch in BATCHES:
        for seq in SEQS:
            tokens = rng.integers(0, DESK_DIMS.vocab, size=(batch, seq))
            for mask in (None, (rng.random((batch, seq)) > 0.3).astype(np.float64)):
                state = _assert_pooled_equals_full(model, tokens, mask)
                # the window runs wherever it would not hold the last position
                pools = preset not in FALLBACK_PRESETS and seq > 2
                assert (state.window_start is not None) == pools


@settings(max_examples=30, deadline=None)
@given(preset=st.sampled_from(PRESETS), batch=st.integers(1, 33), seq=st.integers(1, 48),
       masked=st.booleans(), seed=st.integers(0, 2**16))
def test_pooled_readout_equals_the_full_path_for_any_batch_and_mask(preset, batch, seq,
                                                                     masked, seed):
    model = _model(preset, seed=seed % 7)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, DESK_DIMS.vocab, size=(batch, seq))
    mask = (rng.random((batch, seq)) > 0.4).astype(np.float64) if masked else None
    _assert_pooled_equals_full(model, tokens, mask)


@pytest.mark.parametrize("setup", sorted(COMPOSED_GOLDEN))
def test_pooled_readout_equals_the_full_path_on_composed_setups(setup):
    batch = COMPOSED_GOLDEN[setup][0]
    model = composed_model()
    model.add_prediction_head("h", CLASSIFICATION, 3)
    model.set_active(setup)
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(batch, 8))
    mask = np.ones((batch, 8))
    mask[1, 6:] = 0.0
    for m in (None, mask):
        state = _assert_pooled_equals_full(model, tokens, m)
        falls_back = (setup.startswith("Split(")
                      or "un" in model.validate_setup(setup).leaf_names)
        assert (state.window_start is None) == falls_back


GATED_FFN_UNION = ConfigUnion(members=(LoraConfig(r=2), IA3Config(),
                                       BottleneckConfig(placement="parallel")), gated=True)


@pytest.mark.parametrize("setup", ["unipelt", "gated-ffn-union", "split"])
def test_setups_that_cannot_pool_keep_the_full_path(setup):
    model = AdapterModel(DESK_DIMS, seed=0)
    model.add_prediction_head("h", CLASSIFICATION, 3)
    if setup == "split":
        randomize(model.add_adapter("s1", "seq_bn"), seed=1)
        randomize(model.add_adapter("pb", "par_bn"), seed=2)
        model.set_active(Split("s1", "pb", splits=[3, 5]))
    else:
        randomize(model.add_adapter("a", GATED_FFN_UNION if setup != "unipelt" else setup),
                  seed=1)
        model.set_active("a")
    tokens = np.random.default_rng(4).integers(0, DESK_DIMS.vocab, size=(4, 16))
    state = _assert_pooled_equals_full(model, tokens)
    assert state.window_start is None and state.hidden.shape[1] == 16
    assert not model.validate_setup(model.active).pools


def test_a_gate_read_only_inside_attention_still_pools():
    model = AdapterModel(DESK_DIMS, seed=0)
    model.add_prediction_head("h", CLASSIFICATION, 3)
    randomize(model.add_adapter("a", ConfigUnion(members=(LoraConfig(r=2),), gated=True)),
              seed=1)
    model.set_active("a")
    assert model.validate_setup("a").pools
    tokens = np.random.default_rng(4).integers(0, DESK_DIMS.vocab, size=(4, 16))
    assert _assert_pooled_equals_full(model, tokens).window_start == 0


def test_a_pooled_position_among_the_last_two_keeps_the_full_path():
    model = _model("prompt_tuning")
    for seq in (1, 2):
        tokens = np.random.default_rng(4).integers(0, DESK_DIMS.vocab, size=(3, seq))
        state = _assert_pooled_equals_full(model, tokens)
        assert state.prompt_len == 10 and state.window_start is None


def test_a_tagging_head_refuses_a_pooled_state():
    model = _model("seq_bn")
    model.add_prediction_head("tag", TAGGING, 4)
    state = model.encode(np.ones((2, 8), dtype=np.int64), pooled=True)
    assert state.window_start is not None
    with pytest.raises(InputError, match="pooled window"):
        model.logits(state, "tag")


# ---------------------------------------------------------------------------
# training through the window: the loss and every gradient, bit for bit


def _trained_model(case, kind, seed=0):
    """A desk-dims model with head ``h`` of ``kind`` and, for ``case``, full
    fine-tuning or an adapter of that config off its identity, trainable."""
    model = AdapterModel(DESK_DIMS, seed=seed)
    model.add_prediction_head("h", kind, 1 if kind == REGRESSION else 3)
    if case == FULL_FT:
        model.train_full(head="h")
    else:
        randomize(model.add_adapter("a", case), seed=seed + 5)
        model.train_adapter("a", extra_heads=("h",))
    return model


def _step_digest(model, kind, tokens, mask, y, pooled, tape=None):
    """SHA-256 of a training step's loss and of every trainable gradient,
    in name order, and the window the step's encode ran on."""
    for t in model.trainable_parameters().values():
        t.grad = None
    with Tape() if tape is None else nullcontext(tape) as tp:
        state = model.encode(tokens, mask, pooled=pooled)
        loss = task_loss(kind, model.logits(state, "h"), y)
        tp.backward(loss)
    h = hashlib.sha256(loss.data.tobytes())
    for name, t in sorted(model.trainable_parameters().items()):
        h.update(name.encode())
        h.update(b"none" if t.grad is None else t.grad.tobytes())
    return h.hexdigest(), state.window_start


def _assert_pooled_step_equals_full(model, kind, tokens, mask=None, seed=0):
    """The pooled step's loss and gradients equal the full step's bytes;
    returns the pooled step's window start."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, size=tokens.shape[0]) if kind == CLASSIFICATION else rng.normal(
        size=tokens.shape[0])
    full, start = _step_digest(model, kind, tokens, mask, y, pooled=False)
    assert start is None
    pooled, start = _step_digest(model, kind, tokens, mask, y, pooled=True)
    assert pooled == full
    return start


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("kind", [CLASSIFICATION, REGRESSION])
@pytest.mark.parametrize("case", (FULL_FT,) + tuple(CONFIG_NAMES))
def test_a_pooled_training_step_equals_the_full_one_bit_for_bit(case, kind, masked):
    model = _trained_model(case, kind)
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, DESK_DIMS.vocab, size=(16, 32))
    mask = (rng.random((16, 32)) > 0.3).astype(np.float64) if masked else None
    start = _assert_pooled_step_equals_full(model, kind, tokens, mask)
    assert (start is None) == (case in FALLBACK_PRESETS)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from((FULL_FT, "seq_bn", "lora", "ia3", "compacter", "mam",
                             "prefix_tuning", "seq_bn_inv", "prompt")),
       kind=st.sampled_from([CLASSIFICATION, REGRESSION]), batch=st.integers(1, 9),
       seq=st.integers(1, 40), prompt=st.integers(1, 12), masked=st.booleans(),
       seed=st.integers(0, 2**16))
def test_a_pooled_training_step_equals_the_full_one_for_any_shape(case, kind, batch, seq,
                                                                   prompt, masked, seed):
    config = PromptTuningConfig(prompt_length=prompt) if case == "prompt" else case
    model = _trained_model(config, kind, seed=seed % 5)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, DESK_DIMS.vocab, size=(batch, seq))
    mask = (rng.random((batch, seq)) > 0.4).astype(np.float64) if masked else None
    start = _assert_pooled_step_equals_full(model, kind, tokens, mask, seed=seed)
    assert (start is not None) == (seq > 2)


GATED_PREFIX = ConfigUnion(members=(PrefixTuningConfig(prefix_length=3), LoraConfig(r=2)),
                           gated=True)


@pytest.mark.parametrize("setup", sorted(COMPOSED_GOLDEN) + ["gated-prefix"])
def test_a_pooled_training_step_equals_the_full_one_on_composed_setups(setup):
    model = composed_model()
    if setup == "gated-prefix":       # the gated prefix mixes two windowed attentions
        randomize(model.add_adapter("gp", GATED_PREFIX), seed=9)
        setup = "gp"
    model.add_prediction_head("h", CLASSIFICATION, 3)
    model.train_adapter(setup, train_fused_members=True, extra_heads=("h",))
    batch = COMPOSED_GOLDEN[setup][0] if setup in COMPOSED_GOLDEN else 4
    tokens = np.random.default_rng(3).integers(0, DESK_DIMS.vocab, size=(batch, 8))
    mask = np.ones((batch, 8))
    mask[1, 6:] = 0.0
    start = _assert_pooled_step_equals_full(model, CLASSIFICATION, tokens, mask)
    falls_back = setup.startswith("Split(") or "un" in model.validate_setup(setup).leaf_names
    assert (start is None) == falls_back


@pytest.mark.parametrize("setup", ["unipelt", "split"])
def test_training_setups_that_cannot_pool_keep_the_full_path(setup):
    model = AdapterModel(DESK_DIMS, seed=0)
    model.add_prediction_head("h", REGRESSION, 1)
    if setup == "split":
        randomize(model.add_adapter("s1", "seq_bn"), seed=1)
        randomize(model.add_adapter("pb", "par_bn"), seed=2)
        model.train_adapter(Split("s1", "pb", splits=[3, 5]), extra_heads=("h",))
    else:
        randomize(model.add_adapter("a", setup), seed=1)
        model.train_adapter("a", extra_heads=("h",))
    tokens = np.random.default_rng(4).integers(0, DESK_DIMS.vocab, size=(4, 16))
    assert _assert_pooled_step_equals_full(model, REGRESSION, tokens) is None


@pytest.mark.parametrize("preset", [None, "seq_bn", "unipelt"])
def test_a_pooled_encode_under_a_tape_gives_the_full_paths_gradients(preset):
    model = _trained_model(FULL_FT if preset is None else preset, CLASSIFICATION)
    tokens = np.random.default_rng(8).integers(0, DESK_DIMS.vocab, size=(2, 8))
    start = _assert_pooled_step_equals_full(model, CLASSIFICATION, tokens)
    assert (start is None) == (preset in FALLBACK_PRESETS)
    enc = TransformerEncoder(DESK_DIMS)
    enc.set_requires_grad(True)
    digests = []
    for pooled in (False, True):
        for t in enc.params.values():
            t.grad = None
        with Tape() as tape:
            state = enc.encode(tokens, pooled=pooled)
            pos = state.prompt_len - (state.window_start or 0)
            tape.backward(T.tsum(T.narrow(state.hidden, 1, pos, 1)))
        digests.append([t.grad.tobytes() for _, t in sorted(enc.params.items())])
    assert state.window_start == 0 and digests[0] == digests[1]


def test_a_pooled_encode_that_raises_leaves_no_window_on_the_tape(monkeypatch):
    model = _trained_model("seq_bn_inv", REGRESSION)
    tokens = np.random.default_rng(5).integers(0, DESK_DIMS.vocab, size=(4, 12))
    y = np.random.default_rng(6).normal(size=4)
    expected, _ = _step_digest(model, REGRESSION, tokens, None, y, pooled=False)

    def exit_stage(self, h):          # the last hook inside the window
        raise RuntimeError("exit stage failed")

    with Tape() as tape:
        with monkeypatch.context() as patch:
            patch.setattr(routing.RoutingContext, "exit_stage", exit_stage)
            with pytest.raises(RuntimeError, match="exit stage failed"):
                model.encode(tokens, pooled=True)
        assert tape.window is None
        assert _step_digest(model, REGRESSION, tokens, None, y, pooled=False,
                            tape=tape)[0] == expected


def test_the_row_window_ends_with_its_block_and_checks_its_operands():
    rng = np.random.default_rng(0)
    w, b = T.Tensor(rng.normal(size=(8, 4)), requires_grad=True), T.Tensor(np.zeros(4))
    with Tape() as tape:
        with pytest.raises(KeyError), tape.row_window(1, 2, 6):
            assert tape.window == (1, 2, 6)
            raise KeyError("inside")
        assert tape.window is None
        with tape.row_window(1, 2, 6), pytest.raises(ContractError, match="row window"):
            T.linear(T.Tensor(rng.normal(size=(3, 5, 8))), w, b)
        T.linear(T.Tensor(rng.normal(size=(3, 5, 8))), w, b)     # no window: any rows


def test_windowed_linear_and_matmul_gradients_equal_the_full_products():
    rng = np.random.default_rng(1)
    xf = rng.normal(size=(16, 32, 64))
    w, b = rng.normal(size=(64, 64)), rng.normal(size=64)
    gw = np.zeros((16, 32, 64))
    gw[:, 5:7] = rng.normal(size=(16, 2, 64))

    def grads(op, window):
        x = T.Tensor(xf if window is None else xf[:, 5:7], requires_grad=True)
        wt, bt = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
        g = gw if window is None else gw[:, 5:7]
        with Tape() as tape:
            if window is not None:
                with tape.row_window(*window):
                    out = op(x, wt, bt)
            else:
                out = op(x, wt, bt)
            tape.backward(T.tsum(T.mul(out, T.constant(g))))
        dx = x.grad if window is not None else x.grad[:, 5:7]
        return [np.ascontiguousarray(dx).tobytes()] + [
            t.grad.tobytes() for t in (wt, bt) if t.grad is not None]

    for op in (T.linear, lambda x, w, b: T.matmul(x, w)):
        assert grads(op, (5, 2, 32)) == grads(op, None)


def test_the_attention_query_window_is_checked_and_its_gradients_equal_the_full_call():
    rng = np.random.default_rng(0)
    q, k, v = (T.Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True) for _ in range(3))
    bias = np.zeros((2, 5))
    full = T.attention(q, k, v, bias, 2).data
    part = T.attention(q, k, v, bias, 2, window=(3, 2)).data
    assert part.tobytes() == np.ascontiguousarray(full[:, 3:5]).tobytes()
    for window in ((4, 2), (-1, 2), (0, 0)):
        with pytest.raises(ShapeError, match="query window"):
            T.attention(q, k, v, bias, 2, window=window)
    g = np.zeros((2, 5, 8))
    g[:, 3:5] = rng.normal(size=(2, 2, 8))
    grads = []
    for window, gw in ((None, g), ((3, 2), g[:, 3:5])):
        for t in (q, k, v):
            t.grad = None
        with Tape() as tape:
            out = T.attention(q, k, v, bias, 2, window=window)
            tape.backward(T.tsum(T.mul(out, T.constant(gw))))
        grads.append([t.grad.tobytes() for t in (q, k, v)])
    assert grads[0] == grads[1]


# ---------------------------------------------------------------------------
# the Haswell kernel, which rounds the last row of an odd-row product apart


def test_pooled_short_and_prompted_sequences_are_the_same_on_haswell():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    running = _openblas_core(env)
    if running != "Haswell":
        pytest.skip(f"numpy's BLAS does not run OpenBLAS's Haswell kernel here "
                    f"(it reports {running or 'no OpenBLAS kernel'})")
    tests = [f"{__file__}::{name}" for name in (
        "test_pooled_readout_equals_the_full_path_bit_for_bit",
        "test_pooled_readout_equals_the_full_path_for_any_batch_and_mask",
        "test_a_pooled_position_among_the_last_two_keeps_the_full_path",
        "test_a_pooled_training_step_equals_the_full_one_for_any_shape")]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
