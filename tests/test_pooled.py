"""The encoder's pooled readout.

With ``pooled=True`` the last layer finishes on a two-position window that
holds the pooled position.  Its values must equal those positions of the
full path bit for bit, for the base model, every preset and every composed
setup; setups that cannot pool (a ``Split``, a gate read after the last
attention) must keep the full path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import tensor as T
from peftlab.composition import Split
from peftlab.configs import (CONFIG_NAMES, BottleneckConfig, ConfigUnion, IA3Config,
                             LoraConfig)
from peftlab.model import CLASSIFICATION, DESK_DIMS, TAGGING, InputError, TransformerEncoder
from peftlab.registry import AdapterModel
from peftlab.tensor import ContractError, ShapeError, Tape

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
                # the window runs wherever the sequence is longer than it
                pools = preset not in FALLBACK_PRESETS and seq + state.prompt_len > 2
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


def test_the_window_ends_at_the_last_position_when_the_pooled_one_is_last():
    model = _model("prompt_tuning")
    tokens = np.random.default_rng(4).integers(0, DESK_DIMS.vocab, size=(3, 1))
    state = _assert_pooled_equals_full(model, tokens)
    assert state.prompt_len == 10 and state.window_start == 9


def test_a_tagging_head_refuses_a_pooled_state():
    model = _model("seq_bn")
    model.add_prediction_head("tag", TAGGING, 4)
    state = model.encode(np.ones((2, 8), dtype=np.int64), pooled=True)
    assert state.window_start is not None
    with pytest.raises(InputError, match="pooled window"):
        model.logits(state, "tag")


@pytest.mark.parametrize("preset", [None, "seq_bn", "unipelt"])
def test_a_pooled_encode_under_a_tape_is_refused(preset):
    model = _model(preset)
    with Tape(), pytest.raises(ContractError, match="forward only"):
        model.encode(np.ones((2, 8), dtype=np.int64), pooled=True)
    with Tape(), pytest.raises(ContractError, match="forward only"):
        TransformerEncoder(DESK_DIMS).encode(np.ones((2, 8), dtype=np.int64), pooled=True)


def test_the_attention_query_window_is_checked_and_forward_only():
    rng = np.random.default_rng(0)
    q, k, v = (T.Tensor(rng.normal(size=(2, 5, 8))) for _ in range(3))
    bias = np.zeros((2, 5))
    full = T.attention(q, k, v, bias, 2).data
    part = T.attention(q, k, v, bias, 2, window=(3, 2)).data
    assert part.tobytes() == np.ascontiguousarray(full[:, 3:5]).tobytes()
    for window in ((4, 2), (-1, 2), (0, 0)):
        with pytest.raises(ShapeError, match="query window"):
            T.attention(q, k, v, bias, 2, window=window)
    with Tape(), pytest.raises(ContractError, match="forward only"):
        T.attention(q, k, v, bias, 2, window=(0, 2))
