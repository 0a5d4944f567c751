"""Every setup the plan accepts runs.

Hypothesis draws composition trees of 2 to 4 leaves over all eleven presets
and all six blocks, nested at most three blocks deep, with random block
arguments.  Each one that validates must encode with and without a tape to
the same bits, give pooled logits equal to the full path's, and
backpropagate to finite gradients.  Setups of presets that fit
``SMALL_DIMS`` run there; setups with ``compacter``, whose factor count
does not divide that width, run at desk dims.
"""

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from peftlab import tensor as T
from peftlab.composition import (Average, BatchSplit, CompositionError, Fuse, Parallel,
                                 Split, Stack, leaves)
from peftlab.configs import CONFIG_NAMES
from peftlab.methods import StateError
from peftlab.model import CLASSIFICATION, DESK_DIMS
from peftlab.registry import AdapterModel, RegistryError

from conftest import SMALL_DIMS
from test_lifecycle import randomize

BLOCKS = (Stack, Parallel, BatchSplit, Average, Fuse, Split)
SEQ = 7


@lru_cache(maxsize=None)
def _model(dims):
    """One adapter of each preset (named after it) that fits ``dims``, moved
    off the identity, and a classification head."""
    model = AdapterModel(dims, seed=4)
    for i, name in enumerate(CONFIG_NAMES):
        if dims != DESK_DIMS and name == "compacter":
            continue
        randomize(model.add_adapter(name, name), seed=30 + i)
    model.add_prediction_head("cls", CLASSIFICATION, 3)
    return model


def _parts(draw, total: int, count: int) -> list:
    """``total`` split into ``count`` positive parts."""
    if count == 1:
        return [total]
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=count - 1,
                                max_size=count - 1, unique=True)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@st.composite
def _tree(draw, n: int, depth: int, batch: int):
    """A tree of ``n`` leaves nested at most ``depth`` blocks deep."""
    if n == 1 and (depth == 0 or draw(st.integers(0, 3)) > 0):
        return draw(st.sampled_from(CONFIG_NAMES))
    kind = draw(st.sampled_from(BLOCKS))
    if kind in (Fuse, Split) or depth == 1:         # leaf children only
        children = [draw(_tree(1, 0, batch)) for _ in range(n)]
    else:
        count = draw(st.integers(1, n))
        children = [draw(_tree(k, depth - 1, batch)) for k in _parts(draw, n, count)]
    k = len(children)
    if kind is Split:
        return Split(*children, splits=draw(st.lists(st.integers(1, SEQ // k), min_size=k,
                                                     max_size=k)))
    if kind is BatchSplit:
        sizes = (_parts(draw, batch, k) if k <= batch and draw(st.booleans())
                 else draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))
        return BatchSplit(*children, batch_sizes=sizes)
    if kind is Average and draw(st.booleans()):
        return Average(*children, weights=draw(st.lists(st.floats(0.1, 2.0), min_size=k,
                                                        max_size=k)))
    return kind(*children)


@st.composite
def setups(draw):
    batch = draw(st.integers(1, 4))
    node = draw(_tree(draw(st.integers(2, 4)), 3, batch))
    assume(not isinstance(node, str))
    return node, batch


def _fusions(model, node) -> None:
    """A fusion layer for every ``Fuse`` in the tree that has none yet."""
    if isinstance(node, Fuse) and len(node.children) > 1:
        try:
            model.add_adapter_fusion(leaves(node))
        except RegistryError:           # made for an earlier example
            pass
    for c in getattr(node, "children", ()):
        _fusions(model, c)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(drawn=setups(), seed=st.integers(0, 2 ** 16))
# a member that slices rows before one that copies them
@example(drawn=(Stack(Parallel("compacter"), Parallel("compacter", "compacter")), 1), seed=0)
def test_every_setup_that_validates_encodes_pools_and_backpropagates(drawn, seed):
    node, batch = drawn
    model = _model(DESK_DIMS if "compacter" in leaves(node) else SMALL_DIMS)
    _fusions(model, node)
    r = np.random.default_rng(seed)
    tokens = r.integers(0, model.dims.vocab, size=(batch, SEQ))
    mask = np.ones((batch, SEQ))
    mask[0, SEQ - 2:] = 0.0
    try:
        model.validate_setup(node, batch=batch, seq=SEQ)
    except (CompositionError, StateError):
        assume(False)
    model.set_active(node)
    full = model.encode(tokens, mask)
    pooled = model.encode(tokens, mask, pooled=True)
    assert np.all(np.isfinite(full.hidden.data))
    assert (model.logits(pooled, "cls").data.tobytes()
            == model.logits(full, "cls").data.tobytes())

    model.train_adapter(node, extra_heads=("cls",))
    params = model.trainable_parameters()
    for t in params.values():
        t.grad = None
    with T.Tape() as tape:
        taped = model.encode(tokens, mask)
        assert taped.hidden.data.tobytes() == full.hidden.data.tobytes()
        logits = model.logits(model.encode(tokens, mask, pooled=True), "cls")
        weights = T.constant(r.normal(size=logits.shape))
        tape.backward(T.tsum(T.mul(logits, weights)))
    grads = [t.grad for t in params.values() if t.grad is not None]
    assert grads and all(np.all(np.isfinite(g)) for g in grads)
