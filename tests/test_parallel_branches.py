"""``Parallel`` branches that share the frozen layers below their first hook.

A setup that replicates rows over a frozen base computes the input rows'
activations at its first adapted stage once and copies them to every
branch (``Plan.row_index``), instead of copying the embeddings and running
the frozen layers once per branch.  The oracle: each branch's output rows
equal that branch's setup run alone on its input rows, bit for bit, with
and without a tape, pooled and full, at any batch.  Below that stage no
hook runs, and training a setup that copies rows is refused, since the loss
reads one label row per input row.
"""

import numpy as np
import pytest

from peftlab import routing, training
from peftlab import tensor as T
from peftlab.composition import Plan, parse_setup
from peftlab.model import (ATTENTION, ATTENTION_RESIDUAL, CLASSIFICATION, DESK_DIMS,
                           FFN_RESIDUAL, TAGGING)

from test_golden import composed_model

# setup -> (its first adapted stage's point, the setup each branch runs alone)
BRANCHED = {
    "Parallel(s1, pb)": (FFN_RESIDUAL, ("s1", "pb")),
    "Parallel(cp, s1)": (ATTENTION_RESIDUAL, ("cp", "s1")),
    "Parallel(lo, cp, pb)": (ATTENTION, ("lo", "cp", "pb")),
    "Parallel(pf, ia)": (ATTENTION, ("pf", "ia")),
    "Parallel(Stack(s1, lo), s2)": (ATTENTION, ("Stack(s1, lo)", "s2")),
}


@pytest.fixture
def prefix_rows(monkeypatch):
    """The row count of each layer norm of layer 0's attention input."""
    rows = []
    real = T.layer_norm

    def spy(x, gamma, beta, *a, **k):
        if gamma.name == "layer0.ln1.g":
            rows.append(x.shape[0])
        return real(x, gamma, beta, *a, **k)

    monkeypatch.setattr(T, "layer_norm", spy)
    return rows


def _tokens(batch, seed=3):
    return np.random.default_rng(seed).integers(0, DESK_DIMS.vocab, size=(batch, 8))


def _mask(batch):
    mask = np.ones((batch, 8))
    mask[-1, 6:] = 0.0
    return mask


def _encode(model, setup, tokens, mask, pooled, tape):
    """The encoder output's bytes, per branch, and its window start; under a
    tape the setup's adapters train, so their ops are recorded."""
    if tape:
        model.train_adapter(setup)
        with T.Tape():
            state = model.encode(tokens, mask, pooled=pooled)
    else:
        model.set_active(setup)
        state = model.encode(tokens, mask, pooled=pooled)
    hidden, off, out = state.hidden.data, 0, []
    for _, rows in state.branches:
        out.append(hidden[off:off + rows].tobytes())
        off += rows
    return out, state.window_start


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("pooled", [False, True], ids=["full", "pooled"])
@pytest.mark.parametrize("batch", [1, 3, 4])
@pytest.mark.parametrize("setup", sorted(BRANCHED))
def test_each_branch_equals_its_setup_alone(prefix_rows, setup, batch, pooled, tape):
    point, alone = BRANCHED[setup]
    model = composed_model()
    assert model.validate_setup(setup).start.point == point
    tokens, mask = _tokens(batch), _mask(batch)
    got, window = _encode(model, setup, tokens, mask, pooled, tape)
    assert prefix_rows == [batch]                # the frozen layers ran once, on the input
    want = [_encode(model, s, tokens, mask, pooled, tape) for s in alone]
    assert got == [w[0][0] for w in want]
    assert all(w[1] == window for w in want)


def test_a_prompt_before_parallel_keeps_the_embedding_path(prefix_rows):
    model = composed_model()
    tokens, mask = _tokens(4), _mask(4)
    got, _ = _encode(model, "Stack(pr, Parallel(s1, lo))", tokens, mask, False, False)
    assert prefix_rows == [8]
    assert got == [_encode(model, f"Stack(pr, {s})", tokens, mask, False, False)[0][0]
                   for s in ("s1", "lo")]


def test_parallel_inside_a_batch_split_copies_only_its_own_rows(prefix_rows):
    model = composed_model()
    setup = "BatchSplit(Parallel(s1, pb), lo, batch_sizes=[2, 2])"
    plan = model.validate_setup(setup, batch=4)
    assert plan.row_index.tolist() == [0, 1, 0, 1, 2, 3]
    tokens, mask = _tokens(4), _mask(4)
    for tape in (False, True):
        prefix_rows.clear()
        got, _ = _encode(model, setup, tokens, mask, False, tape)
        assert prefix_rows == [4]
        want = [_encode(model, s, tokens[rows], mask[rows], False, tape)[0][0]
                for s, rows in (("s1", slice(0, 2)), ("pb", slice(0, 2)), ("lo", slice(2, 4)))]
        assert got == want


def test_row_index_is_none_unless_rows_are_copied():
    model = composed_model()
    assert model.validate_setup("Parallel(s1)", batch=3).row_index is None
    assert model.validate_setup("Stack(s1, lo)", batch=3).row_index is None
    assert model.validate_setup("Parallel(s1, pb, lo)", batch=2).row_index.tolist() == [
        0, 1, 0, 1, 0, 1]


def test_a_trainable_base_copies_the_embeddings(prefix_rows):
    model = composed_model()
    model.set_active("Parallel(s1, pb)")
    model.encoder.params["layer1.attn.wq"].requires_grad = True
    model.encode(_tokens(2))
    assert prefix_rows == [4]


@pytest.mark.parametrize("setup", ["Parallel(s1, pb)", "Parallel(lo, cp)",
                                   "BatchSplit(Parallel(s1, pb), lo, batch_sizes=[2, 2])"])
def test_training_a_setup_that_copies_rows_is_refused(setup):
    # the loss reads one label row per input row, so it cannot score copies
    model = composed_model()
    model.add_prediction_head("h", CLASSIFICATION, 3)
    model.train_adapter(parse_setup(setup), extra_heads=("h",))
    x = np.random.default_rng(5).integers(0, DESK_DIMS.vocab, size=(8, 7))
    with pytest.raises(ValueError, match="copies each input row.*branch_logits"):
        training.train_milestones(model, "h", x, np.zeros(8, dtype=int), 5e-3, (1,), 4)


@pytest.mark.parametrize("kind, labels", [(CLASSIFICATION, 3), (TAGGING, 4)])
@pytest.mark.parametrize("setup", ["Stack(s1, lo)", "BatchSplit(s1, lo, batch_sizes=[2, 2])"])
def test_training_from_the_first_stage_equals_training_from_the_embedding(monkeypatch, setup,
                                                                          kind, labels):
    r = np.random.default_rng(5)
    x = r.integers(0, DESK_DIMS.vocab, size=(8, 7))
    y = r.integers(0, labels, size=(8, 7) if kind == TAGGING else 8)
    runs = []
    for embedding in (False, True):
        with monkeypatch.context() as mp:
            if embedding:
                mp.setattr(Plan, "start", property(lambda self: None))
            model = composed_model()
            model.add_prediction_head("h", kind, labels)
            model.train_adapter(parse_setup(setup), extra_heads=("h",))
            assert (model.frozen_stage() is None) == embedding
            res = [(ep, r.losses) for ep, r in training.train_milestones(
                model, "h", x, y, 5e-3, (1, 2), 4, seed=2)]
            runs.append((res, {k: t.data.tobytes()
                               for k, t in model.trainable_parameters().items()}))
    assert runs[0] == runs[1]


# every hook call of an encode, in encoder order, with the stage position
# it follows: the embedding is -1, and the exit stage follows the last
# layer's feed-forward residual
LAYERS = DESK_DIMS.num_layers
ALL_HOOKS = ([("embedding_stage", None, -1)]
             + [call for l in range(LAYERS) for call in (
                 ("attention", l, 3 * l + ATTENTION),
                 ("post_attention", l, 3 * l + ATTENTION_RESIDUAL),
                 ("ffn_intermediate", l, 3 * l + ATTENTION_RESIDUAL),
                 ("ffn_block", l, 3 * l + FFN_RESIDUAL))]
             + [("exit_stage", None, 3 * LAYERS - 1)])


@pytest.fixture
def hook_calls(monkeypatch):
    """(hook, layer) of each ``RoutingContext`` hook call; no layer for the
    embedding and exit stages."""
    calls = []
    for name in {hook for hook, _, _ in ALL_HOOKS}:
        def spy(self, *a, _name=name, _real=getattr(routing.RoutingContext, name)):
            calls.append((_name, a[0] if isinstance(a[0], int) else None))
            return _real(self, *a)
        monkeypatch.setattr(routing.RoutingContext, name, spy)
    return calls


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("setup", ["s1", "Parallel(s1, pb)",
                                   "BatchSplit(s1, lo, batch_sizes=[2, 2])",
                                   "Split(s1, pb, splits=[3, 2])",
                                   "Average(s1, s2)"])
def test_no_hook_runs_below_the_first_adapted_stage(hook_calls, setup, tape):
    # below it no leaf acts and nothing trains; an Average has no such stage
    model = composed_model()
    first = model.validate_setup(setup).start
    _encode(model, setup, _tokens(4), _mask(4), False, tape)
    assert hook_calls == [(hook, l) for hook, l, after in ALL_HOOKS
                          if first is None or after >= first.position]
    assert (first is None) == setup.startswith("Average")


@pytest.mark.parametrize("setup, idle", [("Parallel(s1, pb)", True),
                                         ("Average(s1, s2, weights=[0.25, 0.75])", False)])
def test_hooks_nothing_binds_return_their_input_unless_a_tape_records(monkeypatch, setup, idle):
    # slicing and joining rows where no leaf acts only copies them; an
    # Average's weighted sum rounds, and a tape keeps the copies' backward
    routed = []
    real = routing.RoutingContext._route_point
    monkeypatch.setattr(routing.RoutingContext, "_route_point",
                        lambda self, node, main, aux, apply, *a, **k: routed.append(
                            apply.__name__) or real(self, node, main, aux, apply, *a, **k))
    model = composed_model()
    for tape in (False, True):
        routed.clear()
        _encode(model, setup, _tokens(2), _mask(2), False, tape)
        assert ("_leaf_post_attn" not in routed) == (idle and not tape)
        assert ("_leaf_embed_inverse" not in routed) == (idle and not tape)
        assert "_leaf_ffn_block" in routed
