"""``Parallel`` branches that share the frozen layers below their first hook.

A setup that replicates rows over a frozen base computes the input rows'
activations at its first adapted stage once and copies them to every
branch (``Plan.row_index``), instead of copying the embeddings and running
the frozen layers once per branch.  The oracle: each branch's output rows
equal that branch's setup run alone on its input rows, bit for bit, with
and without a tape, pooled and full, at any batch.  That holds too where a
member that slices rows comes before one that copies them, so that it acts
on every copy of its rows.  Below that stage no hook runs, and training a
setup that copies rows is refused, since the loss reads one label row per
input row.
"""

import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from peftlab import routing, training
from peftlab import tensor as T
from peftlab.composition import (Average, BatchSplit, CompositionError, Parallel, Plan, Stack,
                                 parse_setup)
from peftlab.model import (ATTENTION, ATTENTION_RESIDUAL, CLASSIFICATION, DESK_DIMS,
                           FFN_RESIDUAL, TAGGING)

from test_frozen_prefix import _openblas_core
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


# setup -> (batch, its branches, and per branch the setup it runs alone and
# on which input rows).  In each, a member that slices rows (a Parallel,
# even of one child, or a BatchSplit) comes before one that copies them, or
# a gated prefix (un) before a block that modifies attention.
ROUTED = {
    "Stack(Parallel(s1), Parallel(lo, ia))": (
        3, [("lo", 3), ("ia", 3)], [("Stack(s1, lo)", None), ("Stack(s1, ia)", None)]),
    "Stack(BatchSplit(s1, pb, batch_sizes=[1, 1]), Parallel(lo, ia))": (
        2, [("lo", 2), ("ia", 2)],
        [("Stack(BatchSplit(s1, pb, batch_sizes=[1, 1]), lo)", None),
         ("Stack(BatchSplit(s1, pb, batch_sizes=[1, 1]), ia)", None)]),
    "Parallel(Stack(Parallel(s1), Parallel(lo, ia)), pb)": (
        3, [("lo", 3), ("ia", 3), ("pb", 3)],
        [("Stack(s1, lo)", None), ("Stack(s1, ia)", None), ("pb", None)]),
    "Stack(Parallel(s1), BatchSplit(Parallel(lo, ia), pb, batch_sizes=[1, 1]))": (
        2, [("lo", 1), ("ia", 1), ("pb", 1)],
        [("Stack(s1, lo)", slice(0, 1)), ("Stack(s1, ia)", slice(0, 1)),
         ("Stack(s1, pb)", slice(1, 2))]),
    "Stack(Parallel(s1, pb), Parallel(lo, ia))": (
        3, [("lo", 6), ("ia", 6)],
        [("Stack(Parallel(s1, pb), lo)", None), ("Stack(Parallel(s1, pb), ia)", None)]),
    "Stack(un, Parallel(lo, pb))": (
        3, [("lo", 3), ("pb", 3)], [("Stack(un, lo)", None), ("Stack(un, pb)", None)]),
}


@pytest.mark.parametrize("tape", [False, True], ids=["no-tape", "tape"])
@pytest.mark.parametrize("pooled", [False, True], ids=["full", "pooled"])
@pytest.mark.parametrize("setup", sorted(ROUTED))
def test_a_member_before_one_that_copies_rows_acts_on_every_copy(prefix_rows, setup,
                                                                 pooled, tape):
    batch, branches, alone = ROUTED[setup]
    model = composed_model()
    tokens, mask = _tokens(batch), _mask(batch)
    got, window = _encode(model, setup, tokens, mask, pooled, tape)
    assert prefix_rows == [batch]
    state = model.encode(tokens, mask)          # the branches cover the rows in order
    assert state.branches == branches
    assert sum(rows for _, rows in branches) == state.hidden.shape[0]
    for out, (other, rows) in zip(got, alone, strict=True):
        rows = rows or slice(None)
        want, want_window = _encode(model, other, tokens[rows], mask[rows], pooled, tape)
        assert out == b"".join(want)
        assert want_window == window


def _rows_out(node, rows: int) -> int:
    """The output rows of ``node`` entered by ``rows`` rows."""
    if isinstance(node, Stack):
        for c in node.children:
            rows = _rows_out(c, rows)
        return rows
    if isinstance(node, Parallel):
        return sum(_rows_out(c, rows) for c in node.children)
    if isinstance(node, BatchSplit):
        return sum(_rows_out(c, n) for c, n in zip(node.children, node.batch_sizes))
    if isinstance(node, Average):
        return _rows_out(node.children[0], rows)
    return rows


def _alone(node, row: int, rows: int) -> tuple:
    """The setup without Parallel or BatchSplit that output row ``row`` of
    ``node``, entered by ``rows`` rows, runs, and the input row it runs on:
    an oracle that reads no plan."""
    if isinstance(node, Stack):
        ins = [rows]
        for c in node.children[:-1]:
            ins.append(_rows_out(c, ins[-1]))
        members = []
        for c, n in zip(reversed(node.children), reversed(ins)):
            member, row = _alone(c, row, n)
            members.insert(0, member)
        return Stack(*members), row
    if isinstance(node, Average):
        alone = [_alone(c, row, rows) for c in node.children]
        assert len({r for _, r in alone}) == 1
        return Average(*[a for a, _ in alone], weights=list(node.weights)), alone[0][1]
    if isinstance(node, (Parallel, BatchSplit)):
        split = isinstance(node, BatchSplit)
        start = 0
        for c, n in zip(node.children, node.batch_sizes if split else [rows] * len(node.children)):
            out = _rows_out(c, n)
            if row < out:
                member, row = _alone(c, row, n)
                return member, (start if split else 0) + row
            row -= out
            start += n
    return node, row


@st.composite
def _stacks(draw):
    """A Stack of two or three members that slice rows or copy them, maybe
    under a Parallel, over 1 to 3 input rows.  Only the last member's blocks
    may modify attention, as the plan requires.  An Average weighs its
    children equally, so that its weighted sum of one attention output,
    where no child in a row's path modifies attention, is that output."""
    batch = draw(st.integers(1, 3))
    count = draw(st.integers(2, 3))
    members, rows = [], batch
    for i in range(count):
        name = st.sampled_from(["s1", "s2", "pb"] + ["lo", "ia", "pf", "un"] * (i == count - 1))
        a, b, c = draw(name), draw(name), draw(name)
        members.append(draw(st.sampled_from([
            draw(st.sampled_from(["s1", "pb", "lo", "ia", "pf", "un"])), Parallel(a),
            Parallel(a, b), Stack(a, Parallel(b, c)),
            Average(Parallel(a, b), Parallel(b, c)),
            BatchSplit(Parallel(a, b), c, batch_sizes=[1, rows - 1]) if rows > 1 else b])))
        rows = _rows_out(members[-1], rows)
    node = Stack(*members)
    return (Parallel(node, draw(name)) if draw(st.booleans()) else node), batch


@lru_cache(maxsize=None)
def _shared_model():
    return composed_model()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(drawn=_stacks(), seed=st.integers(0, 2 ** 16))
def test_every_routed_row_equals_its_path_run_alone_on_its_input_row(drawn, seed):
    node, batch = drawn
    model = _shared_model()
    try:
        model.validate_setup(node, batch=batch)
    except CompositionError:
        assume(False)
    tokens, mask = _tokens(batch, seed), _mask(batch)
    model.set_active(node)
    hidden = model.encode(tokens, mask).hidden.data
    assert hidden.shape[0] == _rows_out(node, batch)
    for row in range(hidden.shape[0]):
        alone, i = _alone(node, row, batch)
        model.set_active(alone)
        assert (model.encode(tokens[i:i + 1], mask[i:i + 1]).hidden.data[0].tobytes()
                == hidden[row].tobytes()), (node, row, alone)


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


def test_every_branch_case_is_the_same_on_haswell():
    # a branch computed on copies gathered from the routed rows runs its
    # products at another row count than alone
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    running = _openblas_core(env)
    if running != "Haswell":
        pytest.skip(f"numpy's BLAS does not run OpenBLAS's Haswell kernel here "
                    f"(it reports {running or 'no OpenBLAS kernel'})")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           __file__, "-k", "not same_on_haswell"],
                          cwd=os.path.dirname(os.path.dirname(__file__)), env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
