"""Composition tests: the nesting rule table, block arithmetic, the textual
setup form, and numpy oracles for every routing semantic.

The routing oracles reuse ``reference_encode`` from the encoder tests: each
block's behaviour is re-derived with plain numpy spliced into the reference
forward pass at the post-FFN hook (the only point a plain bottleneck adapter
touches), so agreement is independent of the Tensor/tape machinery.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab import AdapterModel, parse_config
from peftlab.composition import (Average, BatchSplit, CompositionError, Fuse,
                                 Leaf, Parallel, Split, Stack, leaves,
                                 parse_setup)
from peftlab.composition import MAX_DEPTH, validate_composition
from peftlab.methods import StateError
from peftlab.model import DESK_DIMS, HookPoint

from conftest import SMALL_DIMS, random_tokens
from test_model import reference_encode


# ---------------------------------------------------------------------------
# helpers


def make_model(names=("a", "b"), seed=3, config="seq_bn"):
    """Model with named bottleneck adapters whose tensors are randomized so
    their residual deltas are visible (the stock up-path starts at zero)."""
    m = AdapterModel(SMALL_DIMS, seed=seed)
    r = np.random.default_rng(seed * 1000 + 17)
    for n in names:
        inst = m.add_adapter(n, parse_config(config))
        for t in inst.tensors.values():
            t.data[...] = r.normal(0.0, 0.5, size=t.data.shape)
    return m


def np_delta(model, name):
    """Numpy closure computing one bottleneck adapter's residual delta."""
    inst = model.adapter_instance(name)
    scaling = float(inst.config.scaling)
    w = {k: t.data for k, t in inst.tensors.items()}

    def delta(layer, h):
        pre = f"layer{layer}.post_ffn."
        mid = np.maximum(h @ w[pre + "down.w"] + w[pre + "down.b"], 0.0)
        return scaling * (mid @ w[pre + "up.w"] + w[pre + "up.b"])

    return delta


def run(model, setup, tokens):
    model.set_active(setup)
    out = model.encode(tokens).hidden.data
    model.set_active(None)
    return out


# ---------------------------------------------------------------------------
# nesting rule table


ALL_KINDS = ("leaf", "stack", "parallel", "batchsplit", "average", "fuse", "split")
CONTAINERS = {"stack", "parallel", "batchsplit", "average"}


def _node_of(kind):
    """An arithmetically valid node of each kind (batch=4, seq=12 below)."""
    return {
        "leaf": "a",
        "stack": Stack("a"),
        "parallel": Parallel("a", "b"),
        "batchsplit": BatchSplit("a", "b", batch_sizes=[2, 2]),
        "average": Average("a", "b", weights=[0.5, 0.5]),
        "fuse": Fuse("a", "b"),
        "split": Split("a", "b", splits=[4, 4]),
    }[kind]


def _parent_of(kind, child):
    return {
        "stack": lambda c: Stack(c),
        "parallel": lambda c: Parallel(c),
        "batchsplit": lambda c: BatchSplit(c, batch_sizes=[4]),
        "average": lambda c: Average(c),
        "fuse": lambda c: Fuse(c),
        "split": lambda c: Split(c, splits=[8]),
    }[kind](child)


@pytest.mark.parametrize("child", ALL_KINDS)
@pytest.mark.parametrize("parent", [k for k in ALL_KINDS if k != "leaf"])
def test_nesting_rule_table_is_exhaustive(parent, child):
    """Every parent/child kind pair accepts or rejects exactly per the rule:
    Leaf nests everywhere; Stack/Parallel/BatchSplit/Average admit each other;
    Fuse and Split admit only Leaf children."""
    model = make_model(("a", "b"))
    node = _parent_of(parent, _node_of(child))
    allowed = child == "leaf" or (parent in CONTAINERS and child in CONTAINERS)
    if allowed:
        validate_composition(node, model.adapter_instance, batch=4, seq=12)
    else:
        with pytest.raises(CompositionError, match="may not contain"):
            validate_composition(node, model.adapter_instance, batch=4, seq=12)


def test_fuse_of_stack_is_a_nesting_error():
    model = make_model(("a", "b"))
    with pytest.raises(CompositionError):
        model.validate_setup(Fuse(Stack("a", "b")))


def test_nesting_depth_is_capped():
    model = make_model(("a",))
    node = "a"
    for _ in range(MAX_DEPTH):
        node = Stack(node)
    model.validate_setup(node)
    with pytest.raises(CompositionError, match=f"more than {MAX_DEPTH} deep"):
        model.validate_setup(Stack(node))


def test_deep_container_nesting_is_legal():
    model = make_model(("a", "b"))
    setup = Stack(Average(Parallel("a", "b"), Parallel("b", "a")), "a")
    model.validate_setup(setup, batch=3, seq=10)


# ---------------------------------------------------------------------------
# block arithmetic


def test_split_ranges_covering_the_sequence_validate():
    m = make_model(("i", "j"))
    m.validate_setup(Split("i", "j", splits=[64, 64]), batch=2, seq=128)


def test_split_ranges_exceeding_the_sequence_are_rejected():
    m = make_model(("i", "j"))
    with pytest.raises(CompositionError, match="sum to 129"):
        m.validate_setup(Split("i", "j", splits=[64, 65]), batch=2, seq=128)


def test_split_range_count_must_match_children():
    m = make_model(("i", "j"))
    with pytest.raises(CompositionError, match="2 children but 1 ranges"):
        m.validate_setup(Split("i", "j", splits=[128]), batch=2, seq=128)


def test_split_ranges_must_be_positive():
    m = make_model(("i", "j"))
    with pytest.raises(CompositionError, match="positive"):
        m.validate_setup(Split("i", "j", splits=[128, 0]), batch=2, seq=128)


def test_batch_sizes_summing_to_the_batch_validate():
    m = make_model(("k", "l"))
    m.validate_setup(BatchSplit("k", "l", batch_sizes=[2, 4]), batch=6, seq=16)


def test_batch_sizes_not_summing_to_the_batch_are_rejected():
    m = make_model(("k", "l"))
    with pytest.raises(CompositionError, match="sum to 6"):
        m.validate_setup(BatchSplit("k", "l", batch_sizes=[2, 4]), batch=5, seq=16)
    with pytest.raises(CompositionError, match="positive"):
        m.validate_setup(BatchSplit("k", "l", batch_sizes=[6, 0]), batch=6, seq=16)
    with pytest.raises(CompositionError, match="children"):
        m.validate_setup(BatchSplit("k", "l", batch_sizes=[6]), batch=6, seq=16)


def test_average_weights_validate_and_mismatches_are_rejected():
    m = make_model(("m", "n"))
    m.validate_setup(Average("m", "n", weights=[0.3, 0.7]), batch=2, seq=16)
    with pytest.raises(CompositionError, match="children but 1 weights"):
        m.validate_setup(Average("m", "n", weights=[0.3]), batch=2, seq=16)
    with pytest.raises(CompositionError, match=">= 0"):
        m.validate_setup(Average("m", "n", weights=[-0.3, 1.3]), batch=2, seq=16)
    with pytest.raises(CompositionError, match="sum to zero"):
        m.validate_setup(Average("m", "n", weights=[0.0, 0.0]), batch=2, seq=16)


@pytest.mark.parametrize("weights", [[float("nan"), 1.0], [float("inf"), 1.0],
                                     [1.0, float("-inf")], [1e308, 1e308]])
def test_average_weights_must_be_finite_with_a_finite_sum(weights):
    m = make_model(("m", "n"))
    with pytest.raises(CompositionError, match="finite"):
        m.validate_setup(Average("m", "n", weights=weights), batch=2, seq=16)


@pytest.mark.parametrize("text", ["Average(m, n, weights=[nan, 1])",
                                  "Average(m, n, weights=[inf, 1])"])
def test_non_finite_average_weights_are_rejected_before_any_forward(text):
    m = make_model(("m", "n"))
    with pytest.raises(CompositionError, match="finite"):
        m.set_active(text)
    assert m.active is None


@pytest.mark.parametrize("sizes", [[1.5, 2], [float("inf"), 1], [float("nan"), 1],
                                   ["2", 2], [None, 2]])
@pytest.mark.parametrize("block", ["split", "batchsplit"])
def test_split_and_batchsplit_sizes_must_be_whole_numbers(block, sizes):
    with pytest.raises(CompositionError, match="whole numbers"):
        if block == "split":
            Split("a", "b", splits=sizes)
        else:
            BatchSplit("a", "b", batch_sizes=sizes)


@pytest.mark.parametrize("text", ["Split(a, b, splits=[1.5, 2])",
                                  "Split(a, b, splits=[inf, 1])",
                                  "BatchSplit(a, b, batch_sizes=[nan, 2])"])
def test_parsed_sizes_must_be_whole_numbers(text):
    with pytest.raises(CompositionError, match="whole numbers"):
        parse_setup(text)


def test_whole_float_sizes_are_kept_as_ints():
    assert Split("a", "b", splits=[2.0, 3]).splits == (2, 3)
    assert parse_setup("BatchSplit(a, b, batch_sizes=[2, 4.0])").batch_sizes == (2, 4)


def test_average_children_must_agree_on_output_rows():
    m = make_model(("a", "b", "c"))
    with pytest.raises(CompositionError, match="disagree"):
        m.validate_setup(Average(Parallel("a", "b"), "c"), batch=2, seq=8)


def test_stack_tracks_row_growth_for_later_members():
    m = make_model(("a", "b"))
    # Parallel doubles the rows, so a following BatchSplit must budget for 6.
    good = Stack(Parallel("a", "b"), BatchSplit("a", "b", batch_sizes=[3, 3]))
    m.validate_setup(good, batch=3, seq=8)
    bad = Stack(Parallel("a", "b"), BatchSplit("a", "b", batch_sizes=[2, 2]))
    with pytest.raises(CompositionError, match="sum to 4"):
        m.validate_setup(bad, batch=3, seq=8)


# setup -> its branches at batch 2, and the setups whose outputs its rows
# are, in order
COPIED_TWICE = {
    "Stack(Parallel(a, b), Parallel(c, d))": (
        [("c", 4), ("d", 4)], ["Stack(a, c)", "Stack(b, c)", "Stack(a, d)", "Stack(b, d)"]),
    "Stack(Parallel(a, b), Average(Parallel(c, d), Parallel(e, f)))": (
        [(None, 8)], ["Stack(a, Average(c, e))", "Stack(b, Average(c, e))",
                      "Stack(a, Average(d, f))", "Stack(b, Average(d, f))"]),
    "Stack(Parallel(a, b), Stack(c, Parallel(d, e)))": (
        [("d", 4), ("e", 4)], ["Stack(a, c, d)", "Stack(b, c, d)", "Stack(a, c, e)",
                               "Stack(b, c, e)"]),
}


@pytest.mark.parametrize("text", sorted(COPIED_TWICE))
def test_a_stack_routes_each_copy_through_every_member_that_copies_rows(rng, text):
    # a later member's copies interleave an earlier member's branches, so
    # the earlier one takes its rows by index, not as contiguous blocks
    m = make_model(tuple("abcdef"))
    tokens = random_tokens(rng, 2, 8, SMALL_DIMS.vocab)
    branches, parts = COPIED_TWICE[text]
    m.set_active(parse_setup(text))
    state = m.encode(tokens)
    assert state.branches == branches
    want = np.concatenate([run(m, parse_setup(p), tokens) for p in parts])
    assert state.hidden.data.tobytes() == want.tobytes()


def test_nested_stack_branches_fold_like_a_flat_stack(rng):
    m = make_model(("a", "b", "c"))
    for n in "abc":
        m.add_prediction_head(n, "classification", 2)
    tokens = random_tokens(rng, 2, 8, SMALL_DIMS.vocab)
    for nested, flat, branches in (
            ("Stack(a, Stack(b, c))", "Stack(a, b, c)", [("c", 2)]),
            ("Stack(Parallel(a, b), Stack(c))", "Stack(Parallel(a, b), c)", [("c", 2), ("c", 2)]),
            ("Stack(a, Stack(Average(b, c)))", "Stack(a, Average(b, c))", [("a", 2)])):
        states = []
        for text in (nested, flat):
            m.set_active(parse_setup(text))
            states.append(m.encode(tokens))
        assert states[0].branches == states[1].branches == branches
        assert m.branch_logits(states[0]).keys() == m.branch_logits(states[1]).keys()


def test_validation_without_a_batch_rejects_only_impossible_row_counts():
    m = make_model(("a", "b", "c"))
    with pytest.raises(CompositionError, match="disagree"):
        m.validate_setup(Average(Parallel("a", "b"), "c"))
    # with two rows in, both children give four rows out
    both = Average(Parallel("a", "b"),
                   BatchSplit(Parallel("a", "b"), Parallel("b", "c"), batch_sizes=[1, 1]))
    m.validate_setup(both)
    # ... but the second child's rows copy the input rows in another order
    with pytest.raises(CompositionError, match="copy rows alike"):
        m.validate_setup(both, batch=2)
    with pytest.raises(CompositionError, match="sum to 2"):
        m.validate_setup(both, batch=3)
    m.validate_setup(Average(BatchSplit("a", "b", batch_sizes=[2, 2]), "c"))
    # Parallel doubles the rows, which never sum to 7
    with pytest.raises(CompositionError, match="sum to 7"):
        m.validate_setup(Stack(Parallel("a", "b"), BatchSplit("a", "b", batch_sizes=[3, 4])))


def test_plan_holds_layout_weights_fusions_prompts_and_branches():
    m = make_model(("a", "b"))
    m.add_adapter("p", parse_config("prompt_tuning"))
    fl = m.add_adapter_fusion(["a", "b"])
    plan = m.validate_setup(
        "Stack(p, Parallel(a, BatchSplit(a, Parallel(a, b), batch_sizes=[1, 2])), "
        "Average(a, b, weights=[1, 3]))", batch=3, seq=8)
    assert plan.leaf_names == ["p", "a", "a", "a", "b", "a", "b"]
    assert plan.prompts == list(m.adapter_instance("p").bindings[HookPoint.INPUT_PREPEND])
    assert plan.branches == [("a", 3), ("a", 1), ("a", 2), ("b", 2)]
    par, avg = plan.root.children[1], plan.root.children[2]
    assert par.takes == (slice(0, 3), slice(3, 8)) and par.join is None
    split = par.children[1]
    assert (split.sizes, split.takes) == ((1, 2), (slice(0, 1), slice(1, 5)))
    assert plan.row_index.tolist() == [0, 1, 2, 0, 1, 2, 1, 2]
    assert avg.weights == (0.25, 0.75)
    # copies of a later member interleave an earlier member's blocks
    first = m.validate_setup("Stack(Parallel(a, b), Parallel(a, b))", batch=1).root.children[0]
    assert [t.tolist() for t in first.takes] == [[0, 2], [1, 3]]
    assert first.join.tolist() == [0, 2, 1, 3]
    fused = m.validate_setup(Fuse("a", "b"))
    assert fused.fused == [(("a", "b"), fl)]
    assert fused.root.fusion is fl


def test_blocks_require_at_least_one_child():
    with pytest.raises(CompositionError, match="at least one child"):
        Stack()


def test_leaves_and_rows_out_bookkeeping():
    node = Stack("a", Parallel("b", Stack("c", "d")), Average("e", "f"))
    assert leaves(node) == ["a", "b", "c", "d", "e", "f"]
    plan = make_model(tuple("abcdef")).validate_setup(node, batch=2)
    assert sum(rows for _, rows in plan.branches) == 4


# ---------------------------------------------------------------------------
# textual setup form


def test_parse_setup_round_trips_nested_blocks():
    assert parse_setup("Stack(a, Parallel(b, c))") == Stack("a", Parallel("b", "c"))
    assert parse_setup("  a ") == Leaf("a")
    assert parse_setup("Fuse( d , e , f )") == Fuse("d", "e", "f")


def test_parse_setup_reads_numeric_keyword_lists():
    assert parse_setup("Split(i, j, splits=[64, 64])") == Split("i", "j", splits=[64, 64])
    assert (parse_setup("BatchSplit(k, l, batch_sizes=[2, 4])")
            == BatchSplit("k", "l", batch_sizes=[2, 4]))
    got = parse_setup("Average(m, n, weights=[0.3, 0.7])")
    assert isinstance(got, Average)
    assert leaves(got) == ["m", "n"]
    assert np.allclose(got.weights, [0.3, 0.7])


@pytest.mark.parametrize("text", [
    "Stack(a",
    "Stack(a))",
    "Split(a, splits=[2)",
    "Average(a, weights=0.3)",
    "",
    "Stack(,)",
])
def test_parse_setup_rejects_malformed_text(text):
    with pytest.raises(CompositionError):
        parse_setup(text)


def test_parse_setup_turns_deep_nesting_into_a_composition_error():
    with pytest.raises(CompositionError, match="nest too deeply"):
        parse_setup("Stack(" * 5000 + "a" + ")" * 5000)


@pytest.mark.parametrize("text", ["Average(a, b, weights=[1, 1], weights=[2, 1])",
                                  "Split(a, splits=[2], splits=[3])"])
def test_parse_setup_rejects_a_repeated_keyword_list(text):
    with pytest.raises(CompositionError, match="repeats"):
        parse_setup(text)


@pytest.mark.parametrize("text", ["Stack(a, weights=[1])",
                                  "Split(a, splits=[2], batch_sizes=[2])",
                                  "Average(a, splits=[2])"])
def test_parse_setup_rejects_a_keyword_list_the_block_does_not_take(text):
    with pytest.raises(CompositionError, match="takes no"):
        parse_setup(text)


_SETUP_PIECES = ["Stack(", "Parallel(", "BatchSplit(", "Average(", "Split(", "Fuse(",
                 "a", "b", "x.y-z", ",", ")", "(", "splits=", "batch_sizes=",
                 "weights=", "=", "[", "]", "1", "2.5", "0", "inf", "nan", "-1", " "]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(_SETUP_PIECES), max_size=30).map("".join)))
def test_parse_setup_yields_a_node_or_a_composition_error(text):
    try:
        node = parse_setup(text)
    except CompositionError:
        return
    assert isinstance(node, (Leaf, Stack, Parallel, BatchSplit, Average, Split, Fuse))


def test_parsed_setup_drives_the_model_like_the_object_form(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 2, 8, SMALL_DIMS.vocab)
    via_text = run(m, parse_setup("Stack(a, b)"), tokens)
    via_objects = run(m, Stack("a", "b"), tokens)
    assert np.array_equal(via_text, via_objects)


# ---------------------------------------------------------------------------
# routing semantics against numpy oracles


def test_stack_of_one_child_equals_plain_activation(rng):
    m = make_model(("a",))
    tokens = random_tokens(rng, 3, 10, SMALL_DIMS.vocab)
    assert np.array_equal(run(m, Stack("a"), tokens), run(m, "a", tokens))


def test_stack_applies_children_sequentially(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 3, 10, SMALL_DIMS.vocab)
    da, db = np_delta(m, "a"), np_delta(m, "b")

    def hook(layer, h, f_in):
        h = h + da(layer, h)
        return h + db(layer, h)

    want = reference_encode(m.encoder, tokens, ffn_block_hook=hook)
    got = run(m, Stack("a", "b"), tokens)
    assert np.allclose(got, want, atol=1e-10)
    # the order is load-bearing
    assert not np.allclose(got, run(m, Stack("b", "a"), tokens), atol=1e-6)


def _attention_members_model(seed=7):
    """Desk-dims model with a prefix, a LoRA and an (IA)^3 adapter, each off
    its identity."""
    m = AdapterModel(DESK_DIMS, seed=seed)
    r = np.random.default_rng(seed)
    for name, preset in (("p", "prefix_tuning"), ("l", "lora"), ("i", "ia3"), ("m", "mam"),
                         ("u", "unipelt")):
        for t in m.add_adapter(name, parse_config(preset)).tensors.values():
            t.data[...] += r.normal(0.0, 0.1, size=t.data.shape)
    return m


@pytest.mark.parametrize("first, second", [("p", "l"), ("p", "i"), ("m", "l"), ("m", "i"),
                                           ("p", "u")])
def test_stack_applies_projections_before_prefixes_in_any_member_order(rng, first, second):
    # LoRA and (IA)^3 act on the projections of the token rows and a prefix
    # joins its rows after them, so the member order of a Stack of the two
    # kinds does not matter.  Projecting after the prefix joined once
    # raised numpy's broadcast error for a LoRA after a prefix.
    m = _attention_members_model()
    tokens = random_tokens(rng, 4, 6, DESK_DIMS.vocab)
    got = run(m, f"Stack({first}, {second})", tokens)
    assert got.tobytes() == run(m, f"Stack({second}, {first})", tokens).tobytes()
    assert not np.allclose(got, run(m, second, tokens), atol=1e-6)


def test_parallel_matches_independent_forwards(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 3, 9, SMALL_DIMS.vocab)
    m.set_active(Parallel("a", "b"))
    state = m.encode(tokens)
    m.set_active(None)
    out = state.hidden.data
    assert out.shape[0] == 6
    assert state.branches == [("a", 3), ("b", 3)]
    assert np.allclose(out[:3], run(m, "a", tokens), atol=1e-10)
    assert np.allclose(out[3:], run(m, "b", tokens), atol=1e-10)


def test_batchsplit_matches_per_subbatch_forwards(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 6, 8, SMALL_DIMS.vocab)
    out = run(m, BatchSplit("a", "b", batch_sizes=[2, 4]), tokens)
    assert out.shape[0] == 6
    assert np.allclose(out[:2], run(m, "a", tokens[:2]), atol=1e-10)
    assert np.allclose(out[2:], run(m, "b", tokens[2:]), atol=1e-10)


def test_batchsplit_size_mismatch_is_rejected_at_encode_time(rng):
    m = make_model(("a", "b"))
    m.set_active(BatchSplit("a", "b", batch_sizes=[2, 4]))
    with pytest.raises(CompositionError, match="sum to 6"):
        m.encode(random_tokens(rng, 5, 8, SMALL_DIMS.vocab))


def test_split_routes_token_ranges(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 2, 12, SMALL_DIMS.vocab)
    da, db = np_delta(m, "a"), np_delta(m, "b")

    def hook(layer, h, f_in):
        out = h.copy()
        out[:, :5] += da(layer, h[:, :5])
        out[:, 5:9] += db(layer, h[:, 5:9])
        return out                     # positions 9..11 pass through untouched

    want = reference_encode(m.encoder, tokens, ffn_block_hook=hook)
    got = run(m, Split("a", "b", splits=[5, 4]), tokens)
    assert got.shape == want.shape     # token count preserved
    assert np.allclose(got, want, atol=1e-10)


def test_split_shortfall_warns_and_leaves_the_tail_unadapted(rng, caplog):
    m = make_model(("a",))
    tokens = random_tokens(rng, 2, 10, SMALL_DIMS.vocab)
    da = np_delta(m, "a")

    def hook(layer, h, f_in):
        out = h.copy()
        out[:, :6] += da(layer, h[:, :6])
        return out

    with caplog.at_level(logging.WARNING, logger="peftlab.composition"):
        got = run(m, Split("a", splits=[6]), tokens)
    assert any("covers 6 of 10" in rec.getMessage() for rec in caplog.records)
    want = reference_encode(m.encoder, tokens, ffn_block_hook=hook)
    assert np.allclose(got, want, atol=1e-10)


def test_average_equals_weighted_sum_oracle(rng):
    m = make_model(("a", "b", "c"))
    tokens = random_tokens(rng, 2, 7, SMALL_DIMS.vocab)
    ws = (0.2, 0.3, 0.5)
    deltas = [np_delta(m, n) for n in ("a", "b", "c")]

    def hook(layer, h, f_in):
        outs = [h + d(layer, h) for d in deltas]
        return sum(w * o for w, o in zip(ws, outs))

    want = reference_encode(m.encoder, tokens, ffn_block_hook=hook)
    got = run(m, Average("a", "b", "c", weights=list(ws)), tokens)
    assert np.allclose(got, want, atol=1e-12)


def test_average_normalizes_weights(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 2, 6, SMALL_DIMS.vocab)
    scaled = run(m, Average("a", "b", weights=[2.0, 6.0]), tokens)
    unit = run(m, Average("a", "b", weights=[0.25, 0.75]), tokens)
    assert np.allclose(scaled, unit, atol=1e-14)


def test_average_weight_one_zero_equals_first_child_exactly(rng):
    m = make_model(("a", "b"))
    tokens = random_tokens(rng, 2, 6, SMALL_DIMS.vocab)
    got = run(m, Average("a", "b", weights=[1.0, 0.0]), tokens)
    assert np.array_equal(got, run(m, "a", tokens))


def test_fuse_matches_softmax_mixture_oracle(rng):
    m = make_model(("a", "b"))
    fl = m.add_adapter_fusion(["a", "b"])
    r = np.random.default_rng(99)
    for t in fl.tensors().values():
        t.data[...] = r.normal(0.0, 0.3, size=t.data.shape)
    tokens = random_tokens(rng, 2, 6, SMALL_DIMS.vocab)
    wq, wk, wv = fl.wq.data, fl.wk.data, fl.wv.data
    da, db = np_delta(m, "a"), np_delta(m, "b")
    d = SMALL_DIMS.hidden

    def hook(layer, h, f_in):
        outs = [h + da(layer, h), h + db(layer, h)]
        qh = h @ wq
        scores = np.stack([(qh * (o @ wk)).sum(-1) for o in outs], axis=-1) / np.sqrt(d)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        att = e / e.sum(-1, keepdims=True)
        mix = sum(att[..., i:i + 1] * (o @ wv) for i, o in enumerate(outs))
        return h + mix

    want = reference_encode(m.encoder, tokens, ffn_block_hook=hook)
    got = run(m, Fuse("a", "b"), tokens)
    assert np.allclose(got, want, atol=1e-10)


def test_fuse_of_identical_children_attends_uniformly(rng):
    """Parameter-identical children produce identical candidate outputs, so
    the attention is uniform and the mixture collapses to a single child's
    value projection."""
    m = make_model(("a", "b"))
    ia, ib = m.adapter_instance("a"), m.adapter_instance("b")
    for k in ia.tensors:
        ib.tensors[k].data[...] = ia.tensors[k].data
    fl = m.add_adapter_fusion(["a", "b"])
    tokens = random_tokens(rng, 2, 5, SMALL_DIMS.vocab)
    wv = fl.wv.data
    da = np_delta(m, "a")

    def hook(layer, h, f_in):
        out = h + da(layer, h)
        return h + out @ wv            # uniform over two equal candidates

    want = reference_encode(m.encoder, tokens, ffn_block_hook=hook)
    got = run(m, Fuse("a", "b"), tokens)
    assert np.allclose(got, want, atol=1e-10)


def test_fusion_layers_need_two_members_and_existing_adapters():
    from peftlab.registry import RegistryError
    m = make_model(("a", "b"))
    with pytest.raises(RegistryError, match="two adapters"):
        m.add_adapter_fusion(["a"])
    with pytest.raises(KeyError, match="ghost"):
        m.add_adapter_fusion(["a", "ghost"])
    m.add_adapter_fusion(["a", "b"])
    with pytest.raises(RegistryError, match="already exists"):
        m.add_adapter_fusion(["a", "b"])


# ---------------------------------------------------------------------------
# method/block compatibility


def test_fuse_without_a_fusion_layer_is_a_state_error():
    m = make_model(("a", "b"))
    with pytest.raises(StateError, match="fusion layer"):
        m.set_active(Fuse("a", "b"))


def test_prompt_adapters_compose_only_under_pure_stacks():
    m = make_model(("b",))
    m.add_adapter("p", parse_config("prompt_tuning"))
    m.validate_setup(Stack("p", "b"))
    m.validate_setup(Stack(Stack("p"), "b"))
    for bad in (Parallel("p", "b"),
                Average("p", "b"),
                BatchSplit("p", "b", batch_sizes=[1, 1]),
                Stack(Parallel("p", "b"), "b")):
        with pytest.raises(CompositionError, match="Stack"):
            m.validate_setup(bad, batch=2, seq=8)


def test_split_rejects_attention_modifying_children():
    m = make_model(("b",))
    m.add_adapter("lo", parse_config("lora"))
    m.add_adapter("pre", parse_config("prefix_tuning"))
    with pytest.raises(CompositionError, match="attention"):
        m.validate_setup(Split("lo", "b", splits=[2, 2]), seq=8)
    with pytest.raises(CompositionError, match="attention"):
        m.validate_setup(Split("pre", "b", splits=[2, 2]), seq=8)


@pytest.mark.parametrize("other", ["lora", "par_bn", "seq_bn_inv"])
def test_fuse_members_must_be_plain_sequential_bottlenecks(other):
    m = make_model(("ok",))
    m.add_adapter("x", parse_config(other))
    with pytest.raises(CompositionError, match="Fuse children"):
        m.validate_setup(Fuse("ok", "x"))


def test_merged_adapters_cannot_join_a_setup():
    m = AdapterModel(SMALL_DIMS, seed=0)
    m.add_adapter("lo", parse_config("lora"))
    m.add_adapter("bn", parse_config("seq_bn"))
    m.merge_adapter("lo")
    with pytest.raises(StateError, match="merged"):
        m.validate_setup(Stack("lo", "bn"))
    m.unmerge_adapter("lo")
    m.validate_setup(Stack("lo", "bn"))


def test_attention_members_must_precede_branching_attention_blocks():
    m = AdapterModel(SMALL_DIMS, seed=1)
    for n in ("l1", "l2", "l3"):
        m.add_adapter(n, parse_config("lora"))
    for n in ("b1", "b2"):
        m.add_adapter(n, parse_config("seq_bn"))
    with pytest.raises(CompositionError, match="before"):
        m.validate_setup(Stack(Parallel("l1", "l2"), "l3"))
    m.validate_setup(Stack("l3", Parallel("l1", "l2")))
    m.validate_setup(Stack(Parallel("b1", "b2"), "l3"))


@pytest.mark.parametrize("text", ["Stack(u, Parallel(l, i))", "Stack(Stack(u), Parallel(l, i))"])
def test_a_gated_prefix_joins_each_row_block_of_a_later_attention_block(rng, text):
    # the block takes the gated prefix with its gate and runs the two-pass
    # delta per row block
    m = _attention_members_model()
    tokens = random_tokens(rng, 3, 6, DESK_DIMS.vocab)
    got = run(m, parse_setup(text), tokens)
    want = np.concatenate([run(m, f"Stack(u, {n})", tokens) for n in ("l", "i")])
    assert got.tobytes() == want.tobytes()
    assert not np.allclose(got[:3], run(m, "l", tokens), atol=1e-6)


def test_average_children_must_copy_rows_alike(rng):
    # at batch 2 both children give four rows, but the first child's rows
    # copy input rows 0, 1, 0, 1 and the second's 0, 0, 1, 1
    m = make_model(tuple("abcd"))
    text = ("Average(Parallel(a, b), BatchSplit(Parallel(c, d), Parallel(c, d), "
            "batch_sizes=[1, 1]), weights=[0, 1])")
    with pytest.raises(CompositionError, match="copy rows alike"):
        m.validate_setup(text, batch=2)
    m.set_active(parse_setup(text))
    with pytest.raises(CompositionError, match="copy rows alike"):
        m.encode(random_tokens(rng, 2, 8, SMALL_DIMS.vocab))


def test_attention_members_after_any_attention_block_are_rejected(rng):
    """The attention hook hands a Stack's rows to its first block that
    modifies attention, so a later attention member would be dropped there
    while still running at every other hook."""
    m = AdapterModel(SMALL_DIMS, seed=1)
    for n in ("l1", "l2", "l3"):
        m.add_adapter(n, parse_config("lora"))
    for bad in (Stack(Average("l1", "l2"), "l3"),
                Stack(Stack(BatchSplit("l1", "l2", batch_sizes=[1, 1])), "l3"),
                Stack(Average("l1", "l2"), Stack("l3"))):
        with pytest.raises(CompositionError, match="before"):
            m.validate_setup(bad, batch=2, seq=8)
    m.validate_setup(Stack("l3", Average("l1", "l2")), batch=2, seq=8)


def test_unknown_adapter_ids_are_rejected():
    m = make_model(("a",))
    with pytest.raises(CompositionError, match="unknown adapter"):
        m.validate_setup(Stack("a", "ghost"))
    with pytest.raises(CompositionError, match="not a composition node"):
        m.validate_setup(Stack("a", 3.5))
