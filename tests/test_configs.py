"""Configuration parsing, validation, and the symbolic parameter counter.

Count oracles are hand-derived literals (documented inline) rather than
re-evaluations of the production formula, so a formula regression cannot
hide behind itself.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peftlab.configs import (AUDIT_GRID, BottleneckConfig, CompacterConfig,
                             ConfigError, ConfigUnion, IA3Config, LoraConfig,
                             PrefixTuningConfig, PromptTuningConfig,
                             audit_counts, config_from_dict, config_label,
                             config_to_dict, count_params, expand_axes, parse_config,
                             run_count_audit, tensor_shapes, validate_config)
from peftlab import methods
from peftlab.cli import main
from peftlab.methods import instantiate_adapter
from peftlab.model import DESK_DIMS, ROBERTA_BASE_DIMS, HookPoint, ModelDims
from peftlab.registry import AdapterModel

from conftest import SMALL_DIMS

ALL_STRINGS = ("seq_bn", "double_seq_bn", "par_bn", "seq_bn_inv",
               "prompt_tuning", "prefix_tuning", "compacter", "lora", "ia3",
               "mam", "unipelt")


# ---------------------------------------------------------------------------
# parsing


def test_parse_config_types():
    assert isinstance(parse_config("seq_bn"), BottleneckConfig)
    assert parse_config("double_seq_bn").placement == "double"
    par = parse_config("par_bn")
    assert (par.placement, par.reduction_factor, par.scaling) == ("parallel", 2, 4.0)
    assert parse_config("seq_bn_inv").with_invertible is True
    assert parse_config("prompt_tuning").prompt_length == 10
    pre = parse_config("prefix_tuning")
    assert (pre.prefix_length, pre.bottleneck_size, pre.flat) == (30, 512, False)
    comp = parse_config("compacter")
    assert (comp.reduction_factor, comp.phm_dim) == (16, 4)
    lora = parse_config("lora")
    assert (lora.r, lora.alpha, lora.targets) == (8, 8.0, ("query", "value"))
    assert parse_config("ia3").targets == ("keys", "values", "ffn_intermediate")


def test_parse_config_unions():
    mam = parse_config("mam")
    assert isinstance(mam, ConfigUnion) and not mam.gated
    assert isinstance(mam.members[0], PrefixTuningConfig)
    assert mam.members[0].bottleneck_size == 800
    assert isinstance(mam.members[1], BottleneckConfig)
    assert mam.members[1].placement == "parallel"
    assert mam.members[1].scaling == 4.0

    uni = parse_config("unipelt")
    assert uni.gated
    kinds = tuple(type(m) for m in uni.members)
    assert kinds == (LoraConfig, PrefixTuningConfig, BottleneckConfig)
    assert uni.members[1].prefix_length == 10


def test_parse_config_unknown_lists_names():
    with pytest.raises(ConfigError) as e:
        parse_config("bottleneck")
    for name in ALL_STRINGS:
        assert name in str(e.value)


@pytest.mark.parametrize("name", ALL_STRINGS)
def test_config_label_roundtrip(name):
    assert config_label(parse_config(name)) == name


def test_config_label_falls_back_to_type():
    assert config_label(LoraConfig(r=3)) == "LoraConfig"


# ---------------------------------------------------------------------------
# validation


def test_validate_rejects_bad_divisibility():
    with pytest.raises(ConfigError):
        validate_config(BottleneckConfig(reduction_factor=5), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(CompacterConfig(phm_dim=3), DESK_DIMS)
    # phm_dim must divide the bottleneck width too (64/16 = 4, so 8 fails)
    with pytest.raises(ConfigError):
        validate_config(CompacterConfig(reduction_factor=16, phm_dim=8), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(
            BottleneckConfig(with_invertible=True, inv_reduction_factor=7), DESK_DIMS)


def test_validate_rejects_bad_fields():
    with pytest.raises(ConfigError):
        validate_config(BottleneckConfig(placement="stacked"), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(BottleneckConfig(nonlinearity="swish"), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(PromptTuningConfig(prompt_length=0), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(PromptTuningConfig(prompt_length=DESK_DIMS.max_seq), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(LoraConfig(targets=("query", "keys")), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(IA3Config(targets=()), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(BottleneckConfig(scaling=float("nan")), DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(LoraConfig(alpha=float("inf")), DESK_DIMS)


def test_validate_union_rules():
    with pytest.raises(ConfigError):
        validate_config(ConfigUnion(members=()), DESK_DIMS)
    nested = ConfigUnion(members=(ConfigUnion(members=(LoraConfig(),)),))
    with pytest.raises(ConfigError):
        validate_config(nested, DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(ConfigUnion(members=(PromptTuningConfig(),), gated=True),
                        DESK_DIMS)
    with pytest.raises(ConfigError):
        validate_config(
            ConfigUnion(members=(BottleneckConfig(with_invertible=True),),
                        gated=True), DESK_DIMS)
    # the ungated equivalents are fine
    validate_config(ConfigUnion(members=(PromptTuningConfig(), LoraConfig())),
                    DESK_DIMS)


@pytest.mark.parametrize("name", ALL_STRINGS)
def test_all_presets_validate_on_desk(name):
    validate_config(parse_config(name), DESK_DIMS)


def test_every_preset_and_audit_grid_point_fits_roberta_base():
    for name in ALL_STRINGS:
        validate_config(parse_config(name), ROBERTA_BASE_DIMS)
    for name, grid in AUDIT_GRID.items():
        points = expand_axes(parse_config(name), grid["axes"])
        for _, cfg in points:
            validate_config(cfg, ROBERTA_BASE_DIMS)
        assert len(audit_counts(name, ROBERTA_BASE_DIMS)) == len(points)


# sizes past the dims, up to ones no host could allocate: each is refused by
# validation and by the dry-run counters, and none is ever built here
OVERSIZED = [
    LoraConfig(r=DESK_DIMS.hidden + 1),
    LoraConfig(r=10**9),
    PrefixTuningConfig(prefix_length=DESK_DIMS.max_seq + 1),
    PrefixTuningConfig(prefix_length=10**9, flat=True),
    PrefixTuningConfig(bottleneck_size=64 * DESK_DIMS.hidden + 1),
    PrefixTuningConfig(bottleneck_size=10**15),
    ConfigUnion(members=(LoraConfig(r=10**9), PrefixTuningConfig())),
    ConfigUnion(members=(PrefixTuningConfig(bottleneck_size=10**15), BottleneckConfig())),
]


@pytest.mark.parametrize("cfg", OVERSIZED, ids=repr)
def test_sizes_past_the_dims_are_config_errors(cfg):
    for check in (validate_config, tensor_shapes, count_params):
        with pytest.raises(ConfigError, match="not in 1.."):
            check(cfg, DESK_DIMS)


def test_the_largest_sizes_within_the_bounds_validate():
    for cfg in (LoraConfig(r=DESK_DIMS.hidden),
                PrefixTuningConfig(prefix_length=DESK_DIMS.max_seq),
                PrefixTuningConfig(bottleneck_size=64 * DESK_DIMS.hidden),
                PrefixTuningConfig(bottleneck_size=10**15, flat=True)):    # a flat prefix has none
        validate_config(cfg, DESK_DIMS)


def test_audit_counts_leave_out_the_points_that_do_not_fit():
    assert [a for a, _ in audit_counts("lora", DESK_DIMS)] == [{"r": r} for r in (4, 8, 16, 64)]
    assert all(a["prefix_length"] != 200 for a, _ in audit_counts("prefix_tuning", DESK_DIMS))


# ---------------------------------------------------------------------------
# parameter counts: hand-derived desk literals
#
# desk dims: L=2, d=64, dff=128.
#   seq_bn   rf=16 -> width 4:  per module 2*64*4 + 4 + 64 = 580; 2 layers = 1160
#   par_bn   rf=2  -> width 32: per module 2*64*32 + 32 + 64 = 4192; x2 = 8384
#   compacter rf=16, n=4: rank-1 factors (64+4)+4 down, (4+64)+64 up = 204 per
#             module; 2 modules x 2 layers = 816; + shared 4^3 = 880
#   prefix   p=30, b=512: 30*64 + (64*512+512) + (512*256+256) = 166528
#   lora     2 targets x 2 layers x 2*64*8 = 4096
#   ia3      2 layers x (64 + 64 + 128) = 512
#   seq_bn_inv = 1160 + 2*(32*16+16+16*32+32) = 1160 + 2144 = 3304
#   mam      prefix(b=800): 1920+52000+205056 = 258976; + par_bn 8384 = 267360
#   unipelt  4096 + (640+33280+131328) + 1160 + gates(256+128+128) = 171016

DESK_COUNTS = {
    "seq_bn": 1160,
    "double_seq_bn": 2320,
    "par_bn": 8384,
    "seq_bn_inv": 3304,
    "prompt_tuning": 640,
    "prefix_tuning": 166528,
    "compacter": 880,
    "lora": 4096,
    "ia3": 512,
    "mam": 267360,
    "unipelt": 171016,
}


def closed_form_count(config, dims):
    """The per-method parameter formulas, written out independently of the
    builds that allocate the tensors."""
    L, d, dff = dims.num_layers, dims.hidden, dims.intermediate
    if isinstance(config, BottleneckConfig):
        b = d // config.reduction_factor
        modules = 2 if config.placement == "double" else 1
        total = L * modules * (2 * d * b + b + d)       # down w+b, up w+b
        if config.with_invertible:
            half = d // 2
            bi = half // config.inv_reduction_factor
            total += 2 * (half * bi + bi + bi * half + half)   # one coupling pair
        return total
    if isinstance(config, PromptTuningConfig):
        return config.prompt_length * d
    if isinstance(config, PrefixTuningConfig):
        p = config.prefix_length
        if config.flat:
            return 2 * L * p * d
        b = config.bottleneck_size
        return p * d + (d * b + b) + (b * 2 * L * d + 2 * L * d)
    if isinstance(config, CompacterConfig):
        b = d // config.reduction_factor
        # rank-1 factors plus bias for down (d -> b) and up (b -> d) in two
        # modules per layer; the phm_dim**3 mixing factors are shared
        return L * 2 * ((d + b) + b + (b + d) + d) + config.phm_dim ** 3
    if isinstance(config, LoraConfig):
        return L * len(config.targets) * 2 * d * config.r
    if isinstance(config, IA3Config):
        return sum(L * (dff if t == "ffn_intermediate" else d) for t in config.targets)
    assert isinstance(config, ConfigUnion)
    total = sum(closed_form_count(m, dims) for m in config.members)
    if config.gated:
        total += sum(_closed_form_gates(m, dims) for m in config.members)
    return total


def _closed_form_gates(member, dims):
    """One gate vector, as wide as what the gated module reads, per gated
    module instance (per layer for prefixes)."""
    L, d, dff = dims.num_layers, dims.hidden, dims.intermediate
    if isinstance(member, BottleneckConfig):
        return L * (2 if member.placement == "double" else 1) * d
    if isinstance(member, CompacterConfig):
        return L * 2 * d
    if isinstance(member, LoraConfig):
        return L * len(member.targets) * d
    if isinstance(member, IA3Config):
        return sum(L * (dff if t == "ffn_intermediate" else d) for t in member.targets)
    assert isinstance(member, PrefixTuningConfig)
    return L * d


@pytest.mark.parametrize("name,expected", sorted(DESK_COUNTS.items()))
def test_count_params_desk_literals(name, expected):
    assert count_params(parse_config(name), DESK_DIMS) == expected


def test_count_params_prompt_example():
    # p * d with p=16 on the desk width
    assert count_params(PromptTuningConfig(prompt_length=16), DESK_DIMS) == 1024


def test_count_params_roberta_defaults():
    # rf=16 on d=768 -> width 48; 12 layers x (2*768*48 + 48 + 768) = 894,528
    assert count_params(parse_config("seq_bn"), ROBERTA_BASE_DIMS) == 894_528
    # + one coupling pair: 2 * (384*192 + 192 + 192*384 + 384) = 296,064
    assert count_params(parse_config("seq_bn_inv"), ROBERTA_BASE_DIMS) == 1_190_592
    assert count_params(parse_config("prompt_tuning"), ROBERTA_BASE_DIMS) == 7_680


def test_count_params_flat_prefix():
    # 2 * L * p * d
    cfg = PrefixTuningConfig(prefix_length=5, flat=True)
    assert count_params(cfg, DESK_DIMS) == 2 * 2 * 5 * 64


def test_count_params_zero_layers():
    dims = ModelDims(num_layers=0, hidden=64, heads=4, intermediate=128, vocab=10)
    assert count_params(parse_config("seq_bn"), dims) == 0
    assert count_params(parse_config("prompt_tuning"), dims) == 640


def test_published_grid_extremes():
    report = run_count_audit(ROBERTA_BASE_DIMS)
    assert len(report) == 7
    bad = [row for row in report if not row[-1]]
    assert bad == [], f"mismatching extremes: {bad}"


def test_counting_allocates_no_tensors(monkeypatch, capsys):
    """Counts are dry runs of each build, so roberta-base audits allocate
    no weight arrays."""
    def refuse(*args, **kwargs):
        raise AssertionError("a parameter count allocated a tensor")

    monkeypatch.setattr(methods, "Tensor", refuse)
    assert all(row[-1] for row in run_count_audit(ROBERTA_BASE_DIMS))
    argv = ["count-params", "--dims", "roberta-base"]
    for name in ALL_STRINGS:
        argv += ["--config", name]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(ALL_STRINGS)


def test_audit_counts_sorted_and_guarded():
    rows = audit_counts("seq_bn", ROBERTA_BASE_DIMS)
    counts = [c for _, c in rows]
    assert counts == sorted(counts)
    with pytest.raises(ConfigError):
        audit_counts("prompt_tuning", ROBERTA_BASE_DIMS)


# ---------------------------------------------------------------------------
# count == allocation


@pytest.mark.parametrize("name", ALL_STRINGS)
def test_count_matches_allocation(name):
    model = AdapterModel(DESK_DIMS, seed=0)
    inst = model.add_adapter("a", parse_config(name))
    assert inst.num_params() == count_params(inst.config, DESK_DIMS)
    assert inst.num_params() == closed_form_count(inst.config, DESK_DIMS)


@settings(max_examples=20, deadline=None)
@given(
    rf=st.sampled_from([1, 2, 4, 16, 64]),
    placement=st.sampled_from(["sequential", "parallel", "double"]),
    scaling=st.floats(0.5, 4.0),
)
def test_count_matches_allocation_bottleneck_property(rf, placement, scaling):
    cfg = BottleneckConfig(reduction_factor=rf, placement=placement,
                           scaling=scaling)
    model = AdapterModel(DESK_DIMS, seed=1)
    inst = model.add_adapter("a", cfg)
    assert inst.num_params() == count_params(cfg, DESK_DIMS)
    assert inst.num_params() == closed_form_count(cfg, DESK_DIMS)


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(1, 16),
    targets=st.sampled_from([("query",), ("value",), ("query", "value")]),
)
def test_count_matches_allocation_lora_property(r, targets):
    cfg = LoraConfig(r=r, targets=targets)
    model = AdapterModel(DESK_DIMS, seed=1)
    inst = model.add_adapter("a", cfg)
    assert inst.num_params() == count_params(cfg, DESK_DIMS)
    assert inst.num_params() == closed_form_count(cfg, DESK_DIMS)


GATEABLE_MEMBERS = (
    BottleneckConfig(),
    BottleneckConfig(placement="double", reduction_factor=4),
    BottleneckConfig(placement="parallel", reduction_factor=2, nonlinearity="tanh"),
    CompacterConfig(reduction_factor=4, phm_dim=2),
    PrefixTuningConfig(prefix_length=3, bottleneck_size=8),
    PrefixTuningConfig(prefix_length=2, flat=True),
    LoraConfig(r=3, targets=("value",)),
    IA3Config(targets=("keys", "ffn_intermediate")),
)


@settings(max_examples=25, deadline=None)
@given(
    picks=st.lists(st.sampled_from(range(len(GATEABLE_MEMBERS))), min_size=1,
                   max_size=4),
    gated=st.booleans(),
    layers=st.integers(0, 3),
)
def test_count_matches_allocation_union_property(picks, gated, layers):
    dims = dataclasses.replace(DESK_DIMS, num_layers=layers)
    cfg = ConfigUnion(members=tuple(GATEABLE_MEMBERS[i] for i in picks), gated=gated)
    inst = AdapterModel(dims, seed=1).add_adapter("a", cfg)
    assert inst.num_params() == count_params(cfg, dims)
    assert inst.num_params() == closed_form_count(cfg, dims)


# ---------------------------------------------------------------------------
# hook footprints


def test_hook_footprints():
    fp = lambda cfg: instantiate_adapter("x", cfg, DESK_DIMS, np.random.default_rng(0)).footprint
    assert fp(parse_config("seq_bn")) == {HookPoint.POST_FFN_RESIDUAL}
    assert fp(parse_config("double_seq_bn")) == {HookPoint.POST_FFN_RESIDUAL,
                                                 HookPoint.POST_ATTN_RESIDUAL}
    assert fp(parse_config("par_bn")) == {HookPoint.PARALLEL_TO_LAYER}
    assert HookPoint.EMBEDDING_BOUNDARY in fp(parse_config("seq_bn_inv"))
    assert fp(parse_config("prompt_tuning")) == {HookPoint.INPUT_PREPEND}
    assert fp(parse_config("prefix_tuning")) == {HookPoint.ATTN_KV}
    assert fp(LoraConfig(targets=("query",))) == {HookPoint.ATTN_Q_PROJ}
    assert fp(IA3Config(targets=("values",))) == {HookPoint.ATTN_VALUES_SCALE}
    mam = fp(parse_config("mam"))
    assert {HookPoint.ATTN_KV, HookPoint.PARALLEL_TO_LAYER} <= mam


H = HookPoint
PRESET_FOOTPRINTS = {
    "seq_bn": {H.POST_FFN_RESIDUAL},
    "double_seq_bn": {H.POST_FFN_RESIDUAL, H.POST_ATTN_RESIDUAL},
    "par_bn": {H.PARALLEL_TO_LAYER},
    "seq_bn_inv": {H.POST_FFN_RESIDUAL, H.EMBEDDING_BOUNDARY},
    "prompt_tuning": {H.INPUT_PREPEND},
    "prefix_tuning": {H.ATTN_KV},
    "compacter": {H.POST_FFN_RESIDUAL, H.POST_ATTN_RESIDUAL},
    "lora": {H.ATTN_Q_PROJ, H.ATTN_V_PROJ},
    "ia3": {H.ATTN_KEYS_SCALE, H.ATTN_VALUES_SCALE, H.FFN_INTERMEDIATE_SCALE},
    "mam": {H.ATTN_KV, H.PARALLEL_TO_LAYER},
    "unipelt": {H.ATTN_Q_PROJ, H.ATTN_V_PROJ, H.ATTN_KV, H.POST_FFN_RESIDUAL},
}


@pytest.mark.parametrize("layers", [0, DESK_DIMS.num_layers])
@pytest.mark.parametrize("name", sorted(PRESET_FOOTPRINTS))
def test_preset_footprints_do_not_depend_on_depth(name, layers):
    dims = dataclasses.replace(DESK_DIMS, num_layers=layers)
    inst = instantiate_adapter("x", parse_config(name), dims, np.random.default_rng(0))
    assert inst.footprint == PRESET_FOOTPRINTS[name]


# ---------------------------------------------------------------------------
# manifest serialization


@pytest.mark.parametrize("name", ALL_STRINGS)
def test_config_dict_roundtrip(name):
    cfg = parse_config(name)
    doc = config_to_dict(cfg)
    assert config_from_dict(doc) == cfg


def test_config_dict_roundtrip_variants():
    for cfg in (BottleneckConfig(reduction_factor=2, nonlinearity="gelu",
                                 scaling=0.5),
                PrefixTuningConfig(prefix_length=3, flat=True),
                LoraConfig(r=2, alpha=16.0, targets=("value",)),
                ConfigUnion(members=(LoraConfig(), IA3Config()), gated=True)):
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_from_dict_rejects_unknown():
    with pytest.raises(ConfigError):
        config_from_dict({"type": "hypernetwork"})


def test_configs_are_frozen():
    cfg = parse_config("lora")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.r = 4


# ---------------------------------------------------------------------------
# field types: one rule for configs built in code, from manifests or by --axis

MISTYPED = [
    BottleneckConfig(with_invertible="false"),      # a truthy string
    BottleneckConfig(scaling=True),                 # a bool is not a float
    PrefixTuningConfig(flat=0),                     # an int is not a bool
    LoraConfig(r=8.0),                              # a float is not an int
    LoraConfig(targets="query"),                    # a string is not a tuple
    IA3Config(targets=["keys"]),                    # nor is a list
    CompacterConfig(phm_dim=None),
    ConfigUnion(members=[LoraConfig()]),
    ConfigUnion(members=(LoraConfig(), "seq_bn")),
    ConfigUnion(members=(LoraConfig(r="8"),)),      # a member's own fields count too
]


@pytest.mark.parametrize("cfg", MISTYPED, ids=repr)
def test_a_mistyped_field_is_a_config_error_everywhere(cfg):
    with pytest.raises(ConfigError, match="must be of type"):
        validate_config(cfg, DESK_DIMS)
    with pytest.raises(ConfigError, match="must be of type"):
        count_params(cfg, DESK_DIMS)
    model = AdapterModel(DESK_DIMS)
    with pytest.raises(ConfigError, match="must be of type"):
        model.add_adapter("a", cfg)
    assert model.adapter_names() == []


def test_field_types_follow_the_defaults():
    validate_config(BottleneckConfig(scaling=2), DESK_DIMS)      # an int is a float
    validate_config(LoraConfig(alpha=16), DESK_DIMS)
    validate_config(PrefixTuningConfig(flat=True), DESK_DIMS)
    validate_config(parse_config("mam"), DESK_DIMS)


def test_presets_are_shared_frozen_instances():
    assert all(parse_config(name) is parse_config(name) for name in ALL_STRINGS)
    assert config_label(dataclasses.replace(parse_config("unipelt"))) == "unipelt"


# Any JSON value, or a JSON value of the field's own type; a list may also
# arrive as the tuple a manifest list becomes.
WORDS = st.sampled_from(["parallel", "double", "gelu", "identity", "query", "value", "keys",
                         "values", "ffn_intermediate"]) | st.text(max_size=6)
OF_TYPE = {int: st.integers(-2, 80) | st.integers(), bool: st.booleans(), str: WORDS,
           float: st.floats() | st.integers(-2, 80), tuple: st.lists(WORDS, max_size=3)}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6)


@st.composite
def preset_with_one_field_replaced(draw):
    """A preset with one field, or one field of one union member, set to a
    JSON value."""
    cfg = parse_config(draw(st.sampled_from(ALL_STRINGS)))
    member = None
    if isinstance(cfg, ConfigUnion) and draw(st.booleans()):
        member = draw(st.integers(0, len(cfg.members) - 1))
    target = cfg if member is None else cfg.members[member]
    field = draw(st.sampled_from(dataclasses.fields(target)))
    value = draw(JSON_VALUES | OF_TYPE[type(field.default)])
    if isinstance(value, list) and draw(st.booleans()):
        value = tuple(value)
    target = dataclasses.replace(target, **{field.name: value})
    if member is None:
        return target
    members = cfg.members[:member] + (target,) + cfg.members[member + 1:]
    return dataclasses.replace(cfg, members=members)


@settings(max_examples=400, deadline=None)
@given(cfg=preset_with_one_field_replaced())
def test_any_field_value_passes_or_is_a_config_error(cfg):
    """Validation is the only gate: a config it passes has a dry run with
    positive int extents, is small (the size bounds), and builds; anything
    else raises ConfigError."""
    try:
        validate_config(cfg, SMALL_DIMS)
    except ConfigError:
        return
    shapes = tensor_shapes(cfg, SMALL_DIMS)
    assert all(type(e) is int and e >= 1 for shape in shapes.values() for e in shape)
    assert count_params(cfg, SMALL_DIMS) <= 1_000_000
    inst = instantiate_adapter("a", cfg, SMALL_DIMS, np.random.default_rng(0))
    assert {k: t.shape for k, t in inst.tensors.items()} == shapes
