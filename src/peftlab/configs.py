"""Adapter method configurations: one definition per method.

Each supported method is one frozen dataclass holding its fields, its
``validate(dims)`` rules and its ``build(b)``, which allocates the method's
tensors and binds its modules at hook points through a
:class:`peftlab.methods.AdapterBuild`.  Every other per-method fact is
derived from that build: an instance's hook footprint is the set of hook
points it declared, and :func:`tensor_shapes` / :func:`count_params` are a
dry run of it that records shapes and allocates nothing, so audits run at
any extents without instantiating weights.  The short config strings
(``seq_bn``, ``lora``, ...) map onto preconfigured instances.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Union

from .methods import (AdapterBuild, AdapterInstance, BottleneckModule, CompacterModule,
                      IA3Module, InvertibleModule, LoraModule, PrefixModule,
                      PromptModule)
from .model import HookPoint, ModelDims


class ConfigError(ValueError):
    """Invalid or incompatible adapter configuration."""


SEQUENTIAL = "sequential"
PARALLEL = "parallel"
DOUBLE = "double"
PLACEMENTS = (SEQUENTIAL, PARALLEL, DOUBLE)

NONLINEARITIES = ("relu", "gelu", "tanh", "identity")

LORA_TARGETS = ("query", "value")
IA3_TARGETS = ("keys", "values", "ffn_intermediate")


def _check_reduction(reduction_factor: int, dims: ModelDims) -> None:
    if reduction_factor < 1:
        raise ConfigError(f"reduction_factor must be >= 1, got {reduction_factor}")
    if dims.hidden % reduction_factor != 0:
        raise ConfigError(
            f"hidden={dims.hidden} not divisible by reduction_factor={reduction_factor}"
        )


@dataclass(frozen=True)
class BottleneckConfig:
    """Down-project / nonlinearity / up-project module with residual.

    ``sequential`` inserts one module after the feed-forward residual,
    ``double`` adds a second copy after the attention residual, and
    ``parallel`` computes the module from the layer block input instead,
    adding its output alongside the feed-forward path.
    """

    reduction_factor: int = 16
    placement: str = SEQUENTIAL
    nonlinearity: str = "relu"
    scaling: float = 1.0
    with_invertible: bool = False
    inv_reduction_factor: int = 2

    def validate(self, dims: ModelDims) -> None:
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"unknown placement {self.placement!r}; expected {PLACEMENTS}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(
                f"unknown nonlinearity {self.nonlinearity!r}; expected {NONLINEARITIES}"
            )
        _check_reduction(self.reduction_factor, dims)
        if not math.isfinite(self.scaling):
            raise ConfigError(f"scaling must be finite, got {self.scaling}")
        if self.with_invertible:
            if dims.hidden % 2 != 0:
                raise ConfigError("invertible coupling needs an even hidden size")
            half = dims.hidden // 2
            if self.inv_reduction_factor < 1 or half % self.inv_reduction_factor != 0:
                raise ConfigError(
                    f"half hidden {half} not divisible by inv_reduction_factor="
                    f"{self.inv_reduction_factor}"
                )

    def build(self, b: AdapterBuild) -> None:
        d = b.dims.hidden
        sites = {
            SEQUENTIAL: [(HookPoint.POST_FFN_RESIDUAL, "post_ffn", d)],
            DOUBLE: [(HookPoint.POST_FFN_RESIDUAL, "post_ffn", d),
                     (HookPoint.POST_ATTN_RESIDUAL, "post_attn", d)],
            PARALLEL: [(HookPoint.PARALLEL_TO_LAYER, "par_ffn", d)],
        }[self.placement]
        width = d // self.reduction_factor
        b.layers(sites, lambda name, _: BottleneckModule(
            b, name + ".", d, width, self.nonlinearity, self.scaling))
        if self.with_invertible:
            b.once(HookPoint.EMBEDDING_BOUNDARY,
                   InvertibleModule(b, "invertible.", d, self.inv_reduction_factor))


@dataclass(frozen=True)
class PromptTuningConfig:
    """Trainable rows prepended to the embedded input sequence."""

    prompt_length: int = 10

    def validate(self, dims: ModelDims) -> None:
        if self.prompt_length < 1:
            raise ConfigError(f"prompt_length must be >= 1, got {self.prompt_length}")
        if self.prompt_length >= dims.max_seq:
            raise ConfigError(
                f"prompt_length {self.prompt_length} leaves no room under max_seq {dims.max_seq}"
            )

    def build(self, b: AdapterBuild) -> None:
        b.once(HookPoint.INPUT_PREPEND,
               PromptModule(b, "prompt.", self.prompt_length, b.dims.hidden))


@dataclass(frozen=True)
class PrefixTuningConfig:
    """Trainable key/value rows prepended inside every attention layer.

    By default the per-layer prefixes are produced from a shared base matrix
    through a two-layer reparameterization network; ``flat=True`` trains the
    key/value rows directly.
    """

    prefix_length: int = 30
    bottleneck_size: int = 512
    flat: bool = False

    def validate(self, dims: ModelDims) -> None:
        if not 1 <= self.prefix_length <= dims.max_seq:
            raise ConfigError(f"prefix_length {self.prefix_length} not in 1..max_seq")
        # admits mam's 800 at desk dims (hidden 64) and the 512 preset down to hidden 8
        if not self.flat and not 1 <= self.bottleneck_size <= 64 * dims.hidden:
            raise ConfigError(f"bottleneck_size {self.bottleneck_size} not in 1..64*hidden")

    def build(self, b: AdapterBuild) -> None:
        prefix = PrefixModule(b, "prefix.", self, b.dims)
        b.layers([(HookPoint.ATTN_KV, "prefix", b.dims.hidden)], lambda name, _: prefix)


@dataclass(frozen=True)
class CompacterConfig:
    """Bottleneck modules whose projections are sums of Kronecker products
    of shared small square factors with rank-1 factors."""

    reduction_factor: int = 16
    phm_dim: int = 4

    def validate(self, dims: ModelDims) -> None:
        _check_reduction(self.reduction_factor, dims)
        b = dims.hidden // self.reduction_factor
        n = self.phm_dim
        if n < 1:
            raise ConfigError(f"phm_dim must be >= 1, got {n}")
        if dims.hidden % n != 0 or b % n != 0:
            raise ConfigError(
                f"phm_dim={n} must divide both hidden={dims.hidden} and bottleneck={b}"
            )

    def build(self, b: AdapterBuild) -> None:
        d, n = b.dims.hidden, self.phm_dim
        width = d // self.reduction_factor
        shared_a = b.normal("phm.a", (n, n, n), std=0.5)
        b.layers([(HookPoint.POST_ATTN_RESIDUAL, "post_attn", d),
                  (HookPoint.POST_FFN_RESIDUAL, "post_ffn", d)],
                 lambda name, _: CompacterModule(b, name + ".", d, width, n, shared_a))


@dataclass(frozen=True)
class LoraConfig:
    """Low-rank additive deltas on attention projections, mergeable into
    the frozen weights."""

    r: int = 8
    alpha: float = 8.0
    targets: tuple = ("query", "value")

    def validate(self, dims: ModelDims) -> None:
        if not 1 <= self.r <= dims.hidden:
            raise ConfigError(f"r {self.r} not in 1..hidden={dims.hidden}")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")
        bad = [t for t in self.targets if t not in LORA_TARGETS]
        if bad or not self.targets:
            raise ConfigError(f"lora targets must be a non-empty subset of {LORA_TARGETS}")

    def build(self, b: AdapterBuild) -> None:
        d = b.dims.hidden
        sites = {
            "query": (HookPoint.ATTN_Q_PROJ, "query", d),
            "value": (HookPoint.ATTN_V_PROJ, "value", d),
        }
        b.layers([sites[t] for t in LORA_TARGETS if t in self.targets],
                 lambda name, _: LoraModule(b, name + ".", d, self.r, self.alpha))


@dataclass(frozen=True)
class IA3Config:
    """Learned elementwise rescaling vectors on keys, values, and the
    feed-forward intermediate activations."""

    targets: tuple = ("keys", "values", "ffn_intermediate")

    def validate(self, dims: ModelDims) -> None:
        bad = [t for t in self.targets if t not in IA3_TARGETS]
        if bad or not self.targets:
            raise ConfigError(f"ia3 targets must be a non-empty subset of {IA3_TARGETS}")

    def build(self, b: AdapterBuild) -> None:
        d, dff = b.dims.hidden, b.dims.intermediate
        sites = {
            "keys": (HookPoint.ATTN_KEYS_SCALE, "keys", d),
            "values": (HookPoint.ATTN_VALUES_SCALE, "values", d),
            "ffn_intermediate": (HookPoint.FFN_INTERMEDIATE_SCALE, "ffn", dff),
        }
        b.layers([sites[t] for t in IA3_TARGETS if t in self.targets],
                 lambda name, width: IA3Module(b, name, width))


@dataclass(frozen=True)
class ConfigUnion:
    """Several member methods applied together as one adapter.

    ``gated=True`` multiplies each member's additive contribution by a
    learned per-sample gate (a sigmoid readout of the member's input,
    averaged over positions)."""

    members: tuple = ()
    gated: bool = False

    def validate(self, dims: ModelDims) -> None:
        if not self.members:
            raise ConfigError("a union needs at least one member")
        for m in self.members:
            if isinstance(m, ConfigUnion):
                raise ConfigError("unions cannot nest unions")
            validate_config(m, dims)
        if self.gated:
            for m in self.members:
                if isinstance(m, PromptTuningConfig):
                    raise ConfigError("prompt members cannot be gated")
                if isinstance(m, BottleneckConfig) and m.with_invertible:
                    raise ConfigError("invertible members cannot be gated")

    def build(self, b: AdapterBuild) -> None:
        b.gated = self.gated
        for i, m in enumerate(self.members):
            b.prefix = f"member{i}."
            m.build(b)


AdapterConfig = Union[
    BottleneckConfig,
    PromptTuningConfig,
    PrefixTuningConfig,
    CompacterConfig,
    LoraConfig,
    IA3Config,
    ConfigUnion,
]


_CONFIG_STRINGS = {
    "seq_bn": BottleneckConfig(),
    "double_seq_bn": BottleneckConfig(placement=DOUBLE),
    "par_bn": BottleneckConfig(placement=PARALLEL, reduction_factor=2, scaling=4.0),
    "seq_bn_inv": BottleneckConfig(with_invertible=True),
    "prompt_tuning": PromptTuningConfig(),
    "prefix_tuning": PrefixTuningConfig(),
    "compacter": CompacterConfig(),
    "lora": LoraConfig(),
    "ia3": IA3Config(),
    "mam": ConfigUnion(
        members=(
            PrefixTuningConfig(bottleneck_size=800),
            BottleneckConfig(placement=PARALLEL, reduction_factor=2, scaling=4.0),
        )
    ),
    "unipelt": ConfigUnion(
        members=(
            LoraConfig(r=8, alpha=8.0),
            PrefixTuningConfig(prefix_length=10),
            BottleneckConfig(reduction_factor=16),
        ),
        gated=True,
    ),
}

CONFIG_NAMES = tuple(sorted(_CONFIG_STRINGS))


def parse_config(spec: str) -> AdapterConfig:
    """Map a short config string to its (frozen, shared) preset."""
    try:
        return _CONFIG_STRINGS[spec]
    except KeyError:
        raise ConfigError(
            f"unknown config string {spec!r}; valid names: {', '.join(CONFIG_NAMES)}"
        ) from None


def config_label(config: AdapterConfig) -> str:
    """Short config string when the object matches a preset, else the
    dataclass name."""
    for name, preset in _CONFIG_STRINGS.items():
        if preset == config:
            return name
    return type(config).__name__


# ---------------------------------------------------------------------------
# validation and parameter counting


def validate_config(config: AdapterConfig, dims: ModelDims) -> None:
    """Raise :class:`ConfigError` unless ``config`` can be instantiated on
    ``dims``."""
    if type(config) not in _TYPE_NAMES:
        raise ConfigError(f"unknown config type {type(config).__name__}")
    _check_fields(config)
    config.validate(dims)


def _dry_build(config: AdapterConfig, dims: ModelDims) -> AdapterBuild:
    validate_config(config, dims)
    build = AdapterBuild(dims)
    config.build(build)
    return build


def tensor_shapes(config: AdapterConfig, dims: ModelDims) -> dict:
    """Name -> shape of every tensor the adapter's build declares on
    ``dims``, in allocation order, from a dry run that allocates nothing."""
    return _dry_build(config, dims).shapes


def prepended_rows(config: AdapterConfig, dims: ModelDims) -> int:
    """How many rows the adapter prepends to every input sequence on
    ``dims`` (its prompt length), from a dry run of its build."""
    return AdapterInstance("", config, dims, _dry_build(config, dims)).prompt_length()


def count_params(config: AdapterConfig, dims: ModelDims) -> int:
    """Number of trainable scalars the adapter adds on ``dims``.

    This is a dry run of the config's build: the total size of the tensors
    it declares (:func:`tensor_shapes`), none of which is allocated.
    """
    return sum(math.prod(shape) for shape in tensor_shapes(config, dims).values())


# ---------------------------------------------------------------------------
# serialization (checkpoint manifests)

_CONFIG_TYPES = {
    "bottleneck": BottleneckConfig,
    "prompt_tuning": PromptTuningConfig,
    "prefix_tuning": PrefixTuningConfig,
    "compacter": CompacterConfig,
    "lora": LoraConfig,
    "ia3": IA3Config,
    "union": ConfigUnion,
}
_TYPE_NAMES = {v: k for k, v in _CONFIG_TYPES.items()}


def config_to_dict(config: AdapterConfig) -> dict:
    kind = _TYPE_NAMES.get(type(config))
    if kind is None:
        raise ConfigError(f"unknown config type {type(config).__name__}")
    out = {"type": kind}
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):            # strings, or a union's members
            v = [x if isinstance(x, str) else config_to_dict(x) for x in v]
        out[f.name] = v
    return out


def config_from_dict(d: dict) -> AdapterConfig:
    """Parse a manifest's config object.  Unknown keys are ignored, so
    manifests that carry retired fields still load; a known field whose
    value does not have the type of its default raises :class:`ConfigError`."""
    if not isinstance(d, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(d).__name__}")
    kind = d.get("type")
    cls = _CONFIG_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown config type tag {kind!r}")
    kwargs = {f.name: d[f.name] for f in fields(cls) if f.name in d}
    for k, v in kwargs.items():
        if isinstance(v, list):
            kwargs[k] = tuple(config_from_dict(m) if k == "members" else m for m in v)
    config = cls(**kwargs)
    _check_fields(config)
    return config


def _check_fields(config: AdapterConfig) -> None:
    """Raise :class:`ConfigError` unless every field of ``config`` holds a
    value of its default's type: an int field an int that is not a bool, a
    float field an int or a float, a tuple field a tuple of strings (of
    configs, for a union's members)."""
    for f in fields(config):
        v, want = getattr(config, f.name), type(f.default)
        if want is tuple:
            ok = isinstance(v, tuple) and all(
                type(x) in _TYPE_NAMES if f.name == "members" else isinstance(x, str) for x in v)
        elif want in (int, float):
            ok = isinstance(v, (int, float) if want is float else int) and not isinstance(v, bool)
        else:
            ok = isinstance(v, want)
        if not ok:
            raise ConfigError(f"{type(config).__name__}.{f.name} must be of type "
                              f"{want.__name__}, got {v!r}")


# ---------------------------------------------------------------------------
# reference audit grid

# Added-parameter extremes for the 12-layer / 768-hidden reference extents,
# checked integer-exactly by `peftlab count-params --check-paper`.  The
# compacter rows pin phm_dim=4: its published extremes correspond to the
# default factor count (phm_dim=8 would add 448 scalars to each figure).
AUDIT_GRID = {
    "double_seq_bn": {
        "axes": {"reduction_factor": (2, 16, 64)},
        "min": 461_088,
        "max": 14_183_424,
    },
    "seq_bn": {
        "axes": {"reduction_factor": (2, 16, 64)},
        "min": 230_544,
        "max": 7_091_712,
    },
    "par_bn": {
        "axes": {"reduction_factor": (2, 16, 64)},
        "min": 230_544,
        "max": 7_091_712,
    },
    "compacter": {
        "axes": {"reduction_factor": (4, 16), "phm_dim": (4,)},
        "min": 58_816,
        "max": 69_184,
    },
    "prefix_tuning": {
        "axes": {"bottleneck_size": (32, 128, 512), "prefix_length": (5, 50, 200)},
        "min": 636_704,
        "max": 10_002_944,
    },
    "lora": {
        "axes": {"r": (4, 8, 16, 64, 200)},
        "min": 147_456,
        "max": 7_372_800,
    },
    "ia3": {
        "axes": {},
        "min": 55_296,
        "max": 55_296,
    },
}


def expand_axes(config: AdapterConfig, axes: dict) -> list:
    """Every ``(assignment, config)`` variant of ``config`` over the cross
    product of ``axes`` (field -> values), with fields in sorted order.  No
    axes gives the one variant ``({}, config)``."""
    keys = sorted(axes)
    unknown = set(keys) - {f.name for f in fields(config)}
    if unknown:
        raise ConfigError(f"{type(config).__name__} has no field {sorted(unknown)[0]!r}")
    out = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        assignment = dict(zip(keys, combo))
        out.append((assignment, replace(config, **assignment)))
    return out


def audit_counts(name: str, dims: ModelDims) -> list:
    """The audit grid points of one config string that fit ``dims``, as
    ``[(axis_assignment, count), ...]`` sorted by count."""
    if name not in AUDIT_GRID:
        raise ConfigError(f"no audit grid for {name!r}; have {', '.join(sorted(AUDIT_GRID))}")
    rows = []
    for assignment, cfg in expand_axes(parse_config(name), AUDIT_GRID[name]["axes"]):
        with contextlib.suppress(ConfigError):
            rows.append((assignment, count_params(cfg, dims)))
    rows.sort(key=lambda r: r[1])
    return rows


def run_count_audit(dims: ModelDims) -> list:
    """Compare grid extremes against the pinned reference values.

    Returns ``[(name, expected_min, got_min, expected_max, got_max, ok)]``.
    """
    report = []
    for name in sorted(AUDIT_GRID):
        rows = audit_counts(name, dims)
        got_min, got_max = rows[0][1], rows[-1][1]
        exp_min, exp_max = AUDIT_GRID[name]["min"], AUDIT_GRID[name]["max"]
        report.append((name, exp_min, got_min, exp_max, got_max,
                       got_min == exp_min and got_max == exp_max))
    return report
