"""Adapter method modules, the builder that adapter configs run, and the
per-adapter instance.

Each config class in :mod:`peftlab.configs` has one ``build`` that talks to
an :class:`AdapterBuild`: it allocates named tensors and binds modules at
hook points.  Everything else about an adapter comes from that build: the
:class:`AdapterInstance` keeps the tensors, the bindings and the footprint
(the hook points the build declared), and a dry build with no rng is the
parameter count.  All modules are built so that a freshly initialized
adapter is the identity wherever the method admits it (zero-initialized
up-projections, ones-initialized scaling vectors, zero-initialized second
coupling layers).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .model import (ATTENTION, ATTENTION_HOOKS, ATTENTION_RESIDUAL, FFN_RESIDUAL, HookPoint,
                    ModelDims, Stage, given_array)

if TYPE_CHECKING:
    from .configs import AdapterConfig, PrefixTuningConfig


class StateError(RuntimeError):
    """Operation incompatible with current adapter state (e.g. a merged
    low-rank adapter being activated or merged twice)."""


_NONLIN: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": T.relu,
    "gelu": T.gelu,
    "tanh": T.tanh,
    "identity": lambda x: x,
}


class _Alloc:
    """Named tensor allocator for one adapter instance.

    Every name gets :attr:`prefix` prepended and its shape recorded in
    :attr:`shapes`.  What each call returns depends on ``source``:

    * an rng: a new tensor, drawn (or zeros or ones) as the call declares;
    * a mapping of arrays: a tensor over the array stored under the name,
      checked against the declared shape by :func:`given_array`; nothing
      is drawn;
    * ``None``: a dry run; nothing is drawn or allocated, and each call
      returns ``None`` in place of the tensor.
    """

    def __init__(self, source):
        self.source = source
        self.prefix = ""
        self.shapes: dict[str, tuple] = {}
        self.tensors: dict[str, Tensor] = {}

    def _register(self, name: str, shape: tuple,
                  draw: Callable[[np.random.Generator], np.ndarray]):
        name = self.prefix + name
        if name in self.shapes:
            raise ValueError(f"duplicate tensor name {name!r}")
        self.shapes[name] = shape
        if self.source is None:
            return None
        if isinstance(self.source, np.random.Generator):
            data = draw(self.source)
        else:
            data = given_array(self.source, name, shape)
        t = Tensor(data, name=name)
        self.tensors[name] = t
        return t

    def uniform(self, name, shape, scale=0.05):
        return self._register(name, shape, lambda rng: rng.uniform(-scale, scale, size=shape))

    def normal(self, name, shape, std=0.02):
        return self._register(name, shape, lambda rng: rng.normal(0.0, std, size=shape))

    def zeros(self, name, shape):
        return self._register(name, shape, lambda rng: np.zeros(shape))

    def ones(self, name, shape):
        return self._register(name, shape, lambda rng: np.ones(shape))


class BottleneckModule:
    """``h + scaling * up(f(down(h)))`` with a zero-initialized up path."""

    def __init__(self, al: _Alloc, prefix: str, d: int, b: int, nonlinearity: str,
                 scaling: float):
        self.w_down = al.uniform(prefix + "down.w", (d, b))
        self.b_down = al.zeros(prefix + "down.b", (b,))
        self.w_up = al.zeros(prefix + "up.w", (b, d))
        self.b_up = al.zeros(prefix + "up.b", (d,))
        self.f = _NONLIN[nonlinearity]
        self.scaling = float(scaling)

    def delta(self, h: Tensor) -> Tensor:
        mid = self.f(T.linear(h, self.w_down, self.b_down))
        out = T.linear(mid, self.w_up, self.b_up)
        return T.scale(out, self.scaling) if self.scaling != 1.0 else out


class PhmLinear:
    """Linear map whose weight is a sum of Kronecker products of shared
    square mixing factors with per-module rank-1 factors."""

    def __init__(self, al: _Alloc, prefix: str, fin: int, fout: int, n: int,
                 shared_a: Tensor, zero_out: bool):
        self.a = shared_a                                     # (n, n, n)
        self.s = al.normal(prefix + "s", (n, fin // n), std=0.05)
        if zero_out:
            self.t = al.zeros(prefix + "t", (n, fout // n))
        else:
            self.t = al.normal(prefix + "t", (n, fout // n), std=0.05)
        self.bias = al.zeros(prefix + "bias", (fout,))

    def weight(self) -> Tensor:
        """Materialize the (fin, fout) weight, ``sum_i kron(a[i], s[i]^T
        t[i])``, as one record (:func:`~peftlab.tensor.kron_sum`), with the
        bits of the per-``i`` chain of narrow, reshape, matmul, kron and add."""
        return T.kron_sum(self.a, self.s, self.t)

    def apply(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight(), self.bias)


class CompacterModule:
    """Bottleneck module with Kronecker-factorized projections."""

    def __init__(self, al: _Alloc, prefix: str, d: int, b: int, n: int, shared_a: Tensor):
        self.down = PhmLinear(al, prefix + "down.", d, b, n, shared_a, zero_out=False)
        self.up = PhmLinear(al, prefix + "up.", b, d, n, shared_a, zero_out=True)

    def delta(self, h: Tensor) -> Tensor:
        return self.up.apply(T.relu(self.down.apply(h)))


class InvertibleModule:
    """Additive coupling pair on the split hidden channels.

    ``forward``: y1 = x1 + F(x2); y2 = x2 + G(y1).
    ``inverse`` recovers the input exactly (up to float rounding).
    Zero-initialized second layers make both nets vanish at init.
    """

    def __init__(self, al: _Alloc, prefix: str, d: int, inv_rf: int):
        if d % 2 != 0:
            raise ValueError("invertible coupling needs an even hidden size")
        self.half = d // 2
        bi = self.half // inv_rf
        self.nets = {}
        for tag in ("f", "g"):
            w1 = al.uniform(prefix + tag + ".w1", (self.half, bi))
            b1 = al.zeros(prefix + tag + ".b1", (bi,))
            w2 = al.zeros(prefix + tag + ".w2", (bi, self.half))
            b2 = al.zeros(prefix + tag + ".b2", (self.half,))
            self.nets[tag] = (w1, b1, w2, b2)

    def _net(self, tag: str, x: Tensor) -> Tensor:
        w1, b1, w2, b2 = self.nets[tag]
        return T.linear(T.relu(T.linear(x, w1, b1)), w2, b2)

    def forward(self, x: Tensor) -> Tensor:
        x1 = T.narrow(x, 2, 0, self.half)
        x2 = T.narrow(x, 2, self.half, self.half)
        y1 = x1 + self._net("f", x2)
        y2 = x2 + self._net("g", y1)
        return T.concat([y1, y2], axis=2)

    def inverse(self, y: Tensor) -> Tensor:
        y1 = T.narrow(y, 2, 0, self.half)
        y2 = T.narrow(y, 2, self.half, self.half)
        x2 = y2 - self._net("g", y1)
        x1 = y1 - self._net("f", x2)
        return T.concat([x1, x2], axis=2)


class PromptModule:
    """Trainable rows prepended to the embedded sequence."""

    def __init__(self, al: _Alloc, prefix: str, p: int, d: int):
        self.embedding = al.normal(prefix + "embedding", (p, d))
        self.length = p


class PrefixModule:
    """Per-layer key/value rows, reparameterized or flat."""

    def __init__(self, al: _Alloc, prefix: str, cfg: PrefixTuningConfig, dims: ModelDims):
        self.length = cfg.prefix_length
        self.flat = cfg.flat
        self.num_layers = dims.num_layers
        self.hidden = dims.hidden
        p, d, L = cfg.prefix_length, dims.hidden, dims.num_layers
        if cfg.flat:
            self.kv = al.normal(prefix + "kv", (L, 2, p, d))
        else:
            b = cfg.bottleneck_size
            self.base = al.normal(prefix + "base", (p, d))
            self.w_down = al.normal(prefix + "mlp_down.w", (d, b))
            self.b_down = al.zeros(prefix + "mlp_down.b", (b,))
            self.w_up = al.normal(prefix + "mlp_up.w", (b, 2 * L * d))
            self.b_up = al.zeros(prefix + "mlp_up.b", (2 * L * d,))

    def materialize(self) -> list:
        """Per-layer (keys, values) rows, each (prefix_length, hidden)."""
        p, d, L = self.length, self.hidden, self.num_layers
        out = []
        if self.flat:
            for l in range(L):
                lay = T.reshape(T.narrow(self.kv, 0, l, 1), (2, p, d))
                k = T.reshape(T.narrow(lay, 0, 0, 1), (p, d))
                v = T.reshape(T.narrow(lay, 0, 1, 1), (p, d))
                out.append((k, v))
            return out
        mid = T.tanh(T.linear(self.base, self.w_down, self.b_down))
        full = T.reshape(T.linear(mid, self.w_up, self.b_up), (p, L, 2, d))
        for l in range(L):
            lay = T.reshape(T.narrow(full, 1, l, 1), (p, 2, d))
            k = T.reshape(T.narrow(lay, 1, 0, 1), (p, d))
            v = T.reshape(T.narrow(lay, 1, 1, 1), (p, d))
            out.append((k, v))
        return out


class LoraModule:
    """Rank-``r`` additive delta on one projection: ``(alpha/r) * x A^T B^T``."""

    def __init__(self, al: _Alloc, prefix: str, d: int, r: int, alpha: float):
        self.a = al.normal(prefix + "a", (r, d), std=0.02)
        self.b = al.zeros(prefix + "b", (d, r))
        self.r = r
        self.alpha = float(alpha)

    @property
    def scaling(self) -> float:
        return self.alpha / self.r

    def delta(self, x: Tensor) -> Tensor:
        low = T.matmul(x, T.swapaxes(self.a, 0, 1))
        return T.scale(T.matmul(low, T.swapaxes(self.b, 0, 1)), self.scaling)

    def weight_delta(self) -> np.ndarray:
        """The dense (d_in, d_out) weight increment this module realizes."""
        return self.scaling * (self.a.data.T @ self.b.data.T)


class IA3Module:
    """Ones-initialized elementwise rescaling of a projection/activation."""

    def __init__(self, al: _Alloc, name: str, width: int):
        self.l = al.ones(name, (width,))

    def apply(self, h: Tensor) -> Tensor:
        return T.mul(h, self.l)


class GateModule:
    """Per-sample scalar gate: sigmoid readout averaged over positions."""

    def __init__(self, al: _Alloc, name: str, width: int):
        self.wg = al.normal(name, (width, 1), std=0.02)

    def value(self, x: Tensor) -> Tensor:
        s = T.sigmoid(T.matmul(x, self.wg))        # (B, S, 1)
        return T.tmean(s, axis=1, keepdims=True)   # (B, 1, 1)


class FusionLayer:
    """Attention over candidate adapter outputs: one query/key/value
    projection set shared by every transformer layer."""

    def __init__(self, names: tuple, hidden: int, rng: np.random.Generator):
        self.names = tuple(names)
        d = hidden
        self.wq = Tensor(rng.normal(0.0, 0.02, size=(d, d)))
        self.wk = Tensor(rng.normal(0.0, 0.02, size=(d, d)))
        self.wv = Tensor(np.eye(d) + rng.normal(0.0, 1e-4, size=(d, d)))

    def tensors(self) -> dict:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv}


# ---------------------------------------------------------------------------
# builds and adapter instances


# Sequential and parallel bottlenecks both add to the feed-forward block's
# output.  They share the POST_FFN_RESIDUAL per-layer lists, so they apply in
# build order, and each entry there also names the hook (and so the input)
# it reads.
_FFN_BLOCK_HOOKS = (HookPoint.POST_FFN_RESIDUAL, HookPoint.PARALLEL_TO_LAYER)


class AdapterBuild(_Alloc):
    """What a config's ``build`` talks to: the allocator plus the hook
    bindings and footprint it declares.

    ``bindings`` maps a hook point to a per-layer list of entries for the
    encoder-layer hooks, and to one list of modules for the model-wide
    ``EMBEDDING_BOUNDARY`` and ``INPUT_PREPEND``.  A layer entry is
    ``(module, gate)``, with ``gate`` ``None`` unless the adapter is a gated
    union; entries of the feed-forward block list are ``(module, gate,
    hook)``.  ``source`` fills the tensors as in :class:`_Alloc`: an rng
    draws them, a mapping of arrays supplies them, and ``None`` is a dry
    run: shapes only.
    """

    def __init__(self, dims: ModelDims, source=None):
        super().__init__(source)
        self.dims = dims
        self.gated = False
        self.footprint: set = set()
        self.bindings: dict = {}

    def layers(self, sites, make: Callable) -> None:
        """Declare each ``(hook, tag, width)`` site, then for every layer,
        site by site, build ``make(name, width)`` with ``name`` =
        ``layer<l>.<tag>`` and bind it.  When :attr:`gated` is set, each
        module gets a gate named ``gate.<name>`` over the same width."""
        L = self.dims.num_layers
        targets = []
        for hook, _, _ in sites:
            self.footprint.add(hook)
            key = HookPoint.POST_FFN_RESIDUAL if hook in _FFN_BLOCK_HOOKS else hook
            targets.append(self.bindings.setdefault(key, [[] for _ in range(L)]))
        for l in range(L):
            for (hook, tag, width), per_layer in zip(sites, targets):
                name = f"layer{l}.{tag}"
                module = make(name, width)
                gate = GateModule(self, "gate." + name, width) if self.gated else None
                per_layer[l].append((module, gate, hook) if hook in _FFN_BLOCK_HOOKS
                                    else (module, gate))

    def once(self, hook: HookPoint, module) -> None:
        """Bind one model-wide module (prompt rows, an invertible coupling)."""
        self.footprint.add(hook)
        self.bindings.setdefault(hook, []).append(module)


class AdapterInstance:
    """All tensors and hook bindings of one named adapter, as its build
    declared them (see :class:`AdapterBuild` for the ``bindings`` layout)."""

    def __init__(self, name: str, config: AdapterConfig, dims: ModelDims,
                 build: AdapterBuild):
        self.name = name
        self.config = config
        self.dims = dims
        self.tensors: dict[str, Tensor] = build.tensors
        self.bindings: dict = build.bindings
        self.footprint = frozenset(build.footprint)
        self.merged = False

    # -- queries -----------------------------------------------------------

    def at(self, hook: HookPoint, layer: int):
        """The entries bound at an encoder-layer ``hook`` in ``layer``."""
        per_layer = self.bindings.get(hook)
        return per_layer[layer] if per_layer is not None else ()

    def num_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def set_requires_grad(self, flag: bool) -> None:
        for t in self.tensors.values():
            t.requires_grad = flag

    @property
    def grows_sequence(self) -> bool:
        return HookPoint.INPUT_PREPEND in self.footprint

    @property
    def touches_attention(self) -> bool:
        return bool(self.footprint & ATTENTION_HOOKS)

    def has_lora(self) -> bool:
        return any(self.at(hook, l) for hook in (HookPoint.ATTN_Q_PROJ, HookPoint.ATTN_V_PROJ)
                   for l in range(self.dims.num_layers))

    def prompt_length(self) -> int:
        return sum(p.length for p in self.bindings.get(HookPoint.INPUT_PREPEND, ()))

    @cached_property
    def first_stage(self) -> Optional[Stage]:
        """The first stage this adapter acts at, with what its hooks read
        there, in a layer before the last; None when it acts at the
        embedding or not before the last layer."""
        if self.footprint & {HookPoint.INPUT_PREPEND, HookPoint.EMBEDDING_BOUNDARY}:
            return None
        for l in range(self.dims.num_layers - 1):
            attn = [entry for hook in ATTENTION_HOOKS for entry in self.at(hook, l)]
            if attn:    # a projection delta, or a gate, reads the layer-normed input
                reads_x = (any(self.at(hook, l) for hook in (HookPoint.ATTN_Q_PROJ,
                                                              HookPoint.ATTN_V_PROJ))
                           or any(entry[1] is not None for entry in attn))
                return Stage(l, ATTENTION, frozenset({"x"} if reads_x else ()))
            if any(self.at(hook, l) for hook in (HookPoint.POST_ATTN_RESIDUAL,
                                                 HookPoint.FFN_INTERMEDIATE_SCALE)):
                return Stage(l, ATTENTION_RESIDUAL)
            ffn = self.at(HookPoint.POST_FFN_RESIDUAL, l)
            if ffn:
                parallel = any(hook is HookPoint.PARALLEL_TO_LAYER for _, _, hook in ffn)
                return Stage(l, FFN_RESIDUAL, frozenset({"f_in"} if parallel else ()))
        return None


def instantiate_adapter(name: str, config: AdapterConfig, dims: ModelDims,
                        source) -> AdapterInstance:
    """Validate ``config`` on ``dims``, then run its build and bind its
    modules.  ``source`` is an rng, which initializes every tensor, or a
    mapping of name -> array, which must hold exactly the tensors the
    build declares, each with its declared shape; then nothing is drawn."""
    from .configs import validate_config      # configs imports this module
    validate_config(config, dims)
    build = AdapterBuild(dims, source)
    config.build(build)
    if source is not None and not isinstance(source, np.random.Generator):
        extra = sorted(set(source) - set(build.shapes))
        if extra:
            raise ValueError(f"arrays given for tensors the build does not declare: "
                             f"{extra[:3]}")
    return AdapterInstance(name, config, dims, build)
