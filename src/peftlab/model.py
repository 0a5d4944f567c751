"""Minimal pre-norm transformer encoder with named adapter hook points.

The encoder is deliberately small and deterministic: GELU feed-forward,
learned absolute positions, no dropout.  Every place an adapter method can
intervene is routed through an optional context object (see
``peftlab.routing``); with no context the encoder runs the plain computation.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor


class InputError(ValueError):
    """Token ids outside the vocabulary, malformed batches, and similar."""


class CapacityError(ValueError):
    """Sequence (after any prepended rows) exceeds the positional table."""


@dataclass(frozen=True)
class ModelDims:
    """Architecture extents.  ``num_layers`` may be zero so parameter
    counts can be evaluated on degenerate shapes."""

    num_layers: int
    hidden: int
    heads: int
    intermediate: int
    vocab: int
    max_seq: int = 128

    def __post_init__(self):
        if self.num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {self.num_layers}")
        for fname in ("hidden", "heads", "intermediate", "vocab", "max_seq"):
            v = getattr(self, fname)
            if v < 1:
                raise ValueError(f"{fname} must be >= 1, got {v}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden={self.hidden} not divisible by heads={self.heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelDims":
        return ModelDims(**{k: int(v) for k, v in d.items()})


# Small dims for training and tests; the large preset exists so parameter
# audits can be run at standard encoder extents without ever instantiating
# the weights.
DESK_DIMS = ModelDims(num_layers=2, hidden=64, heads=4, intermediate=128, vocab=1000, max_seq=128)
ROBERTA_BASE_DIMS = ModelDims(
    num_layers=12, hidden=768, heads=12, intermediate=3072, vocab=50265, max_seq=514
)
DIM_PRESETS = {"desk": DESK_DIMS, "roberta-base": ROBERTA_BASE_DIMS}


class HookPoint(Enum):
    """Named interception points inside the encoder."""

    EMBEDDING_BOUNDARY = "embedding_boundary"   # invertible transforms at entry/exit
    INPUT_PREPEND = "input_prepend"             # trainable rows before position 0
    ATTN_Q_PROJ = "attn_q_proj"                 # low-rank delta on the query projection
    ATTN_V_PROJ = "attn_v_proj"                 # low-rank delta on the value projection
    ATTN_KV = "attn_kv"                         # per-layer key/value prepending
    ATTN_KEYS_SCALE = "attn_keys_scale"         # elementwise rescale of keys
    ATTN_VALUES_SCALE = "attn_values_scale"     # elementwise rescale of values
    FFN_INTERMEDIATE_SCALE = "ffn_intermediate_scale"
    POST_ATTN_RESIDUAL = "post_attn_residual"   # bottleneck after the attention residual
    POST_FFN_RESIDUAL = "post_ffn_residual"     # bottleneck after the feed-forward residual
    PARALLEL_TO_LAYER = "parallel_to_layer"     # delta computed from the block input


ATTENTION_HOOKS = frozenset(
    {
        HookPoint.ATTN_Q_PROJ,
        HookPoint.ATTN_V_PROJ,
        HookPoint.ATTN_KV,
        HookPoint.ATTN_KEYS_SCALE,
        HookPoint.ATTN_VALUES_SCALE,
    }
)

_MASK_BIG = 1e9

# Where, inside a layer, an encode can start from stored activations (see
# Stage): at the layer's attention inputs, after its attention residual, or
# after its feed-forward residual, before the hook there.
ATTENTION, ATTENTION_RESIDUAL, FFN_RESIDUAL = range(3)

# Sequences per batch while TransformerEncoder.prefix computes activations:
# a sequence's bits do not depend on its batch, and 64 rows of 32 tokens keep
# the temporaries (attention scores, the feed-forward width) near 2 MB each.
PREFIX_CHUNK = 64


class Stage(NamedTuple):
    """A point where an encode can start from activations computed earlier:
    ``point`` (``ATTENTION``, ``ATTENTION_RESIDUAL`` or ``FFN_RESIDUAL``) of
    layer ``layer``.  The rest of the encode reads the residual stream ``h``
    there, ``q``, ``k`` and ``v`` at ``ATTENTION``, and the names in
    ``reads``: ``"x"``, the layer-normed input, when an attention hook reads
    it, and ``"f_in"``, the feed-forward block's input, when a parallel
    adapter does."""

    layer: int
    point: int
    reads: frozenset = frozenset()

    @property
    def position(self) -> int:
        """Stages in encoder order: earlier stages have lower positions."""
        return 3 * self.layer + self.point

    @property
    def arrays(self) -> tuple:
        """The names of the activations stored for this stage."""
        kept = ("h", "q", "k", "v") if self.point == ATTENTION else ("h",)
        return kept + tuple(sorted(self.reads))

    def serves(self, need: "Stage") -> bool:
        """Whether activations stored here can start an encode whose setup
        first acts at ``need``: an earlier stage, or the same one holding
        every array read there."""
        return (self.position < need.position
                or (self.position == need.position and self.reads >= need.reads))


@dataclass(frozen=True)
class Activations:
    """What :meth:`TransformerEncoder.encode` reads to start at ``stage``,
    one row per sequence: name (see :attr:`Stage.arrays`) -> a (sequences,
    positions, width) array."""

    stage: Stage
    arrays: dict

    def take(self, rows) -> "Activations":
        """The activations of ``rows`` (a slice or an index array) of the
        sequences, in that order."""
        return Activations(self.stage, {k: a[rows] for k, a in self.arrays.items()})


@dataclass
class EncoderState:
    """Result of one encode call."""

    hidden: Tensor                      # (rows, seq', hidden) final hidden states
    prompt_len: int                     # number of prepended rows at the front
    seq_len: int                        # original token count per row
    branches: list = field(default_factory=list)   # [(label or None, row_count)]
    # Pooled readout: ``hidden`` holds only positions [window_start,
    # window_start + 2), which include the pooled one.  None: every position.
    window_start: Optional[int] = None


CLASSIFICATION = "classification"
REGRESSION = "regression"
TAGGING = "tagging"
HEAD_KINDS = (CLASSIFICATION, REGRESSION, TAGGING)


class PredictionHead:
    """Single affine readout bound to a name.

    Classification and regression heads read the first non-prepended
    position; tagging heads read every real token position.
    """

    def __init__(self, name: str, kind: str, num_labels: int, hidden: int, source):
        """``source`` is an rng, which draws ``w`` (``b`` starts at zero),
        or a mapping that holds ``w`` and ``b``, checked by
        :func:`given_array`."""
        if kind not in HEAD_KINDS:
            raise InputError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")
        if num_labels < 1:
            raise InputError(f"num_labels must be >= 1, got {num_labels}")
        self.name = name
        self.kind = kind
        self.num_labels = num_labels
        if isinstance(source, np.random.Generator):
            w, b = source.normal(0.0, 0.02, size=(hidden, num_labels)), np.zeros(num_labels)
        else:
            w = given_array(source, "w", (hidden, num_labels))
            b = given_array(source, "b", (num_labels,))
        self.w = Tensor(w)
        self.b = Tensor(b)

    def tensors(self) -> dict:
        return {"w": self.w, "b": self.b}

    def logits(self, state: EncoderState, rows: Optional[slice] = None) -> Tensor:
        h = state.hidden
        if rows is not None:
            h = T.narrow(h, 0, rows.start, rows.stop - rows.start)
        if self.kind == TAGGING:
            if state.window_start is not None:
                raise InputError(f"tagging head {self.name!r} reads every position, but "
                                 f"the state holds only the pooled window")
            tokens = T.narrow(h, 1, state.prompt_len, state.seq_len)
            return T.linear(tokens, self.w, self.b)
        pooled = T.narrow(h, 1, state.prompt_len - (state.window_start or 0), 1)
        pooled = T.reshape(pooled, (h.shape[0], h.shape[2]))
        return T.linear(pooled, self.w, self.b)


def given_array(arrays, name: str, shape: tuple) -> np.ndarray:
    """``arrays[name]`` as the float64 array a tensor holds, which is the
    given array itself when it is C-contiguous float64; :class:`InputError`
    when there is none or its shape is not ``shape``."""
    if name not in arrays:
        raise InputError(f"no array given for {name!r}")
    if arrays[name].shape != tuple(shape):
        raise InputError(f"{name!r} is given with shape {arrays[name].shape}, "
                         f"expected {tuple(shape)}")
    return np.ascontiguousarray(arrays[name], dtype=np.float64)


def encoder_shapes(dims: ModelDims) -> dict:
    """Name -> shape of every encoder parameter, in allocation order, from
    ``dims`` alone."""
    d, dff = dims.hidden, dims.intermediate
    shapes = {"embed.token": (dims.vocab, d), "embed.position": (dims.max_seq, d)}
    for l in range(dims.num_layers):
        pre = f"layer{l}."
        shapes.update({pre + "ln1.g": (d,), pre + "ln1.b": (d,)})
        for proj in "qkvo":
            shapes.update({pre + f"attn.w{proj}": (d, d), pre + f"attn.b{proj}": (d,)})
        shapes.update({pre + "ln2.g": (d,), pre + "ln2.b": (d,),
                       pre + "ffn.w1": (d, dff), pre + "ffn.b1": (dff,),
                       pre + "ffn.w2": (dff, d), pre + "ffn.b2": (d,)})
    shapes.update({"final_ln.g": (d,), "final_ln.b": (d,)})
    return shapes


class TransformerEncoder:
    """Pre-norm encoder: ``x + Attn(LN(x))`` then ``x + FFN(LN(x))`` per
    layer, with a final layer norm.  Weights are seeded and deterministic,
    or, given ``state``, the arrays it holds: checked as
    :meth:`load_state_array` checks them, and nothing is drawn."""

    def __init__(self, dims: ModelDims, seed: int = 0, state: Optional[dict] = None):
        self.dims = dims
        shapes = encoder_shapes(dims)
        if state is None:
            rng = np.random.default_rng(seed)
            state = {}
            for name, shape in shapes.items():
                leaf = name.rsplit(".", 1)[1]          # gains start at 1, biases at 0
                state[name] = (np.ones(shape) if leaf == "g" else np.zeros(shape)
                               if leaf[0] == "b" else rng.normal(0.0, 0.02, size=shape))
        self.params: dict[str, Tensor] = {
            name: Tensor(given_array(state, name, shape), name=name)
            for name, shape in shapes.items()}

    # -- parameter bookkeeping -------------------------------------------

    def parameter_items(self):
        return self.params.items()

    def num_params(self) -> int:
        return sum(t.size for t in self.params.values())

    def set_requires_grad(self, flag: bool) -> None:
        for t in self.params.values():
            t.requires_grad = flag

    def state_array(self) -> dict:
        return {k: t.data.copy() for k, t in self.params.items()}

    def load_state_array(self, state: dict) -> None:
        """Point every parameter at the array ``state`` holds under its
        name, checked by :func:`given_array`; the arrays are kept, not
        copied, when they are C-contiguous float64."""
        for k, t in self.params.items():
            t.data = given_array(state, k, t.data.shape)

    # -- forward ----------------------------------------------------------

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise InputError(f"tokens must be 2-D (batch, seq), got shape {tokens.shape}")
        if not np.issubdtype(tokens.dtype, np.integer):
            raise InputError(f"tokens must be integers, got dtype {tokens.dtype}")
        if tokens.size == 0:
            raise InputError("empty token batch")
        lo, hi = int(tokens.min()), int(tokens.max())
        if lo < 0 or hi >= self.dims.vocab:
            raise InputError(f"token id out of range [0, {self.dims.vocab}): saw {lo}..{hi}")
        if tokens.shape[1] > self.dims.max_seq:
            raise CapacityError(
                f"sequence length {tokens.shape[1]} exceeds max_seq {self.dims.max_seq}"
            )
        return tokens

    def _attn_core(self, q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray,
                   window: Optional[tuple] = None) -> Tensor:
        """Multi-head scaled dot-product attention over flat (B, S, d)
        projections.  ``key_mask`` has shape (B, S_k); masked keys receive
        (numerically) zero weight via a large negative score offset.
        ``window`` is :func:`~peftlab.tensor.attention`'s query window."""
        bias = (key_mask.astype(np.float64) - 1.0) * _MASK_BIG
        return T.attention(q, k, v, bias, self.dims.heads, window)

    def encode(self, tokens, mask=None, ctx=None, pooled: bool = False,
               start: Optional[Activations] = None) -> EncoderState:
        """Run the encoder; ``ctx`` (if given) routes every hook point.

        ``pooled`` asks for a state that only a head reading the pooled
        position (the first one after any prepended rows: classification
        and regression) can use.  The last layer still computes LN1, q, k,
        v, the attention hook and the attention scores for every position,
        since keys and values need them all.  From the softmax on, the
        attention context, ``wo``, the residuals, the hooks after attention,
        LN2, the feed-forward block, the final layer norm and the exit stage
        run only on a two-position window that holds the pooled position,
        and ``state.window_start`` says where it starts.  Two positions, not
        one, keep every product matrix-matrix, so the window equals those
        positions of the full path bit for bit.

        Under a tape the window is the tape's ``row_window`` from the
        attention context to the exit stage, so the products there, and the
        attention's, run their backward at full length with zero rows
        outside the window, the rows whose gradient the full path leaves
        zero.  Every gradient then equals the full path's bit for bit.

        The full path is kept when the sequence has at most two positions
        after any prepended rows (the window would then hold the last
        position, and the Haswell-class OpenBLAS kernels round the last row
        of an odd-row product differently from a two-row one), there are
        no layers, or ``ctx``'s plan
        cannot pool (a ``Split``, which routes by position, or a gate that
        averages over every position after the last attention).

        ``start``, from :meth:`prefix` over these ``tokens`` and ``mask``
        (rows taken in the same order), skips everything before its stage:
        the encode starts there from the stored activations instead of
        recomputing the frozen layers below it.  Only a ``ctx`` whose plan
        starts at that stage or later (``Plan.start``), over frozen
        weights, gives the same bits as the full encode; the caller checks
        that.  A sequence's activations do not depend on the batch it is
        computed in, so the bits are those of the full encode."""
        return self._forward(tokens, mask, ctx, pooled, start, None)

    def prefix(self, tokens, stage, mask=None):
        """The activations at ``stage`` of ``tokens`` with no adapter: what
        :meth:`encode` reads to start there.  ``stage`` may also be a list
        of stages, which gives a tuple of their activations, in that order,
        from one walk up to the latest of them.  They are computed
        ``PREFIX_CHUNK`` sequences at a time into one array per name, since
        a sequence's activations do not depend on its batch."""
        stages = [stage] if isinstance(stage, Stage) else list(stage)
        tokens = self._check_tokens(tokens)
        out = [{} for _ in stages]
        for off in range(0, tokens.shape[0] if stages else 0, PREFIX_CHUNK):
            rows = slice(off, off + PREFIX_CHUNK)
            parts = self._forward(tokens[rows], None if mask is None else mask[rows],
                                  None, False, None, stages)
            for held, part in zip(out, parts):
                for name, a in part.items():
                    if name not in held:
                        held[name] = np.empty((tokens.shape[0],) + a.shape[1:])
                    held[name][rows] = a
        acts = tuple(Activations(st, held) for st, held in zip(stages, out))
        return acts[0] if isinstance(stage, Stage) else acts

    def _forward(self, tokens, mask, ctx, pooled: bool, start: Optional[Activations],
                 stops: Optional[list]):
        """The encoder's one layer loop: :meth:`encode` from the embedding,
        or from ``start``'s stage, to the exit; or, with ``stops``, from the
        embedding to the latest of those stages, returning the arrays each
        stores, in their order."""
        tokens = self._check_tokens(tokens)
        B, S = tokens.shape
        if mask is None:
            mask = np.ones((B, S))
        else:
            mask = np.asarray(mask, dtype=np.float64)
            if mask.shape != (B, S):
                raise InputError(f"mask shape {mask.shape} != tokens shape {(B, S)}")

        p = self.params
        begin = -1 if start is None else start.stage.position
        stops = stops or []
        stored = [None] * len(stops)
        due = {st.position for st in stops}
        end = max(due, default=None)
        if start is None:
            tok = T.gather_rows(p["embed.token"], tokens)
            pos = T.gather_rows(p["embed.position"], np.tile(np.arange(S), (B, 1)))
            h = tok + pos
        else:
            held = {name: Tensor(a) for name, a in start.arrays.items()}
            h = held["h"]
        state = EncoderState(hidden=h, prompt_len=0, seq_len=S,
                             branches=[(None, B)])
        if ctx is not None and start is None:
            h, mask = ctx.embedding_stage(h, mask, state)
            if state.prompt_len + S > self.dims.max_seq:
                raise CapacityError(
                    f"sequence {S} + prepended rows {state.prompt_len} exceeds "
                    f"max_seq {self.dims.max_seq}"
                )
        elif ctx is not None:
            state.branches = ctx.plan.branches

        def reached(position, **arrays):
            """Store the arrays of every stop at ``position``; whether it is
            the last."""
            for i, st in enumerate(stops):
                if st.position == position:
                    stored[i] = {name: arrays[name].data for name in st.arrays}
            return position == end

        last = self.dims.num_layers - 1
        pool = pooled and S > 2 and (ctx is None or ctx.plan.pools)
        tape = Tape.current()
        with ExitStack() as scope:
            for l in range(self.dims.num_layers):
                at = 3 * l          # the position of this layer's ATTENTION stage
                if begin > at + FFN_RESIDUAL:
                    continue
                pre = f"layer{l}."
                if begin < at:
                    x = T.layer_norm(h, p[pre + "ln1.g"], p[pre + "ln1.b"])
                    q = T.linear(x, p[pre + "attn.wq"], p[pre + "attn.bq"])
                    k = T.linear(x, p[pre + "attn.wk"], p[pre + "attn.bk"])
                    v = T.linear(x, p[pre + "attn.wv"], p[pre + "attn.bv"])
                elif begin == at:
                    x, q, k, v = (held.get(name) for name in ("x", "q", "k", "v"))
                if at in due and reached(at, h=h, x=x, q=q, k=k, v=v):
                    return stored
                if begin <= at:
                    core = self._attn_core
                    window = None
                    if pool and l == last:
                        state.window_start = state.prompt_len
                        window = (state.window_start, 2)
                        core = partial(self._attn_core, window=window)
                        full, h = h.shape[1], T.narrow(h, 1, *window)
                    if ctx is not None:
                        attn = ctx.attention(l, x, q, k, v, mask, core)
                    else:
                        attn = core(q, k, v, mask)
                    if window is not None and tape is not None:
                        scope.enter_context(tape.row_window(*window, full))
                    attn = T.linear(attn, p[pre + "attn.wo"], p[pre + "attn.bo"])
                    h = h + attn
                if at + ATTENTION_RESIDUAL in due and reached(at + ATTENTION_RESIDUAL, h=h):
                    return stored
                if begin <= at + ATTENTION_RESIDUAL:
                    if ctx is not None:
                        h = ctx.post_attention(l, h)
                    f_in = h
                    y = T.layer_norm(h, p[pre + "ln2.g"], p[pre + "ln2.b"])
                    inter = T.linear(y, p[pre + "ffn.w1"], p[pre + "ffn.b1"])
                    if ctx is not None:
                        inter = ctx.ffn_intermediate(l, inter)
                    ffn = T.linear(T.gelu(inter), p[pre + "ffn.w2"], p[pre + "ffn.b2"])
                    h = f_in + ffn
                else:
                    f_in = held.get("f_in")
                if at + FFN_RESIDUAL in due and reached(at + FFN_RESIDUAL, h=h, f_in=f_in):
                    return stored
                if ctx is not None:
                    h = ctx.ffn_block(l, h, f_in)

            h = T.layer_norm(h, p["final_ln.g"], p["final_ln.b"])
            if ctx is not None:
                h = ctx.exit_stage(h)

        state.hidden = h
        return state
