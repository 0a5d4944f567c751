"""Composition trees over named adapters.

Six block kinds combine adapters at runtime:

* ``Stack``       children applied in sequence on the same activations
* ``Fuse``        attention-weighted mix of the children's outputs
* ``Split``       children own disjoint token ranges
* ``BatchSplit``  children own disjoint sub-batches
* ``Parallel``    input replicated once per child; branches stay separate
* ``Average``     weighted sum of the children's outputs

Nesting rules (validated exhaustively):

* a bare adapter name (leaf) is allowed everywhere;
* ``Stack``/``Parallel``/``BatchSplit``/``Average`` may contain leaves and
  each other;
* ``Fuse`` and ``Split`` admit only leaves as children.

:func:`validate_composition` checks every rule in one walk of the tree (and,
given a batch, in its row maps) and returns a :class:`Plan`: the resolved
adapters, the rows each block hands its children, the normalised
``Average`` weights, the fusion layers, the prepended prompts, the branch
list, whether the encoder's pooled readout may run and the first stage any
adapter acts at.  :mod:`peftlab.routing` and the encoder only read it.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .configs import SEQUENTIAL, BottleneckConfig
from .methods import StateError
from .model import HookPoint, Stage

log = logging.getLogger(__name__)


class CompositionError(ValueError):
    """A composition tree violates structure, arithmetic, or method rules."""


@dataclass(frozen=True)
class Leaf:
    adapter: str


def _as_node(x):
    if isinstance(x, str):
        return Leaf(x)
    if isinstance(x, (Leaf, Stack, Fuse, Split, BatchSplit, Parallel, Average)):
        return x
    raise CompositionError(f"not a composition node or adapter name: {x!r}")


class _Block:
    """Shared container behavior: positional children, value equality."""

    def __init__(self, *children):
        if not children:
            raise CompositionError(f"{type(self).__name__} needs at least one child")
        self.children = tuple(_as_node(c) for c in children)

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.children))})"


class Stack(_Block):
    pass


class Parallel(_Block):
    pass


class Fuse(_Block):
    pass


def _whole(values, what: str) -> tuple:
    """``values`` as ints, each of which must be a finite whole number."""
    try:
        values = tuple(values)
        out = tuple(int(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != values:
        raise CompositionError(f"{what} must be whole numbers, got {values!r}")
    return out


class Split(_Block):
    def __init__(self, *children, splits):
        super().__init__(*children)
        self.splits = _whole(splits, "Split ranges")

    def __repr__(self):
        inner = ", ".join(map(repr, self.children))
        return f"Split({inner}, splits={list(self.splits)})"


class BatchSplit(_Block):
    def __init__(self, *children, batch_sizes):
        super().__init__(*children)
        self.batch_sizes = _whole(batch_sizes, "BatchSplit sizes")

    def __repr__(self):
        inner = ", ".join(map(repr, self.children))
        return f"BatchSplit({inner}, batch_sizes={list(self.batch_sizes)})"


class Average(_Block):
    def __init__(self, *children, weights=None):
        super().__init__(*children)
        if weights is None:
            weights = [1.0 / len(self.children)] * len(self.children)
        self.weights = tuple(float(w) for w in weights)

    def __repr__(self):
        inner = ", ".join(map(repr, self.children))
        return f"Average({inner}, weights={list(self.weights)})"


_CONTAINER_KINDS = (Stack, Parallel, BatchSplit, Average)

# Blocks nest at most this deep, so that every walk over a tree, compiled or
# routed, stays far inside Python's recursion limit.
MAX_DEPTH = 100

# parent kind -> child kinds admitted by the v1 nesting table
NESTING_TABLE = {
    Stack: (Leaf,) + _CONTAINER_KINDS,
    Parallel: (Leaf,) + _CONTAINER_KINDS,
    BatchSplit: (Leaf,) + _CONTAINER_KINDS,
    Average: (Leaf,) + _CONTAINER_KINDS,
    Fuse: (Leaf,),
    Split: (Leaf,),
}


def leaves(node) -> list:
    if isinstance(node, Leaf):
        return [node.adapter]
    out = []
    for c in node.children:
        out.extend(leaves(c))
    return out


# ---------------------------------------------------------------------------
# compiled route plans


@dataclass(eq=False)
class PlanNode:
    """One node of a compiled setup, holding everything the router reads."""

    kind: type                 # Leaf or the block class
    children: tuple = ()
    inst: object = None        # Leaf: its AdapterInstance
    attn: bool = False         # some leaf below modifies attention
    replicates: bool = False   # some Parallel below has two or more children
    sizes: tuple = ()          # Split: token widths; BatchSplit: input rows per child
    src: tuple = ()            # with a batch: the input row each output row copies
    takes: tuple = ()          # Parallel, BatchSplit: each child's rows of those routed
                               # here, a slice where contiguous
    join: np.ndarray = None    # Parallel, BatchSplit: the order of the joined rows, if new
    weights: tuple = ()        # Average: the weights normalised to sum to one
    fusion: object = None      # Fuse: its FusionLayer
    members: tuple = ()        # Stack: the children, nested Stacks flattened


@dataclass
class Plan:
    """A validated setup.  Row counts and row maps hold only when it was
    compiled for a batch; ``fused`` holds ``(member names, FusionLayer)`` per
    ``Fuse``."""

    root: PlanNode = None
    prompts: list = field(default_factory=list)     # prepended-row modules, outermost first
    branches: list = field(default_factory=list)    # [(label, rows)] over the output rows
    leaf_names: list = field(default_factory=list)
    fused: list = field(default_factory=list)
    # The encoder may finish its last layer on the pooled window alone: no
    # Split (it routes by position) and no gate read after that layer's
    # attention (a gate averages its source over every position).
    pools: bool = True
    # The hook points where routing can change a value: every hook a leaf
    # binds, and every hook when an Average, whose weighted sum rounds, is
    # in the setup.  Elsewhere routing only slices and joins copies of rows.
    hooks: set = field(default_factory=set)
    # For a setup that replicates rows (Parallel), compiled for a batch: the
    # input row that each routed row copies (the root's src), the map the
    # encoder applies where routing begins (start, or the embedding).
    row_index: Optional[np.ndarray] = None
    # Some Parallel or BatchSplit hands its children rows by their index in
    # the batch.  Without one the setup has a single output branch, and a
    # sequence's output does not depend on the other rows of its batch.
    routes_rows: bool = False

    @cached_property
    def start(self) -> Optional[Stage]:
        """The first stage the setup acts at, below which an encode over a
        frozen base computes only frozen layers: the encoder routes from
        there on, copies the rows there by :attr:`row_index`, and can start
        there from activations computed earlier
        (``TransformerEncoder.prefix``).  None: it acts at the embedding
        (prompts, invertible couplings, ``Average``'s weighted sums), or
        only in the last layer, where the pooled window begins.  A setup
        that replicates rows (``Parallel``) starts at its earliest leaf's
        stage, so its branches share the frozen layers below it.  Worked
        out when first asked."""
        return _start(self.root)


class _Rows(NamedTuple):
    """A row count ``per_batch * batch + fixed``; ``per_batch`` is 0
    throughout when the batch is known."""

    per_batch: int
    fixed: int

    def __add__(self, other):
        return _Rows(self.per_batch + other.per_batch, self.fixed + other.fixed)

    def __str__(self):
        if not self.per_batch:
            return str(self.fixed)
        return f"{self.per_batch}*batch" + (f"+{self.fixed}" if self.fixed else "")

    def count(self):
        return None if self.per_batch else self.fixed


def _can_agree(counts) -> bool:
    """Whether the row counts are all equal for some batch size >= 1."""
    a0, c0 = counts[0]
    for a, c in counts[1:]:
        if a != a0:
            b, rem = divmod(c - c0, a0 - a)
            return rem == 0 and b >= 1 and len({x * b + y for x, y in counts}) == 1
    return all(c == c0 for _, c in counts)


class _Compiler:
    """The single walk behind :func:`validate_composition`."""

    def __init__(self, resolve, seq, fusion_exists):
        self.resolve = resolve
        self.seq = seq
        self.fusion_exists = fusion_exists
        self.plan = Plan()

    def walk(self, node, rows: _Rows, ancestors: tuple, branches=None):
        """Check ``node`` entered by ``rows`` rows under ``ancestors`` (block
        kinds, outermost first).  Returns its plan node, its output rows and
        its branch list.  ``branches`` is the branch list a ``Stack``'s rows
        enter with, so that a nested Stack folds it like a flat one."""
        if isinstance(node, Leaf):
            return self.leaf(node, rows, ancestors)
        kind = type(node)
        if len(ancestors) >= MAX_DEPTH:
            raise CompositionError(f"blocks nest more than {MAX_DEPTH} deep")
        allowed = NESTING_TABLE[kind]
        for c in node.children:
            if not isinstance(c, allowed):
                raise CompositionError(
                    f"{kind.__name__} may not contain {type(c).__name__}; "
                    f"allowed children: {', '.join(k.__name__ for k in allowed)}"
                )
        within = ancestors + (kind,)
        pn = PlanNode(kind)

        if kind is Stack:
            children, members, out = [], [], rows
            branches = branches or [(None, rows)]
            for c in node.children:
                sub, out, sub_branches = self.walk(c, out, within, branches)
                children.append(sub)
                members.extend(sub.members if sub.kind is Stack else (sub,))
                # a leaf labels the current rows; a branching block, or a
                # nested Stack folding on from them, replaces them; any other
                # block keeps a single label over its output, or its own
                # when it copies rows under several
                if isinstance(c, Leaf):
                    branches = [(c.adapter, r) for _, r in branches]
                elif isinstance(c, (Parallel, BatchSplit, Stack)):
                    branches = sub_branches
                elif len(branches) == 1:
                    branches = [(branches[0][0], out)]
                elif sub.replicates:
                    branches = sub_branches
            # the attention hook runs the members in order until the first
            # block that modifies attention, then hands the rows to that block
            attention_blocks = [m.kind is not Leaf for m in members if m.attn]
            if any(attention_blocks[:-1]):
                raise CompositionError(
                    "within a Stack, attention-modifying members must come before "
                    "any block that modifies attention"
                )
            pn.members = tuple(members)

        elif kind is Parallel or kind is BatchSplit:
            self.plan.routes_rows = True
            if kind is BatchSplit:
                _check_batch_split(node, rows)
                pn.sizes = node.batch_sizes
                inputs = [_Rows(0, s) for s in node.batch_sizes]
            else:
                inputs = [rows] * len(node.children)
            walked = [self.walk(c, r, within) for c, r in zip(node.children, inputs)]
            children = [w[0] for w in walked]
            out = sum((w[1] for w in walked), _Rows(0, 0))
            branches = [b for w in walked for b in w[2]]

        elif kind is Average:
            pn.weights = _average_weights(node)
            self.plan.hooks.update(HookPoint)
            walked = [self.walk(c, rows, within) for c in node.children]
            children = [w[0] for w in walked]
            outs = [w[1] for w in walked]
            if not _can_agree(outs):
                raise CompositionError(
                    f"Average children disagree on output rows: {', '.join(map(str, outs))}"
                )
            out = outs[0]
            branches = [(None, out)]

        else:   # Split, Fuse: leaf children on the same rows
            if kind is Split:
                _check_split(node, self.seq)
                pn.sizes = node.splits
                self.plan.pools = False
            children = [self.walk(c, rows, within)[0] for c in node.children]
            if kind is Fuse:
                names = tuple(c.adapter for c in node.children)
                if self.fusion_exists is not None:
                    pn.fusion = self.fusion_exists(names)
                    if not pn.fusion:
                        raise StateError(
                            f"no fusion layer exists for {names}; create one before "
                            f"activating Fuse"
                        )
                self.plan.fused.append((names, pn.fusion))
            out = rows
            branches = [(None, out)]

        pn.children = tuple(children)
        pn.attn = any(c.attn for c in children)
        pn.replicates = (kind is Parallel and len(children) > 1) or any(
            c.replicates for c in children)
        return pn, out, branches

    def leaf(self, node: Leaf, rows: _Rows, ancestors: tuple):
        name = node.adapter
        try:
            inst = self.resolve(name)
        except KeyError:
            raise CompositionError(f"unknown adapter id {name!r}") from None
        kinds = set(ancestors)
        if inst.grows_sequence and kinds - {Stack}:
            raise CompositionError(
                f"adapter {name!r} prepends input rows and composes only under Stack"
            )
        if Split in kinds and (inst.touches_attention or inst.grows_sequence):
            raise CompositionError(
                f"adapter {name!r} modifies attention internals and cannot "
                f"be routed through token ranges (Split)"
            )
        if Fuse in kinds:
            cfg = inst.config
            ok = (
                isinstance(cfg, BottleneckConfig)
                and cfg.placement == SEQUENTIAL
                and not cfg.with_invertible
            )
            if not ok:
                raise CompositionError(
                    f"Fuse children must be plain sequential bottleneck adapters; "
                    f"{name!r} is not"
                )
        if inst.merged:
            raise StateError(
                f"adapter {name!r} is merged into the base weights; unmerge it before composing"
            )
        self.plan.leaf_names.append(name)
        self.plan.hooks.update(inst.footprint)
        # prompt adapters sit under Stacks only, so leaf order is prompt order
        self.plan.prompts.extend(inst.bindings.get(HookPoint.INPUT_PREPEND, ()))
        last = inst.dims.num_layers - 1
        if last >= 0 and any(entry[1] is not None for hook in _AFTER_ATTENTION
                             for entry in inst.at(hook, last)):
            self.plan.pools = False
        pn = PlanNode(Leaf, inst=inst, attn=inst.touches_attention)
        return pn, rows, [(name, rows)]


_AFTER_ATTENTION = (HookPoint.POST_ATTN_RESIDUAL, HookPoint.FFN_INTERMEDIATE_SCALE,
                    HookPoint.POST_FFN_RESIDUAL)


def _start(node: PlanNode) -> Optional[Stage]:
    """The first stage a leaf under ``node`` acts at (see :attr:`Plan.start`)."""
    if node.kind is Leaf:
        return node.inst.first_stage
    # Every other block only slices, joins or copies rows or positions at a
    # hook where no leaf below acts, which keeps the bits.
    if node.kind is Average:
        return None
    return _earliest(_start(c) for c in node.children)


def _copies(node: PlanNode, rows: int) -> tuple:
    """Record on ``node``, entered by ``rows`` rows, and below it the input
    row that each output row copies: ``Parallel`` hands every child all of
    them, ``BatchSplit`` each child its own, a ``Stack`` chains its
    children's maps and an ``Average`` takes its children's, which must
    agree.  The maps are as short as the batch, so tuples beat arrays."""
    kind, src = node.kind, tuple(range(rows))
    if kind is Stack:
        for c in node.children:
            src = tuple(src[i] for i in _copies(c, len(src)))
    elif kind is Parallel:
        src = sum((_copies(c, rows) for c in node.children), ())
    elif kind is BatchSplit:
        src, lo = (), 0
        for c, n in zip(node.children, node.sizes):
            src, lo = src + tuple(lo + i for i in _copies(c, n)), lo + n
    elif kind is Average:
        srcs = [_copies(c, rows) for c in node.children]
        if any(s != srcs[0] for s in srcs):
            raise CompositionError(
                f"Average children must copy rows alike, but their rows copy input rows "
                f"{' and '.join(map(str, map(list, srcs)))}")
        src = srcs[0]
    node.src = src
    return src


def _route(node: PlanNode, at: tuple) -> None:
    """Record ``takes`` and ``join`` on every ``Parallel`` and ``BatchSplit``
    under ``node``, whose routed rows carry its output rows ``at``, in
    order.  Every member of a ``Stack`` sees the Stack's rows, each the row
    that the later members' maps lead back to."""
    kind = node.kind
    if kind is Stack:
        for c in reversed(node.children):
            _route(c, at)
            at = tuple(c.src[i] for i in at)
    elif kind is Average:
        for c in node.children:
            _route(c, at)
    elif kind is Parallel or kind is BatchSplit:
        takes, lo = [], 0
        for c in node.children:
            hi = lo + len(c.src)
            take = [j for j, i in enumerate(at) if lo <= i < hi]
            _route(c, tuple(at[j] - lo for j in take))
            takes.append(take)
            lo = hi
        order = [j for take in takes for j in take]
        node.join = None if order == list(range(len(at))) else np.argsort(order)
        node.takes = tuple(slice(t[0], t[-1] + 1) if t[-1] - t[0] == len(t) - 1
                           else np.array(t) for t in takes)


def _earliest(stages) -> Optional[Stage]:
    """The earliest of ``stages`` (None, the embedding, comes first), reading
    what each one at that position reads."""
    stages = list(stages)
    if None in stages:
        return None
    first = min(stages, key=lambda st: st.position)
    return first._replace(reads=frozenset().union(
        *(st.reads for st in stages if st.position == first.position)))


def _check_batch_split(node, rows: _Rows) -> None:
    sizes = node.batch_sizes
    if len(sizes) != len(node.children):
        raise CompositionError(
            f"BatchSplit has {len(node.children)} children but {len(sizes)} sizes"
        )
    if any(s <= 0 for s in sizes):
        raise CompositionError(f"BatchSplit sizes must be positive, got {list(sizes)}")
    if not _can_agree([rows, _Rows(0, sum(sizes))]):
        raise CompositionError(
            f"BatchSplit sizes sum to {sum(sizes)} but the sub-batch has {rows} rows"
        )


def _check_split(node, seq) -> None:
    if len(node.splits) != len(node.children):
        raise CompositionError(
            f"Split has {len(node.children)} children but {len(node.splits)} ranges"
        )
    if any(s <= 0 for s in node.splits):
        raise CompositionError(f"Split ranges must be positive, got {list(node.splits)}")
    if seq is not None:
        total = sum(node.splits)
        if total > seq:
            raise CompositionError(
                f"Split ranges sum to {total} but the sequence has {seq} positions"
            )
        if total < seq:
            log.warning(
                "Split covers %d of %d positions; the remainder passes through unadapted",
                total, seq,
            )


def _average_weights(node) -> tuple:
    """The weights of an ``Average``, checked and normalised to sum to one."""
    if len(node.weights) != len(node.children):
        raise CompositionError(
            f"Average has {len(node.children)} children but {len(node.weights)} weights"
        )
    if not all(map(math.isfinite, node.weights)):
        raise CompositionError(f"Average weights must be finite, got {list(node.weights)}")
    if any(w < 0 for w in node.weights):
        raise CompositionError(f"Average weights must be >= 0, got {list(node.weights)}")
    total = sum(node.weights)
    if total <= 0:
        raise CompositionError("Average weights must not sum to zero")
    if not math.isfinite(total):
        raise CompositionError(f"Average weights must have a finite sum, got {total}")
    weights = np.asarray(node.weights, dtype=np.float64)
    return tuple(float(w) for w in weights / weights.sum())


def validate_composition(node, resolve, batch=None, seq=None,
                         fusion_exists=None) -> Plan:
    """Check every composition rule and compile the route plan.

    ``resolve(name)`` maps adapter ids to instances (KeyError for unknown
    ones).  ``fusion_exists(names)``, when given, returns the fusion layer
    made for that child tuple, or None.  ``batch`` and ``seq``, when given,
    are the rows and positions the setup will run on.
    """
    compiler = _Compiler(resolve, seq, fusion_exists)
    rows = _Rows(0, batch) if batch is not None else _Rows(1, 0)
    plan = compiler.plan
    plan.root, _, branches = compiler.walk(_as_node(node), rows, ())
    if batch is not None:
        _route(plan.root, tuple(range(len(_copies(plan.root, batch)))))
        plan.row_index = np.array(plan.root.src) if plan.root.replicates else None
    plan.branches = [(label, r.count()) for label, r in branches]
    return plan


# ---------------------------------------------------------------------------
# text form


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_.\-]*|[(),\[\]=]|[0-9.]+)")

_BLOCK_NAMES = {
    "Stack": Stack,
    "Fuse": Fuse,
    "Split": Split,
    "BatchSplit": BatchSplit,
    "Parallel": Parallel,
    "Average": Average,
}


# block -> its keyword list
_KEYWORDS = {Split: "splits", BatchSplit: "batch_sizes", Average: "weights"}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        return m.group(1) if m else None

    def next(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            raise CompositionError(
                f"setup parse error at offset {self.pos}: {self.text[self.pos:self.pos + 20]!r}"
            )
        self.pos = m.end()
        return m.group(1)

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise CompositionError(
                f"setup parse error at offset {self.pos}: expected {tok!r}, got {got!r}"
            )

    def done(self):
        return self.pos >= len(self.text) or not self.text[self.pos:].strip()


def parse_setup(text: str):
    """Parse the textual composition form, e.g.
    ``Stack(a, Parallel(b, c))`` or ``Average(n, o, weights=[0.3, 0.7])``."""
    toks = _Tokens(text)
    try:
        node = _parse_node(toks)
    except RecursionError:
        raise CompositionError("setup parse error: blocks nest too deeply") from None
    if not toks.done():
        raise CompositionError(
            f"setup parse error: trailing input at offset {toks.pos}: "
            f"{text[toks.pos:].strip()!r}"
        )
    return node


def _parse_number_list(toks):
    toks.expect("[")
    vals = []
    while True:
        tok = toks.next()
        try:
            vals.append(float(tok))
        except ValueError:
            raise CompositionError(f"expected a number in list, got {tok!r}") from None
        nxt = toks.next()
        if nxt == "]":
            return vals
        if nxt != ",":
            raise CompositionError(f"expected ',' or ']' in list, got {nxt!r}")


def _parse_node(toks):
    tok = toks.next()
    if tok in _BLOCK_NAMES and toks.peek() == "(":
        cls = _BLOCK_NAMES[tok]
        toks.expect("(")
        children = []
        kwargs: dict = {}
        while True:
            peeked = toks.peek()
            if peeked in _KEYWORDS.values():
                key = toks.next()
                if key in kwargs:
                    raise CompositionError(f"{tok} repeats {key}=[...]")
                toks.expect("=")
                kwargs[key] = _parse_number_list(toks)
            else:
                children.append(_parse_node(toks))
            nxt = toks.next()
            if nxt == ")":
                break
            if nxt != ",":
                raise CompositionError(f"expected ',' or ')' in {tok}, got {nxt!r}")
        key = _KEYWORDS.get(cls)
        extra = sorted(set(kwargs) - {key})
        if extra:
            raise CompositionError(f"{tok} takes no {extra[0]}=[...]")
        if key is not None and key not in kwargs and cls is not Average:
            raise CompositionError(f"{tok} needs {key}=[...]")
        return cls(*children, **kwargs)
    # bare adapter name
    if tok in ("(", ")", ",", "[", "]", "="):
        raise CompositionError(f"setup parse error: unexpected {tok!r}")
    return Leaf(tok)
