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
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

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


class Split(_Block):
    def __init__(self, *children, splits):
        super().__init__(*children)
        self.splits = tuple(int(s) for s in splits)

    def __repr__(self):
        inner = ", ".join(map(repr, self.children))
        return f"Split({inner}, splits={list(self.splits)})"


class BatchSplit(_Block):
    def __init__(self, *children, batch_sizes):
        super().__init__(*children)
        self.batch_sizes = tuple(int(s) for s in batch_sizes)

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
_LEAF_ONLY_KINDS = (Fuse, Split)

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


def fanout(node) -> int:
    """How many output rows one input row becomes under this subtree.

    ``BatchSplit`` children carry absolute sub-batch sizes, so its fanout is
    meaningful only per child; the node itself reports output rows per the
    declared total input rows.
    """
    if isinstance(node, Leaf):
        return 1
    if isinstance(node, Stack):
        f = 1
        for c in node.children:
            f *= fanout(c)
        return f
    if isinstance(node, Parallel):
        return sum(fanout(c) for c in node.children)
    if isinstance(node, (Fuse, Split, Average)):
        fans = {fanout(c) for c in node.children}
        return max(fans) if fans else 1
    if isinstance(node, BatchSplit):
        return 1  # resolved against declared batch sizes during validation
    raise CompositionError(f"unknown node kind {type(node).__name__}")


def rows_out(node, rows_in: int) -> int:
    """Output rows produced when ``rows_in`` rows enter this subtree."""
    if isinstance(node, Leaf):
        return rows_in
    if isinstance(node, Stack):
        r = rows_in
        for c in node.children:
            r = rows_out(c, r)
        return r
    if isinstance(node, Parallel):
        return sum(rows_out(c, rows_in) for c in node.children)
    if isinstance(node, BatchSplit):
        return sum(rows_out(c, s) for c, s in zip(node.children, node.batch_sizes))
    if isinstance(node, Average):
        return rows_out(node.children[0], rows_in)
    if isinstance(node, (Fuse, Split)):
        return rows_in
    raise CompositionError(f"unknown node kind {type(node).__name__}")


# ---------------------------------------------------------------------------
# validation


def _check_nesting(node) -> None:
    if isinstance(node, Leaf):
        return
    allowed = NESTING_TABLE[type(node)]
    for c in node.children:
        if not isinstance(c, allowed):
            raise CompositionError(
                f"{type(node).__name__} may not contain {type(c).__name__}; "
                f"allowed children: {', '.join(k.__name__ for k in allowed)}"
            )
        _check_nesting(c)


def _check_arithmetic(node, batch, seq) -> None:
    if isinstance(node, Leaf):
        return
    if isinstance(node, Split):
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
    if isinstance(node, BatchSplit):
        if len(node.batch_sizes) != len(node.children):
            raise CompositionError(
                f"BatchSplit has {len(node.children)} children but "
                f"{len(node.batch_sizes)} sizes"
            )
        if any(s <= 0 for s in node.batch_sizes):
            raise CompositionError(
                f"BatchSplit sizes must be positive, got {list(node.batch_sizes)}"
            )
        if batch is not None and sum(node.batch_sizes) != batch:
            raise CompositionError(
                f"BatchSplit sizes sum to {sum(node.batch_sizes)} but the "
                f"sub-batch has {batch} rows"
            )
    if isinstance(node, Average):
        if len(node.weights) != len(node.children):
            raise CompositionError(
                f"Average has {len(node.children)} children but {len(node.weights)} weights"
            )
        if any(w < 0 for w in node.weights):
            raise CompositionError(f"Average weights must be >= 0, got {list(node.weights)}")
        if sum(node.weights) <= 0:
            raise CompositionError("Average weights must not sum to zero")
        if batch is not None:
            fans = [rows_out(c, batch) for c in node.children]
        else:
            fans = [fanout(c) for c in node.children]
        if len(set(fans)) > 1:
            raise CompositionError(f"Average children disagree on output rows: {fans}")

    # Row bookkeeping for children.
    if isinstance(node, BatchSplit):
        for c, rows in zip(node.children, node.batch_sizes):
            _check_arithmetic(c, rows, seq)
    elif isinstance(node, Stack):
        rows = batch
        for c in node.children:
            _check_arithmetic(c, rows, seq)
            if rows is not None:
                rows = rows_out(c, rows)
    else:
        for c in node.children:
            _check_arithmetic(c, batch, seq)


def _check_methods(node, resolve, ancestors=()) -> None:
    """Method/block compatibility.  ``resolve(name)`` returns the adapter
    instance (or raises KeyError)."""
    if isinstance(node, Leaf):
        try:
            inst = resolve(node.adapter)
        except KeyError:
            raise CompositionError(f"unknown adapter id {node.adapter!r}") from None
        kinds = {type(a) for a in ancestors}
        if inst.grows_sequence and kinds - {Stack}:
            raise CompositionError(
                f"adapter {node.adapter!r} prepends input rows and composes only "
                f"under Stack"
            )
        if Split in kinds and (inst.touches_attention or inst.grows_sequence):
            raise CompositionError(
                f"adapter {node.adapter!r} modifies attention internals and cannot "
                f"be routed through token ranges (Split)"
            )
        if Fuse in kinds:
            from .configs import BottleneckConfig, SEQUENTIAL
            cfg = inst.config
            ok = (
                isinstance(cfg, BottleneckConfig)
                and cfg.placement == SEQUENTIAL
                and not cfg.with_invertible
            )
            if not ok:
                raise CompositionError(
                    f"Fuse children must be plain sequential bottleneck adapters; "
                    f"{node.adapter!r} is not"
                )
        if getattr(inst, "merged", False):
            from .methods import StateError
            raise StateError(
                f"adapter {node.adapter!r} is merged into the base weights; "
                f"unmerge it before composing"
            )
        return
    for c in node.children:
        _check_methods(c, resolve, ancestors + (node,))

    # Inside a Stack, an attention-modifying subtree may not follow a
    # branching block that also modifies attention: the per-branch attention
    # has already been computed by then.
    if isinstance(node, Stack):
        seen_branching_attn = False
        for c in node.children:
            branches_rows = isinstance(c, (Parallel, BatchSplit)) or (
                not isinstance(c, Leaf) and fanout(c) > 1
            )
            touches = _subtree_touches_attention(c, resolve)
            if seen_branching_attn and touches:
                raise CompositionError(
                    "within a Stack, attention-modifying members must come before "
                    "any branching block that modifies attention"
                )
            if branches_rows and touches:
                seen_branching_attn = True


def _subtree_touches_attention(node, resolve) -> bool:
    if isinstance(node, Leaf):
        try:
            return resolve(node.adapter).touches_attention
        except KeyError:
            return False
    return any(_subtree_touches_attention(c, resolve) for c in node.children)


def validate_composition(node, resolve, batch=None, seq=None,
                         fusion_exists=None) -> None:
    """Full validation: leaf existence, nesting, arithmetic, and
    method/block compatibility.

    ``resolve(name)`` maps adapter ids to instances; ``fusion_exists(names)``
    reports whether a fusion layer was created for that child tuple (checked
    only when given).
    """
    node = _as_node(node)
    _check_nesting(node)
    _check_arithmetic(node, batch, seq)
    _check_methods(node, resolve)
    if fusion_exists is not None:
        for sub in iter_nodes(node):
            if isinstance(sub, Fuse):
                names = tuple(leaves(sub))
                if not fusion_exists(names):
                    from .methods import StateError
                    raise StateError(
                        f"no fusion layer exists for {names}; create one before "
                        f"activating Fuse"
                    )


def iter_nodes(node):
    yield node
    if not isinstance(node, Leaf):
        for c in node.children:
            yield from iter_nodes(c)


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
    node = _parse_node(toks)
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
            if peeked in ("splits", "batch_sizes", "weights"):
                key = toks.next()
                toks.expect("=")
                kwargs[key] = _parse_number_list(toks)
            else:
                children.append(_parse_node(toks))
            nxt = toks.next()
            if nxt == ")":
                break
            if nxt != ",":
                raise CompositionError(f"expected ',' or ')' in {tok}, got {nxt!r}")
        try:
            if cls is Split:
                if "splits" not in kwargs:
                    raise CompositionError("Split needs splits=[...]")
                return Split(*children, splits=[int(v) for v in kwargs["splits"]])
            if cls is BatchSplit:
                if "batch_sizes" not in kwargs:
                    raise CompositionError("BatchSplit needs batch_sizes=[...]")
                return BatchSplit(*children, batch_sizes=[int(v) for v in kwargs["batch_sizes"]])
            if cls is Average:
                return Average(*children, weights=kwargs.get("weights"))
            if kwargs:
                raise CompositionError(f"{tok} takes no keyword lists")
            return cls(*children)
        except TypeError as e:
            raise CompositionError(f"bad {tok} arguments: {e}") from None
    # bare adapter name
    if tok in ("(", ")", ",", "[", "]", "="):
        raise CompositionError(f"setup parse error: unexpected {tok!r}")
    return Leaf(tok)
