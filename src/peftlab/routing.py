"""Runtime routing of a compiled setup onto encoder hook points.

A :class:`RoutingContext` is created per encode call from the
:class:`~peftlab.composition.Plan` that ``validate_composition`` compiled
for that call's batch.  The plan holds the verdict of every composition
rule, the resolved adapters and fusion layers, the rows each child takes,
the prompt order and the branch list, so the context only moves tensors:

* the encoder, not the router, copies the input rows once, by
  ``Plan.row_index``, and over a frozen base it calls the hooks only from
  the plan's first adapted stage (``Plan.start``) on.  Every member of a
  ``Stack`` acts on all of its rows; a ``Parallel`` or ``BatchSplit`` hands
  each child its rows (``PlanNode.takes``), a ``narrow`` where they are
  contiguous and a ``gather_rows`` where a later member's copies interleave
  them, and joins the outputs back in order (``PlanNode.join``);
* the embedding stage prepends the plan's prompts and applies
  entry-direction invertible transforms;
* pointwise hooks (residual adapters, elementwise scales, invertible
  couplings) slice the payload by rows/tokens and apply leaf modules; a
  hook that no leaf binds (``Plan.hooks``) returns its input when no tape
  records, since slicing and joining rows there would only copy them;
* the attention hook applies the projection deltas and key/value scales of
  a ``Stack``'s members (nested Stacks flattened), then their prefix
  extensions, and runs the core attention per row block; a gated prefix
  becomes a two-pass delta on each row block it reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .composition import Average, BatchSplit, Leaf, Parallel, Plan, Split, Stack
from .methods import AdapterInstance
from .model import HookPoint


@dataclass
class _AttnPayload:
    x: Tensor            # layer-normed block input (rows, S, d); None when no hook reads it
    q: Tensor
    k: Tensor
    v: Tensor
    km: np.ndarray       # key mask (rows, S_k)

    def take(self, rows) -> "_AttnPayload":
        return _AttnPayload(x=None if self.x is None else _take(self.x, rows),
                            q=_take(self.q, rows), k=_take(self.k, rows),
                            v=_take(self.v, rows), km=self.km[rows])


def _take(x: Tensor, rows) -> Tensor:
    """The rows ``rows`` of ``x``: a ``narrow`` for a slice, else a gather."""
    if isinstance(rows, slice):
        return T.narrow(x, 0, rows.start, rows.stop - rows.start)
    return T.gather_rows(x, rows)


def _join(node, outs) -> Tensor:
    """The outputs of ``node``'s children, joined in its rows' order."""
    out = T.concat(outs, axis=0)
    return out if node.join is None else T.gather_rows(out, node.join)


def _add_delta(target: Tensor, m, gate, source: Tensor) -> Tensor:
    """``target`` plus ``m``'s delta of ``source``, gated on ``source``."""
    delta = m.delta(source)
    return target + (delta if gate is None else T.mul(gate.value(source), delta))


def _rescale(target: Tensor, m, gate, source: Tensor) -> Tensor:
    """``target`` rescaled by ``m``, only as far as the gate on ``source`` opens."""
    if gate is None:
        return m.apply(target)
    return target + T.mul(gate.value(source), m.apply(target) - target)


class RoutingContext:
    """Per-encode adapter router for one compiled setup.  Its rows are the
    rows the encoder copied by ``Plan.row_index``, one per output row."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self._layer = -1
        self._prefix_mats: dict[int, list] = {}    # id(PrefixModule) -> [(k, v)]

    # -- embedding stage ----------------------------------------------------

    def embedding_stage(self, h: Tensor, mask: np.ndarray, state) -> tuple:
        # Prepended rows first (pure-Stack ancestry, so they cover every row),
        # then entry-direction invertible transforms over the full sequence.
        for pm in self.plan.prompts:
            rows = h.shape[0]
            block = T.expand_dim0(pm.embedding, rows)
            h = T.concat([block, h], axis=1)
            mask = np.concatenate([np.ones((rows, pm.length)), mask], axis=1)
            state.prompt_len += pm.length

        if not self._idle(HookPoint.EMBEDDING_BOUNDARY):
            h = self._route_point(self.plan.root, h, {}, self._leaf_embed_forward)
        return h, mask

    # -- generic pointwise routing ------------------------------------------

    def _route_point(self, node, main: Tensor, aux: dict, leaf_apply,
                     reverse: bool = False, fusion_hook: bool = False):
        kind = node.kind
        if kind is Leaf:
            return leaf_apply(node.inst, main, aux)
        if kind is Stack:
            order = reversed(node.children) if reverse else node.children
            for c in order:
                main = self._route_point(c, main, aux, leaf_apply, reverse, fusion_hook)
            return main
        if kind is Parallel or kind is BatchSplit:
            return _join(node, [self._route_point(
                c, _take(main, rows), {k: _take(v, rows) for k, v in aux.items()},
                leaf_apply, reverse, fusion_hook) for c, rows in zip(node.children, node.takes)])
        if kind is Split:
            seq = main.shape[1]
            parts = []
            off = 0
            for c, width in zip(node.children, node.sizes):
                sub_main = T.narrow(main, 1, off, width)
                sub_aux = {k: T.narrow(v, 1, off, width) for k, v in aux.items()}
                parts.append(self._route_point(c, sub_main, sub_aux, leaf_apply,
                                               reverse, fusion_hook))
                off += width
            if off < seq:
                parts.append(T.narrow(main, 1, off, seq - off))
            return T.concat(parts, axis=1)
        if kind is Average:
            total = None
            for c, w in zip(node.children, node.weights):
                out = self._route_point(c, main, aux, leaf_apply, reverse, fusion_hook)
                term = T.scale(out, w)
                total = term if total is None else total + term
            return total
        # Fuse
        if not fusion_hook:
            return main
        return self._fuse(node, main, aux, leaf_apply)

    def _fuse(self, node, main: Tensor, aux: dict, leaf_apply) -> Tensor:
        fl = node.fusion
        d = main.shape[-1]
        outs = [leaf_apply(c.inst, main, aux) for c in node.children]
        qh = T.matmul(main, fl.wq)
        scores = []
        for o in outs:
            dot = T.tsum(T.mul(qh, T.matmul(o, fl.wk)), axis=-1, keepdims=True)
            scores.append(T.scale(dot, 1.0 / np.sqrt(d)))
        weights = T.softmax(T.concat(scores, axis=-1), axis=-1)   # (rows, S, n)
        mix = None
        for i, o in enumerate(outs):
            term = T.mul(T.narrow(weights, 2, i, 1), T.matmul(o, fl.wv))
            mix = term if mix is None else mix + term
        return main + mix

    # -- leaf applications ----------------------------------------------------

    def _leaf_embed_forward(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for inv in inst.bindings.get(HookPoint.EMBEDDING_BOUNDARY, ()):
            main = inv.forward(main)
        return main

    def _leaf_embed_inverse(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for inv in reversed(inst.bindings.get(HookPoint.EMBEDDING_BOUNDARY, ())):
            main = inv.inverse(main)
        return main

    def _leaf_post_attn(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for m, gate in inst.at(HookPoint.POST_ATTN_RESIDUAL, self._layer):
            main = _add_delta(main, m, gate, main)
        return main

    def _leaf_ffn_block(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for m, gate, hook in inst.at(HookPoint.POST_FFN_RESIDUAL, self._layer):
            base = aux["block_input"] if hook is HookPoint.PARALLEL_TO_LAYER else main
            main = _add_delta(main, m, gate, base)
        return main

    def _leaf_ffn_intermediate(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for m, gate in inst.at(HookPoint.FFN_INTERMEDIATE_SCALE, self._layer):
            main = _rescale(main, m, gate, main)
        return main

    # -- hook entry points ----------------------------------------------------

    def _idle(self, *hooks: HookPoint) -> bool:
        """Whether routing at ``hooks`` would only copy rows: nothing in the
        setup acts there and no tape records.  A tape keeps the copies,
        whose backward adds zero rows to the gradient (turning -0.0 into
        +0.0), so that gradients keep their bits."""
        return self.plan.hooks.isdisjoint(hooks) and T.Tape.current() is None

    def post_attention(self, layer: int, h: Tensor) -> Tensor:
        if self._idle(HookPoint.POST_ATTN_RESIDUAL):
            return h
        self._layer = layer
        return self._route_point(self.plan.root, h, {}, self._leaf_post_attn)

    def ffn_block(self, layer: int, h: Tensor, f_in) -> Tensor:
        """``f_in``, the block input, is None when no parallel adapter reads it."""
        if self._idle(HookPoint.POST_FFN_RESIDUAL, HookPoint.PARALLEL_TO_LAYER):
            return h
        self._layer = layer
        aux = {} if f_in is None else {"block_input": f_in}
        return self._route_point(self.plan.root, h, aux, self._leaf_ffn_block,
                                 fusion_hook=True)

    def ffn_intermediate(self, layer: int, inter: Tensor) -> Tensor:
        if self._idle(HookPoint.FFN_INTERMEDIATE_SCALE):
            return inter
        self._layer = layer
        return self._route_point(self.plan.root, inter, {}, self._leaf_ffn_intermediate)

    def exit_stage(self, h: Tensor) -> Tensor:
        if self._idle(HookPoint.EMBEDDING_BOUNDARY):
            return h
        return self._route_point(self.plan.root, h, {}, self._leaf_embed_inverse, reverse=True)

    # -- attention hook ---------------------------------------------------------

    def attention(self, layer: int, x: Tensor, q: Tensor, k: Tensor, v: Tensor,
                  key_mask: np.ndarray, core: Callable) -> Tensor:
        self._layer = layer
        pay = _AttnPayload(x=x, q=q, k=k, v=v, km=key_mask)
        return self._route_attention(self.plan.root, pay, core)

    def _route_attention(self, node, pay: _AttnPayload, core, pending=()) -> Tensor:
        """Attention of ``node``'s rows.  ``pending`` holds the key/value
        prefixes of earlier ``Stack`` members with their gates (None when
        ungated), which join once this node's projection hooks have run."""
        kind = node.kind
        if kind is Leaf or kind is Stack:
            # As in the paper's library, projection deltas and key/value
            # scales act on the token rows, and prefixes join after every
            # member's projections.  The plan admits attention members only
            # before the first block that modifies attention, so that block
            # takes the projected rows and the pending prefixes.
            pending = list(pending)
            for m in (node,) if kind is Leaf else node.members:
                if not m.attn:
                    continue
                if m.kind is not Leaf:
                    return self._route_attention(m, pay, core, pending)
                pay = self._project(m.inst, pay)
                pending.extend(m.inst.at(HookPoint.ATTN_KV, self._layer))
            return self._run_attention(pay, pending, core)
        # Split and Fuse children never modify attention (the plan checked).
        if not node.attn:
            return self._run_attention(pay, pending, core)
        if kind is Average:
            total = None
            for c, w in zip(node.children, node.weights):
                term = T.scale(self._route_attention(c, pay, core, pending), w)
                total = term if total is None else total + term
            return total
        # Parallel, BatchSplit
        return _join(node, [self._route_attention(c, pay.take(rows), core, pending)
                            for c, rows in zip(node.children, node.takes)])

    def _project(self, inst: AdapterInstance, pay: _AttnPayload) -> _AttnPayload:
        """``pay`` after ``inst``'s projection deltas and key/value scales."""
        l = self._layer
        x, q, k, v = pay.x, pay.q, pay.k, pay.v
        for m, gate in inst.at(HookPoint.ATTN_Q_PROJ, l):
            q = _add_delta(q, m, gate, x)
        for m, gate in inst.at(HookPoint.ATTN_V_PROJ, l):
            v = _add_delta(v, m, gate, x)
        for m, gate in inst.at(HookPoint.ATTN_KEYS_SCALE, l):
            k = _rescale(k, m, gate, x)
        for m, gate in inst.at(HookPoint.ATTN_VALUES_SCALE, l):
            v = _rescale(v, m, gate, x)
        return _AttnPayload(x=x, q=q, k=k, v=v, km=pay.km)

    def _run_attention(self, pay: _AttnPayload, prefixes, core) -> Tensor:
        """The core attention of ``pay`` with each ungated prefix's key/value
        rows joined in turn, and each gated one then as a two-pass delta."""
        k, v, km = pay.k, pay.v, pay.km
        for pm, gate in prefixes:
            if gate is None:
                k, v, km = self._extend_kv(pm, k, v, km)
        out = core(pay.q, k, v, km)
        for pm, gate in prefixes:
            if gate is not None:
                out2 = core(pay.q, *self._extend_kv(pm, k, v, km))
                out = out + T.mul(gate.value(pay.x), out2 - out)
        return out

    def _extend_kv(self, pm, k: Tensor, v: Tensor, km: np.ndarray):
        mats = self._prefix_mats.get(id(pm))
        if mats is None:
            mats = pm.materialize()
            self._prefix_mats[id(pm)] = mats
        pk, pv = mats[self._layer]
        rows = k.shape[0]
        k = T.concat([T.expand_dim0(pk, rows), k], axis=1)
        v = T.concat([T.expand_dim0(pv, rows), v], axis=1)
        km = np.concatenate([np.ones((rows, pm.length)), km], axis=1)
        return k, v, km
