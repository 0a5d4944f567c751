"""Runtime routing of composition trees onto encoder hook points.

A :class:`RoutingContext` is created per encode call.  It first computes a
row layout for the active tree (how many rows each branching node consumes
and produces), replicates the embedded input for ``Parallel`` branches, and
then answers every encoder hook by walking the tree:

* pointwise hooks (residual adapters, elementwise scales, invertible
  couplings) slice the payload by rows/tokens and apply leaf modules;
* the attention hook accumulates projection deltas, key/value scales, and
  prefix extensions along ``Stack`` paths, runs the core attention per row
  block, and realizes gated prefixes as a two-pass delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .composition import (
    Average,
    BatchSplit,
    CompositionError,
    Fuse,
    Leaf,
    Parallel,
    Split,
    Stack,
    leaves,
    rows_out,
)
from .methods import AdapterInstance, FusionLayer, StateError
from .model import HookPoint


@dataclass
class _AttnPayload:
    x: Tensor            # layer-normed block input (rows, S, d)
    q: Tensor
    k: Tensor
    v: Tensor
    km: np.ndarray       # key mask (rows, S_k)

    def rows(self) -> int:
        return self.q.shape[0]

    def slice_rows(self, start: int, count: int) -> "_AttnPayload":
        return _AttnPayload(
            x=T.narrow(self.x, 0, start, count),
            q=T.narrow(self.q, 0, start, count),
            k=T.narrow(self.k, 0, start, count),
            v=T.narrow(self.v, 0, start, count),
            km=self.km[start:start + count],
        )


class RoutingContext:
    """Per-encode adapter router for one composition tree."""

    def __init__(self, owner, tree):
        self.owner = owner              # resolves instances and fusion layers
        self.tree = tree
        self._layer = -1
        self._layout: dict[int, list[int]] = {}    # id(node) -> child row blocks
        self._prefix_mats: dict[int, list] = {}    # id(PrefixModule) -> [(k, v)]
        self._attn_cache: dict[int, bool] = {}
        self.prompt_len = 0

    # -- helpers -----------------------------------------------------------

    def _inst(self, name: str) -> AdapterInstance:
        return self.owner.adapter_instance(name)

    def _subtree_attn(self, node) -> bool:
        key = id(node)
        if key not in self._attn_cache:
            if isinstance(node, Leaf):
                val = self._inst(node.adapter).touches_attention
            else:
                val = any(self._subtree_attn(c) for c in node.children)
            self._attn_cache[key] = val
        return self._attn_cache[key]

    def _compute_layout(self, node, rows_in: int) -> int:
        if isinstance(node, Leaf):
            return rows_in
        if isinstance(node, Stack):
            r = rows_in
            for c in node.children:
                r = self._compute_layout(c, r)
            return r
        if isinstance(node, Parallel):
            blocks = [self._compute_layout(c, rows_in) for c in node.children]
            self._layout[id(node)] = blocks
            return sum(blocks)
        if isinstance(node, BatchSplit):
            if sum(node.batch_sizes) != rows_in:
                raise CompositionError(
                    f"BatchSplit sizes sum to {sum(node.batch_sizes)} but the "
                    f"sub-batch has {rows_in} rows"
                )
            blocks = [
                self._compute_layout(c, s) for c, s in zip(node.children, node.batch_sizes)
            ]
            self._layout[id(node)] = blocks
            return sum(blocks)
        if isinstance(node, Average):
            outs = {self._compute_layout(c, rows_in) for c in node.children}
            if len(outs) != 1:
                raise CompositionError(f"Average children disagree on output rows: {outs}")
            return outs.pop()
        if isinstance(node, (Fuse, Split)):
            for c in node.children:
                self._compute_layout(c, rows_in)
            return rows_in
        raise CompositionError(f"unknown node kind {type(node).__name__}")

    # -- embedding stage ----------------------------------------------------

    def embedding_stage(self, h: Tensor, mask: np.ndarray, state) -> tuple:
        batch = h.shape[0]
        self._compute_layout(self.tree, batch)
        h, mask = self._expand(self.tree, h, mask)

        # Prepended rows first (pure-Stack ancestry, so they cover every row),
        # then entry-direction invertible transforms over the full sequence.
        for pm in self._prompts_in_order(self.tree):
            rows = h.shape[0]
            block = T.expand_dim0(pm.embedding, rows)
            h = T.concat([block, h], axis=1)
            mask = np.concatenate([np.ones((rows, pm.length)), mask], axis=1)
            self.prompt_len += pm.length

        h = self._route_point(self.tree, h, {}, self._leaf_embed_forward)

        state.prompt_len = self.prompt_len
        state.branches = self._branch_blocks(self.tree, batch)
        return h, mask

    def _expand(self, node, h, mask):
        if isinstance(node, Leaf) or isinstance(node, (Split, Fuse)):
            return h, mask
        if isinstance(node, Stack):
            for c in node.children:
                h, mask = self._expand(c, h, mask)
            return h, mask
        if isinstance(node, Parallel):
            hs, ms = [], []
            for c in node.children:
                hc, mc = self._expand(c, h, mask)
                hs.append(hc)
                ms.append(mc)
            return T.concat(hs, axis=0), np.concatenate(ms, axis=0)
        if isinstance(node, BatchSplit):
            hs, ms = [], []
            off = 0
            for c, s in zip(node.children, node.batch_sizes):
                hc, mc = self._expand(c, T.narrow(h, 0, off, s), mask[off:off + s])
                hs.append(hc)
                ms.append(mc)
                off += s
            return T.concat(hs, axis=0), np.concatenate(ms, axis=0)
        if isinstance(node, Average):
            # Children replicate identically (equal fanout, same input), so
            # one child's expansion is the shared payload for all of them.
            return self._expand(node.children[0], h, mask)
        raise CompositionError(f"unknown node kind {type(node).__name__}")

    def _prompts_in_order(self, node) -> list:
        if isinstance(node, Leaf):
            return list(self._inst(node.adapter).bindings.get(HookPoint.INPUT_PREPEND, ()))
        out = []
        if isinstance(node, Stack):
            for c in node.children:
                out.extend(self._prompts_in_order(c))
        return out

    def _branch_blocks(self, node, rows: int) -> list:
        if isinstance(node, Leaf):
            return [(node.adapter, rows)]
        if isinstance(node, Stack):
            blocks = [(None, rows)]
            for c in node.children:
                if isinstance(c, Leaf):
                    blocks = [(c.adapter, r) for (_, r) in blocks]
                elif isinstance(c, (Parallel, BatchSplit)):
                    total = sum(r for (_, r) in blocks)
                    blocks = self._branch_blocks(c, total)
                else:
                    total = rows_out(c, sum(r for (_, r) in blocks))
                    if len(blocks) == 1:
                        blocks = [(blocks[0][0], total)]
            return blocks
        if isinstance(node, Parallel):
            out = []
            for c in node.children:
                out.extend(self._branch_blocks(c, rows))
            return out
        if isinstance(node, BatchSplit):
            out = []
            for c, s in zip(node.children, node.batch_sizes):
                out.extend(self._branch_blocks(c, s))
            return out
        return [(None, rows_out(node, rows))]

    # -- generic pointwise routing ------------------------------------------

    def _route_point(self, node, main: Tensor, aux: dict, leaf_apply,
                     reverse: bool = False, fusion_hook: bool = False):
        if isinstance(node, Leaf):
            return leaf_apply(self._inst(node.adapter), main, aux)
        if isinstance(node, Stack):
            order = reversed(node.children) if reverse else node.children
            for c in order:
                main = self._route_point(c, main, aux, leaf_apply, reverse, fusion_hook)
            return main
        if isinstance(node, (Parallel, BatchSplit)):
            blocks = self._layout[id(node)]
            outs = []
            off = 0
            for c, r in zip(node.children, blocks):
                sub_main = T.narrow(main, 0, off, r)
                sub_aux = {k: T.narrow(v, 0, off, r) for k, v in aux.items()}
                outs.append(self._route_point(c, sub_main, sub_aux, leaf_apply,
                                              reverse, fusion_hook))
                off += r
            return T.concat(outs, axis=0)
        if isinstance(node, Split):
            seq = main.shape[1]
            parts = []
            off = 0
            for c, width in zip(node.children, node.splits):
                sub_main = T.narrow(main, 1, off, width)
                sub_aux = {k: T.narrow(v, 1, off, width) for k, v in aux.items()}
                parts.append(self._route_point(c, sub_main, sub_aux, leaf_apply,
                                               reverse, fusion_hook))
                off += width
            if off < seq:
                parts.append(T.narrow(main, 1, off, seq - off))
            return T.concat(parts, axis=1)
        if isinstance(node, Average):
            weights = np.asarray(node.weights, dtype=np.float64)
            weights = weights / weights.sum()
            total = None
            for c, w in zip(node.children, weights):
                out = self._route_point(c, main, aux, leaf_apply, reverse, fusion_hook)
                term = T.scale(out, float(w))
                total = term if total is None else total + term
            return total
        if isinstance(node, Fuse):
            if not fusion_hook:
                return main
            return self._fuse(node, main, aux, leaf_apply)
        raise CompositionError(f"unknown node kind {type(node).__name__}")

    def _fuse(self, node: Fuse, main: Tensor, aux: dict, leaf_apply) -> Tensor:
        names = tuple(leaves(node))
        fl: FusionLayer = self.owner.fusion_layer(names)
        d = main.shape[-1]
        outs = [leaf_apply(self._inst(c.adapter), main, aux) for c in node.children]
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
            delta = m.delta(main)
            if gate is not None:
                delta = T.mul(gate.value(main), delta)
            main = main + delta
        return main

    def _leaf_ffn_block(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for m, gate, hook in inst.at(HookPoint.POST_FFN_RESIDUAL, self._layer):
            base = aux["block_input"] if hook is HookPoint.PARALLEL_TO_LAYER else main
            delta = m.delta(base)
            if gate is not None:
                delta = T.mul(gate.value(base), delta)
            main = main + delta
        return main

    def _leaf_ffn_intermediate(self, inst: AdapterInstance, main: Tensor, aux: dict) -> Tensor:
        for m, gate in inst.at(HookPoint.FFN_INTERMEDIATE_SCALE, self._layer):
            if gate is not None:
                g = gate.value(main)
                main = main + T.mul(g, m.apply(main) - main)
            else:
                main = m.apply(main)
        return main

    # -- hook entry points ----------------------------------------------------

    def post_attention(self, layer: int, h: Tensor) -> Tensor:
        self._layer = layer
        return self._route_point(self.tree, h, {}, self._leaf_post_attn)

    def ffn_block(self, layer: int, h: Tensor, f_in: Tensor) -> Tensor:
        self._layer = layer
        return self._route_point(self.tree, h, {"block_input": f_in},
                                 self._leaf_ffn_block, fusion_hook=True)

    def ffn_intermediate(self, layer: int, inter: Tensor) -> Tensor:
        self._layer = layer
        return self._route_point(self.tree, inter, {}, self._leaf_ffn_intermediate)

    def exit_stage(self, h: Tensor) -> Tensor:
        return self._route_point(self.tree, h, {}, self._leaf_embed_inverse, reverse=True)

    # -- attention hook ---------------------------------------------------------

    def attention(self, layer: int, x: Tensor, q: Tensor, k: Tensor, v: Tensor,
                  key_mask: np.ndarray, core: Callable) -> Tensor:
        self._layer = layer
        pay = _AttnPayload(x=x, q=q, k=k, v=v, km=key_mask)
        return self._route_attention(self.tree, pay, core)

    def _route_attention(self, node, pay: _AttnPayload, core) -> Tensor:
        if not self._subtree_attn(node):
            return core(pay.q, pay.k, pay.v, pay.km)
        if isinstance(node, Leaf):
            pay, deferred = self._apply_attn_leaf(self._inst(node.adapter), pay)
            return self._run_attention(pay, deferred, core)
        if isinstance(node, Stack):
            return self._route_attention_stack_tail(list(node.children), pay, [], core)
        if isinstance(node, (Parallel, BatchSplit)):
            blocks = self._layout[id(node)]
            outs = []
            off = 0
            for c, r in zip(node.children, blocks):
                outs.append(self._route_attention(c, pay.slice_rows(off, r), core))
                off += r
            return T.concat(outs, axis=0)
        if isinstance(node, Average):
            weights = np.asarray(node.weights, dtype=np.float64)
            weights = weights / weights.sum()
            total = None
            for c, w in zip(node.children, weights):
                term = T.scale(self._route_attention(c, pay, core), float(w))
                total = term if total is None else total + term
            return total
        if isinstance(node, (Split, Fuse)):
            return core(pay.q, pay.k, pay.v, pay.km)
        raise CompositionError(f"unknown node kind {type(node).__name__}")

    def _route_attention_stack_tail(self, children, pay, deferred, core):
        for i, c in enumerate(children):
            if not self._subtree_attn(c):
                continue
            if isinstance(c, Leaf):
                pay, d2 = self._apply_attn_leaf(self._inst(c.adapter), pay)
                deferred.extend(d2)
            elif isinstance(c, Stack):
                return self._route_attention_stack_tail(
                    list(c.children) + list(children[i + 1:]), pay, deferred, core)
            else:
                if deferred:
                    raise StateError(
                        "gated key/value prefixes cannot precede a branching "
                        "attention block within a Stack"
                    )
                return self._route_attention(c, pay, core)
        return self._run_attention(pay, deferred, core)

    def _apply_attn_leaf(self, inst: AdapterInstance, pay: _AttnPayload):
        if inst.merged:
            raise StateError(
                f"adapter {inst.name!r} is merged into the base weights; "
                f"unmerge it before running it as an adapter"
            )
        l = self._layer
        x, q, k, v, km = pay.x, pay.q, pay.k, pay.v, pay.km
        for m, gate in inst.at(HookPoint.ATTN_Q_PROJ, l):
            delta = m.delta(x)
            if gate is not None:
                delta = T.mul(gate.value(x), delta)
            q = q + delta
        for m, gate in inst.at(HookPoint.ATTN_V_PROJ, l):
            delta = m.delta(x)
            if gate is not None:
                delta = T.mul(gate.value(x), delta)
            v = v + delta
        for m, gate in inst.at(HookPoint.ATTN_KEYS_SCALE, l):
            if gate is not None:
                k = k + T.mul(gate.value(x), m.apply(k) - k)
            else:
                k = m.apply(k)
        for m, gate in inst.at(HookPoint.ATTN_VALUES_SCALE, l):
            if gate is not None:
                v = v + T.mul(gate.value(x), m.apply(v) - v)
            else:
                v = m.apply(v)
        deferred = []
        for pm, gate in inst.at(HookPoint.ATTN_KV, l):
            if gate is None:
                k, v, km = self._extend_kv(pm, k, v, km)
            else:
                deferred.append((pm, gate))
        return _AttnPayload(x=x, q=q, k=k, v=v, km=km), deferred

    def _run_attention(self, pay: _AttnPayload, deferred, core) -> Tensor:
        out = core(pay.q, pay.k, pay.v, pay.km)
        for pm, gate in deferred:
            k2, v2, km2 = self._extend_kv(pm, pay.k, pay.v, pay.km)
            out2 = core(pay.q, k2, v2, km2)
            g = gate.value(pay.x)
            out = out + T.mul(g, out2 - out)
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
