"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in contiguous numpy buffers; every differentiable operation
records itself on the innermost active :class:`Tape`, which replays the
records in exact reverse order on ``backward``.  Gradient accumulation into
``Tensor.grad`` is additive: callers zero gradients between optimizer steps.

Every product with a 2-D weight records through :func:`linear` (``x @ w``
plus an optional bias), and :func:`attention` is multi-head scaled
dot-product attention; each is one record with the same bits as the chain
of simpler ops it replaces.  Backward rules compute nothing for an operand
that does not require a gradient, and GELU computes its derivative only in
backward.

A finite-difference oracle (:func:`grad_check`) is provided so analytic
backward rules can be validated independently of the tape itself.
"""

from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# A tape frees its step's activations when its block ends (see Tape).  glibc
# then hands the freed top of the heap back to the kernel after every
# training step, and the next step page-faults the same memory in again
# (tens of thousands of faults per small desk-dims grid, up to 15% of
# training throughput on a 2-vCPU host).  Keeping 64 MB of freed heap
# mapped (glibc's M_TOP_PAD) removes those faults; the pad holds only pages
# that were already in use, so peak memory does not grow.
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 64 << 20

if sys.platform.startswith("linux"):
    try:
        ctypes.CDLL(None).mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    except AttributeError:      # a C library without mallopt
        pass


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(RuntimeError):
    """An autodiff API was used outside its contract (non-scalar loss, no tape, ...)."""


class Tensor:
    """N-dimensional float64 array, optionally tracked on a tape.

    The constructor takes ownership of ``data`` when it already is a
    C-contiguous float64 array; other inputs are converted (and copied).
    ``grad`` is ``None`` until a backward pass deposits into it.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._tape: Optional["Tape"] = None

    @property
    def shape(self) -> tuple:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # Sugar for residual sums; the free functions hold the rules.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)


class _Record:
    """One recorded operation: output, inputs, and the rule mapping the
    output gradient to per-input gradients (``None`` marks a stop)."""

    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output: Tensor, inputs: tuple, backward: Callable):
        self.output = output
        self.inputs = inputs
        self.backward = backward


_TAPES: list = []     # the active tapes of the process, innermost last


class Tape:
    """Ordered record of operations for one forward pass.

    Leaving the ``with`` block frees the records, so a step's activations
    and per-op closures die with their last outside reference instead of
    waiting for the cyclic garbage collector (records -> output tensor ->
    ``Tensor._tape`` -> tape is a cycle).  ``backward`` therefore runs only
    inside the block.

    ``window`` is ``None`` or, inside :meth:`row_window`, the
    ``(start, length, full)`` row window that the :func:`linear` products
    recorded there run their backward on.
    """

    def __init__(self):
        self._records: Optional[list[_Record]] = []
        self.window: Optional[tuple] = None

    @staticmethod
    def current() -> Optional["Tape"]:
        return _TAPES[-1] if _TAPES else None

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPES.pop()
        self._records = None
        if popped is not self:  # pragma: no cover - defensive
            raise ContractError("tape stack corrupted")

    @contextmanager
    def row_window(self, start: int, length: int, full: int):
        """Declare that every (B, S, ...) ``x`` of a :func:`linear` recorded
        in the block holds rows ``[start, start + length)`` of a
        ``full``-row sequence along axis 1, and that the other rows'
        gradients are zero.  Those products then run their backward at full
        length, with zero rows (see :func:`linear`).  The window ends with
        the block, also when it raises."""
        self.window = (start, length, full)
        try:
            yield
        finally:
            self.window = None

    def __len__(self) -> int:
        return 0 if self._records is None else len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Walk records newest-to-oldest, seeding d(loss)/d(loss)=1.

        Leaf tensors with ``requires_grad`` accumulate into ``.grad``
        additively; tensors with ``requires_grad=False`` are never touched,
        and neither is the ``.grad`` of a tensor this tape recorded.
        """
        if self._records is None:
            raise ContractError("backward after the tape's with block ended; "
                                "its records were freed on exit")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss was not recorded on this tape")
        flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for rec in reversed(self._records):
            g = flows.pop(id(rec.output), None)
            if g is None:
                continue
            contribs = rec.backward(g)
            for t, dg in zip(rec.inputs, contribs):
                if dg is None:
                    continue
                if t._tape is self:
                    prev = flows.get(id(t))
                    flows[id(t)] = dg if prev is None else prev + dg
                elif t.requires_grad:
                    t.grad = dg if t.grad is None else t.grad + dg


def backward(loss: Tensor) -> None:
    """Run the backward pass of the tape that recorded ``loss``."""
    if loss._tape is None:
        raise ContractError("loss is not attached to any tape")
    loss._tape.backward(loss)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], rule: Callable) -> Tensor:
    """Wrap ``out_data`` and record ``rule`` on the current tape."""
    out = Tensor(out_data)
    tape = Tape.current()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append(_Record(out, tuple(inputs), rule))
    return out


def _pad_rows(a: np.ndarray, window: tuple) -> np.ndarray:
    """``a`` (B, length, ...) as rows ``[start, start + length)`` of a
    C-contiguous (B, full, ...) array of zeros."""
    start, length, full = window
    out = np.zeros((a.shape[0], full) + a.shape[2:])
    out[:, start:start + length] = a
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / broadcast arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    def rule(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _emit(a.data + b.data, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def rule(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _emit(a.data - b.data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def rule(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _emit(a.data * b.data, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(a.data * s, (a,), lambda g: (g * s,))


# ---------------------------------------------------------------------------
# contractions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``: :func:`linear` without a bias when ``b`` is 2-D, else a
    batched product of two operands of the same rank and leading axes."""
    ad, bd = a.data, b.data
    if bd.ndim == 2:
        return linear(a, b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"unsupported matmul operand ranks: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")

    def rule(g):
        da = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
        db = ad.swapaxes(-1, -2) @ g if b.requires_grad else None
        return (da, db)

    return _emit(ad @ bd, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Product ``x @ w`` of a >=2-D ``x`` and a 2-D ``w`` over the last axis
    of ``x``, plus the bias ``b`` when given, as one record.  Values and
    gradients equal ``matmul(x, w) + b`` bit for bit.

    Under a tape's :meth:`~Tape.row_window`, a (B, S, ...) ``x`` holds the
    window's rows of a longer sequence whose other rows get zero gradient.
    The forward ``x @ w`` equals those rows of the full product at any row
    count >= 2 that does not hold the last row (some BLAS kernels round the
    last row of an odd-row product apart), but BLAS rounds both gradient
    products by the row count:
    ``g @ w.T`` per row, ``x^T g`` in how it groups the sum over rows.  So
    the backward places ``g`` and ``x`` in zero rows at full length, in the
    C-contiguous layout the full path gives them, runs both products there
    and keeps the window's rows of ``dx``; every gradient then equals the
    full path's bit for bit.  ``db`` sums over leading axes one row after
    another, where zero rows add exact zeros, so it stays on the window."""
    xd, wd = x.data, w.data
    bd = None if b is None else b.data
    if xd.ndim < 2 or wd.ndim != 2 or (bd is not None and bd.shape != wd.shape[-1:]):
        raise ShapeError(f"linear needs x (..., k), w (k, n), b (n,); got "
                         f"{xd.shape}, {wd.shape}, {None if bd is None else bd.shape}")
    if xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear inner dims differ: {xd.shape} @ {wd.shape}")
    out = xd @ wd
    if bd is not None:
        out += bd
    tape = Tape.current()
    window = None if tape is None or xd.ndim < 3 else tape.window
    if window is not None and xd.shape[1] != window[1]:
        raise ContractError(f"operand of shape {xd.shape} does not hold the "
                            f"{window[1]} rows of the tape's row window")

    def rule(g):
        db = _unbroadcast(g, bd.shape) if b is not None and b.requires_grad else None
        xg = xd
        if window is not None:
            g = _pad_rows(g, window)
            if w.requires_grad:
                xg = _pad_rows(xd, window)
        dx = g @ wd.T if x.requires_grad else None
        if window is not None and dx is not None:
            dx = np.ascontiguousarray(dx[:, window[0]:window[0] + window[1]])
        dw = None
        if w.requires_grad:     # for a 2-D x both reshapes are views with the same strides
            dw = xg.reshape(-1, wd.shape[0]).T @ g.reshape(-1, wd.shape[1])
        return (dx, dw) if b is None else (dx, dw, db)

    return _emit(out, (x, w) if b is None else (x, w, b), rule)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, heads: int,
              window: Optional[tuple] = None) -> Tensor:
    """Multi-head scaled dot-product attention as one record.

    ``q`` is (B, Sq, d) and ``k``, ``v`` are (B, Sk, d) flat projections
    whose last axis splits into ``heads`` heads; ``bias`` (B, Sk) is added to
    every query's scores before the softmax (a large negative value masks a
    key).  Returns the (B, Sq, d) context.  Values and gradients equal the
    unfused chain of reshape, swapaxes, matmul, scale, add and softmax bit
    for bit; the score path's backward runs only when ``q`` or ``k`` needs a
    gradient.

    ``window`` ``(start, length)`` returns the context of those queries
    alone, (B, length, d), for callers whose other queries get zero
    gradient.  The scores are still computed for every query, since a
    product over fewer query rows can round differently; from the softmax
    on only the window's rows are computed, and with ``length`` >= 2 they
    equal the full call's rows bit for bit.  The backward runs at full
    size: ``g`` and the attention weights sit in zero rows outside the
    window, as the full path's would be, because ``dk`` and ``dv`` sum over
    query rows and every product here rounds by its row count.  So the
    gradients of ``q``, ``k`` and ``v`` equal the full call's bit for bit.
    """
    B, Sq, d = q.data.shape
    Sk = k.data.shape[1]
    if k.data.shape != (B, Sk, d) or v.data.shape != (B, Sk, d) or d % heads:
        raise ShapeError(f"attention needs q (B, Sq, d), k and v (B, Sk, d) with d "
                         f"divisible by {heads} heads; got {q.shape}, {k.shape}, {v.shape}")
    if np.shape(bias) != (B, Sk):
        raise ShapeError(f"attention bias shape {np.shape(bias)} != {(B, Sk)}")
    if window is not None and not (0 <= window[0] and 1 <= window[1]
                                   and window[0] + window[1] <= Sq):
        raise ShapeError(f"attention query window {window} out of range for {Sq} queries")
    dh = d // heads
    s = float(1.0 / np.sqrt(dh))
    q4 = np.ascontiguousarray(q.data.reshape(B, Sq, heads, dh).swapaxes(1, 2))   # (B,H,Sq,dh)
    kt = np.ascontiguousarray(k.data.reshape(B, Sk, heads, dh).transpose(0, 2, 3, 1))
    v4 = np.ascontiguousarray(v.data.reshape(B, Sk, heads, dh).swapaxes(1, 2))
    scores = q4 @ kt                                                  # (B,H,Sq,Sk)
    full = Sq
    if window is not None:
        start, Sq = window
        scores = scores[:, :, start:start + Sq].copy()
    scores *= s
    scores += bias.reshape(B, 1, 1, Sk)
    scores -= scores.max(axis=-1, keepdims=True)
    att = np.exp(scores, out=scores)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = att @ v4                                                    # (B,H,Sq,dh)
    out = np.ascontiguousarray(ctx.swapaxes(1, 2)).reshape(B, Sq, d)

    # Each product below takes its operands in the memory layout the
    # unfused chain gave them (a transposed view of a contiguous array, a
    # strided view of g): BLAS rounding depends on that layout.
    def rule(g):
        a = att
        if window is not None:
            g = _pad_rows(g, (start, Sq, full))
            a = np.zeros((B, heads, full, Sk))
            a[:, :, start:start + Sq] = att
        g4 = g.reshape(B, full, heads, dh).swapaxes(1, 2)
        dq = dk = dv = None
        if v.requires_grad:
            dv = (a.swapaxes(-1, -2) @ g4).swapaxes(1, 2).reshape(B, Sk, d)
        if q.requires_grad or k.requires_grad:
            datt = g4 @ v4.swapaxes(-1, -2)       # a * (datt - sum(datt * a)) * s, in place
            datt -= np.multiply(datt, a).sum(axis=-1, keepdims=True)
            dscores = np.multiply(a, datt, out=datt)
            dscores *= s
            if q.requires_grad:
                dq = (dscores @ kt.swapaxes(-1, -2)).swapaxes(1, 2).reshape(B, full, d)
            if k.requires_grad:
                dk = (q4.swapaxes(-1, -2) @ dscores).transpose(0, 3, 1, 2).reshape(B, Sk, d)
        return (dq, dk, dv)

    return _emit(out, (q, k, v), rule)


def kron(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker product of two 2-D tensors."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"kron needs 2-D operands, got {ad.shape} (x) {bd.shape}")
    n, m = ad.shape
    p, q = bd.shape

    def rule(g):
        blocks = g.reshape(n, p, m, q)
        da = np.einsum("ipjq,pq->ij", blocks, bd) if a.requires_grad else None
        db = np.einsum("ipjq,ij->pq", blocks, ad) if b.requires_grad else None
        return (da, db)

    return _emit(np.kron(ad, bd), (a, b), rule)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based GELU: ``x * 0.5 * (1 + erf(x / sqrt(2)))``, with the
    derivative ``cdf + x * exp(-x * x / 2) / sqrt(2 pi)``, each computed in
    one buffer."""
    xd = x.data
    cdf = np.divide(xd, _SQRT_2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def rule(g):
        d = np.multiply(xd, -0.5)
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= xd
        d += cdf
        d *= g
        return (d,)

    return _emit(np.multiply(xd, cdf), (x,), rule)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _emit(y, (x,), lambda g: (g * (1.0 - y * y),))


def sigmoid(x: Tensor) -> Tensor:
    y = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _emit(y, (x,), rule)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def rule(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _emit(y, (x,), rule)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    if gamma.data.shape != (xd.shape[-1],) or beta.data.shape != (xd.shape[-1],):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match feature dim {xd.shape[-1]}"
        )
    # Every mean is np.mean's own sum-then-divide, and every step runs in
    # place where the result's buffer is free, in the order of the formulas.
    n = xd.shape[-1]
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu /= n
    xhat = np.subtract(xd, mu)                  # centered, normalized below
    out = np.multiply(xhat, xhat)
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var /= n
    var += eps
    inv_std = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv_std
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if gamma.requires_grad else None
        dbeta = g.sum(axis=lead) if beta.requires_grad else None
        dx = None
        if x.requires_grad:     # inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            dx = np.multiply(g, gamma.data)
            t = np.multiply(dx, xhat)
            m2 = np.add.reduce(t, axis=-1, keepdims=True)
            m2 /= n
            m1 = np.add.reduce(dx, axis=-1, keepdims=True)
            m1 /= n
            dx -= m1
            dx -= np.multiply(xhat, m2, out=t)
            dx *= inv_std
        return (dx, dgamma, dbeta)

    return _emit(out, (x, gamma, beta), rule)


# ---------------------------------------------------------------------------
# reductions and reshapes


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g.reshape(()), x.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _emit(out, (x,), rule)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.data.size
    else:
        count = x.data.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = x.data.reshape(shape).copy()
    return _emit(out, (x,), lambda g: (g.reshape(x.data.shape),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = np.ascontiguousarray(x.data.swapaxes(a, b))
    return _emit(out, (x,), lambda g: (g.swapaxes(a, b),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    datas = [p.data for p in parts]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        return tuple(
            np.ascontiguousarray(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis))
            for i in range(len(parts))
        )

    return _emit(np.concatenate(datas, axis=axis), tuple(parts), rule)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along ``axis``."""
    n = x.data.shape[axis]
    if start < 0 or length < 0 or start + length > n:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for axis {axis} of size {n}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def rule(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return _emit(np.ascontiguousarray(x.data[idx]), (x,), rule)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]``; used for token/position embeddings."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows needs integer indices")
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"gather_rows index out of range [0, {table.data.shape[0]}): "
            f"min={idx.min() if idx.size else 0}, max={idx.max() if idx.size else 0}"
        )

    def rule(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (dt,)

    return _emit(table.data[idx], (table,), rule)


def expand_dim0(x: Tensor, n: int) -> Tensor:
    """Broadcast ``x`` to a new leading axis of size ``n``."""
    out = np.broadcast_to(x.data, (n,) + x.data.shape).copy()
    return _emit(out, (x,), lambda g: (g.sum(axis=0),))


def constant(data) -> Tensor:
    """A tensor that never participates in gradients."""
    return Tensor(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between tape gradients of ``f`` at ``x`` and
    central finite differences.

    ``f`` must be deterministic and scalar-valued.  When ``sample`` is given,
    only that many coordinates (chosen by ``rng``) are probed.  The relative
    error denominator is floored at 1e-8 so near-zero gradients compare
    absolutely.
    """
    was = x.requires_grad
    x.requires_grad = True
    saved_grad = x.grad
    x.grad = None
    try:
        with Tape() as tape:
            out = f(x)
            if out.data.size != 1:
                raise ContractError(f"grad_check needs a scalar function, got shape {out.shape}")
            tape.backward(out)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        x.requires_grad = was
        x.grad = saved_grad

    flat = x.data.reshape(-1)
    aflat = analytic.reshape(-1)
    if sample is not None and sample < flat.size:
        rng = rng or np.random.default_rng(0)
        coords = rng.choice(flat.size, size=sample, replace=False)
    else:
        coords = range(flat.size)

    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(x).data.reshape(()))
        flat[i] = orig - eps
        f_minus = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        denom = max(abs(aflat[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
