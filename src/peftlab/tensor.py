"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in contiguous numpy buffers; every differentiable operation
records itself on the innermost active :class:`Tape`, which replays the
records in exact reverse order on ``backward``, once.  Gradient accumulation
into ``Tensor.grad`` is additive: callers zero gradients between optimizer
steps.

A record keeps per operand the record that produced it on the same tape
(a leaf that requires a gradient stands for itself) and a rule holding only
the arrays, shapes and flags its gradients read: never a tensor, nor its
own output.  Whether an operand needs a gradient is read from
``requires_grad`` when the op records.  So an activation that no rule reads
dies with its last outside name while the tape is still open.

Every product with a 2-D weight records through :func:`linear` (``x @ w``
plus an optional bias), :func:`attention` is multi-head scaled dot-product
attention, and :func:`kron_sum` is a parameterized hypercomplex weight, a
sum of Kronecker products; each is one record with the same bits as the
chain of simpler ops it replaces.  Inside a :func:`row_window`,
:func:`linear` runs each product whose bits depend on the row count at full
length, on zero rows.  Backward rules compute nothing for an operand
that does not require a gradient, and GELU computes its derivative only in
backward.

A finite-difference oracle (:func:`grad_check`) is provided so analytic
backward rules can be validated independently of the tape itself.
"""

from __future__ import annotations

import ctypes
import sys
import threading
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
# Forward-only encodes run row blocks on threads (see
# TransformerEncoder.in_row_blocks), and glibc gives each new thread its own
# malloc arena, which keeps its own freed pages mapped: 7-8 MB more peak
# memory on a desk-dims sweep.  One arena (glibc's M_ARENA_MAX) serves every
# thread from the one heap, whose pad is already mapped.
_M_ARENA_MAX = -8

if sys.platform.startswith("linux"):
    try:
        _mallopt = ctypes.CDLL(None).mallopt
        _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        _mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
        _mallopt(_M_ARENA_MAX, 1)
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
    ``grad`` is ``None`` until a backward pass deposits into it.  ``_rec``
    is the record of the op that produced it, which holds neither this
    tensor nor its array; ops read ``requires_grad`` when they record.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_rec")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._rec: Optional["_Record"] = None

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
    """One recorded operation, without its output: its tape, the rule
    mapping the output gradient to per-operand gradients (``None`` marks a
    stop), and per operand the record that produced it on the same tape,
    else the operand if it required a gradient when the op recorded, else
    ``None``.  Backward drops the rule, so it runs once."""

    __slots__ = ("tape", "backward", "parents")

    def __init__(self, tape: "Tape", backward: Callable, parents: tuple):
        self.tape = tape
        self.backward = backward
        self.parents = parents


_TAPES: list = []     # the active tapes of the process, innermost last


class Tape:
    """Ordered record of operations for one forward pass.

    A record keeps its operands' records and the arrays its rule reads, not
    its output (see :class:`_Record`); ops read ``requires_grad`` when they
    record.  ``backward`` runs once, inside the block.  Leaving the block
    drops every record's rule and operands and the list of records (tape ->
    records -> tape is a cycle), so a tensor held after the block, such as
    the loss, keeps no activation alive.
    """

    def __init__(self):
        self._records: Optional[list[_Record]] = []

    @staticmethod
    def current() -> Optional["Tape"]:
        return _TAPES[-1] if _TAPES else None

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPES.pop()
        for rec in self._records:
            rec.backward = rec.parents = None
        self._records = None
        if popped is not self:  # pragma: no cover - defensive
            raise ContractError("tape stack corrupted")

    def __len__(self) -> int:
        return 0 if self._records is None else len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Walk records newest-to-oldest, seeding d(loss)/d(loss)=1.

        Leaf tensors that required a gradient when an op recorded them
        accumulate into ``.grad`` additively; other tensors are never
        touched, and neither is the ``.grad`` of a tensor this tape
        recorded.  Each rule is dropped as the walk passes it, so a second
        ``backward`` on this tape raises :class:`ContractError`.
        """
        if self._records is None:
            raise ContractError("backward after the tape's with block ended; "
                                "its records were freed on exit")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._rec is None or loss._rec.tape is not self:
            raise ContractError("loss was not recorded on this tape")
        if loss._rec.backward is None:
            raise ContractError("backward already ran on this tape; it runs once")
        flows: dict[_Record, np.ndarray] = {loss._rec: np.ones_like(loss.data)}
        for rec in reversed(self._records):
            rule, rec.backward = rec.backward, None
            g = flows.pop(rec, None)
            if g is None:
                continue
            for p, dg in zip(rec.parents, rule(g)):
                if dg is None:
                    continue
                if type(p) is _Record:
                    prev = flows.get(p)
                    flows[p] = dg if prev is None else prev + dg
                else:
                    p.grad = dg if p.grad is None else p.grad + dg


class _Window(threading.local):
    rows: Optional[tuple] = None    # this thread's row window in force (see row_window)


_WINDOW = _Window()


@contextmanager
def row_window(start: int, length: int, full: int):
    """Declare that every (B, S, ...) ``x`` of a :func:`linear` that this
    thread runs in the block holds rows ``[start, start + length)`` of a
    ``full``-row sequence along axis 1, and that the other rows' gradients
    are zero.  Those products run their backward at full length, with zero
    rows, and so do the forwards that BLAS rounds by the row count (see
    :func:`linear`).  The window is the calling thread's own, so row blocks
    of one encode that run on other threads each keep theirs.  It ends with
    the block, also when it raises."""
    _WINDOW.rows = (start, length, full)
    try:
        yield
    finally:
        _WINDOW.rows = None


def backward(loss: Tensor) -> None:
    """Run the backward pass of the tape that recorded ``loss``."""
    if loss._rec is None:
        raise ContractError("loss is not attached to any tape")
    loss._rec.tape.backward(loss)


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], rule: Callable) -> Tensor:
    """Wrap ``out_data`` and record ``rule`` on the current tape, with each
    input's producer on that tape, else the input if it needs a gradient."""
    out = Tensor(out_data)
    tape = Tape.current()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._rec = rec = _Record(tape, rule, tuple(
            t._rec if t._rec is not None and t._rec.tape is tape
            else t if t.requires_grad else None for t in inputs))
        tape._records.append(rec)
    return out


# Products with fewer output columns than this round a row by the row count
# on some BLAS kernels, so inside a row window they run at full length.
WINDOW_MIN_COLUMNS = 4


def _pad_rows(a: np.ndarray, window: tuple) -> np.ndarray:
    """``a`` (B, length, ...) as rows ``[start, start + length)`` of a
    C-contiguous (B, full, ...) array of zeros."""
    start, length, full = window
    out = np.zeros((a.shape[0], full) + a.shape[2:])
    out[:, start:start + length] = a
    return out


def _grad_shape(t: Tensor) -> Optional[tuple]:
    """``t``'s shape when it needs a gradient, else ``None``."""
    return t.data.shape if t.requires_grad else None


def _unbroadcast(g: np.ndarray, shape: Optional[tuple]) -> Optional[np.ndarray]:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting); ``None``
    for a ``None`` shape, an operand without a gradient."""
    if shape is None:
        return None
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
    sa, sb = _grad_shape(a), _grad_shape(b)
    return _emit(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = _grad_shape(a), _grad_shape(b)
    return _emit(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, sa), None if sb is None else _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = _grad_shape(a), _grad_shape(b)
    ak = None if sb is None else a.data     # each operand only for the other's gradient
    bk = None if sa is None else b.data

    def rule(g):
        return (None if sa is None else _unbroadcast(g * bk, sa),
                None if sb is None else _unbroadcast(g * ak, sb))

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
    ak = ad if b.requires_grad else None    # each operand only for the other's gradient
    bk = bd if a.requires_grad else None

    def rule(g):
        return (None if bk is None else g @ bk.swapaxes(-1, -2),
                None if ak is None else ak.swapaxes(-1, -2) @ g)

    return _emit(ad @ bd, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Product ``x @ w`` of a >=2-D ``x`` and a 2-D ``w`` over the last axis
    of ``x``, plus the bias ``b`` when given, as one record.  Values and
    gradients equal ``matmul(x, w) + b`` bit for bit.

    Under a :func:`row_window`, a (B, S, ...) ``x`` holds the window's rows
    of a longer sequence whose other rows get zero gradient.  The forward
    ``x @ w`` equals those rows of the full product at any row count >= 2
    that does not hold the last row (some BLAS kernels round the last row
    of an odd-row product apart) when ``w`` has at least
    ``WINDOW_MIN_COLUMNS`` columns.  A narrower product (numpy hands a
    one-column one to gemv, and OpenBLAS's SkylakeX kernels round two and
    three columns by the row count too) runs on the window's rows placed in
    zero rows at full length, whose other rows do not change the window's
    bits.  BLAS rounds both gradient products by the row count:
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
    window = None if xd.ndim < 3 else _WINDOW.rows
    if window is not None and xd.shape[1] != window[1]:
        raise ContractError(f"operand of shape {xd.shape} does not hold the "
                            f"{window[1]} rows of the row window")
    if window is not None and wd.shape[1] < WINDOW_MIN_COLUMNS:
        start, length, _ = window
        out = np.ascontiguousarray((_pad_rows(xd, window) @ wd)[:, start:start + length])
    else:
        out = xd @ wd
    if bd is not None:
        out += bd
    k, n = wd.shape
    xk = xd if w.requires_grad else None    # x only for dw, w only for dx
    wk = wd if x.requires_grad else None
    sb = None if b is None else _grad_shape(b)

    def rule(g):
        db = _unbroadcast(g, sb)
        if window is not None:
            g = _pad_rows(g, window)
        dx = dw = None
        if wk is not None:
            dx = g @ wk.T
            if window is not None:
                dx = np.ascontiguousarray(dx[:, window[0]:window[0] + window[1]])
        if xk is not None:      # for a 2-D x both reshapes are views with the same strides
            xg = xk if window is None else _pad_rows(xk, window)
            dw = xg.reshape(-1, k).T @ g.reshape(-1, n)
        return (dx, dw, db)

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
    gv = v.requires_grad
    q4 = q4 if k.requires_grad else None    # each layout only for a gradient that reads it
    kt = kt if q.requires_grad else None
    v4 = v4 if q.requires_grad or k.requires_grad else None

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
        if gv:
            dv = (a.swapaxes(-1, -2) @ g4).swapaxes(1, 2).reshape(B, Sk, d)
        if v4 is not None:
            datt = g4 @ v4.swapaxes(-1, -2)       # a * (datt - sum(datt * a)) * s, in place
            datt -= np.multiply(datt, a).sum(axis=-1, keepdims=True)
            dscores = np.multiply(a, datt, out=datt)
            dscores *= s
            if kt is not None:
                dq = (dscores @ kt.swapaxes(-1, -2)).swapaxes(1, 2).reshape(B, full, d)
            if q4 is not None:
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
    ak = ad if b.requires_grad else None    # each operand only for the other's gradient
    bk = bd if a.requires_grad else None

    def rule(g):
        blocks = g.reshape(n, p, m, q)
        return (None if bk is None else np.einsum("ipjq,pq->ij", blocks, bk),
                None if ak is None else np.einsum("ipjq,ij->pq", blocks, ak))

    return _emit(np.kron(ad, bd), (a, b), rule)


def kron_sum(a: Tensor, s: Tensor, t: Tensor) -> Tensor:
    """``sum_i kron(a[i], s[i]^T t[i])`` for an (n, n, n) ``a``, an (n, p)
    ``s`` and an (n, q) ``t``: the (n*p, n*q) weight of a parameterized
    hypercomplex layer, as one record.  Values and gradients equal the
    chain it replaces bit for bit: per ``i``, ``narrow`` and ``reshape`` of
    each factor, ``matmul(s_i, t_i)`` and :func:`kron`, the terms summed
    with ``add`` in order.

    The forward keeps the chain's ``s_i @ t_i`` products (BLAS, unlike a
    plain multiply, gives +0.0 for a zero product), takes every Kronecker
    term in one broadcast multiply and adds the terms in order.  The
    backward runs :func:`kron`'s ``einsum`` calls and :func:`linear`'s two
    products per ``i`` on copies laid out as the chain lays them out.  The
    chain accumulates each factor's gradient one zero-padded slice at a
    time, so with ``n`` > 1 every slice has had +0.0 added to it; the
    gradients here add it too, which turns -0.0 into +0.0 as the chain
    does."""
    ad, sd, td = a.data, s.data, t.data
    n = ad.shape[0] if ad.ndim == 3 else 0
    if (n == 0 or ad.shape != (n, n, n) or sd.ndim != 2 or td.ndim != 2
            or sd.shape[0] != n or td.shape[0] != n):
        raise ShapeError(f"kron_sum needs a (n, n, n), s (n, p), t (n, q); got "
                         f"{ad.shape}, {sd.shape}, {td.shape}")
    p, q = sd.shape[1], td.shape[1]
    s_i = [sd[i].reshape(p, 1).copy() for i in range(n)]
    t_i = [td[i].reshape(1, q).copy() for i in range(n)]
    st = [x @ w for x, w in zip(s_i, t_i)]
    terms = ad[:, :, None, :, None] * np.stack(st)[:, None, :, None, :]   # (n, n, p, n, q)
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    out = out.reshape(n * p, n * q)
    ga, gs, gt = a.requires_grad, s.requires_grad, t.requires_grad

    def rule(g):
        blocks = g.reshape(n, p, n, q)
        da = np.empty_like(ad) if ga else None
        ds = np.empty_like(sd) if gs else None
        dt = np.empty_like(td) if gt else None
        for i in range(n):
            if da is not None:
                da[i] = np.einsum("ipjq,pq->ij", blocks, st[i])
            if ds is None and dt is None:
                continue
            dst = np.einsum("ipjq,ij->pq", blocks, ad[i].copy())
            if ds is not None:
                ds[i] = (dst @ t_i[i].T).reshape(p)
            if dt is not None:
                dt[i] = (s_i[i].T @ dst).reshape(q)
        if n > 1:
            for d in (da, ds, dt):
                if d is not None:
                    d += 0.0
        return (da, ds, dt)

    return _emit(out, (a, s, t), rule)


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
    gx, gg, gb, gd = x.requires_grad, gamma.requires_grad, beta.requires_grad, gamma.data

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if gg else None
        dbeta = g.sum(axis=lead) if gb else None
        dx = None
        if gx:                  # inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            dx = np.multiply(g, gd)
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
    shape = x.data.shape

    def rule(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g.reshape(()), shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _emit(out, (x,), rule)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.data.size
    else:
        count = x.data.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    in_shape = x.data.shape
    return _emit(x.data.reshape(shape).copy(), (x,), lambda g: (g.reshape(in_shape),))


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
    spans = [range(lo, hi) if p.requires_grad else None
             for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])]

    def rule(g):
        return tuple(None if span is None else np.ascontiguousarray(np.take(g, span, axis=axis))
                     for span in spans)

    return _emit(np.concatenate(datas, axis=axis), tuple(parts), rule)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along ``axis``."""
    n = x.data.shape[axis]
    if start < 0 or length < 0 or start + length > n:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for axis {axis} of size {n}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    shape = x.data.shape

    def rule(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return _emit(np.ascontiguousarray(x.data[idx]), (x,), rule)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` along the first axis of a table of rank
    >= 2: token and position embeddings, and copies of a batch's rows
    (``Plan.row_index``, and routed row blocks that are not contiguous).
    The backward is one ``np.bincount`` over keys ``row * width + column``
    (indices as intp: bincount refuses uint64) that adds each element's rows
    from +0.0 in index order: ``np.add.at``'s bits, bar where two NaNs meet."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows needs integer indices")
    if table.data.ndim < 2:
        raise ShapeError(f"gather_rows table must be at least 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(f"gather_rows index out of range [0, {table.data.shape[0]}): "
                         f"min={idx.min()}, max={idx.max()}")

    shape = table.data.shape
    width = int(np.prod(shape[1:]))

    def rule(g):
        keys = idx.astype(np.intp).reshape(-1, 1) * width + np.arange(width)
        return (np.bincount(keys.ravel(), g.ravel(), shape[0] * width).reshape(shape),)

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
