"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in contiguous numpy buffers; every differentiable operation
records itself on the innermost active :class:`Tape`, which replays the
records in exact reverse order on ``backward``.  Gradient accumulation into
``Tensor.grad`` is additive: callers zero gradients between optimizer steps.

Two fused ops cover the encoder's hot path with one record each:
:func:`linear` (``x @ w + b``) and :func:`attention` (multi-head scaled
dot-product attention); both give the same bits as the chains of simpler
ops they replace.  Backward rules compute nothing for an operand that does
not require a gradient, and GELU computes its derivative only in backward.

A finite-difference oracle (:func:`grad_check`) is provided so analytic
backward rules can be validated independently of the tape itself.
"""

from __future__ import annotations

import ctypes
import sys
import threading
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

    def numpy(self) -> np.ndarray:
        """A defensive copy of the underlying buffer."""
        return self.data.copy()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # Arithmetic sugar; the free functions hold the actual rules.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise TypeError("tensor division is only supported by python scalars")

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _Record:
    """One recorded operation: output, inputs, and the rule mapping the
    output gradient to per-input gradients (``None`` marks a stop)."""

    __slots__ = ("output", "inputs", "backward")

    def __init__(self, output: Tensor, inputs: tuple, backward: Callable):
        self.output = output
        self.inputs = inputs
        self.backward = backward


_LOCAL = threading.local()


def _stack() -> list:
    if not hasattr(_LOCAL, "tapes"):
        _LOCAL.tapes = []
    return _LOCAL.tapes


class Tape:
    """Ordered record of operations for one forward pass (per thread).

    Leaving the ``with`` block frees the records, so a step's activations
    and per-op closures die with their last outside reference instead of
    waiting for the cyclic garbage collector (records -> output tensor ->
    ``Tensor._tape`` -> tape is a cycle).  ``backward`` therefore runs only
    inside the block.
    """

    def __init__(self):
        self._records: Optional[list[_Record]] = []

    @staticmethod
    def current() -> Optional["Tape"]:
        st = _stack()
        return st[-1] if st else None

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _stack().pop()
        self._records = None
        if popped is not self:  # pragma: no cover - defensive
            raise ContractError("tape stack corrupted")

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
    out = Tensor(out_data)
    tape = Tape.current()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append(_Record(out, tuple(inputs), rule))
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
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")

    if ad.ndim == 2 and bd.ndim == 2:
        def rule(g):
            da = g @ bd.T if a.requires_grad else None
            db = ad.T @ g if b.requires_grad else None
            return (da, db)
    elif ad.ndim > 2 and bd.ndim == 2:
        k, n = bd.shape

        def rule(g):
            da = g @ bd.T if a.requires_grad else None
            db = ad.reshape(-1, k).T @ g.reshape(-1, n) if b.requires_grad else None
            return (da, db)
    elif ad.ndim == bd.ndim and ad.shape[:-2] == bd.shape[:-2]:
        def rule(g):
            da = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
            db = ad.swapaxes(-1, -2) @ g if b.requires_grad else None
            return (da, db)
    else:
        raise ShapeError(f"unsupported matmul operand ranks: {ad.shape} @ {bd.shape}")
    return _emit(ad @ bd, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of a >=2-D ``x``, as one
    record.  Values and gradients equal ``matmul(x, w) + b`` bit for bit."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 2 or wd.ndim != 2 or bd.shape != wd.shape[-1:]:
        raise ShapeError(f"linear needs x (..., k), w (k, n), b (n,); got "
                         f"{xd.shape}, {wd.shape}, {bd.shape}")
    if xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"linear inner dims differ: {xd.shape} @ {wd.shape}")
    k, n = wd.shape
    out = xd @ wd
    out += bd

    def rule(g):
        dx = g @ wd.T if x.requires_grad else None
        if not w.requires_grad:
            dw = None
        elif xd.ndim == 2:
            dw = xd.T @ g
        else:
            dw = xd.reshape(-1, k).T @ g.reshape(-1, n)
        db = _unbroadcast(g, bd.shape) if b.requires_grad else None
        return (dx, dw, db)

    return _emit(out, (x, w, b), rule)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one record.

    ``q`` is (B, Sq, d) and ``k``, ``v`` are (B, Sk, d) flat projections
    whose last axis splits into ``heads`` heads; ``bias`` (B, Sk) is added to
    every query's scores before the softmax (a large negative value masks a
    key).  Returns the (B, Sq, d) context.  Values and gradients equal the
    unfused chain of reshape, swapaxes, matmul, scale, add and softmax bit
    for bit; the score path's backward runs only when ``q`` or ``k`` needs a
    gradient.
    """
    B, Sq, d = q.data.shape
    Sk = k.data.shape[1]
    if k.data.shape != (B, Sk, d) or v.data.shape != (B, Sk, d) or d % heads:
        raise ShapeError(f"attention needs q (B, Sq, d), k and v (B, Sk, d) with d "
                         f"divisible by {heads} heads; got {q.shape}, {k.shape}, {v.shape}")
    if np.shape(bias) != (B, Sk):
        raise ShapeError(f"attention bias shape {np.shape(bias)} != {(B, Sk)}")
    dh = d // heads
    s = float(1.0 / np.sqrt(dh))
    q4 = np.ascontiguousarray(q.data.reshape(B, Sq, heads, dh).swapaxes(1, 2))   # (B,H,Sq,dh)
    kt = np.ascontiguousarray(k.data.reshape(B, Sk, heads, dh).transpose(0, 2, 3, 1))
    v4 = np.ascontiguousarray(v.data.reshape(B, Sk, heads, dh).swapaxes(1, 2))
    scores = q4 @ kt                                                  # (B,H,Sq,Sk)
    scores *= s
    scores += bias.reshape(B, 1, 1, Sk)
    scores -= scores.max(axis=-1, keepdims=True)
    att = np.exp(scores)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = att @ v4                                                    # (B,H,Sq,dh)
    out = np.ascontiguousarray(ctx.swapaxes(1, 2)).reshape(B, Sq, d)

    # Each product below takes its operands in the memory layout the
    # unfused chain gave them (a transposed view of a contiguous array, a
    # strided view of g): BLAS rounding depends on that layout.
    def rule(g):
        g4 = g.reshape(B, Sq, heads, dh).swapaxes(1, 2)
        dq = dk = dv = None
        if v.requires_grad:
            dv = (att.swapaxes(-1, -2) @ g4).swapaxes(1, 2).reshape(B, Sk, d)
        if q.requires_grad or k.requires_grad:
            datt = g4 @ v4.swapaxes(-1, -2)
            dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True)) * s
            if q.requires_grad:
                dq = (dscores @ kt.swapaxes(-1, -2)).swapaxes(1, 2).reshape(B, Sq, d)
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
    """Exact erf-based GELU."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd / _SQRT_2))

    def rule(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
        return (g * (cdf + xd * pdf),)

    return _emit(xd * cdf, (x,), rule)


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
    mu = xd.mean(axis=-1, keepdims=True)
    centered = xd - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gamma.data + beta.data

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if gamma.requires_grad else None
        dbeta = g.sum(axis=lead) if beta.requires_grad else None
        if x.requires_grad:
            dxhat = g * gamma.data
            dx = inv_std * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        else:
            dx = None
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
