"""Dense float64 tensors with a reverse-mode tape.

Every op takes and returns ``Tensor`` values. While a ``Tape`` is active
(used as a context manager), ops whose inputs require gradients append a
record holding the output id, the input tensors and a closure that maps
the output gradient to input gradients. ``backward`` replays the records
in reverse, accumulating gradients additively per tensor id, so the
accumulation order is fixed by the tape and runs are bit-reproducible.

Single-threaded per tape: tensors are plain values and may move between
threads, but a tape must never be written from two threads at once.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
    ParameterError,
)

Array = np.ndarray

_NORM_FLOOR = 1e-12


class Tensor:
    """Dense float64 array with an identity used for gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "id")
    _ids = itertools.count()

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.id = next(Tensor._ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    """Wrap ``x`` as a constant Tensor (pass-through for Tensor inputs)."""
    return x if isinstance(x, Tensor) else Tensor(x)


# Maps output gradient -> one gradient array (or None) per input tensor.
GradFn = Callable[[Array], tuple]

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of ops, replayed in reverse exactly once by backward()."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[int, tuple[Tensor, ...], GradFn]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._records)


def _emit(data: Array, inputs: tuple[Tensor, ...], grad_fn: GradFn) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad and _TAPE_STACK:
        _TAPE_STACK[-1]._records.append((out.id, inputs, grad_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[int, Tensor]:
    """Gradients of a scalar ``loss`` with respect to every grad-enabled leaf.

    Returns a map from tensor id to gradient Tensor. Entries for
    intermediate tensors are consumed during the reverse sweep, so the
    result holds exactly the tensors that were never produced by a
    recorded op (the leaves).
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, Array] = {loss.id: np.ones(())}
    for out_id, inputs, grad_fn in reversed(tape._records):
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for t, gi in zip(inputs, grad_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            acc = grads.get(t.id)
            grads[t.id] = gi if acc is None else acc + gi
    return {tid: Tensor(g) for tid, g in grads.items()}


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m,k) and b (k,n)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g: Array):
        return g @ bd.T, ad.T @ g

    return _emit(ad @ bd, (a, b), grad_fn)


def matvec(a: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product of a (m,k) and v (k,)."""
    a, v = as_tensor(a), as_tensor(v)
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise DimensionError(f"matvec shape mismatch: {a.shape} @ {v.shape}")
    ad, vd = a.data, v.data

    def grad_fn(g: Array):
        return np.outer(g, vd), ad.T @ g

    return _emit(ad @ vd, (a, v), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def neg(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _emit(-x.data, (x,), lambda g: (-g,))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar constant."""
    x = as_tensor(x)
    c = float(c)
    return _emit(c * x.data, (x,), lambda g: (c * g,))


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an (m,n) matrix."""
    x, v = as_tensor(x), as_tensor(v)
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise DimensionError(f"add_rowvec shape mismatch: {x.shape} + {v.shape}")
    return _emit(x.data + v.data, (x, v), lambda g: (g, g.sum(axis=0)))


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def reduce_sum(x: Tensor) -> Tensor:
    x = as_tensor(x)
    shape = x.shape
    return _emit(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


def reduce_mean(x: Tensor) -> Tensor:
    x = as_tensor(x)
    n = x.data.size
    shape = x.shape
    return _emit(x.data.mean(), (x,), lambda g: (np.broadcast_to(g / n, shape).copy(),))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    if int(np.prod(shape)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape
    return _emit(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def take_per_row(x: Tensor, idx) -> Tensor:
    """Pick x[i, idx[i]] for each row i; gradient scatters back."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    if x.data.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise DimensionError(f"take_per_row shape mismatch: {x.shape} with idx {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[1]):
        raise ContractError("take_per_row index out of range")
    rows = np.arange(x.shape[0])
    shape = x.shape

    def grad_fn(g: Array):
        gx = np.zeros(shape)
        gx[rows, idx] = g
        return (gx,)

    return _emit(x.data[rows, idx], (x,), grad_fn)


def log_softmax(x: Tensor, tau: float = 1.0) -> Tensor:
    """Temperature log-softmax along the last axis, with max-subtraction.

    out = x/tau - logsumexp(x/tau); works on 1-d vectors and on 2-d
    matrices row-wise.
    """
    x = as_tensor(x)
    tau = float(tau)
    if tau <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    if x.data.ndim not in (1, 2):
        raise DimensionError("log_softmax expects a 1-d or 2-d tensor")
    z = x.data / tau
    m = z.max(axis=-1, keepdims=True)
    out = z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))

    def grad_fn(g: Array):
        p = np.exp(out)
        return ((g - p * g.sum(axis=-1, keepdims=True)) / tau,)

    return _emit(out, (x,), grad_fn)


def logsumexp(v: Tensor, mask=None) -> Tensor:
    """log sum exp over a vector, optionally restricted to a 0/1 mask."""
    v = as_tensor(v)
    if v.data.ndim != 1:
        raise DimensionError("logsumexp expects a 1-d tensor")
    if mask is None:
        sel = np.ones(v.shape[0], dtype=bool)
    else:
        sel = np.asarray(mask) != 0
        if sel.shape != v.shape:
            raise DimensionError(f"mask shape {sel.shape} does not match {v.shape}")
        if not sel.any():
            raise ContractError("logsumexp mask selects no entries")
    vals = v.data[sel]
    m = vals.max()
    out = m + np.log(np.exp(vals - m).sum())
    vd, n = v.data, v.shape[0]

    def grad_fn(g: Array):
        gv = np.zeros(n)
        gv[sel] = np.exp(vd[sel] - out) * g
        return (gv,)

    return _emit(out, (v,), grad_fn)


def row_logsumexp(x: Tensor) -> Tensor:
    """log sum exp of each row of an (m,n) matrix."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("row_logsumexp expects a 2-d tensor")
    # a column fold: numpy's max along a short trailing axis is about ten
    # times slower, and a max is exact in any order
    m = functools.reduce(np.maximum, x.data.T)[:, None]
    out = (m + np.log(np.exp(x.data - m).sum(axis=1, keepdims=True)))[:, 0]
    xd = x.data

    def grad_fn(g: Array):
        return (np.exp(xd - out[:, None]) * g[:, None],)

    return _emit(out, (x,), grad_fn)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale a vector (or each row of a matrix) to unit Euclidean norm."""
    x = as_tensor(x)
    if x.data.ndim not in (1, 2):
        raise DimensionError("l2_normalize expects a 1-d or 2-d tensor")
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NonFiniteError("cannot normalize a vector whose norm is not finite")
    if (norms <= _NORM_FLOOR).any():
        raise DegenerateEmbeddingError("cannot normalize a (near-)zero vector")
    out = x.data / norms

    def grad_fn(g: Array):
        # d(x/||x||) pulls out the component of g along the output direction
        proj = (g * out).sum(axis=-1, keepdims=True)
        return ((g - proj * out) / norms,)

    return _emit(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[Array], float], x, eps: float = 1e-5) -> Tensor:
    """Central finite differences of a scalar function of a flat vector.

    ``f`` is evaluated at x +/- eps along every coordinate; the result has
    the same shape as ``x``.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    base = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    flat = base.reshape(-1).copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(flat.reshape(base.shape).copy()))
        flat[i] = orig - eps
        lo = float(f(flat.reshape(base.shape).copy()))
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return Tensor(grad.reshape(base.shape))
