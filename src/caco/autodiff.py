"""Dense float64 tensors with a reverse-mode tape.

Every op takes and returns ``Tensor`` values. While a ``Tape`` is active
(used as a context manager), ops whose inputs require gradients append a
record of the output tensor, the input tensors and a closure that maps
the output gradient to input gradients. ``backward`` replays the records
in reverse, summing gradient arrays per tensor object, so the
accumulation order is fixed by the tape and runs are bit-reproducible.

One recording thread per process: the active tapes form one module-global
stack, so a second recording thread would write to the first one's tapes.
Tensors may move between threads; parallel runs use processes.
"""

from __future__ import annotations

import functools
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
    """Dense float64 array on a tape; gradients are keyed by the object itself."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

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
        self._records: list[tuple[Tensor, tuple[Tensor, ...], GradFn]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not _TAPE_STACK or _TAPE_STACK.pop() is not self:
            raise ContractError("tapes must unwind in LIFO order: one recording thread per process")
        return False

    def __len__(self) -> int:
        return len(self._records)


def _emit(data: Array, inputs: tuple[Tensor, ...], grad_fn: GradFn) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad and _TAPE_STACK:
        _TAPE_STACK[-1]._records.append((out, inputs, grad_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, Array]:
    """Gradients of a scalar ``loss`` with respect to every grad-enabled leaf.

    Returns a map from each leaf tensor to its gradient array. Entries for
    intermediate tensors are consumed during the reverse sweep, so the
    result holds exactly the tensors that were never produced by a
    recorded op (the leaves).
    """
    if loss.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, Array] = {loss: np.ones(())}
    for out, inputs, grad_fn in reversed(tape._records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gi in zip(inputs, grad_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            grads[t] = gi if acc is None else acc + gi
    return grads


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


def relu_array(z: Array, out: Array | None = None) -> Array:
    """max(z, 0), +0.0 wherever z <= 0; a NaN stays NaN.

    Written into ``out`` when given (``out=z`` works in place), else into
    a new array. np.maximum is several times faster than
    np.where(z > 0, z, 0.0), and adding 0.0 turns its -0.0 results into
    +0.0, so the two agree bit for bit on every non-NaN input. Unlike
    np.where it does not hide a NaN.
    """
    out = np.maximum(z, 0.0, out=out)
    out += 0.0
    return out


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    return _emit(relu_array(x.data), (x,), lambda g: (g * mask,))


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


def _row_index(op: str, shape: tuple[int, ...], idx) -> Array:
    """idx as one column index per row of a 2-d array of ``shape``, checked."""
    idx = np.asarray(idx, dtype=np.intp)
    if len(shape) != 2 or idx.ndim != 1 or idx.shape[0] != shape[0]:
        raise DimensionError(f"{op} shape mismatch: {shape} with idx {idx.shape}")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= shape[1]):
        raise ContractError(f"{op} index out of range")
    return idx


def take_per_row(x: Tensor, idx) -> Tensor:
    """Pick x[i, idx[i]] for each row i; gradient scatters back."""
    x = as_tensor(x)
    idx = _row_index("take_per_row", x.shape, idx)
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


def row_max(a: Array) -> Array:
    """a.max(axis=1) of a 2-d array with at least one column, bit for bit.

    A column fold: numpy's max along a short trailing axis is about ten
    times slower, and a max is exact in any order.
    """
    return functools.reduce(np.maximum, a.T)


def row_sum(a: Array) -> Array:
    """a.sum(axis=1) of a 2-d array with at least one column, bit for bit.

    Below 8 columns a column fold, which adds the columns left to right as
    numpy's sum does for fewer than 8 terms; from 8 on numpy sums
    pairwise, so the sum stays numpy's. The one exception is a row of
    -0.0 only, which folds to -0.0 where numpy's sum gives +0.0; the
    callers sum exponentials, which are never -0.0.
    """
    return functools.reduce(np.add, a.T) if a.shape[1] < 8 else np.add.reduce(a, axis=1)


def row_logsumexp(x: Tensor) -> Tensor:
    """log sum exp of each row of an (m,n) matrix."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("row_logsumexp expects a 2-d tensor")
    m = row_max(x.data)[:, None]
    out = m[:, 0] + np.log(row_sum(np.exp(x.data - m)))
    xd = x.data

    def grad_fn(g: Array):
        return (np.exp(xd - out[:, None]) * g[:, None],)

    return _emit(out, (x,), grad_fn)


def unit_normalize(a: Array) -> tuple[Array, Array]:
    """``a`` scaled to unit Euclidean norm along its last axis, and the norms.

    Raises NonFiniteError if a norm is not finite (a NaN or an overflow
    upstream) and, failing that, DegenerateEmbeddingError if one is (near)
    zero. The norms are np.linalg.norm's expression for real input.
    """
    norms = np.sqrt(np.add.reduce(a * a, axis=-1, keepdims=True))
    if norms.size:
        # norms are >= 0 or NaN, and a max holding a NaN is NaN
        if not np.isfinite(np.maximum.reduce(norms, axis=None)):
            raise NonFiniteError("cannot normalize a vector whose norm is not finite")
        if np.minimum.reduce(norms, axis=None) <= _NORM_FLOOR:
            raise DegenerateEmbeddingError("cannot normalize a (near-)zero vector")
    return a / norms, norms


def l2_normalize(x: Tensor) -> Tensor:
    """Scale a vector (or each row of a matrix) to unit Euclidean norm."""
    x = as_tensor(x)
    if x.data.ndim not in (1, 2):
        raise DimensionError("l2_normalize expects a 1-d or 2-d tensor")
    out, norms = unit_normalize(x.data)

    def grad_fn(g: Array):
        # d(x/||x||) pulls out the component of g along the output direction
        proj = (g * out).sum(axis=-1, keepdims=True)
        return ((g - proj * out) / norms,)

    return _emit(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# Fused records: one record where training would otherwise emit several.
# Each computes the expressions of the primitives it stands for, in the same
# order, so forward values and leaf gradients are bit-equal to theirs.
# ---------------------------------------------------------------------------


def _check_linear(h: Array, w: Array, b: Array) -> None:
    if (h.ndim != 2 or w.ndim != 2 or b.ndim != 1
            or h.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise DimensionError(f"linear shape mismatch: {h.shape} @ {w.shape} + {b.shape}")


def linear(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """h @ w + b over an (m,k) block, as one record.

    Stands for add_rowvec(matmul(h, w), b). The gradient for h is not
    formed when h requires none (input rows).
    """
    h, w, b = as_tensor(h), as_tensor(w), as_tensor(b)
    _check_linear(h.data, w.data, b.data)
    hd, wd = h.data, w.data

    def grad_fn(g: Array):
        return (g @ wd.T if h.requires_grad else None), hd.T @ g, np.add.reduce(g, axis=0)

    out = hd @ wd
    out += b.data
    return _emit(out, (h, w, b), grad_fn)


def mlp_layers(x: Array, weights: Sequence[Tensor], biases: Sequence[Tensor]) -> list[Array]:
    """``x`` and each layer's output of a ReLU MLP over an (m,k) block.

    Layer i computes h @ w + b into a new array, with a ReLU after every
    layer but the last.
    """
    if not weights or len(weights) != len(biases):
        raise DimensionError(f"need one bias per weight, at least one layer; "
                             f"got {len(weights)} and {len(biases)}")
    hs = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        _check_linear(hs[i], w.data, b.data)
        h = hs[i] @ w.data
        h += b.data
        if i < last:
            relu_array(h, out=h)
        hs.append(h)
    return hs


def normalized_mlp(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """A ReLU MLP over an (m,k) block, each output row scaled to unit norm, as one record.

    Stands for linear(h, w, b) per layer with relu() after every layer but
    the last, then l2_normalize(). The gradient for x is not formed when x
    requires none (input rows).
    """
    x = as_tensor(x)
    weights = [as_tensor(w) for w in weights]
    biases = [as_tensor(b) for b in biases]
    hs = mlp_layers(x.data, weights, biases)
    last = len(weights) - 1
    out, norms = unit_normalize(hs[-1])

    def grad_fn(g: Array):
        # g may be shared with other records; every array written below is new
        proj = np.add.reduce(g * out, axis=-1, keepdims=True)
        pulled = proj * out
        g = np.subtract(g, pulled, out=pulled)
        g /= norms
        grads = []
        for i in range(last, -1, -1):
            if i < last:
                g *= hs[i + 1] > 0  # a ReLU output is positive exactly where its input was
            grads[:0] = (hs[i].T @ g, np.add.reduce(g, axis=0))
            if i or x.requires_grad:
                g = g @ weights[i].data.T
        return (g if x.requires_grad else None, *grads)

    return _emit(out, (x, *(t for layer in zip(weights, biases) for t in layer)), grad_fn)


def mean_nll(x: Tensor, idx) -> Tensor:
    """Mean over rows i of -log softmax(x[i])[idx[i]], as one record.

    Stands for neg(reduce_mean(take_per_row(log_softmax(x, 1.0), idx))).
    """
    x = as_tensor(x)
    idx = _row_index("mean_nll", x.shape, idx)
    rows = np.arange(x.shape[0])
    shape = x.shape
    z = x.data  # log_softmax at tau 1.0; z / 1.0 is z exactly
    logp = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    logp -= np.log(np.add.reduce(np.exp(logp), axis=-1, keepdims=True))
    picked = logp[rows, idx]
    n = picked.size

    def grad_fn(g: Array):
        gp = np.zeros(shape)
        gp[rows, idx] = -g / n
        p = np.exp(logp)
        p *= np.add.reduce(gp, axis=-1, keepdims=True)
        gp -= p
        return (gp,)

    return _emit(-(np.add.reduce(picked) / n), (x,), grad_fn)


def grouped_nll(q: Tensor, keys: Array, idx, width: int) -> Tensor:
    """Mean NLL of softmax groups of q @ keys.T against a constant key block.

    Each row of the (m, n) logits splits into n / width consecutive groups
    of ``width``; group r (row-major over the whole block) is one softmax
    whose positive sits at idx[r]. Stands for, as one record,
    reduce_mean(sub(row_logsumexp(G), take_per_row(G, idx))) with
    G = reshape(matmul(q, Tensor(keys.T)), (-1, width)). The keys are
    constants: their gradient is never formed.
    """
    q = as_tensor(q)
    keys = np.asarray(keys, dtype=np.float64)
    if q.data.ndim != 2 or keys.ndim != 2 or q.shape[1] != keys.shape[1]:
        raise DimensionError(f"grouped_nll shape mismatch: {q.shape} against keys {keys.shape}")
    if width < 1 or keys.shape[0] % width:
        raise DimensionError(f"{keys.shape[0]} keys do not split into groups of {width}")
    logits = q.data @ keys.T
    groups = logits.reshape((-1, width))
    idx = _row_index("grouped_nll", groups.shape, idx)
    rows = np.arange(groups.shape[0])
    m = row_max(groups)[:, None]
    e = groups - m
    lse = m[:, 0] + np.log(row_sum(np.exp(e, out=e)))
    diff = lse - groups[rows, idx]
    n = diff.size

    def grad_fn(g: Array):
        gd = g / n  # the same for every group
        per_group = groups - lse[:, None]
        np.exp(per_group, out=per_group)
        per_group *= gd
        per_group[rows, idx] -= gd
        return (per_group.reshape(logits.shape) @ keys,)

    return _emit(np.add.reduce(diff) / n, (q,), grad_fn)


# ---------------------------------------------------------------------------
# Gradient oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[Array], float], x: Array, eps: float = 1e-5) -> Array:
    """Central finite differences of a scalar function of a flat vector.

    ``f`` is evaluated at x +/- eps along every coordinate; the result has
    the same shape as ``x``.
    """
    eps = float(eps)
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    base = np.asarray(x, dtype=np.float64)
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
    return grad.reshape(base.shape)
