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

Only the ops that training and ``caco gradcheck`` record live here: ``add``
and ``scale`` (the step's total loss) and four fused records. The
primitives that the fused records stand for (``matmul``, ``relu``,
``l2_normalize``, ``sub`` and the rest) live beside the tests that compare
against them, in ``tests/reference_ops.py``.
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


def _records(inputs: tuple[Tensor, ...]) -> bool:
    """An op is recorded when a tape is active and one of its inputs requires a gradient."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def _emit(data: Array, inputs: tuple[Tensor, ...], grad_fn: GradFn) -> Tensor:
    records = _records(inputs)
    out = Tensor(data, requires_grad=records or any(t.requires_grad for t in inputs))
    if records:
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


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar constant."""
    x = as_tensor(x)
    c = float(c)
    return _emit(c * x.data, (x,), lambda g: (c * g,))


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


def _row_index(op: str, shape: tuple[int, ...], idx) -> Array:
    """idx as one column index per row of a 2-d array of ``shape``, checked."""
    idx = np.asarray(idx, dtype=np.intp)
    if len(shape) != 2 or idx.ndim != 1 or idx.shape[0] != shape[0]:
        raise DimensionError(f"{op} shape mismatch: {shape} with idx {idx.shape}")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= shape[1]):
        raise ContractError(f"{op} index out of range")
    return idx


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


def _minus_per_row(a: Array, v: Array) -> Array:
    """a - v[:, None] as a new C-contiguous array, one column at a time: a
    broadcast subtraction's inner loop runs over a few columns per row."""
    out = np.empty(a.shape)
    for j in range(a.shape[1]):
        np.subtract(a[:, j], v, out=out[:, j])
    return out


def unit_normalize(a: Array) -> tuple[Array, Array]:
    """``a`` scaled to unit Euclidean norm along its last axis, and the norms.

    Raises NonFiniteError if a norm is not finite (a NaN or an overflow
    upstream) and, failing that, DegenerateEmbeddingError if one is (near)
    zero. The package's one row normaliser: its norms are linalg.norm's expression.
    """
    norms = np.sqrt(np.add.reduce(a * a, axis=-1, keepdims=True))
    if norms.size:
        # norms are >= 0 or NaN, and a max holding a NaN is NaN
        if not np.isfinite(np.maximum.reduce(norms, axis=None)):
            raise NonFiniteError("cannot normalize a vector whose norm is not finite")
        if np.minimum.reduce(norms, axis=None) <= _NORM_FLOOR:
            raise DegenerateEmbeddingError("cannot normalize a (near-)zero vector")
    return a / norms, norms


# ---------------------------------------------------------------------------
# Fused records: one record where training would otherwise emit several.
# Each computes the expressions of the primitives it stands for, in the same
# order, so forward values and leaf gradients are bit-equal to theirs. The
# primitives are the references in tests/reference_ops.py.
# ---------------------------------------------------------------------------


def _check_linear(h: Array, w: Array, b: Array) -> None:
    if (h.ndim != 2 or w.ndim != 2 or b.ndim != 1
            or h.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise DimensionError(f"linear shape mismatch: {h.shape} @ {w.shape} + {b.shape}")


def linear(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """h @ w + b over an (m,k) block, as one record.

    Stands for add_rowvec(matmul(h, w), b), both in tests/reference_ops.py.
    The gradient for h is not formed when h requires none (input rows).
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
    """``x`` and each layer's output, h @ w + b in a new array, of a ReLU MLP (no ReLU after
    the last layer) over one block of rows: normalized_mlp's blocks."""
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


# a block's 64-wide hidden layer stays under glibc's 128 KiB mmap threshold
ROW_BLOCK = 128


def normalized_mlp(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """A ReLU MLP over a (batch, D) block, each output row scaled to unit norm, as one record.

    The one encoder forward: mlp_layers over k = ceil(n / ROW_BLOCK) near-equal
    blocks of the n rows, block i being rows n*i//k to n*(i+1)//k (a training
    batch is one block), then one unit_normalize over all rows; unrecorded, it
    keeps one block's hidden layers at a time. Stands for linear(h, w, b) per
    layer with relu() after all but the last, then l2_normalize() (both in
    tests/reference_ops.py). x's gradient is not formed unless x requires one.
    """
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError(f"the encoder expects a (batch, D) block, got shape {x.shape}")
    weights, biases = [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]
    inputs = (x, *(t for layer in zip(weights, biases) for t in layer))
    kept = 0 if _records(inputs) else -1  # a backward reads all layers but the last, popped below
    n = x.shape[0]
    k = -(-n // ROW_BLOCK) or 1  # a block of 0 rows still checks the shapes
    spans = [(n * i // k, n * (i + 1) // k) for i in range(k)]
    blocks = [mlp_layers(x.data[lo:hi], weights, biases)[kept:] for lo, hi in spans]
    out, norms = unit_normalize(blocks[0].pop() if k == 1 else
                                np.concatenate([hs.pop() for hs in blocks]))

    def grad_fn(g: Array):
        # g may be shared with other records; every array written below is new
        pulled = np.add.reduce(g * out, axis=-1, keepdims=True) * out
        g = np.subtract(g, pulled, out=pulled)
        g /= norms
        gxs, total = [], None
        for (lo, hi), hs in zip(spans, blocks):
            gb, grads = g[lo:hi], []
            for i in reversed(range(len(weights))):
                grads[:0] = (hs[i].T @ gb, np.add.reduce(gb, axis=0))
                if i or x.requires_grad:
                    gb = gb @ weights[i].data.T
                if i:
                    gb *= hs[i] > 0  # a ReLU output is positive exactly where its input was
            gxs.append(gb)
            total = grads if total is None else [a + b for a, b in zip(total, grads)]
        return (np.concatenate(gxs) if x.requires_grad else None, *total)

    return _emit(out, inputs, grad_fn)


def mean_nll(x: Tensor, idx) -> Tensor:
    """Mean over rows i of -log softmax(x[i])[idx[i]], as one record.

    Stands for neg(reduce_mean(take_per_row(log_softmax(x, 1.0), idx))),
    all four in tests/reference_ops.py.
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
    whose positive sits at idx[r]; one (d,) query is one row, and its
    gradient has the query's shape. Stands for, as one record,
    reduce_mean(sub(row_logsumexp(G), take_per_row(G, idx))) with
    G = reshape(matmul(q, Tensor(keys.T)), (-1, width)); all of them are
    in tests/reference_ops.py. The keys are constants: their gradient is
    never formed.
    """
    q = as_tensor(q)
    keys = np.asarray(keys, dtype=np.float64)
    rows = q.data[None] if q.data.ndim == 1 else q.data
    if rows.ndim != 2 or keys.ndim != 2 or rows.shape[1] != keys.shape[1]:
        raise DimensionError(f"grouped_nll shape mismatch: {q.shape} against keys {keys.shape}")
    if width < 1 or keys.shape[0] % width:
        raise DimensionError(f"{keys.shape[0]} keys do not split into groups of {width}")
    logits = rows @ keys.T
    groups = logits.reshape((-1, width))
    idx = _row_index("grouped_nll", groups.shape, idx)
    # flat position of each group's positive in the C-contiguous logits
    pos = np.arange(0, groups.size, width) + idx
    m = row_max(groups)
    e = _minus_per_row(groups, m)
    lse = m + np.log(row_sum(np.exp(e, out=e)))
    diff = lse - logits.ravel().take(pos)
    n = diff.size

    def grad_fn(g: Array):
        gd = g / n  # the same for every group
        per_group = _minus_per_row(groups, lse)
        np.exp(per_group, out=per_group)
        per_group *= gd
        per_group.ravel()[pos] -= gd
        return ((per_group.reshape(logits.shape) @ keys).reshape(q.shape),)

    return _emit(np.add.reduce(diff) / n, (q,), grad_fn)
