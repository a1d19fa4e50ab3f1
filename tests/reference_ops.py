"""Primitive tape ops that serve as references for the fused records.

Training and ``caco gradcheck`` record only ``add``, ``scale`` and the fused
records of ``caco.autodiff``. The ops below are the primitives those records
stand for: ``linear``, ``normalized_mlp``, ``mean_nll`` and ``grouped_nll``
(under both ``cat_nce`` and ``info_nce``) compute the expressions of these
primitives in the same order, so forward values and leaf gradients are
bit-equal to theirs. ``tests/test_autodiff.py`` and ``tests/test_losses.py``
compare them bit for bit and check each against finite differences. They
record on the same tape as the library's ops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from caco.autodiff import (
    Tensor,
    _emit,
    _row_index,
    as_tensor,
    relu_array,
    row_max,
    row_sum,
    unit_normalize,
)
from caco.errors import DimensionError, ParameterError

Array = np.ndarray


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def neg(x: Tensor) -> Tensor:
    x = as_tensor(x)
    return _emit(-x.data, (x,), lambda g: (-g,))


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an (m,n) matrix."""
    x, v = as_tensor(x), as_tensor(v)
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise DimensionError(f"add_rowvec shape mismatch: {x.shape} + {v.shape}")
    return _emit(x.data + v.data, (x, v), lambda g: (g, g.sum(axis=0)))


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
