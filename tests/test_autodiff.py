"""Tensor op contracts and the backward-vs-finite-difference property."""

import math

import numpy as np
import pytest

from caco import autodiff as ad
from caco.errors import (
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
    ParameterError,
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.abs(a - b).max() if a.size else 0.0
    scale = max(1.0, np.abs(a).max() if a.size else 0.0, np.abs(b).max() if b.size else 0.0)
    return diff / scale


# ---------------------------------------------------------------------------
# Forward contracts
# ---------------------------------------------------------------------------


def test_matmul_identity():
    b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ad.matmul(ad.Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_zero():
    z = ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.arange(12.0).reshape(3, 4)))
    np.testing.assert_array_equal(z.data, np.zeros((2, 4)))


def test_matmul_against_triple_loop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for t in range(2):
                expected[i][j] += a[i][t] * b[t][j]
    np.testing.assert_array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    np.testing.assert_array_equal(out.data, expected)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


def test_log_softmax_constant_vector():
    for tau in (0.07, 1.0, 3.5):
        out = ad.log_softmax(ad.Tensor([2.5, 2.5, 2.5, 2.5]), tau)
        np.testing.assert_allclose(out.data, -math.log(4.0), rtol=0, atol=1e-15)


def test_log_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    v = rng.normal(size=6)
    base = ad.log_softmax(ad.Tensor(v), 0.5).data
    shifted = ad.log_softmax(ad.Tensor(v + 17.25), 0.5).data
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


def test_log_softmax_direct_value():
    # frozen from a 50-digit scalar evaluation of v - log(sum(exp(v)))
    out = ad.log_softmax(ad.Tensor([1.0, 2.0, 3.0]), 1.0)
    expected = [-2.4076059644443803, -1.4076059644443803, -0.4076059644443803]
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-14)


def test_log_softmax_rejects_bad_tau():
    with pytest.raises(ParameterError):
        ad.log_softmax(ad.Tensor([1.0, 2.0]), 0.0)


def test_log_softmax_sums_to_one():
    rng = np.random.default_rng(1)
    for _ in range(25):
        v = rng.normal(scale=5.0, size=rng.integers(1, 9))
        out = ad.log_softmax(ad.Tensor(v), float(rng.uniform(0.05, 2.0)))
        assert abs(np.exp(out.data).sum() - 1.0) <= 1e-12


def test_l2_normalize_unit_vector_unchanged():
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(ad.l2_normalize(ad.Tensor(v)).data, v, atol=1e-15)


def test_l2_normalize_three_four():
    out = ad.l2_normalize(ad.Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], rtol=0, atol=1e-15)


def test_l2_normalize_zero_vector_rejected():
    with pytest.raises(DegenerateEmbeddingError):
        ad.l2_normalize(ad.Tensor([0.0, 0.0]))


def test_l2_normalize_non_finite_norm_rejected():
    # 1e200 is finite, but its square overflows, so the row's norm is inf
    for row in ([1e200, 1.0], [np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            ad.l2_normalize(ad.Tensor(np.array([[0.6, 0.8], row])))


def test_l2_normalize_unit_norm_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 10)) + 0.1
        out = ad.l2_normalize(ad.Tensor(v))
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-12
    rows = ad.l2_normalize(ad.Tensor(rng.normal(size=(8, 5)) + 0.2))
    np.testing.assert_allclose(np.linalg.norm(rows.data, axis=1), 1.0, atol=1e-12)


def test_logsumexp_empty_mask_rejected():
    with pytest.raises(ContractError):
        ad.logsumexp(ad.Tensor([1.0, 2.0]), mask=np.zeros(2))


def test_row_logsumexp_bit_equal_to_row_max_formula():
    # the reference takes numpy's row max; ties, signed zeros and -inf included
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.normal(scale=20.0, size=(int(rng.integers(1, 40)), int(rng.integers(1, 13))))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        x[rng.random(x.shape) < 0.05] = -np.inf
        x[:, 0] = np.where(np.isinf(x).all(axis=1), 1.5, x[:, 0])
        m = x.max(axis=1, keepdims=True)
        want = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True)))[:, 0]
        assert ad.row_logsumexp(ad.Tensor(x)).data.tobytes() == want.tobytes()


def test_reshape_size_mismatch():
    with pytest.raises(DimensionError):
        ad.reshape(ad.Tensor(np.zeros(6)), (4, 2))


# ---------------------------------------------------------------------------
# Backward basics
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.reduce_sum(x)
    grads = ad.backward(loss, tape)
    np.testing.assert_array_equal(grads[x.id].data, np.ones(3))


def test_backward_half_square_norm_gives_x():
    x = ad.Tensor([1.5, -0.5, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        sq = ad.take_per_row(ad.matmul(ad.reshape(x, (3, 1)), ad.reshape(x, (1, 3))), [0, 1, 2])
        loss = ad.scale(ad.reduce_sum(sq), 0.5)
    grads = ad.backward(loss, tape)
    np.testing.assert_allclose(grads[x.id].data, x.data, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.neg(x)
    with pytest.raises(ContractError):
        ad.backward(y, tape)


def test_backward_accumulates_shared_input():
    x = ad.Tensor([2.0, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.reduce_sum(ad.add(x, x))
    grads = ad.backward(loss, tape)
    np.testing.assert_array_equal(grads[x.id].data, [2.0, 2.0])


def test_backward_deterministic():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def run():
        with ad.Tape() as tape:
            loss = ad.reduce_mean(ad.relu(ad.matmul(x, w)))
        g = ad.backward(loss, tape)
        return g[x.id].data.copy(), g[w.id].data.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert (gx1 == gx2).all() and (gw1 == gw2).all()


def test_finite_diff_linear():
    out = ad.finite_diff_grad(lambda v: v.sum(), np.array([0.3, -1.2, 4.0]), 1e-5)
    np.testing.assert_allclose(out.data, np.ones(3), rtol=0, atol=1e-9)


def test_finite_diff_quadratic():
    out = ad.finite_diff_grad(lambda v: 0.5 * (v**2).sum(), np.array([1.0, 2.0]), 1e-5)
    np.testing.assert_allclose(out.data, [1.0, 2.0], rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# Backward matches finite differences for every differentiable op
# ---------------------------------------------------------------------------


def _check_op(build, x0: np.ndarray, tol: float = 1e-4) -> None:
    """Compare tape gradients with central differences on one instance."""
    x = ad.Tensor(x0, requires_grad=True)
    with ad.Tape() as tape:
        loss = build(x)
    analytic = ad.backward(loss, tape)[x.id].data

    def f(flat):
        return build(ad.Tensor(flat.reshape(x0.shape))).item()

    fd = ad.finite_diff_grad(f, x0, 1e-5).data
    assert rel_err(analytic, fd) <= tol


# weights used to make the scalar reduction non-uniform
def _pin(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


OP_CASES = {
    "matmul_left": lambda rng: (
        lambda x: ad.reduce_sum(ad.matmul(x, ad.Tensor(_pin((4, 3), 10)))),
        rng.normal(size=(2, 4)),
    ),
    "matmul_right": lambda rng: (
        lambda x: ad.reduce_mean(ad.matmul(ad.Tensor(_pin((3, 2), 11)), x)),
        rng.normal(size=(2, 4)),
    ),
    "matvec_both": lambda rng: (
        lambda x: ad.reduce_sum(ad.matvec(ad.reshape(x, (2, 3)), ad.Tensor(_pin(3, 12)))),
        rng.normal(size=6),
    ),
    "add_sub_neg": lambda rng: (
        lambda x: ad.reduce_sum(ad.sub(ad.neg(x), ad.add(x, x))),
        rng.normal(size=(3, 2)),
    ),
    "scale": lambda rng: (
        lambda x: ad.reduce_sum(ad.scale(x, -2.5)),
        rng.normal(size=5),
    ),
    "add_rowvec": lambda rng: (
        lambda x: ad.reduce_sum(
            ad.relu(ad.add_rowvec(ad.Tensor(_pin((4, 3), 13)), x))
        ),
        rng.normal(size=3) + 0.31,
    ),
    "relu": lambda rng: (
        lambda x: ad.reduce_sum(ad.relu(x)),
        # keep inputs away from the kink where central differences are wrong
        rng.normal(size=(3, 3)) + np.sign(rng.normal(size=(3, 3))) * 0.2,
    ),
    "reduce_mean": lambda rng: (
        lambda x: ad.reduce_mean(x),
        rng.normal(size=(2, 5)),
    ),
    "reshape_take": lambda rng: (
        lambda x: ad.reduce_sum(ad.take_per_row(ad.reshape(x, (3, 4)), [1, 0, 3])),
        rng.normal(size=12),
    ),
    "log_softmax_1d": lambda rng: (
        lambda x: ad.reduce_sum(
            ad.sub(ad.log_softmax(x, 0.3), ad.Tensor(_pin(6, 14)))
        ),
        rng.normal(size=6),
    ),
    "log_softmax_2d": lambda rng: (
        lambda x: ad.reduce_mean(ad.log_softmax(x, 1.7)),
        rng.normal(size=(3, 4)),
    ),
    "logsumexp_masked": lambda rng: (
        lambda x: ad.logsumexp(x, mask=np.array([1, 0, 1, 1, 0])),
        rng.normal(size=5),
    ),
    "row_logsumexp": lambda rng: (
        lambda x: ad.reduce_sum(ad.row_logsumexp(x)),
        rng.normal(size=(4, 3)),
    ),
    "l2_normalize": lambda rng: (
        lambda x: ad.reduce_sum(ad.matmul(ad.l2_normalize(x), ad.Tensor(_pin((3, 2), 15)))),
        rng.normal(size=(4, 3)) + 0.4,
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(100):
        build, x0 = OP_CASES[name](rng)
        _check_op(build, x0)
