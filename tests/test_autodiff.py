"""Tensor op contracts and the backward-vs-finite-difference property."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caco import autodiff as ad
from caco.gradcheck import gradient_error
from caco.errors import (
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
    ParameterError,
)

import reference_ops as ref
from conftest import tape_length


# ---------------------------------------------------------------------------
# Forward contracts
# ---------------------------------------------------------------------------


def test_matmul_identity():
    b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ref.matmul(ad.Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_zero():
    z = ref.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.arange(12.0).reshape(3, 4)))
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
    out = ref.matmul(ad.Tensor(a), ad.Tensor(b))
    np.testing.assert_array_equal(out.data, expected)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ref.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


def test_log_softmax_constant_vector():
    for tau in (0.07, 1.0, 3.5):
        out = ref.log_softmax(ad.Tensor([2.5, 2.5, 2.5, 2.5]), tau)
        np.testing.assert_allclose(out.data, -math.log(4.0), rtol=0, atol=1e-15)


def test_log_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    v = rng.normal(size=6)
    base = ref.log_softmax(ad.Tensor(v), 0.5).data
    shifted = ref.log_softmax(ad.Tensor(v + 17.25), 0.5).data
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


def test_log_softmax_direct_value():
    # frozen from a 50-digit scalar evaluation of v - log(sum(exp(v)))
    out = ref.log_softmax(ad.Tensor([1.0, 2.0, 3.0]), 1.0)
    expected = [-2.4076059644443803, -1.4076059644443803, -0.4076059644443803]
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-14)


def test_log_softmax_rejects_bad_tau():
    with pytest.raises(ParameterError):
        ref.log_softmax(ad.Tensor([1.0, 2.0]), 0.0)


def test_log_softmax_sums_to_one():
    rng = np.random.default_rng(1)
    for _ in range(25):
        v = rng.normal(scale=5.0, size=rng.integers(1, 9))
        out = ref.log_softmax(ad.Tensor(v), float(rng.uniform(0.05, 2.0)))
        assert abs(np.exp(out.data).sum() - 1.0) <= 1e-12


def test_l2_normalize_unit_vector_unchanged():
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(ref.l2_normalize(ad.Tensor(v)).data, v, atol=1e-15)


def test_l2_normalize_three_four():
    out = ref.l2_normalize(ad.Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], rtol=0, atol=1e-15)


def test_l2_normalize_zero_vector_rejected():
    with pytest.raises(DegenerateEmbeddingError):
        ref.l2_normalize(ad.Tensor([0.0, 0.0]))


def test_l2_normalize_non_finite_norm_rejected():
    # 1e200 is finite, but its square overflows, so the row's norm is inf
    for row in ([1e200, 1.0], [np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            ref.l2_normalize(ad.Tensor(np.array([[0.6, 0.8], row])))


# what a row of unit_normalize's input holds: finite values, or one of the
# entries that make the parent raise
_ROW_KINDS = ("finite", "finite", "finite", "zero", "nan", "inf", "-inf")


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9),
    st.lists(st.tuples(st.integers(-150, 150), st.sampled_from(_ROW_KINDS)), max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_unit_normalize_norms_bit_equal_to_linalg_norm(dim, rows, seed):
    # rows scaled from 1e-150 to 1e150, down to shape (0, d); a NaN, an inf or
    # a zero row raises the error np.linalg.norm's norms call for, NonFiniteError
    # before DegenerateEmbeddingError when a block holds both
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(len(rows), dim))
    for i, (exponent, kind) in enumerate(rows):
        a[i] *= 10.0 ** exponent
        if dim and kind != "finite":
            a[i, rng.integers(dim)] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}.get(kind, 0.0)
            if kind == "zero":
                a[i] = 0.0
    want = np.linalg.norm(a, axis=-1, keepdims=True)
    if not np.isfinite(want).all():
        with pytest.raises(NonFiniteError):
            ad.unit_normalize(a)
    elif (want <= 1e-12).any():
        with pytest.raises(DegenerateEmbeddingError):
            ad.unit_normalize(a)
    else:
        out, norms = ad.unit_normalize(a)
        assert norms.shape == want.shape and norms.tobytes() == want.tobytes()
        assert out.tobytes() == (a / want).tobytes()


def test_unit_normalize_names_a_non_finite_row_before_a_zero_row():
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            ad.unit_normalize(np.array([[0.0, 0.0], [1.0, bad], [3.0, 4.0]]))


def test_l2_normalize_unit_norm_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 10)) + 0.1
        out = ref.l2_normalize(ad.Tensor(v))
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-12
    rows = ref.l2_normalize(ad.Tensor(rng.normal(size=(8, 5)) + 0.2))
    np.testing.assert_allclose(np.linalg.norm(rows.data, axis=1), 1.0, atol=1e-12)


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
        assert ref.row_logsumexp(ad.Tensor(x)).data.tobytes() == want.tobytes()


def test_reshape_size_mismatch():
    with pytest.raises(DimensionError):
        ref.reshape(ad.Tensor(np.zeros(6)), (4, 2))


# ---------------------------------------------------------------------------
# Backward basics
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ref.reduce_sum(x)
    grads = ad.backward(loss, tape)
    np.testing.assert_array_equal(grads[x], np.ones(3))


def test_backward_half_square_norm_gives_x():
    x = ad.Tensor([1.5, -0.5, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        sq = ref.take_per_row(ref.matmul(ref.reshape(x, (3, 1)), ref.reshape(x, (1, 3))), [0, 1, 2])
        loss = ad.scale(ref.reduce_sum(sq), 0.5)
    grads = ad.backward(loss, tape)
    np.testing.assert_allclose(grads[x], x.data, atol=1e-12)


def test_backward_rejects_non_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ref.neg(x)
    with pytest.raises(ContractError):
        ad.backward(y, tape)


def test_backward_accumulates_shared_input():
    x = ad.Tensor([2.0, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ref.reduce_sum(ad.add(x, x))
    grads = ad.backward(loss, tape)
    np.testing.assert_array_equal(grads[x], [2.0, 2.0])


def test_backward_keys_exactly_the_leaves_by_identity():
    x = ad.Tensor([[1.0, -2.0]], requires_grad=True)
    w = ad.Tensor([[0.5], [0.25]], requires_grad=True)
    twin = ad.Tensor(w.data, requires_grad=True)  # equal values, another leaf
    const = ad.Tensor([[3.0]])
    with ad.Tape() as tape:
        hidden = ref.matmul(x, w)
        loss = ref.reduce_sum(ad.add(ad.add(hidden, ref.matmul(x, twin)), const))
    grads = ad.backward(loss, tape)
    assert set(grads) == {x, w, twin}  # no intermediate, no constant
    assert all(type(g) is np.ndarray for g in grads.values())
    assert grads[w] is not grads[twin] and np.array_equal(grads[w], grads[twin])


def test_backward_skips_a_record_whose_output_never_reaches_the_loss():
    x = ad.Tensor([2.0, 3.0], requires_grad=True)
    w = ad.Tensor([5.0, 7.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ref.reduce_sum(ad.scale(x, 3.0))
        ref.sub(x, w)  # recorded after the loss, so the reverse sweep meets it first
    assert tape_length(tape) == 3
    grads = ad.backward(loss, tape)
    assert set(grads) == {x}  # nothing flowed through the dropped record into w
    np.testing.assert_array_equal(grads[x], [3.0, 3.0])


def test_mlp_layers_returns_every_layer():
    rng = np.random.default_rng(9)
    weights = [ad.Tensor(rng.normal(size=(3, 5))), ad.Tensor(rng.normal(size=(5, 2)))]
    biases = [ad.Tensor(rng.normal(size=5)), ad.Tensor(rng.normal(size=2))]
    x = rng.normal(size=(4, 3))
    hs = ad.mlp_layers(x, weights, biases)
    assert hs[0] is x and [h.shape for h in hs] == [(4, 3), (4, 5), (4, 2)]
    assert hs[1].tobytes() == ad.relu_array(x @ weights[0].data + biases[0].data).tobytes()
    assert hs[2].tobytes() == (hs[1] @ weights[1].data + biases[1].data).tobytes()
    again = ad.mlp_layers(x, weights, biases)
    assert not any(np.shares_memory(a, b) for a, b in zip(again[1:], hs[1:]))
    # every layer is checked, the second too
    with pytest.raises(DimensionError):
        ad.mlp_layers(x, weights, [biases[0], ad.Tensor(np.zeros(3))])
    with pytest.raises(DimensionError):
        ad.mlp_layers(x, weights, biases[:1])


def test_tapes_unwound_out_of_order_are_a_contract_error(monkeypatch):
    # what two threads recording at once do to the one stack of active tapes
    monkeypatch.setattr(ad, "_TAPE_STACK", [])
    outer, inner = ad.Tape(), ad.Tape()
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(ContractError, match="one recording thread per process"):
        outer.__exit__(None, None, None)


def test_backward_deterministic():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def run():
        with ad.Tape() as tape:
            loss = ref.reduce_mean(ref.relu(ref.matmul(x, w)))
        g = ad.backward(loss, tape)
        return g[x].copy(), g[w].copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert (gx1 == gx2).all() and (gw1 == gw2).all()


def test_finite_diff_linear():
    # central differences of a linear loss are exact up to rounding
    assert gradient_error(ref.reduce_sum, np.array([0.3, -1.2, 4.0])) <= 1e-9


def test_finite_diff_quadratic():
    # 0.5 * v.v, whose central differences are exact up to rounding too
    def half_square(v):
        row, col = ref.reshape(v, (1, 2)), ref.reshape(v, (2, 1))
        return ad.scale(ref.reduce_sum(ref.matmul(row, col)), 0.5)

    assert gradient_error(half_square, np.array([1.0, 2.0])) <= 1e-8


# ---------------------------------------------------------------------------
# Backward matches finite differences for every differentiable op
# ---------------------------------------------------------------------------


# weights used to make the scalar reduction non-uniform
def _pin(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


OP_CASES = {
    "matmul_left": lambda rng: (
        lambda x: ref.reduce_sum(ref.matmul(x, ad.Tensor(_pin((4, 3), 10)))),
        rng.normal(size=(2, 4)),
    ),
    "matmul_right": lambda rng: (
        lambda x: ref.reduce_mean(ref.matmul(ad.Tensor(_pin((3, 2), 11)), x)),
        rng.normal(size=(2, 4)),
    ),
    "add_sub_neg": lambda rng: (
        lambda x: ref.reduce_sum(ref.sub(ref.neg(x), ad.add(x, x))),
        rng.normal(size=(3, 2)),
    ),
    "scale": lambda rng: (
        lambda x: ref.reduce_sum(ad.scale(x, -2.5)),
        rng.normal(size=5),
    ),
    "add_rowvec": lambda rng: (
        lambda x: ref.reduce_sum(
            ref.relu(ref.add_rowvec(ad.Tensor(_pin((4, 3), 13)), x))
        ),
        rng.normal(size=3) + 0.31,
    ),
    "relu": lambda rng: (
        lambda x: ref.reduce_sum(ref.relu(x)),
        # keep inputs away from the kink where central differences are wrong
        rng.normal(size=(3, 3)) + np.sign(rng.normal(size=(3, 3))) * 0.2,
    ),
    "reduce_mean": lambda rng: (
        lambda x: ref.reduce_mean(x),
        rng.normal(size=(2, 5)),
    ),
    "reshape_take": lambda rng: (
        lambda x: ref.reduce_sum(ref.take_per_row(ref.reshape(x, (3, 4)), [1, 0, 3])),
        rng.normal(size=12),
    ),
    "log_softmax_1d": lambda rng: (
        lambda x: ref.reduce_sum(
            ref.sub(ref.log_softmax(x, 0.3), ad.Tensor(_pin(6, 14)))
        ),
        rng.normal(size=6),
    ),
    "log_softmax_2d": lambda rng: (
        lambda x: ref.reduce_mean(ref.log_softmax(x, 1.7)),
        rng.normal(size=(3, 4)),
    ),
    "row_logsumexp": lambda rng: (
        lambda x: ref.reduce_sum(ref.row_logsumexp(x)),
        rng.normal(size=(4, 3)),
    ),
    "l2_normalize": lambda rng: (
        lambda x: ref.reduce_sum(ref.matmul(ref.l2_normalize(x), ad.Tensor(_pin((3, 2), 15)))),
        rng.normal(size=(4, 3)) + 0.4,
    ),
    "linear_relu_input": lambda rng: (
        lambda x: ref.reduce_sum(
            ref.relu(ad.linear(x, ad.Tensor(_pin((4, 3), 16)), ad.Tensor(_pin(3, 17))))
        ),
        # keep pre-activations away from the kink
        rng.normal(size=(2, 4)) * 0.05 + _pin((2, 4), 18),
    ),
    "normalized_mlp_input": lambda rng: (
        lambda x: ref.reduce_sum(ref.matmul(
            ad.normalized_mlp(x, [ad.Tensor(_pin((4, 5), 23)), ad.Tensor(_pin((5, 3), 24))],
                              [ad.Tensor(_pin(5, 25)), ad.Tensor(_pin(3, 26))]),
            ad.Tensor(_pin((3, 2), 27)),
        )),
        # keep hidden pre-activations away from the kink
        rng.normal(size=(3, 4)) * 0.05 + _pin((3, 4), 28),
    ),
    "normalized_mlp_weight": lambda rng: (
        lambda x: ref.reduce_mean(ref.matmul(
            ad.normalized_mlp(ad.Tensor(_pin((3, 4), 29)), [ad.Tensor(_pin((4, 5), 30)), x],
                              [ad.Tensor(_pin(5, 31)), ad.Tensor(_pin(3, 32))]),
            ad.Tensor(_pin((3, 2), 33)),
        )),
        rng.normal(size=(5, 3)),
    ),
    "linear_weight": lambda rng: (
        lambda x: ref.reduce_mean(
            ad.linear(ad.Tensor(_pin((3, 4), 19)), x, ad.Tensor(_pin(2, 20)))
        ),
        rng.normal(size=(4, 2)),
    ),
    "mean_nll": lambda rng: (
        lambda x: ad.mean_nll(x, [2, 0, 3]),
        rng.normal(scale=2.0, size=(3, 4)),
    ),
    "grouped_nll": lambda rng: (
        lambda x: ad.grouped_nll(x, _pin((6, 3), 21), [0, 2, 1, 1, 0, 2], 3),
        rng.normal(size=(3, 3)),
    ),
    "grouped_nll_width_9": lambda rng: (  # numpy's pairwise sum from 8 terms on
        lambda x: ad.grouped_nll(x, _pin((18, 3), 22), [0, 8, 4, 7], 9),
        rng.normal(size=(2, 3)),
    ),
    "grouped_nll_one_query": lambda rng: (  # info_nce's shape: one (d,) query, one group
        lambda x: ad.grouped_nll(x, _pin((5, 3), 34), [2], 5),
        rng.normal(size=3),
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    # crc32, not hash(): str hashes are salted per process, so the draws would differ per run
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        build, x0 = OP_CASES[name](rng)
        assert gradient_error(build, x0) <= 1e-4


# ---------------------------------------------------------------------------
# Fused records are bit-equal to the primitive compositions they stand for
# ---------------------------------------------------------------------------


def _run(build, arrays, requires):
    """Forward value and each leaf's gradient (None if it takes none), on fresh leaves."""
    leaves = [ad.Tensor(a, r) for a, r in zip(arrays, requires)]
    with ad.Tape() as tape:
        out = build(*leaves)
    grads = ad.backward(out, tape)
    return out.data, [grads.get(t) for t in leaves], tape_length(tape)


def _assert_bit_equal(fused, primitive):
    (value_f, grads_f, _), (value_p, grads_p, _) = fused, primitive
    assert np.array_equal(value_f, value_p) and value_f.tobytes() == value_p.tobytes()
    for gf, gp in zip(grads_f, grads_p):
        assert (gf is None) == (gp is None)
        if gf is not None:
            assert np.array_equal(gf, gp) and gf.tobytes() == gp.tobytes()


def _primitive_linear(h, w, b):
    return ref.add_rowvec(ref.matmul(h, w), b)


def _linear_relu(linear):
    """One layer followed by a ReLU record when asked, built from ``linear``."""
    def layer(h, w, b, relu):
        z = linear(h, w, b)
        return ref.relu(z) if relu else z
    return layer


def _layered_encoder(x, weights, biases):
    """normalized_mlp's composition: linear records, relu records, then l2_normalize."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = _linear_relu(ad.linear)(h, w, b, i < len(weights) - 1)
    return ref.l2_normalize(h)


def test_relu_array_bit_equal_to_where_except_nan():
    z = np.array([0.0, -0.0, -1.5, 2.0, 5e-324, -5e-324, 1e308, -np.inf, np.inf])
    out = ad.relu_array(z)
    assert out.tobytes() == np.where(z > 0, z, 0.0).tobytes()
    assert not np.signbit(out).any()
    assert np.isnan(ad.relu_array(np.array([np.nan, 1.0]))[0])  # np.where gave 0.0


_SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, -2.2250738585072009e-308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()), max_size=40))
def test_relu_output_is_positive_exactly_where_its_input_was(values):
    # normalized_mlp's backward reads each ReLU mask off the layer's output
    z = np.array(values, dtype=np.float64)
    assert np.array_equal(ad.relu_array(z) > 0, z > 0)
    buf = z.copy()
    assert np.array_equal(ad.relu_array(buf, out=buf) > 0, z > 0)


def test_in_place_relu_bit_equal_to_relu_array():
    z = np.array([0.0, -0.0, -1.5, 2.0, 5e-324, -5e-324, 1e308, -np.inf, np.inf, np.nan, -np.nan])
    want = ad.relu_array(z)
    buf = z.copy()
    assert ad.relu_array(buf, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    assert not np.signbit(buf[:-2]).any() and np.isnan(buf[-2:]).all()


def test_row_folds_bit_equal_to_numpy_max_and_sum():
    rng = np.random.default_rng(36)
    for width in range(1, 13):
        for scale in (1e-3, 1.0, 1e3):
            a = rng.normal(scale=scale, size=(17, width))
            a[3] = a[3, 0]  # a tied row
            a[5, 0] = a[6, -1] = -0.0
            a[7] = -0.0  # the one row whose fold differs from numpy's sum, in sign only
            assert ad.row_max(a).tobytes() == a.max(axis=1).tobytes()
            want = a.sum(axis=1)
            if width < 8:  # row 7, and rows 5 and 6 at width 1
                want[((a == 0.0) & np.signbit(a)).all(axis=1)] = -0.0
            assert ad.row_sum(a).tobytes() == want.tobytes()
            e = np.exp(a - a.max(axis=1, keepdims=True))
            assert ad.row_sum(e).tobytes() == e.sum(axis=1).tobytes()


def test_linear_bit_equal_to_matmul_add_rowvec_relu():
    rng = np.random.default_rng(30)
    for trial in range(60):
        m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
        h = rng.normal(size=(m, k))
        w = rng.normal(size=(k, n))
        b = rng.normal(size=n)
        # exact-zero and negative pre-activations: a zero input row meets a
        # zero or a negative bias
        h[rng.random(m) < 0.3] = 0.0
        b[rng.random(n) < 0.3] = 0.0
        b[rng.random(n) < 0.2] = -1.0
        pin = _pin((n, 3), trial)
        relu, input_grad = bool(trial % 2), bool(trial % 3)

        def loss_of(linear):
            layer = _linear_relu(linear)
            return lambda h, w, b: ref.reduce_sum(ref.matmul(layer(h, w, b, relu), ad.Tensor(pin)))

        requires = (input_grad, True, True)
        fused = _run(loss_of(ad.linear), (h, w, b), requires)
        _assert_bit_equal(fused, _run(loss_of(_primitive_linear), (h, w, b), requires))
        assert (fused[1][0] is None) == (not input_grad)
        assert fused[2] == 3 + relu  # the linear, the relu if any, the loss's matmul and sum


def test_linear_hand_set_kink():
    # a hidden layer of the encoder record with pre-activations
    # [[0.0, -1.0, 1.5], [0.0, -3.0, -0.5]]: zeros, negatives, one positive.
    # A -0.0 cannot arise from h @ w + b here (the sum starts from +0.0), so the
    # signed zero is covered by test_relu_array_bit_equal_to_where_except_nan.
    h = np.array([[1.0, 0.5], [0.0, 0.0]])
    w = np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    b = np.array([0.0, -3.0, -0.5])
    z = h @ w + b
    np.testing.assert_array_equal(z, [[0.0, -1.0, 1.5], [0.0, -3.0, -0.5]])
    w_out, b_out = _pin((3, 2), 34), np.array([0.5, -0.25])  # row 2 maps to b_out alone

    for sign in (1.0, -1.0):

        def loss_of(encoder):
            return lambda h, w, b, w_out, b_out: ref.reduce_sum(ad.scale(ref.matmul(
                encoder(h, [w, w_out], [b, b_out]), ad.Tensor(_pin((2, 1), 35))), sign))

        arrays = (h, w, b, w_out, b_out)
        for requires in ((True,) * 5, (False,) + (True,) * 4):
            fused = _run(loss_of(ad.normalized_mlp), arrays, requires)
            _assert_bit_equal(fused, _run(loss_of(_layered_encoder), arrays, requires))
        gb = fused[1][2]
        np.testing.assert_array_equal(gb[:2], [0.0, 0.0])  # none through a zero or a negative
        assert gb[2] != 0.0
        np.testing.assert_array_equal(fused[1][1][:, :2], 0.0)


def test_one_encoder_used_twice_sums_gradients_in_tape_order():
    # the training step's shape: one set of layers on two input blocks, two losses added
    rng = np.random.default_rng(31)
    for trial in range(20):
        widths = (3, 8, 8, 4)
        params = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            params += [rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out) * 0.1]
        x1, x2 = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        pin1, pin2 = _pin((4, 2), 40 + trial), _pin((4, 2), 80 + trial)

        def loss_of(encoder):
            def build(x1, x2, *p):
                first = ref.reduce_sum(ref.matmul(encoder(x1, p[0::2], p[1::2]), ad.Tensor(pin1)))
                second = ref.reduce_mean(ref.matmul(encoder(x2, p[0::2], p[1::2]), ad.Tensor(pin2)))
                return ad.add(first, ad.scale(second, 0.7))
            return build

        arrays = (x1, x2, *params)
        requires = (False, False) + (True,) * len(params)
        _assert_bit_equal(
            _run(loss_of(ad.normalized_mlp), arrays, requires),
            _run(loss_of(_layered_encoder), arrays, requires),
        )


def test_normalized_mlp_bit_equal_to_linear_relu_l2_normalize():
    # one record for the whole encoder against one linear and one relu record
    # per layer and an l2_normalize: forward values and every leaf's gradient
    rng = np.random.default_rng(34)
    for trial in range(80):
        depth = int(rng.integers(1, 5))
        widths = [int(v) for v in rng.integers(1, 9, size=depth + 1)]
        m = int(rng.integers(1, 7))
        x = rng.normal(size=(m, widths[0]))
        x[rng.random(m) < 0.3] = 0.0  # zero rows meet zero and negative biases
        params = []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            b = rng.normal(size=fan_out)
            if i < depth - 1:
                b[rng.random(fan_out) < 0.3] = 0.0
                b[rng.random(fan_out) < 0.2] = -1.0
            else:
                b += np.sign(b)  # no zero output row to normalize
            params += [rng.normal(size=(fan_in, fan_out)), b]
        pin = _pin((widths[-1], 2), trial)
        input_grad = bool(trial % 3)

        def loss_of(encoder):
            return lambda x, *p: ref.reduce_sum(ref.matmul(encoder(x, p[0::2], p[1::2]), ad.Tensor(pin)))

        arrays = (x, *params)
        requires = (input_grad,) + (True,) * len(params)
        fused = _run(loss_of(ad.normalized_mlp), arrays, requires)
        layered = _run(loss_of(_layered_encoder), arrays, requires)
        _assert_bit_equal(fused, layered)
        assert (fused[1][0] is None) == (not input_grad)
        assert fused[2] == 3 and layered[2] == 2 * depth + 2


def test_normalized_mlp_records_its_blocks_and_sums_their_gradients():
    # over three blocks of rows the record keeps every block's layers; its
    # gradients are the layered encoder's over all rows, up to the order of the sum
    rng = np.random.default_rng(36)
    x = rng.normal(size=(3 * ad.ROW_BLOCK - 7, 4))
    params = [rng.normal(size=(4, 6)), rng.normal(size=6) * 0.1,
              rng.normal(size=(6, 3)), rng.normal(size=3) + 2.0]
    pin = _pin((3, 2), 37)

    def loss_of(encoder):
        return lambda x, *p: ref.reduce_sum(ref.matmul(encoder(x, p[0::2], p[1::2]), ad.Tensor(pin)))

    fused = _run(loss_of(ad.normalized_mlp), (x, *params), (True,) * 5)
    layered = _run(loss_of(_layered_encoder), (x, *params), (True,) * 5)
    np.testing.assert_allclose(fused[0], layered[0], rtol=1e-13)
    for gf, gl in zip(fused[1], layered[1]):
        assert gf.shape == gl.shape
        np.testing.assert_allclose(gf, gl, rtol=1e-11, atol=1e-13)
    assert fused[2] == 3


def test_mean_nll_bit_equal_to_neg_mean_take_log_softmax():
    rng = np.random.default_rng(32)
    for trial in range(60):
        batch, width = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        x = rng.normal(scale=float(rng.choice([0.1, 3.0, 50.0])), size=(batch, width))
        x[rng.random(x.shape) < 0.2] = 1.25  # ties
        idx = rng.integers(0, width, size=batch)
        pin = float(rng.uniform(0.1, 2.0))

        def primitive(x):
            return ref.neg(ref.reduce_mean(ref.take_per_row(ref.log_softmax(x, 1.0), idx)))

        # scaled so the gradient reaching the record is not 1.0
        fused = _run(lambda x: ad.scale(ad.mean_nll(x, idx), pin), (x,), (True,))
        _assert_bit_equal(fused, _run(lambda x: ad.scale(primitive(x), pin), (x,), (True,)))
        assert fused[2] == 2


def test_grouped_nll_bit_equal_to_matmul_reshape_take_row_logsumexp():
    # widths on both sides of 8, where grouped_nll's sum turns from a column
    # fold into numpy's row sum, which adds pairwise from 8 terms on
    rng = np.random.default_rng(33)
    cases = []
    for trial in range(120):
        batch, dim = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        width, groups = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        q = rng.normal(size=(batch, dim))
        keys = rng.normal(size=(groups * width, dim)) / float(rng.uniform(0.07, 0.14))
        cases.append((q, keys, width, rng.integers(0, width, size=batch * groups)))
    # the edges of the flat positive positions: width 1, groups whose logits all
    # tie, and every positive in the first or in the last column
    q = rng.normal(size=(3, 4))
    for width in (1, 4, 9):
        keys = rng.normal(size=(5 * width, 4)) / 0.1
        for block in (keys, np.repeat(keys[::width], width, axis=0)):  # second: tied groups
            cases += [(q, block, width, np.full(15, col)) for col in (0, width - 1)]
    for q, keys, width, idx in cases:
        pin = float(rng.uniform(0.1, 2.0))

        def primitive(q):
            logits = ref.matmul(q, ad.Tensor(keys.T))
            per_group = ref.reshape(logits, (idx.size, width))
            positives = ref.take_per_row(per_group, idx)
            return ref.reduce_mean(ref.sub(ref.row_logsumexp(per_group), positives))

        fused = _run(lambda q: ad.scale(ad.grouped_nll(q, keys, idx, width), pin), (q,), (True,))
        _assert_bit_equal(fused, _run(lambda q: ad.scale(primitive(q), pin), (q,), (True,)))
        assert fused[2] == 2


def test_grouped_nll_one_query_is_one_row_bit_for_bit():
    # info_nce hands grouped_nll one (d,) query; its loss and gradient are the (1, d) row's
    rng = np.random.default_rng(34)
    for _ in range(50):
        dim, width, groups = (int(v) for v in rng.integers(1, 10, size=3))
        q = rng.normal(size=dim)
        keys = rng.normal(size=(groups * width, dim)) / float(rng.uniform(0.05, 0.5))
        idx = rng.integers(0, width, size=groups)
        one, row = (_run(lambda q: ad.grouped_nll(q, keys, idx, width), (block,), (True,))
                    for block in (q, q[None]))
        assert one[1][0].shape == q.shape and row[1][0].shape == (1, dim)
        assert one[0].tobytes() == row[0].tobytes()
        assert one[1][0].tobytes() == row[1][0].tobytes()


def test_fused_records_check_shapes_and_indices():
    w, b = ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros(2))
    for bad in (np.zeros((2, 4)), np.zeros(3)):
        with pytest.raises(DimensionError):
            ad.linear(ad.Tensor(bad), w, b)
    with pytest.raises(DimensionError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), w, ad.Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.normalized_mlp(ad.Tensor(np.ones((2, 3))), [w, w], [b, b])  # 2 outputs into 3 inputs
    with pytest.raises(DimensionError):
        ad.normalized_mlp(ad.Tensor(np.ones((2, 3))), [w], [])
    with pytest.raises(DimensionError):
        ad.mean_nll(ad.Tensor(np.zeros((2, 3))), [0])
    with pytest.raises(ContractError):
        ad.mean_nll(ad.Tensor(np.zeros((2, 3))), [0, 3])
    keys = np.zeros((6, 4))
    with pytest.raises(DimensionError):
        ad.grouped_nll(ad.Tensor(np.zeros((2, 4))), keys, [0] * 3, 4)  # 6 keys, groups of 4
    with pytest.raises(DimensionError):
        ad.grouped_nll(ad.Tensor(np.zeros((2, 5))), keys, [0] * 6, 3)
    with pytest.raises(ContractError):
        ad.grouped_nll(ad.Tensor(np.zeros((2, 4))), keys, [0, 0, 3, 0], 3)
