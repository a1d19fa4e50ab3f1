"""Encoder, classifier, momentum update and checkpoint contracts."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caco.autodiff import Tensor
from caco.errors import (
    ContractError, DegenerateEmbeddingError, DimensionError, NonFiniteError, ParameterError,
)
from caco.gradcheck import gradient_error
from caco.losses import supervised_loss
from caco.model import (
    EMBED_BLOCK,
    CacoModel,
    Classifier,
    EncoderPair,
    MlpParams,
    MlpSpec,
    classifier_logits,
    classify,
    embed,
    encode,
    init_classifier,
    init_params,
    load_checkpoint,
    momentum_update,
    new_encoder_pair,
    save_checkpoint,
)
from caco.train import evaluate

SPEC = MlpSpec((4, 8, 3))


def test_spec_validation():
    with pytest.raises(ParameterError):
        MlpSpec((4, 3))  # no hidden layer
    with pytest.raises(ParameterError):
        MlpSpec((4, 8, 1))  # embedding too small
    with pytest.raises(ParameterError):
        MlpSpec((4, 0, 3))


def test_init_deterministic_per_seed():
    a = init_params(SPEC, 7)
    b = init_params(SPEC, 7)
    c = init_params(SPEC, 8)
    for ta, tb in zip(a.tensors(), b.tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any((ta.data != tc.data).any() for ta, tc in zip(a.tensors(), c.tensors()))


def test_init_biases_zero():
    params = init_params(SPEC, 0)
    for b in params.biases:
        np.testing.assert_array_equal(b.data, np.zeros_like(b.data))


def test_init_weight_range_over_many_draws():
    # empirical range check over 10^4 draws per layer shape
    spec = MlpSpec((24, 18, 12))
    mins = {0: np.inf, 1: np.inf}
    maxs = {0: -np.inf, 1: -np.inf}
    for seed in range(24):
        params = init_params(spec, seed)
        for i, w in enumerate(params.weights):
            mins[i] = min(mins[i], w.data.min())
            maxs[i] = max(maxs[i], w.data.max())
    for i, fan_in in enumerate((24, 18)):
        limit = np.sqrt(6.0 / fan_in)
        assert -limit <= mins[i] < -0.9 * limit
        assert 0.9 * limit < maxs[i] <= limit


def test_encode_rows_unit_norm():
    rng = np.random.default_rng(0)
    params = init_params(SPEC, 1)
    out = encode(params, Tensor(rng.normal(size=(6, 4))))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_encode_identical_inputs_identical_rows():
    params = init_params(SPEC, 2)
    x = np.tile(np.array([0.5, -1.0, 2.0, 0.1]), (3, 1))
    out = encode(params, Tensor(x)).data
    np.testing.assert_array_equal(out[0], out[1])
    np.testing.assert_array_equal(out[1], out[2])


def test_encode_matches_manual_forward_pass():
    # one hidden layer with hand-set weights, evaluated by hand for x=(1,0)
    w1 = np.array([[1.0, -2.0], [0.5, 0.25]])
    b1 = np.array([0.5, -0.5])
    w2 = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, -1.0]])
    b2 = np.array([0.0, 0.25, -0.25])
    params = MlpParams(
        [Tensor(w1), Tensor(w2)],
        [Tensor(b1), Tensor(b2)],
    )
    x = np.array([[1.0, 0.0]])
    hidden = np.maximum(0.0, x @ w1 + b1)  # (1.5, 0) after the rectifier
    np.testing.assert_array_equal(hidden, [[1.5, 0.0]])
    final = hidden @ w2 + b2  # (3.0, 0.25, 1.25)
    np.testing.assert_array_equal(final, [[3.0, 0.25, 1.25]])
    expected = final / np.linalg.norm(final)
    np.testing.assert_allclose(encode(params, Tensor(x)).data, expected, atol=1e-15)


def test_encode_dimension_check():
    params = init_params(SPEC, 3)
    with pytest.raises(DimensionError):
        encode(params, Tensor(np.zeros((2, 5))))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=3, max_size=5),
    st.integers(0, 3 * EMBED_BLOCK + 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.01, 1.0, 30.0]),
    st.booleans(),
)
# one past a block and one past two: a split into full blocks would leave a
# 1-row block, which numpy runs as a matrix-vector product; and no rows at all
@example([8, 12, 12, 5], EMBED_BLOCK + 1, 1, 1.0, False)
@example([8, 12, 12, 5], 2 * EMBED_BLOCK + 1, 2, 1.0, False)
@example([8, 12, 12, 5], 0, 3, 1.0, False)
def test_embed_bit_equal_to_encode(widths, batch, seed, spread, zero_rows):
    spec = MlpSpec((*widths[:-1], max(widths[-1], 2)))
    params = init_params(spec, seed % 1000)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=spread, size=(batch, spec.input_dim))
    if zero_rows:
        x[rng.random(batch) < 0.2] = 0.0
    try:
        want = encode(params, Tensor(x)).data
    except DegenerateEmbeddingError:  # every unit of a row silenced; embed must agree
        with pytest.raises(DegenerateEmbeddingError):
            embed(params, x)
        return
    got = embed(params, x)
    assert got.shape == want.shape == (batch, spec.embed_dim)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_embed_returns_a_new_array_per_call():
    params = init_params(MlpSpec((4, 8, 8, 3)), 7)
    x = np.random.default_rng(8).normal(size=(3 * EMBED_BLOCK, 4))
    outs = [embed(params, rows) for rows in (x[:20], x[20:], x[:20], x, x)]
    want = [out.tobytes() for out in outs]
    for a, b in itertools.combinations(outs, 2):
        assert not np.shares_memory(a, b)
    assert not any(np.shares_memory(out, x) for out in outs)
    for out in outs[:-1]:
        out[...] = 7.0  # writing one result changes no other
    assert outs[-1].tobytes() == want[-1] == want[-2]
    assert want[0] == want[2] == embed(params, x[:20]).tobytes()


def test_embed_dimension_check():
    params = init_params(SPEC, 3)
    for bad in (np.zeros((2, 5)), np.zeros((0, 5)), np.zeros(4), np.zeros(0),
                np.float64(1.0), np.zeros((1, 2, 4))):
        with pytest.raises(DimensionError):
            embed(params, bad)
        with pytest.raises(DimensionError):
            encode(params, Tensor(bad))


def test_embed_raises_what_encode_raises_across_blocks():
    # a zero row in the first block and an overflowing row in the last: normalized
    # block by block, the zero row would raise first, as a degenerate embedding
    params = init_params(SPEC, 3)
    x = np.random.default_rng(4).normal(size=(2 * EMBED_BLOCK + 10, 4))
    x[0], x[-1] = 0.0, 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            encode(params, Tensor(x))
        with pytest.raises(NonFiniteError):
            embed(params, x)
        with pytest.raises(DegenerateEmbeddingError):
            embed(params, x[:EMBED_BLOCK])


@pytest.mark.parametrize("pass_", ["embed", "evaluate"])
def test_full_data_pass_memory_is_bounded_by_its_result(pass_):
    # a pass holds one block's hidden layers at a time: its tracemalloc peak over
    # 20,000 rows stays within 3 arrays of the result's size plus 1 MiB
    spec = MlpSpec((8, 64, 64, 16))
    encoders = new_encoder_pair(spec, 1, 0.99)
    model = CacoModel(spec, 4, 1, encoders, init_classifier(16, 4, 1))
    x = np.random.default_rng(5).normal(size=(20_000, 8))
    y = np.random.default_rng(6).integers(1, 5, size=20_000)
    run = {"embed": lambda: embed(encoders.query, x),
           "evaluate": lambda: evaluate(model, x, y)}[pass_]
    run()  # numpy's first-call allocations are not the pass's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = 20_000 * 16 * 8
    assert peak <= 3 * result_bytes + 2**20


def test_nan_weight_is_not_hidden_by_the_rectifier():
    # a NaN pre-activation used to come out of the ReLU as 0.0, giving finite rows
    params = init_params(MlpSpec((4, 8, 8, 3)), 5)
    params.weights[0].data[:, 2] = np.nan
    x = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(NonFiniteError):
        embed(params, x)
    with pytest.raises(NonFiniteError):
        encode(params, Tensor(x))


def test_classify_uniform_for_zero_classifier():
    clf = Classifier(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))
    probs = classify(clf, np.random.default_rng(1).normal(size=(5, 3)))
    np.testing.assert_allclose(probs, 0.25, atol=1e-15)


def test_classify_rows_on_simplex():
    rng = np.random.default_rng(2)
    clf = init_classifier(3, 5, 0)
    probs = classify(clf, rng.normal(size=(50, 3)))
    assert (probs >= 0.0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_classify_bit_equal_to_the_reference_softmax():
    # the max subtracted per row, exp, divided by the row sum: numpy's own
    # max and sum along axis 1, from 2 categories to past the 8 where
    # numpy's sum turns pairwise; tied logits included
    rng = np.random.default_rng(9)
    for c in range(2, 13):
        for scale in (0.1, 1.0, 30.0):
            weight = rng.normal(scale=scale, size=(5, c))
            weight[:, c // 2] = weight[:, 0]  # two tied categories in every row
            bias = rng.normal(size=c)
            bias[c // 2] = bias[0]
            clf = Classifier(Tensor(weight), Tensor(bias))
            e = rng.normal(size=(30, 5))
            e[:4] = 0.0  # every logit of the row is its bias
            z = e @ weight + bias
            p = np.exp(z - z.max(axis=1, keepdims=True))
            want = p / p.sum(axis=1, keepdims=True)
            assert classify(clf, e).tobytes() == want.tobytes()
    flat = Classifier(Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))  # all logits tied
    assert classify(flat, np.ones((2, 5))).tobytes() == np.full((2, 3), 1.0 / 3.0).tobytes()


def test_classify_hand_set_two_by_two():
    # logits for e=(1,0): z = (0.3, -0.1); scalar softmax oracle
    clf = Classifier(Tensor(np.array([[0.3, -0.1], [1.0, 2.0]])), Tensor(np.zeros(2)))
    e = np.array([[1.0, 0.0]])
    z = np.array([0.3, -0.1])
    expected = np.exp(z) / np.exp(z).sum()
    np.testing.assert_allclose(classify(clf, e)[0], expected, atol=1e-15)


def test_momentum_update_endpoints():
    spec = MlpSpec((2, 3, 2))
    pair = new_encoder_pair(spec, 0, 1.0)
    before = [t.data.copy() for t in pair.key.tensors()]
    momentum_update(pair)
    for b, t in zip(before, pair.key.tensors()):
        np.testing.assert_array_equal(b, t.data)

    pair = new_encoder_pair(spec, 0, 0.0)
    for t in pair.key.tensors():
        t.data = t.data + 3.0
    momentum_update(pair)
    for tq, tk in zip(pair.query.tensors(), pair.key.tensors()):
        np.testing.assert_array_equal(tq.data, tk.data)


def test_momentum_update_scalar_case():
    pair = EncoderPair(
        MlpParams([Tensor(np.array([[1.0]]))], [Tensor(np.array([1.0]))]),
        MlpParams([Tensor(np.array([[0.0]]))], [Tensor(np.array([0.0]))]),
        0.999,
    )
    momentum_update(pair)
    assert pair.key.weights[0].data[0, 0] == pytest.approx(0.001, abs=1e-18)


def test_momentum_validation():
    with pytest.raises(ParameterError):
        EncoderPair(init_params(SPEC, 0), init_params(SPEC, 0).copy(False), 1.5)


def test_momentum_closed_form():
    spec = MlpSpec((3, 4, 2))
    rng = np.random.default_rng(3)
    for m in (0.0, 0.5, 0.999, 1.0):
        pair = new_encoder_pair(spec, 5, m)
        # desynchronize key from query, then hold query constant
        for t in pair.key.tensors():
            t.data = rng.normal(size=t.data.shape)
        k0 = [t.data.copy() for t in pair.key.tensors()]
        q = [t.data.copy() for t in pair.query.tensors()]
        steps = 0
        for n in (1, 10, 1000):
            while steps < n:
                momentum_update(pair)
                steps += 1
            for init, query, t in zip(k0, q, pair.key.tensors()):
                expected = (m**n) * init + (1.0 - m**n) * query
                np.testing.assert_allclose(t.data, expected, rtol=0, atol=1e-12)


def test_in_place_momentum_update_matches_the_out_of_place_expression():
    spec = MlpSpec((3, 5, 2))
    rng = np.random.default_rng(4)
    for m in (0.0, 0.5, 0.995, 1.0):
        pair = new_encoder_pair(spec, 2, m)
        for t in pair.query.tensors():
            t.data = rng.normal(size=t.data.shape)
        for _ in range(3):
            expected = [m * tk.data + (1.0 - m) * tq.data
                        for tq, tk in zip(pair.query.tensors(), pair.key.tensors())]
            momentum_update(pair)
            for want, tk in zip(expected, pair.key.tensors()):
                assert tk.data.tobytes() == want.tobytes()
        # a rebound key array (the end-of-warm-up bootstrap) is the one updated next
        old = [tk.data for tk in pair.key.tensors()]
        kept = [a.copy() for a in old]
        for tk in pair.key.tensors():
            tk.data = rng.normal(size=tk.data.shape)
        expected = [m * tk.data + (1.0 - m) * tq.data
                    for tq, tk in zip(pair.query.tensors(), pair.key.tensors())]
        momentum_update(pair)
        for want, tk, a, k in zip(expected, pair.key.tensors(), old, kept):
            assert tk.data.tobytes() == want.tobytes()
            assert a.tobytes() == k.tobytes()  # the array bound before is left alone


def test_key_encoder_starts_as_exact_copy():
    pair = new_encoder_pair(SPEC, 11, 0.999)
    for tq, tk in zip(pair.query.tensors(), pair.key.tensors()):
        np.testing.assert_array_equal(tq.data, tk.data)
        assert tq.requires_grad and not tk.requires_grad


def test_gradients_flow_through_encode():
    rng = np.random.default_rng(4)
    spec = MlpSpec((3, 4, 2))
    params = init_params(spec, 6)
    clf = init_classifier(2, 2, 7)
    x = rng.normal(size=(2, 3))
    labels = np.array([1, 2])

    def loss_of(w0, b0, w1, b1, weight, bias):  # the declaration order of tensors()
        emb = encode(MlpParams([w0, w1], [b0, b1]), Tensor(x))
        return supervised_loss(classifier_logits(Classifier(weight, bias), emb), labels)

    arrays = [t.data for t in params.tensors() + [clf.weight, clf.bias]]
    assert gradient_error(loss_of, *arrays) <= 1e-4


def test_checkpoint_round_trip_is_byte_exact(tmp_path):
    spec = MlpSpec((4, 6, 3))
    model = CacoModel(spec, 3, 42, new_encoder_pair(spec, 42, 0.999), init_classifier(3, 3, 9))
    # move key away from query so both sides are exercised
    momentum_update(model.encoders)
    path1 = tmp_path / "a.ckpt"
    path2 = tmp_path / "b.ckpt"
    save_checkpoint(path1, model)
    loaded = load_checkpoint(path1)
    save_checkpoint(path2, loaded)
    assert path1.read_bytes() == path2.read_bytes()

    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(model.predict_probs(x), loaded.predict_probs(x))
    np.testing.assert_array_equal(
        embed(model.encoders.key, x), embed(loaded.encoders.key, x)
    )


def _saved_checkpoint(tmp_path):
    spec = MlpSpec((4, 6, 3))
    model = CacoModel(spec, 3, 42, new_encoder_pair(spec, 42, 0.999), init_classifier(3, 3, 9))
    path = tmp_path / "good.ckpt"
    save_checkpoint(path, model)
    header, payload = path.read_bytes().split(b"\n", 1)
    return path, json.loads(header), payload


def _write(path, header, payload):
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"format":"something-else"}\n')
    with pytest.raises(ContractError):
        load_checkpoint(path)
    path.write_bytes(b"\x89PNG\r\n")
    with pytest.raises(ContractError):
        load_checkpoint(path)
    path.write_bytes(b'{"format":"caco-checkpoint","version":1}\n')
    with pytest.raises(ContractError, match="lacks"):
        load_checkpoint(path)
    # a truncated or overlong payload is named, not left to numpy
    path, header, payload = _saved_checkpoint(tmp_path)
    for bad in (payload[:-100], payload + bytes(8)):
        _write(path, header, bad)
        with pytest.raises(ContractError, match="payload"):
            load_checkpoint(path)


@pytest.mark.parametrize("field, value", [
    ("layer_widths", "abc"),
    ("layer_widths", None),
    ("layer_widths", [4, 6.0, 3]),
    ("num_categories", "3"),
    ("seed", "42"),
    ("seed", True),
    ("encoder_momentum", "0.999"),
    ("arrays", [{}]),
    ("arrays", None),
    ("arrays", [{"name": "query.w0", "shape": "4,6"}]),
])
def test_checkpoint_names_a_header_field_of_the_wrong_type(tmp_path, field, value):
    # the right format and version, but a field that would fail as a bare
    # ValueError, TypeError or KeyError somewhere in the reading
    path, header, payload = _saved_checkpoint(tmp_path)
    _write(path, dict(header, **{field: value}), payload)
    with pytest.raises(ContractError, match=f"{field}.*wrong type"):
        load_checkpoint(path)


def test_checkpoint_rejects_shapes_that_disagree_with_its_header(tmp_path):
    path, header, payload = _saved_checkpoint(tmp_path)
    # same element count, so only the shape check can catch it
    reshaped = json.loads(json.dumps(header))
    reshaped["arrays"][0]["shape"] = [6, 4]
    _write(path, reshaped, payload)
    with pytest.raises(ContractError, match="layer_widths"):
        load_checkpoint(path)
    # the classifier no longer fits the declared number of categories
    recounted = dict(header, num_categories=4)
    _write(path, recounted, payload)
    with pytest.raises(ContractError, match="num_categories"):
        load_checkpoint(path)
    _write(path, header, payload)
    load_checkpoint(path)
