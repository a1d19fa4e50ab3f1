"""Loss values against scalar oracles, plus gradient and invariance properties."""

import math

import mpmath as mp
import numpy as np
import pytest

from caco import autodiff as ad
from caco.autodiff import Tape, Tensor, backward
from caco.dictionary import CategoricalDictionary
from caco.errors import ContractError, DimensionError, NotWarmError, ParameterError
from caco.gradcheck import gradient_error
from caco.labels import SOURCE, CategoryLabel
from caco.model import MlpSpec, classifier_logits, encode, init_classifier, init_params
from caco.losses import (
    cat_nce,
    info_nce,
    key_temperature,
    prediction_entropy,
    supervised_loss,
)

from conftest import random_labels, random_warm_dictionary, tape_length, unit_rows
import reference_ops as ref

mp.mp.dps = 40


def catnce_scalar_oracle(queries, label_indices, dictionary):
    """Independent double loop over slots and categories at 40-digit precision."""
    total = mp.mpf(0)
    for q, lab in zip(queries, label_indices):
        per_query = mp.mpf(0)
        for m in range(1, dictionary.capacity + 1):
            num = mp.mpf(0)
            den = mp.mpf(0)
            for c, key in enumerate(dictionary.group(m), start=1):
                dot = mp.fsum(mp.mpf(a) * mp.mpf(b) for a, b in zip(q, key.vector))
                e = mp.e ** (dot / mp.mpf(key.temperature))
                den += e
                if c == lab:
                    num += e
            per_query += -mp.log(num / den)
        total += per_query / dictionary.capacity
    return float(total / len(label_indices))


# ---------------------------------------------------------------------------
# supervised_loss
# ---------------------------------------------------------------------------


def test_supervised_loss_vanishes_with_huge_margin():
    logits = np.full((3, 4), -100.0)
    labels = np.array([1, 2, 3])
    logits[np.arange(3), labels - 1] = 100.0
    loss = supervised_loss(Tensor(logits), labels)
    assert loss.item() < 1e-12


def test_supervised_loss_uniform_logits():
    loss = supervised_loss(Tensor(np.ones((2, 4)) * 0.3), np.array([2, 4]))
    assert abs(loss.item() - math.log(4.0)) <= 1e-12


def test_supervised_loss_scalar_oracle():
    # two samples, two classes, loss = mean of -log softmax picked entries
    logits = np.array([[1.0, -0.5], [0.25, 2.0]])
    labels = np.array([1, 2])
    expected = 0.0
    for row, lab in zip(logits, labels):
        den = mp.e ** mp.mpf(row[0]) + mp.e ** mp.mpf(row[1])
        expected += float(-mp.log(mp.e ** mp.mpf(row[lab - 1]) / den))
    expected /= 2.0
    loss = supervised_loss(Tensor(logits), labels)
    assert abs(loss.item() - expected) <= 1e-12
    assert loss.data.shape == ()


def test_supervised_loss_batch_mismatch():
    with pytest.raises(DimensionError):
        supervised_loss(Tensor(np.zeros((2, 3))), np.array([1]))
    for bad in ([0, 1], [1, 4], [1.7, 2.0]):  # labels are 1-based categories of the logits
        with pytest.raises(ContractError):
            supervised_loss(Tensor(np.zeros((2, 3))), np.array(bad))


def test_supervised_loss_bit_equal_to_primitive_composition():
    rng = np.random.default_rng(13)
    for _ in range(40):
        batch, num_cat, dim = (int(v) for v in rng.integers(1, 7, size=3))
        arrays = (rng.normal(size=(batch, dim)), rng.normal(scale=3.0, size=(dim, num_cat + 1)),
                  rng.normal(size=num_cat + 1))
        labels = rng.integers(1, num_cat + 2, size=batch)
        runs = []
        for fused in (True, False):
            emb, weight, bias = (Tensor(a, requires_grad=True) for a in arrays)
            with Tape() as tape:
                logits = ref.add_rowvec(ref.matmul(emb, weight), bias)
                if fused:
                    loss = supervised_loss(logits, labels)
                else:
                    picked = ref.take_per_row(ref.log_softmax(logits, 1.0), labels - 1)
                    loss = ref.neg(ref.reduce_mean(picked))
            grads = backward(loss, tape)
            runs.append([loss.data] + [grads[t] for t in (emb, weight, bias)])
        for got, want in zip(*runs):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# info_nce
# ---------------------------------------------------------------------------


def test_info_nce_symmetric_pair_is_log2():
    q = Tensor([1.0, 0.0])
    keys = Tensor([[0.0, 1.0], [0.0, -1.0]])  # equal dot products with q
    loss = info_nce(q, keys, np.array([1, 0]), 0.07)
    assert abs(loss.item() - math.log(2.0)) <= 1e-12


def test_info_nce_frozen_scalar_value():
    # frozen from -log(exp(1/0.07) / (exp(1/0.07) + 1)) at 50-digit precision;
    # the tolerance covers absorption of the tiny loss into logits of size ~14
    q = Tensor([1.0, 0.0])
    keys = Tensor([[1.0, 0.0], [0.0, 1.0]])
    loss = info_nce(q, keys, np.array([1, 0]), 0.07)
    assert abs(loss.item() - 6.248747557120382e-07) <= 1e-12


def test_info_nce_rejects_empty_mask_and_bad_tau():
    q = Tensor([1.0, 0.0])
    keys = Tensor(np.eye(2))
    with pytest.raises(ContractError):
        info_nce(q, keys, np.zeros(2), 0.07)
    for tau in (-1.0, math.nan, math.inf, "0.07"):  # NaN gave NaN, inf log 2, "0.07" 0.07's loss
        with pytest.raises(ParameterError, match="tau"):
            info_nce(q, keys, np.array([1, 0]), tau)


def test_info_nce_takes_exactly_one_positive():
    q, keys = Tensor([1.0, 0.0, 0.0]), Tensor(np.eye(3))
    for mask in (np.zeros(3), np.array([1, 0, 1])):  # two positives were summed
        with pytest.raises(ContractError, match="one positive"):
            info_nce(q, keys, mask, 0.07)


def test_info_nce_keys_are_constants():
    # a gradient for grad-enabled keys was formed, and no caller read it
    keys = Tensor(np.eye(2), requires_grad=True)
    with pytest.raises(ContractError, match="constants"):
        info_nce(Tensor([1.0, 0.0], requires_grad=True), keys, np.array([1, 0]), 0.07)


def test_info_nce_rejects_malformed_shapes():
    q, keys, mask = Tensor([1.0, 0.0]), Tensor(np.eye(2)), np.array([1, 0])
    for bad in ((Tensor([[1.0, 0.0]]), keys, mask),  # a (1, d) query
                (q, keys, np.array([[1, 0]])),  # a (1, N) mask
                (q, keys, np.array([1, 0, 0])),  # 3 flags for 2 keys
                (q, Tensor([1.0, 0.0]), mask)):  # (d,) keys
        with pytest.raises(DimensionError):
            info_nce(*bad, 0.07)


# ---------------------------------------------------------------------------
# prediction_entropy / key_temperature
# ---------------------------------------------------------------------------


def test_entropy_one_hot_is_zero():
    assert prediction_entropy(np.array([[0.0, 1.0, 0.0]]))[0] == 0.0


def test_entropy_uniform_is_log_c():
    for c in (2, 3, 7):
        assert abs(prediction_entropy(np.full((1, c), 1.0 / c))[0] - math.log(c)) <= 1e-12


def test_entropy_direct_summation():
    # frozen from -(0.75 log 0.75 + 0.25 log 0.25) at 50-digit precision
    h = prediction_entropy(np.array([[0.75, 0.25], [0.25, 0.75]]))
    assert np.abs(h - 0.5623351446188084).max() <= 1e-15


def test_entropy_off_simplex_rejected():
    # one bad row rejects the block, NaN included
    for bad in ([0.9, 0.2], [1.2, -0.2], [np.nan, 1.0]):
        with pytest.raises(ContractError):
            prediction_entropy(np.array([[0.5, 0.5], bad]))
    with pytest.raises(ContractError):
        prediction_entropy(np.array([0.5, 0.5]))  # a vector, not a block of rows


def test_key_temperature_range():
    taus = key_temperature(0.07, np.array([0.0, math.log(4.0), 0.5 * math.log(4.0)]), 4)
    assert taus[0] == 0.07
    assert np.abs(taus[1:] - [0.14, 0.105]).max() <= 1e-15
    # an entropy a rounding error above log C is clipped to it: twice the base, no more
    assert key_temperature(0.07, np.array([math.log(4.0) + 5e-10]), 4)[0] == 0.07 * 2.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = int(rng.integers(2, 9))
        t = key_temperature(0.07, rng.uniform(0.0, math.log(c), size=5), c)
        assert ((0.07 <= t) & (t <= 0.14 + 1e-15)).all()


def test_key_temperature_validation():
    for num_categories in (1, 4.0, True):
        with pytest.raises(ParameterError, match="num_categories"):
            key_temperature(0.07, np.array([1.0]), num_categories)
    for tau_base in (0.0, math.nan, math.inf, True):
        with pytest.raises(ParameterError, match="tau_base"):
            key_temperature(tau_base, np.array([0.1]), 2)
    # above log C, negative or not a number, among valid ones
    for bad in (math.log(2.0) + 1e-3, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            key_temperature(0.07, np.array([0.1, bad, 0.2]), 2)
    with pytest.raises(ParameterError):  # a NaN first, as in [nan, 0.5]
        key_temperature(0.07, np.array([math.nan, 0.5]), 4)


def _scalar_entropy(p):
    """The per-row reference: entropy of one probability vector over its non-zero entries."""
    p = np.clip(p, 0.0, None)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _scalar_temperature(tau_base, entropy, num_categories):
    h_max = math.log(num_categories)
    return tau_base * (1.0 + min(max(entropy, 0.0), h_max) / h_max)


def test_entropy_and_temperature_bit_equal_to_scalar_reference():
    # softmax rows at growing logit scales: spread out, peaked, and at 800 most
    # rows hold exact zeros; plus one-hot and uniform rows. Past ten categories
    # numpy's pairwise summation may group a row holding zeros differently
    # from its compacted non-zero entries, so the check stops at ten.
    rng = np.random.default_rng(12)
    for c in range(2, 11):
        blocks = [np.eye(c), np.full((1, c), 1.0 / c)]
        for scale in (0.5, 3.0, 30.0, 800.0):
            z = rng.normal(scale=scale, size=(200, c))
            e = np.exp(z - z.max(axis=1, keepdims=True))
            blocks.append(e / e.sum(axis=1, keepdims=True))
        probs = np.concatenate(blocks)
        tau = float(rng.uniform(0.05, 0.2))
        reference = [_scalar_entropy(row) for row in probs]
        assert np.array_equal(prediction_entropy(probs), reference)
        assert np.array_equal(
            key_temperature(tau, prediction_entropy(probs), c),
            [_scalar_temperature(tau, h, c) for h in reference],
        )


# ---------------------------------------------------------------------------
# cat_nce
# ---------------------------------------------------------------------------


def test_cat_nce_single_category_is_zero():
    rng = np.random.default_rng(2)
    d = random_warm_dictionary(rng, 1, 3, 4)
    queries = Tensor(unit_rows(rng, 2, 4))
    labels = [CategoryLabel.of(1, 1), CategoryLabel.of(1, 1)]
    assert cat_nce(queries, labels, d).item() == 0.0


def test_cat_nce_two_way_symmetric_is_log2():
    d = CategoricalDictionary(2, 1)
    d.enqueue(np.array([0.0, 1.0]), 1, 0.07, SOURCE)
    d.enqueue(np.array([0.0, -1.0]), 2, 0.07, SOURCE)
    queries = Tensor(np.array([[1.0, 0.0]]))
    loss = cat_nce(queries, [CategoryLabel.of(1, 2)], d)
    assert abs(loss.item() - math.log(2.0)) <= 1e-12


def test_cat_nce_matches_scalar_double_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_warm_dictionary(rng, 3, 2, 5)
        queries = unit_rows(rng, 3, 5)
        labels = random_labels(rng, 3, 3)
        got = cat_nce(Tensor(queries), labels, d).item()
        want = catnce_scalar_oracle(queries, [int(lab) for lab in labels], d)
        assert abs(got - want) <= 1e-10


def catnce_slot_loop_reference(queries, labels, dictionary):
    """cat_nce with its key block built slot by slot from group(m), same ops after."""
    num_cat, capacity = dictionary.num_categories, dictionary.capacity
    batch, dim = queries.shape
    scaled = np.empty((capacity * num_cat, dim))
    for m in range(1, capacity + 1):
        for c, key in enumerate(dictionary.group(m)):
            scaled[(m - 1) * num_cat + c] = key.vector / key.temperature
    logits = ref.matmul(queries, Tensor(scaled.T))
    per_group = ref.reshape(logits, (batch * capacity, num_cat))
    idx = np.repeat([int(lab) - 1 for lab in labels], capacity)
    positives = ref.take_per_row(per_group, idx)
    return ref.reduce_mean(ref.sub(ref.row_logsumexp(per_group), positives))


def test_cat_nce_bit_equal_to_slot_loop_reference():
    # random temperatures, and extra enqueues in random category order so the
    # queues have wrapped past their capacity a different number of times
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(25):
        C, M = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        dim = int(rng.integers(2, 9))
        d = random_warm_dictionary(rng, C, M, dim)
        for _ in range(int(rng.integers(0, 3 * C * M))):
            d.enqueue(unit_rows(rng, 1, dim)[0], int(rng.integers(1, C + 1)),
                      float(rng.uniform(0.07, 0.14)), SOURCE)
        cases.append((d, C, dim))
    # wrapped queues whose heads sit at the ends of the ring: after M more keys
    # queue 1's head is back at slot 0, after M - 1 more queue 2's is at slot M - 1
    for M in (1, 2, 5):
        d = random_warm_dictionary(rng, 3, M, 4)
        for c, extra in ((1, M), (2, M - 1), (3, 1)):
            for _ in range(extra):
                d.enqueue(unit_rows(rng, 1, 4)[0], c, float(rng.uniform(0.07, 0.14)), SOURCE)
        cases.append((d, 3, 4))
    for d, C, dim in cases:
        B = int(rng.integers(1, 6))
        assert d.scaled_block().flags.c_contiguous  # the operand layout matmul saw before
        q0 = unit_rows(rng, B, dim)
        labels = random_labels(rng, B, C)
        losses, grads = [], []
        for fn in (lambda q: cat_nce(q, labels, d),
                   lambda q: catnce_slot_loop_reference(q, labels, d)):
            queries = Tensor(q0, requires_grad=True)
            with Tape() as tape:
                loss = fn(queries)
            losses.append(loss.data)
            grads.append(backward(loss, tape)[queries])
        assert np.array_equal(losses[0], losses[1])
        assert np.array_equal(grads[0], grads[1])


def test_training_step_bit_equal_to_primitive_step():
    # one warm step as train_caco builds it: the query encoder on a source batch
    # and on a target batch, the classifier, both losses, one backward pass
    rng = np.random.default_rng(14)
    spec = MlpSpec((5, 12, 12, 4))
    for trial in range(10):
        params = init_params(spec, trial)
        clf = init_classifier(4, 3, 100 + trial)
        d = random_warm_dictionary(rng, 3, 4, 4)
        src, tgt = rng.normal(size=(8, 5)), rng.normal(size=(6, 5))
        src_y = rng.integers(1, 4, size=8)
        labels = random_labels(rng, 6, 3)
        idx = np.repeat([int(lab) - 1 for lab in labels], d.capacity)
        scaled = d.scaled_block()

        def primitive_encode(x):
            h = Tensor(x)
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                h = ref.add_rowvec(ref.matmul(h, w), b)
                if i < len(params.weights) - 1:
                    h = ref.relu(h)
            return ref.l2_normalize(h)

        def primitive_step():
            logits = ref.add_rowvec(ref.matmul(primitive_encode(src), clf.weight), clf.bias)
            sup = ref.neg(ref.reduce_mean(ref.take_per_row(ref.log_softmax(logits, 1.0), src_y - 1)))
            per_group = ref.reshape(ref.matmul(primitive_encode(tgt), Tensor(scaled.T)), (6 * 4, 3))
            positives = ref.take_per_row(per_group, idx)
            cat = ref.reduce_mean(ref.sub(ref.row_logsumexp(per_group), positives))
            return ad.add(sup, ad.scale(cat, 0.5))

        def fused_step():
            sup = supervised_loss(classifier_logits(clf, encode(params, Tensor(src))), src_y)
            cat = cat_nce(encode(params, Tensor(tgt)), labels, d)
            return ad.add(sup, ad.scale(cat, 0.5))

        leaves = params.tensors() + [clf.weight, clf.bias]
        runs = []
        for step in (fused_step, primitive_step):
            with Tape() as tape:
                loss = step()
            grads = backward(loss, tape)
            assert set(grads) == set(leaves)
            runs.append((tape_length(tape), [loss.data] + [grads[t] for t in leaves]))
        assert [n for n, _ in runs] == [7, 32]
        for got, want in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_cat_nce_label_objects_and_label_array_are_bit_equal():
    # the acceptance gate passes CategoryLabel lists, training passes int arrays
    rng = np.random.default_rng(15)
    for _ in range(20):
        C, M, dim, B = (int(v) for v in rng.integers(1, 6, size=4))
        d = random_warm_dictionary(rng, C, M, dim + 1)
        q0 = unit_rows(rng, B, dim + 1)
        labels = random_labels(rng, B, C)
        runs = []
        for form in (labels, np.array([int(lab) for lab in labels])):
            queries = Tensor(q0, requires_grad=True)
            with Tape() as tape:
                loss = cat_nce(queries, form, d)
            runs.append((loss.data, backward(loss, tape)[queries]))
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()


def test_cat_nce_rejects_malformed_labels():
    rng = np.random.default_rng(16)
    d = random_warm_dictionary(rng, 3, 2, 4)
    queries = Tensor(unit_rows(rng, 2, 4))
    for bad in (np.array([1.0, 2.0]), np.array([0, 1]), np.array([1, 4]), [None, 1]):
        with pytest.raises(ContractError):
            cat_nce(queries, bad, d)
    for bad in (np.array([1]), np.array([1, 2, 3]), np.array([[1, 2]]), []):
        with pytest.raises(DimensionError):
            cat_nce(queries, bad, d)


def test_cat_nce_requires_warm_dictionary():
    d = CategoricalDictionary(2, 2)
    d.enqueue(np.array([1.0, 0.0]), 1, 0.07, SOURCE)
    with pytest.raises(NotWarmError):
        cat_nce(Tensor(np.eye(2)[:1]), [CategoryLabel.of(1, 2)], d)


def test_cat_nce_reduces_to_info_nce():
    # one instance per category, single slot, uniform temperature
    rng = np.random.default_rng(4)
    for _ in range(100):
        n_keys = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 6))
        tau = float(rng.uniform(0.05, 0.5))
        keys = unit_rows(rng, n_keys, dim)
        q = unit_rows(rng, 1, dim)[0]
        pos = int(rng.integers(0, n_keys))

        d = CategoricalDictionary(n_keys, 1)
        for c in range(n_keys):
            d.enqueue(keys[c], c + 1, tau, SOURCE)
        catted = cat_nce(
            Tensor(q[None, :]), [CategoryLabel.of(pos + 1, n_keys)], d
        ).item()
        mask = np.zeros(n_keys)
        mask[pos] = 1.0
        instanced = info_nce(Tensor(q), Tensor(keys), mask, tau).item()
        assert catted == instanced


def test_cat_nce_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        C, M, dim, B = 3, 4, 5, 2
        groups = [
            [(unit_rows(rng, 1, dim)[0], float(rng.uniform(0.07, 0.14))) for _ in range(C)]
            for _ in range(M)
        ]
        queries = unit_rows(rng, B, dim)
        labels = random_labels(rng, B, C)

        def build(cat_perm, slot_order):
            # old category c is renamed cat_perm[c-1]; groups enqueue in any order
            d = CategoricalDictionary(C, M)
            for m in slot_order:
                for c in range(1, C + 1):
                    vec, tau = groups[m][c - 1]
                    d.enqueue(vec, int(cat_perm[c - 1]), tau, SOURCE)
            return d

        # relabel categories by a permutation and shuffle group insertion order;
        # queries' labels are renamed consistently
        perm = rng.permutation(C) + 1
        slot_order = list(rng.permutation(M))
        base = cat_nce(Tensor(queries), labels, build(list(range(1, C + 1)), list(range(M))))
        renamed = [CategoryLabel.of(int(perm[int(lab) - 1]), C) for lab in labels]
        mixed = cat_nce(Tensor(queries), renamed, build(list(perm), slot_order))
        assert abs(base.item() - mixed.item()) <= 1e-12


def test_cat_nce_monotone_in_positive_similarity():
    # rotating the positive key toward the query raises its dot product and
    # must never raise the loss; all other dot products stay fixed
    rng = np.random.default_rng(6)
    for _ in range(20):
        C, M, dim = 4, 2, 6
        q = unit_rows(rng, 1, dim)[0]
        labels = [CategoryLabel.of(int(rng.integers(1, C + 1)), C)]
        entries = []
        for m in range(M):
            row = []
            for c in range(1, C + 1):
                vec = unit_rows(rng, 1, dim)[0]
                row.append([vec, float(rng.uniform(0.07, 0.14))])
            entries.append(row)

        def loss_for(entries):
            d = CategoricalDictionary(C, M)
            for row in entries:
                for c, (vec, tau) in enumerate(row, start=1):
                    d.enqueue(vec, c, tau, SOURCE)
            return cat_nce(Tensor(q[None, :]), labels, d).item()

        pos = int(labels[0]) - 1
        prev = loss_for(entries)
        for step in range(3):
            # move the slot-0 positive key along the geodesic toward q
            vec = entries[0][pos][0]
            moved = vec + 0.35 * (q - vec)
            moved /= np.linalg.norm(moved)
            if moved @ q <= vec @ q:
                break
            entries[0][pos][0] = moved
            curr = loss_for(entries)
            assert curr <= prev + 1e-12
            prev = curr


def test_cat_nce_gradients_reach_queries_only():
    rng = np.random.default_rng(7)
    d = random_warm_dictionary(rng, 3, 2, 4)
    queries = Tensor(unit_rows(rng, 2, 4), requires_grad=True)
    labels = random_labels(rng, 2, 3)
    with Tape() as tape:
        loss = cat_nce(queries, labels, d)
    grads = backward(loss, tape)
    assert set(grads) == {queries}


def test_cat_nce_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(50):
        C = int(rng.integers(2, 5))
        M = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 7))
        B = int(rng.integers(1, 4))
        d = random_warm_dictionary(rng, C, M, dim)
        q0 = unit_rows(rng, B, dim)
        labels = random_labels(rng, B, C)
        assert gradient_error(lambda q: cat_nce(q, labels, d), q0) <= 1e-4


def test_losses_finite_and_non_negative():
    rng = np.random.default_rng(10)
    for _ in range(30):
        batch, num_cat = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        logits = Tensor(rng.normal(scale=3.0, size=(batch, num_cat)))
        labels = random_labels(rng, batch, num_cat)
        sup = supervised_loss(logits, np.array([int(lab) for lab in labels])).item()
        assert np.isfinite(sup) and sup >= 0.0

        dim = int(rng.integers(2, 6))
        keys = unit_rows(rng, num_cat, dim)
        q = unit_rows(rng, 1, dim)[0]
        mask = np.zeros(num_cat)
        mask[rng.integers(0, num_cat)] = 1
        inst = info_nce(Tensor(q), Tensor(keys), mask, 0.07).item()
        assert np.isfinite(inst) and inst >= 0.0

        d = random_warm_dictionary(rng, num_cat, 2, dim)
        cat = cat_nce(Tensor(unit_rows(rng, batch, dim)), labels, d).item()
        assert np.isfinite(cat) and cat >= 0.0


def test_backward_cat_nce_small_instance_matches_finite_differences():
    # 2 categories, capacity 2: the loss example pinned for the tape itself
    rng = np.random.default_rng(9)
    d = random_warm_dictionary(rng, 2, 2, 3)
    q0 = unit_rows(rng, 1, 3)
    labels = random_labels(rng, 1, 2)
    assert gradient_error(lambda q: cat_nce(q, labels, d), q0) <= 1e-4
