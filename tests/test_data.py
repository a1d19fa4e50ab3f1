"""Synthetic task generation and batch sampling."""

import numpy as np
import pytest
from scipy import stats

from caco.data import (
    DomainPair,
    make_gaussian_mixture,
    mixture_centers,
    sample_key_batch,
    sample_query_batch,
    shift_domain,
)
from caco.errors import ContractError
from caco.labels import SOURCE, TARGET


def small_pair(seed=0, n=40, C=3, D=4):
    src = make_gaussian_mixture(C, D, n, 2.0, seed)
    tgt = shift_domain(src, 0.3, 0, 1.0, seed + 1, separation=2.0)
    return DomainPair.from_lists(src, tgt)


def test_mixture_empirical_means():
    # Monte-Carlo check: class means over 10^5 draws within 0.05 of the centers
    C, D, n = 4, 6, 25000
    samples = make_gaussian_mixture(C, D, n, 3.0, 123)
    centers = mixture_centers(C, D, 3.0)
    assert len(samples) == C * n
    for c in range(1, C + 1):
        block = np.stack([s.x for s in samples if s.y.index == c])
        np.testing.assert_allclose(block.mean(axis=0), centers[c - 1], atol=0.05)


def test_mixture_deterministic_per_seed():
    a = make_gaussian_mixture(3, 4, 10, 2.0, 9)
    b = make_gaussian_mixture(3, 4, 10, 2.0, 9)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.x, sb.x)
        assert sa.y.index == sb.y.index


def test_mixture_zero_separation_degenerates():
    centers = mixture_centers(2, 5, 0.0)
    np.testing.assert_array_equal(centers, np.zeros((2, 5)))
    samples = make_gaussian_mixture(2, 5, 200, 0.0, 3)
    m1 = np.stack([s.x for s in samples if s.y.index == 1]).mean(axis=0)
    m2 = np.stack([s.x for s in samples if s.y.index == 2]).mean(axis=0)
    np.testing.assert_allclose(m1, m2, atol=0.3)


def test_shift_identity_reproduces_source_process():
    src = make_gaussian_mixture(3, 4, 15, 2.5, 77)
    tgt = shift_domain(src, 0.0, 0, 1.0, 77, separation=2.5)
    for s, t in zip(src, tgt):
        np.testing.assert_allclose(s.x, t.x, atol=1e-12)
        assert s.y.index == t.y.index


def test_shift_half_turn_swaps_antipodal_classes():
    # C=2 puts the two centers at +/- separation on the first axis
    centers = mixture_centers(2, 4, 3.0)
    rot = np.pi
    src = make_gaussian_mixture(2, 4, 4000, 3.0, 5)
    tgt = shift_domain(src, rot, 0, 1.0, 6, separation=3.0)
    m1 = np.stack([s.x for s in tgt if s.y.index == 1]).mean(axis=0)
    np.testing.assert_allclose(m1, centers[1], atol=0.1)


def test_shift_rotates_means_by_closed_form():
    angle = np.pi / 6
    C, D = 4, 5
    src = make_gaussian_mixture(C, D, 4000, 3.0, 8)
    tgt = shift_domain(src, angle, 0, 1.0, 9, separation=3.0)
    rot = np.eye(D)
    rot[0, 0] = rot[1, 1] = np.cos(angle)
    rot[0, 1] = -np.sin(angle)
    rot[1, 0] = np.sin(angle)
    expected = mixture_centers(C, D, 3.0) @ rot.T
    for c in range(1, C + 1):
        mean = np.stack([s.x for s in tgt if s.y.index == c]).mean(axis=0)
        np.testing.assert_allclose(mean, expected[c - 1], atol=0.1)


def test_shift_applies_scale_and_translation():
    src = make_gaussian_mixture(2, 4, 3000, 3.0, 10)
    tgt = shift_domain(src, 0.0, (1.0, -2.0), 2.0, 11, separation=3.0)
    mean1 = np.stack([s.x for s in tgt if s.y.index == 1]).mean(axis=0)
    np.testing.assert_allclose(mean1, [2.0 * 3.0 + 1.0, -2.0, 0.0, 0.0], atol=0.15)


def test_query_batch_comes_from_target_only():
    pair = small_pair()
    rng = np.random.default_rng(0)
    batch = sample_query_batch(pair, 10, rng)
    assert batch.shape == (10,)
    assert np.issubdtype(batch.dtype, np.integer)
    assert ((0 <= batch) & (batch < pair.target_x.shape[0])).all()
    assert len(set(batch.tolist())) == 10


def test_query_batch_full_draw_is_permutation():
    pair = small_pair()
    rng = np.random.default_rng(1)
    n = pair.target_x.shape[0]
    batch = sample_query_batch(pair, n, rng)
    assert sorted(batch.tolist()) == list(range(n))


def test_query_batch_too_large_rejected():
    pair = small_pair()
    with pytest.raises(ContractError):
        sample_query_batch(pair, pair.target_x.shape[0] + 1, np.random.default_rng(2))


def test_query_batch_frequencies_uniform():
    pair = small_pair(n=10, C=2)  # 20 target rows
    rng = np.random.default_rng(3)
    total = pair.target_x.shape[0]
    counts = np.zeros(total)
    draws = 3000
    for _ in range(draws):
        counts[sample_query_batch(pair, 4, rng)] += 1
    expected = np.full(total, draws * 4 / total)
    assert stats.chisquare(counts, expected).pvalue > 1e-3


def test_key_batch_variant_contracts():
    pair = small_pair()
    rng = np.random.default_rng(4)
    mixed = sample_key_batch(pair, 8, "full", rng)
    assert sum(1 for k in mixed if k.domain == SOURCE) == 4
    assert sum(1 for k in mixed if k.domain == TARGET) == 4
    assert all(k.label is not None for k in mixed if k.domain == SOURCE)
    assert all(k.label is None for k in mixed if k.domain == TARGET)

    source_only = sample_key_batch(pair, 6, "S", rng)
    assert all(k.domain == SOURCE for k in source_only)
    target_only = sample_key_batch(pair, 6, "T", rng)
    assert all(k.domain == TARGET for k in target_only)

    with pytest.raises(ContractError):
        sample_key_batch(pair, 7, "full", rng)
    with pytest.raises(ContractError):
        sample_key_batch(pair, 4, "bogus", rng)


def test_target_labels_live_only_behind_evaluation_accessors():
    pair = small_pair()
    batch = sample_query_batch(pair, 5, np.random.default_rng(5))
    assert isinstance(batch, np.ndarray) and batch.ndim == 1  # bare row indices
    labels = pair.evaluation_labels()
    assert len(labels) == pair.target_x.shape[0]
    samples = pair.evaluation_samples()
    assert all(s.y is lab for s, lab in zip(samples, labels))


def test_build_domain_pair_deterministic():
    from caco.data import DataConfig, build_domain_pair

    cfg = DataConfig(num_categories=3, dim=4, n_per_class=20, angle=0.4)
    a = build_domain_pair(cfg, 11)
    b = build_domain_pair(cfg, 11)
    c = build_domain_pair(cfg, 12)
    np.testing.assert_array_equal(a.target_x, b.target_x)
    for sa, sb in zip(a.source, b.source):
        np.testing.assert_array_equal(sa.x, sb.x)
    assert (a.target_x != c.target_x).any()
    assert a.num_categories == 3
