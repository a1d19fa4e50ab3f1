"""Synthetic task generation and batch sampling."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from caco.data import (
    DataConfig,
    DomainPair,
    build_domain_pair,
    make_gaussian_mixture,
    mixture_centers,
    sample_key_batch,
    sample_query_batch,
    shift_domain,
)
from caco.errors import ContractError, DimensionError, ParameterError


def small_pair(seed=0, n=40, C=3, D=4):
    src = make_gaussian_mixture(C, D, n, 2.0, seed)
    tgt = shift_domain(*make_gaussian_mixture(C, D, n, 2.0, seed + 1), 0.3)
    return DomainPair(*src, tgt[0], C, tgt[1])


def test_mixture_empirical_means():
    # Monte-Carlo check: class means over 10^5 draws within 0.05 of the centers
    C, D, n = 4, 6, 25000
    x, y = make_gaussian_mixture(C, D, n, 3.0, 123)
    centers = mixture_centers(C, D, 3.0)
    assert x.shape == (C * n, D) and y.shape == (C * n,)
    for c in range(1, C + 1):
        np.testing.assert_allclose(x[y == c].mean(axis=0), centers[c - 1], atol=0.05)


def test_mixture_deterministic_per_seed():
    a = make_gaussian_mixture(3, 4, 10, 2.0, 9)
    b = make_gaussian_mixture(3, 4, 10, 2.0, 9)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_mixture_zero_separation_degenerates():
    centers = mixture_centers(2, 5, 0.0)
    np.testing.assert_array_equal(centers, np.zeros((2, 5)))
    x, y = make_gaussian_mixture(2, 5, 200, 0.0, 3)
    np.testing.assert_allclose(x[y == 1].mean(axis=0), x[y == 2].mean(axis=0), atol=0.3)


def test_shift_identity_reproduces_source_process():
    # at angle 0 the target is its own stream's mixture draw
    from caco.data import DataConfig, build_domain_pair
    from caco.seeding import child_seed

    cfg = DataConfig(num_categories=3, dim=4, separation=2.5, n_per_class=15, angle=0.0)
    pair = build_domain_pair(cfg, 77)
    x, y = make_gaussian_mixture(3, 4, 15, 2.5, child_seed(77, "target_data"))
    np.testing.assert_array_equal(pair.target_x, x)
    np.testing.assert_array_equal(pair.evaluation_labels(), y)


def test_shift_domain_keeps_row_order_and_input():
    # interleaved labels: row i of the result is row i of the input, shifted
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 3))
    x_before = x.copy()
    y = np.array([2, 1, 3, 1, 2, 3, 3, 1, 2, 2, 1, 3])
    angle = 0.7
    rot = np.eye(3)
    rot[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    shifted, labels = shift_domain(x, y, angle)
    expected = np.array([rot @ row for row in x])
    np.testing.assert_allclose(shifted, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(labels, y)
    np.testing.assert_array_equal(x, x_before)


def test_shift_half_turn_swaps_antipodal_classes():
    # C=2 puts the two centers at +/- separation on the first axis
    centers = mixture_centers(2, 4, 3.0)
    rot = np.pi
    x, y = shift_domain(*make_gaussian_mixture(2, 4, 4000, 3.0, 6), rot)
    np.testing.assert_allclose(x[y == 1].mean(axis=0), centers[1], atol=0.1)


def test_shift_rotates_means_by_closed_form():
    angle = np.pi / 6
    C, D = 4, 5
    x, y = shift_domain(*make_gaussian_mixture(C, D, 4000, 3.0, 9), angle)
    rot = np.eye(D)
    rot[0, 0] = rot[1, 1] = np.cos(angle)
    rot[0, 1] = -np.sin(angle)
    rot[1, 0] = np.sin(angle)
    expected = mixture_centers(C, D, 3.0) @ rot.T
    for c in range(1, C + 1):
        np.testing.assert_allclose(x[y == c].mean(axis=0), expected[c - 1], atol=0.1)


def test_shift_moves_only_the_first_two_coordinates_and_keeps_norms():
    x, y = make_gaussian_mixture(3, 5, 50, 3.0, 11)
    shifted, _ = shift_domain(x, y, 1.1)
    assert shifted[:, 2:].tobytes() == x[:, 2:].tobytes()
    np.testing.assert_allclose(np.linalg.norm(shifted, axis=1), np.linalg.norm(x, axis=1),
                               rtol=1e-12)


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
    for n in (2.5, True, -2):  # a count that is no non-negative integer is named
        with pytest.raises(ParameterError, match=r"^n must"):
            sample_query_batch(pair, n, np.random.default_rng(2))


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
    source, target = sample_key_batch(pair, 8, "full", rng)
    assert source.shape == target.shape == (4,)
    # distinct rows of their own pools: source rows carry ground truth, target rows none
    assert len(set(source.tolist())) == 4 and source.max() < pair.source_y.shape[0]
    assert len(set(target.tolist())) == 4 and target.max() < pair.target_x.shape[0]

    source, target = sample_key_batch(pair, 6, "S", rng)
    assert source.shape == (6,) and target.shape == (0,)
    source, target = sample_key_batch(pair, 6, "T", rng)
    assert source.shape == (0,) and target.shape == (6,)

    with pytest.raises(ContractError):
        sample_key_batch(pair, 7, "full", rng)
    with pytest.raises(ContractError):
        sample_key_batch(pair, 4, "bogus", rng)
    for n, variant in ((3.0, "T"), (-2, "S"), (True, "S")):
        with pytest.raises(ParameterError, match=r"^n must"):
            sample_key_batch(pair, n, variant, rng)


def test_target_labels_live_only_behind_evaluation_accessors():
    pair = small_pair()
    batch = sample_query_batch(pair, 5, np.random.default_rng(5))
    assert isinstance(batch, np.ndarray) and batch.ndim == 1  # bare row indices
    labels = pair.evaluation_labels()
    assert labels.shape == (pair.target_x.shape[0],)
    assert labels is pair.evaluation_labels()  # one held-out array, handed out read-only
    for array in (labels, pair.source_x, pair.source_y, pair.target_x):
        assert not array.flags.writeable


def test_build_domain_pair_deterministic():
    from caco.data import DataConfig, build_domain_pair

    cfg = DataConfig(num_categories=3, dim=4, n_per_class=20, angle=0.4)
    a = build_domain_pair(cfg, 11)
    b = build_domain_pair(cfg, 11)
    c = build_domain_pair(cfg, 12)
    np.testing.assert_array_equal(a.target_x, b.target_x)
    np.testing.assert_array_equal(a.source_x, b.source_x)
    np.testing.assert_array_equal(a.source_y, b.source_y)
    assert (a.target_x != c.target_x).any()
    assert a.num_categories == 3


# sha256 over source_x, source_y, target_x and the evaluation labels: the
# generator's draws, their order and the shift's arithmetic, bit for bit
PINNED_PAIRS = {
    ("default", 1): "a6b6a3dc404e4ec28d97212b256eb59910dec841f81f7b5a8645e9e83420d89d",
    ("default", 2): "27b92ea86b681c8b46b327fc207f6c5ce3cbac2f522ec1b42cf392959a2e8cdc",
    ("pi/6", 1): "73498a4e5e78b1590d414c78656d353f98a69453760a29d2a39a1e04cda23b89",
    ("pi/6", 2): "999ac1c57763abb87af8a097e18079a0df8601512dec3b6b2a72da25a452355e",
    ("C=12, D=16", 1): "2334b628c7755ba9b159cd70708a0f3b0504bcc4c6455b6270460f1ecde06639",
    ("C=12, D=16", 2): "2565037b834af2109f813de1f4ef19e81682156c35ef13ffeb3645c19ab782a8",
    ("C=3", 1): "55d7231bcc690a6663ec190ff48c33a67f2387e86d1b6e8760f30c2fddbfdc16",
    ("C=3", 2): "2034367566f6134b6777bf65e9026109b5ba54980ac8603eadfd26f95c528879",
}
PIN_CONFIGS = {
    "default": {},
    "pi/6": {"angle": math.pi / 6},
    "C=12, D=16": {"num_categories": 12, "dim": 16},
    "C=3": {"num_categories": 3},
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_PAIRS))
def test_build_domain_pair_bytes_are_pinned(name, seed):
    from caco.data import DataConfig, build_domain_pair

    pair = build_domain_pair(DataConfig(**PIN_CONFIGS[name]), seed)
    digest = hashlib.sha256()
    for array in (pair.source_x, pair.source_y, pair.target_x, pair.evaluation_labels()):
        digest.update(array.tobytes())
    assert digest.hexdigest() == PINNED_PAIRS[name, seed]


@pytest.mark.parametrize("field, value", [
    ("num_categories", 1),
    ("dim", 1),
    ("n_per_class", 0),
    ("n_per_class", 20.5),  # integer fields take no float or bool, however whole
    ("num_categories", 3.0),
    ("dim", True),
    ("separation", float("nan")),
    ("separation", 0.0),
    ("separation", float("inf")),
    ("angle", float("inf")),
    ("separation", True),  # a bool is an int, but no real
    ("angle", True),
    ("angle", "x"),
])
def test_data_config_rejects_each_invalid_field_before_drawing(field, value, monkeypatch):
    import caco.data as data_mod

    def no_draw(*args, **kwargs):
        raise AssertionError("drew data for an invalid config")

    monkeypatch.setattr(data_mod, "make_gaussian_mixture", no_draw)
    cfg = data_mod.DataConfig(num_categories=3, dim=4, n_per_class=20)
    cfg.validate()
    setattr(cfg, field, value)
    with pytest.raises(ParameterError, match=field):
        cfg.validate()
    with pytest.raises(ParameterError):
        data_mod.build_domain_pair(cfg, 1)


def test_separation_whose_class_means_overflow_is_rejected():
    # a class mean's squared norm is separation**2: at 9e307 the rows are finite,
    # but the first training step fails with a norm that is not finite
    for value in (9e307, 1e308, 1.4e154):
        with pytest.raises(ParameterError, match="separation"):
            DataConfig(separation=value).validate()
    DataConfig(separation=1e154).validate()


@pytest.mark.parametrize("root_seed", [1.5, True])
def test_build_domain_pair_rejects_a_non_integer_root_seed(root_seed):
    # once truncated, so that both built seed 1's pair
    with pytest.raises(ParameterError, match="root seed"):
        build_domain_pair(DataConfig(num_categories=3, dim=4, n_per_class=5), root_seed)


@pytest.mark.parametrize("sizes, name", [
    ((2.5, 4, 10), "num_categories"),
    ((3, 4.0, 10), "dim"),
    ((3, 4, 10.0), "n_per_class"),
    ((1, 4, 10), "num_categories"),
])
def test_make_gaussian_mixture_rejects_bad_sizes_by_name(sizes, name):
    with pytest.raises(ParameterError, match=name):
        make_gaussian_mixture(*sizes, 2.0, 1)


@pytest.mark.parametrize("separation, angle", [
    (math.nan, 0.3), (math.inf, 0.3), (True, 0.3), ("3", 0.3),
    (3.0, math.inf), (3.0, math.nan), (3.0, False),
])
def test_generators_reject_a_non_real_separation_or_angle(separation, angle):
    # NaN and inf once drew NaN rows with no error
    name = "separation" if separation != 3.0 else "angle"
    with pytest.raises(ParameterError, match=name):
        shift_domain(*make_gaussian_mixture(3, 4, 5, separation, 1), angle)


@pytest.mark.parametrize("row", [0, 7, 14])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_domain_pair_rejects_non_finite_rows_by_name(row, bad):
    # a NaN target row once trained and was named as a divergence at step 3
    x, y = make_gaussian_mixture(3, 4, 5, 2.0, 1)
    broken = x.copy()
    broken[row, row % 4] = bad
    with pytest.raises(ContractError, match="source_x"):
        DomainPair(broken, y, x, 3, y)
    with pytest.raises(ContractError, match="target_x"):
        DomainPair(x, y, broken, 3, y)
    DomainPair(x, y, np.full_like(x, 1e300), 3, y)  # finite, however large


def test_domain_pair_rejects_mismatched_shapes():
    x, y = make_gaussian_mixture(3, 4, 5, 2.0, 1)
    with pytest.raises(DimensionError):
        DomainPair(x, y[:-1], x, 3, y)  # one source label short
    with pytest.raises(DimensionError):
        DomainPair(x, y, x, 3, y[:-1])  # one target label short
    with pytest.raises(DimensionError):
        DomainPair(x, y, x[:, :3], 3, y)  # target rows of another dimension
    with pytest.raises(DimensionError):
        DomainPair(x[0], y[:1], x, 3, y)  # source rows not a matrix
    DomainPair(x, y, x[:4], 3, y[:4])  # target and source counts may differ


def test_domain_pair_rejects_out_of_range_labels():
    x, y = make_gaussian_mixture(3, 4, 5, 2.0, 1)
    for bad in (y - 1, y + 1):  # a 0 label, or a 4 among three categories
        with pytest.raises(ContractError):
            DomainPair(x, bad, x, 3, y)
        with pytest.raises(ContractError):
            DomainPair(x, y, x, 3, bad)
    with pytest.raises(ContractError):
        DomainPair(x, y.astype(float), x, 3, y)
    assert DomainPair(x, y, x, 5, y).num_categories == 5  # the label space may be larger
    for bad in (3.5, True):
        with pytest.raises(ParameterError, match="num_categories"):
            DomainPair(x, y, x, bad, y)
    assert type(DomainPair(x, y, x, np.int64(3), y).num_categories) is int
