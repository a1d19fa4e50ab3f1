"""Pseudo-label assignment and key labeling contracts."""

import numpy as np
import pytest

from caco.errors import ContractError
from caco.labels import (
    CategoryLabel,
    assign_pseudo_label,
    key_label,
    prototype_memberships,
)


def test_argmax_assignment():
    np.testing.assert_array_equal(
        assign_pseudo_label(np.array([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1]])), [2, 1]
    )


def test_tie_break_lowest_index():
    assert assign_pseudo_label(np.array([[0.5, 0.5]]))[0] == 1
    assert assign_pseudo_label(np.full((1, 4), 0.25))[0] == 1


def test_off_simplex_rejected():
    with pytest.raises(ContractError):
        assign_pseudo_label(np.array([[0.5, 0.6]]))
    with pytest.raises(ContractError):
        assign_pseudo_label(np.array([[1.2, -0.2]]))
    with pytest.raises(ContractError):  # one bad row rejects the whole block
        assign_pseudo_label(np.array([[0.5, 0.5], [0.7, 0.6]]))
    with pytest.raises(ContractError):  # a single vector is not a block of rows
        assign_pseudo_label(np.array([0.5, 0.5]))


def test_pseudo_labels_are_row_argmax():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(c), size=int(rng.integers(1, 6)))
        labels = assign_pseudo_label(p)
        assert labels.dtype.kind == "i"
        np.testing.assert_array_equal(labels, np.argmax(p, axis=1) + 1)


def test_argmax_invariant_under_increasing_transforms():
    rng = np.random.default_rng(1)
    transforms = [np.exp, lambda x: x**2, lambda x: 3.0 * x + 1.0, np.sqrt]
    for _ in range(50):
        c = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(c), size=3)
        base = assign_pseudo_label(p)
        for phi in transforms:
            q = phi(p)
            q = q / q.sum(axis=1, keepdims=True)
            np.testing.assert_array_equal(assign_pseudo_label(q), base)


def test_key_label_source_uses_ground_truth():
    # source keys keep their labels whatever the target rows say; they come first
    labels = key_label(np.array([3, 4]), np.array([1]), 4)
    np.testing.assert_array_equal(labels, [3, 4, 1])


def test_key_label_source_without_ground_truth_rejected():
    for truth in (np.array([0]), np.array([3]), np.array([None]), np.array([1.0])):
        with pytest.raises(ContractError):
            key_label(truth, np.array([1]), 2)


def test_key_label_rejects_out_of_range_target_labels():
    for target in (np.array([0]), np.array([3]), np.array([1, 2, 5]), np.array([1.0]),
                   np.array([[1]])):
        with pytest.raises(ContractError):
            key_label(np.array([1]), target, 2)


def test_key_label_target_uses_pseudo_label():
    row_labels = assign_pseudo_label(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]))
    labels = key_label(np.zeros(0, dtype=int), row_labels[[2, 0, 1]], 2)
    np.testing.assert_array_equal(labels, [2, 1, 1])  # ties to the lowest index


def test_key_label_matches_scalar_softmax_oracle():
    # hand-set logits z, probabilities by direct scalar softmax
    z = np.array([0.4, -1.1, 2.0])
    den = sum(np.exp(zi) for zi in z)
    probs = np.array([[np.exp(zi) / den for zi in z]])
    labels = key_label(np.zeros(0, dtype=int), assign_pseudo_label(probs), 3)
    assert labels[0] == int(np.argmax(z)) + 1 == 3


def test_label_index_range_checked():
    with pytest.raises(ContractError):
        CategoryLabel.of(0, 3)
    with pytest.raises(ContractError):
        CategoryLabel.of(5, 4)
    with pytest.raises(ContractError):  # not truncated to 1
        CategoryLabel.of(1.5, 3)


def test_category_label_is_its_index():
    label = CategoryLabel.of(np.int64(2), 3)
    assert label == 2 and label.index == 2 and type(label.index) is int
    assert np.asarray([label, CategoryLabel.of(1, 3)]).dtype.kind == "i"


def _ring(rng, angles_deg, labels_per_angle, spread):
    """Unit 2-d rows scattered around the given angles, with their 1-based labels."""
    angles = np.repeat(np.radians(angles_deg), labels_per_angle)
    angles = angles + rng.normal(scale=np.radians(spread), size=angles.shape)
    rows = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.repeat(np.arange(1, len(angles_deg) + 1), labels_per_angle)
    return rows, labels


def test_prototypes_follow_target_clusters_away_from_source_means():
    # target clusters sit 40 degrees past their source class: the source
    # means alone mislabel the near edge of every cluster, k-means does not
    rng = np.random.default_rng(0)
    source, source_labels = _ring(rng, [0, 90, 180, 270], 50, 10)
    target, truth = _ring(rng, [40, 130, 220, 310], 50, 10)
    means = np.stack([source[source_labels == c].mean(axis=0) for c in range(1, 5)])
    nearest_mean = np.argmax(target @ means.T, axis=1) + 1
    clustered = prototype_memberships(source, source_labels, target, 4)
    assert (nearest_mean != truth).sum() > 0
    np.testing.assert_array_equal(np.argmax(clustered, axis=1) + 1, truth)


def test_memberships_are_simplex_vertices_read_back_by_argmax():
    rng = np.random.default_rng(1)
    source, source_labels = _ring(rng, [0, 120, 240], 20, 15)
    target, _ = _ring(rng, [10, 130, 250], 20, 15)
    memberships = prototype_memberships(source, source_labels, target, 3)
    assert memberships.shape == (60, 3)
    np.testing.assert_array_equal(memberships.sum(axis=1), np.ones(60))
    labels = assign_pseudo_label(memberships)
    for row, label in zip(memberships, labels):
        assert row[label - 1] == 1.0 and label == int(np.argmax(row)) + 1


def test_prototype_without_target_rows_stays_at_its_source_mean():
    # no target row is near category 2, so it must neither vanish nor move
    source = np.array([[1.0, 0.0], [0.0, 1.0]])
    target = np.array([[1.0, 0.1], [0.9, -0.1]])
    memberships = prototype_memberships(source, np.array([1, 2]), target, 2)
    np.testing.assert_array_equal(np.argmax(memberships, axis=1) + 1, [1, 1])


def test_category_without_source_rows_rejected():
    with pytest.raises(ContractError):
        prototype_memberships(np.eye(2), np.array([1, 1]), np.eye(2), 2)
    with pytest.raises(ContractError):
        prototype_memberships(np.eye(2), np.array([1]), np.eye(2), 2)
