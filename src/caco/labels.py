"""Category labels: pseudo-labels for targets, ground truth for source keys.

A label is a 1-based category index in [1..C]. A batch of labels is a 1-D
integer array, from the epoch labelling through the key labels to the
category contrastive loss; ``CategoryLabel`` is one such index, validated.
Target pseudo-labels come from the category priors of the source:
spherical k-means over target embeddings, seeded at the source class means
(prototype_memberships), read back row by row by assign_pseudo_label.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

SOURCE = "source"
TARGET = "target"

_SIMPLEX_TOL = 1e-9
PROTOTYPE_STEPS = 10  # spherical k-means rounds per labelling


class CategoryLabel(int):
    """A hard category assignment: an int in [1..C], checked by ``of``."""

    @classmethod
    def of(cls, index: int, num_categories: int) -> "CategoryLabel":
        if int(index) != index or not 1 <= index <= num_categories:
            raise ContractError(f"label index {index} is not an integer in [1..{num_categories}]")
        return cls(index)

    @property
    def index(self) -> int:
        return int(self)


def as_label_array(labels, num_categories: int) -> np.ndarray:
    """A 1-D int64 array of 1-based labels, each in [1..num_categories]."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or (arr.size and (arr.dtype.kind not in "iu"
                                       or ((arr < 1) | (arr > num_categories)).any())):
        raise ContractError(f"expected a vector of integer labels in [1..{num_categories}]")
    return arr.astype(np.int64)


def as_probability_rows(probs) -> np.ndarray:
    """An (n, C) block whose every row lies on the probability simplex."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ContractError(f"expected (n, C) probability rows, got shape {p.shape}")
    # written so that a row holding NaN fails too
    on_simplex = (np.abs(p.sum(axis=1) - 1.0) <= _SIMPLEX_TOL) \
        & (p.min(axis=1, initial=0.0) >= -_SIMPLEX_TOL)
    if not on_simplex.all():
        raise ContractError("probabilities are not on the simplex")
    return p


def assign_pseudo_label(probs) -> np.ndarray:
    """1-based argmax of each (n, C) probability row; ties go to the lowest index."""
    return np.argmax(as_probability_rows(probs), axis=1) + 1


def key_label(source_labels, target_labels, num_categories: int) -> np.ndarray:
    """1-based labels of a key batch, its source keys first.

    Source keys keep their ground-truth ``source_labels``; target keys keep
    ``target_labels``, the labels of their rows (training passes the
    epoch's assign_pseudo_label output).
    """
    return np.concatenate([as_label_array(source_labels, num_categories),
                           as_label_array(target_labels, num_categories)])


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def prototype_memberships(
    source_emb: np.ndarray,
    source_labels: np.ndarray,
    target_emb: np.ndarray,
    num_categories: int,
) -> np.ndarray:
    """One-hot target memberships from spherical k-means seeded at source class means.

    Category c's prototype starts at the normalised mean of the source
    embeddings labelled c (1-based ``source_labels``). Each of the
    PROTOTYPE_STEPS steps assigns every target row to its most
    cosine-similar prototype (ties to the lowest index) and moves each
    prototype to the normalised mean of its rows; a prototype that wins
    no row stays put. Row i of the result is
    the simplex vertex of target row i's final assignment, so
    assign_pseudo_label reads it back as the row's label.
    """
    source_labels = np.asarray(source_labels)
    if source_emb.shape[0] != source_labels.shape[0]:
        raise ContractError(
            f"{source_emb.shape[0]} source embeddings for {source_labels.shape[0]} labels"
        )
    counts = np.bincount(source_labels - 1, minlength=num_categories)[:num_categories]
    if (counts == 0).any():
        missing = (np.flatnonzero(counts == 0) + 1).tolist()
        raise ContractError(f"no source rows to seed the prototypes of categories {missing}")
    hot = np.eye(num_categories)
    prototypes = _unit_rows(hot[source_labels - 1].T @ source_emb)
    target = _unit_rows(np.asarray(target_emb, dtype=np.float64))
    assigned = np.argmax(target @ prototypes.T, axis=1)
    for _ in range(PROTOTYPE_STEPS):
        sums = hot[assigned].T @ target
        won = np.bincount(assigned, minlength=num_categories) > 0
        prototypes[won] = _unit_rows(sums[won])
        assigned = np.argmax(target @ prototypes.T, axis=1)
    return hot[assigned]
