"""Category labels: pseudo-labels for targets, ground truth for source keys.

Category indices are 1-based and live in [1..C]; the matching one-hot
vector is a vertex of the probability simplex. Target pseudo-labels come
from the category priors of the source: spherical k-means over target
embeddings, seeded at the source class means (prototype_memberships).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError

SOURCE = "source"
TARGET = "target"

_SIMPLEX_TOL = 1e-9
PROTOTYPE_STEPS = 10  # spherical k-means rounds per labelling


@dataclass(frozen=True)
class CategoryLabel:
    """A hard category assignment: index in [1..C] plus its one-hot vertex."""

    index: int
    one_hot: np.ndarray

    @classmethod
    def of(cls, index: int, num_categories: int) -> "CategoryLabel":
        if not 1 <= index <= num_categories:
            raise ContractError(f"label index {index} outside [1..{num_categories}]")
        hot = np.zeros(num_categories)
        hot[index - 1] = 1.0
        hot.flags.writeable = False
        return cls(int(index), hot)

    def __eq__(self, other) -> bool:
        return isinstance(other, CategoryLabel) and self.index == other.index \
            and len(self.one_hot) == len(other.one_hot)

    def __hash__(self) -> int:
        return hash((self.index, len(self.one_hot)))


def as_probability_vector(probs) -> np.ndarray:
    p = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ContractError(f"expected a probability vector, got shape {p.shape}")
    if abs(p.sum() - 1.0) > _SIMPLEX_TOL or p.min() < -_SIMPLEX_TOL:
        raise ContractError("probabilities are not on the simplex")
    return p


def assign_pseudo_label(probs) -> CategoryLabel:
    """Hard label at the argmax of a probability vector; ties go to the lowest index."""
    p = as_probability_vector(probs)
    return CategoryLabel.of(int(np.argmax(p)) + 1, p.shape[0])


def key_label(sample_domain: str, ground_truth: CategoryLabel | None, probs) -> CategoryLabel:
    """Label a dictionary key: ground truth for source, argmax of ``probs`` for target.

    Training passes a target key's row of prototype_memberships as ``probs``.
    """
    if sample_domain == SOURCE:
        if ground_truth is None:
            raise ContractError("source samples must carry a ground-truth label")
        return ground_truth
    if sample_domain == TARGET:
        return assign_pseudo_label(probs)
    raise ContractError(f"unknown domain {sample_domain!r}")


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
