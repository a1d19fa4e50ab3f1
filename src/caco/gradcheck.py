"""Finite-difference verification suites for every differentiable loss path.

Each suite draws randomized instances, hands each to gradient_error and
returns the worst relative error, defined as
max|analytic - numeric| / max(1, |analytic|_inf, |numeric|_inf).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tape, Tensor, backward, finite_diff_grad
from .dictionary import CategoricalDictionary
from .errors import DegenerateEmbeddingError, ParameterError
from .labels import SOURCE
from .losses import cat_nce, info_nce, supervised_loss
from .model import Classifier, MlpParams, MlpSpec, classifier_logits, encode, init_classifier, init_params

DEFAULT_EPS = 1e-5
DEFAULT_TOLERANCE = 1e-4


def gradient_error(loss_of: Callable[..., Tensor], *arrays, eps: float = DEFAULT_EPS) -> float:
    """Relative error of tape gradients of loss_of(*arrays) against central differences.

    Each array becomes a grad-enabled leaf and loss_of runs on a tape; the
    leaf gradients, concatenated in argument order, are compared with
    finite_diff_grad over the concatenated arrays, which loss_of then
    receives split back into constant tensors of the original shapes.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = loss_of(*leaves)
    grads = backward(loss, tape)
    analytic = np.concatenate([grads[t.id].data.ravel() for t in leaves])
    cuts = np.cumsum([t.data.size for t in leaves])[:-1]

    def f(flat):
        parts = np.split(flat, cuts)
        return loss_of(*(Tensor(v.reshape(t.shape)) for v, t in zip(parts, leaves))).item()

    numeric = finite_diff_grad(f, np.concatenate([t.data.ravel() for t in leaves]), eps).data
    denom = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
    return float(np.abs(analytic - numeric).max() / denom)


def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def check_supervised_loss(instances: int, rng, eps: float = DEFAULT_EPS) -> float:
    worst = 0.0
    for _ in range(instances):
        batch = int(rng.integers(1, 5))
        num_cat = int(rng.integers(2, 6))
        logits = rng.normal(scale=2.0, size=(batch, num_cat))
        labels = np.array([rng.integers(1, num_cat + 1) for _ in range(batch)])
        worst = max(worst, gradient_error(lambda x: supervised_loss(x, labels), logits, eps=eps))
    return worst


def check_info_nce(instances: int, rng, eps: float = DEFAULT_EPS) -> float:
    worst = 0.0
    for _ in range(instances):
        n_keys = int(rng.integers(2, 8))
        dim = int(rng.integers(2, 7))
        keys = Tensor(_unit_rows(rng, n_keys, dim))
        mask = np.zeros(n_keys)
        mask[rng.integers(0, n_keys)] = 1.0
        tau = float(rng.uniform(0.05, 0.5))
        q = _unit_rows(rng, 1, dim)[0]
        worst = max(worst, gradient_error(lambda x: info_nce(x, keys, mask, tau), q, eps=eps))
    return worst


def check_cat_nce(instances: int, rng, eps: float = DEFAULT_EPS) -> float:
    worst = 0.0
    for _ in range(instances):
        num_cat = int(rng.integers(2, 5))
        capacity = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 7))
        batch = int(rng.integers(1, 4))
        d = CategoricalDictionary(num_cat, capacity)
        for _ in range(capacity):
            for c in range(1, num_cat + 1):
                d.enqueue(
                    _unit_rows(rng, 1, dim)[0], c, float(rng.uniform(0.07, 0.14)), SOURCE
                )
        labels = np.array([rng.integers(1, num_cat + 1) for _ in range(batch)])
        q = _unit_rows(rng, batch, dim)
        worst = max(worst, gradient_error(lambda x: cat_nce(x, labels, d), q, eps=eps))
    return worst


def check_encoder_path(instances: int, rng, eps: float = DEFAULT_EPS) -> float:
    """Supervised loss through encoder and classifier, gradients for all parameters.

    Instances whose rectifier silences a whole sample (degenerate embedding)
    are redrawn, like staying away from ReLU kinks in any finite-difference
    check.
    """
    worst = 0.0
    spec = MlpSpec((3, 8, 2))
    done = 0
    while done < instances:
        params = init_params(spec, int(rng.integers(0, 2**31)))
        clf = init_classifier(2, 2, int(rng.integers(0, 2**31)))
        x = rng.normal(size=(2, 3))
        labels = np.array([rng.integers(1, 3) for _ in range(2)])

        def loss_of(w0, b0, w1, b1, weight, bias):
            emb = encode(MlpParams([w0, w1], [b0, b1]), Tensor(x))
            return supervised_loss(classifier_logits(Classifier(weight, bias), emb), labels)

        arrays = [t.data for t in params.tensors() + [clf.weight, clf.bias]]
        try:
            worst = max(worst, gradient_error(loss_of, *arrays, eps=eps))
        except DegenerateEmbeddingError:
            continue
        done += 1
    return worst


def run_all(instances: int = 50, seed: int = 0) -> dict[str, float]:
    """Every suite with its own child stream; returns max relative error per suite."""
    if instances < 1:
        raise ParameterError(f"instances must be at least 1, got {instances}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return {
        "supervised_loss": check_supervised_loss(instances, np.random.default_rng([seed, 101])),
        "info_nce": check_info_nce(instances, np.random.default_rng([seed, 102])),
        "cat_nce": check_cat_nce(instances, np.random.default_rng([seed, 103])),
        "encoder_path": check_encoder_path(max(5, instances // 5), np.random.default_rng([seed, 104])),
    }
