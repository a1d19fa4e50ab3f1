"""Finite-difference verification suites for every differentiable loss path.

Each suite builds randomized instances, compares tape gradients against
central differences and returns the worst relative error, defined as
max|analytic - numeric| / max(1, |analytic|_inf, |numeric|_inf).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape, Tensor, backward, finite_diff_grad
from .losses import cat_nce, info_nce, supervised_loss
from .model import Classifier, MlpParams, MlpSpec, classifier_logits, encode, init_classifier, init_params

DEFAULT_EPS = 1e-5
DEFAULT_TOLERANCE = 1e-4


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
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
        logits0 = rng.normal(scale=2.0, size=(batch, num_cat))
        labels = np.array([rng.integers(1, num_cat + 1) for _ in range(batch)])
        x = Tensor(logits0, requires_grad=True)
        with Tape() as tape:
            loss = supervised_loss(x, labels)
        analytic = backward(loss, tape)[x.id].data
        numeric = finite_diff_grad(
            lambda flat: supervised_loss(Tensor(flat.reshape(logits0.shape)), labels).item(),
            logits0,
            eps,
        ).data
        worst = max(worst, _relative_error(analytic, numeric))
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
        q0 = _unit_rows(rng, 1, dim)[0]
        q = Tensor(q0, requires_grad=True)
        with Tape() as tape:
            loss = info_nce(q, keys, mask, tau)
        analytic = backward(loss, tape)[q.id].data
        numeric = finite_diff_grad(
            lambda flat: info_nce(Tensor(flat), keys, mask, tau).item(), q0, eps
        ).data
        worst = max(worst, _relative_error(analytic, numeric))
    return worst


def check_cat_nce(instances: int, rng, eps: float = DEFAULT_EPS) -> float:
    from .dictionary import CategoricalDictionary
    from .labels import SOURCE

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
        q0 = _unit_rows(rng, batch, dim)
        q = Tensor(q0, requires_grad=True)
        with Tape() as tape:
            loss = cat_nce(q, labels, d)
        analytic = backward(loss, tape)[q.id].data
        numeric = finite_diff_grad(
            lambda flat: cat_nce(Tensor(flat.reshape(q0.shape)), labels, d).item(), q0, eps
        ).data
        worst = max(worst, _relative_error(analytic, numeric))
    return worst


def check_encoder_path(instances: int, rng, eps: float = DEFAULT_EPS) -> float:
    """Supervised loss through encoder and classifier, gradients for all parameters.

    Instances whose rectifier silences a whole sample (degenerate embedding)
    are redrawn, like staying away from ReLU kinks in any finite-difference
    check.
    """
    from .errors import DegenerateEmbeddingError

    worst = 0.0
    spec = MlpSpec((3, 8, 2))
    done = 0
    while done < instances:
        params = init_params(spec, int(rng.integers(0, 2**31)))
        clf = init_classifier(2, 2, int(rng.integers(0, 2**31)))
        x = rng.normal(size=(2, 3))
        labels = np.array([rng.integers(1, 3) for _ in range(2)])
        tensors = params.tensors() + [clf.weight, clf.bias]
        sizes = [t.data.size for t in tensors]
        shapes = [t.data.shape for t in tensors]

        try:
            with Tape() as tape:
                loss = supervised_loss(
                    classifier_logits(clf, encode(params, Tensor(x))), labels
                )
        except DegenerateEmbeddingError:
            continue
        done += 1
        grads = backward(loss, tape)
        analytic = np.concatenate([grads[t.id].data.reshape(-1) for t in tensors])

        def f(flat):
            vals = np.split(flat, np.cumsum(sizes)[:-1])
            arrs = [v.reshape(s) for v, s in zip(vals, shapes)]
            p = MlpParams([Tensor(arrs[0]), Tensor(arrs[2])], [Tensor(arrs[1]), Tensor(arrs[3])])
            c = Classifier(Tensor(arrs[4]), Tensor(arrs[5]))
            return supervised_loss(classifier_logits(c, encode(p, Tensor(x))), labels).item()

        flat0 = np.concatenate([t.data.reshape(-1) for t in tensors])
        numeric = finite_diff_grad(f, flat0, eps).data
        worst = max(worst, _relative_error(analytic, numeric))
    return worst


def run_all(instances: int = 50, seed: int = 0) -> dict[str, float]:
    """Every suite with its own child stream; returns max relative error per suite."""
    return {
        "supervised_loss": check_supervised_loss(instances, np.random.default_rng([seed, 101])),
        "info_nce": check_info_nce(instances, np.random.default_rng([seed, 102])),
        "cat_nce": check_cat_nce(instances, np.random.default_rng([seed, 103])),
        "encoder_path": check_encoder_path(max(5, instances // 5), np.random.default_rng([seed, 104])),
    }
