"""Finite-difference verification suites for every differentiable loss path.

Each suite is a draw function, rng -> (loss_of, *arrays), of one randomized
instance; _worst hands its draws to gradient_error and returns the worst
relative error, defined as
max|analytic - numeric| / max(1, |analytic|_inf, |numeric|_inf).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tape, Tensor, backward, unit_normalize
from .dictionary import CategoricalDictionary
from .data import check_integers
from .errors import DegenerateEmbeddingError
from .labels import SOURCE
from .losses import cat_nce, info_nce, supervised_loss
from .model import Classifier, MlpParams, MlpSpec, classifier_logits, encode, init_classifier, init_params

DEFAULT_TOLERANCE = 1e-4
FD_STEP = 1e-5  # the step of gradient_error's central differences


def gradient_error(loss_of: Callable[..., Tensor], *arrays) -> float:
    """Relative error of tape gradients of loss_of(*arrays) against central differences.

    Each array becomes a grad-enabled leaf and loss_of runs on a tape; the
    leaf gradients, concatenated in argument order, are compared with
    central differences at step FD_STEP along every coordinate of the
    concatenated arrays, which loss_of then receives split back into
    constant tensors of the original shapes.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = loss_of(*leaves)
    grads = backward(loss, tape)
    analytic = np.concatenate([grads[t].ravel() for t in leaves])
    flat = np.concatenate([t.data.ravel() for t in leaves])
    cuts = np.cumsum([t.data.size for t in leaves])[:-1]

    def loss_at(i: int, step: float) -> float:
        x = flat.copy()
        x[i] += step
        parts = np.split(x, cuts)
        return loss_of(*(Tensor(v.reshape(t.shape)) for v, t in zip(parts, leaves))).item()

    numeric = np.array([(loss_at(i, FD_STEP) - loss_at(i, -FD_STEP)) / (2.0 * FD_STEP)
                        for i in range(flat.size)])
    denom = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
    return float(np.abs(analytic - numeric).max() / denom)


def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    return unit_normalize(rng.normal(size=(n, d)))[0]


def draw_supervised_loss(rng):
    batch = int(rng.integers(1, 5))
    num_cat = int(rng.integers(2, 6))
    logits = rng.normal(scale=2.0, size=(batch, num_cat))
    labels = np.array([rng.integers(1, num_cat + 1) for _ in range(batch)])
    return lambda x: supervised_loss(x, labels), logits


def draw_info_nce(rng):
    n_keys = int(rng.integers(2, 8))
    dim = int(rng.integers(2, 7))
    keys = _unit_rows(rng, n_keys, dim)
    mask = np.zeros(n_keys)
    mask[rng.integers(0, n_keys)] = 1.0
    tau = float(rng.uniform(0.05, 0.5))
    q = _unit_rows(rng, 1, dim)[0]
    return lambda x: info_nce(x, keys, mask, tau), q


def draw_cat_nce(rng):
    num_cat = int(rng.integers(2, 5))
    capacity = int(rng.integers(1, 4))
    dim = int(rng.integers(3, 7))
    batch = int(rng.integers(1, 4))
    d = CategoricalDictionary(num_cat, capacity)
    for _ in range(capacity):
        for c in range(1, num_cat + 1):
            d.enqueue(_unit_rows(rng, 1, dim)[0], c, float(rng.uniform(0.07, 0.14)), SOURCE)
    labels = np.array([rng.integers(1, num_cat + 1) for _ in range(batch)])
    q = _unit_rows(rng, batch, dim)
    return lambda x: cat_nce(x, labels, d), q


def draw_encoder_path(rng):
    """Supervised loss through encoder and classifier, over all six parameter arrays."""
    params = init_params(MlpSpec((3, 8, 2)), int(rng.integers(0, 2**31)))
    clf = init_classifier(2, 2, int(rng.integers(0, 2**31)))
    x = rng.normal(size=(2, 3))
    labels = np.array([rng.integers(1, 3) for _ in range(2)])

    def loss_of(w0, b0, w1, b1, weight, bias):
        emb = encode(MlpParams([w0, w1], [b0, b1]), x)
        return supervised_loss(classifier_logits(Classifier(weight, bias), emb), labels)

    return (loss_of, *(t.data for t in params.tensors() + [clf.weight, clf.bias]))


def _worst(draw, instances: int, rng) -> float:
    """Largest gradient_error over instances draws of draw(rng) -> (loss_of, *arrays).

    A draw whose rectifier silences a whole sample (degenerate embedding) is
    redrawn, like staying away from ReLU kinks in any finite-difference check.
    """
    worst, done = 0.0, 0
    while done < instances:
        try:
            worst = max(worst, gradient_error(*draw(rng)))
        except DegenerateEmbeddingError:
            continue
        done += 1
    return worst


def run_all(instances: int = 50, seed: int = 0) -> dict[str, float]:
    """Every suite with its own child stream; returns max relative error per suite."""
    check_integers({"instances": instances}, at_least=1)
    check_integers({"seed": seed}, at_least=0)
    return {
        "supervised_loss": _worst(draw_supervised_loss, instances, np.random.default_rng([seed, 101])),
        "info_nce": _worst(draw_info_nce, instances, np.random.default_rng([seed, 102])),
        "cat_nce": _worst(draw_cat_nce, instances, np.random.default_rng([seed, 103])),
        "encoder_path": _worst(draw_encoder_path, max(5, instances // 5),
                               np.random.default_rng([seed, 104])),
    }
