"""Training objectives: supervised cross-entropy, instance contrast, category contrast.

The category contrastive loss compares each target query against one key
per category and slot of the categorical dictionary. Per slot it is the
log loss of a C-way softmax classifier whose positive is the key sharing
the query's (pseudo) category; the result is averaged over slots and then
over the query batch. Keys are constants: gradients reach the queries only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dictionary import CategoricalDictionary
from .errors import ContractError, DimensionError, NotWarmError, ParameterError
from .labels import CategoryLabel, as_probability_rows


@dataclass
class LossValue:
    """A scalar, grad-enabled loss together with the number of queries in it."""

    value: Tensor
    batch_size: int

    def item(self) -> float:
        return self.value.item()


def supervised_loss(logits: Tensor, labels) -> LossValue:
    """Mean cross-entropy of (batch, C) logits against 1-based hard labels."""
    if logits.data.ndim != 2:
        raise DimensionError("supervised_loss expects (batch, C) logits")
    idx = np.asarray(labels, dtype=np.intp) - 1  # mean_nll checks its shape and range
    return LossValue(ad.mean_nll(logits, idx), idx.shape[0])


def info_nce(q: Tensor, keys: Tensor, positive_mask, tau: float) -> LossValue:
    """Instance contrastive loss of one query against N+1 keys.

    positive_mask is a 0/1 vector flagging the positive key(s);
    loss = -log( sum_pos exp(q.k_i/tau) / sum_all exp(q.k_i/tau) ).
    """
    if float(tau) <= 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    mask = np.asarray(positive_mask)
    if not (mask != 0).any():
        raise ContractError("info_nce needs at least one positive key")
    logits = ad.scale(ad.matvec(keys, q), 1.0 / float(tau))
    loss = ad.sub(ad.logsumexp(logits), ad.logsumexp(logits, mask))
    return LossValue(loss, 1)


def prediction_entropy(probs) -> np.ndarray:
    """Shannon entropy (natural log) of each row of an (n, C) probability block, 0*log(0) = 0."""
    p = np.clip(as_probability_rows(probs), 0.0, None)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=1)


def key_temperature(tau_base: float, entropies, num_categories: int) -> np.ndarray:
    """Per-key temperatures scaled by prediction entropy.

    Confident keys keep the base temperature; maximally uncertain ones get
    twice it: tau * (1 + H / log C), for each entropy H of the vector.
    """
    if tau_base <= 0.0:
        raise ParameterError(f"base temperature must be positive, got {tau_base}")
    if num_categories < 2:
        raise ParameterError("entropy scaling needs at least 2 categories")
    h_max = math.log(num_categories)
    h = np.asarray(entropies, dtype=np.float64)
    outside = (h < 0.0) | (h > h_max + 1e-9)
    if outside.any():
        raise ParameterError(f"entropies {h[outside].tolist()} outside [0, log C]")
    return tau_base * (1.0 + np.clip(h, 0.0, h_max) / h_max)


def cat_nce(
    queries: Tensor,
    query_labels: Sequence[CategoryLabel],
    dictionary: CategoricalDictionary,
) -> LossValue:
    """Category contrastive loss of a (batch, d) query block against a warm dictionary.

    Callers must pass unit-norm, grad-enabled queries and detached labels.
    """
    if not dictionary.is_warm():
        raise NotWarmError("category contrast needs every queue at full capacity")
    if queries.data.ndim != 2:
        raise DimensionError("cat_nce expects (batch, d) queries")
    batch, dim = queries.shape
    if batch != len(query_labels):
        raise DimensionError(
            f"batch mismatch: {batch} queries, {len(query_labels)} labels"
        )
    num_cat, capacity = dictionary.num_categories, dictionary.capacity
    # one row per (slot, category), each key pre-divided by its temperature
    scaled = dictionary.scaled_block()
    if scaled.shape[1] != dim:
        raise DimensionError(f"query dim {dim} does not match key dim {scaled.shape[1]}")

    # the (batch, M*C) logits split into batch*M softmax groups of C
    idx = np.repeat([lab.index - 1 for lab in query_labels], capacity)
    return LossValue(ad.grouped_nll(queries, scaled, idx, num_cat), batch)
