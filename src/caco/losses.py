"""Training objectives: supervised cross-entropy, instance contrast, category contrast.

The category contrastive loss compares each target query against one key
per category and slot of the categorical dictionary. Per slot it is the
log loss of a C-way softmax classifier whose positive is the key sharing
the query's (pseudo) category; the result is averaged over slots and then
over the query batch. Keys are constants: gradients reach the queries only.
Query labels are 1-based category indices, one per query. Every loss
returns its grad-enabled scalar Tensor.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dictionary import CategoricalDictionary
from .errors import ContractError, DimensionError, NotWarmError, ParameterError
from .labels import as_label_array, as_probability_rows


def supervised_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of (batch, C) logits against 1-based hard labels."""
    if logits.data.ndim != 2:
        raise DimensionError("supervised_loss expects (batch, C) logits")
    # mean_nll checks that there is one label per row
    return ad.mean_nll(logits, as_label_array(labels, logits.data.shape[1]) - 1)


def info_nce(q: Tensor, keys: Tensor, positive_mask, tau: float) -> Tensor:
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
    return ad.sub(ad.logsumexp(logits), ad.logsumexp(logits, mask))


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
    query_labels,
    dictionary: CategoricalDictionary,
) -> Tensor:
    """Category contrastive loss of a (batch, d) query block against a warm dictionary.

    ``query_labels`` holds one 1-based category per query: an integer array,
    or a sequence of ints such as CategoryLabel. Callers must pass unit-norm,
    grad-enabled queries.
    """
    if not dictionary.is_warm():
        raise NotWarmError("category contrast needs every queue at full capacity")
    if queries.data.ndim != 2:
        raise DimensionError("cat_nce expects (batch, d) queries")
    batch, dim = queries.shape
    labels = np.asarray(query_labels)
    if labels.shape != (batch,):
        raise DimensionError(f"batch mismatch: {batch} queries, labels of shape {labels.shape}")
    num_cat, capacity = dictionary.num_categories, dictionary.capacity
    labels = as_label_array(labels, num_cat)
    # one row per (slot, category), each key pre-divided by its temperature
    scaled = dictionary.scaled_block()
    if scaled.shape[1] != dim:
        raise DimensionError(f"query dim {dim} does not match key dim {scaled.shape[1]}")

    # the (batch, M*C) logits split into batch*M softmax groups of C
    return ad.grouped_nll(queries, scaled, np.repeat(labels - 1, capacity), num_cat)
