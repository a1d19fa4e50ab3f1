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
from .data import as_label_array, check_integers, check_reals
from .dictionary import CategoricalDictionary
from .errors import ContractError, DimensionError, ParameterError
from .labels import as_probability_rows


def supervised_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of (batch, C) logits against 1-based hard labels."""
    if logits.data.ndim != 2:
        raise DimensionError("supervised_loss expects (batch, C) logits")
    # mean_nll checks that there is one label per row
    return ad.mean_nll(logits, as_label_array(labels, logits.data.shape[1]) - 1)


def info_nce(q: Tensor, keys, positive_mask, tau: float) -> Tensor:
    """Instance contrastive loss of one (d,) query against N constant (N, d) keys.

    positive_mask is an (N,) vector whose one nonzero entry flags the
    positive key p; loss = -log( exp(q.k_p/tau) / sum_i exp(q.k_i/tau) ).
    That is cat_nce on a one-slot dictionary of N categories whose keys
    share tau, and it runs on the same record, bit for bit.
    """
    check_reals({"tau": tau}, above=0)
    q, keys = ad.as_tensor(q), ad.as_tensor(keys)
    if keys.requires_grad:
        raise ContractError("info_nce keys are constants: pass them without gradients")
    mask = np.asarray(positive_mask)
    if q.data.ndim != 1 or keys.data.ndim != 2 or mask.shape != keys.shape[:1]:
        raise DimensionError(f"info_nce needs a (d,) query, (N, d) keys and an (N,) mask; "
                             f"got {q.shape}, {keys.shape} and {mask.shape}")
    positive = np.flatnonzero(mask)
    if positive.size != 1:
        raise ContractError(f"info_nce needs exactly one positive key, got {positive.size}")
    return ad.grouped_nll(q, keys.data / tau, positive, keys.shape[0])


def prediction_entropy(probs) -> np.ndarray:
    """Shannon entropy (natural log) of each row of an (n, C) probability block, 0*log(0) = 0."""
    p = np.clip(as_probability_rows(probs), 0.0, None)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=1)


def key_temperature(tau_base: float, entropies, num_categories: int) -> np.ndarray:
    """Per-key temperatures scaled by prediction entropy.

    Confident keys keep the base temperature; maximally uncertain ones get
    twice it: tau * (1 + H / log C), for each entropy H of the vector.
    """
    check_reals({"tau_base": tau_base}, above=0)
    check_integers({"num_categories": num_categories}, at_least=2)
    h_max = math.log(num_categories)
    h = np.asarray(entropies, dtype=np.float64)
    outside = ~((h >= 0.0) & (h <= h_max + 1e-9))  # a NaN entropy is outside too
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
    grad-enabled queries. A cold dictionary raises scaled_block's NotWarmError.
    """
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
