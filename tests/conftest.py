"""Shared builders for randomized loss and dictionary instances, readers of tape and
dictionary state that only tests need, and the acceptance marker."""

import numpy as np
import pytest

from caco.dictionary import CategoricalDictionary
from caco.labels import SOURCE, TARGET, CategoryLabel


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_warm_dictionary(rng, num_categories, capacity, dim, uniform_tau=None):
    """A warm dictionary with random unit keys and (optionally random) temperatures."""
    d = CategoricalDictionary(num_categories, capacity)
    for _ in range(capacity):
        for c in range(1, num_categories + 1):
            vec = unit_rows(rng, 1, dim)[0]
            tau = uniform_tau if uniform_tau is not None else float(rng.uniform(0.07, 0.14))
            domain = SOURCE if rng.random() < 0.5 else TARGET
            d.enqueue(vec, c, tau, domain)
    return d


def tape_length(tape):
    """The number of records on a tape."""
    return len(tape._records)


def queue_lengths(d):
    """How many keys each category's queue holds, in category order."""
    return [d._held(c) for c in range(d.num_categories)]


def held_keys(d):
    """Every key the dictionary holds, by category then oldest to newest."""
    return [d._key(c, slot) for c in range(d.num_categories) for slot in d._held_slots(c)]


def random_labels(rng, batch, num_categories):
    return [
        CategoryLabel.of(int(rng.integers(1, num_categories + 1)), num_categories)
        for _ in range(batch)
    ]


def pytest_collection_modifyitems(items):
    """Mark the acceptance criteria, so `pytest -m "not acceptance"` runs the rest."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
