"""Single-root seeding: every random stream is a named child of one seed.

A child stream named ``name`` is the numpy generator seeded by the pair
(root_seed, STREAM_IDS[name]), so runs are reproducible across module
boundaries and adding a new stream never shifts the existing ones.
"""

from __future__ import annotations

import numpy as np

from .data import check_integers
from .errors import ContractError

STREAM_IDS = {
    "source_data": 0,
    "target_data": 1,
    "encoder_init": 2,
    "classifier_init": 3,
    "source_batches": 4,
    "key_batches": 5,
    "query_batches": 6,
}


def _stream_key(root_seed: int, name: str) -> list[int]:
    if name not in STREAM_IDS:
        raise ContractError(f"unknown random stream {name!r}")
    check_integers({"the root seed": root_seed}, at_least=0)
    return [int(root_seed), STREAM_IDS[name]]


def child_rng(root_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(_stream_key(root_seed, name))


def child_seed(root_seed: int, name: str) -> int:
    """A derived integer seed, for call signatures that take one."""
    return int(np.random.SeedSequence(_stream_key(root_seed, name)).generate_state(1)[0])
