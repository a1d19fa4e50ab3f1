"""Category-balanced key store: per-category ring buffers of capacity M.

Keys are unit-norm embeddings frozen at enqueue time together with their
category, per-key temperature and domain of origin. They live in a
(C, M, d) vector array with (C, M) temperature, age and domain arrays;
a category's n-th key goes to slot (n - 1) % M, overwriting the oldest
once full; a key's age is the number of keys written before it. When
every queue is full ("warm"), slot m of each queue lines up into a group
of C keys, one per category, which is the comparison unit of the
category contrastive loss. Single writer; snapshots are safe to read
from anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .data import check_integers, is_label, is_real
from .errors import ContractError, DimensionError, NotWarmError, ParameterError
from .labels import SOURCE, TARGET

_UNIT_TOL = 1e-9
_DOMAINS = (SOURCE, TARGET)  # domain codes stored in the domain array
_KEY_LINE = '{{"category": {}, "domain": "{}", "age": {}, "temperature": {!r}, "vector": [{}]}}\n'


@dataclass(frozen=True)
class CategoricalKey:
    """An immutable dictionary entry."""

    vector: np.ndarray
    category: int
    temperature: float
    domain: str
    age: int


class CategoricalDictionary:
    """C ring buffers of capacity M holding categorical keys."""

    def __init__(self, num_categories: int, capacity: int):
        check_integers({"num_categories": num_categories, "capacity": capacity}, at_least=1)
        self.num_categories = int(num_categories)
        self.capacity = int(capacity)
        shape = (self.num_categories, self.capacity)
        self._vectors = np.zeros((*shape, 0))  # key dimension fixed by the first enqueue
        self._temperatures = np.zeros(shape)
        self._ages = np.zeros(shape, dtype=np.int64)
        self._domains = np.zeros(shape, dtype=np.int8)
        self._written = [0] * self.num_categories  # keys ever written, per category

    def enqueue(self, vector, category: int, temperature: float, domain: str) -> None:
        """Write a key at its category's next slot, overwriting the oldest when full."""
        if not is_label(category, self.num_categories):
            raise ContractError(
                f"category {category!r} is not an integer in [1..{self.num_categories}]"
            )
        if domain not in _DOMAINS:
            raise ContractError(f"unknown domain {domain!r}")
        if not is_real(temperature) or temperature <= 0.0:
            raise ParameterError(
                f"key temperature must be finite, real and positive, got {temperature!r}"
            )
        vec = np.asarray(vector, dtype=np.float64)
        dim = self._vectors.shape[2]  # 0 until the first key
        if vec.ndim != 1 or (dim and vec.shape[0] != dim):
            raise DimensionError(
                f"keys are 1-d and as long as the first one; got shape {vec.shape}"
            )
        # the Euclidean norm of a 1-d array, without linalg.norm's overhead; written so
        # that a NaN or infinite norm fails the check too
        if not abs(math.sqrt(vec.dot(vec)) - 1.0) <= _UNIT_TOL:
            raise ContractError("key vectors must be finite and unit-norm")
        if not dim:
            self._vectors = np.zeros((self.num_categories, self.capacity, vec.shape[0]))
        c = category - 1
        slot = self._written[c] % self.capacity
        self._vectors[c, slot] = vec  # a copy: the caller's array stays theirs
        self._temperatures[c, slot] = temperature
        self._ages[c, slot] = sum(self._written)
        self._domains[c, slot] = _DOMAINS.index(domain)
        self._written[c] += 1

    def _key(self, c: int, slot: int) -> CategoricalKey:
        vec = self._vectors[c, slot].copy()
        vec.flags.writeable = False
        return CategoricalKey(
            vec, c + 1, float(self._temperatures[c, slot]),
            _DOMAINS[self._domains[c, slot]], int(self._ages[c, slot]),
        )

    def _require_slots(self, m: int) -> None:
        check_integers({"slot index": m}, at_least=1)
        for c in range(self.num_categories):
            if self._held(c) < m:
                raise NotWarmError(f"queue {c + 1} holds {self._held(c)} keys, slot {m} requested")

    def group(self, m: int) -> list[CategoricalKey]:
        """The m-th newest key of every category, in category order (m >= 1)."""
        self._require_slots(m)
        return [self._key(c, slot) for c, slot in enumerate(self._newest(m).tolist())]

    def scaled_block(self) -> np.ndarray:
        """Every key divided by its temperature, one C-contiguous (M*C, d) array.

        Slot-major: row (m-1)*C + (c-1) holds the m-th newest key of
        category c, so rows (m-1)*C .. m*C-1 are group(m). Needs a warm
        dictionary.
        """
        self._require_slots(self.capacity)
        cats, cap = self.num_categories, self.capacity
        slots = self._newest(np.arange(1, cap + 1)[:, None])  # (M, C)
        # flat rows (c-1)*M + slot of the (C*M, d) keys and of the C*M temperatures
        rows = (slots + np.arange(0, cats * cap, cap)).ravel()
        block = self._vectors.reshape(cats * cap, -1).take(rows, axis=0)
        block /= self._temperatures.ravel().take(rows)[:, None]
        return block

    def _newest(self, k) -> np.ndarray:
        """Per category, the slot of its k-th newest key; a column of k gives a row per k."""
        return (np.array(self._written) - k) % self.capacity

    def is_warm(self) -> bool:
        return min(self._written) >= self.capacity

    def _held(self, c: int) -> int:
        """How many keys the queue of category index c holds."""
        return min(self._written[c], self.capacity)

    def _held_slots(self, c: int) -> np.ndarray:
        """The slots of category index c that hold keys, oldest to newest."""
        return self._newest(np.arange(self._held(c), 0, -1)[:, None])[:, c]

    def __len__(self) -> int:
        return sum(self._held(c) for c in range(self.num_categories))

    def snapshot(self) -> "CategoricalDictionary":
        """A copy, independent both ways, safe to read while the original keeps being updated."""
        # a bare instance: __init__'s checks and empty arrays would all be overwritten
        snap = object.__new__(CategoricalDictionary)
        snap.__dict__.update(self.__dict__)
        for name in ("_vectors", "_temperatures", "_ages", "_domains", "_written"):
            setattr(snap, name, getattr(self, name).copy())
        return snap

    def dump_jsonl(self, fp: IO[str]) -> None:
        """One JSON record per key, by category then oldest to newest: category, domain, age,
        temperature, vector.

        Each line has the bytes json.dumps gives the record: every number
        is finite (enqueue checks), and ints and floats print as their repr.
        """
        for c in range(self.num_categories):
            slots = self._held_slots(c)
            for domain, age, tau, vec in zip(
                self._domains[c, slots].tolist(), self._ages[c, slots].tolist(),
                self._temperatures[c, slots].tolist(), self._vectors[c, slots].tolist(),
            ):
                fp.write(_KEY_LINE.format(c + 1, _DOMAINS[domain], age, tau,
                                          ", ".join(map(float.__repr__, vec))))
