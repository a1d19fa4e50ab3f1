"""Category-balanced key store: per-category ring buffers of capacity M.

Keys are unit-norm embeddings frozen at enqueue time together with their
category, per-key temperature and domain of origin. They live in a
(C, M, d) vector array with (C, M) temperature, age and domain arrays;
each category writes its next key at its head slot and overwrites the
oldest once full. When every queue is full ("warm"), slot m of each queue
lines up into a group of C keys, one per category, which is the
comparison unit of the category contrastive loss. Single writer;
snapshots are safe to read from anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .errors import ContractError, DimensionError, NotWarmError, ParameterError
from .labels import SOURCE, TARGET

_UNIT_TOL = 1e-9
_DOMAINS = (SOURCE, TARGET)  # domain codes stored in the domain array
_KEY_LINE = '{"category": %d, "domain": "%s", "age": %d, "temperature": %r, "vector": [%s]}\n'


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
        if num_categories < 1:
            raise ParameterError(f"need at least one category, got {num_categories}")
        if capacity < 1:
            raise ParameterError(f"queue capacity must be positive, got {capacity}")
        self.num_categories = int(num_categories)
        self.capacity = int(capacity)
        shape = (self.num_categories, self.capacity)
        self._vectors = np.zeros((*shape, 0))  # key dimension fixed by the first enqueue
        self._temperatures = np.zeros(shape)
        self._ages = np.zeros(shape, dtype=np.int64)
        self._domains = np.zeros(shape, dtype=np.int8)
        # per category: the next slot to write, and how many slots hold keys
        self._head = [0] * self.num_categories
        self._fill = [0] * self.num_categories
        self._next_age = 0
        self.enqueued_by_domain = {SOURCE: 0, TARGET: 0}

    def enqueue(self, vector, category: int, temperature: float, domain: str) -> None:
        """Write a key at its category's head, overwriting the oldest when full."""
        if not isinstance(category, (int, np.integer)) or not 1 <= category <= self.num_categories:
            raise ContractError(
                f"category {category} outside [1..{self.num_categories}]"
            )
        if domain not in _DOMAINS:
            raise ContractError(f"unknown domain {domain!r}")
        if not 0.0 < temperature < math.inf:  # NaN fails both comparisons
            raise ParameterError(f"key temperature must be finite and positive, got {temperature}")
        vec = np.asarray(vector, dtype=np.float64)
        if vec.ndim != 1 or (self._next_age and vec.shape[0] != self._vectors.shape[2]):
            raise DimensionError(
                f"keys are 1-d and as long as the first one; got shape {vec.shape}"
            )
        # np.linalg.norm of a 1-d array, without its overhead; written so
        # that a NaN or infinite norm fails the check too
        if not abs(math.sqrt(vec.dot(vec)) - 1.0) <= _UNIT_TOL:
            raise ContractError("key vectors must be finite and unit-norm")
        if not self._next_age:
            self._vectors = np.zeros((self.num_categories, self.capacity, vec.shape[0]))
        c = category - 1
        slot = self._head[c]
        self._vectors[c, slot] = vec  # a copy: the caller's array stays theirs
        self._temperatures[c, slot] = temperature
        self._ages[c, slot] = self._next_age
        self._domains[c, slot] = _DOMAINS.index(domain)
        self._head[c] = (slot + 1) % self.capacity
        self._fill[c] = min(self._fill[c] + 1, self.capacity)
        self._next_age += 1
        self.enqueued_by_domain[domain] += 1

    def _key(self, c: int, slot: int) -> CategoricalKey:
        vec = self._vectors[c, slot].copy()
        vec.flags.writeable = False
        return CategoricalKey(
            vec, c + 1, float(self._temperatures[c, slot]),
            _DOMAINS[self._domains[c, slot]], int(self._ages[c, slot]),
        )

    def _require_slots(self, m: int) -> None:
        if m < 1:
            raise ContractError(f"slot index must be >= 1, got {m}")
        for c, n in enumerate(self._fill):
            if n < m:
                raise NotWarmError(f"queue {c + 1} holds {n} keys, slot {m} requested")

    def group(self, m: int) -> list[CategoricalKey]:
        """The m-th newest key of every category, in category order (m >= 1)."""
        self._require_slots(m)
        return [self._key(c, (self._head[c] - m) % self.capacity)
                for c in range(self.num_categories)]

    def scaled_block(self) -> np.ndarray:
        """Every key divided by its temperature, one C-contiguous (M*C, d) array.

        Slot-major: row (m-1)*C + (c-1) holds the m-th newest key of
        category c, so rows (m-1)*C .. m*C-1 are group(m). Needs a warm
        dictionary.
        """
        self._require_slots(self.capacity)
        slots = (np.array(self._head) - np.arange(1, self.capacity + 1)[:, None]) % self.capacity
        cats = np.arange(self.num_categories)
        block = self._vectors[cats, slots] / self._temperatures[cats, slots][:, :, None]
        return block.reshape(self.capacity * self.num_categories, -1)

    def is_warm(self) -> bool:
        return min(self._fill) == self.capacity

    def queue_lengths(self) -> list[int]:
        return list(self._fill)

    def _held_slots(self, c: int) -> np.ndarray:
        """The slots of category index c that hold keys, oldest to newest."""
        return (self._head[c] - self._fill[c] + np.arange(self._fill[c])) % self.capacity

    def keys(self) -> Iterator[CategoricalKey]:
        """All keys, by category then oldest to newest."""
        for c in range(self.num_categories):
            for slot in self._held_slots(c):
                yield self._key(c, slot)

    def __len__(self) -> int:
        return sum(self._fill)

    def snapshot(self) -> "CategoricalDictionary":
        """A copy, independent both ways, safe to read while the original keeps being updated."""
        copy = CategoricalDictionary(self.num_categories, self.capacity)
        for name in ("_vectors", "_temperatures", "_ages", "_domains", "_head", "_fill"):
            setattr(copy, name, getattr(self, name).copy())
        copy._next_age = self._next_age
        copy.enqueued_by_domain = dict(self.enqueued_by_domain)
        return copy

    def dump_jsonl(self, fp: IO[str]) -> None:
        """One JSON record per key, in keys() order: category, domain, age, temperature, vector.

        Each line has the bytes json.dumps gives the record: every number
        is finite (enqueue checks), and ints and floats print as their repr.
        """
        for c in range(self.num_categories):
            slots = self._held_slots(c)
            for domain, age, tau, vec in zip(
                self._domains[c, slots].tolist(), self._ages[c, slots].tolist(),
                self._temperatures[c, slots].tolist(), self._vectors[c, slots].tolist(),
            ):
                fp.write(_KEY_LINE % (c + 1, _DOMAINS[domain], age, tau,
                                      ", ".join(map(float.__repr__, vec))))
