"""FIFO, routing and balance contracts of the categorical dictionary."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caco.dictionary import CategoricalDictionary
from caco.errors import ContractError, DimensionError, NotWarmError, ParameterError
from caco.labels import SOURCE, TARGET

from conftest import random_warm_dictionary, unit_rows


def unit(d, i=0):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def _put(d, vector, category, temperature, domain):
    """Enqueue one key and read it back from the dictionary: the newest of its category."""
    d.enqueue(vector, category, temperature, domain)
    return [k for k in d.keys() if k.category == category][-1]


def test_enqueue_into_empty_queue():
    d = CategoricalDictionary(2, 3)
    d.enqueue(unit(4), 1, 0.07, SOURCE)
    assert d.queue_lengths() == [1, 0]


def test_fifo_eviction_keeps_newest():
    d = CategoricalDictionary(1, 2)
    rng = np.random.default_rng(0)
    keys = []
    for _ in range(3):
        d.enqueue(unit_rows(rng, 1, 3)[0], 1, 0.07, SOURCE)
        keys.append(d.group(1)[0])
    held = d.group(1), d.group(2)
    assert {held[0][0].age, held[1][0].age} == {keys[1].age, keys[2].age}


def test_out_of_range_category_rejected():
    d = CategoricalDictionary(3, 2)
    with pytest.raises(ContractError):
        d.enqueue(unit(2), 0, 0.07, SOURCE)
    with pytest.raises(ContractError):
        d.enqueue(unit(2), 4, 0.07, SOURCE)


@pytest.mark.parametrize("temperature", [0.0, -0.07, float("nan"), float("inf")])
def test_non_finite_or_non_positive_temperature_rejected(temperature):
    d = CategoricalDictionary(2, 2)
    with pytest.raises(ParameterError):
        d.enqueue(unit(3), 1, temperature, SOURCE)
    assert len(d) == 0


def test_non_unit_vector_rejected():
    d = CategoricalDictionary(2, 2)
    # a NaN norm compares false with everything, so NaN keys must fail too
    for vector in ([3.0, 4.0], [np.nan, np.nan], [np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(ContractError):
            d.enqueue(np.array(vector), 1, 0.07, SOURCE)
    assert len(d) == 0


def test_key_length_fixed_by_first_key():
    d = CategoricalDictionary(2, 2)
    with pytest.raises(DimensionError):
        d.enqueue(np.eye(2), 1, 0.07, SOURCE)
    d.enqueue(unit(3), 1, 0.07, SOURCE)
    with pytest.raises(DimensionError):
        d.enqueue(unit(4), 2, 0.07, SOURCE)
    assert d.queue_lengths() == [1, 0]


def test_randomized_enqueues_match_reference_lists():
    # replay oracle: plain per-category python lists trimmed from the front
    rng = np.random.default_rng(1)
    C, M = 3, 100
    d = CategoricalDictionary(C, M)
    reference = {c: [] for c in range(1, C + 1)}
    for age in range(1000):
        c = int(rng.integers(1, C + 1))
        vec = unit_rows(rng, 1, 5)[0]
        d.enqueue(vec, c, 0.07, TARGET)
        reference[c].append((age, vec))
        if len(reference[c]) > M:
            reference[c].pop(0)
    for c in range(1, C + 1):
        queue = [d.group(m)[c - 1] for m in range(1, len(reference[c]) + 1)][::-1] \
            if len(reference[c]) else []
        assert len(queue) <= M
        ages = [k.age for k in queue]
        assert ages == sorted(ages)
        for key, (age, vec) in zip(queue, reference[c]):
            assert key.age == age and key.category == c
            np.testing.assert_array_equal(key.vector, vec)


def test_group_singleton():
    d = CategoricalDictionary(2, 3)
    a1 = _put(d, unit(3, 0), 1, 0.07, SOURCE)
    a2 = _put(d, unit(3, 1), 2, 0.07, SOURCE)
    assert [k.age for k in d.group(1)] == [a1.age, a2.age]


def test_group_beyond_shortest_queue_rejected():
    d = CategoricalDictionary(2, 3)
    d.enqueue(unit(3), 1, 0.07, SOURCE)
    with pytest.raises(NotWarmError):
        d.group(1)  # queue 2 still empty
    d.enqueue(unit(3), 2, 0.07, SOURCE)
    with pytest.raises(NotWarmError):
        d.group(2)


def test_group_slot_order_against_reference():
    rng = np.random.default_rng(2)
    C, M = 3, 5
    d = CategoricalDictionary(C, M)
    newest_per_cat = {c: [] for c in range(1, C + 1)}
    while not d.is_warm():
        c = int(rng.integers(1, C + 1))
        vec = unit_rows(rng, 1, 4)[0]
        newest_per_cat[c].append(_put(d, vec, c, 0.07, SOURCE))
        if len(newest_per_cat[c]) > M:
            newest_per_cat[c].pop(0)
    second_newest = d.group(2)
    for c in range(1, C + 1):
        got, want = second_newest[c - 1], newest_per_cat[c][-2]
        assert (got.age, got.category, got.temperature, got.domain) == \
            (want.age, want.category, want.temperature, want.domain)
        assert got.vector.tobytes() == want.vector.tobytes()


def test_is_warm_transitions():
    d = CategoricalDictionary(2, 2)
    assert not d.is_warm()
    d.enqueue(unit(3), 1, 0.07, SOURCE)
    d.enqueue(unit(3), 1, 0.07, SOURCE)
    d.enqueue(unit(3), 2, 0.07, SOURCE)
    assert not d.is_warm()  # one queue at M-1
    d.enqueue(unit(3), 2, 0.07, SOURCE)
    assert d.is_warm()


def test_warm_dictionary_is_category_balanced():
    rng = np.random.default_rng(3)
    C, M = 4, 7
    d = random_warm_dictionary(rng, C, M, 5)
    counts = {c: 0 for c in range(1, C + 1)}
    for key in d.keys():
        counts[key.category] += 1
    assert counts == {c: M for c in range(1, C + 1)}
    assert len(d) == C * M


def test_keys_are_immutable():
    d = CategoricalDictionary(1, 1)
    d.enqueue(unit(3), 1, 0.07, SOURCE)
    (key,) = d.group(1)
    with pytest.raises(Exception):
        key.vector[0] = 0.5
    with pytest.raises(Exception):
        key.temperature = 1.0


def test_enqueue_keeps_its_own_copy_and_returns_nothing():
    d = CategoricalDictionary(1, 1)
    vec = unit(3)
    assert d.enqueue(vec, 1, 0.07, SOURCE) is None
    vec[:] = unit(3, 1)  # the caller's array stays theirs to change
    np.testing.assert_array_equal(d.group(1)[0].vector, unit(3))


def test_snapshot_is_isolated():
    d = CategoricalDictionary(1, 2)
    d.enqueue(unit(3, 0), 1, 0.07, SOURCE)
    snap = d.snapshot()
    d.enqueue(unit(3, 1), 1, 0.07, TARGET)
    d.enqueue(unit(3, 2), 1, 0.07, TARGET)
    assert snap.queue_lengths() == [1]
    assert snap.group(1)[0].age == 0


def test_snapshot_is_isolated_both_ways():
    d = CategoricalDictionary(2, 2)
    d.enqueue(unit(3, 0), 1, 0.07, SOURCE)
    copy = d.snapshot()
    copy.enqueue(unit(3, 1), 2, 0.05, SOURCE)
    d.enqueue(unit(3, 2), 1, 0.07, TARGET)
    assert d.queue_lengths() == [2, 0] and copy.queue_lengths() == [1, 1]
    assert [k.age for k in d.keys()] == [0, 1] and [k.age for k in copy.keys()] == [0, 1]
    assert d.enqueued_by_domain != copy.enqueued_by_domain


def test_jsonl_dump_round_trips_fields():
    rng = np.random.default_rng(4)
    d = random_warm_dictionary(rng, 2, 3, 4)
    buf = io.StringIO()
    d.dump_jsonl(buf)
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(records) == 6
    by_age = {k.age: k for k in d.keys()}
    for rec in records:
        key = by_age[rec["age"]]
        assert rec["category"] == key.category
        assert rec["domain"] == key.domain
        assert rec["temperature"] == key.temperature
        np.testing.assert_array_equal(np.array(rec["vector"]), key.vector)


def _fields(key):
    return key.age, key.category, key.temperature, key.domain, key.vector.tobytes()


def _check_against_lists(d, model, C, M):
    lengths = [len(model[c]) for c in range(1, C + 1)]
    assert d.queue_lengths() == lengths
    assert len(d) == sum(lengths)
    assert d.is_warm() == all(n == M for n in lengths)
    assert [_fields(k) for k in d.keys()] == [
        _fields(k) for c in range(1, C + 1) for k in model[c]
    ]
    shortest = min(lengths)
    for m in range(1, shortest + 1):
        assert [_fields(k) for k in d.group(m)] == [_fields(model[c][-m]) for c in range(1, C + 1)]
    with pytest.raises(NotWarmError):
        d.group(shortest + 1)


@st.composite
def _enqueue_runs(draw):
    C, M = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ops = draw(st.lists(
        st.tuples(st.integers(1, C), st.floats(0.05, 0.2), st.sampled_from([SOURCE, TARGET])),
        max_size=40,
    ))
    return C, M, ops, draw(st.integers(0, len(ops)))


@settings(max_examples=150, deadline=None)
@given(_enqueue_runs())
def test_ring_buffer_matches_per_category_lists(run):
    # the model: one plain list per category, trimmed to the newest M keys
    C, M, ops, snap_at = run
    d = CategoricalDictionary(C, M)
    model = {c: [] for c in range(1, C + 1)}
    snap = None
    for age, (c, tau, domain) in enumerate(ops):
        if age == snap_at:
            snap, snap_model = d.snapshot(), {k: list(v) for k, v in model.items()}
        vec = unit_rows(np.random.default_rng(age), 1, 3)[0]
        key = _put(d, vec, c, tau, domain)
        assert _fields(key) == (age, c, tau, domain, vec.tobytes())
        model[c] = (model[c] + [key])[-M:]
        _check_against_lists(d, model, C, M)
        if snap is not None:
            _check_against_lists(snap, snap_model, C, M)


def _dump_by_keys(d: CategoricalDictionary) -> str:
    """One JSON record per key of keys(), rendered from its CategoricalKey."""
    return "".join(json.dumps({
        "category": key.category,
        "domain": key.domain,
        "age": key.age,
        "temperature": key.temperature,
        "vector": key.vector.tolist(),
    }) + "\n" for key in d.keys())


@pytest.mark.parametrize("writes", [0, 7, 23])  # empty; partly filled; wrapped past capacity
def test_dump_jsonl_writes_the_bytes_of_a_per_key_rendering(writes):
    rng = np.random.default_rng(writes)
    d = CategoricalDictionary(3, 4)
    categories = rng.permutation(np.arange(writes) % 3 + 1)  # 3, 2, 2 or 8, 8, 7 keys
    for vec, c in zip(unit_rows(rng, writes, 5), categories):
        d.enqueue(vec, int(c), float(rng.uniform(0.07, 0.14)),
                  SOURCE if rng.random() < 0.5 else TARGET)
    buf = io.StringIO()
    d.dump_jsonl(buf)
    assert buf.getvalue() == _dump_by_keys(d)
    assert len(buf.getvalue().splitlines()) == len(d)
    # numbers at the edges of their printed forms: a negative zero and
    # subnormal components, temperatures near both ends of the float range
    for c, tau in ((1, 1e-300), (3, 1e300)):
        d.enqueue(np.array([-0.0, 5e-324, -1.0, 2.5e-310, 0.0]), c, tau, TARGET)
    buf = io.StringIO()
    d.dump_jsonl(buf)
    assert buf.getvalue() == _dump_by_keys(d)
