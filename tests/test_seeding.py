"""Named child streams: deterministic, distinct, and validated."""

import numpy as np
import pytest

from caco.errors import ContractError, ParameterError
from caco.seeding import STREAM_IDS, child_rng, child_seed


def test_child_rng_deterministic_per_name():
    a = child_rng(7, "source_batches").normal(size=4)
    b = child_rng(7, "source_batches").normal(size=4)
    np.testing.assert_array_equal(a, b)


def test_child_streams_distinct():
    draws = {name: child_rng(7, name).normal(size=4).tobytes() for name in STREAM_IDS}
    assert len(set(draws.values())) == len(STREAM_IDS)


def test_child_seed_depends_on_root_and_name():
    assert child_seed(1, "source_data") != child_seed(2, "source_data")
    assert child_seed(1, "source_data") != child_seed(1, "target_data")
    assert child_seed(5, "encoder_init") == child_seed(5, "encoder_init")


def test_unknown_stream_rejected():
    with pytest.raises(ContractError):
        child_rng(0, "bogus")
    with pytest.raises(ContractError):
        child_seed(0, "bogus")


def test_negative_root_seed_rejected():
    # by name, before numpy's own bare "expected non-negative integer"
    with pytest.raises(ParameterError, match="root seed"):
        child_rng(-1, "source_batches")
    with pytest.raises(ParameterError, match="root seed"):
        child_seed(-3, "source_data")


@pytest.mark.parametrize("root_seed", [1.5, 1.0, True])
def test_non_integer_root_seed_rejected(root_seed):
    # once truncated by int(), so that 1.5, 1.0 and True all drew seed 1's streams
    with pytest.raises(ParameterError, match="root seed"):
        child_rng(root_seed, "source_batches")
    with pytest.raises(ParameterError, match="root seed"):
        child_seed(root_seed, "source_data")
