"""`child_rng`, the one definition of a stream."""

import numpy as np
import pytest

from shatterlab.errors import OutOfRange
from shatterlab.seeding import child_rng

TWO_WORD_SEED = 2**40 + 3


def draws(rng):
    """The first 100 draws of each method the library's learners use."""
    return (
        rng.random(100).tolist(),
        rng.integers(0, 1000, size=100).tolist(),
        rng.normal(size=100).tolist(),
        rng.choice(7, size=100, p=[0.3, 0.1, 0.1, 0.2, 0.05, 0.05, 0.2]).tolist(),
    )


@pytest.mark.parametrize("seed", [0, TWO_WORD_SEED])
@pytest.mark.parametrize("prefix", [(), (5,), (1, 2**33)])
def test_streams_equal_child_rng(seed, prefix):
    # the stream of a path is numpy's SeedSequence over (seed, *path) feeding
    # PCG64, for one- and two-word seeds and path elements alike
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *prefix])))
    assert draws(child_rng(seed, *prefix)) == draws(ref)


@pytest.mark.parametrize("seed, path", [(-1, ()), (0, (-1,)), (3, (1, -2))])
def test_negative_seed_or_path_is_out_of_range(seed, path):
    with pytest.raises(OutOfRange, match="nonnegative"):
        child_rng(seed, *path)
