"""Bulk child streams against `child_rng`, the one definition of a stream."""

import itertools

import numpy as np
import pytest

from shatterlab import seeding
from shatterlab.errors import ShatterlabError
from shatterlab.seeding import child_rng, child_rngs

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
    n = 40
    got = [draws(rng) for rng in child_rngs(seed, *prefix, n=n)]
    assert got == [draws(child_rng(seed, *prefix, t)) for t in range(n)]


def test_a_run_one_past_the_chunk_size():
    n = seeding._CHUNK + 1
    for t, rng in enumerate(child_rngs(3, 1, n=n)):
        assert draws(rng) == draws(child_rng(3, 1, t)), t
    assert t == n - 1


@pytest.mark.parametrize("ts", [
    [0, 1, 2**32 - 2, 2**32 - 1],  # one uint32 word
    [2**32, 2**32 + 1, 2**40, 2**64 - 1],  # two words
])
def test_index_arrays_either_side_of_two_to_the_32(ts):
    for seed, prefix in ((0, ()), (TWO_WORD_SEED, (9,))):
        head = [w for v in (seed, *prefix) for w in seeding._words(v)]
        got = list(seeding._states(head, np.array(ts, dtype=np.uint64)))
        want = [child_rng(seed, *prefix, t).bit_generator.state["state"] for t in ts]
        assert got == [(s["state"], s["inc"]) for s in want]


def test_index_arrays_must_not_straddle_two_to_the_32():
    with pytest.raises(ValueError):
        next(seeding._states([0], np.array([2**32 - 1, 2**32], dtype=np.uint64)))


def test_derivation_is_lazy_per_chunk():
    rng = next(iter(child_rngs(4, n=10**12)))
    assert draws(rng) == draws(child_rng(4, 0))


def test_short_and_empty_runs():
    assert list(child_rngs(1, n=0)) == []
    assert [draws(r) for r in child_rngs(1, 2, n=1)] == [draws(child_rng(1, 2, 0))]


def test_each_generator_is_fresh_but_shares_one_bit_generator():
    rngs = list(itertools.islice(child_rngs(6, n=3), 3))
    assert len({id(r) for r in rngs}) == 3
    assert len({id(r.bit_generator) for r in rngs}) == 1


def test_self_check_raises_when_the_reference_moves(monkeypatch):
    real = seeding.child_rng
    monkeypatch.setattr(seeding, "child_rng", lambda seed, *path: real(seed + 1, *path))
    with pytest.raises(ShatterlabError, match="child_rng"):
        next(iter(child_rngs(1, 2, n=5)))
