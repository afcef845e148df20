"""`child_rng`, the one definition of a stream, and `child_rngs`, its batch."""

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence, ISpawnableSeedSequence

from shatterlab.errors import OutOfRange
from shatterlab.seeding import _seed_words, _StateWords, child_rng, child_rngs

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


# one-, two-, three- and four-word seeds mixed in one batch
MIXED_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100 + 7, 5, TWO_WORD_SEED]
PATHS = [(), (6,), (0xE27, 3), (1, 2**33, 0), (7, 0, 2**40, 1), (1, 2, 3, 4, 2**64)]


@pytest.mark.parametrize("path", PATHS)
def test_batch_words_equal_seed_sequence(path):
    # path lengths 0-5: entropies of 1 to 11 words, so both mixing loops run,
    # and a batch holds several word counts at once
    words = _seed_words(MIXED_SEEDS, *path)
    assert words.dtype == np.uint64 and words.shape == (len(MIXED_SEEDS), 4)
    for seed, row in zip(MIXED_SEEDS, words):
        ref = np.random.SeedSequence((seed, *path)).generate_state(4, np.uint64)
        assert row.tolist() == ref.tolist()


@pytest.mark.parametrize("path", PATHS)
def test_batch_generators_equal_child_rng(path):
    got = child_rngs(MIXED_SEEDS, *path)
    assert len(got) == len(MIXED_SEEDS)
    for seed, rng in zip(MIXED_SEEDS, got):
        ref = child_rng(seed, *path)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert draws(rng) == draws(ref)


def test_empty_batch():
    assert _seed_words([], 6).shape == (0, 4)
    assert child_rngs([], 6) == []


@pytest.mark.parametrize("seeds, path", [([1, -1], ()), ([0, 2**64], (3, -2)), ([-5], (0xE27,))])
def test_negative_batch_entry_is_out_of_range(seeds, path, monkeypatch):
    # refused before any generator is built
    monkeypatch.setattr(np.random, "PCG64", None)
    with pytest.raises(OutOfRange, match="nonnegative"):
        child_rngs(seeds, *path)


def test_batched_seed_sequence_cannot_spawn():
    # it holds PCG64's 4 words, not a SeedSequence's pool: an ISeedSequence
    # (numpy >= 1.17) that is not spawnable, so Generator.spawn (numpy >= 1.25)
    # refuses a batched generator
    words = _seed_words([1], 6)[0]
    assert isinstance(_StateWords(words), ISeedSequence)
    assert not isinstance(_StateWords(words), ISpawnableSeedSequence)
    if hasattr(np.random.Generator, "spawn"):
        with pytest.raises(TypeError):
            child_rngs([1], 6)[0].spawn(1)
