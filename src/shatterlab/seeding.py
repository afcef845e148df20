"""Deterministic RNG derivation so every experiment is replayable.

`child_rng` is the one definition of a path's stream.  A trial loop takes
one generator per loop and hands it to every trial in order, so the trials
of a loop are consecutive draws of one stream.  `child_rngs` derives the
streams of many seeds on one path at once; each equals `child_rng`'s.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import OutOfRange


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an integer path.

    The same (seed, path) always yields the same stream, so trials, recursion
    branches, and parallel runs can each own a stream without coordination.
    The seed and every path element must be nonnegative.
    """
    if any(v < 0 for v in (seed, *path)):
        raise OutOfRange(f"seed and path must be nonnegative, got {(seed, *path)}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *path))))


# numpy's SeedSequence (numpy/random/bit_generator.pyx, unchanged since numpy
# 1.17): a pool of 4 uint32 words, mixed by hashmix and mix
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _words(v: int) -> list[int]:
    """v's little-endian uint32 words, as SeedSequence reads an int (0 is [0])."""
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of `count` successive hashmix calls as
    (count, 1) uint32 columns: call i xors with h_i and multiplies by h_(i+1),
    where h_0 = init and h_(i+1) = h_i * mult mod 2^32."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    col = np.array(h, dtype=np.uint32)[:, None]
    return col[:-1], col[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _SHIFT)


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, uint64) for each column e of the
    (length, n) uint32 `entropy`, as an (n, 4) C-contiguous uint64 array.

    Every column has the same word count, so every column takes the same
    sequence of hashmix constants: a step of numpy's loop over one entropy is
    one array operation over all of them.  uint32 arrays wrap as numpy's
    uint32 arithmetic does.
    """
    length, n = entropy.shape
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 16 + _POOL * max(length - _POOL, 0))
    # the pool starts as the first 4 entropy words, zeros past the entropy
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[: min(length, _POOL)] = entropy[:_POOL]
    pool = _hashmix(pool, xor[:_POOL], mult[:_POOL])
    step = _POOL
    # every pool word into every other, in numpy's (src, dst) order; word src
    # does not change while it is mixed into the other three
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[step : step + 3], mult[step : step + 3]))
        step += 3
    # entropy words past the pool, each into every pool word
    for src in range(_POOL, length):
        pool = _mix(pool, _hashmix(entropy[src], xor[step : step + _POOL], mult[step : step + _POOL]))
        step += _POOL
    # generate_state: 8 uint32 words from the pool, cycled, paired low-high
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


def _seed_words(seeds: Iterable[int], *path: int) -> np.ndarray:
    """The (n, 4) uint64 words SeedSequence((seed, *path)).generate_state(4,
    uint64) gives, one row per seed.  Raises OutOfRange on a negative seed or
    path element."""
    seeds = [operator.index(s) for s in seeds]
    path = tuple(operator.index(p) for p in path)
    negative = [v for v in (*seeds, *path) if v < 0]
    if negative:
        raise OutOfRange(f"seed and path must be nonnegative, got {negative[0]}")
    tail = [w for p in path for w in _words(p)]
    entropies = [_words(s) + tail for s in seeds]
    # the mixing steps depend on the word count, so derive each count apart
    by_length: dict[int, list[int]] = {}
    for i, e in enumerate(entropies):
        by_length.setdefault(len(e), []).append(i)
    out = np.empty((len(seeds), 4), dtype=np.uint64)
    for rows in by_length.values():
        out[rows] = _state_words(np.array([entropies[i] for i in rows], dtype=np.uint32).T)
    return out


class _StateWords(ISeedSequence):
    """The words a SeedSequence would give PCG64, derived in a batch.

    PCG64 asks its seed sequence once, for generate_state(4, uint64), and
    reads the returned array's data pointer: `words` is a C-contiguous uint64
    array of length 4.  It cannot spawn.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("batch-derived words serve generate_state(4, uint64) only")
        return self.words


def child_rngs(seeds: Iterable[int], *path: int) -> list[np.random.Generator]:
    """[child_rng(seed, *path) for seed in seeds], state for state.

    The seed-sequence mixing runs once per word count over all the seeds: a
    batch costs about 70 µs plus 3 µs per generator, against 12-20 µs per
    child_rng call, so a single stream is cheaper from child_rng.  Raises
    OutOfRange on a negative seed or path element before building any
    generator.
    """
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in _seed_words(seeds, *path)]
