"""Deterministic RNG derivation so every experiment is replayable.

`child_rng` is the one definition of a path's stream.  `child_rngs` gives
the same streams for a run of trial indices, t = 0, 1, ..., n - 1, without
building a `SeedSequence` and a `PCG64` per trial: it repeats numpy's
`SeedSequence` hash and PCG64's seeding step on whole arrays of t, and
checks its first state against `child_rng` on every call.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ShatterlabError


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an integer path.

    The same (seed, path) always yields the same stream, so trials, recursion
    branches, and parallel runs can each own a stream without coordination.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *path))))


#: trial indices derived per vectorized pass; memory stays flat at any n
_CHUNK = 1024

# numpy's SeedSequence constants (pool of four uint32 words) and PCG64's
# 128-bit LCG multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = (1 << 32) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from one nonnegative integer."""
    value = int(value)
    out = [value & _M32]
    value >>= 32
    while value:
        out.append(value & _M32)
        value >>= 32
    return out


def _hash_consts(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """(xor, multiply) constants of successive hash steps, as in numpy."""
    while True:
        nxt = const * mult & _M32
        yield const, nxt
        const = nxt


def _hash(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    value = (value ^ np.uint32(xor)) * np.uint32(mult)  # uint32 arrays wrap
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _states(head: list[int], ts: np.ndarray) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of `child_rng(seed, *prefix, t)` for each t in `ts`.

    `head` holds the uint32 words of (seed, *prefix); `ts` is a uint64 array
    whose entries all have the same number of uint32 words (all below 2^32,
    or all in [2^32, 2^64)).
    """
    two = bool(ts[-1] >> np.uint64(32))
    if two != bool(ts[0] >> np.uint64(32)):
        raise ValueError("trial indices must all lie on one side of 2^32")
    tail = [ts & np.uint64(_M32)]
    if two:
        tail.append(ts >> np.uint64(32))
    entropy = [np.array([w], np.uint32) for w in head] + [t.astype(np.uint32) for t in tail]
    # SeedSequence.mix_entropy: fill the pool, mix it, fold in the rest
    a = _hash_consts(_INIT_A, _MULT_A)
    zero = np.zeros(1, np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zero, *next(a)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(a)))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, *next(a)))
    # SeedSequence.generate_state(4, uint64): eight words, paired little-endian
    b = _hash_consts(_INIT_B, _MULT_B)
    out = [
        np.broadcast_to(_hash(pool[i % _POOL], *next(b)), ts.shape).astype(np.uint64)
        for i in range(2 * _POOL)
    ]
    w = [(out[2 * i] | out[2 * i + 1] << np.uint64(32)).tolist() for i in range(_POOL)]
    # PCG64's setseq seeding: state 0, inc 2*initseq+1, step, add, step
    for s_hi, s_lo, q_hi, q_lo in zip(*w):
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _M128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc


def child_rngs(seed: int, *prefix: int, n: int) -> Iterator[np.random.Generator]:
    """Yield, for t = 0 .. n-1, a generator with the stream of
    `child_rng(seed, *prefix, t)`.

    The PCG64 states are derived in chunks of `_CHUNK` trial indices, lazily,
    so only the chunk in use is held.  All yielded generators share one
    bit generator: each is valid only until the next one is drawn.  The
    first derived state is checked against `child_rng(seed, *prefix, 0)`,
    and a mismatch raises `ShatterlabError`.  Trial indices must stay below
    2^64.
    """
    bg = child_rng(seed, *prefix, 0).bit_generator
    ref = bg.state["state"]
    expected = (ref["state"], ref["inc"])
    head = [w for v in (seed, *prefix) for w in _words(v)]
    start = 0
    while start < n:
        stop = min(start + _CHUNK, n)
        if start < 1 << 32 < stop:  # from t = 2^32 on, t is two uint32 words
            stop = 1 << 32
        states = _states(head, np.arange(start, stop, dtype=np.uint64))
        for t, (state, inc) in enumerate(states, start):
            if t == 0 and (state, inc) != expected:
                raise ShatterlabError(
                    "bulk child streams disagree with child_rng; numpy's seeding has changed"
                )
            bg.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield np.random.Generator(bg)
        start = stop
