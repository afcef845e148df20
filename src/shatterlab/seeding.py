"""Deterministic RNG derivation so every experiment is replayable.

`child_rng` is the one definition of a path's stream.  A trial loop takes
one generator per loop and hands it to every trial in order, so the trials
of a loop are consecutive draws of one stream.  `Draws` is a cursor that
takes over a generator's stream and reads its raw words ahead.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange

#: raw words a `Draws` cursor fetches at a time
CHUNK = 256


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an integer path.

    The same (seed, path) always yields the same stream, so trials, recursion
    branches, and parallel runs can each own a stream without coordination.
    The seed and every path element must be nonnegative.
    """
    if any(v < 0 for v in (seed, *path)):
        raise OutOfRange(f"seed and path must be nonnegative, got {(seed, *path)}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *path))))


class Draws:
    """A read-ahead cursor over a PCG64 generator's raw 64-bit words: `block`
    and `below` draw what ``rng.choice(len(p), m, p=p)`` and ``rng.integers(n)``
    draw from a generator with no buffered half, from words fetched a chunk at
    a time (or a block's shortfall, when longer).  It reads from the
    generator's next word and owns the stream from then on: the generator runs
    ahead of the cursor, so draw from one or the other, not both."""

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        # the buffered 32-bit half of a word whose low half was read
        self._has = self._half = 0
        # the window, its next word, and its words as draws from _cdf
        self._words, self._at = np.zeros(0, np.uint64), 0
        self._cdf = self._points = None

    def _ahead(self, n: int) -> None:
        words = self._raw(max(n - self._words.size + self._at, CHUNK))
        self._words = np.concatenate((self._words[self._at:], words))
        self._at, self._cdf = 0, None

    def block(self, cdf: np.ndarray, m: int) -> list[int]:
        """The next m words w as ``cdf.searchsorted((w >> 11) * 2^-53, "right")``."""
        if self._at + m > self._words.size:
            self._ahead(m)
        if cdf is not self._cdf:
            uniforms = (self._words >> np.uint64(11)) * 2.0**-53
            self._cdf, self._points = cdf, cdf.searchsorted(uniforms, "right").tolist()
        self._at += m
        return self._points[self._at - m:self._at]

    def below(self, n: int) -> int:
        """``integers(n)`` for 1 <= n <= 2^32 (nothing read at n = 1): Lemire's
        method on 32-bit halves h, h*n >> 32, rejecting h when (h*n) mod 2^32 <
        2^32 mod n; a fresh word serves its low half first, then its high half."""
        while n > 1:
            if self._has:
                h = self._half
            else:
                if self._at == self._words.size:
                    self._ahead(1)
                w, self._at = int(self._words[self._at]), self._at + 1
                h, self._half = w & 0xFFFFFFFF, w >> 32
            self._has ^= 1
            if h * n & 0xFFFFFFFF >= 2**32 % n:
                return h * n >> 32
        return 0
