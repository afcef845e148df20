"""Deterministic RNG derivation so every experiment is replayable.

`child_rng` is the one definition of a path's stream.  A trial loop takes
one generator per loop and hands it to every trial in order, so the trials
of a loop are consecutive draws of one stream.
"""

from __future__ import annotations

import numpy as np

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
