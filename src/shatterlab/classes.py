"""Bundled micro concept classes used by the CLI and the experiment suite."""

from __future__ import annotations

from itertools import product

import numpy as np

from .concepts import Concept, ConceptClass, Distribution, _grid_order, bin_midpoints
from .errors import ConfigError, TooLarge
from .seeding import child_rng


def constants(values: list[float]) -> ConceptClass:
    """One constant concept per value, on a single-point domain."""
    return ConceptClass(1, tuple(Concept(i, (v,)) for i, v in enumerate(values)))


def four_constants() -> ConceptClass:
    """Constants {0, 1/3, 2/3, 1}: sfat = 2 at margin 1/6."""
    return constants([0.0, 1 / 3, 2 / 3, 1.0])


def two_constants(lo: float = 0.0, hi: float = 1.0) -> ConceptClass:
    return constants([lo, hi])


def boolean_cube(k: int) -> ConceptClass:
    """All 2^k Boolean functions on k points: Littlestone dimension k."""
    if k > 6:
        raise TooLarge("boolean_cube supports at most 6 points (64 concepts)")
    return ConceptClass(
        k,
        tuple(
            Concept(i, tuple(float(b) for b in bits))
            for i, bits in enumerate(product((0, 1), repeat=k))
        ),
    )


def ext_cost_class() -> tuple[ConceptClass, Distribution, float, int]:
    """Class, distribution, zeta, and block size for draw-cost experiments.

    Tuned so the curated-sample loop succeeds often at levels 1 and 2: the
    surviving-set outcomes of a block are balanced across four hypotheses that
    pairwise differ by more than 11*zeta somewhere, and the injected-midpoint
    windows around the 0.1 and 0.25 values keep the post-injection sets
    diverse rather than collapsing to empty.
    """
    cls = ConceptClass(
        3,
        (
            Concept(0, (0.1, 0.1, 0.1)),
            Concept(1, (0.9, 0.1, 0.1)),
            Concept(2, (0.1, 0.9, 0.1)),
            Concept(3, (0.25, 0.1, 0.1)),
        ),
    )
    return cls, Distribution((0.25, 0.25, 0.5)), 1 / 32, 2


BUNDLED = {
    "four_constants": four_constants,
    "two_constants": two_constants,
    "boolean_cube_3": lambda: boolean_cube(3),
}


def generate_class(
    domain_size: int,
    n_concepts: int,
    zeta: float,
    seed: int,
    boolean: bool = False,
) -> ConceptClass:
    """Reproducible random class; values are drawn from the zeta/5 grid.

    The grid keeps every generated value strictly inside (0, 1), so open-ball
    updates and super-bin membership behave exactly as in the analysis.
    """
    if domain_size < 1 or domain_size > 8:
        raise TooLarge(f"domain_size must be in 1..8, got {domain_size}")
    if n_concepts < 1 or n_concepts > 64:
        raise TooLarge(f"n_concepts must be in 1..64, got {n_concepts}")
    rng = child_rng(seed, 0xC1A55)
    if boolean:
        values = rng.integers(0, 2, size=(n_concepts, domain_size)).astype(float)
    else:
        _grid_order(zeta / 5.0, "zeta/5")  # names the generator's grid in the error
        mids = np.array(bin_midpoints(zeta / 5.0))
        values = mids[rng.integers(0, len(mids), size=(n_concepts, domain_size))]
    return ConceptClass(
        domain_size,
        tuple(Concept(i, tuple(row)) for i, row in enumerate(values.tolist())),
    )


def bundled_class(name: str) -> ConceptClass:
    try:
        return BUNDLED[name]()
    except KeyError:
        raise ConfigError(f"unknown bundled class {name!r}; options: {sorted(BUNDLED)}")
