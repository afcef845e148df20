"""Finite domains, real-valued concept classes, bin midpoints, and scalar utilities.

Everything downstream (learners, adversaries, samplers, reductions) works on
the types defined here.  All types are immutable after construction and all
operations are pure functions, so unrestricted parallel use is safe.  A
labeled example is a plain ``(x, y)`` pair: a domain index and a value in
[0, 1].

Conventions, fixed once for the whole package:

* interval balls around a point are open: ``B(r, y) = (y - r, y + r)``;
* function balls use strict inequality at every domain point;
* loss counts points with strictly ``|h(x) - c(x)| > r``.

Boundary ties are resolved by these rules everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainMismatch, NonIntegerReciprocal, OutOfRange

#: slack for "is 1/zeta an integer" checks; grid parameters are small rationals
_RECIP_TOL = 1e-9


def _choice_cdf(p) -> np.ndarray:
    """The normalized CDF that ``Generator.choice(n, size, p=p)`` searches.

    ``cdf.searchsorted(rng.random(size), side="right")`` then draws exactly
    the indices ``rng.choice(len(p), size, p=p)`` draws, and leaves the
    generator in the same state.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def _grid_order(value: float, name: str = "zeta") -> int:
    """Return n = 1/value, or raise if 1/value is not an integer."""
    if not 0.0 < value <= 1.0:
        raise NonIntegerReciprocal(f"{name}={value!r} must lie in (0, 1]")
    recip = 1.0 / value
    n = round(recip)
    if n < 1 or abs(recip - n) > _RECIP_TOL:
        raise NonIntegerReciprocal(f"1/{name} = {recip!r} is not an integer")
    return n


def _is_index(x, size: float) -> bool:
    """Whether x is an integer index in [0, size) and not a bool, which
    numpy reads as a mask: ``table[True]`` is not row 1."""
    return isinstance(x, (int, np.integer)) and type(x) is not bool and 0 <= x < size


@dataclass(frozen=True)
class Concept:
    """A function X -> [0,1], materialized as one value per domain point."""

    id: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise OutOfRange(f"concept {self.id} has value {v} outside [0,1]")


@dataclass(frozen=True)
class ConceptClass:
    """A nonempty, ordered list of concepts over a shared finite domain."""

    domain_size: int
    concepts: tuple[Concept, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "concepts", tuple(self.concepts))
        if self.domain_size < 1:
            raise OutOfRange("domain must have at least one point")
        if not self.concepts:
            raise OutOfRange("a concept class must be nonempty")
        ids = [c.id for c in self.concepts]
        if len(set(ids)) != len(ids):
            raise OutOfRange("concept ids must be distinct")
        for c in self.concepts:
            if len(c.values) != self.domain_size:
                raise DomainMismatch(
                    f"concept {c.id} has {len(c.values)} values, expected {self.domain_size}"
                )

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self):
        return iter(self.concepts)

    @cached_property
    def table(self) -> np.ndarray:
        """(n_concepts, domain_size) value matrix, read-only."""
        t = np.array([c.values for c in self.concepts], dtype=float)
        t.setflags(write=False)
        return t

    @cached_property
    def _row_of_id(self) -> dict[int, int]:
        return {c.id: row for row, c in enumerate(self.concepts)}

    def row_of(self, concept_id: int) -> int:
        try:
            return self._row_of_id[concept_id]
        except KeyError:
            raise OutOfRange(f"concept id {concept_id!r} is not in the class") from None

    def by_id(self, concept_id: int) -> Concept:
        return self.concepts[self.row_of(concept_id)]


def bin_midpoints(zeta: float) -> tuple[float, ...]:
    """Midpoints of the 1/zeta bins of [0,1], at odd multiples of zeta/2;
    requires 1/zeta to be an integer."""
    n = _grid_order(zeta)
    return tuple((2 * k + 1) / (2 * n) for k in range(n))


@dataclass(frozen=True)
class Distribution:
    """A probability distribution over the domain points."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        if not all(v >= 0 for v in self.p):
            raise OutOfRange("probabilities must be nonnegative")
        if not abs(sum(self.p) - 1.0) <= 1e-12:
            raise OutOfRange(f"probabilities sum to {sum(self.p)!r}, expected 1")

    @cached_property
    def cdf(self) -> np.ndarray:
        """The CDF that ``rng.choice(len(p), size, p=p)`` and `Draws.block` search."""
        return _choice_cdf(self.p)

    @staticmethod
    def uniform(n: int) -> "Distribution":
        return Distribution(tuple(1.0 / n for _ in range(n)))


def loss(h: Concept, c: Concept, r: float, d: Distribution) -> float:
    """Probability mass of {x : |h(x) - c(x)| > r} under d (strict inequality)."""
    if len(h.values) != len(c.values) or len(h.values) != len(d.p):
        raise DomainMismatch("loss requires h, c, and D over the same domain")
    if not r >= 0:
        raise OutOfRange("loss radius must be nonnegative")
    return float(
        sum(p for hv, cv, p in zip(h.values, c.values, d.p) if abs(hv - cv) > r)
    )


def binary_entropy(p: float) -> float:
    """Base-2 binary entropy with the continuity convention H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"binary_entropy needs p in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def round_to_grid(y: float, step: float) -> float:
    """Round y to the nearest bin midpoint of the step-cover; ties go lower."""
    if not 0.0 <= y <= 1.0:
        raise OutOfRange(f"round_to_grid needs y in [0,1], got {y}")
    n = _grid_order(step, "step")
    pos = y * n  # bin-unit coordinate; midpoints sit at k + 1/2
    k = math.floor(pos - 0.5)
    lo = max(k, 0)
    hi = min(k + 1, n - 1)
    mid_lo = (2 * lo + 1) / (2 * n)
    mid_hi = (2 * hi + 1) / (2 * n)
    # ties (equidistant up to float dust) go to the lower midpoint
    if abs(y - mid_hi) < abs(y - mid_lo) - 1e-12:
        return mid_hi
    return mid_lo


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _json_number(value, name: str, integer: bool = False):
    """A JSON number as read; a bool or a string raises TypeError, and an
    integer with a fractional part ValueError, where int() would truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if integer and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value) if integer else value


def class_from_json(text: str) -> ConceptClass:
    data = json.loads(text)
    return ConceptClass(
        domain_size=_json_number(data["domain_size"], "domain_size", integer=True),
        concepts=tuple(
            Concept(id=_json_number(c["id"], "id", integer=True),
                    values=tuple(_json_number(v, "a value") for v in c["values"]))
            for c in data["concepts"]
        ),
    )
