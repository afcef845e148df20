"""Oracles and paper formulas that only the tests read.

Each is an independent cross-check or a stated bound that no experiment
kind computes: a Littlestone-dimension recursion that shares no code with
sfat, the worst case of every adaptive adversary against the online
learner, two-state distinguishability and Nayak's entropy inequality, the
depolarizing-channel ceiling, the gentle shadow-estimation sample count,
and the good-hypothesis set of a harvested collection.  `crafted_rng` builds
a PCG64 generator that outputs a chosen raw word at a chosen index, and
`in_step` checks that a `Draws` cursor is where a generator's own draws are.
"""

from __future__ import annotations

import math

import numpy as np

from shatterlab.classes import generate_class
from shatterlab.concepts import (
    Concept,
    ConceptClass,
    Distribution,
    binary_entropy,
    loss,
    round_to_grid,
)
from shatterlab.dimensions import MAX_CONCEPTS, sfat
from shatterlab.errors import DimMismatch, OutOfRange, ShatterlabError, TooLarge
from shatterlab.online import RsoaState
from shatterlab.privacy import HypothesisCollection
from shatterlab.quantum import DensityMatrix, von_neumann_entropy
from shatterlab.seeding import child_rng


class NotBoolean(ShatterlabError, ValueError):
    """A Boolean-only oracle was given a class with non-{0,1} values."""


def ldim_oracle(cls: ConceptClass) -> int:
    """Littlestone dimension of a {0,1}-valued class, by direct recursion.

    Splits on exact label values with no margins; the independent cross-check
    for sfat on Boolean classes.
    """
    table = cls.table
    if not ((table == 0.0) | (table == 1.0)).all():
        raise NotBoolean("ldim_oracle needs all concept values in {0, 1}")
    n = len(cls)
    if n > MAX_CONCEPTS:
        raise TooLarge(
            f"ldim is capped at {MAX_CONCEPTS} concepts to bound its cost "
            f"(not by its masks), got {n}"
        )
    zero_masks = []
    one_masks = []
    for x in range(cls.domain_size):
        zm = om = 0
        for r in range(n):
            if table[r, x] == 0.0:
                zm |= 1 << r
            else:
                om |= 1 << r
        zero_masks.append(zm)
        one_masks.append(om)

    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        best = 0
        if mask.bit_count() > 1:
            for x in range(cls.domain_size):
                v0, v1 = mask & zero_masks[x], mask & one_masks[x]
                if v0 and v1:
                    best = max(best, 1 + min(rec(v0), rec(v1)))
        memo[mask] = best
        return best

    return rec((1 << n) - 1)


def worst_case_mistakes(state, target_row):
    """The most 5*zeta-mistakes any adaptive adversary forces on the learner
    when the target is row `target_row`, or math.inf when it forces them
    without end.

    Each round the adversary picks a point x and any feedback f in [0, 1] with
    |f - c(x)| < zeta.  Feedbacks that leave the same surviving mask are one
    choice, and the breakpoints c'(x) +- zeta bound the groups, so trying each
    breakpoint and each gap between two of them covers every group.  The
    search is memoized over masks; it reads only `state.predict` and writes
    its own open-ball update.
    """
    table = state.cls.table.tolist()
    zeta = state.zeta
    rows = range(len(table))
    c = table[target_row]
    worst = {}

    def survivors(mask, x, f):
        return sum(1 << r for r in rows if mask >> r & 1 and abs(table[r][x] - f) < zeta)

    def masks_after(mask, x):
        lo, hi = max(0.0, c[x] - zeta), min(1.0, c[x] + zeta)
        cuts = sorted({lo, hi} | {
            b for r in rows if mask >> r & 1
            for b in (table[r][x] - zeta, table[r][x] + zeta) if lo < b < hi
        })
        fs = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        return {survivors(mask, x, f) for f in fs if abs(f - c[x]) < zeta}

    def value(mask):
        if mask not in worst:
            best = 0
            for x in range(len(c)):
                mistake = abs(state.predict(mask, x) - c[x]) > 5 * zeta
                for nxt in masks_after(mask, x):
                    if nxt != mask:
                        best = max(best, mistake + value(nxt))
                    elif mistake:  # the adversary repeats this round forever
                        best = math.inf
            worst[mask] = best
        return worst[mask]

    return value(state.cache.full_mask())


def worst_case_updates(state, target_row):
    """The most updates mistake-only play forces on the learner when the
    target is row `target_row`, or math.inf when it forces them without end.

    Feedback is deterministic, c(x) rounded to the zeta grid, and comes only
    on rounds with |prediction - c(x)| > 5*zeta, so the adversary picks only
    the points; a round without feedback changes nothing.  The search is
    memoized over masks; it reads only `state.predict` and writes its own
    open-ball update.
    """
    table = state.cls.table.tolist()
    zeta = state.zeta
    rows = range(len(table))
    c = table[target_row]
    worst = {}

    def value(mask):
        if mask not in worst:
            best = 0
            for x in range(len(c)):
                if abs(state.predict(mask, x) - c[x]) > 5 * zeta:
                    f = round_to_grid(c[x], zeta)
                    nxt = sum(1 << r for r in rows if mask >> r & 1 and abs(table[r][x] - f) < zeta)
                    best = max(best, math.inf if nxt == mask else 1 + value(nxt))
            worst[mask] = best
        return worst[mask]

    return value(state.cache.full_mask())


def sweep_classes(zeta, classes=40):
    """(sfat(2*zeta), learner state) of generated classes with 1-4 points and
    2-10 concepts."""
    rng = np.random.default_rng(7)
    for i in range(classes):
        nx, nc = int(rng.integers(1, 5)), int(rng.integers(2, 11))
        cls = generate_class(nx, nc, zeta, seed=i)
        yield sfat(cls, 2 * zeta).dimension, RsoaState(cls, zeta)


def worst_case_sweep(zeta):
    """(classes whose worst case exceeds sfat(2*zeta), classes with a bound of
    at least 1, those among them whose worst case reaches it), every target."""
    violations = with_bound = reached = 0
    for bound, state in sweep_classes(zeta):
        worst = max(worst_case_mistakes(state, row) for row in range(len(state.cls)))
        violations += worst > bound
        with_bound += bound >= 1
        reached += bound >= 1 and worst == bound
    return violations, with_bound, reached


def worst_case_updates_sweep(epsilon):
    """(targets whose worst case exceeds sfat(2*epsilon/5), targets whose
    worst case reaches a bound of at least 1, targets) under mistake-only play
    at zeta = epsilon/5."""
    violations = reached = targets = 0
    for bound, state in sweep_classes(epsilon / 5):
        for row in range(len(state.cls)):
            worst = worst_case_updates(state, row)
            violations += worst > bound
            reached += 1 <= bound == worst
            targets += 1
    return violations, reached, targets


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if a.dim != b.dim:
        raise DimMismatch("trace distance needs equal dimensions")
    eig = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(eig).sum())


def helstrom_probability(sigma0: DensityMatrix, sigma1: DensityMatrix) -> float:
    """Optimal two-state distinguishing success 1/2 + trace distance / 2."""
    return 0.5 + 0.5 * trace_distance(sigma0, sigma1)


def nayak_inequality_check(sigma0: DensityMatrix, sigma1: DensityMatrix) -> bool:
    """S(mix) >= avg entropy + (1 - H(p)) with p the Helstrom optimum."""
    if sigma0.dim != sigma1.dim:
        raise DimMismatch("the two states must share a dimension")
    p = helstrom_probability(sigma0, sigma1)
    mix = 0.5 * (sigma0.matrix + sigma1.matrix)
    lhs = von_neumann_entropy(mix)
    rhs = 0.5 * (von_neumann_entropy(sigma0) + von_neumann_entropy(sigma1)) + (
        1.0 - binary_entropy(p)
    )
    return lhs >= rhs - 1e-9


def depolarizing_capacity_bound(d: int, lam: float) -> float:
    """log2(d) minus the minimal output entropy of the depolarizing channel."""
    if d < 2:
        raise OutOfRange(f"dimension must be at least 2, got {d}")
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"lambda must lie in [0, 1], got {lam}")
    top = lam + (1.0 - lam) / d
    rest = (1.0 - lam) / d
    s_min = 0.0
    if top > 0:
        s_min -= top * math.log2(top)
    if rest > 0:
        s_min -= (d - 1) * rest * math.log2(rest)
    return math.log2(d) - s_min


def gentle_sample_complexity(
    sfat_dim: int, m: int, epsilon: float, alpha: float, delta: float
) -> int:
    """Copies needed for gentle shadow estimation of m measurements.

    ceil(C * sfat^2 * log2(m)^2 * ln(1/delta) / (eps^2 * min(alpha^2, eps^2)))
    with the declared constant C = 1.
    """
    if sfat_dim < 1:
        raise OutOfRange(f"sfat_dim must be positive, got {sfat_dim}")
    if m < 2:
        raise OutOfRange(f"m must be at least 2, got {m}")
    if not 0 < epsilon <= 1 or not 0 < alpha <= 1:
        raise OutOfRange("epsilon and alpha must lie in (0, 1]")
    if not 0 < delta < 1:
        raise OutOfRange(f"delta must lie in (0, 1), got {delta}")
    num = (sfat_dim**2) * (math.log2(m) ** 2) * math.log(1.0 / delta)
    den = epsilon**2 * min(alpha**2, epsilon**2)
    return math.ceil(num / den)


def good_hypotheses(
    collection: HypothesisCollection,
    target: Concept,
    dist: Distribution,
    zeta: float,
    alpha: float,
) -> frozenset[int]:
    """Ids of hypotheses with Loss_D(h, target, zeta) <= alpha."""
    return frozenset(
        h.id for h in collection.hypotheses if loss(h, target, zeta, dist) <= alpha
    )


def crafted_rng(word, index):
    """A generator whose raw word `index` is `word`.  PCG64 steps its 128-bit
    LCG state, then outputs rotr(hi ^ lo, hi >> 58) of it, so a stepped state
    with lo = hi ^ rotl(word, hi >> 58) outputs `word` for any hi; stepping the
    LCG back index + 1 times gives the state to start from."""
    rng = child_rng(0, 0)
    st = rng.bit_generator.state
    inc, hi = st["state"]["inc"], st["state"]["state"] >> 64
    rotl = (word << (hi >> 58) | word >> (64 - (hi >> 58))) & (2**64 - 1)
    state, back = hi << 64 | (hi ^ rotl), pow(0x2360ED051FC65DA44385DF649FCCF645, -1, 2**128)
    for _ in range(index + 1):
        state = (state - inc) * back % 2**128
    rng.bit_generator.state = {**st, "state": {"state": state, "inc": inc}, "has_uint32": 0}
    return rng


#: a 1024-point uniform distribution, whose one-point block reads a whole word
_STEP = Distribution.uniform(1024)


def in_step(draws, rng) -> bool:
    """Whether the `Draws` cursor and the generator are at the same place in
    one stream: the cursor's next two ``below(2**32)`` and one-point block
    against two ``rng.integers(2**32)`` and an ``rng.choice``.  They read a
    buffered half if there is one, a fresh word's half and a whole word, and
    move both on alike."""
    got = (draws.below(2**32), draws.below(2**32), draws.block(_STEP.cdf, 1))
    want = (int(rng.integers(2**32)), int(rng.integers(2**32)),
            rng.choice(len(_STEP.p), size=1, p=np.array(_STEP.p)).tolist())
    return got == want
