"""Differentially private selection over finite hypothesis collections.

The private learner is the exponential mechanism: score each hypothesis by
the number of sample points it misses by more than zeta, and sample with
probability proportional to exp(-eps * misses / 2).  A neighboring sample
changes any hypothesis's miss count by at most one, which gives (eps, 0)
differential privacy.

The indistinguishability tester is black-box and empirical: it runs a learner
many times on two neighboring samples and checks both directions of the
freq(E) <= e^eps freq'(E) + delta relation, per exact-output event, with
binomial confidence slack.

The representation builder harvests hypotheses by replaying a private learner
on constant-labelled samples for every label on the zeta/5 grid; with the
right repetition count the harvested collection covers the good-hypothesis
set except with probability 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .concepts import (
    Concept,
    Distribution,
    DomainPoint,
    LabeledExample,
    _choice_cdf,
    cover_new,
    loss,
)
from .errors import NotNeighbors, OutOfRange, TooLarge
from .seeding import child_rng

Sample = Sequence[LabeledExample]
#: A learner maps a sample and a generator to a hypothesis.  A trial loop
#: passes one generator to all its calls, so each trial continues the stream.
Learner = Callable[[Sample, np.random.Generator], Concept]


@dataclass(frozen=True)
class HypothesisCollection:
    hypotheses: tuple[Concept, ...]
    provenance: str

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise OutOfRange("a hypothesis collection must be nonempty")
        n = len(self.hypotheses[0].values)
        for h in self.hypotheses:
            if len(h.values) != n:
                raise OutOfRange("hypotheses must share one domain")
        # one-entry memo of the exponential mechanism, (key, cdf), swapped
        # whole so that no reader pairs one sample's key with another's CDF
        object.__setattr__(self, "_mechanism_memo", None)

    def __len__(self) -> int:
        return len(self.hypotheses)


def discretize_hypotheses(domain_size: int, zeta: float) -> HypothesisCollection:
    """All functions from the domain into the zeta-grid bin midpoints."""
    mids = cover_new(zeta).bin_midpoints
    count = len(mids) ** domain_size
    if count > 10**6:
        raise TooLarge(f"discretized class would hold {count} hypotheses")
    hyps = tuple(
        Concept(i, vals) for i, vals in enumerate(product(mids, repeat=domain_size))
    )
    return HypothesisCollection(hypotheses=hyps, provenance="discretized")


def empirical_misses(h: Concept, sample: Sample, zeta: float) -> int:
    """Sample points where h is off by more than zeta (strict)."""
    return sum(1 for ex in sample if abs(h.values[ex.x.index] - ex.y) > zeta)


def exponential_weights(
    collection: HypothesisCollection, sample: Sample, epsilon_priv: float, zeta: float
) -> np.ndarray:
    """Normalized exponential-mechanism weights exp(-eps * misses / 2)."""
    scores = np.array(
        [-0.5 * epsilon_priv * empirical_misses(h, sample, zeta) for h in collection.hypotheses]
    )
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


def generic_private_learner(
    collection: HypothesisCollection,
    sample: Sample,
    epsilon_priv: float,
    zeta: float,
    rng: np.random.Generator,
) -> Concept:
    """Select a hypothesis via the exponential mechanism; (eps, 0)-DP."""
    if not sample:
        raise OutOfRange("the private learner needs a nonempty sample")
    if not epsilon_priv > 0:
        raise OutOfRange(f"epsilon_priv must be positive, got {epsilon_priv}")
    # the weights depend only on (sample, eps, zeta): dp_test and the
    # harvester run one sample many times in a row, so keep the last CDF
    key = (tuple(sample), epsilon_priv, zeta)
    memo = collection._mechanism_memo
    if memo is None or memo[0] != key:
        memo = (key, _choice_cdf(exponential_weights(collection, sample, epsilon_priv, zeta)))
        object.__setattr__(collection, "_mechanism_memo", memo)
    # the same index rng.choice(len(w), p=w) draws
    idx = int(memo[1].searchsorted(rng.random(), side="right"))
    return collection.hypotheses[idx]


def generic_learner_sample_size(h_count: int, alpha: float, epsilon_priv: float) -> int:
    """Sample size C log|H| / (alpha eps) with the declared constant C = 8."""
    if h_count < 1 or alpha <= 0 or epsilon_priv <= 0:
        raise OutOfRange("need h_count >= 1 and positive alpha, epsilon")
    return max(1, math.ceil(8.0 * math.log(h_count) / (alpha * epsilon_priv)))


def check_neighbors(s: Sample, s_prime: Sample) -> int:
    """Index where the samples differ; raises unless exactly one exists."""
    if len(s) != len(s_prime):
        raise NotNeighbors("neighboring samples must have equal length")
    diffs = [
        i
        for i, (a, b) in enumerate(zip(s, s_prime))
        if a.x.index != b.x.index or a.y != b.y
    ]
    if len(diffs) != 1:
        raise NotNeighbors(f"samples differ in {len(diffs)} positions, need exactly 1")
    return diffs[0]


@dataclass(frozen=True)
class EventCheck:
    event: int  # hypothesis id
    freq_s: float
    freq_s_prime: float
    slack: float
    forward_margin: float  # e^eps * freq' + delta + slack - freq
    backward_margin: float


@dataclass(frozen=True)
class DpTestReport:
    epsilon: float
    delta: float
    trials: int
    confidence_z: float
    events: tuple[EventCheck, ...]
    max_violation: float
    verdict: bool


#: two-sided 99% normal quantile for the per-event binomial slack
_Z99 = 2.576


def dp_test(
    learner: Learner,
    s: Sample,
    s_prime: Sample,
    epsilon: float,
    delta: float,
    trials: int,
    seed: int,
) -> DpTestReport:
    """Empirical two-sided (eps, delta)-indistinguishability check.

    Events are exact output identities over the finite hypothesis space.  Each
    direction gets binomial slack at 99% confidence; the verdict holds when no
    event violates either direction beyond its slack.
    """
    check_neighbors(s, s_prime)
    if trials < 10_000:
        raise OutOfRange("the indistinguishability test needs at least 10^4 trials")
    if not 0 <= delta < 1:
        raise OutOfRange(f"delta must lie in [0, 1), got {delta!r}")
    try:
        grow = math.exp(epsilon)
    except OverflowError:
        grow = math.inf
    if not math.isfinite(grow):
        raise OutOfRange(f"epsilon={epsilon!r} leaves e^epsilon non-finite")
    counts: dict[int, list[int]] = {}
    for side, sample in enumerate((s, s_prime)):
        rng = child_rng(seed, side)
        for _ in range(trials):
            out = learner(sample, rng)
            counts.setdefault(out.id, [0, 0])[side] += 1
    events = []
    worst = -math.inf
    for hid, (a, b) in sorted(counts.items()):
        p, q = a / trials, b / trials
        slack = _Z99 * (
            math.sqrt(p * (1 - p) / trials) + grow * math.sqrt(q * (1 - q) / trials)
        ) + (1 + grow) / trials
        fwd = grow * q + delta + slack - p
        bwd = grow * p + delta + slack - q
        events.append(
            EventCheck(
                event=hid,
                freq_s=p,
                freq_s_prime=q,
                slack=slack,
                forward_margin=fwd,
                backward_margin=bwd,
            )
        )
        worst = max(worst, -min(fwd, bwd))
    return DpTestReport(
        epsilon=epsilon,
        delta=delta,
        trials=trials,
        confidence_z=_Z99,
        events=tuple(events),
        max_violation=worst,
        verdict=worst <= 0,
    )


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


def representation_repetitions(alpha: float, epsilon_priv: float, m: int) -> int:
    """Replays per grid label: ceil(4 ln 4 * e^(8 alpha eps m))."""
    return math.ceil(4.0 * math.log(4.0) * math.exp(8.0 * alpha * epsilon_priv * m))


def build_probabilistic_representation(
    dp_learner: Learner,
    zeta: float,
    alpha: float,
    epsilon_priv: float,
    m: int,
    seed: int,
) -> HypothesisCollection:
    """Harvest a hypothesis collection by replaying a DP learner.

    For every label z on the zeta/5 grid, the learner runs on m copies of
    (x_0, z) the prescribed number of times; all outputs are pooled.  The
    collection then intersects the good-hypothesis set of any target and
    distribution except with probability 1/4, provided the learner meets its
    PAC contract at sample size m.
    """
    if m < 1:
        raise OutOfRange(f"m must be at least 1, got {m}")
    if not 0 < zeta < 1:
        raise OutOfRange(f"zeta must lie in (0, 1), got {zeta}")
    try:
        reps = representation_repetitions(alpha, epsilon_priv, m)
    except OverflowError:
        raise TooLarge("harvest repetitions e^(8 alpha eps m) overflow a float") from None
    grid = cover_new(zeta / 5.0).bin_midpoints
    total = len(grid) * reps
    if total > 10**6:
        raise TooLarge(f"harvest would run {total} replays")
    harvested = []
    x0 = DomainPoint(0)
    for zi, z in enumerate(grid):
        sample = tuple(LabeledExample(x0, z) for _ in range(m))
        rng = child_rng(seed, zi)
        harvested.extend(dp_learner(sample, rng) for _ in range(reps))
    return HypothesisCollection(hypotheses=tuple(harvested), provenance="harvested")
