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
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .concepts import Concept, _choice_cdf, _is_index, bin_midpoints
from .errors import NotNeighbors, OutOfRange, TooLarge
from .seeding import child_rng

#: Labeled examples (x, y): a domain index and a value in [0, 1].
Sample = Sequence[tuple[int, float]]
#: A learner maps a sample and a generator to a hypothesis.  A trial loop
#: passes one generator to all its calls, so each trial continues the stream.
Learner = Callable[[Sample, np.random.Generator], Concept]


@dataclass(frozen=True)
class HypothesisCollection:
    hypotheses: tuple[Concept, ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise OutOfRange("a hypothesis collection must be nonempty")
        n = len(self.hypotheses[0].values)
        for h in self.hypotheses:
            if len(h.values) != n:
                raise OutOfRange("hypotheses must share one domain")

    def __len__(self) -> int:
        return len(self.hypotheses)

    @cached_property
    def by_point(self) -> np.ndarray:
        """Point-by-hypothesis table of values, built on first use."""
        return np.array([h.values for h in self.hypotheses]).T


def discretize_hypotheses(domain_size: int, zeta: float) -> HypothesisCollection:
    """All functions from the domain into the zeta-grid bin midpoints."""
    mids = bin_midpoints(zeta)
    count = len(mids) ** domain_size
    if count > 10**6:
        raise TooLarge(f"discretized class would hold {count} hypotheses")
    hyps = tuple(
        Concept(i, vals) for i, vals in enumerate(product(mids, repeat=domain_size))
    )
    return HypothesisCollection(hypotheses=hyps)


def _check_sample(sample: Sample, domain_size: float = math.inf) -> None:
    """Raise OutOfRange unless each x is an integer index in [0, domain_size),
    not a bool, and each y lies in [0, 1] (NaN does not)."""
    for x, y in sample:
        if not _is_index(x, domain_size):
            raise OutOfRange(f"sample point {x!r} is not a domain index in [0, {domain_size})")
        if not 0.0 <= y <= 1.0:
            raise OutOfRange(f"sample label {y!r} outside [0,1]")


def exponential_weights(
    collection: HypothesisCollection, sample: Sample, epsilon_priv: float, zeta: float
) -> np.ndarray:
    """Normalized exponential-mechanism weights exp(-eps * misses / 2), where
    a miss is a sample point the hypothesis is off by more than zeta."""
    table, zero = collection.by_point, np.zeros(len(collection), int)
    _check_sample(sample, len(table))
    misses = sum((np.abs(table[x] - y) > zeta for x, y in sample), zero)
    scores = -0.5 * epsilon_priv * misses
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


_CHUNK = 1 << 16  # uniforms per batch of a draw, so memory stays bounded


@dataclass(frozen=True)
class ExponentialMechanism:
    """Select a hypothesis via the exponential mechanism; (eps, 0)-DP.

    `draw` runs n trials with one CDF, and a call is one such trial;
    ``rng.random(k)`` takes what k calls take.
    """

    collection: HypothesisCollection
    epsilon: float
    zeta: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise OutOfRange(f"epsilon must be positive, got {self.epsilon}")

    def draw(self, sample: Sample, rng: np.random.Generator, n: int) -> Iterator[np.ndarray]:
        """Indices of n trials into the collection: batches of at most 2^16, drawn as read."""
        if not sample:
            raise OutOfRange("the private learner needs a nonempty sample")
        cdf = _choice_cdf(exponential_weights(self.collection, sample, self.epsilon, self.zeta))
        sizes = (min(_CHUNK, n - i) for i in range(0, n, _CHUNK))
        return (cdf.searchsorted(rng.random(k), side="right") for k in sizes)

    def __call__(self, sample: Sample, rng: np.random.Generator) -> Concept:
        return self.collection.hypotheses[next(self.draw(sample, rng, 1))[0]]


def _trials(learner: Learner, sample: Sample, rng: np.random.Generator, n: int):
    """(outputs, index batches into them) of n trials on one sample and stream."""
    if isinstance(learner, ExponentialMechanism):  # batched, the same stream
        return learner.collection.hypotheses, learner.draw(sample, rng, n)
    return [learner(sample, rng) for _ in range(n)], (np.arange(n),)


def check_neighbors(s: Sample, s_prime: Sample) -> int:
    """Index where the samples differ; raises unless exactly one exists."""
    if len(s) != len(s_prime):
        raise NotNeighbors("neighboring samples must have equal length")
    diffs = [
        i
        for i, ((xa, ya), (xb, yb)) in enumerate(zip(s, s_prime))
        if xa != xb or ya != yb
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


@dataclass(frozen=True)
class DpTestReport:
    events: tuple[EventCheck, ...]
    max_violation: float
    verdict: bool


#: two-sided 99% normal quantile for each event's slack (per event, not verdict)
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
    direction of each event gets normal-approximation binomial slack at 99%
    confidence; the verdict holds when no event violates either direction
    beyond its slack.  The 99% holds per event, not per verdict: nothing
    corrects for the number of events (625 tight events fail 17 of 100 seeds).
    The domain is the learner's, so each sample point is checked only for
    an integer x >= 0, not a bool, and y in [0, 1], and before the samples
    are compared: a NaN label would otherwise count as the one difference.
    """
    _check_sample(s)
    _check_sample(s_prime)
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
        outs, batches = _trials(learner, sample, child_rng(seed, side), trials)
        per_output = sum(np.bincount(b, minlength=len(outs)) for b in batches)
        # by id, not by index: a harvested collection repeats hypotheses
        for i in np.flatnonzero(per_output):
            counts.setdefault(outs[i].id, [0, 0])[side] += int(per_output[i])
    events = []
    worst = -math.inf
    for hid, (a, b) in sorted(counts.items()):
        p, q = a / trials, b / trials
        slack = _Z99 * (
            math.sqrt(p * (1 - p) / trials) + grow * math.sqrt(q * (1 - q) / trials)
        ) + (1 + grow) / trials
        fwd = grow * q + delta + slack - p
        bwd = grow * p + delta + slack - q
        events.append(EventCheck(event=hid, freq_s=p, freq_s_prime=q, slack=slack))
        worst = max(worst, -min(fwd, bwd))
    return DpTestReport(events=tuple(events), max_violation=worst, verdict=worst <= 0)


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
    if not (alpha > 0 and epsilon_priv > 0):
        raise OutOfRange(f"need positive alpha and epsilon, got {alpha} and {epsilon_priv}")
    try:
        reps = representation_repetitions(alpha, epsilon_priv, m)
    except OverflowError:
        raise TooLarge("harvest repetitions e^(8 alpha eps m) overflow a float") from None
    grid = bin_midpoints(zeta / 5.0)
    total = len(grid) * reps
    if total > 10**6:
        raise TooLarge(f"harvest would run {total} replays")
    harvested = []
    for zi, z in enumerate(grid):
        sample = ((0, z),) * m
        outs, batches = _trials(dp_learner, sample, child_rng(seed, zi), reps)
        harvested.extend(outs[i] for b in batches for i in b)
    return HypothesisCollection(hypotheses=tuple(harvested))
