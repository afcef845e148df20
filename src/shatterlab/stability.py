"""Global stability from online learning: curated samples and the learner G.

The sampler builds level-k curated samples recursively: draw two level-(k-1)
samples each padded with a fresh block of m i.i.d. examples, run the online
learner on both, and retry until the two output hypotheses disagree by more
than 11*zeta somewhere.  Then a single injected example at a disagreement
point — labelled with a uniformly random bin midpoint — is appended to the
branch whose output sits farther from that label.  When the midpoint lands
near the true value the injected example provably forces a mistake, so level-k
samples carry k forced mistakes.

G draws a uniformly random level k <= d (d = sfat at margin 2*zeta), samples
under a draw-count cutoff, applies one more block to the surviving mask the
curated sample carries, and returns the online learner's final hypothesis; all
its draws read one `seeding.Draws` cursor.  Across runs, some 11*zeta function
ball receives probability at least zeta^d / (2 (d+1)), and its centre generalizes.

G's runs share one learner state (`online.RsoaState`), and a sample is masks
folded with its memos: each target's keep rows, each mask pair's split verdict
and each injected example's ball, built the first time any run meets them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .concepts import Concept, ConceptClass, Distribution, loss
from .errors import AllRunsFailed, DomainMismatch, OutOfRange, TooLarge
from .online import RsoaState
from .seeding import Draws, child_rng


@dataclass(frozen=True)
class Fail:
    """Monte Carlo stop: the sampler exceeded its draw cutoff."""

    draws_used: int


@dataclass(frozen=True)
class ExtSample:
    """A curated sample: k blocks of m examples, each followed by one injected
    mistake example; `draws_used` counts every example drawn from D along the
    way, including discarded attempts, and `mask` is the learner's surviving
    mask after all the sample's examples (the full mask at level 0)."""

    segments: tuple[tuple[tuple[tuple[int, float], ...], tuple[int, float]], ...]
    k: int
    draws_used: int
    mask: int


def sample_ext(
    state: RsoaState,
    target_id: int,
    dist: Distribution,
    k: int,
    m: int,
    cutoff: int,
    draws: Optional[Draws],
) -> "ExtSample | Fail":
    """Draw one curated sample with k injected mistakes, or Fail at the cutoff.

    The learner `state` runs every attempt; the class and zeta are its own.
    Its memos give each pair of branch masks its split verdict and each
    example its ball, once per state, whatever the target or the
    distribution; only the sample returned builds its segments.  It draws
    from the cursor `draws`.  A sample that draws nothing (level 0, or a
    level k >= 1 at 11*zeta >= 1, which fails at once) does not read it, and
    `draws` may be None there.  Draws are counted against `cutoff`; a Fail at
    the cutoff reports cutoff + 1.
    """
    if k < 0:
        raise OutOfRange(f"k must be nonnegative, got {k}")
    if cutoff < 0:
        raise OutOfRange(f"cutoff must be nonnegative, got {cutoff}")
    if m < 0 or (m == 0 and k > 0):
        # a block of no draws leaves both branches alike, so no attempt
        # could succeed and none would use up the cutoff
        raise OutOfRange(f"m must be positive at level k >= 1, got m={m}, k={k}")
    cls = state.cls
    if len(dist.p) != cls.domain_size:
        raise DomainMismatch(
            f"a distribution over {len(dist.p)} points for a class over {cls.domain_size}"
        )
    values, full = cls.by_id(target_id).values, state.cache.full_mask()
    if k == 0:
        return ExtSample(segments=(), k=0, draws_used=0, mask=full)
    if 11.0 * state.zeta >= 1.0:
        # values lie in [0, 1], so no two hypotheses differ by more than
        # 11*zeta: every attempt would fail, drawing up to the cutoff
        return Fail(draws_used=cutoff + 1)
    # one learner state serves every attempt, and every sample of its G: a
    # sub-sample's surviving mask, folded with the keep rows of a block's
    # draws and the ball of its injection, stands in for replaying it
    bins, keep = state.bins, state.keep_rows(target_id)
    used = 0  # draws made, counted against the cutoff

    def rec(level: int) -> Optional[tuple[tuple, int]]:
        """(chain, surviving mask) of a level-`level` sample, level >= 1; None at
        the cutoff.  A chain is None at level 0, else (sub-chain, points, x*, alpha)."""
        nonlocal used
        while True:
            pair = []
            for _branch in (0, 1):
                sub = (None, full) if level == 1 else rec(level - 1)
                if sub is None or used + m > cutoff:
                    return None
                used += m
                xs = draws.block(dist.cdf, m)
                chain, mask = sub
                for x in xs:
                    mask &= keep[x]
                pair.append((chain, xs, mask))
            found = state.split_verdict(pair[0][2], pair[1][2])
            if found is None:
                continue
            x_star, y0, y1 = found
            b = draws.below(len(bins))  # the draw of rng.choice(bins)
            chain, xs, mask = pair[1] if abs(bins[b] - y0) < abs(bins[b] - y1) else pair[0]
            return (chain, xs, x_star, bins[b]), mask & state.ball(x_star, bins[b])

    sample = rec(k)
    if sample is None:
        return Fail(draws_used=cutoff + 1)
    chain, mask = sample
    segments = []  # the chain runs from the last segment back to the first
    while chain is not None:
        chain, xs, x_star, alpha = chain
        segments.append((tuple((x, values[x]) for x in xs), (x_star, alpha)))
    return ExtSample(segments=tuple(reversed(segments)), k=k, draws_used=used, mask=mask)


class StableLearner:
    """The globally-stable learner G on one (class, zeta, alpha).

    d is the learner state's mistake bound, m = ceil(d ln(1/zeta) / alpha)
    and cutoff = 2 (4/zeta)^(d+1) m.  Every run shares one learner state, and
    with it each target's keep rows, which the sampler's blocks and G's final
    blocks fold, and the sampler's split verdicts and injected examples' balls.
    """

    def __init__(self, cls: ConceptClass, zeta: float, alpha: float):
        if not 0 < alpha < math.inf:
            raise OutOfRange(f"alpha must be positive and finite, got {alpha}")
        self.state = RsoaState(cls, zeta)
        self.d = self.state.mistake_bound()
        try:
            self.m = math.ceil(self.d * math.log(1.0 / zeta) / alpha)
            self.cutoff = int(2 * (4.0 / zeta) ** (self.d + 1) * self.m)
        except OverflowError:
            raise TooLarge(f"alpha = {alpha} makes m or the draw cutoff infinite") from None

    def __call__(self, target_id: int, dist: Distribution, draws: Draws) -> "Concept | Fail":
        """One run of G, drawing its level k, its curated sample and its final
        block from the cursor `draws`, in that order.

        Fail covers two events: the sampler hit its draw cutoff, or the
        curated sample's injected examples wiped the surviving set (possible
        only when an injection was invalid — a valid sample never eliminates
        the target, and only surviving-set-backed hypotheses carry the
        consistency guarantees the stability analysis rests on).
        """
        state, m = self.state, self.m
        k = draws.below(self.d + 1)
        s = sample_ext(state, target_id, dist, k, m, self.cutoff, draws)
        if isinstance(s, Fail):
            return s
        mask, keep = s.mask, state.keep_rows(target_id)
        for xi in draws.block(dist.cdf, m):
            mask &= keep[xi]
        if mask == 0:
            return Fail(draws_used=s.draws_used + m)
        return state.final_hypothesis(mask)


@dataclass(frozen=True)
class StabilityReport:
    runs: int
    fails: int
    d: int
    m: int
    cutoff: int
    zeta: float
    alpha: float
    best_ball_center: Concept
    empirical_frequency: float
    theoretical_floor: float
    center_loss_12zeta: float
    hypothesis_hashes: tuple[str, ...]


def _hyp_hash(values: Sequence[float]) -> str:
    payload = ",".join(repr(v) for v in values).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def ball_frequency(
    outputs: Sequence[Concept], center: Concept, radius: float, runs: int
) -> float:
    """Fraction of `runs` whose output lies within `radius` of center everywhere."""
    inside = sum(
        1
        for f in outputs
        if all(abs(a - b) < radius for a, b in zip(f.values, center.values))
    )
    return inside / runs


def stability_experiment(
    cls: ConceptClass,
    target_id: int,
    dist: Distribution,
    zeta: float,
    alpha: float,
    runs: int,
    seed: int,
) -> StabilityReport:
    """Run G `runs` times; report the heaviest 11*zeta ball among the outputs.

    The runs draw in turn from one cursor over child_rng(seed, 0x6).  Fail runs
    stay in the denominator (they are never ball members).  The reported
    centre is also scored by its loss at 12*zeta against the target.
    Raises AllRunsFailed when no run returns a hypothesis: there is no ball
    to report.
    """
    if runs < 100:
        raise OutOfRange("the stability experiment needs at least 100 runs")
    learner = StableLearner(cls, zeta, alpha)
    d, m, cutoff = learner.d, learner.m, learner.cutoff
    outputs: list[Concept] = []
    fails = 0
    draws = Draws(child_rng(seed, 0x6))
    for _ in range(runs):
        out = learner(target_id, dist, draws)
        if isinstance(out, Fail):
            fails += 1
        else:
            outputs.append(out)
    if not outputs:
        raise AllRunsFailed(f"all {runs} runs of the stable learner failed")
    # cluster by 11*zeta balls centred on each distinct output
    radius = 11.0 * zeta
    best_center = outputs[0]
    best_freq = 0.0
    seen: set[tuple[float, ...]] = set()
    for f in outputs:
        if f.values in seen:
            continue
        seen.add(f.values)
        freq = ball_frequency(outputs, f, radius, runs)
        if freq > best_freq:
            best_freq = freq
            best_center = f
    floor = zeta**d / (2.0 * (d + 1))
    center_loss = loss(best_center, cls.by_id(target_id), 12.0 * zeta, dist)
    return StabilityReport(
        runs=runs,
        fails=fails,
        d=d,
        m=m,
        cutoff=cutoff,
        zeta=zeta,
        alpha=alpha,
        best_ball_center=best_center,
        empirical_frequency=best_freq,
        theoretical_floor=floor,
        center_loss_12zeta=center_loss,
        hypothesis_hashes=tuple(_hyp_hash(f.values) for f in outputs),
    )

