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
under a draw-count cutoff, appends one more block, and returns the online
learner's final hypothesis.  Across runs, some 11*zeta function ball receives
probability at least zeta^d / (2 (d+1)), and its centre generalizes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concepts import (
    Concept,
    ConceptClass,
    Distribution,
    cover_new,
    loss,
)
from .dimensions import sfat
from .errors import AllRunsFailed, OutOfRange
from .online import RsoaState
from .seeding import child_rng


@dataclass(frozen=True)
class Fail:
    """Monte Carlo stop: the sampler exceeded its draw cutoff."""

    draws_used: int


@dataclass(frozen=True)
class ExtSample:
    """A curated sample: k blocks of m examples, each followed by one injected
    mistake example; `draws_used` counts every example drawn from D along the
    way, including discarded attempts."""

    segments: tuple[tuple[tuple[tuple[int, float], ...], tuple[int, float]], ...]
    k: int
    draws_used: int

    def examples(self) -> list[tuple[int, float]]:
        out: list[tuple[int, float]] = []
        for block, mistake in self.segments:
            out.extend(block)
            out.append(mistake)
        return out


class _Budget:
    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self.used = 0

    def draw(self, n: int) -> bool:
        """Account for n draws; False once the cutoff would be exceeded."""
        if self.used + n > self.cutoff:
            self.used = self.cutoff + 1
            return False
        self.used += n
        return True


def _draw_block(
    target: Concept, dist: Distribution, m: int, rng: np.random.Generator
) -> tuple[tuple[int, float], ...]:
    values = target.values
    return tuple((x, values[x]) for x in dist.sample(rng, m).tolist())


def sample_ext(
    cls: ConceptClass,
    target_id: int,
    dist: Distribution,
    k: int,
    m: int,
    zeta: float,
    cutoff: int,
    seed: int,
    *,
    runner: Optional[RsoaState] = None,
) -> "ExtSample | Fail":
    """Draw one curated sample with k injected mistakes, or Fail at the cutoff.

    `runner`, if given, is a non-strict learner state for (cls, zeta) to
    reuse; its surviving mask is overwritten.
    """
    if k < 0:
        raise OutOfRange(f"k must be nonnegative, got {k}")
    if cutoff < 0:
        raise OutOfRange(f"cutoff must be nonnegative, got {cutoff}")
    target = cls.by_id(target_id)
    bins = cover_new(zeta).bin_midpoints
    # one learner state reused for every attempt: the sfat cache and the bin
    # membership masks are shared, only the surviving mask is reset.  An
    # update depends only on (mask, x, y), so a sub-sample's surviving mask
    # stands in for replaying its examples from the full class, and each
    # (mask, x, y) step is computed once.
    if runner is None:
        runner = RsoaState(cls, zeta, strict=False)
    if k > 0 and 11.0 * zeta >= 1.0:
        # values lie in [0, 1], so no two hypotheses differ by more than
        # 11*zeta: every attempt would fail, and the draws run to the cutoff
        return Fail(draws_used=cutoff + 1)
    rng = child_rng(seed, 0xE27)
    budget = _Budget(cutoff)
    empty = (ExtSample(segments=(), k=0, draws_used=0), runner.cache.full_mask())
    steps: dict[tuple[int, int, float], int] = {}

    def resume(mask: int, examples: Sequence[tuple[int, float]]) -> int:
        """Set the runner to `mask` with `examples` applied; return that mask."""
        for xi, y in examples:
            key = (mask, xi, y)
            nxt = steps.get(key)
            if nxt is None:
                runner.mask = mask
                runner.update(xi, y)
                nxt = steps[key] = runner.mask
            mask = nxt
        runner.mask = mask
        return mask

    def rec(level: int) -> Optional[tuple[ExtSample, int]]:
        """A level-`level` sample and the surviving mask after all its examples."""
        if level == 0:
            return empty
        while True:
            pair = []
            for _branch in (0, 1):
                sub = rec(level - 1)
                if sub is None:
                    return None
                if not budget.draw(m):
                    return None
                block = _draw_block(target, dist, m, rng)
                mask = resume(sub[1], block)
                pair.append((sub[0], block, mask, runner.final_hypothesis()))
            (s0, b0, v0, f0), (s1, b1, v1, f1) = pair
            diffs = [
                x
                for x in range(cls.domain_size)
                if abs(f0.values[x] - f1.values[x]) > 11.0 * zeta
            ]
            if not diffs:
                continue
            x_star = diffs[0]
            alpha = float(rng.choice(bins))
            if abs(alpha - f0.values[x_star]) < abs(alpha - f1.values[x_star]):
                keep_sub, keep_block, keep_mask = s1, b1, v1
            else:
                keep_sub, keep_block, keep_mask = s0, b0, v0
            injected = (x_star, alpha)
            return (
                ExtSample(
                    segments=keep_sub.segments + ((keep_block, injected),),
                    k=level,
                    draws_used=0,
                ),
                resume(keep_mask, (injected,)),
            )

    result = rec(k)
    if result is None:
        return Fail(draws_used=budget.used)
    return ExtSample(segments=result[0].segments, k=k, draws_used=budget.used)


def stable_learner_parameters(
    cls: ConceptClass, zeta: float, alpha: float
) -> tuple[int, int, int]:
    """(d, m, cutoff) used by the stable learner: d = sfat at margin 2*zeta,
    m = ceil(d ln(1/zeta) / alpha), cutoff = 2 (4/zeta)^(d+1) m."""
    if not 0 < alpha:
        raise OutOfRange(f"alpha must be positive, got {alpha}")
    d = sfat(cls, None, 2.0 * zeta).dimension
    m = math.ceil(d * math.log(1.0 / zeta) / alpha)
    cutoff = int(2 * (4.0 / zeta) ** (d + 1) * m)
    return d, m, cutoff


@dataclass(frozen=True)
class _Shared:
    """What every run of G on one (class, zeta, alpha) shares: the parameters
    and one non-strict learner state, whose surviving mask each use resets."""

    d: int
    m: int
    cutoff: int
    state: RsoaState

    @classmethod
    def build(cls, concepts: ConceptClass, zeta: float, alpha: float) -> "_Shared":
        d, m, cutoff = stable_learner_parameters(concepts, zeta, alpha)
        return cls(d, m, cutoff, RsoaState(concepts, zeta, strict=False))


def stable_learner_G(
    cls: ConceptClass,
    target_id: int,
    dist: Distribution,
    zeta: float,
    alpha: float,
    seed: int,
    *,
    shared: Optional[_Shared] = None,
) -> "Concept | Fail":
    """One run of the globally-stable learner.

    Fail covers two events: the sampler hit its draw cutoff, or the curated
    sample's injected examples wiped the surviving set (possible only when an
    injection was invalid — a valid sample never eliminates the target, and
    only surviving-set-backed hypotheses carry the consistency guarantees the
    stability analysis rests on).

    `shared` carries what `stability_experiment` computed once for all its
    runs; without it, G computes the same itself.
    """
    if shared is None:
        shared = _Shared.build(cls, zeta, alpha)
    m, state = shared.m, shared.state
    rng = child_rng(seed, 0x6)
    k = int(rng.integers(0, shared.d + 1))
    s = sample_ext(
        cls, target_id, dist, k, m, zeta, shared.cutoff,
        seed=int(rng.integers(2**63)), runner=state,
    )
    if isinstance(s, Fail):
        return s
    target = cls.by_id(target_id)
    block = _draw_block(target, dist, m, rng)
    state.mask = state.cache.full_mask()
    for xi, y in s.examples() + list(block):
        state.update(xi, y)
    if state.mask == 0:
        return Fail(draws_used=s.draws_used + m)
    return state.final_hypothesis()


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

    Fail runs stay in the denominator (they are never ball members).  The
    reported centre is also scored by its loss at 12*zeta against the target.
    Raises AllRunsFailed when no run returns a hypothesis: there is no ball
    to report.
    """
    if runs < 100:
        raise OutOfRange("the stability experiment needs at least 100 runs")
    shared = _Shared.build(cls, zeta, alpha)
    d, m, cutoff = shared.d, shared.m, shared.cutoff
    outputs: list[Concept] = []
    fails = 0
    for i in range(runs):
        out = stable_learner_G(
            cls, target_id, dist, zeta, alpha, seed=int(seed) + i, shared=shared
        )
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

