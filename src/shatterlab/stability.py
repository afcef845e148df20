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
curated sample carries, and returns the online learner's final hypothesis.
Across runs, some 11*zeta function ball receives probability at least
zeta^d / (2 (d+1)), and its centre generalizes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concepts import Concept, ConceptClass, Distribution, bin_midpoints, loss
from .errors import AllRunsFailed, DomainMismatch, OutOfRange
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
    way, including discarded attempts, and `mask` is the learner's surviving
    mask after all the sample's examples (the full mask at level 0)."""

    segments: tuple[tuple[tuple[tuple[int, float], ...], tuple[int, float]], ...]
    k: int
    draws_used: int
    mask: int

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


def _draw_block(dist: Distribution, m: int, rng: np.random.Generator) -> list[int]:
    """The point indices of one block of m i.i.d. draws from dist."""
    return dist.sample(rng, m).tolist()


def _keep_rows(state: RsoaState, values: Sequence[float]) -> list[int]:
    """keep[x] = update(full, x, values[x]).  An update only intersects the mask
    with the rows near its label, so `mask & keep[x]` is update(mask, x, values[x])."""
    return [state.update(state.cache.full_mask(), x, y) for x, y in enumerate(values)]


def sample_ext(
    state: RsoaState,
    target_id: int,
    dist: Distribution,
    k: int,
    m: int,
    cutoff: int,
    seed: int,
) -> "ExtSample | Fail":
    """Draw one curated sample with k injected mistakes, or Fail at the cutoff.

    The learner `state` runs every attempt; the class and zeta are its own.
    """
    if k < 0:
        raise OutOfRange(f"k must be nonnegative, got {k}")
    if cutoff < 0:
        raise OutOfRange(f"cutoff must be nonnegative, got {cutoff}")
    if m < 0 or (m == 0 and k > 0):
        # a block of no draws leaves both branches alike, so no attempt
        # could succeed and none would use up the cutoff
        raise OutOfRange(f"m must be positive at level k >= 1, got m={m}, k={k}")
    if seed < 0:
        raise OutOfRange(f"seed must be nonnegative, got {seed}")
    cls, zeta = state.cls, state.zeta
    if len(dist.p) != cls.domain_size:
        raise DomainMismatch(
            f"a distribution over {len(dist.p)} points for a class over {cls.domain_size}"
        )
    values = cls.by_id(target_id).values
    empty = ExtSample(segments=(), k=0, draws_used=0, mask=state.cache.full_mask())
    if k == 0:
        return empty
    if 11.0 * zeta >= 1.0:
        # values lie in [0, 1], so no two hypotheses differ by more than
        # 11*zeta: every attempt would fail, and the draws run to the cutoff
        return Fail(draws_used=cutoff + 1)
    rng = child_rng(seed, 0xE27)
    budget = _Budget(cutoff)
    bins = bin_midpoints(zeta)
    # one learner state serves every attempt; a sub-sample's surviving mask,
    # folded with the keep rows of a block's draws, stands in for replaying it
    keep = _keep_rows(state, values)
    # (mask0, mask1) -> None, or the first point where the pair's final
    # hypotheses differ by more than 11*zeta and their values there
    splits: dict[tuple[int, int], Optional[tuple[int, float, float]]] = {}

    def split(v0: int, v1: int) -> Optional[tuple[int, float, float]]:
        if (v0, v1) not in splits:
            f0, f1 = state.final_hypothesis(v0).values, state.final_hypothesis(v1).values
            diffs = (x for x in range(cls.domain_size) if abs(f0[x] - f1[x]) > 11.0 * zeta)
            splits[v0, v1] = next(((x, f0[x], f1[x]) for x in diffs), None)
        return splits[v0, v1]

    def rec(level: int) -> Optional[ExtSample]:
        while True:
            pair = []
            for _branch in (0, 1):
                sub = empty if level == 1 else rec(level - 1)
                if sub is None or not budget.draw(m):
                    return None
                xs = _draw_block(dist, m, rng)
                mask = sub.mask
                for x in xs:
                    mask &= keep[x]
                pair.append((sub, xs, mask))
            found = split(pair[0][2], pair[1][2])
            if found is None:
                continue
            x_star, y0, y1 = found
            alpha = bins[rng.integers(len(bins))]  # the draw of rng.choice(bins)
            sub, xs, mask = pair[1] if abs(alpha - y0) < abs(alpha - y1) else pair[0]
            block = tuple((x, values[x]) for x in xs)
            return ExtSample(
                segments=sub.segments + ((block, (x_star, alpha)),),
                k=level,
                draws_used=0,
                mask=state.update(mask, x_star, alpha),
            )

    result = rec(k)
    if result is None:
        return Fail(draws_used=budget.used)
    return ExtSample(segments=result.segments, k=k, draws_used=budget.used, mask=result.mask)


class StableLearner:
    """The globally-stable learner G on one (class, zeta, alpha).

    d is the learner state's mistake bound, m = ceil(d ln(1/zeta) / alpha)
    and cutoff = 2 (4/zeta)^(d+1) m.  Every run shares one learner state, and
    G's final blocks on one target share its `_keep_rows`: rebuilt per run, they
    would cost domain_size updates, more than a block's m when domain_size > m.
    """

    def __init__(self, cls: ConceptClass, zeta: float, alpha: float):
        if not 0 < alpha < math.inf:
            raise OutOfRange(f"alpha must be positive and finite, got {alpha}")
        self.state = RsoaState(cls, zeta)
        self.d = self.state.mistake_bound()
        self.m = math.ceil(self.d * math.log(1.0 / zeta) / alpha)
        self.cutoff = int(2 * (4.0 / zeta) ** (self.d + 1) * self.m)
        self._keep: dict[int, list[int]] = {}

    def __call__(self, target_id: int, dist: Distribution, seed: int) -> "Concept | Fail":
        """One run of G.

        Fail covers two events: the sampler hit its draw cutoff, or the
        curated sample's injected examples wiped the surviving set (possible
        only when an injection was invalid — a valid sample never eliminates
        the target, and only surviving-set-backed hypotheses carry the
        consistency guarantees the stability analysis rests on).
        """
        state, m = self.state, self.m
        rng = child_rng(seed, 0x6)
        k = int(rng.integers(0, self.d + 1))
        s = sample_ext(
            state, target_id, dist, k, m, self.cutoff, seed=int(rng.integers(2**63))
        )
        if isinstance(s, Fail):
            return s
        if target_id not in self._keep:
            self._keep[target_id] = _keep_rows(state, state.cls.by_id(target_id).values)
        mask, keep = s.mask, self._keep[target_id]
        for xi in _draw_block(dist, m, rng):
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

    Fail runs stay in the denominator (they are never ball members).  The
    reported centre is also scored by its loss at 12*zeta against the target.
    Raises AllRunsFailed when no run returns a hypothesis: there is no ball
    to report.
    """
    if runs < 100:
        raise OutOfRange("the stability experiment needs at least 100 runs")
    learner = StableLearner(cls, zeta, alpha)
    d, m, cutoff = learner.d, learner.m, learner.cutoff
    outputs: list[Concept] = []
    fails = 0
    for i in range(runs):
        out = learner(target_id, dist, seed=int(seed) + i)
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

