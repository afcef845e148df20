"""Robust online learning: the super-bin learner, adversaries, and games.

The learner (parameter zeta) keeps the set of concepts consistent with all
feedback so far.  To predict at x it scores every super-bin of the interleaved
2*zeta cover by the sfat dimension (at margin 2*zeta) of the surviving
concepts mapping into that bin, and answers the mean of the maximizing
midpoints; empty bins score -1 so they never tie with populated ones.  On
feedback c_hat it keeps exactly the concepts within the open zeta-ball of
c_hat.  With feedback accurate to zeta, rounds with |prediction - truth| >
5*zeta never exceed sfat at margin 2*zeta of the class.

A mistake-only variant (parameter epsilon) runs the same machinery at
zeta = epsilon/5 but updates only on rounds with |prediction - truth| >
epsilon; it drives the shadow-estimation stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .concepts import (
    Concept,
    ConceptClass,
    round_to_grid,
    _grid_order,
)
from .dimensions import SfatCache, ShatterTree
from .errors import (
    EmptySurvivingSet,
    InvalidFeedback,
    OutOfRange,
    TreeExhausted,
)
from .seeding import child_rng


def prediction_grid(zeta: float) -> tuple[float, ...]:
    """Super-bin midpoints used by the learner at accuracy zeta.

    These are the interleaved-cover midpoints of the 2*zeta cover: spacing
    2*zeta, super-bin width 4*zeta.  When 1/zeta is an odd integer the last
    midpoint of that construction does not land on the 2*zeta grid, so the
    grid is extended by one midpoint past 1 - 2*zeta; coverage of [0,1] by
    the super-bins and the 2*zeta spacing (all the mistake-bound proof needs)
    are preserved.
    """
    n = _grid_order(zeta)
    if n < 3:
        raise OutOfRange(
            f"zeta={zeta} leaves no super-bin midpoints; the learner needs zeta <= 1/3"
        )
    return tuple(2 * k / n for k in range(1, math.ceil(n / 2)))


class RsoaState:
    """Mutable learner state: shared sfat cache plus precomputed bin masks.

    `strict=False` lets the surviving set go empty (needed inside the
    stability sampler, where deliberately invalid injected examples can wipe
    the set); the prediction then falls back to the all-bins tie, whose mean
    is the midpoint of the grid.
    """

    def __init__(self, cls: ConceptClass, zeta: float, strict: bool = True):
        self.cls = cls
        self.zeta = float(zeta)
        self.strict = strict
        self.cache = SfatCache(cls, 2.0 * self.zeta)
        self.grid = prediction_grid(self.zeta)
        n = len(cls)
        radius = 2.0 * self.zeta
        table = cls.table
        # bin membership masks depend only on (x, r): precompute once
        self.bin_masks = [
            [
                sum(
                    1 << row
                    for row in range(n)
                    if abs(table[row, x] - r) < radius
                )
                for r in self.grid
            ]
            for x in range(cls.domain_size)
        ]
        self.mask = self.cache.full_mask()
        self._hypotheses: dict[int, Concept] = {}

    @property
    def surviving_ids(self) -> frozenset[int]:
        return self.cache.ids_of_mask(self.mask)

    def size(self) -> int:
        return self.mask.bit_count()

    def predict_with_maximizers(self, xi: int) -> tuple[float, list[float]]:
        if self.mask == 0 and self.strict:
            raise EmptySurvivingSet("cannot predict from an empty surviving set")
        best = None
        maximizers: list[float] = []
        for r, bmask in zip(self.grid, self.bin_masks[xi]):
            score = self.cache.score(self.mask & bmask)
            if best is None or score > best:
                best = score
                maximizers = [r]
            elif score == best:
                maximizers.append(r)
        return sum(maximizers) / len(maximizers), maximizers

    def predict(self, xi: int) -> float:
        return self.predict_with_maximizers(xi)[0]

    def update(self, xi: int, feedback: float) -> None:
        if not 0.0 <= feedback <= 1.0:
            raise OutOfRange(f"feedback {feedback} outside [0,1]")
        col = self.cls.table[:, xi]
        new = 0
        m = self.mask
        while m:
            low = m & -m
            row = low.bit_length() - 1
            if abs(col[row] - feedback) < self.zeta:
                new |= low
            m ^= low
        if new == 0 and self.strict:
            raise InvalidFeedback(
                f"update at x={xi} with feedback {feedback} wiped the surviving set; "
                "valid feedback never eliminates the target"
            )
        self.mask = new

    def final_hypothesis(self) -> Concept:
        """The prediction rule over the whole domain, materialized (id -1).

        The rule depends on nothing but the surviving mask, so each mask's
        hypothesis is built once.
        """
        hyp = self._hypotheses.get(self.mask)
        if hyp is None:
            hyp = Concept(
                id=-1, values=tuple(self.predict(x) for x in range(self.cls.domain_size))
            )
            self._hypotheses[self.mask] = hyp
        return hyp


# ---------------------------------------------------------------------------
# Noises and feedback modes
# ---------------------------------------------------------------------------

#: a noise maps (c_val, y_hat, zeta, rng) to feedback c_hat with
#: |c_hat - c_val| <= zeta, inside [0, 1]
Noise = Callable[[float, float, float, np.random.Generator], float]


def exact_noise(c_val, y_hat, zeta, rng):
    return c_val


def grid_noise(c_val, y_hat, zeta, rng):
    """Deterministic rounding to the zeta-grid midpoints (error <= zeta/2)."""
    return round_to_grid(c_val, zeta)


def uniform_noise(c_val, y_hat, zeta, rng):
    offset = rng.uniform(-zeta, zeta)
    if abs(offset) >= zeta:
        offset *= 1.0 - 1e-9
    return min(1.0, max(0.0, c_val + offset))


def extreme_noise(c_val, y_hat, zeta, rng):
    """Push feedback (almost) the full accuracy budget away from the prediction.

    The offset stays a hair inside zeta: the learner's update ball is open, so
    feedback at exactly distance zeta would eliminate the target, which the
    strong-feedback protocol (strictly zeta-accurate feedback) rules out.
    """
    offset = zeta * (1.0 - 1e-9)
    pushed = c_val + offset if y_hat <= c_val else c_val - offset
    return min(1.0, max(0.0, pushed))


#: noise name -> noise; the CLI's `noise` values, in this order
NOISES: dict[str, Noise] = {
    "exact": exact_noise,
    "round_to_grid": grid_noise,
    "uniform_within": uniform_noise,
    "adversarial_extreme": extreme_noise,
}


@dataclass(frozen=True)
class StrongFeedback:
    """Feedback every round, accurate to zeta; mistakes are counted at 5*zeta."""

    zeta: float
    noise: Noise

    @property
    def mistake_threshold(self) -> float:
        return 5.0 * self.zeta


@dataclass(frozen=True)
class MistakeOnly:
    """Feedback (accurate to epsilon/10) only on rounds with an epsilon-mistake."""

    epsilon: float

    @property
    def zeta(self) -> float:
        return self.epsilon / 5.0

    @property
    def mistake_threshold(self) -> float:
        return self.epsilon


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------

class RandomAdversary:
    """Presents a uniformly random domain point each round."""

    def __init__(self, domain_size: int):
        self.domain_size = domain_size

    def next_point(self, t, rng):
        return int(rng.integers(self.domain_size))


class CyclicAdversary:
    """Presents the listed points in order, cycling."""

    def __init__(self, points: Sequence[int]):
        self.points = list(points)

    def next_point(self, t, rng):
        return self.points[t % len(self.points)]


class WeakTreeAdversary:
    """Walks a shattering tree, always claiming a mistake.

    At node (x, a): present x; if the learner predicts below a, claim the truth
    is above and descend right, else claim below and descend left.  At a leaf,
    commit to the leaf's witness concept — it certifies every claim made on
    the way down as a genuine zeta-mistake.
    """

    def __init__(self, witness: ShatterTree):
        self.root = witness
        self.node = witness
        self.committed: Optional[int] = witness.leaf if witness.is_leaf else None

    @property
    def depth(self) -> int:
        return self.root.depth()

    def next_point(self) -> int:
        if self.node.is_leaf:
            raise TreeExhausted("adversary has committed; no more points to present")
        return self.node.x

    def observe_prediction(self, y_hat: float) -> bool:
        """Record the claim, descend, and return the claimed direction (True=right)."""
        if self.node.is_leaf:
            raise TreeExhausted("adversary has committed; no more claims")
        go_right = y_hat < self.node.a
        self.node = self.node.right if go_right else self.node.left
        if self.node.is_leaf:
            self.committed = self.node.leaf
        return go_right


# ---------------------------------------------------------------------------
# Transcripts and game harnesses
# ---------------------------------------------------------------------------

class Round(NamedTuple):
    t: int
    x: int
    prediction: float
    feedback: Optional[float]
    mistake: bool
    v_before: int
    v_after: int


@dataclass
class Transcript:
    """Full audit record of one online game."""

    zeta: float
    mistake_threshold: float
    target_id: int
    rounds: list[Round] = field(default_factory=list)
    final_hypothesis: Optional[Concept] = None

    @property
    def mistakes(self) -> int:
        return sum(1 for r in self.rounds if r.mistake)

    @property
    def updates(self) -> int:
        return sum(1 for r in self.rounds if r.v_after != r.v_before)


def run_online_game(
    cls: ConceptClass,
    target_id: int,
    adversary: "RandomAdversary | CyclicAdversary",
    mode: "StrongFeedback | MistakeOnly",
    T: int,
    seed: int,
) -> Transcript:
    """Play T rounds of the strong-feedback or mistake-only protocol.

    The harness validates the noise contract each round and treats an emptied
    surviving set as an InvalidFeedback fault — with in-contract feedback the
    target survives every update.
    """
    rng = child_rng(seed, 0)
    target = cls.by_id(target_id)
    zeta = mode.zeta
    threshold = mode.mistake_threshold
    noise = mode.noise if isinstance(mode, StrongFeedback) else None
    state = RsoaState(cls, zeta, strict=True)
    tr = Transcript(zeta=zeta, mistake_threshold=threshold, target_id=target_id)
    for t in range(T):
        xi = adversary.next_point(t, rng)
        v_before = state.size()
        y_hat = state.predict(xi)
        c_val = target.values[xi]
        mistake = abs(y_hat - c_val) > threshold
        feedback: Optional[float] = None
        if noise is not None:
            feedback = noise(c_val, y_hat, zeta, rng)
            if abs(feedback - c_val) > zeta + 1e-12:
                raise InvalidFeedback(
                    f"noise {noise.__name__} produced |c_hat - c| = "
                    f"{abs(feedback - c_val)} > zeta = {zeta}"
                )
            state.update(xi, feedback)
        elif mistake:
            feedback = round_to_grid(c_val, 2.0 * (mode.epsilon / 10.0))
            if abs(feedback - c_val) > mode.epsilon / 10.0 + 1e-12:
                raise InvalidFeedback("mistake-only feedback out of contract")
            state.update(xi, feedback)
        tr.rounds.append(Round(t, xi, y_hat, feedback, mistake, v_before, state.size()))
    tr.final_hypothesis = state.final_hypothesis()
    return tr


@dataclass(frozen=True)
class WeakForcingResult:
    claimed_mistakes: int
    committed_target: int
    all_claims_valid: bool
    rounds: tuple[tuple[int, float, bool], ...]  # (x, prediction, went_right)


def run_weak_forcing_game(
    cls: ConceptClass,
    adversary: WeakTreeAdversary,
    learner: Callable[[int], float],
    zeta: float,
) -> WeakForcingResult:
    """Drive any learner through the tree adversary; validate its claims.

    The adversary claims a mistake every round; after it commits, each claim is
    checked against the committed concept (predict-below-threshold rounds need
    the concept at least zeta above it, and symmetrically), so the count of
    claimed rounds is a certified lower bound on the learner's zeta-mistakes.
    """
    rounds = []
    while adversary.committed is None:
        xi = adversary.next_point()
        y_hat = learner(xi)
        went_right = adversary.observe_prediction(y_hat)
        rounds.append((xi, y_hat, went_right))
    target = cls.by_id(adversary.committed)
    valid = True
    for xi, y_hat, went_right in rounds:
        gap = target.values[xi] - y_hat if went_right else y_hat - target.values[xi]
        if gap < zeta - 1e-12:
            valid = False
    return WeakForcingResult(
        claimed_mistakes=len(rounds),
        committed_target=adversary.committed,
        all_claims_valid=valid,
        rounds=tuple(rounds),
    )


def rsoa_as_weak_learner(cls: ConceptClass, zeta: float) -> Callable[[int], float]:
    """The super-bin predictor on the full class; weak feedback is unusable
    for its ball update, so the set never shrinks."""
    state = RsoaState(cls, zeta, strict=True)
    return state.predict


# ---------------------------------------------------------------------------
# Shadow estimation stream and its sample-complexity calculator
# ---------------------------------------------------------------------------

def run_shadow_stream(
    cls: ConceptClass,
    target_id: int,
    measurement_order: Sequence[int],
    epsilon: float,
) -> tuple[Transcript, list[float]]:
    """Run the mistake-only learner over a stream of measurement indices.

    Returns the transcript plus the learner's estimate at every stream
    position.  Feedback (only on mistake rounds) is the true expectation
    rounded to the epsilon/5 grid, hence within epsilon/10.
    """
    adversary = CyclicAdversary(list(measurement_order))
    tr = run_online_game(
        cls,
        target_id,
        adversary,
        MistakeOnly(epsilon=epsilon),
        T=len(measurement_order),
        seed=0,
    )
    return tr, [r.prediction for r in tr.rounds]


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
