"""Robust online learning: the super-bin learner and its games.

The learner (parameter zeta) keeps the set of concepts consistent with all
feedback so far, as a surviving mask over the class's rows that its callers
pass in and get back.  To predict at x it scores every super-bin of the
interleaved 2*zeta cover by the sfat dimension (at margin 2*zeta) of the
surviving concepts mapping into that bin, and answers the mean of the
maximizing midpoints; empty bins score -1 so they never tie with populated
ones.  On feedback c_hat it keeps exactly the concepts within the open
zeta-ball of c_hat.  With feedback accurate to zeta, rounds with
|prediction - truth| > 5*zeta never exceed sfat at margin 2*zeta of the class.

A game takes zeta and a noise, the adversary's feedback rule.  Its points are
a list to cycle through, or uniformly random points; the forcing game walks a
shattering tree.  Mistake-only play is the noise `mistake_only_noise`: the
zeta-grid rounding, given only on rounds with |prediction - truth| > 5*zeta.
At zeta = epsilon/5 it drives the shadow-estimation stream.  A game whose
feedback draws nothing replays each repeated (surviving mask, x) round from a
cache.  The learner reads the class's values as Python floats.
"""

from __future__ import annotations

import functools
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
from .errors import InvalidFeedback, OutOfRange
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
    """The learner's fixed tables for one class at accuracy zeta, plus memos.

    The learner's state is its surviving mask (bit i set: row i of the class
    is still consistent), which every method takes and `update` returns.  An
    empty mask predicts the all-bins tie, whose mean is the grid's midpoint.
    """

    def __init__(self, cls: ConceptClass, zeta: float):
        self.cls = cls
        self.zeta = float(zeta)
        self.cache = SfatCache(cls, 2.0 * self.zeta)
        self.grid = prediction_grid(self.zeta)
        radius = 2.0 * self.zeta
        # each point's values as Python floats: the table's doubles, no numpy scalars
        self.cols = cls.table.T.tolist()
        # bin membership masks depend only on (x, r): precompute once
        self.bin_masks = [
            [sum(1 << row for row, v in enumerate(col) if abs(v - r) < radius) for r in self.grid]
            for col in self.cols
        ]
        self._predictions: dict[tuple[int, int], float] = {}
        self._hypotheses: dict[int, Concept] = {}

    def mistake_bound(self) -> int:
        """sfat at margin 2*zeta of the whole class: the bound on the
        learner's 5*zeta-mistakes, and G's level cap d."""
        return self.cache.dimension_of_mask(self.cache.full_mask())

    def predict_with_maximizers(self, mask: int, xi: int) -> tuple[float, list[float]]:
        best = None
        maximizers: list[float] = []
        for r, bmask in zip(self.grid, self.bin_masks[xi]):
            score = self.cache.score(mask & bmask)
            if best is None or score > best:
                best = score
                maximizers = [r]
            elif score == best:
                maximizers.append(r)
        return sum(maximizers) / len(maximizers), maximizers

    def predict(self, mask: int, xi: int) -> float:
        """The prediction at xi from `mask`, computed once per (mask, xi).
        The masks of a game form a chain, so a game adds at most
        (len(cls) + 1) * domain_size answers."""
        key = (mask, xi)
        y_hat = self._predictions.get(key)
        if y_hat is None:
            y_hat = self._predictions[key] = self.predict_with_maximizers(mask, xi)[0]
        return y_hat

    def update(self, mask: int, xi: int, feedback: float) -> int:
        """The rows of `mask` within the open zeta-ball of `feedback` at xi."""
        if not 0.0 <= feedback <= 1.0:
            raise OutOfRange(f"feedback {feedback} outside [0,1]")
        col = self.cols[xi]
        new = 0
        while mask:
            low = mask & -mask
            if abs(col[low.bit_length() - 1] - feedback) < self.zeta:
                new |= low
            mask ^= low
        return new

    def final_hypothesis(self, mask: int) -> Concept:
        """The prediction rule over the whole domain, materialized (id -1).

        The rule depends on nothing but the surviving mask, so each mask's
        hypothesis is built once.
        """
        hyp = self._hypotheses.get(mask)
        if hyp is None:
            hyp = Concept(
                id=-1, values=tuple(self.predict(mask, x) for x in range(self.cls.domain_size))
            )
            self._hypotheses[mask] = hyp
        return hyp


# ---------------------------------------------------------------------------
# Noises
# ---------------------------------------------------------------------------

#: a noise maps (c_val, y_hat, zeta, rng) to feedback c_hat with
#: |c_hat - c_val| <= zeta, inside [0, 1], or to None for no feedback
Noise = Callable[[float, float, float, np.random.Generator], Optional[float]]


def exact_noise(c_val, y_hat, zeta, rng):
    return c_val


def grid_noise(c_val, y_hat, zeta, rng):
    """Deterministic rounding to the zeta-grid midpoints (error <= zeta/2)."""
    return round_to_grid(c_val, zeta)


def uniform_noise(c_val, y_hat, zeta, rng):
    # rng.uniform(-zeta, zeta) computes low + (high - low) * random(), and
    # high - low is 2*zeta exactly: the same double, without its call cost
    offset = -zeta + 2.0 * zeta * rng.random()
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


def mistake_only_noise(c_val, y_hat, zeta, rng):
    """The zeta-grid rounding (error <= zeta/2), given only on rounds with a
    5*zeta-mistake; no feedback otherwise."""
    if abs(y_hat - c_val) <= 5.0 * zeta:
        return None
    feedback = round_to_grid(c_val, zeta)
    if abs(feedback - c_val) > zeta / 2 + 1e-12:
        raise InvalidFeedback("mistake-only feedback out of contract")
    return feedback


#: the noises that never read their generator (a tuple: `in` needs no hash)
DRAWLESS_NOISES = (exact_noise, grid_noise, extreme_noise, mistake_only_noise)


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

    sfat_bound: int
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
    points: Optional[Sequence[int]],
    zeta: float,
    noise: Noise,
    T: int,
    seed: int,
) -> Transcript:
    """Play T rounds at accuracy zeta, counting mistakes at 5*zeta.

    `points` is None for a uniformly random domain point each round, or a
    nonempty sequence of domain indices played in order, cycling.  Each
    round's feedback is `noise(c_val, y_hat, zeta, rng)`; None means none.
    The harness validates the noise contract on every feedback and treats an
    emptied surviving set as an InvalidFeedback fault — with in-contract
    feedback the target survives every update.
    """
    d = cls.domain_size
    if points is not None and not (
        len(points) and all(isinstance(x, (int, np.integer)) and 0 <= x < d for x in points)
    ):
        raise OutOfRange(f"points must be a nonempty sequence of domain indices in [0, {d})")
    rng = child_rng(seed, 0)
    target = cls.by_id(target_id)
    threshold = 5.0 * zeta
    state = RsoaState(cls, zeta)
    tr = Transcript(sfat_bound=state.mistake_bound())

    def step(mask: int, xi: int) -> tuple[float, Optional[float], bool, int, int]:
        y_hat = state.predict(mask, xi)
        c_val = target.values[xi]
        mistake = abs(y_hat - c_val) > threshold
        feedback = noise(c_val, y_hat, zeta, rng)
        if feedback is not None:
            if abs(feedback - c_val) > zeta + 1e-12:
                raise InvalidFeedback(
                    f"noise {getattr(noise, '__name__', noise)} produced |c_hat - c| = "
                    f"{abs(feedback - c_val)} > zeta = {zeta}"
                )
            mask = state.update(mask, xi, feedback)
            if mask == 0:
                raise InvalidFeedback(
                    f"update at x={xi} with feedback {feedback} wiped the surviving set; "
                    "valid feedback never eliminates the target"
                )
        return y_hat, feedback, mistake, mask, mask.bit_count()

    drawless = noise in DRAWLESS_NOISES
    if drawless:
        # a round that reads no generator depends on (mask, xi) alone, so a
        # repeat skips no draw; a new key runs every check, on its own round
        step = functools.cache(step)
    if points is not None:
        xs = (points[t % len(points)] for t in range(T))
    elif drawless:
        # the points are the stream's only draws, and one call takes what T
        # scalar calls take: PCG64 serves bounded ints from its buffered
        # 32-bit halves either way
        xs = rng.integers(d, size=max(T, 0)).tolist()
    else:  # drawn round by round, between the noise's draws
        xs = (int(rng.integers(d)) for _ in range(T))
    mask = state.cache.full_mask()
    v_after = mask.bit_count()
    for t, xi in enumerate(xs):
        v_before = v_after
        y_hat, feedback, mistake, mask, v_after = step(mask, xi)
        tr.rounds.append(Round(t, xi, y_hat, feedback, mistake, v_before, v_after))
    tr.final_hypothesis = state.final_hypothesis(mask)
    return tr


@dataclass(frozen=True)
class WeakForcingResult:
    claimed_mistakes: int
    committed_target: int
    all_claims_valid: bool
    rounds: tuple[tuple[int, float, bool], ...]  # (x, prediction, went_right)


def run_weak_forcing_game(
    cls: ConceptClass,
    witness: ShatterTree,
    learner: Callable[[int], float],
    zeta: float,
) -> WeakForcingResult:
    """Walk a shattering tree against any learner, claiming a mistake every
    round, then validate the claims.

    At node (x, a): present x; if the learner predicts below a, claim the
    truth is above and descend right, else claim below and descend left.  At
    the leaf, commit to its witness concept and check each claim against it
    (predict-below-threshold rounds need the concept at least zeta above the
    prediction, and symmetrically), so the count of claimed rounds is a
    certified lower bound on the learner's zeta-mistakes.
    """
    node = witness
    rounds = []
    while not node.is_leaf:
        y_hat = learner(node.x)
        went_right = y_hat < node.a
        rounds.append((node.x, y_hat, went_right))
        node = node.right if went_right else node.left
    target = cls.by_id(node.leaf)
    valid = True
    for xi, y_hat, went_right in rounds:
        gap = target.values[xi] - y_hat if went_right else y_hat - target.values[xi]
        if gap < zeta - 1e-12:
            valid = False
    return WeakForcingResult(
        claimed_mistakes=len(rounds),
        committed_target=node.leaf,
        all_claims_valid=valid,
        rounds=tuple(rounds),
    )


def rsoa_as_weak_learner(cls: ConceptClass, zeta: float) -> Callable[[int], float]:
    """The super-bin predictor on the full class; weak feedback is unusable
    for its ball update, so the set never shrinks."""
    state = RsoaState(cls, zeta)
    return functools.partial(state.predict, state.cache.full_mask())


# ---------------------------------------------------------------------------
# Shadow estimation stream and its sample-complexity calculator
# ---------------------------------------------------------------------------

def run_shadow_stream(
    cls: ConceptClass,
    target_id: int,
    measurement_order: Sequence[int],
    epsilon: float,
) -> Transcript:
    """Run the mistake-only learner at zeta = epsilon/5 over a stream of
    measurement indices; each round's `prediction` is the learner's estimate.

    Feedback (only on epsilon-mistake rounds) is the true expectation rounded
    to the epsilon/5 grid, hence within epsilon/10.
    """
    return run_online_game(
        cls,
        target_id,
        measurement_order,
        epsilon / 5.0,
        mistake_only_noise,
        T=len(measurement_order),
        seed=0,
    )


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
