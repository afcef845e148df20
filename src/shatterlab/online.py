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
At zeta = epsilon/5 it drives the shadow-estimation stream.  A game runs as
epochs, runs of rounds from one surviving mask, each ended by the first round
whose feedback can shrink it: a drawless noise's feedback is evaluated once
per epoch and point, and uniform noise's is replayed from the generator's raw
words as one array.  The learner reads the class's values as Python floats.
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
    bin_midpoints,
    round_to_grid,
    _grid_order,
    _is_index,
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
        # bin membership masks depend only on (x, r): precompute once
        self.bin_masks = [
            [sum(1 << row for row, v in enumerate(col) if abs(v - r) < radius) for r in self.grid]
            for col in self.cache.cols
        ]
        self._hypotheses: dict[int, Concept] = {}
        self._keep: dict[int, list[int]] = {}

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
        """The prediction at xi from `mask`; a game asks once per epoch and point."""
        return self.predict_with_maximizers(mask, xi)[0]

    def update(self, mask: int, xi: int, feedback: float) -> int:
        """The rows of `mask` within the open zeta-ball of `feedback` at xi."""
        if not 0.0 <= feedback <= 1.0:
            raise OutOfRange(f"feedback {feedback} outside [0,1]")
        col = self.cache.cols[xi]
        new = 0
        while mask:
            low = mask & -mask
            if abs(col[low.bit_length() - 1] - feedback) < self.zeta:
                new |= low
            mask ^= low
        return new

    def keep_rows(self, target_id: int) -> list[int]:
        """keep[x] = update(full, x, target(x)) for the class member target_id.

        An update only intersects the mask with the rows near its label, so
        `mask & keep[x]` is update(mask, x, target(x)): a block labelled by
        the target folds its points without an update each.  Built once per
        target, at one update per domain point.
        """
        keep = self._keep.get(target_id)
        if keep is None:
            full = self.cache.full_mask()
            values = self.cls.by_id(target_id).values
            keep = self._keep[target_id] = [self.update(full, x, y) for x, y in enumerate(values)]
        return keep

    @functools.cached_property
    def bins(self) -> tuple[float, ...]:
        """The zeta-bin midpoints that label the curated sampler's injected
        examples (stability.sample_ext), built on first use, so a game builds
        none."""
        return bin_midpoints(self.zeta)

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
    return float(_uniform_feedback(c_val, zeta, rng.random()))


def _uniform_feedback(c_val, zeta, u):
    """uniform_noise's feedback from its draw u = random(), on floats or arrays."""
    # rng.uniform(-zeta, zeta) computes low + (high - low) * random(), and
    # high - low is 2*zeta exactly: the same double, without its call cost
    offset = -zeta + 2.0 * zeta * u
    offset = offset * np.where(abs(offset) >= zeta, 1.0 - 1e-9, 1.0)
    return np.minimum(1.0, np.maximum(0.0, c_val + offset))


def _uniform_rounds(raw: Callable[[int], np.ndarray], d: int, T: int):
    """The points and uniforms of T rounds of `integers(d)` then `random()` on a
    fresh PCG64, from its raw 64-bit words `raw(n)`, by `seeding.Draws`'s rules
    for all rounds at once: a word's index counts the fetching halves and the
    rounds that ended before it.  With no rejection, rounds 2i and 2i+1 read
    words 3i (both halves), 3i+1 and 3i+2, and a rejection shifts the rest by
    a half.
    """
    u64 = np.uint64  # numpy 1.24 casts a uint64 shifted by a Python int to float
    if d == 1:
        return np.zeros(T, np.intp), (raw(T) >> u64(11)) * 2.0**-53
    t = np.arange(T)
    j, words = t.copy(), np.zeros(0, u64)  # the half each round keeps
    while True:  # once per rejection
        fetched = j // 2 + np.searchsorted(j, j - j % 2)  # j - j % 2 fetched the word
        whole = j // 2 + 1 + t
        words = np.concatenate([words, raw(max(0, whole[-1] + 1 - words.size))])
        m = words.astype("<u8").view("<u4")[2 * fetched + j % 2].astype(u64) * u64(d)
        if not (rejected := m.astype(np.uint32) < 2**32 % d).any():
            return (m >> u64(32)).astype(np.intp), (words[whole] >> u64(11)) * 2.0**-53
        j[rejected.argmax():] += 1


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


class Epoch(NamedTuple):
    """Rounds start..end-1, played from one surviving mask; only the last may change it."""

    start: int
    end: int
    mask: int
    mask_after: int
    #: x -> (prediction, feedback, mistake) at `mask`; the feedback is None in a drawing
    #: game, whose `Transcript.feedback` holds it round by round
    rows: dict[int, tuple[float, Optional[float], bool]]


@dataclass
class Transcript:
    """Full audit record of one online game, as columns: the point of every
    round, the epochs, and a drawing game's feedback round by round."""

    sfat_bound: int
    points: list[int] = field(default_factory=list)
    epochs: list[Epoch] = field(default_factory=list)
    feedback: Optional[list[Optional[float]]] = None
    final_hypothesis: Optional[Concept] = None

    def table(self, row: Callable) -> list:
        """`row(x, prediction, feedback, mistake, v_before, v_after)` of each round, in
        order, called once per epoch and point and once for the round that changes the
        mask.  A drawing game's rows get None for the feedback drawn each round."""
        out = []
        for ep in self.epochs:
            v, xs = ep.mask.bit_count(), self.points[ep.start:ep.end]
            cells = {x: row(x, *r, v, v) for x, r in ep.rows.items()}
            out += map(cells.__getitem__, xs)
            if ep.mask_after != ep.mask:
                out[-1] = row(xs[-1], *ep.rows[xs[-1]], v, ep.mask_after.bit_count())
        return out

    @property
    def rounds(self) -> list[Round]:
        """The rounds, built from the columns on each read."""
        rounds = [Round(t, *r) for t, r in enumerate(self.table(lambda *r: r))]
        if self.feedback is None:
            return rounds
        return [r._replace(feedback=fb) for r, fb in zip(rounds, self.feedback)]

    @property
    def mistakes(self) -> int:
        return sum(self.points[ep.start:ep.end].count(x)
                   for ep in self.epochs for x, (_, _, mistake) in ep.rows.items() if mistake)

    @property
    def updates(self) -> int:
        return sum(ep.mask_after != ep.mask for ep in self.epochs)


def run_online_game(
    cls: ConceptClass,
    target_id: int,
    points: Optional[Sequence[int]],
    zeta: float,
    noise: Noise,
    T: int,
    seed: int,
) -> Transcript:
    """Play T >= 1 rounds at accuracy zeta, counting mistakes at 5*zeta.

    `points` is None for a uniformly random domain point each round, or a
    nonempty sequence of domain indices played in order, cycling.  `noise` is
    a `NOISES` value or `mistake_only_noise`, else OutOfRange; each round's
    feedback is `noise(c_val, y_hat, zeta, rng)`, and None means none.  The
    harness validates the noise contract on every feedback and treats an
    emptied surviving set as an InvalidFeedback fault: with in-contract
    feedback the target survives every update.

    The rounds are played as epochs, each ended by the first round whose
    feedback lies outside [0, 1] or zeta or more from the lowest or highest
    surviving value at x: fl(v - feedback) is monotone in v, so otherwise
    every row stays, and only that round calls `update`.  A drawless noise's
    feedback depends on (mask, x) alone: an epoch evaluates it once per point,
    in the order of first occurrence, up to the first that ends it.  A
    `uniform_noise` game replays its draws from the generator's raw words.
    """
    d = cls.domain_size
    if points is not None and not (len(points) and all(_is_index(x, d) for x in points)):
        raise OutOfRange(f"points must be a nonempty sequence of domain indices in [0, {d})")
    if T < 1:
        raise OutOfRange(f"T={T}: a game plays at least one round")
    if noise is not mistake_only_noise and noise not in NOISES.values():
        raise OutOfRange(f"noise {noise!r} is neither a NOISES value nor mistake_only_noise")
    rng = child_rng(seed, 0)
    values = cls.by_id(target_id).values
    threshold = 5.0 * zeta
    state = RsoaState(cls, zeta)
    tr = Transcript(sfat_bound=state.mistake_bound())

    def feed(mask: int, xi: int, feedback: float, shrinks: bool = True) -> int:
        """The mask after in-contract feedback at xi; `update` runs only if it `shrinks`."""
        if abs(feedback - values[xi]) > zeta + 1e-12:
            raise InvalidFeedback(
                f"noise {noise.__name__} produced |c_hat - c| = "
                f"{abs(feedback - values[xi])} > zeta = {zeta}"
            )
        if shrinks and (mask := state.update(mask, xi, feedback)) == 0:
            raise InvalidFeedback(
                f"update at x={xi} with feedback {feedback} wiped the surviving set; "
                "valid feedback never eliminates the target"
            )
        return mask

    mask = state.cache.full_mask()
    xs = None if points is None else (list(points) * -(-T // len(points)))[:T]
    drawn = noise is uniform_noise
    if drawn:
        replayed, u = _uniform_rounds(rng.bit_generator.random_raw, d if xs is None else 1, T)
        at = replayed if xs is None else np.array(xs)
        xs, c = at.tolist(), np.array(values)[at]
        fb = _uniform_feedback(c, zeta, u)
        fbs = tr.feedback = fb.tolist()
        if (bad := np.flatnonzero(abs(fb - c) > zeta + 1e-12)).size:
            feed(mask, xs[bad[0]], fbs[bad[0]], False)
    elif xs is None:  # the stream's only draws: one call takes what T scalar calls take
        xs = rng.integers(d, size=T).tolist()
    tr.points = xs

    def keeps(lo, hi, f):  # on floats or arrays: no row of the epoch's mask leaves
        return (0.0 <= f) & (f <= 1.0) & (abs(lo - f) < zeta) & (abs(hi - f) < zeta)

    start = 0
    while start < T:
        end, after, rows = T, mask, {}
        alive = [i for i in range(len(cls)) if mask >> i & 1]
        if drawn:
            vals, now = cls.table[alive], at[start:]
            if (cut := np.flatnonzero(~keeps(vals.min(0)[now], vals.max(0)[now], fb[start:]))).size:
                end = start + int(cut[0]) + 1
                after = feed(mask, xs[end - 1], fbs[end - 1])
        for xi in dict.fromkeys(xs[start:end]):  # in the order of first occurrence
            y_hat = state.predict(mask, xi)
            f = None if drawn else noise(values[xi], y_hat, zeta, rng)
            rows[xi] = (y_hat, f, abs(y_hat - values[xi]) > threshold)
            if f is not None:
                near = [state.cache.cols[xi][i] for i in alive]
                if (after := feed(mask, xi, f, not keeps(min(near), max(near), f))) != mask:
                    end = xs.index(xi, start) + 1
                    break
        tr.epochs.append(Epoch(start, end, mask, after, rows))
        mask, start = after, end
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
# Shadow estimation stream
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
