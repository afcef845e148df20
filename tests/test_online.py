import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterlab import (
    gentle_sample_complexity,
    mistake_only_noise,
    prediction_grid,
    run_online_game,
    run_shadow_stream,
    run_weak_forcing_game,
    sfat,
)
from shatterlab.classes import generate_class
from shatterlab.concepts import round_to_grid
from shatterlab.errors import InvalidFeedback, OutOfRange
from shatterlab.online import (
    DRAWLESS_NOISES,
    NOISES,
    RsoaState,
    exact_noise,
    extreme_noise,
    uniform_noise,
    rsoa_as_weak_learner,
)
from shatterlab.seeding import child_rng
from tests.conftest import make_class


def full_prediction(cls, zeta, x=0):
    state = RsoaState(cls, zeta)
    return state.predict(state.cache.full_mask(), x)


class TestPredict:
    def test_singleton_at_half(self):
        assert full_prediction(make_class([[0.5]]), 1 / 8) == pytest.approx(0.5)

    def test_two_constants_tie(self, two_constants_19):
        # bins 0.25 and 0.75 tie at dimension 0; the mean is 0.5
        assert full_prediction(two_constants_19, 1 / 8) == pytest.approx(0.5)

    def test_empty_mask_predicts_the_all_bins_tie(self):
        # every bin scores the empty-subset sentinel, so all of them tie
        state = RsoaState(make_class([[0.2], [0.6]]), 1 / 10)
        assert state.predict_with_maximizers(0, 0) == (
            pytest.approx(0.5), list(state.grid)
        )
        assert state.final_hypothesis(0).values == (pytest.approx(0.5),)

    def test_grid_for_odd_reciprocal(self):
        assert prediction_grid(1 / 5) == pytest.approx((0.4, 0.8))

    def test_grid_for_even_reciprocal(self):
        assert prediction_grid(1 / 8) == pytest.approx((0.25, 0.5, 0.75))

    def test_grid_spacing_and_coverage(self):
        for n in (4, 5, 6, 8, 10, 16, 32):
            zeta = 1 / n
            grid = prediction_grid(zeta)
            for a, b in zip(grid, grid[1:]):
                assert b - a == pytest.approx(2 * zeta)
            # interior points all within 2*zeta of some midpoint
            for y in np.linspace(zeta, 1 - zeta, 101):
                assert min(abs(y - r) for r in grid) < 2 * zeta + 1e-12

    def test_rejects_oversized_zeta(self):
        with pytest.raises(OutOfRange):
            prediction_grid(1 / 2)


def surviving_after(cls, ids, feedback, zeta=1 / 8, x=0):
    """Surviving ids after one update from the surviving set `ids`."""
    state = RsoaState(cls, zeta)
    mask = state.update(state.cache.mask_of_ids(ids), x, feedback)
    return state.cache.ids_of_mask(mask)


class TestUpdate:
    def test_exact_feedback_keeps_target(self, two_constants_19):
        assert surviving_after(two_constants_19, {0, 1}, 0.1) == {0}

    def test_hand_example(self, two_constants_19):
        assert surviving_after(two_constants_19, {0, 1}, 0.15) == {0}

    def test_can_empty_out(self):
        cls = make_class([[0.2], [0.8]])
        assert surviving_after(cls, {0, 1}, 0.5) == frozenset()

    def test_open_ball_boundary(self):
        cls = make_class([[0.225]])
        # |0.225 - 0.1| = 0.125 = zeta exactly: excluded by the open ball
        assert surviving_after(cls, {0}, 0.1) == frozenset()


class TestStrongGame:
    def test_singleton_never_mistakes(self):
        cls = make_class([[0.3, 0.7]])
        tr = run_online_game(
            cls, 0, None, 1 / 8, exact_noise, 50, seed=1
        )
        assert tr.mistakes == 0

    def test_two_constants_first_round(self, two_constants_19):
        tr = run_online_game(
            two_constants_19,
            0,
            [0],
            1 / 8,
            exact_noise,
            3,
            seed=0,
        )
        assert tr.rounds[0].prediction == pytest.approx(0.5)
        assert tr.mistakes == 0  # |0.5 - 0.1| = 0.4 < 5/8
        assert tr.rounds[0].v_after == 1  # only the target survives

    def test_mistake_bound_random_sweep(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            nx = int(rng.integers(1, 5))
            nc = int(rng.integers(1, 13))
            zeta = 1 / 8
            cls = generate_class(nx, nc, zeta, seed=1000 + trial)
            bound = sfat(cls, 2 * zeta).dimension
            for noise in NOISES.values():
                tr = run_online_game(
                    cls,
                    int(rng.integers(nc)),
                    None,
                    zeta,
                    noise,
                    60,
                    seed=trial,
                )
                assert tr.mistakes <= bound

    def test_zeta_consistency_invariant(self):
        # after the game, every survivor agrees with every feedback within zeta
        zeta = 1 / 8
        cls = generate_class(3, 8, zeta, seed=77)
        tr = run_online_game(
            cls, 0, None, zeta, uniform_noise, 40, seed=5
        )
        state = RsoaState(cls, zeta)
        mask = state.cache.full_mask()
        for r in tr.rounds:
            mask = state.update(mask, r.x, r.feedback)
        for cid in state.cache.ids_of_mask(mask):
            for r in tr.rounds:
                assert abs(cls.by_id(cid).values[r.x] - r.feedback) < zeta

    def test_target_survives_every_round(self):
        zeta = 1 / 8
        for trial in range(10):
            cls = generate_class(3, 10, zeta, seed=2000 + trial)
            tr = run_online_game(
                cls,
                1,
                None,
                zeta,
                extreme_noise,
                40,
                seed=trial,
            )
            assert all(r.v_after >= 1 for r in tr.rounds)

    def test_maximizer_spread_at_most_4zeta(self):
        zeta = 1 / 8
        for trial in range(15):
            cls = generate_class(3, 12, zeta, seed=3000 + trial)
            tr = run_online_game(
                cls,
                0,
                None,
                zeta,
                exact_noise,
                30,
                seed=trial,
            )
            # replay the game's rounds to see every round's maximizers
            state = RsoaState(cls, zeta)
            mask = state.cache.full_mask()
            spreads = []
            for r in tr.rounds:
                y_hat, maxs = state.predict_with_maximizers(mask, r.x)
                assert y_hat == r.prediction
                spreads.append(max(maxs) - min(maxs))
                mask = state.update(mask, r.x, r.feedback)
            assert max(spreads) <= 4 * zeta + 1e-12

    def test_surviving_set_never_grows(self):
        zeta = 1 / 8
        for trial in range(8):
            cls = generate_class(3, 10, zeta, seed=6000 + trial)
            tr = run_online_game(
                cls,
                0,
                None,
                zeta,
                uniform_noise,
                40,
                seed=trial,
            )
            sizes = [tr.rounds[0].v_before] + [r.v_after for r in tr.rounds]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_determinism(self):
        zeta = 1 / 8
        cls = generate_class(4, 10, zeta, seed=55)
        a = run_online_game(
            cls, 2, None, zeta, uniform_noise, 50, seed=9
        )
        b = run_online_game(
            cls, 2, None, zeta, uniform_noise, 50, seed=9
        )
        assert [(r.x, r.prediction, r.feedback) for r in a.rounds] == [
            (r.x, r.prediction, r.feedback) for r in b.rounds
        ]
        assert a.final_hypothesis.values == b.final_hypothesis.values

    def test_invalid_feedback_detected(self, two_constants_19):
        def bad_noise(c_val, y_hat, zeta, rng):
            return min(1.0, c_val + 3 * zeta)

        with pytest.raises(InvalidFeedback):
            run_online_game(
                two_constants_19,
                0,
                [0],
                1 / 8,
                bad_noise,
                3,
                seed=0,
            )

    def test_wiped_set_is_invalid_feedback(self):
        # feedback exactly zeta away passes the contract check, but the
        # update's ball is open, so it eliminates the target
        def edge_noise(c_val, y_hat, zeta, rng):
            return c_val + zeta

        with pytest.raises(InvalidFeedback, match="wiped the surviving set"):
            run_online_game(make_class([[0.25]]), 0, [0], 1 / 8, edge_noise, 3, 0)

    def test_noise_contract_holds(self):
        rng = np.random.default_rng(0)
        zeta = 1 / 8
        for noise in NOISES.values():
            for _ in range(200):
                c = float(rng.uniform())
                y = float(rng.uniform())
                fb = noise(c, y, zeta, rng)
                assert 0.0 <= fb <= 1.0
                assert abs(fb - c) <= zeta

    def test_grid_noise_lands_on_the_zeta_grid(self):
        rng = np.random.default_rng(1)
        for n in (5, 8):
            mids = {(2 * k + 1) / (2 * n) for k in range(n)}
            for c in rng.uniform(size=100):
                assert NOISES["round_to_grid"](float(c), 0.5, 1 / n, rng) in mids


class TestWeakForcing:
    def test_forces_depth_against_rsoa(self, four_constants):
        res = sfat(four_constants, 1 / 6)
        out = run_weak_forcing_game(
            four_constants, res.witness, rsoa_as_weak_learner(four_constants, 1 / 4), 1 / 6
        )
        assert out.claimed_mistakes == res.dimension == 2
        assert out.all_claims_valid

    def test_forces_depth_against_constant(self, four_constants):
        res = sfat(four_constants, 1 / 6)
        out = run_weak_forcing_game(four_constants, res.witness, lambda x: 0.5, 1 / 6)
        assert out.claimed_mistakes == 2
        assert out.all_claims_valid

    def test_depth_zero_commits_immediately(self):
        cls = make_class([[0.5]])
        res = sfat(cls, 1 / 4)
        out = run_weak_forcing_game(cls, res.witness, lambda x: 0.5, 1 / 4)
        assert out.claimed_mistakes == 0
        assert out.committed_target == 0


def one_mistake_only_round(cls, target_id, epsilon):
    tr = run_online_game(
        cls, target_id, [0], epsilon / 5, mistake_only_noise, T=1, seed=0
    )
    return tr.rounds[0]


class TestPoints:
    @pytest.mark.parametrize("points", [[], [-1], [2], [0, 2], [1.0], ["0"]], ids=repr)
    def test_rejects_points_outside_the_domain(self, points):
        cls = make_class([[0.2, 0.6], [0.6, 0.2]])
        with pytest.raises(OutOfRange):
            run_online_game(cls, 0, points, 1 / 8, exact_noise, 3, seed=0)
        with pytest.raises(OutOfRange):
            run_shadow_stream(cls, 0, points, 0.5)

    def test_cycles_through_the_points(self):
        cls = make_class([[0.2, 0.6, 0.4]])
        tr = run_online_game(cls, 0, [2, np.int64(0)], 1 / 8, exact_noise, 5, 0)
        assert [r.x for r in tr.rounds] == [2, 0, 2, 0, 2]


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


class TestWorstCaseAdversary:
    """The mistake bound against every adaptive adversary, not a random one."""

    @pytest.mark.parametrize("zinv,floor", [(8, 5), (12, 15), (16, 15)])
    def test_no_adversary_beats_the_bound(self, zinv, floor):
        violations, with_bound, reached = worst_case_sweep(1 / zinv)
        print(f"zeta=1/{zinv}: worst = bound >= 1 on {reached}/{with_bound} classes")
        assert violations == 0
        assert reached >= floor

    @pytest.mark.parametrize("zinv", [12, 16])
    def test_catches_a_learner_that_always_predicts_half(self, monkeypatch, zinv):
        # at 5*zeta < 1/2 a constant 0.5 can be forced past the bound
        monkeypatch.setattr(RsoaState, "predict", lambda self, mask, x: 0.5)
        assert worst_case_sweep(1 / zinv)[0] >= 30


class TestWorstCaseFeedbackOnMistakes:
    """The update bound of mistake-only play against every point sequence, at
    an epsilon whose 5*zeta = epsilon lies below 1/2."""

    def test_no_point_sequence_beats_the_bound(self):
        violations, reached, targets = worst_case_updates_sweep(1 / 4)
        print(f"epsilon=1/4: worst = bound >= 1 on {reached}/{targets} targets")
        assert violations == 0
        assert reached >= 25

    def test_catches_a_learner_that_always_predicts_half(self, monkeypatch):
        monkeypatch.setattr(RsoaState, "predict", lambda self, mask, x: 0.5)
        assert worst_case_updates_sweep(1 / 4)[0] >= 150


class TestFeedbackOnMistakes:
    def test_non_mistake_round_keeps_set(self):
        cls = make_class([[0.52], [0.48]])
        r = one_mistake_only_round(cls, 0, 0.5)
        # prediction lands within epsilon of the truth
        assert r.v_after == r.v_before == 2

    def test_singleton_never_updates(self):
        cls = make_class([[0.3]])
        r = one_mistake_only_round(cls, 0, 0.5)
        assert r.v_after == 1
        assert abs(r.prediction - 0.3) <= 4 * 0.5 / 5

    def test_updates_bounded_by_sfat(self):
        eps = 0.5
        for trial in range(15):
            cls = generate_class(3, 10, 2 * eps / 5, seed=4000 + trial)
            target = trial % 10
            bound = sfat(cls, 2 * eps / 5).dimension
            tr = run_online_game(
                cls,
                target,
                None,
                eps / 5,
                mistake_only_noise,
                80,
                seed=trial,
            )
            assert tr.updates <= bound
            assert tr.mistakes <= bound
            # non-mistake rounds left the surviving set untouched
            for r in tr.rounds:
                if not r.mistake:
                    assert r.v_after == r.v_before


class TestSfatBound:
    """A transcript's bound is read from the learner's own cache; it equals a
    fresh sfat at the margin each caller used to pass."""

    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.integers(0, 2**20),
        st.sampled_from([1 / 8, 1 / 6, 1 / 4, 1 / 3]),
        st.sampled_from([5 / 16, 1 / 2, 5 / 8, 5 / 6]),
    )
    @settings(max_examples=60)
    def test_equals_sfat_on_generated_classes(self, nx, nc, seed, zeta, eps):
        cls = generate_class(nx, nc, 1 / 4, seed=seed)
        tr = run_online_game(cls, 0, None, zeta, exact_noise, 5, seed=seed)
        assert tr.sfat_bound == sfat(cls, 2 * zeta).dimension
        shadow = run_shadow_stream(cls, 0, list(range(nx)), eps)
        assert shadow.sfat_bound == sfat(cls, 2 * eps / 5).dimension


class TestGentleComplexity:
    def test_pinned_value(self):
        assert gentle_sample_complexity(1, 2, 0.5, 0.5, 1 / np.e) == 16

    def test_quadratic_in_dimension(self):
        base = gentle_sample_complexity(1, 2, 0.5, 0.5, 1 / np.e)
        assert gentle_sample_complexity(2, 2, 0.5, 0.5, 1 / np.e) == 4 * base

    def test_alpha_above_epsilon_uses_epsilon(self):
        assert gentle_sample_complexity(1, 2, 0.5, 0.9, 1 / np.e) == pytest.approx(
            gentle_sample_complexity(1, 2, 0.5, 0.5, 1 / np.e), abs=1
        )

    @pytest.mark.parametrize(
        "args", [(0, 2, 0.5, 0.5, 0.5), (1, 1, 0.5, 0.5, 0.5), (1, 2, 0.5, 0.5, 1.5)]
    )
    def test_validation(self, args):
        with pytest.raises(OutOfRange):
            gentle_sample_complexity(*args)


class TestRunOnSample:
    def test_matches_game_updates(self, two_constants_19):
        state = RsoaState(two_constants_19, 1 / 8)
        mask = state.cache.full_mask()
        for xi, y in [(0, 0.1), (0, 0.1)]:
            mask = state.update(mask, xi, y)
        hyp = state.final_hypothesis(mask)
        tr = run_online_game(
            two_constants_19,
            0,
            [0],
            1 / 8,
            exact_noise,
            2,
            seed=0,
        )
        assert hyp.values == tr.final_hypothesis.values



def reference_game(cls, target_id, points, zeta, noise, T, seed):
    """The plain harness: one scalar draw per point, no prediction memo, and
    mistake-only feedback written out in its own branch.

    Returns (rounds as tuples, final hypothesis values)."""
    rng = child_rng(seed, 0)
    target = cls.by_id(target_id)
    state = RsoaState(cls, zeta)
    mask = state.cache.full_mask()
    rounds = []
    for t in range(T):
        xi = int(rng.integers(cls.domain_size)) if points is None else points[t % len(points)]
        v_before = mask.bit_count()
        y_hat = state.predict_with_maximizers(mask, xi)[0]
        c_val = target.values[xi]
        mistake = abs(y_hat - c_val) > 5 * zeta
        feedback = None
        if noise is not mistake_only_noise:
            feedback = noise(c_val, y_hat, zeta, rng)
            mask = state.update(mask, xi, feedback)
        elif mistake:
            feedback = round_to_grid(c_val, zeta)
            mask = state.update(mask, xi, feedback)
        assert mask, "the plain harness met a wiped surviving set"
        rounds.append((t, xi, y_hat, feedback, mistake, v_before, mask.bit_count()))
    final = tuple(state.predict_with_maximizers(mask, x)[0] for x in range(cls.domain_size))
    return rounds, final


def reference_uniform_noise(c_val, y_hat, zeta, rng):
    """uniform_noise as numpy's own uniform draw writes it."""
    offset = rng.uniform(-zeta, zeta)
    if abs(offset) >= zeta:
        offset *= 1.0 - 1e-9
    return min(1.0, max(0.0, c_val + offset))


def drawing_noise(c_val, y_hat, zeta, rng):
    """A noise that reads its generator between the adversary's draws."""
    return min(1.0, max(0.0, c_val + 0.5 * zeta * (rng.random() - 0.5)))


class TestBatchedGame:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_batched_integers_match_scalar_calls(self, seed):
        for d in range(1, 9):
            for T in (1, 249, 250, 351):
                a, b = child_rng(seed, 0), child_rng(seed, 0)
                assert a.integers(d, size=T).tolist() == [int(b.integers(d)) for _ in range(T)]
                assert a.bit_generator.state == b.bit_generator.state
                assert a.random() == b.random()
                assert a.integers(d) == b.integers(d)
                assert a.bit_generator.state == b.bit_generator.state

    def test_drawless_noises_leave_the_stream_untouched(self):
        assert set(DRAWLESS_NOISES) - {mistake_only_noise} < set(NOISES.values())
        assert mistake_only_noise not in NOISES.values()
        rng = child_rng(3, 0)
        state = rng.bit_generator.state
        for noise in DRAWLESS_NOISES:
            for zeta in (1 / 8, 1 / 5):
                for c_val in (0.0, 0.05, 0.3, 0.5, 0.95, 1.0):
                    for y_hat in (0.0, c_val - 0.2, c_val, c_val + 0.2, 1.0):
                        noise(c_val, min(1.0, max(0.0, y_hat)), zeta, rng)
                        assert rng.bit_generator.state == state
        uniform_noise(0.5, 0.5, 1 / 8, rng)
        assert rng.bit_generator.state != state

    def test_unhashable_noise_plays(self):
        @dataclasses.dataclass
        class Offset:  # eq=True without frozen=True: no __hash__, no __name__
            scale: float

            def __call__(self, c_val, y_hat, zeta, rng):
                return c_val + self.scale * zeta * (1 if c_val < 0.5 else -1)

        cls = generate_class(2, 6, 1 / 8, seed=3)
        tr = run_online_game(cls, 1, None, 1 / 8, Offset(0.5), 50, seed=2)
        assert [tuple(r) for r in tr.rounds] == reference_game(
            cls, 1, None, 1 / 8, Offset(0.5), 50, 2
        )[0]
        with pytest.raises(InvalidFeedback, match="Offset"):
            run_online_game(cls, 1, None, 1 / 8, Offset(3), 5, 2)

    @pytest.mark.parametrize("nx,nc", [(1, 1), (1, 6), (3, 10), (6, 20)])
    def test_game_matches_the_plain_harness(self, nx, nc):
        for zinv in (5, 8):
            zeta = 1 / zinv
            cls = generate_class(nx, nc, zeta, seed=100 * nx + nc)
            noises = [*NOISES.values(), drawing_noise, mistake_only_noise]
            for i, noise in enumerate(noises):
                for points in (None, [nx - 1, 0]):
                    target = i % nc
                    tr = run_online_game(cls, target, points, zeta, noise, 300, seed=i)
                    rounds, final = reference_game(cls, target, points, zeta, noise, 300, i)
                    assert [tuple(r) for r in tr.rounds] == rounds
                    assert tr.final_hypothesis.values == final


class TestUniformNoise:
    """uniform_noise writes out Generator.uniform(low, high): low + (high -
    low) * random(), where high - low = 2*zeta exactly."""

    def test_matches_numpys_uniform_bit_for_bit(self):
        zetas = (1 / 3, 1 / 5, 1 / 8, 1 / 10, 1 / 20, 0.07, 0.3, 1e-6)
        cases = 0
        for seed in range(130):
            for zeta in zetas:
                a, b = child_rng(seed, 0), child_rng(seed, 0)
                for c_val in (0.0, zeta / 2, 0.5, 1.0 - zeta / 3, 1.0):
                    got = uniform_noise(c_val, 0.5, zeta, a)
                    assert got.hex() == reference_uniform_noise(c_val, 0.5, zeta, b).hex()
                assert a.bit_generator.state == b.bit_generator.state
                cases += 1
        assert cases >= 1000

    @pytest.mark.parametrize("nx,nc", [(1, 6), (3, 10), (6, 20)])
    def test_game_matches_the_plain_harness_on_numpys_uniform(self, nx, nc):
        for zinv in (5, 8):
            zeta = 1 / zinv
            cls = generate_class(nx, nc, zeta, seed=10 * nx + nc)
            for seed, points in enumerate((None, [nx - 1, 0])):
                target = seed % nc
                tr = run_online_game(cls, target, points, zeta, uniform_noise, 300, seed=seed)
                rounds, final = reference_game(
                    cls, target, points, zeta, reference_uniform_noise, 300, seed
                )
                assert [tuple(r) for r in tr.rounds] == rounds
                assert tr.final_hypothesis.values == final


def reference_bin_masks(cls, zeta):
    """Each (x, super-bin) membership mask, read off cls.table with numpy."""
    inside = np.abs(cls.table[:, :, None] - np.array(prediction_grid(zeta))) < 2.0 * zeta
    return [
        [sum(1 << int(row) for row in np.flatnonzero(inside[:, x, k]))
         for k in range(inside.shape[2])]
        for x in range(cls.domain_size)
    ]


def reference_update(cls, zeta, mask, xi, feedback):
    near = np.abs(cls.table[:, xi] - feedback) < zeta
    return mask & sum(1 << int(row) for row in np.flatnonzero(near))


@st.composite
def boundary_classes(draw):
    """(zeta, class, feedback, x, mask) with values placed exactly zeta and
    2*zeta from the feedback and from the super-bin midpoints."""
    zeta = 1 / draw(st.integers(3, 12))
    feedback = draw(st.floats(0.0, 1.0))
    centres = (*prediction_grid(zeta), feedback)
    edges = sorted({v for c in centres for off in (zeta, 2.0 * zeta)
                    for v in (c - off, c + off) if 0.0 <= v <= 1.0})
    value = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)) if edges else st.floats(0.0, 1.0)
    nx, nc = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(value, min_size=nx, max_size=nx), min_size=nc, max_size=nc))
    xi, mask = draw(st.integers(0, nx - 1)), draw(st.integers(0, 2**nc - 1))
    return zeta, make_class(rows), feedback, xi, mask


class TestFloatTables:
    """The learner's Python-float columns are the table's doubles."""

    @settings(max_examples=200)
    @given(boundary_classes())
    def test_bin_masks_and_update_match_the_numpy_table(self, case):
        zeta, cls, feedback, xi, mask = case
        state = RsoaState(cls, zeta)
        assert state.bin_masks == reference_bin_masks(cls, zeta)
        assert state.update(mask, xi, feedback) == reference_update(cls, zeta, mask, xi, feedback)
        full = state.cache.full_mask()
        for x in range(cls.domain_size):
            for y in cls.table[:, x].tolist():
                assert state.update(full, x, y) == reference_update(cls, zeta, full, x, y)

    def test_boundary_values_fall_outside_the_open_balls(self):
        # a value exactly zeta from the feedback, or 2*zeta from a midpoint,
        # is outside the open ball in both the floats and the table
        zeta = 1 / 8
        r = prediction_grid(zeta)[1]
        cls = make_class([[0.5 - zeta], [0.5 + zeta], [r + 2 * zeta], [0.5]])
        state = RsoaState(cls, zeta)
        assert state.update(0b1111, 0, 0.5) == reference_update(cls, zeta, 0b1111, 0, 0.5) == 0b1000
        assert state.bin_masks == reference_bin_masks(cls, zeta)
        assert not state.bin_masks[0][1] & 0b0100


class TestPredictionMemo:
    def test_memo_matches_fresh_predictions(self):
        zeta = 1 / 8
        cls = generate_class(4, 16, zeta, seed=8)
        state = RsoaState(cls, zeta)
        rng = np.random.default_rng(4)
        masks = [state.cache.full_mask()]
        for _ in range(6):
            mask = masks[-1]
            for x in range(4):
                assert state.predict(mask, x) == state.predict_with_maximizers(mask, x)[0]
            masks.append(state.update(mask, int(rng.integers(4)), float(cls.concepts[3].values[0])))
        # masks revisited out of order, as the stability sampler does
        for mask in masks[::-1] + [int(rng.integers(1, 1 << 16)), 0]:
            for x in range(4):
                assert state.predict(mask, x) == state.predict_with_maximizers(mask, x)[0]


def recording(monkeypatch, name):
    """Record (mask, x) of every call of RsoaState.<name> from here on."""
    calls = []
    original = getattr(RsoaState, name)

    def wrapper(self, mask, xi, *args):
        calls.append((mask, xi))
        return original(self, mask, xi, *args)

    monkeypatch.setattr(RsoaState, name, wrapper)
    return calls


def distinct_keys(tr):
    """The (mask, x) keys of a transcript's rounds: updates shrink the mask
    along a chain, so the surviving count names the mask."""
    return {(r.v_before, r.x) for r in tr.rounds}


class TestStepMemo:
    @pytest.mark.parametrize("noise", DRAWLESS_NOISES, ids=lambda n: n.__name__)
    def test_drawless_game_updates_once_per_mask_and_point(self, monkeypatch, noise):
        zeta = 1 / 8
        cls = generate_class(3, 12, zeta, seed=5)
        updates = recording(monkeypatch, "update")
        for points in (None, [2, 0, 1]):
            updates.clear()
            tr = run_online_game(cls, 4, points, zeta, noise, 300, seed=3)
            feedback_keys = {(r.v_before, r.x) for r in tr.rounds if r.feedback is not None}
            assert len(updates) == len(set(updates)) == len(feedback_keys)
            assert len(updates) < len(tr.rounds)

    @pytest.mark.parametrize("noise", [uniform_noise, drawing_noise], ids=lambda n: n.__name__)
    def test_drawing_game_updates_every_round(self, monkeypatch, noise):
        zeta = 1 / 8
        cls = generate_class(3, 12, zeta, seed=5)
        updates = recording(monkeypatch, "update")
        for points in (None, [2, 0, 1]):
            updates.clear()
            tr = run_online_game(cls, 4, points, zeta, noise, 300, seed=3)
            assert len(updates) == len(tr.rounds) == 300

    def test_mistake_only_game_is_memoized(self, monkeypatch):
        cls = generate_class(4, 16, 1 / 10, seed=0)
        predicts = recording(monkeypatch, "predict")
        updates = recording(monkeypatch, "update")
        tr = run_online_game(cls, 3, [0, 1, 2, 3], 0.2 / 5, mistake_only_noise, 300, seed=0)
        mistake_keys = {(r.v_before, r.x) for r in tr.rounds if r.mistake}
        assert 0 < len(updates) == len(set(updates)) == len(mistake_keys)
        # one prediction per key, and the final hypothesis's at most one per point
        assert len(predicts) <= len(distinct_keys(tr)) + cls.domain_size < len(tr.rounds)
