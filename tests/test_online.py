import numpy as np
import pytest

from shatterlab import (
    MistakeOnly,
    StrongFeedback,
    gentle_sample_complexity,
    prediction_grid,
    run_online_game,
    run_weak_forcing_game,
    sfat,
)
from shatterlab.classes import generate_class
from shatterlab.errors import (
    EmptySurvivingSet,
    InvalidFeedback,
    OutOfRange,
    TreeExhausted,
)
from shatterlab.online import (
    NOISES,
    CyclicAdversary,
    RandomAdversary,
    RsoaState,
    WeakTreeAdversary,
    exact_noise,
    extreme_noise,
    uniform_noise,
    rsoa_as_weak_learner,
)
from tests.conftest import make_class


class TestPredict:
    def test_singleton_at_half(self):
        cls = make_class([[0.5]])
        assert RsoaState(cls, 1 / 8).predict(0) == pytest.approx(0.5)

    def test_two_constants_tie(self, two_constants_19):
        # bins 0.25 and 0.75 tie at dimension 0; the mean is 0.5
        assert RsoaState(two_constants_19, 1 / 8).predict(0) == pytest.approx(0.5)

    def test_empty_set_raises(self, two_constants_19):
        state = RsoaState(two_constants_19, 1 / 8)
        state.mask = 0
        with pytest.raises(EmptySurvivingSet):
            state.predict(0)

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
    state = RsoaState(cls, zeta, strict=False)
    state.mask = state.cache.mask_of_ids(ids)
    state.update(x, feedback)
    return state.surviving_ids


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
            cls, 0, RandomAdversary(2), StrongFeedback(1 / 8, exact_noise), 50, seed=1
        )
        assert tr.mistakes == 0

    def test_two_constants_first_round(self, two_constants_19):
        tr = run_online_game(
            two_constants_19,
            0,
            CyclicAdversary([0]),
            StrongFeedback(1 / 8, exact_noise),
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
            bound = sfat(cls, None, 2 * zeta).dimension
            for noise in NOISES.values():
                tr = run_online_game(
                    cls,
                    int(rng.integers(nc)),
                    RandomAdversary(nx),
                    StrongFeedback(zeta, noise),
                    60,
                    seed=trial,
                )
                assert tr.mistakes <= bound

    def test_zeta_consistency_invariant(self):
        # after the game, every survivor agrees with every feedback within zeta
        zeta = 1 / 8
        cls = generate_class(3, 8, zeta, seed=77)
        tr = run_online_game(
            cls, 0, RandomAdversary(3), StrongFeedback(zeta, uniform_noise), 40, seed=5
        )
        final_state = RsoaState(cls, zeta)
        for r in tr.rounds:
            final_state.update(r.x, r.feedback)
        for cid in final_state.surviving_ids:
            for r in tr.rounds:
                assert abs(cls.by_id(cid).values[r.x] - r.feedback) < zeta

    def test_target_survives_every_round(self):
        zeta = 1 / 8
        for trial in range(10):
            cls = generate_class(3, 10, zeta, seed=2000 + trial)
            tr = run_online_game(
                cls,
                1,
                RandomAdversary(3),
                StrongFeedback(zeta, extreme_noise),
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
                RandomAdversary(3),
                StrongFeedback(zeta, exact_noise),
                30,
                seed=trial,
            )
            # replay the game's rounds to see every round's maximizers
            state = RsoaState(cls, zeta)
            spreads = []
            for r in tr.rounds:
                y_hat, maxs = state.predict_with_maximizers(r.x)
                assert y_hat == r.prediction
                spreads.append(max(maxs) - min(maxs))
                state.update(r.x, r.feedback)
            assert max(spreads) <= 4 * zeta + 1e-12

    def test_surviving_set_never_grows(self):
        zeta = 1 / 8
        for trial in range(8):
            cls = generate_class(3, 10, zeta, seed=6000 + trial)
            tr = run_online_game(
                cls,
                0,
                RandomAdversary(3),
                StrongFeedback(zeta, uniform_noise),
                40,
                seed=trial,
            )
            sizes = [tr.rounds[0].v_before] + [r.v_after for r in tr.rounds]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_determinism(self):
        zeta = 1 / 8
        cls = generate_class(4, 10, zeta, seed=55)
        a = run_online_game(
            cls, 2, RandomAdversary(4), StrongFeedback(zeta, uniform_noise), 50, seed=9
        )
        b = run_online_game(
            cls, 2, RandomAdversary(4), StrongFeedback(zeta, uniform_noise), 50, seed=9
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
                CyclicAdversary([0]),
                StrongFeedback(1 / 8, bad_noise),
                3,
                seed=0,
            )

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
        res = sfat(four_constants, None, 1 / 6)
        adv = WeakTreeAdversary(res.witness)
        out = run_weak_forcing_game(
            four_constants, adv, rsoa_as_weak_learner(four_constants, 1 / 4), 1 / 6
        )
        assert out.claimed_mistakes == res.dimension == 2
        assert out.all_claims_valid

    def test_forces_depth_against_constant(self, four_constants):
        res = sfat(four_constants, None, 1 / 6)
        adv = WeakTreeAdversary(res.witness)
        out = run_weak_forcing_game(four_constants, adv, lambda x: 0.5, 1 / 6)
        assert out.claimed_mistakes == 2
        assert out.all_claims_valid

    def test_depth_zero_commits_immediately(self):
        cls = make_class([[0.5]])
        res = sfat(cls, None, 1 / 4)
        adv = WeakTreeAdversary(res.witness)
        out = run_weak_forcing_game(cls, adv, lambda x: 0.5, 1 / 4)
        assert out.claimed_mistakes == 0
        assert out.committed_target == 0

    def test_exhausted_adversary_raises(self, four_constants):
        res = sfat(four_constants, None, 1 / 6)
        adv = WeakTreeAdversary(res.witness)
        run_weak_forcing_game(four_constants, adv, lambda x: 0.5, 1 / 6)
        with pytest.raises(TreeExhausted):
            adv.next_point()


def one_mistake_only_round(cls, target_id, epsilon):
    tr = run_online_game(
        cls, target_id, CyclicAdversary([0]), MistakeOnly(epsilon), T=1, seed=0
    )
    return tr.rounds[0]


class TestMistakeOnly:
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
            bound = sfat(cls, None, 2 * eps / 5).dimension
            tr = run_online_game(
                cls,
                target,
                RandomAdversary(3),
                MistakeOnly(epsilon=eps),
                80,
                seed=trial,
            )
            assert tr.updates <= bound
            assert tr.mistakes <= bound
            # non-mistake rounds left the surviving set untouched
            for r in tr.rounds:
                if not r.mistake:
                    assert r.v_after == r.v_before


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
        state = RsoaState(two_constants_19, 1 / 8, strict=False)
        for xi, y in [(0, 0.1), (0, 0.1)]:
            state.update(xi, y)
        hyp = state.final_hypothesis()
        tr = run_online_game(
            two_constants_19,
            0,
            CyclicAdversary([0]),
            StrongFeedback(1 / 8, exact_noise),
            2,
            seed=0,
        )
        assert hyp.values == tr.final_hypothesis.values

