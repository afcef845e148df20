import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterlab import (
    mistake_only_noise,
    prediction_grid,
    run_online_game,
    run_shadow_stream,
    run_weak_forcing_game,
    sfat,
)
from shatterlab import online
from shatterlab.classes import generate_class
from shatterlab.concepts import bin_midpoints, round_to_grid
from shatterlab.errors import InvalidFeedback, OutOfRange
from shatterlab.online import (
    NOISES,
    RsoaState,
    exact_noise,
    extreme_noise,
    grid_noise,
    uniform_noise,
    rsoa_as_weak_learner,
)
from shatterlab.seeding import child_rng
from tests.conftest import ids_of_mask, make_class, mask_of_ids
from tests.oracles import (
    crafted_rng,
    gentle_sample_complexity,
    worst_case_sweep,
    worst_case_updates_sweep,
)


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
    return ids_of_mask(cls, state.update(mask_of_ids(cls, ids), x, feedback))


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
        for cid in ids_of_mask(cls, mask):
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

    def test_invalid_feedback_detected(self, monkeypatch, two_constants_19):
        def bad_noise(c_val, y_hat, zeta, rng):
            return min(1.0, c_val + 3 * zeta)

        monkeypatch.setitem(NOISES, "exact", bad_noise)
        with pytest.raises(InvalidFeedback, match="noise bad_noise produced"):
            run_online_game(
                two_constants_19,
                0,
                [0],
                1 / 8,
                bad_noise,
                3,
                seed=0,
            )

    def test_wiped_set_is_invalid_feedback(self, monkeypatch):
        # feedback exactly zeta away passes the contract check, but the
        # update's ball is open, so it eliminates the target
        def edge_noise(c_val, y_hat, zeta, rng):
            return c_val + zeta

        monkeypatch.setitem(NOISES, "adversarial_extreme", edge_noise)
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
    # a bool is an int to isinstance, and a detail table would print it as True
    @pytest.mark.parametrize(
        "points", [[], [-1], [2], [0, 2], [1.0], ["0"], [True, False], [0, True]], ids=repr
    )
    def test_rejects_points_outside_the_domain(self, points):
        cls = make_class([[0.2, 0.6], [0.6, 0.2]])
        with pytest.raises(OutOfRange):
            run_online_game(cls, 0, points, 1 / 8, exact_noise, 3, seed=0)
        with pytest.raises(OutOfRange):
            run_shadow_stream(cls, 0, points, 0.5)

    @pytest.mark.parametrize("T", [0, -3])
    @pytest.mark.parametrize("points", [None, [0, 1]])
    def test_rejects_a_round_count_below_one(self, T, points):
        cls = make_class([[0.2, 0.6], [0.6, 0.2]])
        with pytest.raises(OutOfRange, match="at least one round"):
            run_online_game(cls, 0, points, 1 / 8, exact_noise, T, seed=0)

    def test_cycles_through_the_points(self):
        cls = make_class([[0.2, 0.6, 0.4]])
        tr = run_online_game(cls, 0, [2, np.int64(0)], 1 / 8, exact_noise, 5, 0)
        assert [r.x for r in tr.rounds] == [2, 0, 2, 0, 2]

    def test_rejects_a_noise_outside_the_library_before_any_draw(self, monkeypatch):
        @dataclasses.dataclass
        class Offset:  # eq=True without frozen=True: no __hash__, no __name__
            scale: float

            def __call__(self, c_val, y_hat, zeta, rng):
                return c_val

        def no_draw(seed, index):
            raise AssertionError("a generator was derived")

        monkeypatch.setattr(online, "child_rng", no_draw)
        cls = make_class([[0.2, 0.6], [0.6, 0.2]])
        drawing = lambda c_val, y_hat, zeta, rng: c_val + zeta * (rng.random() - 0.5)  # noqa: E731
        for noise in (Offset(0.5), drawing, functools.partial(exact_noise), None):
            for points in (None, [0, 1]):
                with pytest.raises(OutOfRange, match="neither a NOISES value"):
                    run_online_game(cls, 0, points, 1 / 8, noise, 3, seed=0)


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



def reference_game(cls, target_id, points, zeta, noise, T, seed, rng=None):
    """The plain harness: one scalar draw per point, no prediction memo, and
    mistake-only feedback written out in its own branch; `rng` stands in for
    the seed's generator.

    Returns (rounds as tuples, final hypothesis values)."""
    rng = child_rng(seed, 0) if rng is None else rng
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


def assert_matches(tr, reference):
    """The epoch transcript agrees with the plain harness's rounds and final
    hypothesis, and so do the counts computed from its columns."""
    rounds, final = reference
    assert [tuple(r) for r in tr.rounds] == rounds
    assert tr.mistakes == sum(r[4] for r in rounds)
    assert tr.updates == sum(r[5] != r[6] for r in rounds)
    assert tr.final_hypothesis.values == final


def reference_uniform_noise(c_val, y_hat, zeta, rng):
    """uniform_noise as numpy's own uniform draw writes it."""
    offset = rng.uniform(-zeta, zeta)
    if abs(offset) >= zeta:
        offset *= 1.0 - 1e-9
    return min(1.0, max(0.0, c_val + offset))


def drawing_noise(c_val, zeta, u):
    """A `_uniform_feedback` of its own: within a quarter of zeta of the truth."""
    return np.minimum(1.0, np.maximum(0.0, c_val + 0.5 * zeta * (u - 0.5)))


#: the library noises that never read their generator
DRAWLESS = (exact_noise, grid_noise, extreme_noise, mistake_only_noise)


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
        assert set(DRAWLESS) - {mistake_only_noise} == set(NOISES.values()) - {uniform_noise}
        assert mistake_only_noise not in NOISES.values()
        rng = child_rng(3, 0)
        state = rng.bit_generator.state
        for noise in DRAWLESS:
            for zeta in (1 / 8, 1 / 5):
                for c_val in (0.0, 0.05, 0.3, 0.5, 0.95, 1.0):
                    for y_hat in (0.0, c_val - 0.2, c_val, c_val + 0.2, 1.0):
                        noise(c_val, min(1.0, max(0.0, y_hat)), zeta, rng)
                        assert rng.bit_generator.state == state
        uniform_noise(0.5, 0.5, 1 / 8, rng)
        assert rng.bit_generator.state != state

    @pytest.mark.parametrize("nx,nc", [(1, 1), (1, 6), (3, 10), (6, 20)])
    def test_game_matches_the_plain_harness(self, nx, nc):
        for zinv in (5, 8):
            zeta = 1 / zinv
            cls = generate_class(nx, nc, zeta, seed=100 * nx + nc)
            noises = [*NOISES.values(), mistake_only_noise]
            for i, noise in enumerate(noises):
                for points in (None, [nx - 1, 0]):
                    target = i % nc
                    tr = run_online_game(cls, target, points, zeta, noise, 300, seed=i)
                    assert_matches(tr, reference_game(cls, target, points, zeta, noise, 300, i))


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
                assert_matches(tr, reference_game(
                    cls, target, points, zeta, reference_uniform_noise, 300, seed
                ))


class TestRawReplay:
    """A uniform_within game replays its points and uniforms from PCG64's raw
    words: Lemire's bounded ints on the low, then the high 32-bit half of a
    word, and random() as (w >> 11) * 2^-53 of a whole word."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_replay_matches_scalar_draws(self, d):
        for seed in (*range(39), 2**40 + 3):
            for T in (1, 2, 3, 351):
                drawn = online._uniform_rounds(child_rng(seed, 0).bit_generator.random_raw, d, T)
                rng = child_rng(seed, 0)
                want = [(int(rng.integers(d)), rng.random()) for _ in range(T)]
                assert list(zip(drawn[0].tolist(), drawn[1].tolist())) == want

    @pytest.mark.parametrize("d", [2**31 + 1, 3 * 2**30])
    def test_replay_matches_scalar_draws_through_frequent_rejections(self, d):
        # 2^32 mod d is 2^31 - 1 or 2^30: about half or a quarter of all halves
        # are rejected, at both phases and in runs
        for seed in range(8):
            for T in (1, 2, 3, 64):
                drawn = online._uniform_rounds(child_rng(seed, 0).bit_generator.random_raw, d, T)
                rng = child_rng(seed, 0)
                want = [(int(rng.integers(d)), rng.random()) for _ in range(T)]
                assert list(zip(drawn[0].tolist(), drawn[1].tolist())) == want

    def test_rejection_rule_on_crafted_words(self):
        def raw(*words):
            stream = iter(words)
            return lambda n: np.array(list(itertools.islice(stream, n)), np.uint64)

        # the low half 5 of word 0 is accepted, its high half 0 rejected at d = 3
        # (0 * 3 mod 2^32 = 0 < 2^32 mod 3 = 1), so round 1 reads word 2's low
        # half and then word 3; no half is rejected at d = 4
        words = (5, 1 << 11, 3 << 11, 7 << 11)
        assert online._uniform_rounds(raw(*words), 3, 1)[0].tolist() == [0]
        points, uniforms = online._uniform_rounds(raw(*words), 3, 2)
        assert points.tolist() == [0, 0] and uniforms.tolist() == [2.0**-53, 7 * 2.0**-53]
        points, uniforms = online._uniform_rounds(raw(*words), 4, 2)
        assert points.tolist() == [0, 0] and uniforms.tolist() == [2.0**-53, 3 * 2.0**-53]
        top = ((2**32 - 1) << 32 | 2**31, 2**64 - 1, 0)
        assert online._uniform_rounds(raw(*top), 4, 2)[0].tolist() == [2, 3]
        assert online._uniform_rounds(raw(*top), 4, 1)[1].tolist() == [1 - 2.0**-53]
        # 6 * 715827883 = 2^32 + 2: rejected at d = 6, since 2 < 2^32 mod 6 = 4;
        # the high half 2^32 - 1 is accepted, and the word after it is the uniform
        words = raw((2**32 - 1) << 32 | 715827883, 2**64 - 1)
        points, uniforms = online._uniform_rounds(words, 6, 1)
        assert points.tolist() == [5] and uniforms.tolist() == [1 - 2.0**-53]
        assert online._uniform_rounds(raw(0, 0, 0), 1, 1)[0].tolist() == [0]

    @pytest.mark.parametrize(
        "r,word", [(10, 5 << 32), (11, 5), (10, 0)], ids=["even", "odd", "twice"]
    )
    def test_a_rejected_half_replays_numpys_draws(self, monkeypatch, r, word):
        # word 3 * (r // 2) holds a half 0, which integers(3) rejects: its low
        # half, read at the even round r; its high half, read at the odd round r;
        # or both halves, and then the next word's low half
        crafted = functools.partial(crafted_rng, word, 3 * (r // 2))
        assert crafted().bit_generator.random_raw(3 * (r // 2) + 1)[-1] == word
        points, uniforms = online._uniform_rounds(crafted().bit_generator.random_raw, 3, 40)
        rng = crafted()
        assert list(zip(points.tolist(), uniforms.tolist())) == [
            (int(rng.integers(3)), rng.random()) for _ in range(40)
        ]
        monkeypatch.setattr(online, "child_rng", lambda seed, index: crafted())
        zeta = 1 / 8
        cls = generate_class(3, 10, zeta, seed=13)
        tr = run_online_game(cls, 1, None, zeta, uniform_noise, 40, seed=0)
        assert_matches(tr, reference_game(
            cls, 1, None, zeta, reference_uniform_noise, 40, None, rng=crafted()
        ))

    def test_replayed_feedback_exactly_zeta_from_a_row_updates(self, monkeypatch):
        # exact feedback 0.5 at x = 0: a row exactly zeta above or below it is
        # outside the open ball, so the first round at x = 0 ends the first epoch
        monkeypatch.setattr(online, "_uniform_feedback", lambda c, zeta, u: c + 0 * u)
        for other in (0.625, 0.375):
            cls = make_class([[0.5, 0.2], [other, 0.2]])
            for points in (None, [1, 0]):
                tr = run_online_game(cls, 0, points, 1 / 8, uniform_noise, 40, seed=1)
                assert tr.epochs[0].mask_after == 0b01 and tr.updates == 1
                assert_matches(tr, reference_game(cls, 0, points, 1 / 8, uniform_noise, 40, 1))

    def test_replayed_contract_fault_raises_the_loops_error(self, monkeypatch):
        # out of contract by 2*zeta on the rounds whose uniform exceeds 0.9:
        # the game raises feed's error for the first of them, before any update
        monkeypatch.setattr(online, "_uniform_feedback", lambda c, zeta, u: c + 2 * zeta * (u > 0.9))
        updates = recording(monkeypatch, "update")
        zeta = 1 / 8
        cls = generate_class(3, 10, zeta, seed=13)
        with pytest.raises(InvalidFeedback) as fault:
            run_online_game(cls, 1, None, zeta, uniform_noise, 300, seed=4)
        rng = child_rng(4, 0)
        c = next(c for c, u in ((cls.by_id(1).values[rng.integers(3)], rng.random())
                                for _ in range(300)) if u > 0.9)
        assert str(fault.value) == (
            f"noise uniform_noise produced |c_hat - c| = {abs(c + 2 * zeta - c)} > zeta = {zeta}"
        )
        assert updates == []


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
    2*zeta from the feedback, the super-bin midpoints and the zeta-bin midpoints."""
    zeta = 1 / draw(st.integers(3, 12))
    feedback = draw(st.floats(0.0, 1.0))
    centres = (*prediction_grid(zeta), *bin_midpoints(zeta), feedback)
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
        # one state's memoized balls, at the class's values, the sampler's
        # injected labels and the values exactly zeta and 2*zeta from those
        mids = bin_midpoints(zeta)
        edges = [v for c in mids for off in (zeta, 2.0 * zeta) for v in (c - off, c + off)]
        for x in range(cls.domain_size):
            for y in (*cls.table[:, x].tolist(), *mids, *(v for v in edges if 0.0 <= v <= 1.0)):
                assert mask & state.ball(x, y) == reference_update(cls, zeta, mask, x, y)

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


def reference_prediction(cls, zeta, bin_masks, mask, x):
    """The super-bin argmax at x from scratch: each bin scored by a fresh sfat of
    its rows at 2*zeta (-1 when empty), then the mean of the maximizing midpoints."""
    scores = []
    for bmask in bin_masks[x]:
        rows = [c.values for row, c in enumerate(cls.concepts) if (mask & bmask) >> row & 1]
        scores.append(sfat(make_class(rows), 2 * zeta).dimension if rows else -1)
    mids = [r for r, score in zip(prediction_grid(zeta), scores) if score == max(scores)]
    return sum(mids) / len(mids)


class TestPredictionMemo:
    def test_memo_matches_fresh_predictions(self):
        zeta = 1 / 8
        cls = generate_class(4, 16, zeta, seed=8)
        state = RsoaState(cls, zeta)
        bin_masks = reference_bin_masks(cls, zeta)
        rng = np.random.default_rng(4)
        masks = [state.cache.full_mask()]
        for _ in range(6):
            mask = masks[-1]
            for x in range(4):
                assert state.predict(mask, x) == reference_prediction(cls, zeta, bin_masks, mask, x)
            masks.append(state.update(mask, int(rng.integers(4)), float(cls.concepts[3].values[0])))
        # masks revisited out of order, as the stability sampler does
        for mask in masks[::-1] + [int(rng.integers(1, 1 << 16)), 0]:
            for x in range(4):
                assert state.predict(mask, x) == reference_prediction(cls, zeta, bin_masks, mask, x)


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


def one_point_breach(c_val, y_hat, zeta, rng):
    """Exact feedback, except 2*zeta off at the value 0.9: out of contract at one point."""
    return c_val - 2 * zeta if c_val == 0.9 else c_val


def shrinking_rounds(tr):
    """(mask, x) of each round that changes the mask, the last of its epoch."""
    return [(ep.mask, tr.points[ep.end - 1]) for ep in tr.epochs if ep.mask_after != ep.mask]


class TestStepMemo:
    """An epoch memoizes the steps from one surviving mask: a drawless game
    evaluates its noise and calls `update` once per (epoch mask, point), a
    drawing game calls `update` only on the rounds that can shrink the mask,
    and a game's learner builds each zeta-ball once per (point, label)."""

    @pytest.mark.parametrize("noise", DRAWLESS, ids=lambda n: n.__name__)
    def test_drawless_game_updates_once_per_mask_and_point(self, monkeypatch, noise):
        zeta = 1 / 8
        cls = generate_class(3, 12, zeta, seed=5)
        updates = recording(monkeypatch, "update")
        predicts = recording(monkeypatch, "predict")
        balls, near = [], online._near

        def counting_near(col, y, radius):
            if radius == zeta:  # a ball, not a super-bin
                balls.append((id(col), y))
            return near(col, y, radius)

        monkeypatch.setattr(online, "_near", counting_near)
        for points in (None, [2, 0, 1]):
            updates.clear()
            predicts.clear()
            balls.clear()
            tr = run_online_game(cls, 4, points, zeta, noise, 300, seed=3)
            fed = [(ep.mask, x) for ep in tr.epochs
                   for x, (_, f, _) in ep.rows.items() if f is not None]
            assert updates == fed and len(updates) < len(tr.rounds)
            assert set(shrinking_rounds(tr)) <= set(fed)
            # each ball is built once, and the other updates read it
            assert len(set(balls)) == len(balls) <= len(updates)
            # predict sees the (mask, x) pairs the rounds visit, and the final hypothesis's
            visited = {(ep.mask, x) for ep in tr.epochs for x in tr.points[ep.start:ep.end]}
            final = {(tr.epochs[-1].mask_after, x) for x in range(cls.domain_size)}
            assert set(predicts) == visited | final

    @pytest.mark.parametrize("feedback", [online._uniform_feedback, drawing_noise],
                             ids=["uniform_noise", "drawing_noise"])
    def test_drawing_game_updates_only_rounds_that_shrink_the_mask(self, monkeypatch, feedback):
        monkeypatch.setattr(online, "_uniform_feedback", feedback)
        zeta = 1 / 8
        cls = generate_class(3, 12, zeta, seed=5)
        updates = recording(monkeypatch, "update")
        for points in (None, [2, 0, 1]):
            updates.clear()
            tr = run_online_game(cls, 4, points, zeta, uniform_noise, 300, seed=3)
            assert updates == shrinking_rounds(tr)
            assert 0 < len(updates) < len(tr.rounds) == 300

    def test_drawing_game_updates_feedback_outside_the_unit_interval(self, monkeypatch):
        # zeta/2 above 1.0 keeps both rows in the open zeta-ball, yet update rejects it
        monkeypatch.setattr(online, "_uniform_feedback", lambda c, zeta, u: c + zeta / 2)
        updates = recording(monkeypatch, "update")
        with pytest.raises(OutOfRange, match=r"outside \[0,1\]"):
            run_online_game(make_class([[1.0], [0.95]]), 0, None, 1 / 8, uniform_noise, 3, seed=0)
        assert updates == [(0b11, 0)]

    def test_drawless_game_updates_feedback_outside_the_unit_interval(self, monkeypatch):
        def overshoot(c_val, y_hat, zeta, rng):
            return c_val + zeta / 2

        monkeypatch.setitem(NOISES, "exact", overshoot)
        updates = recording(monkeypatch, "update")
        with pytest.raises(OutOfRange, match=r"outside \[0,1\]"):
            run_online_game(make_class([[1.0], [0.95]]), 0, None, 1 / 8, overshoot, 3, seed=0)
        assert updates == [(0b11, 0)]

    def test_drawless_fault_raises_only_when_its_round_is_played(self, monkeypatch):
        zeta = 1 / 8
        cls = make_class([[0.2, 0.5, 0.9], [0.6, 0.1, 0.4]])
        monkeypatch.setitem(NOISES, "exact", one_point_breach)
        message = (f"noise one_point_breach produced |c_hat - c| = {abs(0.9 - 2 * zeta - 0.9)}"
                   f" > zeta = {zeta}")
        first = child_rng(6, 0).integers(3, size=50).tolist().index(2)
        assert first > 0
        for points, T in (([0, 1, 0, 1, 1, 2], 5), (None, first)):
            tr = run_online_game(cls, 0, points, zeta, one_point_breach, T, seed=6)
            assert tr.feedback is None and 2 not in tr.points
            assert_matches(tr, reference_game(cls, 0, points, zeta, one_point_breach, T, 6))
            with pytest.raises(InvalidFeedback) as fault:
                run_online_game(cls, 0, points, zeta, one_point_breach, T + 1, seed=6)
            assert str(fault.value) == message

    def test_mistake_only_game_is_memoized(self, monkeypatch):
        cls = generate_class(4, 16, 1 / 10, seed=0)
        predicts = recording(monkeypatch, "predict")
        updates = recording(monkeypatch, "update")
        tr = run_online_game(cls, 3, [0, 1, 2, 3], 0.2 / 5, mistake_only_noise, 300, seed=0)
        mistake_keys = {(r.v_before, r.x) for r in tr.rounds if r.mistake}
        assert 0 < len(updates) == len(set(updates)) == len(mistake_keys)
        # one prediction per key, and the final hypothesis's at most one per point
        assert len(predicts) <= len(distinct_keys(tr)) + cls.domain_size < len(tr.rounds)
