import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest

from shatterlab import (
    Concept,
    Distribution,
    DomainPoint,
    LabeledExample,
    build_probabilistic_representation,
    discretize_hypotheses,
    dp_test,
    generic_private_learner,
    loss,
)
from shatterlab.concepts import cover_new
from shatterlab.errors import NotNeighbors, OutOfRange, TooLarge
from shatterlab.privacy import (
    HypothesisCollection,
    check_neighbors,
    exponential_weights,
    generic_learner_sample_size,
    good_hypotheses,
    representation_repetitions,
)
from shatterlab.seeding import child_rng

X0 = DomainPoint(0)


def two_hypotheses():
    return HypothesisCollection(
        (Concept(0, (0.25,)), Concept(1, (0.75,))), "discretized"
    )


def closed_form_distribution(coll, sample, eps, zeta):
    # independent oracle: direct arithmetic over the miss counts
    weights = []
    for h in coll.hypotheses:
        misses = sum(1 for ex in sample if abs(h.values[ex.x.index] - ex.y) > zeta)
        weights.append(math.exp(-eps * misses / 2))
    total = sum(weights)
    return [w / total for w in weights]


class TestDiscretize:
    def test_single_point_half(self):
        coll = discretize_hypotheses(1, 1 / 2)
        assert [h.values for h in coll.hypotheses] == [(0.25,), (0.75,)]

    def test_two_points_quarter(self):
        assert len(discretize_hypotheses(2, 1 / 4)) == 16

    def test_guard(self):
        with pytest.raises(TooLarge):
            discretize_hypotheses(8, 1 / 8)

    def test_sample_size_formula(self):
        assert generic_learner_sample_size(16, 0.25, 1.0) == math.ceil(
            8 * math.log(16) / 0.25
        )


class TestExponentialMechanism:
    def test_equal_losses_give_uniform(self):
        coll = two_hypotheses()
        sample = (LabeledExample(X0, 0.5),)  # both hypotheses miss by 0.25 = zeta
        w = exponential_weights(coll, sample, 1.0, 0.25)
        assert w == pytest.approx([0.5, 0.5])

    def test_epsilon_zero_limit_is_uniform(self):
        coll = two_hypotheses()
        sample = (LabeledExample(X0, 0.2),)
        w = exponential_weights(coll, sample, 1e-12, 0.25)
        assert w == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_matches_closed_form_frequencies(self):
        coll = two_hypotheses()
        sample = (LabeledExample(X0, 0.2), LabeledExample(X0, 0.3))
        expect = closed_form_distribution(coll, sample, 1.0, 0.25)
        trials = 20_000
        counts = [0, 0]
        for t in range(trials):
            out = generic_private_learner(coll, sample, 1.0, 0.25, child_rng(1, t))
            counts[out.id] += 1
        for k in range(2):
            se = math.sqrt(expect[k] * (1 - expect[k]) / trials)
            assert abs(counts[k] / trials - expect[k]) <= 3 * se + 1e-9

    def test_stream_identical_to_generator_choice(self):
        # the memoized CDF draws what rng.choice(len(w), p=w) draws, while the
        # trials switch samples, eps alone and zeta alone
        coll = discretize_hypotheses(2, 1 / 4)
        x1 = DomainPoint(1)
        a = (LabeledExample(X0, 0.1), LabeledExample(x1, 0.6), LabeledExample(X0, 0.3))
        b = (LabeledExample(X0, 0.1), LabeledExample(x1, 0.6), LabeledExample(X0, 0.9))
        p0, p1, p2 = (1.0, 1 / 4), (2.0, 1 / 4), (2.0, 1 / 8)
        plan = [(a, p0)] * 5 + [(a, p1)] * 3 + [(a, p2)] * 3 + [(b, p2)] * 2 + [(b, p0)] * 2
        plan += [(a, p0), (a, p1), (a, p2), (list(b), p2), (b, p1), (b, p0)] * 3
        for t, (sample, (eps, zeta)) in enumerate(plan):
            got = generic_private_learner(coll, sample, eps, zeta, child_rng(11, t))
            rng = child_rng(11, t)
            w = exponential_weights(coll, sample, eps, zeta)
            want = coll.hypotheses[int(rng.choice(len(w), p=w))]
            assert got is want

    def test_memo_is_safe_to_share_between_threads(self):
        # threads alternating two samples on one collection never draw from
        # the other sample's CDF
        coll = discretize_hypotheses(2, 1 / 4)
        samples = (
            (LabeledExample(X0, 0.1), LabeledExample(DomainPoint(1), 0.9)),
            (LabeledExample(X0, 0.9), LabeledExample(DomainPoint(1), 0.1)),
        )
        trials = 400

        def expected(w, t):
            sample = samples[(w + t) % 2]
            weights = exponential_weights(coll, sample, 3.0, 0.25)
            return int(child_rng(w, t).choice(len(weights), p=weights))

        want = {(w, t): expected(w, t) for w in range(6) for t in range(trials)}
        got = {}

        def work(w):
            for t in range(trials):
                h = generic_private_learner(coll, samples[(w + t) % 2], 3.0, 0.25, child_rng(w, t))
                got[(w, t)] = h.id

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert got == want

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        used, fresh = two_hypotheses(), two_hypotheses()
        generic_private_learner(used, (LabeledExample(X0, 0.2),), 1.0, 0.25, child_rng(0, 0))
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_empty_sample_rejected(self):
        with pytest.raises(OutOfRange):
            generic_private_learner(two_hypotheses(), (), 1.0, 0.25, child_rng(0, 0))

    def test_total_variation_against_oracle(self):
        coll = discretize_hypotheses(1, 1 / 4)  # 4 hypotheses
        sample = tuple(LabeledExample(X0, y) for y in (0.1, 0.3, 0.6, 0.6, 0.9))
        expect = closed_form_distribution(coll, sample, 1.0, 0.25)
        trials = 100_000
        counts = np.zeros(len(coll))
        for t in range(trials):
            out = generic_private_learner(coll, sample, 1.0, 0.25, child_rng(2, t))
            counts[out.id] += 1
        tv = 0.5 * np.abs(counts / trials - np.array(expect)).sum()
        assert tv <= 0.02


class TestDpTest:
    def neighbor_pair(self):
        s = (LabeledExample(X0, 0.1), LabeledExample(X0, 0.1))
        s_prime = (LabeledExample(X0, 0.1), LabeledExample(X0, 0.9))
        return s, s_prime

    def test_neighbor_validation(self):
        s, sp = self.neighbor_pair()
        assert check_neighbors(s, sp) == 1
        assert check_neighbors(sp, s) == 1  # symmetric
        with pytest.raises(NotNeighbors):
            check_neighbors(s, s)
        with pytest.raises(NotNeighbors):
            check_neighbors(s, (sp[1], sp[1]))

    @pytest.mark.parametrize(
        "epsilon, delta", [(1.0, -0.1), (1.0, 1.0), (1e308, 0.0), (math.nan, 0.0)]
    )
    def test_rejects_bad_delta_and_epsilon_before_any_trial(self, epsilon, delta):
        s, sp = self.neighbor_pair()
        calls = []

        def learner(sample, rng):
            calls.append(sample)
            return Concept(0, (0.5,))

        with pytest.raises(OutOfRange):
            dp_test(learner, s, sp, epsilon, delta, trials=10_000, seed=1)
        assert calls == []

    def test_input_oblivious_learner_passes_at_zero(self):
        coll = two_hypotheses()
        s, sp = self.neighbor_pair()
        rep = dp_test(
            lambda sample, rng: coll.hypotheses[int(rng.integers(2))],
            s,
            sp,
            epsilon=0.0,
            delta=0.0,
            trials=10_000,
            seed=3,
        )
        assert rep.verdict

    def test_exponential_mechanism_passes(self):
        coll = two_hypotheses()
        s, sp = self.neighbor_pair()
        rep = dp_test(
            lambda sample, rng: generic_private_learner(coll, sample, 1.0, 0.25, rng),
            s,
            sp,
            epsilon=1.0,
            delta=0.0,
            trials=10_000,
            seed=4,
        )
        assert rep.verdict
        assert rep.max_violation <= 0

    def test_deterministic_argmax_fails(self):
        coll = two_hypotheses()

        def argmax_learner(sample, rng):
            w = exponential_weights(coll, sample, 1.0, 0.25)
            return coll.hypotheses[int(np.argmax(w))]

        # the pair flips the empirical argmax, so the learner is maximally leaky
        s = (LabeledExample(X0, 0.75), LabeledExample(X0, 0.75))
        sp = (LabeledExample(X0, 0.75), LabeledExample(X0, 0.25))
        rep = dp_test(argmax_learner, s, sp, 0.5, 0.0, trials=10_000, seed=5)
        assert not rep.verdict

    def test_report_json(self):
        coll = two_hypotheses()
        s, sp = self.neighbor_pair()
        rep = dp_test(
            lambda sample, rng: generic_private_learner(coll, sample, 1.0, 0.25, rng),
            s,
            sp,
            1.0,
            0.0,
            trials=10_000,
            seed=6,
        )
        assert '"max_violation"' in json.dumps(dataclasses.asdict(rep))


class TestLossAmplification:
    def test_returned_hypothesis_rarely_doubles_loss(self):
        # a planted good hypothesis at loss <= alpha forces output loss <= 2 alpha
        # with probability >= 2/3 at the declared sample size
        zeta, alpha, eps = 1 / 4, 1 / 4, 1.0
        coll = discretize_hypotheses(1, zeta)
        target = Concept(99, (0.4,))
        dist = Distribution((1.0,))
        assert any(
            loss(h, target, zeta, dist) <= alpha for h in coll.hypotheses
        )
        m = generic_learner_sample_size(len(coll), alpha, eps)
        rng = child_rng(7, 0)
        good = 0
        trials = 300
        for t in range(trials):
            sample = tuple(
                LabeledExample(X0, float(np.clip(target.values[0] + rng.uniform(-zeta / 5, zeta / 5), 0, 1)))
                for _ in range(m)
            )
            out = generic_private_learner(coll, sample, eps, zeta, child_rng(8, t))
            good += loss(out, target, zeta, dist) <= 2 * alpha
        frac = good / trials
        assert frac >= 2 / 3 - 3 * math.sqrt((2 / 3) * (1 / 3) / trials)


class TestRepresentationHarvest:
    def test_repetition_count(self):
        assert representation_repetitions(0.25, 1.0, 1) == 41

    def test_collection_size(self):
        coll = discretize_hypotheses(1, 1 / 2)
        built = build_probabilistic_representation(
            lambda s, rng: generic_private_learner(coll, s, 1.0, 1 / 2, rng),
            zeta=1 / 2,
            alpha=1 / 4,
            epsilon_priv=1.0,
            m=1,
            seed=9,
        )
        assert len(built) == 10 * 41
        assert built.provenance == "harvested"

    def test_m_zero_rejected(self):
        coll = discretize_hypotheses(1, 1 / 2)
        with pytest.raises(OutOfRange):
            build_probabilistic_representation(
                lambda s, rng: generic_private_learner(coll, s, 1.0, 1 / 2, rng),
                zeta=1 / 2,
                alpha=1 / 4,
                epsilon_priv=1.0,
                m=0,
                seed=9,
            )

    def test_guard_on_total_size(self):
        coll = discretize_hypotheses(1, 1 / 2)
        with pytest.raises(TooLarge):
            build_probabilistic_representation(
                lambda s, rng: generic_private_learner(coll, s, 1.0, 1 / 2, rng),
                zeta=1 / 2,
                alpha=1.0,
                epsilon_priv=2.0,
                m=1,
                seed=9,
            )

    def test_guard_counts_the_replays_it_runs(self):
        # 6 labels times e^(8 alpha eps m) 4 ln 4 just under 10^6 / 6 stays
        # below 10^6 as a float, but rounding the repetitions up runs more
        zeta, eps = 5 / 6, 1.0
        alpha = math.log(166666.5 / (4 * math.log(4))) / 8
        reps = representation_repetitions(alpha, eps, 1)
        assert 6 * 4 * math.log(4) * math.exp(8 * alpha * eps) <= 10**6 < 6 * reps

        def learner(sample, rng):
            raise AssertionError("the guard must trip before any replay")

        with pytest.raises(TooLarge):
            build_probabilistic_representation(learner, zeta, alpha, eps, m=1, seed=9)
        # a repetition count past the float range is too large too, not an OverflowError
        with pytest.raises(TooLarge):
            build_probabilistic_representation(learner, zeta, 1.0, 100.0, m=10, seed=9)

    def test_harvest_hits_good_set(self):
        # the harvested collection intersects the good set in nearly every
        # trial; the guarantee only demands a 3/4 hit rate
        zeta = 1 / 2
        coll = discretize_hypotheses(1, zeta)
        target = Concept(77, (0.3,))
        dist = Distribution((1.0,))
        goods = good_hypotheses(coll, target, dist, zeta, 1 / 4)
        assert goods  # sanity: the good set is nonempty
        misses = 0
        trials = 40
        for t in range(trials):
            built = build_probabilistic_representation(
                lambda s, rng: generic_private_learner(coll, s, 1.0, zeta, rng),
                zeta=zeta,
                alpha=1 / 4,
                epsilon_priv=1.0,
                m=1,
                seed=1000 + t,
            )
            got = {h.id for h in built.hypotheses}
            misses += not (got & goods)
        assert misses / trials <= 1 / 4 + 3 * math.sqrt(0.25 * 0.75 / trials)


class TestBulkStreams:
    """Each trial loop draws all its trials, in order, from one stream:
    `child_rng(seed, side)` in `dp_test`, `child_rng(seed, zi)` in the
    harvester, whatever the learner draws."""

    @staticmethod
    def mixed_draw_learner(coll):
        def learner(sample, rng):
            u, k, z = rng.random(), int(rng.integers(0, len(coll))), rng.normal()
            return coll.hypotheses[(k + int(7 * u) + int(3 * abs(z))) % len(coll)]

        return learner

    def test_dp_test_matches_a_per_trial_replay(self):
        learner = self.mixed_draw_learner(discretize_hypotheses(2, 1 / 4))
        s = (LabeledExample(X0, 0.1), LabeledExample(DomainPoint(1), 0.6))
        sp = (LabeledExample(X0, 0.1), LabeledExample(DomainPoint(1), 0.9))
        seed, trials = 2**40 + 3, 10_000
        got = dp_test(learner, s, sp, 1.0, 0.0, trials, seed)
        streams = [child_rng(seed, side) for side in range(2)]
        replay = iter([
            learner(sample, streams[side])
            for side, sample in enumerate((s, sp))
            for _ in range(trials)
        ])
        assert got == dp_test(lambda sample, rng: next(replay), s, sp, 1.0, 0.0, trials, seed)
        assert len(got.events) == 16

    def test_harvest_matches_a_per_trial_replay(self):
        learner = self.mixed_draw_learner(discretize_hypotheses(2, 1 / 4))
        zeta, alpha, eps, m, seed = 1 / 2, 1 / 4, 1.0, 1, 12
        got = build_probabilistic_representation(learner, zeta, alpha, eps, m, seed)
        reps = representation_repetitions(alpha, eps, m)
        grid = cover_new(zeta / 5).bin_midpoints
        streams = [child_rng(seed, zi) for zi in range(len(grid))]
        replay = [
            learner((LabeledExample(X0, z),) * m, streams[zi])
            for zi, z in enumerate(grid)
            for _ in range(reps)
        ]
        assert got == HypothesisCollection(tuple(replay), "harvested")
        assert len(got) == 10 * 41 and len({h.id for h in got.hypotheses}) == 16
