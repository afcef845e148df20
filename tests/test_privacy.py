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
    build_probabilistic_representation,
    discretize_hypotheses,
    dp_test,
    loss,
)
from shatterlab.concepts import _choice_cdf, bin_midpoints
from shatterlab.errors import NotNeighbors, OutOfRange, TooLarge
from shatterlab.privacy import (
    ExponentialMechanism,
    HypothesisCollection,
    check_neighbors,
    exponential_weights,
    representation_repetitions,
)
from shatterlab.seeding import child_rng
from tests.oracles import good_hypotheses

def two_hypotheses():
    return HypothesisCollection((Concept(0, (0.25,)), Concept(1, (0.75,))))


def closed_form_distribution(coll, sample, eps, zeta):
    # independent oracle: direct arithmetic over the miss counts
    weights = []
    for h in coll.hypotheses:
        misses = sum(1 for x, y in sample if abs(h.values[x] - y) > zeta)
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


def loop_weights(coll, sample, eps, zeta):
    # exponential_weights as a per-hypothesis loop, scored in the same order
    scores = np.array([
        -0.5 * eps * sum(1 for x, y in sample if abs(h.values[x] - y) > zeta)
        for h in coll.hypotheses
    ])
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


class TestExponentialMechanism:
    def test_weights_are_bit_identical_to_the_per_hypothesis_loop(self):
        mechanism = ExponentialMechanism(discretize_hypotheses(1, 1 / 2), 1.0, 1 / 2)
        harvested = build_probabilistic_representation(mechanism, 1 / 2, 1 / 4, 1.0, 1, seed=5)
        grids = ((1, 1 / 2), (2, 1 / 2), (2, 1 / 4), (2, 1 / 20))
        collections = [two_hypotheses(), harvested]
        collections += [discretize_hypotheses(d, z) for d, z in grids]
        samples = [
            ((0, 0.5),),
            ((0, 0.2), (0, 0.3)),
            ((0, 0.1), (1, 0.6), (0, 0.3)),
            ((1, 0.9), (0, 0.1)) * 3,
        ]
        for coll in collections:
            for sample in samples:
                if max(x for x, _ in sample) >= len(coll.hypotheses[0].values):
                    continue
                for eps, zeta in ((1.0, 0.25), (1e-12, 0.25), (3.0, 1 / 8), (2.0, 1 / 4)):
                    got = exponential_weights(coll, sample, eps, zeta)
                    assert np.array_equal(got, loop_weights(coll, sample, eps, zeta))
    def test_equal_losses_give_uniform(self):
        coll = two_hypotheses()
        sample = ((0, 0.5),)  # both hypotheses miss by 0.25 = zeta
        w = exponential_weights(coll, sample, 1.0, 0.25)
        assert w == pytest.approx([0.5, 0.5])

    def test_epsilon_zero_limit_is_uniform(self):
        coll = two_hypotheses()
        sample = ((0, 0.2),)
        w = exponential_weights(coll, sample, 1e-12, 0.25)
        assert w == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_matches_closed_form_frequencies(self):
        coll = two_hypotheses()
        sample = ((0, 0.2), (0, 0.3))
        expect = closed_form_distribution(coll, sample, 1.0, 0.25)
        trials = 20_000
        batches = ExponentialMechanism(coll, 1.0, 0.25).draw(sample, child_rng(1), trials)
        counts = np.bincount(np.concatenate(list(batches)), minlength=2)
        for k in range(2):
            se = math.sqrt(expect[k] * (1 - expect[k]) / trials)
            assert abs(counts[k] / trials - expect[k]) <= 3 * se + 1e-9

    def test_stream_identical_to_generator_choice(self):
        # a call draws what rng.choice(len(w), p=w) draws, while the trials
        # switch samples, eps alone and zeta alone
        coll = discretize_hypotheses(2, 1 / 4)
        a = ((0, 0.1), (1, 0.6), (0, 0.3))
        b = ((0, 0.1), (1, 0.6), (0, 0.9))
        p0, p1, p2 = (1.0, 1 / 4), (2.0, 1 / 4), (2.0, 1 / 8)
        plan = [(a, p0)] * 5 + [(a, p1)] * 3 + [(a, p2)] * 3 + [(b, p2)] * 2 + [(b, p0)] * 2
        plan += [(a, p0), (a, p1), (a, p2), (list(b), p2), (b, p1), (b, p0)] * 3
        for t, (sample, (eps, zeta)) in enumerate(plan):
            got = ExponentialMechanism(coll, eps, zeta)(sample, child_rng(11, t))
            rng = child_rng(11, t)
            w = exponential_weights(coll, sample, eps, zeta)
            want = coll.hypotheses[int(rng.choice(len(w), p=w))]
            assert got is want

    def test_mechanism_is_safe_to_share_between_threads(self):
        # threads alternating two samples on one mechanism never draw from
        # the other sample's CDF
        coll = discretize_hypotheses(2, 1 / 4)
        mechanism = ExponentialMechanism(coll, 3.0, 0.25)
        samples = (
            ((0, 0.1), (1, 0.9)),
            ((0, 0.9), (1, 0.1)),
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
                h = mechanism(samples[(w + t) % 2], child_rng(w, t))
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

    def test_empty_sample_rejected(self):
        mechanism = ExponentialMechanism(two_hypotheses(), 1.0, 0.25)
        with pytest.raises(OutOfRange):
            mechanism((), child_rng(0, 0))
        with pytest.raises(OutOfRange):
            mechanism.draw((), child_rng(0, 0), 10)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive_at_construction(self, epsilon):
        with pytest.raises(OutOfRange):
            ExponentialMechanism(two_hypotheses(), epsilon, 0.25)

    def test_total_variation_against_oracle(self):
        coll = discretize_hypotheses(1, 1 / 4)  # 4 hypotheses
        sample = tuple((0, y) for y in (0.1, 0.3, 0.6, 0.6, 0.9))
        expect = closed_form_distribution(coll, sample, 1.0, 0.25)
        trials = 100_000
        batches = ExponentialMechanism(coll, 1.0, 0.25).draw(sample, child_rng(2), trials)
        counts = np.bincount(np.concatenate(list(batches)), minlength=len(coll))
        tv = 0.5 * np.abs(counts / trials - np.array(expect)).sum()
        assert tv <= 0.02


#: sample points outside a one-point domain or with a label outside [0, 1];
#: a bool is no index, though numpy would read table[False] as a mask
BAD_POINTS = {"x_outside_domain": (3, 0.1), "x_negative": (-1, 0.1),
              "x_not_an_index": (0.0, 0.1), "y_nan": (0, math.nan),
              "x_true": (True, 0.1), "x_false": (False, 0.1)}


class TestSampleRange:
    """A bad sample point is an OutOfRange, through the mechanism and dp_test."""

    def mechanism(self):
        return ExponentialMechanism(discretize_hypotheses(1, 0.25), 1.0, 0.25)

    @pytest.mark.parametrize("bad", BAD_POINTS.values(), ids=BAD_POINTS.keys())
    def test_mechanism_rejects(self, bad):
        mechanism = self.mechanism()
        for sample in ((bad,), ((0, 0.1), bad)):
            with pytest.raises(OutOfRange):
                mechanism(sample, child_rng(0))
            with pytest.raises(OutOfRange):
                mechanism.draw(sample, child_rng(0), 10)
            with pytest.raises(OutOfRange):
                exponential_weights(mechanism.collection, sample, 1.0, 0.25)

    @pytest.mark.parametrize("bad", BAD_POINTS.values(), ids=BAD_POINTS.keys())
    def test_dp_test_rejects(self, bad):
        s, sp = ((0, 0.1), bad), ((0, 0.9), bad)
        for pair in ((s, sp), (sp, s)):
            with pytest.raises(OutOfRange):
                dp_test(self.mechanism(), *pair, 1.0, 0.0, trials=10_000, seed=1)

    @pytest.mark.parametrize("bad", [(-1, 0.1), (0, math.nan), (0, 1.5), (0.5, 0.1), (True, 0.1)])
    def test_dp_test_rejects_before_any_trial(self, bad):
        # dp_test does not know the domain, but x >= 0 and y in [0, 1] it
        # checks itself, before comparing: NaN != NaN is no difference
        calls = []

        def learner(sample, rng):
            calls.append(sample)
            return Concept(0, (0.5,))

        pairs = [(((0, 0.1), bad), ((0, 0.9), bad)), (((0, 0.1), bad), ((0, 0.1), bad))]
        for s, sp in pairs:
            with pytest.raises(OutOfRange):
                dp_test(learner, s, sp, 1.0, 0.0, trials=10_000, seed=1)
        assert calls == []


class TestDpTest:
    def neighbor_pair(self):
        s = ((0, 0.1), (0, 0.1))
        s_prime = ((0, 0.1), (0, 0.9))
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
            ExponentialMechanism(coll, 1.0, 0.25),
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
        s = ((0, 0.75), (0, 0.75))
        sp = ((0, 0.75), (0, 0.25))
        rep = dp_test(argmax_learner, s, sp, 0.5, 0.0, trials=10_000, seed=5)
        assert not rep.verdict

    def test_report_json(self):
        coll = two_hypotheses()
        s, sp = self.neighbor_pair()
        rep = dp_test(
            ExponentialMechanism(coll, 1.0, 0.25),
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
        m = math.ceil(8.0 * math.log(len(coll)) / (alpha * eps))  # 8 log|H| / (alpha eps)
        mechanism = ExponentialMechanism(coll, eps, zeta)
        rng = child_rng(7, 0)
        good = 0
        trials = 300
        for t in range(trials):
            sample = tuple(
                (0, float(np.clip(target.values[0] + rng.uniform(-zeta / 5, zeta / 5), 0, 1)))
                for _ in range(m)
            )
            out = mechanism(sample, child_rng(8, t))
            good += loss(out, target, zeta, dist) <= 2 * alpha
        frac = good / trials
        assert frac >= 2 / 3 - 3 * math.sqrt((2 / 3) * (1 / 3) / trials)


class TestRepresentationHarvest:
    def test_repetition_count(self):
        assert representation_repetitions(0.25, 1.0, 1) == 41

    def test_collection_size(self):
        coll = discretize_hypotheses(1, 1 / 2)
        built = build_probabilistic_representation(
            ExponentialMechanism(coll, 1.0, 1 / 2),
            zeta=1 / 2,
            alpha=1 / 4,
            epsilon_priv=1.0,
            m=1,
            seed=9,
        )
        assert len(built) == 10 * 41

    def test_m_zero_rejected(self):
        coll = discretize_hypotheses(1, 1 / 2)
        with pytest.raises(OutOfRange):
            build_probabilistic_representation(
                ExponentialMechanism(coll, 1.0, 1 / 2),
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
                ExponentialMechanism(coll, 1.0, 1 / 2),
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
                ExponentialMechanism(coll, 1.0, zeta),
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
        s = ((0, 0.1), (1, 0.6))
        sp = ((0, 0.1), (1, 0.9))
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
        grid = bin_midpoints(zeta / 5)
        streams = [child_rng(seed, zi) for zi in range(len(grid))]
        replay = [
            learner(((0, z),) * m, streams[zi])
            for zi, z in enumerate(grid)
            for _ in range(reps)
        ]
        assert got == HypothesisCollection(tuple(replay))
        assert len(got) == 10 * 41 and len({h.id for h in got.hypotheses}) == 16


class TestBatchedMechanism:
    """`ExponentialMechanism.draw` draws what as many calls draw, and the trial
    loops that batch it keep every report and collection of the plain loop."""

    @pytest.mark.parametrize("domain_size, seed", [(1, 0), (2, 2**40 + 3)])
    def test_draw_matches_per_trial_calls_across_a_batch(self, domain_size, seed):
        coll = discretize_hypotheses(domain_size, 1 / 2)
        mechanism = ExponentialMechanism(coll, 2.0, 1 / 4)
        sample = ((domain_size - 1, 0.1),)
        trials = 70_001  # one full batch of 2^16 and a partial one
        batched, looped = child_rng(seed), child_rng(seed)
        batches = list(mechanism.draw(sample, batched, trials))
        assert [len(b) for b in batches] == [2**16, trials - 2**16]
        # a few calls, then one uniform per trial searched in the CDF a call builds
        want = [mechanism(sample, looped).id for _ in range(3)]
        cdf = _choice_cdf(exponential_weights(coll, sample, 2.0, 1 / 4))
        want += [int(cdf.searchsorted(looped.random(), side="right")) for _ in range(trials - 3)]
        got = np.concatenate(batches)
        assert got.tolist() == want
        assert batched.random() == looped.random()  # both streams end level

    def test_harvest_matches_a_per_trial_replay(self):
        mechanism = ExponentialMechanism(discretize_hypotheses(2, 1 / 4), 1.0, 1 / 4)
        zeta, alpha, eps, m, seed = 1 / 2, 1 / 4, 1.0, 2, 21
        got = build_probabilistic_representation(mechanism, zeta, alpha, eps, m, seed)
        reps = representation_repetitions(alpha, eps, m)
        grid = bin_midpoints(zeta / 5)
        streams = [child_rng(seed, zi) for zi in range(len(grid))]
        replay = [
            mechanism(((0, z),) * m, streams[zi])
            for zi, z in enumerate(grid)
            for _ in range(reps)
        ]
        assert got == HypothesisCollection(tuple(replay))

    def test_dp_test_folds_repeated_ids_as_the_plain_loop_does(self):
        coll = discretize_hypotheses(1, 1 / 2)
        harvested = build_probabilistic_representation(
            ExponentialMechanism(coll, 1.0, 1 / 2), 1 / 2, 1 / 4, 1.0, 1, seed=5
        )
        assert len(harvested) == 410 and len({h.id for h in harvested.hypotheses}) == 2
        mechanism = ExponentialMechanism(harvested, 1.0, 1 / 4)
        s = ((0, 0.1), (0, 0.1))
        sp = ((0, 0.1), (0, 0.9))
        cdfs = {x: _choice_cdf(exponential_weights(harvested, x, 1.0, 1 / 4)) for x in (s, sp)}

        def looped(sample, rng):  # a plain callable, so dp_test calls it per trial
            return harvested.hypotheses[int(cdfs[sample].searchsorted(rng.random(), side="right"))]

        got = dp_test(mechanism, s, sp, 1.0, 0.0, 10_000, seed=13)
        assert got == dp_test(looped, s, sp, 1.0, 0.0, 10_000, seed=13)
        assert [e.event for e in got.events] == [0, 1]
