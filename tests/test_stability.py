import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterlab import (
    Concept,
    Distribution,
    ExtSample,
    Fail,
    StableLearner,
    loss,
    sample_ext,
    sfat,
    stability_experiment,
)
from shatterlab import stability
from shatterlab.classes import ext_cost_class, generate_class, two_constants
from shatterlab.cli import main
from shatterlab.concepts import bin_midpoints
from shatterlab.errors import AllRunsFailed, DomainMismatch, OutOfRange
from shatterlab.online import RsoaState
from shatterlab.seeding import CHUNK, Draws, child_rng
from shatterlab.stability import ball_frequency
from tests.conftest import ids_of_mask, make_class


# -- a full-prefix replay reference: every attempt replays its whole sample
# from the full class, draws with Generator.choice, and materializes the
# hypothesis afresh, so it shares only RsoaState.update/predict with the
# library's sampler


def _reference_block(target, dist, m, rng):
    xs = rng.choice(len(dist.p), size=m, p=np.array(dist.p))
    return tuple((int(x), target.values[int(x)]) for x in xs)


def _examples(segments):
    """A curated sample's examples in order: each block, then its injected one."""
    return [e for block, injected in segments for e in (*block, injected)]


def _reference_replay(state, examples):
    mask = state.cache.full_mask()
    for xi, y in examples:
        mask = state.update(mask, xi, y)
    values = tuple(state.predict(mask, x) for x in range(state.cls.domain_size))
    return Concept(-1, values), mask


def reference_sample_ext(cls, target_id, dist, k, m, zeta, cutoff, rng):
    target = cls.by_id(target_id)
    bins = bin_midpoints(zeta)
    state = RsoaState(cls, zeta)
    used = 0

    def rec(level):
        nonlocal used
        if level == 0:
            return ()
        while True:
            pair = []
            for _branch in (0, 1):
                sub = rec(level - 1)
                if sub is None:
                    return None
                if used + m > cutoff:
                    used = cutoff + 1
                    return None
                used += m
                block = _reference_block(target, dist, m, rng)
                pair.append((sub, block, _reference_replay(state, _examples(sub) + list(block))[0]))
            (s0, b0, f0), (s1, b1, f1) = pair
            diffs = [
                x for x in range(cls.domain_size) if abs(f0.values[x] - f1.values[x]) > 11.0 * zeta
            ]
            if not diffs:
                continue
            x_star = diffs[0]
            alpha = float(rng.choice(bins))
            if abs(alpha - f0.values[x_star]) < abs(alpha - f1.values[x_star]):
                keep_sub, keep_block = s1, b1
            else:
                keep_sub, keep_block = s0, b0
            return keep_sub + ((keep_block, (x_star, alpha)),)

    segments = rec(k)
    if segments is None:
        return Fail(draws_used=used)
    return ExtSample(segments, k, used, _reference_replay(state, _examples(segments))[1])


def reference_G(cls, target_id, dist, zeta, alpha, rng):
    d = sfat(cls, 2 * zeta).dimension
    m = math.ceil(d * math.log(1 / zeta) / alpha)
    cutoff = int(2 * (4 / zeta) ** (d + 1) * m)
    k = int(rng.integers(0, d + 1))
    # at 11*zeta >= 1 every attempt fails, and the sampler reads no generator:
    # the replay runs those attempts on a stream of their own
    sampler_rng = rng if 11 * zeta < 1 else np.random.default_rng(0)
    s = reference_sample_ext(cls, target_id, dist, k, m, zeta, cutoff, sampler_rng)
    if isinstance(s, Fail):
        return s
    block = _reference_block(cls.by_id(target_id), dist, m, rng)
    hyp, mask = _reference_replay(RsoaState(cls, zeta), _examples(s.segments) + list(block))
    if mask == 0:
        return Fail(draws_used=s.draws_used + m)
    return hyp


class TestStreamIdentity:
    """Resumed masks, cached CDFs and memoized hypotheses move no draw."""

    def test_sample_ext_matches_full_prefix_replay(self):
        # small cutoffs hit the Fail paths at both levels
        cls, dist, zeta, m = ext_cost_class()
        gen = generate_class(4, 8, 1 / 4, seed=1)
        cases = [
            (cls, dist, zeta, m, (12, 60, 20_000)),
            (gen, Distribution.uniform(4), 1 / 32, 2, (12, 60, 1500)),
            # 11*zeta >= 1: levels 1 and 2 can only fail
            (two_constants(), Distribution.uniform(1), 1 / 4, 3, (12, 60)),
        ]
        seen = {"fail": 0, "ok": 0}
        for c, d, z, block, cutoffs in cases:
            state = RsoaState(c, z)  # reused, as G reuses its own
            for k in (0, 1, 2):
                for cutoff in cutoffs:
                    for seed in range(6):
                        got = sample_ext(state, 0, d, k, block, cutoff, rng=child_rng(seed, 0xE27))
                        rng = child_rng(seed, 0xE27)
                        assert got == reference_sample_ext(c, 0, d, k, block, z, cutoff, rng)
                        seen["fail" if isinstance(got, Fail) else "ok"] += 1
        assert seen["fail"] >= 10 and seen["ok"] >= 10

    # a class on the coarse 1/5 grid (class zeta 1) often gives branches that
    # differ by more than 11*zeta, so levels 1 and 2 both succeed and fail
    @settings(max_examples=60)
    @given(
        st.integers(1, 4),
        st.integers(1, 8),
        st.sampled_from([1, 1 / 4]),
        st.sampled_from([1 / 16, 1 / 32]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_sample_ext_matches_the_replay_on_generated_classes(
        self, nx, nc, class_zeta, zeta, cseed, data
    ):
        cls = generate_class(nx, nc, class_zeta, seed=cseed)
        weights = data.draw(st.lists(st.integers(0, 3), min_size=nx, max_size=nx))
        total = sum(weights)
        dist = Distribution(tuple(w / total for w in weights)) if total else Distribution.uniform(nx)
        target = data.draw(st.integers(0, nc - 1))
        state = RsoaState(cls, zeta)  # reused, as G reuses its own
        calls = st.tuples(
            st.integers(0, 2), st.integers(1, 3), st.integers(0, 600), st.integers(0, 2**16)
        )
        for k, m, cutoff, seed in data.draw(st.lists(calls, min_size=1, max_size=4)):
            got = sample_ext(state, target, dist, k, m, cutoff, rng=child_rng(seed, 0xE27))
            want = reference_sample_ext(cls, target, dist, k, m, zeta, cutoff, child_rng(seed, 0xE27))
            assert got == want

    def test_stable_learner_matches_full_prefix_replay(self):
        # a state builds the sampler's bins on first use, so a game builds none
        cls, dist, zeta, _ = ext_cost_class()
        assert "bins" not in vars(RsoaState(cls, zeta))
        for alpha in (0.7, 4.0):
            learner = StableLearner(cls, zeta, alpha)
            for seed in range(12):
                got = learner(0, dist, child_rng(seed, 0x6))
                assert got == reference_G(cls, 0, dist, zeta, alpha, child_rng(seed, 0x6))

    def test_experiment_matches_the_replay_run_by_run(self):
        # the experiment hands every run one shared learner state and one
        # shared stream, which the replay's runs draw from in turn; on
        # two_constants at 11*zeta >= 1 every level-1 sample fails at the
        # cutoff without drawing, so those runs move no draw of the stream
        cases = [
            (*ext_cost_class()[:3], 4.0),
            (two_constants(), Distribution.uniform(1), 1 / 4, 1 / 2),
        ]
        cutoff_fails = 0
        for cls, dist, zeta, alpha in cases:
            rep = stability_experiment(cls, 0, dist, zeta, alpha, runs=100, seed=40)
            rng = child_rng(40, 0x6)
            outs = [reference_G(cls, 0, dist, zeta, alpha, rng) for _ in range(100)]
            hyps = [o for o in outs if not isinstance(o, Fail)]
            assert rep.fails == 100 - len(hyps) and 0 < rep.fails < 100
            assert rep.hypothesis_hashes == tuple(stability._hyp_hash(h.values) for h in hyps)
            cutoff_fails += sum(isinstance(o, Fail) and o.draws_used > rep.cutoff for o in outs)
        assert cutoff_fails > 0

    def test_stable_learner_fails_like_the_replay(self, two_constants_01):
        # at zeta = 1/4 a level-1 sample never succeeds, so k = 1 runs fail
        dist = Distribution.uniform(1)
        learner = StableLearner(two_constants_01, 1 / 4, 1 / 2)
        rng, replay_rng = child_rng(0, 0x6), child_rng(0, 0x6)
        outs = [learner(0, dist, rng) for _ in range(6)]
        assert any(isinstance(o, Fail) for o in outs)
        replay = [reference_G(two_constants_01, 0, dist, 1 / 4, 1 / 2, replay_rng) for _ in range(6)]
        assert outs == replay


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test at the first block the sampler or G draws."""

    def refuse(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(Draws, "block", refuse)


class TestSampleExt:
    def test_sample_mask_matches_a_full_replay(self):
        # G reads the mask instead of replaying the sample: it must be the
        # mask a replay from the full class reaches, the full mask at level 0
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        levels = []
        for seed in range(8):
            for k in (2, 1, 0):
                s = sample_ext(state, 0, dist, k, m, 20_000, rng=child_rng(seed, 0xE27))
                if isinstance(s, Fail):
                    continue
                fresh = RsoaState(cls, zeta)
                assert s.mask == _reference_replay(fresh, _examples(s.segments))[1]
                levels.append(k)
        assert {0, 1, 2} <= set(levels)

    def test_level_zero_is_empty(self, two_constants_01):
        # a sample that draws nothing does not read its generator
        state = RsoaState(two_constants_01, 1 / 4)
        s = sample_ext(state, 0, Distribution.uniform(1), 0, 3, 100, rng=None)
        assert s.segments == ()
        assert s.draws_used == 0

    def test_level_one_structure(self):
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        s = sample_ext(state, 0, dist, 1, m, cutoff=10_000, rng=child_rng(2, 0xE27))
        assert not isinstance(s, Fail)
        assert s.k == 1
        assert len(s.segments) == 1
        block, mistake = s.segments[0]
        assert len(block) == m
        assert s.draws_used >= m

    def test_level_two_structure(self):
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        s = sample_ext(state, 0, dist, 2, m, cutoff=50_000, rng=child_rng(3, 0xE27))
        assert s.k == 2
        assert len(s.segments) == 2
        assert len(_examples(s.segments)) == 2 * (m + 1)

    def test_cutoff_returns_fail(self, two_constants_01):
        # at zeta=1/4 the disagreement threshold 11*zeta exceeds 1, so the
        # retry loop can never succeed and must hit the cutoff
        state = RsoaState(two_constants_01, 1 / 4)
        out = sample_ext(state, 0, Distribution.uniform(1), 1, 3, 60, rng=child_rng(4, 0xE27))
        assert isinstance(out, Fail)
        assert out.draws_used > 60

    def test_draw_count_at_the_cutoff(self):
        # seed 0's first level-1 attempt succeeds, after two blocks of m draws
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        s = sample_ext(state, 0, dist, 1, m, 2 * m, rng=child_rng(0, 0xE27))
        assert isinstance(s, ExtSample) and s.draws_used == 2 * m
        out = sample_ext(state, 0, dist, 1, m, 2 * m - 1, rng=child_rng(0, 0xE27))
        assert out == Fail(draws_used=2 * m)

    def test_a_long_run_holds_one_chunk_and_one_block(self, monkeypatch):
        # a one-concept class never splits, so a level-1 sample draws blocks up
        # to its cutoff: over 10^5 words, in blocks shorter and longer than a
        # chunk; the cursor's window never holds more than a chunk and a block
        windows = []
        block = Draws.block

        def watched(draws, cdf, m):
            out = block(draws, cdf, m)
            windows.append(max(draws._words.size, len(draws._points)) - m)
            return out

        monkeypatch.setattr(Draws, "block", watched)
        cutoff = 120_000
        for m in (3, 5 * CHUNK + 1):
            rng, ref = child_rng(m, 0xE27), child_rng(m, 0xE27)
            state = RsoaState(make_class([[0.3, 0.6]]), 1 / 16)
            out = sample_ext(state, 0, Distribution.uniform(2), 1, m, cutoff, rng)
            assert out == Fail(draws_used=cutoff + 1)
            ref.random(cutoff // m * m)
            assert rng.bit_generator.state == ref.bit_generator.state
        assert len(windows) == cutoff // 3 + cutoff // (5 * CHUNK + 1)
        assert max(windows) <= CHUNK

    def test_hopeless_level_fails_before_drawing(self, two_constants_01, no_draws):
        # with 11*zeta >= 1 no attempt can succeed, so no block is drawn and
        # the generator is not read
        state = RsoaState(two_constants_01, 1 / 4)
        for k in (1, 2):
            out = sample_ext(state, 0, Distribution.uniform(1), k, 3, 60, rng=None)
            assert out == Fail(draws_used=61)

    def test_empty_block_is_refused_before_drawing(self, no_draws):
        # with m = 0 both branches keep the full mask and no attempt uses up
        # the cutoff, so the sampler would retry forever
        cls, dist, zeta, _ = ext_cost_class()
        state = RsoaState(cls, zeta)
        for k, m in ((1, 0), (2, 0), (0, -1), (1, -1)):
            with pytest.raises(OutOfRange):
                sample_ext(state, 0, dist, k, m, 1000, rng=child_rng(1, 0xE27))
        assert sample_ext(state, 0, dist, 0, 0, 1000, rng=child_rng(1, 0xE27)).segments == ()

    def test_distribution_over_another_domain_is_refused_before_drawing(self, no_draws):
        cls, _, zeta, m = ext_cost_class()  # 3 points
        state = RsoaState(cls, zeta)
        for n in (2, 5):
            for k in (0, 1):
                with pytest.raises(DomainMismatch):
                    sample_ext(state, 0, Distribution.uniform(n), k, m, 1000, rng=child_rng(1, 0xE27))
            with pytest.raises(DomainMismatch):
                stability_experiment(cls, 0, Distribution.uniform(n), zeta, 4.0, runs=100, seed=1)

    def test_injected_label_is_a_bin_midpoint(self):
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        mids = set(round(v, 12) for v in np.arange(1, 2 * round(1 / zeta), 2) / (2 * round(1 / zeta)))
        for seed in range(10):
            s = sample_ext(state, 0, dist, 1, m, cutoff=10_000, rng=child_rng(seed, 0xE27))
            _, (x_star, alpha) = s.segments[-1]
            assert round(alpha, 12) in mids

    def test_mean_draw_cost_within_paper_bound(self):
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        for level in (1, 2):
            bound = 4 ** (level + 1) * m
            draws = []
            for seed in range(250):
                s = sample_ext(state, 0, dist, level, m, 100 * bound, rng=child_rng(seed, 0xE27))
                draws.append(s.draws_used)
            d = np.array(draws, dtype=float)
            se = d.std(ddof=1) / math.sqrt(len(d))
            assert d.mean() <= bound + 3 * se

    def test_near_target_injection_forces_a_mistake_on_replay(self):
        # when the injected label is the target's own bin midpoint, replaying
        # the sample makes the learner 5*zeta-wrong at the injection round
        cls, dist, zeta, m = ext_cost_class()
        sampler = RsoaState(cls, zeta)
        target = cls.by_id(0)
        checked = 0
        for seed in range(200):
            s = sample_ext(sampler, 0, dist, 1, m, cutoff=10_000, rng=child_rng(seed, 0xE27))
            examples = _examples(s.segments)
            x_star, alpha = examples[-1]
            if abs(alpha - target.values[x_star]) > zeta / 2:
                continue
            state = RsoaState(cls, zeta)
            mask = state.cache.full_mask()
            for xi, y in examples[:-1]:
                mask = state.update(mask, xi, y)
            prediction = state.predict(mask, x_star)
            assert abs(prediction - target.values[x_star]) > 5 * zeta
            checked += 1
        assert checked >= 3

    def test_validation(self, two_constants_01):
        state = RsoaState(two_constants_01, 1 / 4)
        with pytest.raises(OutOfRange):
            sample_ext(state, 0, Distribution.uniform(1), -1, 3, 10, None)
        with pytest.raises(OutOfRange):
            sample_ext(state, 0, Distribution.uniform(1), 0, 3, -1, None)


class TestStableLearner:
    def test_parameters_match_formulas(self, two_constants_01):
        learner = StableLearner(two_constants_01, 1 / 4, 1 / 2)
        d, m, cutoff = learner.d, learner.m, learner.cutoff
        assert d == 1
        assert m == math.ceil(math.log(4) / 0.5)  # = 3
        assert cutoff == 2 * 16**2 * 3

    def test_degenerate_dimension_zero(self, two_constants_19):
        # at zeta=1/4 the margin-1/2 dimension of {0.1, 0.9} is 0: G consumes
        # no examples and is deterministic
        learner = StableLearner(two_constants_19, 1 / 4, 1 / 2)
        assert (learner.d, learner.m, learner.cutoff) == (0, 0, 0)
        rng = child_rng(0, 0x6)
        outs = {learner(0, Distribution.uniform(1), rng).values for _ in range(5)}
        assert len(outs) == 1

    def test_final_block_updates_once_per_point_and_target(self, monkeypatch):
        # an update only intersects, so the sampler's blocks and G's final
        # blocks fold each target's fixed keep rows into the mask: the rows
        # are built once per (target, x) on the shared learner state, every
        # other update is an injected example, and every run's output stays
        # the replay's
        cls, dist, zeta, _ = ext_cost_class()
        learner = StableLearner(cls, zeta, 4.0)
        built, outside, building = [], [], []
        update, keep_rows = RsoaState.update, RsoaState.keep_rows

        def counting_update(state, mask, xi, y):
            (built if building else outside).append(y)
            return update(state, mask, xi, y)

        def counting_keep_rows(state, target_id):
            building.append(target_id)
            try:
                return keep_rows(state, target_id)
            finally:
                building.pop()

        monkeypatch.setattr(RsoaState, "update", counting_update)
        monkeypatch.setattr(RsoaState, "keep_rows", counting_keep_rows)
        outs = [learner(target, dist, child_rng(seed, 0x6)) for target in (0, 1) for seed in range(20)]
        assert sum(not isinstance(o, Fail) for o in outs[:20]) > 0
        assert sum(not isinstance(o, Fail) for o in outs[20:]) > 0
        assert len(built) == 2 * cls.domain_size
        bins = set(bin_midpoints(zeta))
        assert outside and all(y in bins for y in outside)
        monkeypatch.undo()
        assert outs == [reference_G(cls, target, dist, zeta, 4.0, child_rng(seed, 0x6))
                        for target in (0, 1) for seed in range(20)]

    def test_output_consistent_with_consumed_examples(self):
        # every final survivor agrees with every consumed example within zeta,
        # and the prediction-rule output stays within 5*zeta of each label
        cls, dist, zeta, m = ext_cost_class()
        sampler = RsoaState(cls, zeta)
        checked = 0
        for seed in range(160):
            s = sample_ext(sampler, 0, dist, 1, m, cutoff=10_000, rng=child_rng(seed, 0xE27))
            block = _reference_block(cls.by_id(0), dist, m, np.random.default_rng(seed))
            examples = _examples(s.segments) + list(block)
            state = RsoaState(cls, zeta)
            mask = state.cache.full_mask()
            for xi, y in examples:
                mask = state.update(mask, xi, y)
            if mask == 0:
                continue
            hyp = state.final_hypothesis(mask)
            for cid in ids_of_mask(cls, mask):
                for xi, y in examples:
                    assert abs(cls.by_id(cid).values[xi] - y) < zeta
            for xi, y in examples:
                assert abs(hyp.values[xi] - y) <= 5 * zeta + 1e-12
            checked += 1
        assert checked >= 5


class TestStabilityExperiment:
    def test_singleton_class_fully_stable(self):
        cls = make_class([[0.3]])
        rep = stability_experiment(
            cls, 0, Distribution.uniform(1), 1 / 4, 1 / 2, runs=100, seed=1
        )
        assert rep.empirical_frequency == 1.0
        assert rep.fails == 0

    def test_two_constant_class_beats_floor(self, two_constants_01):
        rep = stability_experiment(
            two_constants_01, 0, Distribution.uniform(1), 1 / 4, 1 / 2, runs=120, seed=2
        )
        sigma = math.sqrt(rep.theoretical_floor / rep.runs)
        assert rep.empirical_frequency >= rep.theoretical_floor - 3 * sigma
        assert rep.center_loss_12zeta <= 1 / 2

    def test_module_example_19(self, two_constants_19):
        # the {0.1, 0.9} class: the 1/16 floor holds (trivially, d=0 here)
        rep = stability_experiment(
            two_constants_19, 0, Distribution.uniform(1), 1 / 4, 1 / 2, runs=100, seed=3
        )
        assert rep.empirical_frequency >= 1 / 16

    def test_generalization_of_frequent_balls(self):
        # centres of balls at weight >= zeta^d generalize: loss at radius+zeta
        # bounded by d ln(1/zeta) / m plus statistical slack
        cls, dist, zeta, m_tuned = ext_cost_class()
        alpha = 0.7
        learner = StableLearner(cls, zeta, alpha)
        d, m = learner.d, learner.m
        runs = 150
        outputs = []
        rng = child_rng(900, 0x6)
        for _ in range(runs):
            out = learner(0, dist, rng)
            if not isinstance(out, Fail):
                outputs.append(out)
        floor = zeta**d
        bound = d * math.log(1 / zeta) / m
        seen = set()
        for f in outputs:
            if f.values in seen:
                continue
            seen.add(f.values)
            freq = ball_frequency(outputs, f, 5 * zeta, runs)
            if freq >= floor:
                slack = 3 * math.sqrt(bound * (1 - bound) / runs) if bound < 1 else 0
                assert loss(f, cls.by_id(0), 6 * zeta, dist) <= bound + slack

    def test_cutoff_soundness(self):
        # Pr[draws exceed the Markov cutoff] <= zeta^d / 2, within 3 sigma
        cls, dist, zeta, m = ext_cost_class()
        state = RsoaState(cls, zeta)
        d = sfat(cls, 2 * zeta).dimension
        cutoff = int(2 * (4.0 / zeta) ** (d + 1) * m)
        fails = 0
        runs = 200
        for s in range(runs):
            out = sample_ext(state, 0, dist, min(2, d), m, cutoff, rng=child_rng(5000 + s, 0xE27))
            fails += isinstance(out, Fail)
        ceiling = zeta**d / 2
        assert fails / runs <= ceiling + 3 * math.sqrt(ceiling / runs) + 1e-9

    def test_all_runs_failing_is_an_experiment_fault(self, two_constants_01, monkeypatch, tmp_path):
        # with every run failed there is no ball centre to report; every run
        # of the experiment draws its curated sample through sample_ext
        monkeypatch.setattr(stability, "sample_ext", lambda *a, **kw: Fail(draws_used=0))
        with pytest.raises(AllRunsFailed):
            stability_experiment(
                two_constants_01, 0, Distribution.uniform(1), 1 / 4, 1 / 2, runs=100, seed=1
            )
        cfg = tmp_path / "stability.json"
        cfg.write_text(json.dumps({"seed": 1, "zeta": 0.25, "runs": 100,
                                   "class": {"bundled": "two_constants"}}))
        assert main(["stability", str(cfg), "--out", str(tmp_path / "out")]) == 1

    def test_report_json(self, two_constants_01):
        rep = stability_experiment(
            two_constants_01, 0, Distribution.uniform(1), 1 / 4, 1 / 2, runs=120, seed=4
        )
        text = json.dumps(dataclasses.asdict(rep))
        assert '"empirical_frequency"' in text
        assert len(rep.hypothesis_hashes) == rep.runs - rep.fails

