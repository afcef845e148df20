import dataclasses
import json
import math

import numpy as np
import pytest

from shatterlab import (
    Concept,
    Distribution,
    ExtSample,
    Fail,
    loss,
    sample_ext,
    sfat,
    stability_experiment,
    stable_learner_G,
)
from shatterlab import stability
from shatterlab.classes import ext_cost_class, generate_class, two_constants
from shatterlab.cli import main
from shatterlab.concepts import cover_new
from shatterlab.errors import AllRunsFailed, OutOfRange
from shatterlab.online import RsoaState
from shatterlab.seeding import child_rng
from shatterlab.stability import ball_frequency, stable_learner_parameters
from tests.conftest import make_class


# -- a full-prefix replay reference: every attempt replays its whole sample
# from the full class, draws with Generator.choice, and materializes the
# hypothesis afresh, so it shares only RsoaState.update/predict with the
# library's sampler


def _reference_block(target, dist, m, rng):
    xs = rng.choice(len(dist.p), size=m, p=np.array(dist.p))
    return tuple((int(x), target.values[int(x)]) for x in xs)


def _reference_replay(state, examples):
    state.mask = state.cache.full_mask()
    for xi, y in examples:
        state.update(xi, y)
    values = tuple(state.predict(x) for x in range(state.cls.domain_size))
    return Concept(-1, values), state.mask


def reference_sample_ext(cls, target_id, dist, k, m, zeta, cutoff, seed):
    target = cls.by_id(target_id)
    bins = cover_new(zeta).bin_midpoints
    rng = child_rng(seed, 0xE27)
    state = RsoaState(cls, zeta, strict=False)
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
                prefix = [e for blk, injected in sub for e in (*blk, injected)]
                pair.append((sub, block, _reference_replay(state, prefix + list(block))[0]))
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
    return ExtSample(segments=segments, k=k, draws_used=used)


def reference_G(cls, target_id, dist, zeta, alpha, seed):
    d, m, cutoff = stable_learner_parameters(cls, zeta, alpha)
    rng = child_rng(seed, 0x6)
    k = int(rng.integers(0, d + 1))
    s = reference_sample_ext(cls, target_id, dist, k, m, zeta, cutoff, int(rng.integers(2**63)))
    if isinstance(s, Fail):
        return s
    block = _reference_block(cls.by_id(target_id), dist, m, rng)
    hyp, mask = _reference_replay(RsoaState(cls, zeta, strict=False), s.examples() + list(block))
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
            for k in (0, 1, 2):
                for cutoff in cutoffs:
                    for seed in range(6):
                        got = sample_ext(c, 0, d, k, block, z, cutoff, seed=seed)
                        assert got == reference_sample_ext(c, 0, d, k, block, z, cutoff, seed)
                        seen["fail" if isinstance(got, Fail) else "ok"] += 1
        assert seen["fail"] >= 10 and seen["ok"] >= 10

    def test_stable_learner_matches_full_prefix_replay(self):
        cls, dist, zeta, _ = ext_cost_class()
        for alpha in (0.7, 4.0):
            for seed in range(12):
                got = stable_learner_G(cls, 0, dist, zeta, alpha, seed)
                assert got == reference_G(cls, 0, dist, zeta, alpha, seed)

    def test_experiment_matches_the_replay_run_by_run(self):
        # the experiment hands every run one shared learner state
        cls, dist, zeta, _ = ext_cost_class()
        rep = stability_experiment(cls, 0, dist, zeta, 4.0, runs=100, seed=40)
        outs = [reference_G(cls, 0, dist, zeta, 4.0, 40 + i) for i in range(100)]
        hyps = [o for o in outs if not isinstance(o, Fail)]
        assert rep.fails == 100 - len(hyps) and 0 < rep.fails < 100
        assert rep.hypothesis_hashes == tuple(stability._hyp_hash(h.values) for h in hyps)

    def test_stable_learner_fails_like_the_replay(self, two_constants_01):
        # at zeta = 1/4 a level-1 sample never succeeds, so k = 1 runs fail
        dist = Distribution.uniform(1)
        outs = [stable_learner_G(two_constants_01, 0, dist, 1 / 4, 1 / 2, s) for s in range(6)]
        assert any(isinstance(o, Fail) for o in outs)
        assert outs == [reference_G(two_constants_01, 0, dist, 1 / 4, 1 / 2, s) for s in range(6)]


class TestSampleExt:
    def test_level_zero_is_empty(self, two_constants_01):
        s = sample_ext(
            two_constants_01, 0, Distribution.uniform(1), 0, 3, 1 / 4, 100, seed=1
        )
        assert s.segments == ()
        assert s.draws_used == 0

    def test_level_one_structure(self):
        cls, dist, zeta, m = ext_cost_class()
        s = sample_ext(cls, 0, dist, 1, m, zeta, cutoff=10_000, seed=2)
        assert not isinstance(s, Fail)
        assert s.k == 1
        assert len(s.segments) == 1
        block, mistake = s.segments[0]
        assert len(block) == m
        assert s.draws_used >= m

    def test_level_two_structure(self):
        cls, dist, zeta, m = ext_cost_class()
        s = sample_ext(cls, 0, dist, 2, m, zeta, cutoff=50_000, seed=3)
        assert s.k == 2
        assert len(s.segments) == 2
        assert len(s.examples()) == 2 * (m + 1)

    def test_cutoff_returns_fail(self, two_constants_01):
        # at zeta=1/4 the disagreement threshold 11*zeta exceeds 1, so the
        # retry loop can never succeed and must hit the cutoff
        out = sample_ext(
            two_constants_01, 0, Distribution.uniform(1), 1, 3, 1 / 4, 60, seed=4
        )
        assert isinstance(out, Fail)
        assert out.draws_used > 60

    def test_hopeless_level_fails_before_drawing(self, two_constants_01, monkeypatch):
        # with 11*zeta >= 1 no attempt can succeed, so no block is drawn
        def no_draws(*args):
            raise AssertionError("sample_ext drew a block")

        monkeypatch.setattr(stability, "_draw_block", no_draws)
        for k in (1, 2):
            out = sample_ext(two_constants_01, 0, Distribution.uniform(1), k, 3, 1 / 4, 60, seed=4)
            assert out == Fail(draws_used=61)

    def test_injected_label_is_a_bin_midpoint(self):
        cls, dist, zeta, m = ext_cost_class()
        mids = set(round(v, 12) for v in np.arange(1, 2 * round(1 / zeta), 2) / (2 * round(1 / zeta)))
        for seed in range(10):
            s = sample_ext(cls, 0, dist, 1, m, zeta, cutoff=10_000, seed=seed)
            _, (x_star, alpha) = s.segments[-1]
            assert round(alpha, 12) in mids

    def test_mean_draw_cost_within_paper_bound(self):
        cls, dist, zeta, m = ext_cost_class()
        for level in (1, 2):
            bound = 4 ** (level + 1) * m
            draws = []
            for seed in range(250):
                s = sample_ext(cls, 0, dist, level, m, zeta, 100 * bound, seed=seed)
                draws.append(s.draws_used)
            d = np.array(draws, dtype=float)
            se = d.std(ddof=1) / math.sqrt(len(d))
            assert d.mean() <= bound + 3 * se

    def test_near_target_injection_forces_a_mistake_on_replay(self):
        # when the injected label is the target's own bin midpoint, replaying
        # the sample makes the learner 5*zeta-wrong at the injection round
        cls, dist, zeta, m = ext_cost_class()
        target = cls.by_id(0)
        checked = 0
        for seed in range(200):
            s = sample_ext(cls, 0, dist, 1, m, zeta, cutoff=10_000, seed=seed)
            examples = s.examples()
            x_star, alpha = examples[-1]
            if abs(alpha - target.values[x_star]) > zeta / 2:
                continue
            state = RsoaState(cls, zeta, strict=False)
            for xi, y in examples[:-1]:
                state.update(xi, y)
            prediction = state.predict(x_star)
            assert abs(prediction - target.values[x_star]) > 5 * zeta
            checked += 1
        assert checked >= 3

    def test_validation(self, two_constants_01):
        with pytest.raises(OutOfRange):
            sample_ext(two_constants_01, 0, Distribution.uniform(1), -1, 3, 1 / 4, 10, 0)


class TestStableLearner:
    def test_parameters_match_formulas(self, two_constants_01):
        d, m, cutoff = stable_learner_parameters(two_constants_01, 1 / 4, 1 / 2)
        assert d == 1
        assert m == math.ceil(math.log(4) / 0.5)  # = 3
        assert cutoff == 2 * 16**2 * 3

    def test_degenerate_dimension_zero(self, two_constants_19):
        # at zeta=1/4 the margin-1/2 dimension of {0.1, 0.9} is 0: G consumes
        # no examples and is deterministic
        d, m, cutoff = stable_learner_parameters(two_constants_19, 1 / 4, 1 / 2)
        assert (d, m, cutoff) == (0, 0, 0)
        outs = {
            stable_learner_G(
                two_constants_19, 0, Distribution.uniform(1), 1 / 4, 1 / 2, seed=s
            ).values
            for s in range(5)
        }
        assert len(outs) == 1

    def test_output_consistent_with_consumed_examples(self):
        # every final survivor agrees with every consumed example within zeta,
        # and the prediction-rule output stays within 5*zeta of each label
        cls, dist, zeta, m = ext_cost_class()
        checked = 0
        for seed in range(160):
            s = sample_ext(cls, 0, dist, 1, m, zeta, cutoff=10_000, seed=seed)
            xs = dist.sample(np.random.default_rng(seed), m)
            block = [(int(x), cls.by_id(0).values[int(x)]) for x in xs]
            examples = s.examples() + block
            state = RsoaState(cls, zeta, strict=False)
            for xi, y in examples:
                state.update(xi, y)
            if state.mask == 0:
                continue
            hyp = state.final_hypothesis()
            for cid in state.surviving_ids:
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
        d, m, cutoff = stable_learner_parameters(cls, zeta, alpha)
        runs = 150
        outputs = []
        for s in range(runs):
            out = stable_learner_G(cls, 0, dist, zeta, alpha, seed=900 + s)
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
        d = sfat(cls, None, 2 * zeta).dimension
        cutoff = int(2 * (4.0 / zeta) ** (d + 1) * m)
        fails = 0
        runs = 200
        for s in range(runs):
            out = sample_ext(cls, 0, dist, min(2, d), m, zeta, cutoff, seed=5000 + s)
            fails += isinstance(out, Fail)
        ceiling = zeta**d / 2
        assert fails / runs <= ceiling + 3 * math.sqrt(ceiling / runs) + 1e-9

    def test_all_runs_failing_is_an_experiment_fault(self, two_constants_01, monkeypatch, tmp_path):
        # with every run failed there is no ball centre to report
        monkeypatch.setattr(stability, "stable_learner_G", lambda *a, **kw: Fail(draws_used=0))
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

