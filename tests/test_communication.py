import math

import pytest

from shatterlab import (
    AugIndexInstance,
    augindex_via_eval,
    cc_lower_bound,
    binary_entropy,
    index_bits,
    sfat,
)
from shatterlab.classes import boolean_cube, generate_class
from shatterlab.communication import all_instances
from shatterlab.errors import DepthMismatch, OutOfRange
from shatterlab.seeding import child_rng
from tests.conftest import make_class


class TestInstances:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            AugIndexInstance(d=2, x="012", i=1)
        with pytest.raises(OutOfRange):
            AugIndexInstance(d=2, x="01", i=3)

    def test_enumeration_count(self):
        assert sum(1 for _ in all_instances(3)) == 8 * 3


class TestBaseline:
    def test_bit_costs(self, four_constants):
        assert index_bits(four_constants) == 2
        assert index_bits(make_class([[0.5]])) == 0
        assert index_bits(generate_class(2, 16, 1 / 4, seed=0)) == 4
        assert index_bits(make_class([[0.1], [0.5], [0.9]])) == 2

    def test_exact_evaluation(self):
        # at rate 0 Bob reads f(x) itself, and the stream is left untouched
        cube3 = boolean_cube(3)
        res = sfat(cube3, 1 / 4)
        rng = child_rng(0, 0)
        state = rng.bit_generator.state
        for inst in all_instances(3):
            assert augindex_via_eval(cube3, res.witness, inst, 0.0, rng)
        assert rng.bit_generator.state == state

    def test_cost_never_below_lower_bound(self):
        # ceil(log2 |C|) >= (1 - H(0)) * sfat, since sfat <= log2 |C|
        for trial in range(20):
            cls = generate_class(4, 12, 1 / 4, seed=600 + trial)
            d = sfat(cls, 1 / 4).dimension
            assert index_bits(cls) >= cc_lower_bound(d, 0.0)


class TestReduction:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_success_on_cube(self, k):
        cube = boolean_cube(k)
        res = sfat(cube, 1 / 4)
        for inst in all_instances(k):
            assert augindex_via_eval(cube, res.witness, inst, 0.0, child_rng(0, 0))

    def test_single_bit_instance(self, two_constants_01):
        res = sfat(two_constants_01, 1 / 4)
        one = AugIndexInstance(1, "1", 1)
        assert augindex_via_eval(two_constants_01, res.witness, one, 0.0, child_rng(0, 0))
        # a sure flip turns Bob's output to 0
        assert not augindex_via_eval(
            two_constants_01, res.witness, one, 1 - 1e-12, child_rng(0, 0)
        )

    def test_shallow_instance_on_deep_tree(self):
        cube = boolean_cube(3)
        res = sfat(cube, 1 / 4)
        for inst in all_instances(2):
            assert augindex_via_eval(cube, res.witness, inst, 0.0, child_rng(0, 0))

    def test_depth_mismatch(self, two_constants_01):
        res = sfat(two_constants_01, 1 / 4)
        with pytest.raises(DepthMismatch):
            augindex_via_eval(
                two_constants_01,
                res.witness,
                AugIndexInstance(2, "10", 1),
                0.0,
                child_rng(0, 0),
            )

    @pytest.mark.parametrize("rate", [-0.5, 1.0, 1.5, math.nan, math.inf])
    def test_failure_rate_outside_unit_interval(self, two_constants_01, rate):
        res = sfat(two_constants_01, 1 / 4)
        with pytest.raises(OutOfRange):
            augindex_via_eval(
                two_constants_01, res.witness, AugIndexInstance(1, "1", 1), rate, child_rng(0, 0)
            )

    def test_rng_is_required(self, two_constants_01):
        # a default stream would restart at the same first uniform (0.637) on
        # every call, so a corruption rate below it would never fire
        res = sfat(two_constants_01, 1 / 4)
        with pytest.raises(TypeError):
            augindex_via_eval(two_constants_01, res.witness, AugIndexInstance(1, "1", 1), 0.6)

    def test_noisy_protocol_success_rate(self):
        cube3 = boolean_cube(3)
        res = sfat(cube3, 1 / 4)
        rng = child_rng(77, 0)
        insts = list(all_instances(3))
        trials = 4000
        succ = 0
        for t in range(trials):
            inst = insts[int(rng.integers(len(insts)))]
            succ += augindex_via_eval(cube3, res.witness, inst, 0.1, rng)
        rate = succ / trials
        assert rate >= 0.9 - 3 * math.sqrt(0.9 * 0.1 / trials)


class TestLowerBound:
    @pytest.mark.parametrize(
        "d,eps,expected",
        [(10, 0.0, 10.0), (10, 0.49999999, 0.0), (0, 0.1, 0.0)],
    )
    def test_known_values(self, d, eps, expected):
        assert cc_lower_bound(d, eps) == pytest.approx(expected, abs=1e-4)

    def test_formula(self):
        assert cc_lower_bound(8, 0.11) == pytest.approx(
            (1 - binary_entropy(0.11)) * 8
        )

    def test_validation(self):
        with pytest.raises(OutOfRange):
            cc_lower_bound(5, 0.5)
        with pytest.raises(OutOfRange):
            cc_lower_bound(-1, 0.1)
