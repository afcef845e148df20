import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterlab import (
    Concept,
    ConceptClass,
    Distribution,
    bin_midpoints,
    binary_entropy,
    loss,
    round_to_grid,
)
from shatterlab.concepts import class_from_json
from shatterlab.errors import DomainMismatch, NonIntegerReciprocal, OutOfRange
from shatterlab.online import RsoaState, prediction_grid
from shatterlab.seeding import Draws
from shatterlab.stability import ball_frequency
from tests.conftest import ids_of_mask, make_class, mask_of_ids


class TestCover:
    """`bin_midpoints`, and the learner's super-bins at `prediction_grid`."""

    def test_quarter_cover_matches_definition(self):
        assert bin_midpoints(1 / 4) == (0.125, 0.375, 0.625, 0.875)

    def test_half_cover(self):
        assert bin_midpoints(1 / 2) == (0.25, 0.75)

    def test_third_cover(self):
        assert bin_midpoints(1 / 3) == pytest.approx((1 / 6, 1 / 2, 5 / 6))

    @pytest.mark.parametrize("zeta", [0.3, 0.7, 1.5, 0.0, -0.25])
    def test_rejects_bad_zeta(self, zeta):
        with pytest.raises(NonIntegerReciprocal):
            bin_midpoints(zeta)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_sizes(self, n):
        assert len(bin_midpoints(1 / n)) == n

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 15, 16])
    def test_half_zeta_ball_inside_a_superbin(self, n):
        # every ball of radius zeta centred in (zeta, 1-zeta) sits inside a
        # learner super-bin (half-width 2*zeta around a prediction_grid
        # midpoint), odd 1/zeta included; probe a dense grid plus every
        # multiple of zeta/2: the bin edges and midpoints of both covers
        zeta = 1 / n
        grid = prediction_grid(zeta)
        probes = set(np.linspace(zeta + 1e-9, 1 - zeta - 1e-9, 431))
        probes.update(k / (2 * n) for k in range(2 * n + 1))
        probes.update(bin_midpoints(zeta))
        probes.update(grid)
        for y in probes:
            if not zeta < y < 1 - zeta:
                continue
            assert any(
                y - zeta >= r - 2 * zeta - 1e-12 and y + zeta <= r + 2 * zeta + 1e-12
                for r in grid
            )


def superbin_ids(cls, ids, r, x=0, zeta=1 / 8):
    """Ids of `ids` in the learner's super-bin B(2*zeta, r) at point x."""
    state = RsoaState(cls, zeta)
    bin_mask = state.bin_masks[x][state.grid.index(r)]
    return ids_of_mask(cls, mask_of_ids(cls, ids) & bin_mask)


class TestSuperbinMembers:
    def test_hand_example(self):
        cls = make_class([[0.1], [0.9]])
        assert superbin_ids(cls, {0, 1}, 0.25) == {0}

    def test_empty_subset(self):
        cls = make_class([[0.5]])
        assert superbin_ids(cls, set(), 0.5) == frozenset()

    def test_ball_center(self):
        cls = make_class([[0.5]])
        assert superbin_ids(cls, {0}, 0.5) == {0}

    def test_boundary_is_excluded(self):
        cls = make_class([[0.5]])
        # |0.5 - 0.25| equals the 2*zeta radius exactly: open ball excludes it
        assert superbin_ids(cls, {0}, 0.25) == frozenset()


class TestLoss:
    def test_zero_for_equal(self, uniform2):
        h = Concept(0, (0.3, 0.8))
        assert loss(h, h, 0.0, uniform2) == 0.0

    def test_total_for_opposite(self, uniform2):
        assert loss(Concept(0, (0.0, 0.0)), Concept(1, (1.0, 1.0)), 0.5, uniform2) == 1.0

    def test_weighted_single_violation(self):
        h = Concept(0, (0.1, 0.9))
        c = Concept(1, (0.3, 0.9))
        assert loss(h, c, 0.1, Distribution((0.25, 0.75))) == pytest.approx(0.25)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = Concept(0, tuple(rng.uniform(size=3)))
            c = Concept(1, tuple(rng.uniform(size=3)))
            d = Distribution(tuple(np.full(3, 1 / 3)))
            radii = np.sort(rng.uniform(size=4))
            losses = [loss(h, c, r, d) for r in radii]
            assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_domain_mismatch(self, uniform2):
        with pytest.raises(DomainMismatch):
            loss(Concept(0, (0.5,)), Concept(1, (0.5, 0.5)), 0.1, uniform2)


class TestFunctionBall:
    """The strict function ball, as the stability report's `ball_frequency` counts it."""

    def test_reflexive(self):
        center = Concept(3, (0.2, 0.6))
        assert ball_frequency([center], center, 0.1, 1) == 1.0

    def test_pointwise(self):
        pool = [Concept(0, (0.5,)), Concept(1, (0.65,)), Concept(2, (0.8,))]
        assert [ball_frequency([f], Concept(9, (0.5,)), 0.2, 1) for f in pool] == [1, 1, 0]

    def test_zero_radius_needs_exact_duplicate(self):
        pool = [Concept(0, (0.5,)), Concept(1, (0.5000001,))]
        assert ball_frequency(pool, Concept(9, (0.5,)), 0.0, 2) == 0.0

    def test_membership_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = Concept(0, tuple(rng.uniform(size=3)))
            g = Concept(1, tuple(rng.uniform(size=3)))
            r = rng.uniform(0.01, 0.9)
            assert ball_frequency([f], g, r, 1) == ball_frequency([g], f, r, 1)


class TestBinaryEntropy:
    @pytest.mark.parametrize("p,expected", [(0.5, 1.0), (0.0, 0.0), (1.0, 0.0)])
    def test_known_values(self, p, expected):
        assert binary_entropy(p) == pytest.approx(expected)

    def test_point_eleven(self):
        assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_range_and_symmetry(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binary_entropy(1.2)


class TestRoundToGrid:
    @pytest.mark.parametrize(
        "y,step,expected",
        [
            (0.0, 0.2, 0.1),
            (0.31, 0.2, 0.3),
            (0.2, 0.2, 0.1),  # tie goes to the lower midpoint
            (1.0, 0.25, 0.875),
            (0.5, 0.5, 0.25),  # tie again
        ],
    )
    def test_examples(self, y, step, expected):
        assert round_to_grid(y, step) == pytest.approx(expected)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=300)
    def test_error_bounded_by_half_step(self, y, n):
        step = 1 / n
        assert abs(round_to_grid(y, step) - y) <= step / 2 + 1e-12

    def test_result_is_a_midpoint(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            y = float(rng.uniform())
            assert round_to_grid(y, 1 / n) in bin_midpoints(1 / n)

    def test_bad_step(self):
        with pytest.raises(NonIntegerReciprocal):
            round_to_grid(0.5, 0.3)


class TestTypes:
    def test_concept_value_range(self):
        with pytest.raises(OutOfRange):
            Concept(0, (1.2,))

    def test_class_must_be_nonempty(self):
        with pytest.raises(OutOfRange):
            ConceptClass(1, ())

    def test_class_rejects_duplicate_ids(self):
        with pytest.raises(OutOfRange):
            ConceptClass(1, (Concept(0, (0.5,)), Concept(0, (0.6,))))

    def test_class_rejects_ragged_rows(self):
        with pytest.raises(DomainMismatch):
            ConceptClass(2, (Concept(0, (0.5,)),))

    def test_unknown_id_is_out_of_range(self):
        cls = ConceptClass(1, (Concept(3, (0.5,)),))
        assert cls.by_id(3).values == (0.5,) and cls.row_of(3) == 0
        with pytest.raises(OutOfRange):
            cls.by_id(4)
        with pytest.raises(OutOfRange):
            cls.row_of(4)

    def test_distribution_validation(self):
        with pytest.raises(OutOfRange):
            Distribution((0.5, 0.6))
        with pytest.raises(OutOfRange):
            Distribution((-0.1, 1.1))


def _distributions():
    """Random distributions with zero entries, point masses and the uniform."""
    out = [Distribution.uniform(1), Distribution.uniform(5), Distribution((1.0, 0.0, 0.0, 0.0)),
           Distribution((0.0, 0.0, 0.0, 1.0)), Distribution((0.0, 0.5, 0.0, 0.5))]
    gen = np.random.default_rng(2024)
    while len(out) < 40:
        n = int(gen.integers(1, 70))
        w = gen.random(n)
        w[gen.random(n) < 0.3] = 0.0
        if w.sum() == 0:
            continue
        p = tuple(w / w.sum())
        if abs(sum(p) - 1.0) <= 1e-12:
            out.append(Distribution(p))
    return out


class TestDistributionSample:
    """A cursor's block on the cached CDF is stream-identical to Generator.choice."""

    def test_matches_generator_choice(self):
        for i, d in enumerate(_distributions()):
            for size in range(9):
                for seed in range(3):
                    mine = np.random.default_rng((seed, i, size))
                    ref = np.random.default_rng((seed, i, size))
                    with Draws(mine) as draws:
                        got = draws.block(d.cdf, size)
                    assert got == ref.choice(len(d.p), size=size, p=np.array(d.p)).tolist()
                    assert mine.bit_generator.state == ref.bit_generator.state


class TestJson:
    def test_class_round_trip(self):
        cls = make_class([[0.1, 0.9], [0.25, 0.5]])
        text = json.dumps({"domain_size": cls.domain_size,
                           "concepts": [{"id": c.id, "values": list(c.values)} for c in cls]})
        assert class_from_json(text) == cls

    def test_class_json_shape(self):
        text = '{"domain_size": 1, "concepts": [{"id": 0, "values": [0.5]}]}'
        assert class_from_json(text) == make_class([[0.5]])

    @pytest.mark.parametrize("domain_size,cid,value", [
        (1, 1.7, 0.5), (1.9, 1, 0.5), (1, True, 0.5), (1, "1", 0.5), (True, 1, 0.5),
        (1, 1, "0.9"), (1, 1, True), (1, 1, None), (1, float("inf"), 0.5),
    ], ids=repr)
    def test_class_rejects_what_int_and_float_would_convert(self, domain_size, cid, value):
        text = json.dumps({"domain_size": domain_size,
                           "concepts": [{"id": cid, "values": [value]}]})
        with pytest.raises((TypeError, ValueError)):
            class_from_json(text)

    def test_class_takes_integral_floats(self):
        cls = class_from_json('{"domain_size": 1.0, "concepts": [{"id": 2.0, "values": [1]}]}')
        assert (cls.domain_size, cls.concepts[0].id, cls.concepts[0].values) == (1, 2, (1.0,))
        assert type(cls.domain_size) is int and type(cls.concepts[0].id) is int
