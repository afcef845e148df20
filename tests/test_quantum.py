import math

import numpy as np
import pytest

from shatterlab import (
    DensityMatrix,
    Ensemble,
    Measurement,
    audenaert_bound,
    binary_entropy,
    depolarizing_capacity_bound,
    expectation,
    holevo_chi,
    junta_bound,
    materialize_concept_class,
    max_holevo,
    nayak_inequality_check,
    quantum_ball_member,
    sfat,
    sfat_holevo_bound,
    srac_from_tree,
    von_neumann_entropy,
)
from shatterlab.errors import DimMismatch, InvalidTree, NonConvergence, NotPSD, OutOfRange
from shatterlab.quantum import (
    computational_projector,
    helstrom_probability,
    measurement_from_json,
    measurement_to_json,
    random_basis_measurements,
    random_density_matrix,
    random_pure_state,
    state_from_json,
    state_to_json,
    trace_distance,
)
from shatterlab.seeding import child_rng

KET0 = DensityMatrix(np.array([[1, 0], [0, 0]], dtype=complex))
KET1 = DensityMatrix(np.array([[0, 0], [0, 1]], dtype=complex))
PLUS = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
MAXMIX = DensityMatrix(np.eye(2, dtype=complex) / 2)
PROJ0 = Measurement(np.array([[1, 0], [0, 0]], dtype=complex))
PROJX = Measurement(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
PROJY = Measurement(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex))


class TestValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.array([[0.5, 1], [0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))

    def test_rejects_odd_dimension(self):
        with pytest.raises(DimMismatch):
            DensityMatrix(np.eye(3, dtype=complex) / 3)

    def test_effect_spectrum_bound(self):
        with pytest.raises(NotPSD):
            Measurement(2 * np.eye(2, dtype=complex))


class TestExpectation:
    def test_projector_on_own_state(self):
        assert expectation(KET0, PROJ0) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert expectation(MAXMIX, PROJ0) == pytest.approx(0.5)

    def test_plus_against_z(self):
        assert expectation(PLUS, PROJ0) == pytest.approx(0.5)

    def test_dim_mismatch(self):
        big = DensityMatrix(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DimMismatch):
            expectation(big, PROJ0)


class TestMaterialize:
    def test_shapes_and_values(self):
        cls = materialize_concept_class([KET0, KET1], [PROJ0])
        assert cls.domain_size == 1
        assert cls.by_id(0).values == (1.0,)
        assert cls.by_id(1).values == (0.0,)

    def test_cross_check_elementwise(self):
        rng = child_rng(21, 0)
        states = [random_density_matrix(2, rng) for _ in range(2)]
        meas = random_basis_measurements(2, rng, 3)
        cls = materialize_concept_class(states, meas)
        for i, s in enumerate(states):
            for j, e in enumerate(meas):
                # independent recomputation straight from the matrices
                direct = float(np.trace(e.effect @ s.matrix).real)
                assert cls.by_id(i).values[j] == pytest.approx(direct, abs=1e-9)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(KET0) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(MAXMIX) == pytest.approx(1.0)

    def test_diagonal(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.25))


class TestHolevo:
    def test_identical_states(self):
        assert holevo_chi(Ensemble.uniform([KET0, KET0])) == 0.0

    def test_orthogonal_pair(self):
        assert holevo_chi(Ensemble.uniform([KET0, KET1])) == pytest.approx(1.0)

    def test_zero_plus_pair(self):
        expected = binary_entropy((1 + 1 / math.sqrt(2)) / 2)
        assert holevo_chi(Ensemble.uniform([KET0, PLUS])) == pytest.approx(
            expected, abs=1e-9
        )

    def test_nonnegative_on_random_ensembles(self):
        for s in range(30):
            rng = child_rng(30, s)
            states = [random_density_matrix(4, rng) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            assert holevo_chi(Ensemble(tuple(states), tuple(w))) >= 0.0


class TestMaxHolevo:
    def test_single_state(self):
        assert max_holevo([KET0]) == (0.0, (1.0,))

    def test_orthogonal_pair(self):
        chi, w = max_holevo([KET0, KET1], tol=1e-9)
        assert chi == pytest.approx(1.0, abs=1e-6)
        assert w == pytest.approx((0.5, 0.5), abs=1e-3)

    def test_zero_plus_pair_matches_grid(self):
        chi, w = max_holevo([KET0, PLUS], tol=1e-9)
        grid = max(
            holevo_chi(Ensemble((KET0, PLUS), (p, 1 - p)))
            for p in np.linspace(0, 1, 101)
        )
        assert abs(chi - grid) <= 1e-4
        assert w == pytest.approx((0.5, 0.5), abs=1e-3)

    def test_dominates_uniform_weights(self):
        for s in range(20):
            rng = child_rng(31, s)
            states = [random_density_matrix(2, rng) for _ in range(3)]
            chi, _ = max_holevo(states, tol=1e-8)
            assert chi >= holevo_chi(Ensemble.uniform(states)) - 1e-6

    def test_guard(self):
        with pytest.raises(OutOfRange):
            max_holevo([], tol=1e-6)

    def test_iteration_cap_raises(self):
        with pytest.raises(NonConvergence):
            max_holevo([KET0, PLUS], tol=1e-9, max_iter=1)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_rejects_a_tol_that_is_not_positive(self, tol):
        with pytest.raises(OutOfRange):
            max_holevo([KET0, KET1], tol=tol)


class TestBounds:
    @pytest.mark.parametrize(
        "d,lam,expected",
        [(2, 1.0, 1.0), (2, 0.0, 0.0)],
    )
    def test_depolarizing_endpoints(self, d, lam, expected):
        assert depolarizing_capacity_bound(d, lam) == pytest.approx(expected)

    def test_depolarizing_half(self):
        assert depolarizing_capacity_bound(2, 0.5) == pytest.approx(
            1 - binary_entropy(0.75), abs=1e-9
        )

    def test_audenaert_identical(self):
        assert audenaert_bound(Ensemble.uniform([KET0, KET0])) == 0.0

    def test_audenaert_orthogonal(self):
        assert audenaert_bound(Ensemble.uniform([KET0, KET1])) == pytest.approx(1.0)

    def test_audenaert_zero_plus(self):
        assert audenaert_bound(Ensemble.uniform([KET0, PLUS])) == pytest.approx(
            1 / math.sqrt(2), abs=1e-9
        )

    def test_audenaert_dominates_chi(self):
        for s in range(30):
            rng = child_rng(32, s)
            states = [random_density_matrix(2, rng) for _ in range(int(rng.integers(2, 5)))]
            ens = Ensemble.uniform(states)
            assert holevo_chi(ens) <= audenaert_bound(ens) + 1e-9

    @pytest.mark.parametrize("k,expected", [(1, 0.0), (2, 1.0), (8, 3.0)])
    def test_junta(self, k, expected):
        assert junta_bound(k) == pytest.approx(expected)

    def test_sfat_holevo_bound(self):
        assert sfat_holevo_bound(1.0, 1.0) == pytest.approx(1.0)
        assert sfat_holevo_bound(0.0, 0.9) == 0.0
        expected = 0.6009 / (1 - binary_entropy(0.9))
        assert sfat_holevo_bound(0.6009, 0.9) == pytest.approx(expected)
        with pytest.raises(OutOfRange):
            sfat_holevo_bound(1.0, 0.5)


class TestNayak:
    def test_orthogonal_equality(self):
        assert nayak_inequality_check(KET0, KET1)
        # equality case: S(mix)=1, average entropy 0, 1 - H(1) = 1
        assert helstrom_probability(KET0, KET1) == pytest.approx(1.0)

    def test_identical_states(self):
        assert nayak_inequality_check(KET0, KET0)

    def test_random_sweep(self):
        for s in range(100):
            rng = child_rng(33, s)
            a = random_density_matrix(2, rng)
            b = random_density_matrix(2, rng)
            assert nayak_inequality_check(a, b)


class TestQuantumBall:
    def test_reflexive(self):
        assert quantum_ball_member(KET0, KET0, 0.0, [PROJ0, PROJX])

    def test_orthogonal_states_differ_on_z(self):
        assert not quantum_ball_member(KET0, KET1, 0.5, [PROJ0])

    def test_mixed_matches_pure_on_xy(self):
        assert quantum_ball_member(MAXMIX, KET0, 0.1, [PROJX, PROJY])


class TestSrac:
    def test_depth_zero(self):
        cls_states = [KET0]
        meas = [PROJ0]
        res = sfat(materialize_concept_class(cls_states, meas), None, 1 / 4)
        code = srac_from_tree(cls_states, meas, res.witness, 1 / 4)
        assert code.k == 0
        assert code.code == {"": 0}

    def test_one_bit_code(self):
        states = [KET0, KET1]
        meas = [PROJ0]
        res = sfat(materialize_concept_class(states, meas), None, 1 / 4)
        code = srac_from_tree(states, meas, res.witness, 1 / 4)
        assert code.k == 1
        assert code.tree.a == pytest.approx(0.5)
        assert code.verify_separation(states, meas)
        # swapped states put each codeword on the wrong side of the threshold
        assert not code.verify_separation([KET1, KET0], meas)
        # mixed states sit on the threshold, inside the margin
        assert not code.verify_separation([DensityMatrix(np.eye(2) / 2)] * 2, meas)
        for word, sid in code.code.items():
            assert code.decode(states, meas, sid) == word

    def test_random_micro_codes_decode(self):
        for s in range(10):
            rng = child_rng(34, s)
            states = [random_pure_state(2, rng) for _ in range(4)]
            meas = random_basis_measurements(2, rng, 4)
            cls = materialize_concept_class(states, meas)
            res = sfat(cls, None, 1 / 8)
            code = srac_from_tree(states, meas, res.witness, 1 / 8)
            assert code.verify_separation(states, meas)
            for word, sid in code.code.items():
                assert code.decode(states, meas, sid) == word

    def test_invalid_tree_rejected(self):
        states = [KET0, KET1]
        meas = [PROJ0]
        res = sfat(materialize_concept_class(states, meas), None, 1 / 4)
        with pytest.raises(InvalidTree):
            srac_from_tree([KET0, PLUS], meas, res.witness, 1 / 4)


class TestStabilityTranslation:
    """Function-ball machinery on a materialized class is exactly the
    measurement-restricted state ball, so the stable learner's guarantee
    carries over to quantum classes unchanged."""

    def test_function_ball_equals_state_ball(self):
        rng = child_rng(36, 0)
        states = [random_density_matrix(2, rng) for _ in range(4)]
        meas = random_basis_measurements(2, rng, 4)
        cls = materialize_concept_class(states, meas)
        eps = 0.3
        for i in range(4):
            for j in range(4):
                func_side = all(
                    abs(a - b) <= eps
                    for a, b in zip(cls.by_id(i).values, cls.by_id(j).values)
                )
                assert func_side == quantum_ball_member(states[j], states[i], eps, meas)

    def test_stable_learner_on_quantum_class(self):
        from shatterlab import Distribution, stability_experiment

        rng = child_rng(36, 1)
        states = [random_pure_state(2, rng) for _ in range(3)]
        meas = random_basis_measurements(2, rng, 3)
        cls = materialize_concept_class(states, meas)
        rep = stability_experiment(
            cls, 0, Distribution.uniform(3), zeta=1 / 4, alpha=1.0, runs=100, seed=5
        )
        sigma = math.sqrt(max(rep.theoretical_floor, 1e-12) / rep.runs)
        assert rep.empirical_frequency >= rep.theoretical_floor - 3 * sigma
        # the reported centre, read as expectation values, is a state ball centre
        assert rep.center_loss_12zeta <= 1.0


class TestShadowOnQuantumClasses:
    def test_diagonal_two_qubit_class(self):
        # diagonal 2-qubit states over the 4 computational projectors
        diag_specs = [(0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4), (0.25,) * 4]
        states = [DensityMatrix(np.diag(d).astype(complex)) for d in diag_specs]
        meas = [computational_projector(4, k) for k in range(4)]
        cls = materialize_concept_class(states, meas)
        eps = 0.5
        from shatterlab import run_shadow_stream

        bound = sfat(cls, None, 2 * eps / 5).dimension
        tr, estimates = run_shadow_stream(cls, 0, list(range(4)) * 2, eps)
        assert tr.updates <= bound
        truth = cls.by_id(0).values
        for r, est in zip(tr.rounds, estimates):
            if not r.mistake:
                assert abs(est - truth[r.x]) <= eps

    def test_second_pass_is_quiet_after_stabilizing(self):
        # once a full pass over the measurements triggers no update, replaying
        # the same pass cannot trigger any either (the learner is memoryless
        # outside its surviving set)
        rng = child_rng(37, 2)
        states = [random_pure_state(2, rng) for _ in range(3)]
        meas = random_basis_measurements(2, rng, 4)
        cls = materialize_concept_class(states, meas)
        from shatterlab import run_shadow_stream

        tr, _ = run_shadow_stream(cls, 1, list(range(4)) * 3, 0.5)
        passes = [tr.rounds[i * 4 : (i + 1) * 4] for i in range(3)]
        for a, b in zip(passes, passes[1:]):
            if all(r.v_after == r.v_before for r in a):
                assert all(r.v_after == r.v_before for r in b)

    def test_trace_distance_symmetry(self):
        assert trace_distance(KET0, PLUS) == pytest.approx(
            trace_distance(PLUS, KET0)
        )
        assert trace_distance(KET0, KET1) == pytest.approx(1.0)


class TestJson:
    def test_state_round_trip(self):
        again = state_from_json(state_to_json(PLUS))
        assert np.allclose(again.matrix, PLUS.matrix)

    def test_measurement_round_trip(self):
        again = measurement_from_json(measurement_to_json(PROJY))
        assert np.allclose(again.effect, PROJY.effect)

    def test_rejects_mismatched_dim(self):
        import json as js

        bad = js.dumps({"dim": 4, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
        with pytest.raises(DimMismatch):
            state_from_json(bad)
