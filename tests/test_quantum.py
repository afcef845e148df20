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
    materialize_concept_class,
    max_holevo,
    nayak_inequality_check,
    sfat,
    sfat_holevo_bound,
    srac_from_tree,
    von_neumann_entropy,
)
from shatterlab.errors import DimMismatch, InvalidTree, NonConvergence, NotPSD, OutOfRange
from shatterlab.quantum import (
    helstrom_probability,
    measurement_from_json,
    measurement_to_json,
    random_basis_measurements,
    random_density_matrix,
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
PROJY = Measurement(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex))


def random_pure_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


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

    @pytest.mark.parametrize(
        "entries",
        [[[np.nan, 0], [0, 1]], [[np.inf, 0], [0, 1]], [[-np.inf, 0], [0, 1]],
         [[0.5, complex(0, np.nan)], [complex(0, np.nan), 0.5]]],
        ids=["nan", "inf", "-inf", "imaginary-nan"],
    )
    def test_rejects_non_finite_entries(self, entries):
        m = np.array(entries, dtype=complex)
        with pytest.raises(NotPSD, match="non-finite"):
            DensityMatrix(m)
        with pytest.raises(NotPSD, match="non-finite"):
            Measurement(m)


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


class TestBatchedPairWork:
    """The stacked eigvalsh and matmul give every matrix its own result, so
    the batched bounds equal the per-pair ones bit for bit."""

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_audenaert_is_the_pairwise_maximum(self, dim):
        for seed in range(3):
            rng = child_rng(seed, dim)
            states = [random_density_matrix(dim, rng) for _ in range(16)]
            for n in (2, 3, 16):
                v_m = max(trace_distance(a, b)
                          for i, a in enumerate(states[:n]) for b in states[i + 1:n])
                got = audenaert_bound(Ensemble.uniform(states[:n]))
                assert got.hex() == (v_m * math.log2(n)).hex()

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_materialize_is_the_pairwise_expectation(self, dim):
        for seed in range(3):
            rng = child_rng(seed, 100 + dim)
            states = [random_density_matrix(dim, rng) for _ in range(6)]
            meas = random_basis_measurements(dim, rng, 16)
            # projectors onto basis vectors sit at the clamp's edges too
            meas += [Measurement(np.eye(dim, dtype=complex)), Measurement(np.zeros((dim, dim)))]
            cls = materialize_concept_class(states, meas)
            for s, c in zip(states, cls, strict=True):
                assert [v.hex() for v in c.values] == [expectation(s, e).hex() for e in meas]

    def test_materialize_refuses_mixed_dimensions(self):
        big = DensityMatrix(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DimMismatch, match=r"\[2, 4\]"):
            materialize_concept_class([KET0, big], [PROJ0])
        with pytest.raises(DimMismatch, match=r"\[2, 4\]"):
            materialize_concept_class([KET0], [PROJ0, Measurement(np.eye(4, dtype=complex))])


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


#: the benchmark's Holevo cells: (state dim, states), states drawn as the
#: quantum CLI draws them for seed 1
QUANTUM_CELLS = ((2, 4), (4, 16), (4, 8), (8, 16), (8, 3), (16, 16), (16, 6), (8, 8))


def cell_states(dim, count):
    rng = child_rng(1, 0x57A7E5)
    return [random_density_matrix(dim, rng) for _ in range(count)]


def random_ensemble(s):
    rng = child_rng(32, s)
    dim = int(rng.choice([2, 4, 8, 16]))
    count = int(rng.integers(2, 17))
    draw = random_pure_state if s % 3 == 0 else random_density_matrix
    return [draw(dim, rng) for _ in range(count)]


def reference_chi(states, tol=1e-13):
    """Blahut-Arimoto steps on the log weights, accelerated by Anderson mixing
    and stopped on the duality gap, written apart from the library: returns
    (chi, gap) with chi <= chi* <= chi + gap.

    The mixing fits the last five residual steps in the sqrt(q) metric, so a
    state whose weight dies out stops steering it. A mixed step that lowers
    chi is replaced by the plain step, which never does. The gap carries
    1e-14 of evaluation roundoff: two formulas for chi at the same weights
    differ by a few 1e-15.
    """
    rho = np.array([s.matrix for s in states])

    def log2_of(m):
        eig, vec = np.linalg.eigh(m)
        keep = eig > 1e-14
        return (vec[:, keep] * np.log2(eig[keep])) @ vec[:, keep].conj().T

    own = np.einsum("ijk,ikj->i", rho, np.array([log2_of(r) for r in rho])).real

    def evaluate(x):  # x: log weights, up to a constant
        q = np.exp(x - x.max())
        q /= q.sum()
        div = own - np.einsum("ijk,kj->i", rho, log2_of(np.einsum("i,ijk->jk", q, rho))).real
        return q, float(q @ div), div

    x = np.zeros(len(rho))
    q, chi, div = evaluate(x)
    xs, fs = [], []
    for _ in range(10**4):
        if div.max() - chi < tol:
            return chi, float(div.max() - chi) + 1e-14
        f = np.log(2) * (div - chi)  # the plain step is x + f
        xs, fs = (xs + [x])[-6:], (fs + [f])[-6:]
        step = x + f
        if len(fs) > 1:
            w = np.sqrt(q)
            dx, df = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
            gamma = np.linalg.lstsq(df * w[:, None], f * w, rcond=None)[0]
            step = step - (dx + df) @ gamma
        trial = evaluate(step)
        if trial[1] < chi and len(fs) > 1:
            xs, fs = [], []
            step = x + f
            trial = evaluate(step)
        x, (q, chi, div) = step, trial
    raise AssertionError("reference solve did not converge")


def _draws(draw, dim, count, s):
    def states():
        rng = child_rng(41, s)
        return [draw(dim, rng) for _ in range(count)]

    return states


def _barely_outside_span():
    """|0>, |1> and (|0> + |1> + 1e-3 |2>)/norm.  The third state's optimal
    weight is about 2e-5, and each plain step closes only about 1e-6 of the
    distance to it in log weight."""
    kets = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1e-3, 0]], dtype=complex)
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return [DensityMatrix(np.outer(k, k.conj())) for k in kets]


#: ensembles whose KKT systems are singular or nearly so: duplicated states,
#: more than d^2 states at dim 2, all-pure ensembles with more states than
#: dimensions, optimal weights of 0, and a state that barely leaves the
#: others' span
DEGENERATE = {
    "duplicated-pure": lambda: [KET0, PLUS, KET0, PLUS, PLUS],
    "duplicated-mixed": lambda: 2 * cell_states(4, 3) + cell_states(4, 1),
    "dim-2-mixed-8": _draws(random_density_matrix, 2, 8, 0),
    "dim-2-mixed-16": _draws(random_density_matrix, 2, 16, 1),
    "dim-2-pure-16": _draws(random_pure_state, 2, 16, 2),
    "pure-4-8": _draws(random_pure_state, 4, 8, 3),
    "pure-8-16": _draws(random_pure_state, 8, 16, 4),
    "ket0-ket1-maxmix": lambda: [KET0, KET1, MAXMIX],
    "barely-outside-span": _barely_outside_span,
}
#: evaluations allowed on each degenerate ensemble (the most any takes is 16)
DEGENERATE_EVALUATIONS = 40


class TestMaxHolevo:
    def test_single_state(self):
        assert max_holevo([KET0]) == (0.0, (1.0,), 0.0, 0)

    def test_orthogonal_pair(self):
        chi, w, _, _ = max_holevo([KET0, KET1], tol=1e-9)
        assert chi == pytest.approx(1.0, abs=1e-6)
        assert w == pytest.approx((0.5, 0.5), abs=1e-3)

    def test_zero_plus_pair_matches_grid(self):
        chi, w, _, _ = max_holevo([KET0, PLUS], tol=1e-9)
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
            chi, _, _, _ = max_holevo(states, tol=1e-8)
            assert chi >= holevo_chi(Ensemble.uniform(states)) - 1e-6

    @pytest.mark.parametrize(
        "states",
        [cell_states(dim, count) for dim, count in QUANTUM_CELLS]
        + [random_ensemble(s) for s in range(30)],
        ids=[f"cell-{dim}-{count}" for dim, count in QUANTUM_CELLS]
        + [f"random-{s}" for s in range(30)],
    )
    def test_gap_certifies_chi_star(self, states):
        tol = 1e-9
        chi, weights, gap, iterations = max_holevo(states, tol=tol)
        assert 0.0 <= gap < tol
        assert iterations >= 1
        # the lower end is realized by the reported weights
        assert chi == pytest.approx(holevo_chi(Ensemble(tuple(states), weights)), abs=1e-12)
        # both brackets hold chi*: [chi, chi + gap] and [ref, ref + ref_gap]
        ref, ref_gap = reference_chi(states)
        assert chi <= ref + ref_gap
        assert ref <= chi + gap

    @pytest.mark.parametrize("state", [KET0, PLUS, random_density_matrix(4, child_rng(33, 0))])
    def test_identical_states_stop_at_the_first_evaluation(self, state):
        chi, weights, gap, iterations = max_holevo([state] * 3, tol=1e-9)
        assert chi == pytest.approx(0.0, abs=1e-12)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert iterations == 1
        assert weights == pytest.approx((1 / 3,) * 3, abs=1e-15)

    def test_iterations_count_every_evaluation_against_the_cap(self, monkeypatch):
        states = cell_states(4, 8)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
        *_, iterations = max_holevo(states, tol=1e-9)
        assert iterations == len(calls)
        monkeypatch.undo()
        assert max_holevo(states, tol=1e-9, max_iter=iterations)[3] == iterations
        with pytest.raises(NonConvergence):
            max_holevo(states, tol=1e-9, max_iter=iterations - 1)

    def test_guard(self):
        with pytest.raises(OutOfRange):
            max_holevo([], tol=1e-6)

    def test_rejects_states_of_different_dimensions(self):
        with pytest.raises(DimMismatch):
            max_holevo([KET0, random_density_matrix(4, child_rng(33, 1))], tol=1e-6)

    def test_iteration_cap_raises(self):
        # uniform weights are optimal for the symmetric pair (KET0, PLUS), so
        # its first evaluation is already certified; (KET0, MAXMIX) is not
        assert max_holevo([KET0, PLUS], tol=1e-9, max_iter=1)[3] == 1
        with pytest.raises(NonConvergence):
            max_holevo([KET0, MAXMIX], tol=1e-9, max_iter=1)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_rejects_a_tol_that_is_not_positive(self, tol):
        with pytest.raises(OutOfRange):
            max_holevo([KET0, KET1], tol=tol)

    def test_rejects_an_infinite_tol(self):
        # it stopped at the first evaluation, with chi* never solved for
        with pytest.raises(OutOfRange):
            max_holevo([KET0, MAXMIX], tol=math.inf)

    def test_rejects_a_tol_inside_the_roundoff_slack(self):
        # every reported gap carries 1e-13 of evaluation roundoff
        with pytest.raises(OutOfRange):
            max_holevo([KET0, KET1], tol=1e-13)

    def test_benchmark_cells_take_few_evaluations(self):
        # Newton steps converge quadratically: 51 evaluations in all, at most
        # 17 on one cell (the plain and over-relaxed steps alone took 3,934)
        counts = [max_holevo(cell_states(d, c), tol=1e-9)[3] for d, c in QUANTUM_CELLS]
        assert sum(counts) <= 200
        assert max(counts) <= 30

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_ensembles_are_certified(self, name):
        states = DEGENERATE[name]()
        tol = 1e-9
        chi, _, gap, iterations = max_holevo(states, tol=tol)
        assert 0.0 <= gap < tol
        assert iterations <= DEGENERATE_EVALUATIONS
        ref, ref_gap = reference_chi(states)
        assert chi <= ref + ref_gap
        assert ref <= chi + gap

    def test_a_zero_optimal_weight_is_exactly_zero(self):
        # the orthogonal pair alone reaches log2(2); MAXMIX only lowers chi
        chi, weights, _, _ = max_holevo([KET0, KET1, MAXMIX], tol=1e-9)
        assert chi == pytest.approx(1.0, abs=1e-12)
        assert weights[2] == 0.0


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


class TestSrac:
    def test_depth_zero(self):
        cls_states = [KET0]
        meas = [PROJ0]
        res = sfat(materialize_concept_class(cls_states, meas), 1 / 4)
        code = srac_from_tree(cls_states, meas, res.witness, 1 / 4)
        assert code.k == 0
        assert code.code == {"": 0}

    def test_one_bit_code(self):
        states = [KET0, KET1]
        meas = [PROJ0]
        res = sfat(materialize_concept_class(states, meas), 1 / 4)
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
            res = sfat(cls, 1 / 8)
            code = srac_from_tree(states, meas, res.witness, 1 / 8)
            assert code.verify_separation(states, meas)
            for word, sid in code.code.items():
                assert code.decode(states, meas, sid) == word

    def test_invalid_tree_rejected(self):
        states = [KET0, KET1]
        meas = [PROJ0]
        res = sfat(materialize_concept_class(states, meas), 1 / 4)
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
                # the state ball, read straight off the matrices
                state_side = all(
                    abs(np.trace(e.effect @ (states[i].matrix - states[j].matrix))) <= eps
                    for e in meas
                )
                assert func_side == state_side

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
        meas = [Measurement(np.diag(row).astype(complex)) for row in np.eye(4)]
        cls = materialize_concept_class(states, meas)
        eps = 0.5
        from shatterlab import run_shadow_stream

        bound = sfat(cls, 2 * eps / 5).dimension
        tr = run_shadow_stream(cls, 0, list(range(4)) * 2, eps)
        assert tr.updates <= bound
        truth = cls.by_id(0).values
        for r in tr.rounds:
            if not r.mistake:
                assert abs(r.prediction - truth[r.x]) <= eps

    def test_second_pass_is_quiet_after_stabilizing(self):
        # once a full pass over the measurements triggers no update, replaying
        # the same pass cannot trigger any either (the learner is memoryless
        # outside its surviving set)
        rng = child_rng(37, 2)
        states = [random_pure_state(2, rng) for _ in range(3)]
        meas = random_basis_measurements(2, rng, 4)
        cls = materialize_concept_class(states, meas)
        from shatterlab import run_shadow_stream

        tr = run_shadow_stream(cls, 1, list(range(4)) * 3, 0.5)
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
