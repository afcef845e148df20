"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Every tolerance is pinned here; the statistical ones carry their stated
confidence slack (3 standard errors unless noted).
"""

import math

import numpy as np

from shatterlab import (
    Concept,
    ConceptClass,
    Distribution,
    Ensemble,
    ExponentialMechanism,
    depolarizing_capacity_bound,
    dp_test,
    discretize_hypotheses,
    gentle_sample_complexity,
    holevo_chi,
    ldim_oracle,
    materialize_concept_class,
    max_holevo,
    nayak_inequality_check,
    run_online_game,
    run_shadow_stream,
    run_weak_forcing_game,
    sample_ext,
    sfat,
    sfat_holevo_bound,
    stability_experiment,
)
from shatterlab.classes import ext_cost_class, generate_class, two_constants
from shatterlab.communication import all_instances, augindex_via_eval
from shatterlab.online import (
    NOISES,
    RsoaState,
    rsoa_as_weak_learner,
)
from shatterlab.privacy import build_probabilistic_representation, exponential_weights, good_hypotheses
from shatterlab.quantum import (
    DensityMatrix,
    random_basis_measurements,
    random_density_matrix,
)
from shatterlab.seeding import child_rng


def report(number: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_mistake_bound():
    rng = np.random.default_rng(2024)
    games = 0
    violations = 0
    for trial in range(500):
        zeta = 1 / 5 if trial % 2 == 0 else 1 / 8
        nx = int(rng.integers(1, 7))
        nc = int(rng.integers(1, 21))
        cls = generate_class(nx, nc, zeta, seed=trial)
        bound = sfat(cls, 2 * zeta).dimension
        target = int(rng.integers(nc))
        for noise in NOISES.values():
            tr = run_online_game(
                cls,
                target,
                None,
                zeta,
                noise,
                200,
                seed=trial,
            )
            games += 1
            violations += tr.mistakes > bound
    report(
        1,
        "strong-feedback mistakes within the margin-2*zeta dimension",
        violations == 0,
        f"{games} games (500 classes x 4 noise strategies), {violations} violations",
    )


def test_criterion_2_boolean_agreement():
    rng = np.random.default_rng(77)
    mismatches = 0
    for trial in range(200):
        nx = int(rng.integers(1, 6))
        nc = int(rng.integers(2, 21))
        cls = generate_class(nx, nc, 1 / 4, seed=10_000 + trial, boolean=True)
        if sfat(cls, 1 / 4).dimension != ldim_oracle(cls):
            mismatches += 1
    report(
        2,
        "sfat at margin 1/4 equals the Littlestone oracle on Boolean classes",
        mismatches == 0,
        f"200 random classes, {mismatches} mismatches",
    )


def test_criterion_3_adversarial_forcing():
    rng = np.random.default_rng(31)
    shortfalls = 0
    invalid = 0
    for trial in range(100):
        nx = int(rng.integers(1, 6))
        nc = int(rng.integers(2, 21))
        zeta = 1 / 4
        cls = generate_class(nx, nc, zeta, seed=20_000 + trial)
        res = sfat(cls, zeta)
        for learner in (rsoa_as_weak_learner(cls, zeta), lambda x: 0.5):
            out = run_weak_forcing_game(cls, res.witness, learner, zeta)
            shortfalls += out.claimed_mistakes < res.dimension
            invalid += not out.all_claims_valid
    report(
        3,
        "tree adversary forces >= sfat claimed mistakes against any learner",
        shortfalls == 0 and invalid == 0,
        f"100 classes x 2 learners, {shortfalls} shortfalls, {invalid} invalid claims",
    )


def test_criterion_4_stability():
    cls = two_constants(0.0, 1.0)
    rep = stability_experiment(
        cls, 0, Distribution.uniform(1), zeta=1 / 4, alpha=1 / 2, runs=2000, seed=424
    )
    floor = 1 / 16
    sigma = math.sqrt(floor * (1 - floor) / rep.runs)
    freq_ok = rep.empirical_frequency >= floor - 3 * sigma
    loss_ok = rep.center_loss_12zeta <= 1 / 2
    report(
        4,
        "stable learner concentrates on an 11*zeta ball with a good centre",
        freq_ok and loss_ok and rep.d == 1,
        f"frequency {rep.empirical_frequency:.3f} >= {floor - 3 * sigma:.3f}, "
        f"centre loss {rep.center_loss_12zeta:.3f} <= 0.5, d={rep.d}",
    )


def test_criterion_5_ext_sampling_cost():
    cls, dist, zeta, m = ext_cost_class()
    state = RsoaState(cls, zeta)
    details = []
    ok = True
    for level in (1, 2):
        bound = 4 ** (level + 1) * m
        draws = []
        for seed in range(1000):
            out = sample_ext(state, 0, dist, level, m, cutoff=100 * bound, seed=seed)
            draws.append(out.draws_used)
        d = np.array(draws, dtype=float)
        se = d.std(ddof=1) / math.sqrt(len(d))
        ok = ok and d.mean() <= bound + 3 * se
        details.append(f"level {level}: mean {d.mean():.1f} (3SE {3 * se:.1f}) <= {bound}")
    report(5, "curated-sample draw cost within 4^(l+1) m", ok, "; ".join(details))


def _neighbor_pairs():
    grid = (0.125, 0.375, 0.625, 0.875)
    pairs = []
    for j in range(10):
        base_y = grid[j % 4]
        flip_y = grid[(j + 1 + j // 4) % 4]
        base = ((0, base_y),) * 4
        neighbor = base[:-1] + ((0, flip_y),)
        pairs.append((base, neighbor))
    return pairs


def test_criterion_6_dp_ratio_and_tv():
    zeta, eps, trials = 1 / 4, 1.0, 10_000
    coll = discretize_hypotheses(1, zeta)

    learner = ExponentialMechanism(coll, eps, zeta)

    failures = 0
    worst_tv = 0.0
    for k, (s, sp) in enumerate(_neighbor_pairs()):
        rep = dp_test(learner, s, sp, eps, 0.0, trials, seed=6000 + k)
        failures += not rep.verdict
        expect = exponential_weights(coll, s, eps, zeta)
        freq = {e.event: e.freq_s for e in rep.events}
        tv = 0.5 * sum(
            abs(freq.get(h.id, 0.0) - expect[i]) for i, h in enumerate(coll.hypotheses)
        )
        worst_tv = max(worst_tv, tv)
    report(
        6,
        "exponential mechanism passes the (1, 0) ratio test and matches closed form",
        failures == 0 and worst_tv <= 0.02,
        f"10 pairs x {trials} trials, {failures} ratio failures, worst TV {worst_tv:.4f}",
    )


def test_criterion_7_representation_harvest():
    zeta, alpha, eps, m = 1 / 2, 1 / 4, 1.0, 1
    coll = discretize_hypotheses(1, zeta)
    target = Concept(500, (0.3,))
    dist = Distribution((1.0,))
    goods = good_hypotheses(coll, target, dist, zeta, 1 / 4)

    learner = ExponentialMechanism(coll, eps, zeta)

    trials = 400
    misses = 0
    for t in range(trials):
        built = build_probabilistic_representation(
            learner, zeta=zeta, alpha=alpha, epsilon_priv=eps, m=m, seed=7000 + t
        )
        misses += not ({h.id for h in built.hypotheses} & goods)
    limit = 1 / 4 + 3 * math.sqrt(0.25 * 0.75 / trials)
    report(
        7,
        "harvested collections reach the good-hypothesis set",
        misses / trials <= limit,
        f"miss rate {misses / trials:.4f} <= {limit:.4f} over {trials} trials",
    )


def test_criterion_8_communication_reduction():
    zeta = 1 / 4
    exhaustive_failures = 0
    total = 0
    clean_rng = child_rng(808, 1)  # a failure rate of 0 draws nothing from it
    for d in (1, 2, 3, 4):
        cls = generate_class(d, 2**d, zeta, seed=800 + d, boolean=True)
        res = sfat(cls, zeta)
        if res.dimension < d:  # random Boolean classes can fall short; force the cube
            cls = ConceptClass(
                d,
                tuple(
                    Concept(i, tuple(float(b) for b in format(i, f"0{d}b")))
                    for i in range(2**d)
                ),
            )
            res = sfat(cls, zeta)
        for inst in all_instances(d):
            exhaustive_failures += not augindex_via_eval(cls, res.witness, inst, 0.0, clean_rng)
            total += 1
    # noisy side on the depth-4 cube
    cube4 = ConceptClass(
        4,
        tuple(
            Concept(i, tuple(float(b) for b in format(i, "04b"))) for i in range(16)
        ),
    )
    res4 = sfat(cube4, zeta)
    rng = child_rng(808, 0)
    insts = list(all_instances(4))
    trials = 10_000
    succ = sum(
        augindex_via_eval(cube4, res4.witness, insts[int(rng.integers(len(insts)))], 0.1, rng)
        for _ in range(trials)
    )
    rate = succ / trials
    noisy_floor = 0.9 - 3 * math.sqrt(0.9 * 0.1 / trials)
    report(
        8,
        "next-bit reduction exact on clean protocols, 1-eps under corruption",
        exhaustive_failures == 0 and rate >= noisy_floor,
        f"{total} exhaustive instances clean, noisy success {rate:.4f} >= {noisy_floor:.4f}",
    )


def test_criterion_9_holevo_suite():
    ket0 = DensityMatrix(np.array([[1, 0], [0, 0]], dtype=complex))
    ket1 = DensityMatrix(np.array([[0, 0], [0, 1]], dtype=complex))
    checks = []

    chi01 = holevo_chi(Ensemble.uniform([ket0, ket1]))
    checks.append(("chi({0,1})=1", abs(chi01 - 1.0) <= 1e-9))

    worst_gap = 0.0
    for s in range(20):
        rng = child_rng(9000, s)
        states = [random_density_matrix(2, rng) for _ in range(2)]
        chi, _, _, _ = max_holevo(states, tol=1e-9)
        grid = max(
            holevo_chi(Ensemble((states[0], states[1]), (p, 1 - p)))
            for p in np.linspace(0.0, 1.0, 101)
        )
        worst_gap = max(worst_gap, abs(chi - grid))
    checks.append(("max_holevo matches 0.01 grid within 1e-4", worst_gap <= 1e-4))

    checks.append(
        (
            "depolarizing endpoints",
            depolarizing_capacity_bound(2, 1.0) == 1.0
            and depolarizing_capacity_bound(2, 0.0) == 0.0,
        )
    )

    sweep_violations = 0
    for s in range(100):
        rng = child_rng(9100, s)
        dim = 2 if s % 2 == 0 else 4
        n_states = int(rng.integers(2, 5))
        n_meas = int(rng.integers(2, 7))
        states = [random_density_matrix(dim, rng) for _ in range(n_states)]
        meas = random_basis_measurements(dim, rng, n_meas)
        cls = materialize_concept_class(states, meas)
        chi_star, _, _, _ = max_holevo(states, tol=1e-7)
        for p in (0.8, 0.9):
            lhs = sfat(cls, p).dimension
            if lhs > sfat_holevo_bound(chi_star, p) + 1e-9:
                sweep_violations += 1
    checks.append(("information bound sweep", sweep_violations == 0))

    nayak_failures = 0
    for s in range(200):
        rng = child_rng(9200, s)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        nayak_failures += not nayak_inequality_check(a, b)
    checks.append(("two-state entropy inequality", nayak_failures == 0))

    ok = all(flag for _, flag in checks)
    report(
        9,
        "Holevo suite",
        ok,
        "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks),
    )


def test_criterion_10_shadow_stream():
    eps = 0.5
    violations = 0
    estimate_breaches = 0
    for s in range(20):
        rng = child_rng(10_000, s)
        n_states = int(rng.integers(2, 5))
        n_meas = int(rng.integers(3, 6))
        states = [random_density_matrix(2, rng) for _ in range(n_states)]
        meas = random_basis_measurements(2, rng, n_meas)
        cls = materialize_concept_class(states, meas)
        target = int(rng.integers(n_states))
        bound = sfat(cls, 2 * eps / 5).dimension
        order = list(range(n_meas)) * 3
        tr = run_shadow_stream(cls, target, order, eps)
        violations += tr.updates > bound
        truth = cls.by_id(target).values
        for r in tr.rounds:
            if not r.mistake and abs(r.prediction - truth[r.x]) > eps:
                estimate_breaches += 1
    gentle_ok = gentle_sample_complexity(1, 2, 0.5, 0.5, 1 / math.e) == 16
    report(
        10,
        "mistake-only stream stays within its update budget and accuracy",
        violations == 0 and estimate_breaches == 0 and gentle_ok,
        f"20 classes, {violations} budget violations, {estimate_breaches} estimate "
        f"breaches, gentle(1,2,.5,.5,1/e)=16: {gentle_ok}",
    )
