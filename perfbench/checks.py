"""Output checks: every job is judged from its summary.json alone.

``check_summary`` returns a list of problems (empty when the job passed).
The witness-tree check walks the tree itself instead of calling the
library's validator, so a broken validator cannot vouch for a broken tree.
"""

from __future__ import annotations

import hashlib
import json
import math

#: float slack for margin comparisons, as in the library's own validator
_TOL = 1e-9
#: a corrupted comm job fails when its failure count is this unlikely under
#: Binomial(instances, rate); the 3-SE normal rule falsely rejected 2 of 300
#: seeded jobs (24 instances at rate 0.05), too often for a benchmark check
_COMM_P = 1e-5


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p), exactly."""
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    return sum(pmf[: k + 1]), sum(pmf[k:])


def digest(summary_bytes: bytes) -> str:
    return hashlib.sha256(summary_bytes).hexdigest()[:16]


def class_values(class_spec: dict, config_seed: int) -> dict[int, tuple[float, ...]]:
    """Concept id -> values of the class a config names (as the CLI loads it)."""
    from shatterlab import classes
    from shatterlab.concepts import class_from_json

    if "inline" in class_spec:
        cls = class_from_json(json.dumps(class_spec["inline"]))
    elif "bundled" in class_spec:
        cls = classes.bundled_class(class_spec["bundled"])
    else:
        g = class_spec["generated"]
        cls = classes.generate_class(
            int(g["domain_size"]), int(g["n_concepts"]), float(g["zeta"]),
            seed=int(g.get("seed", config_seed)), boolean=bool(g.get("boolean", False)),
        )
    return {c.id: tuple(c.values) for c in cls.concepts}


def witness_problems(tree: dict, values: dict[int, tuple[float, ...]], margin: float,
                     depth: int) -> list[str]:
    """A complete depth-`depth` tree whose every leaf respects every margin."""
    problems = []

    def walk(node: dict, constraints: list[tuple[int, float, bool]], level: int) -> None:
        if "leaf" in node:
            if level != depth:
                problems.append(f"leaf {node['leaf']} at depth {level}, expected {depth}")
                return
            f = values.get(int(node["leaf"]))
            if f is None:
                problems.append(f"leaf {node['leaf']} is not a concept of the class")
                return
            for x, a, right in constraints:
                ok = f[x] >= a + margin - _TOL if right else f[x] <= a - margin + _TOL
                if not ok:
                    problems.append(f"leaf {node['leaf']} breaks the margin at x={x}, a={a}")
            return
        x, a = int(node["x"]), float(node["a"])
        walk(node["left"], constraints + [(x, a, False)], level + 1)
        walk(node["right"], constraints + [(x, a, True)], level + 1)

    walk(tree, [], 0)
    return problems


def check_summary(job, summary: dict) -> list[str]:
    """Problems with one job's summary; ``job.sfat``, if known, is demanded."""
    kind, cfg = job.kind, job.config
    if summary.get("kind") != kind:
        return [f"summary kind {summary.get('kind')!r} != {kind!r}"]
    if kind in ("dims", "adversary"):
        d = int(summary["sfat"])
        out = [] if job.sfat is None or d == job.sfat else [f"sfat {d} != pinned {job.sfat}"]
        if kind == "dims":
            values = class_values(cfg["class"], int(cfg["seed"]))
            return out + witness_problems(summary["witness"], values, float(cfg["zeta"]), d)
        return out + [
            f"learner {name}: claims valid={res['all_claims_valid']}, "
            f"claimed {res['claimed_mistakes']} < sfat {d}"
            for name, res in sorted(summary["learners"].items())
            if not (res["all_claims_valid"] and res["claimed_mistakes"] >= d)
        ]
    if kind == "comm":
        rate = float(cfg.get("failure_rate", 0.0))
        got, n = float(summary["success_rate"]), int(summary["instances"])
        if rate == 0:
            return [] if got == 1.0 else [f"clean success rate {got} != 1"]
        failures = round((1 - got) * n)
        if min(binomial_tails(failures, n, rate)) < _COMM_P:
            return [f"{failures} of {n} instances failed; implausible at rate {rate}"]
        return []
    if kind in ("online", "shadow"):
        return [] if summary["within_bound"] is True else ["within_bound is false"]
    if kind == "quantum":
        tol = float(cfg.get("tol", 1e-6))
        chi_u, chi_s = float(summary["chi_uniform"]), float(summary["chi_star"])
        cap = math.log2(min(int(summary["dim"]), int(summary["n_states"])))
        out = []
        if chi_u > chi_s + tol:
            out.append(f"chi_uniform {chi_u} > chi_star {chi_s} + tol")
        if not -_TOL <= chi_s <= cap + _TOL:
            out.append(f"chi_star {chi_s} outside [0, log2 min(dim, n)] = [0, {cap}]")
        return out
    if kind == "stability":
        # floor - 3 sigma is below 0 on the d = 2 job, so the two checks the
        # library's own acceptance test adds carry that job: some run must
        # output a hypothesis, and the heaviest ball's centre must be good
        floor, runs = float(summary["theoretical_floor"]), int(summary["runs"])
        sigma = math.sqrt(floor * (1 - floor) / runs)
        freq = float(summary["empirical_frequency"])
        out = []
        if freq < floor - 3 * sigma:
            out.append(f"frequency {freq} < floor {floor} - 3 sigma")
        if int(summary["fails"]) >= runs:
            out.append(f"all {runs} runs failed")
        if float(summary["center_loss_12zeta"]) > 0.5:
            out.append(f"centre loss at 12 zeta {summary['center_loss_12zeta']} > 1/2")
        return out
    if kind == "privacy":
        return [] if summary["verdict"] is True else ["dp verdict is false"]
    return [f"no check for kind {kind!r}"]
