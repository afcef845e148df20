"""Batch experiment runner: one subcommand per experiment kind.

Usage: shatterlab <kind> <config.json> [--seed N] [--out DIR]

Kinds: dims, online, adversary, stability, privacy, comm, quantum, shadow.
Each runner maps a config and a seed to a summary and an optional detail
table as text; `main` writes each in one piece, as out/summary.json and
out/detail.csv.  Identical config and seed produce byte-identical reports.
A bad config exits 2: the CLI checks the config's shape, and the library's
own range checks reject the rest (see `_CONFIG_ERRORS`).  Any other library
error is an experiment fault and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from . import classes as bundled
from .concepts import ConceptClass, Distribution, _grid_order, _json_number, class_from_json
from .dimensions import sfat, tree_to_dict, validate_tree
from .errors import (
    ConfigError,
    DimMismatch,
    NonIntegerReciprocal,
    OutOfRange,
    ShatterlabError,
    TooLarge,
)
from .online import (
    DRAWLESS_NOISES,
    NOISES,
    run_online_game,
    run_shadow_stream,
    run_weak_forcing_game,
    rsoa_as_weak_learner,
)
from .privacy import ExponentialMechanism, discretize_hypotheses, dp_test
from .communication import all_instances, augindex_via_eval, cc_lower_bound, index_bits
from .quantum import (
    Ensemble,
    audenaert_bound,
    holevo_chi,
    materialize_concept_class,
    max_holevo,
    random_basis_measurements,
    random_density_matrix,
    state_from_json,
    measurement_from_json,
)
from .seeding import child_rng
from .stability import stability_experiment

SCHEMA_VERSION = 1

#: library errors that reject what a config asked for: exit 2, not 1
_CONFIG_ERRORS = (ConfigError, NonIntegerReciprocal, OutOfRange, TooLarge, DimMismatch)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _param(cfg: dict, key: str, kind: type = float, default=None):
    """cfg[key] (or `default` when absent) converted by `kind`; no default = required.

    The value must be a JSON number as `class_from_json` reads one: no
    string, no bool, and for an int no fractional part, which `int` would
    accept and truncate.
    """
    value = cfg.get(key, default)
    _require(value is not None, f"missing parameter {key!r}")
    try:
        return kind(_json_number(value, key, integer=kind is int))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    except OverflowError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _zeta_of(cfg: dict) -> float:
    zeta = _param(cfg, "zeta")
    _require(_grid_order(zeta) > 1, "zeta must lie in (0, 1)")
    return zeta


def _read_files(cfg: dict, key: str, parse) -> list:
    """Parse every file listed under cfg[key]; unreadable or malformed is a config error."""
    paths = cfg[key]
    _require(isinstance(paths, list) and paths, f"{key} must be a nonempty list of paths")
    out = []
    for path in paths:
        try:
            with open(path) as fh:
                out.append(parse(fh.read()))
        except (OSError, TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"{key}: {path!r}: {exc}") from None
    return out


def _load_class(cfg: dict, seed: int) -> ConceptClass:
    src = cfg.get("class")
    _require(isinstance(src, dict), "config needs a 'class' object")
    try:
        if "bundled" in src:
            _require(isinstance(src["bundled"], str), "class: 'bundled' must be a class name")
            return bundled.bundled_class(src["bundled"])
        if "inline" in src:
            try:
                return class_from_json(json.dumps(src["inline"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"class: malformed inline class: {exc}") from None
        if "generated" in src:
            g = src["generated"]
            _require(isinstance(g, dict), "class: 'generated' must be an object")
            boolean = g.get("boolean", False)
            _require(isinstance(boolean, bool), "class: 'boolean' must be true or false")
            return bundled.generate_class(
                _param(g, "domain_size", int),
                _param(g, "n_concepts", int),
                _param(g, "zeta", float, cfg.get("zeta", 0.25)),
                seed=_param(g, "seed", int, seed),
                boolean=boolean,
            )
    except ConfigError:
        raise
    except ShatterlabError as exc:
        # bad class parameters are a config problem, not an experiment fault
        raise ConfigError(f"class: {exc}")
    raise ConfigError("class source must be 'bundled', 'inline', or 'generated'")


#: a runner's result: the summary fields, and the detail.csv text or None
Report = tuple[dict, "str | None"]


def _csv(header: list[str], rows) -> str:
    """csv.writer's bytes: str() of each cell, \r\n line ends.  No cell of any
    table holds a comma, a quote or a line break, so none is quoted."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in (header, *rows))


class _Cells(dict):
    """A float's detail.csv text, rendered once per run as csv does: str(v)."""

    def __missing__(self, v):
        text = str(v)
        if v:  # 0.0 and -0.0 are one key with two texts
            self[v] = text
        return text


def _numbered(header: str, rounds, tail) -> str:
    """A line per round: its number, then `tail(*round[1:])`, rendered once per distinct tail.
    A drawless game repeats its steps; its grid and class floats hold no -0.0 to alias 0.0."""
    tails: dict = {}
    lines = [header]
    for r in rounds:
        key = r[1:]
        text = tails.get(key)
        if text is None:
            text = tails[key] = tail(*key)
        lines.append(f"{r[0]},{text}")
    return "".join(lines)


def run_dims(cfg: dict, seed: int) -> Report:
    zeta = _zeta_of(cfg)
    cls = _load_class(cfg, seed)
    result = sfat(cls, zeta)
    summary = {
        "zeta": zeta,
        "n_concepts": len(cls),
        "sfat": result.dimension,
        "witness": tree_to_dict(result.witness),
    }
    return summary, None


def run_online(cfg: dict, seed: int) -> Report:
    zeta = _zeta_of(cfg)
    T = _param(cfg, "T", int, 100)
    _require(T >= 1, "T must be at least 1")
    noise_name = cfg.get("noise", "exact")
    _require(isinstance(noise_name, str) and noise_name in NOISES, f"unknown noise {noise_name!r}")
    cls = _load_class(cfg, seed)
    target = _param(cfg, "target_id", int, cls.concepts[0].id)
    tr = run_online_game(cls, target, None, zeta, NOISES[noise_name], T, seed)
    summary = {
        "zeta": zeta,
        "noise": noise_name,
        "rounds": T,
        "mistakes": tr.mistakes,
        "sfat_bound": tr.sfat_bound,
        "within_bound": tr.mistakes <= tr.sfat_bound,
    }
    header = "round,x,prediction,feedback,mistake,V\r\n"
    if NOISES[noise_name] in DRAWLESS_NOISES:
        return summary, _numbered(
            header, tr.rounds,
            lambda x, p, fb, m, _, v: f"{x},{p},{'' if fb is None else fb},{m},{v}\r\n",
        )
    cell = _Cells()  # each feedback is a fresh draw; the predictions repeat
    return summary, header + "".join([f"{t},{x},{cell[p]},{'' if fb is None else fb},{m},{v}\r\n"
                                      for t, x, p, fb, m, _, v in tr.rounds])


def run_adversary(cfg: dict, seed: int) -> Report:
    zeta = _zeta_of(cfg)
    cls = _load_class(cfg, seed)
    result = sfat(cls, zeta)
    rows = []
    summary_losses = {}
    for name, learner in (
        ("rsoa", rsoa_as_weak_learner(cls, zeta)),
        ("constant_half", lambda x: 0.5),
    ):
        res = run_weak_forcing_game(cls, result.witness, learner, zeta)
        summary_losses[name] = {
            "claimed_mistakes": res.claimed_mistakes,
            "all_claims_valid": res.all_claims_valid,
            "committed_target": res.committed_target,
        }
        for xi, pred, right in res.rounds:
            rows.append([name, xi, pred, right])
    summary = {"zeta": zeta, "sfat": result.dimension, "learners": summary_losses}
    return summary, _csv(["learner", "x", "prediction", "went_right"], rows)


def run_stability(cfg: dict, seed: int) -> Report:
    zeta = _zeta_of(cfg)
    runs = _param(cfg, "runs", int, 200)
    alpha = _param(cfg, "alpha", float, 0.5)
    cls = _load_class(cfg, seed)
    target = _param(cfg, "target_id", int, cls.concepts[0].id)
    if "distribution" in cfg:
        p = cfg["distribution"]
        _require(
            isinstance(p, list) and len(p) == cls.domain_size,
            f"distribution must list {cls.domain_size} probabilities, one per domain point",
        )
        try:
            dist = Distribution(tuple(p))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"distribution: {exc}") from None
    else:
        dist = Distribution.uniform(cls.domain_size)
    report = stability_experiment(cls, target, dist, zeta, alpha, runs, seed)
    # the report's fields, with the ball centre flattened to its values
    summary = dataclasses.asdict(report)
    summary["best_ball_center"] = list(report.best_ball_center.values)
    return summary, None


def run_privacy(cfg: dict, seed: int) -> Report:
    zeta = _zeta_of(cfg)
    eps = _param(cfg, "epsilon", float, 1.0)
    trials = _param(cfg, "trials", int, 10_000)
    delta = _param(cfg, "delta", float, 0.0)
    m = _param(cfg, "m", int, 4)
    _require(m >= 1, "m must be at least 1")
    domain_size = _param(cfg, "domain_size", int, 1)
    _require(1 <= domain_size <= 4, "domain_size must be in 1..4")
    coll = discretize_hypotheses(domain_size, zeta)
    base = [(0, 0.1)] * m
    neighbor = list(base)
    neighbor[-1] = (0, 0.9)
    mechanism = ExponentialMechanism(coll, eps, zeta)
    report = dp_test(mechanism, tuple(base), tuple(neighbor), eps, delta, trials, seed)
    summary = {
        "zeta": zeta,
        "epsilon": eps,
        "trials": trials,
        "verdict": report.verdict,
        "max_violation": report.max_violation,
        "hypotheses": len(coll),
    }
    rows = [[e.event, e.freq_s, e.freq_s_prime, e.slack] for e in report.events]
    return summary, _csv(["event", "freq_s", "freq_s_prime", "slack"], rows)


def run_comm(cfg: dict, seed: int) -> Report:
    zeta = _zeta_of(cfg)
    failure_rate = _param(cfg, "failure_rate", float, 0.0)
    cls = _load_class(cfg, seed)
    result = sfat(cls, zeta)
    d = min(result.dimension, _param(cfg, "depth", int, result.dimension))
    _require(d >= 1, "class must have sfat >= 1 for a reduction experiment")
    validate_tree(cls, result.witness, zeta)
    bits = index_bits(cls)
    rng = child_rng(seed, 0xC0)
    rows = [[inst.x, inst.i, bits, augindex_via_eval(cls, result.witness, inst, failure_rate, rng)]
            for inst in all_instances(d)]
    summary = {
        "zeta": zeta,
        "depth": d,
        "failure_rate": failure_rate,
        "instances": len(rows),
        "success_rate": sum(row[3] for row in rows) / len(rows),
        "bits_per_run": bits,
        "lower_bound_eps0": cc_lower_bound(result.dimension, 0.0),
    }
    return summary, _csv(["x", "i", "bits", "success"], rows)


def _load_states(cfg: dict, seed: int):
    if "states_files" in cfg:
        return _read_files(cfg, "states_files", state_from_json)
    g = cfg.get("generated_states", {"dim": 2, "count": 2})
    _require(isinstance(g, dict), "'generated_states' must be an object")
    dim = _param(g, "dim", int, 2)
    count = _param(g, "count", int, 2)
    _require(dim in (2, 4, 8, 16), "state dim must be a power of two in 2..16")
    _require(1 <= count <= 16, "state count must be in 1..16")
    rng = child_rng(seed, 0x57A7E5)
    return [random_density_matrix(dim, rng) for _ in range(count)]


def run_quantum(cfg: dict, seed: int) -> Report:
    tol = _param(cfg, "tol", float, 1e-6)
    states = _load_states(cfg, seed)
    ens = Ensemble.uniform(states)
    chi_uniform = holevo_chi(ens)
    chi_star, weights, gap, iterations = max_holevo(states, tol=tol)
    summary = {
        "n_states": len(states),
        "dim": states[0].dim,
        "chi_uniform": chi_uniform,
        "chi_star": chi_star,
        "weights": list(weights),
        "gap": gap,
        "iterations": iterations,
        "audenaert_bound": audenaert_bound(ens),
    }
    return summary, None


def run_shadow(cfg: dict, seed: int) -> Report:
    eps = _param(cfg, "epsilon", float, 0.5)
    _require(0 < eps < 1, "epsilon must lie in (0, 1)")
    states = _load_states(cfg, seed)
    n_meas = _param(cfg, "n_measurements", int, 4)
    _require(1 <= n_meas <= 16, "n_measurements must be in 1..16")
    repeats = _param(cfg, "stream_repeats", int, 2)
    _require(repeats >= 1, "stream_repeats must be at least 1")
    rng = child_rng(seed, 0x5AD0)
    if "measurements_files" in cfg:
        meas = _read_files(cfg, "measurements_files", measurement_from_json)
    else:
        meas = random_basis_measurements(states[0].dim, rng, n_meas)
    cls = materialize_concept_class(states, meas)
    target = _param(cfg, "target_id", int, 0)
    order = list(range(len(meas))) * repeats
    tr = run_shadow_stream(cls, target, order, eps)
    summary = {
        "epsilon": eps,
        "stream_length": len(order),
        "updates": tr.updates,
        "sfat_bound": tr.sfat_bound,
        "within_bound": tr.updates <= tr.sfat_bound,
        "mistakes": tr.mistakes,
    }
    truth = cls.by_id(target).values
    return summary, _numbered(
        "position,measurement,estimate,truth,mistake\r\n", tr.rounds,
        lambda x, p, fb, m, *_: f"{x},{p},{truth[x]},{m}\r\n",
    )


_RUNNERS = {
    "dims": run_dims,
    "online": run_online,
    "adversary": run_adversary,
    "stability": run_stability,
    "privacy": run_privacy,
    "comm": run_comm,
    "quantum": run_quantum,
    "shadow": run_shadow,
}

KINDS = tuple(_RUNNERS)


# built once: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(prog="shatterlab", description=__doc__)
_PARSER.add_argument("kind", choices=KINDS)
_PARSER.add_argument("config", help="path to the experiment config JSON")
_PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")
_PARSER.add_argument("--out", default="out", help="output directory")


def main(argv: "list[str] | None" = None) -> int:
    args = _PARSER.parse_args(argv)
    # an earlier run's report must not pass for this run's, whether this run
    # fails or writes no detail.csv
    for name in ("summary.json", "detail.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, name))
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is None and cfg.get("seed") is None:
            raise ConfigError("a seed is mandatory (config 'seed' or --seed)")
        seed = args.seed if args.seed is not None else _param(cfg, "seed", int)
        summary, detail = _RUNNERS[args.kind](cfg, seed)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShatterlabError as exc:
        print(f"experiment fault: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(json.dumps({**summary, "kind": args.kind, "seed": seed, "schema": SCHEMA_VERSION},
                            sort_keys=True, indent=2) + "\n")
    if detail is not None:
        with open(os.path.join(args.out, "detail.csv"), "w", newline="") as fh:
            fh.write(detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
