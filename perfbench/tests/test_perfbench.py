"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(name):
    assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)
    a, b = workloads.jobs_for(name, 7), workloads.jobs_for(name, 8)
    assert [j.id for j in a] == [j.id for j in b]  # same shapes
    assert [j.config for j in a if not j.fixed] != [j.config for j in b if not j.fixed]
    assert [j.config for j in a if j.fixed] == [j.config for j in b if j.fixed]


def _dims_summary(tmp_path):
    from shatterlab.cli import main

    job = workloads.sfat_ladder(3)[4]  # a small seeded sweep cell
    assert job.kind == "dims" and not job.fixed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(job.config))
    assert main(["dims", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return job, json.loads((tmp_path / "out" / "summary.json").read_text())


def test_checker_accepts_a_true_dims_summary(tmp_path):
    job, summary = _dims_summary(tmp_path)
    assert job.sfat == summary["sfat"]
    assert checks.check_summary(job, summary) == []


def test_checker_rejects_a_wrong_pinned_sfat(tmp_path):
    job, summary = _dims_summary(tmp_path)
    assert checks.check_summary(dataclasses.replace(job, sfat=summary["sfat"] + 1), summary)


def test_checker_rejects_a_tampered_witness(tmp_path):
    job, summary = _dims_summary(tmp_path)
    job = dataclasses.replace(job, sfat=None)
    assert summary["sfat"] >= 1
    summary["sfat"] += 1  # the tree is now one level too shallow
    assert checks.check_summary(job, summary)
    summary["sfat"] -= 1
    summary["witness"]["a"] = 1.5  # no concept clears the right margin
    assert checks.check_summary(job, summary)


@pytest.mark.parametrize("seed", [1, 101, 110, 201, 210, 12345])
def test_every_seeded_sfat_class_has_a_pinned_sfat(seed):
    pools = workloads.load_pools()
    for job in workloads.sfat_ladder(seed):
        if job.probe:
            assert job.sfat is None
            continue
        assert job.sfat is not None, job.id
        if not job.fixed:
            g = job.config["class"]["generated"]
            cell = (g["domain_size"], g["n_concepts"], round(1 / g["zeta"]))
            assert str(g["seed"]) in pools[workloads.cell_key(cell)]


def test_checker_rejects_within_bound_false():
    job = Job(id="online.x", kind="online", config={})
    assert checks.check_summary(job, {"kind": "online", "within_bound": True}) == []
    assert checks.check_summary(job, {"kind": "online", "within_bound": False})


def test_checker_rejects_tampered_stability_summaries():
    job = Job(id="stability.ext-d2", kind="stability", config={})
    # the d = 2 job: floor - 3 sigma < 0, so the frequency check alone passes anything
    good = {"kind": "stability", "runs": 200, "fails": 119, "empirical_frequency": 0.295,
            "theoretical_floor": 0.00016276, "center_loss_12zeta": 0.0}
    assert checks.check_summary(job, good) == []
    assert checks.check_summary(job, dict(good, fails=200, empirical_frequency=0.0))
    assert checks.check_summary(job, dict(good, center_loss_12zeta=0.75))
    d1 = dict(good, theoretical_floor=0.0625)
    assert checks.check_summary(job, dict(d1, empirical_frequency=0.01))


def test_checker_rejects_other_tampered_summaries():
    adv = Job(id="a", kind="adversary", config={})
    good = {"kind": "adversary", "sfat": 2,
            "learners": {"rsoa": {"all_claims_valid": True, "claimed_mistakes": 2}}}
    assert checks.check_summary(adv, good) == []
    assert checks.check_summary(dataclasses.replace(adv, sfat=3), good)
    bad = json.loads(json.dumps(good))
    bad["learners"]["rsoa"]["claimed_mistakes"] = 1
    assert checks.check_summary(adv, bad)
    comm = Job(id="c", kind="comm", config={"failure_rate": 0.1})
    assert checks.check_summary(comm, {"kind": "comm", "success_rate": 0.9, "instances": 64}) == []
    assert checks.check_summary(comm, {"kind": "comm", "success_rate": 0.5, "instances": 64})
    assert checks.check_summary(comm, {"kind": "comm", "success_rate": 1.0, "instances": 160})
    clean = Job(id="c", kind="comm", config={})
    assert checks.check_summary(clean, {"kind": "comm", "success_rate": 0.99, "instances": 64})


def test_binomial_tails_are_exact():
    assert checks.binomial_tails(1, 2, 0.5) == pytest.approx((0.75, 0.75))
    assert checks.binomial_tails(0, 24, 0.05) == pytest.approx((0.95**24, 1.0))
    q = Job(id="q", kind="quantum", config={"tol": 1e-9})
    ok = {"kind": "quantum", "chi_uniform": 0.5, "chi_star": 0.6, "dim": 2, "n_states": 4}
    assert checks.check_summary(q, ok) == []
    assert checks.check_summary(q, dict(ok, chi_star=1.2))  # above log2(2)
    priv = Job(id="p", kind="privacy", config={})
    assert checks.check_summary(priv, {"kind": "privacy", "verdict": False})


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracing.self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_turnaround_scales_each_pass_to_reference_speed():
    # the second pass ran on a machine twice as slow: its kernel took twice as long
    passes = [{"wall_s": 3.0, "latencies": [1.0, 2.0], "ref_scale": 1.0},
              {"wall_s": 6.0, "latencies": [2.0, 4.0], "ref_scale": 0.5},
              {"wall_s": 4.5, "latencies": [1.5, 3.0], "ref_scale": 1.0}]
    out = worker.turnaround(passes, ["dims", "comm"])
    assert out == pytest.approx({"wall_s": 3.0, "dims_s": 1.0, "comm_s": 2.0})


@pytest.mark.parametrize("name", sorted(set(workloads.REFERENCE_KERNEL.values())))
def test_a_pass_reads_its_reference_speed(tmp_path, name):
    job = Job(id="online.quick", kind="online", config={})

    def quick_main(argv):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        out = tmp_path / "out" / "0"
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps({"kind": "online", "within_bound": True}))
        return 0

    runner = worker.Runner([job], ["unused"], str(tmp_path / "out"), {}, 1, quick_main, name)
    p = runner.run_pass(0)
    nominal = worker.KERNELS[name][1]
    assert p["ref_scale"] == pytest.approx(nominal / p["ref_s"])
    assert 0.1 < p["ref_scale"] < 10  # the kernel runs near its nominal time


def test_tracer_aggregates_nested_spans():
    tr = tracing.Tracer()
    job = tr.begin_job(0)
    sfat = tr.open(tr._ids["dimensions.sfat"])
    time.sleep(0.01)
    tr.close(sfat)
    tr.end_job(job)
    agg = tr.aggregate()
    assert agg["dimensions.sfat"]["calls"] == 1
    assert agg["dimensions.sfat"]["self_s"] == pytest.approx(agg["dimensions.sfat"]["s"])
    job_row = agg[tracing.JOB_SPAN]
    assert job_row["self_s"] == pytest.approx(job_row["s"] - agg["dimensions.sfat"]["s"])


def _slow_main(argv):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 5.0:
        pass
    return 0


@pytest.fixture
def alarm(monkeypatch):
    monkeypatch.setattr(workloads, "DEFAULT_DEADLINE_S", 0.05)
    monkeypatch.setattr(workloads, "CORNER_DEADLINE_S", 0.05)
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("probe", [False, True])
def test_deadline_miss_is_a_failure_unless_probe(tmp_path, alarm, probe):
    job = Job(id="dims.slow", kind="dims", config={}, probe=probe)
    runner = worker.Runner([job], [str(tmp_path / "cfg.json")], str(tmp_path / "out"),
                           {}, 1, _slow_main)
    p = runner.run_pass(0)
    assert p["wall_s"] < 1.0
    assert runner.attempted == 1
    if probe:
        assert runner.failures == [] and runner.deadline_misses == 1
    else:
        assert runner.failures == [{"job": "dims.slow", "pass": 0, "why": "deadline"}]
        assert runner.deadline_misses == 0


def test_traced_pass_leaves_the_probe_untraced(tmp_path, alarm):
    def quick_main(argv):
        out = tmp_path / "out" / "0"
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps({"kind": "online", "within_bound": True}))
        return 0

    jobs = [Job(id="online.quick", kind="online", config={}),
            Job(id="dims.corner", kind="dims", config={}, probe=True)]
    runner = worker.Runner(jobs, ["unused"] * 2, str(tmp_path / "out"), {}, 1,
                           lambda argv: (_slow_main if "dims" in argv else quick_main)(argv))
    tr = tracing.Tracer()
    runner.run_pass(1, tr)
    assert runner.failures == [] and runner.deadline_misses == 1
    assert tr.aggregate()[tracing.JOB_SPAN]["calls"] == 1
    assert tr._patches == []  # every wrapper is taken out again


def test_summary_bytes_that_change_between_passes_fail(tmp_path, alarm):
    out = tmp_path / "out" / "0"
    calls = []

    def flaky_main(argv):
        calls.append(1)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(
            json.dumps({"kind": "online", "within_bound": True, "n": len(calls)}))
        return 0

    job = Job(id="online.flaky", kind="online", config={})
    runner = worker.Runner([job], ["unused"], str(tmp_path / "out"), {}, 1, flaky_main)
    runner.run_pass(0)
    assert runner.failures == []
    runner.run_pass(1)
    assert [f["why"] for f in runner.failures] == ["summary bytes differ between passes"]


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tr = tracing.Tracer()
    agg = tr.aggregate()
    names = set(tracing.layer_metrics(agg, tr, 1))
    names |= {"cli.jobs", "cli.self_s", "cli.bytes_out", "cli.deadline_misses",
              "cli.error_rate", "trace.overhead_s"}
    names |= {f"{k}_s" for k in workloads.KINDS}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exit_nonzero_without_sources(tmp_path):
    import subprocess

    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py") or name.endswith(".json"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "monte-carlo",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0 and out.stdout == ""
