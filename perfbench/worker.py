"""One benchmark process: set up a workload, run its job list, check outputs.

Started by run.py as a fresh interpreter per run.  After set-up (imports,
job generation, config files) it prints ``ready`` so the parent can time
set-up from process start.  It then runs the job list back to back as one
closed-loop client, pass after pass, until the next pass would overrun
``--seconds``, and writes ``result.json`` into its work directory.

With ``--trace 1`` the passes alternate untraced and traced: the traced ones
give the per-layer metrics, the untraced ones the per-kind turnaround and
the baseline for the tracing overhead.

Between jobs the worker times a fixed reference kernel, for about
REF_SHARE of the job time, so that every pass carries its own reading of
the machine's speed (see ``KERNELS`` and ``turnaround``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from time import perf_counter

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a job that overran its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_job(main, job, cfg_path: str, out_dir: str) -> tuple[str, float]:
    """Run one CLI call under the job's deadline: (status, seconds).

    Status is ``ok``, ``exit <code>``, ``raised <type>`` or ``deadline``.
    """
    for name in ("summary.json", "detail.csv"):
        try:
            os.remove(os.path.join(out_dir, name))
        except FileNotFoundError:
            pass
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, job.deadline_s)
        try:
            rc = main([job.kind, cfg_path, "--out", out_dir])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok" if rc == 0 else f"exit {rc}"
    except DeadlineExceeded:
        status = "deadline"
    except Exception as exc:  # a crashing job is a failure to report, not a crash
        status = f"raised {type(exc).__name__}: {exc}"
    return status, perf_counter() - t0


#: a reference kernel is timed for this share of the job time of a pass
REF_SHARE = 0.04


def _int_kernel() -> None:
    s = 0
    for i in range(12000):
        s += i * i % 7


def _dict_kernel() -> None:
    memo = {}
    s = 0
    for i in range(20000):
        k = (i * 2654435761) & 0xFFFF
        memo[k] = memo.get(k ^ 0x55, 0) + (k >> 3)
        s += k & 7


#: reference kernels: name -> (function, nominal seconds).  Times are
#: reported at the speed of a machine on which the kernel takes its nominal
#: time.  The kernels use no shatterlab code, so a change to the library
#: cannot move them; only the machine can.  ``int`` is an integer loop that
#: stays in the first-level cache; ``dict`` fills a dict of up to 2^16 keys,
#: like the sfat memo.  Other tenants' load slows different kinds of work
#: differently, so each workload is scaled by the kernel whose work is most
#: like its own (workloads.REFERENCE_KERNEL).
KERNELS = {"int": (_int_kernel, 0.001), "dict": (_dict_kernel, 0.01)}


def time_kernel(name: str) -> float:
    """Seconds taken by one run of a reference kernel."""
    fn = KERNELS[name][0]
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


class Runner:
    """Runs passes over a job list and keeps the tallies of one process."""

    def __init__(self, jobs, cfg_paths, out_root, pins, seed, main, kernel="int"):
        self.jobs = jobs
        self.kernel = kernel
        self.cfg_paths = cfg_paths
        self.out_dirs = [os.path.join(out_root, str(i)) for i in range(len(jobs))]
        self.pins = pins
        self.seed = seed
        self.main = main
        self.digests: list = [None] * len(jobs)
        self.attempted = 0
        self.failures: list[dict] = []
        self.deadline_misses = 0
        self.drift: list[str] = []
        self.compared = 0
        self.bytes_out = 0

    def _pinned_digest(self, job) -> "str | None":
        if job.fixed or self.seed == self.pins.get("default_seed"):
            return self.pins.get("jobs", {}).get(job.id, {}).get("digest")
        return None

    def _judge(self, i: int, status: str) -> "str | None":
        """Why job i failed in this pass, or None."""
        job = self.jobs[i]
        if status == "deadline" and job.probe:
            self.deadline_misses += 1
            return None
        if status != "ok":
            return status
        out = self.out_dirs[i]
        with open(os.path.join(out, "summary.json"), "rb") as fh:
            raw = fh.read()
        self.bytes_out += len(raw)
        detail = os.path.join(out, "detail.csv")
        if os.path.exists(detail):
            self.bytes_out += os.path.getsize(detail)
        dig = checks.digest(raw)
        if self.digests[i] is not None:
            return None if dig == self.digests[i] else "summary bytes differ between passes"
        self.digests[i] = dig
        pinned = self._pinned_digest(job)
        if pinned is not None:
            self.compared += 1
            if pinned != dig:
                self.drift.append(job.id)
        try:
            problems = checks.check_summary(job, json.loads(raw))
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"unreadable summary: {type(exc).__name__}: {exc}"]
        return "; ".join(problems) or None

    def run_pass(self, pass_no: int, tracer=None) -> dict:
        """Run every job once; with a tracer, trace every job but the probes.

        A budget probe overruns its deadline by design, and an alarm that
        lands inside a wrapper would leave the span store half-written, so
        the wrappers are taken out while a probe runs.
        """
        latencies = []
        refs = []
        ref_debt = 0.0
        try:
            for i, job in enumerate(self.jobs):
                traced = tracer is not None and not job.probe
                if tracer is not None:
                    tracer.set_installed(traced)
                span = tracer.begin_job(pass_no * len(self.jobs) + i) if traced else None
                try:
                    status, dt = run_job(self.main, job, self.cfg_paths[i], self.out_dirs[i])
                finally:
                    if traced:
                        tracer.end_job(span)
                latencies.append(dt)
                ref_debt += REF_SHARE * dt
                while ref_debt > 0:
                    refs.append(time_kernel(self.kernel))
                    ref_debt -= refs[-1]
                self.attempted += 1
                why = self._judge(i, status)
                if why is not None:
                    self.failures.append({"job": job.id, "pass": pass_no, "why": why})
        finally:
            if tracer is not None:
                tracer.set_installed(False)
        ref_s = statistics.median(refs)
        return {"traced": tracer is not None, "wall_s": sum(latencies), "latencies": latencies,
                "ref_s": ref_s, "ref_scale": KERNELS[self.kernel][1] / ref_s}


def turnaround(passes: list[dict], kinds: list[str]) -> dict[str, float]:
    """Seconds to run the job list at reference speed, the median over passes.

    Keys are ``wall_s`` and ``<kind>_s`` for every kind in the list.  Other
    tenants of a shared machine slow identical work by up to 2x, in spells
    that outlast a run, so a raw time measures the neighbours as much as the
    code.  Each pass's latencies are therefore scaled by its ``ref_scale``:
    the reference kernel's nominal time over its median time in that pass,
    which the same spell slows alike.
    """
    rows = []
    for p in passes:
        scale = p["ref_scale"]
        row = {"wall_s": scale * p["wall_s"]}
        for kind, t in zip(kinds, p["latencies"]):
            row[f"{kind}_s"] = row.get(f"{kind}_s", 0.0) + scale * t
        rows.append(row)
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the report just says so
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # --- set-up: imports, job generation, config files -------------------
    import shatterlab.cli as cli

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"shatterlab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    jobs = workloads.jobs_for(args.workload, args.seed)
    cfg_dir = os.path.join(args.work, "cfg")
    os.makedirs(cfg_dir, exist_ok=True)
    cfg_paths = []
    for i, job in enumerate(jobs):
        path = os.path.join(cfg_dir, f"{i}.json")
        with open(path, "w") as fh:
            json.dump(job.config, fh)
        cfg_paths.append(path)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    os.dup2(2, 1)  # the parent reads only the ready line from stdout

    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(jobs, cfg_paths, os.path.join(args.work, "out"), pins, args.seed, cli.main,
                    workloads.REFERENCE_KERNEL[args.workload])
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes = []
    t0 = time.monotonic()
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(len(passes), tracer if traced else None))
        elapsed = time.monotonic() - t0
        next_cost = max(p["wall_s"] for p in passes[-2:])
        if len(passes) >= min_passes and elapsed + next_cost > args.seconds:
            break

    result = {
        "env": environment(args.seed, args.workload),
        "kinds": [job.kind for job in jobs],
        "passes": passes,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "deadline_misses": runner.deadline_misses,
        "digest_drift": runner.drift,
        "digests_compared": runner.compared,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        import tracing

        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        agg = tracer.aggregate()
        layers = tracing.layer_metrics(agg, tracer, len(traced))
        n_traced = len(traced)
        layers["cli.jobs"] = (agg[tracing.JOB_SPAN]["calls"] / n_traced, "count")
        layers["cli.self_s"] = (agg[tracing.JOB_SPAN]["self_s"] / n_traced, "s")
        layers["cli.bytes_out"] = (runner.bytes_out / len(passes), "bytes")
        layers["cli.deadline_misses"] = (runner.deadline_misses / len(passes), "count")
        layers["cli.error_rate"] = (
            (len(runner.failures) + runner.deadline_misses) / runner.attempted, "ratio")
        plain = turnaround(untraced, result["kinds"])
        for kind in workloads.KINDS:
            layers[f"{kind}_s"] = (plain.get(f"{kind}_s", 0.0), "s")
        layers["trace.overhead_s"] = (
            turnaround(traced, result["kinds"])["wall_s"] - plain["wall_s"], "s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["layer_s"] = {k: (own / n_traced, entry / n_traced)
                             for k, (own, entry) in tracing.layer_shares(agg, tracer).items()}
        result["traced_job_s"] = agg[tracing.JOB_SPAN]["s"] / n_traced
        result["missing_targets"] = tracer.missing
        spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}.npz")
        tracer.save(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
