"""shatterlab benchmark: seeded CLI job mixes, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sfat-ladder --seed 1 --seconds 40 --trace 0

Each run starts fresh worker processes (see worker.py) with single-threaded
BLAS.  Set-up time is the median of several cold starts up to the worker's
``ready`` line, each scaled to the speed of the reference kernel timed just
before it; the last start goes on to run the workload for ``--seconds``,
pass after pass, and the time of the job list is the median pass, scaled
to the speed of a reference kernel timed in the same pass.
The report prints every metric by name and unit, the output checks and the
machine, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Exit code 0 means the run finished; a checkout
without ``src/shatterlab`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
#: cold starts per run; the median is setup_s
SETUP_SAMPLES = 9
#: seconds of reference kernel timed before each cold start, and the kernel;
#: a cold start is the same interpreter and import work on every workload
SETUP_REF_S = 0.1
SETUP_KERNEL = "int"
#: the whole run, set-up included, is abandoned after this many seconds
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import worker  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _start(args, work: str, setup_only: bool) -> tuple[subprocess.Popen, tuple[float, float]]:
    """Start a worker and wait for its ready line.

    Returns the process and (set-up seconds, median reference kernel seconds
    just before the start).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    refs = []
    t_end = time.perf_counter() + SETUP_REF_S
    while time.perf_counter() < t_end:
        refs.append(worker.time_kernel(SETUP_KERNEL))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    proc.stdout.close()
    if line.strip() != b"ready":
        raise RuntimeError(f"worker did not get ready (exit {_wait(proc, 30)})")
    return proc, (setup, statistics.median(refs))


def _wait(proc: subprocess.Popen, timeout: float) -> int:
    """Exit code of a worker; one that overruns is killed and reaped."""
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker overran its {timeout:.0f} s limit")


def _run(args, work_root: str) -> tuple[dict, list[tuple[float, float]]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        proc, s = _start(args, os.path.join(work_root, f"setup{i}"), True)
        if _wait(proc, 30) != 0:
            raise RuntimeError(f"set-up worker exited {proc.returncode}")
        setups.append(s)
    work = os.path.join(work_root, "run")
    proc, s = _start(args, work, False)
    setups.append(s)
    rc = _wait(proc, deadline - time.monotonic())
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}")
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh), setups


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(args, res: dict, setups: list[tuple[float, float]]) -> dict:
    """Print the human-readable report; return the final JSON object."""
    env = res["env"]
    passes = res["passes"]
    untraced = [p for p in passes if not p["traced"]]
    failed = len(res["failures"])
    attempted = res["attempted"]
    print(f"# shatterlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: nproc={env['nproc']} cpu_count={env['cpu_count']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} threads={env['threads']}")
    print(f"# jobs per pass={len(res['kinds'])} passes={len(passes)} "
          f"(traced {len(passes) - len(untraced)}); closed loop, one client, one process")
    times = worker.turnaround(untraced, res["kinds"])
    kernel = workloads.REFERENCE_KERNEL[args.workload]
    print(f"# end-to-end (median untraced pass, scaled to reference speed: the {kernel!r} "
          f"kernel at {1e3 * worker.KERNELS[kernel][1]:g} ms):")
    e2e = {
        "wall_s": (times.pop("wall_s"), "s"),
        "setup_s": (statistics.median(s * worker.KERNELS[SETUP_KERNEL][1] / r
                                      for s, r in setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    for name, (v, unit) in e2e.items():
        print(f"  {name} = {_fmt(v)} {unit}")
    for name, v in times.items():
        print(f"  {name} = {_fmt(v)} s  (turnaround of the {name[:-2]} jobs)")
    print(f"  error_rate = {_fmt((failed + res['deadline_misses']) / attempted)}  "
          f"((failed {failed} + deadline misses {res['deadline_misses']}) / attempted {attempted})")
    print(f"  raw setup samples = {[round(s, 4) for s, _ in setups]} s, {SETUP_KERNEL!r} kernel "
          f"before each = {[round(1e3 * r, 4) for _, r in setups]} ms")
    print(f"  raw pass walls = {[round(p['wall_s'], 4) for p in passes]} s "
          f"(median {_fmt(statistics.median(p['wall_s'] for p in untraced))} s untraced)")
    print(f"  {kernel!r} kernel per pass = {[round(1e3 * p['ref_s'], 4) for p in passes]} ms")
    print("# checks:")
    print(f"  jobs attempted={attempted} failed={failed} "
          f"budget-probe deadline misses={res['deadline_misses']}")
    for f in res["failures"][:20]:
        print(f"  FAIL {f['job']} (pass {f['pass']}): {f['why']}")
    print(f"  digest drift vs pins.json = {len(res['digest_drift'])} of "
          f"{res['digests_compared']} compared {res['digest_drift'][:10]}")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in e2e.items()}
    if args.trace:
        print("# per layer (traced passes, per pass):")
        for name, m in res["per_layer"].items():
            print(f"  {name} = {_fmt(m['value'])} {m['unit']}")
        total = res["traced_job_s"]
        print(f"# layer shares of {total:.3f} s traced job time per pass "
              "(self: own spans minus children; entry: calls made directly by the CLI):")
        for layer, (own, entry) in sorted(res["layer_s"].items(), key=lambda kv: -kv[1][1]):
            print(f"  {layer:<14} self {own:8.4f} s {100 * own / total:5.1f}%   "
                  f"entry {entry:8.4f} s {100 * entry / total:5.1f}%")
        if res["missing_targets"]:
            print(f"# untraced (missing in the library): {res['missing_targets']}")
        print(f"# spans written to {res['spans_file']}")
        metrics = res["per_layer"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shatterlab", "__init__.py")):
        print(f"no shatterlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work_root = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        res, setups = _run(args, work_root)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps(report(args, res, setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
