"""Seeded job lists for the three benchmark workloads.

A job is one ``shatterlab <kind> <config> --out <dir>`` invocation.  Every
workload is a fixed list of job *shapes*; the workload seed only picks the
class instances, target ids, noise draws and similar details inside each
shape.  Jobs marked ``fixed`` ignore the seed entirely: they are the pinned
anchors (the ROADMAP sfat rungs and the documented-limit corner) whose
summaries are compared against ``pins.json`` on every seed.

The exact-sfat cost of a generated class and the number of draws a
stability job makes vary a lot from seed to seed, so those seeds come from
vetted pools in ``pools.json`` (written by pin.py): per (nx, nc, 1/zeta)
cell, class seeds that share the cell's most common sfat and whose memoized
subset count is closest to the cell's median; per stability job, seeds whose
draw count is closest to the median.  Every class pool member carries its
pinned sfat, so every dims job is checked against an exact value on every
seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sfat-ladder", "online-stream", "monte-carlo")
KINDS = ("dims", "adversary", "comm", "online", "shadow", "quantum", "stability", "privacy")

#: the seed whose summary digests are pinned for every job
DEFAULT_SEED = 1

#: per-job deadline; missing it is a failure, except on a budget probe
DEFAULT_DEADLINE_S = 60.0

#: deadline of a budget probe, the documented-limit corner (8, 64, 1/20);
#: kept short so that it costs a small, fixed share of an sfat-ladder pass
CORNER_DEADLINE_S = 0.5

#: the reference kernel (worker.KERNELS) that each workload's times are
#: scaled by: the one whose speed tracked the workload's best under other
#: tenants' load.  sfat-ladder is almost all sfat memo work, which the dict
#: kernel resembles; the others mix numpy, RNG and small-object work
REFERENCE_KERNEL = {"sfat-ladder": "dict", "online-stream": "int", "monte-carlo": "int"}

POOLS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools.json")

#: (nx, nc, 1/zeta) rungs from the ROADMAP baseline, class seed 1
RUNGS = ((6, 40, 8), (8, 64, 8), (8, 32, 20))
CORNER = (8, 64, 20)

#: stratified sfat sweep over nx 3-8, nc 8-40, zeta in {1/8, 1/10}; the seed
#: draws the class inside each cell
SWEEP_CELLS = (
    (3, 8, 8), (3, 40, 10), (4, 16, 10), (4, 32, 8), (5, 24, 8), (5, 40, 10),
    (6, 12, 10), (6, 36, 8), (7, 20, 8), (7, 28, 10), (8, 8, 10), (8, 40, 8),
)
ADVERSARY_CELLS = ((4, 24, 8), (5, 30, 10), (6, 20, 8), (7, 16, 10))
COMM_CELLS = ((4, 20, 10), (5, 24, 8), (6, 16, 10), (7, 24, 8))
COMM_RATES = (0.05, 0.1, 0.2)

NOISES = ("exact", "round_to_grid", "uniform_within", "adversarial_extreme")
#: online games: (nx, nc) cells spanning nx 1-6, nc 1-20
ONLINE_CELLS = ((1, 1), (1, 6), (2, 10), (3, 14), (4, 20), (6, 20))
ONLINE_ZETAS = (5, 8)  # 1/zeta
ONLINE_REPEATS = 2
#: shadow streams: (state dim, states, k) with epsilon = 5/k; cells whose
#: cost barely depends on the state draw
SHADOW_CELLS = ((2, 8, 25), (2, 12, 15), (2, 16, 10), (4, 8, 15),
                (4, 12, 25), (8, 8, 30), (8, 16, 20), (16, 8, 25))
#: Holevo jobs: (state dim, states).  Their states are fixed, not seeded: at
#: tol 1e-9 the iteration count of max_holevo is heavy-tailed in the state
#: draw (158 to 9159 iterations over 20 draws of 16 qubit states), so seeded
#: states would make quantum_s measure the luck of the draw
QUANTUM_CELLS = ((2, 4), (4, 16), (4, 8), (8, 16), (8, 3), (16, 16), (16, 6), (8, 8))
QUANTUM_STATE_SEED = 1

#: the d = 2 class on which level-2 curated samples and their prefix replays
#: occur through the CLI (at zeta = 1/4 no level-1 sample can succeed,
#: because the 11*zeta disagreement exceeds the [0, 1] range)
EXT_D2_CLASS = {
    "domain_size": 3,
    "concepts": [
        {"id": 0, "values": [0.1, 0.1, 0.1]},
        {"id": 1, "values": [0.9, 0.1, 0.1]},
        {"id": 2, "values": [0.1, 0.9, 0.1]},
        {"id": 3, "values": [0.25, 0.1, 0.1]},
    ],
}

#: DP jobs: domain_size 3 (2.4 s) would be the longest job of a pass
PRIVACY_DOMAINS = (1, 2)

#: stability jobs by id, without their seed, which comes from the job's pool.
#: monte-carlo keeps its pass near 4 s, so that a 40 s run times every job
#: about ten times; four_constants repeats two_constants' work at 1.7 s
STABILITY_JOBS = {
    "stability.two_constants": {"zeta": 0.25, "runs": 200, "alpha": 0.5, "target_id": 0,
                                "class": {"bundled": "two_constants"}},
    "stability.ext-d2": {"zeta": 1 / 32, "runs": 200, "alpha": 4.0, "target_id": 0,
                         "distribution": [0.25, 0.25, 0.5], "class": {"inline": EXT_D2_CLASS}},
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation; the output check reads everything from the config."""

    id: str
    kind: str
    config: dict
    #: seed-independent job; its summary digest is pinned for every seed
    fixed: bool = False
    #: a budget probe: it runs under CORNER_DEADLINE_S, and a miss is the
    #: expected outcome, not a failure
    probe: bool = False
    #: the pinned sfat of the job's class at the job's margin, if known
    sfat: "int | None" = None

    @property
    def deadline_s(self) -> float:
        return CORNER_DEADLINE_S if self.probe else DEFAULT_DEADLINE_S


def _generated(nx: int, nc: int, zinv: int, class_seed: int) -> dict:
    """Class generated at zeta = 1/zinv, for a job measured at margin 2*zeta."""
    return {"generated": {"domain_size": nx, "n_concepts": nc,
                          "zeta": 1.0 / zinv, "seed": class_seed}}


def cell_key(cell) -> str:
    return "%d-%d-%d" % tuple(cell)


def load_pools() -> dict[str, dict[str, dict]]:
    """Pool name -> member seed -> its measures; see pin.py.

    A class pool is named by its cell key and measures ``sfat`` and
    ``subsets``; a stability pool is named by its job id and measures
    ``draws``.
    """
    with open(POOLS_PATH) as fh:
        return json.load(fh)


def _pool_seed(pool: dict, rng: random.Random) -> int:
    return int(rng.choice(sorted(pool, key=int)))


def _sfat_job(kind: str, name: str, cell, pools, rng=None, probe=False, **extra) -> Job:
    """A job on a generated class: class seed 1 if fixed, else a pool member."""
    nx, nc, zinv = cell
    pool = pools.get(cell_key(cell), {})
    class_seed = 1 if rng is None else _pool_seed(pool, rng)
    cfg = {"seed": class_seed, "zeta": 2.0 / zinv,
           "class": _generated(nx, nc, zinv, class_seed)}
    cfg.update(extra)
    return Job(id=f"{kind}.{name}", kind=kind, config=cfg, fixed=rng is None, probe=probe,
               sfat=pool.get(str(class_seed), {}).get("sfat"))


def sfat_ladder(seed: int) -> list[Job]:
    rng = random.Random(f"sfat-ladder/{seed}")
    pools = load_pools()
    jobs = [_sfat_job("dims", "rung-" + cell_key(c), c, pools) for c in RUNGS]
    jobs.append(_sfat_job("dims", "corner-" + cell_key(CORNER), CORNER, pools, probe=True))
    for i, c in enumerate(SWEEP_CELLS):
        jobs.append(_sfat_job("dims", f"sweep-{i:02d}", c, pools, rng))
    jobs.append(_sfat_job("adversary", "rung-6-40-8", RUNGS[0], pools))
    for i, c in enumerate(ADVERSARY_CELLS):
        jobs.append(_sfat_job("adversary", f"sweep-{i:02d}", c, pools, rng))
    jobs.append(_sfat_job("comm", "rung-6-40-8", RUNGS[0], pools))
    jobs.append(_sfat_job("comm", "rung-6-40-8-noisy", RUNGS[0], pools, failure_rate=0.1))
    for i, c in enumerate(COMM_CELLS):
        # the first half of the cells run clean, the second half corrupted
        extra = {"failure_rate": rng.choice(COMM_RATES)} if 2 * i >= len(COMM_CELLS) else {}
        jobs.append(_sfat_job("comm", f"sweep-{i:02d}", c, pools, rng, **extra))
    return jobs


def sfat_cells() -> list[tuple[int, int, int]]:
    """Every (nx, nc, 1/zeta) cell of sfat-ladder; the rungs and corner first."""
    seen = dict.fromkeys(RUNGS + (CORNER,) + SWEEP_CELLS + ADVERSARY_CELLS + COMM_CELLS)
    return list(seen)


def online_stream(seed: int) -> list[Job]:
    rng = random.Random(f"online-stream/{seed}")
    jobs = []
    for rep in range(ONLINE_REPEATS):
        for noise in NOISES:
            for zinv in ONLINE_ZETAS:
                for nx, nc in ONLINE_CELLS:
                    s = rng.randrange(1 << 30)
                    cfg = {"seed": s, "zeta": 1.0 / zinv, "T": rng.randint(250, 350),
                           "noise": noise, "target_id": rng.randrange(nc),
                           "class": _generated(nx, nc, zinv, s)}
                    jobs.append(Job(id=f"online.{noise}-{zinv}-{nx}-{nc}-{rep}", kind="online",
                                    config=cfg))
    for dim, count, k in SHADOW_CELLS:
        cfg = {"seed": rng.randrange(1 << 30), "epsilon": 5.0 / k, "n_measurements": 16,
               "stream_repeats": 16, "target_id": rng.randrange(count),
               "generated_states": {"dim": dim, "count": count}}
        jobs.append(Job(id=f"shadow.{dim}-{count}-{k}", kind="shadow", config=cfg))
    for dim, count in QUANTUM_CELLS:
        cfg = {"seed": QUANTUM_STATE_SEED, "tol": 1e-9,
               "generated_states": {"dim": dim, "count": count}}
        jobs.append(Job(id=f"quantum.{dim}-{count}", kind="quantum", config=cfg, fixed=True))
    return jobs


def monte_carlo(seed: int) -> list[Job]:
    rng = random.Random(f"monte-carlo/{seed}")
    pools = load_pools()
    jobs = [Job(id=job_id, kind="stability", config=dict(cfg, seed=_pool_seed(pools[job_id], rng)))
            for job_id, cfg in STABILITY_JOBS.items()]
    for domain_size in PRIVACY_DOMAINS:
        cfg = {"seed": rng.randrange(1 << 30), "zeta": 0.25, "trials": 10_000,
               "epsilon": rng.choice((0.5, 1.0, 2.0)), "m": 4, "domain_size": domain_size}
        jobs.append(Job(id=f"privacy.domain-{domain_size}", kind="privacy", config=cfg))
    return jobs


_BUILDERS = {"sfat-ladder": sfat_ladder, "online-stream": online_stream, "monte-carlo": monte_carlo}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the same (workload, seed) gives the same list."""
    return _BUILDERS[workload](seed)
