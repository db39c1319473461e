#!/usr/bin/env python3
"""Build bench/pool.json: the jobs each workload draws from, with the
digest of each job's output pinned.

    python3 bench/pin.py            # all workloads, from ./src
    python3 bench/pin.py --workloads oracle

Candidates come from a fixed generator per workload, so the pool is the same
on every machine.  Each candidate runs cold once.  One that fails (nonzero
exit or a failed theorem check) is a defect of the program: it is listed
under ``failing`` with its message and kept out of the pool, so that every
benchmark run can require zero failures; run.py copies the list into every
run record.  The jobs a plan names as ``failing`` are defects found before,
outside the candidates the pool takes, and are run and listed the same way
while they still fail.  Of the other candidates, those whose job time is at
most ``CAP_S`` (and, for ``complete``, at least ``floor_s``) join the pool,
the rest are skipped: a single slow job would swing a whole run, and a
condition done in a few milliseconds times only the CLI.  Every pooled job
runs a second time and must print the same bytes and pass its theorem
check.  Job times here are steady seconds (see run.py).

A pass of the benchmark runs every pooled job once and each fixed job,
pinned whatever its cost, ``fixed_runs`` times.  Pool sizes and
``fixed_runs`` are chosen so that one pass, or for ``complete`` two, takes
18-26 s, near the ``run_seconds`` of BENCHMARK.json.

Outputs may never change (ROADMAP), so re-pin only to add or resize a pool,
from a tree whose outputs match the old pins.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import os
import platform
import statistics
import sys
from pathlib import Path

import run

CAP_S = 1.0
PLAN = {
    "synth": {"pool": 52, "fixed_runs": 4, "fixed": [["1 7 6 5 4 3 2", "6 5 4 3 2 1 7"]]},
    "oracle": {
        "pool": 32,
        # job_tail_s reads the 11th-longest job; with the fixed job twice
        # that is a pooled job among others of like cost (about 0.4 s), not
        # one at a gap between 0.45 and 0.6 s
        "fixed_runs": 2,
        "fixed": [["1 5 4 3 2", "4 3 2 1 5"]],
        # fails --verify=full-oracle at 5bda90e; it is the 54th candidate,
        # past the 32 the pool takes
        "failing": [["3 1 5 2 4", "1 4 3 2 5"]],
    },
    "complete": {"pool": None, "fixed_runs": 1, "fixed": [[5, 5, 2]], "floor_s": 0.03},
    "eliminate": {"pool": 60, "fixed_runs": 1, "fixed": []},
}


def _perms(n: int) -> list[str]:
    """Every permutation of 1..n but the identity, whose union is the whole
    space and gives no work."""
    ident = tuple(range(1, n + 1))
    return [" ".join(map(str, p)) for p in itertools.permutations(ident) if p != ident]


def _job(workload: str, spec) -> dict:
    if workload == "complete":
        i, j, r = spec
        return {"id": f"complete:{i},{j},{r}", "workload": workload, "n": 5, "condition": [i, j, r]}
    n = len(spec[0].split())
    return {"id": f"{workload}:{' | '.join(spec)}", "workload": workload, "n": n, "perms": list(spec)}


def candidates(workload: str):
    """Deterministic stream of distinct candidate jobs."""
    if workload == "complete":
        # every single northwest condition of a 5 x 5 matrix with minors of
        # size 2 or more (rank 0 asks only for variables)
        for i, j in itertools.product(range(1, 6), repeat=2):
            for r in range(1, min(i, j)):
                yield _job(workload, [i, j, r])
        return
    rng = random.Random(f"nwgb bench pool {workload}")
    size, count = {"synth": (6, 2), "oracle": (5, 2), "eliminate": (6, 3)}[workload]
    perms = _perms(size)
    seen = set()
    while True:
        spec = tuple(rng.choice(perms) for _ in range(count))
        if spec not in seen:
            seen.add(spec)
            yield _job(workload, list(spec))


def _measure(job: dict, src: Path, workdir: Path) -> dict:
    """Run a job that must pass: a fixed job, or a pooled one again."""
    record = run.run_job(job, src, workdir)
    if record["failed"]:
        raise SystemExit(f"{job['id']}: {record['detail']}")
    return record


def _steady(record: dict, key: str) -> float:
    return run.steady(record[key], record["yard_before"] + record["yard_after"])


def pin_workload(workload: str, src: Path, workdir: Path) -> dict:
    plan = PLAN[workload]
    size, fixed_specs = plan["pool"], plan["fixed"]
    floor = plan.get("floor_s", 0.0)
    known = [_job(workload, spec) for spec in plan.get("failing", [])]
    fixed_ids = {_job(workload, spec)["id"] for spec in fixed_specs}
    skip_ids = fixed_ids | {job["id"] for job in known}
    pooled = []
    failing = []

    def fails(job: dict, first: dict) -> bool:
        if first["failed"] and "timed out" not in first["detail"]:
            print(f"FAILING {job['id']}: {first['detail']}", file=sys.stderr)
            failing.append({**job, "detail": first["detail"]})
            return True
        return False

    for job in known:
        if not fails(job, run.run_job(job, src, workdir)):
            print(f"{job['id']} no longer fails", file=sys.stderr)
    for job in candidates(workload):
        if size is not None and len(pooled) >= size:
            break
        if job["id"] in skip_ids:
            continue
        first = run.run_job(job, src, workdir, timeout=3 * CAP_S)
        if fails(job, first):
            continue
        cost = float("inf") if first["failed"] else _steady(first, "job_s")
        status = "pool" if floor <= cost <= CAP_S else "skip"
        print(f"{status} {job['id']}: {cost:.3f} s", file=sys.stderr)
        if status == "pool":
            pooled.append((job, first))
    fixed = [(job, _measure(job, src, workdir)) for job in (_job(workload, s) for s in fixed_specs)]
    entries = []
    for job, first in fixed + pooled:
        second = _measure(job, src, workdir)
        if second["digest"] != first["digest"]:
            raise SystemExit(f"{job['id']}: output differs between two runs")
        runs = (first, second)
        entries.append({
            **job,
            "digest": first["digest"],
            "cost_s": round(statistics.mean(_steady(r, "job_s") for r in runs), 4),
            "wall_s": round(statistics.mean(_steady(r, "wall_s") for r in runs), 4),
        })
    entry = {
        "cap_s": CAP_S,
        "floor_s": floor,
        "fixed_runs": plan["fixed_runs"],
        "fixed": entries[: len(fixed)],
        "pool": sorted(entries[len(fixed):], key=lambda e: e["cost_s"]),
        "failing": failing,
    }
    print(f"{workload}: {len(entry['pool'])} pooled, {len(fixed)} fixed, "
          f"pass about {run.pass_wall_s(entry):.2f} s", file=sys.stderr)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS), choices=run.WORKLOADS)
    parser.add_argument("--src", default=str(run.ROOT / "src"))
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    path = run.BENCH / "pool.json"
    pool = json.loads(path.read_text()) if path.exists() else {}
    workdir = run.WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        pool[workload] = pin_workload(workload, src, workdir)
    pool["pinned_with"] = {
        "commit": run.git_commit(src),
        "src_sha256": run.src_sha256(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    path.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
