#!/usr/bin/env python3
"""The nwgb benchmark: cold CLI and library jobs in a closed loop.

    python3 bench/run.py --workload synth --seed 1 --seconds 25 --trace 0

One client, closed loop: the harness starts one child process at a time
(bench/child.py) and starts the next only when the last has exited.  Each
child runs one job cold, as one ``nwgb`` invocation does.  The jobs come
from the pinned jobs in bench/pool.json: a pass runs every pooled job once
and each fixed job ``fixed_runs`` times, in an order shuffled by ``--seed``.

``--trace 0`` runs whole passes, as many as the pinned pass time fits into
``--seconds`` (at least one), and reports the end-to-end metrics.  The work
of a run is therefore fixed by ``--seconds``; on the machine the pool was
pinned on it lasts about ``--seconds``, and faster code finishes sooner.
``--trace 1`` runs every distinct job once plain and once with the layer
wrappers of tracing.py, and reports the per-layer metrics of the traced
jobs; its counts are the same on every run.

Times are reported in steady seconds.  The machine is shared, and the speed
at which it runs Python swings by up to a quarter within tens of seconds.
So the harness, pinned with its children to one CPU, times a fixed
stdlib-only loop (the yardstick) just before it spawns each child and just
after the child exits, and scales the child's set-up and job seconds by
YARDSTICK_REF_S over the yardstick's mean.  The code under test never runs
inside the yardstick, so faster code still shows as faster.  The raw seconds
stay in the run record.

A job fails if its exit code is not 0, its theorem check (checks.py) fails
or its output digest differs from the one pinned for it.  The second-to-last
stdout line is the run record (commit, Python, nproc, load averages, seed,
every job); the last is the result.  bench/README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("synth", "oracle", "complete", "eliminate")
CHILD_TIMEOUT_S = 150
# One yardstick pass took this long (median over 340 jobs) on the machine
# the pool was pinned on: 2 cores, CPython 3.11.7.
YARDSTICK_REF_S = 0.0042


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# jobs


def load_pool() -> dict:
    with open(BENCH / "pool.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def pass_jobs(entry: dict) -> list[dict]:
    """One pass of a workload: every pooled job once, each fixed job
    ``fixed_runs`` times (the heavy inputs the ROADMAP names)."""
    return entry["pool"] + entry["fixed"] * entry["fixed_runs"]


def pass_wall_s(entry: dict) -> float:
    """Pinned wall seconds of one pass, set-up included."""
    return sum(job["wall_s"] for job in pass_jobs(entry))


def _spec_files(job: dict, workdir: Path) -> list[str]:
    if "condition" in job:
        i, j, r = job["condition"]
        specs = [{"n": job["n"], "conditions": [{"i": i, "j": j, "r": r}]}]
    else:
        specs = [{"n": job["n"], "permutation": p} for p in job["perms"]]
    paths = []
    for index, spec in enumerate(specs):
        path = workdir / f"spec{index}.json"
        path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def yardstick() -> list[float]:
    """Five timings of a fixed loop that uses only the standard library
    (Fractions, dict and tuple hashing, a sort), the kind of work nwgb does:
    how fast this machine runs Python right now, whatever the code under
    test.  It runs in the harness, whose heap stays small and steady."""
    times = []
    for _ in range(5):
        start = _now()
        table: dict = {}
        total = Fraction(0)
        for i in range(400):
            key = ((i % 7, i % 5), (i % 3, i % 11))
            table[key] = table.get(key, Fraction(0)) + Fraction(i, 7)
            total += table[key] / (i + 1)
        sorted(table, key=lambda k: (k[0][0], -k[1][1]))
        times.append(_now() - start)
    return times


def run_job(
    job: dict, src: Path, workdir: Path, span_file: str = "-", timeout: float = CHILD_TIMEOUT_S
) -> dict:
    """Run one job in a fresh child and return its record.  ``failed`` is
    set when the child did not report, exited nonzero, failed its check, or
    (for a pinned job) printed other bytes than the pin."""
    child_job = {**job, "spec_paths": _spec_files(job, workdir)}
    child_job.pop("digest", None)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, "-S", str(BENCH / "child.py"), json.dumps(child_job), str(src), span_file]
    yard_before = yardstick()
    spawned = _now()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"id": job["id"], "failed": True, "detail": f"timed out after {timeout} s"}
    exited = _now()
    yard_after = yardstick()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"id": job["id"], "failed": True, "detail": err.strip()[-500:]}
    report = json.loads(lines[-1])
    detail = report["detail"]
    if report["ok"] and "digest" in job and report["digest"] != job["digest"]:
        detail = "output bytes differ from the pinned digest"
    record = {
        "id": job["id"],
        "failed": bool(detail) or not report["ok"],
        "detail": detail,
        "setup_s": report["ready"] - spawned,
        "job_s": report["end"] - report["start"],
        "wall_s": exited - spawned,
        "yard_before": yard_before,
        "yard_after": yard_after,
        "rss_mb": report["rss_kb"] / 1024,
        "digest": report["digest"],
        "summary": report["summary"],
    }
    if "layers" in report:
        record["layers"] = report["layers"]
        missing = report["layers"]["missing"]
        if missing:
            # a traced function that moved or was renamed would read 0
            record["failed"] = True
            record["detail"] = f"no function to trace for {', '.join(missing)}"
    return record


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that leaves ten jobs
    beyond it, by nearest rank: the 11th-longest job.  Below 20 jobs that
    would fall under the median, so the median is used."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100 * (n - 10) / n, ordered[n - 11]


def steady(seconds: float, passes: list[float]) -> float:
    """Seconds at the yardstick's reference speed: scaled by YARDSTICK_REF_S
    over the mean of the yardstick passes timed next to them."""
    return seconds * YARDSTICK_REF_S / statistics.mean(passes)


def steady_times(record: dict) -> tuple[float, float]:
    """(set-up, job) steady seconds of a job record: set-up against the
    yardstick before the child, the job against those before and after."""
    around = record["yard_before"] + record["yard_after"]
    return steady(record["setup_s"], record["yard_before"]), steady(record["job_s"], around)


def end_to_end(timed: list[dict]) -> dict:
    """The end-to-end metrics over the records of jobs that reported."""
    setups, job_times = zip(*(steady_times(r) for r in timed))
    return {
        "jobs_per_s": len(timed) / sum(job_times),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail(job_times)[1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in timed),
    }


def per_layer(records: list[dict], names) -> dict:
    """Sum the children's layer summaries into the named per-layer metrics:
    ``<span>.calls`` and ``<span>.self_s`` for every traced span, and the
    ratios and sizes below."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    produced: dict[str, int] = {}
    hits = misses = choices = 0
    for record in records:
        layers = record.get("layers")
        if not layers:
            continue
        for table, target in ((layers["calls"], calls), (layers["self_s"], self_s), (layers["produced"], produced)):
            for name, value in table.items():
                target[name] = target.get(name, 0) + value
        hits += layers["sort_key"]["hits"]
        misses += layers["sort_key"]["misses"]
        choices += layers["choices"]

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "polynomials.sort_key.misses": misses,
        "polynomials.sort_key.hit_ratio": ratio(hits, hits + misses),
        "ideals.generators": produced.get("ideals.fulton_generators", 0),
        "union.choices": choices,
        "union.emitted_ratio": ratio(produced.get("union.union_basis", 0), choices),
        "groebner.normal_form.nonzero_ratio": ratio(
            produced.get("groebner.normal_form", 0), calls.get("groebner.normal_form", 0)
        ),
        "groebner.buchberger.basis_size": produced.get("groebner.buchberger", 0),
    }
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "calls":
            out[name] = calls.get(span, 0)
        elif kind == "self_s":
            out[name] = self_s.get(span, 0.0)
        else:
            raise KeyError(f"no rule computes the per-layer metric {name}")
    return out


# ---------------------------------------------------------------------------
# run record


def git_commit(src: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "nwgb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------


def _metric_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_pass(jobs: list[dict], src: Path, workdir: Path, span_file: str = "-") -> list[dict]:
    return [run_job(job, src, workdir, span_file) for job in jobs]


def _timed(records: list[dict]) -> list[dict]:
    return [r for r in records if "job_s" in r]


def _no_job_reported(records: list[dict]) -> int:
    """No metric can be measured: report why, and print no result."""
    print(f"error: no job reported a time; first failure: {records[0]['detail']}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--src", default=str(ROOT / "src"), help="tree holding the nwgb package (default: ./src)"
    )
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "nwgb" / "__init__.py").is_file():
        print(f"error: no nwgb package under {src}", file=sys.stderr)
        return 2
    if not (BENCH / "pool.json").is_file():
        print("error: bench/pool.json is missing", file=sys.stderr)
        return 2
    # one CPU for the harness and every child, so the yardstick measures
    # the CPU the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    units = _metric_units(bool(args.trace))
    pool = load_pool()
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(src),
        "src_sha256": src_sha256(src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }
    entry = pool[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    # jobs that failed when the pool was pinned: left out of the pool so
    # that timed runs can require zero failures, kept in sight in every
    # record until a fix removes them
    record["known_failing"] = entry["failing"]
    if args.trace:
        jobs = entry["fixed"] + entry["pool"]
        rng.shuffle(jobs)
        plain = _run_pass(jobs, src, workdir)
        span_file = workdir / "spans.jsonl"
        span_file.unlink(missing_ok=True)
        records = _run_pass(jobs, src, workdir, str(span_file))
        if not _timed(plain) or not _timed(records):
            return _no_job_reported(plain + records)
        plain_rate = end_to_end(_timed(plain))["jobs_per_s"]
        traced_rate = end_to_end(_timed(records))["jobs_per_s"]
        record["trace_overhead"] = {
            "untraced_jobs_per_s": plain_rate,
            "traced_jobs_per_s": traced_rate,
            "traced_minus_untraced_jobs_per_s": traced_rate - plain_rate,
        }
        record["spans"] = str(span_file.relative_to(ROOT))
        records = plain + records
        values = per_layer(records, units)
    else:
        count = max(1, round(args.seconds / pass_wall_s(entry)))
        records = []
        for _ in range(count):
            jobs = pass_jobs(entry)
            rng.shuffle(jobs)
            records.extend(_run_pass(jobs, src, workdir))
        timed = _timed(records)
        if not timed:
            return _no_job_reported(records)
        values = end_to_end(timed)
        record["passes"] = count
        record["tail_percentile"] = tail([r["job_s"] for r in timed])[0]
        raw_times = [r["job_s"] for r in timed]
        record["raw"] = {
            "jobs_per_s": len(timed) / sum(raw_times),
            "job_p50_s": statistics.median(raw_times),
            "job_tail_s": tail(raw_times)[1],
            "setup_s": statistics.median(r["setup_s"] for r in timed),
        }
        record["timed_jobs"] = len(timed)
    record["loadavg_end"] = list(os.getloadavg())
    record["jobs"] = records
    failed = sum(1 for r in records if r["failed"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    print(json.dumps(record))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
