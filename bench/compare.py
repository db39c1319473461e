#!/usr/bin/env python3
"""Compare two trees, check the spread of the benchmark, and check that the
traced run repeats.  Every subcommand runs this checkout's bench/run.py, so
both sides of a comparison use the same benchmark code and settings.

    # ten alternating pairs of parent and change, one row per workload
    python3 bench/compare.py pairs --base ../parent --head . --pairs 10

    # ten seeds per workload: quartile spread of each metric against its bound
    python3 bench/compare.py spread --seeds 10 --out spread.json
    python3 bench/compare.py spread --seeds 10 --first-seed 101 --against spread.json

    # two traced runs on one seed: identical counts, and the tracing overhead
    python3 bench/compare.py trace-check --workload oracle --seed 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("synth", "oracle", "complete", "eliminate")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def bench_run(workload: str, seed: int, seconds: float, trace: int, tree: Path) -> tuple[dict, dict]:
    """(record, result) of one run of bench/run.py against tree/src."""
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--src", str(tree / "src"),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed ({' '.join(argv)}):\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(metric: dict, a: float, b: float) -> bool:
    return a > b if metric["better"] == "higher" else a < b


def verdict(metric: dict, base: list[float], head: list[float]) -> dict:
    """Classify head against base by the rules of the README: improved,
    no worse, worse or unresolved."""
    b1, b2, b3 = quartiles(base)
    h1, h2, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if _better(metric, h, b))
    won = wins / len(base)
    gain = (h2 - b2) if metric["better"] == "higher" else (b2 - h2)
    spread = b3 - b1
    all_better = all(_better(metric, h, b) for h in head for b in base)
    if won >= 0.9 and gain > spread:
        label = "improved"
    elif spread > metric["bound"] * abs(b2) and not all_better:
        label = "unresolved"
    elif -gain <= metric["bound"] * abs(b2):
        label = "no worse"
    else:
        label = "worse"
    return {
        "base": {"median": b2, "q1": b1, "q3": b3, "values": base},
        "head": {"median": h2, "q1": h1, "q3": h3, "values": head},
        "pairs_won": won,
        "verdict": label,
    }


def cmd_pairs(args) -> int:
    spec = _spec()
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    base, head = Path(args.base).resolve(), Path(args.head).resolve()
    report = {"pairs": args.pairs, "seconds": seconds, "workloads": {}}
    failures = 0
    for workload in args.workloads:
        values = {"base": [], "head": []}
        records = []
        for index in range(args.pairs):
            seed = index + 1
            order = (("base", base), ("head", head)) if index % 2 == 0 else (("head", head), ("base", base))
            for side, tree in order:
                record, result = bench_run(workload, seed, seconds, 0, tree)
                failures += result["failed"]
                values[side].append(result["metrics"])
                records.append({"side": side, "seed": seed, "result": result, "commit": record["commit"],
                                "src_sha256": record["src_sha256"], "loadavg": [record["loadavg_start"], record["loadavg_end"]]})
        rows = {}
        for metric in metrics:
            name = metric["name"]
            rows[name] = verdict(
                metric,
                [m[name]["value"] for m in values["base"]],
                [m[name]["value"] for m in values["head"]],
            )
        report["workloads"][workload] = {"metrics": rows, "runs": records}
        for name, row in rows.items():
            print(
                f"{workload:10s} {name:12s} base {row['base']['median']:.6g} "
                f"[{row['base']['q1']:.6g}, {row['base']['q3']:.6g}]  head {row['head']['median']:.6g} "
                f"[{row['head']['q1']:.6g}, {row['head']['q3']:.6g}]  won {row['pairs_won']:.2f}  {row['verdict']}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if failures:
        print(f"{failures} failed jobs", file=sys.stderr)
    return 1 if failures else 0


def cmd_spread(args) -> int:
    spec = _spec()
    tree = Path(args.tree).resolve()
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    out = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for index in range(args.seeds):
            seed = args.first_seed + index
            _, result = bench_run(workload, seed, spec["run_seconds"], 0, tree)
            runs.append(result)
            steady &= result["correct"]
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload:10s} seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
        out[workload] = runs
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            share = (q3 - q1) / q2
            line = f"{workload:10s} {name:12s} median {q2:.6g}  spread {share:.3f} (bound {metric['bound']})"
            if share > metric["bound"] / 3:
                line += "  WIDE"
                steady &= share <= metric["bound"]
            if earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (before - q2) / before if metric["better"] == "higher" else (q2 - before) / before
                line += f"  vs earlier median {before:.6g}: {worse:+.3f}"
                if worse > metric["bound"]:
                    line += "  WORSE"
                    steady = False
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out) + "\n", encoding="utf-8")
    return 0 if steady else 1


def cmd_trace_check(args) -> int:
    spec = _spec()
    tree = Path(args.tree).resolve()
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    first_record, first = bench_run(args.workload, args.seed, spec["run_seconds"], 1, tree)
    second_record, second = bench_run(args.workload, args.seed, spec["run_seconds"], 1, tree)
    differ = [
        name for name in counted
        if first["metrics"][name]["value"] != second["metrics"][name]["value"]
    ]
    for name in counted:
        print(f"{name:40s} {first['metrics'][name]['value']!r:>22} {second['metrics'][name]['value']!r:>22}")
    for record in (first_record, second_record):
        overhead = record["trace_overhead"]
        print(
            f"jobs_per_s untraced {overhead['untraced_jobs_per_s']:.4f}  traced "
            f"{overhead['traced_jobs_per_s']:.4f}  traced minus untraced "
            f"{overhead['traced_minus_untraced_jobs_per_s']:+.4f}"
        )
    if differ or not (first["correct"] and second["correct"]):
        print(f"counts differ: {', '.join(differ) or 'none'}; correct: {first['correct']}, {second['correct']}")
        return 1
    print("counts identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="alternating parent/change pairs")
    pairs.add_argument("--base", required=True, help="root of the parent tree (holds src/)")
    pairs.add_argument("--head", default=str(ROOT), help="root of the changed tree (default: this one)")
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    pairs.add_argument("--out", default=None, help="write the full report as JSON")
    spread = sub.add_parser("spread", help="quartile spread over seeds, per workload")
    spread.add_argument("--tree", default=str(ROOT))
    spread.add_argument("--seeds", type=int, default=10)
    spread.add_argument("--first-seed", type=int, default=1)
    spread.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    spread.add_argument("--out", default=None, help="save the results for a later --against")
    spread.add_argument("--against", default=None, help="results of an earlier spread run")
    check = sub.add_parser("trace-check", help="two traced runs on one seed")
    check.add_argument("--tree", default=str(ROOT))
    check.add_argument("--workload", required=True, choices=WORKLOADS)
    check.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    handler = {"pairs": cmd_pairs, "spread": cmd_spread, "trace-check": cmd_trace_check}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
