"""Run one benchmark job cold, in a fresh interpreter, as one CLI call would.

Usage (the harness in run.py does this; there is no need to call it by hand):

    python3 -S bench/child.py JOB_JSON SRC_DIR SPAN_FILE|-

JOB_JSON is one job as run.py builds it, with the paths of the spec files the
harness wrote.  SRC_DIR is the tree that holds the ``nwgb`` package.  With a
SPAN_FILE the layer wrappers in tracing.py are installed after the import and
the raw spans are written there.

The last stdout line is one JSON object.  ``ready``, ``start`` and ``end``
are CLOCK_MONOTONIC readings, a clock shared by every process on the
machine, so the parent can subtract its own spawn time from ``ready``.
Set-up is interpreter start, ``import nwgb`` and the spec load; the job is
the CLI call or library calls alone; the output digest and the independent
checks run after ``end`` and are not timed.
"""

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _load_specs(job: dict) -> list:
    specs = []
    for path in job["spec_paths"]:
        with open(path, "r", encoding="utf-8") as handle:
            specs.append(json.load(handle))
    return specs


def _cli_argv(job: dict) -> list[str]:
    kind = job["workload"]
    paths = job["spec_paths"]
    if kind == "synth":
        return ["union", *paths, "--format=json", "--verify=none"]
    if kind == "oracle":
        return ["union", *paths, "--verify=full-oracle"]
    if kind == "complete":
        return ["groebner", *paths, "--format=json"]
    raise ValueError(f"no CLI command for workload {kind!r}")


def _run_cli(job: dict) -> dict:
    import contextlib
    import io

    import nwgb.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nwgb.cli.main(_cli_argv(job))
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _call_with_order(fn, *args):
    """Pass the term order only to functions that still take one, so the
    same benchmark runs before and after the ``order`` parameter goes."""
    import inspect

    if "order" in inspect.signature(fn).parameters:
        from nwgb.polynomials import ANTIDIAGONAL

        return fn(*args, ANTIDIAGONAL)
    return fn(*args)


def _run_eliminate(specs) -> dict:
    from nwgb.groebner import IdealPresentation, initial_ideal, intersect_many
    from nwgb.ideals import generator_polynomials

    ideals = [IdealPresentation(tuple(generator_polynomials(s))) for s in specs]
    meet = intersect_many(ideals)
    init = _call_with_order(initial_ideal, meet)
    return {"exit_code": 0, "meet": meet, "init": init}


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.abspath(sys.argv[2])
    span_file = sys.argv[3]
    sys.path.insert(0, src)
    import nwgb
    import nwgb.cli  # noqa: F401  (every layer is imported through the CLI)

    if not os.path.abspath(nwgb.__file__).startswith(src + os.sep):
        raise SystemExit(f"nwgb imported from {nwgb.__file__}, not from {src}")
    raw_specs = _load_specs(job)
    specs = None
    if job["workload"] == "eliminate":
        from nwgb.ideals import spec_from_json

        specs = [spec_from_json(data) for data in raw_specs]
    tracer = None
    if span_file != "-":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready = _now()

    start = _now()
    result = _run_eliminate(specs) if specs is not None else _run_cli(job)
    end = _now()

    import resource

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    import checks

    verdict = checks.check(job, result)
    report = {
        "ready": ready,
        "start": start,
        "end": end,
        "rss_kb": rss_kb,
        "exit_code": result["exit_code"],
        **verdict,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write_spans(span_file, job["id"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
