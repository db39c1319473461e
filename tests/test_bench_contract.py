"""The names that the benchmark's traced run and checks rely on.

``bench/tracing.py`` wraps package functions and methods by name, reads
``sort_key.cache_info()``, and ``bench/child.py`` and ``bench/checks.py``
import package names.  A rename or a deletion would otherwise show only
as a failing benchmark run.  The bench modules are loaded by path or
parsed, and only read.  child.py times a job after the package's import,
so a job that imports a module the import did not load would be timed
compiling it; the last test runs one job of each workload as child.py
does and checks that none does.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import nwgb.cli  # loads every layer, as a benchmark job does
import nwgb.polynomials
from nwgb.groebner import initial_ideal, normal_form
from nwgb.polynomials import Cell, Polynomial, determinant, sort_key

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"

# child.py imports the old term order only to pass it to an initial_ideal
# that still takes an ``order`` parameter, so it runs on older trees too
GUARDED = {("nwgb.polynomials", "ANTIDIAGONAL")}


def load_bench(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("nwgb_bench_tracing", TRACING)


def test_every_traced_target_resolves():
    tracing = load_tracing()
    for table in (tracing.SPANS, tracing.COUNTS):
        for name, (module, attr) in table.items():
            target = importlib.import_module(f"nwgb.{module}")
            for part in attr.split("."):
                target = getattr(target, part, None)
            assert callable(target), f"{name}: nwgb.{module}.{attr} does not resolve"


def test_tracer_installs_every_wrapper_and_restores_them():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    original = nwgb.verify.buchberger
    tracer.install()
    try:
        assert tracer.missing == []
        nwgb.polynomials.determinant([1, 2], [1, 2])  # looked up through the module
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert nwgb.verify.buchberger is original
    assert summary["calls"]["polynomials.determinant"] == 1
    assert set(summary["sort_key"]) == {"hits", "misses"}


def test_sort_key_keeps_cache_info():
    info = sort_key.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_normal_form_remainder_is_truthy_exactly_when_nonzero():
    # tracing.py's _sized reads a remainder's truth value to book
    # groebner.normal_form.nonzero_ratio
    minor = determinant([1, 2], [1, 2])
    assert not normal_form(minor, [minor])
    assert normal_form(Polynomial.variable(Cell(1, 1)), [minor])


def test_serializers_that_the_checks_import():
    from nwgb.polynomials import monomial_to_json, polynomial_to_json

    f = determinant([1, 2], [1, 2])
    assert polynomial_to_json(f)[0] == {"coeff": "-1", "monomial": [[1, 2, 1], [2, 1, 1]]}
    assert monomial_to_json(f.leading_monomial()) == [[1, 2, 1], [2, 1, 1]]
    assert Cell(1, 2) in {Cell(r, c) for r, c, _ in monomial_to_json(f.leading_monomial())}


def package_imports(path):
    """(module, name) of every ``from nwgb... import name`` in the file,
    and (module, None) of every ``import nwgb...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nwgb":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nwgb":
                    yield alias.name, None


def test_every_name_the_benchmark_imports_resolves():
    seen = 0
    for path in (BENCH / "child.py", BENCH / "checks.py"):
        for module, name in package_imports(path):
            seen += 1
            if (module, name) in GUARDED:
                assert "order" not in inspect.signature(initial_ideal).parameters
                continue
            owner = importlib.import_module(module)
            assert name is None or hasattr(owner, name), (
                f"{path.name}: from {module} import {name} does not resolve"
            )
    assert seen, "found no package import to check"


def test_every_timed_cli_job_takes_the_plain_argv_path():
    # a job whose argv the CLI declines would be timed through argparse, or
    # fail on a flag that is gone
    child = load_bench("nwgb_bench_child", BENCH / "child.py")
    jobs = {"synth": ["a.json", "b.json"], "oracle": ["a.json", "b.json"], "complete": ["a.json"]}
    for workload, paths in jobs.items():
        argv = child._cli_argv({"workload": workload, "spec_paths": paths})
        assert nwgb.cli._read_args(argv) is not None, argv


def test_traced_synth_job_books_synthesis_to_union_basis(tmp_path, capsys):
    # the CLI builds its basis through union_basis, so the traced run sees
    # each generator it builds as a choice of that span
    tracing = load_tracing()
    child = load_bench("nwgb_bench_child", BENCH / "child.py")
    paths = []
    for name, perm in (("l", "1 2 4 3 6 5"), ("r", "3 1 2 6 4 5")):
        path = tmp_path / f"{name}.json"
        path.write_text(f'{{"permutation": "{perm}"}}', encoding="utf-8")
        paths.append(str(path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = nwgb.cli.main(child._cli_argv({"workload": "synth", "spec_paths": paths}))
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert code == 0
    generators = len(json.loads(capsys.readouterr().out))
    assert summary["calls"]["union.union_basis"] == 1
    assert summary["produced"]["union.union_basis"] == generators > 0
    assert summary["choices"] == generators


def test_timed_jobs_import_nothing_the_set_up_did_not(tmp_path):
    # child.py times a job from after ``import nwgb.cli`` and the spec
    # load; a module first imported inside a job would be compiled inside
    # the timed interval.  One pooled job of each workload runs in a fresh
    # ``python -S`` child through child.py's own job functions, set up as
    # child.py sets them up
    run = load_bench("nwgb_bench_run", BENCH / "run.py")
    pool = run.load_pool()
    jobs = {}
    for workload in run.WORKLOADS:
        job = pool[workload]["pool"][0]
        workdir = tmp_path / workload
        workdir.mkdir()
        jobs[workload] = {**job, "spec_paths": run._spec_files(job, workdir)}
    script = """
import importlib.util, json, sys
child_path, src, jobs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)
import nwgb
import nwgb.cli
spec = importlib.util.spec_from_file_location("nwgb_bench_child", child_path)
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
from nwgb.ideals import spec_from_json
specs = [spec_from_json(data) for data in child._load_specs(jobs["eliminate"])]
before = set(sys.modules)
codes = [child._run_cli(jobs[workload])["exit_code"] for workload in ("synth", "oracle", "complete")]
codes.append(child._run_eliminate(specs)["exit_code"])
sys.stdout.write(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""
    src = str(BENCH.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(BENCH / "child.py"), src, json.dumps(jobs)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], []]
