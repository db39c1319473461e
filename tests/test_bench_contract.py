"""The names that the benchmark's traced run and checks rely on.

``bench/tracing.py`` wraps package functions and methods by name, reads
``sort_key.cache_info()``, and ``bench/child.py`` and ``bench/checks.py``
import package names.  A rename or a deletion would otherwise show only
as a failing benchmark run.  The bench modules are loaded by path or
parsed, and only read.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import nwgb.cli  # loads every layer, as a benchmark job does
import nwgb.polynomials
from nwgb.groebner import initial_ideal
from nwgb.polynomials import Cell, determinant, sort_key

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"

# child.py imports the old term order only to pass it to an initial_ideal
# that still takes an ``order`` parameter, so it runs on older trees too
GUARDED = {("nwgb.polynomials", "ANTIDIAGONAL")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("nwgb_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    original = nwgb.cli.buchberger
    tracer.install()
    try:
        assert tracer.missing == []
        nwgb.polynomials.determinant([1, 2], [1, 2])  # looked up through the module
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert nwgb.cli.buchberger is original
    assert summary["calls"]["polynomials.determinant"] == 1
    assert set(summary["sort_key"]) == {"hits", "misses"}


def test_sort_key_keeps_cache_info():
    info = sort_key.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_serializers_that_the_checks_import():
    from nwgb.polynomials import monomial_to_json, polynomial_to_json

    f = determinant([1, 2], [1, 2])
    assert polynomial_to_json(f)[0] == {"coeff": "-1", "monomial": [[1, 2, 1], [2, 1, 1]]}
    assert monomial_to_json(f.leading_monomial()) == [[1, 2, 1], [2, 1, 1]]
    assert Cell(1, 2) in dict(f.leading_monomial().exps)


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
