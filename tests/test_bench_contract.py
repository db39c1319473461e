"""The names that the benchmark's traced run and checks rely on.

``bench/tracing.py`` wraps package functions and methods by name, reads
``sort_key.cache_info()``, and ``bench/checks.py`` imports the JSON
serializers.  A rename would otherwise show only as a failing traced
benchmark run.  The tracing module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import nwgb.cli  # loads every layer, as a benchmark job does
import nwgb.polynomials
from nwgb.polynomials import Cell, determinant, sort_key

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
