"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import json
import time
from contextlib import redirect_stdout
from io import StringIO

from nwgb import parse_one_line, rank_matrix
from nwgb.cli import main
from nwgb.permutations import Cell, essential_set
from nwgb.suites import run_suite

BUDGETS = {
    1: 1.0,
    2: 30.0,
    3: 60.0,
    4: 600.0,
    5: 600.0,
    8: 300.0,
}


def report(number, ok, elapsed=None, detail=""):
    verdict = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number}: {verdict}{timing}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def run_cli_capture(args):
    buffer = StringIO()
    with redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_criterion_1_small_union_fixture(tmp_path):
    spec_a = write_spec(tmp_path, "a.json", {"n": 3, "permutation": "2 3 1"})
    spec_b = write_spec(tmp_path, "b.json", {"n": 3, "permutation": "3 1 2"})
    start = time.perf_counter()
    code, out = run_cli_capture(["union", spec_a, spec_b])
    elapsed = time.perf_counter() - start
    expected = "1*m[1,1]\n1*m[1,1]*m[1,2]\n1*m[1,1]*m[2,1]\n1*m[1,2]*m[2,1]\n"
    ok = code == 0 and out == expected and elapsed < BUDGETS[1]
    report(1, ok, elapsed, "union 231+312 emits the four published generators")


def test_criterion_2_4x4_union_fixture(tmp_path):
    spec_a = write_spec(tmp_path, "a.json", {"n": 4, "permutation": "1 4 2 3"})
    spec_b = write_spec(tmp_path, "b.json", {"n": 4, "permutation": "1 3 4 2"})
    start = time.perf_counter()
    code, out = run_cli_capture(
        ["union", spec_a, spec_b, "--format=json", "--verify=full-oracle"]
    )
    elapsed = time.perf_counter() - start
    data = json.loads(out)
    shapes = [
        [(tuple(f["rows"]), tuple(f["cols"])) for f in entry["factors"]]
        for entry in data
    ]
    expected_shapes = [
        [((1, 2), (1, 2))],
        [((1, 2), (1, 2)), ((3,), (1,))],
        [((1, 2), (1, 2)), ((2, 3), (1, 2))],
        [((1, 2), (1, 2)), ((1,), (3,))],
        [((1, 3), (1, 2)), ((1, 2), (1, 3))],
        [((1, 2), (1, 3)), ((2, 3), (1, 2))],
        [((1, 2), (1, 2)), ((1, 2), (2, 3))],
        [((1, 3), (1, 2)), ((1, 2), (2, 3))],
        [((1, 2, 3), (1, 2, 3))],
    ]
    ok = (
        code == 0
        and len(data) == 9
        and shapes == expected_shapes
        and elapsed < BUDGETS[2]
    )
    report(2, ok, elapsed, "9 products, shapes match, full oracle agrees")


def test_criterion_3_exhaustive_s3():
    start = time.perf_counter()
    result = run_suite("s3-exhaustive", seed=0)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.cases == 72 and elapsed < BUDGETS[3]
    report(3, ok, elapsed, "36 ordered pairs, equality + Buchberger criterion")


def test_criterion_4_sampled_s4():
    start = time.perf_counter()
    result = run_suite("s4-sampled", seed=0, cases=25)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.cases == 75 and elapsed < BUDGETS[4]
    report(
        4, ok, elapsed, "25 pairs incl. fixtures; equality, Buchberger, init theorem"
    )


def test_criterion_5_triple_intersections():
    start = time.perf_counter()
    result = run_suite("triples", seed=0, cases=10)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.cases == 20 and elapsed < BUDGETS[5]
    report(5, ok, elapsed, "10 triples, membership + iterated intersection")


def test_criterion_6a_gluing_lemma():
    result = run_suite("gluing", seed=0, cases=200)
    ok = result.passed and result.cases == 200
    report("6a", ok, detail="gluing: det(A∪B) reduces to zero in both ideals")


def test_criterion_6b_init_of_synthesized_generators():
    result = run_suite("generator-init", seed=0, cases=200)
    ok = result.passed and result.cases == 200
    report("6b", ok, detail="leading monomial is the squarefree occupied product")


def test_criterion_6c_antidiagonal_order_selects_antidiagonals():
    result = run_suite("minor-init", seed=0, cases=200)
    ok = result.passed and result.cases == 200
    report("6c", ok, detail="every sampled minor leads with its antidiagonal term")


def test_criterion_7_combinatorics_fixtures():
    fifteen = parse_one_line("1 5 4 3 2")
    grid_ok = rank_matrix(fifteen) == (
        (1, 1, 1, 1, 1),
        (1, 1, 1, 1, 2),
        (1, 1, 1, 2, 3),
        (1, 1, 2, 3, 4),
        (1, 2, 3, 4, 5),
    )
    ess_2143_ok = essential_set(parse_one_line("2 1 4 3")) == {
        (Cell(1, 1), 0),
        (Cell(3, 3), 2),
    }
    ess_15432_ok = essential_set(fifteen) == {
        (Cell(2, 4), 1),
        (Cell(3, 3), 1),
        (Cell(4, 2), 1),
    }
    report(
        7,
        grid_ok and ess_2143_ok and ess_15432_ok,
        detail="rank matrix of 15432 and both essential sets match the figures",
    )


def test_criterion_8_groebner_regression_s3_s4():
    start = time.perf_counter()
    result = run_suite("km-regression", seed=0)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.cases == 30 and elapsed < BUDGETS[8]
    report(8, ok, elapsed, "Fulton generators pass the criterion for all of S3, S4")
