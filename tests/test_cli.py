"""Command line behavior: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nwgb.verify
from nwgb.cli import main
from nwgb.groebner import buchberger
from nwgb.ideals import fulton_generators, generator_polynomials, load_spec, spec_to_json
from nwgb.permutations import diagram_json, parse_one_line
from nwgb.polynomials import determinant, polynomial_to_json


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args):
    # the subprocess does not inherit pytest's pythonpath setting, so it is
    # given this checkout's src explicitly, ahead of any PYTHONPATH
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "nwgb", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def spec_231(tmp_path):
    return write_spec(tmp_path, "s231.json", {"n": 3, "permutation": "2 3 1"})


@pytest.fixture
def spec_312(tmp_path):
    return write_spec(tmp_path, "s312.json", {"n": 3, "permutation": "3 1 2"})


def test_diagram_text(capsys):
    assert main(["diagram", "2 1 4 3"]) == 0
    out = capsys.readouterr().out
    assert "e 1 . ." in out
    assert "essential: (1,1) rank 0; (3,3) rank 2" in out
    assert out.rstrip().endswith("1 2 3 4")


def test_diagram_json(capsys):
    assert main(["diagram", "2 1 4 3", "--format=json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagram"] == {"cells": [[1, 1], [3, 3]]}


def test_diagram_parse_error_exits_2(capsys):
    assert main(["diagram", "1 1 2"]) == 2
    assert "error" in capsys.readouterr().err


def test_fulton_text(spec_231, capsys):
    assert main(["fulton", spec_231]) == 0
    assert capsys.readouterr().out == "1*m[1,1]\n1*m[2,1]\n"


def test_fulton_identity_empty(tmp_path, capsys):
    path = write_spec(tmp_path, "id.json", {"n": 3, "permutation": "1 2 3"})
    assert main(["fulton", path]) == 0
    assert capsys.readouterr().out == ""


def test_fulton_missing_file(capsys):
    assert main(["fulton", "/no/such/file.json"]) == 2


def test_fulton_bad_spec(tmp_path, capsys):
    path = write_spec(tmp_path, "bad.json", {"n": 3, "permutation": "1 1 2"})
    assert main(["fulton", path]) == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 3, "conditions": "x"}, "spec field conditions must be a list"),
        ({"n": 3, "conditions": [{"i": 1, "j": 1}]}, "spec field conditions[0].r is missing"),
        ({"n": True, "conditions": []}, "spec field n must be an integer, got True"),
        ([1, 2], "a spec must be a JSON object, got list"),
        ({"n": 3, "conditions": [5]}, "spec field conditions[0] must be an object"),
        (
            {"n": 3, "conditions": [{"i": 1.5, "j": 1, "r": 0}]},
            "spec field conditions[0].i must be an integer, got 1.5",
        ),
        ({"permutation": 1}, "spec field permutation must be a string, got 1"),
        (
            {"permutation": ["1", "2"]},
            "spec field permutation must be a string, got ['1', '2']",
        ),
        (
            {"permutation": "2 1", "label": None},
            "spec field label must be a string, got None",
        ),
        (
            {"n": 2, "conditions": [], "label": ["x"]},
            "spec field label must be a string, got ['x']",
        ),
        (
            {"n": 3, "permutation": "2 1 3", "conditions": "garbage"},
            "spec has both a permutation and conditions",
        ),
        (
            {"n": 3, "permutation": "1 2 3", "conditions": [{"i": 1, "j": 1, "r": 0}]},
            "spec has both a permutation and conditions",
        ),
    ],
)
def test_malformed_spec_exits_2_naming_the_field(tmp_path, capsys, data, message):
    path = write_spec(tmp_path, "bad.json", data)
    assert main(["fulton", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_deeply_nested_spec_exits_2(tmp_path, capsys):
    # raw text: json.dumps cannot build a document this deep
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    for command in ("fulton", "groebner", "union"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spec file is nested too deeply\n"
    code, out, err = run_cli(["union", str(path), str(path)])
    assert (code, out, err) == (2, "", "error: spec file is nested too deeply\n")


HUGE = 10**4000


@pytest.mark.parametrize(
    "text, bound",
    [
        (json.dumps({"n": list(range(100_000)), "conditions": []}), 100),
        (json.dumps({"permutation": "2 1 " + "x" * 300_000}), 100),
        ('{"n": ' + "[" * 900 + "]" * 900 + ', "conditions": []}', 100),
        (json.dumps({"n": 3, "conditions": [{"i": 1, "j": 1, "r": HUGE}]}), 120),
        (json.dumps({"n": HUGE, "permutation": "1"}), 120),
        (json.dumps({"n": 3, "conditions": [{"i": HUGE, "j": 1, "r": 0}]}), 120),
    ],
    ids=["huge-n", "huge-token", "deep-n", "huge-rank", "huge-declared-n", "huge-row"],
)
def test_huge_rejected_value_gives_one_short_error_line(tmp_path, capsys, text, bound):
    path = tmp_path / "big.json"
    path.write_text(text)
    assert main(["fulton", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n") and len(captured.err.encode()) <= bound


def test_huge_ambient_in_union_gives_one_short_error_line(tmp_path, capsys, spec_231):
    path = write_spec(tmp_path, "huge.json", {"n": HUGE, "conditions": []})
    # the full-oracle size guard, then two ambients that differ
    for args in ([path, "--verify=full-oracle"], [path, spec_231]):
        assert main(["union", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith("\n") and len(captured.err.encode()) <= 120


# --format=json: the bytes json.dumps(..., indent=2) writes for the same
# payload built from plain JSON values, each polynomial by polynomial_to_json

LABELLED = {
    "n": 3,
    "label": 'é"\\',
    "conditions": [{"i": 2, "j": 2, "r": 0}, {"i": 3, "j": 2, "r": 1}],
}


@pytest.mark.parametrize("permutation", ["2 1 4 3", "1 5 4 3 2", "2 * 1", "1"])
def test_diagram_json_bytes_equal_json_dumps(capsys, permutation):
    assert main(["diagram", permutation, "--format=json"]) == 0
    expected = json.dumps(diagram_json(parse_one_line(permutation)), indent=2)
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize(
    "data",
    [{"n": 3, "permutation": "2 3 1"}, LABELLED, {"n": 3, "permutation": "1 2 3"}],
    ids=["231", "labelled", "identity"],
)
def test_fulton_json_bytes_equal_json_dumps(tmp_path, capsys, data):
    path = write_spec(tmp_path, "spec.json", data)
    assert main(["fulton", path, "--format=json"]) == 0
    spec = load_spec(path)
    generators = [
        {
            "rows": list(g.rows),
            "cols": list(g.cols),
            "condition": {"i": g.source.row, "j": g.source.col, "r": g.source.max_rank},
            "poly": polynomial_to_json(g.poly),
        }
        for g in fulton_generators(spec)
    ]
    expected = json.dumps({"spec": spec_to_json(spec), "generators": generators}, indent=2)
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3, "conditions": []},
        {"n": 3, "permutation": "2 3 1"},
        {"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]},
    ],
    ids=["no-conditions", "231", "5-5-2"],
)
def test_groebner_json_bytes_equal_json_dumps(tmp_path, capsys, data):
    path = write_spec(tmp_path, "spec.json", data)
    assert main(["groebner", path, "--format=json"]) == 0
    basis = buchberger(generator_polynomials(load_spec(path)))
    expected = json.dumps([polynomial_to_json(f) for f in basis], indent=2)
    assert capsys.readouterr().out == expected + "\n"


def test_groebner_subcommand(spec_231, capsys):
    # reduced basis prints in ascending leading-monomial order
    assert main(["groebner", spec_231]) == 0
    assert capsys.readouterr().out == "1*m[2,1]\n1*m[1,1]\n"


def test_union_text_output(spec_231, spec_312, capsys):
    assert main(["union", spec_231, spec_312]) == 0
    assert capsys.readouterr().out == (
        "1*m[1,1]\n1*m[1,1]*m[1,2]\n1*m[1,1]*m[2,1]\n1*m[1,2]*m[2,1]\n"
    )


def test_union_json_round_trip(spec_231, spec_312, capsys):
    assert main(["union", spec_231, spec_312, "--format=json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 4
    assert data[3]["factors"] == [
        {"rows": [1], "cols": [2]},
        {"rows": [2], "cols": [1]},
    ]
    assert data[0]["poly"] == polynomial_to_json(determinant([1], [1]))


def test_union_membership_verification(spec_231, spec_312, capsys):
    assert main(["union", spec_231, spec_312, "--verify=membership"]) == 0
    assert "membership: 8 checks, 0 failures" in capsys.readouterr().err


def test_union_full_oracle(spec_231, spec_312, capsys):
    assert main(["union", spec_231, spec_312, "--verify=full-oracle"]) == 0
    err = capsys.readouterr().err
    assert "groebner criterion: ok" in err
    assert "ideal equality vs oracle intersection: ok" in err


def test_union_dimension_mismatch(tmp_path, spec_231, capsys):
    other = write_spec(tmp_path, "s4.json", {"n": 4, "permutation": "2 1 4 3"})
    assert main(["union", spec_231, other]) == 2


def test_union_size_guard(tmp_path, capsys):
    big = write_spec(
        tmp_path,
        "big.json",
        {"n": 6, "conditions": [{"i": 1, "j": 1, "r": 0}], "label": "big"},
    )
    assert main(["union", big, big, "--verify=full-oracle"]) == 2
    capsys.readouterr()
    assert main(["union", big, big, "--verify=full-oracle", "--max-oracle-n=6"]) == 0


def test_union_size_guard_runs_before_synthesis(tmp_path, capsys, monkeypatch):
    def no_synthesis(specs):
        raise AssertionError("the guard must stop the run before synthesis")

    monkeypatch.setattr("nwgb.cli.union_basis", no_synthesis)
    big = write_spec(tmp_path, "big.json", {"n": 10, "permutation": "1 10 9 8 7 6 5 4 3 2"})
    other = write_spec(tmp_path, "o.json", {"n": 10, "permutation": "9 8 7 6 5 4 3 2 1 10"})
    assert main(["union", big, other, "--verify=full-oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ambient 10 exceeds the full-oracle guard (--max-oracle-n=5)\n"


def test_union_s5_fixture_full_oracle(tmp_path, capsys):
    left = write_spec(tmp_path, "l.json", {"n": 5, "permutation": "1 5 4 3 2"})
    right = write_spec(tmp_path, "r.json", {"n": 5, "permutation": "4 3 2 1 5"})
    assert main(["union", left, right, "--verify=full-oracle"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 84
    assert err.splitlines() == [
        "membership: 168 checks, 0 failures",
        "groebner criterion: ok",
        "ideal equality vs oracle intersection: ok",
    ]


def test_union_full_oracle_proves_from_leading_terms(tmp_path, capsys, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("membership and leading terms decide this pair")

    monkeypatch.setattr("nwgb.verify.intersect_many", no_elimination)
    monkeypatch.setattr("nwgb.verify.is_groebner", no_elimination)
    left = write_spec(tmp_path, "l.json", {"n": 5, "permutation": "1 5 4 3 2"})
    right = write_spec(tmp_path, "r.json", {"n": 5, "permutation": "4 3 2 1 5"})
    assert main(["union", left, right, "--verify=full-oracle"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "membership: 168 checks, 0 failures",
        "groebner criterion: ok",
        "ideal equality vs oracle intersection: ok",
    ]
    # a pair that fails membership still reaches the criterion and the
    # elimination
    monkeypatch.undo()
    reached = []
    for name in ("intersect_many", "is_groebner"):
        original = getattr(nwgb.verify, name)
        monkeypatch.setattr(
            nwgb.verify, name, lambda *a, f=original, n=name: reached.append(n) or f(*a)
        )
    left = write_spec(tmp_path, "l.json", {"n": 5, "permutation": "3 1 5 2 4"})
    right = write_spec(tmp_path, "r.json", {"n": 5, "permutation": "1 4 3 2 5"})
    assert main(["union", left, right, "--verify=full-oracle"]) == 1
    assert capsys.readouterr().err == (
        "membership: 76 checks, 1 failures\n"
        "groebner criterion: FAILED\n"
        "ideal equality vs oracle intersection: FAILED\n"
    )
    assert sorted(reached) == ["intersect_many", "is_groebner"]


@pytest.mark.parametrize(
    "left,right,checks",
    [
        ("3 1 5 2 4", "1 4 3 2 5", 76),
        ("1 4 3 2 5", "3 1 5 2 4", 76),
        ("1 2 4 5 3", "1 4 2 3 5", 24),
    ],
)
def test_union_s5_defect_full_oracle_fails(tmp_path, capsys, left, right, checks):
    # known union defects (ROADMAP item 1): membership fails, so the
    # leading-term proof does not apply and is_groebner reads False; the bad
    # generator of the first pair has a lead above another, so generates
    # finds it outside the oracle intersection, while that of the second
    # has a minimal lead, so generates completes the basis to compare it
    paths = [
        write_spec(tmp_path, "l.json", {"n": 5, "permutation": left}),
        write_spec(tmp_path, "r.json", {"n": 5, "permutation": right}),
    ]
    assert main(["union", *paths, "--verify=full-oracle"]) == 1
    assert capsys.readouterr().err == (
        f"membership: {checks} checks, 1 failures\n"
        "groebner criterion: FAILED\n"
        "ideal equality vs oracle intersection: FAILED\n"
    )


@pytest.mark.xfail(
    strict=True,
    reason="known union defect: the basis holds |rows 1-3; cols 1,3,4|*m[1,2], "
    "which is not in the ideal of 1 4 3 2 5",
)
def test_union_s5_pair_membership(tmp_path, capsys):
    left = write_spec(tmp_path, "l.json", {"n": 5, "permutation": "3 1 5 2 4"})
    right = write_spec(tmp_path, "r.json", {"n": 5, "permutation": "1 4 3 2 5"})
    assert main(["union", left, right, "--verify=membership"]) == 0


@pytest.mark.xfail(
    strict=True,
    reason="known union defect: the basis holds |rows 1,3,4; cols 1-3|*m[2,1], "
    "which is not in the ideal of 1 4 2 3 5",
)
def test_union_s5_pair_shared_component_membership(tmp_path, capsys):
    left = write_spec(tmp_path, "l.json", {"n": 5, "permutation": "1 2 4 5 3"})
    right = write_spec(tmp_path, "r.json", {"n": 5, "permutation": "1 4 2 3 5"})
    assert main(["union", left, right, "--verify=membership"]) == 0


def test_union_rejects_seed(spec_231, spec_312, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["union", spec_231, spec_312, "--seed=1"])
    assert exc.value.code == 2


def test_union_out_file(tmp_path, spec_231, spec_312):
    target = tmp_path / "basis.txt"
    assert main(["union", spec_231, spec_312, f"--out={target}"]) == 0
    assert target.read_text().splitlines()[0] == "1*m[1,1]"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir.txt"
    assert main(["diagram", "2 1", f"--out={target}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_suite(capsys):
    assert main(["verify", "order-axioms", "--cases=50"]) == 0
    out = capsys.readouterr().out
    assert "order-axioms: 50 cases, 0 failures [PASS]" in out


@pytest.mark.parametrize("cases", ["-3", "0"])
def test_verify_rejects_cases_below_one(cases, capsys):
    # a suite run on no cases would print a vacuous [PASS]
    assert main(["verify", "gluing", f"--cases={cases}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cases must be at least 1, got {cases}\n"


@pytest.mark.parametrize(
    "suite,cases", [("s3-exhaustive", "5"), ("km-regression", "1"), ("km-s5-s6", "1")]
)
def test_verify_exhaustive_suite_rejects_cases(suite, cases, capsys):
    # these suites run a fixed set of cases; a count they ignore would
    # print a [PASS] for a run the user did not ask for
    assert main(["verify", suite, f"--cases={cases}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: suite {suite} runs a fixed set of cases and takes no --cases\n"


def test_verify_all_passes_cases_to_sampled_suites_only(capsys):
    assert main(["verify", "all", "--cases=2"]) == 0
    assert capsys.readouterr().out == (
        "generator-init: 2 cases, 0 failures [PASS]\n"
        "gluing: 2 cases, 0 failures [PASS]\n"
        "km-regression: 30 cases, 0 failures [PASS]\n"
        "km-s5-s6: 840 cases, 0 failures [PASS]\n"
        "minor-init: 2 cases, 0 failures [PASS]\n"
        "order-axioms: 2 cases, 0 failures [PASS]\n"
        "s3-exhaustive: 72 cases, 0 failures [PASS]\n"
        "s4-sampled: 6 cases, 0 failures [PASS]\n"
        "triples: 4 cases, 0 failures [PASS]\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_rejects_format(fmt, capsys):
    # a suite report is text only; a --format it ignored would print text
    # where JSON was asked for, and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "s3-exhaustive", f"--format={fmt}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --format" in err


def test_verify_out_file(tmp_path):
    target = tmp_path / "report.txt"
    assert main(["verify", "s3-exhaustive", f"--out={target}"]) == 0
    assert target.read_text() == "s3-exhaustive: 72 cases, 0 failures [PASS]\n"


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2


# every bad-input route: exit 2, nothing on stdout, one "error: " line on
# stderr; {dir} is the test's spec directory.  Where a message is given,
# stderr is pinned to it byte for byte.
EXIT_2_ROUTES = {
    "unknown-suite": (
        ["verify", "nonsense"],
        "error: unknown suite 'nonsense'; choices: generator-init, gluing, km-regression, "
        "km-s5-s6, minor-init, order-axioms, s3-exhaustive, s4-sampled, triples\n",
    ),
    "cases-below-one": (["verify", "gluing", "--cases=0"], None),
    "cases-to-exhaustive": (["verify", "km-s5-s6", "--cases=1"], None),
    "full-oracle-guard": (
        ["union", "{dir}/n10.json", "{dir}/n10.json", "--verify=full-oracle"],
        None,
    ),
    "ambients-differ": (
        ["union", "{dir}/n3.json", "{dir}/n4.json"],
        "error: ambient sizes differ: 4 vs 3\n",
    ),
    "missing-file": (["fulton", "{dir}/no-such-file.json"], None),
    "malformed-spec": (["fulton", "{dir}/bad.json"], None),
    "bad-permutation": (["diagram", "2 x"], None),
    "out-under-missing-dir": (
        ["union", "{dir}/n3.json", "{dir}/n3.json", "--out={dir}/no/such/basis.txt"],
        None,
    ),
}


@pytest.mark.parametrize("route", sorted(EXIT_2_ROUTES))
def test_every_bad_input_route_prints_one_error_line(route, tmp_path, capsys):
    write_spec(tmp_path, "n3.json", {"n": 3, "permutation": "2 3 1"})
    write_spec(tmp_path, "n4.json", {"n": 4, "permutation": "2 1 4 3"})
    write_spec(tmp_path, "n10.json", {"n": 10, "permutation": "1 10 9 8 7 6 5 4 3 2"})
    write_spec(tmp_path, "bad.json", {"n": 3, "permutation": "1 1 2"})
    args, message = EXIT_2_ROUTES[route]
    assert main([arg.format(dir=tmp_path) for arg in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    if message is not None:
        assert err == message


LONG_NUMBER = "-" + "1" * 4000


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "s4-sampled", f"--cases={LONG_NUMBER}"],
        ["union", "{spec}", "{spec}", "--verify=full-oracle", f"--max-oracle-n={LONG_NUMBER}"],
        ["verify", "x" * 5000],
    ],
    ids=["huge-cases", "huge-max-oracle-n", "huge-suite-name"],
)
def test_huge_command_line_value_gives_one_short_error_line(args, tmp_path, capsys):
    spec = write_spec(tmp_path, "n5.json", {"n": 5, "permutation": "1 5 4 3 2"})
    assert main([arg.replace("{spec}", spec) for arg in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) <= 200


def test_byte_identical_output_across_runs(spec_231, spec_312):
    first = run_cli(["union", spec_231, spec_312, "--format=json"])
    second = run_cli(["union", spec_231, spec_312, "--format=json"])
    assert first == second
    assert first[0] == 0


def test_module_entry_point():
    code, out, err = run_cli(["diagram", "2 1 4 3"])
    assert code == 0
    assert "e 1 . ." in out


def test_usage_error_exit_code():
    code, out, err = run_cli([])
    assert code == 2
