"""Command line behavior: formats, exit codes, determinism."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from conftest import seeded_condition_lists, spy_on_polynomial_paths

import nwgb.polynomials
import nwgb.union
import nwgb.verify
from nwgb.cli import _COMMANDS, _build_parser, _read_args, main
from nwgb.groebner import buchberger
from nwgb.ideals import (
    fulton_generators,
    fulton_is_groebner,
    generator_polynomials,
    load_spec,
    spec_from_permutation,
    spec_to_json,
)
from nwgb.payloads import diagram_json, json_text
from nwgb.permutations import parse_one_line
from nwgb.polynomials import Polynomial, determinant, polynomial_text, polynomial_to_json
from nwgb.union import hold, union_basis
from test_union import partial_permutations


SRC = str(Path(__file__).resolve().parent.parent / "src")


def src_env():
    # a subprocess does not inherit pytest's pythonpath setting, so it is
    # given this checkout's src explicitly, ahead of any PYTHONPATH
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "nwgb", *args],
        capture_output=True,
        text=True,
        env=src_env(),
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
        (json.dumps({"n": HUGE, "conditions": [{"i": HUGE, "j": HUGE, "r": 0}]}), 120),
        (json.dumps({"n": HUGE, "conditions": [{"i": HUGE, "j": HUGE, "r": HUGE // 2}]}), 120),
    ],
    ids=[
        *("huge-n", "huge-token", "deep-n", "huge-rank", "huge-declared-n", "huge-row"),
        *("huge-work", "huge-minor"),
    ],
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
    full = {"n": HUGE, "conditions": [{"i": HUGE, "j": HUGE, "r": 0}]}
    busy = write_spec(tmp_path, "busy.json", full)
    # the work guard, on a count of over 4300 digits, then two ambients
    # that differ
    for args in ([busy, busy, "--verify=full-oracle"], [path, spec_231]):
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
            "rows": list(rows),
            "cols": list(cols),
            "condition": {"i": cond.row, "j": cond.col, "r": cond.max_rank},
            "poly": polynomial_to_json(poly),
        }
        for cond, rows, cols, poly in fulton_generators(spec)
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


def groebner_sweep_specs():
    """Every single condition of a 5x5 matrix, every S4 permutation, 20
    seeded S5 permutations, no condition at all, two conditions that share
    minors, every partial permutation of size 4 and 60 seeded lists of
    conditions."""
    singles = [
        {"n": 5, "conditions": [{"i": i, "j": j, "r": r}]}
        for i in range(1, 6)
        for j in range(1, 6)
        for r in range(min(i, j))
    ]
    s4 = [{"permutation": " ".join(map(str, p))} for p in itertools.permutations(range(1, 5))]
    rng = random.Random(5)
    s5 = [{"permutation": " ".join(map(str, rng.sample(range(1, 6), 5)))} for _ in range(20)]
    shared = {"n": 4, "conditions": [{"i": 3, "j": 4, "r": 1}, {"i": 4, "j": 3, "r": 1}]}
    partial = [{"permutation": p.one_line()} for p in partial_permutations(4)]
    lists = seeded_condition_lists(11, 60)
    return [*singles, *s4, *s5, {"n": 3, "conditions": []}, shared, *partial, *lists]


def test_groebner_writes_the_bytes_of_buchberger_and_json_text(tmp_path, capsys):
    # the command completes and writes on packed ints; the reference
    # completes the determinants as Polynomials and writes them through
    # json_text and polynomial_text
    specs = groebner_sweep_specs()
    assert len(specs) == 101 + 209 + 60
    path = str(tmp_path / "spec.json")
    for data in specs:
        Path(path).write_text(json.dumps(data))
        basis = buchberger(generator_polynomials(load_spec(path)))
        expected = {
            "json": json_text(basis) + "\n",
            "text": "".join(polynomial_text(f) + "\n" for f in basis),
        }
        for form, text in expected.items():
            assert main(["groebner", path, f"--format={form}"]) == 0
            assert capsys.readouterr() == (text, ""), data
    target = tmp_path / "out.json"
    assert main(["groebner", path, "--format=json", f"--out={target}"]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_text(encoding="utf-8") == expected["json"]


@pytest.mark.parametrize("form", ["json", "text"])
def test_groebner_hands_emit_one_chunk_per_basis_element(form, tmp_path, capsys, monkeypatch):
    # as nwgb union does (test_basis_json_chunks_give_one_chunk_per_generator),
    # the command writes its basis one element at a time: _emit gets an
    # iterator, which forms each element's text as the write reads it, and
    # in JSON then the list's close and the final newline
    handed = []
    emit = nwgb.cli._emit

    def recorded(pieces, args):
        assert iter(pieces) is pieces
        handed.append(list(pieces))
        emit(handed[-1], args)

    monkeypatch.setattr(nwgb.cli, "_emit", recorded)
    specs = [
        {"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]},  # a theorem settles it
        {"permutation": "1 5 4 3 2"},  # completed through the queue
        {"n": 3, "conditions": []},  # the empty basis
    ]
    for data in specs:
        path = write_spec(tmp_path, "spec.json", data)
        basis = buchberger(generator_polynomials(load_spec(path)))
        handed.clear()
        assert main(["groebner", path, f"--format={form}"]) == 0
        out = capsys.readouterr().out
        [chunks] = handed
        assert "".join(chunks) == out
        if form == "text":
            assert chunks == [polynomial_text(f) + "\n" for f in basis]
            continue
        assert len(chunks) == len(basis) + 2
        *elements, close, newline = chunks
        assert (close, newline) == ("\n]" if basis else "[]", "\n")
        for k, chunk in enumerate(elements):
            assert chunk[:4] == (",\n  " if k else "[\n  ")
        assert [json.loads(chunk[4:]) for chunk in elements] == list(map(polynomial_to_json, basis))
        assert basis or out == "[]\n"


def peak_growth_past_the_import(tmp_path, spec):
    """(exit code, stderr, KiB) of ``nwgb groebner --format=json`` on the
    spec in a ``python3 -S`` child: how far the command grows the child's
    peak RSS (``VmHWM``) past its own import.  Its ``ru_maxrss`` would not
    do: on Linux it starts at the peak of the process that spawned it, here
    the test runner's, about 49 MB in a full run."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    script = """
import json, sys
from nwgb.cli import main

def peak():
    with open("/proc/self/status", encoding="ascii") as handle:
        return next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))

imported = peak()
code = main(sys.argv[1:])
sys.stdout.write(json.dumps([code, peak() - imported]))
"""
    path = write_spec(tmp_path, "spec.json", spec)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, "groebner", path, "--format=json", f"--out={os.devnull}"],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
    )
    code, growth_kb = json.loads(proc.stdout)
    return code, proc.stderr, growth_kb


def test_groebner_writes_a_large_basis_in_little_memory(tmp_path):
    # the 116,280 terms of rank(NW 4x20) <= 3, written as JSON one element
    # at a time: the child's peak RSS grows about 1.3 MB past the import,
    # where building the whole text before the write peaks at about 131 MB
    spec = {"n": 20, "conditions": [{"i": 4, "j": 20, "r": 3}]}
    code, stderr, growth_kb = peak_growth_past_the_import(tmp_path, spec)
    assert (code, stderr) == (0, "")
    assert growth_kb < 10 * 1024, growth_kb


def test_groebner_streams_a_settled_basis_one_minor_at_a_time(tmp_path):
    # the 36,100 2-minors of a 20x20 matrix, written as JSON: they are
    # sorted by lead as (rows, cols) pairs and each is expanded only as it
    # is written, so the child's peak RSS grows about 17 MB past the
    # import, mostly the pairs themselves; expanding every minor before the
    # write grows it by 35 to 43 MB
    spec = {"n": 20, "conditions": [{"i": 20, "j": 20, "r": 1}]}
    code, stderr, growth_kb = peak_growth_past_the_import(tmp_path, spec)
    assert (code, stderr) == (0, "")
    assert growth_kb < 25 * 1024, growth_kb


def settled_sweep_specs():
    """Every single condition of a 6x6 matrix: specs whose completion a
    theorem settles (``fulton_is_groebner``)."""
    return [
        {"n": 6, "conditions": [{"i": i, "j": j, "r": r}]}
        for i in range(1, 7)
        for j in range(1, 7)
        for r in range(min(i, j))
    ]


def test_groebner_skips_the_queue_without_changing_a_byte(tmp_path, capsys):
    # the reference completes the determinants through the whole S-pair
    # queue; the command runs no completion.  The guard charges the command
    # only what it runs, so (6,6,3) is admitted, and the reference lists its
    # minors through fulton_generators, whose guard counts only their terms
    specs = settled_sweep_specs()
    assert len(specs) == 91
    path = str(tmp_path / "spec.json")
    for data in specs:
        Path(path).write_text(json.dumps(data))
        code = main(["groebner", path, "--format=json"])
        out, err = capsys.readouterr()
        spec = load_spec(path)
        assert fulton_is_groebner(spec), data
        basis = buchberger([poly for *_, poly in fulton_generators(spec)])
        assert (code, out, err) == (0, json_text(basis) + "\n", ""), data


def test_groebner_runs_the_queue_only_where_no_theorem_settles_it(tmp_path, capsys, monkeypatch):
    runs = []
    queue, interreduce = nwgb.groebner._unsettled_pairs, nwgb.groebner._interreduce

    def counted_queue(*args):
        runs.append("queue")
        yield from queue(*args)
        runs.append("queue done")

    def counted_interreduce(*args):
        runs.append("interreduce")
        return interreduce(*args)

    monkeypatch.setattr(nwgb.groebner, "_unsettled_pairs", counted_queue)
    monkeypatch.setattr(nwgb.groebner, "_interreduce", counted_interreduce)
    w = spec_from_permutation(parse_one_line("1 5 4 3 2"))
    settled = [
        {"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]},
        {"n": 3, "conditions": []},
        {"permutation": "2 3 1"},  # one condition
    ]
    unsettled = [
        {"n": 4, "conditions": [{"i": 3, "j": 4, "r": 1}, {"i": 4, "j": 3, "r": 1}]},
        {"permutation": "* 3 1 *"},
        {"permutation": "1 5 4 3 2"},  # honest, three conditions of one size
        {"permutation": "3 1 5 2 4"},
        {**spec_to_json(w), "label": "w"},
    ]
    for data in settled + unsettled:
        path = write_spec(tmp_path, "spec.json", data)
        runs.clear()
        assert main(["groebner", path]) == 0
        capsys.readouterr()
        if data in settled:
            assert runs == [], data
        else:
            assert runs[:3] == ["interreduce", "queue", "queue done"], data
    # the union check keeps the whole queue for every spec, at both depths
    specs = [spec_from_permutation(parse_one_line(t)) for t in ("1 4 3 2", "2 1 4 3")]
    basis = hold(union_basis(specs))
    for depth in ("membership", "full-oracle"):
        runs.clear()
        nwgb.verify.union_verdicts(basis, specs, depth)
        assert runs.count("queue done") >= len(specs), depth


@pytest.mark.parametrize("form", ["json", "text"])
def test_groebner_writes_each_term_as_two_cached_halves(form, tmp_path, capsys, monkeypatch):
    # every term of a basis element uses the rows of its leading term, so
    # the writer reads it as the upper and the lower half of those rows and
    # makes the text of each distinct half, and of each row in it, once:
    # the 600 terms of (5,5,2) need 145 texts, not one or more per term
    made = []
    missing = nwgb.polynomials._RowBlocks.__missing__

    def counted(blocks, segment):
        made.append(segment)
        return missing(blocks, segment)

    monkeypatch.setattr(nwgb.polynomials._RowBlocks, "__missing__", counted)
    path = write_spec(tmp_path, "spec.json", {"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]})
    assert main(["groebner", path, f"--format={form}"]) == 0
    out = capsys.readouterr().out
    if form == "json":
        terms = sum(map(len, json.loads(out)))
    else:
        terms = sum(len(line.split(" + ")) for line in out.splitlines())
    assert (len(made), len(set(made)), terms) == (145, 145, 600)


@pytest.mark.parametrize("form", ["json", "text"])
def test_groebner_builds_no_polynomial(form, tmp_path, capsys, monkeypatch):
    # the minors are expanded straight into packed ints, completed there
    # and written from them
    for data in ({"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]}, {"permutation": "1 5 4 3 2"}):
        path = write_spec(tmp_path, "spec.json", data)
        assert main(["groebner", path, f"--format={form}"]) == 0
        expected = capsys.readouterr().out
        calls = spy_on_polynomial_paths(monkeypatch)
        assert main(["groebner", path, f"--format={form}"]) == 0
        assert capsys.readouterr().out == expected
        assert calls == []
        monkeypatch.undo()


def test_groebner_refuses_an_oversized_permutation_before_any_minor(tmp_path, capsys, monkeypatch):
    # its distinct minors would complete in seconds, but the guard counts a
    # minor once per condition that holds it
    monkeypatch.setattr("nwgb.polynomials._Layout.minor", lambda *args: no_minors(None))
    path = write_spec(tmp_path, "spec.json", {"permutation": "2 1 9 8 7 6 5 4 3"})
    assert main(["groebner", path]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the input needs at least 3773882 units of work, over the limit of 1000000\n",
    )


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


def test_union_membership_verification(spec_231, spec_312, capsysbinary):
    assert main(["union", spec_231, spec_312, "--verify=membership"]) == 0
    assert capsysbinary.readouterr().err == b"membership: 8 checks, 0 failures\n"


def test_union_full_oracle(spec_231, spec_312, capsysbinary):
    assert main(["union", spec_231, spec_312, "--verify=full-oracle"]) == 0
    assert capsysbinary.readouterr().err == (
        b"membership: 8 checks, 0 failures\n"
        b"groebner criterion: ok\n"
        b"ideal equality vs oracle intersection: ok\n"
    )


def test_union_dimension_mismatch(tmp_path, spec_231, capsys):
    other = write_spec(tmp_path, "s4.json", {"n": 4, "permutation": "2 1 4 3"})
    assert main(["union", spec_231, other]) == 2


def test_union_text_bytes_are_the_same_on_stdout_and_through_out(tmp_path, capsys):
    left = write_spec(tmp_path, "l.json", {"n": 4, "permutation": "1 4 2 3"})
    right = write_spec(tmp_path, "r.json", {"n": 4, "permutation": "1 3 4 2"})
    assert main(["union", left, right]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 9
    target = tmp_path / "basis.txt"
    assert main(["union", left, right, f"--out={target}"]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_union_empty_basis_prints_an_empty_json_list(tmp_path, spec_231, capsys):
    identity = write_spec(tmp_path, "id.json", {"n": 3, "permutation": "1 2 3"})
    assert main(["union", identity, spec_231, "--format=json"]) == 0
    assert capsys.readouterr().out == "[]\n"
    assert main(["union", identity, spec_231]) == 0
    assert capsys.readouterr().out == ""


def test_union_ambient_mismatch_with_out_writes_nothing(tmp_path, spec_231, capsys):
    # the specs are checked before the --out file is opened
    other = write_spec(tmp_path, "s4.json", {"n": 4, "permutation": "2 1 4 3"})
    target = tmp_path / "basis.json"
    assert main(["union", spec_231, other, "--format=json", f"--out={target}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ambient sizes differ: 4 vs 3\n"
    assert not target.exists()


def test_union_json_out_peaks_below_the_file_it_writes(tmp_path, capsys):
    # each generator is written as it is built, so no copy of the whole
    # output (5.72 MB for this pooled synth job) is ever held
    paths = [
        write_spec(tmp_path, f"{name}.json", {"n": 6, "permutation": perm})
        for name, perm in (("l", "1 2 3 4 6 5"), ("r", "3 5 1 6 4 2"))
    ]
    target = tmp_path / "basis.json"
    tracemalloc.start()
    try:
        code = main(["union", *paths, "--format=json", f"--out={target}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size


def test_union_text_out_peaks_below_the_file_it_writes(tmp_path):
    # the basis is a list of handles, and each product is formed, written
    # and dropped: a handle that kept its product would hold all of them at
    # the end
    paths = [
        write_spec(tmp_path, f"{name}.json", {"n": 6, "permutation": perm})
        for name, perm in (("l", "1 2 3 4 6 5"), ("r", "3 5 1 6 4 2"))
    ]
    target = tmp_path / "basis.txt"
    tracemalloc.start()
    try:
        code = main(["union", *paths, "--format=text", f"--out={target}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size


VERIFY_DEPTHS = ("none", "membership", "full-oracle")


def no_minors(spec):
    raise AssertionError("the guard must stop the run before any minor is listed")


# one condition whose region holds C(3000, 2)**2 2-minors, about 2e13
OVERSIZED = {"n": 3000, "conditions": [{"i": 3000, "j": 3000, "r": 1}]}


@pytest.mark.parametrize(
    "args",
    [
        ["fulton", "{spec}"],
        ["groebner", "{spec}"],
        *(["union", "{spec}", "{spec}", f"--verify={depth}"] for depth in VERIFY_DEPTHS),
    ],
    ids=["fulton", "groebner", *(f"union-{depth}" for depth in VERIFY_DEPTHS)],
)
def test_work_guard_refuses_an_oversized_spec_before_any_minor(
    args, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("nwgb.ideals._minors", no_minors)
    spec = write_spec(tmp_path, "big.json", OVERSIZED)
    target = tmp_path / "out.txt"
    for argv in ([*args], [*args, f"--out={target}"]):
        # the patch proves the order; the loose bound catches a hang in the
        # count itself, not a slow machine
        start = time.perf_counter()
        assert main([arg.replace("{spec}", spec) for arg in argv]) == 2
        assert time.perf_counter() - start < 10
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: the input needs at least ") and err.count("\n") == 1
        assert err.endswith(" units of work, over the limit of 1000000\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "pair",
    [("6 5 3 8 1 7 2 4", "6 4 1 3 8 7 2 5"), ("1 8 4 2 7 3 6 5", "4 1 8 5 2 7 6 3")],
    ids=" | ".join,
)
def test_work_guard_refuses_an_s8_pair_before_any_product(pair, tmp_path, capsys, monkeypatch):
    # few choices, but products of over 3e6 terms in all: the guard adds up
    # each generator's bound on its terms as it extracts, and stops once
    # the count passes the limit (the second pair's completion passes it
    # before any choice is extracted)
    def no_product(*args):
        raise AssertionError("the guard must stop the run before any product is formed")

    monkeypatch.setattr("nwgb.union.generator_product", no_product)
    paths = [write_spec(tmp_path, f"{i}.json", {"permutation": p}) for i, p in enumerate(pair)]
    start = time.perf_counter()
    assert main(["union", *paths, "--format=json", "--verify=full-oracle"]) == 2
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the input needs at least ") and err.count("\n") == 1


def one_line(n):
    """2 1 3 4 ... n: one essential box, so one condition and one minor."""
    return " ".join(["2", "1", *map(str, range(3, n + 1))])


@pytest.mark.parametrize(
    "args",
    [["fulton", "{spec}"], ["groebner", "{spec}"], ["union", "{spec}"], ["diagram", "{perm}"]],
    ids=["fulton", "groebner", "union", "diagram"],
)
def test_work_guard_refuses_a_long_permutation_before_its_rank_matrix(
    args, tmp_path, capsys, monkeypatch
):
    # a 2,000 x 2,000 rank matrix is 4e6 units; the spec file is 9 KB
    def no_rank_matrix(p):
        raise AssertionError("the guard must stop the run before any rank matrix is built")

    monkeypatch.setattr("nwgb.permutations.rank_matrix", no_rank_matrix)
    perm = one_line(2000)
    spec = write_spec(tmp_path, "long.json", {"permutation": perm})
    argv = [arg.replace("{spec}", spec).replace("{perm}", perm) for arg in args]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the input needs at least 4000000 units of work, over the limit of 1000000\n"


def test_a_permutation_of_1000_entries_is_admitted(tmp_path, capsys):
    # 1000**2 units is exactly the limit
    spec = write_spec(tmp_path, "s.json", {"permutation": one_line(1000)})
    assert main(["fulton", spec]) == 0
    assert capsys.readouterr().out == "1*m[1,1]\n"


# few terms, but 90,000 1-minors: completing them meets 4e9 pairs, and a
# packed layout of their 90,000 cells holds ints of up to 720,000 bits
SQUARE_RANK_0 = {"n": 300, "conditions": [{"i": 300, "j": 300, "r": 0}]}


@pytest.mark.parametrize(
    "args, count",
    [
        (["groebner", "{spec}"], 8_100_090_000),
        *((["union", "{spec}", f"--verify={depth}"], 16_200_180_000) for depth in VERIFY_DEPTHS),
    ],
    ids=["groebner", *(f"union-{depth}" for depth in VERIFY_DEPTHS)],
)
def test_work_guard_counts_the_completion_before_any_minor(
    args, count, tmp_path, capsys, monkeypatch
):
    # groebner, which runs no queue on one condition, counts the 90,000
    # terms and the square of their 90,000 cells; a union counts t + m*t =
    # 90,000 + 90,000**2 to complete the spec, the 90,000 choices and the
    # square of the layout's 90,000 cells
    monkeypatch.setattr("nwgb.ideals._minors", no_minors)
    spec = write_spec(tmp_path, "square.json", SQUARE_RANK_0)
    assert main([arg.replace("{spec}", spec) for arg in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: the input needs at least {count} units of work, over the limit of 1000000\n"
    )


def test_work_guard_counts_the_completion_for_groebner_only(tmp_path, capsys):
    # the 1-minors of 40 x 40: 1,600 terms to list, and 1,600 + 1,600**2
    # units to write them in a layout of their 1,600 cells
    square = {"n": 40, "conditions": [{"i": 40, "j": 40, "r": 0}]}
    spec = write_spec(tmp_path, "square.json", square)
    assert main(["fulton", spec]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1_600 and err == ""
    assert main(["groebner", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the input needs at least 2561600 units of work, over the limit of 1000000\n"
    )


def test_work_guard_charges_a_settled_spec_what_groebner_runs(tmp_path, capsys, monkeypatch):
    # groebner runs no queue on one condition: it expands and writes the t
    # terms of its minors in a layout of the v cells of its region, t + v**2
    # units.  The union check runs the queue, so union keeps t + m*t
    spec = write_spec(tmp_path, "spec.json", {"n": 6, "conditions": [{"i": 6, "j": 6, "r": 3}]})
    count = math.comb(6, 4) ** 2 * math.factorial(4) + 36**2
    assert count == 6_696
    monkeypatch.setattr("nwgb.ideals.WORK_LIMIT", count)
    assert main(["groebner", spec]) == 0
    capsys.readouterr()
    monkeypatch.setattr("nwgb.ideals.WORK_LIMIT", count - 1)
    assert main(["groebner", spec]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the input needs at least {count} units of work, over the limit of {count - 1}\n",
    )
    monkeypatch.undo()
    # 5,400 + 225 * 5,400 to complete, 225 choices and 36**2 for the layout
    assert main(["union", spec]) == 2
    assert capsys.readouterr() == (
        "",
        "error: the input needs at least 1221921 units of work, over the limit of 1000000\n",
    )


def test_work_guard_counts_the_union_layout_before_any_minor(tmp_path, capsys, monkeypatch):
    # a column and a row of 100 1-minors each: 20,200 units to complete
    # both and 10,000 choices, but the packed layout spans all 100 x 100
    # cells that their rows and columns meet in, 10**8 units
    monkeypatch.setattr("nwgb.ideals._minors", no_minors)
    paths = [
        write_spec(tmp_path, f"{i}{j}.json", {"n": 100, "conditions": [{"i": i, "j": j, "r": 0}]})
        for i, j in ((100, 1), (1, 100))
    ]
    assert main(["union", *paths, "--format=json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the input needs at least 100030200 units of work, over the limit of 1000000\n"
    )


@pytest.mark.parametrize(
    "perms, generators",
    [
        (("1 6 5 4 3 2", "5 4 3 2 1 6"), 331),
        (("1 7 6 5 4 3 2", "6 5 4 3 2 1 7"), 1005),
    ],
    ids=["s6-fixture", "s7-pair"],
)
def test_union_full_oracle_runs_past_ambient_five(perms, generators, tmp_path, capsys):
    paths = [write_spec(tmp_path, f"{i}.json", {"permutation": p}) for i, p in enumerate(perms)]
    assert main(["union", *paths, "--verify=full-oracle"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == generators
    assert err.splitlines() == [
        f"membership: {2 * generators} checks, 0 failures",
        "groebner criterion: ok",
        "ideal equality vs oracle intersection: ok",
    ]


def test_work_guard_admits_a_union_at_exactly_the_limit(tmp_path, capsys, monkeypatch):
    # the count, worked out here from its definition: each spec's Fulton
    # terms t and, for completing its m minors, m*t; the product of the
    # specs' minor counts; the square of the packed layout's cells; and
    # over the distinct generators the product of |f|! over the factors f
    perms = ("1 5 4 3 2", "4 3 2 1 5")
    specs = [spec_from_permutation(parse_one_line(p)) for p in perms]
    minors = [
        [math.comb(c.row, c.max_rank + 1) * math.comb(c.col, c.max_rank + 1) for c in s.conditions]
        for s in specs
    ]
    terms = [
        sum(count * math.factorial(c.max_rank + 1) for c, count in zip(s.conditions, counts))
        for s, counts in zip(specs, minors)
    ]
    completion = sum(t + sum(counts) * t for counts, t in zip(minors, terms))
    # every essential condition has minors, so the layout spans rows 1..i
    # and columns 1..j of the largest i and j
    cells = max(c.row for s in specs for c in s.conditions) * max(
        c.col for s in specs for c in s.conditions
    )
    bounds = sum(
        math.prod(math.factorial(len(f.cells)) for f in g.factors) for g in union_basis(specs)
    )
    count = completion + math.prod(map(sum, minors)) + cells**2 + bounds
    assert count == 1_668
    paths = [write_spec(tmp_path, f"{i}.json", {"permutation": p}) for i, p in enumerate(perms)]
    monkeypatch.setattr("nwgb.ideals.WORK_LIMIT", count)
    assert main(["union", *paths]) == 0
    capsys.readouterr()
    monkeypatch.setattr("nwgb.ideals.WORK_LIMIT", count - 1)
    assert main(["union", *paths]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: the input needs at least {count} units of work, over the limit of {count - 1}\n"
    )


def test_max_oracle_n_is_an_unrecognized_argument(spec_231, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["union", spec_231, spec_231, "--max-oracle-n=6"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "nwgb: error: unrecognized arguments: --max-oracle-n=6"


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
    # a pair that fails membership reaches the criterion, and its equality
    # verdict is false without an elimination
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
    assert reached == ["is_groebner"]


@pytest.mark.parametrize(
    "left,right,checks",
    [
        ("3 1 5 2 4", "1 4 3 2 5", 76),
        ("1 4 3 2 5", "3 1 5 2 4", 76),
        ("1 2 4 5 3", "1 4 2 3 5", 24),
    ],
)
def test_union_s5_defect_full_oracle_fails(tmp_path, capsys, left, right, checks):
    # known union defects (ROADMAP item 1): membership fails, so the basis
    # does not generate the oracle intersection, and is_groebner reads False
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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("depth", ["none", "membership", "full-oracle"])
def test_union_forms_each_product_once_and_multiplies_no_polynomial(
    fmt, depth, tmp_path, capsys, monkeypatch
):
    # the writer and the checks read one packed product per generator, and
    # no path folds a product through Polynomial.__mul__
    perms = ("1 5 4 3 2", "4 3 2 1 5")
    paths = [write_spec(tmp_path, f"{i}.json", {"permutation": p}) for i, p in enumerate(perms)]
    basis = union_basis([spec_from_permutation(parse_one_line(p)) for p in perms])
    formed, multiplied = [], []
    product, mul = nwgb.union._Packing.product, Polynomial.__mul__
    monkeypatch.setattr(
        nwgb.union._Packing, "product", lambda self, f: formed.append(f) or product(self, f)
    )
    monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: multiplied.append(g) or mul(f, g))
    assert main(["union", *paths, f"--format={fmt}", f"--verify={depth}"]) == 0
    assert len(capsys.readouterr().out) > 0
    assert formed == [g.factors for g in basis]
    assert len(basis) == 84 and multiplied == []


@pytest.mark.parametrize(
    "perms",
    [("1 5 4 3 2", "4 3 2 1 5"), ("1 7 6 5 4 3 2", "6 5 4 3 2 1 7")],
    ids=["s5-fixture", "s7-pair"],
)
def test_union_json_bytes_are_the_same_with_and_without_membership(perms, tmp_path, capsysbinary):
    # membership forms the products at a wider field than the write alone
    # does; the bytes written do not depend on it
    paths = [write_spec(tmp_path, f"{i}.json", {"permutation": p}) for i, p in enumerate(perms)]
    outs = []
    for depth in ("none", "membership"):
        assert main(["union", *paths, "--format=json", f"--verify={depth}"]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith(b"[\n  {")


# two classical determinantal varieties, rank(NW 4x2) <= 1 and
# rank(M) <= 2, which spec_from_permutation gives 1 3 4 * and 1 2 * *
RANK_4X2_AT_MOST_1 = {"n": 4, "conditions": [{"i": 4, "j": 2, "r": 1}]}
RANK_4X4_AT_MOST_2 = {"n": 4, "conditions": [{"i": 4, "j": 4, "r": 2}]}


def test_union_4x4_determinantal_defect_full_oracle_fails(tmp_path, capsys):
    # the known union defect (ROADMAP item 1) at n = 4: 5 of the 91
    # generators lie outside an input ideal
    paths = [
        write_spec(tmp_path, "l.json", RANK_4X2_AT_MOST_1),
        write_spec(tmp_path, "r.json", RANK_4X4_AT_MOST_2),
    ]
    assert main(["union", *paths, "--verify=full-oracle"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 91
    assert err == (
        "membership: 182 checks, 5 failures\n"
        "groebner criterion: FAILED\n"
        "ideal equality vs oracle intersection: FAILED\n"
    )


def test_union_partial_permutation_defect_membership_fails(tmp_path, capsys):
    paths = [
        write_spec(tmp_path, "l.json", {"permutation": "1 2 * *"}),
        write_spec(tmp_path, "r.json", {"permutation": "1 3 4 *"}),
    ]
    assert main(["union", *paths, "--verify=membership"]) == 1
    assert capsys.readouterr().err == "membership: 182 checks, 5 failures\n"


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


# every single-valued flag of every command given as --flag=--, which
# argparse reads as an empty list
DASH_DASH_VALUES = [
    [command, positional, f"{flag}=--"]
    for command, positional in (
        ("diagram", "2 1"),
        ("fulton", "a.json"),
        ("groebner", "a.json"),
        ("union", "a.json"),
        ("verify", "gluing"),
    )
    for flag, _ in _COMMANDS[command][1]
    if flag.startswith("-")
]


@pytest.mark.parametrize("args", DASH_DASH_VALUES, ids=" ".join)
def test_dash_dash_flag_value_exits_2_with_one_error_line(args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so a file named "--" would land here
    assert _read_args(args) is None
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    flag = args[2].partition("=")[0]
    assert err.startswith("usage: nwgb ")
    assert err.splitlines()[-1] == f"nwgb: error: argument {flag}: expected one argument"
    assert err.count("error:") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_dash_dash_flag_value_exits_2_from_the_command_line(tmp_path):
    code, out, err = run_cli(["verify", "gluing", "--seed=--"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "nwgb: error: argument --seed: expected one argument"
    assert "Traceback" not in err


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
    # random.Random seeds from abs(seed), so --seed=-1 would rerun seed 1
    "seed-below-zero": (
        ["verify", "gluing", "--seed=-1"],
        "error: seed must be at least 0, got -1\n",
    ),
    "work-guard": (
        ["union", "{dir}/big.json", "{dir}/big.json", "--verify=full-oracle"],
        "error: the input needs at least 2047580116571437258509000000 units of work, "
        "over the limit of 1000000\n",
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
    write_spec(tmp_path, "big.json", OVERSIZED)
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
        ["verify", "x" * 5000],
        ["verify", "gluing", f"--seed={LONG_NUMBER}"],
    ],
    ids=["huge-cases", "huge-suite-name", "huge-seed"],
)
def test_huge_command_line_value_gives_one_short_error_line(args, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) <= 200


def test_byte_identical_output_across_runs(spec_231, spec_312):
    first = run_cli(["union", spec_231, spec_312, "--format=json"])
    second = run_cli(["union", spec_231, spec_312, "--format=json"])
    assert first == second
    assert first[0] == 0


CLOSED_PIPE_RUNS = {
    "membership": ["union", "{w0}", "--verify=membership"],
    "full-oracle-json": ["union", "{w0}", "{w0}", "--verify=full-oracle", "--format=json"],
    "help": ["union", "-h"],
    # more than the 8 KiB a block-buffered stdout holds, so a flush fails
    # inside the handler, not at run's final flush
    "json": ["union", "{s5a}", "{s5b}", "--format=json", "--verify=none"],
    "groebner-json": ["groebner", "{g552}", "--format=json"],
}
CLOSED_PIPE_SPECS = {
    "w0": {"n": 3, "permutation": "3 2 1"},
    "s5a": {"n": 5, "permutation": "1 5 4 3 2"},
    "s5b": {"n": 5, "permutation": "4 3 2 1 5"},
    "g552": {"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]},
}


def closed_pipe_args(run, tmp_path):
    args = CLOSED_PIPE_RUNS[run]
    for name, data in CLOSED_PIPE_SPECS.items():
        path = write_spec(tmp_path, f"{name}.json", data)
        args = [arg.replace("{" + name + "}", path) for arg in args]
    return args


# help and the json runs write to stdout only
CLOSED_PIPES = [
    (run, stream, unbuffered)
    for unbuffered in (False, True)
    for run in CLOSED_PIPE_RUNS
    for stream in ("stdout", "stderr")
    if stream == "stdout" or run not in ("help", "json", "groebner-json")
]


@pytest.mark.parametrize(
    "run, stream, unbuffered",
    CLOSED_PIPES,
    ids=[f"{r}-{s}" + ("-unbuffered" if u else "") for r, s, u in CLOSED_PIPES],
)
def test_closed_pipe_exits_2_without_a_traceback(run, stream, unbuffered, tmp_path):
    # the read end is closed before the run starts, so every write to the
    # pipe fails; an uncaught error would exit 1, and a failed flush at
    # interpreter shutdown 120.  A block-buffered stdout, as a pipe has by
    # default, fails at a flush; an unbuffered one at each write, which
    # argparse would swallow from help
    env = src_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    args = closed_pipe_args(run, tmp_path)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nwgb", *args],
            stdout=write if stream == "stdout" else subprocess.DEVNULL,
            stderr=write if stream == "stderr" else subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    if stream == "stdout":
        # a closed pipe is not bad input: no error line.  Only a --verify
        # report, written before a block-buffered stdout is flushed, can
        # reach stderr
        reports = any(arg.startswith("--verify=") and arg != "--verify=none" for arg in args)
        if unbuffered or not reports:
            assert proc.stderr == b""
        else:
            assert proc.stderr.startswith(b"membership: ")
            for text in (b"error", b"Traceback", b"Exception ignored"):
                assert text not in proc.stderr


def test_closed_pipe_json_run_outgrows_the_stdout_buffer(tmp_path):
    for run in ("json", "groebner-json"):
        out = tmp_path / "out.json"
        assert main([*closed_pipe_args(run, tmp_path), f"--out={out}"]) == 0
        assert out.stat().st_size > 8192, run


def test_module_entry_point():
    code, out, err = run_cli(["diagram", "2 1 4 3"])
    assert code == 0
    assert "e 1 . ." in out


def test_usage_error_exit_code():
    code, out, err = run_cli([])
    assert code == 2


# argv of each run whose help, usage and error text is pinned below
PINNED_RUNS = [
    ["-h"],
    *([command, "-h"] for command in ("diagram", "fulton", "groebner", "union", "verify")),
    [],
    ["bogus"],
    ["union"],
    ["union", "a.json", "--bogus"],
    ["--bogus", "union", "a.json"],
    ["union", "a.json", "--verify=x"],
    ["verify", "all", "--cases=x"],
    ["verify", "all", "--format=json"],
]

# each run as `python -m nwgb` executes it: the package's __main__ under
# runpy, with sys.argv set and COLUMNS, the width argparse reads, exported
CLI_TEXT_SCRIPT = """
import contextlib, io, json, os, runpy, sys
results = []
for columns, args in json.loads(sys.argv[1]):
    os.environ["COLUMNS"] = columns
    sys.argv = ["nwgb", *args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("nwgb", run_name="__main__")
            code = None
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def test_help_usage_and_error_text_is_pinned():
    # digests of (exit code, stdout, stderr) recorded before the parser was
    # built per command, and those of the union help and usage text again
    # once --max-oracle-n went; one interpreter runs every case, for the
    # tier-1 time
    pinned = {
        "80": [
            "144ee922a192e691",
            "d89586cb15fdd350",
            "0a154d64090914c4",
            "00420f239f7837c2",
            "69f6b2bd9771a579",
            "6150b7ed93516240",
            "883bf83c5dc5fcbe",
            "8c2ff2d7967e7e6c",
            "8f081926fe211362",
            "af345527d333758a",
            "af345527d333758a",
            "b379c8e4152cf44b",
            "691f9130223a7070",
            "5a4671f65c0cc6c3",
        ],
        "40": [
            "4fce269e154b2587",
            "a53f306e484a4b7b",
            "87ce6d018683779d",
            "9871ba9795db3e9a",
            "52b05c6821abba07",
            "ba30345c5f34f794",
            "b69d413b647ff4d6",
            "2d835df916d84edd",
            "6e9b9ff11e059244",
            "c432c4c9b2de99fa",
            "c432c4c9b2de99fa",
            "36fae54e0578fae9",
            "6d35b9c0ebf7d5e7",
            "ece51889660ec8d6",
        ],
    }
    cases = [(columns, args) for columns in pinned for args in PINNED_RUNS]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_TEXT_SCRIPT, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
    )
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    expected = [digest for columns in pinned for digest in pinned[columns]]
    for (columns, args), result, digest in zip(cases, results, expected):
        got = hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]
        assert got == digest, (columns, args, result)


def argv_corpus(seed, count):
    """Seeded argv for every command, and for unknown ones: each flag of any
    command in both spellings, with valid and invalid choices, ints that are
    negative, non-numeric or thousands of digits long, and values that are
    empty, hold "=" or start with "-", mixed with help flags, "--", "-",
    abbreviations, repeats and positionals that may be split."""
    rng = random.Random(seed)
    flags = sorted(
        {flag for _, arguments, _ in _COMMANDS.values() for flag, _ in arguments if flag[0] == "-"}
    )
    values = [
        *("text", "json", "xml", "none", "membership", "full-oracle", "Full-Oracle"),
        *("3", "007", " 7", "1_0", "-2", "x", "1" * 5000, "", "a=b", "--", "-"),
    ]
    loose = ["-h", "--help", "--", "-", "--verif", "--verif=membership", "--form=json", "--o", "-x"]
    positionals = ["a.json", "b.json", "2 1 4 3", "", "x=y", "all"]
    commands = [*_COMMANDS, "bogus", "unio", ""]
    corpus = []
    for _ in range(count):
        argv = [rng.choice(commands)]
        for _ in range(rng.randrange(6)):
            draw = rng.random()
            if draw < 0.4:
                argv.append(rng.choice(positionals))
            elif draw < 0.6:
                argv.append(f"{rng.choice(flags)}={rng.choice(values)}")
            elif draw < 0.85:
                argv += [rng.choice(flags), rng.choice(values)]
            else:
                argv.append(rng.choice(loose))
        corpus.append(argv)
    return corpus


def test_read_args_gives_the_namespace_argparse_gives():
    # argparse stays the reference: every argv the reader accepts parses to
    # the same namespace, and the runs whose help and errors are pinned go
    # to argparse
    parser = _build_parser()
    accepted = set()
    for argv in argv_corpus(seed=0, count=20000):
        got = _read_args(argv)
        if got is not None:
            assert vars(got) == vars(parser.parse_args(argv)), argv
            accepted.add(argv[0])
    assert accepted == set(_COMMANDS)
    assert [_read_args(argv) for argv in PINNED_RUNS] == [None] * len(PINNED_RUNS)


def test_no_command_imports_shutil(spec_231, spec_312):
    # a run that parses and succeeds reads argv without argparse, so it
    # loads neither argparse, the gettext and locale imports behind its
    # messages, nor the shutil (and compression modules) its help formatter
    # imports for the terminal width
    script = """
import contextlib, io, json, sys
from nwgb.cli import _COMMANDS, _build_parser, _read_args, main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name in ("argparse", "gettext", "locale", "shutil") if name in sys.modules]
sys.stdout.write(json.dumps([codes, loaded]))
"""
    runs = [
        ["diagram", "2 1 4 3"],
        ["fulton", spec_231],
        ["groebner", spec_231],
        ["union", spec_231, spec_312, "--verify=full-oracle"],
        ["verify", "minor-init", "--cases=1"],
    ]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
    )
    assert json.loads(proc.stdout) == [[0, 0, 0, 0, 0], []]


ON_FIRST_USE = ("nwgb.suites", "nwgb.payloads")


def test_cli_import_is_lean_and_freezes_the_heap():
    # every run pays for what ``import nwgb.cli`` loads and for collections
    # that walk the objects it built; the package alone leaves the
    # collector as it was.  The suites and the plain writers are loaded
    # only by the commands that run them, and the package's names for them
    # resolve on first access
    script = """
import gc, json, sys
import nwgb
package_frozen = gc.get_freeze_count()
import nwgb.cli
loaded = [
    name
    for name in ("typing", "random", "argparse", "fractions", *%r)
    if name in sys.modules
]
import nwgb.payloads, nwgb.suites
resolved = [
    nwgb.SUITES is nwgb.suites.SUITES,
    nwgb.run_suite is nwgb.suites.run_suite,
    nwgb.diagram_text is nwgb.payloads.diagram_text,
    nwgb.diagram_json is nwgb.payloads.diagram_json,
]
sys.stdout.write(json.dumps([package_frozen, gc.get_freeze_count() > 0, loaded, resolved]))
""" % (ON_FIRST_USE,)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
    )
    assert json.loads(proc.stdout) == [0, True, [], [True] * 4]


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["verify", "minor-init", "--cases=1"], ["nwgb.suites"]),
        (["diagram", "2 1"], ["nwgb.payloads"]),
        (["diagram", "2 1", "--format=json"], ["nwgb.payloads"]),
        (["fulton", "SPEC"], ["nwgb.payloads"]),
        (["fulton", "SPEC", "--format=json"], ["nwgb.payloads"]),
        (["groebner", "SPEC"], []),
        (["union", "SPEC", "SPEC", "--verify=full-oracle"], []),
        # argparse's help names the suites
        (["union", "SPEC", "SPEC", "--verify", "--nope"], ["nwgb.suites"]),
    ],
)
def test_a_command_loads_the_suites_or_the_plain_writers_on_first_use(tmp_path, argv, loads):
    spec = write_spec(tmp_path, "spec.json", {"n": 3, "permutation": "2 3 1"})
    script = """
import contextlib, io, json, sys
import nwgb.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        nwgb.cli.main(sys.argv[1:])
    except SystemExit:
        pass
sys.stdout.write(json.dumps([name for name in %r if name in sys.modules]))
""" % (ON_FIRST_USE,)
    argv = [spec if arg == "SPEC" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env=src_env(),
        check=True,
    )
    assert json.loads(proc.stdout) == loads
