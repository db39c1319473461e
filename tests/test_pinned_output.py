"""Output bytes pinned by SHA-256 digest.

The digests were recorded with the earlier monomial kernel (a tuple of
(cell, exponent) pairs, divided by scanning for the largest term), before
the packed kernel and the heap-driven division replaced it.  A change to
the order, the monomial arithmetic, division or the union construction
that alters one byte of output fails here.  The inputs are two conditions
of the benchmark's ``complete`` pool, two triples of its ``eliminate``
pool, the fixed S7 pair of its ``synth`` workload and three pooled S6
pairs of that workload.  The text of the ``oracle`` workload's fixed pair
and the Fulton generators of condition (5,5,2) were recorded before the
determinant read its signs from a table.  The ``nwgb diagram`` digests
were recorded before the diagram, essential set and text layout were
read off one rank matrix, and the ``nwgb verify all`` digest before the
suites' dispatch and random monomials lost their unused parameters.  The
union digests are checked on stdout and again on the file ``--out``
writes.
"""

import hashlib
import json
import random
import sys

import pytest

from nwgb.cli import main
from nwgb.groebner import IdealPresentation, initial_ideal, intersect_many
from nwgb.ideals import generator_polynomials, spec_from_json, spec_from_permutation
from nwgb.permutations import parse_one_line, rank_matrix
from nwgb.polynomials import monomial_text, polynomial_text, sort_key


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "condition,digest",
    [
        ((4, 4, 2), "4663136fa911ef213f81ce2dfcd561ebd01264c3c53461f7105fef324dbbac9e"),
        ((5, 4, 3), "882dfe32b7de3950d0617fb302c7eeae5baceeebfc8fe5d0b3d483038903ca86"),
    ],
)
def test_groebner_json_bytes_on_5x5_conditions(condition, digest, tmp_path, capsys):
    i, j, r = condition
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 5, "conditions": [{"i": i, "j": j, "r": r}]}))
    assert main(["groebner", str(path), "--format=json"]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_union_json_bytes_on_the_s7_pair(tmp_path, capsys):
    # the digest bench/pool.json pins for the synth workload's fixed job
    paths = []
    for name, perm in (("l", "1 7 6 5 4 3 2"), ("r", "6 5 4 3 2 1 7")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 7, "permutation": perm}))
        paths.append(str(path))
    assert main(["union", *paths, "--format=json", "--verify=none"]) == 0
    digest = "5ad4f242a1960feb6e42f78a8fbedc01b3ea79f102e34717088a56cb8d32f52c"
    assert sha256(capsys.readouterr().out) == digest
    target = tmp_path / "basis.json"
    assert main(["union", *paths, "--format=json", "--verify=none", f"--out={target}"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "perms,digest",
    [
        # the smallest, the median and the largest pooled synth job by
        # pinned cost, with the digests bench/pool.json pins for them
        (
            ("3 4 5 6 2 1", "5 6 3 1 2 4"),
            "1835b53d2ae64d969f695e360cb6d5e9bad27445b5abe0d6049227a2ea6ecb41",
        ),
        (
            ("1 4 2 5 6 3", "1 5 4 3 2 6"),
            "d650988920b104d7c5bb1f3a8c68c6afb111d6827c6e6ed57eeb33419b9a9127",
        ),
        (
            ("1 2 3 4 6 5", "3 5 1 6 4 2"),
            "5d7672f272da7f9555e3057be0abdf71195a407442f761ed46de85b81e3b2f6f",
        ),
    ],
)
def test_union_json_bytes_on_s6_pairs(perms, digest, tmp_path, capsys):
    paths = []
    for name, perm in zip("lr", perms):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 6, "permutation": perm}))
        paths.append(str(path))
    assert main(["union", *paths, "--format=json", "--verify=none"]) == 0
    assert sha256(capsys.readouterr().out) == digest
    target = tmp_path / "basis.json"
    assert main(["union", *paths, "--format=json", "--verify=none", f"--out={target}"]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("verify", ["none", "membership", "full-oracle"])
def test_union_text_bytes_on_the_oracle_pair(verify, tmp_path, capsys):
    # the fixed job of the oracle workload, written as text: the products
    # at the proven width under --verify=none, and held at the width a
    # division starts at under the other depths, through the text writer
    paths = []
    for name, perm in (("l", "1 5 4 3 2"), ("r", "4 3 2 1 5")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 5, "permutation": perm}))
        paths.append(str(path))
    assert main(["union", *paths, "--format=text", f"--verify={verify}"]) == 0
    digest = "1c4c43c20b8a7edb6fd689f3c2aa84babf6c0dd305f984277de0fc00dd638298"
    assert sha256(capsys.readouterr().out) == digest


def test_fulton_json_bytes_on_a_5x5_condition(tmp_path, capsys):
    # every 3-minor of a 5x5 matrix, as determinant expands them
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 5, "conditions": [{"i": 5, "j": 5, "r": 2}]}))
    assert main(["fulton", str(path), "--format=json"]) == 0
    digest = "ea4a738504a0e8f9871ff5df607a3dc481db1d8f7ba15eaaa9d365bdee8aa3ac"
    assert sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "perms,digest",
    [
        (
            ("5 3 2 4 6 1", "5 3 6 4 2 1", "6 1 4 2 3 5"),
            "eee764f459cc90fd899ef17d1100b852f7a1e6d41b426ce7dc49179d2efa2fea",
        ),
        (
            ("5 1 3 4 2 6", "6 2 4 5 3 1", "5 4 1 2 6 3"),
            "6a20b9171f32b6c30c743f16e4288bc5065d0a79cf52051b3f102181bb71c558",
        ),
    ],
)
def test_intersection_and_initial_ideal_bytes_on_s6_triples(perms, digest):
    ideals = [
        IdealPresentation(tuple(generator_polynomials(spec_from_json({"n": 6, "permutation": p}))))
        for p in perms
    ]
    meet = intersect_many(ideals)
    init = initial_ideal(meet)
    text = "".join(polynomial_text(f) + "\n" for f in meet)
    text += "".join(
        monomial_text(m) + "\n" for m in sorted(init.minimal_generators, key=sort_key)
    )
    assert sha256(text) == digest


def forty_letter_partial():
    rng = random.Random(40)
    values = list(range(1, 41))
    rng.shuffle(values)
    return " ".join(str(v) if rng.random() < 0.7 else "*" for v in values)


@pytest.mark.parametrize(
    "permutation,text_digest,json_digest",
    [
        (
            "1 5 4 3 2",
            "489b5838dede7fae3360205668e652e8c0bf17a3aebaeb27c9864987028050b7",
            "b8b0bdfc21f38f2194b5249dd11051f4f1aad34be4123c95c7fba413248cfcb7",
        ),
        (
            "2 * 1",
            "9c24446fdc21757daf778cd8ff0f316bcaf33824ae44ea3b04752e818d79ffbc",
            "798165c26c75360f987ce361d69ec83b31cd19978f80667b99fcb953c5c1d5cf",
        ),
        (
            "* * *",
            "a20872117278c079eb0aa2ceca4227edadc02be25a94beda7d7d062a67e76e8b",
            "f869939d1a3c05f5a2ef44211acbddfc188bfbc3fa48f138c6fcb315100c9fcd",
        ),
        (
            forty_letter_partial(),
            "4cbc5e370973d6059eea4bd668c4139857a76f7f98abc7cef613a0b37dce28b7",
            "8c55d4da12e1e3167f89ab16b8712c07fd7e8375e240a52050c32388e1beaddd",
        ),
    ],
    ids=["15432", "2-star-1", "all-stars", "seeded-40"],
)
def test_diagram_bytes(permutation, text_digest, json_digest, capsys):
    assert main(["diagram", permutation, "--format=text"]) == 0
    assert sha256(capsys.readouterr().out) == text_digest
    assert main(["diagram", permutation, "--format=json"]) == 0
    assert sha256(capsys.readouterr().out) == json_digest


@pytest.mark.parametrize(
    "call",
    [
        lambda: main(["diagram", "1 5 4 3 2", "--format=text"]),
        lambda: main(["diagram", "1 5 4 3 2", "--format=json"]),
        lambda: spec_from_permutation(parse_one_line("1 5 4 3 2")),
    ],
    ids=["diagram-text", "diagram-json", "spec-from-permutation"],
)
def test_one_rank_matrix_per_call(call, monkeypatch, capsys):
    calls = []

    def counted(p):
        calls.append(p)
        return rank_matrix(p)

    # every package module that holds the function, so an import by name counts too
    for name, module in list(sys.modules.items()):
        if name.startswith("nwgb") and getattr(module, "rank_matrix", None) is rank_matrix:
            monkeypatch.setattr(module, "rank_matrix", counted)
    call()
    assert len(calls) == 1


def test_verify_all_report_bytes(capsys):
    # every suite, the sampled ones on seed 3 with 15 cases each; the
    # digest is the same under any PYTHONHASHSEED
    assert main(["verify", "all", "--seed=3", "--cases=15"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert sha256(out) == "5a1ec54504ac9b5eaadcd9f78bb9223596a16701dd95e0489dd4ce5528cc98ea"
