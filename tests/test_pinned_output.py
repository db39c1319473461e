"""Output bytes pinned by SHA-256 digest.

The digests were recorded with the earlier monomial kernel (a tuple of
(cell, exponent) pairs, divided by scanning for the largest term), before
the packed kernel and the heap-driven division replaced it.  A change to
the order, the monomial arithmetic or division that alters one byte of
output fails here.  The inputs are two conditions of the benchmark's
``complete`` pool and two triples of its ``eliminate`` pool.
"""

import hashlib
import json

import pytest

from nwgb.cli import main
from nwgb.groebner import IdealPresentation, initial_ideal, intersect_many
from nwgb.ideals import generator_polynomials, spec_from_json
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
