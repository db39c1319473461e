"""Output digests and theorem-based checks for benchmark jobs.

The checks do not use the code under test to decide anything.  They have
their own lex order (the order of the README: m[1,n] > ... > m[1,1] > m[2,n]
> ... > m[n,1], with the elimination variable t ahead of all), their own
Rothe diagrams and essential sets, and their own monomial ideals.  Only the
eliminate workload reads its result through ``nwgb.polynomials``'
serializers, whose bytes the pinned digest fixes.

    synth      every generator's leading monomial is the squarefree product
               of the cells its factors' antidiagonals occupy
    oracle     exit 0 and all three CLI checks print ok
    complete   the leading monomials of the reduced basis generate the same
               monomial ideal as the antidiagonals of the condition's minors
    eliminate  init(I_1 cap I_2 cap I_3) = init(I_1) cap init(I_2) cap init(I_3),
               with each init(I_w) generated by the antidiagonals of the
               essential minors (Knutson-Miller)
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import combinations

AUX = (0, 0)


def _lead(poly: list[dict], n: int) -> dict:
    """Leading monomial, as {(row, col): exp}, of a polynomial in the JSON
    form ``[{"coeff": .., "monomial": [[row, col, exp], ..]}, ..]``."""

    def dense(entry: dict) -> list[int]:
        vec = [0] * (n * n + 1)
        for row, col, exp in entry["monomial"]:
            vec[0 if (row, col) == AUX else (row - 1) * n + (n - col) + 1] += exp
        return vec

    best = max(poly, key=dense)
    return {(row, col): exp for row, col, exp in best["monomial"]}


def _divides(a: dict, b: dict) -> bool:
    return all(b.get(var, 0) >= exp for var, exp in a.items())


def _same_monomial_ideal(gens_a: list[dict], gens_b: list[dict]) -> bool:
    return all(any(_divides(a, b) for a in gens_a) for b in gens_b) and all(
        any(_divides(b, a) for b in gens_b) for a in gens_a
    )


def _antidiagonal(rows, cols) -> frozenset:
    return frozenset(zip(sorted(rows), sorted(cols, reverse=True)))


def _minor_antidiagonals(i: int, j: int, r: int) -> set[frozenset]:
    """Antidiagonal cells of every (r+1)-minor of the northwest i x j block."""
    return {
        _antidiagonal(rows, cols)
        for rows in combinations(range(1, i + 1), r + 1)
        for cols in combinations(range(1, j + 1), r + 1)
    }


def _minimal(squarefree) -> frozenset:
    kept: list[frozenset] = []
    for mono in sorted(set(squarefree), key=len):
        if not any(g <= mono for g in kept):
            kept.append(mono)
    return frozenset(kept)


def schubert_initial_ideal(w: tuple[int, ...]) -> frozenset:
    """Minimal generators (squarefree, as cell sets) of init(I_w): the
    antidiagonals of the minors at the essential boxes of w's Rothe diagram."""
    n = len(w)
    where = {value: row for row, value in enumerate(w, start=1)}
    diagram = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if w[i - 1] > j and where[j] > i
    }
    gens: set[frozenset] = set()
    for i, j in diagram:
        if (i + 1, j) in diagram or (i, j + 1) in diagram:
            continue
        rank = sum(1 for row in range(i) if w[row] <= j)
        gens |= _minor_antidiagonals(i, j, rank)
    return _minimal(gens)


def _intersect(a: frozenset, b: frozenset) -> frozenset:
    return _minimal(x | y for x in a for y in b)


def _perm(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def _check_synth(job: dict, result: dict, text: str) -> tuple[bool, str, dict]:
    basis = json.loads(text)
    n = job["n"]
    for index, gen in enumerate(basis):
        cells: list = []
        for factor in gen["factors"]:
            cells.extend(_antidiagonal(factor["rows"], factor["cols"]))
        expected = {cell: 1 for cell in cells}
        if len(expected) != len(cells) or _lead(gen["poly"], n) != expected:
            return False, f"generator {index}: leading monomial is not its occupied cells", {}
    return True, "", {"generators": len(basis)}


_MEMBERSHIP = re.compile(r"^membership: (\d+) checks, 0 failures$", re.M)


def _check_oracle(job: dict, result: dict, text: str) -> tuple[bool, str, dict]:
    err = result["stderr"]
    ok = (
        _MEMBERSHIP.search(err) is not None
        and "groebner criterion: ok\n" in err
        and "ideal equality vs oracle intersection: ok\n" in err
    )
    generators = text.count("\n")
    return ok, "" if ok else f"verdicts: {err.strip()!r}", {"generators": generators}


def _check_complete(job: dict, result: dict, text: str) -> tuple[bool, str, dict]:
    basis = json.loads(text)
    i, j, r = job["condition"]
    leads = [_lead(poly, job["n"]) for poly in basis]
    minors = [dict.fromkeys(a, 1) for a in _minor_antidiagonals(i, j, r)]
    ok = _same_monomial_ideal(leads, minors)
    detail = "" if ok else "basis leading monomials differ from the minors' antidiagonals"
    return ok, detail, {"basis_size": len(basis)}


def _eliminate_text(result: dict) -> str:
    """The eliminate job's output in the package's own JSON forms."""
    from nwgb.polynomials import monomial_to_json, polynomial_to_json

    meet = [polynomial_to_json(f) for f in result["meet"]]
    init = sorted(monomial_to_json(m) for m in result["init"].minimal_generators)
    return json.dumps({"basis": meet, "init": init}, sort_keys=True)


def _check_eliminate(job: dict, result: dict, text: str) -> tuple[bool, str, dict]:
    data = json.loads(text)
    leads = [_lead(poly, job["n"]) for poly in data["basis"]]
    exps = [exp for mono in data["init"] for _, _, exp in mono]
    exps += [exp for lead in leads for exp in lead.values()]
    if any(exp != 1 for exp in exps):
        return False, "a leading monomial is not squarefree", {}
    reported = frozenset(frozenset((row, col) for row, col, _ in m) for m in data["init"])
    expected = None
    for text_perm in job["perms"]:
        ideal = schubert_initial_ideal(_perm(text_perm))
        expected = ideal if expected is None else _intersect(expected, ideal)
    if reported != _minimal(frozenset(lead) for lead in leads):
        return False, "initial_ideal differs from the leads of the intersection basis", {}
    if reported != expected:
        return False, "init of the intersection differs from the intersection of inits", {}
    return True, "", {"basis_size": len(leads), "init_size": len(reported)}


_CHECKS = {
    "synth": _check_synth,
    "oracle": _check_oracle,
    "complete": _check_complete,
    "eliminate": _check_eliminate,
}


def check(job: dict, result: dict) -> dict:
    """Digest of the job's output bytes and the theorem check's verdict."""
    if result["exit_code"] != 0:
        detail = f"exit code {result['exit_code']}: {result.get('stderr', '')[-300:]}"
        return {"digest": "", "ok": False, "detail": detail, "summary": {}}
    text = _eliminate_text(result) if job["workload"] == "eliminate" else result["stdout"]
    ok, detail, summary = _CHECKS[job["workload"]](job, result, text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"digest": digest, "ok": ok, "detail": detail, "summary": summary}
