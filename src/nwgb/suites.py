"""Seeded property suites behind the ``verify`` command and the acceptance
tests.

A suite is a stream of checks: it yields one ``(ok, detail)`` pair per
property it checks, and ``run_suite`` counts them into a
``verify.SuiteReport``.  ``SUITES`` maps each name to its checks and its
default case count; a count of ``None`` marks an exhaustive suite, which
checks a fixed set of cases.  A sampled suite draws its cases from the one
``random.Random(seed)`` that ``run_suite`` hands it, so reports are
reproducible byte for byte.

The union suites check each basis through ``verify.union_verdicts``, the
one check ``nwgb union --verify`` runs too, and the init-theorem check
compares with ``verify.initial_meet``.  Only ``nwgb verify`` runs a suite,
so ``nwgb.cli`` imports this module inside that command, and inside the
parser that writes its help, which names the suites; the other commands
never compile it.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache, partial

from .ideals import (
    RankCondition,
    RankConditionSpec,
    generator_polynomials,
    spec_from_permutation,
)
from .groebner import intersect_many, is_groebner, leading_ideal, normal_form
from .permutations import PartialPermutation
from .polynomials import Antidiagonal, Cell, Monomial, compare, MONOMIAL_ONE, determinant
from .union import generator_product, union_basis
from .verify import SuiteReport, honest_permutations, initial_meet, spec_bases, union_verdicts


@lru_cache(maxsize=None)
def _condition_basis(row: int, col: int, max_rank: int, ambient: int):
    """Reduced basis of the single-condition determinantal ideal (cached,
    the gluing suite revisits the same few conditions many times)."""
    spec = RankConditionSpec(ambient, (RankCondition(row, col, max_rank),))
    return spec_bases([spec])[0].generators


def _random_monomial(rng: random.Random, n: int) -> Monomial:
    """Up to 4 variables of the n x n matrix, each to a power from 1 to 3."""
    count = rng.randint(0, 4)
    picks = [
        (Cell(rng.randint(1, n), rng.randint(1, n)), rng.randint(1, 3))
        for _ in range(count)
    ]
    return Monomial.from_cells(cell for cell, exp in picks for _ in range(exp))


def _random_antidiagonal(rng: random.Random, n: int, max_len: int | None = None) -> Antidiagonal:
    length = rng.randint(1, max_len or n)
    rows = sorted(rng.sample(range(1, n + 1), length))
    cols = sorted(rng.sample(range(1, n + 1), length), reverse=True)
    return Antidiagonal(tuple(Cell(r, c) for r, c in zip(rows, cols)))


def suite_order_axioms(rng: random.Random, cases: int):
    """Totality, antisymmetry, transitivity samples, multiplicativity and
    minimality of 1 for the monomial order."""
    for index in range(cases):
        a = _random_monomial(rng, 5)
        b = _random_monomial(rng, 5)
        c = _random_monomial(rng, 5)
        p = _random_monomial(rng, 5)
        ab = compare(a, b)
        ok = (
            ab == -compare(b, a)
            and compare(a, a) == 0
            and (ab != 0 or a == b)
            and compare(MONOMIAL_ONE, a) <= 0
            and compare(a * p, b * p) == ab
        )
        if ok and compare(a, b) <= 0 and compare(b, c) <= 0:
            ok = compare(a, c) <= 0
        yield ok, f"case {index}: order axioms failed on {a}, {b}, {c}"


def suite_minor_leading_terms(rng: random.Random, cases: int):
    """The leading term of every sampled minor is its antidiagonal term,
    with the sign of the reversal permutation."""
    for index in range(cases):
        n = rng.randint(1, 5)
        size = rng.randint(1, n)
        rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
        cols = tuple(sorted(rng.sample(range(1, n + 1), size)))
        coeff, mono = determinant(rows, cols).leading_term()
        expected = Monomial.from_cells(
            Cell(r, c) for r, c in zip(rows, reversed(cols))
        )
        expected_sign = -1 if (size * (size - 1) // 2) % 2 else 1
        yield (
            mono == expected and coeff == expected_sign,
            f"case {index}: minor rows={rows} cols={cols} led with {coeff}*{mono}",
        )


def suite_gluing(rng: random.Random, cases: int):
    """Overlapping antidiagonals glue: when A union B is an antidiagonal X
    and A, B overlap, det(X) lies in each single-condition ideal built on
    the region northwest of A (resp. B)."""
    ambient = 5
    for index in range(cases):
        x = _random_antidiagonal(rng, ambient)
        while len(x) < 2:
            x = _random_antidiagonal(rng, ambient)
        cells = list(x.cells)
        a_cells = rng.sample(cells, rng.randint(1, len(cells)))
        rest = [c for c in cells if c not in a_cells]
        shared = rng.sample(a_cells, rng.randint(1, len(a_cells)))
        b_cells = rest + shared
        det_x = x.determinant()
        ok = True
        detail = ""
        for part in (a_cells, b_cells):
            chain = Antidiagonal(tuple(sorted(part)))
            corner_row = max(c.row for c in chain)
            corner_col = max(c.col for c in chain)
            basis = _condition_basis(corner_row, corner_col, len(chain) - 1, ambient)
            if not normal_form(det_x, basis).is_zero():
                ok = False
                detail = f"case {index}: det({list(x.cells)}) not in ideal of {list(chain.cells)}"
                break
        yield ok, detail or f"case {index}"


def suite_generator_init(rng: random.Random, cases: int):
    """Structural invariants of synthesized generators: factor cells
    partition the occupied cells, the leading monomial is the squarefree
    product of the occupied cells, and for each input antidiagonal the
    first factor touching it is at least as long (it is extracted as a
    longest chain of a component containing the whole input)."""
    for index in range(cases):
        count = rng.randint(2, 3)
        antidiags = [_random_antidiagonal(rng, 5, max_len=4) for _ in range(count)]
        built = generator_product(antidiags)
        occupied = set()
        for a in antidiags:
            occupied.update(a.cells)
        flat = [cell for factor in built.factors for cell in factor.cells]
        partition_ok = len(flat) == len(occupied) and set(flat) == occupied
        product = built.packed
        mono = product.layout.unpack(max(product.terms))
        init_ok = mono == Monomial.from_cells(occupied) and mono.is_squarefree()
        length_ok = True
        for a in antidiags:
            first = next(f for f in built.factors if set(f.cells) & set(a.cells))
            if len(first) < len(a):
                length_ok = False
        yield (
            partition_ok and init_ok and length_ok,
            f"case {index}: inputs {[list(a.cells) for a in antidiags]} "
            f"partition={partition_ok} init={init_ok} length={length_ok}",
        )


def _union_pair_checks(
    left: PartialPermutation,
    right: PartialPermutation,
    check_init_theorem: bool = False,
):
    specs = [spec_from_permutation(left), spec_from_permutation(right)]
    basis = union_basis(specs)
    label = f"{left.one_line()} | {right.one_line()}"
    _, groebner_ok, equal_ok = union_verdicts(basis, specs, "full-oracle")
    yield groebner_ok, f"{label}: basis fails Buchberger criterion"
    yield equal_ok, f"{label}: basis ideal differs from oracle intersection"
    if check_init_theorem:
        # the independent check of the init theorem, so by elimination
        bases = spec_bases(specs)
        yield (
            leading_ideal(intersect_many(bases)) == initial_meet(bases),
            f"{label}: init of intersection differs from intersection of inits",
        )


def suite_s3_exhaustive():
    """All 36 ordered pairs of honest permutations in S3."""
    perms = honest_permutations(3)
    for left in perms:
        for right in perms:
            yield from _union_pair_checks(left, right)


# Pairs the reports in the source material work through; always included.
_REQUIRED_S4_PAIRS = (((1, 4, 2, 3), (1, 3, 4, 2)), ((2, 1, 4, 3), (1, 4, 3, 2)))


def sampled_s4_pairs(
    rng: random.Random, count: int
) -> list[tuple[PartialPermutation, PartialPermutation]]:
    perms = honest_permutations(4)
    pool = [(a, b) for a in perms for b in perms]
    chosen = [
        (PartialPermutation(l), PartialPermutation(r)) for l, r in _REQUIRED_S4_PAIRS
    ]
    seen = {(l.images, r.images) for l, r in chosen}
    while len(chosen) < count and len(seen) < len(pool):
        left, right = rng.choice(pool)
        key = (left.images, right.images)
        if key in seen:
            continue
        seen.add(key)
        chosen.append((left, right))
    return chosen


def suite_s4_sampled(rng: random.Random, cases: int):
    """Seeded sample of ordered S4 pairs, plus the two fixed fixtures; also
    checks the initial-ideal intersection theorem on each pair."""
    for left, right in sampled_s4_pairs(rng, cases):
        yield from _union_pair_checks(left, right, check_init_theorem=True)


def _embed(p: PartialPermutation, n: int) -> PartialPermutation:
    """View a permutation inside a larger symmetric group by appending fixed
    points.  The Rothe diagram, essential set and Fulton generators are
    unchanged; only the ambient matrix grows."""
    extra = tuple(range(p.n + 1, n + 1))
    return PartialPermutation(p.images + extra)


def suite_triple_intersections(rng: random.Random, cases: int):
    """Seeded triples drawn from S3 and S4 together (S3 elements are viewed
    inside S4 so the ideals share one ambient matrix): every synthesized
    generator reduces to zero in every input ideal, and the basis matches
    the iterated oracle intersection."""
    pool = [_embed(p, 4) for p in honest_permutations(3)] + honest_permutations(4)
    for index in range(cases):
        triple = [rng.choice(pool) for _ in range(3)]
        specs = [spec_from_permutation(p) for p in triple]
        label = " | ".join(p.one_line() for p in triple)
        basis = union_basis(specs)
        failures, _, equal_ok = union_verdicts(basis, specs, "full-oracle")
        yield not failures, f"{label}: membership failure"
        yield equal_ok, f"{label}: basis differs from iterated intersection"


def _fulton_groebner_checks(*sizes: int):
    """Knutson-Miller (Annals 2005): the Fulton generators of every
    permutation of each size pass the Buchberger criterion under the
    antidiagonal order."""
    for n in sizes:
        for p in honest_permutations(n):
            gens = generator_polynomials(spec_from_permutation(p))
            yield (
                is_groebner(gens),
                f"{p.one_line()}: Fulton generators are not a Groebner basis",
            )


# name -> (its checks, its default case count); a count of None marks a
# suite that checks a fixed set of cases and takes no seed or case count
SUITES = {
    "order-axioms": (suite_order_axioms, 200),
    "minor-init": (suite_minor_leading_terms, 200),
    "gluing": (suite_gluing, 200),
    "generator-init": (suite_generator_init, 200),
    "s3-exhaustive": (suite_s3_exhaustive, None),
    "s4-sampled": (suite_s4_sampled, 25),
    "triples": (suite_triple_intersections, 10),
    "km-regression": (partial(_fulton_groebner_checks, 3, 4), None),
    "km-s5-s6": (partial(_fulton_groebner_checks, 5, 6), None),
}


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> SuiteReport:
    """Run one suite and count its checks; ``cases`` defaults to the suite's
    count in ``SUITES``.  The count is of checks: 3 per ``s4-sampled`` pair,
    which always adds its 2 required pairs (so ``cases=1`` reports 6), and
    2 per ``triples`` triple."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {reprlib.repr(name)}; choices: {', '.join(sorted(SUITES))}"
        )
    if seed < 0:
        # random.Random seeds from abs(seed), so -7 would rerun seed 7
        raise ValueError(f"seed must be at least 0, got {reprlib.repr(seed)}")
    checks, default = SUITES[name]
    if default is None:
        if cases is not None:
            raise ValueError(f"suite {name} runs a fixed set of cases and takes no --cases")
        outcomes = list(checks())
    elif cases is not None and cases < 1:
        # a suite that checks nothing would report a vacuous pass
        raise ValueError(f"cases must be at least 1, got {reprlib.repr(cases)}")
    else:
        import random  # only the sampled suites load it

        outcomes = list(checks(random.Random(seed), default if cases is None else cases))
    return SuiteReport(name, len(outcomes), [detail for ok, detail in outcomes if not ok])
