"""Seeded property suites behind the ``verify`` command and the acceptance
tests.

A suite is a stream of checks: it yields one ``(ok, detail)`` pair per
property it checks, and ``run_suite`` counts them into a ``SuiteReport``.
``SUITES`` maps each name to its checks and its default case count; a count
of ``None`` marks an exhaustive suite, which checks a fixed set of cases.
A sampled suite draws its cases from the one ``random.Random(seed)`` that
``run_suite`` hands it, so reports are reproducible byte for byte.

The union checks (membership of every emitted generator in every input
ideal, and the two full-oracle verdicts: the Buchberger criterion and
equality with the intersection) live here once, in ``union_verdicts``,
which both the suites and ``nwgb union --verify`` call.  It runs on the
generators' packed products, the ones the writers read, in their layout:
it completes each input ideal there once, runs membership against those
packed bases before it proves anything, proves on packed leading
monomials, and says when the oracle itself runs.  A ``Polynomial`` or
``Monomial`` is made only then, when the oracle must complete B.
``spec_bases`` and ``_initial_meet`` are the same steps on ``Polynomial``
values, which the suites' init-theorem check and the tests read.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import permutations as _itertools_permutations

from .ideals import (
    RankCondition,
    RankConditionSpec,
    generator_polynomials,
    spec_from_permutation,
)
from .groebner import (
    IdealPresentation,
    MonomialIdeal,
    _complete,
    _minimal_split,
    buchberger,
    ideals_equal,
    intersect_many,
    is_groebner,
    leading_ideal,
    normal_form,
    reduces_to_zero,
)
from .permutations import PartialPermutation
from .polynomials import (
    Antidiagonal,
    Cell,
    Monomial,
    compare,
    MONOMIAL_ONE,
    Polynomial,
    _Layout,
    _Made,
    _PackedProduct,
    _cell,
    determinant,
    polynomial_text,
)
from .union import GeneratorProduct, generator_product, hold, union_basis


@dataclass
class SuiteReport:
    name: str
    cases: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {self.cases} cases, {len(self.failures)} failures [{verdict}]"


def honest_permutations(n: int) -> list[PartialPermutation]:
    return [PartialPermutation(images) for images in _itertools_permutations(range(1, n + 1))]


def spec_bases(specs: Sequence[RankConditionSpec]) -> list[IdealPresentation]:
    """Each spec's ideal, presented by its reduced Groebner basis, in spec
    order, on ``Polynomial`` values: the bases a caller of
    ``membership_failures`` completes once for many calls, and the
    reference for those that ``union_verdicts`` completes on packed ints."""
    return [IdealPresentation(tuple(buchberger(generator_polynomials(s)))) for s in specs]


def membership_failures(
    basis: Sequence[GeneratorProduct],
    specs: Sequence[RankConditionSpec],
    bases: Sequence[IdealPresentation],
) -> list[str]:
    """One message per (spec, generator) pair where the generator's
    product does not reduce to zero against the spec's reduced basis
    (``spec_bases``), which a caller completes once for many calls.

    Each basis is packed into each product's layout, and each product is
    divided there on its packed ints, in the loop that ``union_verdicts``
    feeds with the bases it completes in that layout (``_divided``)."""
    products, _, zero = _divided(basis, specs, [b.generators for b in bases], _packed)
    return _failures(specs, products, zero)


def _packed(generators: Sequence[Polynomial], layout: _Layout) -> list[dict]:
    return [layout.pack_poly(g) for g in generators]


def _completed(generators: Sequence[Polynomial], layout: _Layout) -> list[dict]:
    """The reduced Groebner basis of the ideal of ``generators``, packed in
    ``layout`` and completed there (``_complete``): ``buchberger`` without
    the round trip through ``Polynomial`` values."""
    return _complete(layout, _packed(generators, layout))


def _divided(
    basis: Sequence[GeneratorProduct],
    specs: Sequence[RankConditionSpec],
    generators: Sequence[Sequence[Polynomial]],
    packed: Callable[[Sequence[Polynomial], _Layout], list[dict]],
) -> tuple[list[_PackedProduct], dict[_Layout, list[list[dict]]], list[list[bool]]]:
    """(products, bases, zero) for the products of ``basis``: ``bases`` maps
    each of their layouts to each spec's reduced basis in it, made once as
    ``packed(generators[k], layout)``, and ``zero[k][i]`` says whether
    product i reduces to zero against spec k's (``reduces_to_zero``).  An
    empty basis has no layout of its own, so its one layout is that of the
    specs' ``generators``.

    A layout must hold the variables of the specs, which ``generators``
    use, as the layout of ``union_basis(specs)`` does; a layout that lacks
    one raises ValueError, naming the spec and the cell, before any basis
    is made or product divided.  The products are held (``hold``) at the
    width the engine starts at; if making a basis or a division outgrows
    it, every product is formed again at double the width, and the bases
    are made and the products divided anew (``_Layout.widening``)."""
    codes = [{c for g in gens for m in g.terms for c in m.key[:-1]} for gens in generators]

    def divide(bits: int):
        products = [g.packed for g in hold(basis, bits)]
        layouts = list(dict.fromkeys(f.layout for f in products))
        if not layouts:
            layouts = [_Layout([g for gens in generators for g in gens], bits)]
        for layout in layouts:
            for spec, used in zip(specs, codes):
                if not used.issubset(layout.unit):
                    row, col = _cell(min(used.difference(layout.unit)))
                    raise ValueError(
                        f"the ideal of {spec.label or 'spec'} uses m[{row},{col}],"
                        " which a generator's layout lacks"
                    )
        made = [_Made(partial(packed, gens)) for gens in generators]
        zero = [reduces_to_zero(products, bases) for bases in made]
        # every layout's bases, an empty basis's one layout included
        return products, {layout: [bases[layout] for bases in made] for layout in layouts}, zero

    return _Layout.widening(divide)


def _failures(
    specs: Sequence[RankConditionSpec], products: list[_PackedProduct], zero: list[list[bool]]
) -> list[str]:
    return [
        f"{polynomial_text(f)} is not in the ideal of {spec.label or 'spec'}"
        for spec, spec_zero in zip(specs, zero)
        for f, member in zip(products, spec_zero)
        if not member
    ]


def union_verdicts(
    basis: Sequence[GeneratorProduct],
    specs: Sequence[RankConditionSpec],
    depth: str,
) -> tuple[list[str], bool | None, bool | None]:
    """(failures, criterion, equality) for the union basis B of ``specs``, a
    list of ``union_basis`` handles, at the ``--verify`` depth "membership"
    or "full-oracle".  ``failures`` (as ``membership_failures`` words them)
    reduces B against each spec's ideal I_k.  At "membership" depth both
    verdicts are None; else they say whether B is a Groebner basis, and
    whether it generates the intersection of the I_k.

    The whole check runs on packed ints, in the layout of the held products
    (``hold``; a caller that held them already, to write them, passes them
    on).  Each spec's Fulton generators are packed into that layout and
    completed there once (``_complete``), and every product is divided by
    those packed reduced bases (``_divided``).

    Both verdicts are true, and nothing else is completed, when B lies in
    every I_k and every minimal generator of the monomial meet of the
    in(I_k) is divisible by some leading monomial of B.  For then, with <=
    for containment and & for intersection,

        <LT(B)> <= in(<B>) <= in(I_1 & ... & I_k) <= in(I_1) & ... & in(I_k):

    the first by definition, the second because B lies in the
    intersection, and the last because an element of the intersection is
    an element of each I_k.  The divisibility closes the chain, so all four
    ideals are equal.  in(<B>) = <LT(B)> says that B is a Groebner basis.
    <B> lies in the intersection and has the same initial ideal, so the two
    are equal: an element of the intersection reduces against B to a
    remainder in the intersection with no term in its initial ideal, which
    is zero.  The proof does not use the init theorem
    (in(I & J) = in(I) & in(J)), so it is exact.  Each leading monomial of
    B is read off its product, the largest packed int, and not off the
    cells the construction chose, so the proof checks the construction.
    The meet and the divisibility are read on packed ints too
    (``_packed_meet``).

    Otherwise, and whenever B's handles come from more than one packing,
    B and the packed spec bases are unpacked into ``Polynomial`` values;
    a reduced basis is unique, so the spec bases are not completed again.
    The criterion is ``is_groebner(B)``.  Equality is false when B fails
    membership, since an element outside some I_k is outside the
    intersection, and else it is ``ideals_equal(B, intersect_many(...))``
    of the spec bases, which reads the intersection's reduced basis from
    the engine's record and completes B.
    """
    if depth not in ("membership", "full-oracle"):
        raise ValueError(f"unknown verify depth {reprlib.repr(depth)}")
    generators = [generator_polynomials(spec) for spec in specs]
    products, bases, zero = _divided(basis, specs, generators, _completed)
    failures = _failures(specs, products, zero)
    if depth == "membership":
        return failures, None, None
    (layout, packed), *others = bases.items()
    if not failures and not others:
        leads = [max(f.terms) for f in products]
        guard = layout.guard
        # the guard-bit test of _Layout.divides, inlined
        if all(
            any(((m | guard) - lead) & guard == guard for lead in leads)
            for m in _packed_meet(layout, packed)
        ):
            return failures, True, True
    polys = [f.layout.polynomial(f.terms) for f in products]
    spec_ideals = [IdealPresentation(layout.polynomial(g) for g in b) for b in packed]
    return failures, is_groebner(polys), not failures and ideals_equal(
        polys, intersect_many(spec_ideals)
    )


def _packed_meet(layout: _Layout, bases: Sequence[Sequence[dict]]) -> list[int]:
    """The minimal generators of in(I_1) & ... & in(I_k), packed in
    ``layout``, where ``bases`` are the reduced bases of the I_k packed
    there: the minimal lcms of one leading monomial from each (Miller and
    Sturmfels, GTM 227), in ascending order.  The leads of a reduced basis
    are the minimal generators of its initial ideal."""
    meet, *rest = [[max(g) for g in basis] for basis in bases]
    for leads in rest:
        lcms = list({layout.lcm(a, b) for a in meet for b in leads})
        meet = _minimal_split(lcms, lcms, layout)[0]
    return meet


def _initial_meet(bases: Sequence[IdealPresentation]) -> MonomialIdeal:
    """in(I_1) & ... & in(I_k), the meet of the initial ideals of the ideals
    whose Groebner bases are ``bases``, on ``Monomial`` values: the
    reference that the init-theorem check of ``_union_pair_checks`` (the
    ``s4-sampled`` suite) compares the intersection's initial ideal with,
    and that the tests check ``_packed_meet`` against."""
    return reduce(MonomialIdeal.intersect, (leading_ideal(b.generators) for b in bases))


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
            leading_ideal(intersect_many(bases)) == _initial_meet(bases),
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
