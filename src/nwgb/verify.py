"""The union check behind ``nwgb union --verify`` and the union suites of
``nwgb.suites``, with the ``Polynomial`` references it is tested against.

The union checks (membership of every emitted generator in every input
ideal, and the two full-oracle verdicts: the Buchberger criterion and
equality with the intersection) live here once, in ``union_verdicts``,
which both the suites and ``nwgb union --verify`` call.  It runs on the
generators' packed products, the ones the writers read, in their layout:
it expands each input ideal's minors there and completes them once, runs
membership against those packed bases before it proves anything, proves
on packed leading monomials, and says when the oracle itself runs.  A
``Polynomial`` or ``Monomial`` is made only then, when the oracle must
complete B.
``spec_bases`` and ``initial_meet`` are the same steps on ``Polynomial``
values, which the suites' init-theorem check and the tests read;
``honest_permutations`` lists the permutations the suites and the tests
sweep.  ``SuiteReport`` is what a suite's run counts into.

``nwgb.cli`` imports this module at start-up, since ``nwgb union
--verify`` calls ``union_verdicts``; the suites themselves are in
``nwgb.suites``, which only ``nwgb verify`` loads.
"""

from __future__ import annotations

import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import permutations as _itertools_permutations

from .ideals import RankConditionSpec, generator_minors, generator_polynomials
from .groebner import (
    IdealPresentation,
    MonomialIdeal,
    _minimal_split,
    buchberger,
    ideals_equal,
    intersect_many,
    is_groebner,
    leading_ideal,
    minor_basis,
    reduces_to_zero,
)
from .permutations import PartialPermutation
from .polynomials import _Layout, _PackedProduct, _cell, _code, polynomial_text
from .union import GeneratorProduct, hold


# a dataclass on purpose: ``dataclasses`` imports ``inspect``, so the CLI's
# import loads it, and bench/child.py's eliminate job, which imports
# ``inspect`` inside its timed call, finds it loaded (ROADMAP items 3, 4)
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
    order, on ``Polynomial`` values: the reference for the bases that
    ``union_verdicts`` completes on packed ints."""
    return [IdealPresentation(tuple(buchberger(generator_polynomials(s)))) for s in specs]


def _divided(
    basis: Sequence[GeneratorProduct],
    specs: Sequence[RankConditionSpec],
    minors: Sequence[Sequence[tuple]],
) -> tuple[list[_PackedProduct], _Layout, list[list[dict]], list[list[bool]]]:
    """(products, layout, bases, zero) for the products of ``basis``, held
    in one layout (``hold``): ``bases[k]`` is spec k's reduced basis, its
    ``minors[k]`` (``generator_minors``) completed once in that layout
    (``minor_basis``), and ``zero[k][i]`` says whether product i reduces
    to zero against it (``reduces_to_zero``).  An empty basis has no
    layout of its own, so its layout is that of the variables the specs
    use.

    The layout must hold every variable of every spec's minors, as the
    layout of ``union_basis(specs)`` does; a layout that lacks one raises
    ValueError, naming the spec and the cell, before any basis is completed
    or product divided.  The products are held at the width the engine
    starts at; if a completion or a division outgrows it, every product is
    formed again at double the width, and the bases are completed and the
    products divided anew (``_Layout.widening``)."""
    used = [{_code((r, c)) for rows, cols in m for r in rows for c in cols} for m in minors]

    def divide(bits: int):
        products = [g.packed for g in hold(basis, bits)]
        if products:
            layout = products[0].layout
        else:
            layout = _Layout((), bits, map(_cell, set().union(*used)))
        for spec, codes in zip(specs, used):
            if not codes.issubset(layout.unit):
                row, col = _cell(min(codes.difference(layout.unit)))
                raise ValueError(
                    f"the ideal of {spec.label or 'spec'} uses m[{row},{col}],"
                    " which a generator's layout lacks"
                )
        bases = [minor_basis(m, layout) for m in minors]
        return products, layout, bases, [reduces_to_zero(products, b) for b in bases]

    return _Layout.widening(divide)


def union_verdicts(
    basis: Sequence[GeneratorProduct],
    specs: Sequence[RankConditionSpec],
    depth: str,
) -> tuple[list[str], bool | None, bool | None]:
    """(failures, criterion, equality) for the union basis B of ``specs``, a
    list of ``union_basis`` handles, at the ``--verify`` depth "membership"
    or "full-oracle".  ``failures`` has one message per generator of B and
    spec whose ideal I_k the generator's product does not reduce into, spec
    by spec.  At "membership" depth both verdicts are None; else they say
    whether B is a Groebner basis, and whether it generates the
    intersection of the I_k.  No spec raises ValueError, as ``union_basis``
    does, before any work.

    The whole check runs on packed ints, in the one layout of the held
    products (``hold``; a caller that held them already, to write them,
    passes them on).  Each spec's distinct minors (``generator_minors``)
    are expanded straight into that layout (``_Layout.minor``) and
    completed there once (``minor_basis``), and every product is divided
    by those packed reduced bases (``_divided``); the layout must hold the
    minors' cells.

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

    Otherwise B and the packed spec bases are unpacked into ``Polynomial``
    values; a reduced basis is unique, so the spec bases are not completed
    again.  The criterion is ``is_groebner(B)``.  Equality is false when B
    fails membership, since an element outside some I_k is outside the
    intersection, and else it is ``ideals_equal(B, intersect_many(...))``
    of the spec bases, which reads the intersection's reduced basis from
    the engine's record and completes B.
    """
    if depth not in ("membership", "full-oracle"):
        raise ValueError(f"unknown verify depth {reprlib.repr(depth)}")
    if not specs:
        raise ValueError("need at least one spec")
    products, layout, bases, zero = _divided(basis, specs, [generator_minors(s) for s in specs])
    failures = [
        f"{polynomial_text(f)} is not in the ideal of {spec.label or 'spec'}"
        for spec, spec_zero in zip(specs, zero)
        for f, member in zip(products, spec_zero)
        if not member
    ]
    if depth == "membership":
        return failures, None, None
    if not failures:
        leads = [max(f.terms) for f in products]
        guard = layout.guard
        # the guard-bit test of _Layout.divides, inlined
        if all(
            any(((m | guard) - lead) & guard == guard for lead in leads)
            for m in _packed_meet(layout, bases)
        ):
            return failures, True, True
    polys = [layout.polynomial(f.terms) for f in products]
    spec_ideals = [IdealPresentation(layout.polynomial(g) for g in b) for b in bases]
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


def initial_meet(bases: Sequence[IdealPresentation]) -> MonomialIdeal:
    """in(I_1) & ... & in(I_k), the meet of the initial ideals of the ideals
    whose Groebner bases are ``bases``, on ``Monomial`` values: the
    reference that the init-theorem check of the ``s4-sampled`` suite
    (``suites._union_pair_checks``) compares the intersection's initial
    ideal with, and that the tests check ``_packed_meet`` against."""
    return reduce(MonomialIdeal.intersect, (leading_ideal(b.generators) for b in bases))
