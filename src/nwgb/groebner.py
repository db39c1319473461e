"""Exact Groebner engine: division, Buchberger, intersection, initial ideals.

This is the oracle used to check the synthesized bases, so it favors
auditability over speed: plain Buchberger with the coprime-leading-term
criterion, reduced output, and ideal intersection by the textbook
elimination trick with one auxiliary variable.  Everything runs under the
one antidiagonal lex order of :mod:`nwgb.polynomials`, which ranks that
variable first and so is also an elimination order for it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomials import AUX, Monomial, Polynomial, sort_key


@dataclass(frozen=True)
class IdealPresentation:
    """Nonzero generators of an ideal."""

    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if any(g.is_zero() for g in self.generators):
            raise ValueError("generators must be nonzero")


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by any basis leading monomial, and
    f minus the result lies in the ideal the basis generates.  Reducers
    are tried in list order, so the result is deterministic.
    """
    reducers = []
    for g in basis:
        if g.is_zero():
            continue
        coeff, mono = g.leading_term()
        reducers.append((mono, coeff, g))
    work = dict(f.terms)
    remainder: dict[Monomial, Fraction] = {}
    while work:
        mono = min(work, key=sort_key)
        coeff = work[mono]
        for lead_mono, lead_coeff, g in reducers:
            if lead_mono.divides(mono):
                quotient = mono // lead_mono
                factor = coeff / lead_coeff
                for g_mono, g_coeff in g.terms.items():
                    target = g_mono * quotient
                    value = work.get(target, Fraction(0)) - factor * g_coeff
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[mono] = coeff
            del work[mono]
    return Polynomial(remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination of f and g (both made monic first)."""
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = mf.lcm(mg)
    return f * Polynomial({lcm // mf: Fraction(1) / cf}) - g * Polynomial(
        {lcm // mg: Fraction(1) / cg}
    )


def _interreduce(polys: Iterable[Polynomial]) -> list[Polynomial]:
    current = [p.monic() for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        kept: list[Polynomial] = []
        for index, f in enumerate(current):
            others = kept + current[index + 1 :]
            reduced = normal_form(f, others) if others else f
            if reduced.is_zero():
                changed = True
                continue
            reduced = reduced.monic()
            if reduced != f:
                changed = True
            kept.append(reduced)
        current = kept
    return current


def _reduced_basis(basis: list[Polynomial]) -> list[Polynomial]:
    """Minimalize and tail-reduce to the unique reduced Groebner basis,
    sorted by ascending leading monomial."""
    if not basis:
        return []
    # ascending leading monomial; a divisor is never larger than a multiple,
    # so one pass keeps exactly the minimal generators
    ordered = sorted(basis, key=lambda f: sort_key(f.leading_monomial()), reverse=True)
    minimal: list[Polynomial] = []
    for f in ordered:
        lead = f.leading_monomial()
        if any(g.leading_monomial().divides(lead) for g in minimal):
            continue
        minimal.append(f)
    stable = False
    while not stable:
        stable = True
        for index in range(len(minimal)):
            others = minimal[:index] + minimal[index + 1 :]
            reduced = normal_form(minimal[index], others).monic()
            if reduced != minimal[index]:
                minimal[index] = reduced
                stable = False
    minimal.sort(key=lambda f: sort_key(f.leading_monomial()), reverse=True)
    return minimal


def buchberger(generators: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span.

    Pair selection is the normal strategy (lcm degree, then the order);
    pairs whose leading monomials are coprime are skipped.  Zero input
    polynomials are ignored; an empty input yields the empty basis.
    """
    basis = _interreduce(generators)
    if not basis:
        return []
    leads = [f.leading_monomial() for f in basis]
    queue: list[tuple[int, tuple, int, int]] = []

    def push_pairs(k: int):
        for i in range(k):
            lcm = leads[i].lcm(leads[k])
            if lcm.degree() == leads[i].degree() + leads[k].degree():
                continue  # coprime leading terms: S-pair reduces to zero
            heapq.heappush(queue, (lcm.degree(), sort_key(lcm), i, k))

    for k in range(len(basis)):
        push_pairs(k)
    while queue:
        _, _, i, j = heapq.heappop(queue)
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        basis.append(remainder.monic())
        leads.append(remainder.leading_monomial())
        push_pairs(len(basis) - 1)
    return _reduced_basis(basis)


def is_groebner(generators: Sequence[Polynomial]) -> bool:
    """Whether every S-polynomial of the generators reduces to zero against
    them.  Reduces each pair literally, with no shortcut criteria, since
    this is the audit entry point."""
    gens = [g for g in generators if not g.is_zero()]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j])
            if not normal_form(s, gens).is_zero():
                return False
    return True


def intersect(I: IdealPresentation, J: IdealPresentation) -> list[Polynomial]:
    """Generators (in fact a reduced Groebner basis) of the intersection of
    the two ideals.

    Classic elimination: with a fresh variable t ranked above everything,
    the t-free part of a Groebner basis of t*I + (1-t)*J is the
    intersection.  An empty presentation is the zero ideal and absorbs.
    """
    if not I.generators or not J.generators:
        return []
    t = Polynomial.variable(AUX)
    one_minus_t = Polynomial.constant(1) - t
    mixed = [t * f for f in I.generators] + [one_minus_t * g for g in J.generators]
    eliminated = buchberger(mixed)
    return [g for g in eliminated if not g.uses(AUX)]


def intersect_many(ideals: Sequence[IdealPresentation]) -> list[Polynomial]:
    """Left fold of pairwise intersection; a single ideal is normalized to
    its reduced basis."""
    if not ideals:
        raise ValueError("need at least one ideal")
    current = buchberger(ideals[0].generators)
    for nxt in ideals[1:]:
        current = intersect(IdealPresentation(tuple(current)), nxt)
        if not current:
            return []
    return current


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal stored by its minimal generators (an antichain under
    divisibility)."""

    minimal_generators: frozenset[Monomial]

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "MonomialIdeal":
        pool = sorted(set(monomials), key=lambda m: (m.degree(), sort_key(m)))
        minimal: list[Monomial] = []
        for mono in pool:
            if any(kept.divides(mono) for kept in minimal):
                continue
            minimal.append(mono)
        return MonomialIdeal(frozenset(minimal))

    def contains(self, mono: Monomial) -> bool:
        return any(g.divides(mono) for g in self.minimal_generators)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal.from_monomials(
            a.lcm(b) for a in self.minimal_generators for b in other.minimal_generators
        )


def initial_ideal(generators: Sequence[Polynomial]) -> MonomialIdeal:
    """Minimal generators of the leading-term ideal.  The input is completed
    to a Groebner basis first, so any generating set is accepted."""
    basis = buchberger(generators)
    return MonomialIdeal.from_monomials(f.leading_monomial() for f in basis)


def ideals_equal(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    """Whether the two generating sets span the same ideal, decided by
    mutual normal-form membership against each other's Groebner basis."""
    basis_a = buchberger(a)
    basis_b = buchberger(b)
    return all(normal_form(g, basis_a).is_zero() for g in b) and all(
        normal_form(f, basis_b).is_zero() for f in a
    )
