"""Exact Groebner engine: division, Buchberger, intersection, initial ideals.

This is the oracle used to check the synthesized bases.  ``buchberger``
and ``is_groebner`` share one S-pair queue (``_unsettled_pairs``) that
takes pairs in the normal strategy and skips the ones two theorems settle
without a reduction.  A set G is a Groebner basis exactly when every
S(g_i, g_j) is a sum of multiples a*g_l that all lead below lcm(i, j)
(Buchberger's criterion in lcm form), and a reduction to zero gives such
a sum.  So does:

- the product criterion (Buchberger 1979): the leading monomials of g_i
  and g_j are coprime;
- the chain criterion (Buchberger 1979; Gebauer and Moeller, J. Symb.
  Comp. 1988): the leading monomial of a third element g_k divides
  lcm(i, j), and the pairs (i, k) and (j, k) already have such sums;
  S(g_i, g_j) is a monomial combination of their S-polynomials.

The queue applies the chain criterion only through pairs it has already
settled, so skipping pairs leaves every verdict and every reduced basis
unchanged.  Output is reduced, and ideal intersection uses the textbook
elimination trick with one auxiliary variable.  Everything runs under the
one antidiagonal lex order of :mod:`nwgb.polynomials`, which ranks that
variable first and so is also an elimination order for it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .polynomials import AUX, Cell, Monomial, Polynomial, sort_key


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


def _unsettled_pairs(leads: list[Monomial]) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i < j, of the S-pairs of ``leads`` that the
    product and chain criteria leave to be reduced, in the normal strategy
    (lcm degree, then the order).

    The caller may append leading monomials to ``leads`` between steps;
    their pairs join the queue before the next one is chosen.  A pair
    counts as settled once it is yielded, so the caller must reduce it to
    zero, or add its remainder to the basis, before asking for the next.
    The chain criterion only uses settled pairs, never queued ones: two
    queued pairs with equal lcm would otherwise each excuse the other.
    """
    bit: dict[Cell, int] = {}  # variable -> its bit in a support mask
    masks: list[int] = []  # support of each leading monomial
    settled: list[int] = []  # settled[i]: bit k set when the pair {i, k} is settled
    queue: list[tuple[int, tuple, int, int, int, Monomial]] = []
    while True:
        for k in range(len(masks), len(leads)):
            lead = leads[k]
            mask = 0
            for cell, _ in lead.exps:
                mask |= 1 << bit.setdefault(cell, len(bit))
            coprime = 0
            for i in range(k):
                if masks[i] & mask:
                    lcm = leads[i].lcm(lead)
                    heapq.heappush(queue, (lcm.degree(), sort_key(lcm), i, k, masks[i] | mask, lcm))
                else:  # product criterion
                    coprime |= 1 << i
                    settled[i] |= 1 << k
            masks.append(mask)
            settled.append(coprime)
        if not queue:
            return
        _, _, i, j, lcm_mask, lcm = heapq.heappop(queue)
        chain = settled[i] & settled[j]  # never holds i or j
        settled[i] |= 1 << j
        settled[j] |= 1 << i
        while chain:
            low = chain & -chain
            chain ^= low
            k = low.bit_length() - 1
            if not masks[k] & ~lcm_mask and leads[k].divides(lcm):
                break  # chain criterion
        else:
            yield i, j


def buchberger(generators: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span.

    Reduces the S-pairs that ``_unsettled_pairs`` leaves, in the normal
    strategy, against the growing basis.  Skipped pairs change which
    intermediate elements appear, not the result: the reduced basis of an
    ideal is unique.  Zero input polynomials are ignored; an empty input
    yields the empty basis.
    """
    basis = _interreduce(generators)
    leads = [f.leading_monomial() for f in basis]
    for i, j in _unsettled_pairs(leads):
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not remainder.is_zero():
            basis.append(remainder.monic())
            leads.append(remainder.leading_monomial())
    return _reduced_basis(basis)


def is_groebner(generators: Sequence[Polynomial]) -> bool:
    """Whether the generators form a Groebner basis: every S-pair that the
    product and chain criteria do not settle reduces to zero against them.
    The verdict is the same as reducing every pair (see the module
    docstring)."""
    gens = [g for g in generators if not g.is_zero()]
    for i, j in _unsettled_pairs([g.leading_monomial() for g in gens]):
        if not normal_form(s_polynomial(gens[i], gens[j]), gens).is_zero():
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
