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
unchanged.  Division reads each basis's leading terms once, into one
reducer list that every division by that basis shares (``buchberger``
appends to it as its basis grows, and ``_interreduce`` as it keeps each
element).  ``is_groebner`` runs the queue only on
the minimal-lead subset of its input and reduces the other elements
against that subset, and ``generates`` compares a generating set with a
known reduced basis without completing it when its minimal-lead subset
already interreduces to that basis; both answers are exact (see their
docstrings).  Output is reduced, in one interreduction pass, and ideal
intersection uses the textbook elimination trick with one auxiliary
variable, folded by ``intersect_many``.
Everything runs under the one antidiagonal lex order of
:mod:`nwgb.polynomials`, which ranks that variable first and so is also an
elimination order for it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .polynomials import AUX, Monomial, Polynomial


@dataclass(frozen=True)
class IdealPresentation:
    """Nonzero generators of an ideal."""

    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if any(g.is_zero() for g in self.generators):
            raise ValueError("generators must be nonzero")


# one reducer per nonzero divisor g: (lead mask, lead monomial, lead
# coefficient, that coefficient when it is 1 or -1 and else 0, g)
Reducer = tuple[int, Monomial, int | Fraction, int | Fraction, Polynomial]


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by any basis leading monomial, and
    f minus the result lies in the ideal the basis generates.  The largest
    pending term is taken from a heap of monomial keys: a monomial is
    pushed when it enters the pending terms, and an entry whose term has
    since cancelled is skipped when popped.  A processed term never comes
    back, because every term a division step adds is smaller than it.
    Reducers are tried in list order, after a support-mask test, so the
    result is deterministic and is the same remainder as scanning for the
    largest term at each step, for any basis, Groebner or not.

    A reducer that leads with 1 or -1 (every element of a ``buchberger``
    basis, every union generator) scales by the pending coefficient or its
    negative, so integral input stays on ints; any other lead divides, as
    an exact ``Fraction``.  ``normal_forms`` divides many polynomials by
    one basis.  The engine itself (``buchberger``, ``_interreduce``,
    ``is_groebner``, ``generates``) does not call this function: it
    divides through ``_divide``, with reducer lists it builds once and
    extends.
    """
    return _divide(f, _reducers(basis))


def normal_forms(polys: Iterable[Polynomial], basis: Sequence[Polynomial]) -> list[Polynomial]:
    """``normal_form(f, basis)`` of each f, in order, with the basis's
    reducers (its leading terms and support masks) read once."""
    reducers = _reducers(basis)
    return [_divide(f, reducers) for f in polys]


def _reducer(g: Polynomial) -> Reducer:
    coeff, mono = g.leading_term()
    unit = coeff if coeff in (1, -1) else 0  # c / unit == c * unit
    return mono.mask, mono, coeff, unit, g


def _reducers(basis: Iterable[Polynomial]) -> list[Reducer]:
    return [_reducer(g) for g in basis if not g.is_zero()]


def _divide(f: Polynomial, reducers: Sequence[Reducer]) -> Polynomial:
    """The division loop of ``normal_form``, over a reducer list that many
    divisions by one basis share."""
    work = dict(f.terms)
    heap = [(mono.key, mono) for mono in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, int | Fraction] = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue  # cancelled after it was pushed
        absent = ~mono.mask
        for lead_mask, lead_mono, lead_coeff, unit, g in reducers:
            if lead_mask & absent or not lead_mono.divides(mono):
                continue
            quotient = mono // lead_mono
            factor = coeff * unit if unit else Fraction(coeff, lead_coeff)
            for g_mono, g_coeff in g.terms.items():
                if g_mono is lead_mono:
                    continue  # cancels mono itself
                target = g_mono * quotient
                value = work.get(target)
                if value is None:
                    work[target] = -factor * g_coeff
                    heapq.heappush(heap, (target.key, target))
                else:
                    value -= factor * g_coeff
                    if value:
                        work[target] = value
                    else:
                        del work[target]
            break
        else:
            remainder[mono] = coeff
    return Polynomial(remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination (lcm/mf)*f/cf - (lcm/mg)*g/cg, where
    cf*mf and cg*mg are the leading terms of f and g.

    Written straight into one term dict: each term's monomial is shifted
    by lcm/mf (or lcm/mg), the two leading terms, which cancel exactly,
    are skipped, and a coefficient that cancels to zero is dropped.  A lead
    of 1 or -1 scales by a sign; any other divides, as an exact
    ``Fraction``.
    """
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = mf.lcm(mg)
    terms: dict[Monomial, int | Fraction] = {}
    for poly, lead_mono, lead_coeff, sign in ((f, mf, cf, 1), (g, mg, cg, -1)):
        shift = lcm // lead_mono
        # sign * c / lead == c * scale when the lead is a unit
        scale = sign * lead_coeff if lead_coeff in (1, -1) else 0
        for mono, coeff in poly.terms.items():
            if mono is lead_mono:
                continue
            target = mono * shift
            value = coeff * scale if scale else Fraction(sign * coeff, lead_coeff)
            terms[target] = terms.get(target, 0) + value
    return Polynomial(terms)  # drops what cancelled


def _interreduce(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """Reduce each monic polynomial once against the ones kept and the ones
    not yet visited, dropping zeros.  When no leading monomial divides
    another, no lead moves, so this is the reduced basis, in input order.
    The reducers of the inputs are read once, and each kept element's is
    added as it is kept."""
    current = [p.monic() for p in polys if not p.is_zero()]
    pending = _reducers(current)
    kept: list[Polynomial] = []
    kept_reducers: list[Reducer] = []
    for index, f in enumerate(current):
        others = kept_reducers + pending[index + 1 :]
        reduced = _divide(f, others) if others else f
        if not reduced.is_zero():
            g = reduced.monic()
            kept.append(g)
            kept_reducers.append(_reducer(g))
    return kept


def _minimal_split(basis: Sequence[Polynomial]) -> tuple[list[Polynomial], list[Polynomial]]:
    """Split nonzero polynomials into (M, rest): M holds, in ascending
    leading monomial, each element whose leading monomial no earlier kept
    element's divides.  Every leading monomial of ``rest`` is a multiple of
    one in M, so M and the whole input have the same leading-term ideal."""
    # ascending leading monomial; a divisor is never larger than a multiple,
    # so one pass keeps exactly the minimal generators
    nonzero = [f for f in basis if not f.is_zero()]
    ordered = sorted(nonzero, key=lambda f: f.leading_monomial().key, reverse=True)
    minimal: list[Polynomial] = []
    rest: list[Polynomial] = []
    for f in ordered:
        lead = f.leading_monomial()
        if any(g.leading_monomial().divides(lead) for g in minimal):
            rest.append(f)
        else:
            minimal.append(f)
    return minimal, rest


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
    settled: list[int] = []  # settled[i]: bit k set when the pair {i, k} is settled
    queue: list[tuple[int, tuple, int, int, Monomial]] = []
    while True:
        for k in range(len(settled), len(leads)):
            lead = leads[k]
            mask = lead.mask
            coprime = 0
            for i in range(k):
                if leads[i].mask & mask:
                    lcm = leads[i].lcm(lead)
                    heapq.heappush(queue, (lcm.degree(), lcm.key, i, k, lcm))
                else:  # product criterion
                    coprime |= 1 << i
                    settled[i] |= 1 << k
            settled.append(coprime)
        if not queue:
            return
        _, _, i, j, lcm = heapq.heappop(queue)
        chain = settled[i] & settled[j]  # never holds i or j
        settled[i] |= 1 << j
        settled[j] |= 1 << i
        absent = ~lcm.mask
        while chain:
            low = chain & -chain
            chain ^= low
            k = low.bit_length() - 1
            if not leads[k].mask & absent and leads[k].divides(lcm):
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
    reducers = _reducers(basis)  # grows with the basis, in basis order
    leads = [f.leading_monomial() for f in basis]
    for i, j in _unsettled_pairs(leads):
        remainder = _divide(s_polynomial(basis[i], basis[j]), reducers)
        if not remainder.is_zero():
            g = remainder.monic()
            basis.append(g)
            reducers.append(_reducer(g))
            leads.append(g.leading_monomial())
    return _interreduce(_minimal_split(basis)[0])


def is_groebner(generators: Sequence[Polynomial]) -> bool:
    """Whether the generators form a Groebner basis.

    Let G be the nonzero generators and M their minimal-lead subset
    (``_minimal_split``); every leading monomial of G is a multiple of one
    in M, so <LT(G)> = <LT(M)>.  The check runs the S-pairs of M that the
    product and chain criteria leave (the same verdict as reducing every
    pair, see the module docstring), then requires every other element to
    reduce to zero against M.  The verdict is exact:

    - if M is a Groebner basis and the rest reduce to zero, then
      <G> = <M> and in(<G>) = <LT(M)> = <LT(G)>, so G is one;
    - if G is a Groebner basis, each remainder r = NF(g, M) lies in <G>
      and has no term in <LT(M)> = <LT(G)> = in(<G>), so r = 0; then
      <M> = <G> with the same initial ideal, so M is one and both checks
      pass.
    """
    minimal, rest = _minimal_split(generators)
    reducers = _reducers(minimal)
    for i, j in _unsettled_pairs([g.leading_monomial() for g in minimal]):
        if not _divide(s_polynomial(minimal[i], minimal[j]), reducers).is_zero():
            return False
    return all(_divide(g, reducers).is_zero() for g in rest)


def generates(basis: Sequence[Polynomial], reduced: Sequence[Polynomial]) -> bool:
    """Whether ``basis`` generates the ideal whose reduced Groebner basis is
    ``reduced`` (as ``buchberger`` returns it).

    When the minimal-lead subset M of the basis interreduces to ``reduced``,
    <M> is that ideal, and the answer is whether every other element
    reduces to zero against ``reduced``, i.e. lies in it.  Otherwise the
    basis is completed and compared, so a generating set that is not a
    Groebner basis still reads true.
    """
    reduced = list(reduced)
    minimal, rest = _minimal_split(basis)
    if _interreduce(minimal) == reduced:
        reducers = _reducers(reduced)
        return all(_divide(g, reducers).is_zero() for g in rest)
    return buchberger(basis) == reduced


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
    """Reduced Groebner basis of the intersection of the ideals, by a left
    fold of ``intersect``.  Each step's output depends only on the two
    ideals, so the first enters as given; a lone ideal is completed."""
    if not ideals:
        raise ValueError("need at least one ideal")
    first, *rest = ideals
    if not rest:
        return buchberger(first.generators)
    current = first
    for nxt in rest:
        current = IdealPresentation(tuple(intersect(current, nxt)))
    return list(current.generators)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal stored by its minimal generators (an antichain under
    divisibility)."""

    minimal_generators: frozenset[Monomial]

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "MonomialIdeal":
        pool = sorted(set(monomials), key=lambda m: (m.degree(), m.key))
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
    """Whether the two generating sets span the same ideal: the reduced
    Groebner basis of an ideal is unique, so this is whether ``a``
    generates the ideal of ``buchberger(b)``."""
    return generates(a, buchberger(b))
