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
unchanged.  The queue indexes the leads by the variables they use
(``_LeadIndex``), so the chain criterion ANDs a few bitsets instead of
testing every settled third lead.  Division reads each basis's leading
terms once, into one reducer list that every division by that basis
shares (``_complete`` appends to it as its basis grows, and
``_interreduce`` as it keeps each element), and reduces each term by the
first reducer in list order whose lead divides it (``_scan``).
``is_groebner`` runs the queue only on the minimal-lead subset of its
input and reduces the other elements against that subset; the answer is
exact (see its docstring).  Output is reduced, in one
interreduction pass (none when nothing moved, see ``_complete``), so two
generating sets span the same ideal exactly
when ``buchberger`` gives both the same list (``ideals_equal``).  Ideal
intersection uses the textbook elimination trick with one auxiliary
variable, folded by ``intersect_many`` in one packed layout; each step
finishes (minimal split, interreduction) only the t-free part it keeps.
With three or more ideals the fold starts from the pair whose leads meet
in the fewest minimal lcms (``_meet_size``), then takes the remaining
ideal whose leads meet the running intersection's in the fewest: the
initial ideals of northwest-rank ideals are squarefree, and the initial
ideal of their intersection is that meet, so the intermediate bases stay
small.  The order chooses only the work, never the result, which is the
unique reduced basis of the intersection.
Everything runs under the one antidiagonal lex order of
:mod:`nwgb.polynomials`, which ranks that variable first and so is also
an elimination order for it.

Inside the engine a monomial is an int with packed exponents, as in the
heap division of Monagan and Pearce ("Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Each entry point
(``buchberger``, ``is_groebner``, ``normal_form``, ``s_polynomial``,
``intersect_many``) lays out one field per variable of its inputs
(``_Layout``, from :mod:`nwgb.polynomials`): ``bits`` bits each, a guard
bit over ``bits - 1`` exponent bits, the most significant variable of the
order (t, when present) in the highest field and each next one in the
field below.  The union products are packed the same way, and the union
check runs in their layout: ``verify.union_verdicts`` expands each spec's
minors there and completes them (``minor_basis``), and
``reduces_to_zero`` divides the products as they are.  ``nwgb groebner``
completes a spec's minors in a layout of their cells and writes the
packed basis; no minor on these paths is a ``Polynomial``.  Comparing two
such ints compares
the exponent of the most significant variable first, then the next, which
is the lex order: a larger int is a larger monomial, and a heap of negated
ints pops the largest term.  A product is ``+``, a quotient ``-``, and
divisibility, support and lcm are a few operations on the guard bits.
A ``Monomial`` packs as the sum of one unit of its variable's field per
entry of its key.  The inputs are packed once, the work runs on
``{int: coefficient}`` dicts, and only the result is unpacked.  The
field width starts at ``_FIELD_BITS``, doubled until the largest input
degree fits, and a sum that reaches a guard bit restarts the whole call
at double width (``_Layout.widening``): no exponent is ever wrong, and
the width changes no result.

Where a theorem makes a spec's minors a Groebner basis, at most one rank
condition (``ideals.fulton_is_groebner``), ``nwgb groebner`` runs no
completion: the minors are made monic and sorted (``minor_basis``).  The
union check, like ``buchberger`` and ``is_groebner``, always runs the
queue, so it stays independent of the theorem.  ``nwgb groebner`` writes
the packed basis with the term writer of union products, which reads
each term as two halves of the rows of its element's leading term: each
element of a completion of minors is homogeneous in the rows (see
``polynomials._RowBlocks.terms``).

The engine records the last reduced basis it returned, and ``buchberger``
hands that very sequence back without completing it again (see its
docstring), so ``initial_ideal(intersect_many(...))`` reads the leads the
fold already has.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence

from .polynomials import AUX, Monomial, Polynomial, _Layout, _Overflow, _PackedProduct, _Value


class IdealPresentation(_Value):
    """Nonzero generators of an ideal."""

    __slots__ = ("generators",)

    def __init__(self, generators: Iterable[Polynomial]):
        generators = tuple(generators)
        if any(g.is_zero() for g in generators):
            raise ValueError("generators must be nonzero")
        super().__init__(generators)


def _run(polys: Sequence[Polynomial], job: Callable[[_Layout], object]) -> object:
    """``job`` on the narrowest layout of ``polys`` whose fields hold every
    exponent it makes (``_Layout.widening``)."""
    return _Layout.widening(lambda bits: job(_Layout(polys, bits)))


# one reducer per nonzero packed divisor g: (lead, the other terms of g made
# monic), so a division step scales the tail by the pending coefficient
Reducer = tuple[int, list[tuple[int, "int | Fraction"]]]


def _reducer(terms: dict[int, int | Fraction]) -> Reducer:
    monic = _monic(terms)
    lead = max(monic)
    return lead, [(x, c) for x, c in monic.items() if x != lead]


def _monic(terms: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    lead = terms[max(terms)]
    if lead == 1:
        return terms
    if lead == -1:
        return {x: -c for x, c in terms.items()}
    from fractions import Fraction

    out = {}
    for x, c in terms.items():
        q = Fraction(c, lead)
        out[x] = q.numerator if q.denominator == 1 else q
    return out


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by any basis leading monomial, and
    f minus the result lies in the ideal the basis generates.  The largest
    pending term is taken from a heap of negated packed monomials: a
    monomial is pushed when it enters the pending terms, and an entry
    whose term has since cancelled is skipped when popped.  A processed
    term never comes back, because every term a division step adds is
    smaller than it.  Reducers are tried in list order, so the result is
    deterministic and is the same remainder as scanning for the largest
    term at each step, for any basis, Groebner or not.

    Each divisor is made monic once, when its reducer is read, so a step
    scales the divisor's other terms by the pending coefficient.  A lead of
    1 or -1 (every element of a ``buchberger`` basis, every union
    generator) leaves integral input on ints; any other lead makes the
    monic tail hold exact ``Fraction`` values.  Dividing by the monic
    divisor gives the same remainder.  f and the basis are packed in one
    layout.  The engine itself divides through ``_divide``, with reducer
    lists it builds once and extends.
    """

    def job(layout: _Layout) -> Polynomial:
        first = _scan([_reducer(layout.pack_poly(g)) for g in basis if g.terms], layout.guard)
        return layout.polynomial(_divide(layout.pack_poly(f), first, layout.guard))

    return _run([f, *basis], job)


def reduces_to_zero(products: Sequence[_PackedProduct], basis: Sequence[dict]) -> list[bool]:
    """Whether ``normal_form`` of each packed product by ``basis``, nonzero
    packed polynomials in the products' one layout, is zero.

    The basis is read into reducers once, and each product is divided on
    its own packed terms, which it keeps.  An exponent that outgrows the
    layout's width raises ``_Overflow``, and the caller forms the products,
    and completes the basis, again with wider fields
    (``_Layout.widening``)."""
    if not products:
        return []
    guard = products[0].layout.guard
    first = _scan([_reducer(g) for g in basis], guard)
    return [not _divide(dict(f.terms), first, guard) for f in products]


def _scan(reducers: list[Reducer], guard: int) -> Callable[[int], Reducer | None]:
    """``first(x)``: the first reducer of the list, as it stands when
    called, whose lead divides x, or None."""

    def first(x: int) -> Reducer | None:
        high = x | guard  # the guard-bit test of _Layout.divides, inlined
        for reducer in reducers:
            if (high - reducer[0]) & guard == guard:
                return reducer
        return None

    return first


def _divide(work: dict, first: Callable[[int], Reducer | None], guard: int) -> dict:
    """The division loop of ``normal_form`` on packed terms, which it
    consumes; ``first(x)`` is the first reducer whose lead divides x."""
    heap = [-x for x in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        mono = -heapq.heappop(heap)
        coeff = work.pop(mono, None)
        if coeff is None:
            continue  # cancelled after it was pushed
        reducer = first(mono)
        if reducer is None:
            remainder[mono] = coeff
            continue
        lead, tail = reducer
        quotient = mono - lead
        for x, c in tail:
            target = x + quotient
            value = work.get(target)
            if value is None:
                if target & guard:
                    raise _Overflow
                work[target] = -coeff * c
                heapq.heappush(heap, -target)
            else:
                value -= coeff * c
                if value:
                    work[target] = value
                else:
                    del work[target]
    return remainder


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The cancellation combination (lcm/mf)*f/cf - (lcm/mg)*g/cg, where
    cf*mf and cg*mg are the leading terms of f and g.

    Written straight into one term dict: each term's monomial is shifted
    by lcm/mf (or lcm/mg), the two leading terms, which cancel exactly,
    are skipped, and a coefficient that cancels to zero is dropped.  Both
    are read as reducers, made monic, so (lcm/mf)*f/cf is the shifted
    monic tail of f and the combination only scales by a sign.
    """
    def job(layout: _Layout) -> Polynomial:
        a, b = _reducer(layout.pack_poly(f)), _reducer(layout.pack_poly(g))
        return layout.polynomial(_s_poly(a, b, layout.lcm(a[0], b[0]), layout.guard))

    return _run([f, g], job)


def _s_poly(a: Reducer, b: Reducer, lcm: int, guard: int) -> dict:
    terms: dict[int, int | Fraction] = {}
    made = 0
    for (lead, tail), sign in ((a, 1), (b, -1)):
        shift = lcm - lead
        for x, c in tail:
            target = x + shift
            made |= target
            terms[target] = terms.get(target, 0) + sign * c
    if made & guard:
        raise _Overflow
    return {x: c for x, c in terms.items() if c}


def _interreduce(polys: Iterable[dict], guard: int) -> tuple[list[dict], list[Reducer], bool]:
    """Reduce each nonzero packed polynomial, which it consumes, once
    against the ones kept and the ones not yet visited, dropping zeros;
    return the kept ones, made monic, their reducers, and whether every
    input was kept with its leading monomial.  When no leading monomial
    divides another, no lead moves, so this is the reduced basis, in input
    order."""
    current = list(polys)
    pending = [_reducer(p) for p in current]
    kept: list[dict] = []
    kept_reducers: list[Reducer] = []
    for index, f in enumerate(current):
        reduced = _divide(f, _scan(kept_reducers + pending[index + 1 :], guard), guard)
        if reduced:
            g = _monic(reduced)
            kept.append(g)
            kept_reducers.append(_reducer(g))
    unmoved = [r[0] for r in kept_reducers] == [r[0] for r in pending]
    return kept, kept_reducers, unmoved


def _minimal_split(polys: Sequence, leads: Sequence[int], layout: _Layout) -> tuple[list, list]:
    """Split nonzero polynomials with these packed leading monomials into
    (M, rest): M holds, in ascending leading monomial, each one whose
    leading monomial no earlier kept one's divides.  Every leading monomial
    of ``rest`` is a multiple of one in M, so M and the whole input have
    the same leading-term ideal."""
    # ascending leading monomial; a divisor is never larger than a multiple,
    # so one pass keeps exactly the minimal generators
    minimal: list = []
    kept: list[int] = []
    rest: list = []
    for index in sorted(range(len(polys)), key=leads.__getitem__):
        if any(layout.divides(lead, leads[index]) for lead in kept):
            rest.append(polys[index])
        else:
            minimal.append(polys[index])
            kept.append(leads[index])
    return minimal, rest


class _LeadIndex:
    """Leading monomials indexed by the variables they use, for the chain
    criterion: ``divides_any(among, x)`` says whether the lead at some
    position of the bitset ``among`` divides x.

    A lead divides x when it uses no variable outside x's support and, if
    it has an exponent above 1 (``powers``), passes the guard-bit test as
    well."""

    def __init__(self, layout: _Layout):
        self.layout = layout
        self.leads: list[int] = []
        self.uses: dict[int, int] = {}  # a variable's guard bit -> positions whose lead uses it
        self.powers = 0

    def add(self, lead: int):
        bit = 1 << len(self.leads)
        self.leads.append(lead)
        support = (lead + self.layout.fill) & self.layout.guard
        if lead != support >> (self.layout.bits - 1):
            self.powers |= bit
        while support:
            low = support & -support
            support ^= low
            self.uses[low] = self.uses.get(low, 0) | bit

    def divides_any(self, among: int, x: int) -> bool:
        layout = self.layout
        support = (x + layout.fill) & layout.guard
        for field, positions in self.uses.items():
            if not support & field:
                among &= ~positions
        if among & ~self.powers:
            return True
        while among:
            low = among & -among
            if layout.divides(self.leads[low.bit_length() - 1], x):
                return True
            among ^= low
        return False


def _unsettled_pairs(reducers: list[Reducer], layout: _Layout) -> Iterator[tuple[int, int, int]]:
    """(i, j, lcm), i < j, of the S-pairs of the reducers' leads that the
    product and chain criteria leave to be reduced, in the normal strategy
    (lcm degree, then the order).

    The caller may append reducers between steps; their pairs join the
    queue before the next one is chosen.  A pair counts as settled once it
    is yielded, so the caller must reduce it to zero, or add its remainder
    to the basis, before asking for the next.  The chain criterion only
    uses settled pairs, never queued ones: two queued pairs with equal lcm
    would otherwise each excuse the other.
    """
    guard, fill = layout.guard, layout.fill
    settled: list[int] = []  # settled[i]: bit k set when the pair {i, k} is settled
    index = _LeadIndex(layout)
    leads = index.leads
    supports: list[int] = []  # a guard bit for each variable a lead uses
    queue: list[tuple[int, int, int, int]] = []
    while True:
        for k in range(len(settled), len(reducers)):
            lead = reducers[k][0]
            support = (lead + fill) & guard
            coprime = 0
            for i in range(k):
                if supports[i] & support:
                    lcm = layout.lcm(leads[i], lead)
                    heapq.heappush(queue, (layout.degree(lcm), -lcm, i, k))
                else:  # product criterion
                    coprime |= 1 << i
                    settled[i] |= 1 << k
            settled.append(coprime)
            supports.append(support)
            index.add(lead)
        if not queue:
            return
        _, lcm, i, j = heapq.heappop(queue)
        lcm = -lcm
        chain = settled[i] & settled[j]  # never holds i or j
        settled[i] |= 1 << j
        settled[j] |= 1 << i
        if not (chain and index.divides_any(chain, lcm)):  # else the chain criterion
            yield i, j, lcm


def _complete(layout: _Layout, generators: Iterable[dict], below: int | None = None) -> list[dict]:
    """The reduced Groebner basis of packed polynomials, packed, in
    ascending leading monomial: the S-pairs ``_unsettled_pairs`` leaves,
    reduced in its order against the growing basis, then one interreduction
    of the minimal-lead subset.  With a bound ``below``, only the part of
    that basis whose leads are below it is built and returned.

    That second interreduction is skipped when the first pass kept every
    input with its leading monomial and no S-pair left a remainder.  Then
    the leads of the kept elements are those of the inputs, and each kept
    element is a remainder by divisors with exactly the other leads, so no
    term of it is divisible by another element's lead; it is monic and its
    own lead divides none of its smaller terms.  So the first pass's output
    is already reduced, and a Groebner basis since every S-pair settled.
    No lead divides another, so the minimal split would keep all of it: it
    is only sorted by leading monomial, and interreducing it would change
    nothing.

    ``intersect_many`` bounds by t's packed monomial, keeping the t-free
    part, and the bound is applied before the minimal split.  That is exact
    for t: a divisor of a t-free monomial is t-free, and t-free leads sort
    ahead of every lead with t, so the minimal split of the t-free elements
    is the t-free prefix of the whole split.  Every term of a t-free
    element is t-free, and no lead with t divides such a term, so
    interreducing that prefix alone gives the same polynomials, in the same
    order.  Whether anything moved is read off the whole basis, before the
    bound is applied."""
    guard = layout.guard
    basis, reducers, unmoved = _interreduce(generators, guard)  # reducers grows with the basis
    count = len(basis)
    first = _scan(reducers, guard)
    for i, j, lcm in _unsettled_pairs(reducers, layout):
        remainder = _divide(_s_poly(reducers[i], reducers[j], lcm, guard), first, guard)
        if remainder:
            basis.append(remainder)
            reducers.append(_reducer(remainder))
    moved = not unmoved or len(basis) > count
    leads = [r[0] for r in reducers]
    if below is not None:
        kept = [k for k, lead in enumerate(leads) if lead < below]
        basis = [basis[k] for k in kept]
        leads = [leads[k] for k in kept]
    if moved:
        return _interreduce(_minimal_split(basis, leads, layout)[0], guard)[0]
    return [basis[k] for k in sorted(range(len(basis)), key=leads.__getitem__)]


def minor_basis(
    minors: Iterable[tuple], layout: _Layout, settled: bool = False
) -> Iterable[dict]:
    """``_complete`` of the minors, (rows, cols) each, expanded straight
    into ``layout`` (``_Layout.minor``): ``buchberger`` of their
    determinants without a ``Polynomial``, the completion of a spec's
    ``generator_minors`` that ``nwgb groebner`` writes and that
    ``verify.union_verdicts`` divides by.

    ``settled`` says that the minors are those of at most one rank
    condition, all the k-minors of one generic region, which are a
    Groebner basis (``ideals.fulton_is_groebner``, which ``nwgb groebner``
    asks; the union check never passes it, so its completions stay
    independent of the theorem).  Then no ``_complete`` runs: the minors
    are sorted by leading monomial, read off their antidiagonals without
    expanding them (``_Layout.minor_lead``), and each is expanded, monic,
    only as the returned iterator reaches it, so a writer that reads it
    holds one expanded minor at a time.  That is the reduced basis.  A
    term of the minor on rows R and columns C uses each row of R and each
    column of C once, so it names R and C, and no other minor has it; a
    degree-k divisor of a degree-k term is that term, so no minor's lead,
    its antidiagonal, divides a term of another, and no lead can move.  A
    term uses each variable once, so it fits fields of any width: the
    iterator never raises ``_Overflow`` and needs no ``_Layout.widening``.
    Otherwise the completed basis is returned as a list.

    Every element returned, settled or not, uses in each term exactly the
    rows and the columns of its leading term, which the writers of packed
    polynomials rely on (the argument is at ``_RowBlocks.terms``)."""
    if settled:
        ordered = sorted(minors, key=layout.minor_lead)
        return (layout.minor(rows, cols, monic=True) for rows, cols in ordered)
    return _complete(layout, [layout.minor(rows, cols) for rows, cols in minors])


# the last reduced basis the engine returned, as a tuple of the same objects
_last_reduced: tuple[Polynomial, ...] = ()


def _record_reduced(basis: list[Polynomial]) -> list[Polynomial]:
    """Record ``basis``, a reduced Groebner basis sorted by leading
    monomial, as the one ``buchberger`` may hand back without completing
    it, and return it."""
    global _last_reduced
    _last_reduced = tuple(basis)
    return basis


def buchberger(generators: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal the generators span, sorted by
    leading monomial (ascending).

    Reduces the S-pairs that ``_unsettled_pairs`` leaves, in the normal
    strategy, against the growing basis (``_complete``).  Skipped pairs
    change which intermediate elements appear, not the result: the
    reduced basis of an ideal is unique.  Zero input polynomials are
    ignored; an empty input yields the empty basis.

    The result is recorded, and so is ``intersect_many``'s.  When the input is
    the recorded basis B itself (the same objects, in the same order, and
    no more), a copy of it is returned at once.  That is exact: B is a
    reduced Groebner basis, which is unique, sorted by leading monomial as
    this function sorts it, so ``buchberger(B) == B``.  Every other input,
    equal-but-copied polynomials, a reordered or an extended list, is
    completed in full.
    """
    last = _last_reduced
    if len(generators) == len(last) and all(map(operator.is_, generators, last)):
        return list(generators)

    def job(layout: _Layout) -> list[Polynomial]:
        packed = [layout.pack_poly(f) for f in generators if f.terms]
        return [layout.polynomial(f) for f in _complete(layout, packed)]

    return _record_reduced(_run(generators, job))


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

    def job(layout: _Layout) -> bool:
        guard = layout.guard
        packed = [layout.pack_poly(f) for f in generators if f.terms]
        minimal, rest = _minimal_split(packed, [max(f) for f in packed], layout)
        reducers = [_reducer(f) for f in minimal]
        first = _scan(reducers, guard)
        for i, j, lcm in _unsettled_pairs(reducers, layout):
            if _divide(_s_poly(reducers[i], reducers[j], lcm, guard), first, guard):
                return False
        return not any(_divide(f, first, guard) for f in rest)

    return _run(generators, job)


def intersect(I: IdealPresentation, J: IdealPresentation) -> list[Polynomial]:
    """Reduced Groebner basis of the intersection of the two ideals, sorted
    by leading monomial: ``intersect_many`` of the two."""
    return intersect_many([I, J])


def intersect_many(ideals: Sequence[IdealPresentation]) -> list[Polynomial]:
    """Reduced Groebner basis of the intersection of the ideals, sorted by
    leading monomial, by a fold of two-ideal eliminations; a lone ideal is
    completed.

    Classic elimination: with a fresh variable t ranked above everything,
    the t-free part of a Groebner basis of t*I + (1-t)*J is a Groebner
    basis of the intersection of I and J.  The t-free part of the reduced
    basis is the reduced basis: its elements are monic, and no term of one
    is divisible by the lead of another, since that holds across the whole
    reduced basis.  An element is t-free exactly when its leading monomial
    is, since a term with t outranks every term without it: packed, t has
    the highest field, and a monomial is t-free exactly when it is below t
    itself, the bound ``_complete`` is given.

    The whole fold runs in one layout, of t and every generator of every
    ideal: elimination makes no new variable, so each step's t-free result
    stays packed and enters the next step as its I.  Only the final basis
    is unpacked, and it is recorded as ``buchberger``'s own output is.  An
    overflow in any step restarts the whole fold at double width.  An empty
    presentation is the zero ideal and absorbs: the result is ``[]``, and
    nothing is recorded.

    Two ideals are met as given.  With more, the fold starts from the pair
    whose leads meet in the fewest minimal monomials (``_meet_size``), the
    two in input order, and then meets the running intersection with the
    remaining ideal whose leads meet its leads in the fewest; ties go by
    input order.  For the northwest-rank ideals of the construction that
    count is the size of the initial ideal of the intersection (its leads
    are squarefree, and the initial ideal of the intersection is the meet
    of theirs), so the fold keeps its intermediate bases small; elsewhere
    it is an estimate.  The order only chooses how much work is done: the
    intersection does not depend on it, its reduced basis is unique, and
    every step runs the full S-pair queue, so the result is that of a left
    fold and stays independent of the theorem.
    """
    if not ideals:
        raise ValueError("need at least one ideal")
    if len(ideals) == 1:
        return buchberger(ideals[0].generators)
    if not all(ideal.generators for ideal in ideals):
        return []
    t = Polynomial.variable(AUX)

    def job(layout: _Layout) -> list[Polynomial]:
        t_mono = layout.pack(t.leading_monomial())

        def meet(current: list[dict], generators: list[dict]) -> list[dict]:
            mixed = [{x + t_mono: c for x, c in f.items()} for f in current]
            for terms in generators:
                for x, c in list(terms.items()):  # g - t*g
                    terms[x + t_mono] = terms.get(x + t_mono, 0) - c
                mixed.append({x: c for x, c in terms.items() if c})
            if any(x & layout.guard for f in mixed for x in f):
                raise _Overflow
            return _complete(layout, mixed, t_mono)

        def supports(polys: list[dict]) -> list[int]:
            return [(max(f) + layout.fill) & layout.guard for f in polys]

        packed = [[layout.pack_poly(g) for g in ideal.generators] for ideal in ideals]
        first, second = 0, 1
        if len(packed) > 2:
            leads = [_minimal(supports(p)) for p in packed]  # the meet only reads these
            _, first, second = min(
                (_meet_size(leads[i], leads[j]), i, j)
                for j in range(len(packed))
                for i in range(j)
            )
        rest = [k for k in range(len(packed)) if k not in (first, second)]
        current = meet(packed[first], packed[second])
        while rest:  # in input order, so min breaks ties by it
            k = rest[0]
            if len(rest) > 1:
                own = supports(current)
                k = min(rest, key=lambda k: _meet_size(own, leads[k]))
            rest.remove(k)
            current = meet(current, packed[k])
        return [layout.polynomial(f) for f in current]

    return _record_reduced(_run([t, *(g for ideal in ideals for g in ideal.generators)], job))


def _meet_size(a: list[int], b: list[int]) -> int:
    """How many minimal generators the meet of two squarefree monomial
    ideals has, each given by the supports (guard bits) of its generators:
    the minimal sets among the unions x | y, which are the lcms of one
    generator from each (Miller and Sturmfels, GTM 227).  On supports of
    leads that are not squarefree the count is only an estimate."""
    return len(_minimal({x | y for x in a for y in b}))


def _minimal(supports: Iterable[int]) -> list[int]:
    """The minimal sets among supports, in popcount order: a subset has
    fewer bits, so a set is minimal exactly when no set kept before it is
    a subset of it."""
    kept: list[int] = []
    for c in sorted(set(supports), key=int.bit_count):
        for k in kept:
            if k & c == k:
                break
        else:
            kept.append(c)
    return kept


class MonomialIdeal(_Value):
    """Monomial ideal stored by its minimal generators (an antichain under
    divisibility)."""

    __slots__ = ("minimal_generators",)

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "MonomialIdeal":
        pool = sorted(set(monomials), key=lambda m: (m.degree(), m.key))
        minimal: list[Monomial] = []
        for mono in pool:
            if not any(kept.divides(mono) for kept in minimal):
                minimal.append(mono)
        return MonomialIdeal(frozenset(minimal))

    def contains(self, mono: Monomial) -> bool:
        return any(g.divides(mono) for g in self.minimal_generators)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal.from_monomials(
            a.lcm(b) for a in self.minimal_generators for b in other.minimal_generators
        )


def leading_ideal(polys: Sequence[Polynomial]) -> MonomialIdeal:
    """The ideal of the leading monomials: the initial ideal when the input
    is a Groebner basis."""
    return MonomialIdeal.from_monomials(f.leading_monomial() for f in polys)


def initial_ideal(generators: Sequence[Polynomial]) -> MonomialIdeal:
    """Minimal generators of the leading-term ideal.  The input goes through
    ``buchberger``, so any generating set is accepted: a reduced basis the
    engine has just returned (as ``intersect_many`` does) is read as it
    is, and anything else is completed to a Groebner basis first."""
    return leading_ideal(buchberger(generators))


def ideals_equal(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    """Whether the two generating sets span the same ideal: the reduced
    Groebner basis of an ideal is unique.  ``b`` is completed first, so a
    basis ``intersect_many`` has just returned is read as it is."""
    return buchberger(b) == buchberger(a)
