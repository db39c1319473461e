"""Product-of-determinants generators for intersections of northwest-rank
ideals.

Pick one Fulton-generator antidiagonal from each input ideal and overlay
them as a colored diagram: a dot of color i on each cell of the i-th
antidiagonal, consecutive dots of a color joined by a segment, dots on a
shared cell identified.  Split the diagram into connected components and
repeatedly strip from each component the longest antidiagonal chain it
contains (most-northwest chain on ties).  The product of the determinants
of the stripped chains is the generator attached to that choice of
antidiagonals; ranging over all choices yields a Groebner basis of the
intersection under the antidiagonal order.

After a chain is removed, the surviving dots of each color that have
become consecutive are joined again, and the leftover diagram is split into
components afresh.  So the survivors of one color always lie in one
component, and a component is simply a union of colors that share a
surviving cell: two colors meet exactly when the overlay identifies one of
their survivors.  This is the reading that reproduces the worked examples,
e.g. a lone far-south cell of a mostly-consumed antidiagonal ends up as its
own 1 x 1 factor.

``union_basis`` is the one way to get a basis.  It extracts the factors
of every choice before it builds any generator, so that it can count the
work the basis implies and refuse an oversized one (see there), and then
lists one small handle per generator: its inputs, its factors and the
basis's shared ``_Packing``.  A handle holds no product unless a caller
holds it (``hold``): each read forms it, and the reader can drop it in
turn, since no generator's product depends on another's.

A product has one form, on packed exponent ints, in one ``_Layout`` per
basis (see :mod:`nwgb.polynomials`): each minor is expanded on packed
ints once (``_Layout.minor``), and a product of monomials is an integer
sum (see ``_Packing.product``).  The output format of a basis lives here,
in one writer per format (``basis_json_chunks``, ``basis_text_chunks``),
each streaming one generator at a time in the frame that ``nwgb
groebner`` writes its basis in.  Each reads a term's text off its int as
two cached halves of the rows of the product's leading term, which every
term uses (see ``_RowBlocks.terms``), and each owns its caches, which go
when it is done; ``--verify`` divides the same ints.  No exponent can
exceed the number k of inputs, so fields of
``k.bit_length() + 1`` bits, the proven width, hold every product, and
a handle forms its product at that width.  A caller that divides the
products keeps them all anyway, so ``hold`` forms each once, at the wider
field a division starts at, and the handle keeps it for every reader.

A stripped chain steps strictly SW by construction, so each factor is built
without the checks ``Antidiagonal(...)`` makes; the tests run those checks
on every factor instead.  Most choices share no cell between their inputs;
``extract_factors`` returns those inputs as the factors before any
component is built.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from itertools import product
from math import factorial, prod
from operator import or_

from .ideals import (
    RankConditionSpec,
    antidiagonals_of_spec,
    check_work,
    completion_work,
    minor_regions,
    spec_work,
)
from .polynomials import (
    _FIELD_BITS,
    Antidiagonal,
    Cell,
    _Layout,
    _Made,
    _PackedProduct,
    _TermLayout,
    _json_list,
    _json_list_chunks,
    packed_text_lines,
    polynomial_text,
)


def _components(
    colors: Sequence[Antidiagonal], alive: set[Cell]
) -> list[tuple[set[Cell], Antidiagonal | None]]:
    """Connected components of the surviving cells, sorted by their NE-most
    cell, by (row, col), each with its color when it holds the survivors
    of one color only, else None.

    Consecutive survivors of a color are joined, so each color's survivors
    lie in one component, and a component is the union of the colors that
    share a surviving cell.  A component that holds the survivors of one
    color only is a subset of that antidiagonal, so it is a chain, and it
    is its own factor.
    """
    groups: list[tuple[set[Cell], Antidiagonal | None]] = []
    for antidiag in colors:
        merged = alive.intersection(antidiag.cells)
        if not merged:
            continue
        color = antidiag
        apart = []
        for group in groups:
            if merged.isdisjoint(group[0]):
                apart.append(group)
            else:
                merged |= group[0]
                color = None
        groups = apart + [(merged, color)]
    # pick the NE-most cell by (row, -col), then compare those cells as
    # (row, col): sorting on (row, -col) alone orders a row's groups the
    # other way
    if len(groups) > 1:
        groups.sort(key=lambda group: min(group[0], key=lambda c: (c.row, -c.col)))
    return groups


def _longest_chain(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Longest strictly-SW-stepping chain through the cells; on ties the
    sequence that is elementwise least by (row, col), i.e. most northwest.

    ``reach[i]`` is the length of the longest chain starting at the i-th
    cell in (row, col) order; every cell SW of it comes later in that
    order.  A cell can start or continue a maximal chain iff its reach
    matches the remaining length, and every cell that can follow the last
    one taken comes after it, so the first such cell in one ascending pass
    is the least, which gives the lexicographically least optimal chain.
    """
    ordered = sorted(cells)
    count = len(ordered)
    if count == 1:
        return tuple(ordered)
    rows = [cell[0] for cell in ordered]
    cols = [cell[1] for cell in ordered]
    reach = [1] * count
    for i in range(count - 2, -1, -1):
        row = rows[i]
        col = cols[i]
        best = 0
        for j in range(i + 1, count):
            if rows[j] > row and cols[j] < col and reach[j] > best:
                best = reach[j]
        reach[i] = best + 1
    remaining = max(reach)
    chain: list[Cell] = []
    row = col = None
    for i in range(count):
        if reach[i] == remaining and (row is None or (rows[i] > row and cols[i] < col)):
            chain.append(ordered[i])
            row = rows[i]
            col = cols[i]
            remaining -= 1
    return tuple(chain)


def extract_factors(antidiags: Sequence[Antidiagonal]) -> list[Antidiagonal]:
    """Overlay the antidiagonals and strip longest chains until no cell is
    left.

    For each component of the surviving cells, in NE-cell order, the
    component's longest chain comes first, then recursively the factors of
    what is left of that component.  A one-color component is taken whole:
    the input antidiagonal itself when all its cells survive.

    Inputs that share no cell, most choices of a basis, are settled before
    any component is built: no two colors meet, so each input is a
    one-color component with every cell alive, and it is its own factor.
    An antidiagonal's NE-most cell is ``cells[0]``, and ``_components``
    orders its groups by that cell, so the factors are the inputs sorted by
    ``cells[0]``, which no two disjoint inputs share.
    """
    alive = {cell for antidiag in antidiags for cell in antidiag.cells}
    if len(alive) == sum([len(antidiag.cells) for antidiag in antidiags]):
        return sorted(antidiags, key=lambda antidiag: antidiag.cells[0])

    def strip(alive: set[Cell]) -> list[Antidiagonal]:
        factors: list[Antidiagonal] = []
        for component, color in _components(antidiags, alive):
            if color is not None:
                if len(component) < len(color.cells):
                    color = Antidiagonal._unchecked(tuple(sorted(component)))
                factors.append(color)
                continue
            chain = _longest_chain(component)
            factors.append(Antidiagonal._unchecked(chain))  # a chain steps SW
            rest = component.difference(chain)
            if rest:
                factors.extend(strip(rest))
        return factors

    return strip(alive)


def certified(factors: Iterable[Antidiagonal], spec: RankConditionSpec) -> bool:
    """Whether the product of the factors' determinants is certified to lie
    in the spec's ideal: some factor, on rows R and columns C, and some
    condition rank(NW i x j) <= r give

        b = |R & [1, i]| + |C & [1, j]| - |R| > r.

    That is sound for any northwest spec, by Laplace expansion.  Expand the
    factor's minor along its rows in [1, i]: each term holds a minor on
    those rows and on some |R & [1, i]| columns of C, of which at most
    |C| - |C & [1, j]| lie outside [1, j], so at least b inside.  Expand
    that minor along its columns in [1, j]: each term holds a minor of the
    NW i x j block of size at least b > r, which lies in the ideal of that
    block's (r+1)-minors.  So the factor's minor, and with it the product,
    lies in the condition's ideal.  The converse is not proved; the tests
    measure it on Schubert specs, whose ideals are prime.
    """
    return any(
        sum(cell.row <= cond.row for cell in factor.cells)
        + sum(cell.col <= cond.col for cell in factor.cells)
        - len(factor.cells)
        > cond.max_rank
        for factor in factors
        for cond in spec.conditions
    )


class GeneratorProduct:
    """One basis element: the input antidiagonals, the extracted factors,
    the shared ``_Packing`` that forms the product of their determinants,
    and that product, when the handle holds it (see ``hold``).

    ``packed`` is the product's one form, on packed exponent ints, which
    the JSON and text writers, membership and the proof all read: the held
    product, or else one formed anew on each read.  The factors fix the
    product (see ``union_basis``), so equality and the hash read the
    inputs and factors alone."""

    __slots__ = ("inputs", "factors", "_packing", "_held")

    def __init__(
        self, inputs: Iterable[Antidiagonal], factors: Iterable[Antidiagonal], packing: _Packing
    ):
        self.inputs = tuple(inputs)
        self.factors = tuple(factors)
        self._packing = packing
        self._held: _PackedProduct | None = None

    @property
    def packed(self) -> _PackedProduct:
        held = self._held
        return self._packing.product(self.factors) if held is None else held

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorProduct):
            return NotImplemented
        return (self.inputs, self.factors) == (other.inputs, other.factors)

    def __hash__(self) -> int:
        return hash((self.inputs, self.factors))

    def __repr__(self) -> str:
        return polynomial_text(self.packed)


class _Packing:
    """What every generator of one basis shares: a ``_Layout`` (made on
    first use) over the cells of rows 1..``height`` and columns
    1..``width``, which hold every variable of every factor's minor, with
    fields of ``bits`` bits, never fewer than the ``count.bit_length() + 1``
    that the product of ``count`` inputs needs (see ``product``), and each
    factor's determinant, expanded straight into it once
    (``_Layout.minor``)."""

    def __init__(self, height: int, width: int, count: int, bits: int = 0):
        self.rows = range(1, height + 1)
        self.cols = range(1, width + 1)
        self.count = count
        self.bits = max(bits, count.bit_length() + 1)
        self.minors: dict[tuple[Cell, ...], tuple[list[tuple[int, int]], int]] = {}

    @cached_property
    def layout(self) -> _Layout:
        return _Layout((), self.bits, [Cell(row, col) for row in self.rows for col in self.cols])

    def at(self, bits: int) -> _Packing:
        """This packing with fields of ``bits`` bits, or of the proven width
        when that is wider: itself when its fields are that wide."""
        other = _Packing(len(self.rows), len(self.cols), self.count, bits)
        return self if other.bits == self.bits else other

    def minor(self, factor: Antidiagonal) -> tuple[list[tuple[int, int]], int]:
        """The factor's determinant as ``(packed monomial, coefficient)``
        pairs, and the OR of its packed monomials, whose field for a
        variable is nonzero exactly when the minor uses it."""
        minor = self.minors.get(factor.cells)
        if minor is None:
            terms = self.layout.minor(factor.rows(), factor.cols())
            minor = self.minors[factor.cells] = (list(terms.items()), reduce(or_, terms))
        return minor

    def product(self, factors: Sequence[Antidiagonal]) -> _PackedProduct:
        """The product of the factors' determinants on packed ints: a
        product of monomials is a sum of ints.  A minor that shares no
        variable with the product so far makes every product of terms a
        new term; any other minor's products are summed in one dict, and a
        coefficient that cancels is dropped.

        No exponent exceeds the number k of inputs, so fields of
        ``k.bit_length() + 1`` bits hold every one.  A minor uses each of
        its rows once per term, so a variable in row r has, in the product,
        at most one unit per factor with a cell in row r.  The factors
        partition the occupied cells, and each input antidiagonal has at
        most one cell in row r, so at most k factors do.  A minor adds at
        most 1 to each exponent, so an exponent past the bound would first
        set its field's guard bit exactly; each step that can raise an
        exponent above 1 checks the guard bits and raises ``RuntimeError``
        if one is set, which would be a defect.
        """
        guard = self.layout.guard
        terms = {0: 1}
        used = 0  # the OR of the minors so far
        for factor in factors:
            minor, support = self.minor(factor)
            if not used & support:  # no variable shared: every product is a new term
                terms = {x + y: c * d for x, c in terms.items() for y, d in minor}
            else:
                out: dict[int, int] = {}
                get = out.get
                for x, c in terms.items():
                    for y, d in minor:
                        z = x + y
                        out[z] = get(z, 0) + c * d
                terms = {z: c for z, c in out.items() if c}
                if reduce(or_, terms, 0) & guard:
                    raise RuntimeError("an exponent of a union generator outgrew its field")
            used |= support
        return _PackedProduct(self.layout, terms)


def generator_product(
    antidiags: Sequence[Antidiagonal],
    factors: Sequence[Antidiagonal] | None = None,
    packing: _Packing | None = None,
) -> GeneratorProduct:
    """Build the generator for one antidiagonal choice: the product of its
    factors' determinants, or the constant 1 when there are no factors.

    ``factors`` is ``extract_factors(antidiags)``, passed by a caller that
    has it already.  ``packing`` holds the determinants; a caller that
    builds many generators passes one to every call, so each minor is
    expanded once.  Without one, the packing spans the rows and columns up
    to the inputs' southmost and eastmost cells, at the proven width.  The
    product itself is formed when it is read (see :class:`GeneratorProduct`).
    """
    if factors is None:
        factors = extract_factors(antidiags)
    if packing is None:
        # an antidiagonal's cells run from its NE-most to its SW-most
        height = max((a.cells[-1].row for a in antidiags), default=0)
        width = max((a.cells[0].col for a in antidiags), default=0)
        packing = _Packing(height, width, len(antidiags))
    return GeneratorProduct(antidiags, factors, packing)


def hold(basis: Iterable[GeneratorProduct], bits: int = _FIELD_BITS) -> list[GeneratorProduct]:
    """The generators of ``basis``, each on a handle that holds its
    product, formed once in one packing with fields of ``bits`` bits, or of
    the proven width when that is wider (see ``_Packing.product``).  That
    packing is the handles' own when they share one, as the handles of one
    ``union_basis`` call do, and else one that spans the largest height,
    width and input count among theirs.  A handle that already holds its
    product in that packing at that width is kept as it is.

    A caller that divides the products keeps every one, so it holds them,
    and the writers and the checks read the same products, in one layout.
    The default width is the one a division starts at
    (``_Layout.widening``), so the checks divide the products a writer
    read."""
    basis = list(basis)
    packings = list(dict.fromkeys(g._packing for g in basis))
    if not packings:
        return []
    packing, *others = packings
    if others:
        packing = _Packing(
            max(len(p.rows) for p in packings),
            max(len(p.cols) for p in packings),
            max(p.count for p in packings),
        )
    packing = packing.at(bits)
    held = []
    for g in basis:
        if g._held is None or packing is not g._packing:
            g = GeneratorProduct(g.inputs, g.factors, packing)
            g._held = packing.product(g.factors)
        held.append(g)
    return held


def union_basis(specs: Sequence[RankConditionSpec]) -> list[GeneratorProduct]:
    """Basis of the intersection of the specs' ideals (= the union of the
    schemes): one generator per choice of Fulton antidiagonals, one from
    each spec, deduplicated, the first choice in enumeration order kept.

    The work is bounded before it is done.  The call checks the specs,
    then, before any minor is listed, counts what expanding and completing
    each spec costs (``completion_work``), as every --verify depth does,
    the product of their minor counts (``spec_work``), a bound on the
    choices, and the square of the number of cells of the packed layout
    (``_Packing``), whose ints and their sizes grow with that number.  It
    then extracts the factors of every choice, adding each distinct
    generator's bound on its product's terms, the product of |f|! over
    its factors f (exact when the factors share no variable).  It raises
    ValueError as soon as the running count passes ``WORK_LIMIT``, so a
    refusal costs at most the limit, and comes before any generator is
    built.  The handles it lists hold no product: each read forms it, at
    the proven width, unless the caller holds them (see ``hold``).

    A generator is the product of its factors' determinants, and generic
    minors are irreducible and no two are scalar multiples, so two choices
    give the same polynomial exactly when they extract the same factors.
    The factors partition the occupied cells, so they are distinct and
    their set is the key; only a new key gets a generator.

    A spec with no generators imposes nothing, so the union is the whole
    space and the basis is empty (the zero ideal).
    """
    if not specs:
        raise ValueError("need at least one spec")
    ambient = specs[0].ambient_n
    for spec in specs:
        if spec.ambient_n != ambient:
            raise ValueError(
                f"ambient sizes differ: {reprlib.repr(spec.ambient_n)} vs {reprlib.repr(ambient)}"
            )
    # the packed layout spans rows 1..i and columns 1..j for the largest i
    # and the largest j of the regions that hold minors
    regions = [region for spec in specs for region in minor_regions(spec)]
    height = max((i for i, _ in regions), default=0)
    width = max((j for _, j in regions), default=0)
    units = check_work(
        sum(map(completion_work, specs))
        + prod(spec_work(spec)[0] for spec in specs)
        + (height * width) ** 2
    )
    choices = [antidiagonals_of_spec(spec) for spec in specs]
    # the first choice of each key, and its factors
    kept: dict[frozenset[tuple[Cell, ...]], tuple[tuple, list[Antidiagonal]]] = {}
    for combo in product(*choices):  # no combo when a spec has no choice
        factors = extract_factors(combo)
        key = frozenset(factor.cells for factor in factors)
        if key not in kept:
            units = check_work(units + prod(factorial(len(f.cells)) for f in factors))
            kept[key] = (combo, factors)
    packing = _Packing(height, width, len(choices))
    return [generator_product(combo, factors, packing) for combo, factors in kept.values()]


def _factor_json(cells: tuple[Cell, ...]) -> str:
    """``{"rows": [...], "cols": [...]}`` of the factor on these cells, both
    ascending, as ``json.dumps(..., indent=2)`` lays it out in a basis
    (indent 6).  Rows increase along an antidiagonal and columns decrease."""
    rows = _json_list([str(cell.row) for cell in cells], 8, "[]")
    cols = _json_list([str(cell.col) for cell in reversed(cells)], 8, "[]")
    return _json_list([f'"rows": {rows}', f'"cols": {cols}'], 6, "{}")


def basis_json_chunks(basis: Iterable[GeneratorProduct]) -> Iterator[str]:
    """The basis as JSON text, as ``json.dumps(..., indent=2)`` lays it out,
    one chunk per generator as it is read: ``{"factors": [{"rows": [...],
    "cols": [...]}, ...], "poly": [...]}``, each factor's rows and columns
    ascending and the terms of ``g.packed`` as ``polynomial_to_json`` lists
    a polynomial's, then the list's close (``_json_list_chunks``, the
    frame ``nwgb groebner`` writes its basis in too).  Each factor's text
    is written once per call, keyed by its cells, and every product
    through one ``_TermLayout`` at the products' indent, which keeps its
    ``[row, col, exp]`` blocks and, per layout, its row segments until the
    last chunk."""
    products = _TermLayout(4)
    factors = _Made(_factor_json)

    def item(g: GeneratorProduct) -> str:
        listed = _json_list([factors[factor.cells] for factor in g.factors], 4, "[]")
        poly = products.write_packed(g.packed)
        return f'{{\n    "factors": {listed},\n    "poly": {poly}\n  }}'

    return _json_list_chunks(map(item, basis))


def basis_text_chunks(basis: Iterable[GeneratorProduct]) -> Iterator[str]:
    """The basis as text, one line per generator as it is read: its
    product as ``polynomial_text`` writes it (``packed_text_lines``)."""
    return packed_text_lines(g.packed for g in basis)
