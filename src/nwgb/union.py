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

No generator depends on another once it is built, so ``union_generators``
builds them one at a time and a writer can write and drop each in turn;
``union_basis`` lists them.

A generator's product is formed when it is first read, in the form its
reader needs.  The JSON writer reads it on packed exponent ints, in one
``_Layout`` per basis (see :mod:`nwgb.polynomials`): each minor is
packed once, a product of monomials is an integer sum, and no exponent can
exceed the number k of inputs, so fields of ``k.bit_length() + 1`` bits
are fixed before the first product (see ``_Packing.product``); the writer
reads each term's text off its int, one row of fields at a time.
``GeneratorProduct.poly``, which ``--verify``, ``--format=text`` and the
suites read, multiplies the determinants as ``Polynomial`` values: on the
small bases the oracle checks, that costs less than forming the packed
product and unpacking it.

A stripped chain steps strictly SW by construction, so each factor is built
without the checks ``Antidiagonal(...)`` makes; the tests run those checks
on every factor instead.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from itertools import product
from operator import or_

from .ideals import RankConditionSpec, antidiagonals_of_spec
from .polynomials import (
    Antidiagonal,
    Cell,
    Polynomial,
    _Layout,
    _PackedProduct,
    _json_list,
    json_writer,
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
    """

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

    return strip({cell for antidiag in antidiags for cell in antidiag.cells})


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
    and the expanded product of their determinants.

    The product is formed when it is first read, in the form its reader
    needs: ``packed`` on packed exponent ints, which the JSON writer
    reads, or ``poly``, a :class:`Polynomial`, for ``--verify``,
    ``--format=text``, the suites and the tests.  The factors fix the
    product (see ``union_generators``), so equality and the hash read the
    inputs and factors alone."""

    __slots__ = ("inputs", "factors", "_packing", "_packed", "_poly")

    def __init__(
        self, inputs: Iterable[Antidiagonal], factors: Iterable[Antidiagonal], packing: _Packing
    ):
        self.inputs = tuple(inputs)
        self.factors = tuple(factors)
        self._packing = packing
        self._packed = self._poly = None

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            self._poly = self._packing.polynomial(self.factors)
        return self._poly

    @property
    def packed(self) -> _PackedProduct:
        if self._packed is None:
            self._packed = self._packing.product(self.factors)
        return self._packed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorProduct):
            return NotImplemented
        return (self.inputs, self.factors) == (other.inputs, other.factors)

    def __hash__(self) -> int:
        return hash((self.inputs, self.factors))

    def __repr__(self) -> str:
        return polynomial_text(self.poly)


class _Packing:
    """What every generator of one basis shares: each factor's determinant,
    expanded once, and a ``_Layout`` (made on first use) over each cell
    that a row and a column of the input antidiagonals meet in, so over
    every variable of every factor's minor, with fields of
    ``count.bit_length() + 1`` bits for the product of ``count`` inputs
    (see ``product``), in which each determinant is packed once."""

    def __init__(self, antidiags: Iterable[Antidiagonal], count: int):
        cells = {cell for antidiag in antidiags for cell in antidiag.cells}
        self.rows = sorted({cell.row for cell in cells})
        self.cols = sorted({cell.col for cell in cells})
        self.count = count
        self.minors: dict[tuple[Cell, ...], Polynomial] = {}
        self.packed_minors: dict[tuple[Cell, ...], tuple[list[tuple[int, int]], int]] = {}

    @cached_property
    def layout(self) -> _Layout:
        bits = self.count.bit_length() + 1
        return _Layout((), bits, [Cell(row, col) for row in self.rows for col in self.cols])

    @cached_property
    def row_masks(self) -> list[int]:
        """The layout's mask of each row, top row first."""
        return [self.layout.mask(Cell(row, col) for col in self.cols) for row in self.rows]

    def determinant(self, factor: Antidiagonal) -> Polynomial:
        det = self.minors.get(factor.cells)
        if det is None:
            det = self.minors[factor.cells] = factor.determinant()
        return det

    def polynomial(self, factors: Sequence[Antidiagonal]) -> Polynomial:
        """The product of the factors' determinants, or the constant 1 when
        there are none, through ``Polynomial.__mul__`` from the first
        determinant on, so that no term is multiplied by 1."""
        poly = None
        for factor in factors:
            det = self.determinant(factor)
            poly = det if poly is None else poly * det
        return Polynomial.constant(1) if poly is None else poly

    def minor(self, factor: Antidiagonal) -> tuple[list[tuple[int, int]], int]:
        """The factor's determinant as ``(packed monomial, coefficient)``
        pairs, and the OR of its packed monomials, whose field for a
        variable is nonzero exactly when the minor uses it."""
        minor = self.packed_minors.get(factor.cells)
        if minor is None:
            unit = self.layout.unit
            # each variable of a minor has exponent 1: a monomial packs as
            # the sum of its variables' units
            terms = [
                (sum(map(unit.__getitem__, mono.key[:-1])), coeff)
                for mono, coeff in self.determinant(factor).terms.items()
            ]
            minor = self.packed_minors[factor.cells] = (terms, reduce(or_, [x for x, _ in terms]))
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
        # a minor uses each of its rows in every term, so every term of the
        # product uses exactly the rows that some minor uses
        masks = tuple([mask for mask in self.row_masks if mask & used])
        return _PackedProduct(self.layout, terms, masks)


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
    expanded once.  The product itself is formed when first read (see
    :class:`GeneratorProduct`).
    """
    if factors is None:
        factors = extract_factors(antidiags)
    if packing is None:
        packing = _Packing(antidiags, len(antidiags))
    return GeneratorProduct(antidiags, factors, packing)


def union_generators(specs: Sequence[RankConditionSpec]) -> Iterator[GeneratorProduct]:
    """Basis of the intersection of the specs' ideals (= the union of the
    schemes), one generator at a time as it is read: one per choice of
    Fulton antidiagonals, one from each spec, deduplicated, the first
    choice in enumeration order kept.  The specs are checked first.

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
    return _generators([antidiagonals_of_spec(spec) for spec in specs])


def _generators(choices: list[list[Antidiagonal]]) -> Iterator[GeneratorProduct]:
    packing = _Packing([a for antidiags in choices for a in antidiags], len(choices))
    seen: set[frozenset[tuple[Cell, ...]]] = set()
    for combo in product(*choices):  # no combo when a spec has no choice
        factors = extract_factors(combo)
        key = frozenset(factor.cells for factor in factors)
        if key not in seen:
            seen.add(key)
            yield generator_product(combo, factors, packing)


def union_basis(specs: Sequence[RankConditionSpec]) -> list[GeneratorProduct]:
    """``union_generators(specs)`` as a list."""
    return list(union_generators(specs))


def basis_json_chunks(basis: Iterable[GeneratorProduct]) -> Iterator[str]:
    """The basis as JSON text, as ``json.dumps(..., indent=2)`` lays it out,
    one chunk per generator as it is read: ``{"factors": [{"rows": [...],
    "cols": [...]}, ...], "poly": polynomial_to_json(g.poly)}``, each
    factor's rows and columns ascending.  One ``json_writer`` writes the
    factors and each ``g.packed``, and each generator's frame around them
    is one f-string."""
    write = json_writer()
    opening = "[\n  "
    for g in basis:
        factors = _json_list([write(f, 6) for f in g.factors], 4, "[]")
        poly = write(g.packed, 4)
        yield f'{opening}{{\n    "factors": {factors},\n    "poly": {poly}\n  }}'
        opening = ",\n  "
    yield "[]" if opening == "[\n  " else "\n]"
