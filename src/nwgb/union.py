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

A stripped chain steps strictly SW by construction, so each factor is built
without the checks ``Antidiagonal(...)`` makes; the tests run those checks
on every factor instead.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .ideals import RankConditionSpec, antidiagonals_of_spec
from .polynomials import Antidiagonal, Cell, Polynomial, json_writer, polynomial_text


def _components(colors: Sequence[Antidiagonal], alive: set[Cell]) -> list[set[Cell]]:
    """Connected components of the surviving cells, sorted by their NE-most
    cell, by (row, col).

    Consecutive survivors of a color are joined, so each color's survivors
    lie in one component, and a component is the union of the colors that
    share a surviving cell.
    """
    groups: list[set[Cell]] = []
    for antidiag in colors:
        merged = alive.intersection(antidiag.cells)
        if not merged:
            continue
        apart = []
        for group in groups:
            if merged.isdisjoint(group):
                apart.append(group)
            else:
                merged |= group
        groups = apart + [merged]
    # pick the NE-most cell by (row, -col), then compare those cells as
    # (row, col): sorting on (row, -col) alone orders a row's groups the
    # other way
    if len(groups) > 1:
        groups.sort(key=lambda group: min(group, key=lambda c: (c.row, -c.col)))
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
    what is left of that component.
    """

    def strip(alive: set[Cell]) -> list[Antidiagonal]:
        factors: list[Antidiagonal] = []
        for component in _components(antidiags, alive):
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


@dataclass(frozen=True)
class GeneratorProduct:
    """One basis element: the input antidiagonals, the extracted factors,
    and the expanded product of their determinants."""

    inputs: tuple[Antidiagonal, ...]
    factors: tuple[Antidiagonal, ...]
    poly: Polynomial

    def __repr__(self) -> str:
        return polynomial_text(self.poly)


def generator_product(
    antidiags: Sequence[Antidiagonal],
    factors: Sequence[Antidiagonal] | None = None,
    minors: dict[tuple[Cell, ...], Polynomial] | None = None,
) -> GeneratorProduct:
    """Build the generator for one antidiagonal choice: the product of its
    factors' determinants, or the constant 1 when there are no factors.

    ``factors`` is ``extract_factors(antidiags)``, passed by a caller that
    has it already.  ``minors`` maps a factor's cells to its determinant; a
    caller that builds many generators passes one dict to every call, so
    each minor is expanded once.  The product starts from the first
    determinant, not from 1, so no term is multiplied by 1.
    """
    if factors is None:
        factors = extract_factors(antidiags)
    if minors is None:
        minors = {}
    poly = None
    for factor in factors:
        det = minors.get(factor.cells)
        if det is None:
            det = minors[factor.cells] = factor.determinant()
        poly = det if poly is None else poly * det
    if poly is None:
        poly = Polynomial.constant(1)
    return GeneratorProduct(tuple(antidiags), tuple(factors), poly)


def union_generators(specs: Sequence[RankConditionSpec]) -> Iterator[GeneratorProduct]:
    """Basis of the intersection of the specs' ideals (= the union of the
    schemes), one generator at a time as it is read: one per choice of
    Fulton antidiagonals, one from each spec, deduplicated, the first
    choice in enumeration order kept.  The specs are checked first.

    A generator is the product of its factors' determinants, and generic
    minors are irreducible and no two are scalar multiples, so two choices
    give the same polynomial exactly when they extract the same factors.
    The factors partition the occupied cells, so they are distinct and
    their set is the key; only a new key's product is built.

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
    minors: dict[tuple[Cell, ...], Polynomial] = {}
    seen: set[frozenset[tuple[Cell, ...]]] = set()
    for combo in product(*choices):  # no combo when a spec has no choice
        factors = extract_factors(combo)
        key = frozenset(factor.cells for factor in factors)
        if key not in seen:
            seen.add(key)
            yield generator_product(combo, factors, minors)


def union_basis(specs: Sequence[RankConditionSpec]) -> list[GeneratorProduct]:
    """``union_generators(specs)`` as a list."""
    return list(union_generators(specs))


def basis_json_chunks(basis: Iterable[GeneratorProduct]) -> Iterator[str]:
    """The basis as JSON text, as ``json.dumps(..., indent=2)`` lays it out,
    one chunk per generator as it is read: ``{"factors": [{"rows": [...],
    "cols": [...]}, ...], "poly": polynomial_to_json(g.poly)}``, each
    factor's rows and columns ascending, all from one ``json_writer``."""
    write = json_writer()
    opening = "[\n  "
    for g in basis:
        yield opening + write({"factors": list(g.factors), "poly": g.poly}, 2)
        opening = ",\n  "
    yield "[]" if opening == "[\n  " else "\n]"
