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

After a chain is removed, surviving dots of each color that have become
consecutive are treated as adjacent again (segments contract over removed
cells), and the leftover diagram is split into components afresh.  This is
the reading that reproduces the worked examples, e.g. a lone far-south
cell of a mostly-consumed antidiagonal ends up as its own 1 x 1 factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .ideals import RankConditionSpec, antidiagonals_of_spec
from .polynomials import (
    Antidiagonal,
    Cell,
    Polynomial,
    polynomial_text,
    polynomial_to_json,
)


def _split_cells(
    colors: Sequence[Antidiagonal], alive: Iterable[Cell]
) -> list[frozenset[Cell]]:
    """Connected components of the surviving cells.

    Edges join cells that are consecutive among the surviving cells of any
    one color; a shared cell is a single vertex, so co-location connects
    automatically.  Components are sorted by their NE-most cell, by (row,
    col).
    """
    alive_set = set(alive)
    adjacency: dict[Cell, set[Cell]] = {cell: set() for cell in alive_set}
    for antidiag in colors:
        survivors = [c for c in antidiag.cells if c in alive_set]
        for a, b in zip(survivors, survivors[1:]):
            adjacency[a].add(b)
            adjacency[b].add(a)
    components: list[frozenset[Cell]] = []
    seen: set[Cell] = set()
    for cell in sorted(alive_set):
        if cell in seen:
            continue
        stack = [cell]
        group: set[Cell] = set()
        while stack:
            current = stack.pop()
            if current in group:
                continue
            group.add(current)
            stack.extend(adjacency[current] - group)
        seen.update(group)
        components.append(frozenset(group))

    def ne(cells: frozenset[Cell]) -> tuple[int, int]:
        cell = min(cells, key=lambda c: (c.row, -c.col))
        return (cell.row, cell.col)

    components.sort(key=ne)
    return components


def _longest_chain(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Longest strictly-SW-stepping chain through the cells; on ties the
    sequence that is elementwise least by (row, col), i.e. most northwest.

    ``reach[c]`` is the length of the longest chain starting at c.  The
    greedy reconstruction is exact: a cell can start/continue a maximal
    chain iff its reach matches the remaining length, and picking the
    (row, col)-least such cell at each step gives the lexicographically
    least optimal chain.
    """
    ordered = sorted(cells)
    reach: dict[Cell, int] = {}
    for cell in sorted(ordered, key=lambda c: (-c.row, c.col)):
        best = 0
        for other in ordered:
            if other.row > cell.row and other.col < cell.col:
                best = max(best, reach[other])
        reach[cell] = 1 + best
    remaining = max(reach.values())
    chain: list[Cell] = []
    previous: Cell | None = None
    while remaining:
        candidates = [
            c
            for c in ordered
            if reach[c] == remaining
            and (previous is None or (c.row > previous.row and c.col < previous.col))
        ]
        previous = min(candidates)
        chain.append(previous)
        remaining -= 1
    return tuple(chain)


def extract_factors(antidiags: Sequence[Antidiagonal]) -> list[Antidiagonal]:
    """Overlay the antidiagonals and strip longest chains until no cell is
    left.

    For each component of the surviving cells, in NE-cell order, the
    component's longest chain comes first, then recursively the factors of
    what is left of that component.
    """

    def strip(alive: Iterable[Cell]) -> list[Antidiagonal]:
        factors: list[Antidiagonal] = []
        for component in _split_cells(antidiags, alive):
            chain = _longest_chain(component)
            factors.append(Antidiagonal(chain))
            factors.extend(strip(component.difference(chain)))
        return factors

    return strip({cell for antidiag in antidiags for cell in antidiag.cells})


@dataclass(frozen=True)
class GeneratorProduct:
    """One basis element: the input antidiagonals, the extracted factors,
    and the expanded product of their determinants."""

    inputs: tuple[Antidiagonal, ...]
    factors: tuple[Antidiagonal, ...]
    poly: Polynomial

    def factor_text(self) -> str:
        """Bracketed-determinant display, one '|...|' block per factor."""
        blocks = []
        for factor in self.factors:
            rows = factor.rows()
            cols = factor.cols()
            body = " ; ".join(
                " ".join(f"m[{r},{c}]" for c in cols) for r in sorted(rows)
            )
            blocks.append(f"|{body}|")
        return " ".join(blocks)

    def to_json(self) -> dict:
        return {
            "factors": [
                {"rows": list(sorted(f.rows())), "cols": list(f.cols())}
                for f in self.factors
            ],
            "poly": polynomial_to_json(self.poly),
        }

    def __repr__(self) -> str:
        return polynomial_text(self.poly)


def generator_product(antidiags: Sequence[Antidiagonal]) -> GeneratorProduct:
    """Build the generator for one antidiagonal choice."""
    factors = extract_factors(antidiags)
    poly = Polynomial.constant(1)
    for factor in factors:
        poly = poly * factor.determinant()
    return GeneratorProduct(tuple(antidiags), tuple(factors), poly)


def union_basis(specs: Sequence[RankConditionSpec]) -> list[GeneratorProduct]:
    """Basis of the intersection of the specs' ideals (= the union of the
    schemes): one generator per choice of Fulton antidiagonals, one from
    each spec, deduplicated by polynomial equality.

    A spec with no generators imposes nothing, so the union is the whole
    space and the basis is empty (the zero ideal).
    """
    if not specs:
        raise ValueError("need at least one spec")
    ambient = specs[0].ambient_n
    for spec in specs:
        if spec.ambient_n != ambient:
            raise ValueError(
                f"ambient sizes differ: {spec.ambient_n} vs {ambient}"
            )
    choices = [antidiagonals_of_spec(spec) for spec in specs]
    if any(not c for c in choices):
        return []
    seen: set[Polynomial] = set()
    basis: list[GeneratorProduct] = []
    for combo in product(*choices):
        candidate = generator_product(combo)
        if candidate.poly not in seen:
            seen.add(candidate.poly)
            basis.append(candidate)
    return basis
