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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .ideals import RankConditionSpec, antidiagonals_of_spec
from .polynomials import (
    MONOMIAL_ONE,
    Antidiagonal,
    Cell,
    Monomial,
    Polynomial,
    _cell,
    polynomial_text,
    polynomial_to_json,
)


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
    groups.sort(key=lambda group: min(group, key=lambda c: (c.row, -c.col)))
    return groups


def _longest_chain(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Longest strictly-SW-stepping chain through the cells; on ties the
    sequence that is elementwise least by (row, col), i.e. most northwest.

    ``reach[c]`` is the length of the longest chain starting at c.  A cell
    can start or continue a maximal chain iff its reach matches the
    remaining length, and every cell that can follow the last one taken
    comes after it in (row, col) order, so the first such cell in one
    ascending pass is the least, which gives the lexicographically least
    optimal chain.
    """
    ordered = sorted(cells)
    reach: dict[Cell, int] = {}
    for cell in reversed(ordered):  # every cell SW of this one is reached
        reach[cell] = 1 + max(
            (n for c, n in reach.items() if c.row > cell.row and c.col < cell.col),
            default=0,
        )
    remaining = max(reach.values())
    chain: list[Cell] = []
    for cell in ordered:
        if reach[cell] == remaining and (
            not chain or (cell.row > chain[-1].row and cell.col < chain[-1].col)
        ):
            chain.append(cell)
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


def _json_list(items: Sequence[str], indent: int) -> str:
    """A list of already-encoded items, laid out as ``json.dumps(...,
    indent=2)`` lays out a list that opens at this indent."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def basis_json_text(basis: Sequence[GeneratorProduct]) -> str:
    """The text of ``json.dumps([g.to_json() for g in basis], indent=2)``,
    written directly, with no dict tree.

    ``indent`` makes ``json`` fall back to its pure-Python encoder, which
    costs more than building the basis.  Here every ``[row, col, exp]``
    block is encoded once per call and reused; a polynomial's coefficients
    are exact rationals, so ``str`` gives the JSON string body as is.
    """
    blocks: dict[tuple[int, int], tuple[int, int, str]] = {}
    items = []
    for g in basis:
        factors = [
            '{\n        "rows": '
            + _json_list([str(r) for r in sorted(f.rows())], 8)
            + ',\n        "cols": '
            + _json_list([str(c) for c in f.cols()], 8)
            + "\n      }"
            for f in g.factors
        ]
        terms = []
        for coeff, mono in g.poly.sorted_terms():
            key = mono.key
            variables = []
            for i in range(0, len(key) - 1, 2):
                pair = (key[i], key[i + 1])
                block = blocks.get(pair)
                if block is None:
                    row, col = _cell(pair[0])
                    exp = -pair[1]
                    block = blocks[pair] = (
                        row,
                        col,
                        _json_list((str(row), str(col), str(exp)), 10),
                    )
                variables.append(block)
            variables.sort()  # row-major ascending, as monomial_to_json lists them
            terms.append(
                f'{{\n        "coeff": "{coeff}",\n        "monomial": '
                + _json_list([block[2] for block in variables], 8)
                + "\n      }"
            )
        items.append(
            '{\n    "factors": '
            + _json_list(factors, 4)
            + ',\n    "poly": '
            + _json_list(terms, 4)
            + "\n  }"
        )
    return _json_list(items, 0)


def generator_product(
    antidiags: Sequence[Antidiagonal],
    factors: Sequence[Antidiagonal] | None = None,
    minors: dict[tuple[Cell, ...], dict[Monomial, int]] | None = None,
) -> GeneratorProduct:
    """Build the generator for one antidiagonal choice.

    ``factors`` is ``extract_factors(antidiags)``, passed by a caller that
    has it already.  ``minors`` maps a factor's cells to its determinant's
    terms, whose coefficients are ints; a caller that builds many
    generators passes one dict to every call, so each minor is expanded
    once.  Determinants and their products are integral, so the product is
    taken on ints, and the final Polynomial keeps them as ints.
    """
    if factors is None:
        factors = extract_factors(antidiags)
    if minors is None:
        minors = {}
    terms: dict[Monomial, int] = {MONOMIAL_ONE: 1}
    for factor in factors:
        det = minors.get(factor.cells)
        if det is None:
            det = minors[factor.cells] = factor.determinant().terms
        out: dict[Monomial, int] = {}
        for m1, c1 in terms.items():
            for m2, c2 in det.items():
                m = m1 * m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        terms = out  # a coefficient that cancels to 0 is dropped by Polynomial
    return GeneratorProduct(tuple(antidiags), tuple(factors), Polynomial(terms))


def union_basis(specs: Sequence[RankConditionSpec]) -> list[GeneratorProduct]:
    """Basis of the intersection of the specs' ideals (= the union of the
    schemes): one generator per choice of Fulton antidiagonals, one from
    each spec, deduplicated, the first choice in enumeration order kept.

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
                f"ambient sizes differ: {spec.ambient_n} vs {ambient}"
            )
    choices = [antidiagonals_of_spec(spec) for spec in specs]
    if any(not c for c in choices):
        return []
    minors: dict[tuple[Cell, ...], dict[Monomial, int]] = {}
    seen: set[frozenset[tuple[Cell, ...]]] = set()
    basis: list[GeneratorProduct] = []
    for combo in product(*choices):
        factors = extract_factors(combo)
        key = frozenset(factor.cells for factor in factors)
        if key not in seen:
            seen.add(key)
            basis.append(generator_product(combo, factors, minors))
    return basis
