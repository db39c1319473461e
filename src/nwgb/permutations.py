"""Partial permutations and their diagram combinatorics.

A partial permutation on n letters is written in one-line notation with
``*`` marking undefined entries, e.g. ``2 * 1``.  Its matrix has a 1 in
row i, column pi(i) for each defined entry.  From the matrix we read off
the rank matrix (ranks of northwest-justified submatrices), the Rothe
diagram, and the essential boxes that carry the defining rank conditions
of the associated determinantal scheme.
"""

from __future__ import annotations

import reprlib

from .polynomials import Cell, _Value, _is_int


class PartialPermutation(_Value):
    """One-line notation; ``images[i-1]`` is pi(i), or None if undefined."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int | None, ...]):
        if not isinstance(images, tuple):
            raise ValueError(f"images must be a tuple, got {reprlib.repr(images)}")
        n = len(images)
        if n == 0:
            raise ValueError("a permutation needs at least one entry")
        seen: set[int] = set()
        for value in images:
            if value is None:
                continue
            if not _is_int(value) or not 1 <= value <= n:
                raise ValueError(f"value {reprlib.repr(value)} outside 1..{n}")
            if value in seen:
                raise ValueError(f"duplicate value {value}")
            seen.add(value)
        super().__init__(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def one_line(self) -> str:
        return " ".join("*" if v is None else str(v) for v in self.images)


def parse_one_line(text: str) -> PartialPermutation:
    """Parse whitespace- or comma-separated one-line notation.

    Each token is a positive integer or ``*`` (the ASCII spelling of the
    undefined marker); n is the number of tokens.
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation")
    images: list[int | None] = []
    for token in tokens:
        if token in ("*", "⋆"):
            images.append(None)
        else:
            try:
                images.append(int(token))
            except ValueError:
                raise ValueError(f"bad token {reprlib.repr(token)} in one-line notation") from None
    return PartialPermutation(tuple(images))


def rank_matrix(p: PartialPermutation) -> tuple[tuple[int, ...], ...]:
    """Rows of ranks of the northwest submatrices: ``[i-1][j-1]`` counts
    the defined k <= i with pi(k) <= j."""
    n = p.n
    rows: list[tuple[int, ...]] = []
    prev = [0] * n
    for value in p.images:
        current = list(prev)
        if value is not None:
            for j in range(value - 1, n):
                current[j] += 1
        rows.append(tuple(current))
        prev = current
    return tuple(rows)


def _diagram_and_essential(
    ranks: tuple[tuple[int, ...], ...],
) -> tuple[frozenset[Cell], frozenset[tuple[Cell, int]]]:
    """The Rothe diagram and the essential set, read off the rank matrix.

    A diagram cell is one not crossed out by any 1 weakly above in its
    column or weakly left in its row: r(i, j) - r(i-1, j) counts the 1s
    weakly left of (i, j) and r(i, j) - r(i, j-1) those weakly above it, so
    both must be 0 (rank 0 outside the matrix).  An essential cell is a
    diagram cell with no diagram cell immediately south or east, paired
    with its rank.
    """
    n = len(ranks)
    padded = [(0,) * (n + 1)] + [(0,) + row for row in ranks]
    diagram = frozenset(
        Cell(i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if padded[i][j] == padded[i - 1][j] == padded[i][j - 1]
    )
    essential = frozenset(
        (cell, ranks[cell.row - 1][cell.col - 1])
        for cell in diagram
        if Cell(cell.row + 1, cell.col) not in diagram
        and Cell(cell.row, cell.col + 1) not in diagram
    )
    return diagram, essential


def rothe_diagram(p: PartialPermutation) -> frozenset[Cell]:
    """Cells not crossed out by any 1 weakly above or weakly left."""
    return _diagram_and_essential(rank_matrix(p))[0]


def essential_set(p: PartialPermutation) -> frozenset[tuple[Cell, int]]:
    """Diagram cells with no diagram cell immediately south or east, paired
    with their rank-matrix entry."""
    return _diagram_and_essential(rank_matrix(p))[1]


def inversions(p: PartialPermutation) -> int:
    """Pairs i < j with both entries defined and pi(i) > pi(j).

    For honest permutations this is the Coxeter length, which equals the
    number of Rothe diagram cells.
    """
    values = [v for v in p.images if v is not None]
    return sum(a > b for i, a in enumerate(values) for b in values[i + 1 :])


def diagram_text(p: PartialPermutation) -> str:
    """The text of ``nwgb diagram``: a grid with '1' for matrix ones, 'e'
    essential boxes, 'D' other diagram cells and '.' elsewhere, a blank
    line, the essential boxes with their ranks, and the rank matrix."""
    ranks = rank_matrix(p)
    diagram, essential = _diagram_and_essential(ranks)
    # a Cell is a named tuple, so the plain (i, j) below finds it
    marks = dict.fromkeys(diagram, "D")
    marks.update((cell, "e") for cell, _ in essential)
    lines = [
        " ".join("1" if value == j else marks.get((i, j), ".") for j in range(1, p.n + 1))
        for i, value in enumerate(p.images, 1)
    ]
    boxes = "; ".join(f"({c.row},{c.col}) rank {r}" for c, r in sorted(essential))
    lines += ["", f"essential: {boxes or 'none'}", "rank matrix:"]
    lines += (" ".join(map(str, row)) for row in ranks)
    return "\n".join(lines) + "\n"


def diagram_json(p: PartialPermutation) -> dict:
    """Diagram, essential boxes and rank matrix in the documented schema."""
    ranks = rank_matrix(p)
    diagram, essential = _diagram_and_essential(ranks)
    return {
        "n": p.n,
        "permutation": p.one_line(),
        "diagram": {"cells": [[c.row, c.col] for c in sorted(diagram)]},
        "essential": [
            {"cell": [cell.row, cell.col], "rank": rank} for cell, rank in sorted(essential)
        ],
        "rank_matrix": [list(row) for row in ranks],
    }
