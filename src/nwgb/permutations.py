"""Partial permutations and their diagram combinatorics.

A partial permutation on n letters is written in one-line notation with
``*`` marking undefined entries, e.g. ``2 * 1``.  Its matrix has a 1 in
row i, column pi(i) for each defined entry.  From the matrix we read off
the rank matrix (ranks of northwest-justified submatrices), the Rothe
diagram, and the essential boxes that carry the defining rank conditions
of the associated determinantal scheme.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .polynomials import Cell


@dataclass(frozen=True)
class PartialPermutation:
    """One-line notation; ``images[i-1]`` is pi(i), or None if undefined."""

    images: tuple[int | None, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("a permutation needs at least one entry")
        seen: set[int] = set()
        for value in self.images:
            if value is None:
                continue
            if not isinstance(value, int) or not 1 <= value <= n:
                raise ValueError(f"value {value!r} outside 1..{n}")
            if value in seen:
                raise ValueError(f"duplicate value {value}")
            seen.add(value)

    @property
    def n(self) -> int:
        return len(self.images)

    def image(self, row: int) -> int | None:
        """pi(row), 1-based, or None when undefined."""
        return self.images[row - 1]

    def preimage(self, col: int) -> int | None:
        for row, value in enumerate(self.images, start=1):
            if value == col:
                return row
        return None

    def one_line(self) -> str:
        return " ".join("*" if v is None else str(v) for v in self.images)

    def __str__(self) -> str:
        return self.one_line()


def parse_one_line(text: str) -> PartialPermutation:
    """Parse whitespace- or comma-separated one-line notation.

    Each token is a positive integer or ``*`` (the ASCII spelling of the
    undefined marker); n is the number of tokens.
    """
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
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
                raise ValueError(f"bad token {token!r} in one-line notation") from None
    return PartialPermutation(tuple(images))


@dataclass(frozen=True)
class RankMatrix:
    """Grid of ranks of northwest-justified submatrices of the 0/1 matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("rank matrix must be square")
        for i in range(n):
            for j in range(n):
                r = self.entries[i][j]
                if not 0 <= r <= min(i + 1, j + 1):
                    raise ValueError(f"rank {r} at ({i + 1},{j + 1}) out of range")
                if i and not 0 <= r - self.entries[i - 1][j] <= 1:
                    raise ValueError("ranks must increase by 0 or 1 down a column")
                if j and not 0 <= r - self.entries[i][j - 1] <= 1:
                    raise ValueError("ranks must increase by 0 or 1 along a row")

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, row: int, col: int) -> int:
        """Rank of the northwest row x col submatrix, 1-based indices."""
        return self.entries[row - 1][col - 1]


def rank_matrix(p: PartialPermutation) -> RankMatrix:
    """Entry (i,j) counts defined k <= i with pi(k) <= j."""
    n = p.n
    rows: list[tuple[int, ...]] = []
    prev = [0] * n
    for i in range(1, n + 1):
        current = list(prev)
        value = p.image(i)
        if value is not None:
            for j in range(value, n + 1):
                current[j - 1] += 1
        rows.append(tuple(current))
        prev = current
    return RankMatrix(tuple(rows))


def rothe_diagram(p: PartialPermutation) -> frozenset[Cell]:
    """Cells not crossed out by any 1 weakly above in its column or weakly
    left in its row."""
    n = p.n
    cells: set[Cell] = set()
    for i in range(1, n + 1):
        value = p.image(i)
        row_stop = value if value is not None else n + 1
        for j in range(1, row_stop):
            k = p.preimage(j)
            if k is None or k > i:
                cells.add(Cell(i, j))
    return frozenset(cells)


def essential_set(p: PartialPermutation) -> frozenset[tuple[Cell, int]]:
    """Diagram cells with no diagram cell immediately south or east, paired
    with their rank-matrix entry."""
    diagram = rothe_diagram(p)
    ranks = rank_matrix(p)
    out = set()
    for cell in diagram:
        if Cell(cell.row + 1, cell.col) in diagram:
            continue
        if Cell(cell.row, cell.col + 1) in diagram:
            continue
        out.add((cell, ranks.entry(cell.row, cell.col)))
    return frozenset(out)


def inversions(p: PartialPermutation) -> int:
    """Pairs i < j with both entries defined and pi(i) > pi(j).

    For honest permutations this is the Coxeter length, which equals the
    number of Rothe diagram cells.
    """
    values = [v for v in p.images if v is not None]
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )


def diagram_ascii(p: PartialPermutation) -> str:
    """Grid with '1' for matrix ones, 'e' essential boxes, 'D' other diagram
    cells and '.' elsewhere."""
    diagram = rothe_diagram(p)
    essential = {cell for cell, _ in essential_set(p)}
    lines = []
    for i in range(1, p.n + 1):
        symbols = []
        for j in range(1, p.n + 1):
            cell = Cell(i, j)
            if p.image(i) == j:
                symbols.append("1")
            elif cell in essential:
                symbols.append("e")
            elif cell in diagram:
                symbols.append("D")
            else:
                symbols.append(".")
        lines.append(" ".join(symbols))
    return "\n".join(lines)


def diagram_json(p: PartialPermutation) -> dict:
    """Diagram, essential boxes and rank matrix in the documented schema."""
    ranks = rank_matrix(p)
    return {
        "n": p.n,
        "permutation": p.one_line(),
        "diagram": {"cells": [[c.row, c.col] for c in sorted(rothe_diagram(p))]},
        "essential": [
            {"cell": [cell.row, cell.col], "rank": rank}
            for cell, rank in sorted(essential_set(p))
        ],
        "rank_matrix": [list(row) for row in ranks.entries],
    }
