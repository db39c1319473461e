"""Exact sparse polynomials in the entries of a generic matrix.

Variables are the entries m[i,j] of a square matrix of indeterminates,
identified by their (row, col) cell.  Coefficients are exact rationals, so
polynomial equality is reliable.  There is one monomial order, the
antidiagonal lex order on the variable sequence

    t > m[1,n] > m[1,n-1] > ... > m[1,1] > m[2,n] > ... > m[n,1]

(read the matrix top to bottom, right to left within each row; the
elimination variable t comes first).  Its key property is that the
leading term of any minor of the generic matrix is the product of the
entries on the minor's antidiagonal; everything downstream relies on
this.  Ranking t ahead of every matrix entry also makes it an
elimination order for t, which is what ideal intersection needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_permutations
from math import inf
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class Cell(NamedTuple):
    """1-based matrix position; row 1 is the top row, column 1 the leftmost."""

    row: int
    col: int


# Slot for the extra variable used by elimination (classically called t).
# Row 0 places it ahead of every matrix entry in the variable order.
AUX = Cell(0, 0)


def _significance(cell: Cell) -> tuple[int, int]:
    # Lower value = earlier (more significant) variable in the lex order.
    return (cell.row, -cell.col)


@dataclass(frozen=True)
class Monomial:
    """Product of variables with positive exponents.

    ``exps`` is kept sorted by variable significance (most significant
    first) so order comparisons can walk it directly.  Build instances
    through :meth:`make` or :meth:`from_cells`, which canonicalize.
    """

    exps: tuple[tuple[Cell, int], ...] = ()

    @staticmethod
    def make(exponents: Mapping[Cell, int] | Iterable[tuple[Cell, int]]) -> "Monomial":
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        merged: dict[Cell, int] = {}
        for cell, exp in items:
            if exp < 0:
                raise ValueError(f"negative exponent for {cell}")
            if exp:
                cell = Cell(*cell)
                merged[cell] = merged.get(cell, 0) + exp
        ordered = sorted(merged.items(), key=lambda item: _significance(item[0]))
        return Monomial(tuple(ordered))

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> "Monomial":
        """Product of the given cells, one factor per occurrence."""
        return Monomial.make([(cell, 1) for cell in cells])

    def degree(self) -> int:
        return sum(exp for _, exp in self.exps)

    def uses(self, cell: Cell) -> bool:
        return any(c == cell for c, _ in self.exps)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.exps:
            return self
        if not self.exps:
            return other
        merged = dict(self.exps)
        for c, e in other.exps:
            merged[c] = merged.get(c, 0) + e
        ordered = sorted(merged.items(), key=lambda item: _significance(item[0]))
        return Monomial(tuple(ordered))

    def divides(self, other: "Monomial") -> bool:
        have = dict(other.exps)
        return all(have.get(c, 0) >= e for c, e in self.exps)

    def __floordiv__(self, divisor: "Monomial") -> "Monomial":
        left = dict(self.exps)
        for c, e in divisor.exps:
            rest = left.get(c, 0) - e
            if rest < 0:
                raise ValueError(f"{divisor} does not divide {self}")
            if rest:
                left[c] = rest
            else:
                left.pop(c, None)
        ordered = sorted(left.items(), key=lambda item: _significance(item[0]))
        return Monomial(tuple(ordered))

    def lcm(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for c, e in other.exps:
            merged[c] = max(merged.get(c, 0), e)
        ordered = sorted(merged.items(), key=lambda item: _significance(item[0]))
        return Monomial(tuple(ordered))

    def __repr__(self) -> str:
        return monomial_text(self) or "1"


MONOMIAL_ONE = Monomial()

_KEY_END = ((inf, 0), 0)


@lru_cache(maxsize=None)
def sort_key(mono: Monomial) -> tuple:
    """Key with the property: a > b in the order iff sort_key(a) < sort_key(b).

    So ``min`` picks the leading monomial and an ascending sort lists terms
    largest first.  The terminal sentinel makes prefix-support cases compare
    correctly (extra trailing variables mean a larger monomial).
    """
    parts = [(_significance(cell), -exp) for cell, exp in mono.exps]
    parts.append(_KEY_END)
    return tuple(parts)


def compare(a: Monomial, b: Monomial) -> int:
    """-1, 0 or 1 as a is smaller than, equal to or greater than b."""
    ka = sort_key(a)
    kb = sort_key(b)
    if ka == kb:
        return 0
    return 1 if ka < kb else -1


class Polynomial:
    """Sparse polynomial with Fraction coefficients, immutable by convention.

    ``terms`` maps monomials to nonzero coefficients; the zero polynomial
    is the empty mapping.  The leading term is found on first request and
    kept, which relies on ``terms`` never changing after construction.
    """

    __slots__ = ("terms", "_lead")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                value = Fraction(coeff)
                if value:
                    clean[mono] = value
        self.terms = clean
        self._lead: tuple[Fraction, Monomial] | None = None

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial":
        return Polynomial({MONOMIAL_ONE: value})

    @staticmethod
    def variable(cell: Cell) -> "Polynomial":
        return Polynomial({Monomial.make({cell: 1}): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial(out)

    def __rmul__(self, other: "int | Fraction") -> "Polynomial":
        return self.__mul__(other)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(m.degree() for m in self.terms)

    def uses(self, cell: Cell) -> bool:
        return any(m.uses(cell) for m in self.terms)

    def leading_term(self) -> tuple[Fraction, Monomial]:
        if self._lead is None:
            if not self.terms:
                raise ValueError("the zero polynomial has no leading term")
            mono = min(self.terms, key=sort_key)
            self._lead = (self.terms[mono], mono)
        return self._lead

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[1]

    def monic(self) -> "Polynomial":
        coeff, _ = self.leading_term()
        if coeff == 1:
            return self
        return Polynomial({m: c / coeff for m, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Fraction, Monomial]]:
        """Terms listed largest monomial first (canonical serialization order)."""
        return [(self.terms[m], m) for m in sorted(self.terms, key=sort_key)]

    def evaluate(self, values: Mapping[Cell, int | Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for cell, exp in mono.exps:
                term *= Fraction(values[cell]) ** exp
            total += term
        return total

    def __repr__(self) -> str:
        return polynomial_text(self)


@dataclass(frozen=True)
class Antidiagonal:
    """Cells read northeast to southwest.

    Rows strictly increase and columns strictly decrease along ``cells``,
    so there is one cell per row and per column and the set is nonempty.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("an antidiagonal needs at least one cell")
        object.__setattr__(self, "cells", tuple(Cell(*c) for c in self.cells))
        for cell in self.cells:
            if cell.row < 1 or cell.col < 1:
                raise ValueError(f"cell {cell} is outside the matrix")
        for a, b in zip(self.cells, self.cells[1:]):
            if not (b.row > a.row and b.col < a.col):
                raise ValueError(
                    f"cells must step strictly south and strictly west, got {a} -> {b}"
                )

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> "Antidiagonal":
        """Sort arbitrary cells into NE-to-SW order (must form a valid chain)."""
        ordered = sorted(set(Cell(*c) for c in cells))
        return Antidiagonal(tuple(ordered))

    def rows(self) -> tuple[int, ...]:
        return tuple(c.row for c in self.cells)

    def cols(self) -> tuple[int, ...]:
        return tuple(sorted(c.col for c in self.cells))

    def determinant(self) -> Polynomial:
        return determinant(self.rows(), self.cols())

    def monomial(self) -> Monomial:
        return Monomial.from_cells(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells


def _check_minor(rows: Iterable[int], cols: Iterable[int], ambient_n: int | None):
    r = sorted(set(rows))
    c = sorted(set(cols))
    if not r:
        raise ValueError("a minor needs at least one row and column")
    if len(r) != len(c):
        raise ValueError(f"row and column counts differ: {len(r)} vs {len(c)}")
    if r[0] < 1 or c[0] < 1:
        raise ValueError("row and column indices start at 1")
    if ambient_n is not None and (r[-1] > ambient_n or c[-1] > ambient_n):
        raise ValueError(f"indices exceed the ambient {ambient_n}x{ambient_n} grid")
    return r, c


def _parity(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def determinant(
    rows: Iterable[int], cols: Iterable[int], *, ambient_n: int | None = None
) -> Polynomial:
    """Determinant of the generic submatrix on the given rows and columns.

    Expanded as the full signed sum over permutations (the instances here
    are small, so clarity wins over a smarter expansion).
    """
    r, c = _check_minor(rows, cols, ambient_n)
    k = len(r)
    terms: dict[Monomial, Fraction] = {}
    for perm in _all_permutations(range(k)):
        mono = Monomial.from_cells(Cell(r[i], c[perm[i]]) for i in range(k))
        terms[mono] = terms.get(mono, Fraction(0)) + _parity(perm)
    return Polynomial(terms)


def antidiagonal_of(
    rows: Iterable[int], cols: Iterable[int], *, ambient_n: int | None = None
) -> Antidiagonal:
    """The antidiagonal cells of the minor on the given rows and columns."""
    r, c = _check_minor(rows, cols, ambient_n)
    k = len(r)
    return Antidiagonal(tuple(Cell(r[i], c[k - 1 - i]) for i in range(k)))


# ---------------------------------------------------------------------------
# serialization

def monomial_text(mono: Monomial) -> str:
    """Variables joined by '*', row-major ascending; empty string for 1."""
    parts = []
    for cell, exp in sorted(mono.exps):
        name = f"m[{cell.row},{cell.col}]" if cell != AUX else "t"
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def polynomial_text(f: Polynomial) -> str:
    """Canonical text form, e.g. ``-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2]``."""
    if f.is_zero():
        return "0"
    rendered = []
    for coeff, mono in f.sorted_terms():
        body = monomial_text(mono)
        rendered.append(f"{coeff}*{body}" if body else f"{coeff}")
    return " + ".join(rendered)


def monomial_to_json(mono: Monomial) -> list[list[int]]:
    return [[cell.row, cell.col, exp] for cell, exp in sorted(mono.exps)]


def monomial_from_json(data: Iterable[Sequence[int]]) -> Monomial:
    return Monomial.make([(Cell(int(r), int(c)), int(e)) for r, c, e in data])


def polynomial_to_json(f: Polynomial) -> list[dict]:
    return [
        {"coeff": str(coeff), "monomial": monomial_to_json(mono)}
        for coeff, mono in f.sorted_terms()
    ]


def polynomial_from_json(data: Iterable[Mapping]) -> Polynomial:
    terms: dict[Monomial, Fraction] = {}
    for entry in data:
        mono = monomial_from_json(entry["monomial"])
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(entry["coeff"])
    return Polynomial(terms)
