"""Exact sparse polynomials in the entries of a generic matrix.

Variables are the entries m[i,j] of a square matrix of indeterminates,
identified by their (row, col) cell.  Coefficients are exact rationals,
an ``int`` when integral and a ``Fraction`` otherwise, so polynomial
equality is reliable and integral arithmetic (minors, their products, the
elimination ideals of the oracle) runs on ints.  There is one monomial
order, the antidiagonal lex order on the variable sequence

    t > m[1,n] > m[1,n-1] > ... > m[1,1] > m[2,n] > ... > m[n,1]

(read the matrix top to bottom, right to left within each row; the
elimination variable t comes first).  Its key property is that the
leading term of any minor of the generic matrix is the product of the
entries on the minor's antidiagonal; everything downstream relies on
this.  Ranking t ahead of every matrix entry also makes it an
elimination order for t, which is what ideal intersection needs.

A monomial is stored packed, as its own sort key: a flat tuple of ints
``(v0, -e0, v1, -e1, ..., END)``.  Each variable is one integer code
``v = (row << 16) - col`` (t is 0), so ascending codes list the variables
most significant first; the codes ascend along the tuple, and ``END``
closes it.  Plain tuple comparison of two keys is then the order, reversed:
a > b exactly when ``a.key < b.key``.  Next to the key a monomial keeps
its hash, its degree and a support mask, one bit per variable over one
global variable index, so a failed divisibility test costs one AND.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_permutations
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class Cell(NamedTuple):
    """1-based matrix position; row 1 is the top row, column 1 the leftmost."""

    row: int
    col: int


# Slot for the extra variable used by elimination (classically called t).
# Row 0 places it ahead of every matrix entry in the variable order.
AUX = Cell(0, 0)

_COL_BITS = 16
_COL_LIMIT = 1 << _COL_BITS
_ROW_LIMIT = 1 << 32
_END = 1 << 62  # closes every key; above the code of every variable

# variable code -> its bit in a support mask, filled in by _bit; the
# index is the pairing (r, c) -> (r+c)(r+c+1)/2 + c, so every cell has its
# own bit whatever the order in which cells are first seen
_BITS: dict[int, int] = {}


def _code(cell: Iterable[int]) -> int:
    """The variable code of a cell: ascending codes are descending
    significance in the order."""
    row, col = cell
    if not (0 <= row < _ROW_LIMIT and 0 <= col < _COL_LIMIT):
        raise ValueError(f"cell {tuple(cell)} is outside the supported range")
    return (row << _COL_BITS) - col


def _cell(code: int) -> Cell:
    row = (code + _COL_LIMIT - 1) >> _COL_BITS
    return Cell(row, (row << _COL_BITS) - code)


def _bit(code: int) -> int:
    bit = _BITS.get(code)
    if bit is None:
        row, col = _cell(code)
        diagonal = row + col
        bit = _BITS[code] = 1 << ((diagonal * (diagonal + 1) >> 1) + col)
    return bit


class Monomial:
    """Product of variables with positive exponents, packed (see the module
    docstring).

    ``key`` is the packed exponent vector and sorts as :func:`sort_key`;
    ``mask`` has the bit of every variable the monomial uses.  Both, the
    hash and the degree are computed once, at construction.  Build
    instances through :meth:`from_cells`, which canonicalizes;
    ``Monomial()`` is 1.  ``*``, ``//``, :meth:`lcm` and :meth:`divides`
    merge the two sorted keys.
    """

    __slots__ = ("key", "mask", "_degree", "_hash")

    def __init__(self, key: tuple[int, ...] = (_END,), mask: int = 0, degree: int = 0):
        self.key = key
        self.mask = mask
        self._degree = degree
        self._hash = hash(key)

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> "Monomial":
        """Product of the given cells, one factor per occurrence: a cell
        given k times is raised to the power k."""
        return _from_codes(sorted(_code(cell) for cell in cells))

    def degree(self) -> int:
        return self._degree

    def uses(self, cell: Cell) -> bool:
        return bool(self.mask & _bit(_code(cell)))

    def is_squarefree(self) -> bool:
        return self._degree == len(self.key) >> 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: "Monomial") -> "Monomial":
        a = self.key
        b = other.key
        if len(b) == 1:
            return self
        if len(a) == 1:
            return other
        # one support wholly ahead of the other: concatenate
        if a[-3] < b[0]:
            key = a[:-1] + b
        elif b[-3] < a[0]:
            key = b[:-1] + a
        else:
            out: list[int] = []
            i = j = 0
            x = a[0]
            y = b[0]
            while x != y or x != _END:
                if x < y:
                    out += (x, a[i + 1])
                    i += 2
                    x = a[i]
                elif y < x:
                    out += (y, b[j + 1])
                    j += 2
                    y = b[j]
                else:
                    out += (x, a[i + 1] + b[j + 1])
                    i += 2
                    j += 2
                    x = a[i]
                    y = b[j]
            out.append(_END)
            key = tuple(out)
        return Monomial(key, self.mask | other.mask, self._degree + other._degree)

    def divides(self, other: "Monomial") -> bool:
        if self.mask & ~other.mask:
            return False
        a = self.key
        if self._degree == len(a) >> 1:
            return True  # squarefree, and its support lies in other's
        b = other.key
        j = 0
        for i in range(0, len(a) - 1, 2):
            code = a[i]
            while b[j] != code:
                j += 2
            if b[j + 1] > a[i + 1]:
                return False
        return True

    def __floordiv__(self, divisor: "Monomial") -> "Monomial":
        if divisor.mask & ~self.mask:
            raise ValueError(f"{divisor} does not divide {self}")
        a = self.key
        b = divisor.key
        mask = self.mask
        out: list[int] = []
        j = 0
        y = b[0]
        for i in range(0, len(a) - 1, 2):
            x = a[i]
            if x != y:
                out += (x, a[i + 1])
                continue
            rest = a[i + 1] - b[j + 1]  # minus the exponent left over
            if rest > 0:
                raise ValueError(f"{divisor} does not divide {self}")
            if rest:
                out += (x, rest)
            else:
                mask ^= _bit(x)
            j += 2
            y = b[j]
        out.append(_END)
        return Monomial(tuple(out), mask, self._degree - divisor._degree)

    def lcm(self, other: "Monomial") -> "Monomial":
        a = self.key
        b = other.key
        if not self.mask & other.mask:
            return self * other
        out: list[int] = []
        degree = self._degree + other._degree
        i = j = 0
        x = a[0]
        y = b[0]
        while x != y or x != _END:
            if x < y:
                out += (x, a[i + 1])
                i += 2
                x = a[i]
            elif y < x:
                out += (y, b[j + 1])
                j += 2
                y = b[j]
            else:
                ea = a[i + 1]
                eb = b[j + 1]
                if ea < eb:  # a's power is the higher one
                    out += (x, ea)
                    degree += eb
                else:
                    out += (x, eb)
                    degree += ea
                i += 2
                j += 2
                x = a[i]
                y = b[j]
        out.append(_END)
        return Monomial(tuple(out), self.mask | other.mask, degree)

    def __repr__(self) -> str:
        return monomial_text(self) or "1"


def _from_codes(codes: list[int]) -> Monomial:
    """The product of the variables with these codes, sorted ascending;
    a repeated code is a higher power."""
    key: list[int] = []
    mask = 0
    last = None
    for code in codes:
        if code == last:
            key[-1] -= 1
        else:
            key += (code, -1)
            mask |= _bit(code)
            last = code
    key.append(_END)
    return Monomial(tuple(key), mask, len(codes))


MONOMIAL_ONE = Monomial()

_key_of = attrgetter("key")


@lru_cache(maxsize=None)
def sort_key(mono: Monomial) -> tuple:
    """Key with the property: a > b in the order iff sort_key(a) < sort_key(b).

    So ``min`` picks the leading monomial and an ascending sort lists terms
    largest first.  It is the key the monomial carries, ``mono.key``; the
    package reads that directly, so this cache (kept for the benchmark's
    traced run, which reads ``cache_info()``) holds only what outside
    callers ask for.
    """
    return mono.key


def compare(a: Monomial, b: Monomial) -> int:
    """-1, 0 or 1 as a is smaller than, equal to or greater than b."""
    ka = a.key
    kb = b.key
    if ka == kb:
        return 0
    return 1 if ka < kb else -1


class Polynomial:
    """Sparse polynomial with exact coefficients, immutable by convention.

    ``terms`` maps monomials to nonzero coefficients; the zero polynomial
    is the empty mapping.  A coefficient is stored as an ``int`` when it is
    integral and as a ``Fraction`` otherwise, never as a float; the
    constructor converts what it is given (a float exactly, as ``Fraction``
    does).  ``3 == Fraction(3)``, both hash and print alike, so the stored
    type changes no comparison and no output.  The leading term is found on
    first request and kept, which relies on ``terms`` never changing after
    construction.
    """

    __slots__ = ("terms", "_lead")

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    if type(coeff) is not Fraction:
                        coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    clean[mono] = coeff
        self.terms = clean
        self._lead: tuple[int | Fraction, Monomial] | None = None

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial":
        return Polynomial({MONOMIAL_ONE: value})

    @staticmethod
    def variable(cell: Cell) -> "Polynomial":
        return Polynomial({Monomial.from_cells([cell]): 1})

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
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __mul__(self, other: "Polynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial(out)

    def __rmul__(self, other: "int | Fraction") -> "Polynomial":
        return self.__mul__(other)

    def leading_term(self) -> tuple[int | Fraction, Monomial]:
        if self._lead is None:
            if not self.terms:
                raise ValueError("the zero polynomial has no leading term")
            mono = min(self.terms, key=_key_of)
            self._lead = (self.terms[mono], mono)
        return self._lead

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[1]

    def monic(self) -> "Polynomial":
        coeff, _ = self.leading_term()
        if coeff == 1:
            return self
        if coeff == -1:
            return -self
        return Polynomial({m: Fraction(c, coeff) for m, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[int | Fraction, Monomial]]:
        """Terms listed largest monomial first (canonical serialization order)."""
        return [(self.terms[m], m) for m in sorted(self.terms, key=_key_of)]

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

    @classmethod
    def _unchecked(cls, cells: tuple[Cell, ...]) -> "Antidiagonal":
        """An antidiagonal on a tuple of cells that the caller knows to be
        nonempty, inside the matrix and stepping strictly SW, built
        without the checks ``__post_init__`` makes."""
        antidiag = object.__new__(cls)
        object.__setattr__(antidiag, "cells", cells)
        return antidiag

    def rows(self) -> tuple[int, ...]:
        return tuple(c.row for c in self.cells)

    def cols(self) -> tuple[int, ...]:
        return tuple(sorted(c.col for c in self.cells))

    def determinant(self) -> Polynomial:
        return determinant(self.rows(), self.cols())

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)


def _check_minor(rows: Iterable[int], cols: Iterable[int]):
    r = sorted(rows)
    c = sorted(cols)
    if len(set(r)) != len(r) or len(set(c)) != len(c):
        raise ValueError("a minor's row and column indices must not repeat")
    if not r:
        raise ValueError("a minor needs at least one row and column")
    if len(r) != len(c):
        raise ValueError(f"row and column counts differ: {len(r)} vs {len(c)}")
    if r[0] < 1 or c[0] < 1:
        raise ValueError("row and column indices start at 1")
    return r, c


def _parity(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def determinant(rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Determinant of the generic submatrix on the given rows and columns.

    Expanded as the full signed sum over permutations (the instances here
    are small, so clarity wins over a smarter expansion).  The signs are
    summed as ints, and the polynomial keeps them as ints.
    """
    r, c = _check_minor(rows, cols)
    k = len(r)
    # codes[i][j] is the variable at (r[i], c[j]); rows ascend, so the codes
    # of one term, read row by row, are already sorted
    codes = [[_code((row, col)) for col in c] for row in r]
    terms: dict[Monomial, int] = {}
    for perm in _all_permutations(range(k)):
        mono = _from_codes([codes[i][perm[i]] for i in range(k)])
        terms[mono] = terms.get(mono, 0) + _parity(perm)
    return Polynomial(terms)


def antidiagonal_of(rows: Iterable[int], cols: Iterable[int]) -> Antidiagonal:
    """The antidiagonal cells of the minor on the given rows and columns."""
    r, c = _check_minor(rows, cols)
    k = len(r)
    return Antidiagonal(tuple(Cell(r[i], c[k - 1 - i]) for i in range(k)))


# ---------------------------------------------------------------------------
# serialization

def monomial_to_json(mono: Monomial) -> list[list[int]]:
    """[row, col, exp] per variable, row-major ascending (t first)."""
    out = []
    key = mono.key
    for i in range(0, len(key) - 1, 2):
        code = key[i]
        row = (code + _COL_LIMIT - 1) >> _COL_BITS  # as in _cell, without the Cell
        out.append([row, (row << _COL_BITS) - code, -key[i + 1]])
    out.sort()
    return out


class _VariableTexts(dict):
    """``(code, -exp)`` pair of a packed key -> ``(row, col, text)``, with
    the text that ``render(row, col, exp)`` gives, made on first use."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, int, str]:
        row, col = _cell(pair[0])
        entry = self[pair] = (row, col, self.render(row, col, -pair[1]))
        return entry

    def row_major(self, key: tuple[int, ...]) -> list[str]:
        """The texts of the variables of a packed key, row-major ascending,
        as ``monomial_to_json`` lists them."""
        found = sorted(map(self.__getitem__, zip(key[:-1:2], key[1::2])))
        return [entry[2] for entry in found]


def _name(row: int, col: int, exp: int) -> str:
    name = "t" if row == col == 0 else f"m[{row},{col}]"
    return name if exp == 1 else f"{name}^{exp}"


# like _BITS, a cache of a pure function, shared by every call
_NAMES = _VariableTexts(_name)


def monomial_text(mono: Monomial) -> str:
    """Variables joined by '*', row-major ascending; empty string for 1."""
    return "*".join(_NAMES.row_major(mono.key))


def polynomial_text(f: Polynomial) -> str:
    """Canonical text form, e.g. ``-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2]``."""
    if f.is_zero():
        return "0"
    rendered = []
    for coeff, mono in f.sorted_terms():
        body = monomial_text(mono)
        rendered.append(f"{coeff}*{body}" if body else f"{coeff}")
    return " + ".join(rendered)


def polynomial_to_json(f: Polynomial) -> list[dict]:
    return [
        {"coeff": str(coeff), "monomial": monomial_to_json(mono)}
        for coeff, mono in f.sorted_terms()
    ]


def _json_list(items: Sequence[str], indent: int, brackets: str) -> str:
    """Encoded items laid out as ``json.dumps(..., indent=2)`` lays out a
    list (``"[]"``) or object (``"{}"``) that opens at this indent."""
    if not items:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * indent + brackets[1]


class _TermLayout:
    """The text of a polynomial's terms for a term list that opens at
    ``indent``: the fixed text around a term's coefficient and monomial,
    and the ``[row, col, exp]`` block of each variable, written on first
    use."""

    def __init__(self, indent: int):
        self.indent = indent
        item = "\n" + " " * (indent + 2)  # a term's object in the list
        field = "\n" + " " * (indent + 4)  # its "coeff" and "monomial"
        block = "\n" + " " * (indent + 6)  # one [row, col, exp] block
        number = "\n" + " " * (indent + 8)  # row, col or exp in a block
        self.blocks = _VariableTexts(
            lambda row, col, exp: f"[{number}{row},{number}{col},{number}{exp}{block}]"
        )
        self.coeff = "{" + field + '"coeff": "'
        self.monomial = '",' + field + '"monomial": [' + block
        self.block_between = "," + block
        self.end = field + "]" + item + "}"
        self.constant = '",' + field + '"monomial": []' + item + "}"

    def write(self, f: Polynomial) -> str:
        """The terms of f, largest first, as ``polynomial_to_json`` lists
        them, each written in one piece."""
        coeff_text = self.coeff
        monomial = self.monomial
        block_between = self.block_between
        end = self.end
        row_major = self.blocks.row_major
        terms = []
        for coeff, mono in f.sorted_terms():
            key = mono.key
            if len(key) == 1:
                terms.append(f"{coeff_text}{coeff!s}{self.constant}")
            else:
                blocks = block_between.join(row_major(key))
                terms.append(f"{coeff_text}{coeff!s}{monomial}{blocks}{end}")
        return _json_list(terms, self.indent, "[]")


def json_writer():
    """A ``write(value, indent)``: ``json.dumps(value, indent=2)``, opening
    at ``indent``, of dicts with string keys, lists, strings, ints, a
    :class:`Polynomial` as :func:`polynomial_to_json` gives it and an
    :class:`Antidiagonal` as ``{"rows": [...], "cols": [...]}``, both
    ascending; anything else raises ``TypeError``.  ``indent`` sends
    ``json`` to its pure-Python encoder, which costs more than building a
    union basis; here each ``[row, col, exp]`` block and each factor is
    written once per writer, since a basis repeats both, and each term of
    a polynomial in one piece."""
    layouts: dict[int, _TermLayout] = {}
    factors: dict[tuple[tuple[Cell, ...], int], str] = {}

    def write(value, indent: int) -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return str(value)
        if kind is list:
            return _json_list([write(item, indent + 2) for item in value], indent, "[]")
        if kind is dict:  # the encoder raises TypeError on a key that is not a str
            items = [
                encode_basestring_ascii(k) + ": " + write(v, indent + 2) for k, v in value.items()
            ]
            return _json_list(items, indent, "{}")
        if kind is Polynomial:
            layout = layouts.get(indent)
            if layout is None:
                layout = layouts[indent] = _TermLayout(indent)
            return layout.write(value)
        if kind is Antidiagonal:
            text = factors.get((value.cells, indent))
            if text is None:
                layout = {"rows": list(value.rows()), "cols": list(value.cols())}
                text = factors[value.cells, indent] = write(layout, indent)
            return text
        raise TypeError(f"{kind.__name__} is not written as JSON")

    return write


def json_text(value) -> str:
    """``value`` as one :func:`json_writer` writes it at indent 0."""
    return json_writer()(value, 0)
