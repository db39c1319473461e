"""Exact sparse polynomials in the entries of a generic matrix.

Variables are the entries m[i,j] of a square matrix of indeterminates,
identified by their (row, col) cell.  Coefficients are exact rationals,
an ``int`` when integral and a ``Fraction`` otherwise, so polynomial
equality is reliable and integral arithmetic (minors, their products, the
elimination ideals of the oracle) runs on ints.  ``fractions`` is imported
where the first coefficient that is no int appears, so a run on ints never
loads it.  There is one monomial
order, the antidiagonal lex order on the variable sequence

    t > m[1,n] > m[1,n-1] > ... > m[1,1] > m[2,n] > ... > m[n,1]

(read the matrix top to bottom, right to left within each row; the
elimination variable t comes first).  Its key property is that the
leading term of any minor of the generic matrix is the product of the
entries on the minor's antidiagonal; everything downstream relies on
this.  Ranking t ahead of every matrix entry also makes it an
elimination order for t, which is what ideal intersection needs.

A monomial is stored as its own sort key: the ascending tuple of the
codes of its factors, one entry per unit of exponent, closed by ``_END``.
Each variable is one integer code ``v = (row << 16) - col`` (t is 0), so
ascending codes list the variables most significant first, and
m[1,2]^2*m[2,1] is ``(v12, v12, v21, _END)``.  Plain tuple comparison of
two keys is then the order, reversed: a > b exactly when ``a.key <
b.key``.  Let two keys first differ at position p.  Every entry from
p on is at least the smaller of the two entries at p, so both monomials
have the same power of every variable whose code is below both.  If
both entries are codes, the smaller one, x, is the more significant
variable, and its key holds one factor x more than the other: its
monomial has the higher power of x and is the larger.  If one key has
run out, its entry is ``_END``, which is above every code, and the code
in the other key is one factor more of that variable than the shorter
key holds; again the smaller entry belongs to the larger monomial.

Next to the key a monomial keeps only its hash.

The Groebner engine and the union products compute on monomials packed
into ints (``_Layout``): one field of ``bits`` bits per variable, a guard
bit over ``bits - 1`` exponent bits, the most significant variable of the
order in the highest field and each next one in the field below.  Then a
larger int is a larger monomial and a product is a sum; the engine's use
of the guard bits is described in :mod:`nwgb.groebner`.  The fields of
one row's cells are adjacent, since their variables are too.  A union
product (``_PackedProduct``) uses every row of its minors in each term,
and it is written straight from its ints (``_RowBlocks.terms``), the terms
in descending order and each term's variables as two masked halves of its
rows (``x & upper``, ``x & lower``), each distinct half's text made once
per ``_RowBlocks``.  The writers of a union basis, in :mod:`nwgb.union`,
keep one ``_RowBlocks`` per layout for as long as they write; a layout
holds no text.  :func:`json_text` writes the plain payloads of the other
commands: strings, ints, lists, dicts and ``Polynomial`` values.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, lru_cache, partial
from itertools import groupby, permutations as _all_permutations
from json.encoder import encode_basestring_ascii
from operator import attrgetter, getitem, itemgetter

Cell = namedtuple("Cell", ("row", "col"))
Cell.__doc__ = "1-based matrix position; row 1 is the top row, column 1 the leftmost."


# Slot for the extra variable used by elimination (classically called t).
# Row 0 places it ahead of every matrix entry in the variable order.
AUX = Cell(0, 0)

_COL_BITS = 16
_COL_LIMIT = 1 << _COL_BITS
_ROW_LIMIT = 1 << 32
_END = 1 << 62  # closes every key; above the code of every variable


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


class Monomial:
    """Product of variables with positive exponents, stored as its key (see
    the module docstring).

    ``key`` lists one code per factor and sorts as :func:`sort_key`; the
    hash is computed once, at construction.  Build instances through
    :meth:`from_cells`, which canonicalizes; ``Monomial()`` is 1.  ``*``
    concatenates or sorts the two keys, :meth:`lcm` is one merge of them,
    and :meth:`divides` the same merge after a length check.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple[int, ...] = (_END,)):
        self.key = key
        self._hash = hash(key)

    @staticmethod
    def from_cells(cells: Iterable[Cell]) -> "Monomial":
        """Product of the given cells, one factor per occurrence: a cell
        given k times is raised to the power k."""
        return _from_codes(sorted(_code(cell) for cell in cells))

    def degree(self) -> int:
        return len(self.key) - 1

    def uses(self, cell: Cell) -> bool:
        return _code(cell) in self.key

    def is_squarefree(self) -> bool:
        return len(set(self.key)) == len(self.key)

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
        if a[-2] <= b[0]:  # one key wholly ahead of the other: concatenate
            key = a[:-1] + b
        elif b[-2] <= a[0]:
            key = b[:-1] + a
        else:
            key = tuple(sorted(a[:-1] + b))
        return Monomial(key)

    def divides(self, other: "Monomial") -> bool:
        a = self.key
        b = other.key
        if len(a) > len(b):
            return False  # a higher degree
        j = 0
        for code in a[:-1]:  # each factor of a meets its own factor of b
            while b[j] < code:
                j += 1
            if b[j] != code:
                return False
            j += 1
        return True

    def lcm(self, other: "Monomial") -> "Monomial":
        a = self.key
        b = other.key
        out: list[int] = []
        j = 0
        for code in a[:-1]:
            while b[j] < code:
                out.append(b[j])
                j += 1
            if b[j] == code:
                j += 1  # a factor both have is taken once
            out.append(code)
        out += b[j:]
        return Monomial(tuple(out))

    def __repr__(self) -> str:
        return monomial_text(self) or "1"


def _from_codes(codes: list[int]) -> Monomial:
    """The product of the variables with these codes, sorted ascending;
    a repeated code is a higher power."""
    return Monomial((*codes, _END))


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
    type changes no comparison and no output.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    from fractions import Fraction

                    if type(coeff) is not Fraction:
                        coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

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
        if not isinstance(other, Polynomial):
            if not isinstance(other, int):
                from fractions import Fraction

                if not isinstance(other, Fraction):
                    return NotImplemented
            return Polynomial({m: c * other for m, c in self.terms.items()})
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
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        mono = min(self.terms, key=_key_of)
        return self.terms[mono], mono

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[1]

    def sorted_terms(self) -> list[tuple[int | Fraction, Monomial]]:
        """Terms listed largest monomial first (canonical serialization order)."""
        return [(self.terms[m], m) for m in sorted(self.terms, key=_key_of)]

    def __repr__(self) -> str:
        return polynomial_text(self)


def _is_int(value: object) -> bool:
    """Whether ``value`` is an int; a bool is not one, though Python makes
    it a subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Value:
    """Base of the package's immutable value types, each defined by the
    fields its ``__slots__`` names, in order (a subclass that declares no
    slots keeps its base's fields).  ``__init__`` takes them positionally
    (a subclass checks its arguments first); as on a frozen dataclass,
    values are equal when they have the same class and equal fields, the
    hash is that of the field tuple, the repr reads
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("__slots__") or cls._fields

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")


def _int_cell(pair: object) -> Cell:
    """``pair`` as a Cell; ValueError naming it unless it is two ints."""
    try:
        cell = Cell(*pair)
    except TypeError:
        raise ValueError(f"cell {reprlib.repr(pair)} is not a pair of integers") from None
    if not (_is_int(cell.row) and _is_int(cell.col)):
        raise ValueError(f"cell {reprlib.repr(tuple(cell))} is not a pair of integers")
    return cell


class Antidiagonal(_Value):
    """Cells read northeast to southwest.

    Rows strictly increase and columns strictly decrease along ``cells``,
    so there is one cell per row and per column and the set is nonempty.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Sequence[Iterable[int]]):
        try:
            cells = tuple(cells)
        except TypeError:
            raise ValueError(f"cells must be a sequence of pairs, got {reprlib.repr(cells)}") from None
        if not cells:
            raise ValueError("an antidiagonal needs at least one cell")
        cells = tuple(map(_int_cell, cells))
        for cell in cells:
            if cell.row < 1 or cell.col < 1:
                raise ValueError(f"cell {cell} is outside the matrix")
        for a, b in zip(cells, cells[1:]):
            if not (b.row > a.row and b.col < a.col):
                raise ValueError(
                    f"cells must step strictly south and strictly west, got {a} -> {b}"
                )
        super().__init__(cells)

    @classmethod
    def _unchecked(cls, cells: tuple[Cell, ...]) -> "Antidiagonal":
        """An antidiagonal on a tuple of cells that the caller knows to be
        nonempty, inside the matrix and stepping strictly SW, built
        without the checks ``__init__`` makes."""
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


@lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """``(perm, sign)`` for each permutation of ``range(k)``, in
    ``itertools.permutations`` order."""
    return tuple((perm, _parity(perm)) for perm in _all_permutations(range(k)))


def determinant(rows: Iterable[int], cols: Iterable[int]) -> Polynomial:
    """Determinant of the generic submatrix on the given rows and columns.

    The Leibniz sum: one term per permutation, in ``itertools`` order,
    its sign read from the table of its size.  Distinct permutations pick
    distinct cells, so no two terms share a monomial and none cancels.
    """
    r, c = _check_minor(rows, cols)
    # codes[i][j] is the variable at (r[i], c[j]); rows ascend, so the codes
    # of one term, read row by row, are already sorted
    codes = [[_code((row, col)) for col in c] for row in r]
    return Polynomial(
        {
            Monomial((*map(getitem, codes, perm), _END)): sign
            for perm, sign in _signed_permutations(len(r))
        }
    )


def antidiagonal_of(rows: Iterable[int], cols: Iterable[int]) -> Antidiagonal:
    """The antidiagonal cells of the minor on the given rows and columns."""
    # _check_minor has rejected empty minors, repeats and indices below 1,
    # so ascending rows against descending columns step strictly SW
    r, c = _check_minor(rows, cols)
    k = len(r)
    return Antidiagonal._unchecked(tuple(Cell(r[i], c[k - 1 - i]) for i in range(k)))


# ---------------------------------------------------------------------------
# packed monomials

class _Overflow(Exception):
    """An exponent outgrew the field width."""


# the narrowest field a division starts at: a guard bit over 7 exponent bits
_FIELD_BITS = 8


class _Layout:
    """A packing of monomials into ints: a field of ``bits`` bits for each
    variable of ``polys`` and each of ``cells``, in the order's
    significance from the highest field down (see the module docstring)."""

    def __init__(self, polys: Iterable[Polynomial], bits: int, cells: Iterable[Cell] = ()):
        codes = set(map(_code, cells)).union(*[mono.key for f in polys for mono in f.terms])
        codes.discard(_END)
        self.bits = bits
        self.field = (1 << (bits - 1)) - 1  # the exponent bits of the lowest field
        ordered = sorted(codes, reverse=True)  # least significant first
        self.code_at = {bits * index: code for index, code in enumerate(ordered)}
        self.unit = {code: 1 << shift for shift, code in self.code_at.items()}
        self.guard = sum(1 << (shift + bits - 1) for shift in self.code_at)
        self.fill = self.guard - (self.guard >> (bits - 1))  # all exponent bits

    @staticmethod
    def widening(job: Callable[[int], object]) -> object:
        """``job(bits)`` at the first field width, from ``_FIELD_BITS`` up,
        doubling, that holds every exponent the job makes: a job raises
        ``_Overflow`` when one outgrows its fields, and starts over at
        double the width."""
        bits = _FIELD_BITS
        while True:
            try:
                return job(bits)
            except _Overflow:
                bits *= 2

    def pack(self, mono: Monomial) -> int:
        if mono.degree() > self.field:
            raise _Overflow  # some exponent may not fit
        # one unit in its variable's field per factor of the key
        return sum(map(self.unit.__getitem__, mono.key[:-1]))

    def pack_poly(self, f: Polynomial) -> dict[int, int | Fraction]:
        pack = self.pack
        return {pack(mono): coeff for mono, coeff in f.terms.items()}

    def powers(self, x: int) -> list[tuple[int, int]]:
        """``(code, exponent)`` of each variable of a packed monomial, the
        most significant first."""
        out = []
        support = (x + self.fill) & self.guard
        while support:
            top = support.bit_length() - 1
            support ^= 1 << top
            shift = top - self.bits + 1
            out.append((self.code_at[shift], (x >> shift) & self.field))
        return out

    def mask(self, cells: Iterable[Cell]) -> int:
        """The exponent bits of the cells' fields.  The fields of a row's
        cells are adjacent, the first column lowest, so a row's mask cuts
        its variables out of a packed monomial."""
        return sum(self.field * self.unit[_code(cell)] for cell in cells)

    @cached_property
    def row_masks(self) -> list[int]:
        """The mask of each row that holds a field, top row first."""
        cells = sorted(map(_cell, self.code_at.values()))
        return [self.mask(row) for _, row in groupby(cells, key=itemgetter(0))]

    def unpack(self, x: int) -> Monomial:
        # powers lists the most significant variable, the lowest code, first
        return _from_codes([code for code, exp in self.powers(x) for _ in range(exp)])

    def polynomial(self, terms: dict[int, int | Fraction]) -> Polynomial:
        unpack = self.unpack
        return Polynomial({unpack(x): coeff for x, coeff in terms.items()})

    def degree(self, x: int) -> int:
        ones = self.guard >> (self.bits - 1)  # the lowest bit of every field
        total = plane = 0
        while x:  # 2^plane for each field whose exponent has that bit set
            total += (x & ones).bit_count() << plane
            x = x >> 1 & self.fill
            plane += 1
        return total

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard  # no field borrows

    def lcm(self, a: int, b: int) -> int:
        higher = ((a | self.guard) - b) & self.guard  # guard set where a >= b
        take = higher - (higher >> (self.bits - 1))
        return (a & take) | (b & ~take)


# ---------------------------------------------------------------------------
# serialization

def _powers(key: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(code, exponent)`` of each variable of a key, in key order."""
    powers: list[tuple[int, int]] = []
    last = None
    for code in key[:-1]:
        if code == last:
            powers[-1] = (code, powers[-1][1] + 1)
        else:
            powers.append((code, 1))
            last = code
    return powers


def monomial_to_json(mono: Monomial) -> list[list[int]]:
    """[row, col, exp] per variable, row-major ascending (t first)."""
    out = []
    for code, exp in _powers(mono.key):
        row = (code + _COL_LIMIT - 1) >> _COL_BITS  # as in _cell, without the Cell
        out.append([row, (row << _COL_BITS) - code, exp])
    out.sort()
    return out


class _Made(dict):
    """``key -> make(key)``, each value made on first use and kept as long
    as the dict, which its writer holds."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _VariableTexts(dict):
    """``(code, exponent)`` of a variable -> ``(row, col, text)``, with the
    text that ``render(row, col, exp)`` gives, made on first use."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, power: tuple[int, int]) -> tuple[int, int, str]:
        row, col = _cell(power[0])
        entry = self[power] = (row, col, self.render(row, col, power[1]))
        return entry

    def row_major(self, key: tuple[int, ...]) -> list[str]:
        """The texts of the variables of a key, row-major ascending, as
        ``monomial_to_json`` lists them."""
        found = sorted(map(self.__getitem__, _powers(key)))
        return [entry[2] for entry in found]


def _name(row: int, col: int, exp: int) -> str:
    name = "t" if row == col == 0 else f"m[{row},{col}]"
    return name if exp == 1 else f"{name}^{exp}"


# a cache of a pure function, shared by every call
_NAMES = _VariableTexts(_name)


_PackedProduct = namedtuple("_PackedProduct", ("layout", "terms", "masks"))
_PackedProduct.__doc__ = """A product of minors, multiplied out as ``{packed monomial:
coefficient}`` in ``layout``, with ``masks``, the ``layout.mask`` of each
row that every one of its terms uses, top row first, and of no other row.
A larger int is a larger monomial, so its terms, largest first, are the
ints descending."""


def monomial_text(mono: Monomial) -> str:
    """Variables joined by '*', row-major ascending; empty string for 1."""
    return "*".join(_NAMES.row_major(mono.key))


def polynomial_text(f: Polynomial | _PackedProduct) -> str:
    """Canonical text form, e.g. ``-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2]``.
    A single product of minors is written off its packed terms, with
    segment texts of its own (``_RowBlocks``); a writer of many products
    keeps one ``_RowBlocks`` per layout instead (``union.basis_text_chunks``)."""
    if type(f) is _PackedProduct:
        return " + ".join(_RowBlocks(f.layout, _NAMES, "*").terms(f, "", "*", "", ""))
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


class _RowBlocks(dict):
    """Whole rows of fields of a packed monomial, ``x & mask`` for a mask
    of one or more rows in ``layout`` -> the texts of their variables in
    ``blocks`` (``m[r,c]`` names, or ``[row, col, exp]`` blocks),
    row-major ascending, joined by ``between``; made on first use, a
    segment of several rows from the texts of its rows, which are cached
    in turn.  The same int names other cells in another layout, so each
    layout has its own.  The writer that makes one holds it, and the
    layout does not refer back, so both go with their last user."""

    def __init__(self, layout: _Layout, blocks: _VariableTexts, between: str):
        super().__init__()
        self.layout = layout
        self.blocks = blocks
        self.between = between

    def __missing__(self, segment: int) -> str:
        rows = [row for mask in self.layout.row_masks if (row := segment & mask)]
        if len(rows) > 1:
            text = self.between.join([self[row] for row in rows])
        else:
            # powers lists the most significant variable, the last column, first
            powers = reversed(self.layout.powers(segment))
            text = self.between.join([self.blocks[p][2] for p in powers])
        self[segment] = text
        return text

    def terms(
        self, f: _PackedProduct, before: str, middle: str, after: str, constant: str
    ) -> list[str]:
        """The text of each term of ``f``, a product in this layout, largest
        first: ``before``, the coefficient, ``middle``, the text of its
        variables and ``after``, or, for the constant term, ``before``, the
        coefficient and ``constant``.

        A larger int is a larger monomial, so the terms are the ints
        descending.  Every term uses every row of ``f.masks``, so a term of
        two or more rows is the text of its upper half of rows and that of
        its lower half, each masked out of the int, joined by ``self.between``;
        each distinct half is written once.  Any other term is read whole,
        as one segment, and the int 0 is the constant."""
        coeffs = f.terms
        masks = f.masks
        ordered = sorted(coeffs, reverse=True)
        if len(masks) < 2:
            return [
                f"{before}{coeffs[x]!s}{f'{middle}{self[x]}{after}' if x else constant}"
                for x in ordered
            ]
        half = len(masks) // 2
        upper = sum(masks[:half])
        lower = sum(masks[half:])
        between = self.between
        return [
            f"{before}{coeffs[x]!s}{middle}{self[x & upper]}{between}{self[x & lower]}{after}"
            for x in ordered
        ]


class _TermLayout:
    """The text of a polynomial's terms for a term list that opens at
    ``indent``: the fixed text around a term's coefficient and monomial,
    and the ``[row, col, exp]`` block of each variable, written on first
    use, and for packed polynomials, per layout, the blocks of each
    segment of whole rows that a term reads."""

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
        # a partial holds no reference back to self, so no cycle keeps a layout
        self.rows = _Made(partial(_RowBlocks, blocks=self.blocks, between=self.block_between))

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

    def write_packed(self, f: _PackedProduct) -> str:
        """What ``write`` gives for the same product as a Polynomial, read
        off the packed terms (``_RowBlocks.terms``), with the layout's
        ``_RowBlocks`` of this writer."""
        terms = self.rows[f.layout].terms(f, self.coeff, self.monomial, self.end, self.constant)
        return _json_list(terms, self.indent, "[]")


def json_text(value) -> str:
    """``json.dumps(value, indent=2)`` of dicts with string keys, lists,
    strings, ints and :class:`Polynomial` values, each as
    :func:`polynomial_to_json` gives it; anything else raises
    ``TypeError``.  ``indent`` sends ``json`` to its pure-Python encoder;
    here each ``[row, col, exp]`` block is written once per call and
    indent, and each term of a polynomial in one piece."""
    layouts = _Made(_TermLayout)

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
            return layouts[indent].write(value)
        raise TypeError(f"{kind.__name__} is not written as JSON")

    return write(value, 0)
