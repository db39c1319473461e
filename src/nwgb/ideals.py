"""Schemes cut out by northwest rank conditions and their determinantal
generators.

A rank condition bounds the rank of the northwest i x j submatrix; the
matching generators are all (r+1) x (r+1) minors of that submatrix.  For a
(partial) permutation the conditions read off the essential boxes suffice,
and the resulting minors are the Fulton generators of its matrix Schubert
variety.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations
from math import comb, factorial

from .permutations import PartialPermutation, essential_set, parse_one_line, rank_matrix
from .polynomials import (
    Antidiagonal,
    Polynomial,
    _Value,
    _is_int,
    antidiagonal_of,
    determinant,
)


class RankCondition(_Value):
    """The northwest ``row`` x ``col`` submatrix has rank at most ``max_rank``."""

    __slots__ = ("row", "col", "max_rank")

    def __init__(self, row: int, col: int, max_rank: int):
        for name, value in (("row", row), ("col", col), ("max_rank", max_rank)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
        if row < 1 or col < 1:
            raise ValueError("corner indices start at 1")
        if not 0 <= max_rank <= min(row, col):
            raise ValueError(
                f"rank bound {reprlib.repr(max_rank)} out of range for a "
                f"{reprlib.repr(row)}x{reprlib.repr(col)} region"
            )
        super().__init__(row, col, max_rank)


class RankConditionSpec(_Value):
    """A scheme given by a list of rank conditions inside an n x n matrix.

    Conditions may be redundant; nothing is pruned.  An empty condition
    list denotes the whole matrix space (the zero ideal).
    """

    __slots__ = ("ambient_n", "conditions", "label")

    def __init__(
        self, ambient_n: int, conditions: Iterable[RankCondition] = (), label: str = ""
    ):
        if not _is_int(ambient_n):
            raise ValueError(f"ambient size must be an integer, got {reprlib.repr(ambient_n)}")
        if ambient_n < 1:
            raise ValueError("ambient size must be positive")
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {reprlib.repr(label)}")
        try:
            conditions = tuple(conditions)
        except TypeError:
            raise ValueError(
                f"conditions must be an iterable of RankCondition, got {reprlib.repr(conditions)}"
            ) from None
        for cond in conditions:
            if not isinstance(cond, RankCondition):
                raise ValueError(f"condition {reprlib.repr(cond)} is not a RankCondition")
            if cond.row > ambient_n or cond.col > ambient_n:
                raise ValueError(
                    f"condition RankCondition(row={reprlib.repr(cond.row)}, "
                    f"col={reprlib.repr(cond.col)}, max_rank={reprlib.repr(cond.max_rank)}) "
                    f"exceeds ambient {reprlib.repr(ambient_n)}"
                )
        super().__init__(ambient_n, conditions, label)


def spec_from_permutation(p: PartialPermutation) -> RankConditionSpec:
    """Conditions at the essential boxes only (they suffice by Fulton's
    theorem).  Finding them builds the n x n rank matrix, so its n**2
    entries are counted first, and a permutation of over 1,000 entries,
    whose n**2 passes ``WORK_LIMIT``, raises ValueError before any entry
    is computed."""
    check_work(p.n**2)
    conditions = tuple(RankCondition(c.row, c.col, r) for c, r in sorted(essential_set(p)))
    return RankConditionSpec(p.n, conditions, label=p.one_line())


def spec_from_rank_matrix(p: PartialPermutation) -> RankConditionSpec:
    """One condition per matrix position; deliberately redundant.

    Useful for checking that the essential boxes really do cut out the
    same ideal.
    """
    ranks = rank_matrix(p)
    sizes = range(1, p.n + 1)
    conditions = tuple(RankCondition(i, j, ranks[i - 1][j - 1]) for i in sizes for j in sizes)
    return RankConditionSpec(p.n, conditions, label=f"{p.one_line()} full")


def _minors(
    spec: RankConditionSpec,
) -> Iterator[tuple[RankCondition, tuple[int, ...], tuple[int, ...]]]:
    """(condition, rows, cols) of every (r+1)-minor of every condition's
    region, rows then columns in ascending lexicographic subset order."""
    for cond in spec.conditions:
        size = cond.max_rank + 1
        if size > min(cond.row, cond.col):
            continue
        for rows in combinations(range(1, cond.row + 1), size):
            for cols in combinations(range(1, cond.col + 1), size):
                yield cond, rows, cols


# The most units of work one run may take: entries of a permutation's
# rank matrix, minors, terms of their determinants, their completion,
# choices of antidiagonals, cells of a packed layout and terms of union
# products, each counted before the work is done
# (``spec_from_permutation``, ``spec_work``, ``completion_work``,
# ``union_basis``).
# The cost of a run follows this count, not the ambient size.  In-process
# on CPython 3.11, one core of a shared 2-core x86 machine, a union costs
# 3-4.5 us per unit written as JSON and 9-19 us under --verify=full-oracle
# (6,707 units of the S7 pair 1 7 6 5 4 3 2 | 6 5 4 3 2 1 7 in 0.06 s), and
# a completion (``completion_work``) 0.5-3.5 us per unit (the 1-minors of
# a 1 x 1000 region: 1,001,000 units in 2.2 s; 2 1 9 8 7 6 5 4 3: 3,773,882
# in 1.7 s; the 7-minors of a 7 x 8 region: 362,880 in 1.2 s).  ``nwgb
# groebner`` on one condition, which runs no queue (t + v**2 units), costs
# up to 3.7 us per unit written as JSON and 2.7 us as text: the 3-minors
# of a 3 x 60 region, 237,720 units in 0.87 s and 0.64 s; the 2-minors of
# 25 x 25, 570,625 in 1.56 s and 1.33 s; the 1-minors of 1 x 999, 999,000
# in 0.013 s.
WORK_LIMIT = 1_000_000


def check_work(units: int) -> int:
    """``units``, or ValueError naming them and the limit when they pass
    ``WORK_LIMIT``."""
    if units > WORK_LIMIT:
        try:
            shown = reprlib.repr(units)
        except ValueError:  # an int of over 4300 digits has no str
            shown = f"2**{units.bit_length() - 1}"
        raise ValueError(
            f"the input needs at least {shown} units of work, over the limit of {WORK_LIMIT}"
        )
    return units


def spec_work(spec: RankConditionSpec) -> tuple[int, int]:
    """(m, t): the spec's minors, once for each condition whose region holds
    them, as ``_minors`` lists them, and the terms of their determinants,
    (r+1)! for an (r+1)-minor.  Neither is listed: each condition's count
    is a product of binomials.  A k-minor has k! >= 2**(k-1) terms, so a
    k past the limit's bit length passes the limit alone; it is refused
    before binomials of that size, which can take any time, are formed."""
    minors = terms = 0
    for cond in spec.conditions:
        size = cond.max_rank + 1
        if size > min(cond.row, cond.col):
            continue
        if size > WORK_LIMIT.bit_length():
            raise ValueError(
                f"a {reprlib.repr(size)}-minor has more terms than the limit of "
                f"{WORK_LIMIT} units of work"
            )
        count = comb(cond.row, size) * comb(cond.col, size)
        minors += count
        terms += count * factorial(size)
    return minors, terms


def minor_regions(spec: RankConditionSpec) -> list[tuple[int, int]]:
    """(i, j) of each condition whose i x j region holds a minor, r + 1 <=
    min(i, j).  Each cell of such a region is a cell of one of its minors,
    so these regions make up the distinct cells of the spec's minors."""
    return [(c.row, c.col) for c in spec.conditions if c.max_rank < min(c.row, c.col)]


def completion_work(spec: RankConditionSpec, settled: bool = False) -> int:
    """t + m*t for the spec's (m, t) (``spec_work``): the units of expanding
    its Fulton generators and completing them (``nwgb groebner``, and
    ``verify.union_verdicts`` in the union basis's packed layout).
    Buchberger meets up to m**2 / 2 pairs of minors and reduces each
    S-polynomial against generators of (r+1)! terms.  The count also
    bounds the completion's packed layout, whose ints grow with the square
    of its v variables: a condition's variables are its i*j cells, and
    (i*j)**2 <= 14 * C(i, k)**2 * C(j, k)**2 * k! since C(i, k) >= i/k and
    k**4 <= 14 * k!, so by Cauchy-Schwarz v**2 <= 14*m*t over all
    conditions.

    ``settled`` says that the caller runs no queue, since a theorem makes
    the minors a Groebner basis (``fulton_is_groebner``; ``nwgb groebner``
    asks it, the union check never does).  Then the count is t + v**2,
    what that path runs: its t terms expanded, sorted and written, and a
    layout of the v cells of ``minor_regions`` (one region's i*j cells
    when settled), whose ints, and the masks and guard built over them,
    grow with v."""
    minors, terms = spec_work(spec)
    if settled:
        cells = sum(i * j for i, j in minor_regions(spec))
        return terms + cells**2
    return terms + minors * terms


def fulton_generators(
    spec: RankConditionSpec,
) -> list[tuple[RankCondition, tuple[int, ...], tuple[int, ...], Polynomial]]:
    """(condition, rows, cols, determinant) of every (r+1)-minor of every
    condition's region, in ``_minors`` order.  A minor in the regions of
    several conditions is listed once for each, and expanded once.  The
    terms are counted first (``spec_work``), and a spec whose count passes
    ``WORK_LIMIT`` raises ValueError before any minor is listed."""
    check_work(spec_work(spec)[1])
    expanded: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}
    out = []
    for cond, rows, cols in _minors(spec):
        poly = expanded.get((rows, cols))
        if poly is None:
            poly = expanded[rows, cols] = determinant(rows, cols)
        out.append((cond, rows, cols, poly))
    return out


def generator_minors(
    spec: RankConditionSpec, settled: bool = False
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rows, cols) of the distinct Fulton generators of the spec, each at
    its first place in ``_minors``: a minor that several conditions share
    generates the ideal once, as ``antidiagonals_of_spec`` keeps each
    antidiagonal once.  They are what a completion of the spec starts
    from (``nwgb groebner``, ``verify.union_verdicts``, which expand them
    packed with ``_Layout.minor``), so a spec whose
    ``completion_work(spec, settled)`` passes ``WORK_LIMIT`` raises
    ValueError before any minor is listed."""
    check_work(completion_work(spec, settled))
    return list(dict.fromkeys((rows, cols) for _, rows, cols in _minors(spec)))


def fulton_is_groebner(spec: RankConditionSpec) -> bool:
    """Whether a theorem says the spec's ``generator_minors`` are already a
    Groebner basis under the antidiagonal order, so that completing them
    meets no S-pair with a nonzero remainder: true for at most one
    condition, since the (r+1)-minors of a generic i x j matrix are one
    (Sturmfels, Math. Z. 1990), and no minors at all are the basis of the
    zero ideal.  A spec of several conditions is False, even an honest
    permutation's, whose essential minors are one too (Knutson and Miller,
    Annals 2005): its completion runs the whole S-pair queue."""
    return len(spec.conditions) <= 1


def generator_polynomials(spec: RankConditionSpec) -> list[Polynomial]:
    """The determinants of ``generator_minors``, in that order."""
    return [determinant(rows, cols) for rows, cols in generator_minors(spec)]


def antidiagonals_of_spec(spec: RankConditionSpec) -> list[Antidiagonal]:
    """Antidiagonals of the Fulton generators, deduplicated, in generator
    enumeration order.  A minor's antidiagonal is its leading monomial, so
    no determinant is expanded."""
    return list(dict.fromkeys(antidiagonal_of(r, c) for _, r, c in _minors(spec)))


# ---------------------------------------------------------------------------
# spec files

def spec_to_json(spec: RankConditionSpec) -> dict:
    return {
        "n": spec.ambient_n,
        "label": spec.label,
        "conditions": [{"i": c.row, "j": c.col, "r": c.max_rank} for c in spec.conditions],
    }


def _int_field(data: Mapping, key: str, name: str) -> int:
    if key not in data:
        raise ValueError(f"spec field {name} is missing")
    value = data[key]
    if not _is_int(value):
        raise ValueError(f"spec field {name} must be an integer, got {reprlib.repr(value)}")
    return value


def _label_field(data: Mapping, default: str) -> str:
    label = data.get("label", default)
    if not isinstance(label, str):
        raise ValueError(f"spec field label must be a string, got {reprlib.repr(label)}")
    return label


def spec_from_json(data: Mapping) -> RankConditionSpec:
    """Accepts ``{"n":., "label":., "conditions":[{"i":.,"j":.,"r":.},..]}``
    or ``{"n":., "permutation":"1 4 2 3"}`` (n optional in the second form),
    not both.
    Malformed input raises ValueError naming the offending field."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a spec must be a JSON object, got {type(data).__name__}")
    if "permutation" in data:
        if "conditions" in data:
            raise ValueError("spec has both a permutation and conditions; give one")
        text = data["permutation"]
        if not isinstance(text, str):
            raise ValueError(f"spec field permutation must be a string, got {reprlib.repr(text)}")
        p = parse_one_line(text)
        if "n" in data and _int_field(data, "n", "n") != p.n:
            raise ValueError(
                f"declared n={reprlib.repr(data['n'])} but the permutation has {p.n} entries"
            )
        spec = spec_from_permutation(p)
        return RankConditionSpec(spec.ambient_n, spec.conditions, _label_field(data, spec.label))
    if "n" not in data or "conditions" not in data:
        raise ValueError("spec needs either a permutation or n plus conditions")
    if not isinstance(data["conditions"], list):
        raise ValueError("spec field conditions must be a list")
    conditions = []
    for index, cond in enumerate(data["conditions"]):
        name = f"conditions[{index}]"
        if not isinstance(cond, Mapping):
            raise ValueError(f"spec field {name} must be an object with i, j and r")
        conditions.append(
            RankCondition(*(_int_field(cond, key, f"{name}.{key}") for key in "ijr"))
        )
    return RankConditionSpec(_int_field(data, "n", "n"), conditions, _label_field(data, ""))


def load_spec(path: str) -> RankConditionSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("spec file is nested too deeply") from None
    return spec_from_json(data)
