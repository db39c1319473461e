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
        conditions = tuple(conditions)
        for cond in conditions:
            if cond.row > ambient_n or cond.col > ambient_n:
                raise ValueError(
                    f"condition RankCondition(row={reprlib.repr(cond.row)}, "
                    f"col={reprlib.repr(cond.col)}, max_rank={reprlib.repr(cond.max_rank)}) "
                    f"exceeds ambient {reprlib.repr(ambient_n)}"
                )
        super().__init__(ambient_n, conditions, label)


def spec_from_permutation(p: PartialPermutation) -> RankConditionSpec:
    """Conditions at the essential boxes only (they suffice by Fulton's
    theorem)."""
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


def fulton_generators(
    spec: RankConditionSpec,
) -> list[tuple[RankCondition, tuple[int, ...], tuple[int, ...], Polynomial]]:
    """(condition, rows, cols, determinant) of every (r+1)-minor of every
    condition's region, in ``_minors`` order."""
    return [(cond, rows, cols, determinant(rows, cols)) for cond, rows, cols in _minors(spec)]


def generator_polynomials(spec: RankConditionSpec) -> list[Polynomial]:
    return [poly for _, _, _, poly in fulton_generators(spec)]


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
