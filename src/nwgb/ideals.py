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
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

from .permutations import PartialPermutation, essential_set, parse_one_line, rank_matrix
from .polynomials import Antidiagonal, Polynomial, antidiagonal_of, determinant


@dataclass(frozen=True)
class RankCondition:
    """The northwest ``row`` x ``col`` submatrix has rank at most ``max_rank``."""

    row: int
    col: int
    max_rank: int

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise ValueError("corner indices start at 1")
        if not 0 <= self.max_rank <= min(self.row, self.col):
            raise ValueError(
                f"rank bound {self.max_rank} out of range for a "
                f"{self.row}x{self.col} region"
            )


@dataclass(frozen=True)
class RankConditionSpec:
    """A scheme given by a list of rank conditions inside an n x n matrix.

    Conditions may be redundant; nothing is pruned.  An empty condition
    list denotes the whole matrix space (the zero ideal).
    """

    ambient_n: int
    conditions: tuple[RankCondition, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.ambient_n < 1:
            raise ValueError("ambient size must be positive")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        for cond in self.conditions:
            if cond.row > self.ambient_n or cond.col > self.ambient_n:
                raise ValueError(f"condition {cond} exceeds ambient {self.ambient_n}")


@dataclass(frozen=True)
class FultonGenerator:
    """One minor imposed by a rank condition."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    poly: Polynomial
    source: RankCondition


def spec_from_permutation(p: PartialPermutation) -> RankConditionSpec:
    """Conditions at the essential boxes only (they suffice by Fulton's
    theorem)."""
    conditions = tuple(
        RankCondition(cell.row, cell.col, rank)
        for cell, rank in sorted(essential_set(p))
    )
    return RankConditionSpec(p.n, conditions, label=p.one_line())


def spec_from_rank_matrix(p: PartialPermutation) -> RankConditionSpec:
    """One condition per matrix position; deliberately redundant.

    Useful for checking that the essential boxes really do cut out the
    same ideal.
    """
    ranks = rank_matrix(p)
    conditions = tuple(
        RankCondition(i, j, ranks.entry(i, j))
        for i in range(1, p.n + 1)
        for j in range(1, p.n + 1)
    )
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


def fulton_generators(spec: RankConditionSpec) -> list[FultonGenerator]:
    """Every (r+1)-minor of every condition's region, in ``_minors`` order."""
    return [
        FultonGenerator(rows, cols, determinant(rows, cols), cond)
        for cond, rows, cols in _minors(spec)
    ]


def generator_polynomials(spec: RankConditionSpec) -> list[Polynomial]:
    return [g.poly for g in fulton_generators(spec)]


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
        "conditions": [
            {"i": c.row, "j": c.col, "r": c.max_rank} for c in spec.conditions
        ],
    }


def _int_field(data: Mapping, key: str, name: str) -> int:
    if key not in data:
        raise ValueError(f"spec field {name} is missing")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"spec field {name} must be an integer, got {value!r}")
    return value


def _label_field(data: Mapping, default: str) -> str:
    label = data.get("label", default)
    if not isinstance(label, str):
        raise ValueError(f"spec field label must be a string, got {label!r}")
    return label


def spec_from_json(data: Mapping) -> RankConditionSpec:
    """Accepts ``{"n":., "label":., "conditions":[{"i":.,"j":.,"r":.},..]}``
    or ``{"n":., "permutation":"1 4 2 3"}`` (n optional in the second form).
    Malformed input raises ValueError naming the offending field."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a spec must be a JSON object, got {type(data).__name__}")
    if "permutation" in data:
        text = data["permutation"]
        if not isinstance(text, str):
            raise ValueError(f"spec field permutation must be a string, got {text!r}")
        p = parse_one_line(text)
        if "n" in data and _int_field(data, "n", "n") != p.n:
            raise ValueError(
                f"declared n={data['n']} but the permutation has {p.n} entries"
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
        data = json.load(handle)
    return spec_from_json(data)
