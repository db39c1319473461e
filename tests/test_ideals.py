"""Rank-condition specs, Fulton generators and spec files."""

import json

import pytest

from nwgb import (
    Cell,
    Monomial,
    Polynomial,
    RankCondition,
    RankConditionSpec,
    antidiagonals_of_spec,
    fulton_generators,
    generator_polynomials,
    ideals_equal,
    load_spec,
    parse_one_line,
    spec_from_json,
    spec_from_permutation,
    spec_from_rank_matrix,
    spec_to_json,
)
from nwgb.polynomials import antidiagonal_of, determinant, polynomial_text


def test_spec_from_2143():
    spec = spec_from_permutation(parse_one_line("2 1 4 3"))
    assert spec.conditions == (
        RankCondition(1, 1, 0),
        RankCondition(3, 3, 2),
    )
    assert spec.label == "2 1 4 3"


def test_spec_from_231_and_its_generators():
    spec = spec_from_permutation(parse_one_line("2 3 1"))
    assert spec.conditions == (RankCondition(2, 1, 0),)
    gens = fulton_generators(spec)
    assert [polynomial_text(g.poly) for g in gens] == ["1*m[1,1]", "1*m[2,1]"]


def test_spec_from_identity_is_empty():
    spec = spec_from_permutation(parse_one_line("1 2 3"))
    assert spec.conditions == ()
    assert fulton_generators(spec) == []


def test_vacuous_condition_contributes_nothing():
    spec = RankConditionSpec(2, (RankCondition(2, 2, 2),))
    assert fulton_generators(spec) == []


def test_2143_has_two_generators():
    spec = spec_from_permutation(parse_one_line("2 1 4 3"))
    gens = fulton_generators(spec)
    assert len(gens) == 2
    assert gens[0].poly == Polynomial.variable(Cell(1, 1))
    assert gens[1].poly == determinant([1, 2, 3], [1, 2, 3])
    assert gens[1].rows == (1, 2, 3) and gens[1].cols == (1, 2, 3)


def test_full_grid_rank_zero_condition_yields_all_variables():
    spec = RankConditionSpec(2, (RankCondition(2, 2, 0),))
    gens = fulton_generators(spec)
    assert [g.poly for g in gens] == [
        Polynomial.variable(Cell(r, c)) for r in (1, 2) for c in (1, 2)
    ]


def test_generator_enumeration_order_rows_then_cols():
    spec = RankConditionSpec(3, (RankCondition(3, 2, 1),))
    gens = fulton_generators(spec)
    assert [(g.rows, g.cols) for g in gens] == [
        ((1, 2), (1, 2)),
        ((1, 3), (1, 2)),
        ((2, 3), (1, 2)),
    ]


def test_antidiagonals_of_231_312_2143():
    a231 = antidiagonals_of_spec(spec_from_permutation(parse_one_line("2 3 1")))
    assert [a.cells for a in a231] == [(Cell(1, 1),), (Cell(2, 1),)]
    a312 = antidiagonals_of_spec(spec_from_permutation(parse_one_line("3 1 2")))
    assert [a.cells for a in a312] == [(Cell(1, 1),), (Cell(1, 2),)]
    a2143 = antidiagonals_of_spec(spec_from_permutation(parse_one_line("2 1 4 3")))
    assert [a.cells for a in a2143] == [
        (Cell(1, 1),),
        (Cell(1, 3), Cell(2, 2), Cell(3, 1)),
    ]


def test_antidiagonals_deduplicated_across_conditions():
    spec = RankConditionSpec(
        2, (RankCondition(1, 1, 0), RankCondition(2, 2, 0))
    )
    cells = [a.cells for a in antidiagonals_of_spec(spec)]
    assert cells == [
        (Cell(1, 1),),
        (Cell(1, 2),),
        (Cell(2, 1),),
        (Cell(2, 2),),
    ]


def test_fulton_generator_leading_monomials_are_their_antidiagonals():
    for text in ("2 1 4 3", "1 5 4 3 2", "2 * 1"):
        spec = spec_from_permutation(parse_one_line(text))
        for g in fulton_generators(spec):
            antidiagonal = antidiagonal_of(g.rows, g.cols)
            assert g.poly.leading_monomial() == Monomial.from_cells(antidiagonal.cells)


def test_condition_validation():
    with pytest.raises(ValueError):
        RankCondition(0, 1, 0)
    with pytest.raises(ValueError):
        RankCondition(2, 2, 3)
    with pytest.raises(ValueError):
        RankConditionSpec(2, (RankCondition(3, 1, 0),))
    with pytest.raises(ValueError):
        RankConditionSpec(0, ())


def test_essential_conditions_cut_the_same_ideal_as_the_full_rank_matrix():
    for text in ("2 1 4 3", "2 3 1", "3 1 2", "1 4 3 2"):
        p = parse_one_line(text)
        essential = generator_polynomials(spec_from_permutation(p))
        everything = generator_polynomials(spec_from_rank_matrix(p))
        assert ideals_equal(essential, everything)


def test_essential_conditions_suffice_for_sampled_partial_permutations():
    for text in ("2 * 1", "* 3 * 1", "3 * * 2"):
        p = parse_one_line(text)
        essential = generator_polynomials(spec_from_permutation(p))
        everything = generator_polynomials(spec_from_rank_matrix(p))
        assert ideals_equal(essential, everything)


# spec files -------------------------------------------------------------------

def test_spec_json_condition_form():
    spec = spec_from_json(
        {"n": 4, "label": "X", "conditions": [{"i": 3, "j": 3, "r": 2}]}
    )
    assert spec == RankConditionSpec(4, (RankCondition(3, 3, 2),), "X")


def test_spec_json_permutation_form():
    spec = spec_from_json({"n": 4, "permutation": "1 4 2 3"})
    assert spec.ambient_n == 4
    assert spec.conditions == (RankCondition(2, 3, 1),)
    assert spec.label == "1 4 2 3"


def test_spec_json_permutation_n_mismatch():
    with pytest.raises(ValueError):
        spec_from_json({"n": 5, "permutation": "1 4 2 3"})


def test_spec_json_missing_fields():
    with pytest.raises(ValueError):
        spec_from_json({"n": 3})


def test_spec_json_round_trip():
    spec = RankConditionSpec(
        4, (RankCondition(2, 3, 1), RankCondition(4, 4, 2)), "demo"
    )
    assert spec_from_json(spec_to_json(spec)) == spec


def test_load_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 3, "permutation": "2 3 1"}))
    spec = load_spec(str(path))
    assert spec.conditions == (RankCondition(2, 1, 0),)
