"""Rank-condition specs, Fulton generators and spec files."""

import json
from itertools import permutations as itertools_permutations

import pytest
from conftest import check_value_contract, exact

from nwgb import (
    Cell,
    Monomial,
    PartialPermutation,
    Polynomial,
    RankCondition,
    RankConditionSpec,
    antidiagonals_of_spec,
    fulton_generators,
    generator_minors,
    generator_polynomials,
    ideals_equal,
    load_spec,
    parse_one_line,
    spec_from_json,
    spec_from_permutation,
    spec_from_rank_matrix,
    spec_to_json,
)
from nwgb.ideals import fulton_is_groebner
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
    assert [polynomial_text(poly) for _, _, _, poly in gens] == ["1*m[1,1]", "1*m[2,1]"]


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
    (_, _, _, first), (_, rows, cols, second) = gens
    assert first == Polynomial.variable(Cell(1, 1))
    assert second == determinant([1, 2, 3], [1, 2, 3])
    assert rows == (1, 2, 3) and cols == (1, 2, 3)


def test_full_grid_rank_zero_condition_yields_all_variables():
    spec = RankConditionSpec(2, (RankCondition(2, 2, 0),))
    gens = fulton_generators(spec)
    assert [poly for _, _, _, poly in gens] == [
        Polynomial.variable(Cell(r, c)) for r in (1, 2) for c in (1, 2)
    ]


def test_generator_enumeration_order_rows_then_cols():
    spec = RankConditionSpec(3, (RankCondition(3, 2, 1),))
    gens = fulton_generators(spec)
    assert [(rows, cols) for _, rows, cols, _ in gens] == [
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
        for _, rows, cols, poly in fulton_generators(spec):
            antidiagonal = antidiagonal_of(rows, cols)
            assert poly.leading_monomial() == Monomial.from_cells(antidiagonal.cells)


def redundant_specs():
    """Specs whose conditions share minors: the essential sets of some S5
    permutations, and the full rank matrices of all of S4."""
    texts = ("1 4 5 3 2", "1 2 5 4 3", "1 4 3 2 5", "3 5 1 4 2", "2 1 4 3")
    perms = [PartialPermutation(images) for images in itertools_permutations(range(1, 5))]
    return [spec_from_permutation(parse_one_line(t)) for t in texts] + [
        spec_from_rank_matrix(p) for p in perms
    ]


def test_fulton_generators_expand_each_minor_once(monkeypatch):
    expanded = []

    def counted(rows, cols):
        expanded.append((rows, cols))
        return determinant(rows, cols)

    monkeypatch.setattr("nwgb.ideals.determinant", counted)
    repeated = 0
    for spec in redundant_specs():
        del expanded[:]
        gens = fulton_generators(spec)
        first = {}
        for _, rows, cols, poly in gens:
            assert first.setdefault((rows, cols), poly) is poly
            assert poly == determinant(rows, cols)
        assert expanded == list(first)
        repeated += len(gens) - len(first)
    assert repeated == 86


def test_generator_polynomials_keep_the_first_of_each_minor():
    repeated = 0
    for spec in redundant_specs():
        listed = [poly for _, _, _, poly in fulton_generators(spec)]
        distinct = generator_polynomials(spec)
        minors = generator_minors(spec)
        assert minors == list(dict.fromkeys((r, c) for _, r, c, _ in fulton_generators(spec)))
        assert distinct == [determinant(rows, cols) for rows, cols in minors]
        assert len(set(distinct)) == len(distinct)
        assert distinct == list(dict.fromkeys(listed))  # first-occurrence order
        assert ideals_equal(distinct, listed)
        repeated += len(listed) - len(distinct)
    assert repeated == 86


def test_condition_validation():
    with pytest.raises(ValueError, match=exact("corner indices start at 1")):
        RankCondition(0, 1, 0)
    with pytest.raises(ValueError, match=exact("corner indices start at 1")):
        RankCondition(1, 0, 0)
    with pytest.raises(ValueError, match=exact("rank bound 3 out of range for a 2x2 region")):
        RankCondition(2, 2, 3)
    with pytest.raises(ValueError, match=exact("rank bound -1 out of range for a 2x3 region")):
        RankCondition(2, 3, -1)
    with pytest.raises(
        ValueError,
        match=exact("condition RankCondition(row=3, col=1, max_rank=0) exceeds ambient 2"),
    ):
        RankConditionSpec(2, (RankCondition(3, 1, 0),))
    with pytest.raises(ValueError, match=exact("ambient size must be positive")):
        RankConditionSpec(0, ())


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 2, False), "row must be an integer, got True"),
        ((2.0, 2, 1), "row must be an integer, got 2.0"),
        (("3", 2, 1), "row must be an integer, got '3'"),
        ((2, None, 1), "col must be an integer, got None"),
        ((2, 2, False), "max_rank must be an integer, got False"),
        ((2, 2, 1.5), "max_rank must be an integer, got 1.5"),
        ((2, 2, "x" * 100), "max_rank must be an integer, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ],
)
def test_condition_takes_only_ints(args, message):
    with pytest.raises(ValueError, match=exact(message)):
        RankCondition(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True,), "ambient size must be an integer, got True"),
        ((3.0,), "ambient size must be an integer, got 3.0"),
        (("3",), "ambient size must be an integer, got '3'"),
        ((3, (), None), "label must be a string, got None"),
        ((3, (), b"2 1 3"), "label must be a string, got b'2 1 3'"),
        ((3, (), 7), "label must be a string, got 7"),
    ],
)
def test_spec_takes_an_int_size_and_a_str_label(args, message):
    with pytest.raises(ValueError, match=exact(message)):
        RankConditionSpec(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, [(1, 1, 0)]), "condition (1, 1, 0) is not a RankCondition"),
        ((3, [RankCondition(1, 1, 0), None]), "condition None is not a RankCondition"),
        ((3, "x"), "condition 'x' is not a RankCondition"),
        ((3, 5), "conditions must be an iterable of RankCondition, got 5"),
        ((3, None), "conditions must be an iterable of RankCondition, got None"),
    ],
)
def test_spec_takes_only_rank_conditions(args, message):
    with pytest.raises(ValueError, match=exact(message)):
        RankConditionSpec(*args)


def test_spec_json_round_trips_on_every_s4_spec():
    perms = [PartialPermutation(images) for images in itertools_permutations(range(1, 5))]
    specs = [make(p) for p in perms for make in (spec_from_permutation, spec_from_rank_matrix)]
    assert len(set(specs)) == 48
    for spec in specs:
        assert spec_from_json(spec_to_json(spec)) == spec
        assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_condition_and_spec_value_contract():
    check_value_contract(
        RankCondition,
        ("row", "col", "max_rank"),
        (2, 3, 1),
        (2, 3, 0),
        "RankCondition(row=2, col=3, max_rank=1)",
    )
    conditions = [RankCondition(2, 3, 1)]
    check_value_contract(
        RankConditionSpec,
        ("ambient_n", "conditions", "label"),
        (3, conditions, "x"),
        (3, conditions, "y"),
        "RankConditionSpec(ambient_n=3, conditions=(RankCondition(row=2, col=3, max_rank=1),), label='x')",
    )
    # the conditions become a tuple; both trailing fields have defaults
    assert RankConditionSpec(3, conditions).conditions == tuple(conditions)
    assert repr(RankConditionSpec(3)) == "RankConditionSpec(ambient_n=3, conditions=(), label='')"
    assert RankConditionSpec(3, label="x") == RankConditionSpec(3, (), "x")


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


def test_a_theorem_settles_at_most_one_condition():
    assert fulton_is_groebner(RankConditionSpec(3))
    assert fulton_is_groebner(RankConditionSpec(5, [RankCondition(5, 5, 2)], "any label"))
    # the rank <= 2 locus of a 4x4 matrix is one condition, whatever made it
    assert fulton_is_groebner(spec_from_permutation(parse_one_line("1 2 * *")))
    assert fulton_is_groebner(spec_from_json({"permutation": "2 3 1"}))
    unrelated = [RankCondition(3, 4, 1), RankCondition(4, 3, 1)]
    cases = {
        "two unrelated conditions": RankConditionSpec(4, unrelated),
        "a partial permutation": spec_from_permutation(parse_one_line("* 3 1 *")),
        "the full rank matrix": spec_from_rank_matrix(parse_one_line("1 5 4 3 2")),
    }
    # honest permutations of several conditions run the queue too
    for text in ("2 1 4 3", "1 5 4 3 2", "3 1 5 2 4", "2 1 9 8 7 6 5 4 3"):
        cases[text] = spec_from_permutation(parse_one_line(text))
    for name, spec in cases.items():
        assert len(spec.conditions) > 1 and not fulton_is_groebner(spec), name
