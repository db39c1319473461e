"""Partial permutations, rank matrices, Rothe diagrams, essential sets."""

import random
import re
from itertools import permutations as itertools_permutations, product

import pytest
from conftest import check_value_contract, exact

from nwgb import (
    Cell,
    PartialPermutation,
    essential_set,
    inversions,
    parse_one_line,
    rank_matrix,
    rothe_diagram,
)
from nwgb.payloads import diagram_json, diagram_text


def brute_rank(p, i, j):
    """Independent oracle: count the 1s weakly northwest of (i, j)."""
    return sum(
        1
        for k in range(1, i + 1)
        if p.images[k - 1] is not None and p.images[k - 1] <= j
    )


def random_partial(rng, n):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    images = []
    for v in values:
        images.append(v if rng.random() < 0.7 else None)
    return PartialPermutation(tuple(images))


# parsing -------------------------------------------------------------------

def test_parse_one_line_basic():
    assert parse_one_line("2 1 4 3").images == (2, 1, 4, 3)
    assert parse_one_line("1 2 3").images == (1, 2, 3)
    assert parse_one_line("2 * 1").images == (2, None, 1)


def test_parse_separators():
    assert parse_one_line("2,1,4,3").images == (2, 1, 4, 3)
    assert parse_one_line("  2 ,  1  ").images == (2, 1)
    assert parse_one_line("2 ⋆ 1").images == (2, None, 1)


def parse_outcome(text):
    try:
        return parse_one_line(text).images
    except ValueError as error:
        return str(error)


def test_parse_one_line_splits_as_the_regex_did():
    # str.split() and the regex class \s both split on the str.isspace
    # characters, Unicode ones included; the reference tokens, joined by
    # single spaces, must parse to the same images or the same error
    spaces = [c for c in map(chr, range(0x3001)) if c.isspace()]
    assert len(spaces) > 20
    alphabet = list("0123456789*,") + spaces
    rng = random.Random(41)
    for _ in range(20000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
        assert parse_outcome(text) == parse_outcome(" ".join(tokens)), repr(text)
    assert parse_one_line("2\u3000*\x1c1,\xa03").images == (2, None, 1, 3)


@pytest.mark.parametrize(
    "text",
    ["", "   ", "1 1 2", "1 4 2", "0 1 2", "1 x 2", "-1 2"],
)
def test_parse_errors(text):
    with pytest.raises(ValueError):
        parse_one_line(text)


def test_partial_permutation_validation():
    with pytest.raises(ValueError, match=exact("duplicate value 1")):
        PartialPermutation((1, 1))
    with pytest.raises(ValueError, match=exact("a permutation needs at least one entry")):
        PartialPermutation(())
    with pytest.raises(ValueError, match=exact("value 3 outside 1..2")):
        PartialPermutation((1, 3))
    with pytest.raises(ValueError, match=exact("value 'a' outside 1..2")):
        PartialPermutation((1, "a"))
    # a bool or a float is not an image, though it compares equal to one
    with pytest.raises(ValueError, match=exact("value True outside 1..2")):
        PartialPermutation((True, 2))
    with pytest.raises(ValueError, match=exact("value 2.0 outside 1..2")):
        PartialPermutation((1, 2.0))
    with pytest.raises(ValueError, match=exact("value 'xxxxxxxxxxxx...xxxxxxxxxxxxx' outside 1..2")):
        PartialPermutation((1, "x" * 100))
    assert PartialPermutation((None, None)).n == 2


@pytest.mark.parametrize(
    "images, shown",
    [([1, 2], "[1, 2]"), ("12", "'12'"), (range(1, 3), "range(1, 3)"), (None, "None")],
)
def test_partial_permutation_takes_only_a_tuple(images, shown):
    # a list would be stored as given and make the value unhashable
    with pytest.raises(ValueError, match=exact(f"images must be a tuple, got {shown}")):
        PartialPermutation(images)


def test_one_line_round_trips_through_parse_one_line():
    perms = [PartialPermutation(images) for images in itertools_permutations(range(1, 5))]
    for n in range(1, 4):
        for images in product([None, *range(1, n + 1)], repeat=n):
            defined = [v for v in images if v is not None]
            if len(set(defined)) == len(defined):
                perms.append(PartialPermutation(images))
    assert len(perms) == 24 + 2 + 7 + 34
    for p in perms:
        assert parse_one_line(p.one_line()) == p


def test_partial_permutation_value_contract():
    check_value_contract(
        PartialPermutation,
        ("images",),
        ((2, None, 1),),
        ((2, 1, None),),
        "PartialPermutation(images=(2, None, 1))",
    )


def test_one_line_round_trip():
    for text in ("2 1 4 3", "2 * 1", "1"):
        assert parse_one_line(text).one_line() == text


# rank matrices --------------------------------------------------------------

def test_rank_matrix_15432_matches_published_grid():
    grid = rank_matrix(parse_one_line("1 5 4 3 2"))
    assert grid == (
        (1, 1, 1, 1, 1),
        (1, 1, 1, 1, 2),
        (1, 1, 1, 2, 3),
        (1, 1, 2, 3, 4),
        (1, 2, 3, 4, 5),
    )


def test_rank_matrix_identity_is_min_staircase():
    grid = rank_matrix(parse_one_line("1 2 3"))
    assert grid == ((1, 1, 1), (1, 2, 2), (1, 2, 3))


def test_rank_matrix_231():
    # frozen from the brute-force count; each row-2 entry ignores the 1s in
    # columns 2 and 3 of rows 1..2 only when they sit right of j
    p = parse_one_line("2 3 1")
    grid = rank_matrix(p)
    assert grid == ((0, 1, 1), (0, 1, 2), (1, 2, 3))
    for i in range(1, 4):
        for j in range(1, 4):
            assert grid[i - 1][j - 1] == brute_rank(p, i, j)


def test_rank_matrix_ignores_undefined_entries():
    p = parse_one_line("2 * 1")
    assert rank_matrix(p) == ((0, 1, 1), (0, 1, 1), (1, 2, 2))


def test_rank_matrix_matches_brute_force_on_random_partials():
    rng = random.Random(7)
    for _ in range(50):
        p = random_partial(rng, rng.randint(1, 6))
        grid = rank_matrix(p)
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                assert grid[i - 1][j - 1] == brute_rank(p, i, j)


def test_rank_matrix_invariants_on_random_partials():
    rng = random.Random(11)
    for _ in range(50):
        p = random_partial(rng, rng.randint(1, 6))
        grid = rank_matrix(p)
        n = len(grid)
        for i in range(n):
            for j in range(n):
                assert 0 <= grid[i][j] <= min(i + 1, j + 1)
                if i:
                    assert grid[i][j] - grid[i - 1][j] in (0, 1)
                if j:
                    assert grid[i][j] - grid[i][j - 1] in (0, 1)


def test_rank_matrix_boundary_for_honest_permutations():
    for images in itertools_permutations(range(1, 5)):
        grid = rank_matrix(PartialPermutation(images))
        assert grid[3] == (1, 2, 3, 4)
        assert tuple(row[3] for row in grid) == (1, 2, 3, 4)


# Rothe diagrams -------------------------------------------------------------

def test_rothe_diagram_2143():
    assert rothe_diagram(parse_one_line("2 1 4 3")) == {Cell(1, 1), Cell(3, 3)}


def test_rothe_diagram_15432():
    assert rothe_diagram(parse_one_line("1 5 4 3 2")) == {
        Cell(2, 2),
        Cell(2, 3),
        Cell(2, 4),
        Cell(3, 2),
        Cell(3, 3),
        Cell(4, 2),
    }


def test_rothe_diagram_identity_empty():
    assert rothe_diagram(parse_one_line("1 2 3")) == frozenset()


def test_rothe_diagram_partial():
    assert rothe_diagram(parse_one_line("2 * 1")) == {
        Cell(1, 1),
        Cell(2, 1),
        Cell(2, 3),
    }


def reference_rothe_diagram(p):
    """The definition, one column scan per cell: (i, j) survives when row i
    has no 1 weakly left of it and column j no 1 weakly above it."""
    n = p.n
    cells = set()
    for i in range(1, n + 1):
        value = p.images[i - 1]
        row_stop = value if value is not None else n + 1
        for j in range(1, row_stop):
            k = next((row for row in range(1, n + 1) if p.images[row - 1] == j), None)
            if k is None or k > i:
                cells.add(Cell(i, j))
    return frozenset(cells)


def test_rothe_diagram_equals_definition_on_s4_and_random_partials():
    perms = [PartialPermutation(images) for images in itertools_permutations(range(1, 5))]
    rng = random.Random(12)
    perms += [random_partial(rng, rng.randint(1, 8)) for _ in range(500)]
    assert any(None in p.images for p in perms)
    for p in perms:
        assert rothe_diagram(p) == reference_rothe_diagram(p), p


def test_diagram_size_is_coxeter_length_on_s3_s4():
    for n in (3, 4):
        for images in itertools_permutations(range(1, n + 1)):
            p = PartialPermutation(images)
            assert len(rothe_diagram(p)) == inversions(p)


# essential sets -------------------------------------------------------------

def test_essential_set_2143():
    assert essential_set(parse_one_line("2 1 4 3")) == {
        (Cell(1, 1), 0),
        (Cell(3, 3), 2),
    }


def test_essential_set_15432():
    assert essential_set(parse_one_line("1 5 4 3 2")) == {
        (Cell(2, 4), 1),
        (Cell(3, 3), 1),
        (Cell(4, 2), 1),
    }


def test_essential_set_identity_empty():
    assert essential_set(parse_one_line("1 2 3")) == frozenset()


def test_essential_set_partial():
    assert essential_set(parse_one_line("2 * 1")) == {
        (Cell(2, 1), 0),
        (Cell(2, 3), 1),
    }


def reference_essential_set(p):
    """The definition: reference diagram cells with no reference diagram
    cell immediately south or east, each with its brute-force rank."""
    diagram = reference_rothe_diagram(p)
    return frozenset(
        (cell, brute_rank(p, cell.row, cell.col))
        for cell in diagram
        if Cell(cell.row + 1, cell.col) not in diagram
        and Cell(cell.row, cell.col + 1) not in diagram
    )


def test_essential_set_equals_definition_on_s4_and_random_partials():
    perms = [PartialPermutation(images) for images in itertools_permutations(range(1, 5))]
    rng = random.Random(13)
    perms += [random_partial(rng, rng.randint(1, 7)) for _ in range(300)]
    assert any(None in p.images for p in perms)
    for p in perms:
        assert essential_set(p) == reference_essential_set(p), p


def test_essential_subset_of_diagram_on_random_partials():
    rng = random.Random(3)
    for _ in range(60):
        p = random_partial(rng, rng.randint(1, 6))
        diagram = rothe_diagram(p)
        for cell, rank in essential_set(p):
            assert cell in diagram
            assert rank == brute_rank(p, cell.row, cell.col)


# rendering ------------------------------------------------------------------

def diagram_grid(p):
    return diagram_text(p).split("\n\n")[0]


def test_diagram_ascii_2143():
    assert diagram_grid(parse_one_line("2 1 4 3")) == "\n".join(
        [
            "e 1 . .",
            "1 . . .",
            ". . e 1",
            ". . 1 .",
        ]
    )


def test_diagram_ascii_marks_non_essential_cells():
    text = diagram_grid(parse_one_line("1 5 4 3 2"))
    assert text.splitlines()[1] == ". D D e 1"


def test_diagram_json_schema():
    data = diagram_json(parse_one_line("2 1 4 3"))
    assert data["diagram"] == {"cells": [[1, 1], [3, 3]]}
    assert data["essential"] == [
        {"cell": [1, 1], "rank": 0},
        {"cell": [3, 3], "rank": 2},
    ]
    assert data["rank_matrix"][0] == [0, 1, 1, 1]
