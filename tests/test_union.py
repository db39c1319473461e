"""Chain extraction, generator products and union bases."""

import gc
import json
import random
import weakref
from fractions import Fraction
from itertools import combinations, permutations as itertools_permutations, product

import pytest
from conftest import folded_product, reference_failures, zero_remainders

from nwgb import (
    Antidiagonal,
    Cell,
    Monomial,
    PartialPermutation,
    Polynomial,
    RankCondition,
    RankConditionSpec,
    antidiagonals_of_spec,
    buchberger,
    extract_factors,
    generator_polynomials,
    generator_product,
    normal_form,
    parse_one_line,
    spec_from_permutation,
    union_basis,
)
import nwgb.polynomials
import nwgb.union
from nwgb.polynomials import _FIELD_BITS, determinant, polynomial_text, polynomial_to_json
from nwgb.union import (
    GeneratorProduct,
    _longest_chain,
    basis_json_chunks,
    basis_text_chunks,
    certified,
    hold,
)
from nwgb.verify import honest_permutations, spec_bases, union_verdicts
from test_polynomials import monic


def anti(*cells):
    return Antidiagonal(tuple(Cell(r, c) for r, c in cells))


def unpacked(g):
    """The generator's packed product as a Polynomial."""
    product = g.packed
    return product.layout.polynomial(product.terms)


def random_antidiagonal(rng, n=5, max_len=4):
    length = rng.randint(1, max_len)
    rows = sorted(rng.sample(range(1, n + 1), length))
    cols = sorted(rng.sample(range(1, n + 1), length), reverse=True)
    return Antidiagonal(tuple(Cell(r, c) for r, c in zip(rows, cols)))


def brute_longest_chains(cells):
    """Independent oracle: enumerate every strictly-SW-stepping chain."""
    cells = sorted(cells)
    best = []
    best_len = 0

    def grow(chain, rest):
        nonlocal best, best_len
        if len(chain) > best_len:
            best, best_len = [tuple(chain)], len(chain)
        elif len(chain) == best_len:
            best.append(tuple(chain))
        for index, cell in enumerate(rest):
            if not chain or (cell.row > chain[-1].row and cell.col < chain[-1].col):
                grow(chain + [cell], rest[index + 1 :])

    grow([], cells)
    return best_len, best


# components -------------------------------------------------------------------

def test_disjoint_antidiagonals_make_two_components():
    a = anti((1, 2), (2, 1))
    b = anti((1, 4), (3, 1))
    assert extract_factors((a, b)) == [a, b]


def test_single_antidiagonal_is_one_component():
    a = anti((1, 4), (3, 2), (4, 1))
    assert extract_factors((a,)) == [a]


def test_shared_cell_merges_components():
    assert extract_factors((anti((1, 1),), anti((1, 1),))) == [anti((1, 1),)]
    merged = extract_factors((anti((2, 2), (3, 1)), anti((1, 3), (2, 2))))
    assert merged == [anti((1, 3), (2, 2), (3, 1))]


def test_component_order():
    # (1,3) and (2,2) would chain, but no color joins them: two components,
    # the NE-most first
    factors = extract_factors((anti((2, 2),), anti((1, 3),), anti((2, 2),)))
    assert factors == [anti((1, 3),), anti((2, 2),)]


# longest chains ----------------------------------------------------------------

def test_longest_antidiagonal_of_a_chain_is_itself():
    a = anti((1, 4), (3, 2), (4, 1))
    assert extract_factors((a,))[0] == a


def test_tie_break_prefers_most_northwest_chain():
    green = anti((1, 4), (2, 3), (3, 2))
    red = anti((1, 4), (4, 3), (5, 2))
    assert extract_factors((green, red))[0] == green


def test_longest_chain_matches_brute_force_and_is_lex_least():
    rng = random.Random(31)
    for _ in range(400):
        cells = {
            Cell(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))
        }
        chosen = _longest_chain(cells)
        best_len, best = brute_longest_chains(cells)
        assert len(chosen) == best_len
        assert chosen == min(best)


# extraction -------------------------------------------------------------------

def test_extract_disjoint_components_yield_their_own_antidiagonals():
    a = anti((1, 2), (2, 1))
    b = anti((1, 4), (3, 2), (4, 1))
    assert extract_factors((a, b)) == [a, b]


def test_extract_merged_antidiagonal_gives_single_factor():
    # two chains overlapping into one antidiagonal X
    green = anti((1, 4), (2, 3), (3, 2))
    red = anti((2, 3), (3, 2), (4, 1))
    assert extract_factors((green, red)) == [anti((1, 4), (2, 3), (3, 2), (4, 1))]


def test_extract_tie_component_factors():
    green = anti((1, 4), (2, 3), (3, 2))
    red = anti((1, 4), (4, 3), (5, 2))
    assert extract_factors((green, red)) == [green, anti((4, 3), (5, 2))]


def test_extraction_reconnects_surviving_dots_of_a_color():
    # the long chain consumes the middle of one color; its far tail must
    # come back as its own factor
    blue = anti((1, 2), (2, 1))
    green = anti((2, 4), (3, 2), (4, 1))
    red = anti((1, 5), (2, 4), (5, 1))
    assert extract_factors((blue, green, red)) == [
        blue,
        anti((1, 5), (2, 4), (3, 2), (4, 1)),
        anti((5, 1),),
    ]


def reference_split_cells(colors, alive):
    """Connected components as a graph search: edges join cells that are
    consecutive among the surviving cells of any one color."""
    alive_set = set(alive)
    adjacency = {cell: set() for cell in alive_set}
    for antidiag in colors:
        survivors = [c for c in antidiag.cells if c in alive_set]
        for a, b in zip(survivors, survivors[1:]):
            adjacency[a].add(b)
            adjacency[b].add(a)
    components = []
    seen = set()
    for cell in sorted(alive_set):
        if cell in seen:
            continue
        stack = [cell]
        group = set()
        while stack:
            current = stack.pop()
            if current in group:
                continue
            group.add(current)
            stack.extend(adjacency[current] - group)
        seen.update(group)
        components.append(frozenset(group))

    def ne(cells):
        cell = min(cells, key=lambda c: (c.row, -c.col))
        return (cell.row, cell.col)

    components.sort(key=ne)
    return components


def reference_longest_chain(cells):
    """Longest chain by reach over all cells, then the least candidate at
    each step."""
    ordered = sorted(cells)
    reach = {}
    for cell in sorted(ordered, key=lambda c: (-c.row, c.col)):
        best = 0
        for other in ordered:
            if other.row > cell.row and other.col < cell.col:
                best = max(best, reach[other])
        reach[cell] = 1 + best
    remaining = max(reach.values())
    chain = []
    previous = None
    while remaining:
        candidates = [
            c
            for c in ordered
            if reach[c] == remaining
            and (previous is None or (c.row > previous.row and c.col < previous.col))
        ]
        previous = min(candidates)
        chain.append(previous)
        remaining -= 1
    return tuple(chain)


def reference_extract_factors(antidiags):
    def strip(alive):
        factors = []
        for component in reference_split_cells(antidiags, alive):
            chain = reference_longest_chain(component)
            factors.append(Antidiagonal(chain))
            factors.extend(strip(component.difference(chain)))
        return factors

    return strip({cell for antidiag in antidiags for cell in antidiag.cells})


def s4_pair_choices():
    """Every choice of one Fulton antidiagonal from each of two S4 specs."""
    fulton = [antidiagonals_of_spec(spec) for spec in S4_SPECS]
    for left, right in product(fulton, repeat=2):
        yield from product(left, right)


def random_antidiagonal_lists():
    """3,000 seeded lists of up to 5 antidiagonals in an n x n grid, n <= 8."""
    rng = random.Random(41)
    for _ in range(3000):
        n = rng.randint(1, 8)
        yield [random_antidiagonal(rng, n=n, max_len=n) for _ in range(rng.randint(1, 5))]


def shares_a_cell(combo):
    cells = [cell for antidiag in combo for cell in antidiag.cells]
    return len(cells) != len(set(cells))


def test_extract_factors_equals_graph_search_reference_on_all_s4_pairs():
    # disjoint choices take extract_factors' shortcut, the others strip:
    # the bed holds both
    shared = set()
    for combo in s4_pair_choices():
        assert extract_factors(combo) == reference_extract_factors(combo)
        shared.add(shares_a_cell(combo))
    assert shared == {False, True}


def test_extract_factors_equals_graph_search_reference_on_random_lists():
    for antidiags in random_antidiagonal_lists():
        assert extract_factors(antidiags) == reference_extract_factors(antidiags)


def test_extract_factors_returns_pairwise_disjoint_inputs_themselves():
    a = anti((3, 2), (4, 1))
    b = anti((1, 4), (2, 3))
    c = anti((1, 2), (2, 1))
    # the objects themselves, in NE-cell order
    assert list(map(id, extract_factors((a, b, c)))) == [id(c), id(b), id(a)]
    disjoint = [
        combo for combo in s4_pair_choices() if set(combo[0].cells).isdisjoint(combo[1].cells)
    ]
    assert disjoint
    for combo in disjoint:
        ne_first = sorted(combo, key=lambda antidiag: antidiag.cells[0])
        assert list(map(id, extract_factors(combo))) == list(map(id, ne_first))


def test_extract_factors_equals_graph_search_reference_on_seeded_s5_pairs(monkeypatch):
    # a one-color component smaller than its color is what a strip leaves;
    # count those, so the test shows it reaches them
    components = nwgb.union._components
    remainders = []

    def spied(colors, alive):
        groups = components(colors, alive)
        remainders.extend(
            group for group, color in groups if color is not None and len(group) < len(color)
        )
        return groups

    monkeypatch.setattr(nwgb.union, "_components", spied)
    shared = set()
    for specs in sampled_pairs(S5_SPECS, 29, 200):
        for combo in product(*map(antidiagonals_of_spec, specs)):
            assert extract_factors(combo) == reference_extract_factors(combo)
            shared.add(shares_a_cell(combo))
    assert remainders
    assert shared == {False, True}


def test_every_extracted_factor_passes_the_antidiagonal_checks():
    # extract_factors builds its factors without Antidiagonal's checks
    for antidiags in [*s4_pair_choices(), *random_antidiagonal_lists()]:
        factors = extract_factors(antidiags)
        for factor in factors:
            assert type(factor) is Antidiagonal and type(factor.cells) is tuple
            assert all(type(cell) is Cell for cell in factor.cells)
            assert Antidiagonal(factor.cells) == factor
        cells = [cell for factor in factors for cell in factor.cells]
        assert len(cells) == len(set(cells))
        assert set(cells) == {cell for antidiag in antidiags for cell in antidiag.cells}


# generator products --------------------------------------------------------------

def test_single_antidiagonal_generator_is_its_determinant():
    a = anti((1, 4), (3, 2), (4, 1))
    built = generator_product([a])
    assert built.factors == (a,)
    assert unpacked(built) == determinant([1, 3, 4], [1, 2, 4])


def test_two_disjoint_singletons_multiply():
    built = generator_product([anti((1, 1),), anti((1, 2),)])
    assert unpacked(built) == Polynomial.variable(Cell(1, 1)) * Polynomial.variable(
        Cell(1, 2)
    )


def test_shared_box_collapses_to_one_factor():
    built = generator_product([anti((1, 1),), anti((1, 1),)])
    assert unpacked(built) == Polynomial.variable(Cell(1, 1))


def test_generator_of_no_antidiagonals_is_one():
    built = generator_product([])
    assert (built.inputs, built.factors, unpacked(built)) == ((), (), Polynomial.constant(1))


def test_generator_cell_partition_and_leading_monomial():
    rng = random.Random(37)
    for _ in range(150):
        antidiags = [random_antidiagonal(rng) for _ in range(rng.randint(1, 3))]
        built = generator_product(antidiags)
        occupied = set()
        for a in antidiags:
            occupied.update(a.cells)
        flat = [cell for factor in built.factors for cell in factor.cells]
        assert len(flat) == len(occupied)
        assert set(flat) == occupied
        coeff, lead = unpacked(built).leading_term()
        assert lead == Monomial.from_cells(occupied)
        assert lead.is_squarefree()


def test_first_touching_factor_dominates_inputs_on_schubert_diagrams():
    """On diagrams coming from S3/S4 ideal pairs, the first factor meeting an
    input antidiagonal is at least as long and fits a same-length window
    inside the input's northwest bounding region."""
    perms = [
        PartialPermutation(images)
        for images in itertools_permutations(range(1, 4))
    ]
    specs = [spec_from_permutation(p) for p in perms]
    pairs = [(a, b) for a in specs for b in specs]
    for left, right in pairs:
        for combo in product(
            antidiagonals_of_spec(left), antidiagonals_of_spec(right)
        ):
            built = generator_product(combo)
            for a in combo:
                first = next(
                    f for f in built.factors if set(f.cells) & set(a.cells)
                )
                assert len(first) >= len(a)
                size = len(a)
                max_row = max(c.row for c in a.cells)
                max_col = max(c.col for c in a.cells)
                assert any(
                    first.cells[s + size - 1].row <= max_row
                    and first.cells[s].col <= max_col
                    for s in range(len(first) - size + 1)
                )


def test_long_chain_can_escape_a_source_region():
    """Known limitation, kept as a regression marker: when the unique
    longest chain of a component jumps outside the bounding region of a
    touching input antidiagonal, the resulting product is not a member of
    that input's single-condition ideal.  This configuration cannot arise
    from the S3/S4 permutation ideals exercised by the acceptance suite."""
    a1 = anti((1, 4), (2, 1))
    a2 = anti((1, 4), (3, 2), (4, 1))
    built = generator_product([a1, a2])
    assert [(f.rows(), f.cols()) for f in built.factors] == [
        ((1, 3, 4), (1, 2, 4)),
        ((2,), (1,)),
    ]
    ideal_a1 = RankConditionSpec(4, (RankCondition(2, 4, 1),))
    basis = buchberger(generator_polynomials(ideal_a1))
    assert not normal_form(folded_product(built.factors), basis).is_zero()


def test_s5_pair_generator_outside_one_ideal():
    """Known defect, kept as a regression marker: on 1 2 4 5 3 | 1 4 2 3 5
    the two inputs share (1,3), so they form one component, whose longest
    chain takes rows 1, 3, 4 and leaves (2,1) as its own factor.  The
    product is not in the ideal of 1 4 2 3 5 (rank(NW 2x3) <= 1)."""
    specs = schubert_specs("1 2 4 5 3", "1 4 2 3 5")
    basis = union_basis(specs)
    assert len(basis) == 12
    bases = spec_bases(specs)
    bad = [g for g in basis if reference_failures([g], specs, bases)]
    assert [(g.inputs, [(f.rows(), f.cols()) for f in g.factors]) for g in bad] == [
        (
            (anti((1, 3), (3, 2), (4, 1)), anti((1, 3), (2, 1))),
            [((1, 3, 4), (1, 2, 3)), ((2,), (1,))],
        )
    ]
    message = (
        f"{polynomial_text(folded_product(bad[0].factors))} is not in the ideal of 1 4 2 3 5"
    )
    assert reference_failures([bad[0]], specs, bases) == [message]
    assert union_verdicts(basis, specs, "membership") == ([message], None, None)


# the S5 membership census ----------------------------------------------------------

# Every unordered pair of distinct non-identity S5 permutations (7,021), swept
# once outside this suite, in both orders with the same result: these 94 fail
# membership (ROADMAP item 1).  Each maps to its count of bad generators whose
# leading monomial is a proper multiple of another emitted one (dropping them
# leaves a Groebner basis), then of bad generators with a minimal lead (no
# product-of-determinants repair).
S5_FAILING_PAIRS = {
    ("1 2 4 5 3", "1 4 2 3 5"): (0, 1),
    ("1 2 4 5 3", "1 4 3 2 5"): (0, 1),
    ("1 2 4 5 3", "1 5 2 3 4"): (0, 1),
    ("1 2 4 5 3", "1 5 3 2 4"): (0, 1),
    ("1 2 5 3 4", "1 3 4 2 5"): (0, 1),
    ("1 2 5 3 4", "1 3 4 5 2"): (0, 1),
    ("1 2 5 3 4", "1 4 3 2 5"): (0, 1),
    ("1 2 5 3 4", "1 4 3 5 2"): (0, 1),
    ("1 2 5 4 3", "1 3 4 2 5"): (0, 1),
    ("1 2 5 4 3", "1 3 4 5 2"): (0, 1),
    ("1 2 5 4 3", "1 4 2 3 5"): (0, 1),
    ("1 2 5 4 3", "1 4 3 2 5"): (0, 2),
    ("1 2 5 4 3", "1 4 3 5 2"): (0, 1),
    ("1 2 5 4 3", "1 5 2 3 4"): (0, 1),
    ("1 2 5 4 3", "1 5 3 2 4"): (0, 1),
    ("1 3 4 2 5", "1 3 5 2 4"): (1, 0),
    ("1 3 4 2 5", "1 3 5 4 2"): (1, 0),
    ("1 3 4 2 5", "2 1 5 3 4"): (0, 1),
    ("1 3 4 2 5", "2 1 5 4 3"): (0, 1),
    ("1 3 4 2 5", "2 3 5 1 4"): (1, 0),
    ("1 3 4 2 5", "2 3 5 4 1"): (1, 0),
    ("1 3 4 2 5", "3 1 5 2 4"): (1, 0),
    ("1 3 4 2 5", "3 1 5 4 2"): (1, 0),
    ("1 3 4 2 5", "3 2 5 1 4"): (1, 0),
    ("1 3 4 2 5", "3 2 5 4 1"): (1, 0),
    ("1 3 4 5 2", "1 3 5 2 4"): (1, 0),
    ("1 3 4 5 2", "1 3 5 4 2"): (1, 0),
    ("1 3 4 5 2", "2 1 5 3 4"): (0, 1),
    ("1 3 4 5 2", "2 1 5 4 3"): (0, 1),
    ("1 3 4 5 2", "2 3 5 1 4"): (1, 0),
    ("1 3 4 5 2", "2 3 5 4 1"): (1, 0),
    ("1 3 4 5 2", "3 1 5 2 4"): (1, 0),
    ("1 3 4 5 2", "3 1 5 4 2"): (1, 0),
    ("1 3 4 5 2", "3 2 5 1 4"): (1, 0),
    ("1 3 4 5 2", "3 2 5 4 1"): (1, 0),
    ("1 3 5 2 4", "1 4 3 2 5"): (1, 0),
    ("1 3 5 2 4", "1 4 3 5 2"): (1, 0),
    ("1 3 5 4 2", "1 4 3 2 5"): (1, 0),
    ("1 3 5 4 2", "1 4 3 5 2"): (1, 0),
    ("1 4 2 3 5", "1 4 2 5 3"): (1, 0),
    ("1 4 2 3 5", "1 5 2 4 3"): (1, 0),
    ("1 4 2 3 5", "2 1 4 5 3"): (0, 1),
    ("1 4 2 3 5", "2 1 5 4 3"): (0, 1),
    ("1 4 2 3 5", "2 4 1 5 3"): (1, 0),
    ("1 4 2 3 5", "2 5 1 4 3"): (1, 0),
    ("1 4 2 3 5", "4 1 2 5 3"): (1, 0),
    ("1 4 2 3 5", "4 2 1 5 3"): (1, 0),
    ("1 4 2 3 5", "5 1 2 4 3"): (1, 0),
    ("1 4 2 3 5", "5 2 1 4 3"): (1, 0),
    ("1 4 2 5 3", "1 4 3 2 5"): (1, 0),
    ("1 4 2 5 3", "1 5 2 3 4"): (1, 0),
    ("1 4 2 5 3", "1 5 3 2 4"): (1, 0),
    ("1 4 3 2 5", "1 5 2 4 3"): (1, 0),
    ("1 4 3 2 5", "2 1 4 5 3"): (0, 1),
    ("1 4 3 2 5", "2 1 5 3 4"): (0, 1),
    ("1 4 3 2 5", "2 1 5 4 3"): (0, 2),
    ("1 4 3 2 5", "2 3 5 1 4"): (1, 0),
    ("1 4 3 2 5", "2 3 5 4 1"): (1, 0),
    ("1 4 3 2 5", "2 4 1 5 3"): (1, 0),
    ("1 4 3 2 5", "2 5 1 4 3"): (1, 0),
    ("1 4 3 2 5", "3 1 5 2 4"): (1, 0),
    ("1 4 3 2 5", "3 1 5 4 2"): (1, 0),
    ("1 4 3 2 5", "3 2 5 1 4"): (1, 0),
    ("1 4 3 2 5", "3 2 5 4 1"): (1, 0),
    ("1 4 3 2 5", "4 1 2 5 3"): (1, 0),
    ("1 4 3 2 5", "4 2 1 5 3"): (1, 0),
    ("1 4 3 2 5", "5 1 2 4 3"): (1, 0),
    ("1 4 3 2 5", "5 2 1 4 3"): (1, 0),
    ("1 4 3 5 2", "2 1 5 3 4"): (0, 1),
    ("1 4 3 5 2", "2 1 5 4 3"): (0, 1),
    ("1 4 3 5 2", "2 3 5 1 4"): (1, 0),
    ("1 4 3 5 2", "2 3 5 4 1"): (1, 0),
    ("1 4 3 5 2", "3 1 5 2 4"): (1, 0),
    ("1 4 3 5 2", "3 1 5 4 2"): (1, 0),
    ("1 4 3 5 2", "3 2 5 1 4"): (1, 0),
    ("1 4 3 5 2", "3 2 5 4 1"): (1, 0),
    ("1 5 2 3 4", "1 5 2 4 3"): (1, 0),
    ("1 5 2 3 4", "2 1 4 5 3"): (0, 1),
    ("1 5 2 3 4", "2 1 5 4 3"): (0, 1),
    ("1 5 2 3 4", "2 4 1 5 3"): (1, 0),
    ("1 5 2 3 4", "2 5 1 4 3"): (1, 0),
    ("1 5 2 3 4", "4 1 2 5 3"): (1, 0),
    ("1 5 2 3 4", "4 2 1 5 3"): (1, 0),
    ("1 5 2 3 4", "5 1 2 4 3"): (1, 0),
    ("1 5 2 3 4", "5 2 1 4 3"): (1, 0),
    ("1 5 2 4 3", "1 5 3 2 4"): (1, 0),
    ("1 5 3 2 4", "2 1 4 5 3"): (0, 1),
    ("1 5 3 2 4", "2 1 5 4 3"): (0, 1),
    ("1 5 3 2 4", "2 4 1 5 3"): (1, 0),
    ("1 5 3 2 4", "2 5 1 4 3"): (1, 0),
    ("1 5 3 2 4", "4 1 2 5 3"): (1, 0),
    ("1 5 3 2 4", "4 2 1 5 3"): (1, 0),
    ("1 5 3 2 4", "5 1 2 4 3"): (1, 0),
    ("1 5 3 2 4", "5 2 1 4 3"): (1, 0),
}


def s5_bad_generators(pair, bases):
    """(prunable, minimal): the union basis's generators outside one of the
    two ideals, split by whether another emitted lead properly divides
    theirs."""
    specs = schubert_specs(*pair)
    basis = union_basis(specs)
    leads = [folded_product(g.factors).leading_monomial() for g in basis]
    pair_bases = [bases[text] for text in pair]
    bad = [
        leads[k]
        for k, g in enumerate(basis)
        if reference_failures([g], specs, pair_bases)
    ]
    prunable = sum(any(m != lead and m.divides(lead) for m in leads) for lead in bad)
    return prunable, len(bad) - prunable


@pytest.fixture(scope="module")
def s5_bases():
    return bases_by_label(honest_permutations(5))


def test_s5_census_failing_pairs(s5_bases):
    found = {pair: s5_bad_generators(pair, s5_bases) for pair in S5_FAILING_PAIRS}
    assert found == S5_FAILING_PAIRS
    assert len(found) == 94
    assert sum(prunable for prunable, _ in found.values()) == 64
    assert sum(minimal for _, minimal in found.values()) == 32
    assert sum(1 for _, minimal in found.values() if minimal) == 30


def test_s5_census_sample_of_other_pairs_passes(s5_bases):
    texts = [t for t in s5_bases if t != "1 2 3 4 5"]
    others = [pair for pair in combinations(texts, 2) if pair not in S5_FAILING_PAIRS]
    assert len(others) == 7021 - 94
    for pair in random.Random(13).sample(others, 100):
        assert s5_bad_generators(pair, s5_bases) == (0, 0)


# the membership certificate -------------------------------------------------------

def certificate_census(cases, bases):
    """(members, non-members) over every generator of each case's union
    basis and each of the case's specs, checking that ``certified`` says
    member exactly when the generator reduces to zero against the spec's
    reduced basis (``bases``, by spec label)."""
    members = outside = 0
    for texts in cases:
        specs = schubert_specs(*texts)
        basis = union_basis(specs)
        folds = [folded_product(g.factors) for g in basis]
        for spec in specs:
            zeros = zero_remainders(folds, bases[spec.label].generators)
            for g, member in zip(basis, zeros):
                assert certified(g.factors, spec) == member, (texts, spec.label, g.factors)
                members += member
                outside += not member
    return members, outside


def bases_by_label(perms):
    texts = [p.one_line() for p in perms]
    return dict(zip(texts, spec_bases(schubert_specs(*texts))))


def partial_permutations(n):
    """Every partial permutation of size n, the empty one included."""
    found = []
    for images in product([None, *range(1, n + 1)], repeat=n):
        defined = [v for v in images if v is not None]
        if len(set(defined)) == len(defined):
            found.append(PartialPermutation(images))
    return found


@pytest.fixture(scope="module")
def s4_bases():
    return bases_by_label(honest_permutations(4))


def test_zero_remainders_is_normal_form_fold_by_fold():
    # the censuses' reference divides every fold by a basis packed once
    texts = ("1 2 4 5 3", "1 4 2 3 5")
    specs = schubert_specs(*texts)
    folds = [folded_product(g.factors) for g in union_basis(specs)]
    verdicts = []
    for spec, b in zip(specs, spec_bases(specs)):
        zeros = zero_remainders(folds, b.generators)
        assert zeros == [normal_form(f, b.generators).is_zero() for f in folds]
        verdicts += zeros
    assert True in verdicts and False in verdicts


def test_certificate_decides_membership_on_all_s4_pairs(s4_bases):
    texts = [t for t in s4_bases if t != "1 2 3 4"]
    assert certificate_census(combinations(texts, 2), s4_bases) == (5720, 0)


def test_certificate_decides_membership_on_seeded_triples(s4_bases, s5_bases):
    rng = random.Random(4)
    s4_texts = list(s4_bases)
    triples = [rng.sample(s4_texts, 3) for _ in range(40)]
    assert certificate_census(triples, s4_bases) == (2292, 0)
    # the 14th of these triples has 2 generators outside one of its ideals
    rng = random.Random(5)
    s5_texts = list(s5_bases)
    triples = [rng.sample(s5_texts, 3) for _ in range(20)]
    assert certificate_census(triples, s5_bases) == (15451, 2)


def test_certificate_decides_membership_on_the_failing_s5_pairs(s5_bases):
    assert certificate_census(S5_FAILING_PAIRS, s5_bases) == (7326, 96)


def test_certificate_decides_membership_on_partial_permutation_pairs():
    perms = partial_permutations(4)
    assert len(perms) == 209
    bases = bases_by_label(perms)
    # two classical determinantal varieties: rank <= 2, and rank(NW 4x2) <= 1
    assert certificate_census([("1 2 * *", "1 3 4 *")], bases) == (177, 5)
    pairs = list(combinations(bases, 2))
    assert len(pairs) == 21736
    sample = random.Random(44).sample(pairs, 100)
    assert certificate_census(sample, bases) == (27836, 2)


# union bases ---------------------------------------------------------------------

def test_union_231_312_matches_published_four_generators():
    basis = union_basis(
        [
            spec_from_permutation(parse_one_line("2 3 1")),
            spec_from_permutation(parse_one_line("3 1 2")),
        ]
    )
    assert [polynomial_text(g.packed) for g in basis] == [
        "1*m[1,1]",
        "1*m[1,1]*m[1,2]",
        "1*m[1,1]*m[2,1]",
        "1*m[1,2]*m[2,1]",
    ]


def test_union_of_single_spec_returns_fulton_generators():
    spec = spec_from_permutation(parse_one_line("2 1 4 3"))
    basis = union_basis([spec])
    assert [unpacked(g) for g in basis] == generator_polynomials(spec)


def test_union_with_unconstrained_spec_is_whole_space():
    identity = spec_from_permutation(parse_one_line("1 2 3"))
    other = spec_from_permutation(parse_one_line("2 3 1"))
    assert union_basis([identity, other]) == []
    assert union_basis([other, identity]) == []


def test_union_deduplicates_by_polynomial():
    spec = spec_from_permutation(parse_one_line("2 3 1"))
    basis = union_basis([spec, spec])
    assert [polynomial_text(g.packed) for g in basis] == [
        "1*m[1,1]",
        "1*m[1,1]*m[2,1]",
        "1*m[2,1]",
    ]


def test_union_ambient_mismatch():
    with pytest.raises(ValueError):
        union_basis(
            [
                spec_from_permutation(parse_one_line("2 3 1")),
                spec_from_permutation(parse_one_line("2 1 4 3")),
            ]
        )
    with pytest.raises(ValueError):
        union_basis([])


def test_union_1423_1342_has_nine_products_in_display_order():
    basis = union_basis(
        [
            spec_from_permutation(parse_one_line("1 4 2 3")),
            spec_from_permutation(parse_one_line("1 3 4 2")),
        ]
    )
    shapes = [[(f.rows(), f.cols()) for f in g.factors] for g in basis]
    assert shapes == [
        [((1, 2), (1, 2))],
        [((1, 2), (1, 2)), ((3,), (1,))],
        [((1, 2), (1, 2)), ((2, 3), (1, 2))],
        [((1, 2), (1, 2)), ((1,), (3,))],
        [((1, 3), (1, 2)), ((1, 2), (1, 3))],
        [((1, 2), (1, 3)), ((2, 3), (1, 2))],
        [((1, 2), (1, 2)), ((1, 2), (2, 3))],
        [((1, 3), (1, 2)), ((1, 2), (2, 3))],
        [((1, 2, 3), (1, 2, 3))],
    ]


def generator_to_json(g, fold=None):
    """The dict tree that ``basis_json_chunks`` writes for one generator;
    ``fold`` is its ``folded_product``, when the caller has it."""
    if fold is None:
        fold = folded_product(g.factors)
    return {
        "factors": [{"rows": sorted(f.rows()), "cols": list(f.cols())} for f in g.factors],
        "poly": polynomial_to_json(fold),
    }


def test_generator_json_schema():
    built = generator_product([anti((1, 2), (2, 1)), anti((3, 1),)])
    data = generator_to_json(built)
    assert data["factors"] == [
        {"rows": [1, 2], "cols": [1, 2]},
        {"rows": [3], "cols": [1]},
    ]
    assert data["poly"][0]["coeff"] == "-1"


# factor-key deduplication and the JSON writer ------------------------------------

def reference_product(factors):
    """The product of the factors' determinants, multiplied out on plain
    int dicts from the constant 1, independently of ``Polynomial.__mul__``."""
    terms = {Monomial(): 1}
    for factor in factors:
        out = {}
        for m1, c1 in terms.items():
            for m2, c2 in factor.determinant().terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        terms = out
    return Polynomial(terms)


def reference_union_basis(specs):
    """The literal loop: build every choice's generator, keep the first of
    each polynomial, the fold of its factors, which is also multiplied out
    by ``reference_product``."""
    choices = [antidiagonals_of_spec(spec) for spec in specs]
    if any(not c for c in choices):
        return []
    seen = set()
    basis = []
    for combo in product(*choices):
        built = generator_product(combo)
        fold = folded_product(built.factors)
        assert fold == reference_product(built.factors)
        if fold not in seen:
            seen.add(fold)
            basis.append(built)
    return basis


def schubert_specs(*texts):
    return [spec_from_permutation(parse_one_line(t)) for t in texts]


def all_specs(n):
    return [
        spec_from_permutation(PartialPermutation(images))
        for images in itertools_permutations(range(1, n + 1))
    ]


S4_SPECS = all_specs(4)
S4_PAIRS = [(a, b) for a in S4_SPECS for b in S4_SPECS]


def assert_canonical_exact(poly):
    """Every coefficient is an int, or a Fraction that is not integral: the
    one exact form a Polynomial stores, and never a float."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def assert_same_basis_as_reference(specs):
    built = union_basis(specs)
    expected = reference_union_basis(specs)
    assert [(g.inputs, g.factors, unpacked(g)) for g in built] == [
        (g.inputs, g.factors, folded_product(g.factors)) for g in expected
    ]
    for g in built:
        assert_canonical_exact(unpacked(g))


def test_factor_key_dedup_equals_polynomial_dedup_on_all_s4_pairs():
    for specs in S4_PAIRS:
        assert_same_basis_as_reference(specs)


@pytest.mark.parametrize(
    "texts", [("1 5 4 3 2", "4 3 2 1 5"), ("3 1 5 2 4", "1 4 3 2 5")]
)
def test_factor_key_dedup_equals_polynomial_dedup_on_s5_pairs(texts):
    assert_same_basis_as_reference(schubert_specs(*texts))


def test_determinant_coefficients_are_canonical_exact():
    for size in range(1, 5):
        f = determinant(range(1, size + 1), range(2, size + 2))
        assert_canonical_exact(f)
    assert_canonical_exact(monic(determinant([1, 2], [1, 2])))  # leads with -1


def test_union_builds_each_generator_and_expands_each_minor_once(monkeypatch):
    calls = {"product": 0, "minors": []}
    build, expand = nwgb.union.generator_product, nwgb.polynomials._Layout.minor

    def counted_build(*args):
        calls["product"] += 1
        return build(*args)

    def counted_expand(layout, rows, cols):
        calls["minors"].append((tuple(rows), tuple(cols)))
        return expand(layout, rows, cols)

    monkeypatch.setattr(nwgb.union, "generator_product", counted_build)
    monkeypatch.setattr(nwgb.polynomials._Layout, "minor", counted_expand)
    specs = schubert_specs("1 5 4 3 2", "4 3 2 1 5")
    basis = union_basis(specs)
    # a product is formed when it is read, and the products share the minors
    "".join(basis_json_chunks(basis))
    "".join(polynomial_text(g.packed) for g in basis)
    choices = len(antidiagonals_of_spec(specs[0])) * len(antidiagonals_of_spec(specs[1]))
    assert len(basis) < choices
    assert calls["product"] == len(basis)
    assert len(set(calls["minors"])) == len(calls["minors"])
    assert set(calls["minors"]) == {
        (f.rows(), f.cols()) for g in basis for f in g.factors
    }


def test_union_generators_check_the_specs_before_any_is_read():
    with pytest.raises(ValueError, match="ambient sizes differ"):
        union_basis(schubert_specs("2 3 1", "2 1 4 3"))
    with pytest.raises(ValueError, match="need at least one spec"):
        union_basis([])


def test_basis_json_chunks_give_one_chunk_per_generator():
    specs = schubert_specs("1 4 2 3", "1 3 4 2")
    basis = union_basis(specs)
    chunks = list(basis_json_chunks(basis))
    assert len(chunks) == len(basis) + 1
    assert chunks[0].startswith("[\n  {")
    assert all(chunk.startswith(",\n  {") for chunk in chunks[1:-1])
    assert chunks[-1] == "\n]"
    assert "".join(chunks) == "".join(basis_json_chunks(basis))
    assert list(basis_json_chunks([])) == ["[]"]


def test_a_basis_layout_dies_with_its_last_handle_and_writer():
    # the writers own their text caches and a layout holds no text, so no
    # cycle keeps a layout alive: without the cycle collector, it is freed
    # as soon as the basis and the written texts are dropped
    specs = schubert_specs("1 5 4 3 2", "4 3 2 1 5")
    gc.disable()
    try:
        basis = union_basis(specs)
        held = hold(basis)
        layouts = [weakref.ref(basis[0].packed.layout), weakref.ref(held[0].packed.layout)]
        assert layouts[0]() is not layouts[1]()
        texts = [
            "".join(writer(generators))
            for writer in (basis_text_chunks, basis_json_chunks)
            for generators in (basis, held)
        ]
        assert len(set(texts[:2])) == len(set(texts[2:])) == 1
        del basis, held, texts
        assert [layout() for layout in layouts] == [None, None]
    finally:
        gc.enable()


S3_PAIRS = [[a, b] for a in all_specs(3) for b in all_specs(3)]
S5_SPECS = all_specs(5)
S6_SPECS = all_specs(6)
# pairs whose generators have a squared variable
SQUARED_PAIRS = [("2 3 1 4 5", "1 2 4 3 5"), ("6 2 1 3 4 5", "1 2 4 3 5 6")]


def sampled_pairs(specs, seed, count):
    rng = random.Random(seed)
    return [rng.sample(specs, 2) for _ in range(count)]


@pytest.mark.parametrize(
    "cases",
    [
        S3_PAIRS,
        [list(pair) for pair in random.Random(11).sample(S4_PAIRS, 40)],
        [schubert_specs("1 4 2 3", "1 3 4 2", "2 1 4 3")],
        [schubert_specs("2 1 4 3")],
        [schubert_specs("1 2 3 4", "2 1 4 3")],
        sampled_pairs(S5_SPECS, 17, 12) + [schubert_specs(*SQUARED_PAIRS[0])],
        sampled_pairs(S6_SPECS, 19, 3) + [schubert_specs(*SQUARED_PAIRS[1])],
    ],
    ids=["s3-pairs", "s4-pairs-sample", "s4-triple", "single-spec", "empty", "s5-pairs", "s6-pairs"],
)
def test_basis_json_text_equals_json_dumps(cases):
    for specs in cases:
        basis = union_basis(specs)
        reference = [generator_to_json(g) for g in basis]
        text = "".join(basis_json_chunks(basis))
        assert text == json.dumps(reference, indent=2)
        assert json.loads(text) == reference
        if not basis:
            assert text == "[]"


@pytest.mark.parametrize("pair", SQUARED_PAIRS, ids=["s5", "s6"])
def test_json_text_cases_include_squared_variables(pair):
    basis = union_basis(schubert_specs(*pair))
    assert any(not m.is_squarefree() for g in basis for m in unpacked(g).terms)


# packed products against the fold through Polynomial.__mul__ ------------------

def assert_packed_equals_fold(basis):
    """Each generator's packed product is the fold's polynomial and has the
    fold's text, alone and through the basis's text writer, and the basis
    has the fold's JSON bytes, both as formed on each read, at the proven
    width, and as ``hold`` forms them, at the width a division starts at."""
    folds = [folded_product(g.factors) for g in basis]
    held = hold(basis)
    assert all(g.packed.layout.bits >= _FIELD_BITS for g in held)
    # held generators have the factors, so the bytes, of the basis: each
    # reference is built once
    assert [g.factors for g in held] == [g.factors for g in basis]
    reference = json.dumps([generator_to_json(g, f) for g, f in zip(basis, folds)], indent=2)
    lines = [polynomial_text(fold) + "\n" for fold in folds]
    for generators in (basis, held):
        for g, fold in zip(generators, folds):
            assert unpacked(g) == fold
            assert_canonical_exact(unpacked(g))
        assert "".join(basis_json_chunks(generators)) == reference
        assert [polynomial_text(g.packed) + "\n" for g in generators] == lines
        assert list(basis_text_chunks(generators)) == lines


def test_packed_products_equal_the_fold_on_all_ordered_s4_pairs():
    for specs in S4_PAIRS:
        assert_packed_equals_fold(union_basis(specs))


def test_packed_products_equal_the_fold_on_seeded_s5_triples():
    rng = random.Random(113)
    for _ in range(20):
        assert_packed_equals_fold(union_basis(rng.sample(S5_SPECS, 3)))


def spokes(k):
    """k disjoint antidiagonals (1, 1+i), (1+i, 1): each factor's minor
    holds m[1,1], so the product has m[1,1]^k, the most the width rule
    allows for k inputs."""
    return [anti((1, 1 + i), (1 + i, 1)) for i in range(1, k + 1)]


def lead_rows(packed):
    """The masks of the rows of a packed product's leading term, top row
    first, as the writers read them (``_RowBlocks.terms``)."""
    lead = max(packed.terms)
    return [mask for mask in packed.layout.row_masks if mask & lead]


def test_packed_terms_are_written_per_layout_across_products():
    # each generator_product without a packing has its own layout, and one
    # writer serves them all.  The lower half of the terms of a 2x2 minor
    # and of the 3x2 minor below it is the int 1 in both layouts, for
    # m[2,1] in one and m[3,1] in the other, so the half texts must be
    # cached per layout
    minor_2x2 = generator_product([anti((1, 2), (2, 1))])
    minor_3x2 = generator_product([anti((2, 2), (3, 1))])
    assert minor_2x2.packed.layout is not minor_3x2.packed.layout
    for packed in (minor_2x2.packed, minor_3x2.packed):
        assert min(x & lead_rows(packed)[-1] for x in packed.terms) == 1
    products = [
        generator_product([]),  # the constant 1, no rows
        generator_product([anti((1, 1))]),  # one row
        minor_2x2,  # two rows
        generator_product([anti((1, 3), (2, 2), (3, 1))]),  # three rows
        minor_3x2,
        generator_product([anti((1, 2), (2, 1)), anti((3, 4), (4, 3))]),  # four rows
        generator_product([anti((1, 3), (2, 2), (3, 1)), anti((2, 3), (4, 2), (5, 1))]),  # five
        generator_product(spokes(3)),  # a squared variable
    ]
    assert sorted({len(lead_rows(g.packed)) for g in products}) == [0, 1, 2, 3, 4, 5]
    assert len({id(g.packed.layout) for g in products}) == len(products)
    assert_packed_equals_fold(products)


def test_an_exponent_equal_to_the_input_count_fills_its_field():
    # the field of 3 inputs is 3 bits: exponents up to 3
    built = generator_product(spokes(3))
    assert (built.packed.layout.bits, built.packed.layout.field) == (3, 3)
    assert Monomial.from_cells([Cell(1, 1)] * 3) * Monomial.from_cells(
        [Cell(2, 2), Cell(3, 3), Cell(4, 4)]
    ) in unpacked(built).terms
    assert_packed_equals_fold([built])


def test_an_exponent_past_its_field_is_an_internal_error():
    # four inputs laid out for three: m[1,1]^4 sets a guard bit
    inputs = spokes(4)
    with pytest.raises(RuntimeError, match="outgrew its field"):
        generator_product(inputs, None, nwgb.union._Packing(5, 5, 3)).packed
    assert unpacked(generator_product(inputs)) == folded_product(inputs)


def test_generator_product_keeps_its_constructor_and_forms_its_product_on_each_read():
    # each read forms the product anew, and each read gives the same one
    a, b = anti((1, 2), (2, 1)), anti((2, 2),)
    built = generator_product([a, b])
    assert built.packed == built.packed and built.packed is not built.packed
    assert unpacked(built) == folded_product(built.factors)
    # GeneratorProduct(inputs, factors, packing) is the one constructor
    again = GeneratorProduct([a, b], list(built.factors), nwgb.union._Packing(2, 2, 2))
    assert (again.inputs, again.factors) == ((a, b), built.factors)
    assert again == built and hash(again) == hash(built)
    assert unpacked(again) == unpacked(built)
    assert repr(built) == polynomial_text(folded_product(built.factors))
    product = built.packed  # the lead, as the generator-init suite reads it
    lead = max(product.terms)
    assert (product.terms[lead], product.layout.unpack(lead)) == (
        -1,
        Monomial.from_cells([Cell(1, 2), Cell(2, 1), Cell(2, 2)]),
    )
    # no inputs: the constant 1, on 1-bit fields over no cells
    one = generator_product([])
    assert (one.packed.terms, one.packed.layout.bits, lead_rows(one.packed)) == ({0: 1}, 1, [])
    assert unpacked(one) == Polynomial.constant(1)
    assert polynomial_text(one.packed) == "1"
    assert "".join(basis_json_chunks([one])) == json.dumps([generator_to_json(one)], indent=2)


def count_products(monkeypatch):
    """The factors of each product ``_Packing.product`` forms, as they come."""
    formed = []
    original = nwgb.union._Packing.product

    def spy(self, factors):
        formed.append(factors)
        return original(self, factors)

    monkeypatch.setattr(nwgb.union._Packing, "product", spy)
    return formed


def test_comparing_and_hashing_generators_multiplies_nothing(monkeypatch):
    basis = union_basis(schubert_specs(*SQUARED_PAIRS[0]))
    twins = [generator_product(g.inputs) for g in basis]
    formed = count_products(monkeypatch)
    assert len(basis) > 1
    for g, twin in zip(basis, twins):
        assert g == twin and hash(g) == hash(twin)
        assert [h for h in basis if h != g] == [h for h in basis if h is not g]
    assert len(set(basis) | set(twins)) == len(basis)
    assert formed == []


def test_hold_forms_each_product_once_at_the_width_a_division_starts_at(monkeypatch):
    specs = schubert_specs("1 5 4 3 2", "4 3 2 1 5")
    basis = union_basis(specs)
    formed = count_products(monkeypatch)
    held = hold(basis)
    assert formed == [g.factors for g in basis]
    assert held == basis and all(g is not h for g, h in zip(basis, held))
    # one new packing for the basis, at the engine's first width; the
    # handles it was given form theirs at the proven width, 3 bits for two
    # inputs
    assert len({id(g._packing) for g in held}) == 1
    assert {g.packed.layout.bits for g in held} == {_FIELD_BITS}
    assert {g.packed.layout.bits for g in basis} == {3}
    formed.clear()
    products = [g.packed for g in held]
    assert hold(held) == held and all(g is h for g, h in zip(hold(held), held))
    assert [g.packed for g in held] == products and formed == []
    # another width forms every product again, once
    wider = hold(held, 2 * _FIELD_BITS)
    assert formed == [g.factors for g in basis]
    assert [unpacked(g) for g in wider] == [unpacked(g) for g in held]
    assert {g.packed.layout.bits for g in wider} == {2 * _FIELD_BITS}
    # never below the proven width
    assert {g.packed.layout.bits for g in hold(basis, 1)} == {3}


def test_hold_puts_the_handles_of_two_packings_in_one_layout(monkeypatch):
    # each generator built alone has a packing of its own inputs' box; hold
    # forms every product in one packing that spans the largest height,
    # width and input count, at the width a division starts at, or wider
    alone = [
        generator_product([anti((1, 1))]),
        generator_product([anti((1, 3), (2, 2)), anti((3, 1))]),
        generator_product(spokes(4)),
    ]
    assert len({g.packed.layout for g in alone}) == 3
    formed = count_products(monkeypatch)
    held = hold(alone)
    assert formed == [g.factors for g in alone]
    assert held == alone and len({id(g._packing) for g in held}) == 1
    assert len({g.packed.layout for g in held}) == 1
    assert [unpacked(g) for g in held] == [unpacked(g) for g in alone]
    assert [unpacked(g) for g in held] == [folded_product(g.factors) for g in alone]
    packing = held[0]._packing
    assert (len(packing.rows), len(packing.cols), packing.count) == (5, 5, 4)
    assert held[0].packed.layout.bits == _FIELD_BITS
    assert {g.packed.layout.bits for g in hold(alone, 1)} == {4}  # 4 inputs need 4 bits
    assert hold([]) == []
