"""Monomial order, exact arithmetic, determinants and antidiagonals."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations as itertools_permutations

import pytest
from conftest import check_value_contract, exact

from nwgb import (
    Antidiagonal,
    Cell,
    Monomial,
    Polynomial,
    antidiagonal_of,
    buchberger,
    compare,
    determinant,
    normal_form,
)
from nwgb.polynomials import (
    AUX,
    MONOMIAL_ONE,
    _FIELD_BITS,
    _Layout,
    _PackedProduct,
    _signed_permutations,
    json_text,
    monomial_text,
    monomial_to_json,
    polynomial_text,
    polynomial_to_json,
    sort_key,
)


def mono(*cells):
    return Monomial.from_cells(Cell(r, c) for r, c in cells)


def poly(*terms):
    return Polynomial({m: c for c, m in terms})


def power_product(pairs):
    """The product of cell**exp over the (cell, exp) pairs."""
    return Monomial.from_cells(cell for cell, exp in pairs for _ in range(exp))


def read_monomial(data):
    """The monomial monomial_to_json wrote as data."""
    return power_product((Cell(row, col), exp) for row, col, exp in data)


def exponents(m):
    """{cell: exponent} of a monomial, read through monomial_to_json."""
    return {Cell(row, col): exp for row, col, exp in monomial_to_json(m)}


def evaluate(f, point):
    """The value of f at a point, a {cell: number} map."""
    total = Fraction(0)
    for m, coeff in f.terms.items():
        for cell, exp in exponents(m).items():
            coeff *= Fraction(point[cell]) ** exp
        total += coeff
    return total


def read_polynomial(data):
    """The polynomial polynomial_to_json wrote as data."""
    return Polynomial({read_monomial(t["monomial"]): Fraction(t["coeff"]) for t in data})


def random_monomial(rng, n=5, max_vars=4, max_exp=3):
    picks = [
        (Cell(rng.randint(1, n), rng.randint(1, n)), rng.randint(1, max_exp))
        for _ in range(rng.randint(0, max_vars))
    ]
    return power_product(picks)


def random_polynomial(rng, n=4, terms=5):
    return Polynomial(
        {random_monomial(rng, n): Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(terms)}
    )


def numeric_leibniz(matrix, rows, cols):
    """Independent numeric determinant: signed sum over permutations."""
    rows = sorted(rows)
    cols = sorted(cols)
    k = len(rows)
    total = Fraction(0)
    for sigma in itertools_permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if sigma[i] > sigma[j]:
                    sign = -sign
        prod = Fraction(sign)
        for i in range(k):
            prod *= matrix[(rows[i], cols[sigma[i]])]
        total += prod
    return total


def numeric_cofactor(matrix, rows, cols):
    """Independent numeric determinant: first-row cofactor expansion."""
    rows = sorted(rows)
    cols = sorted(cols)
    if len(rows) == 1:
        return Fraction(matrix[(rows[0], cols[0])])
    total = Fraction(0)
    for index, col in enumerate(cols):
        minor = numeric_cofactor(matrix, rows[1:], cols[:index] + cols[index + 1 :])
        total += (-1) ** index * Fraction(matrix[(rows[0], col)]) * minor
    return total


# term order -----------------------------------------------------------------

def test_antidiagonal_term_beats_diagonal_term():
    assert compare(mono((1, 2), (2, 1)), mono((1, 1), (2, 2))) == 1


def test_compare_reflexive():
    m = mono((1, 2), (2, 1))
    assert compare(m, m) == 0


def test_unit_monomial_is_minimal():
    for m in (mono((1, 1)), mono((3, 2), (4, 1)), mono((2, 2))):
        assert compare(MONOMIAL_ONE, m) == -1


def test_variable_order_is_row_major_descending_column():
    # m[1,3] > m[1,1] > m[2,3] in a 3x3 grid
    assert compare(mono((1, 3)), mono((1, 1))) == 1
    assert compare(mono((1, 1)), mono((2, 3))) == 1


def test_order_axioms_on_random_triples():
    rng = random.Random(5)
    for _ in range(300):
        a, b, c, p = (random_monomial(rng) for _ in range(4))
        ab = compare(a, b)
        assert ab == -compare(b, a)
        assert (ab == 0) == (a == b)
        assert compare(a * p, b * p) == ab
        assert compare(MONOMIAL_ONE, a) <= 0
        if ab <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


# leading terms ---------------------------------------------------------------

def test_leading_term_of_2x2_determinant():
    coeff, lead = determinant([1, 2], [1, 2]).leading_term()
    assert (coeff, lead) == (Fraction(-1), mono((1, 2), (2, 1)))


def test_leading_term_of_constant():
    assert Polynomial.constant(5).leading_term() == (
        Fraction(5),
        MONOMIAL_ONE,
    )


def test_leading_term_of_3x3_determinant():
    # the antidiagonal term m13*m22*m31 carries the sign of the order-3
    # reversal, which has 3 inversions
    coeff, lead = determinant([1, 2, 3], [1, 2, 3]).leading_term()
    assert lead == mono((1, 3), (2, 2), (3, 1))
    assert coeff == -1


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        Polynomial().leading_term()


def test_all_minors_up_to_3x3_lead_with_their_antidiagonal():
    n = 3
    for size in (1, 2, 3):
        for rows in combinations(range(1, n + 1), size):
            for cols in combinations(range(1, n + 1), size):
                _, lead = determinant(rows, cols).leading_term()
                expected = Monomial.from_cells(
                    Cell(r, c) for r, c in zip(rows, reversed(cols))
                )
                assert lead == expected


def test_random_minors_in_5x5_lead_with_their_antidiagonal():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(4, 5)
        size = rng.randint(1, n)
        rows = sorted(rng.sample(range(1, n + 1), size))
        cols = sorted(rng.sample(range(1, n + 1), size))
        coeff, lead = determinant(rows, cols).leading_term()
        assert lead == Monomial.from_cells(
            Cell(r, c) for r, c in zip(rows, reversed(cols))
        )
        assert coeff == (-1 if (size * (size - 1) // 2) % 2 else 1)


# arithmetic ------------------------------------------------------------------

def test_add_cancels_to_zero():
    f = determinant([1, 2], [1, 2])
    assert (f + (-f)).is_zero()


def test_monomial_product():
    assert mono((1, 1)) * mono((1, 2), (2, 1)) == mono((1, 1), (1, 2), (2, 1))


def test_square_of_2x2_determinant():
    # hand expansion: (ad-bc)^2 = a^2d^2 - 2abcd + b^2c^2
    square = determinant([1, 2], [1, 2]) * determinant([1, 2], [1, 2])
    assert square == poly(
        (1, mono((1, 1), (1, 1), (2, 2), (2, 2))),
        (-2, mono((1, 1), (1, 2), (2, 1), (2, 2))),
        (1, mono((1, 2), (1, 2), (2, 1), (2, 1))),
    )


def test_ring_axioms_via_random_evaluation():
    rng = random.Random(17)
    points = [
        {Cell(r, c): rng.randint(-4, 4) for r in range(1, 5) for c in range(1, 5)}
        for _ in range(3)
    ]
    for _ in range(25):
        f, g, h = (random_polynomial(rng) for _ in range(3))
        for point in points:
            fe, ge, he = evaluate(f, point), evaluate(g, point), evaluate(h, point)
            assert evaluate(f + g, point) == fe + ge
            assert evaluate(f * g, point) == fe * ge
            assert evaluate((f + g) * h, point) == (fe + ge) * he
            assert evaluate(f * (g * h), point) == fe * (ge * he)
            assert evaluate(f - f, point) == 0


def test_scalar_multiplication():
    f = determinant([1, 2], [1, 2])
    assert f * 2 == f + f
    assert Fraction(1, 2) * (f + f) == f


def test_coefficients_are_int_when_integral_and_fraction_otherwise():
    m = mono((1, 1))
    for given, stored in [
        (3, 3),
        (Fraction(6, 2), 3),
        (Fraction(-4, 1), -4),
        (Fraction(6, 4), Fraction(3, 2)),
        (0.5, Fraction(1, 2)),  # a float converts exactly, as Fraction does
        (2.0, 2),
        (True, 1),
    ]:
        (c,) = Polynomial({m: given}).terms.values()
        assert c == stored and type(c) is type(stored), (given, c)
    assert Polynomial({m: Fraction(0), mono((2, 2)): 0.0}).is_zero()
    # the stored type changes neither equality, hashing nor text
    f = Polynomial({m: 3})
    assert f == Polynomial({m: Fraction(3)}) and hash(f) == hash(Polynomial({m: 3}))
    assert polynomial_text(f) == "3*m[1,1]"
    assert polynomial_to_json(f)[0]["coeff"] == "3"


def monic(f):
    """f divided by its leading coefficient: the reference that the
    engine's monic results are checked against."""
    coeff = f.leading_term()[0]
    if coeff == 1:
        return f
    if coeff == -1:
        return -f
    return Polynomial({m: Fraction(c, coeff) for m, c in f.terms.items()})


def test_monic_scales_by_the_leading_coefficient():
    f = determinant([1, 2], [1, 2])  # leads with -1
    assert monic(f) == -f and monic(f).leading_term()[0] == 1
    h = -f
    assert monic(h) is h  # already monic
    g = f * -3 + Polynomial.constant(1)
    assert monic(g) == -f + Polynomial.constant(Fraction(1, 3))


def test_sums_and_products_of_ints_stay_ints():
    f = determinant([1, 2], [1, 2])
    for g in (f + f, f - Polynomial.variable(Cell(1, 1)), f * f, f * 3, -f):
        assert all(type(c) is int for c in g.terms.values())
    half = f * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half.terms.values())
    assert all(type(c) is int for c in (half + half).terms.values())


# determinants ----------------------------------------------------------------

def test_determinant_1x1():
    assert determinant([1], [1]) == Polynomial.variable(Cell(1, 1))


def test_determinant_2x2_textbook():
    assert determinant([1, 2], [1, 2]) == poly(
        (1, mono((1, 1), (2, 2))),
        (-1, mono((1, 2), (2, 1))),
    )


def test_determinant_agrees_with_numeric_oracles():
    rng = random.Random(23)
    matrix = {
        (r, c): rng.randint(-5, 5) for r in range(1, 5) for c in range(1, 5)
    }
    point = {Cell(r, c): v for (r, c), v in matrix.items()}
    for size in (1, 2, 3, 4):
        for rows in combinations(range(1, 5), size):
            for cols in combinations(range(1, 5), size):
                value = evaluate(determinant(rows, cols), point)
                assert value == numeric_leibniz(matrix, rows, cols)
                assert value == numeric_cofactor(matrix, rows, cols)


def inversion_sign(perm):
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def test_determinant_terms_equal_an_inversion_count_leibniz_expansion():
    # every minor of a generic 5x5 matrix, term by term and in order
    for size in range(1, 6):
        for rows in combinations(range(1, 6), size):
            for cols in combinations(range(1, 6), size):
                expected = [
                    (
                        Monomial.from_cells(Cell(rows[i], cols[p]) for i, p in enumerate(perm)),
                        inversion_sign(perm),
                    )
                    for perm in itertools_permutations(range(size))
                ]
                assert list(determinant(rows, cols).terms.items()) == expected


def test_sign_table_lists_the_permutations_in_itertools_order():
    for k in range(1, 7):
        table = _signed_permutations(k)
        assert [perm for perm, _ in table] == list(itertools_permutations(range(k)))
        assert [sign for _, sign in table] == [inversion_sign(perm) for perm, _ in table]


def test_determinant_errors():
    with pytest.raises(ValueError):
        determinant([1, 2], [1])
    with pytest.raises(ValueError):
        determinant([], [])
    with pytest.raises(ValueError):
        determinant([0, 1], [1, 2])


@pytest.mark.parametrize(
    "build, rows, cols",
    [
        (determinant, [1, 1, 2], [1, 2]),
        (determinant, [1, 2], [2, 2]),
        (antidiagonal_of, [1, 1, 2], [3, 4]),
    ],
)
def test_minor_with_a_repeated_index_raises(build, rows, cols):
    # a repeat used to be dropped, which built a smaller minor than asked for
    with pytest.raises(ValueError, match="must not repeat"):
        build(rows, cols)


def test_minor_indices_may_come_in_any_order():
    assert determinant([2, 1], [1, 2]) == determinant([1, 2], [2, 1])
    assert antidiagonal_of([3, 1], [2, 4]) == antidiagonal_of([1, 3], [2, 4])


# antidiagonals ----------------------------------------------------------------

def test_antidiagonal_of_2x2():
    assert antidiagonal_of([1, 2], [1, 2]).cells == (Cell(1, 2), Cell(2, 1))


def test_antidiagonal_of_single_cell():
    assert antidiagonal_of([2], [3]).cells == (Cell(2, 3),)


def test_antidiagonal_of_spread_minor():
    # reverse pairing of the sorted index sets
    assert antidiagonal_of([1, 3, 4], [1, 2, 4]).cells == (
        Cell(1, 4),
        Cell(3, 2),
        Cell(4, 1),
    )


def test_antidiagonal_of_equals_the_checked_constructor_on_every_6x6_minor():
    count = 0
    for k in range(1, 7):
        for rows in combinations(range(1, 7), k):
            for cols in combinations(range(1, 7), k):
                got = antidiagonal_of(rows, cols)
                assert got == Antidiagonal(list(zip(rows, reversed(cols))))
                assert all(type(cell) is Cell for cell in got.cells)
                count += 1
    assert count == 923


def test_antidiagonal_validation():
    with pytest.raises(ValueError, match=exact("an antidiagonal needs at least one cell")):
        Antidiagonal(())
    with pytest.raises(ValueError, match=exact("cell Cell(row=0, col=2) is outside the matrix")):
        Antidiagonal([(0, 2), (1, 1)])
    for cells, shown in [
        ([(True, 2), (2, 1)], "(True, 2)"),
        ([(1, 2), (2, 1.0)], "(2, 1.0)"),
        ([("1", 2)], "('1', 2)"),
        ([Cell(1, None)], "(1, None)"),
        ([(1, 2, 3)], "(1, 2, 3)"),
        ([(1,)], "(1,)"),
        ([5], "5"),
        ([(1, 2), None], "None"),
    ]:
        with pytest.raises(ValueError, match=exact(f"cell {shown} is not a pair of integers")):
            Antidiagonal(cells)
    for cells in (5, None):
        with pytest.raises(ValueError, match=exact(f"cells must be a sequence of pairs, got {cells}")):
            Antidiagonal(cells)
    step = "cells must step strictly south and strictly west, got "
    with pytest.raises(ValueError, match=exact(step + "Cell(row=1, col=1) -> Cell(row=2, col=2)")):
        Antidiagonal((Cell(1, 1), Cell(2, 2)))
    with pytest.raises(ValueError, match=exact(step + "Cell(row=1, col=2) -> Cell(row=1, col=1)")):
        Antidiagonal((Cell(1, 2), Cell(1, 1)))
    with pytest.raises(ValueError, match=exact(step + "Cell(row=1, col=1) -> Cell(row=2, col=1)")):
        Antidiagonal((Cell(1, 1), Cell(2, 1)))


def test_antidiagonal_value_contract():
    check_value_contract(
        Antidiagonal,
        ("cells",),
        ([(1, 2), (2, 1)],),
        ([(1, 3), (2, 1)],),
        "Antidiagonal(cells=(Cell(row=1, col=2), Cell(row=2, col=1)))",
    )
    # the cells are converted, and built unchecked they compare alike
    checked = Antidiagonal([(1, 2), (2, 1)])
    assert checked.cells == (Cell(1, 2), Cell(2, 1)) and type(checked.cells[0]) is Cell
    assert Antidiagonal._unchecked((Cell(1, 2), Cell(2, 1))) == checked


def test_cell_is_a_named_pair():
    cell = Cell(3, 1)
    assert cell == (3, 1) and Cell._fields == ("row", "col")
    assert (cell.row, cell.col) == (3, 1) and repr(cell) == "Cell(row=3, col=1)"
    assert Cell.__doc__ == "1-based matrix position; row 1 is the top row, column 1 the leftmost."


def test_antidiagonal_determinant_and_monomial():
    a = Antidiagonal((Cell(1, 4), Cell(3, 2), Cell(4, 1)))
    assert a.rows() == (1, 3, 4)
    assert a.cols() == (1, 2, 4)
    assert a.determinant() == determinant([1, 3, 4], [1, 2, 4])
    assert Monomial.from_cells(a.cells) == mono((1, 4), (3, 2), (4, 1))
    _, lead = a.determinant().leading_term()
    assert lead == Monomial.from_cells(a.cells)


# serialization ----------------------------------------------------------------

def test_polynomial_text_canonical_form():
    f = determinant([1, 2], [1, 2])
    assert polynomial_text(f) == "-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2]"


def test_polynomial_text_exponents_and_constants():
    f = Polynomial(
        {
            mono((1, 1), (1, 1)): Fraction(3, 2),
            MONOMIAL_ONE: Fraction(-1),
        }
    )
    assert polynomial_text(f) == "3/2*m[1,1]^2 + -1"
    assert polynomial_text(Polynomial()) == "0"


def test_monomial_text_row_major():
    assert monomial_text(mono((2, 1), (1, 2))) == "m[1,2]*m[2,1]"


def test_writers_order_multi_digit_cells_by_number():
    # both writers sort the variables as (row, col) ints, not as text
    m = mono((10, 1), (1, 9), (2, 1), (1, 10), (1, 10))
    assert monomial_text(m) == "m[1,9]*m[1,10]^2*m[2,1]*m[10,1]"
    f = Polynomial({m: -2, mono((12, 3)): Fraction(1, 3), MONOMIAL_ONE: 5})
    assert polynomial_text(f) == "-2*m[1,9]*m[1,10]^2*m[2,1]*m[10,1] + 1/3*m[12,3] + 5"
    assert json_text({"poly": [f]}) == json.dumps({"poly": [polynomial_to_json(f)]}, indent=2)


def test_polynomial_json_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        f = random_polynomial(rng)
        data = polynomial_to_json(f)
        assert read_polynomial(data) == f
    # leading term first in the serialized order
    data = polynomial_to_json(determinant([1, 2], [1, 2]))
    assert data[0] == {"coeff": "-1", "monomial": [[1, 2, 1], [2, 1, 1]]}


# quotes, backslashes, control characters, non-ASCII text, a character
# outside the BMP and a lone surrogate
JSON_CHARS = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "→", "😀", "\ud800", "a"]


def random_json_string(rng):
    return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randint(0, 6)))


def random_payload(rng, polys, depth=0):
    """(value, reference): a random tree for ``json_text`` and the plain
    tree ``json.dumps`` writes the same way, each polynomial as
    ``polynomial_to_json``.  Containers are often empty; the same few
    polynomials recur at several depths."""
    kind = rng.choice(["str", "int", "poly"] + ["list", "dict"] * (depth < 4))
    if kind == "str":
        text = random_json_string(rng)
        return text, text
    if kind == "int":
        number = rng.choice([rng.randint(-9, 9), rng.randint(-(2**70), 2**70), 2**64 + 1])
        return number, number
    if kind == "poly":
        f = rng.choice(polys)
        return f, polynomial_to_json(f)
    pairs = [random_payload(rng, polys, depth + 1) for _ in range(rng.randint(0, 3))]
    if kind == "list":
        return [v for v, _ in pairs], [r for _, r in pairs]
    keys = [random_json_string(rng) for _ in pairs]
    return (
        {k: v for k, (v, _) in zip(keys, pairs)},
        {k: r for k, (_, r) in zip(keys, pairs)},
    )


def test_json_text_equals_json_dumps_on_random_payloads():
    rng = random.Random(31)
    polys = [random_polynomial(rng) for _ in range(3)]
    polys += [Polynomial(), Polynomial.constant(Fraction(-3, 2)), determinant([1, 2], [2, 3])]
    for _ in range(400):
        value, reference = random_payload(rng, polys)
        assert json_text(value) == json.dumps(reference, indent=2)
    nested = {"a": {}, "b": [], "c": [{}, []], "é\"\\": {"d": [{}]}}
    assert json_text(nested) == json.dumps(nested, indent=2)


# a union factor and a packed product are written by the union writers
# (nwgb.union), not by json_text
@pytest.mark.parametrize(
    "value",
    [
        1.5,
        True,
        None,
        (1, 2),
        {1: 2},
        Fraction(1, 2),
        MONOMIAL_ONE,
        antidiagonal_of((1, 2), (1, 2)),
        _PackedProduct(_Layout((), 2, [Cell(1, 1)]), {1: 1}, (1,)),
    ],
    ids=repr,
)
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
    with pytest.raises(TypeError):
        json_text({"nested": [value]})


# the packed kernel against a dict-based reference -----------------------------

# AUX, then a 3x3 grid, most significant variable first: t > m[1,3] > m[1,2]
# > m[1,1] > m[2,3] > ... > m[3,1]
REF_VARIABLES = [AUX] + [Cell(r, c) for r in (1, 2, 3) for c in (3, 2, 1)]


def ref_monomial(rng):
    """{cell: exp} with exponents 0-3 (zeros left out), about half the
    variables absent."""
    exps = {cell: rng.choice((0, 0, 0, 0, 1, 1, 2, 3)) for cell in REF_VARIABLES}
    return {cell: e for cell, e in exps.items() if e}


def ref_vector(ref):
    return tuple(ref.get(cell, 0) for cell in REF_VARIABLES)


def ref_compare(a, b):
    """Lex order on exponent vectors read most significant variable first."""
    va, vb = ref_vector(a), ref_vector(b)
    return (va > vb) - (va < vb)


def ref_mul(a, b):
    return {c: a.get(c, 0) + b.get(c, 0) for c in set(a) | set(b)}


def ref_lcm(a, b):
    return {c: max(a.get(c, 0), b.get(c, 0)) for c in set(a) | set(b)}


def ref_divides(a, b):
    return all(b.get(c, 0) >= e for c, e in a.items())


def ref_quotient(b, a):
    out = {c: e - a.get(c, 0) for c, e in b.items()}
    return {c: e for c, e in out.items() if e}


def packed(ref):
    """The same monomial built two ways: from the exponent map, and from
    a shuffled list of cells with one entry per power."""
    built = power_product(ref.items())
    cells = [cell for cell, e in ref.items() for _ in range(e)]
    random.Random(len(cells)).shuffle(cells)
    assert Monomial.from_cells(cells) == built
    return built


def assert_packed(m, ref):
    """m is the monomial of ref, down to the fields kept next to its key."""
    built = packed(ref)
    assert m == built
    assert (m.key, m.degree(), hash(m)) == (built.key, built.degree(), hash(built))
    assert [m.uses(cell) for cell in REF_VARIABLES] == [cell in ref for cell in REF_VARIABLES]


def reference_pairs(seed, count):
    rng = random.Random(seed)
    refs = [ref_monomial(rng) for _ in range(count)]
    # products make divisible pairs; repeats make equal ones
    refs += [ref_mul(refs[i], ref_monomial(rng)) for i in range(0, count, 3)]
    refs += [dict(refs[i]) for i in range(0, count, 5)]
    return refs


def test_packed_monomial_fields_match_reference():
    for ref in reference_pairs(41, 60) + [{}]:
        m = packed(ref)
        assert exponents(m) == ref
        assert m.degree() == sum(ref.values())
        assert m.is_squarefree() == all(e == 1 for e in ref.values())
        assert all(m.uses(cell) == (cell in ref) for cell in REF_VARIABLES)
        assert monomial_to_json(m) == sorted([c.row, c.col, e] for c, e in ref.items())
        assert read_monomial(monomial_to_json(m)) == m
        assert monomial_text(m) == "*".join(
            ("t" if c == AUX else f"m[{c.row},{c.col}]") + ("" if e == 1 else f"^{e}")
            for c, e in sorted(ref.items())
        )
        assert (m == MONOMIAL_ONE) == (not ref)


def test_packed_arithmetic_matches_reference():
    refs = reference_pairs(43, 45)
    divisible = 0
    for a in refs:
        ma = packed(a)
        for b in refs:
            mb = packed(b)
            assert_packed(ma * mb, ref_mul(a, b))
            assert_packed(ma.lcm(mb), ref_lcm(a, b))
            assert ma.divides(mb) == ref_divides(a, b)
            if ref_divides(a, b):
                divisible += 1
                assert packed(ref_quotient(b, a)) * ma == mb
    assert divisible > 2 * len(refs)  # more than the trivial a | a and 1 | b


def test_packed_order_and_equality_match_reference():
    refs = reference_pairs(47, 60)
    monos = [packed(ref) for ref in refs]
    for a, ma in zip(refs, monos):
        for b, mb in zip(refs, monos):
            expected = ref_compare(a, b)
            assert compare(ma, mb) == expected
            assert (sort_key(ma) < sort_key(mb)) == (expected == 1)
            assert (ma == mb) == (a == b)
            if a == b:
                assert hash(ma) == hash(mb)
    # an ascending sort by the key lists the largest monomial first
    by_key = sorted(monos, key=sort_key)
    by_ref = sorted(refs, key=ref_vector, reverse=True)
    assert [exponents(m) for m in by_key] == by_ref


def test_long_keys_and_high_exponents_match_reference():
    # more than 64 factors and an exponent above 127, so the Groebner
    # engine has to widen past its narrowest field
    a = {AUX: 2, Cell(1, 3): 130, Cell(2, 2): 1, Cell(3, 1): 5}
    b = {Cell(1, 3): 64, Cell(2, 2): 3, Cell(2, 1): 1, Cell(3, 1): 70}
    ma, mb = packed(a), packed(b)
    assert len(ma.key) == ma.degree() + 1 == 139
    assert ma.degree() > (1 << (_FIELD_BITS - 1)) - 1
    for ref, m in ((a, ma), (b, mb)):
        assert exponents(m) == ref
        assert not m.is_squarefree()
    lcm, product = ref_lcm(a, b), ref_mul(a, b)
    assert_packed(ma * mb, product)
    assert_packed(mb * ma, product)
    assert_packed(ma.lcm(mb), lcm)
    assert_packed(mb.lcm(ma), lcm)
    for x, y in ((a, b), (b, a), (a, lcm), (b, product), (lcm, a), (lcm, product)):
        assert packed(x).divides(packed(y)) == ref_divides(x, y)
    high = packed({Cell(1, 3): 131, Cell(3, 1): 5})  # within a's support, one power too many
    assert not high.divides(ma) and high.divides(ma * mb)
    assert monomial_to_json(ma) == [[0, 0, 2], [1, 3, 130], [2, 2, 1], [3, 1, 5]]
    assert monomial_text(ma) == "t^2*m[1,3]^130*m[2,2]*m[3,1]^5"
    f = poly((3, ma), (Fraction(-1, 2), mb))
    assert json_text(f) == json.dumps(polynomial_to_json(f), indent=2)

    # rewriting each m[1,3] as m[2,2] gives m[2,2]^131
    remainder = normal_form(poly((1, ma)), [poly((1, mono((1, 3))), (-1, mono((2, 2))))])
    assert remainder == poly((1, packed({AUX: 2, Cell(2, 2): 131, Cell(3, 1): 5})))
    assert normal_form(f * poly((1, mb)), [f]).is_zero()
    # neither monomial divides the other, so they are their ideal's reduced basis
    assert buchberger([poly((1, ma), (1, mb)), poly((2, mb))]) == [poly((1, mb)), poly((1, ma))]
