"""Monomial order, exact arithmetic, determinants and antidiagonals."""

import random
from fractions import Fraction
from itertools import combinations, permutations as itertools_permutations

import pytest

from nwgb import (
    Antidiagonal,
    Cell,
    Monomial,
    Polynomial,
    antidiagonal_of,
    compare,
    determinant,
)
from nwgb.polynomials import (
    MONOMIAL_ONE,
    monomial_text,
    polynomial_from_json,
    polynomial_text,
    polynomial_to_json,
)


def mono(*cells):
    return Monomial.from_cells(Cell(r, c) for r, c in cells)


def poly(*terms):
    return Polynomial({m: c for c, m in terms})


def random_monomial(rng, n=5, max_vars=4, max_exp=3):
    picks = [
        (Cell(rng.randint(1, n), rng.randint(1, n)), rng.randint(1, max_exp))
        for _ in range(rng.randint(0, max_vars))
    ]
    return Monomial.make(picks)


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
        Polynomial.zero().leading_term()


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
        (1, Monomial.make({Cell(1, 1): 2, Cell(2, 2): 2})),
        (-2, mono((1, 1), (1, 2), (2, 1), (2, 2))),
        (1, Monomial.make({Cell(1, 2): 2, Cell(2, 1): 2})),
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
            fe, ge, he = f.evaluate(point), g.evaluate(point), h.evaluate(point)
            assert (f + g).evaluate(point) == fe + ge
            assert (f * g).evaluate(point) == fe * ge
            assert ((f + g) * h).evaluate(point) == (fe + ge) * he
            assert (f * (g * h)).evaluate(point) == fe * (ge * he)
            assert (f - f).evaluate(point) == 0


def test_scalar_multiplication():
    f = determinant([1, 2], [1, 2])
    assert f * 2 == f + f
    assert Fraction(1, 2) * (f + f) == f


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
                value = determinant(rows, cols).evaluate(point)
                assert value == numeric_leibniz(matrix, rows, cols)
                assert value == numeric_cofactor(matrix, rows, cols)


def test_determinant_errors():
    with pytest.raises(ValueError):
        determinant([1, 2], [1])
    with pytest.raises(ValueError):
        determinant([], [])
    with pytest.raises(ValueError):
        determinant([0, 1], [1, 2])
    with pytest.raises(ValueError):
        determinant([1, 6], [1, 2], ambient_n=5)
    determinant([1, 5], [1, 2], ambient_n=5)


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


def test_antidiagonal_validation():
    with pytest.raises(ValueError):
        Antidiagonal(())
    with pytest.raises(ValueError):
        Antidiagonal((Cell(1, 1), Cell(2, 2)))
    with pytest.raises(ValueError):
        Antidiagonal((Cell(1, 2), Cell(1, 1)))
    with pytest.raises(ValueError):
        Antidiagonal.from_cells([Cell(1, 1), Cell(2, 1)])


def test_antidiagonal_determinant_and_monomial():
    a = Antidiagonal((Cell(1, 4), Cell(3, 2), Cell(4, 1)))
    assert a.rows() == (1, 3, 4)
    assert a.cols() == (1, 2, 4)
    assert a.determinant() == determinant([1, 3, 4], [1, 2, 4])
    assert a.monomial() == mono((1, 4), (3, 2), (4, 1))
    _, lead = a.determinant().leading_term()
    assert lead == a.monomial()


# serialization ----------------------------------------------------------------

def test_polynomial_text_canonical_form():
    f = determinant([1, 2], [1, 2])
    assert polynomial_text(f) == "-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2]"


def test_polynomial_text_exponents_and_constants():
    f = Polynomial(
        {
            Monomial.make({Cell(1, 1): 2}): Fraction(3, 2),
            MONOMIAL_ONE: Fraction(-1),
        }
    )
    assert polynomial_text(f) == "3/2*m[1,1]^2 + -1"
    assert polynomial_text(Polynomial.zero()) == "0"


def test_monomial_text_row_major():
    assert monomial_text(mono((2, 1), (1, 2))) == "m[1,2]*m[2,1]"


def test_polynomial_json_round_trip():
    rng = random.Random(29)
    for _ in range(30):
        f = random_polynomial(rng)
        data = polynomial_to_json(f)
        assert polynomial_from_json(data) == f
    # leading term first in the serialized order
    data = polynomial_to_json(determinant([1, 2], [1, 2]))
    assert data[0] == {"coeff": "-1", "monomial": [[1, 2, 1], [2, 1, 1]]}
