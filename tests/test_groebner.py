"""Division, Buchberger, intersection and initial ideals."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from nwgb import (
    AUX,
    Cell,
    IdealPresentation,
    Monomial,
    MonomialIdeal,
    Polynomial,
    buchberger,
    determinant,
    generator_polynomials,
    ideals_equal,
    initial_ideal,
    intersect,
    intersect_many,
    is_groebner,
    normal_form,
    parse_one_line,
    s_polynomial,
    spec_from_permutation,
    union_basis,
)
from nwgb.polynomials import polynomial_text, sort_key
from nwgb.verify import honest_permutations, ideal_of


def mono(*cells):
    return Monomial.from_cells(Cell(r, c) for r, c in cells)


def var(r, c):
    return Polynomial.variable(Cell(r, c))


def spec_of(text):
    return spec_from_permutation(parse_one_line(text))


def all_pairs_is_groebner(generators):
    """Reference: reduce every S-pair, with no criterion."""
    gens = [g for g in generators if not g.is_zero()]
    return all(
        normal_form(s_polynomial(f, g), gens).is_zero() for f, g in combinations(gens, 2)
    )


def assert_same_verdict(generators):
    verdict = all_pairs_is_groebner(generators)
    assert is_groebner(generators) == verdict
    return verdict


# normal forms -----------------------------------------------------------------

def test_member_of_basis_reduces_to_zero():
    f = determinant([1, 2], [1, 2])
    assert normal_form(f, [f]).is_zero()


def test_one_division_step():
    # the 2x2 determinant leads with its antidiagonal term, so the
    # antidiagonal monomial rewrites to the diagonal one
    g = determinant([1, 2], [1, 2])
    f = Polynomial({mono((1, 2), (2, 1)): 1})
    assert normal_form(f, [g]) == Polynomial(
        {mono((1, 1), (2, 2)): 1}
    )


def test_coprime_leading_terms_leave_input_unchanged():
    f = var(3, 3) + var(2, 2)
    assert normal_form(f, [var(1, 1)]) == f


def test_remainder_terms_not_divisible_by_basis_leads():
    rng = random.Random(41)
    basis = [determinant([1, 2], [1, 2]), determinant([1, 2], [2, 3])]
    leads = [g.leading_monomial() for g in basis]
    for _ in range(40):
        f = Polynomial(
            {
                Monomial.make(
                    [
                        (Cell(rng.randint(1, 3), rng.randint(1, 3)), rng.randint(1, 2))
                        for _ in range(rng.randint(0, 3))
                    ]
                ): rng.randint(-3, 3)
                for _ in range(4)
            }
        )
        remainder = normal_form(f, basis)
        for m in remainder.terms:
            assert not any(lead.divides(m) for lead in leads)


def min_scan_normal_form(f, basis):
    """Reference: the literal division loop, which finds the largest pending
    term by scanning all of them at every step."""
    reducers = []
    for g in basis:
        if g.is_zero():
            continue
        coeff, mono = g.leading_term()
        reducers.append((mono, coeff, g))
    work = dict(f.terms)
    remainder = {}
    while work:
        mono = min(work, key=sort_key)
        coeff = work[mono]
        for lead_mono, lead_coeff, g in reducers:
            if lead_mono.divides(mono):
                quotient = mono // lead_mono
                factor = coeff / lead_coeff
                for g_mono, g_coeff in g.terms.items():
                    target = g_mono * quotient
                    value = work.get(target, Fraction(0)) - factor * g_coeff
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[mono] = coeff
            del work[mono]
    return Polynomial(remainder)


def random_division_polynomial(rng, cells, terms):
    return Polynomial(
        {
            Monomial.make(
                [(rng.choice(cells), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
            ): Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
            for _ in range(terms)
        }
    )


def test_normal_form_matches_min_scan_reference():
    # few variables, so leading monomials divide each other and many terms
    # of the dividend; most random bases are not Groebner bases, where the
    # remainder depends on the order in which reducers are tried
    rng = random.Random(59)
    cells = [AUX, Cell(1, 2), Cell(1, 1), Cell(2, 2)]
    order_mattered = 0
    for _ in range(120):
        basis = [
            random_division_polynomial(rng, cells, rng.randint(2, 4))
            for _ in range(rng.randint(2, 4))
        ]
        for _ in range(3):
            f = random_division_polynomial(rng, cells, rng.randint(2, 7))
            remainders = set()
            for ordered in (basis, basis[::-1]):
                remainder = normal_form(f, ordered)
                assert remainder == min_scan_normal_form(f, ordered)
                remainders.add(polynomial_text(remainder))
            order_mattered += len(remainders) > 1
    assert order_mattered > 30  # 53 of the 360 cases


def test_normal_form_matches_min_scan_reference_on_groebner_bases():
    rng = random.Random(61)
    cells = [Cell(r, c) for r in range(1, 5) for c in range(1, 5)]
    for text in ("2 1 4 3", "1 4 3 2", "3 4 1 2"):
        basis = buchberger(generator_polynomials(spec_of(text)))
        for _ in range(15):
            f = random_division_polynomial(rng, cells, 6) * rng.choice(basis)
            f = f + random_division_polynomial(rng, cells, 3)
            assert normal_form(f, basis) == min_scan_normal_form(f, basis)


def test_normal_form_of_zero_and_empty_basis():
    assert normal_form(Polynomial.zero(), [var(1, 1)]).is_zero()
    f = var(1, 1) + var(2, 2)
    assert normal_form(f, []) == f


# s-polynomials ----------------------------------------------------------------

def test_s_polynomial_cancels_leading_terms():
    f = determinant([1, 2], [1, 2])
    g = determinant([1, 2], [1, 3])
    s = s_polynomial(f, g)
    lcm = f.leading_monomial().lcm(g.leading_monomial())
    assert s.is_zero() or s.leading_monomial() != lcm


# buchberger -------------------------------------------------------------------

def test_single_polynomial_is_its_own_basis():
    f = determinant([1, 2], [1, 2]) * 3
    assert buchberger([f]) == [f.monic()]


def test_monomial_pair_already_groebner():
    gens = [var(1, 1), Polynomial({mono((1, 2), (2, 1)): 1})]
    assert buchberger(gens) == gens


def test_buchberger_empty_and_zero_inputs():
    assert buchberger([]) == []
    assert buchberger([Polynomial.zero()]) == []


def test_fulton_generators_of_2143_are_groebner():
    gens = generator_polynomials(spec_of("2 1 4 3"))
    assert is_groebner(gens)
    basis = buchberger(gens)
    assert initial_ideal(basis) == MonomialIdeal.from_monomials(
        [mono((1, 1)), mono((1, 3), (2, 2), (3, 1))]
    )


def test_buchberger_output_independent_of_generator_order():
    gens = generator_polynomials(spec_of("1 4 3 2"))
    expected = buchberger(gens)
    rng = random.Random(43)
    for _ in range(5):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == expected


def test_buchberger_finds_new_elements_when_needed():
    # x*lead cancellation forces the diagonal monomial into the basis
    f = determinant([1, 2], [1, 2])
    g = Polynomial({mono((1, 2), (2, 1)): 1})
    basis = buchberger([f, g])
    assert Polynomial({mono((1, 1), (2, 2)): 1}) in basis


def test_is_groebner_counterexample():
    plus = Polynomial({mono((1, 1), (2, 2)): 1, mono((1, 2), (2, 1)): 1})
    minus = determinant([1, 2], [1, 2])
    assert not assert_same_verdict([plus, minus])
    assert assert_same_verdict(buchberger([plus, minus]))


def test_is_groebner_trivial_cases():
    assert is_groebner([])
    assert is_groebner([determinant([1, 2], [1, 2])])


def test_fulton_generators_of_all_s3_are_groebner():
    for p in honest_permutations(3):
        gens = generator_polynomials(spec_from_permutation(p))
        assert is_groebner(gens)


# is_groebner against the all-pairs reference ----------------------------------

def test_is_groebner_matches_reference_on_s3_union_bases():
    # all 36 ordered pairs, each basis whole and with one generator dropped
    perms = honest_permutations(3)
    for a in perms:
        for b in perms:
            specs = [spec_from_permutation(a), spec_from_permutation(b)]
            basis = [g.poly for g in union_basis(specs)]
            assert assert_same_verdict(basis)
            for k in range(len(basis)):
                assert_same_verdict(basis[:k] + basis[k + 1 :])


def test_is_groebner_matches_reference_on_s4_fulton_generators():
    for p in honest_permutations(4):
        assert assert_same_verdict(generator_polynomials(spec_from_permutation(p)))


def test_is_groebner_matches_reference_on_buchberger_output():
    for text in ("1 4 3 2", "2 1 4 3", "3 4 1 2"):
        assert assert_same_verdict(buchberger(generator_polynomials(spec_of(text))))


def test_is_groebner_matches_reference_on_random_sets():
    # leads over three variables share lcms often, the case where the chain
    # criterion could wrongly let two pending pairs excuse each other
    rng = random.Random(53)
    cells = [Cell(1, 1), Cell(1, 2), Cell(2, 1)]
    verdicts = []
    for _ in range(150):
        gens = [
            Polynomial(
                {
                    Monomial.from_cells(
                        rng.choice(cells) for _ in range(rng.randint(1, 2))
                    ): rng.choice([-1, 1, 2])
                    for _ in range(rng.randint(1, 3))
                }
            )
            for _ in range(rng.randint(2, 4))
        ]
        verdicts.append(assert_same_verdict(gens))
        basis = buchberger(gens)
        assert assert_same_verdict(basis)
        verdicts.append(assert_same_verdict(basis[1:]))
    assert True in verdicts and False in verdicts


def test_is_groebner_matches_reference_on_known_failing_s5_pair():
    # the union basis of this pair is wrong (see test_cli), so both say False
    specs = [spec_of("3 1 5 2 4"), spec_of("1 4 3 2 5")]
    assert not assert_same_verdict([g.poly for g in union_basis(specs)])


# intersection -----------------------------------------------------------------

def test_intersect_idempotent():
    ideal = ideal_of(spec_of("2 3 1"))
    meet = intersect(ideal, ideal)
    assert ideals_equal(list(ideal.generators), meet)


def test_intersect_231_312_matches_published_ideal():
    meet = intersect(ideal_of(spec_of("2 3 1")), ideal_of(spec_of("3 1 2")))
    assert [polynomial_text(f) for f in meet] == ["1*m[1,1]", "1*m[1,2]*m[2,1]"]
    published = [
        var(1, 1),
        var(1, 1) * var(1, 2),
        var(1, 1) * var(2, 1),
        var(1, 2) * var(2, 1),
    ]
    assert ideals_equal(meet, published)


def test_intersect_with_zero_ideal_absorbs():
    ideal = ideal_of(spec_of("2 3 1"))
    empty = IdealPresentation(())
    assert intersect(ideal, empty) == []
    assert intersect(empty, ideal) == []


def test_intersection_output_is_t_free_and_in_both_ideals():
    left = ideal_of(spec_of("1 4 2 3"))
    right = ideal_of(spec_of("1 3 4 2"))
    meet = intersect(left, right)
    assert meet
    for f in meet:
        assert not f.uses(AUX)
        assert normal_form(
            f, buchberger(list(left.generators))
        ).is_zero()
        assert normal_form(
            f, buchberger(list(right.generators))
        ).is_zero()


def test_intersect_many_folds_left():
    ideals = [ideal_of(spec_of(t)) for t in ("2 3 1", "3 1 2", "1 3 2")]
    meet = intersect_many(ideals)
    two = intersect(ideals[0], ideals[1])
    folded = intersect(IdealPresentation(tuple(two)), ideals[2])
    assert meet == folded
    with pytest.raises(ValueError):
        intersect_many([])


def test_ideal_presentation_rejects_zero_generators():
    with pytest.raises(ValueError):
        IdealPresentation((Polynomial.zero(),))


# initial ideals ----------------------------------------------------------------

def test_initial_ideal_of_2x2_determinant():
    assert initial_ideal([determinant([1, 2], [1, 2])]) == (
        MonomialIdeal.from_monomials([mono((1, 2), (2, 1))])
    )


def test_initial_ideal_minimalizes():
    gens = [var(1, 1), var(1, 1) * var(1, 2)]
    assert initial_ideal(gens) == MonomialIdeal.from_monomials(
        [mono((1, 1))]
    )


def test_initial_ideal_of_231_312_intersection():
    meet = intersect(ideal_of(spec_of("2 3 1")), ideal_of(spec_of("3 1 2")))
    assert initial_ideal(meet) == MonomialIdeal.from_monomials(
        [mono((1, 1)), mono((1, 2), (2, 1))]
    )


def test_initial_ideal_intersection_theorem_on_all_s3_pairs():
    # special to northwest-rank ideals; must not be asserted for random ones
    perms = honest_permutations(3)
    ideals = {
        p.images: generator_polynomials(spec_from_permutation(p)) for p in perms
    }
    inits = {
        images: initial_ideal(gens) for images, gens in ideals.items()
    }
    for a in perms:
        for b in perms:
            meet = intersect(
                IdealPresentation(tuple(ideals[a.images])),
                IdealPresentation(tuple(ideals[b.images])),
            )
            assert initial_ideal(meet) == inits[a.images].intersect(
                inits[b.images]
            )


def test_monomial_ideal_operations():
    left = MonomialIdeal.from_monomials([mono((1, 1)), mono((1, 1), (2, 2))])
    assert left.minimal_generators == frozenset([mono((1, 1))])
    right = MonomialIdeal.from_monomials([mono((1, 2)), mono((2, 2))])
    meet = left.intersect(right)
    assert meet == MonomialIdeal.from_monomials(
        [mono((1, 1), (1, 2)), mono((1, 1), (2, 2))]
    )
    assert meet.contains(mono((1, 1), (1, 2), (3, 3)))
    assert not meet.contains(mono((1, 1)))


def test_monomial_ideal_intersection_against_membership_oracle():
    rng = random.Random(47)
    for _ in range(30):
        gens_a = [
            Monomial.from_cells(
                Cell(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2)
            )
            for _ in range(3)
        ]
        gens_b = [
            Monomial.from_cells(
                Cell(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2)
            )
            for _ in range(3)
        ]
        a = MonomialIdeal.from_monomials(gens_a)
        b = MonomialIdeal.from_monomials(gens_b)
        meet = a.intersect(b)
        probe = Monomial.from_cells(
            Cell(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(4)
        )
        assert meet.contains(probe) == (a.contains(probe) and b.contains(probe))


# ideal equality ----------------------------------------------------------------

def test_ideals_equal_reflexive_and_distinguishes():
    gens = generator_polynomials(spec_of("2 3 1"))
    assert ideals_equal(gens, gens)
    assert not ideals_equal([var(1, 1)], [var(1, 2)])
    assert ideals_equal([], [])
    assert not ideals_equal([], [var(1, 1)])


def test_ideals_equal_is_presentation_independent():
    f = determinant([1, 2], [1, 2])
    doubled = [f * 2, f + var(1, 1), var(1, 1)]
    assert ideals_equal(doubled, [f, var(1, 1)])


def test_scaled_coefficients_survive_exactly():
    f = determinant([1, 2], [1, 2]) * Fraction(3, 7)
    basis = buchberger([f])
    assert basis == [f.monic()]
    assert basis[0].leading_term()[0] == 1
