"""Division, Buchberger, intersection and initial ideals."""

import heapq
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from conftest import check_value_contract, exact, folded_product, seeded_condition_lists

from nwgb import (
    AUX,
    Cell,
    IdealPresentation,
    Monomial,
    MonomialIdeal,
    Polynomial,
    RankCondition,
    RankConditionSpec,
    buchberger,
    determinant,
    generator_minors,
    generator_polynomials,
    ideals_equal,
    initial_ideal,
    intersect,
    intersect_many,
    is_groebner,
    normal_form,
    parse_one_line,
    s_polynomial,
    spec_from_json,
    spec_from_permutation,
    union_basis,
)
import nwgb.polynomials
from nwgb import groebner
from nwgb.ideals import WORK_LIMIT, completion_work
from nwgb.polynomials import compare, monomial_to_json, polynomial_text, sort_key
from nwgb.suites import sampled_s4_pairs
from nwgb.verify import honest_permutations, spec_bases
from test_polynomials import monic
from test_union import S4_PAIRS, S5_SPECS, partial_permutations


def ideal_of(spec):
    """A spec's ideal presented by its Fulton generators, uncompleted."""
    return IdealPresentation(tuple(generator_polynomials(spec)))


def mono(*cells):
    return Monomial.from_cells(Cell(r, c) for r, c in cells)


def var(r, c):
    return Polynomial.variable(Cell(r, c))


def power_product(pairs):
    """The product of cell**exp over the (cell, exp) pairs."""
    return Monomial.from_cells(cell for cell, exp in pairs for _ in range(exp))


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
                power_product(
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


def quotient(mono, divisor):
    """Reference: mono / divisor, for a divisor of mono, from their
    exponent lists."""
    exps = {(row, col): e for row, col, e in monomial_to_json(mono)}
    for row, col, e in monomial_to_json(divisor):
        exps[row, col] -= e
    return Monomial.from_cells(Cell(*cell) for cell, e in exps.items() for _ in range(e))


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
                cofactor = quotient(mono, lead_mono)
                factor = Fraction(coeff) / lead_coeff
                for g_mono, g_coeff in g.terms.items():
                    target = g_mono * cofactor
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
            power_product(
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
        dividends = [random_division_polynomial(rng, cells, rng.randint(2, 7)) for _ in range(3)]
        by_order = []
        for ordered in (basis, basis[::-1]):
            expected = [min_scan_normal_form(f, ordered) for f in dividends]
            assert [normal_form(f, ordered) for f in dividends] == expected
            by_order.append([polynomial_text(r) for r in expected])
        order_mattered += sum(a != b for a, b in zip(*by_order))
    assert order_mattered > 30  # 53 of the 360 cases

    # bases with a Fraction lead, a constant element, zero elements, and
    # no Groebner basis among them
    dividends = [random_division_polynomial(rng, cells, rng.randint(1, 7)) for _ in range(40)]
    x, y, z = var(1, 2), var(1, 1), var(2, 2)
    half = Polynomial.constant(Fraction(1, 2))
    bases = [
        [half * x * y - z, Polynomial.constant(3) * y * y + x],
        [x * z - y, Polynomial.constant(-2), x],
        [Polynomial(), y * z + x, Polynomial(), x * x - z],
        [Polynomial()],
        [x - y, x - z],
    ]
    assert not is_groebner(bases[2]) and not is_groebner(bases[4])
    assert any(type(b.leading_term()[0]) is Fraction for b in bases[0])
    expected = [[min_scan_normal_form(f, basis) for f in dividends] for basis in bases]
    assert [[normal_form(f, basis) for f in dividends] for basis in bases] == expected


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
    assert normal_form(Polynomial(), [var(1, 1)]).is_zero()
    f = var(1, 1) + var(2, 2)
    assert normal_form(f, []) == f


# s-polynomials ----------------------------------------------------------------

def test_s_polynomial_cancels_leading_terms():
    f = determinant([1, 2], [1, 2])
    g = determinant([1, 2], [1, 3])
    s = s_polynomial(f, g)
    lcm = f.leading_monomial().lcm(g.leading_monomial())
    assert s.is_zero() or s.leading_monomial() != lcm


def literal_s_polynomial(f, g):
    """Reference: multiply each side by its one-term cofactor and subtract."""
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    lcm = mf.lcm(mg)
    return f * Polynomial({quotient(lcm, mf): Fraction(1) / cf}) - g * Polynomial(
        {quotient(lcm, mg): Fraction(1) / cg}
    )


def test_s_polynomial_matches_literal_definition():
    # leads of 1, -1, other ints and non-integral Fractions, on either side
    rng = random.Random(67)
    cells = [AUX, Cell(1, 2), Cell(1, 1), Cell(2, 2)]
    leads = set()
    for _ in range(300):
        f = random_division_polynomial(rng, cells, rng.randint(1, 5))
        g = random_division_polynomial(rng, cells, rng.randint(1, 5))
        if f.is_zero() or g.is_zero():
            continue
        leads.update((f.leading_term()[0], g.leading_term()[0]))
        s = s_polynomial(f, g)
        assert s == literal_s_polynomial(f, g)
        assert_canonical_exact(s)
    assert {1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)} <= leads


# exactness on non-unit leads ----------------------------------------------------

def assert_canonical_exact(poly):
    """Every coefficient is an int, or a Fraction that is not integral, and
    never a float."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def non_unit_lead_pair(coeff):
    """Two polynomials that lead with 2 and -3, their coefficients built by
    ``coeff`` (int or Fraction)."""
    f = Polynomial(
        {mono((1, 2), (2, 1)): coeff(2), mono((1, 1), (2, 2)): coeff(3), mono(): coeff(1)}
    )
    g = Polynomial(
        {mono((1, 2), (1, 2)): coeff(-3), mono((1, 1)): coeff(1), mono((2, 2)): coeff(5)}
    )
    return f, g


@pytest.mark.parametrize("coeff", [int, Fraction], ids=["int", "fraction"])
def test_non_unit_leads_divide_exactly(coeff):
    # the same exact results whether the input is built on ints or Fractions
    f, g = non_unit_lead_pair(coeff)
    assert (f.leading_term()[0], g.leading_term()[0]) == (2, -3)
    assert_canonical_exact(f)
    assert_canonical_exact(g)
    assert monic(f) == Polynomial(
        {mono((1, 2), (2, 1)): 1, mono((1, 1), (2, 2)): Fraction(3, 2), mono(): Fraction(1, 2)}
    )
    assert monic(g) == Polynomial(
        {mono((1, 2), (1, 2)): 1, mono((1, 1)): Fraction(-1, 3), mono((2, 2)): Fraction(-5, 3)}
    )
    h = Polynomial(
        {
            mono((1, 2), (1, 2), (2, 1)): coeff(7),
            mono((1, 2), (2, 1), (2, 2)): coeff(-1),
            mono((1, 1)): coeff(4),
        }
    )
    remainder = normal_form(h, [f, g])
    assert remainder == min_scan_normal_form(h, [f, g])
    assert any(type(c) is Fraction for c in remainder.terms.values())  # it divided
    s = s_polynomial(f, g)
    assert s == literal_s_polynomial(f, g)
    basis = buchberger([f, g])
    assert basis == buchberger([monic(f), monic(g)])
    assert all(b.leading_term()[0] == 1 for b in basis)
    meet = intersect(IdealPresentation((f,)), IdealPresentation((g,)))
    assert meet == intersect(IdealPresentation((monic(f),)), IdealPresentation((monic(g),)))
    assert meet == [monic(f * g)]  # two coprime principal ideals meet in their product
    for poly in [monic(f), monic(g), remainder, s, *basis, *meet]:
        assert_canonical_exact(poly)


# buchberger -------------------------------------------------------------------

def test_single_polynomial_is_its_own_basis():
    f = determinant([1, 2], [1, 2]) * 3
    assert buchberger([f]) == [monic(f)]


def test_monomial_pair_already_groebner():
    gens = [var(1, 1), Polynomial({mono((1, 2), (2, 1)): 1})]
    assert buchberger(gens) == gens


def test_buchberger_empty_and_zero_inputs():
    assert buchberger([]) == []
    assert buchberger([Polynomial()]) == []


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
            basis = [folded_product(g.factors) for g in union_basis(specs)]
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


def _redundant_extensions(basis, rng, n):
    """basis + [h] for elements h = x*g + tail whose leading monomial is
    x*LT(g), a multiple of a kept lead, so is_groebner sets h aside and
    reduces it against the minimal-lead subset.  The tail is a multiple of
    another basis element (h stays in the ideal) or a bare monomial (h
    leaves the ideal unless that monomial lies in it)."""
    for _ in range(3):
        g, other = rng.choice(basis), rng.choice(basis)
        x = var(rng.randint(1, n), rng.randint(1, n))
        y = var(rng.randint(1, n), rng.randint(1, n))
        lead = (x * g).leading_monomial()
        for tail in (y * other, y * var(rng.randint(1, n), rng.randint(1, n))):
            h = x * g + tail
            if h.leading_monomial() == lead:
                yield basis + [h]


def test_is_groebner_matches_reference_with_redundant_elements():
    rng = random.Random(59)
    perms3 = honest_permutations(3)
    cases = [(3, a, b) for a in perms3 for b in perms3]
    cases += [(4, a, b) for a, b in sampled_s4_pairs(random.Random(5), 6)]
    verdicts = []
    for n, a, b in cases:
        specs = [spec_from_permutation(a), spec_from_permutation(b)]
        basis = [folded_product(g.factors) for g in union_basis(specs)]
        if not basis:
            continue  # an identity permutation: the zero ideal
        for gens in _redundant_extensions(basis, rng, n):
            verdicts.append(assert_same_verdict(gens))
    assert True in verdicts and False in verdicts


def test_is_groebner_matches_reference_on_known_failing_s5_pair():
    # the union basis of this pair is wrong (see test_cli), so both say False
    specs = [spec_of("3 1 5 2 4"), spec_of("1 4 3 2 5")]
    assert not assert_same_verdict([folded_product(g.factors) for g in union_basis(specs)])


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
        assert not any(m.uses(AUX) for m in f.terms)
        assert normal_form(
            f, buchberger(list(left.generators))
        ).is_zero()
        assert normal_form(
            f, buchberger(list(right.generators))
        ).is_zero()


def test_t_free_lead_test_keeps_what_a_scan_of_every_term_keeps():
    # intersect keeps an element of the basis of t*I + (1-t)*J when its
    # leading monomial is t-free; t ranks above every matrix entry, so that
    # is exactly when no term uses t
    t = Polynomial.variable(AUX)
    one_minus_t = Polynomial.constant(1) - t
    rng = random.Random(23)
    non_identity = honest_permutations(4)[1:]
    for _ in range(8):
        I, J = (ideal_of(spec_from_permutation(p)) for p in rng.sample(non_identity, 2))
        mixed = [t * f for f in I.generators] + [one_minus_t * g for g in J.generators]
        eliminated = buchberger(mixed)
        by_scan = [g for g in eliminated if not any(m.uses(AUX) for m in g.terms)]
        assert [g for g in eliminated if not g.leading_monomial().uses(AUX)] == by_scan
        assert 0 < len(by_scan) < len(eliminated)
        assert intersect(I, J) == by_scan


def fold_inputs(texts):
    """The same ideals as raw generators, with the first completed, and as
    ``spec_bases`` presentations."""
    specs = [spec_of(t) for t in texts]
    raw = [ideal_of(s) for s in specs]
    completed = [IdealPresentation(tuple(buchberger(raw[0].generators)))] + raw[1:]
    return raw, completed, spec_bases(specs)


S6_TRIPLES = [
    # the triples tests/test_pinned_output.py pins by digest
    ("5 3 2 4 6 1", "5 3 6 4 2 1", "6 1 4 2 3 5"),
    ("5 1 3 4 2 6", "6 2 4 5 3 1", "5 4 1 2 6 3"),
]


def test_intersect_many_depends_only_on_the_ideals():
    rng = random.Random(73)
    perms = [p.one_line() for p in honest_permutations(4)]
    triples = [tuple(rng.choice(perms) for _ in range(3)) for _ in range(8)]
    for texts in triples + S6_TRIPLES:
        raw, completed, bases = fold_inputs(texts)
        meet = intersect_many(raw)
        assert meet == intersect_many(completed) == intersect_many(bases)
        assert_reduced(meet)


def test_intersect_many_completes_a_lone_ideal():
    for texts in (("1 4 3 2",), ("2 1 4 3",), S6_TRIPLES[0][:1]):
        raw, completed, bases = fold_inputs(texts)
        expected = buchberger(raw[0].generators)
        assert intersect_many(raw) == intersect_many(completed) == expected
        assert intersect_many(bases) == expected


def test_intersect_many_empty_presentation_absorbs():
    ideal = ideal_of(spec_of("2 3 1"))
    empty = IdealPresentation(())
    with pytest.raises(ValueError, match=exact("need at least one ideal")):
        intersect_many([])
    assert intersect_many([empty]) == []
    buchberger(ideal.generators)
    recorded = groebner._last_reduced
    assert intersect_many([empty, ideal]) == []
    assert intersect_many([ideal, empty, ideal]) == []
    assert intersect(ideal, empty) == []
    assert groebner._last_reduced is recorded  # an absorbed fold records nothing


def test_ideal_presentation_rejects_zero_generators():
    with pytest.raises(ValueError, match=exact("generators must be nonzero")):
        IdealPresentation((Polynomial(),))


def test_ideal_presentation_and_monomial_ideal_value_contract():
    f = determinant([1, 2], [1, 2])
    check_value_contract(
        IdealPresentation,
        ("generators",),
        ([f],),
        ([f, f],),
        "IdealPresentation(generators=(-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2],))",
    )
    assert IdealPresentation([f]).generators == (f,)
    check_value_contract(
        MonomialIdeal,
        ("minimal_generators",),
        (frozenset([mono((1, 1))]),),
        (frozenset([mono((1, 2))]),),
        "MonomialIdeal(minimal_generators=frozenset({m[1,1]}))",
    )


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


def random_small_set(rng, cells):
    def term():
        return Monomial.from_cells(rng.choice(cells) for _ in range(rng.randint(1, 2)))

    return [
        Polynomial({term(): rng.choice([-1, 1, 2]) for _ in range(rng.randint(1, 3))})
        for _ in range(rng.randint(1, 3))
    ]


def test_ideals_equal_matches_literal_completion():
    # b spans a's ideal (a scaled and shuffled, plus a combination of its
    # elements), and half the time one random element more (often a
    # larger ideal)
    rng = random.Random(67)
    cells = [Cell(1, 1), Cell(1, 2), Cell(2, 1)]
    outcomes = []
    for _ in range(120):
        a = random_small_set(rng, cells)
        b = [f * rng.choice([1, 3]) for f in a]
        rng.shuffle(b)
        b.append(rng.choice(a) * var(*rng.choice([(1, 1), (1, 2)])) + rng.choice(a))
        if rng.random() < 0.5:
            b += random_small_set(rng, cells)[:1]
        literal = buchberger(a) == buchberger(b)
        assert ideals_equal(a, b) == literal
        assert ideals_equal(b, a) == literal
        outcomes.append(literal)
    assert True in outcomes and False in outcomes


def test_ideals_equal_completes_a_set_that_is_not_a_groebner_basis():
    # the set's leads do not span its initial ideal, and it still spans the
    # ideal of its completion
    plus = Polynomial({mono((1, 1), (2, 2)): 1, mono((1, 2), (2, 1)): 1})
    minus = determinant([1, 2], [1, 2])
    reduced = buchberger([plus, minus])
    assert not is_groebner([plus, minus])
    assert ideals_equal([plus, minus], reduced)
    assert ideals_equal([minus, plus * 2], reduced)


def test_ideals_equal_rejects_an_element_outside_the_ideal_with_a_covered_lead():
    # LT(h) = m[3,3] * LT(g), so adding h leaves the leading-term ideal as
    # it was; its tail m[3,3] lies outside the ideal
    reduced = buchberger(generator_polynomials(spec_of("2 3 1")))
    g = reduced[-1]
    h = var(3, 3) * g + var(3, 3)
    assert h.leading_monomial() == (var(3, 3) * g).leading_monomial()
    assert not ideals_equal(reduced + [h], reduced)
    assert buchberger(reduced + [h]) != reduced
    inside = var(3, 3) * g + var(3, 2) * reduced[0]
    assert ideals_equal(reduced + [inside], reduced)


# one interreduction pass against the fixed-point reference ----------------------

def fixed_point_interreduce(polys):
    """Reference: interreduction passes repeated until one changes nothing."""
    current = [monic(p) for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        kept = []
        for index, f in enumerate(current):
            others = kept + current[index + 1 :]
            reduced = min_scan_normal_form(f, others) if others else f
            if reduced.is_zero():
                changed = True
                continue
            reduced = monic(reduced)
            if reduced != f:
                changed = True
            kept.append(reduced)
        current = kept
    return current


def fixed_point_interreduced(minimal):
    """Reference: the fixed point, sorted by ascending leading monomial."""
    reduced = fixed_point_interreduce(minimal)
    reduced.sort(key=lambda f: f.leading_monomial().key, reverse=True)
    return reduced


def fixed_point_buchberger(generators):
    """Reference: Buchberger with no criterion, on the engine-free division
    and S-polynomial above.  Every pair of the growing basis is reduced,
    the pairs of each new element included, the one with the smallest lcm
    first, until all reduce to zero; then the elements whose leading
    monomial no other's divides (the first of equal ones) are interreduced
    to the fixed point."""
    basis = fixed_point_interreduce(generators)
    leads = []
    pairs = []  # a heap, smallest lcm degree first

    def add(f):
        lead = f.leading_monomial()
        for k, other in enumerate(leads):
            lcm = other.lcm(lead)
            heapq.heappush(pairs, (lcm.degree(), sort_key(lcm), k, len(leads)))
        leads.append(lead)

    for f in basis:
        add(f)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        remainder = min_scan_normal_form(literal_s_polynomial(basis[i], basis[j]), basis)
        if not remainder.is_zero():
            basis.append(monic(remainder))
            add(basis[-1])
    minimal = [
        f
        for k, f in enumerate(basis)
        if not any(
            leads[i].divides(leads[k]) and (leads[i] != leads[k] or i < k)
            for i in range(len(basis))
            if i != k
        )
    ]
    return fixed_point_interreduced(minimal)


def assert_reduced(basis):
    """Monic, in ascending leading monomial, and no term of an element is
    divisible by the leading monomial of another."""
    leads = [f.leading_monomial() for f in basis]
    assert all(f.leading_term()[0] == 1 for f in basis)
    assert all(compare(a, b) < 0 for a, b in zip(leads, leads[1:]))
    for k, f in enumerate(basis):
        for m in f.terms:
            assert not any(lead.divides(m) for i, lead in enumerate(leads) if i != k)


def assert_matches_fixed_point(generators, other):
    """``buchberger`` returns the fixed-point reference's basis, reduced, and
    ``ideals_equal`` gives the reference verdict for ``generators`` against
    both that basis and ``other``."""
    basis = buchberger(generators)
    assert basis == fixed_point_buchberger(generators)
    assert_reduced(basis)
    assert ideals_equal(generators, basis)
    verdict = ideals_equal(generators, other)
    assert verdict == (fixed_point_buchberger(other) == basis)
    return verdict


def test_one_pass_interreduction_matches_fixed_point_on_random_sets():
    rng = random.Random(71)
    cells = [Cell(1, 1), Cell(1, 2), Cell(2, 1)]
    verdicts = []
    for _ in range(150):
        a = random_small_set(rng, cells)
        b = a + random_small_set(rng, cells)[:1]
        verdicts.append(assert_matches_fixed_point(b, a))
    assert True in verdicts and False in verdicts


def test_one_pass_interreduction_matches_fixed_point_on_fulton_generators():
    # each set against its own completion and against the previous
    # permutation's ideal, a different one
    for n in (3, 4):
        gens = [generator_polynomials(spec_from_permutation(p)) for p in honest_permutations(n)]
        for k, g in enumerate(gens):
            assert not assert_matches_fixed_point(g, gens[k - 1])


def test_one_pass_interreduction_matches_fixed_point_on_s4_union_bases():
    # the union basis against its own completion and the oracle intersection
    perms = honest_permutations(4)
    for k, a in enumerate(perms):
        for b in perms[k:]:
            specs = [spec_from_permutation(a), spec_from_permutation(b)]
            basis = [folded_product(g.factors) for g in union_basis(specs)]
            meet = intersect_many(spec_bases(specs))
            assert assert_matches_fixed_point(basis, meet)


def test_scaled_coefficients_survive_exactly():
    f = determinant([1, 2], [1, 2]) * Fraction(3, 7)
    basis = buchberger([f])
    assert basis == [monic(f)]
    assert basis[0].leading_term()[0] == 1


# the recorded reduced basis ------------------------------------------------------

def seeded_triples(seed, n, count, size=3):
    rng = random.Random(seed)
    perms = [p.one_line() for p in honest_permutations(n)]
    return [tuple(rng.choice(perms) for _ in range(size)) for _ in range(count)]


RECORD_TRIPLES = seeded_triples(83, 4, 4) + seeded_triples(83, 5, 2)


def meet_of(texts):
    return intersect_many([ideal_of(spec_of(t)) for t in texts])


def completed(generators):
    """``buchberger`` with nothing recorded, so always the full completion;
    the record outside is left as it was."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_last_reduced", ())
        patch.setattr(groebner, "_record_reduced", lambda basis: basis)
        return buchberger(generators)


@pytest.fixture
def completions(monkeypatch):
    """One entry per completion ``buchberger`` starts."""
    calls = []
    complete = groebner._complete

    def counted(layout, generators, below=None):
        calls.append(len(generators))
        return complete(layout, generators, below)

    monkeypatch.setattr(groebner, "_complete", counted)
    return calls


def refuse(layout, generators, below=None):
    raise AssertionError("completed a basis the engine had just returned")


@pytest.mark.parametrize("texts", RECORD_TRIPLES, ids=" | ".join)
def test_initial_ideal_reads_the_basis_intersect_many_returned(texts, monkeypatch):
    expected = initial_ideal(completed(meet_of(texts)))
    meet = meet_of(texts)
    monkeypatch.setattr(groebner, "_complete", refuse)
    assert initial_ideal(meet) == expected
    assert ideals_equal(meet, meet)
    assert buchberger(meet) == meet and buchberger(meet) is not meet
    with pytest.raises(AssertionError, match="just returned"):
        initial_ideal([Polynomial(dict(f.terms)) for f in meet])  # a miss completes


EXTRA = var(5, 5)  # outside every northwest-rank ideal of S4 and S5


def replaced(meet):
    buchberger([EXTRA])
    return meet


# inputs that are not the recorded basis: each is completed in full
MISSES = {
    "reversed": lambda meet: meet[::-1],
    "copied": lambda meet: [Polynomial(dict(f.terms)) for f in meet],
    "extended": lambda meet: meet + [EXTRA],
    "replaced": replaced,
}


@pytest.mark.parametrize("miss", sorted(MISSES))
@pytest.mark.parametrize("texts", RECORD_TRIPLES, ids=" | ".join)
def test_buchberger_completes_anything_but_the_recorded_basis(texts, miss, completions):
    meet = meet_of(texts)
    generators = MISSES[miss](meet)
    expected = completed(generators)
    del completions[:]
    got = buchberger(generators)
    assert got == expected
    assert_reduced(got)
    if len(meet) > 1 or miss != "reversed":  # one element reversed is the same list
        assert completions
    assert (expected == meet) == (miss != "extended")


@pytest.mark.parametrize("seed", range(4))
def test_buchberger_returns_its_own_output_unchanged(seed):
    # why a recorded basis may be handed back: completing it changes nothing
    for texts in seeded_triples(seed, 4, 10):
        meet = meet_of(texts)
        assert completed(meet) == meet


# the packed representation ------------------------------------------------------

PACKED_CELLS = [AUX, Cell(1, 3), Cell(1, 1), Cell(2, 2), Cell(3, 1)]


def random_monomial(rng, cells=PACKED_CELLS, top=3):
    """Exponents 0 to ``top`` on each cell, t included."""
    return power_product([(cell, rng.randint(0, top)) for cell in cells])


def layout_of(monos, bits=nwgb.polynomials._FIELD_BITS):
    return groebner._Layout([Polynomial({m: 1}) for m in monos], bits)


def test_packed_order_is_the_monomial_order():
    rng = random.Random(89)
    monos = [random_monomial(rng) for _ in range(80)] + [mono()]
    for bits in (8, 16, 32):
        layout = layout_of(monos, bits)
        packed = [layout.pack(m) for m in monos]
        for a, x in zip(monos, packed):
            for b, y in zip(monos, packed):
                assert (x > y) - (x < y) == compare(a, b)
        assert sorted(monos, key=sort_key) == [layout.unpack(x) for x in sorted(packed, reverse=True)]


def test_packed_divisibility_and_lcm_match_monomials():
    rng = random.Random(97)
    monos = [random_monomial(rng) for _ in range(50)]
    monos += [m * random_monomial(rng, top=1) for m in monos[:25]]  # divisible pairs
    divisible = 0
    for bits in (8, 16):
        layout = layout_of(monos, bits)
        for a in monos:
            for b in monos:
                x, y = layout.pack(a), layout.pack(b)
                assert layout.divides(x, y) == a.divides(b)
                divisible += a.divides(b)
                lcm = layout.lcm(x, y)
                assert layout.unpack(lcm) == a.lcm(b)
                assert layout.degree(lcm) == a.lcm(b).degree()
    assert divisible > 4 * len(monos)


def test_lead_index_finds_a_dividing_lead_among_the_chosen():
    # squarefree leads and leads with powers, against Monomial.divides
    rng = random.Random(101)
    leads = [random_monomial(rng, top=rng.choice([1, 2])) for _ in range(30)]
    probes = [random_monomial(rng) for _ in range(120)] + leads
    layout = layout_of(leads + probes)
    index = groebner._LeadIndex(layout)
    found = 0
    for k, lead in enumerate(leads):
        index.add(layout.pack(lead))
        for probe in probes[: 4 * (k + 1)]:
            among = rng.getrandbits(k + 1)
            expected = any(among >> i & 1 and a.divides(probe) for i, a in enumerate(leads[: k + 1]))
            assert index.divides_any(among, layout.pack(probe)) == expected
            found += expected
    assert index.powers and index.powers != (1 << len(leads)) - 1
    assert 0 < found < sum(4 * (k + 1) for k in range(len(leads)))


def test_pack_then_unpack_is_the_identity():
    rng = random.Random(103)
    monos = [random_monomial(rng) for _ in range(60)] + [mono()]
    layout = layout_of(monos)
    packed = [layout.pack(m) for m in monos]
    for m, x in zip(monos, packed):
        back = layout.unpack(x)
        assert (back.key, back.degree()) == (m.key, m.degree())


@pytest.fixture
def widths(monkeypatch):
    """The field width of every layout tried, starting from 2 bits (one
    exponent bit), so that nearly every call has to widen."""
    tried = []

    class Recording(groebner._Layout):
        def __init__(self, polys, bits):
            tried.append(bits)
            super().__init__(polys, bits)

    monkeypatch.setattr(nwgb.polynomials, "_FIELD_BITS", 2)
    monkeypatch.setattr(groebner, "_Layout", Recording)
    return tried


def test_an_exponent_that_outgrows_its_field_widens_the_call(widths):
    # m[1,1]^7 packs in 4 bits; rewriting each m[1,1] as m[2,2]^2 gives
    # m[2,2]^14, which needs 8
    x, y = var(1, 1), var(2, 2)
    f = Polynomial({power_product([(Cell(1, 1), 7)]): 1})
    assert normal_form(f, [x - y * y]) == Polynomial({power_product([(Cell(2, 2), 14)]): 1})
    assert widths == [2, 4, 8]


def test_widened_calls_give_the_reference_results(widths):
    rng = random.Random(107)
    for _ in range(40):
        gens = random_reference_set(rng)
        f = random_division_polynomial(rng, REFERENCE_CELLS, 5)
        assert normal_form(f, gens) == min_scan_normal_form(f, gens)
        nonzero = [g for g in gens if not g.is_zero()]
        assert s_polynomial(nonzero[0], nonzero[-1]) == literal_s_polynomial(nonzero[0], nonzero[-1])
        assert is_groebner(gens) == reference_is_groebner(gens)
    assert {2, 4} <= set(widths)  # each call started at 2 bits and widened
    x, y = var(1, 1), var(2, 2)
    meet = intersect(IdealPresentation((x * x,)), IdealPresentation((x * y,)))
    assert meet == [x * x * y]


# the elimination fold -------------------------------------------------------------

def textbook_intersect(I, J):
    """The elements of the full completion of t*I + (1-t)*J whose lead is
    t-free: the textbook elimination, with nothing packed across steps."""
    t = Polynomial.variable(AUX)
    one_minus_t = Polynomial.constant(1) - t
    mixed = [t * f for f in I.generators] + [one_minus_t * g for g in J.generators]
    return [g for g in completed(mixed) if not g.leading_monomial().uses(AUX)]


FOLD_CASES = (
    [("2 3 1", "3 1 2", "1 3 2"), ("2 1 4 3", "1 4 3 2", "3 2 1 4", "1 3 4 2")]
    + seeded_triples(61, 5, 4)
)


@pytest.mark.parametrize("texts", FOLD_CASES, ids=" | ".join)
def test_intersect_many_folds_left(texts):
    ideals = [ideal_of(spec_of(t)) for t in texts]
    by_intersect = by_textbook = ideals[0]
    for ideal in ideals[1:]:
        by_intersect = IdealPresentation(tuple(intersect(by_intersect, ideal)))
        by_textbook = IdealPresentation(tuple(textbook_intersect(by_textbook, ideal)))
    meet = intersect_many(ideals)
    assert meet == list(by_intersect.generators) == list(by_textbook.generators)
    assert meet
    assert_reduced(meet)


@pytest.mark.parametrize("texts", FOLD_CASES, ids=" | ".join)
def test_intersect_many_completes_once_per_step_and_unpacks_only_its_result(
    texts, completions, monkeypatch
):
    unpacked = []

    class Counting(groebner._Layout):
        def polynomial(self, terms):
            unpacked.append(super().polynomial(terms))
            return unpacked[-1]

    monkeypatch.setattr(groebner, "_Layout", Counting)
    meet = intersect_many([ideal_of(spec_of(t)) for t in texts])
    assert len(completions) == len(texts) - 1
    assert len(unpacked) == len(meet) and all(map(operator.is_, unpacked, meet))


def test_a_restart_in_the_middle_of_the_fold_gives_the_same_basis(widths, monkeypatch):
    # <x> and <y> meet in <xy>, which fits 2-bit fields (one exponent bit);
    # meeting that with <x + y> makes x^2*y + x*y^2, which does not, so the
    # fold finishes its first step at 2 bits and starts over at 4
    steps = []
    complete = groebner._complete

    def logged(layout, generators, below=None):
        steps.append(f"start {layout.bits}")
        out = complete(layout, generators, below)
        steps.append(f"done {layout.bits}")
        return out

    monkeypatch.setattr(groebner, "_complete", logged)
    x, y = var(1, 1), var(2, 2)
    ideals = [IdealPresentation((f,)) for f in (x, y, x + y)]
    meet = intersect_many(ideals)
    assert steps == ["start 2", "done 2", "start 2", "start 4", "done 4", "start 4", "done 4"]
    assert widths == [2, 4]
    assert meet == [x * x * y + x * y * y]
    monkeypatch.undo()
    assert intersect_many(ideals) == meet  # at the default width, with no restart


# the order of the fold ---------------------------------------------------------

# five triples of the eliminate workload's pool (bench/pool.json); their
# lead meets (0,1), (0,2), (1,2) are 13, 4, 4 (a tie), 20, 21, 8, then
# 3, 12, 3 (a tie with the first pair), 5, 5, 4 and 46, 19, 6
POOL_TRIPLES = [
    ("6 4 3 5 1 2", "6 4 2 5 3 1", "2 4 3 1 5 6"),
    ("2 5 4 6 3 1", "5 6 3 4 1 2", "4 5 2 1 6 3"),
    ("6 2 3 1 4 5", "2 3 1 5 4 6", "2 4 3 5 6 1"),
    ("3 2 5 1 4 6", "2 3 4 5 1 6", "3 6 5 4 1 2"),
    ("6 1 2 5 3 4", "1 4 6 5 2 3", "1 3 4 5 2 6"),
]

ORDER_CASES = (
    seeded_triples(47, 4, 4)
    + seeded_triples(47, 4, 3, size=4)
    + seeded_triples(53, 5, 3)
    + seeded_triples(53, 5, 2, size=4)
    + POOL_TRIPLES
)


@pytest.mark.parametrize("texts", ORDER_CASES, ids=" | ".join)
def test_intersect_many_gives_the_same_basis_in_every_order(texts):
    ideals = [ideal_of(spec_of(t)) for t in texts]
    left = ideals[0]
    for ideal in ideals[1:]:  # two ideals are met as given
        left = IdealPresentation(tuple(intersect(left, ideal)))
    meet = list(left.generators)
    assert meet
    for order in permutations(ideals):
        assert intersect_many(order) == meet


@pytest.fixture
def fold_steps(monkeypatch):
    """One (I, J) per step of the fold, the generators it entered as
    t*I and the ones it entered as (1-t)*J, each read back as a set."""
    steps = []
    complete = groebner._complete

    def spied(layout, generators, below=None):
        with_t, t_free = set(), set()
        for f in generators:
            poly = layout.polynomial(f)
            rest = Polynomial({m: c for m, c in poly.terms.items() if not m.uses(AUX)})
            (with_t.add(poly) if rest.is_zero() else t_free.add(rest))
        steps.append((with_t, t_free))
        return complete(layout, generators, below)

    monkeypatch.setattr(groebner, "_complete", spied)
    return steps


def as_t(ideal):
    t = Polynomial.variable(AUX)
    return {t * g for g in ideal.generators}


def lead_meet(a, b):
    """Reference count: the minimal generators of the meet of the two
    generating sets' leading-term ideals, by monomial lcms."""
    return len(groebner.leading_ideal(a).intersect(groebner.leading_ideal(b)).minimal_generators)


def reference_order(ideals):
    """The order in which the fold should meet the ideals, read off
    ``lead_meet`` and two-ideal ``intersect`` calls."""
    gens = [list(ideal.generators) for ideal in ideals]
    _, i, j = min((lead_meet(gens[i], gens[j]), i, j) for i, j in combinations(range(len(gens)), 2))
    order, current = [i, j], intersect(ideals[i], ideals[j])
    rest = [k for k in range(len(gens)) if k not in order]
    while rest:
        k = min(rest, key=lambda k: lead_meet(current, gens[k]))
        rest.remove(k)
        order.append(k)
        current = intersect(IdealPresentation(tuple(current)), ideals[k])
    return order


def assert_fold_order(steps, ideals, order):
    first, second, *rest = order
    assert len(steps) == len(ideals) - 1
    assert steps[0] == (as_t(ideals[first]), set(ideals[second].generators))
    assert [t_free for _, t_free in steps[1:]] == [set(ideals[k].generators) for k in rest]


_a, _b, _c, _d, _e, _f = (var(1, k) for k in range(1, 7))

# monomial ideals, with their meets, and the order the fold takes
MONOMIAL_ORDERS = {
    "smallest at (0,2)": ([(_a, _b), (_c, _d), (_a,)], [0, 2, 1]),  # 4, 1, 2
    "smallest at (1,2)": ([(_a, _b), (_c,), (_d,)], [1, 2, 0]),  # 2, 2, 1
    "tie at (0,1) and (0,2)": ([(_a,), (_b,), (_c, _d)], [0, 1, 2]),  # 1, 2, 2
    "tie at (0,2) and (1,2)": ([(_a, _b), (_c, _d), (_e,)], [0, 2, 1]),  # 4, 2, 2
    "every meet ties": ([(_a,), (_b,), (_a + _b,)], [0, 1, 2]),  # 1, 1, 1
    # then <ab> meets <c, d> in 2 and <e> in 1
    "then the smallest": ([(_a,), (_b,), (_c, _d), (_e,)], [0, 1, 3, 2]),
    # then <ab> meets both in 2
    "then a tie": ([(_a,), (_b,), (_c, _d), (_e, _f)], [0, 1, 2, 3]),
}


@pytest.mark.parametrize("case", sorted(MONOMIAL_ORDERS))
def test_the_fold_starts_from_the_pair_whose_leads_meet_least(case, fold_steps):
    gens, order = MONOMIAL_ORDERS[case]
    ideals = [IdealPresentation(g) for g in gens]
    assert reference_order(ideals) == order
    del fold_steps[:]  # the reference's own intersect calls
    intersect_many(ideals)
    assert_fold_order(fold_steps, ideals, order)


@pytest.mark.parametrize("texts", POOL_TRIPLES + seeded_triples(53, 5, 2, size=4), ids=" | ".join)
def test_the_fold_order_on_northwest_rank_ideals(texts, fold_steps):
    ideals = [ideal_of(spec_of(t)) for t in texts]
    order = reference_order(ideals)
    del fold_steps[:]  # the reference's own intersect calls
    intersect_many(ideals)
    assert_fold_order(fold_steps, ideals, order)


def test_two_ideals_are_met_as_given_without_a_meet(fold_steps, monkeypatch):
    def refuse(a, b):
        raise AssertionError("counted a meet")

    monkeypatch.setattr(groebner, "_meet_size", refuse)
    I, J = ideal_of(spec_of("2 3 1")), ideal_of(spec_of("3 1 2"))
    for first, second in ((I, J), (J, I)):
        del fold_steps[:]
        intersect_many([first, second])
        assert fold_steps == [(as_t(first), set(second.generators))]


def admitted_single_conditions(n):
    """Every spec of one condition rank(NW i x j) <= r inside an n x n
    matrix whose completion the work guard admits."""
    specs = [
        RankConditionSpec(n, [RankCondition(i, j, r)])
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for r in range(min(i, j))
    ]
    return [spec for spec in specs if completion_work(spec) <= WORK_LIMIT]


def test_minors_of_one_size_are_already_interreduced():
    # minor_basis returns settled minors of one size made monic and sorted,
    # with no interreduction: no lead of a k-minor divides a term of
    # another.  The engine's own division agrees on every minor it meets.
    specs = admitted_single_conditions(5) + admitted_single_conditions(6)
    assert len(specs) == 55 + 90
    for spec in specs:
        minors = generator_minors(spec)
        cells = [(row, col) for rows, cols in minors for row in rows for col in cols]

        def job(bits):
            layout = groebner._Layout((), bits, cells)
            polys = [layout.minor(rows, cols) for rows, cols in minors]
            return polys, groebner._interreduce([dict(f) for f in polys], layout.guard)

        polys, (kept, _, unmoved) = groebner._Layout.widening(job)
        assert unmoved, spec
        assert kept == [groebner._monic(f) for f in polys], spec


def row_and_column_degrees(layout, x):
    """How many factors a packed monomial takes from each row and from
    each column."""
    rows, cols = Counter(), Counter()
    for code, exp in layout.powers(x):
        row, col = nwgb.polynomials._cell(code)
        rows[row] += exp
        cols[col] += exp
    return rows, cols


def test_every_basis_element_uses_the_rows_and_columns_of_its_lead():
    # the packed writers read each term as two halves of the rows of its
    # element's leading term, so every term must use exactly those rows.
    # The minors are homogeneous in the grading by rows and by columns, and
    # the completion keeps that grading, so each term of an element takes
    # as many factors from each row and column as its lead; so does each
    # term of a union product, a product of minors
    specs = [spec_from_permutation(p) for n in (3, 4, 5) for p in honest_permutations(n)]
    specs += [spec_from_permutation(p) for p in partial_permutations(4)]
    specs += [spec_from_json(data) for data in seeded_condition_lists(7, 100)]
    assert len(specs) == 150 + 209 + 100
    elements = 0
    for spec in specs:
        minors = generator_minors(spec)
        cells = {(row, col) for rows, cols in minors for row in rows for col in cols}

        def job(bits):
            layout = groebner._Layout((), bits, cells)
            return layout, groebner.minor_basis(minors, layout)

        layout, basis = groebner._Layout.widening(job)
        for f in basis:
            grading = row_and_column_degrees(layout, max(f))
            for x in f:
                assert row_and_column_degrees(layout, x) == grading, spec
        elements += len(basis)
    assert elements == 3026
    # the union bases of all ordered S4 pairs and of the seeded S5 triples
    # of assert_packed_equals_fold; a product is fixed by its factors, so
    # each distinct one is checked once
    rng = random.Random(113)
    cases = S4_PAIRS + [rng.sample(S5_SPECS, 3) for _ in range(20)]
    products = {g.factors: g for specs in cases for g in union_basis(specs)}
    terms = 0
    for g in products.values():
        layout, f = g.packed
        grading = row_and_column_degrees(layout, max(f))
        for x in f:
            assert row_and_column_degrees(layout, x) == grading, g.inputs
        terms += len(f)
    assert (len(products), terms) == (1352, 11319)


def test_t_free_finish_is_the_full_completion_filtered_by_lead():
    t = Polynomial.variable(AUX)
    one_minus_t = Polynomial.constant(1) - t
    rng = random.Random(29)
    non_identity = honest_permutations(4)[1:]
    mixes = []
    for _ in range(8):  # Fulton ideals of S4
        I, J = (ideal_of(spec_from_permutation(p)) for p in rng.sample(non_identity, 2))
        mixes.append([t * f for f in I.generators] + [one_minus_t * g for g in J.generators])
    for _ in range(40):  # random binomials in two variables, with powers and Fractions
        I, J = ([random_division_polynomial(rng, REFERENCE_CELLS[1:3], 2) for _ in range(2)] for _ in "IJ")
        mixes.append([t * f for f in I] + [one_minus_t * g for g in J])
    kept = dropped = 0

    def job(layout):
        packed = [layout.pack_poly(f) for f in mixed if f.terms]
        t_mono = layout.pack(t.leading_monomial())
        full = groebner._complete(layout, [dict(f) for f in packed])
        finished = groebner._complete(layout, [dict(f) for f in packed], t_mono)
        return [f for f in full if max(f) < t_mono], finished, len(full)

    for mixed in mixes:
        filtered, finished, total = groebner._run([t, *mixed], job)
        assert [list(f.items()) for f in finished] == [list(f.items()) for f in filtered]
        kept += len(finished)
        dropped += total - len(finished)
    assert kept and dropped

# every entry point against the engine-free references ---------------------------

REFERENCE_CELLS = [AUX, Cell(1, 2), Cell(1, 1), Cell(2, 2)]


def random_reference_set(rng):
    """Two or three polynomials with Fraction coefficients, powers, t and
    constant terms, and the zero polynomial among them.  Up to two factors
    a term keeps the references, which reduce every pair, quick."""
    gens = [
        Polynomial(
            {
                power_product(
                    [(rng.choice(REFERENCE_CELLS), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
                ): Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2, 3]))
                for _ in range(rng.randint(1, 3))
            }
        )
        for _ in range(rng.randint(2, 3))
    ]
    gens.insert(rng.randint(0, len(gens)), Polynomial())
    return gens


def reference_is_groebner(generators):
    """Reference: every S-pair reduces to zero, with no criterion."""
    gens = [g for g in generators if not g.is_zero()]
    return all(
        min_scan_normal_form(literal_s_polynomial(f, g), gens).is_zero()
        for f, g in combinations(gens, 2)
    )


def test_entry_points_match_engine_free_references():
    rng = random.Random(109)
    seen = {"fraction lead": 0, "power": 0, "t": 0, "constant": 0, "groebner": 0, "not": 0}
    for _ in range(60):
        gens = random_reference_set(rng)
        nonzero = [g for g in gens if not g.is_zero()]
        for g in nonzero:
            seen["fraction lead"] += type(g.leading_term()[0]) is Fraction
            seen["power"] += any(not m.is_squarefree() for m in g.terms)
            seen["t"] += any(m.uses(AUX) for m in g.terms)
            seen["constant"] += any(m.degree() == 0 for m in g.terms)
        basis = buchberger(gens)
        assert basis == fixed_point_buchberger(gens)
        verdict = is_groebner(gens)
        assert verdict == reference_is_groebner(gens)
        seen["groebner" if verdict else "not"] += 1
        assert is_groebner(basis) and reference_is_groebner(basis)
        for f in [random_division_polynomial(rng, REFERENCE_CELLS, 6) for _ in range(3)]:
            assert normal_form(f, gens) == min_scan_normal_form(f, gens)
            assert normal_form(f, basis) == min_scan_normal_form(f, basis)
        for f, g in combinations(nonzero, 2):
            assert s_polynomial(f, g) == literal_s_polynomial(f, g)
    assert all(seen.values()), seen
