"""Sanity checks on the packaged property suites (small case counts; the
full-size runs live in the acceptance module)."""

import random
from functools import reduce

import pytest

from nwgb.groebner import (
    IdealPresentation,
    MonomialIdeal,
    buchberger,
    generates,
    intersect,
    intersect_many,
    is_groebner,
)
from nwgb.ideals import generator_polynomials, spec_from_permutation
from nwgb.permutations import parse_one_line
from nwgb.polynomials import Cell, Polynomial
from nwgb.union import union_basis
from nwgb.verify import (
    SUITES,
    SuiteReport,
    _embed,
    _leading_ideal,
    _union_pair_checks,
    full_oracle_verdicts,
    honest_permutations,
    membership_failures,
    run_suite,
    sampled_s4_pairs,
    spec_bases,
)
from test_union import S5_FAILING_PAIRS


def ideal_of(spec):
    """A spec's ideal presented by its Fulton generators, uncompleted."""
    return IdealPresentation(tuple(generator_polynomials(spec)))


@pytest.mark.parametrize("name", ["order-axioms", "minor-init", "generator-init"])
def test_light_suites_pass_with_small_counts(name):
    report = run_suite(name, seed=1, cases=40)
    assert report.passed
    assert report.cases == 40


def test_gluing_suite_small():
    report = run_suite("gluing", seed=1, cases=25)
    assert report.passed


def test_suite_reports_are_deterministic():
    a = run_suite("generator-init", seed=3, cases=30)
    b = run_suite("generator-init", seed=3, cases=30)
    assert (a.cases, a.failures) == (b.cases, b.failures)


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_registry_names():
    assert {
        "order-axioms",
        "minor-init",
        "gluing",
        "generator-init",
        "s3-exhaustive",
        "s4-sampled",
        "triples",
        "km-regression",
    } <= set(SUITES)


def test_honest_permutation_enumeration():
    assert len(honest_permutations(3)) == 6
    assert len({p.images for p in honest_permutations(4)}) == 24


def test_s4_sample_contains_required_fixtures():
    pairs = sampled_s4_pairs(seed=0, count=25)
    assert len(pairs) == 25
    keys = {(l.images, r.images) for l, r in pairs}
    assert ((1, 4, 2, 3), (1, 3, 4, 2)) in keys
    assert ((2, 1, 4, 3), (1, 4, 3, 2)) in keys
    assert len(keys) == 25


def test_union_checks_pass_on_all_ordered_s4_pairs():
    # Buchberger criterion, equality with the oracle intersection and the
    # init theorem on every ordered pair, identity included
    report = SuiteReport("s4-pairs")
    perms = honest_permutations(4)
    for left in perms:
        for right in perms:
            _union_pair_checks(report, left, right, check_init_theorem=True)
    assert (report.cases, report.failures) == (1728, [])


def test_union_bases_of_the_triples_suite_are_groebner():
    # the triples suite checks membership and equality only; this adds the
    # Buchberger criterion on the same triples, drawn as
    # suite_triple_intersections draws them (pool, seed, order of choices)
    pool = [_embed(p, 4) for p in honest_permutations(3)] + honest_permutations(4)
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(15):
            specs = [spec_from_permutation(rng.choice(pool)) for _ in range(3)]
            assert is_groebner([g.poly for g in union_basis(specs)]), [s.label for s in specs]


def test_fulton_generators_of_all_s5_and_s6_are_groebner():
    # Knutson-Miller on every permutation of S5 and S6, with no case count
    report = run_suite("km-s5-s6")
    assert (report.cases, report.failures) == (840, [])
    assert report.summary() == "km-s5-s6: 840 cases, 0 failures [PASS]"


def _specs(*texts):
    return [spec_from_permutation(parse_one_line(t)) for t in texts]


def test_membership_failures_names_each_missing_generator():
    specs = _specs("2 3 1", "3 1 2")
    basis = [g.poly for g in union_basis(specs)]
    bases = spec_bases(specs)
    assert membership_failures(basis, specs, bases) == []
    outside = Polynomial.variable(Cell(3, 3))
    assert membership_failures([outside], specs, bases) == [
        "1*m[3,3] is not in the ideal of 2 3 1",
        "1*m[3,3] is not in the ideal of 3 1 2",
    ]


def test_oracle_intersection_matches_pairwise_intersect():
    specs = _specs("1 4 2 3", "1 3 4 2")
    assert intersect_many(spec_bases(specs)) == intersect(*(ideal_of(s) for s in specs))
    # folding over the reduced bases gives the fold over the raw generators
    specs = _specs("2 1 4 3", "1 3 4 2", "3 4 1 2")
    assert intersect_many(spec_bases(specs)) == intersect_many([ideal_of(s) for s in specs])


@pytest.mark.parametrize(
    "texts",
    [
        *((l.one_line(), r.one_line()) for l, r in sampled_s4_pairs(seed=2, count=6)),
        ("2 1 4 3", "1 3 4 2", "3 4 1 2"),
        ("1 5 4 3 2", "4 3 2 1 5"),
    ],
)
def test_oracle_intersection_is_reduced(texts):
    # the union checks hand the intersection to generates() as a reduced
    # basis, without completing it again
    meet = intersect_many(spec_bases(_specs(*texts)))
    assert meet
    assert buchberger(meet) == meet


def full_oracle_case(specs, monkeypatch):
    """(proved, covered) for one union: whether ``full_oracle_verdicts``
    answered without ``is_groebner`` or ``intersect_many``, and whether the
    leads of the basis cover the meet of the initial ideals (the proof's
    premise besides membership).  Its two verdicts must be the literal
    criterion and equality with the eliminated intersection."""
    basis = [g.poly for g in union_basis(specs)]
    bases = spec_bases(specs)
    members = not membership_failures(basis, specs, bases)
    fallback = []
    monkeypatch.setattr(
        "nwgb.verify.is_groebner", lambda b: fallback.append("criterion") or is_groebner(b)
    )
    monkeypatch.setattr(
        "nwgb.verify.intersect_many", lambda b: fallback.append("meet") or intersect_many(b)
    )
    verdicts = full_oracle_verdicts(basis, bases, members)
    monkeypatch.undo()
    assert verdicts == (is_groebner(basis), generates(basis, intersect_many(bases))), [
        s.label for s in specs
    ]
    assert fallback in ([], ["criterion", "meet"])
    meet = reduce(MonomialIdeal.intersect, (_leading_ideal(b.generators) for b in bases))
    leads = _leading_ideal(basis)
    return not fallback, all(leads.contains(m) for m in meet.minimal_generators)


def test_full_oracle_proof_decides_every_s4_pair(monkeypatch):
    perms = honest_permutations(4)
    cases = [
        full_oracle_case([spec_from_permutation(l), spec_from_permutation(r)], monkeypatch)
        for l in perms
        for r in perms
    ]
    assert cases == [(True, True)] * 576


def test_full_oracle_falls_back_on_every_failing_s5_pair(monkeypatch):
    # the leads cover the meet on every one of these pairs, so membership
    # is the premise that keeps the proof from passing them
    cases = [full_oracle_case(_specs(*pair), monkeypatch) for pair in S5_FAILING_PAIRS]
    assert cases == [(False, True)] * 94


def test_full_oracle_verdicts_on_seeded_s5_pairs_and_triples(monkeypatch):
    # this sample holds one failing pair and one failing triple, so both
    # paths run
    rng = random.Random(7)
    perms = honest_permutations(5)
    pairs = [rng.sample(perms, 2) for _ in range(12)]
    triples = [rng.sample(perms, 3) for _ in range(6)]
    proved = [
        full_oracle_case([spec_from_permutation(p) for p in chosen], monkeypatch)[0]
        for chosen in pairs + triples
    ]
    assert (sum(proved[:12]), sum(proved[12:])) == (11, 5)
