"""Sanity checks on the packaged property suites (small case counts; the
full-size runs live in the acceptance module)."""

import json
import random
from functools import reduce

import pytest
from conftest import folded_product, reference_failures, spy_on_polynomial_paths

import nwgb.cli
import nwgb.groebner
import nwgb.polynomials
import nwgb.suites
import nwgb.union
import nwgb.verify
from nwgb.groebner import (
    IdealPresentation,
    MonomialIdeal,
    buchberger,
    intersect,
    intersect_many,
    is_groebner,
    leading_ideal,
)
from nwgb.ideals import generator_minors, generator_polynomials, spec_from_permutation
from nwgb.permutations import parse_one_line
from nwgb.polynomials import Antidiagonal, Cell
from nwgb.union import generator_product, union_basis
from nwgb.suites import SUITES, _embed, _union_pair_checks, run_suite, sampled_s4_pairs
from nwgb.verify import (
    _divided,
    _packed_meet,
    honest_permutations,
    initial_meet,
    spec_bases,
    union_verdicts,
)
from test_union import S5_FAILING_PAIRS, partial_permutations


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


@pytest.mark.parametrize("name", ["order-axioms", "minor-init"])
def test_run_suite_without_a_count_runs_the_registry_default(name):
    report = run_suite(name, seed=1)
    assert report.passed
    assert report.cases == SUITES[name][1] == 200


@pytest.mark.parametrize("name", ["gluing", "s3-exhaustive"])
def test_negative_seed_raises(name):
    # random.Random seeds from abs(seed), so -1 would silently rerun seed 1
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        run_suite(name, seed=-1)


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
    pairs = sampled_s4_pairs(random.Random(0), 25)
    assert len(pairs) == 25
    keys = {(l.images, r.images) for l, r in pairs}
    assert ((1, 4, 2, 3), (1, 3, 4, 2)) in keys
    assert ((2, 1, 4, 3), (1, 4, 3, 2)) in keys
    assert len(keys) == 25


def test_union_checks_pass_on_all_ordered_s4_pairs():
    # Buchberger criterion, equality with the oracle intersection and the
    # init theorem on every ordered pair, identity included
    perms = honest_permutations(4)
    checks = [
        check
        for left in perms
        for right in perms
        for check in _union_pair_checks(left, right, check_init_theorem=True)
    ]
    assert len(checks) == 1728
    assert [detail for ok, detail in checks if not ok] == []


def test_union_bases_of_the_triples_suite_are_groebner():
    # the triples suite checks membership and equality only; this adds the
    # Buchberger criterion on the same triples, drawn as
    # suite_triple_intersections draws them (pool, seed, order of choices)
    pool = [_embed(p, 4) for p in honest_permutations(3)] + honest_permutations(4)
    for seed in range(40):
        rng = random.Random(seed)
        for _ in range(15):
            specs = [spec_from_permutation(rng.choice(pool)) for _ in range(3)]
            basis = [folded_product(g.factors) for g in union_basis(specs)]
            assert is_groebner(basis), [s.label for s in specs]


def test_fulton_generators_of_all_s5_and_s6_are_groebner():
    # Knutson-Miller on every permutation of S5 and S6, with no case count
    report = run_suite("km-s5-s6")
    assert (report.cases, report.failures) == (840, [])
    assert report.summary() == "km-s5-s6: 840 cases, 0 failures [PASS]"


def _specs(*texts):
    return [spec_from_permutation(parse_one_line(t)) for t in texts]


def _variable(row, col):
    """The generator of one input, the 1x1 antidiagonal on (row, col): the
    variable m[row,col]."""
    return generator_product([Antidiagonal([Cell(row, col)])])


def test_membership_names_each_missing_generator():
    specs = _specs("2 3 1", "3 1 2")
    basis = union_basis(specs)
    bases = spec_bases(specs)
    assert reference_failures(basis, specs, bases) == []
    assert union_verdicts(basis, specs, "membership") == ([], None, None)
    outside = _variable(3, 3)
    expected = ["1*m[3,3] is not in the ideal of 2 3 1", "1*m[3,3] is not in the ideal of 3 1 2"]
    assert reference_failures([outside], specs, bases) == expected
    assert union_verdicts([outside], specs, "membership") == (expected, None, None)


@pytest.mark.parametrize("depth", ["membership", "full-oracle"])
def test_union_verdicts_needs_a_spec(depth, monkeypatch):
    # as union_basis does, before any minor is listed or product formed
    def no_work(*args):
        raise AssertionError("no spec means no work")

    for name in ("generator_minors", "hold", "minor_basis", "reduces_to_zero"):
        monkeypatch.setattr(nwgb.verify, name, no_work)
    with pytest.raises(ValueError, match=r"^need at least one spec$"):
        union_verdicts([_variable(1, 1)], [], depth)
    with pytest.raises(ValueError, match=r"^need at least one spec$"):
        union_verdicts([], [], depth)


def test_membership_rejects_a_layout_without_a_variable_of_a_spec(monkeypatch):
    # a generator_product built without a packing spans only its inputs'
    # box, here the one cell m[1,1]; the ideals of the S5 pair use more,
    # and the check refuses before it completes a basis or divides any
    # product
    specs = _specs("1 5 4 3 2", "4 3 2 1 5")
    done = []
    for name in ("reduces_to_zero", "minor_basis"):
        monkeypatch.setattr(nwgb.verify, name, lambda *args, name=name: done.append(name))
    message = r"the ideal of 1 5 4 3 2 uses m\[1,4\]"
    for depth in ("membership", "full-oracle"):
        with pytest.raises(ValueError, match=message):
            union_verdicts([_variable(1, 1)], specs, depth)
    assert done == []


def test_membership_forms_the_products_again_when_a_division_outgrows_them(monkeypatch):
    # from a 2-bit start the products are held at the proven width, 3 bits
    # for two inputs.  union_verdicts expands the minors exponent-exactly:
    # nothing outgrows 3 bits, and each spec is completed once.  A
    # completion or a division that does outgrow them (forced below) makes
    # it form the products and complete anew at 4
    specs = _specs("1 2 3 5 4", "5 3 4 1 2")
    basis = union_basis(specs)
    expected = union_verdicts(basis, specs, "full-oracle")
    widths = []
    divide = nwgb.verify.reduces_to_zero
    overflow = []

    def spy(products, basis):
        widths.append(products[0].layout.bits)
        if products[0].layout.bits in overflow:
            raise nwgb.polynomials._Overflow
        return divide(products, basis)

    completions = []
    complete = nwgb.verify.minor_basis
    outgrow = []

    def completing(minors, layout):
        completions.append(layout.bits)
        if layout.bits in outgrow:
            raise nwgb.polynomials._Overflow
        return complete(minors, layout)

    formed = []
    product = nwgb.union._Packing.product
    monkeypatch.setattr(
        nwgb.union._Packing, "product", lambda self, f: formed.append(self.bits) or product(self, f)
    )
    monkeypatch.setattr(nwgb.verify, "reduces_to_zero", spy)
    monkeypatch.setattr(nwgb.verify, "minor_basis", completing)
    monkeypatch.setattr(nwgb.polynomials, "_FIELD_BITS", 2)
    assert union_verdicts(basis, specs, "full-oracle") == expected == ([], True, True)
    assert widths == [3, 3]
    assert formed == [3] * len(basis)
    assert completions == [3, 3]
    widths.clear()
    formed.clear()
    completions.clear()
    overflow.append(3)
    assert union_verdicts(basis, specs, "full-oracle") == expected
    assert widths == [3, 4, 4]  # both bases are completed before the first division
    assert formed == [3] * len(basis) + [4] * len(basis)
    assert completions == [3, 3, 4, 4]
    widths.clear()
    formed.clear()
    completions.clear()
    overflow.clear()
    outgrow.append(3)
    assert union_verdicts(basis, specs, "full-oracle") == expected
    assert widths == [4, 4]  # the first completion outgrows 3 bits
    assert formed == [3] * len(basis) + [4] * len(basis)
    assert completions == [3, 4, 4]


def test_oracle_intersection_matches_pairwise_intersect():
    specs = _specs("1 4 2 3", "1 3 4 2")
    assert intersect_many(spec_bases(specs)) == intersect(*(ideal_of(s) for s in specs))
    # folding over the reduced bases gives the fold over the raw generators
    specs = _specs("2 1 4 3", "1 3 4 2", "3 4 1 2")
    assert intersect_many(spec_bases(specs)) == intersect_many([ideal_of(s) for s in specs])


@pytest.mark.parametrize(
    "texts",
    [
        *((l.one_line(), r.one_line()) for l, r in sampled_s4_pairs(random.Random(2), 6)),
        ("2 1 4 3", "1 3 4 2", "3 4 1 2"),
        ("1 5 4 3 2", "4 3 2 1 5"),
    ],
)
def test_oracle_intersection_is_reduced(texts):
    # union_verdicts compares a completed basis with the intersection
    # as it comes back, so it must come back reduced
    meet = intersect_many(spec_bases(_specs(*texts)))
    assert meet
    assert buchberger(meet) == meet


def full_oracle_case(specs, monkeypatch, basis=None):
    """(proved, covered) for one union basis, by default the synthesized
    one: whether ``union_verdicts`` answered without ``is_groebner``
    or ``intersect_many``, and whether the leads of the basis cover the
    meet of the initial ideals (the proof's premise besides membership).
    Its two verdicts must be the literal criterion and equality of the
    completed basis with the eliminated intersection, and it must eliminate
    only when membership holds and the proof does not apply.  The basis is
    a list of generators; the checks here read their folded products."""
    if basis is None:
        basis = union_basis(specs)
    bases = spec_bases(specs)
    failures = reference_failures(basis, specs, bases)
    members = not failures
    fallback = []
    monkeypatch.setattr(
        "nwgb.verify.is_groebner", lambda b: fallback.append("criterion") or is_groebner(b)
    )
    monkeypatch.setattr(
        "nwgb.verify.intersect_many", lambda b: fallback.append("meet") or intersect_many(b)
    )
    found, *verdicts = union_verdicts(basis, specs, "full-oracle")
    monkeypatch.undo()
    assert found == failures
    polys = [folded_product(g.factors) for g in basis]
    assert verdicts == [is_groebner(polys), buchberger(polys) == intersect_many(bases)], [
        s.label for s in specs
    ]
    meet = reduce(MonomialIdeal.intersect, (leading_ideal(b.generators) for b in bases))
    leads = leading_ideal(polys)
    covered = all(leads.contains(m) for m in meet.minimal_generators)
    if not members:
        assert fallback == ["criterion"]
    else:
        assert fallback == ([] if covered else ["criterion", "meet"])
    return not fallback, covered


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


def test_union_verdicts_at_membership_depth_runs_no_oracle(monkeypatch):
    def no_oracle(*args):
        raise AssertionError("membership depth proves nothing")

    monkeypatch.setattr("nwgb.verify.is_groebner", no_oracle)
    monkeypatch.setattr("nwgb.verify.intersect_many", no_oracle)
    specs = _specs("2 3 1", "3 1 2")
    basis = union_basis(specs)
    assert union_verdicts(basis, specs, "membership") == ([], None, None)
    outside = _variable(3, 3)
    assert union_verdicts([outside], specs, "membership") == (
        ["1*m[3,3] is not in the ideal of 2 3 1", "1*m[3,3] is not in the ideal of 3 1 2"],
        None,
        None,
    )


def test_union_verdicts_checks_membership_before_the_proof():
    # m[3,3] alone leads with every minimal generator of the meet, so only
    # the membership premise keeps the proof from passing it
    specs = _specs("2 3 1", "3 1 2")
    failures, criterion, equality = union_verdicts([_variable(3, 3)], specs, "full-oracle")
    assert (len(failures), criterion, equality) == (2, True, False)


@pytest.mark.parametrize("depth", ["none", "full", "", "MEMBERSHIP", None])
def test_union_verdicts_rejects_other_depths(depth, monkeypatch):
    def no_completion(*args):
        raise AssertionError("an unknown depth completes nothing")

    monkeypatch.setattr("nwgb.verify.spec_bases", no_completion)
    with pytest.raises(ValueError, match=r"^unknown verify depth "):
        union_verdicts([], _specs("2 3 1"), depth)


def test_cli_depths_and_union_suites_all_reach_union_verdicts(tmp_path, monkeypatch, capsys):
    assert nwgb.cli.union_verdicts is nwgb.verify.union_verdicts
    assert nwgb.suites.union_verdicts is nwgb.verify.union_verdicts
    original = nwgb.verify.union_verdicts
    depths = []

    def spy(basis, specs, depth):
        depths.append(depth)
        return original(basis, specs, depth)

    monkeypatch.setattr(nwgb.verify, "union_verdicts", spy)
    monkeypatch.setattr(nwgb.cli, "union_verdicts", spy)
    monkeypatch.setattr(nwgb.suites, "union_verdicts", spy)
    paths = []
    for name, text in (("l.json", "2 3 1"), ("r.json", "3 1 2")):
        (tmp_path / name).write_text(json.dumps({"n": 3, "permutation": text}))
        paths.append(str(tmp_path / name))
    for depth in ("none", "membership", "full-oracle"):
        assert nwgb.cli.main(["union", *paths, f"--verify={depth}"]) == 0
    capsys.readouterr()
    reached = {"cli": depths.copy()}
    for name, cases in (("s3-exhaustive", None), ("s4-sampled", 1), ("triples", 1)):
        depths.clear()
        assert run_suite(name, cases=cases).passed
        reached[name] = depths.copy()
    assert reached == {
        "cli": ["membership", "full-oracle"],
        "s3-exhaustive": ["full-oracle"] * 36,
        "s4-sampled": ["full-oracle"] * 2,
        "triples": ["full-oracle"],
    }


def test_full_oracle_eliminates_when_the_leads_miss_the_meet(monkeypatch):
    # no union basis tried reaches the elimination; dropping every element
    # that leads with one minimal generator of the meet of the initial
    # ideals leaves a basis inside the intersection that the proof cannot
    # pass, so equality is decided by elimination
    criteria = []
    for left, right in sampled_s4_pairs(random.Random(5), 12):
        specs = [spec_from_permutation(left), spec_from_permutation(right)]
        basis = union_basis(specs)
        bases = spec_bases(specs)
        meet = reduce(MonomialIdeal.intersect, (leading_ideal(b.generators) for b in bases))
        chosen = min(meet.minimal_generators, key=lambda m: m.key)  # the largest
        cut = [g for g in basis if folded_product(g.factors).leading_monomial() != chosen]
        assert len(cut) < len(basis)
        assert not reference_failures(cut, specs, bases)
        assert full_oracle_case(specs, monkeypatch, cut) == (False, False)
        criteria.append(is_groebner([folded_product(g.factors) for g in cut]))
    assert True in criteria and False in criteria


@pytest.mark.parametrize("texts", [("1 5 4 3 2", "4 3 2 1 5"), ("1 4 2 3", "1 3 4 2")])
def test_union_verdicts_stay_on_packed_ints(texts, monkeypatch):
    # the basis passes, so the check expands each spec's minors in the
    # products' layout and completes them there, divides and proves on
    # packed ints, and makes no Polynomial and unpacks nothing
    specs = _specs(*texts)
    basis = union_basis(specs)
    calls = spy_on_polynomial_paths(monkeypatch)

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(nwgb.verify, "spec_bases", counted("spec_bases", spec_bases))
    polynomial = nwgb.polynomials._Layout.polynomial
    monkeypatch.setattr(nwgb.polynomials._Layout, "polynomial", counted("polynomial", polynomial))
    monkeypatch.setattr(
        MonomialIdeal,
        "from_monomials",
        staticmethod(counted("from_monomials", MonomialIdeal.from_monomials)),
    )
    assert union_verdicts(basis, specs, "membership") == ([], None, None)
    assert union_verdicts(basis, specs, "full-oracle") == ([], True, True)
    assert calls == []


def reference_cases():
    """All ordered S4 pairs, seeded S5 triples and a sample of pairs of
    partial permutations of size 4, as lists of one-line texts."""
    perms = [p.one_line() for p in honest_permutations(4)]
    cases = [(l, r) for l in perms for r in perms]
    rng = random.Random(11)
    s5 = [p.one_line() for p in honest_permutations(5)]
    cases += [tuple(rng.sample(s5, 3)) for _ in range(12)]
    partial = [p.one_line() for p in partial_permutations(4)]
    cases += [tuple(rng.sample(partial, 2)) for _ in range(60)]
    return cases


def test_packed_spec_bases_and_meet_match_the_polynomial_reference():
    # the bases union_verdicts completes in the products' layout are the
    # reduced bases of spec_bases, and the meet it proves against is the
    # one initial_meet builds on Monomial values
    for texts in reference_cases():
        specs = _specs(*texts)
        minors = [generator_minors(s) for s in specs]
        _, layout, packed, _ = _divided(union_basis(specs), specs, minors)
        reference = spec_bases(specs)
        assert [[layout.polynomial(g) for g in b] for b in packed] == [
            list(b.generators) for b in reference
        ], texts
        meet = _packed_meet(layout, packed)
        assert {layout.unpack(x) for x in meet} == initial_meet(reference).minimal_generators
        assert len(set(meet)) == len(meet), texts


def test_union_verdicts_on_an_empty_basis_and_on_two_packings(monkeypatch):
    # an empty union basis: one spec imposes nothing, and the basis is
    # proved; with both specs nonzero the empty list fails equality
    specs = _specs("1 2 3 4", "2 1 4 3")
    basis = union_basis(specs)
    assert basis == []
    assert union_verdicts(basis, specs, "full-oracle") == ([], True, True)
    assert union_verdicts([], _specs("2 1 4 3", "1 3 4 2"), "full-oracle") == ([], True, False)
    # handles from two packings, each built alone, are held in one layout,
    # so the proof decides them when they pass membership, and the exact
    # fallback when they do not
    fallback = []
    monkeypatch.setattr(
        "nwgb.verify.is_groebner", lambda b: fallback.append(len(b)) or is_groebner(b)
    )
    two = [_variable(1, 1), generator_product([Antidiagonal([Cell(1, 2), Cell(2, 1)])])]
    assert len({g.packed.layout for g in two}) == 2
    assert union_verdicts(two, _specs("2 1 3"), "full-oracle") == (
        ["-1*m[1,2]*m[2,1] + 1*m[1,1]*m[2,2] is not in the ideal of 2 1 3"],
        True,
        False,
    )
    assert fallback == [2]
    diagonal = [Antidiagonal([Cell(1, 1)]), Antidiagonal([Cell(2, 2)])]
    members = [_variable(1, 1), generator_product(diagonal)]  # m[1,1], m[1,1]*m[2,2]
    assert len({g.packed.layout for g in members}) == 2
    assert union_verdicts(members, _specs("2 1 3"), "full-oracle") == ([], True, True)
    assert fallback == [2]  # the proof decided the members
