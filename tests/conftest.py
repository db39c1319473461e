"""A time limit on every test, the contract of the package's value
types, the reference product of a union generator and its membership, and
seeded lists of rank conditions.

A defect in the engine can make a completion or a division loop forever;
without a limit the suite would then hang instead of failing.  The slowest
test takes about a second, so the limit is far above any honest run.
"""

import random
import re
import signal

import pytest

from nwgb.groebner import _divide, _reducer, _run, _scan
from nwgb.polynomials import Polynomial, determinant, polynomial_text

LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test if it runs longer than ``LIMIT_S`` seconds.  The timer
    is ``SIGALRM``'s, so where the platform has no ``setitimer`` no limit
    is set."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def exact(message: str) -> str:
    """A ``pytest.raises`` match pattern for exactly this message."""
    return f"^{re.escape(message)}$"


def check_value_contract(cls, fields, args, other, text):
    """Check that ``cls`` behaves as the frozen dataclass it replaced.

    ``fields`` names its fields in order, ``args`` and ``other`` build two
    unequal values, and ``text`` is the repr of ``cls(*args)``.  Values
    built from the same arguments are equal and hash alike; a subclass
    with the same field values, and the tuple of those values, are not
    equal to them; no attribute can be assigned or deleted.
    """
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*args)
    assert a != twin and twin != a and not a == twin
    assert a != tuple(getattr(a, name) for name in fields)
    assert repr(a) == text
    for name in (*fields, "undeclared"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text and a == b


def folded_product(factors):
    """The product of the factors' determinants, folded through
    ``Polynomial.__mul__`` from the constant 1: the reference that a union
    generator's packed product is checked against, and the polynomial the
    engine's tests read for it."""
    poly = Polynomial.constant(1)
    for factor in factors:
        poly = poly * determinant(factor.rows(), factor.cols())
    return poly


def zero_remainders(folds, generators) -> list[bool]:
    """Whether ``normal_form(fold, generators)`` is zero, for each fold: the
    same division, with the generators packed and read into reducers once
    for every fold instead of once per fold.  All of them share one layout,
    widened as ``normal_form`` widens its own."""

    def job(layout):
        guard = layout.guard
        first = _scan([_reducer(layout.pack_poly(g)) for g in generators if g.terms], guard)
        return [not _divide(layout.pack_poly(f), first, guard) for f in folds]

    return _run([*folds, *generators], job)


def reference_failures(basis, specs, bases) -> list[str]:
    """One message per spec and generator, spec by spec, in the words of
    ``union_verdicts``, where the generator's folded product has a nonzero
    ``normal_form`` (``zero_remainders``) against the spec's reduced basis
    (``bases``, as ``spec_bases`` gives them, in spec order): the
    independent reference that the union check's membership is held to."""
    folds = [folded_product(g.factors) for g in basis]
    return [
        f"{polynomial_text(fold)} is not in the ideal of {spec.label or 'spec'}"
        for spec, b in zip(specs, bases)
        for fold, zero in zip(folds, zero_remainders(folds, b.generators))
        if not zero
    ]


def seeded_condition_lists(seed: int, count: int) -> list[dict]:
    """``count`` spec payloads drawn by ``random.Random(seed)``: each an
    n x n matrix, n <= 5, with 1-3 conditions rank(NW i x j) <= r, where r
    may be min(i, j), a condition with no minors."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        n = rng.randint(1, 5)
        conditions = []
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randint(1, n), rng.randint(1, n)
            conditions.append({"i": i, "j": j, "r": rng.randint(0, min(i, j))})
        specs.append({"n": n, "conditions": conditions})
    return specs


def spy_on_polynomial_paths(monkeypatch) -> list[str]:
    """The names of the calls made, from now on, to the paths that build a
    ``Polynomial`` out of a minor or a packed int: ``determinant``,
    ``Polynomial.__init__``, ``_Layout.unpack``, ``buchberger`` and
    ``generator_polynomials``, wherever a module holds them."""
    import nwgb.cli
    from nwgb import groebner, ideals, polynomials

    calls = []
    for owner, name in (
        (polynomials, "determinant"),
        (polynomials.Polynomial, "__init__"),
        (polynomials._Layout, "unpack"),
        (groebner, "buchberger"),
        (ideals, "generator_polynomials"),
    ):
        original = getattr(owner, name)
        spy = lambda *args, name=name, original=original: calls.append(name) or original(*args)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, spy)
            continue
        for module in (polynomials, ideals, groebner, nwgb.verify, nwgb.union, nwgb.cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return calls
