"""Groebner bases for unions of schemes cut out by northwest rank conditions.

The library builds, for a family of determinantal schemes each given by
bounds on the ranks of northwest submatrices (matrix Schubert varieties
being the motivating case), an explicit Groebner basis of the intersection
of their ideals as products of determinants, and ships an independent
exact Buchberger engine to verify the construction.
"""

from .permutations import (
    PartialPermutation,
    essential_set,
    inversions,
    parse_one_line,
    rank_matrix,
    rothe_diagram,
)
from .polynomials import (
    AUX,
    Antidiagonal,
    Cell,
    Monomial,
    Polynomial,
    antidiagonal_of,
    compare,
    determinant,
    monomial_to_json,
    polynomial_text,
    polynomial_to_json,
)
from .ideals import (
    RankCondition,
    RankConditionSpec,
    antidiagonals_of_spec,
    fulton_generators,
    generator_minors,
    generator_polynomials,
    load_spec,
    spec_from_json,
    spec_from_permutation,
    spec_from_rank_matrix,
    spec_to_json,
)
from .union import (
    GeneratorProduct,
    extract_factors,
    generator_product,
    union_basis,
)
from .groebner import (
    IdealPresentation,
    MonomialIdeal,
    buchberger,
    ideals_equal,
    initial_ideal,
    intersect,
    intersect_many,
    is_groebner,
    normal_form,
    s_polynomial,
)
from .verify import SuiteReport

__version__ = "0.1.0"

# names whose modules only some commands run, loaded on first access
_ON_FIRST_USE = {
    "SUITES": "suites",
    "run_suite": "suites",
    "diagram_text": "payloads",
    "diagram_json": "payloads",
}


def __getattr__(name: str):
    """A name of ``_ON_FIRST_USE``, read from its module, which this
    imports on first access (PEP 562), so that ``import nwgb`` compiles
    neither the property suites nor the plain writers."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    return value
