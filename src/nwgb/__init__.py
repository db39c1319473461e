"""Groebner bases for unions of schemes cut out by northwest rank conditions.

The library builds, for a family of determinantal schemes each given by
bounds on the ranks of northwest submatrices (matrix Schubert varieties
being the motivating case), an explicit Groebner basis of the intersection
of their ideals as products of determinants, and ships an independent
exact Buchberger engine to verify the construction.
"""

from .permutations import (
    PartialPermutation,
    diagram_json,
    diagram_text,
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
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"
