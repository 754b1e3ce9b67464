"""foxabf: exact Fox coloring groups and Alexander-Burau-Fox modules of
braid closures, with closed-form Fibonacci/Chebyshev cross-checks for the
wheel-graph link family."""

from .alexander import (
    InternalConsistencyError,
    ModulePresentation,
    WheelModule,
    general_presentation,
    wheel_abf_matrix_closed,
    wheel_g,
    wheel_module,
    wheel_modules,
)
from .braid import (
    BraidParseError,
    BraidWord,
    burau,
    burau_at_minus_one,
    exponent_sum,
    parse_braid,
    wheel_braid,
)
from .coloring import (
    ColoringResult,
    EnumerationLimitError,
    brute_force_coloring_count,
    coloring_count_from_group,
    coloring_group,
)
from .ring import (
    AbelianGroup,
    InexactDivisionError,
    LaurentPoly,
    Matrix,
    divide_exact,
    normalize_unit,
    smith_invariant_factors,
    snf,
)
from .sequences import (
    IdentityCheck,
    cheb_S,
    cheb_S_at,
    cheb_S_subst,
    cheb_T,
    fib,
    identity_suite,
    iterate_chebyshev_recurrence,
    lucas,
    solve_chebyshev_recurrence,
)
from .wheel import (
    WheelReport,
    cross_verify,
    fibonacci_relation_matrix,
    fox_closed_form,
    goeritz_equivalence_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BraidParseError",
    "BraidWord",
    "ColoringResult",
    "EnumerationLimitError",
    "IdentityCheck",
    "InexactDivisionError",
    "InternalConsistencyError",
    "LaurentPoly",
    "Matrix",
    "ModulePresentation",
    "WheelModule",
    "WheelReport",
    "brute_force_coloring_count",
    "burau",
    "burau_at_minus_one",
    "cheb_S",
    "cheb_S_at",
    "cheb_S_subst",
    "cheb_T",
    "coloring_count_from_group",
    "coloring_group",
    "cross_verify",
    "divide_exact",
    "exponent_sum",
    "fib",
    "fibonacci_relation_matrix",
    "fox_closed_form",
    "general_presentation",
    "goeritz_equivalence_check",
    "identity_suite",
    "iterate_chebyshev_recurrence",
    "lucas",
    "normalize_unit",
    "parse_braid",
    "smith_invariant_factors",
    "snf",
    "solve_chebyshev_recurrence",
    "wheel_abf_matrix_closed",
    "wheel_braid",
    "wheel_g",
    "wheel_module",
    "wheel_modules",
]
