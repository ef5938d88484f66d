"""Sugeno integrals on real intervals and their generalized-preinvex upper bounds.

The package splits into a measure layer (intervals, level-set distribution
functions and ``solve_beta``, the one bracketing solver of the package), the
integral itself (a monotone crossing search, a crossing search over
certified monotone pieces and an exact grid sup-min, with fixed-point and
threshold-sweep oracles), sampling checkers for generalized-convexity
hypotheses, the bounds (each the integral of its hypothesis's majorant by
``solve_beta``), a small expression DSL, and a CLI that ties them together.
"""

from .measure import (
    InvalidThreshold,
    MeasureError,
    Monotonicity,
    DistributionProfile,
    RealInterval,
    ScalarFunction,
    StrategyMismatch,
    from_callable,
    solve_beta,
)
from .sugeno import (
    IntegralMethod,
    NegativeFunction,
    SugenoError,
    SugenoResult,
    sugeno_fixed_point,
    sugeno_integral,
    sugeno_supmin,
    sugeno_supmin_exact,
)
from .convexity import (
    AFFINE_ETA,
    ConvexityError,
    DomainEscape,
    EtaMap,
    HypothesisReport,
    InvexInterval,
    NonPositiveFunction,
    Witness,
    check_alpha_m_preinvex,
    check_condition_c,
    check_invex,
    check_m_preinvex,
    check_preinvex,
    check_r_preinvex,
    scaled_eta,
)
from .bounds import (
    BoundCase,
    BoundError,
    BoundInputs,
    BoundResult,
    FuzzyHHReport,
    MissingScaledValue,
    NoRoot,
    RZero,
    alpha_m_bound,
    classical_hh_preinvex,
    classical_hh_r_rhs,
    r_preinvex_bound,
    verify_fuzzy_hh,
)
from .expressions import (
    EvalError,
    ExprSyntaxError,
    evaluate,
    function_from_expression,
    parse_expression,
    to_source,
)

__version__ = "0.1.0"
