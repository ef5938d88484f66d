"""Upper bounds for Sugeno integrals of generalized-preinvex functions.

Every bound here has the same shape.  On [a, a + L] (L = eta(b, a) > 0) the
hypothesis supplies a majorant M of f built from endpoint values alone, and
the bound is the Sugeno integral of M.  M is monotone in t = x/L, so the
share of [0, 1] where M >= b has a closed form, and the integral is

    beta = sup{b in [0, L] : L * share(b) >= b},

found by ``solve_beta`` (defined in ``measure``, whose level sets and the
``sugeno_fixed_point`` oracle use it too), one ITP search over the bit
patterns of non-negative floats that ends on adjacent floats (regula falsi
steps with the Anderson-Bjorck weight: about ten evaluations of the share,
never more than one above bisection's worst case).  beta never exceeds L,
so a saturated majorant (one that stays at or above L) gives beta = L.  The
solvers consume only the scalars

    fa      = f(a)
    fend    = f(a + L)
    fscaled = f((a + L) / m)        (scaled-argument route only)

so they are fully decoupled from function evaluation; ``verify_fuzzy_hh``
composes them with the integral.

Power-mean route, M(t) = ((1-t)*fa^r + t*fend^r)^(1/r) and its r = 0 limit
fa^(1-t)*fend^t.  M^r (log M at r = 0) is affine in t, so M is monotone
towards the larger endpoint for either sign of r.  With lo <= hi the two
endpoint values, for lo < b < hi

    share(b) = (hi^r - b^r)/(hi^r - lo^r)        (r != 0)
    share(b) = log(hi/b)/log(hi/lo)              (r = 0)

in either direction.  The powers are taken relative to the endpoint power of
larger magnitude, in expm1/log form, so they neither overflow nor underflow
(fa = 1e-120 with r = -3 gives 1e-90).  Equal endpoints collapse M to the
constant fa and the bound to min(fa, L).

Scaled-argument route (alpha, m in (0, 1]), M(t) = fa + t^alpha*(m*fscaled - fa),
monotone in the direction of m*fscaled - fa whatever the endpoint values:

    rising  (m*fscaled > fa):  share(b) = 1 - ((b - fa)/(m*fscaled - fa))^(1/alpha)
    falling (m*fscaled < fa):  share(b) = ((fa - b)/(fa - m*fscaled))^(1/alpha)

and m*fscaled = fa collapses M to the constant fa.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .convexity import DomainEscape, InvexInterval, validate_alpha_m
from .measure import ScalarFunction
from .sugeno import DEFAULT_GRID, SugenoResult, solve_beta, sugeno_integral

__all__ = [
    "BoundError",
    "NoRoot",
    "RZero",
    "MissingScaledValue",
    "BoundCase",
    "BoundInputs",
    "BoundResult",
    "solve_beta",
    "r_preinvex_bound",
    "alpha_m_bound",
    "classical_hh_r_rhs",
    "classical_hh_preinvex",
    "endpoint_inputs",
    "scaled_value",
    "route_bound",
    "FuzzyHHReport",
    "verify_fuzzy_hh",
]

#: Relative tolerance under which two endpoint values (or m*fscaled and fa)
#: count as equal and the majorant as constant, so tiny distinct endpoints
#: keep their majorant.  ``alpha_m_bound`` compares m with the ratio
#: fend/fa to the same figure.
EQUAL_ENDPOINT_TOL = 1e-12

#: Below this |r*log(hi/lo)| the power-mean share is taken in its r = 0
#: (log) form, which it then equals to double precision.
SMALL_POWER = 2.0**-53


class BoundError(Exception):
    """Base class for bound-computation failures."""


class NoRoot(BoundError):
    """No bound exists for the inputs (never raised for valid inputs)."""


class RZero(BoundError):
    """The endpoint power mean has no r = 0 form (that is the geometric mean)."""


class MissingScaledValue(BoundError):
    """The scaled-argument route needs fscaled = f((a + L)/m)."""


class BoundCase(enum.Enum):
    """How the majorant runs.  The power-mean labels name the sign of r and
    the endpoint order.  On the scaled-argument route ``am-increasing`` is a
    rising majorant with fa <= fend, ``am-decreasing-small-m`` and
    ``am-decreasing-ratio-m`` a rising one with fa > fend (m away from or at
    fend/fa), and ``am-decreasing-large-m`` every falling majorant."""

    R_POS_INCREASING = "r-pos-increasing"
    R_POS_DECREASING = "r-pos-decreasing"
    R_ZERO_INCREASING = "r-zero-increasing"
    R_ZERO_DECREASING = "r-zero-decreasing"
    R_NEG_INCREASING = "r-neg-increasing"
    R_NEG_DECREASING = "r-neg-decreasing"
    DEGENERATE = "degenerate"
    AM_INCREASING = "am-increasing"
    AM_DECREASING_SMALL_M = "am-decreasing-small-m"
    AM_DECREASING_RATIO_M = "am-decreasing-ratio-m"
    AM_DECREASING_LARGE_M = "am-decreasing-large-m"


@dataclass(frozen=True)
class BoundInputs:
    """Endpoint data a bound consumes.

    Exactly one route must be selected: ``r`` for the power-mean route, or
    ``alpha`` and ``m`` (plus ``fscaled``) for the scaled-argument route.
    Every given field must be finite.
    """

    fa: float
    fend: float
    eta_len: float
    r: float | None = None
    alpha: float | None = None
    m: float | None = None
    fscaled: float | None = None

    def __post_init__(self) -> None:
        finite = math.isfinite
        r, alpha, m, fscaled = self.r, self.alpha, self.m, self.fscaled
        if not (finite(self.fa) and finite(self.fend) and finite(self.eta_len)
                and (r is None or finite(r)) and (alpha is None or finite(alpha))
                and (m is None or finite(m)) and (fscaled is None or finite(fscaled))):
            name, value = next((name, value) for name, value in vars(self).items()
                               if value is not None and not finite(value))
            raise ValueError(f"{name} must be finite, got {value:g}")
        if self.fa < 0 or self.fend < 0:
            raise ValueError("endpoint values must be non-negative")
        if not self.eta_len > 0:
            raise ValueError("eta_len must be positive")
        am_route = alpha is not None or m is not None
        if (r is not None) == am_route:
            raise ValueError("select exactly one route: r, or alpha and m")
        if am_route and (alpha is None or m is None):
            raise ValueError("the scaled-argument route needs both alpha and m")


@dataclass(frozen=True)
class BoundResult:
    """The majorant's Sugeno integral and the resulting bound.

    ``beta`` is the integral, or the majorant's value when it is constant;
    ``bound`` is min(beta, eta_len).  ``bracket`` holds the adjacent floats
    the search ended on (beta and the first float past it) and
    ``residual`` their distance; both are exact, (beta, beta) and 0, for a
    constant or saturated majorant.
    """

    beta: float
    bound: float
    case: BoundCase
    residual: float
    bracket: tuple[float, float]


def _majorant_bound(share: Callable[[float], float], lo: float, hi: float, L: float,
                    case: BoundCase) -> BoundResult:
    """Integrate a majorant running between lo and hi, where ``share(b)`` is
    the share of [0, 1] on which it is at least b, for lo < b < hi (below lo
    that is all of [0, 1]; at hi a single point)."""

    def F(b: float) -> float:
        if b <= lo:
            return L
        if b >= hi:
            return 0.0
        return L * share(b)

    beta, residual, bracket = solve_beta(F, L)
    return BoundResult(beta, beta, case, residual, bracket)


def _power_share(lo: float, hi: float, r: float) -> Callable[[float], float]:
    """(hi^r - b^r)/(hi^r - lo^r), or its r = 0 limit, taken relative to the
    endpoint power of larger magnitude (hi^r for r > 0, lo^r for r < 0).

    Where |r*log(hi/lo)| is below ``SMALL_POWER`` the r-form equals its log
    limit to double precision, while its products can underflow (r =
    1e-310 makes them subnormal), so the log share is taken there.
    """
    if r != 0 and lo > 0 and abs(r * math.log(hi / lo)) < SMALL_POWER:
        r = 0.0
    if r > 0:
        # (1 - (b/hi)^r)/(1 - (lo/hi)^r)
        scale = 1.0 / (-1.0 if lo == 0 else math.expm1(r * math.log(lo / hi)))
        return lambda b: scale * math.expm1(r * math.log(b / hi))
    if r < 0:
        # ((b/lo)^r - (hi/lo)^r)/(1 - (hi/lo)^r), no power beyond 1 in size
        scale = 1.0 / math.expm1(r * math.log(hi / lo))
        return lambda b: scale * math.exp(r * math.log(b / lo)) * math.expm1(r * math.log(hi / b))
    scale = 1.0 / math.log(hi / lo)
    return lambda b: scale * math.log(hi / b)


def r_preinvex_bound(inputs: BoundInputs) -> BoundResult:
    """Power-mean route bound: the Sugeno integral of the power-mean majorant.

    Equal endpoints (within 1e-12 of the larger one) short-circuit to the
    constant-majorant bound min(fa, L).  For r <= 0 both endpoint values
    must be strictly positive.
    """
    r = inputs.r
    if r is None:
        raise ValueError("r_preinvex_bound needs the r route")
    fa, fend, eta = inputs.fa, inputs.fend, inputs.eta_len
    if r <= 0 and (fa <= 0 or fend <= 0):
        raise ValueError("r <= 0 requires strictly positive endpoint values")
    if abs(fend - fa) <= EQUAL_ENDPOINT_TOL * max(fa, fend):
        return BoundResult(fa, min(fa, eta), BoundCase.DEGENERATE, 0.0, (fa, fa))

    increasing = fend > fa
    if r > 0:
        case = BoundCase.R_POS_INCREASING if increasing else BoundCase.R_POS_DECREASING
    elif r < 0:
        case = BoundCase.R_NEG_INCREASING if increasing else BoundCase.R_NEG_DECREASING
    else:
        case = BoundCase.R_ZERO_INCREASING if increasing else BoundCase.R_ZERO_DECREASING
    lo, hi = min(fa, fend), max(fa, fend)
    return _majorant_bound(_power_share(lo, hi, r), lo, hi, eta, case)


def alpha_m_bound(inputs: BoundInputs) -> BoundResult:
    """Scaled-argument route bound: the Sugeno integral of the majorant
    fa + t^alpha*(m*fscaled - fa), whose direction is the sign of
    m*fscaled - fa.  Labels follow ``BoundCase``; a constant majorant with
    fa > fend is labelled by m against fend/fa alone.
    """
    alpha, m = inputs.alpha, inputs.m
    if alpha is None or m is None:
        raise ValueError("alpha_m_bound needs the alpha/m route")
    validate_alpha_m(alpha, m)
    if inputs.fscaled is None:
        raise MissingScaledValue("provide fscaled = f((a + eta_len)/m)")
    fa, fend, eta = inputs.fa, inputs.fend, inputs.eta_len
    top = m * inputs.fscaled
    constant = abs(top - fa) <= EQUAL_ENDPOINT_TOL * max(abs(top), fa)
    rising = top > fa and not constant

    if not (rising or constant):
        case = BoundCase.AM_DECREASING_LARGE_M
    elif fa <= fend:
        case = BoundCase.AM_INCREASING
    elif abs(m - fend / fa) <= EQUAL_ENDPOINT_TOL:
        case = BoundCase.AM_DECREASING_RATIO_M
    elif rising or m < fend / fa:
        case = BoundCase.AM_DECREASING_SMALL_M
    else:
        case = BoundCase.AM_DECREASING_LARGE_M

    if constant:
        return BoundResult(fa, min(fa, eta), case, 0.0, (fa, fa))
    inv = 1.0 / alpha
    if rising:
        return _majorant_bound(lambda b: 1.0 - ((b - fa) / (top - fa)) ** inv,
                               fa, top, eta, case)
    return _majorant_bound(lambda b: ((fa - b) / (fa - top)) ** inv, top, fa, eta, case)


def classical_hh_r_rhs(fa: float, fb: float, r: float) -> float:
    """Endpoint power mean ((fa^r + fb^r)/2)^(1/r).

    The classical integral-average comparison is stated for r >= 1; smaller
    nonzero r is computed anyway with a warning so counterexamples can quote
    it.  r = 0 raises.
    """
    if r == 0:
        raise RZero("the endpoint power mean is undefined at r = 0")
    if r < 1:
        warnings.warn(
            f"endpoint power mean evaluated at r = {r:g} < 1, outside the "
            "classical comparison's range",
            UserWarning,
            stacklevel=2,
        )
    return ((fa**r + fb**r) / 2.0) ** (1.0 / r)


def classical_hh_preinvex(f: ScalarFunction, iv: InvexInterval) -> tuple[float, float]:
    """Classical midpoint and endpoint-mean comparators on [a, a + L].

    Returns (f(a + L/2), (f(a) + f(a + L))/2): the two sides the Sugeno
    integral is checked against when reproducing the classical-counterexample
    computations.
    """
    lhs = float(f.evaluate(iv.a + 0.5 * iv.eta_len))
    rhs = 0.5 * (float(f.evaluate(iv.a)) + float(f.evaluate(iv.end)))
    return lhs, rhs


def endpoint_inputs(f: ScalarFunction, iv: InvexInterval, r: float | None = None,
                    alpha: float | None = None, m: float | None = None) -> BoundInputs:
    """f(a), f(a + L) and ``scaled_value`` with the flags; ``BoundInputs``
    rejects any other mix of them than one route."""
    fa, fend = float(f.evaluate(iv.a)), float(f.evaluate(iv.end))
    return BoundInputs(fa=fa, fend=fend, eta_len=iv.eta_len, r=r, alpha=alpha, m=m,
                       fscaled=scaled_value(f, iv, alpha, m))


def scaled_value(f: ScalarFunction, iv: InvexInterval, alpha: float | None,
                 m: float | None) -> float | None:
    """fscaled = f((a + L)/m) given alpha and m > 0, else None; raises
    ``DomainEscape`` when that point lies outside f's declared domain."""
    if alpha is None or m is None or not m > 0:  # alpha_m_bound rejects m <= 0
        return None
    point = iv.end / m
    if not f.domain.contains(point):
        raise DomainEscape(
            f"(a + eta_len)/m = {point:g} lies outside f's declared domain "
            f"[{f.domain.lo:g}, {f.domain.hi:g}]"
        )
    return float(f.evaluate(f.domain.clip(point)))


def route_bound(inputs: BoundInputs) -> BoundResult:
    """The bound of the route ``inputs`` select."""
    return r_preinvex_bound(inputs) if inputs.r is not None else alpha_m_bound(inputs)


@dataclass(frozen=True)
class FuzzyHHReport:
    """Integral vs bound, with margin = bound - integral."""

    integral: SugenoResult
    bound: BoundResult
    margin: float
    passed: bool


def verify_fuzzy_hh(
    f: ScalarFunction,
    iv: InvexInterval,
    r: float | None = None,
    alpha: float | None = None,
    m: float | None = None,
    tol: float = 1e-6,
    grid: int = DEFAULT_GRID,
) -> FuzzyHHReport:
    """End-to-end check that the Sugeno integral stays below its bound.

    Computes the bound of the selected route from f's endpoint scalars
    (first, so that flags selecting no route fail before the integral runs),
    then the integral over [a, a + L], and passes iff margin >= -tol; a NaN
    ``tol`` raises ``ValueError``.  The caller is responsible for having
    certified the convexity hypothesis; this routine only composes the two
    computations.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    bound = route_bound(endpoint_inputs(f, iv, r, alpha, m))
    integral = sugeno_integral(f, iv.domain, grid=grid)
    margin = bound.bound - integral.value
    return FuzzyHHReport(integral, bound, margin, margin >= -tol)
