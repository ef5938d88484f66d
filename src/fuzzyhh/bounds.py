"""Upper bounds for Sugeno integrals of generalized-preinvex functions.

Every bound here has the same shape.  On [a, a + L] (L = eta(b, a) > 0) the
hypothesis supplies a majorant of f built from endpoint values alone; the
Sugeno integral of that majorant is where its distribution function crosses
the diagonal, which reduces to one scalar root-find; and the final bound is
min(beta, L).  The equations consume only the scalars

    fa      = f(a)
    fend    = f(a + L)
    fscaled = f((a + L) / m)        (scaled-argument route only)

so the solvers are fully decoupled from function evaluation;
``verify_fuzzy_hh`` composes them with the integral.

Power-mean route (r != 0), dispatched on which endpoint is larger.  The
majorant ((1-t)*fa^r + t*fend^r)^(1/r) has level sets of measure
L*(fend^r - beta^r)/(fend^r - fa^r) (increasing) or its complement
(decreasing), for either sign of r, so:

    increasing (fend > fa):  beta*(fend^r - fa^r) + L*beta^r - L*fend^r = 0
    decreasing (fend < fa):  beta*(fend^r - fa^r) - L*beta^r + L*fa^r   = 0

The sign of r only picks the case label.  Equal endpoints collapse the
majorant to a constant and the bound to min(fa, L) with no equation at all.

Scaled-argument route (alpha, m in (0, 1]):

    fa <= fend:                (L-beta)^a*(m*fscaled - fa) - L^a*(beta - fa) = 0
    fa > fend, m <  fend/fa:   same equation
    fa > fend, m == fend/fa:   same equation with m = fend/fa (and then
                               (a+L)/m == (a+L)*fa/fend, so fscaled is the
                               same evaluation point)
    fa > fend, m >  fend/fa:   beta^a*(m*fscaled - fa) - L^a*(beta - fa) = 0
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convexity import DomainEscape, InvexInterval
from .measure import ScalarFunction
from .sugeno import SugenoResult, sugeno_integral

__all__ = [
    "BoundError",
    "NoRoot",
    "RZero",
    "MissingScaledValue",
    "DivisionByZero",
    "BoundCase",
    "BoundInputs",
    "BoundResult",
    "solve_beta",
    "r_preinvex_bound",
    "alpha_m_bound",
    "classical_hh_r_rhs",
    "classical_hh_preinvex",
    "endpoint_bound",
    "FuzzyHHReport",
    "verify_fuzzy_hh",
]

SCAN_CELLS = 10_000
EQUAL_ENDPOINT_TOL = 1e-12


class BoundError(Exception):
    """Base class for bound-computation failures."""


class NoRoot(BoundError):
    """No sign change anywhere on the scan range: inputs outside every case's regime."""


class RZero(BoundError):
    """The power-mean route has no r = 0 equation (that is the log-mean regime)."""


class MissingScaledValue(BoundError):
    """The scaled-argument route needs fscaled = f((a + L)/m)."""


class DivisionByZero(BoundError):
    """The decreasing scaled-argument cases divide by f(a)."""


class BoundCase(enum.Enum):
    R_POS_INCREASING = "r-pos-increasing"
    R_POS_DECREASING = "r-pos-decreasing"
    R_NEG_INCREASING = "r-neg-increasing"
    R_NEG_DECREASING = "r-neg-decreasing"
    DEGENERATE = "degenerate"
    AM_INCREASING = "am-increasing"
    AM_DECREASING_SMALL_M = "am-decreasing-small-m"
    AM_DECREASING_RATIO_M = "am-decreasing-ratio-m"
    AM_DECREASING_LARGE_M = "am-decreasing-large-m"


@dataclass(frozen=True)
class BoundInputs:
    """Endpoint data a bound equation consumes.

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
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value:g}")
        if self.fa < 0 or self.fend < 0:
            raise ValueError("endpoint values must be non-negative")
        if not self.eta_len > 0:
            raise ValueError("eta_len must be positive")
        r_route = self.r is not None
        am_route = self.alpha is not None or self.m is not None
        if r_route == am_route:
            raise ValueError("select exactly one route: r, or alpha and m")
        if am_route and (self.alpha is None or self.m is None):
            raise ValueError("the scaled-argument route needs both alpha and m")


@dataclass(frozen=True)
class BoundResult:
    """Root of the dispatched case equation and the resulting bound.

    ``bound`` is min(beta, eta_len); ``bracket`` is the sign-change interval
    the solver bisected.
    """

    beta: float
    bound: float
    case: BoundCase
    residual: float
    bracket: tuple[float, float]


def _eval_safe(G: Callable[[float], float], x: float) -> float:
    try:
        with np.errstate(all="ignore"):
            y = float(G(float(x)))
    # TypeError: fractional powers of negatives come back complex
    except (ZeroDivisionError, ValueError, OverflowError, TypeError):
        return math.nan
    return y if math.isfinite(y) else math.nan


def _bisect_cell(G, lo: float, hi: float, g_lo: float, g_hi: float):
    """Drive a sign-changing bracket to machine precision; return (root, residual)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = _eval_safe(G, mid)
        if math.isnan(g_mid):
            break
        if g_mid == 0.0:
            return mid, 0.0
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    root = 0.5 * (lo + hi)
    res = _eval_safe(G, root)
    return root, abs(res) if math.isfinite(res) else min(abs(g_lo), abs(g_hi))


def solve_beta(
    G: Callable[[float], float],
    bracket_hint: tuple[float, float],
    tol: float = 1e-9,
    scan_hi: float | None = None,
) -> tuple[float, float, tuple[float, float]]:
    """Bracketed bisection for G(beta) = 0; returns (root, residual, bracket).

    If G changes sign on the hint bracket the root is bisected there;
    otherwise G is evaluated once on the 10_001 points of [0, scan_hi]
    (10_000 equal cells) and the first cell with an exact zero or a sign
    change between finite values is bisected.  G must therefore evaluate
    elementwise on a float64 array; non-finite values count as no value.
    Endpoints where G is singular (e.g. beta**r at 0 for r < 0) are nudged
    inward.  Bisection runs to machine precision, so the reported residual
    is far below ``tol`` for well-scaled equations; ``NoRoot`` is raised when
    no sign change exists anywhere on the scan.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = float(bracket_hint[0]), float(bracket_hint[1])
    if not lo < hi:
        raise ValueError("bracket hint must have positive width")
    if scan_hi is None:
        scan_hi = hi

    g_lo = _eval_safe(G, lo)
    if math.isnan(g_lo):
        lo = lo + 1e-12 * (hi - lo)
        g_lo = _eval_safe(G, lo)
    g_hi = _eval_safe(G, hi)
    if math.isnan(g_hi):
        hi = hi - 1e-12 * (hi - lo)
        g_hi = _eval_safe(G, hi)

    if not math.isnan(g_lo) and g_lo == 0.0:
        # zero at the low end is the first root outright
        return lo, 0.0, (lo, hi)
    if (
        not math.isnan(g_lo)
        and not math.isnan(g_hi)
        and g_hi != 0.0
        and (g_lo > 0.0) != (g_hi > 0.0)
    ):
        root, residual = _bisect_cell(G, lo, hi, g_lo, g_hi)
        return root, residual, (lo, hi)
    # A zero exactly at the high end falls through to the scan: several case
    # equations vanish identically at beta = eta_len, and an interior
    # crossing, when one exists, is the root that matters.

    xs = np.linspace(0.0, scan_hi, SCAN_CELLS + 1)
    with np.errstate(all="ignore"):
        gs = np.asarray(G(xs), dtype=float)
    finite = np.isfinite(gs)
    pos = gs > 0.0
    # first cell whose left end is an exact zero or whose finite ends differ in sign
    hits = np.flatnonzero(
        (gs[:-1] == 0.0) | (finite[:-1] & finite[1:] & (pos[:-1] != pos[1:]))
    )
    if hits.size:
        i = int(hits[0])
        if gs[i] == 0.0:
            return float(xs[i]), 0.0, (float(xs[i]), float(xs[i + 1]))
        root, residual = _bisect_cell(
            G, float(xs[i]), float(xs[i + 1]), float(gs[i]), float(gs[i + 1])
        )
        return root, residual, (float(xs[i]), float(xs[i + 1]))
    if gs[-1] == 0.0:
        return float(xs[-1]), 0.0, (float(xs[-2]), float(xs[-1]))
    raise NoRoot(
        f"no sign change on [0, {scan_hi:g}] ({SCAN_CELLS} cells): "
        "inputs lie outside every case's regime"
    )


def r_preinvex_bound(inputs: BoundInputs, tol: float = 1e-9) -> BoundResult:
    """Power-mean route bound: solve the dispatched case equation on [0, L].

    Increasing endpoints take the fend-form equation and decreasing ones the
    fa-form, for either sign of r; equal endpoints (within 1e-12)
    short-circuit to the constant-majorant bound min(fa, L).  For r < 0 both
    endpoint values must be strictly positive.  Raises ``ValueError`` when
    fa**r or fend**r overflows float64 (e.g. fa = 1e-120 with r = -3).
    """
    r = inputs.r
    if r is None:
        raise ValueError("r_preinvex_bound needs the r route")
    if r == 0:
        raise RZero("no equation is defined for r = 0")
    fa, fend, eta = inputs.fa, inputs.fend, inputs.eta_len
    if r < 0 and (fa <= 0 or fend <= 0):
        raise ValueError("r < 0 requires strictly positive endpoint values")

    if abs(fend - fa) <= EQUAL_ENDPOINT_TOL:
        bound = min(fa, eta)
        return BoundResult(fa, bound, BoundCase.DEGENERATE, 0.0, (fa, fa))

    try:
        far, fendr = fa**r, fend**r
    except OverflowError:
        raise ValueError(
            f"endpoint values fa={fa:g}, fend={fend:g} raised to r={r:g} overflow float64"
        ) from None
    diff = fendr - far
    increasing = fend > fa

    def g_end_form(b: float) -> float:
        return b * diff + eta * b**r - eta * fendr

    def g_a_form(b: float) -> float:
        return b * diff - eta * b**r + eta * far

    G = g_end_form if increasing else g_a_form
    if r > 0:
        case = BoundCase.R_POS_INCREASING if increasing else BoundCase.R_POS_DECREASING
    else:
        case = BoundCase.R_NEG_INCREASING if increasing else BoundCase.R_NEG_DECREASING

    scan_hi = max(eta, fa, fend)
    beta, residual, bracket = solve_beta(G, (0.0, eta), tol, scan_hi=scan_hi)
    return BoundResult(beta, min(beta, eta), case, residual, bracket)


def alpha_m_bound(inputs: BoundInputs, tol: float = 1e-9) -> BoundResult:
    """Scaled-argument route bound.

    fa <= fend always takes the (L - beta)^alpha equation.  For fa > fend the
    case is picked by comparing m against the endpoint ratio fend/fa: below
    the ratio keeps the same equation, equality substitutes m = fend/fa into
    it, and above the ratio switches to the beta^alpha equation.
    """
    alpha, m = inputs.alpha, inputs.m
    if alpha is None or m is None:
        raise ValueError("alpha_m_bound needs the alpha/m route")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 < m <= 1:
        raise ValueError("m must lie in (0, 1]")
    if inputs.fscaled is None:
        raise MissingScaledValue("provide fscaled = f((a + eta_len)/m)")
    fa, fend, eta, fs = inputs.fa, inputs.fend, inputs.eta_len, inputs.fscaled
    eta_a = eta**alpha

    if fa <= fend:
        case = BoundCase.AM_INCREASING
        coeff = m
    else:
        if fa == 0:
            raise DivisionByZero("the decreasing cases divide by f(a) = 0")
        rho = fend / fa
        if abs(m - rho) <= EQUAL_ENDPOINT_TOL:
            case = BoundCase.AM_DECREASING_RATIO_M
            coeff = rho
        elif m < rho:
            case = BoundCase.AM_DECREASING_SMALL_M
            coeff = m
        else:
            case = BoundCase.AM_DECREASING_LARGE_M
            coeff = m

    if abs(coeff * fs - fa) <= 1e-12 * max(1.0, fa):
        # the scaled term cancels f(a) and the equation collapses to
        # -eta^alpha * (beta - f(a)) = 0, linear with root f(a)
        return BoundResult(fa, min(fa, eta), case, 0.0, (fa, fa))

    if case is BoundCase.AM_DECREASING_LARGE_M:

        def G(b: float) -> float:
            return b**alpha * (coeff * fs) - b**alpha * fa - eta_a * (b - fa)

    else:

        def G(b: float) -> float:
            rest = eta - b
            return rest**alpha * (coeff * fs) - rest**alpha * fa - eta_a * (b - fa)

    scan_hi = max(eta, fa, fend, coeff * fs)
    beta, residual, bracket = solve_beta(G, (0.0, eta), tol, scan_hi=scan_hi)
    return BoundResult(beta, min(beta, eta), case, residual, bracket)


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


def endpoint_bound(
    f: ScalarFunction,
    iv: InvexInterval,
    r: float | None = None,
    alpha: float | None = None,
    m: float | None = None,
) -> BoundResult:
    """Evaluate f's endpoint scalars on [a, a + L] and solve the selected route.

    The scaled-argument route also evaluates fscaled = f((a + L)/m), raising
    ``DomainEscape`` when that point lies outside f's declared domain.
    """
    fa = float(f.evaluate(iv.a))
    fend = float(f.evaluate(iv.end))
    if r is not None:
        return r_preinvex_bound(BoundInputs(fa=fa, fend=fend, eta_len=iv.eta_len, r=r))
    if alpha is None or m is None:
        raise ValueError("select a route: r, or alpha and m")
    point = iv.end / m
    if not f.domain.contains(point, slack=1e-12):
        raise DomainEscape(
            f"(a + eta_len)/m = {point:g} lies outside f's declared domain "
            f"[{f.domain.lo:g}, {f.domain.hi:g}]"
        )
    fscaled = float(f.evaluate(f.domain.clip(point)))
    return alpha_m_bound(
        BoundInputs(fa=fa, fend=fend, eta_len=iv.eta_len, alpha=alpha, m=m, fscaled=fscaled)
    )


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
    grid: int = 1_000_000,
) -> FuzzyHHReport:
    """End-to-end check that the Sugeno integral stays below its bound.

    Computes the integral over [a, a + L], then ``endpoint_bound`` for the
    selected route, and passes iff margin >= -tol.  The caller is
    responsible for having certified the convexity hypothesis; this routine
    only composes the two computations.
    """
    integral = sugeno_integral(f, iv.domain, grid=grid)
    bound = endpoint_bound(f, iv, r=r, alpha=alpha, m=m)
    margin = bound.bound - integral.value
    return FuzzyHHReport(integral, bound, margin, margin >= -tol)
