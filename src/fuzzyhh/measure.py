"""Intervals, Lebesgue measure, and level-set distribution functions.

The integration domain is always a closed real interval.  Level sets of a
scalar function are never represented symbolically: every consumer needs only
their Lebesgue measure, so the central object is the distribution function

    F(beta) = mu(A intersect {x : f(x) >= beta}),

which is non-increasing in the threshold ``beta``.  Every monotone question
of the package is sup{b in [0, L] : G(b) >= b} for a non-increasing G, and
``solve_beta`` answers each one on adjacent floats: the integral of a
monotone function over its distribution (``sugeno.sugeno_fixed_point``),
every bound for its majorant (``bounds``), and the level set itself.
``DistributionProfile`` evaluates F for a monotone function through it,
exact to the float; ``sugeno`` integrates every function without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MeasureError",
    "StrategyMismatch",
    "InvalidThreshold",
    "RealInterval",
    "Monotonicity",
    "ScalarFunction",
    "DistributionProfile",
    "follows",
    "from_callable",
    "solve_beta",
]

#: Slack for closed-interval membership tests (paths may land an ulp outside).
SET_SLACK = 1e-12

#: The constants of ``solve_beta``'s ITP search, counted in float64 bit
#: patterns.  A solve takes at most ITP_N0 evaluations more than bisection's
#: worst case.  For a bracket of w >= BINADE patterns (2**52, one binade)
#: the truncation moves the regula falsi point (w >> ITP_SCALE)**2 patterns,
#: at least one (k1 = 2**-60, k2 = 2): 2**-8 of the bracket at one binade,
#: more across many, where the point can be far off in bits.  Inside one
#: binade it moves (w >> FINE_SCALE)**2 patterns (k1 = 2**-84), possibly
#: none, so the reweighted point converges at nearly its own rate.  The
#: first step probes FIRST_PROBE patterns (10 binades, a factor of 1024)
#: below L.
ITP_N0 = 1
ITP_SCALE = 30
FINE_SCALE = 42
BINADE = 1 << 52
FIRST_PROBE = 10 << 52


class MeasureError(Exception):
    """Base class for measure-layer failures."""


class StrategyMismatch(MeasureError):
    """Closed-form level sets need a monotone function; none was declared."""


class InvalidThreshold(MeasureError):
    """Distribution functions are only defined for thresholds >= 0."""


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi] of finite endpoints and width; lo == hi is allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"interval width overflows: [{self.lo}, {self.hi}]")

    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo - SET_SLACK <= x <= self.hi + SET_SLACK

    def clip(self, x):
        return np.clip(x, self.lo, self.hi)

    def midpoints(self, n: int) -> np.ndarray:
        """Midpoints of ``n`` equal cells: the sample of the grid form and of
        ``sugeno_supmin``."""
        if n < 1:
            raise ValueError("cell count must be positive")
        h = self.length() / n
        # lo + (arange(n) + 0.5) * h, operation for operation, in one buffer
        xs = np.arange(n, dtype=float)
        xs += 0.5
        xs *= h
        xs += self.lo
        return xs

    def grid(self, n: int) -> np.ndarray:
        """``n`` evenly spaced points including both endpoints: the floats of
        ``np.linspace(lo, hi, n)``, operation for operation."""
        if n < 0:
            raise ValueError(f"Number of samples, {n}, must be non-negative.")  # as numpy says
        lo, hi, div = float(self.lo), float(self.hi), max(n - 1, 1)
        xs = np.arange(n, dtype=float)
        step = (hi - lo) / div
        if step == 0.0:  # a zero or subnormal width: numpy divides, then scales
            xs /= div
            step = hi - lo
        xs *= step
        xs += lo
        if n > 1:
            xs[-1] = hi
        return xs


class Monotonicity(enum.Enum):
    """Declared (weak) monotonicity of a scalar function on its domain."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    UNKNOWN = "unknown"


def step_slack(ys: np.ndarray) -> float:
    """The size ``1e-11 * max(1, max |y|)`` up to which a step of ``ys`` is rounding noise."""
    return 1e-11 * max(1.0, float(np.abs(ys).max()))


def follows(ys: np.ndarray, monotonicity: Monotonicity) -> bool:
    """Whether an ordered sample ``ys`` is weakly monotone in the given sense.

    Steps against the direction are forgiven up to ``step_slack(ys)``, so
    rounding noise on flat stretches does not break a constant's or a
    plateau's hint.  ``UNKNOWN`` never follows.
    """
    if monotonicity is Monotonicity.UNKNOWN:
        return False
    dy = ys[1:] - ys[:-1]
    slack = step_slack(ys)
    if monotonicity is Monotonicity.INCREASING:
        return bool(dy.min(initial=np.inf) >= -slack)  # NaN compares False
    return bool(dy.max(initial=-np.inf) <= slack)


@dataclass(frozen=True)
class ScalarFunction:
    """An evaluable real function on a stated closed domain; it carries no name.

    ``evaluate`` must accept a float and a 1-d numpy array alike, and act
    elementwise: each value depends only on its own point, so a sample
    evaluated in blocks gives the same floats as one whole-array call.  The
    domain may be wider than any integration interval: scaled-argument
    hypotheses evaluate f at v/m, which can leave the integration range.
    Non-negativity is not enforced at construction; integration entry points
    sample for it.

    ``extension``, when set, maps an interval [a, b] of x to an ``Enclosure``
    of f and f' over it, or None where it cannot bound them
    (``expressions.extend_expression``).  Only ``function_from_expression``
    sets it; with it the monotonicity hint is certified, without it the hint
    is declared by the caller of ``from_callable``.
    """

    domain: RealInterval
    evaluate: Callable
    monotonicity: Monotonicity = Monotonicity.UNKNOWN
    extension: Callable | None = None

    def __call__(self, x):
        return self.evaluate(x)

    @property
    def hint(self) -> str:
        """Where the monotonicity hint came from: "certified", "declared" or "unknown"."""
        if self.monotonicity is Monotonicity.UNKNOWN:
            return "unknown"
        return "certified" if self.extension is not None else "declared"


def from_callable(
    fn: Callable,
    domain: RealInterval,
    monotonicity: Monotonicity = Monotonicity.UNKNOWN,
) -> ScalarFunction:
    """Wrap a plain callable with a declared hint and no extension.  ``fn`` must
    accept a float and a numpy array alike and act elementwise, as ``evaluate`` does."""
    return ScalarFunction(domain=domain, evaluate=fn, monotonicity=monotonicity)


@dataclass(frozen=True)
class DistributionProfile:
    """The map beta -> mu(A intersect {f >= beta}) of a monotone f, by
    closed-form inversion: the level set is the part of A on one side of the
    point where f crosses beta, and its measure is the largest float d in
    [0, mu(A)] with f(hi - d) >= beta (f increasing) or f(lo + d) >= beta
    (f decreasing), found by ``solve_beta``."""

    f: ScalarFunction
    A: RealInterval

    @cached_property
    def _ends(self) -> tuple[float, float]:
        """(f(lo), f(hi)), evaluated once per profile, on its first query."""
        return float(self.f.evaluate(self.A.lo)), float(self.f.evaluate(self.A.hi))

    def at(self, beta: float) -> float:
        """Measure of the level set {x in A : f(x) >= beta}."""
        if beta < 0:
            raise InvalidThreshold(f"threshold must be >= 0, got {beta}")
        mono = self.f.monotonicity
        if mono is Monotonicity.UNKNOWN:
            raise StrategyMismatch(
                "closed-form level sets need a monotonicity hint; "
                "integrate with sugeno_supmin_exact instead"
            )
        ev, lo, hi, L = self.f.evaluate, self.A.lo, self.A.hi, self.A.length()
        if lo == hi:
            return 0.0
        f_lo, f_hi = self._ends
        if mono is Monotonicity.INCREASING:
            least, most, point = f_lo, f_hi, lambda d: max(hi - d, lo)
        else:
            least, most, point = f_hi, f_lo, lambda d: min(lo + d, hi)
        if beta <= least:
            return L
        if beta > most:
            return 0.0
        return solve_beta(lambda d: L if float(ev(point(d))) >= beta else 0.0, L)[0]


def solve_beta(F: Callable[[float], float], L: float) -> tuple[float, float, tuple[float, float]]:
    """sup{b in [0, L] : F(b) >= b} for a non-increasing F >= 0 on [0, L].

    Returns (beta, residual, bracket).  The search runs on the bit patterns
    of non-negative float64s, whose integer order is their order as floats,
    so it keeps full relative precision for tiny bounds.  It ends on adjacent
    floats: F(beta) >= beta holds at beta and fails at the next float.

    F(L) >= L is tested first and gives beta = L.  Otherwise the bracket of
    patterns [0, L] shrinks by the ITP method (interpolate, truncate,
    project; Oliveira & Takahashi, ACM TOMS 47(1), 2021).  Each step takes
    the regula falsi point of g(b) = F(b) - b in value space, with the
    Anderson-Bjorck weight (BIT 13, 1973): when the same end moves twice in
    a row, the other end's g is scaled by 1 - g_new/g_previous (1/2 if that
    is not positive), so the search does not creep in from one side.  It
    moves the point towards the bracket's bit midpoint by the truncation of
    ``ITP_SCALE`` (``FINE_SCALE`` inside one binade), keeps it off the ends
    already evaluated, and projects it into the window around the midpoint
    that leaves the solve at most ``ITP_N0`` evaluations above bisection's
    worst case.  A smooth F takes about ten evaluations.  F(0) is never
    evaluated, so the first step probes ``FIRST_PROBE`` patterns below L (or
    the bit midpoint, if that is higher), or F(L) itself if that is higher
    and positive: F(F(L)) >= F(L) for a non-increasing F, so that probe
    lands on the lower end.  A step whose interpolation is not a number in
    the bracket (F not yet known at the lower end, or not finite) takes the
    bit midpoint.  Jumps and plateaus of F cost steps, never more than that
    bound.
    """
    fb = F(L)
    if fb >= L:
        return L, 0.0, (L, L)
    word = memoryview(bytearray(8))  # per call: concurrent solves share nothing
    value, bits = word.cast("d"), word.cast("Q")
    value[0] = L
    lo, hi = 0, bits[0]  # F(0) >= 0 always holds
    blo, glo = 0.0, math.nan  # F(0) is never evaluated: nan interpolates to nothing
    bhi, ghi = L, fb - L
    low_moved = False  # the saturation test set the upper end
    # bisection needs ceil(log2(hi)) steps; with ITP_N0 spare ones, the
    # first step may leave up to reach patterns on either side
    reach = 1 << ((hi - 1).bit_length() + ITP_N0 - 1)
    x = max((lo + hi) >> 1, hi - FIRST_PROBE)
    if fb > 0.0:
        value[0] = fb
        x = max(x, bits[0])
    while hi - lo > 1:
        # project x, which lies inside (lo, hi), into the window that
        # leaves at most reach patterns on either side; reach halves per step
        if x < hi - reach:
            x = hi - reach
        elif x > lo + reach:
            x = lo + reach
        bits[0] = x
        b = value[0]
        fb = F(b)
        g = fb - b
        # Anderson-Bjorck: when the same end moves twice, scale the other
        # end's g by k = 1 - g/g_previous, or by 1/2 if k is not positive
        if fb >= b:
            if low_moved:
                k = 1.0 - g / glo if glo else 0.0
                ghi *= k if k > 0.0 else 0.5
            lo, blo, glo, low_moved = x, b, g, True
        else:
            if not low_moved:
                k = 1.0 - g / ghi if ghi else 0.0
                glo *= k if k > 0.0 else 0.5
            hi, bhi, ghi, low_moved = x, b, g, False
        reach >>= 1
        x = (lo + hi) >> 1
        # glo >= 0 >= ghi; else F is not yet known at lo (glo is nan), or
        # both are 0 because a weight underflowed: the bit midpoint
        if glo > ghi:
            bf = blo + (bhi - blo) * (glo / (glo - ghi))
            if blo <= bf <= bhi:  # else F was not finite: the bit midpoint
                value[0] = bf
                xf = bits[0]
                w = hi - lo
                if w >= BINADE:  # truncation k1 * w**k2, w patterns
                    d = w >> ITP_SCALE
                    delta = d * d or 1
                else:
                    d = w >> FINE_SCALE
                    delta = d * d
                if xf < x:  # delta may be 0: a point on an end moves one pattern in
                    xf += delta
                    if xf < x:
                        x = xf if xf > lo else lo + 1
                else:
                    xf -= delta
                    if xf > x:
                        x = xf if xf < hi else hi - 1
    bits[0] = lo
    beta = value[0]
    bits[0] = hi
    past = value[0]
    return beta, past - beta, (beta, past)
