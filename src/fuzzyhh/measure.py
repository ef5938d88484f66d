"""Intervals, Lebesgue measure, and level-set distribution functions.

The integration domain is always a closed real interval.  Level sets of a
scalar function are never represented symbolically: every consumer needs only
their Lebesgue measure, so the central object is the distribution function

    F(beta) = mu(A intersect {x : f(x) >= beta}),

which is non-increasing in the threshold ``beta``.  ``DistributionProfile``
evaluates it for a monotone function by closed-form inversion (bisection on
the level-set boundary to ``INVERSION_TOL``); ``sugeno`` integrates every
other function without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MeasureError",
    "StrategyMismatch",
    "InvalidThreshold",
    "RealInterval",
    "Monotonicity",
    "ScalarFunction",
    "INVERSION_TOL",
    "DistributionProfile",
    "follows",
    "from_callable",
]

#: Slack for closed-interval membership tests (paths may land an ulp outside).
SET_SLACK = 1e-12

#: Width in x to which ``DistributionProfile`` bisects a level-set boundary.
INVERSION_TOL = 1e-12


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

    def contains(self, x: float, slack: float = SET_SLACK) -> bool:
        return self.lo - slack <= x <= self.hi + slack

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


def follows(ys: np.ndarray, monotonicity: Monotonicity) -> bool:
    """Whether an ordered sample ``ys`` is weakly monotone in the given sense.

    Steps against the direction are forgiven up to a relative slack of
    ``1e-11 * max(1, max |y|)``, so rounding noise on flat stretches does not
    break a constant's or a plateau's hint.  ``UNKNOWN`` never follows.
    """
    if monotonicity is Monotonicity.UNKNOWN:
        return False
    dy = ys[1:] - ys[:-1]
    slack = 1e-11 * max(1.0, float(np.abs(ys).max()))
    if monotonicity is Monotonicity.INCREASING:
        return bool(dy.min(initial=np.inf) >= -slack)  # NaN compares False
    return bool(dy.max(initial=-np.inf) <= slack)


@dataclass(frozen=True)
class ScalarFunction:
    """An evaluable real function on a stated closed domain.

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
    name: str = "f"
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
    name: str = "f",
) -> ScalarFunction:
    """Wrap a plain callable.  ``fn`` must accept a float and a numpy array
    alike and act elementwise on arrays, as ``ScalarFunction.evaluate`` does."""
    return ScalarFunction(domain=domain, evaluate=fn, monotonicity=monotonicity, name=name)


@dataclass(frozen=True)
class DistributionProfile:
    """The map beta -> mu(A intersect {f >= beta}) of a monotone f, by
    closed-form inversion: the level set is the part of A on one side of the
    point where f crosses beta, found by bisection to ``INVERSION_TOL``."""

    f: ScalarFunction
    A: RealInterval

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
        lo, hi = self.A.lo, self.A.hi
        if lo == hi:
            return 0.0
        f_lo = float(self.f.evaluate(lo))
        f_hi = float(self.f.evaluate(hi))
        if mono is Monotonicity.INCREASING:
            if beta <= f_lo:
                return self.A.length()
            if beta > f_hi:
                return 0.0
            return hi - _invert_increasing(self.f.evaluate, lo, hi, beta)
        if beta <= f_hi:
            return self.A.length()
        if beta > f_lo:
            return 0.0
        return _invert_decreasing(self.f.evaluate, lo, hi, beta) - lo


def _invert_increasing(ev, lo: float, hi: float, beta: float) -> float:
    # Entry invariant: ev(lo) < beta <= ev(hi).  Converges to inf{x : f >= beta}.
    while hi - lo > INVERSION_TOL:
        mid = 0.5 * (lo + hi)
        if float(ev(mid)) >= beta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _invert_decreasing(ev, lo: float, hi: float, beta: float) -> float:
    # Entry invariant: ev(hi) < beta <= ev(lo).  Converges to sup{x : f >= beta}.
    while hi - lo > INVERSION_TOL:
        mid = 0.5 * (lo + hi)
        if float(ev(mid)) >= beta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
