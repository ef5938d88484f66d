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
    "constant_function",
    "power_function",
    "power_affine_function",
    "affine_root_function",
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
    """Closed interval [lo, hi] of finite endpoints; degenerate (lo == hi) is allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
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
        """``n`` evenly spaced points including both endpoints."""
        return np.linspace(self.lo, self.hi, n)


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
    dy = np.diff(ys)
    slack = 1e-11 * max(1.0, float(np.max(np.abs(ys))))
    if monotonicity is Monotonicity.INCREASING:
        return bool(np.all(dy >= -slack))
    return bool(np.all(dy <= slack))


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
    is declared by whoever built the function.
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

    def power(self, r: float, name: str | None = None) -> "ScalarFunction":
        """Pointwise power f**r; monotone hints survive only for r > 0."""
        base = self.evaluate
        mono = self.monotonicity if r > 0 else Monotonicity.UNKNOWN
        return ScalarFunction(
            domain=self.domain,
            evaluate=lambda x: np.power(base(x), r),
            monotonicity=mono,
            name=name or f"({self.name})^{r:g}",
        )


def from_callable(
    fn: Callable,
    domain: RealInterval,
    monotonicity: Monotonicity = Monotonicity.UNKNOWN,
    name: str = "f",
) -> ScalarFunction:
    """Wrap a plain callable.  ``fn`` must accept a float and a numpy array
    alike and act elementwise on arrays, as ``ScalarFunction.evaluate`` does."""
    return ScalarFunction(domain=domain, evaluate=fn, monotonicity=monotonicity, name=name)


def constant_function(k: float, domain: RealInterval = RealInterval(0.0, 1.0)) -> ScalarFunction:
    """f(x) = k.  Weakly monotone, so closed-form inversion applies."""

    def ev(x):
        if np.ndim(x) == 0:
            return float(k)
        return np.full(np.shape(x), float(k))

    return ScalarFunction(domain, ev, Monotonicity.INCREASING, name=f"{k:g}")


def power_function(c: float, p: float, domain: RealInterval) -> ScalarFunction:
    """f(x) = c * x**p on a domain with lo >= 0."""
    if domain.lo < 0:
        raise ValueError("power functions require a non-negative domain")

    def ev(x):
        return c * np.power(x, p)

    mono = Monotonicity.INCREASING if c >= 0 else Monotonicity.DECREASING
    return ScalarFunction(domain, ev, mono, name=f"{c:g}*x^{p:g}")


def power_affine_function(c: float, p: float, d: float, domain: RealInterval) -> ScalarFunction:
    """f(x) = c * x**p + d on a domain with lo >= 0."""
    if domain.lo < 0:
        raise ValueError("power functions require a non-negative domain")

    def ev(x):
        return c * np.power(x, p) + d

    mono = Monotonicity.INCREASING if c >= 0 else Monotonicity.DECREASING
    return ScalarFunction(domain, ev, mono, name=f"{c:g}*x^{p:g}+{d:g}")


def affine_root_function(c: float, d: float, r: float, domain: RealInterval) -> ScalarFunction:
    """f(x) = (c*x + d)**(1/r), the family whose r-th power is affine.

    Requires c*x + d >= 0 across the domain and r != 0.
    """
    if r == 0:
        raise ValueError("r must be nonzero")
    if min(c * domain.lo + d, c * domain.hi + d) < 0:
        raise ValueError("c*x + d must stay non-negative on the domain")

    def ev(x):
        return np.power(c * np.asarray(x, dtype=float) + d, 1.0 / r) if np.ndim(x) else float(
            (c * float(x) + d) ** (1.0 / r)
        )

    inner_up = c >= 0
    outer_up = r > 0
    mono = Monotonicity.INCREASING if inner_up == outer_up else Monotonicity.DECREASING
    if c == 0:
        mono = Monotonicity.INCREASING
    return ScalarFunction(domain, ev, mono, name=f"({c:g}*x+{d:g})^(1/{r:g})")


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
