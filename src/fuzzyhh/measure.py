"""Intervals, Lebesgue measure, and level-set distribution functions.

The integration domain is always a closed real interval.  Level sets of a
scalar function are never represented symbolically: every consumer needs only
their Lebesgue measure, so the central object is the distribution function

    F(beta) = mu(A intersect {x : f(x) >= beta}),

which is non-increasing in the threshold ``beta``.  Two evaluation strategies
are provided: closed-form inversion of a monotone function (bisection on the
level-set boundary) and a midpoint-grid count that works for arbitrary
black-box functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "MeasureError",
    "StrategyMismatch",
    "InvalidThreshold",
    "RealInterval",
    "Monotonicity",
    "ScalarFunction",
    "MonotoneClosedForm",
    "GridScan",
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


class MeasureError(Exception):
    """Base class for measure-layer failures."""


class StrategyMismatch(MeasureError):
    """Closed-form level sets need a monotone function; none was declared."""


class InvalidThreshold(MeasureError):
    """Distribution functions are only defined for thresholds >= 0."""


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lo, hi]; degenerate (lo == hi) is allowed."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def clip(self, x):
        return np.clip(x, self.lo, self.hi)

    def midpoints(self, n: int) -> np.ndarray:
        """Midpoints of ``n`` equal cells: the sample of the grid form, of
        ``sugeno_supmin`` and of ``GridScan``."""
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
    """

    domain: RealInterval
    evaluate: Callable
    monotonicity: Monotonicity = Monotonicity.UNKNOWN
    name: str = "f"

    def __call__(self, x):
        return self.evaluate(x)

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
    fn: Callable[[float], float],
    domain: RealInterval,
    monotonicity: Monotonicity = Monotonicity.UNKNOWN,
    name: str = "f",
    vectorized: bool = True,
) -> ScalarFunction:
    """Wrap a plain callable; set ``vectorized=False`` for scalar-only code."""
    if vectorized:
        ev = fn
    else:
        vf = np.vectorize(fn, otypes=[float])

        def ev(x):
            if np.ndim(x) == 0:
                return float(fn(float(x)))
            return vf(x)

    return ScalarFunction(domain=domain, evaluate=ev, monotonicity=monotonicity, name=name)


def constant_function(k: float, domain: RealInterval = RealInterval(0.0, 1.0)) -> ScalarFunction:
    """f(x) = k.  Weakly monotone, so the closed-form strategy applies."""

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
class MonotoneClosedForm:
    """Locate the level-set boundary by bisection inversion of a monotone f."""

    tol: float = 1e-12


@dataclass(frozen=True)
class GridScan:
    """Count midpoints of ``n`` equal cells whose value clears the threshold."""

    n: int = 1_000_000

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("grid size must be positive")


@dataclass(eq=False)
class DistributionProfile:
    """The map beta -> mu(A intersect {f >= beta}) under a fixed strategy.

    Instances are immutable in the API sense; the grid strategy caches the
    sorted function sample on first use so repeated queries cost one binary
    search.  Safe for concurrent readers: the cache assignment is idempotent.
    """

    f: ScalarFunction
    A: RealInterval
    strategy: MonotoneClosedForm | GridScan = field(default_factory=MonotoneClosedForm)

    def __post_init__(self) -> None:
        self._sorted_values: np.ndarray | None = None

    def resolution(self) -> float:
        """Worst-case measure error of a single query under this strategy."""
        if isinstance(self.strategy, GridScan):
            return self.A.length() / self.strategy.n
        return self.strategy.tol

    def at(self, beta: float) -> float:
        """Measure of the level set {x in A : f(x) >= beta}."""
        if beta < 0:
            raise InvalidThreshold(f"threshold must be >= 0, got {beta}")
        if isinstance(self.strategy, GridScan):
            return self._grid_measure(beta)
        return self._closed_form_measure(beta)

    # -- grid strategy ------------------------------------------------------

    def _grid_values(self) -> np.ndarray:
        if self._sorted_values is None:
            xs = self.A.midpoints(self.strategy.n)
            self._sorted_values = np.sort(np.asarray(self.f.evaluate(xs), dtype=float))
        return self._sorted_values

    def _grid_measure(self, beta: float) -> float:
        vals = self._grid_values()
        n = self.strategy.n
        count = n - int(np.searchsorted(vals, beta, side="left"))
        return self.A.length() * (count / n)

    # -- closed-form strategy ----------------------------------------------

    def _closed_form_measure(self, beta: float) -> float:
        mono = self.f.monotonicity
        if mono is Monotonicity.UNKNOWN:
            raise StrategyMismatch(
                "closed-form level sets need a monotonicity hint; use GridScan instead"
            )
        lo, hi = self.A.lo, self.A.hi
        if lo == hi:
            return 0.0
        f_lo = float(self.f.evaluate(lo))
        f_hi = float(self.f.evaluate(hi))
        tol = self.strategy.tol
        if mono is Monotonicity.INCREASING:
            if beta <= f_lo:
                return self.A.length()
            if beta > f_hi:
                return 0.0
            x = _invert_increasing(self.f.evaluate, lo, hi, beta, tol)
            return hi - x
        if beta <= f_hi:
            return self.A.length()
        if beta > f_lo:
            return 0.0
        x = _invert_decreasing(self.f.evaluate, lo, hi, beta, tol)
        return x - lo


def _invert_increasing(ev, lo: float, hi: float, beta: float, tol: float) -> float:
    # Entry invariant: ev(lo) < beta <= ev(hi).  Converges to inf{x : f >= beta}.
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(ev(mid)) >= beta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _invert_decreasing(ev, lo: float, hi: float, beta: float, tol: float) -> float:
    # Entry invariant: ev(hi) < beta <= ev(lo).  Converges to sup{x : f >= beta}.
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(ev(mid)) >= beta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
