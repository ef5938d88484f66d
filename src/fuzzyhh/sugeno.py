"""Sugeno integrals of non-negative functions on real intervals.

The integral is sup over beta >= 0 of min(beta, F(beta)), where F is the
level-set distribution function.  ``sugeno_integral`` (``method="auto"``)
finds that sup as one crossing search in one of two forms:

* **Monotone form**, for f declared increasing or decreasing.  The sup sits
  where f(x) crosses hi - x (f increasing) or x - lo (f decreasing).  f is
  evaluated once, vectorised, on a 4097-point grid of [lo, hi]; the cell
  where the sign of the gap changes is re-gridded with 4097 points until it
  is narrower than ``tol``.  For increasing f, the cell [x_l, x_r] gives
  the value max(hi - x_r, f(x_l)); for decreasing f, max(x_l - lo, f(x_r)).
  Constants, plateaus and jumps are exact in this form, so no fallback is
  needed.  ``residual`` is the final cell width.  A sample that breaks the
  declared monotonicity hands the call over to the grid form.

* **Grid form**, for every other f.  The sup over *all* thresholds of the
  midpoint-sampled function, ``sugeno_supmin_exact``.  The n-point sample
  is made, evaluated and reduced to its minimum ``SAMPLE_BLOCK`` points at a
  time in reused buffers (the same floats as one whole-array call).  Its
  crossing, in descending order, with the levels j * mu / n is selected: a
  sorted subsample brackets it, and only the samples inside the bracket are
  sorted and binary-searched.  Where the bracket cannot be proved (ties,
  plateaus, aliasing, tiny n) the whole sample is sorted.  Either way the
  result is the same float.  ``residual`` is the cell measure mu / n.

Two more routes stay as oracles and as opt-in methods:

* ``sugeno_fixed_point`` solves F(beta) = beta by bisection on the diagonal
  gap h(beta) = F(beta) - beta, with F from a ``DistributionProfile``.
  When F jumps across the diagonal (plateaus of f) there is no fixed point
  and ``NoSignChange`` is raised.

* ``sugeno_supmin`` evaluates the definitional sup-min on an even threshold
  sweep against a midpoint-grid distribution.  It is deliberately plain: it
  serves as an independent, assumption-free oracle.

Everything here is pure and re-entrant; results are deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .expressions import EvalError
from .measure import (
    DistributionProfile,
    GridScan,
    Monotonicity,
    MonotoneClosedForm,
    RealInterval,
    ScalarFunction,
    follows,
)

__all__ = [
    "SugenoError",
    "NoSignChange",
    "NegativeFunction",
    "IntegralMethod",
    "SugenoResult",
    "sugeno_fixed_point",
    "sugeno_supmin",
    "sugeno_supmin_exact",
    "sugeno_integral",
]

#: Points per round of the monotone crossing search; the first round's grid
#: is also the sample of every route's sign checks.
CROSSING_POINTS = 4097

#: Every SUBSAMPLE_STRIDE-th sample of the grid form estimates the crossing
#: rank, and the subsample values SUBSAMPLE_MARGIN ranks to either side of the
#: estimate bracket it (``_selected_supmin``).
SUBSAMPLE_STRIDE = 256
SUBSAMPLE_MARGIN = 8

#: The grid form evaluates its midpoints SAMPLE_BLOCK at a time (512 KiB per
#: float64 temporary), so every intermediate stays in cache
#: (``_grid_sample``).
SAMPLE_BLOCK = 1 << 16


class SugenoError(Exception):
    """Base class for integration failures."""


class NoSignChange(SugenoError):
    """F(beta) = beta has no solution on the bracket: F jumps across the diagonal."""


class NegativeFunction(SugenoError):
    """Sampling found the integrand below -1e-12 on the integration interval."""


class IntegralMethod(enum.Enum):
    FIXED_POINT = "fixed_point"
    SUPMIN_GRID = "supmin_grid"


@dataclass(frozen=True)
class SugenoResult:
    """Integral value plus how it was obtained.

    ``residual`` is the width of the final crossing cell for the monotone
    form of ``sugeno_integral`` and |F(value) - value| for
    ``sugeno_fixed_point``, both reported as ``FIXED_POINT``; it is the grid
    cell measure mu / n for ``sugeno_supmin_exact`` and the threshold spacing
    for ``sugeno_supmin``, both reported as ``SUPMIN_GRID``.
    """

    value: float
    method: IntegralMethod
    residual: float


def sugeno_fixed_point(profile: DistributionProfile, tol: float = 1e-9) -> SugenoResult:
    """Solve F(beta) = beta on [0, mu(A)] by bisection.

    Raises ``NoSignChange`` when the residual at the located crossing stays
    macroscopic even once the bracket is two adjacent floats, which signals
    a jump of F across the diagonal (no fixed point exists); callers should
    fall back to the sup-min form.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu = profile.A.length()
    if mu == 0.0:
        return SugenoResult(0.0, IntegralMethod.FIXED_POINT, 0.0)

    def gap(b: float) -> float:
        return profile.at(b) - b

    lo, hi = 0.0, mu
    g_lo = gap(lo)
    g_hi = gap(hi)
    if g_lo < 0.0 or g_hi > tol:
        # F(0) >= 0 and F(mu) <= mu always hold for a distribution function;
        # anything else means the profile is not one.
        raise NoSignChange(
            f"diagonal gap has no sign change on [0, {mu:g}]: h(0)={g_lo:g}, h(mu)={g_hi:g}"
        )
    if g_hi == 0.0:
        return SugenoResult(hi, IntegralMethod.FIXED_POINT, 0.0)
    plateau_tol = max(100.0 * tol, 8.0 * profile.resolution())
    # A steep F leaves a large gap at width tol too; only a bracket of two
    # adjacent floats (width 0) tells it apart from a jump.
    for width in (tol, 0.0):
        while hi - lo > width and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        residual = abs(gap(root))
        if residual <= plateau_tol:
            return SugenoResult(root, IntegralMethod.FIXED_POINT, residual)
    raise NoSignChange(
        f"no fixed point: |F(b) - b| = {residual:.3g} at b = {root:.6g} "
        "(distribution jumps across the diagonal)"
    )


def sugeno_supmin(f: ScalarFunction, A: RealInterval, n: int) -> SugenoResult:
    """Definitional sup-min on an even sweep of n+1 thresholds.

    Thresholds cover [0, max(sup_A f, mu(A))] (the sup estimated from the
    same midpoint sample the distribution uses), and the distribution is the
    grid count.  Accuracy is O(1/n); the point of this routine is to be an
    independent, assumption-free oracle, not to be sharp.
    """
    if n < 2:
        raise ValueError("need at least 2 thresholds")
    mu = A.length()
    if mu == 0.0:
        return SugenoResult(0.0, IntegralMethod.SUPMIN_GRID, 0.0)
    values = np.sort(np.asarray(f.evaluate(A.midpoints(n)), dtype=float))
    top = max(float(values[-1]), mu)
    if top <= 0.0:
        return SugenoResult(0.0, IntegralMethod.SUPMIN_GRID, 0.0)
    betas = np.linspace(0.0, top, n + 1)
    counts = n - np.searchsorted(values, betas, side="left")
    distribution = mu * (counts / n)
    value = float(np.max(np.minimum(betas, distribution)))
    return SugenoResult(value, IntegralMethod.SUPMIN_GRID, top / n)


def sugeno_supmin_exact(f: ScalarFunction, A: RealInterval, n: int = 1_000_000) -> SugenoResult:
    """Exact sup-min of the grid-sampled function.

    For the empirical step distribution of an n-point midpoint sample the sup
    over *all* thresholds has the closed form

        max over j in 1..n of min(j-th largest sample, j * mu / n),

    so no threshold sweep (and no sweep resolution loss) is involved.  The
    grid form of ``sugeno_integral``; e.g. constants come out exactly
    min(k, mu).  The sample is taken in cache-sized blocks (``_grid_sample``).
    The crossing is selected without sorting the whole sample
    (``_selected_supmin``) where a bracket can be proved, else found in the
    sample sorted in place.  Raises ``NegativeFunction`` when the smallest
    sample is below -1e-12.
    """
    if n < 1:
        raise ValueError("need at least 1 sample")
    mu = A.length()
    if mu == 0.0:
        return SugenoResult(0.0, IntegralMethod.SUPMIN_GRID, 0.0)
    values, low = _grid_sample(f, A, n)
    best = None
    if not math.isnan(low):  # with a NaN sample, np.min returns it; the sort puts it last
        _require_non_negative(low, A)
        best = _selected_supmin(values, mu)
    if best is None:
        values.sort()
        _require_non_negative(float(values[0]), A)
        best = _sorted_supmin(values, mu)
    return SugenoResult(max(best, 0.0), IntegralMethod.SUPMIN_GRID, mu / n)


def _grid_sample(f: ScalarFunction, A: RealInterval, n: int) -> tuple[np.ndarray, float]:
    """``f.evaluate(A.midpoints(n))`` as a float array, and its smallest value.

    Loop tiling: the midpoints are made and evaluated ``SAMPLE_BLOCK`` at a
    time in one reused buffer, by the operations ``midpoints`` does in its
    order (cell indices k + 0.5 are exact below 2**52), and each block's
    values are copied out (``f`` may return a view of the buffer) and
    reduced to their minimum.  ``evaluate`` must act elementwise.  A NaN
    sample makes the minimum NaN, as ``np.min`` of the whole sample would.
    When a block raises ``EvalError`` the whole sample is evaluated at once,
    so the error is the one the unblocked call raises, in tree order.  The
    returned array is new, so callers may sort it in place.
    """
    values = np.empty(n)
    h = A.length() / n
    cells = np.arange(min(n, SAMPLE_BLOCK), dtype=float)
    xs = np.empty_like(cells)
    lows = np.empty(-(-n // SAMPLE_BLOCK))
    for i, start in enumerate(range(0, n, SAMPLE_BLOCK)):
        x = xs[: min(SAMPLE_BLOCK, n - start)]
        np.add(cells[: x.size], start, out=x)
        x += 0.5
        x *= h
        x += A.lo
        try:
            y = f.evaluate(x)
        except EvalError:
            f.evaluate(A.midpoints(n))  # raises the unblocked call's error, in tree order
            raise
        block = values[start : start + x.size]
        block[...] = y
        lows[i] = np.min(block)
    return values, float(np.min(lows))


def _sorted_supmin(values: np.ndarray, mu: float) -> float:
    """max over j of min(v_j, j * mu / n) for v the descending ``values``.

    v_j does not grow and the level j * mu / n does not shrink with j, so
    the j with v_j >= level form a prefix 1..k.  The max is then the larger
    of the last level inside the prefix and the first sample past it, which
    are the same floats the full elementwise minimum would pick.
    """
    return _window_supmin(values[::-1], 0, mu, values.size)


def _window_supmin(desc: np.ndarray, first: int, mu: float, n: int) -> float:
    """``_sorted_supmin`` from the descending sample's ranks first .. first + desc.size - 1.

    The prefix of ranks with v_j >= level must end inside the window, or at n.
    """
    k = _prefix_end(desc, first, mu, n)
    best = (k / n) * mu if k else -np.inf
    if k < n:
        best = max(best, float(desc[k - first]))
    return float(best)


def _prefix_end(desc: np.ndarray, first: int, mu: float, n: int) -> int:
    """Binary search for k, the end of the prefix of (0-based) ranks j with
    v_j >= (j + 1) * mu / n, where ``desc`` holds v_first, v_first+1, ..."""
    k, past = first, first + desc.size
    while k < past:
        mid = (k + past) // 2
        if desc[mid - first] >= ((mid + 1) / n) * mu:
            k = mid + 1
        else:
            past = mid
    return k


def _selected_supmin(values: np.ndarray, mu: float) -> float | None:
    """``_sorted_supmin(np.sort(values), mu)`` without the full sort, or None.

    A sampling select (Floyd & Rivest, CACM 1975): the sorted subsample
    ``values[::SUBSAMPLE_STRIDE]`` estimates the crossing rank, its values
    ``SUBSAMPLE_MARGIN`` ranks to either side bracket the crossing, and only
    the samples inside the bracket are sorted.  The bracket is used only when
    the comparisons prove that the prefix of ``_sorted_supmin`` ends inside
    it and it holds at most half the sample; ties, plateaus, aliasing on the
    stride and tiny samples can fail that, and then None asks for the sort.
    """
    n = values.size
    sub = np.sort(values[::SUBSAMPLE_STRIDE])[::-1]
    i = _prefix_end(sub, 0, mu, sub.size)
    top = sub[i - SUBSAMPLE_MARGIN] if i >= SUBSAMPLE_MARGIN else np.inf
    bottom = sub[i + SUBSAMPLE_MARGIN] if i + SUBSAMPLE_MARGIN < sub.size else -np.inf
    above = values > top
    a = int(np.count_nonzero(above))  # the window starts at rank a ...
    inside = values >= bottom
    b = int(np.count_nonzero(inside))  # ... and ends before rank b
    # v_(a-1) > top >= its level, and v_(b-1) = bottom (a sample) < its level
    reached = a == 0 or top >= (a / n) * mu
    stopped = b == n or bottom < (b / n) * mu
    if not (reached and stopped and 2 * (b - a) <= n):
        return None
    inside ^= above
    return _window_supmin(np.sort(values[inside])[::-1], a, mu, n)


def _monotone_crossing(
    f: ScalarFunction, A: RealInterval, xs: np.ndarray, ys: np.ndarray, tol: float
) -> SugenoResult | None:
    """Monotone form of the integral, from the first round's sample (xs, ys).

    Returns None when a round's sample breaks the declared monotonicity.
    """
    increasing = f.monotonicity is Monotonicity.INCREASING
    lo, hi = A.lo, A.hi
    width = np.inf
    while True:
        if not follows(ys, f.monotonicity):
            return None
        # samples before the crossing: f under hi - x (increasing) or f at
        # or over x - lo (decreasing); k is the first sample past it
        near = ys < hi - xs if increasing else ys >= xs - lo
        k = int(np.argmin(near)) if not near.all() else xs.size
        i, j = max(k - 1, 0), min(k, xs.size - 1)
        x_l, x_r, f_l, f_r = float(xs[i]), float(xs[j]), float(ys[i]), float(ys[j])
        if x_r - x_l <= tol or x_r - x_l >= width:
            break
        width = x_r - x_l
        xs = np.linspace(x_l, x_r, CROSSING_POINTS)
        ys = np.asarray(f.evaluate(xs), dtype=float)
    value = max(hi - x_r, f_l) if increasing else max(x_l - lo, f_r)
    return SugenoResult(min(max(value, 0.0), hi - lo), IntegralMethod.FIXED_POINT, x_r - x_l)


def _require_non_negative(low: float, A: RealInterval) -> None:
    if low < -1e-12:
        raise NegativeFunction(f"integrand reaches {low:g} on [{A.lo:g}, {A.hi:g}]")


def sugeno_integral(
    f: ScalarFunction,
    A: RealInterval,
    tol: float = 1e-9,
    grid: int = 1_000_000,
    method: str = "auto",
) -> SugenoResult:
    """Integrate f over A, reporting which route produced the value.

    ``method`` is "auto" (the monotone crossing form when f carries a
    monotonicity hint, else the exact sup-min of a ``grid``-cell sample),
    "fixedpoint" (``sugeno_fixed_point`` on a closed-form or ``grid``-cell
    distribution; ``NoSignChange`` propagates) or "supmin" (oracle sweep).
    ``tol`` is the final crossing cell width of the monotone form and the
    bisection tolerance of the fixed-point route.
    """
    if method not in ("auto", "fixedpoint", "supmin"):
        raise ValueError(f"unknown method {method!r}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if grid < 1:
        raise ValueError("grid must be positive")
    # one guard sample: the sign checks of every route and the monotone form's first round
    xs = A.grid(CROSSING_POINTS)
    ys = np.asarray(f.evaluate(xs), dtype=float)
    _require_non_negative(float(np.min(ys)), A)
    if method == "supmin":
        return sugeno_supmin(f, A, grid)
    if float(np.max(ys)) <= 0.0:
        # sampled sup is zero: every positive level set is empty
        return SugenoResult(0.0, IntegralMethod.SUPMIN_GRID, 0.0)
    if method == "auto":
        if f.monotonicity is not Monotonicity.UNKNOWN:
            res = _monotone_crossing(f, A, xs, ys, tol)
            if res is not None:
                return res
        return sugeno_supmin_exact(f, A, grid)
    if f.monotonicity is Monotonicity.UNKNOWN:
        strategy: MonotoneClosedForm | GridScan = GridScan(grid)
    else:
        strategy = MonotoneClosedForm()
    return sugeno_fixed_point(DistributionProfile(f, A, strategy), tol)
