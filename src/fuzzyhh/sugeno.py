"""Sugeno integrals of non-negative functions on real intervals.

The integral is sup over beta >= 0 of min(beta, F(beta)), where F is the
level-set distribution function.  ``sugeno_integral`` (``method="auto"``)
finds that sup as one crossing search in one of three forms.  All of them
start from one 4097-point guard sample of [lo, hi], which also feeds the
sign check (``NegativeFunction`` below -1e-12).  Where the monotonicity
comes from is reported as ``hint``: "certified" when an interval extension
of the expression proved it, "declared" when the function's builder stated
it, "unknown" when the value rests on none.

* **Monotone form**, for f with a certified or declared direction.  The sup
  sits where f(x) crosses hi - x (f increasing) or x - lo (f decreasing).
  The guard sample is the first round; the cell where the sign of the gap
  changes is re-gridded with 4097 points until it is narrower than ``tol``.
  For increasing f, the cell [x_l, x_r] gives the value
  max(hi - x_r, f(x_l)); for decreasing f, max(x_l - lo, f(x_r)).
  Constants, plateaus and jumps are exact in this form, so no fallback is
  needed.  ``residual`` is the final cell width.  A sample that breaks the
  direction hands the call over to the grid form.

* **Piecewise form**, for f with an interval extension (every DSL
  expression) but no direction on its whole domain.  The turning cells of
  the guard sample propose monotone pieces and the extension proves each
  one with one interval evaluation; a piece that fails is bisected down to
  single guard cells, which are kept as gaps with their value enclosures.
  A gap whose enclosure reaches below the sign threshold is bisected until
  a point value proves f negative or the enclosures clear it; a piece's
  minimum is at its ends.  A single piece covering [lo, hi] takes the
  monotone form.  Otherwise each round brackets the sup-level between the
  sup-levels of a lower and an upper step bound of F, built from the
  pieces' samples and the gaps' enclosures, narrows every piece to the
  cells the bracket can still reach and re-grids them in one array call;
  a gap is bisected only while the bracket meets its enclosure.  It stops
  once the bracket is narrower than ``tol``, reports the bracket's lower
  end as ``FIXED_POINT`` with its width as ``residual``, and ``pieces`` is
  the number of certified pieces.  An integrand whose guard sample turns
  ``MAX_PIECES`` times or more is refused before any interval evaluation;
  more than ``MAX_PIECES`` pieces, ``INTERVAL_BUDGET`` interval evaluations
  spent, an enclosure that cannot be had or a gap at float resolution hand
  the call over to the grid form.

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

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .expressions import Enclosure, EvalError
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

#: The piecewise form integrates at most MAX_PIECES certified pieces: an
#: integrand whose guard sample turns more often, or that certifies into more
#: pieces, takes the grid form.
MAX_PIECES = 64

#: Interval evaluations one call may spend on certifying pieces, clearing the
#: sign guard and narrowing gaps before it hands over to the grid form.
INTERVAL_BUDGET = 128

#: Points per live piece in each round of the piecewise form after the first
#: (the guard sample).  A round narrows each piece to the few cells the
#: bracket reaches, so 513 points reach tol = 1e-9 in 3 or 4 rounds; a
#: round costs pieces * points, and CROSSING_POINTS per piece made the
#: many-piece integrands 2-4 times slower.
ROUND_POINTS = 513

#: The sign guard: an integrand value below this raises ``NegativeFunction``.
NEGATIVE_BELOW = -1e-12


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
    form of ``sugeno_integral``, the width of the final level bracket for its
    piecewise form and |F(value) - value| for ``sugeno_fixed_point``, all
    reported as ``FIXED_POINT``; it is the grid cell measure mu / n for
    ``sugeno_supmin_exact`` and the threshold spacing for ``sugeno_supmin``,
    both reported as ``SUPMIN_GRID``.  ``hint`` says where the monotonicity
    the value rests on came from ("certified", "declared", or "unknown" when
    it rests on none) and ``pieces`` how many monotone pieces it integrated
    (0 on the grid routes).
    """

    value: float
    method: IntegralMethod
    residual: float
    hint: str = "unknown"
    pieces: int = 0


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
    return SugenoResult(min(max(value, 0.0), hi - lo), IntegralMethod.FIXED_POINT, x_r - x_l,
                        f.hint, 1)


# -- the piecewise form --------------------------------------------------------
#
# A piece is a sample (xs, ys) of f over an interval the interval extension
# proved monotone, so on each cell [x_k, x_k+1] f lies between y_k and y_k+1.
# A gap (a, b, f(a), f(b), lo, hi) is an interval where it proved only
# lo <= f <= hi.  Every cell and gap of width w and value bounds [l, u] then
# bounds the level measure F from both sides:
#
#     sum of w over l >= beta  <=  F(beta)  <=  sum of w over u >= beta,
#
# and the sup-level of each step bound brackets the integral.


class _GiveUp(Exception):
    """The piecewise form cannot go on: the call takes the grid form."""


class _Certifier:
    """Interval evaluations of f's extension, counted against INTERVAL_BUDGET."""

    def __init__(self, f: ScalarFunction) -> None:
        self.f = f
        self.left = INTERVAL_BUDGET

    def enclose(self, a: float, b: float) -> Enclosure | None:
        if self.left == 0:
            raise _GiveUp("interval budget spent")
        self.left -= 1
        return self.f.extension(a, b)

    def split(self, gap: tuple, pieces: list, gaps: list) -> None:
        """Bisect a gap: each half becomes a piece (a two-point sample) if
        the extension proves it monotone, else a gap with its enclosure."""
        a, b, fa, fb, _, _ = gap
        m = 0.5 * (a + b)
        if not a < m < b:
            raise _GiveUp("gap at float resolution")
        try:
            fm = float(self.f.evaluate(m))
        except EvalError as exc:
            raise _GiveUp("not evaluable") from exc
        if fm < NEGATIVE_BELOW:
            raise NegativeFunction(f"integrand reaches {fm:g} at x = {m:g}")
        for lo, hi, f_lo, f_hi in ((a, m, fa, fm), (m, b, fm, fb)):
            e = self.enclose(lo, hi)
            if e is None:
                raise _GiveUp("no enclosure")
            if e.slope_lo >= 0.0 or e.slope_hi <= 0.0:
                pieces.append((np.array([lo, hi]), np.array([f_lo, f_hi])))
            else:
                gaps.append((lo, hi, f_lo, f_hi, e.lo, e.hi))


def _proposals(ys: np.ndarray) -> list[tuple[int, int, bool]]:
    """(i, j, turning): index ranges of the guard sample that cover it in order.

    The sample turns where a step beyond the ``follows`` slack goes against
    the previous such step; the two cells around each turn hold the turning
    point and form one turning range, merged with any it overlaps.  Between
    them lie the ranges the sample suggests are monotone.
    """
    dy = np.diff(ys)
    slack = 1e-11 * max(1.0, float(np.max(np.abs(ys))))
    steps = np.flatnonzero(np.abs(dy) > slack)
    up = dy[steps] > 0.0
    turns = steps[1:][up[1:] != up[:-1]]
    if turns.size >= MAX_PIECES:
        raise _GiveUp("too many turns")
    last = ys.size - 1
    out: list[tuple[int, int, bool]] = []
    start = 0
    for t in turns.tolist():
        i, j = max(t - 1, 0), min(t + 1, last)
        if i < start:
            out[-1] = (out[-1][0], j, True)
        else:
            if i > start:
                out.append((start, i, False))
            out.append((i, j, True))
        start = j
    if start < last:
        out.append((start, last, False))
    return out


def _certify(cert: _Certifier, xs: np.ndarray, ys: np.ndarray) -> list:
    """Pieces and gaps covering the guard sample's interval, in order.

    Each proposed range is proved monotone by one interval evaluation; a
    monotone range that fails (or that the extension cannot bound) is
    bisected down to single cells, and turning ranges and single cells that
    fail are kept as gaps.  Adjacent pieces that share a direction are
    merged.  A piece is [i, j, up, down] (sample indices and the directions
    proved), a gap the tuple of ``_Certifier.split``.
    """
    spans: list = []
    stack = _proposals(ys)[::-1]
    while stack:
        i, j, turning = stack.pop()
        e = cert.enclose(xs[i], xs[j])
        up = e is not None and e.slope_lo >= 0.0
        down = e is not None and e.slope_hi <= 0.0
        if up or down:
            prev = spans[-1] if spans else None
            if isinstance(prev, list) and prev[1] == i and (prev[2] and up or prev[3] and down):
                prev[1:] = [j, prev[2] and up, prev[3] and down]
            else:
                spans.append([i, j, up, down])
        elif j - i > 1 and not turning:
            mid = (i + j) // 2
            stack += [(mid, j, False), (i, mid, False)]
        elif e is None:
            raise _GiveUp("no enclosure")
        else:
            spans.append((float(xs[i]), float(xs[j]), float(ys[i]), float(ys[j]), e.lo, e.hi))
    return spans


def _clear_sign(cert: _Certifier, pieces: list, gaps: list) -> list:
    """The gaps, bisected until every enclosure clears the sign guard.

    A piece's minimum is at its ends, which are guard samples or bisection
    points; a gap whose enclosure reaches below NEGATIVE_BELOW is bisected
    until a point value proves f negative (``NegativeFunction``) or the
    enclosures of its parts clear the threshold.
    """
    cleared: list = []
    while gaps:
        gap = gaps.pop()
        if gap[4] >= NEGATIVE_BELOW:
            cleared.append(gap)
        else:
            cert.split(gap, pieces, gaps)
    return cleared


def _sup_level(levels: np.ndarray, weights: np.ndarray, settled: float) -> float:
    """The largest beta with settled + (the weights of the levels >= beta) >= beta,
    for ``levels`` in descending order: the sup-level of that step function."""
    if levels.size == 0:
        return settled
    reach = np.cumsum(weights)
    reach += settled
    return max(settled, float(np.max(np.minimum(levels, reach))))


def _piecewise_crossing(cert: _Certifier, mu: float, pieces: list, gaps: list,
                        tol: float) -> SugenoResult:
    """The sup-level of f from certified pieces and gaps.

    Each round brackets the integral between the sup-levels of the lower and
    the upper step bound of F, from one sort of every sample value and gap
    bound: a cell's width counts at its smaller end value in the lower bound
    and at its larger one in the upper bound.  Cells and gaps entirely above
    the bracket count in full from then on, those below drop out; each piece
    is narrowed to the cells the bracket still reaches and re-gridded with
    ROUND_POINTS points (all pieces in one array call), and a gap whose
    enclosure meets the bracket is bisected.  The search stops once the
    bracket is narrower than ``tol``, or stops shrinking with no gap left to
    bisect, and reports its lower end with its width as residual.
    """
    count = len(pieces)
    s_lo, s_hi, settled, width, bisected = 0.0, mu, 0.0, math.inf, False
    while True:
        xs = np.concatenate([p[0] for p in pieces] or [np.empty(0)])
        ys = np.concatenate([p[1] for p in pieces] or [np.empty(0)])
        ends = np.cumsum([p[0].size for p in pieces], dtype=int)
        n = ys.size
        inner = np.ones(max(n - 1, 0), dtype=bool)
        inner[ends[:-1] - 1] = False  # no cell joins two pieces
        dx = np.where(inner, np.diff(xs), 0.0)
        on_left = np.where(ys[:-1] <= ys[1:], dx, 0.0)  # a cell's width at its smaller end
        on_right = dx - on_left
        span = [g[1] - g[0] for g in gaps]
        levels = np.concatenate([ys, [g[4] for g in gaps], [g[5] for g in gaps]])
        to_low = np.zeros(levels.size)
        to_high = np.zeros(levels.size)
        if n:
            to_low[: n - 1] = on_left
            to_low[1:n] += on_right
            to_high[: n - 1] = on_right
            to_high[1:n] += on_left
        to_low[n : n + len(gaps)] = span
        to_high[n + len(gaps) :] = span
        order = np.argsort(levels)[::-1]
        levels = levels[order]
        lo = _sup_level(levels, to_low[order], settled)
        hi = _sup_level(levels, to_high[order], settled)
        s_lo, s_hi = max(s_lo, min(lo, s_hi)), min(s_hi, max(hi, s_lo))
        if s_hi - s_lo <= tol or s_hi - s_lo >= width and not bisected:
            break
        width = s_hi - s_lo
        low, high = np.minimum(ys[:-1], ys[1:]), np.maximum(ys[:-1], ys[1:])
        live = np.flatnonzero(inner & (high >= s_lo) & (low <= s_hi))
        above = np.concatenate([[0.0], np.cumsum(np.where(low > s_hi, dx, 0.0))])
        grids = []
        start = 0
        for end in ends.tolist():
            first, past = np.searchsorted(live, (start, end - 1))
            if first == past:  # no cell in reach
                settled += above[end - 1] - above[start]
            else:
                k, j = int(live[first]), int(live[past - 1]) + 1
                settled += above[k] - above[start] + above[end - 1] - above[j]
                grids.append(np.linspace(xs[k], xs[j], ROUND_POINTS))
            start = end
        pieces, live_gaps, bisected = [], [], False
        for gap in gaps:
            if gap[4] > s_hi:
                settled += gap[1] - gap[0]
            elif gap[5] >= s_lo:
                cert.split(gap, pieces, live_gaps)
                bisected = True
        gaps = live_gaps
        if grids:
            try:
                values = np.asarray(cert.f.evaluate(np.concatenate(grids)), dtype=float)
            except EvalError as exc:
                raise _GiveUp("not evaluable") from exc
            pieces += [(g, values[k * ROUND_POINTS : (k + 1) * ROUND_POINTS])
                       for k, g in enumerate(grids)]
    return SugenoResult(max(s_lo, 0.0), IntegralMethod.FIXED_POINT, s_hi - s_lo, "certified", count)


def _piecewise(f: ScalarFunction, A: RealInterval, xs: np.ndarray, ys: np.ndarray,
               tol: float) -> SugenoResult:
    """Piecewise form: certify monotone pieces of f on A from the guard
    sample (xs, ys), clear the sign guard on the gaps, then search the
    crossing over them.  A single piece covering A goes through
    ``_monotone_crossing``.  Raises ``_GiveUp`` for the grid form."""
    cert = _Certifier(f)
    spans = _certify(cert, xs, ys)
    if len(spans) == 1 and isinstance(spans[0], list):
        mono = Monotonicity.INCREASING if spans[0][2] else Monotonicity.DECREASING
        res = _monotone_crossing(dataclasses.replace(f, monotonicity=mono), A, xs, ys, tol)
        if res is None:
            raise _GiveUp("sample breaks the certified direction")
        return res
    pieces = [(xs[s[0] : s[1] + 1], ys[s[0] : s[1] + 1]) for s in spans if isinstance(s, list)]
    if len(pieces) > MAX_PIECES:
        raise _GiveUp("too many pieces")
    gaps = _clear_sign(cert, pieces, [s for s in spans if isinstance(s, tuple)])
    return _piecewise_crossing(cert, A.length(), pieces, gaps, tol)


def _require_non_negative(low: float, A: RealInterval) -> None:
    if low < NEGATIVE_BELOW:
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
    monotonicity hint, the piecewise form when f has an interval extension
    and certified pieces on A, else the exact sup-min of a ``grid``-cell
    sample), "fixedpoint" (``sugeno_fixed_point`` on a closed-form or
    ``grid``-cell distribution; ``NoSignChange`` propagates) or "supmin"
    (oracle sweep).  ``tol`` is the final crossing cell width of the
    monotone form, the final level bracket of the piecewise form and the
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
        elif f.extension is not None and A.length() > 0.0:
            try:
                return _piecewise(f, A, xs, ys, tol)
            except _GiveUp:
                pass
        return sugeno_supmin_exact(f, A, grid)
    if f.monotonicity is Monotonicity.UNKNOWN:
        return sugeno_fixed_point(DistributionProfile(f, A, GridScan(grid)), tol)
    res = sugeno_fixed_point(DistributionProfile(f, A, MonotoneClosedForm()), tol)
    return dataclasses.replace(res, hint=f.hint, pieces=1)
