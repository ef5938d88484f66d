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
  The guard sample is the first round.  Each later round samples the cell
  where the gap g = f - (hi - x) (f - (x - lo)) changes sign at ``LADDER``
  around g's root by inverse quadratic interpolation, in one array call,
  until the cell is narrower than ``tol`` (one round for smooth f at the
  default ``tol``).  After a round that falls short of a uniform one (a
  jump, kink or plateau at the crossing) the cell is re-gridded uniformly.
  For increasing f, the cell [x_l, x_r] gives the value
  max(hi - x_r, f(x_l)); for decreasing f, max(x_l - lo, f(x_r)).
  Constants, plateaus and jumps are exact in this form, so no fallback is
  needed.  ``residual`` is the final cell width.  A sample that breaks the
  direction hands the call over to the grid form.

* **Piecewise form**, for f with an interval extension (every DSL
  expression) but no direction on its whole domain.  The turning cells of
  the guard sample propose monotone pieces and the extension proves each one
  with one interval evaluation; a piece that fails is bisected down to
  single guard cells, kept as gaps.  A single piece covering [lo, hi] takes
  the monotone form.  Otherwise f is held as cells with bounds on f: a
  monotone cell's are its end values, a gap's its enclosure, and adjacent
  flat cells of one level merge.  One bisection, into monotone cells and
  gaps, serves the sign guard (every gap whose enclosure reaches below the
  sign threshold, until a point value proves f negative or the enclosures
  clear it) and the rounds.  Each round brackets the sup-level between those
  of a lower and an upper step bound of F built from the cell bounds; cells
  above the bracket settle, cells below drop out.  The first round reads it
  from the pieces' runs of guard samples (a searchsorted position and the
  run's x-ends give each run's measure above a level), so only the cells that
  can hold the crossing become cells.  Each later round sorts its cells'
  range ends once for both step bounds and the piecewise-linear interpolant
  of F, whose crossing level b^ one Newton step on the inverse-quadratic
  interpolant corrects, and in one array call splits every live monotone cell
  whose range holds b^ at a geometric ladder (``LADDER``) around its
  inverse-quadratic crossing (through the far end of an adjacent monotone cell
  that runs the same way, else the chord), keeping the other live monotone
  cells and bisecting the live gaps.  It stops once the bracket is at most
  ``tol`` (one ladder round for quadratic and linear pieces, one or two for a
  few periods of abs(sin)), or when a round can place no new point and has no
  gap to bisect, and reports the bracket's lower end as ``FIXED_POINT`` with
  its width as ``residual``; ``pieces`` counts the certified pieces.  A guard
  sample that turns ``MAX_PIECES`` times or more is refused before any
  interval evaluation; ``INTERVAL_BUDGET`` interval evaluations spent, an
  enclosure or a midpoint value that cannot be had, or a gap at float
  resolution hand the call over to the grid form.

* **Grid form**, for every other f.  The sup over *all* thresholds of the
  midpoint-sampled function, ``sugeno_supmin_exact``.  A sorted subsample
  brackets its crossing, in descending order, with the levels j * mu / n.
  The n-point sample is then taken ``SAMPLE_BLOCK`` points at a time (the
  same floats as one whole-array call), but a block whose interval enclosure
  clears the bracket by its width (at least 1e-11 * max(1, |top|), far beyond
  the ulp by which numpy's exp, log and pow may differ from ``math``'s) is
  counted unevaluated.  The crossing is binary-searched in the sorted samples
  inside the bracket where the counts prove it, else in the whole sample.
  ``residual`` is the cell measure mu / n.  A NaN sample raises ``EvalError``.

Two more routes stay as oracles:

* ``sugeno_fixed_point`` integrates a monotone f as sup{b : F(b) >= b}
  with ``measure.solve_beta``, F from the closed-form
  ``DistributionProfile``.  ``solve_beta`` is the one bracketing solver of
  the package: the profile finds each level set's measure with it, and
  every bound of ``bounds`` is the same problem for a majorant.  Plateaus,
  jumps and steep stretches of F need no special case, since its search
  (ITP over float bit patterns) ends on adjacent floats whatever F does
  between them, so the value is exact to the float.  It is a library and
  test oracle: ``sugeno_integral`` never calls it.

* ``sugeno_supmin`` evaluates the definitional sup-min on an even threshold
  sweep against the grid form's sample and sign check, with a threshold search
  of its own that checks the grid form's search; ``method="supmin"`` selects it.

Everything here is pure and re-entrant; results are deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .expressions import Enclosure, EvalError
from .measure import (
    DistributionProfile,
    Monotonicity,
    RealInterval,
    ScalarFunction,
    follows,
    solve_beta,
    step_slack,
)

__all__ = [
    "SugenoError",
    "NegativeFunction",
    "IntegralMethod",
    "SugenoResult",
    "solve_beta",
    "sugeno_fixed_point",
    "sugeno_supmin",
    "sugeno_supmin_exact",
    "sugeno_integral",
]

#: The default grid of ``sugeno_integral``, ``sugeno_supmin_exact`` and the
#: bounds' ``verify_fuzzy_hh``: the cells of a sampled distribution, or the
#: thresholds of the "supmin" method.
DEFAULT_GRID = 1_000_000

#: Points of the guard sample, the first round of every form and the sample
#: of every route's sign checks, and of the monotone form's uniform re-grids.
CROSSING_POINTS = 4097

#: Every SUBSAMPLE_STRIDE-th sample of the grid form, evaluated first,
#: estimates the crossing rank, and the subsample values SUBSAMPLE_MARGIN ranks
#: to either side of the estimate bracket it (``_grid_supmin``).
SUBSAMPLE_STRIDE = 256
SUBSAMPLE_MARGIN = 8

#: The grid form evaluates its midpoints SAMPLE_BLOCK at a time (512 KiB per
#: float64 temporary), so every intermediate stays in cache; a block whose
#: enclosure clears the bracket by its width (at least 1e-11 * max(1, |top|),
#: beyond numpy's libm differences) is counted unevaluated (``_grid_supmin``).
SAMPLE_BLOCK = 1 << 16

#: A guard sample that turns MAX_PIECES times or more takes the grid form
#: before any interval evaluation (``_proposals``).
MAX_PIECES = 64

#: Interval evaluations one call may spend on certifying pieces, clearing the
#: sign guard and narrowing gaps before it hands over to the grid form.
INTERVAL_BUDGET = 128

#: The ladder of both crossing forms, in cell widths.  After the guard sample,
#: each round splits a crossing cell at its interpolated crossing x^ (the
#: monotone form's crossing cell; in the piecewise form, every live cell whose
#: value range holds the interpolated crossing level, at its inverse-quadratic
#: crossing) and at x^ +- 2**-k of its width for k = 1, 3, 7, 11, ..., 39
#: (points past the cell fall on its ends).  Wherever the crossing lies, it lands in a
#: sub-cell at most 16 times wider than its distance from x^ or at most 2**-39
#: of the cell wide, and the +-1/2 points halve the cell however wrong x^ is.
LADDER = np.sort([0.0] + [s * 2.0**-k for k in (1, *range(3, 40, 4)) for s in (-1.0, 1.0)])

#: The sign guard: an integrand value below this raises ``NegativeFunction``.
NEGATIVE_BELOW = -1e-12


class SugenoError(Exception):
    """Base class for integration failures."""


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
    piecewise form and the final float bracket of ``sugeno_fixed_point``
    (the gap to the next float, 0 at a saturated value), all reported as
    ``FIXED_POINT``; it is the grid cell measure mu / n for
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


def sugeno_fixed_point(profile: DistributionProfile) -> SugenoResult:
    """sup{b in [0, mu(A)] : F(b) >= b} by ``solve_beta``, F the profile's;
    ``residual`` is the final float bracket."""
    value, width, _ = solve_beta(profile.at, profile.A.length())
    return SugenoResult(value, IntegralMethod.FIXED_POINT, width)


def sugeno_supmin(f: ScalarFunction, A: RealInterval, n: int) -> SugenoResult:
    """Definitional sup-min on an even sweep of n+1 thresholds.

    Thresholds cover [0, max(sup_A f, mu(A))], the sup estimated from the grid
    form's midpoint sample (``_grid_sample``), whose count is the distribution
    and whose sign check raises ``NegativeFunction`` below -1e-12 and
    ``EvalError`` for NaN.  Accuracy is O(1/n): an independent, assumption-free
    oracle, not a sharp one.  The thresholds rise and the distribution does
    not, so its own binary search finds the sup-min.
    """
    if n < 2:
        raise ValueError("need at least 2 thresholds")
    mu = A.length()
    if mu == 0.0:
        return SugenoResult(0.0, IntegralMethod.SUPMIN_GRID, 0.0)
    values, low = _grid_sample(f, A, n)
    _require_non_negative(low, A)
    values.sort()
    top = max(float(values[-1]), mu)
    step = top / n

    def level(j: int) -> tuple[float, float]:
        """Threshold j, the float of np.linspace(0, top, n + 1), and the distribution there."""
        beta = top if j == n else (j / n) * top + 0.0 if step == 0.0 else j * step + 0.0
        return beta, mu * ((n - int(values.searchsorted(beta))) / n)

    j, past = 0, n + 1  # the last j whose threshold is at most its distribution
    while past - j > 1:
        mid = (j + past) // 2
        beta, share = level(mid)
        if beta <= share:
            j = mid
        else:
            past = mid
    value = top if j == n else max(level(j)[0], level(j + 1)[1])
    return SugenoResult(value, IntegralMethod.SUPMIN_GRID, top / n)


def sugeno_supmin_exact(f: ScalarFunction, A: RealInterval, n: int = DEFAULT_GRID) -> SugenoResult:
    """Exact sup-min of the grid-sampled function.

    For the empirical step distribution of an n-point midpoint sample the sup
    over *all* thresholds has the closed form

        max over j in 1..n of min(j-th largest sample, j * mu / n),

    so no threshold sweep (and no sweep resolution loss) is involved.  The
    grid form of ``sugeno_integral``; e.g. constants come out exactly
    min(k, mu).  One blocked pass (``_grid_supmin``) brackets the crossing
    from a subsample and leaves out the blocks whose interval enclosure clears
    the bracket by its width (at least 1e-11 * max(1, |top|)), which gives
    the whole sample's value while numpy's functions stay that close to the
    ``math`` ones the enclosure uses.  Raises ``NegativeFunction`` when the
    smallest sample is below -1e-12, ``EvalError`` when it is NaN.
    """
    if n < 1:
        raise ValueError("need at least 1 sample")
    mu = A.length()
    if mu == 0.0:
        return SugenoResult(0.0, IntegralMethod.SUPMIN_GRID, 0.0)
    return SugenoResult(max(_grid_supmin(f, A, n), 0.0), IntegralMethod.SUPMIN_GRID, mu / n)


def _grid_values(f: ScalarFunction, A: RealInterval, n: int, x: np.ndarray) -> np.ndarray:
    """f at the midpoints of A's n cells numbered by the floats ``x``, written
    over x: the floats of ``f.evaluate(A.midpoints(n))`` there, by the
    operations ``midpoints`` does in its order (cell indices k + 0.5 are exact
    below 2**52), so ``evaluate`` must act elementwise.  An ``EvalError`` is
    the one the whole sample raises, in tree order."""
    x += 0.5
    x *= A.length() / n
    x += A.lo
    try:
        x[...] = f.evaluate(x)
    except EvalError:
        f.evaluate(A.midpoints(n))  # raises the unblocked call's error, in tree order
        raise
    return x


def _grid_blocks(f: ScalarFunction, A: RealInterval, n: int, values: np.ndarray, starts: Iterable):
    """Evaluates the ``SAMPLE_BLOCK`` cells from each of ``starts`` into their
    slot of ``values`` and yields the slot."""
    cells = np.arange(min(n, SAMPLE_BLOCK), dtype=float)
    for start in starts:
        x = values[start : start + SAMPLE_BLOCK]
        yield _grid_values(f, A, n, np.add(cells[: x.size], start, out=x))


def _grid_sample(f: ScalarFunction, A: RealInterval, n: int) -> tuple[np.ndarray, float]:
    """``f.evaluate(A.midpoints(n))`` as a new float array, taken in blocks
    (``_grid_blocks``), and its smallest value.  A NaN sample makes the
    minimum NaN (the sign guard rejects it), as in ``np.min``."""
    values = np.empty(n)
    lows = [np.min(y) for y in _grid_blocks(f, A, n, values, range(0, n, SAMPLE_BLOCK))]
    return values, float(np.min(lows))


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


def _grid_supmin(f: ScalarFunction, A: RealInterval, n: int) -> float:
    """max over j of min(v_j, j * mu / n) for v the descending midpoint
    sample ``f.evaluate(A.midpoints(n))``, after its sign check.

    v_j does not grow and the level j * mu / n does not shrink with j, so the
    j with v_j >= level form a prefix 1..k, and the max is the larger of the
    last level in it and the first sample past it.  A sampling select (Floyd
    & Rivest, CACM 1975): the sorted subsample of every SUBSAMPLE_STRIDE-th
    midpoint, evaluated first, estimates k, and its values SUBSAMPLE_MARGIN
    ranks to either side, top and bottom, bracket it.  Each SAMPLE_BLOCK block
    then counts its samples above top and at or above bottom, and keeps those
    in between.  A block whose enclosure lies above top + d, or below
    bottom - d and not below the sign threshold, is counted unevaluated, d the
    bracket's width but at least ``step_slack``'s 1e-11 * max(1, |top|): the
    extension bounds the real function, and numpy's exp, log and pow are
    assumed within an ulp of ``math``'s (so they were over 2e5 draws on
    x86_64, and sin, cos and sqrt agreed exactly), far inside d.  Where the
    counts prove the bracket, only the kept window is sorted; otherwise (ties,
    plateaus, aliasing on the stride, tiny samples) and when the sign check
    fails, so that its message gives the whole sample's minimum, the skipped
    blocks are evaluated and the whole sample is sorted in place.
    """
    mu, h = A.length(), A.length() / n
    sub = np.sort(_grid_values(f, A, n, np.arange(0, n, SUBSAMPLE_STRIDE, dtype=float)))[::-1]
    i = _prefix_end(sub, 0, mu, sub.size)
    top = float(sub[i - SUBSAMPLE_MARGIN]) if i >= SUBSAMPLE_MARGIN else np.inf
    bottom = float(sub[i + SUBSAMPLE_MARGIN]) if i + SUBSAMPLE_MARGIN < sub.size else -np.inf
    d = max(top - bottom, 1e-11 * max(1.0, abs(top)))
    ext = f.extension if 0.0 < top - bottom < np.inf else None
    kept, skipped, a = [], [], 0  # the window starts at rank a ...
    for start in range(0, n, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, n)
        e = ext and ext((start + 0.5) * h + A.lo, (stop - 0.5) * h + A.lo)
        above = e is not None and e.lo > top + d
        a += above * (stop - start)
        (skipped if above or e and e.hi < bottom - d and e.lo >= NEGATIVE_BELOW else kept).append(start)
    values, lows, window, b = np.empty(n), [], [], a  # ... and ends before rank b
    for y in _grid_blocks(f, A, n, values, kept):
        lows.append(np.min(y))
        a += int(np.count_nonzero(y > top))
        inside = y >= bottom
        b += int(np.count_nonzero(inside))
        inside &= y <= top
        window.append(y[inside])
    # v_(a-1) > top >= its level, and v_(b-1) = bottom (a sample) < its level
    reached = a == 0 or top >= (a / n) * mu
    stopped = b == n or bottom < (b / n) * mu
    if np.min(lows) >= NEGATIVE_BELOW and reached and stopped:
        desc = np.sort(np.concatenate(window))[::-1]
    else:
        lows += [np.min(y) for y in _grid_blocks(f, A, n, values, skipped)]
        _require_non_negative(float(np.min(lows)), A)
        values.sort()
        a, desc = 0, values[::-1]
    k = _prefix_end(desc, a, mu, n)
    best = (k / n) * mu if k else -np.inf
    if k < n:
        best = max(best, float(desc[k - a]))
    return float(best)


class _GiveUp(Exception):
    """A crossing form cannot go on: the call takes the grid form."""


def _monotone_crossing(
    f: ScalarFunction, A: RealInterval, xs: np.ndarray, ys: np.ndarray, tol: float,
    direction: Monotonicity, hint: str,
) -> SugenoResult:
    """Monotone form of the integral of f, which runs in ``direction`` on A,
    from the first round's sample (xs, ys): ``LADDER`` rounds around the
    gap's interpolated root, uniform ones once a round falls short.  Raises
    ``_GiveUp`` for the grid form when a round's sample breaks the
    direction; the result carries ``hint``.
    """
    increasing = direction is Monotonicity.INCREASING
    lo, hi = A.lo, A.hi
    width, ladder = np.inf, True
    while True:
        if not follows(ys, direction):
            raise _GiveUp("sample breaks the direction")
        # the gap g = f - (hi - x) (f - (x - lo) for decreasing f) changes
        # sign at the crossing; k is the first sample past it
        gap = ys - (hi - xs if increasing else xs - lo)
        near = gap < 0.0 if increasing else gap >= 0.0
        k = int(near.argmin()) if not near.all() else xs.size
        i, j = max(k - 1, 0), min(k, xs.size - 1)
        x_l, x_r, f_l, f_r = float(xs[i]), float(xs[j]), float(ys[i]), float(ys[j])
        if x_r - x_l <= tol or x_r - x_l >= width:
            break
        # a jump, kink or plateau at the crossing leaves the ladder's cell wider
        ladder = ladder and x_r - x_l <= width / (CROSSING_POINTS - 1)
        width = x_r - x_l
        if ladder:
            # g's root through the three samples around its sign change, or the midpoint
            m = min(max(i - 1, 0), xs.size - 3)
            (x0, x1, x2), (g0, g1, g2) = xs[m : m + 3].tolist(), gap[m : m + 3].tolist()
            est = 0.5 * (x_l + x_r)
            if g0 != g1 != g2 != g0:
                d01, d12 = (x1 - x0) / (g1 - g0), (x2 - x1) / (g2 - g1)
                root = x0 - g0 * d01 + g0 * g1 * (d12 - d01) / (g2 - g0)
                est = root if x_l <= root <= x_r else est
            xs = est + LADDER * width
            xs = np.concatenate(([x_l], xs[(xs > x_l) & (xs < x_r)], [x_r]))
            if xs.size == 2:  # no float inside the cell
                break
            ys = np.concatenate(([f_l], np.asarray(f.evaluate(xs[1:-1]), dtype=float), [f_r]))
        else:
            xs = np.linspace(x_l, x_r, CROSSING_POINTS)
            ys = np.asarray(f.evaluate(xs), dtype=float)
    value = max(hi - x_r, f_l) if increasing else max(x_l - lo, f_r)
    return SugenoResult(min(max(value, 0.0), hi - lo), IntegralMethod.FIXED_POINT, x_r - x_l,
                        hint, 1)


# -- the piecewise form --------------------------------------------------------
#
# The piecewise form holds f on A as one set of cells, a 7 x n array whose rows
# are x_l, x_r, f(x_l), f(x_r), lo, hi and monotone (1.0 or 0.0); a cell row is
# one column.
# On a cell the interval extension proved monotone, f lies between its end
# values, and lo, hi are those; any other cell (a gap) has the bounds
# lo <= f <= hi of its enclosure.  Every cell of width w then bounds the
# level measure F from both sides:
#
#     sum of w over lo >= beta  <=  F(beta)  <=  sum of w over hi >= beta,
#
# and the sup-level of each step bound brackets the integral.


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

    def bisect(self, gaps: Iterable[tuple]) -> list:
        """The halves of the gap rows, as cell rows.  Each gap is split at
        its midpoint, where f is evaluated, and each half is a monotone cell
        if the extension proves it monotone, else a gap with its enclosure."""
        halves = []
        for a, b, fa, fb, *_ in gaps:
            m = 0.5 * (a + b)
            if not a < m < b:
                raise _GiveUp("gap at float resolution")
            try:
                fm = float(self.f.evaluate(m))
            except EvalError as exc:
                raise _GiveUp("not evaluable") from exc
            if fm < NEGATIVE_BELOW:
                raise NegativeFunction(f"integrand reaches {fm:g} at x = {m:g}")
            for x0, x1, y0, y1 in ((a, m, fa, fm), (m, b, fm, fb)):
                e = self.enclose(x0, x1)
                if e is None:
                    raise _GiveUp("no enclosure")
                if e.slope_lo >= 0.0 or e.slope_hi <= 0.0:  # as np.minimum(y0, y1) picks zeros
                    halves.append((x0, x1, y0, y1, min(y1, y0), max(y1, y0), True))
                else:
                    halves.append((x0, x1, y0, y1, e.lo, e.hi, False))
        return halves


def _cells(rows: list) -> np.ndarray:
    """The cell array of a list of cell rows."""
    return np.array(rows, dtype=float).reshape(-1, 7).T


def _monotone_cells(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Cells [x0, x1], monotone between end values y0, y1; flat runs of one level merge."""
    flat = np.flatnonzero((y0 == y1) & (x0 < x1))
    if flat.size > 1:  # each merged stretch ends before the first cell of the next
        c = flat[1:][flat[1:] - flat[:-1] == 1]
        first = np.delete(np.arange(y0.size), c[(y0[c] == y0[c - 1]) & (x0[c] == x1[c - 1])])
        x0, x1, y0, y1 = x0[first], x1[np.append(first[1:], y0.size) - 1], y0[first], y1[first]
    return np.array((x0, x1, y0, y1, np.minimum(y0, y1), np.maximum(y0, y1), np.ones(y0.size)))


def _proposals(ys: np.ndarray) -> list[tuple[int, int, bool]]:
    """(i, j, turning): index ranges of the guard sample that cover it in order.

    The sample turns where a step beyond ``step_slack`` goes against
    the previous such step; the two cells around each turn hold the turning
    point and form one turning range, merged with any it overlaps.  Between
    them lie the ranges the sample suggests are monotone.
    """
    dy = np.diff(ys)
    steps = np.flatnonzero(np.abs(dy) > step_slack(ys))
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


def _certify(cert: _Certifier, xs: np.ndarray, ys: np.ndarray) -> tuple[list, list]:
    """The certified pieces and the gaps covering the guard sample's interval.

    Each proposed range is proved monotone by one interval evaluation; a
    monotone range that fails (or that the extension cannot bound) is
    bisected down to single cells, a proposal of over three cells first into
    its end cells and middle (stacked with turning None); turning ranges and
    failing single cells are kept as gaps, cell rows with their enclosures.
    Adjacent pieces of one direction merge; a piece is [i, j, up, down].
    """
    pieces, gaps = [], []
    stack = _proposals(ys)[::-1]
    while stack:
        i, j, turning = stack.pop()
        e = cert.enclose(xs[i], xs[j])
        up = e is not None and e.slope_lo >= 0.0
        down = e is not None and e.slope_hi <= 0.0
        if up or down:
            prev = pieces[-1] if pieces else None
            if prev and prev[1] == i and (prev[2] and up or prev[3] and down):  # no gap between
                prev[1:] = [j, prev[2] and up, prev[3] and down]
            else:
                pieces.append([i, j, up, down])
        elif j - i > 3 and turning is False:
            stack += [(j - 1, j, None), (i + 1, j - 1, None), (i, i + 1, None)]
        elif j - i > 1 and not turning:
            mid = (i + j) // 2
            stack += [(mid, j, None), (i, mid, None)]
        elif e is None:
            raise _GiveUp("no enclosure")
        else:
            gaps.append((float(xs[i]), float(xs[j]), float(ys[i]), float(ys[j]), e.lo, e.hi, False))
    return pieces, gaps


def _interpolated_level(low: np.ndarray, high: np.ndarray, w: np.ndarray, settled: float,
                        s_lo: float, s_hi: float, tol: float) -> tuple:
    """The bracket narrowed to the sup-levels of the lower and the upper step
    bound of F, and in it the crossing b of the diagonal with the interpolant
    of F in which a cell of width w and range [low, high] adds
    w * clip((high - b) / (high - low), 0, 1) to the settled measure, with the
    linear stretch (e0, e1, slope) holding b, or None where b is not its root
    (a jump of F, an end of the bracket, or a bracket within tol).  One sort
    of the range ends serves all three: at each end the cells whose low (high)
    end is at or above it count in the lower (upper) step bound, and at the
    ends around the bracket each cell whose range holds one strictly adds its
    fraction to the interpolant, which is linear between them."""
    ends = np.sort(np.concatenate(([s_lo, s_hi], low, high)))
    first = ends.searchsorted(low, "right")  # a cell counts in full at ends[:first] ...
    last = ends.searchsorted(high, "right")  # ... and in the upper step bound at ends[:last]
    full, upper = (np.bincount(k, w, ends.size + 1)[::-1].cumsum()[::-1][1:] for k in (first, last))
    lower, upper = np.minimum(ends, np.array((full, upper)) + settled).max(axis=1).tolist()
    s_lo = max(s_lo, min(max(settled, lower), s_hi))
    s_hi = min(s_hi, max(max(settled, upper), s_lo))
    if s_hi - s_lo <= tol:
        return s_lo, s_hi, s_lo, None
    i = int(ends.searchsorted(s_lo, "right")) - 1
    j = max(int(ends.searchsorted(s_hi)), i) + 1
    # the (cell, end) pairs with low < end <= high among ends[i:j], cell by cell
    first = np.maximum(first, i)
    inner = np.maximum(np.minimum(last, j) - first, 0)
    cell = np.repeat(np.arange(low.size), inner)
    at = np.arange(cell.size) + np.repeat(first + inner - inner.cumsum(), inner)
    part = w[cell] * (high[cell] - ends[at]) / (high[cell] - low[cell])
    ends = ends[i:j]
    excess = full[i:j] + np.bincount(at - i, part, ends.size) + settled - ends  # falls as b rises
    k = int((excess < 0.0).argmax())  # the first end past the crossing
    if k == 0:
        return s_lo, s_hi, (s_hi if excess[0] >= 0.0 else s_lo), None
    # just above ends[k - 1] the cells flat at that level no longer count
    e0, e1 = float(ends[k - 1]), float(ends[k])
    ga = float(excess[k - 1] - w[(low == high) & (low == e0)].sum())
    if ga < 0.0:
        return s_lo, s_hi, min(max(e0, s_lo), s_hi), None
    gb = float(excess[k])
    b = min(max(e0 + (e1 - e0) * (ga / (ga - gb)), s_lo), s_hi)
    return s_lo, s_hi, b, (e0, e1, (gb - ga) / (e1 - e0))


def _crossings(cells: np.ndarray, hold: np.ndarray, b: float, stretch: tuple | None,
               s_lo: float, s_hi: float) -> tuple[float, list]:
    """The level b after one Newton step on the inverse-quadratic interpolant
    of F, kept only inside the linear ``stretch`` that holds b, and where
    each holding cell crosses it, in cell widths from its left end.  A cell
    [x0, x1] with ends y0, y1 takes x(y) = chord(y) + c (y - y0)(y - y1)
    through the far end of the next cell, else the previous one, that is
    monotone, shares its end and runs the same way; c = 0 (the chord) where
    neither does or c is not finite, and the chord's crossing where x(b)
    leaves the cell."""
    m = hold.size
    near = np.concatenate((hold, hold + 1, hold - 1))
    xl, xr, yl, yr, _, _, mono = cells.take(near, axis=1, mode="clip").tolist()
    bends, num, den = [], 0.0, 0.0
    for j, (x0, x1, y0, y1) in enumerate(zip(xl[:m], xr, yl, yr)):
        r, l, up, c = j + m, j + 2 * m, y1 > y0, 0.0
        for xa, ya, joined, beyond in ((xr[r], yr[r], mono[r] and xl[r] == x1, yr[r] - y1),
                                       (xl[l], yl[l], mono[l] and xr[l] == x0, y0 - yl[l])):
            if joined and beyond != 0.0 and (beyond > 0.0) == up:  # c = x[y0, y1, ya]
                c = ((xa - x0) / (ya - y0) - (x1 - x0) / (y1 - y0)) / (ya - y1)
                c = c if math.isfinite(c) else 0.0
                break
        bends.append(c)
        q = c if up else -c  # the measure above b gains -q (b - y0)(b - y1)
        num += q * (b - y0) * (b - y1)
        den += q * (2.0 * b - y0 - y1)
    if stretch is not None and stretch[2] < den:  # the model's excess falls as b rises
        e0, e1, slope = stretch
        newton = b + num / (slope - den)
        b = newton if max(e0, s_lo) <= newton <= min(e1, s_hi) else b
    at = []
    for x0, x1, y0, y1, c in zip(xl, xr, yl, yr, bends):
        chord = (b - y0) / (y1 - y0)
        x = chord + c * (b - y0) * (b - y1) / (x1 - x0)
        at.append(x if 0.0 <= x <= 1.0 else chord)
    return b, at


def _piecewise_crossing(cert: _Certifier, cells: np.ndarray, settled: float, s_lo: float,
                        s_hi: float, count: int, tol: float) -> SugenoResult:
    """The sup-level of f from its cells and the bracket [s_lo, s_hi] that
    holds it, ``settled`` the measure of the cells above it left out.

    Each round narrows the bracket to the sup-levels of the lower and the
    upper step bound of F, in which a cell's width counts at its lo and at its
    hi, and finds the interpolated crossing level b, from one sort of the
    cells' range ends (``_interpolated_level``).  Cells entirely above the
    bracket count in full from then on, those below drop out.  One Newton step
    on the inverse-quadratic interpolant of F corrects b (``_crossings``).
    Each live monotone cell whose range holds b is split at its
    inverse-quadratic crossing x^ plus ``LADDER`` times its width, all in one
    array call; the other live monotone cells stay, the live gaps are
    bisected.  The search stops once the bracket is at most ``tol``, or when
    a round can place no new point inside a live cell and has no gap to
    bisect, and reports its lower end with its width as residual.
    """
    while True:
        xl, xr, _, _, low, high, mono = cells
        w = xr - xl
        s_lo, s_hi, b, stretch = _interpolated_level(low, high, w, settled, s_lo, s_hi, tol)
        if s_hi - s_lo <= tol:
            break
        settled += float(w[low > s_hi].sum())
        live = np.flatnonzero((high >= s_lo) & (low <= s_hi) & (w > 0.0))
        low, high, ladders = low[live], high[live], mono[live] > 0.0
        on = ladders & (low < high) & (low <= b) & (b <= high)
        hold, rest, gaps = live[on], live[ladders & ~on], live[~ladders]
        b, at = _crossings(cells, hold, b, stretch, s_lo, s_hi)
        x0, x1, y0, y1 = cells[:4, hold, None]
        ladder = x0 + (x1 - x0) * (np.array(at).reshape(-1, 1) + LADDER)
        if not gaps.size and not ((ladder > x0) & (ladder < x1)).any():
            break
        ladder = np.minimum(np.maximum(ladder, x0), x1)  # points outside a cell make empty ones
        try:
            f_ladder = (np.asarray(cert.f.evaluate(ladder.ravel()), dtype=float).reshape(ladder.shape)
                        if ladder.size else ladder)
        except EvalError as exc:
            raise _GiveUp("not evaluable") from exc
        parts = [cells[:, rest], _monotone_cells(*(np.concatenate(p, axis=1).ravel() for p in (
            (x0, ladder), (ladder, x1), (y0, f_ladder), (f_ladder, y1))))]
        if gaps.size:
            parts.append(_cells(cert.bisect(cells[:, gaps].T.tolist())))
        cells = np.concatenate(parts, axis=1)
    return SugenoResult(max(s_lo, 0.0), IntegralMethod.FIXED_POINT, s_hi - s_lo, "certified", count)


def _piecewise(f: ScalarFunction, A: RealInterval, xs: np.ndarray, ys: np.ndarray,
               tol: float) -> SugenoResult:
    """Piecewise form: certify monotone pieces of f on A from the guard
    sample (xs, ys), clear the sign guard on the gaps, bracket the crossing
    from the pieces' runs of guard samples, then search it over the cells that
    can hold it.  A single piece covering A goes through ``_monotone_crossing``.
    Raises ``_GiveUp`` for the grid form.

    A monotone cell's minimum is at its ends.  A gap whose enclosure reaches
    below NEGATIVE_BELOW is bisected until a point value proves f negative
    (``NegativeFunction``) or the enclosures of its parts clear the threshold.
    """
    cert = _Certifier(f)
    pieces, gaps = _certify(cert, xs, ys)
    if len(pieces) == 1 and not gaps:
        direction = Monotonicity.INCREASING if pieces[0][2] else Monotonicity.DECREASING
        return _monotone_crossing(f, A, xs, ys, tol, direction, "certified")
    while below := [g for g in gaps if not g[4] >= NEGATIVE_BELOW]:  # the sign guard; NaN is below
        gaps = [g for g in gaps if g[4] >= NEGATIVE_BELOW] + cert.bisect(below)
    # The first round reads each piece's guard samples in ascending order, a run
    # whose samples step back by rounding alone, within step_slack: its cells
    # with lo >= b (hi > b) begin at a searchsorted position of b +- the slack,
    # and measure the distance in x from there to the run's far end; the gaps
    # count in the upper bound only.  Those bounds on F at isqrt(n) levels
    # evenly spaced below the integral's ceiling (mu, or the largest guard
    # value or gap bound if lower) give the last level at or below both
    # sup-levels and the first at or above them (sentinels at -inf and inf
    # stand for none).
    runs = [ys[i : j + 1] if up else ys[i : j + 1][::-1] for i, j, up, _ in pieces]
    ends = [(i, 1, j - i) if up else (j, -1, j - i) for i, j, up, _ in pieces]
    base, step, size = np.array(ends + ends, dtype=int).reshape(-1, 3).T[:, :, None]
    slack, gap, r = step_slack(ys), _cells(gaps), len(runs)
    count, top = math.isqrt(ys.size), min(A.length(), float(gap[5].max(initial=ys.max())))
    levels = np.concatenate(([-np.inf], np.arange(count) * (top / count), [np.inf]))
    raised, lowered = levels + slack, levels - slack
    pos = np.array([v[:-1].searchsorted(raised) for v in runs]
                   + [v[1:].searchsorted(lowered, "right") for v in runs], dtype=int)
    bound = (step * (xs[base + step * size] - xs[base + step * pos])).reshape(2, -1, levels.size)
    lower, upper = bound.sum(axis=1) + [[0.0], [(gap[1] - gap[0]).sum()]]
    i, j = np.count_nonzero(lower >= levels) - 1, levels.size - np.count_nonzero(upper <= levels)
    s_lo = max(float(levels[i]), 0.0)
    s_hi = max(min(float(levels[j]), A.length()), s_lo)
    # each run's cells that may reach [s_lo, s_hi], and one either side, become
    # cells; those above it settle
    settled, window = 0.0, []
    for (start, d, m), q, p in zip(ends, pos[r:, i].tolist(), pos[:r, j].tolist()):
        c0, c1 = max(q - 1, 0), min(p + 1, m)
        settled += abs(float(xs[start + d * m] - xs[start + d * c1]))
        window.append(slice(start + c0, start + c1) if d > 0 else slice(start - c1, start - c0))
    cells = _monotone_cells(*(np.concatenate([a[k] for k in window] or [a[:0]]) for a in (
        xs[:-1], xs[1:], ys[:-1], ys[1:])))
    return _piecewise_crossing(cert, np.concatenate((cells, gap), axis=1), settled, s_lo, s_hi,
                               len(pieces) + sum(g[6] for g in gaps), tol)


def _require_non_negative(low: float, A: RealInterval) -> None:
    if math.isnan(low):
        raise EvalError(f"integrand is NaN on [{A.lo:g}, {A.hi:g}]")
    if low < NEGATIVE_BELOW:
        raise NegativeFunction(f"integrand reaches {low:g} on [{A.lo:g}, {A.hi:g}]")


def sugeno_integral(
    f: ScalarFunction,
    A: RealInterval,
    tol: float = 1e-9,
    grid: int = DEFAULT_GRID,
    method: str = "auto",
) -> SugenoResult:
    """Integrate f over A, reporting which route produced the value.

    ``method`` is "auto" (the monotone crossing form when f carries a
    monotonicity hint, the piecewise form when f has an interval extension
    and certified pieces on A, else the exact sup-min of a ``grid``-cell
    sample) or "supmin" (the oracle sweep of ``grid`` thresholds).  Every
    integrand takes the route its hint and ``method`` select, a zero one
    included; a crossing form that gives up (``_GiveUp``) hands over to the grid
    form.  ``tol`` is the final crossing cell width of the monotone form and the
    final level bracket of the piecewise form.  A must lie in f.domain.  A NaN
    sample raises ``EvalError``.
    """
    if method not in ("auto", "supmin"):
        raise ValueError(f"unknown method {method!r}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if grid < 1:
        raise ValueError("grid must be positive")
    if not (f.domain.contains(A.lo) and f.domain.contains(A.hi)):
        raise ValueError(f"integration interval [{A.lo}, {A.hi}] leaves f's domain "
                         f"[{f.domain.lo}, {f.domain.hi}]")
    # one guard sample: the sign checks of every route and the monotone form's first round
    xs = A.grid(CROSSING_POINTS)
    ys = np.asarray(f.evaluate(xs), dtype=float)
    _require_non_negative(float(ys.min()), A)
    if method == "supmin":
        return sugeno_supmin(f, A, grid)
    try:
        if f.monotonicity is not Monotonicity.UNKNOWN:
            return _monotone_crossing(f, A, xs, ys, tol, f.monotonicity, f.hint)
        if f.extension is not None and A.length() > 0.0:
            return _piecewise(f, A, xs, ys, tol)
    except _GiveUp:
        pass
    return sugeno_supmin_exact(f, A, grid)
