"""Independent correctness oracles for the benchmark.

Nothing here imports fuzzyhh.  Every expected value is derived from the
definition of the Sugeno integral on an interval,

    S = sup over b >= 0 of min(b, F(b)),   F(b) = mu{x in [lo, hi] : f(x) >= b},

using the benchmark's own level-set measures: closed forms where the family
has one, and an exact sup-min on a dense midpoint grid elsewhere.  Because F
is non-increasing and left-continuous, S = sup{b in [0, L] : F(b) >= b}, so a
bisection on that predicate finds S whether F is continuous (a fixed point)
or jumps across the diagonal (plateaus, constants).
"""

from __future__ import annotations

import numpy as np

#: Tolerance the library states for a fixed-point integral (``tol`` of
#: ``sugeno_integral``) and for a bound root (``tol`` of the bound solvers).
LIB_TOL = 1e-9
#: Cells of the library's default grid route.
LIB_GRID = 1_000_000
#: Cells of the benchmark's own dense grid (not a multiple of LIB_GRID).
DENSE_GRID = 3_999_971
#: Inequality slack of the library's sampling checkers.
CHECK_SLACK = 1e-9


def sup_level(F, L: float) -> float:
    """sup{b in [0, L] : F(b) >= b} for a non-increasing measure F."""
    if F(L) >= L:
        return L
    lo, hi = 0.0, L
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if F(mid) >= mid:
            lo = mid
        else:
            hi = mid


def increasing_measure(inverse, lo: float, hi: float):
    """F for an increasing f, from x_b = inf{x : f(x) >= b} (may leave [lo, hi])."""
    return lambda b: hi - min(max(inverse(b), lo), hi)


def decreasing_measure(inverse, lo: float, hi: float):
    """F for a decreasing f, from x_b = sup{x : f(x) >= b} (may leave [lo, hi])."""
    return lambda b: min(max(inverse(b), lo), hi) - lo


def grid_supmin(fn, lo: float, hi: float, n: int = DENSE_GRID) -> float:
    """Exact sup-min of the n-cell midpoint sample of fn (own implementation)."""
    L = hi - lo
    xs = lo + (np.arange(n, dtype=float) + 0.5) * (L / n)
    values = np.sort(fn(xs))[::-1]
    levels = np.arange(1, n + 1, dtype=float) * (L / n)
    return max(float(np.max(np.minimum(values, levels))), 0.0)


def grid_tolerance(pieces: int, L: float, dense: bool) -> float:
    """How far a correct 1e6-grid integral may sit from the oracle.

    A level set of a function with ``pieces`` monotone pieces has at most
    ``pieces`` boundary points, and a midpoint count misjudges the measure by
    less than one cell per boundary point; S moves by no more than F does.
    With a dense-grid oracle both grids contribute.
    """
    cells = L / LIB_GRID + (L / DENSE_GRID if dense else 0.0)
    return pieces * cells + LIB_TOL


# -- majorants of the bound routes --------------------------------------------


def power_mean_majorant_integral(fa: float, fend: float, L: float, r: float) -> float:
    """S of M(t) = ((1-t)*fa^r + t*fend^r)^(1/r) on [0, L], t = x/L.

    M^r is affine in t, so for either sign of r the level set {M >= b} is
    {t >= (b^r - fa^r)/(fend^r - fa^r)} when fend > fa and the mirror image
    when fend < fa; equal endpoints make M the constant fa.
    """
    if fa == fend:
        return min(fa, L)
    far, fendr = fa**r, fend**r

    def frac(b: float) -> float:
        # share of [0, 1] where M >= b
        if b <= min(fa, fend):
            return 1.0
        if b > max(fa, fend):
            return 0.0
        br = b**r
        if fend > fa:
            return (fendr - br) / (fendr - far)
        return (far - br) / (far - fendr)

    return sup_level(lambda b: L * min(max(frac(b), 0.0), 1.0), L)


def scaled_majorant_integral(
    fa: float, fscaled: float, L: float, alpha: float, m: float
) -> float:
    """S of M(t) = (1 - t^alpha)*fa + m*t^alpha*fscaled on [0, L], t = x/L.

    M = fa + t^alpha*(m*fscaled - fa) is monotone in the direction of
    m*fscaled - fa, whatever the endpoint values.
    """
    top = m * fscaled
    if top == fa:
        return min(fa, L)

    def frac(b: float) -> float:
        if b <= min(fa, top):
            return 1.0
        if b > max(fa, top):
            return 0.0
        s = ((b - fa) / (top - fa)) ** (1.0 / alpha)  # t where M(t) = b
        return 1.0 - s if top > fa else s

    return sup_level(lambda b: L * frac(b), L)


def bound_expected(inp: dict) -> float:
    """min(L, S(majorant)) for the endpoint scalars of one bound draw."""
    L = inp["eta_len"]
    if inp.get("r") is not None:
        s = power_mean_majorant_integral(inp["fa"], inp["fend"], L, inp["r"])
    else:
        s = scaled_majorant_integral(inp["fa"], inp["fscaled"], L, inp["alpha"], inp["m"])
    return min(L, s)


def bound_tolerance(expected: float) -> float:
    return LIB_TOL * max(1.0, abs(expected))


# -- sampling-checker witnesses -------------------------------------------------


def witness_violation(fn, w: dict, r: float | None, alpha: float | None, m: float | None) -> float:
    """lhs - rhs of the hypothesis at a reported witness, re-evaluated here."""
    u, v, t = w["u"], w["v"], w["t"]
    lhs = float(fn(u + t * (v - u)))
    fu, fv = float(fn(u)), float(fn(v))
    if r is not None:
        rhs = ((1.0 - t) * fu**r + t * fv**r) ** (1.0 / r)
    else:
        ta = t**alpha
        rhs = (1.0 - ta) * fu + m * ta * float(fn(v / m))
    return lhs - rhs
