import math
import random
import struct

import numpy as np
import pytest

import fuzzyhh.bounds as bounds
from fuzzyhh.bounds import (
    BoundCase,
    BoundInputs,
    MissingScaledValue,
    RZero,
    alpha_m_bound,
    classical_hh_preinvex,
    classical_hh_r_rhs,
    r_preinvex_bound,
    solve_beta,
    verify_fuzzy_hh,
)
from fuzzyhh.convexity import DomainEscape, InvexInterval
from fuzzyhh.expressions import function_from_expression
from fuzzyhh.measure import RealInterval

UNIT = RealInterval(0.0, 1.0)


def scan_root(g, lo, hi, cells=200_000):
    """Independent root finder: fine scan for the first sign change + bisection."""
    xs = np.linspace(lo, hi, cells + 1)
    prev = None
    for x in xs:
        try:
            y = g(float(x))
        except ZeroDivisionError:
            prev = None
            continue
        if not math.isfinite(y):
            prev = None
            continue
        if y == 0.0:
            return float(x)
        if prev is not None and (prev[1] > 0) != (y > 0):
            a, b = prev[0], float(x)
            for _ in range(200):
                mid = 0.5 * (a + b)
                gm = g(mid)
                if gm == 0.0 or mid in (a, b):
                    return mid
                if (gm > 0) == (prev[1] > 0):
                    a = mid
                else:
                    b = mid
            return 0.5 * (a + b)
        prev = (float(x), y)
    raise AssertionError("oracle scan found no root")


# -- the bisection solve_beta ran before its ITP search, kept as an oracle ----

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def bisect_beta(F, L):
    """sup{b in [0, L] : F(b) >= b} by bisecting the bit patterns of [0, L]:
    the saturation test, then one evaluation per halving, ending on adjacent
    floats (beta, next float)."""
    if F(L) >= L:
        return L, 0.0, (L, L)
    lo, hi = 0, _U64.unpack(_F64.pack(L))[0]
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        b = _F64.unpack(_U64.pack(mid))[0]
        if F(b) >= b:
            lo = mid
        else:
            hi = mid
    beta, past = _F64.unpack(_U64.pack(lo))[0], _F64.unpack(_U64.pack(hi))[0]
    return beta, past - beta, (beta, past)


def bisection_worst_case(L):
    """Evaluations ``bisect_beta`` may take on [0, L]: the saturation test and
    ceil(log2(patterns in [0, L])) halvings."""
    return 1 + (_U64.unpack(_F64.pack(L))[0] - 1).bit_length()


def counted(F):
    """F recording every point it is evaluated at."""
    calls = []

    def G(b):
        calls.append(b)
        return F(b)

    return G, calls


# -- closed-form majorant oracle (independent of fuzzyhh) ---------------------


def sup_level(F, L):
    """sup{b in [0, L] : F(b) >= b} for a non-increasing F, bisected on value."""
    if F(L) >= L:
        return L
    lo, hi = 0.0, L
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if F(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def majorant_integral(fa, fend, L, r):
    """Sugeno integral of ((1-t)*fa^r + t*fend^r)^(1/r) (fa^(1-t)*fend^t at
    r = 0) on [0, L], t = x/L."""
    if fa == fend:
        return min(fa, L)
    return sup_level(majorant_share(fa, fend, L, r), L)


def majorant_share(fa, fend, L, r):
    """b -> mu{x in [0, L] : M(x/L) >= b} for the power-mean majorant M of
    ``majorant_integral``, fa != fend.

    M^r (log M) is affine in t, so M is monotone towards the larger endpoint
    and {M >= b} is an end segment of [0, L] whose share is read off M^r.
    """

    def F(b):
        if b <= min(fa, fend):
            return L
        if b >= max(fa, fend):
            return 0.0
        if r == 0:
            t = math.log(b / fa) / math.log(fend / fa)  # t where M(t) = b
        else:
            t = (b**r - fa**r) / (fend**r - fa**r)
        return L * (1.0 - t if fend > fa else t)

    return F


def scaled_majorant_integral(fa, fscaled, L, alpha, m):
    """Sugeno integral of fa + t^alpha*(m*fscaled - fa) on [0, L], t = x/L,
    monotone in the direction of m*fscaled - fa."""
    top = m * fscaled
    if top == fa:
        return min(fa, L)
    return sup_level(scaled_majorant_share(fa, top, L, alpha), L)


def scaled_majorant_share(fa, top, L, alpha):
    """b -> mu{x in [0, L] : fa + (x/L)^alpha*(top - fa) >= b}, top != fa."""

    def F(b):
        if b <= min(fa, top):
            return L
        if b >= max(fa, top):
            return 0.0
        t = ((b - fa) / (top - fa)) ** (1.0 / alpha)  # t where M(t) = b
        return L * (1.0 - t if top > fa else t)

    return F


# -- the case equations of the former dispatch, kept as oracles ----------------


def former_case(inp):
    """The label the former dispatch chose: endpoint order, and m against fend/fa."""
    if inp.r is not None:
        sign = "pos" if inp.r > 0 else "neg"
        return f"r-{sign}-{'increasing' if inp.fend > inp.fa else 'decreasing'}"
    if inp.fa <= inp.fend:
        return "am-increasing"
    rho = inp.fend / inp.fa
    if abs(inp.m - rho) <= 1e-12:
        return "am-decreasing-ratio-m"
    return "am-decreasing-small-m" if inp.m < rho else "am-decreasing-large-m"


def case_equation(inp, case, b):
    """The terms of the former dispatch's equation for ``case`` at b (the
    equation is their sum = 0)."""
    fa, fend, L = inp.fa, inp.fend, inp.eta_len
    if inp.r is not None:
        r, diff = inp.r, inp.fend**inp.r - inp.fa**inp.r
        if case.endswith("increasing"):
            return [b * diff, L * b**r, -L * fend**r]
        return [b * diff, -L * b**r, L * fa**r]
    alpha = inp.alpha
    coeff = fend / fa if case == "am-decreasing-ratio-m" else inp.m
    top = coeff * inp.fscaled
    scaled = b if case == "am-decreasing-large-m" else L - b
    return [scaled**alpha * top, -(scaled**alpha) * fa, -(L**alpha) * (b - fa)]


def power_mean_draw(rng):
    """r of both signs with |r| in [0.1, 4], or r = 0; endpoints up to 3L, so
    both may pass L and saturate the bound; one in ten equal."""
    L = rng.uniform(0.2, 3.0)
    r = rng.choice([0.0, 1.0, -1.0], p=[0.1, 0.45, 0.45]) * rng.uniform(0.1, 4.0)
    positive = r <= 0 or rng.uniform() < 0.8  # r > 0 also takes a zero endpoint
    fa, fend = rng.uniform(0.01 if positive else 0.0, 3.0, size=2) * L
    if not positive:
        fa, fend = (0.0, fend) if rng.uniform() < 0.5 else (fa, 0.0)
    if rng.uniform() < 0.1:
        fend = fa
    return BoundInputs(fa=fa, fend=fend, eta_len=L, r=r)


def scaled_draw(rng):
    """Both directions of fa + t^alpha*(m*fscaled - fa): rising and falling
    majorants with either endpoint order (faults b and c), saturated ones
    (fa or m*fscaled past L), m at fend/fa and constant majorants."""
    L = rng.uniform(0.2, 3.0)
    alpha, m = rng.uniform(0.1, 1.0, size=2)
    fa, fend, top = rng.uniform(0.0, 3.0, size=3) * L
    u = rng.uniform()
    if u < 0.1 and fa > fend:
        m = fend / fa
    elif u < 0.15:
        top = fa
    return BoundInputs(fa=fa, fend=fend, eta_len=L, alpha=alpha, m=m, fscaled=top / m)


def seeded_majorant_shares(seed=30, draws=250):
    """(kind, F, L) of seeded majorant shares of both routes: power means with
    r < 0, r = 0 and r > 0, and scaled arguments with alpha in (0.1, 1), each
    rising or falling; endpoints up to 1.5 L, so some saturate."""
    rng = random.Random(seed)
    for _ in range(draws):
        L = rng.uniform(0.2, 3.0)
        fa, fend = rng.uniform(0.01, 1.5) * L, rng.uniform(0.01, 1.5) * L
        r = rng.choice((-1.0, 0.0, 1.0)) * rng.uniform(0.1, 4.0)
        sign = "r < 0" if r < 0 else "r = 0" if r == 0 else "r > 0"
        rising = "rising" if fend > fa else "falling"
        yield f"power mean, {sign}, {rising}", majorant_share(fa, fend, L, r), L
        fa, top = rng.uniform(0.0, 1.5) * L, rng.uniform(0.0, 1.5) * L
        rising = "rising" if top > fa else "falling"
        alpha = rng.uniform(0.1, 1.0)
        yield f"scaled argument, {rising}", scaled_majorant_share(fa, top, L, alpha), L


class TestSolveBeta:
    def test_linear(self):
        # F(b) = c*(1 - b) meets the diagonal at c/(1 + c)
        for c in (0.0, 0.3, 1.0, 0.99):
            beta, residual, bracket = solve_beta(lambda b, c=c: c * (1.0 - b), 1.0)
            assert beta == pytest.approx(c / (1.0 + c), abs=1e-15)
            assert residual == bracket[1] - bracket[0] <= 1.2e-16

    def test_quadratic(self):
        # (1 - b)^2 = b at (3 - sqrt(5))/2
        beta, _, _ = solve_beta(lambda b: (1.0 - b) ** 2, 1.0)
        assert beta == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-15)

    def test_printed_constant_equation(self):
        # 0.5774*b + sqrt(b) = 0.5774, the 4-decimal coefficient standing in
        # for 3^(-1/2), as a fixed point of the falling 1 - sqrt(b)/0.5774
        beta, _, _ = solve_beta(lambda b: max(1.0 - math.sqrt(b) / 0.5774, 0.0), 1.0)
        assert beta == pytest.approx(0.2087, abs=1e-4)

    def test_ends_on_adjacent_floats(self):
        F = lambda b: 0.5 * (1.0 - b * b)  # noqa: E731
        beta, residual, (lo, hi) = solve_beta(F, 1.0)
        assert lo == beta and hi == np.nextafter(beta, 2.0) and residual == hi - lo
        assert F(lo) >= lo and F(hi) < hi

    def test_saturated_measure_returns_the_length(self):
        assert solve_beta(lambda b: 2.0, 1.5) == (1.5, 0.0, (1.5, 1.5))
        # a measure that reaches the diagonal exactly at L saturates too
        assert solve_beta(lambda b: 1.5 * (2.0 - b), 1.0)[0] == 1.0

    def test_jump_across_the_diagonal(self):
        # F steps from 0.7 down to 0.1 at 0.4: the sup is the step, not a root
        beta, _, _ = solve_beta(lambda b: 0.7 if b <= 0.4 else 0.1, 1.0)
        assert beta == 0.4

    def test_tiny_crossing_keeps_relative_precision(self):
        # F(b) = c^2/b meets the diagonal at c; bisecting values would stop
        # near 1e-300 absolute error, the bit patterns reach c to one ulp
        for c in (1e-150, 3e-200, 0.7):
            beta, _, _ = solve_beta(lambda b, c=c: c * c / b if b > 0 else math.inf, 1.0)
            assert beta == pytest.approx(c, rel=1e-15)

    def test_evaluations_are_bounded_by_the_float_count(self):
        calls = []

        def F(b):
            calls.append(b)
            return 0.25 * (1.0 - b)

        solve_beta(F, 2.0)
        # one saturation test, then one evaluation per halving of at most
        # 2^63 non-negative floats
        assert len(calls) <= 64

    def test_ends_on_adjacent_floats_for_extreme_measures(self):
        # F >= 0 and non-increasing, yet far from smooth: the search still
        # ends on adjacent floats with the crossing between them, and never
        # takes more than one evaluation beyond bisection on the same F
        def share(alpha, fa=0.2, top=0.9, L=1.0):
            def F(b):  # the scaled-argument share of a rising majorant
                if b <= fa:
                    return L
                if b >= top:
                    return 0.0
                return L * (1.0 - ((b - fa) / (top - fa)) ** (1.0 / alpha))
            return F

        cases = {
            "jump": (lambda b: 0.7 if b <= 0.4 else 0.1, 1.0),
            "inf at 0": (lambda b: math.inf if b == 0 else 0.5 * (1.0 - b), 1.0),
            "inf below 0.25": (lambda b: math.inf if b < 0.25 else 0.1, 1.0),
            "constant": (lambda b: 0.3, 1.0),
            "zero": (lambda b: 0.0, 1.0),
            "zero plateau": (lambda b: max(0.0, 0.5 - 4.0 * b), 2.0),
            "kink at the root": (lambda b: 0.8 - b if b < 0.4 else max(0.0, 1.6 - 3.0 * b), 1.0),
            "alpha 0.05": (share(0.05), 1.0),
            "root 1e-150": (lambda b: 1e-300 / b if b > 0 else math.inf, 1.0),
            "root 1e-150 below L = 1e300": (lambda b: 1e-300 / b, 1e300),
        }
        for name, (F, L) in cases.items():
            G, calls = counted(F)
            beta, residual, (lo, hi) = solve_beta(G, L)
            H, bisected = counted(F)
            assert (beta, residual, (lo, hi)) == bisect_beta(H, L), name
            assert len(calls) <= min(len(bisected), bisection_worst_case(L)) + 1, name
            assert lo == beta and hi == np.nextafter(beta, math.inf) and residual == hi - lo, name
            assert (beta == 0.0 or F(lo) >= lo) and F(hi) < hi, name
            assert 0.0 not in calls, name

    def test_smooth_measures_take_about_a_dozen_evaluations(self):
        # bisection spends one evaluation per halving of the ~2^62 patterns
        # of [0, 1]; interpolation finds the crossing of a smooth F in a dozen
        counts = []
        for c in (0.3, 1.0, 3.0, 10.0):
            G, calls = counted(lambda b, c=c: c * (1.0 - b) ** 2)
            assert solve_beta(G, 1.0) == bisect_beta(lambda b, c=c: c * (1.0 - b) ** 2, 1.0)
            counts.append(len(calls))
        assert max(counts) <= 16

    def test_seeded_majorants_end_where_bisection_ends(self):
        kinds = set()
        for kind, F, L in seeded_majorant_shares():
            assert solve_beta(F, L) == bisect_beta(F, L), kind
            kinds.add(kind)
        assert len(kinds) == 8, kinds

    def test_seeded_majorants_take_about_ten_evaluations(self):
        # a regula falsi that keeps a stale end creeps in from one side:
        # 13.3 evaluations per crossing here, where the reweighted one takes 10.7
        counts = []
        for _, F, L in seeded_majorant_shares():
            G, calls = counted(F)
            solve_beta(G, L)
            if len(calls) > 1:  # not saturated
                counts.append(len(calls))
        assert len(counts) > 400
        assert sum(counts) / len(counts) <= 11.5

    @pytest.mark.parametrize("F, L, most", [
        # a crossing 150 binades below L, reached by bisection from the first probe on
        (lambda b: 1e-300 / b if b > 0 else math.inf, 1.0, 21),
        # slopes -2 and -4 of g on either side of the root at 0.4
        (lambda b: 0.8 - b if b < 0.4 else max(0.0, 1.6 - 3.0 * b), 1.0, 16),
        *[(lambda b, c=c: c * (1.0 - b) ** 2, 1.0, 10) for c in (0.3, 1.0, 3.0, 10.0)],
    ], ids=["root 1e-150", "kink at the root", *[f"{c}*(1 - b)**2" for c in (0.3, 1.0, 3.0, 10.0)]])
    def test_evaluation_counts(self, F, L, most):
        G, calls = counted(F)
        assert solve_beta(G, L) == bisect_beta(F, L)
        assert len(calls) <= most


class TestPowerMeanRoute:
    def test_cubic_third_inputs_match_printed_bound(self):
        res = r_preinvex_bound(BoundInputs(fa=0.0, fend=1.0 / 3.0, eta_len=1.0, r=0.5))
        assert res.case is BoundCase.R_POS_INCREASING
        assert res.bound == pytest.approx(0.2087, abs=5e-4)
        assert res.bound == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0, abs=1e-9)

    def test_half_endpoint_instance(self):
        # c*b + sqrt(b) - c = 0 with c = 2^(-1/2) collapses to b = 2 - sqrt(3)
        res = r_preinvex_bound(BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, r=0.5))
        assert res.beta == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)
        assert res.beta == pytest.approx(0.268, abs=1e-3)

    def test_degenerate_equal_endpoints(self):
        for k, eta in ((0.3, 1.0), (2.0, 1.0), (0.5, 0.25)):
            res = r_preinvex_bound(BoundInputs(fa=k, fend=k, eta_len=eta, r=0.5))
            assert res.case is BoundCase.DEGENERATE
            assert res.bound == min(k, eta)
            assert res.residual == 0.0

    def test_decreasing_case(self):
        # fa=1, fend=1/2, r=2, eta=1: b*(1/4 - 1) - b^2 + 1 = 0
        res = r_preinvex_bound(BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, r=2.0))
        assert res.case is BoundCase.R_POS_DECREASING
        expected = scan_root(lambda b: b * (0.25 - 1.0) - b**2 + 1.0, 0.0, 1.0)
        assert res.beta == pytest.approx(expected, abs=1e-9)

    def test_negative_r_decreasing_closed_form(self):
        # fa=1.2, fend=1, r=-1, eta=2: the majorant 1/((1-t)/1.2 + t) falls,
        # {M >= b} = {t <= (1/b - 1/1.2)/(1 - 1/1.2)} has measure 12/b - 10,
        # and b = 12/b - 10 gives b^2 + 10b - 12 = 0 -> b = sqrt(37) - 5
        res = r_preinvex_bound(BoundInputs(fa=1.2, fend=1.0, eta_len=2.0, r=-1.0))
        assert res.case is BoundCase.R_NEG_DECREASING
        assert res.beta == pytest.approx(math.sqrt(37.0) - 5.0, abs=1e-9)
        assert res.bound == pytest.approx(math.sqrt(37.0) - 5.0, abs=1e-9)

    def test_negative_r_increasing_against_scan(self):
        # the majorant (1 - t + t/1.21)^(-1/2) rises; its level set measures
        # 2*(1.1^-2 - b^-2)/(1.1^-2 - 1), so b*d + 2*b^-2 - 2*1.1^-2 = 0
        inputs = BoundInputs(fa=1.0, fend=1.1, eta_len=2.0, r=-2.0)
        res = r_preinvex_bound(inputs)
        assert res.case is BoundCase.R_NEG_INCREASING
        d = 1.1**-2 - 1.0
        expected = scan_root(lambda b: b * d + 2.0 * b**-2 - 2.0 * 1.1**-2, 1e-6, 2.0)
        assert expected == pytest.approx(1.0442407, abs=1e-7)
        assert res.beta == pytest.approx(expected, abs=1e-9)

    def test_negative_r_saturates_at_path_length(self):
        # the majorant 1/(1 - t/2) is at least 1 = L on all of [0, 1]
        res = r_preinvex_bound(BoundInputs(fa=1.0, fend=2.0, eta_len=1.0, r=-1.0))
        assert res.case is BoundCase.R_NEG_INCREASING
        assert res.bound == pytest.approx(1.0, abs=1e-9)

    def test_negative_r_increasing_two_thirds(self):
        # 1/(2 - 1.5t) >= b on a share (2 - 1/b)/1.5 of [0, 1]: 3b^2 + b - 2 = 0
        res = r_preinvex_bound(BoundInputs(fa=0.5, fend=2.0, eta_len=1.0, r=-1.0))
        assert res.bound == pytest.approx(2.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matches_the_majorant_integral(self, sign):
        rng = np.random.default_rng(17 if sign > 0 else 18)
        for _ in range(300):
            r = sign * rng.uniform(0.25, 3.0)
            L = rng.uniform(0.3, 2.0)
            fa, fend = rng.uniform(0.05, 2.5, size=2) * L
            res = r_preinvex_bound(BoundInputs(fa=fa, fend=fend, eta_len=L, r=r))
            expected = majorant_integral(fa, fend, L, r)
            assert res.bound == pytest.approx(expected, abs=1e-9 * max(1.0, expected))

    def test_r_zero_lies_between_nearby_r(self):
        # the geometric majorant 0.2^(1-t)*0.9^t: b = log(0.9/b)/log(4.5)
        res = r_preinvex_bound(BoundInputs(fa=0.2, fend=0.9, eta_len=1.0, r=0.0))
        assert res.case is BoundCase.R_ZERO_INCREASING
        assert res.bound == pytest.approx(0.4543903171, abs=1e-10)
        assert res.bound == pytest.approx(math.log(0.9 / res.bound) / math.log(4.5), abs=1e-15)
        near = [r_preinvex_bound(BoundInputs(fa=0.2, fend=0.9, eta_len=1.0, r=r)).bound
                for r in (-1e-6, 1e-6)]
        assert near[0] < res.bound < near[1]
        falling = r_preinvex_bound(BoundInputs(fa=0.9, fend=0.2, eta_len=1.0, r=0.0))
        assert falling.case is BoundCase.R_ZERO_DECREASING and falling.bound == res.bound

    def test_negative_r_needs_positive_endpoints(self):
        for r in (-1.0, 0.0):
            with pytest.raises(ValueError):
                r_preinvex_bound(BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, r=r))

    def test_tiny_endpoint_power_bound(self):
        # 1e-120 ** -3 = 1e360 is past float64, but the share is taken relative
        # to it: the bound solves b^4 = fa^3 (the majorant is about fa/(1-t)^(1/3))
        res = r_preinvex_bound(BoundInputs(fa=1e-120, fend=1.0, eta_len=1.0, r=-3.0))
        assert res.bound == pytest.approx(1e-90, rel=1e-12)
        assert res.bracket[0] < res.bracket[1] == np.nextafter(res.bound, 1.0)

    @pytest.mark.parametrize("r", [5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300])
    def test_vanishing_r_takes_the_log_share(self, r):
        # r*log(hi/lo) is subnormal or zero: the r-form's 1/expm1 overflowed
        # (bound 1.0 at r = 1e-310) or rounded (0.9098 at r = 5e-324)
        zero = r_preinvex_bound(BoundInputs(fa=0.5, fend=1.5, eta_len=1.0, r=0.0))
        res = r_preinvex_bound(BoundInputs(fa=0.5, fend=1.5, eta_len=1.0, r=r))
        assert zero.bound == pytest.approx(0.6972772199061351, rel=1e-15)
        assert res.bound == pytest.approx(zero.bound, rel=1e-12)
        assert res.case is (BoundCase.R_POS_INCREASING if r > 0 else BoundCase.R_NEG_INCREASING)

    def test_case_one_is_strictly_increasing_with_unique_root(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            fa = rng.uniform(0.0, 1.0)
            fend = fa + rng.uniform(0.05, 2.0)
            r = rng.uniform(0.2, 3.0)
            eta = rng.uniform(0.3, 2.0)
            d = fend**r - fa**r

            def g(b, d=d, r=r, eta=eta, fend=fend):
                return b * d + eta * b**r - eta * fend**r

            assert g(0.0) < 0.0
            xs = np.linspace(1e-9, eta, 400)
            ys = [g(x) for x in xs]
            assert all(y2 > y1 for y1, y2 in zip(ys, ys[1:]))
            sign_changes = sum(
                1 for y1, y2 in zip(ys, ys[1:]) if (y1 > 0) != (y2 > 0)
            )
            assert sign_changes <= 1
            res = r_preinvex_bound(BoundInputs(fa=fa, fend=fend, eta_len=eta, r=r))
            if g(eta) <= 0.0:  # the root lies past L: the bound saturates
                assert res.beta == res.bound == eta
            else:
                assert abs(g(res.beta)) <= 1e-9

    def test_case_boundary_continuity(self):
        # as fend -> fa the computed bound approaches min(fa, eta) from either side
        for r in (0.5, 2.0, -1.0):
            for eps in (1e-6, -1e-6):
                fa = 0.5
                fend = fa * (1.0 + eps)
                res = r_preinvex_bound(BoundInputs(fa=fa, fend=fend, eta_len=1.0, r=r))
                assert res.bound == pytest.approx(min(fa, 1.0), abs=1e-4)


class TestScaledArgumentRoute:
    def test_quadratic_instance_is_three_quarters(self):
        # from the instance's equation: 1.5*sqrt(1-b) = b  =>  b = 3/4 exactly
        res = alpha_m_bound(
            BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, alpha=0.5, m=1.0 / 3.0, fscaled=4.5)
        )
        assert res.case is BoundCase.AM_INCREASING
        assert res.beta == pytest.approx(0.75, abs=1e-9)
        assert res.residual <= 1e-9

    def test_collapses_when_scaled_value_matches(self):
        # m*fscaled = fa makes the equation linear with root fa
        for fa, alpha, m in ((0.4, 0.5, 0.25), (0.9, 1.0, 0.5), (1.4, 0.7, 0.9)):
            res = alpha_m_bound(
                BoundInputs(fa=fa, fend=fa + 0.1, eta_len=1.0, alpha=alpha, m=m, fscaled=fa / m)
            )
            assert res.beta == pytest.approx(fa, abs=1e-9)
            assert res.bound == pytest.approx(min(fa, 1.0), abs=1e-9)

    def test_small_m_case(self):
        # f = 1/(1+x): fa=1, fend=1/2, m=1/4 < 1/2, fscaled = f(4) = 1/5.
        # m*fscaled = 0.05 < fend breaks the hypothesis at t = 1, and the
        # majorant 1 - 0.95*sqrt(t) falls: sqrt(b)*0.95 = 1 - b
        res = alpha_m_bound(
            BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=0.5, m=0.25, fscaled=0.2)
        )
        assert res.case is BoundCase.AM_DECREASING_LARGE_M
        assert res.beta == pytest.approx(((math.sqrt(4.9025) - 0.95) / 2.0) ** 2, abs=1e-15)
        assert res.bound == pytest.approx(scaled_majorant_integral(1.0, 0.2, 1.0, 0.5, 0.25),
                                          abs=1e-15)

    def test_ratio_m_case(self):
        # f = 1/(1+x): m = fend/fa = 1/2, fscaled = f(2) = 1/3, alpha = 1.
        # m*fscaled = 1/6 < fend, the majorant 1 - 5t/6 falls: 6/5*(1 - b) = b
        res = alpha_m_bound(
            BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=1.0, m=0.5, fscaled=1.0 / 3.0)
        )
        assert res.case is BoundCase.AM_DECREASING_LARGE_M
        assert res.bound == pytest.approx(6.0 / 11.0, abs=1e-15)

    def test_ratio_m_with_a_rising_majorant(self):
        # m = fend/fa exactly and m*fscaled = 1.6 > fa: the rising equation
        res = alpha_m_bound(
            BoundInputs(fa=0.4, fend=0.2, eta_len=1.0, alpha=1.0, m=0.5, fscaled=3.2)
        )
        assert res.case is BoundCase.AM_DECREASING_RATIO_M
        # share 1 - (b - 0.4)/1.2 = b gives b = 8/11
        assert res.bound == pytest.approx(8.0 / 11.0, abs=1e-15)

    def test_saturated_rising_majorant(self):
        # fault b: fa >= L, so the majorant never drops below L; the former
        # dispatch found no root and raised
        for fa, fend in ((1.2, 1.5), (1.5, 1.2)):
            res = alpha_m_bound(
                BoundInputs(fa=fa, fend=fend, eta_len=1.0, alpha=0.5, m=0.5, fscaled=4.0)
            )
            assert (res.beta, res.bound, res.residual) == (1.0, 1.0, 0.0)

    def test_direction_follows_the_scaled_value(self):
        # fault c: m > fend/fa with a rising majorant, and m < fend/fa with
        # a falling one; the former dispatch keyed on m alone
        rising = alpha_m_bound(
            BoundInputs(fa=0.8, fend=0.3, eta_len=1.0, alpha=0.5, m=0.5, fscaled=2.0)
        )
        assert rising.case is BoundCase.AM_DECREASING_SMALL_M
        # 1 - ((b - 0.8)/0.2)^2 = b
        assert rising.bound == pytest.approx(0.8716515138991168, abs=1e-15)
        falling = alpha_m_bound(
            BoundInputs(fa=0.8, fend=0.6, eta_len=1.0, alpha=0.5, m=0.5, fscaled=1.3)
        )
        assert falling.case is BoundCase.AM_DECREASING_LARGE_M
        assert falling.bound == pytest.approx(
            scaled_majorant_integral(0.8, 1.3, 1.0, 0.5, 0.5), abs=1e-15)

    def test_large_m_case_against_scan(self):
        # f = 1/(1+x): m = 0.8 > 1/2, fscaled = f(1.25) = 1/2.25
        fs = 1.0 / 2.25
        res = alpha_m_bound(
            BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=0.5, m=0.8, fscaled=fs)
        )
        assert res.case is BoundCase.AM_DECREASING_LARGE_M
        expected = scan_root(
            lambda b: math.sqrt(b) * (0.8 * fs - 1.0) - (b - 1.0), 0.0, 1.0
        )
        assert res.beta == pytest.approx(expected, abs=1e-9)

    def test_missing_scaled_value(self):
        with pytest.raises(MissingScaledValue):
            alpha_m_bound(BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, alpha=0.5, m=0.5))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            alpha_m_bound(
                BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, alpha=1.5, m=0.5, fscaled=1.0)
            )
        with pytest.raises(ValueError):
            alpha_m_bound(
                BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, alpha=0.5, m=1.5, fscaled=1.0)
            )

    def test_route_selection_validated(self):
        with pytest.raises(ValueError):
            BoundInputs(fa=0.0, fend=0.5, eta_len=1.0)  # no route
        with pytest.raises(ValueError):
            BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, r=0.5, alpha=0.5, m=0.5)  # both

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["fa", "fend", "eta_len", "r", "alpha", "m", "fscaled"])
    def test_non_finite_fields_rejected(self, field, bad):
        # nan passes fa < 0 and inf passes eta_len > 0, so each is checked by name
        r_route = dict(fa=0.2, fend=0.5, eta_len=1.0, r=0.5)
        am_route = dict(fa=0.2, fend=0.5, eta_len=1.0, alpha=0.5, m=0.5, fscaled=1.0)
        fields = dict(r_route if field in r_route else am_route, **{field: bad})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BoundInputs(**fields)

    @pytest.mark.parametrize("fields, message", [
        # every field's non-finite value, each of nan, inf and -inf
        *[({**dict(fa=0.2, fend=0.5, eta_len=1.0, alpha=0.5, m=0.5, fscaled=1.0), name: bad},
           f"{name} must be finite, got {text}")
          for name in ("fa", "fend", "eta_len", "alpha", "m", "fscaled")
          for bad, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"))],
        *[(dict(fa=0.2, fend=0.5, eta_len=1.0, r=bad), f"r must be finite, got {text}")
          for bad, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"))],
        # the first non-finite field in field order, before any other rule
        (dict(fa=math.nan, fend=math.inf, eta_len=1.0, r=0.5), "fa must be finite, got nan"),
        (dict(fa=-1.0, fend=0.5, eta_len=math.inf, r=0.5), "eta_len must be finite, got inf"),
        (dict(fa=0.2, fend=0.5, eta_len=0.0, fscaled=math.nan), "fscaled must be finite, got nan"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0, r=math.inf, m=math.nan), "r must be finite, got inf"),
        (dict(fa=0.2, fend=1e308, eta_len=1e-300, r=-1e308, alpha=0.0, m=0.0, fscaled=0.0),
         "select exactly one route: r, or alpha and m"),
        # the route rules, in order
        (dict(fa=-1.0, fend=0.5, eta_len=0.0), "endpoint values must be non-negative"),
        (dict(fa=0.2, fend=-0.0 - 1e-300, eta_len=1.0, r=0.5), "endpoint values must be non-negative"),
        (dict(fa=0.2, fend=0.5, eta_len=0.0), "eta_len must be positive"),
        (dict(fa=0.2, fend=0.5, eta_len=-1.0, r=0.5), "eta_len must be positive"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0), "select exactly one route: r, or alpha and m"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0, fscaled=1.0),
         "select exactly one route: r, or alpha and m"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0, r=0.5, alpha=0.5),
         "select exactly one route: r, or alpha and m"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0, r=0.5, m=0.5),
         "select exactly one route: r, or alpha and m"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0, alpha=0.5),
         "the scaled-argument route needs both alpha and m"),
        (dict(fa=0.2, fend=0.5, eta_len=1.0, m=0.5, fscaled=1.0),
         "the scaled-argument route needs both alpha and m"),
    ])
    def test_validation_messages_and_their_order(self, fields, message):
        with pytest.raises(ValueError) as exc:
            BoundInputs(**fields)
        assert str(exc.value) == message

    @pytest.mark.parametrize("fields", [
        dict(fa=0.0, fend=0.0, eta_len=5e-324, r=0.0),
        dict(fa=0.2, fend=0.5, eta_len=1.0, r=-3.0),
        dict(fa=0, fend=1, eta_len=2, r=1),  # ints
        dict(fa=0.2, fend=0.5, eta_len=1.0, alpha=0.5, m=0.5),  # fscaled is checked by the route
        dict(fa=0.2, fend=0.5, eta_len=1.0, alpha=-2.0, m=-0.5, fscaled=1.0),
        dict(fa=np.float64(0.2), fend=np.float64(0.5), eta_len=np.float64(1.0), r=np.float64(0.5)),
    ])
    def test_valid_inputs_pass(self, fields):
        assert BoundInputs(**fields) == BoundInputs(**fields)


class TestMajorantProperties:
    """Seeded draws over the whole input space of each route against the
    closed-form majorant oracle above."""

    def test_power_mean_route_matches_the_majorant_oracle(self):
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(2000):
            inp = power_mean_draw(rng)
            res = r_preinvex_bound(inp)
            L = inp.eta_len
            expected = min(L, majorant_integral(inp.fa, inp.fend, L, inp.r))
            assert abs(res.bound - expected) <= 1e-12 * max(1.0, expected), inp
            assert res.beta == res.bound or res.case is BoundCase.DEGENERATE
            seen.add(res.case)
            if min(inp.fa, inp.fend) >= L:
                seen.add("saturated")
        assert seen == {c for c in BoundCase if not c.value.startswith("am-")} | {"saturated"}

    def test_scaled_argument_route_matches_the_majorant_oracle(self):
        rng = np.random.default_rng(72)
        seen = set()
        for _ in range(2000):
            inp = scaled_draw(rng)
            res = alpha_m_bound(inp)
            L, top = inp.eta_len, inp.m * inp.fscaled
            expected = min(L, scaled_majorant_integral(inp.fa, inp.fscaled, L, inp.alpha, inp.m))
            assert abs(res.bound - expected) <= 1e-12 * max(1.0, expected), inp
            direction = "rising" if top > inp.fa else "falling" if top < inp.fa else "flat"
            seen.add((direction, "fa<=fend" if inp.fa <= inp.fend else "fa>fend"))
            seen.add(res.case)
            if res.case.value != former_case(inp):
                seen.add("fault c")
            if min(inp.fa, top) >= L:
                seen.add("saturated")
        directions = {(d, o) for d in ("rising", "falling", "flat") for o in ("fa<=fend", "fa>fend")}
        labels = {c for c in BoundCase if c.value.startswith("am-")}
        assert directions | labels | {"fault c", "saturated"} <= seen

    @pytest.mark.parametrize("route", ["r", "alpha-m"])
    def test_former_case_equations_hold_where_the_dispatch_was_right(self, route):
        # the former dispatch was right where it picked the majorant's own
        # equation and the root lay inside [0, L]; there the new beta solves it
        rng = np.random.default_rng(73 if route == "r" else 74)
        draw, solver = ((power_mean_draw, r_preinvex_bound) if route == "r"
                        else (scaled_draw, alpha_m_bound))
        checked, steep = set(), 0
        for _ in range(2000):
            inp = draw(rng)
            res = solver(inp)
            if res.residual == 0.0 or inp.r == 0 or res.case.value != former_case(inp):
                continue  # constant, saturated, r = 0 or a new label
            terms = case_equation(inp, res.case.value, res.beta)
            residual = abs(sum(terms))
            if residual > 1e-9 * max(1.0, max(map(abs, terms))):
                # an equation too steep at beta for 1e-9 (alpha near 0 and
                # beta near L) still changes sign between beta's neighbours
                g_prev, g_past = (sum(case_equation(inp, res.case.value, b))
                                  for b in (np.nextafter(res.beta, 0.0), res.bracket[1]))
                assert (g_prev > 0.0) != (g_past > 0.0), inp
                steep += 1
            checked.add(res.case)
        assert len(checked) == 4 and steep <= 20


class TestBisectionOracle:
    """The ITP search returns what bisecting the bit patterns returned, over
    seeded draws of each route's whole input space."""

    @staticmethod
    def both(solver, inp, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "solve_beta", bisect_beta)
            expected = repr(solver(inp))
        return repr(solver(inp)), expected

    def test_power_mean_route(self, monkeypatch):
        rng = np.random.default_rng(81)
        draws = [power_mean_draw(rng) for _ in range(2000)]
        draws.append(BoundInputs(fa=1e-120, fend=1.0, eta_len=1.0, r=-3.0))
        seen = set()
        for inp in draws:
            got, expected = self.both(r_preinvex_bound, inp, monkeypatch)
            assert got == expected, inp
            seen.add("r < 0" if inp.r < 0 else "r = 0" if inp.r == 0 else "r > 0")
            if min(inp.fa, inp.fend) >= inp.eta_len:
                seen.add("saturated")
        assert seen == {"r < 0", "r = 0", "r > 0", "saturated"}

    def test_scaled_argument_route(self, monkeypatch):
        rng = np.random.default_rng(82)
        saturated = 0
        for _ in range(2000):
            inp = scaled_draw(rng)
            got, expected = self.both(alpha_m_bound, inp, monkeypatch)
            assert got == expected, inp
            saturated += min(inp.fa, inp.m * inp.fscaled) >= inp.eta_len
        assert saturated > 0

    def test_tiny_endpoints(self, monkeypatch):
        # endpoint values from 1e-300 to 1, r of either sign: crossings far
        # below L, where interpolation in value space helps least
        rng = np.random.default_rng(83)
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-300.0, 0.0)
            fa, fend = rng.uniform(0.01, 3.0, size=2) * scale
            r = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 4.0)
            inp = BoundInputs(fa=fa, fend=fend, eta_len=rng.uniform(0.2, 3.0), r=r)
            got, expected = self.both(r_preinvex_bound, inp, monkeypatch)
            assert got == expected, inp


class TestScaleFree:
    """Scaling fa, fend, fscaled and L by s scales the bound by s: the
    endpoint-equality tests are relative."""

    SCALES = (1e-200, 1e-12, 1.0, 1e12, 1e200)

    @staticmethod
    def scaled(inp, s):
        return BoundInputs(fa=inp.fa * s, fend=inp.fend * s, eta_len=inp.eta_len * s,
                           r=inp.r, alpha=inp.alpha, m=inp.m,
                           fscaled=None if inp.fscaled is None else inp.fscaled * s)

    @pytest.mark.parametrize("route", ["r", "alpha-m"])
    def test_bound_scales_with_the_inputs(self, route):
        rng = np.random.default_rng(91 if route == "r" else 92)
        draw, solver = ((power_mean_draw, r_preinvex_bound) if route == "r"
                        else (scaled_draw, alpha_m_bound))
        for _ in range(300):
            inp = draw(rng)
            unit = solver(inp)
            for s in self.SCALES:
                res = solver(self.scaled(inp, s))
                assert res.bound == pytest.approx(unit.bound * s, rel=1e-12, abs=0.0), (inp, s)
                assert (res.residual == 0.0) == (unit.residual == 0.0), (inp, s)

    def test_tiny_distinct_endpoints_keep_their_majorant(self):
        # 1e-12 apart used to count as equal at any scale
        res = r_preinvex_bound(BoundInputs(fa=1e-12, fend=2e-12, eta_len=1.0, r=1.0))
        assert res.case is BoundCase.R_POS_INCREASING
        assert res.bound == pytest.approx(1.999999999998e-12, rel=1e-12)
        res = alpha_m_bound(BoundInputs(fa=1e-13, fend=1e-13, eta_len=1.0, alpha=0.5, m=1.0,
                                        fscaled=5e-13))
        assert res.case is BoundCase.AM_INCREASING
        assert res.bound == pytest.approx(4.999999999999e-13, rel=1e-12)

    def test_equal_and_constant_draws_stay_constant(self):
        rng = np.random.default_rng(93)
        for _ in range(200):
            L = rng.uniform(0.5, 2.0)
            fa, m = rng.uniform(0.1, 1.5) * L, rng.uniform(0.2, 1.0)
            for s in self.SCALES:
                equal = r_preinvex_bound(BoundInputs(fa=fa * s, fend=fa * s, eta_len=L * s,
                                                     r=rng.uniform(0.25, 3.0)))
                assert equal.case is BoundCase.DEGENERATE and equal.residual == 0.0
                flat = alpha_m_bound(BoundInputs(fa=fa * s, fend=0.5 * fa * s, eta_len=L * s,
                                                 alpha=rng.uniform(0.2, 1.0), m=m,
                                                 fscaled=fa * s / m))
                assert flat.bracket == (fa * s, fa * s) and flat.residual == 0.0


class TestClassicalComparators:
    def test_power_mean_at_one_half(self):
        with pytest.warns(UserWarning):
            value = classical_hh_r_rhs(0.0, 0.5, 0.5)
        assert abs(value - 0.125) <= 1e-12

    def test_power_mean_of_equal_values(self):
        assert classical_hh_r_rhs(0.7, 0.7, 2.0) == pytest.approx(0.7, abs=1e-12)

    def test_arithmetic_mean(self):
        assert classical_hh_r_rhs(1.0, 3.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_r_zero_rejected(self):
        with pytest.raises(RZero):
            classical_hh_r_rhs(1.0, 2.0, 0.0)

    def test_midpoint_and_mean(self):
        iv = InvexInterval(0.0, 1.0)
        f3 = function_from_expression("3*x^2", UNIT)
        lhs, _ = classical_hh_preinvex(f3, iv)
        assert lhs == pytest.approx(0.75, abs=1e-12)
        f2 = function_from_expression("x^2/2", UNIT)
        _, rhs = classical_hh_preinvex(f2, iv)
        assert rhs == pytest.approx(0.25, abs=1e-12)
        fc = function_from_expression("0.7", UNIT)
        assert classical_hh_preinvex(fc, iv) == (0.7, 0.7)


class TestVerify:
    def test_cubic_third_passes(self):
        f = function_from_expression("x^3/3", UNIT)
        report = verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), r=0.5)
        assert report.passed
        assert report.integral.value == pytest.approx(0.1823, abs=1e-3)
        assert report.bound.bound == pytest.approx(0.2087, abs=5e-4)

    def test_quartic_halved_bound_is_the_square_halved_root(self):
        # the power-mean majorant of x^4/2 at r = 1/2 is x^2/2, whose own
        # integral 2 - sqrt(3) is exactly the bound equation's root
        f = function_from_expression("x^4/2", UNIT)
        report = verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), r=0.5)
        assert report.passed
        assert report.bound.beta == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)

    def test_constant_degenerate(self):
        report = verify_fuzzy_hh(function_from_expression("0.3", UNIT), InvexInterval(0.0, 1.0), r=0.5)
        assert report.bound.case is BoundCase.DEGENERATE
        assert report.integral.value == pytest.approx(0.3, abs=1e-9)
        assert report.bound.bound == pytest.approx(0.3, abs=1e-12)
        assert report.passed

    def test_scaled_argument_route(self):
        f = function_from_expression("x^2/2", RealInterval(0.0, 3.0))
        report = verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), alpha=0.5, m=1.0 / 3.0)
        assert report.passed
        assert report.integral.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-6)
        assert report.bound.bound == pytest.approx(0.75, abs=1e-6)

    def test_nan_tol_is_rejected(self):
        # a NaN tol used to fail the golden x^3/3 bound, which holds
        f = function_from_expression("x^3/3", UNIT)
        with pytest.raises(ValueError, match="tol must not be NaN"):
            verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), r=0.5, tol=math.nan)

    def test_domain_too_narrow_for_scaled_point(self):
        f = function_from_expression("x^2/2", UNIT)
        with pytest.raises(DomainEscape):
            verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), alpha=0.5, m=1.0 / 3.0)

    def test_exactly_tight_family_has_zero_margin(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            c = rng.uniform(0.05, 1.0)
            d = rng.uniform(0.0, 1.0)
            r = rng.uniform(0.25, 3.0)
            f = function_from_expression(f"({c!r}*x+{d!r})^(1/{r!r})", UNIT)
            report = verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), r=r)
            assert report.passed
            assert abs(report.margin) <= 1e-6

    def test_counterexample_trio_reproduced(self):
        f4 = function_from_expression("x^4/2", UNIT)
        integral = verify_fuzzy_hh(f4, InvexInterval(0.0, 1.0), r=0.5).integral.value
        with pytest.warns(UserWarning):
            classical = classical_hh_r_rhs(0.0, 0.5, 0.5)
        assert integral / 1.0 > classical  # endpoint power mean fails

        f3 = function_from_expression("3*x^2", UNIT)
        v3 = verify_fuzzy_hh(f3, InvexInterval(0.0, 1.0), r=1.0).integral.value
        midpoint, _ = classical_hh_preinvex(f3, InvexInterval(0.0, 1.0))
        assert v3 < midpoint  # midpoint side fails

        f2 = function_from_expression("x^2/2", UNIT)
        v2 = verify_fuzzy_hh(f2, InvexInterval(0.0, 1.0), r=1.0).integral.value
        _, mean = classical_hh_preinvex(f2, InvexInterval(0.0, 1.0))
        assert v2 > mean  # endpoint-mean side fails
