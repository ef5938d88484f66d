import math

import numpy as np
import pytest

from fuzzyhh import bounds
from fuzzyhh.bounds import (
    SCAN_CELLS,
    BoundCase,
    BoundInputs,
    MissingScaledValue,
    NoRoot,
    RZero,
    alpha_m_bound,
    classical_hh_preinvex,
    classical_hh_r_rhs,
    r_preinvex_bound,
    solve_beta,
    _bisect_cell,
    _eval_safe,
    verify_fuzzy_hh,
)
from fuzzyhh.convexity import DomainEscape, InvexInterval
from fuzzyhh.expressions import function_from_expression
from fuzzyhh.measure import RealInterval, affine_root_function, constant_function

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


def majorant_integral(fa, fend, L, r):
    """Sugeno integral of ((1-t)*fa^r + t*fend^r)^(1/r) on [0, L], t = x/L.

    M^r is affine in t, so M is monotone towards the larger endpoint for
    either sign of r and {M >= b} is an end segment of [0, L] whose share is
    read off M^r; the integral is sup{b in [0, L] : F(b) >= b}.
    """

    def F(b):
        if b <= min(fa, fend):
            return L
        if b > max(fa, fend):
            return 0.0
        share = (b**r - fa**r) / (fend**r - fa**r)  # t where M(t) = b
        return L * (1.0 - share if fend > fa else share)

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


class _ScanReached(Exception):
    pass


def per_point_solve(G, bracket_hint, tol=1e-9, scan_hi=None):
    """``solve_beta`` with its scan done the old way, one scalar call per point.

    The hint path is ``solve_beta``'s own (a G that refuses arrays stops it
    where the scan begins); the scan walks the cells in a Python loop.
    """

    def scalar_only(b):
        if np.ndim(b):
            raise _ScanReached
        return G(b)

    try:
        return solve_beta(scalar_only, bracket_hint, tol, scan_hi)
    except _ScanReached:
        pass
    xs = np.linspace(0.0, bracket_hint[1] if scan_hi is None else scan_hi, SCAN_CELLS + 1)
    gs = np.array([_eval_safe(G, x) for x in xs])
    finite = np.isfinite(gs)
    for i in range(SCAN_CELLS):
        if finite[i] and gs[i] == 0.0:
            return float(xs[i]), 0.0, (float(xs[i]), float(xs[i + 1]))
        if finite[i] and finite[i + 1] and (gs[i] > 0.0) != (gs[i + 1] > 0.0):
            cell = (float(xs[i]), float(xs[i + 1]))
            return (*_bisect_cell(G, *cell, float(gs[i]), float(gs[i + 1])), cell)
    if finite[-1] and gs[-1] == 0.0:
        return float(xs[-1]), 0.0, (float(xs[-2]), float(xs[-1]))
    raise NoRoot("no sign change")


def _bound_draw(rng):
    """Endpoint scalars over both routes, r of both signs, saturated and NoRoot."""
    L = rng.uniform(0.3, 2.0)
    top = rng.choice([1.0, 3.0])  # 3: endpoints may pass L, the bound saturates
    fa, fend = rng.uniform(0.0, top, size=2) * L
    if rng.uniform() < 0.1:
        fend = fa
    if rng.uniform() < 0.5:
        r = rng.choice([1.0, -1.0]) * rng.uniform(0.25, 3.0)
        if r < 0:
            fa, fend = fa + 0.05, fend + 0.05
        return BoundInputs(fa=fa, fend=fend, eta_len=L, r=r)
    m = rng.uniform(0.1, 1.0)
    if fa > fend and rng.uniform() < 0.2:
        m = fend / fa
    fscaled = rng.uniform(0.0, 3.0) * L / m
    return BoundInputs(fa=fa, fend=fend, eta_len=L, alpha=rng.uniform(0.1, 1.0), m=m,
                       fscaled=fscaled)


def _outcome(inputs):
    solver = r_preinvex_bound if inputs.r is not None else alpha_m_bound
    try:
        return repr(solver(inputs))
    except NoRoot:
        return "NoRoot"


class TestSolveBeta:
    def test_linear(self):
        for c in (0.0, 0.3, 0.99):
            root, residual, _ = solve_beta(lambda b, c=c: b - c, (0.0, 1.0))
            assert root == pytest.approx(c, abs=1e-12)
            assert residual <= 1e-12

    def test_quadratic(self):
        root, residual, _ = solve_beta(lambda b: b * b - 4.0 * b + 1.0, (0.0, 1.0))
        assert root == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
        assert residual <= 1e-9

    def test_printed_constant_equation(self):
        # the 4-decimal coefficient 0.5774 stands in for 3^(-1/2)
        root, _, _ = solve_beta(lambda b: 0.5774 * b + math.sqrt(b) - 0.5774, (0.0, 1.0))
        assert root == pytest.approx(0.2087, abs=1e-4)

    def test_scan_fallback_when_hint_misses(self):
        # root at 1.5, hint bracket [0, 1] has no sign change
        root, _, bracket = solve_beta(lambda b: b - 1.5, (0.0, 1.0), scan_hi=3.0)
        assert root == pytest.approx(1.5, abs=1e-9)
        assert bracket[0] <= 1.5 <= bracket[1]

    def test_no_root_raises(self):
        with pytest.raises(NoRoot):
            solve_beta(lambda b: b * b + 1.0, (0.0, 1.0), scan_hi=2.0)

    def test_missed_hint_makes_one_array_call(self):
        sizes = []

        def G(b):
            sizes.append(np.shape(b))
            return b - 1.5

        root, _, _ = solve_beta(G, (0.0, 1.0), scan_hi=3.0)
        assert root == pytest.approx(1.5, abs=1e-12)
        # both hint ends, the whole scan at once, then scalar bisection
        assert sizes[:3] == [(), (), (SCAN_CELLS + 1,)]
        assert SCAN_CELLS + 1 == 10_001
        assert len(sizes) > 3 and all(shape == () for shape in sizes[3:])

    def test_scan_skips_non_finite_values(self):
        # inf at 0, NaN (negative base) past 1; the zero sits between them
        root, _, _ = solve_beta(
            lambda b: 1.0 / b + np.sqrt(1.0 - b) - 2.0, (0.9, 1.0), scan_hi=2.0
        )
        expected = scan_root(lambda b: 1.0 / b + math.sqrt(1.0 - b) - 2.0, 1e-9, 1.0)
        assert root == pytest.approx(expected, abs=1e-12)

    def test_scan_equals_the_per_point_scan(self):
        rng = np.random.default_rng(2024)
        outcomes = set()
        with pytest.MonkeyPatch.context() as mp:
            for _ in range(250):
                inputs = _bound_draw(rng)
                mp.setattr(bounds, "solve_beta", solve_beta)
                fast = _outcome(inputs)
                mp.setattr(bounds, "solve_beta", per_point_solve)
                assert _outcome(inputs) == fast, inputs
                outcomes.add("NoRoot" if fast == "NoRoot" else fast.split("'")[1])
        # every route, both signs of r, and NoRoot were drawn
        assert {"r-pos-increasing", "r-neg-decreasing", "am-increasing",
                "am-decreasing-large-m", "NoRoot"} <= outcomes

    def test_first_root_wins_on_scan(self):
        # zeros at 0.25 and 0.75; the scan must return the first
        root, _, _ = solve_beta(lambda b: (b - 0.25) * (b - 0.75), (0.5, 1.0), scan_hi=1.0)
        assert root == pytest.approx(0.75, abs=1e-9)  # hint has the sign change here
        root, _, _ = solve_beta(lambda b: -(b - 0.25) * (b - 0.75), (0.0, 1.0), scan_hi=1.0)
        assert root == pytest.approx(0.25, abs=1e-9)


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

    def test_r_zero_rejected(self):
        with pytest.raises(RZero):
            r_preinvex_bound(BoundInputs(fa=0.1, fend=0.5, eta_len=1.0, r=0.0))

    def test_negative_r_needs_positive_endpoints(self):
        with pytest.raises(ValueError):
            r_preinvex_bound(BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, r=-1.0))

    def test_endpoint_powers_that_overflow_are_a_value_error(self):
        # 1e-120 ** -3 = 1e360 is past float64: a usage error, not an OverflowError
        with pytest.raises(ValueError, match="overflow"):
            r_preinvex_bound(BoundInputs(fa=1e-120, fend=1.0, eta_len=1.0, r=-3.0))

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
        # f = 1/(1+x): fa=1, fend=1/2, m=1/4 < 1/2, fscaled = f(4) = 1/5;
        # equation reduces to (1-b) - 0.95*sqrt(1-b) = 0, first root 0.0975
        res = alpha_m_bound(
            BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=0.5, m=0.25, fscaled=0.2)
        )
        assert res.case is BoundCase.AM_DECREASING_SMALL_M
        assert res.beta == pytest.approx(1.0 - 0.95**2, abs=1e-9)

    def test_ratio_m_case(self):
        # f = 1/(1+x): m = fend/fa = 1/2, fscaled = f(2) = 1/3, alpha = 1;
        # the equation degenerates to (1-b)/6 = 0 with root at the path length
        res = alpha_m_bound(
            BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=1.0, m=0.5, fscaled=1.0 / 3.0)
        )
        assert res.case is BoundCase.AM_DECREASING_RATIO_M
        expected = scan_root(lambda b: (1.0 - b) / 6.0, 0.0, 1.0)
        assert res.beta == pytest.approx(expected, abs=1e-9)
        assert res.bound == pytest.approx(1.0, abs=1e-9)

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
        fc = constant_function(0.7, UNIT)
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
        report = verify_fuzzy_hh(constant_function(0.3, UNIT), InvexInterval(0.0, 1.0), r=0.5)
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
            f = affine_root_function(c, d, r, UNIT)
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
