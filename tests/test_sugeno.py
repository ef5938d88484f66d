import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhh.measure import (
    DistributionProfile,
    Monotonicity,
    RealInterval,
    from_callable,
)
from fuzzyhh import sugeno
from fuzzyhh.golden import CUBIC_THIRD_ROOT, QUARTIC_HALVED_ROOT
from fuzzyhh.expressions import (
    EvalError,
    compile_expression,
    extend_expression,
    function_from_expression,
    parse_expression,
)
from fuzzyhh.sugeno import (
    IntegralMethod,
    NegativeFunction,
    sugeno_fixed_point,
    sugeno_integral,
    sugeno_supmin,
    sugeno_supmin_exact,
)

UNIT = RealInterval(0.0, 1.0)


def bisect_root(g, lo, hi, tol=1e-13):
    """Independent scalar bisection used to derive expected fixed points."""
    glo = g(lo)
    assert glo * g(hi) <= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) * glo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFixedPoint:
    def test_quartic_halved_matches_printed_value(self):
        f = function_from_expression("x^4/2", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT))
        assert res.value == pytest.approx(0.2023, abs=5e-4)
        # and the root of its own equation b = (1 - b)^4 / 2, derived independently
        root = bisect_root(lambda b: (1.0 - b) ** 4 / 2.0 - b, 0.0, 1.0)
        assert res.value == pytest.approx(root, abs=1e-9)

    def test_square_halved_is_two_minus_sqrt_three(self):
        f = function_from_expression("x^2/2", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT))
        assert res.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)

    def test_three_square(self):
        f = function_from_expression("3*x^2", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT))
        assert res.value == pytest.approx((7.0 - math.sqrt(13.0)) / 6.0, abs=1e-9)

    def test_identity_function_gives_half(self):
        f = function_from_expression("x", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT))
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_residual_certifies_fixed_point(self):
        f = function_from_expression("x^2/2", UNIT)
        profile = DistributionProfile(f, UNIT)
        res = sugeno_fixed_point(profile)
        past = math.nextafter(res.value, 2.0)
        assert profile.at(res.value) >= res.value and profile.at(past) < past
        assert res.residual == past - res.value

    @pytest.mark.parametrize("src, want", [
        ("x^4/2", QUARTIC_HALVED_ROOT),
        ("x^3/3", CUBIC_THIRD_ROOT),
        ("x^2/2", 2.0 - math.sqrt(3.0)),
        ("3*x^2", (7.0 - math.sqrt(13.0)) / 6.0),
    ])
    def test_golden_roots_to_the_float(self, src, want):
        # every level set is exact to the float, so the value is too
        res = sugeno_fixed_point(DistributionProfile(function_from_expression(src, UNIT), UNIT))
        assert abs(res.value - want) <= 2.3e-16
        assert res.residual <= 2.3e-16

    def test_plateau_gives_the_plateau_value(self):
        # F jumps across the diagonal at a constant's value: no root of
        # F(b) = b, but the sup-level is the constant (L when it saturates)
        for k in (0.3, 0.999, 2.0):
            f = function_from_expression(repr(k), UNIT)
            res = sugeno_fixed_point(DistributionProfile(f, UNIT))
            assert res.value == min(k, 1.0)

    def test_steep_distribution_is_not_a_jump(self):
        # F(b) = 1 - (b - 0.5)/1e-4 on [0.5, 0.5001] falls with slope -1e4;
        # b = F(b) gives b = 0.5001/1.0001
        f = function_from_expression("0.0001*x + 0.5", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT))
        assert res.value == pytest.approx(0.5001 / 1.0001, abs=1e-9)
        assert res.value == pytest.approx(0.5000499950, abs=1e-9)
        # slope -1e10
        f = function_from_expression("1e-10*x + 0.5", UNIT)
        assert sugeno_fixed_point(DistributionProfile(f, UNIT)).value == pytest.approx(0.5, abs=1e-9)


class TestSupmin:
    def test_quartic_halved_oracle(self):
        f = function_from_expression("x^4/2", UNIT)
        res = sugeno_supmin(f, UNIT, 10**4)
        assert res.method is IntegralMethod.SUPMIN_GRID
        assert res.value == pytest.approx(0.2023, abs=1e-3)

    def test_constant_within_sweep_resolution(self):
        res = sugeno_supmin(function_from_expression("0.3", UNIT), UNIT, 10**4)
        assert res.value == pytest.approx(0.3, abs=2e-4)

    def test_constant_above_length_clamps_to_length(self):
        res = sugeno_supmin(function_from_expression("2.0", UNIT), UNIT, 10**4)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exact_grid_variant_is_exact_for_constants(self):
        for k, want in ((0.3, 0.3), (2.0, 1.0)):
            f = function_from_expression(repr(k), UNIT)
            assert sugeno_supmin_exact(f, UNIT, 10**5).value == want

    def test_exact_grid_rejects_negative_samples(self):
        # zero at every point of the 4097-point guard grid, -0.1998 between them
        f = function_from_expression("x/2 + 0.2*sin(3.141592653589793*4096*x)", UNIT)
        assert np.min(f.evaluate(UNIT.grid(4097))) >= -1e-12
        # the subsample meets the dip before any block; with the extension or
        # without, the message gives the minimum of the whole sample
        assert np.min(f.evaluate(UNIT.midpoints(10**6)[::sugeno.SUBSAMPLE_STRIDE])) < -1e-12
        for g in (f, from_callable(f.evaluate, UNIT)):
            with pytest.raises(NegativeFunction) as info:
                sugeno_supmin_exact(g, UNIT)
            assert str(info.value) == "integrand reaches -0.199815 on [0, 1]"
        with pytest.raises(NegativeFunction):
            sugeno_integral(f, UNIT)
        # the sweep oracle takes the same sample, and the same sign check
        with pytest.raises(NegativeFunction, match="-0.19"):
            sugeno_supmin(f, UNIT, 10**6)
        with pytest.raises(NegativeFunction, match="-0.19"):
            sugeno_integral(f, UNIT, method="supmin")

    def test_rejects_tiny_threshold_count(self):
        with pytest.raises(ValueError):
            sugeno_supmin(function_from_expression("0.3", UNIT), UNIT, 1)


def _whole_array_sweep(f, A, n):
    """``sugeno_supmin`` as the threshold sweep over whole arrays: every one of
    the n + 1 thresholds against the sorted midpoint sample."""
    mu = A.length()
    values = np.sort(np.asarray(f.evaluate(A.midpoints(n)), dtype=float))
    top = max(float(values[-1]), mu)
    betas = np.linspace(0.0, top, n + 1)
    counts = n - np.searchsorted(values, betas, side="left")
    return float(np.max(np.minimum(betas, mu * (counts / n)))), top / n


@pytest.mark.parametrize("n", [2, 7, 1000, 4097, 1_000_000])
def test_sweep_oracle_equals_the_whole_array_sweep(n):
    """Bit for bit the value and residual of the whole-array sweep, on seeded
    DSL functions, lookup callables of every sample kind, and a width whose
    threshold step underflows to 0."""
    rng = np.random.default_rng(27)
    cases = []
    for seed in range(6):
        A = RealInterval(0.0, 1.0) if seed % 2 else RealInterval(0.3, 2.1)
        cases.append((_compiled(f"abs({_random_source(np.random.default_rng(seed), 3)})", A), A))
    for kind in KINDS:
        A = RealInterval(0.2, 0.2 + float(rng.choice([1e-3, 1.0, 2.7])))
        v = _samples(rng, kind, n, A.length())
        cells = A.midpoints(n)
        cases.append((from_callable(lambda x, v=v, cells=cells: v[np.searchsorted(cells, x)], A), A))
    tiny = RealInterval(0.0, 5e-320)
    cases += [(from_callable(lambda x, c=c: c * np.asarray(x, dtype=float), tiny), tiny)
              for c in (1.0, 3.0)]
    swept = 0
    for f, A in cases:
        try:
            want = _whole_array_sweep(f, A, n)
        except EvalError:
            continue
        res = sugeno_supmin(f, A, n)
        assert (res.value.hex(), res.residual.hex()) == tuple(w.hex() for w in want), (A, n)
        swept += 1
    assert swept >= len(KINDS) + 4


class TestDispatcher:
    def test_cubic_third_matches_its_own_equation_root(self):
        # derived by bisection of b = (1 - b)^3 / 3 (the distribution crossing)
        root = bisect_root(lambda b: (1.0 - b) ** 3 / 3.0 - b, 0.0, 1.0)
        f = function_from_expression("x^3/3", UNIT)
        res = sugeno_integral(f, UNIT)
        assert res.value == pytest.approx(root, abs=1e-6)
        assert res.value == pytest.approx(0.1823, abs=1e-4)

    def test_zero_function(self):
        f = function_from_expression("0", UNIT)
        assert sugeno_integral(f, UNIT).value == 0.0

    def test_quartic_halved(self):
        f = function_from_expression("x^4/2", UNIT)
        assert sugeno_integral(f, UNIT).value == pytest.approx(0.2023, abs=5e-4)

    def test_negative_function_rejected(self):
        f = function_from_expression("x-0.5", UNIT)
        with pytest.raises(NegativeFunction):
            sugeno_integral(f, UNIT)

    @pytest.mark.parametrize("A", [RealInterval(0.0, 1.0), RealInterval(-0.5, 0.25),
                                   RealInterval(0.5 + 1e-9, 0.75)])
    def test_interval_outside_the_domain_is_rejected(self, A):
        f = function_from_expression("x", RealInterval(0.0, 0.5))
        for method in ("auto", "supmin"):
            with pytest.raises(ValueError, match=r"integration interval \[.*\] leaves "
                                                 r"f's domain \[0.0, 0.5\]"):
                sugeno_integral(f, A, method=method)

    def test_interval_within_set_slack_of_the_domain_is_integrated(self):
        f = function_from_expression("x", RealInterval(0.0, 0.5))
        A = RealInterval(-1e-13, 0.5 + 1e-13)
        assert sugeno_integral(f, A).value == pytest.approx(0.25, abs=1e-9)

    def test_constant_rule_is_exact_through_fallback(self):
        for k in (0.0, 0.3, 0.95, 1.0, 2.0):
            res = sugeno_integral(function_from_expression(repr(k), UNIT), UNIT)
            assert res.value == pytest.approx(min(k, 1.0), abs=1e-9)

    def test_step_function_falls_back_to_supmin(self):
        f = from_callable(lambda x: np.where(np.asarray(x) <= 0.8, 0.3, 0.0), UNIT)
        res = sugeno_integral(f, UNIT)
        assert res.method is IntegralMethod.SUPMIN_GRID
        assert res.value == pytest.approx(0.3, abs=1e-9)

    def test_unknown_hint_takes_the_exact_grid_route(self):
        # a plain callable has no interval extension, so nothing is certified
        f = from_callable(lambda x: np.sin(3.14159265 * np.asarray(x)), UNIT)
        assert f.monotonicity is Monotonicity.UNKNOWN and f.extension is None
        res = sugeno_integral(f, UNIT, grid=10**5)
        assert res == sugeno_supmin_exact(f, UNIT, 10**5)
        assert res.method is IntegralMethod.SUPMIN_GRID
        assert res.residual == pytest.approx(1e-5)

    def test_aliased_increasing_hint_hands_over_to_the_grid(self):
        """A wrong declared hint: the integrand is called increasing, and 2049
        points x = j/2048 would all sit on zeros of the sine; the crossing
        search's own 4097-point sample sees the oscillation and hands over to
        the exact grid form."""
        f = from_callable(
            lambda x: np.asarray(x) / 2 + 0.2 * np.abs(np.sin(math.pi * 2048 * np.asarray(x))),
            UNIT, Monotonicity.INCREASING,
        )
        assert f.hint == "declared"
        res = sugeno_integral(f, UNIT)
        assert res.method is IntegralMethod.SUPMIN_GRID
        assert res.value == sugeno_supmin_exact(f, UNIT).value
        assert res.value == pytest.approx(0.41821, abs=1e-5)

    def test_monotone_route_makes_a_few_array_evaluations(self):
        calls = []
        f = function_from_expression("x^2/2", UNIT)
        ev = f.evaluate
        counted = dataclasses.replace(f, evaluate=lambda x: calls.append(np.size(x)) or ev(x))
        res = sugeno_integral(counted, UNIT)
        assert res.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)
        assert res.residual <= 1e-9
        # the guard sample, then one ladder round around the interpolated crossing
        assert len(calls) == 2 and calls[0] == 4097 and calls[1] <= sugeno.LADDER.size

    @pytest.mark.parametrize("method", ["auto", "supmin"])
    def test_grid_validated_on_every_route(self, method):
        # x is declared increasing, so "auto" never reaches the grid form
        f = function_from_expression("x", UNIT)
        for grid in (0, -3):
            with pytest.raises(ValueError, match="grid must be positive"):
                sugeno_integral(f, UNIT, grid=grid, method=method)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tol_must_be_positive(self, tol):
        # NaN used to pass `tol <= 0` and refine every crossing to float resolution
        f = function_from_expression("x^2/2", UNIT)
        with pytest.raises(ValueError, match="tol must be positive"):
            sugeno_integral(f, UNIT, tol=tol)

    def test_fixedpoint_is_not_a_method(self):
        # the fixed point is an oracle (sugeno_fixed_point), not a route
        f = function_from_expression("x", UNIT)
        with pytest.raises(ValueError, match="unknown method 'fixedpoint'"):
            sugeno_integral(f, UNIT, method="fixedpoint")

    def test_misdeclared_hint_gives_the_exact_grid_value(self):
        """abs(sin(3x)) declared increasing: the guard sample breaks the hint,
        so "auto" hands the call to the grid form, and the oracle sweep makes
        no use of the hint."""
        f = from_callable(lambda x: np.abs(np.sin(3 * np.asarray(x, dtype=float))), UNIT,
                          Monotonicity.INCREASING)
        exact = sugeno_supmin_exact(f, UNIT)
        assert exact.value == pytest.approx(0.609904, abs=1e-6)
        assert sugeno_integral(f, UNIT) == exact
        sweep = sugeno_integral(f, UNIT, method="supmin")
        assert abs(sweep.value - exact.value) <= sweep.residual

    def test_hint_broken_by_a_ladder_round_gives_the_exact_grid_value(self):
        """x^2 declared increasing, honest on the guard sample but reversed on
        every shorter array: the first ladder round breaks the hint, so "auto"
        hands the call to the grid form."""
        ev, sizes = _reversed_when_short(lambda x: np.asarray(x, dtype=float) ** 2)
        f = from_callable(ev, UNIT, Monotonicity.INCREASING)
        assert sugeno_integral(f, UNIT) == sugeno_supmin_exact(f, UNIT)
        assert sizes[0] == sugeno.CROSSING_POINTS and 1 < sizes[1] < sugeno.CROSSING_POINTS

    def test_forced_supmin_path(self):
        f = function_from_expression("x^2/2", UNIT)
        res = sugeno_integral(f, UNIT, grid=10**5, method="supmin")
        assert res.method is IntegralMethod.SUPMIN_GRID
        assert res.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-3)


class TestPropositionSuite:
    """The characterizing properties of the integral on computed examples."""

    def test_bounded_by_interval_length(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c, d = rng.uniform(0.0, 3.0, 2).tolist()
            p = rng.uniform(0.3, 3.0)
            f = function_from_expression(f"{c!r}*x^{p!r}+{d!r}", UNIT)
            assert sugeno_integral(f, UNIT).value <= UNIT.length() + 1e-12

    def test_monotone_in_the_integrand(self):
        f = function_from_expression("x^2+0.1", UNIT)
        g = function_from_expression("1.5*x^2+0.2", UNIT)  # g >= f pointwise
        vf = sugeno_integral(f, UNIT, tol=1e-12).value
        vg = sugeno_integral(g, UNIT, tol=1e-12).value
        assert vf <= vg + 1e-9

    def test_threshold_rules(self):
        f = function_from_expression("x^2/2", UNIT)
        profile = DistributionProfile(f, UNIT)
        value = sugeno_integral(f, UNIT, tol=1e-12).value
        for beta in (0.05, 0.15, 0.25, 0.4, 0.9):
            if profile.at(beta) >= beta:
                assert value >= beta - 1e-9
            if profile.at(beta) <= beta:
                assert value <= beta + 1e-9

    def test_strict_characterizations(self):
        # value > alpha iff some gamma > alpha keeps F(gamma) > alpha, and dually
        f = function_from_expression("x^2/2", UNIT)
        profile = DistributionProfile(f, UNIT)
        value = sugeno_integral(f, UNIT, tol=1e-12).value
        alpha_low, alpha_high = 0.2, 0.3
        assert value > alpha_low
        gammas = np.linspace(alpha_low + 1e-6, 1.0, 512)
        assert any(profile.at(g) > alpha_low for g in gammas)
        assert value < alpha_high
        gammas = np.linspace(0.0, alpha_high - 1e-6, 512)
        assert any(profile.at(g) < alpha_high for g in gammas)

    def test_oracle_agreement_smoke(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c, d = rng.uniform(0.0, 1.0, 2).tolist()
            p = rng.uniform(0.25, 4.0)
            lo = rng.uniform(0.0, 0.5)
            hi = lo + rng.uniform(0.1, 0.5)
            A = RealInterval(lo, hi)
            f = function_from_expression(f"{c!r}*x^{p!r}+{d!r}", RealInterval(0.0, 1.0))
            fixed = sugeno_integral(f, A).value
            sweep = sugeno_supmin(f, A, 10**5).value
            assert abs(fixed - sweep) <= 1e-3


@settings(max_examples=40, deadline=None)
@given(
    k=st.floats(min_value=0.0, max_value=2.0),
    lo=st.floats(min_value=0.0, max_value=0.8),
    width=st.floats(min_value=0.0, max_value=1.0),
)
def test_constant_rule_property(k, lo, width):
    A = RealInterval(lo, lo + width)
    res = sugeno_integral(function_from_expression(repr(k), A), A)
    assert res.value == pytest.approx(min(k, A.length()), abs=1e-9)


# -- the crossing kernel against the fixed-point and grid oracles ------------------


def _oracle(f, A):
    """``sugeno_fixed_point`` over the closed-form profile of a monotone f."""
    return sugeno_fixed_point(DistributionProfile(f, A)).value


def _power_affine(draw, increasing, hi):
    p = draw(st.floats(0.2, 4.0))
    c = draw(st.floats(0.01, 3.0))
    if increasing:
        d = draw(st.floats(0.0, 1.5))
    else:
        # lowest value on [0, hi] is d - c * hi^p, kept non-negative
        c, d = -c, c * hi**p + draw(st.floats(0.0, 1.0))
    return function_from_expression(f"{c!r}*x^{p!r}+{d!r}", RealInterval(0.0, 3.0))


def _affine_root(draw, increasing, hi):
    r = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    c = draw(st.floats(0.01, 2.0))
    if increasing != (r > 0):
        c = -c
    # c*x + d stays at least 0.05 on [0, 3], so r < 0 never meets a zero base
    d = max(0.0, -3.0 * c) + draw(st.floats(0.05, 1.0))
    return function_from_expression(f"({c!r}*x+{d!r})^(1/{r!r})", RealInterval(0.0, 3.0))


@st.composite
def monotone_cases(draw):
    lo = draw(st.floats(0.0, 2.0))
    hi = lo + draw(st.floats(0.05, 1.0))
    family = draw(st.sampled_from([_power_affine, _affine_root]))
    f = family(draw, draw(st.booleans()), hi)
    return f, RealInterval(lo, hi)


@settings(max_examples=80, deadline=None)
@given(case=monotone_cases())
def test_crossing_kernel_matches_the_oracles(case):
    f, A = case
    res = sugeno_integral(f, A)
    assert res.method is IntegralMethod.FIXED_POINT
    assert res.residual <= 1e-9
    assert abs(res.value - _oracle(f, A)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(0.0, 2.0),
    width=st.floats(0.05, 1.0),
    scale=st.floats(0.0, 3.0),
    increasing=st.booleans(),
)
def test_crossing_kernel_on_constants_and_saturated_integrands(lo, width, scale, increasing):
    # scale < 1 puts a constant below L = width, scale >= 1 at or above it;
    # the affine pieces make f(lo) (or f(hi)) reach scale * L with f saturated when scale >= 1
    A = RealInterval(lo, lo + width)
    level = scale * width
    slope = 0.5 if increasing else -0.5
    d = level - slope * (lo if increasing else lo + width)
    cases = [
        (function_from_expression(repr(level), A), min(level, width)),
        (function_from_expression(f"{slope!r}*x+{d!r}", RealInterval(0.0, 3.0)), None),
    ]
    for f, exact in cases:
        res = sugeno_integral(f, A)
        assert abs(res.value - _oracle(f, A)) <= 1e-9
        if exact is not None:
            assert res.value == pytest.approx(exact, abs=1e-9)
        if scale >= 1.0:
            assert res.value == pytest.approx(width, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(0.0, 1.0),
    width=st.floats(0.1, 1.0),
    at=st.floats(0.1, 0.9),
    below=st.floats(0.0, 0.99),
    above=st.floats(0.0, 1.0),
    increasing=st.booleans(),
)
def test_crossing_kernel_on_a_jump_at_the_crossing(lo, width, at, below, above, increasing):
    # f jumps at x0 from under the diagonal measure to over it, so F jumps
    # across the diagonal and the integral is the level set's measure
    A = RealInterval(lo, lo + width)
    x0 = lo + at * width
    side = A.hi - x0 if increasing else x0 - lo
    low, high = below * side, side + above

    def step(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= x0, high, low) if increasing else np.where(x <= x0, high, low)

    mono = Monotonicity.INCREASING if increasing else Monotonicity.DECREASING
    f = from_callable(step, A, mono)
    res = sugeno_integral(f, A)
    assert res.method is IntegralMethod.FIXED_POINT
    assert res.value == pytest.approx(side, abs=1e-9)
    assert abs(res.value - _oracle(f, A)) <= 1e-9


def _crossing_families(rng):
    """(source, interval, integral) of seeded increasing and decreasing pow,
    root, exp and log integrands on a random interval [lo, hi]: each is
    v + c*(phi(x) - phi(x0)) with f(x0) = v, where v is hi - x0 (c > 0) or
    x0 - lo (c < 0), so its gap crosses zero at x0 and its integral is v."""
    u = rng.uniform
    p, r, a = u(1.2, 4.0), u(1.5, 4.0), u(0.2, 3.0)
    phis = [(f"x^{p!r}", lambda x: x**p), (f"x^(1/{r!r})", lambda x: x ** (1 / r)),
            (f"exp({a!r}*x)", lambda x: math.exp(a * x)), ("log(x)", math.log)]
    lo = u(0.1, 2.0)
    hi = lo + u(0.05, 1.5)
    out = []
    for src, phi in phis:
        for increasing in (True, False):
            x0 = lo + u(0.05, 0.95) * (hi - lo)
            v = hi - x0 if increasing else x0 - lo
            # the largest |c| that keeps f >= 0 at its low end
            cap = v / (phi(x0) - phi(lo) if increasing else phi(hi) - phi(x0))
            c = u(0.05, 0.95) * cap * (1.0 if increasing else -1.0)
            out.append((f"{v!r} + {c!r}*({src} - {phi(x0)!r})", RealInterval(lo, hi), v))
    return out


def test_crossing_rounds_on_seeded_families():
    """Residual and closed-form error within tol at every tol, and one array
    call after the guard sample down to tol 1e-9: the interpolated crossing
    lands within the ladder's finest steps of the root."""
    rng = np.random.default_rng(1973)
    for _ in range(25):
        for src, A, want in _crossing_families(rng):
            f = function_from_expression(src, A)
            ev = f.evaluate
            for tol in (1e-6, 1e-9, 1e-12):
                calls = []
                res = sugeno_integral(
                    dataclasses.replace(f, evaluate=lambda x: calls.append(np.size(x)) or ev(x)),
                    A, tol=tol)
                assert (res.method, res.hint, res.pieces) == (
                    IntegralMethod.FIXED_POINT, "certified", 1), src
                assert res.residual <= tol and abs(res.value - want) <= tol, (src, tol)
                assert calls[0] == sugeno.CROSSING_POINTS, src
                if tol >= 1e-9:
                    assert len(calls) == 2, (src, tol, calls)


@pytest.mark.parametrize("name, fn, want", [
    # a jump at the crossing x0 = 0.6180339887: the integral is 1 - x0
    ("jump at the crossing", lambda x: np.where(x >= 0.6180339887, 0.9, 0.1),
     1.0 - 0.6180339887),
    # 0.5x + 0.1 crosses 1 - x at 0.6 before its jump at 0.8, and 0.5x + 0.3
    # at 0.7/1.5 after its jump at 0.3
    ("jump before the crossing", lambda x: 0.5 * x + 0.1 + np.where(x >= 0.3, 0.2, 0.0),
     1.0 - 0.7 / 1.5),
    ("jump past the crossing", lambda x: 0.5 * x + 0.1 + np.where(x >= 0.8, 0.2, 0.0),
     1.0 - 0.9 / 1.5),
    # steps of floor(4x)/4 + 0.3: 1 - x crosses the step 0.55 at 0.45, and the
    # integral is the largest min(level, 1 - left end) over the steps
    ("staircase", lambda x: np.floor(4.0 * x) / 4.0 + 0.3,
     max(min(k / 4.0 + 0.3, 1.0 - k / 4.0) for k in range(4))),
    # a kink at the crossing 0.55, slopes 0.2 and 3 on either side
    ("kink at the crossing", lambda x: 0.45 + np.where(x < 0.55, 0.2, 3.0) * (x - 0.55), 0.45),
])
def test_declared_integrands_with_jumps_and_kinks(name, fn, want):
    """Each value is within its residual of the exact one, in at most four
    array calls: a jump or a kink at the crossing leaves the ladder's cell too
    wide, and the later rounds re-grid it uniformly."""
    calls = []
    f = from_callable(lambda x: calls.append(np.size(x)) or fn(np.asarray(x, dtype=float)),
                      UNIT, Monotonicity.INCREASING)
    res = sugeno_integral(f, UNIT)
    assert (res.method, res.hint) == (IntegralMethod.FIXED_POINT, "declared"), name
    assert res.residual <= 1e-9 and abs(res.value - want) <= res.residual + 1e-15, name
    assert 2 <= len(calls) <= 4, (name, calls)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    decimals=st.integers(0, 6),
    n=st.integers(1, 4000),
    lo=st.floats(0.0, 1.0),
    width=st.floats(0.01, 3.0),
)
def test_grid_search_equals_the_full_elementwise_supmin(coeffs, decimals, n, lo, width):
    # rounding makes ties and plateaus; the reference builds the whole
    # min(sample, level) array the way the grid form did before the search
    A = RealInterval(lo, lo + width)

    def wave(x):
        x = np.asarray(x, dtype=float)
        y = sum(c * np.sin((k + 1) * 7.0 * x) for k, c in enumerate(coeffs))
        return np.round(np.abs(y), decimals)

    f = from_callable(wave, A)
    values = np.sort(wave(A.midpoints(n)))[::-1]
    levels = (np.arange(1, n + 1) / n) * A.length()
    reference = max(float(np.max(np.minimum(values, levels))), 0.0)
    assert sugeno_supmin_exact(f, A, n).value == reference


# -- the selected crossing of the grid form against the fully sorted sample --------


def _samples(rng, kind, n, mu):
    if kind == "uniform":
        return rng.uniform(0.0, rng.choice([0.2, 1.0, 3.0]) * mu, n)
    if kind == "constant":
        return np.full(n, rng.uniform(0.0, 2.0) * mu)
    if kind == "level-grid":  # values on the levels j * mu / n themselves
        return (rng.integers(0, n + 1, n) / n) * mu
    if kind == "few-valued":
        return rng.choice(rng.uniform(0.0, 1.5 * mu, 3), n)
    if kind == "all-below":
        return rng.uniform(0.0, 0.01 * mu, n)
    if kind == "all-above":
        return rng.uniform(2.0 * mu, 3.0 * mu, n)
    if kind == "aliasing":  # one period per subsample stride: the subsample sees one phase
        period = rng.uniform(0.0, 1.2 * mu, sugeno.SUBSAMPLE_STRIDE)
        period[0] = rng.uniform(0.0, 1.2 * mu)
        return np.resize(period, n)
    # a smooth non-monotone function on the midpoint grid, as the integral samples it
    xs = (np.arange(n) + 0.5) / n
    s, k = rng.uniform(0.2, 0.8), rng.uniform(0.5, 2.0)
    return mu * np.abs(rng.uniform(0.3, 1.2) - k * (xs - s) ** 2)


KINDS = ("uniform", "constant", "level-grid", "few-valued", "all-below", "all-above",
         "aliasing", "smooth")


def _supmin_formula(v, mu):
    """The definitional sup-min of a sample: the largest of min(v_j, j * mu / n)
    over the descending sample v_1 >= ... >= v_n."""
    n = v.size
    return float(np.max(np.minimum(np.sort(v)[::-1], (np.arange(1, n + 1) / n) * mu)))


def _oscillating(rng):
    """(family, source, A, n): a seeded DSL integrand that oscillates 40 to 4096
    times faster than its trend, on a random interval."""
    u = rng.uniform
    lo = u(-0.5, 1.0)
    A = RealInterval(lo, lo + float(rng.choice([0.5, 1.0, 2.5])))
    k, d = float(np.exp(u(math.log(40.0), math.log(4096.0)))), u(0.01, 0.25)
    a = float(u(0.3, 1.5) * rng.choice([-1.0, 1.0]))
    c = u(0.0, 0.5) + max(0.0, -a * A.hi, -a * A.lo)
    family, source = [
        ("abs-sin", f"{c!r} + {a!r}*x + {d!r}*abs(sin({k!r}*{PI}*x))"),
        ("sin", f"{c + d!r} + {a!r}*x + {d!r}*sin({k!r}*x)"),
        ("cos-squared", f"{d!r}*cos({k!r}*x)^2 + {u(0.0, 1.0)!r}"),
        ("exp", f"exp({a!r}*x)*(1 + {d!r}*abs(sin({k!r}*x)))"),
        ("log", f"log(2 + x + {d!r}*sin({k!r}*x))"),
    ][rng.integers(5)]
    return family, source, A, int(rng.choice([131_073, 200_000, 400_000]))


def _settled(fn):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def grid_windows():
    """(kind, n, size of the last window ``_prefix_end`` searches or None
    where the call raised, whether a block went unevaluated) of 200 seeded
    lookup integrands on the grid form, each checked bit for bit against the
    definitional sup-min of its sample, and of 240 oscillating DSL integrands
    and four edge cases, each checked against the same function without its
    interval extension (the same result, or the same error)."""
    windows, out = [], []
    prefix_end = sugeno._prefix_end
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sugeno, "_prefix_end",
                            lambda desc, *args: windows.append(desc.size) or prefix_end(desc, *args))
        rng = np.random.default_rng(4)
        for kind in KINDS:
            for _ in range(25):
                n = int(rng.choice([1, 7, sugeno.SUBSAMPLE_STRIDE - 1, 1000, 4097, 30_000, 200_000]))
                lo = rng.uniform(0.0, 1.0)
                A = RealInterval(lo, lo + float(rng.choice([1e-3, 0.5, 1.0, 2.7, 40.0])))
                v = _samples(rng, kind, n, A.length())
                want = max(_supmin_formula(v, A.length()), 0.0)
                # pointwise: each midpoint looks up its own cell's value
                cells = A.midpoints(n)
                lookup = from_callable(lambda x, v=v, cells=cells: v[np.searchsorted(cells, x)], A)
                res = sugeno_supmin_exact(lookup, A, n)
                assert res.value == want, (kind, n)
                out.append((kind, n, windows[-1], False))
        rng = np.random.default_rng(31)
        cases = [_oscillating(rng) for _ in range(240)] + [
            # -0.2 between guard points, in the first block only; blocks past
            # it go unevaluated until the sign check fails
            ("dip", f"4*x + 0.2*sin({PI}*4096*x)", UNIT, 1_000_000),
            ("saturated", f"2 + 0.5*sin(300*{PI}*x)", RealInterval(0.2, 1.4), 400_000),  # mu
            ("plateau", "0.3 + 0*sin(900*x)", UNIT, 200_000),  # top == bottom
            ("tiny", "0.5 + x/3 + 0.1*abs(sin(700*x))", UNIT, sugeno.SUBSAMPLE_STRIDE - 1),
        ]
        for kind, source, A, n in cases:
            f, points = function_from_expression(source, A), []
            ev = f.evaluate
            counted = dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x))
            got = _settled(lambda: sugeno_supmin_exact(counted, A, n))
            window = windows[-1] if isinstance(got, sugeno.SugenoResult) else None
            want = _settled(lambda: sugeno_supmin_exact(from_callable(f.evaluate, A), A, n))
            assert got == want, (source, A, n)
            subsample = -(-n // sugeno.SUBSAMPLE_STRIDE)
            out.append((kind, n, window, sum(points) < n + subsample))
    return out


def test_selected_crossing_equals_the_sorted_sample(grid_windows):
    """The grid form selects the crossing where it can prove a bracket and
    sorts the whole sample otherwise; either way it returns the floats the
    definitional sup-min of the sample gives, bit for bit.  The path shows in
    the size of the last window ``_prefix_end`` searches: the whole sample
    when it was sorted."""
    paths = {}  # kind: [selected, sorted]
    tiny = [0, 0]
    for kind, n, window, _ in grid_windows:
        whole = window == n
        paths.setdefault(kind, [0, 0])[whole] += window is not None
        if n < sugeno.SUBSAMPLE_STRIDE:
            tiny[whole] += 1
    assert sum(s for s, _ in paths.values()) > 0 and sum(f for _, f in paths.values()) > 0
    assert paths["smooth"][0] > 0 and paths["level-grid"][0] > 0
    assert paths["constant"][0] == 0  # one tie block holds the whole sample
    assert paths["plateau"] == [0, 1] and paths["dip"] == [0, 0]
    assert tiny[0] == 0 and tiny[1] > 0


def test_proven_window_over_half_the_sample_is_sorted_as_a_window(grid_windows):
    """A proven bracket is searched as a window whatever its size: no whole
    sort for a window that holds more than half the sample."""
    wide = [kind for kind, n, window, _ in grid_windows if window and n < 2 * window < 2 * n]
    assert len(wide) >= 10 and {"level-grid", "smooth"} <= set(wide)


def test_skipped_blocks_leave_the_grid_form_unchanged(grid_windows):
    """Blocks whose enclosure clears the crossing bracket go unevaluated in at
    least half the oscillating cases, which give the floats (or the error) of
    the whole sample all the same; every edge case ends with every block
    evaluated (the dip's skipped blocks before its sign check raises)."""
    families = ("abs-sin", "sin", "cos-squared", "exp", "log")
    skipped = [skip for kind, *_, skip in grid_windows if kind in families]
    assert len(skipped) == 240 and sum(skipped) >= 120
    edges = {kind: skip for kind, *_, skip in grid_windows
             if kind in ("dip", "saturated", "plateau", "tiny")}
    assert edges == dict.fromkeys(edges, False) and len(edges) == 4


@pytest.mark.parametrize("method, oracle", [
    ("auto", lambda f: sugeno_supmin_exact(f, UNIT)),
    ("supmin", lambda f: sugeno_supmin(f, UNIT, 1_000_000)),
], ids=["auto", "supmin"])
def test_grid_route_evaluates_once_per_grid(method, oracle):
    """An UNKNOWN-hinted integrand costs one 4097-point guard sample (the sign
    checks) and one 1e6-point sample (the grid form, after its subsample, or
    the sweep of the "supmin" method) taken in blocks of at most SAMPLE_BLOCK
    points, nothing else."""
    calls = []
    f = from_callable(lambda x: 0.9 - 1.3 * (np.asarray(x) - 0.45) ** 2, UNIT)
    assert f.monotonicity is Monotonicity.UNKNOWN and f.extension is None
    ev = f.evaluate
    counted = dataclasses.replace(f, evaluate=lambda x: calls.append(np.size(x)) or ev(x))
    res = sugeno_integral(counted, UNIT, method=method)
    assert calls[0] == 4097
    # the grid form evaluates its 3907-point subsample first; without an
    # extension it skips no block
    subsample = -(-1_000_000 // sugeno.SUBSAMPLE_STRIDE) if method == "auto" else 0
    assert calls[1:2] == ([subsample] if subsample else [sugeno.SAMPLE_BLOCK])
    assert max(calls[1:]) <= sugeno.SAMPLE_BLOCK and sum(calls[1:]) == 1_000_000 + subsample
    assert res == oracle(f)


# -- the blocked sample of the grid form against one whole-array evaluation --------

B = sugeno.SAMPLE_BLOCK
_OPS = ("+", "-", "*", "/", "^")
_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "abs")


def _random_source(rng, depth=4):
    """A random DSL expression over every operator and function."""
    if depth == 0 or rng.uniform() < 0.1:
        return "x" if rng.uniform() < 0.5 else f"{rng.uniform(0.0, 3.0):.3f}"
    kind = rng.uniform()
    if kind < 0.5:
        op = _OPS[rng.integers(len(_OPS))]
        return f"({_random_source(rng, depth - 1)} {op} {_random_source(rng, depth - 1)})"
    if kind < 0.6:
        return f"-{_random_source(rng, depth - 1)}"
    return f"{_FUNCS[rng.integers(len(_FUNCS))]}({_random_source(rng, depth - 1)})"


def _compiled(src, A):
    """The compiled expression, without the hint sample that would reject it."""
    return from_callable(compile_expression(parse_expression(src)), A)


def _outcome(fn):
    try:
        values = fn()
    except EvalError as exc:
        return ("EvalError", str(exc))
    return ("values", np.asarray(values, dtype=float).tobytes())


_SAMPLE_SOURCES = ["x", "0.35"] + [_random_source(np.random.default_rng(seed)) for seed in range(12)]


@pytest.mark.parametrize("n", [1, 7, B - 1, B, B + 1, 3 * B + 5, 1_000_000])
@pytest.mark.parametrize("A", [RealInterval(-0.7, 0.4), RealInterval(0.3, 2.1)])
def test_blocked_sample_equals_the_whole_sample(n, A):
    """Bit for bit the floats of f.evaluate(A.midpoints(n)), and its minimum;
    an error is the one the whole-array evaluation raises."""
    sampled = 0
    for src in _SAMPLE_SOURCES:
        f = _compiled(src, A)
        whole = _outcome(lambda: f.evaluate(A.midpoints(n)))
        assert _outcome(lambda: sugeno._grid_sample(f, A, n)[0]) == whole, src
        if whole[0] == "values":
            sampled += 1
            values, low = sugeno._grid_sample(f, A, n)
            assert values.flags.writeable and values.shape == (n,)
            assert low == np.min(f.evaluate(A.midpoints(n)))
    assert sampled >= 4


def test_blocked_sample_raises_the_unblocked_error():
    # the first block ends below x = 0.5, so alone it fails the log check;
    # the whole sample fails the sqrt check first, in tree order, with the
    # interval extension that lets the grid form skip blocks or without it
    src = "sqrt(0.5 - x) + log(x - 0.3)"
    f = _compiled(src, UNIT)
    with pytest.raises(EvalError, match="log of a non-positive value"):
        f.evaluate(UNIT.midpoints(1_000_000)[:B])
    with pytest.raises(EvalError, match="sqrt of a negative value"):
        f.evaluate(UNIT.midpoints(1_000_000))
    for g in (f, dataclasses.replace(f, extension=extend_expression(parse_expression(src)))):
        with pytest.raises(EvalError, match="sqrt of a negative value"):
            sugeno_supmin_exact(g, UNIT)
        with pytest.raises(EvalError, match="sqrt of a negative value"):
            sugeno_supmin(g, UNIT, 1_000_000)


def _holed(x):
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.3) & (x < 0.31), np.nan, 0.9 - (x - 0.4) ** 2)


@pytest.mark.parametrize("integrate", [
    lambda f: sugeno_integral(f, UNIT),
    lambda f: sugeno_integral(f, UNIT, method="supmin"),
    lambda f: sugeno_supmin_exact(f, UNIT),
    lambda f: sugeno_supmin(f, UNIT, 1_000_000),
], ids=["auto", "supmin-method", "supmin-exact", "supmin"])
def test_nan_sample_raises(integrate):
    """A NaN integrand value is an error, not the largest sample."""
    with pytest.raises(EvalError, match="NaN"):
        integrate(from_callable(_holed, UNIT))


# -- the piecewise form on certified pieces ------------------------------------------

PI = "3.141592653589793"


def _families(rng):
    """(source, monotone pieces) of seeded tents, quadratics, boxes and bumps on [0, 1]."""
    u = rng.uniform
    s, k = u(0.3, 0.7), u(0.5, 2.0)
    out = [(f"{u(0.5, 2.0)!r}*abs(x - {u(0.2, 0.8)!r})", 2),
           (f"{k * max(s, 1 - s) ** 2 + u(0.05, 0.5)!r} - {k!r}*(x - {s!r})^2", 2)]
    for height, width in ((u(0.15, 0.25), u(0.45, 0.6)), (u(0.6, 1.0), u(0.25, 0.45))):
        base, p, ramp = u(0.0, 0.1), u(0.1, 0.3), u(0.005, 0.02)
        g = height / (2 * ramp)
        out.append((f"{base!r} + {g!r}*(abs(x - {p!r}) - abs(x - {p + ramp!r})"
                    f" - abs(x - {p + width - ramp!r}) + abs(x - {p + width!r}))", 4))
    n = int(rng.integers(1, 7))
    out.append((f"{u(0.4, 1.5)!r}*abs(sin({n}*{PI}*x))", 2 * n))
    return out


def _counting(f, calls):
    ext = f.extension
    return dataclasses.replace(f, extension=lambda a, b: calls.append((a, b)) or ext(a, b))


def _split_at_the_grid_form(monkeypatch, calls):
    """The list the crossing forms' entries of ``calls`` move to when the grid
    form starts, leaving ``calls`` to the grid form's own."""
    crossing, exact = [], sugeno.sugeno_supmin_exact

    def split(*args):
        crossing[:], calls[:] = calls, []
        return exact(*args)

    monkeypatch.setattr(sugeno, "sugeno_supmin_exact", split)
    return crossing


class TestPiecewiseForm:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_exact_grid(self, seed):
        """Within pieces * mu / n of the grid form (each boundary point of a
        level set moves the grid's count by less than a cell) plus tol."""
        n, tol = 1_000_000, 1e-9
        for src, pieces in _families(np.random.default_rng(seed)):
            f = function_from_expression(src, UNIT)
            assert f.monotonicity is Monotonicity.UNKNOWN, src
            res = sugeno_integral(f, UNIT, tol=tol)
            assert (res.method, res.hint) == (IntegralMethod.FIXED_POINT, "certified"), src
            assert 2 <= res.pieces <= pieces and res.residual <= tol, src
            grid = sugeno_supmin_exact(f, UNIT, n).value
            assert abs(res.value - grid) <= pieces / n + tol, src

    def test_tent_against_its_closed_form(self):
        for c, s in ((1.3, 0.37), (0.7, 0.5), (2.0, 0.8)):
            def measure(b):  # both arms of the V, each clipped to [0, 1]
                return max(0.0, s - b / c) + max(0.0, 1.0 - s - b / c)

            res = sugeno_integral(function_from_expression(f"{c}*abs(x - {s})", UNIT), UNIT)
            assert res.value == pytest.approx(bisect_root(lambda b: measure(b) - b, 0.0, 1.0), abs=1e-9)
            assert res.pieces == 2

    def test_narrow_dip_is_integrated_exactly(self):
        """A dip of depth 0.3 and half-width 1e-5 that no guard point sees: the
        sampled hint called this increasing and returned 1/3."""
        c = 0.90013
        f = function_from_expression(
            f"x/2 - 0.3*(1e-5 - abs(x - {c}) + abs(abs(x - {c}) - 1e-5))/2e-5", UNIT)
        assert f.monotonicity is Monotonicity.UNKNOWN
        res = sugeno_integral(f, UNIT)
        # F(b) = 1 - 2b - K (b - c/2 + 0.3): the dip's slopes are -(3e4 - 1/2) and 3e4 + 1/2
        K = 1 / (3e4 - 0.5) + 1 / (3e4 + 0.5)
        want = (1 - K * (0.3 - c / 2)) / (3 + K)
        assert want == pytest.approx(0.3333292608, abs=1e-10)
        assert res.value == pytest.approx(want, abs=1e-9)
        assert res.method is IntegralMethod.FIXED_POINT and res.residual <= 1e-9

    def test_positive_spike_between_the_guard_points_is_integrated(self):
        """A spike of height 1/2 and half-width 3e-5 that no guard point sees:
        the all-zero guard sample used to return 0 outright."""
        f = function_from_expression(
            "0.5*(3e-05 - abs(x - 0.9001) + abs(abs(x - 0.9001) - 3e-05))/6e-05", UNIT)
        assert f.evaluate(UNIT.grid(sugeno.CROSSING_POINTS)).max() <= 0.0
        res = sugeno_integral(f, UNIT)
        # F(b) = 6e-5*(1 - 2b) meets the diagonal at 6e-5/(1 + 1.2e-4)
        assert res.value == pytest.approx(6e-5 / (1 + 1.2e-4), abs=1e-9)
        assert res.value == pytest.approx(sugeno_supmin_exact(f, UNIT).value, abs=2e-6)
        # a zero integrand takes the route its hint selects
        zero = sugeno_integral(function_from_expression("0*x", UNIT), UNIT)
        assert (zero.value, zero.method, zero.hint) == (0.0, IntegralMethod.FIXED_POINT, "certified")

    def test_callable_spike_between_the_guard_points_is_integrated(self):
        """The same kind of spike in a callable, which has no interval
        extension: the grid form sees it."""
        f = from_callable(lambda x: np.maximum(0, 0.5 - abs(x - 0.9001) / 6e-5), UNIT)
        assert f.evaluate(UNIT.grid(sugeno.CROSSING_POINTS)).max() <= 0.0
        res = sugeno_integral(f, UNIT)
        assert res == sugeno_supmin_exact(f, UNIT)
        assert res.value == pytest.approx(6e-5 / (1 + 1.2e-4), abs=2e-6)

    def test_negative_dip_between_the_guard_points_raises(self):
        f = function_from_expression(
            "x/2 - 0.6*(1e-5 - abs(x - 0.90013) + abs(abs(x - 0.90013) - 1e-5))/2e-5", UNIT)
        ys = f.evaluate(UNIT.grid(sugeno.CROSSING_POINTS))
        assert ys.min() >= 0.0  # the guard sample alone misses it
        with pytest.raises(NegativeFunction, match="integrand reaches -"):
            sugeno_integral(f, UNIT)

    def test_negative_dip_below_the_crossing_raises(self):
        """The dip to -0.01 at x = 0.0301 lies far below the crossing level
        2/3, so the crossing rounds would never bisect its gap; the sign guard
        bisects it first."""
        f = function_from_expression(
            "2*x - 0.0702*(3e-05 - abs(x - 0.0301) + abs(abs(x - 0.0301) - 3e-05))/6e-05", UNIT)
        assert f.evaluate(UNIT.grid(sugeno.CROSSING_POINTS)).min() >= 0.0
        with pytest.raises(NegativeFunction, match="integrand reaches -0.00"):
            sugeno_integral(f, UNIT)

    def test_touching_zero_is_not_negative(self):
        for src in ("abs(x - 0.3)", "(x - 0.5)^2", "(x - 0.5)^2 - 1e-13"):
            res = sugeno_integral(function_from_expression(src, UNIT), UNIT)
            assert res.method is IntegralMethod.FIXED_POINT, src

    def test_quadratic_costs_a_few_evaluations(self, monkeypatch):
        """The guard sample, then one ladder round at the inverse-quadratic
        crossings, sampling only cells that are live in that round."""
        calls, points, live = [], [], []
        f = _counting(function_from_expression("0.9 - 1.3*(x - 0.45)^2", UNIT), calls)
        ev = f.evaluate
        f = dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x))
        solve = sugeno._interpolated_level
        monkeypatch.setattr(sugeno, "_interpolated_level",
                            lambda low, *rest: live.append(low.size) or solve(low, *rest))
        res = sugeno_integral(f, UNIT)
        assert len(calls) == 3  # two pieces and the turning gap
        assert points[0] == sugeno.CROSSING_POINTS and len(points) == 2
        assert 0 < points[1] <= sugeno.LADDER.size * live[0]
        assert res.value == pytest.approx(0.727833825, abs=1e-8)

    def test_alias_is_refused_before_any_interval_evaluation(self, monkeypatch):
        calls, points = [], []
        f = function_from_expression(f"x/2 + 0.2*abs(sin({PI}*2048*x))", UNIT)
        assert f.monotonicity is Monotonicity.UNKNOWN
        crossing = _split_at_the_grid_form(monkeypatch, calls)
        counted = dataclasses.replace(_counting(f, calls),
                                      evaluate=lambda x: points.append(np.size(x)) or f.evaluate(x))
        res = sugeno_integral(counted, UNIT)
        assert crossing == []
        # the grid form takes one enclosure per block and evaluates the guard
        # sample, the subsample and the 7 blocks that can reach the crossing
        assert len(calls) == 16 == -(-1_000_000 // sugeno.SAMPLE_BLOCK)
        assert sum(points) == 466_756 == 4097 + 3907 + 7 * sugeno.SAMPLE_BLOCK
        assert res == sugeno_supmin_exact(f, UNIT)
        assert (res.value, res.residual, res.method) == (0.418209, 1e-6, IntegralMethod.SUPMIN_GRID)

    def test_spent_budget_takes_the_grid_form(self, monkeypatch):
        box = "0.05 + 10*(abs(x - 0.2) - abs(x - 0.21) - abs(x - 0.7) + abs(x - 0.71))"
        f = function_from_expression(box, UNIT)
        assert sugeno_integral(f, UNIT).method is IntegralMethod.FIXED_POINT
        calls = []
        monkeypatch.setattr(sugeno, "INTERVAL_BUDGET", 4)
        crossing = _split_at_the_grid_form(monkeypatch, calls)
        res = sugeno_integral(_counting(f, calls), UNIT)
        assert len(crossing) == 4
        assert len(calls) <= -(-1_000_000 // sugeno.SAMPLE_BLOCK)  # one per block at most
        assert res == sugeno_supmin_exact(f, UNIT)

    def test_too_many_pieces_take_the_grid_form(self, monkeypatch):
        f = function_from_expression(f"abs(sin(3*{PI}*x))", UNIT)
        assert sugeno_integral(f, UNIT).pieces == 6
        monkeypatch.setattr(sugeno, "MAX_PIECES", 5)
        assert sugeno_integral(f, UNIT) == sugeno_supmin_exact(f, UNIT)

    def test_single_certified_piece_takes_the_monotone_form(self):
        """Monotone on A though not on its domain: the same digits as the
        function certified on A itself."""
        A = RealInterval(0.6, 1.0)
        wide = function_from_expression("(x - 0.5)^2", UNIT)
        narrow = function_from_expression("(x - 0.5)^2", A)
        assert wide.monotonicity is Monotonicity.UNKNOWN
        assert narrow.monotonicity is Monotonicity.INCREASING
        assert sugeno_integral(wide, A) == sugeno_integral(narrow, A)
        assert sugeno_integral(wide, A).hint == "certified"

    def test_certified_and_declared_monotone_digits_agree(self):
        for src, mono in (("x^2/2", Monotonicity.INCREASING), ("exp(-2*x)", Monotonicity.DECREASING)):
            f = function_from_expression(src, UNIT)
            declared = from_callable(f.evaluate, UNIT, mono)
            res, ref = sugeno_integral(f, UNIT), sugeno_integral(declared, UNIT)
            assert (res.value, res.residual, res.method) == (ref.value, ref.residual, ref.method)
            assert (res.hint, ref.hint, res.pieces, ref.pieces) == ("certified", "declared", 1, 1)


def _tent_value(c, s):
    """The integral of c*|x - s| on [0, 1]: both arms of the V, each clipped."""
    return bisect_root(lambda b: max(0.0, s - b / c) + max(0.0, 1.0 - s - b / c) - b, 0.0, 1.0)


def _quad_value(h, k, s):
    """The integral of h - k*(x - s)^2 on [0, 1]: the level set around s, clipped."""
    def measure(b):
        w = math.sqrt(max(h - b, 0.0) / k)
        return min(1.0, s + w) - max(0.0, s - w)

    return bisect_root(lambda b: measure(b) - b, 0.0, 1.0)


@pytest.mark.parametrize("src, want", [
    ("1.0065430067516052 - 1.3063168331825055*(x - 0.6578105749635265)^2",
     _quad_value(1.0065430067516052, 1.3063168331825055, 0.6578105749635265)),
    ("0.5059130566290673*abs(x - 0.27453981830420665)",
     _tent_value(0.5059130566290673, 0.27453981830420665)),
    ("1.5492471205316165*abs(x - 0.7926081876560689)",
     _tent_value(1.5492471205316165, 0.7926081876560689)),
])
def test_piecewise_form_does_not_stop_above_tol(src, want):
    """The first round left these brackets narrower than a uniform re-grid of
    the live cells could resolve, and the search stopped once a round did not
    shrink the bracket, with residuals 2.85e-7, 1.7e-9 and 5.0e-7."""
    tol = 1e-9
    res = sugeno_integral(function_from_expression(src, UNIT), UNIT, tol=tol)
    assert res.method is IntegralMethod.FIXED_POINT and res.pieces == 2
    assert res.residual <= tol
    assert abs(res.value - want) <= tol


FAMILIES = ("tent", "quad", "step-jump", "step-slope", "bump")


def _closed_families(rng):
    """(source, monotone pieces, closed-form integral) of a seeded tent,
    quadratic, two step boxes and an integer-k bump on [0, 1]."""
    u = rng.uniform
    c, s = u(0.5, 2.0), u(0.2, 0.8)
    out = [(f"{c!r}*abs(x - {s!r})", 2, _tent_value(c, s))]
    s, k = u(0.3, 0.7), u(0.5, 2.0)
    h = k * max(s, 1 - s) ** 2 + u(0.05, 0.5)
    out.append((f"{h!r} - {k!r}*(x - {s!r})^2", 2, _quad_value(h, k, s)))
    for height, width in ((u(0.15, 0.25), u(0.45, 0.6)), (u(0.6, 1.0), u(0.25, 0.45))):
        base, p, ramp = u(0.0, 0.1), u(0.1, 0.3), u(0.005, 0.02)
        g = height / (2 * ramp)

        def measure(b, base=base, height=height, width=width, ramp=ramp):
            if b <= base:
                return 1.0
            return 0.0 if b > base + height else width - 2 * ramp * (b - base) / height

        out.append((f"{base!r} + {g!r}*(abs(x - {p!r}) - abs(x - {p + ramp!r})"
                    f" - abs(x - {p + width - ramp!r}) + abs(x - {p + width!r}))", 4,
                    bisect_root(lambda b: measure(b) - b, 0.0, 1.0)))
    c, n = u(0.4, 1.5), int(rng.integers(1, 7))
    out.append((f"{c!r}*abs(sin({n}*{PI}*x))", 2 * n, bisect_root(
        lambda b: (1.0 - 2.0 * math.asin(b / c) / math.pi if b <= c else 0.0) - b, 0.0, 1.0)))
    return out


def test_piecewise_rounds_on_seeded_families():
    """200 seeded integrands: residual within tol, the value within tol of its
    closed form (plus the 1e-13 of the oracle's bisection; a box whose F jumps
    across the diagonal has its crossing at the jump) and within pieces * mu / n
    + tol of the exact grid, and at most two evaluations after the guard
    sample; tents and quadratics take exactly one."""
    n, tol = 1_000_000, 1e-9
    rng = np.random.default_rng(2021)
    for _ in range(40):
        for name, (src, pieces, want) in zip(FAMILIES, _closed_families(rng)):
            f = function_from_expression(src, UNIT)
            points = []
            ev = f.evaluate
            res = sugeno_integral(
                dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x)),
                UNIT, tol=tol)
            assert (res.method, res.hint) == (IntegralMethod.FIXED_POINT, "certified"), src
            assert 2 <= res.pieces <= pieces and res.residual <= tol, src
            assert abs(res.value - want) <= tol + 1e-12, src
            assert abs(res.value - sugeno_supmin_exact(f, UNIT, n).value) <= pieces / n + tol, src
            assert points[0] == sugeno.CROSSING_POINTS and len(points) <= 3, src
            assert len(points) == 2 or name not in ("tent", "quad"), src


#: The most ``evaluate`` calls each of ``FAMILIES`` took, by tol, over 60 draws
#: of ``_closed_families(np.random.default_rng(7))`` when every ladder round
#: centred on chord crossings.
CHORD_CALLS = {1e-6: (2, 2, 1, 2, 2), 1e-9: (2, 3, 1, 2, 3), 1e-12: (2, 3, 1, 2, 3)}


@pytest.mark.parametrize("tol", sorted(CHORD_CALLS))
def test_inverse_quadratic_rounds_on_seeded_families(tol):
    """Within tol of the closed form (plus the 1e-13 of the oracle's
    bisection), and never more calls than chord-centred rounds took; at the
    default tol every tent and quadratic takes the guard sample and one
    ladder round, where 56 of the 60 quadratics took two."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        families = zip(FAMILIES, CHORD_CALLS[tol], _closed_families(rng))
        for name, most, (src, pieces, want) in families:
            f = function_from_expression(src, UNIT)
            points = []
            ev = f.evaluate
            res = sugeno_integral(
                dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x)),
                UNIT, tol=tol)
            assert res.residual <= tol and abs(res.value - want) <= tol + 1e-12, src
            assert len(points) <= most, src
            if tol == 1e-9 and name in ("tent", "quad"):
                assert len(points) == 2, src


def _narrow_bump_value(k):
    """The integral of exp(-k*(x - 0.5)^2) on [0, 1]: F(b) = 2*sqrt(-log(b)/k)."""
    return bisect_root(lambda b: 2.0 * math.sqrt(-math.log(b) / k) - b, 1e-9, 1.0, tol=1e-16)


@pytest.mark.parametrize("src, want, most", [
    # a kink of the same direction 6e-5 before the rising crossing 0.7736..., inside its cell
    ("abs(x - 0.3) + 0.8*abs(x - 0.7736)", 9 / 19, 3),
    # the crossings lie in the turning gap, 1.4e-4 from the peak: the gap's
    # halves, which run opposite ways, are the only cells that hold them
    ("exp(-400000000*(x - 0.5)^2)", _narrow_bump_value(4e8), 8),
    ("5000*abs(x - 0.5)", 5000 / 5002, 3),
])
def test_crossing_estimates_that_fail_cost_rounds_not_digits(src, want, most):
    """A kink inside the holding cell defeats the inverse quadratic, and a
    holding cell without a neighbour of its direction falls back to its
    chord: each costs rounds, never the value, and no more calls than the
    chord-centred rounds took (``most``)."""
    tol = 1e-9
    f = function_from_expression(src, UNIT)
    points = []
    ev = f.evaluate
    res = sugeno_integral(
        dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x)), UNIT, tol=tol)
    assert res.method is IntegralMethod.FIXED_POINT and res.pieces == 2
    assert res.residual <= tol and abs(res.value - want) <= tol
    assert len(points) <= most


# -- characterization of the piecewise form's bisections ------------------------------

#: (source, value, residual, pieces, ``evaluate`` calls, extension calls) on
#: [0, 1] at the default tol.  The kinks of the first four leave gaps that
#: both the sign guard and the crossing rounds bisect; the narrow bump's
#: turning gap is bisected by the sign guard alone.
BISECTED = [
    ("0.5*abs(x - 0.2) + 1*(x - 0.6 + abs(x - 0.6))",
     0.34285714285714286, 0.0, 31, 31, 61),
    ("0.5*abs(x - 0.2) + 1e3*(x - 0.6 + abs(x - 0.6))",
     0.39990007494379176, 4.440892098500626e-16, 41, 41, 81),
    ("0.5*abs(x - 0.2) + 1e6*(x - 0.6 + abs(x - 0.6))",
     0.399999900000075, 2.220446049250313e-16, 46, 52, 89),
    ("0.5*abs(abs(x - 0.45) - 0.25) + (x - 0.9 + abs(x - 0.9))",
     0.1185185185185185, 8.326672684688674e-17, 62, 60, 123),
    ("exp(-400000000*(x - 0.5)^2)",
     0.00028566898355480985, 3.658184866139891e-14, 2, 8, 5),
]


def _calls(f):
    """f with its ``evaluate`` and extension calls counted, and the two counters."""
    points, boxes = [], []
    ev, ext = f.evaluate, f.extension
    return dataclasses.replace(f, evaluate=lambda x: points.append(1) or ev(x),
                               extension=lambda a, b: boxes.append(1) or ext(a, b)), points, boxes


@pytest.mark.parametrize("src, value, residual, pieces, points, boxes", BISECTED)
def test_bisected_gaps_keep_their_digits_and_calls(src, value, residual, pieces, points, boxes):
    """The exact floats and call counts of the piecewise form on integrands
    whose gaps the sign guard and the crossing rounds bisect."""
    f, seen_points, seen_boxes = _calls(function_from_expression(src, UNIT))
    res = sugeno_integral(f, UNIT)
    assert (res.value, res.residual, res.method, res.hint, res.pieces) == (
        value, residual, IntegralMethod.FIXED_POINT, "certified", pieces)
    assert (len(seen_points), len(seen_boxes)) == (points, boxes)


def _reversed_when_short(ev):
    """``ev`` with the values of every array shorter than the guard sample
    reversed, which breaks an increasing function's direction on the ladder
    rounds alone, and the sizes of its calls."""
    sizes = []

    def reversed_when_short(x):
        sizes.append(np.size(x))
        ys = np.asarray(ev(x), dtype=float)
        return ys[::-1].copy() if np.size(x) < sugeno.CROSSING_POINTS else ys

    return reversed_when_short, sizes


def _give_ups(monkeypatch):
    """The reasons of every ``_GiveUp`` the piecewise form raises."""
    reasons = []
    piecewise = sugeno._piecewise

    def recording(*args):
        try:
            return piecewise(*args)
        except sugeno._GiveUp as exc:
            reasons.append(str(exc))
            raise

    monkeypatch.setattr(sugeno, "_piecewise", recording)
    return reasons


def test_unbounded_gap_hands_over_to_the_grid(monkeypatch):
    """The extension cannot bound the guard cell around the pole."""
    reasons = _give_ups(monkeypatch)
    f = function_from_expression("1/(x - 0.51)^2", UNIT)
    assert sugeno_integral(f, UNIT) == sugeno_supmin_exact(f, UNIT)
    assert reasons == ["no enclosure"]


def test_gap_at_float_resolution_hands_over_to_the_grid(monkeypatch):
    """abs(u) - abs(u) is 0 at every point, but its enclosure reaches -1e6 times
    the width of 3x - 1 below it: the sign guard bisects the gaps around 1/3
    (at least 43 bisections of two enclosures each, after 3 for the
    proposals) until one is a float wide."""
    reasons = _give_ups(monkeypatch)
    src = "abs(3*x - 1) + 1e6*(abs(3*x - 1) - abs(3*x - 1))"
    f, points, boxes = _calls(function_from_expression(src, UNIT))
    assert sugeno_integral(f, UNIT) == sugeno_supmin_exact(f, UNIT)
    assert reasons == ["gap at float resolution"] and len(boxes) >= 3 + 2 * 43


def test_midpoint_that_cannot_be_evaluated_hands_over_to_the_grid(monkeypatch):
    """No DSL integrand reaches this: a gap's enclosure proves f evaluable on
    it.  An ``evaluate`` that fails on every single point (the bisection
    midpoints) but not on arrays (the guard sample and the grid) does."""
    reasons = _give_ups(monkeypatch)
    f = function_from_expression("abs(x - 0.3) + (abs(x - 0.3) - abs(x - 0.3))", UNIT)
    ev = f.evaluate

    def arrays_only(x):
        if np.ndim(x) == 0:
            raise EvalError("a single point")
        return ev(x)

    g = dataclasses.replace(f, evaluate=arrays_only)
    assert sugeno_integral(g, UNIT) == sugeno_supmin_exact(f, UNIT)
    assert reasons == ["not evaluable"]


def test_one_piece_broken_by_a_ladder_round_hands_over_to_the_grid(monkeypatch):
    """x^2 on [-1, 1] has no direction on its domain, so on [0, 1] it takes
    the monotone form as the piecewise form's one certified piece.  Reversed
    on the ladder rounds' short arrays, it breaks that piece's direction, and
    the call hands over to the grid form once."""
    f = function_from_expression("x^2", RealInterval(-1.0, 1.0))
    assert f.monotonicity is Monotonicity.UNKNOWN
    res = sugeno_integral(f, UNIT)
    assert (res.method, res.hint, res.pieces) == (IntegralMethod.FIXED_POINT, "certified", 1)
    reasons = _give_ups(monkeypatch)
    ev, sizes = _reversed_when_short(f.evaluate)
    g = dataclasses.replace(f, evaluate=ev)
    assert sugeno_integral(g, UNIT) == sugeno_supmin_exact(g, UNIT)
    assert len(reasons) == 1
    assert sizes[0] == sugeno.CROSSING_POINTS and 1 < sizes[1] < sugeno.CROSSING_POINTS


# -- the interpolant of F that each piecewise round solves ----------------------------

def _interpolant_reference(low, high, w, settled, s_lo, s_hi, tol):
    """``_interpolated_level`` in plain loops, with the exit it takes: the
    bracket narrowed to the sup-levels of the step bounds, the largest
    min(e, settled + the widths of the cells with low >= e, or with high >= e)
    over the sorted ends e; unless that leaves it within tol, at the ends from
    the last at or below s_lo to the first at or above s_hi a cell adds w if
    low >= e, w (high - e) / (high - low) if low < e < high, else nothing."""
    ends = sorted([s_lo, s_hi, *low, *high])
    lower, upper = (max([settled] + [min(e, settled + sum(wi for v, wi in zip(levels, w) if v >= e))
                                     for e in ends]) for levels in (low, high))
    s_lo = max(s_lo, min(lower, s_hi))
    s_hi = min(s_hi, max(upper, s_lo))
    if s_hi - s_lo <= tol:
        return s_lo, s_hi, s_lo, None, "closed"
    first = max(i for i, e in enumerate(ends) if e <= s_lo)
    ends = ends[first : max([first] + [i for i, e in enumerate(ends) if e < s_hi]) + 2]
    excess = []
    for e in ends:
        measure = 0.0
        for lo, hi, wi in zip(low, high, w):
            if lo >= e:
                measure += wi
            elif lo < e < hi:
                measure += wi * (hi - e) / (hi - lo)
        excess.append(measure + settled - e)
    k = next((i for i, g in enumerate(excess) if g < 0.0), 0)
    if k == 0:
        return s_lo, s_hi, (s_hi if excess[0] >= 0.0 else s_lo), None, "bracket end"
    e0, e1 = ends[k - 1], ends[k]
    ga = excess[k - 1] - sum(wi for lo, hi, wi in zip(low, high, w) if lo == hi == e0)
    if ga < 0.0:
        return s_lo, s_hi, min(max(e0, s_lo), s_hi), None, "jump"
    gb = excess[k]
    b = min(max(e0 + (e1 - e0) * ga / (ga - gb), s_lo), s_hi)
    return s_lo, s_hi, b, (e0, e1, (gb - ga) / (e1 - e0)), "stretch"


def _interpolant_cells(rng):
    """Seeded live cells (low, high, w, settled, s_lo, s_hi): monotone runs up
    and down whose cells share their ends, flat cells tied at one level,
    overlapping gaps, settled > 0 and a bracket that holds the sup-levels.
    A tenth of the draws lift every level past the measure and a tenth settle
    more than every level, so that both ends of the bracket are reached."""
    low, high, w = [], [], []
    for _ in range(int(rng.integers(1, 4))):
        ys = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 9))))
        ys = ys if rng.uniform() < 0.5 else ys[::-1]
        low += np.minimum(ys[:-1], ys[1:]).tolist()
        high += np.maximum(ys[:-1], ys[1:]).tolist()
        w += rng.uniform(0.001, 0.1, ys.size - 1).tolist()
    level = float(rng.choice(low + high)) if rng.uniform() < 0.5 else float(rng.uniform(0.1, 0.6))
    for _ in range(int(rng.integers(0, 4))):
        low.append(level)
        high.append(level)
        w.append(float(rng.uniform(0.01, 0.2)))
    for _ in range(int(rng.integers(0, 4))):
        lo = float(rng.uniform(0.0, 0.8))
        low.append(lo)
        high.append(lo + float(rng.uniform(0.01, 0.5)))
        w.append(float(rng.uniform(0.001, 0.1)))
    order = rng.permutation(len(low))
    low, high, w = (np.array(a)[order] for a in (low, high, w))
    settled = float(rng.uniform(0.0, 0.3))
    kind = rng.uniform()
    if kind < 0.1:
        low, high = low + 5.0, high + 5.0
    elif kind < 0.2:
        settled += 5.0
    # a bracket that holds both sup-levels, as the previous round's does
    ends = np.sort(np.concatenate((low, high)))
    lower, upper = (max([settled] + [min(e, settled + w[levels >= e].sum()) for e in ends])
                    for levels in (low, high))
    s_lo = float(rng.uniform(min(ends[0], lower), lower))
    s_hi = float(rng.uniform(upper, max(ends[-1], upper)))
    return low, high, w, settled, s_lo, s_hi


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12)


def test_interpolated_level_matches_the_reference():
    """The narrowed bracket, the crossing level and its linear stretch on
    seeded cell sets, through each of the four exits: a closed bracket, an end
    of the bracket, the jump of a flat cell, and a root of the linear
    stretch."""
    exits = []
    for seed in range(1600):
        low, high, w, settled, s_lo, s_hi = _interpolant_cells(np.random.default_rng(seed))
        *got, stretch = sugeno._interpolated_level(low, high, w, settled, s_lo, s_hi, 1e-12)
        *want, want_stretch, taken = _interpolant_reference(
            low.tolist(), high.tolist(), w.tolist(), settled, s_lo, s_hi, 1e-12)
        assert all(map(_close, got, want)), seed
        assert (stretch is None) == (want_stretch is None), seed
        if stretch is not None:
            assert all(map(_close, stretch, want_stretch)), seed
        exits.append(taken)
    assert all(exits.count(taken) >= 20 for taken in ("closed", "bracket end", "jump", "stretch"))


def test_plateau_keeps_its_digits_and_calls(monkeypatch):
    """A plateau at the crossing level: its thousands of flat guard cells merge
    into one cell per run, so no round sorts more than 63 cells or keeps more
    than 33 live, where each round used to hold 2 869 to 3 021 live cells; the
    digits and the calls are those it had when every flat cell stayed apart."""
    f = function_from_expression(PLATEAU, UNIT)
    points, boxes, seen = [], [], []
    ev, ext = f.evaluate, f.extension
    f = dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x),
                            extension=lambda a, b: boxes.append(1) or ext(a, b))
    solve = sugeno._interpolated_level

    def recording(low, high, w, *rest):
        s_lo, s_hi, *out = solve(low, high, w, *rest)
        seen.append((low.size, int(np.count_nonzero((high >= s_lo) & (low <= s_hi) & (w > 0.0)))))
        return s_lo, s_hi, *out

    monkeypatch.setattr(sugeno, "_interpolated_level", recording)
    res = sugeno_integral(f, UNIT)
    assert (res.value, res.residual, res.method, res.hint, res.pieces) == (
        0.3, 6.487583803505004e-10, IntegralMethod.FIXED_POINT, "certified", 2)
    assert points == [sugeno.CROSSING_POINTS] + [46] * 7 and len(boxes) == 3
    assert seen == [(44, 4), (11, 6), (35, 8), (34, 25), (53, 12), (40, 14), (45, 29), (63, 33)]


# -- end cells first against plain halving of a failing proposal ---------------------


def _certify_by_halving(cert, xs, ys):
    """``sugeno._certify`` with plain halving of every failing range: the
    reference for the cells that trying a proposal's end cells first gives."""
    pieces, gaps = [], []
    stack = sugeno._proposals(ys)[::-1]
    while stack:
        i, j, turning = stack.pop()
        e = cert.enclose(xs[i], xs[j])
        up = e is not None and e.slope_lo >= 0.0
        down = e is not None and e.slope_hi <= 0.0
        if up or down:
            prev = pieces[-1] if pieces else None
            if prev and prev[1] == i and (prev[2] and up or prev[3] and down):
                prev[1:] = [j, prev[2] and up, prev[3] and down]
            else:
                pieces.append([i, j, up, down])
        elif j - i > 1 and not turning:
            mid = (i + j) // 2
            stack += [(mid, j, False), (i, mid, False)]
        elif e is None:
            raise sugeno._GiveUp("no enclosure")
        else:
            gaps.append((float(xs[i]), float(xs[j]), float(ys[i]), float(ys[j]), e.lo, e.hi, False))
    return pieces, gaps


def _certified_cells(certify, f, A):
    """The pieces and gap rows of the piecewise form from ``certify`` (they
    make its cells), and its extension calls."""
    xs = A.grid(sugeno.CROSSING_POINTS)
    ys = f.evaluate(xs)
    cert = sugeno._Certifier(f)
    try:
        return certify(cert, xs, ys), sugeno.INTERVAL_BUDGET - cert.left
    except sugeno._GiveUp as exc:
        return str(exc), sugeno.INTERVAL_BUDGET - cert.left


def test_end_cells_first_keeps_the_cells_of_plain_halving():
    """On seeded bumps c*|sin(k*pi*x)| and tents, trying the end cells of a
    failing proposal first gives the pieces and gap rows of plain halving,
    in fewer extension calls over all."""
    rng = np.random.default_rng(2112)
    fewer = calls_now = calls_then = 0
    for n in range(300):
        c = rng.uniform(0.2, 1.5)
        if n % 3:
            k = float(rng.integers(1, 13)) if n % 3 == 1 else rng.uniform(0.5, 12.0)
            src = f"{c!r}*abs(sin({k!r}*3.141592653589793*x))"
        else:
            src = f"{c!r}*abs(x - {rng.uniform(0.0, 1.0)!r})"
        A = RealInterval(0.0, float(rng.choice([1.0, rng.uniform(0.3, 2.0)])))
        f = function_from_expression(src, A)
        now, now_calls = _certified_cells(sugeno._certify, f, A)
        then, then_calls = _certified_cells(_certify_by_halving, f, A)
        assert now == then, src
        calls_now, calls_then = calls_now + now_calls, calls_then + then_calls
        fewer += now_calls < then_calls
    assert fewer > 40 and calls_now < 0.9 * calls_then


def test_overlapping_turning_ranges_merge():
    """A dip narrower than a guard cell turns the guard sample at indices 2047
    and 2048, whose turning ranges overlap and merge into one.  The crossing
    lies on the dip's rising arm, where F(b) = 1 - (5.001 + b)/11, so the
    integral is 5.999/12."""
    f = function_from_expression(
        "x - 5*(0.0001 - abs(x - 0.5) + abs(0.0001 - abs(x - 0.5)))", UNIT)
    ys = f.evaluate(UNIT.grid(sugeno.CROSSING_POINTS))
    assert sugeno._proposals(ys) == [(0, 2046, False), (2046, 2049, True), (2049, 4096, False)]
    res = sugeno_integral(f, UNIT)
    assert (res.method, res.hint, res.pieces) == (IntegralMethod.FIXED_POINT, "certified", 2)
    assert abs(res.value - 5.999 / 12) <= res.residual


# -- the calls and digits the piecewise rounds may not exceed -------------------------

#: The ``evaluate`` calls (one digit a draw) and extension calls of the piecewise
#: form on 40 draws of ``_closed_families(np.random.default_rng(2021))``, family
#: by family, when the first round still sorted every guard cell.
FAMILY_CALLS = {
    "tent": ("2222222222222222222222222222222222222222",
             "3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3"),
    "quad": ("2222222222222222222222222222222222222222",
             "3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3"),
    "step-jump": ("1111111111111111111111111111111111111111",
                  "18 12 16 18 20 16 18 14 14 12 20 12 18 18 20 18 10 18 14 18 "
                  "20 20 18 16 14 14 14 18 20 16 18 10 18 18 16 12 14 10 18 18"),
    "step-slope": ("2222222222222222222222222222222222222222",
                   "12 18 14 14 16 14 12 16 16 14 16 18 18 16 18 18 16 16 8 18 "
                   "16 16 10 8 18 16 16 16 12 14 14 16 16 14 12 16 18 16 18 16"),
    "bump": ("2322322322323233322332233322232233323333",
             "6 22 10 6 18 14 10 14 14 10 26 6 26 10 26 22 22 18 6 14 "
             "26 10 18 26 26 22 6 6 10 14 14 6 22 14 22 10 14 14 14 22"),
}

#: The bisection tolerance of ``bisect_root``, the closed forms' own error.
ORACLE_TOL = 1e-13


def test_seeded_families_take_no_more_calls_than_pinned():
    """Each draw within its residual of the closed form, and at most the
    pinned ``evaluate`` and extension calls."""
    rng = np.random.default_rng(2021)
    pinned = {name: (list(map(int, points)), list(map(int, boxes.split())))
              for name, (points, boxes) in FAMILY_CALLS.items()}
    for draw in range(40):
        for name, (src, pieces, want) in zip(FAMILIES, _closed_families(rng)):
            f, points, boxes = _calls(function_from_expression(src, UNIT))
            res = sugeno_integral(f, UNIT)
            assert (res.method, res.hint) == (IntegralMethod.FIXED_POINT, "certified"), src
            assert res.residual <= 1e-9 and abs(res.value - want) <= res.residual + ORACLE_TOL, src
            assert len(points) <= pinned[name][0][draw], src
            assert len(boxes) <= pinned[name][1][draw], src


PLATEAU = "0.3 + 0.5*(0.1 - x + abs(0.1 - x)) + 0.5*(x - 0.8 + abs(x - 0.8))"


#: (source, closed form, pieces, most ``evaluate`` calls, most extension calls)
#: on [0, 1] at the default tol: a plateau at the crossing level, a narrow spike
#: and a narrow bump whose crossings lie in cells no estimate resolves, and
#: nearly flat runs whose guard values step by rounding alone.
HARD_CASES = [
    (PLATEAU, 0.3, 2, 8, 3),
    ("(x + 0.3) - x + 0.5*(0.1 - x + abs(0.1 - x)) + 0.5*(x - 0.8 + abs(x - 0.8))", 0.3, 2, 8, 3),
    ("0.5*(3e-05 - abs(x - 0.9001) + abs(abs(x - 0.9001) - 3e-05))/6e-05", 6e-5 / (1 + 1.2e-4), 5, 16, 34),
    ("exp(-400000000*(x - 0.5)^2)", _narrow_bump_value(4e8), 2, 8, 5),
    ("0.3 + 1e-17*x", 0.3, 1, 2, 0),
    ("0.3 + 1e-12*abs(x - 0.5)", (1 + 0.6e12) / (1 + 2e12), 2, 1, 6),
    ("0.3 + 1e-17*x + 0.5*(0.1 - x + abs(0.1 - x))", 0.3, 2, 1, 28),
    ("(x + 0.1) - x + abs(x - 0.37)", 0.4, 2, 2, 3),
]


@pytest.mark.parametrize("src, want, pieces, most_points, most_boxes", HARD_CASES)
def test_hard_cases_take_no_more_calls_than_pinned(src, want, pieces, most_points, most_boxes):
    f, points, boxes = _calls(function_from_expression(src, UNIT))
    res = sugeno_integral(f, UNIT)
    assert (res.method, res.hint, res.pieces) == (IntegralMethod.FIXED_POINT, "certified", pieces)
    assert res.residual <= 1e-9 and abs(res.value - want) <= res.residual + ORACLE_TOL
    assert len(points) <= most_points and len(boxes) <= most_boxes
