import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhh.measure import (
    DistributionProfile,
    GridScan,
    Monotonicity,
    MonotoneClosedForm,
    RealInterval,
    affine_root_function,
    constant_function,
    from_callable,
    power_affine_function,
)
from fuzzyhh import sugeno
from fuzzyhh.expressions import (
    EvalError,
    compile_expression,
    function_from_expression,
    parse_expression,
)
from fuzzyhh.sugeno import (
    IntegralMethod,
    NegativeFunction,
    NoSignChange,
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
        res = sugeno_fixed_point(DistributionProfile(f, UNIT, MonotoneClosedForm()))
        assert res.value == pytest.approx(0.2023, abs=5e-4)
        # and the root of its own equation b = (1 - b)^4 / 2, derived independently
        root = bisect_root(lambda b: (1.0 - b) ** 4 / 2.0 - b, 0.0, 1.0)
        assert res.value == pytest.approx(root, abs=1e-9)

    def test_square_halved_is_two_minus_sqrt_three(self):
        f = function_from_expression("x^2/2", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT, MonotoneClosedForm()), tol=1e-12)
        assert res.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)

    def test_three_square(self):
        f = function_from_expression("3*x^2", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT, MonotoneClosedForm()), tol=1e-12)
        assert res.value == pytest.approx((7.0 - math.sqrt(13.0)) / 6.0, abs=1e-9)

    def test_identity_function_gives_half(self):
        f = function_from_expression("x", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT, MonotoneClosedForm()), tol=1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_residual_certifies_fixed_point(self):
        f = function_from_expression("x^2/2", UNIT)
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
        res = sugeno_fixed_point(profile, tol=1e-9)
        assert res.residual <= 1e-7
        assert abs(profile.at(res.value) - res.value) == pytest.approx(res.residual)

    def test_plateau_raises_no_sign_change(self):
        f = constant_function(0.3, UNIT)
        with pytest.raises(NoSignChange):
            sugeno_fixed_point(DistributionProfile(f, UNIT, MonotoneClosedForm()))

    def test_steep_distribution_is_not_a_jump(self):
        # F(b) = 1 - (b - 0.5)/1e-4 on [0.5, 0.5001] falls with slope -1e4, so
        # at width tol the gap is still 1e-5; b = F(b) gives b = 0.5001/1.0001
        f = function_from_expression("0.0001*x + 0.5", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT, MonotoneClosedForm()))
        assert res.value == pytest.approx(0.5001 / 1.0001, abs=1e-9)
        assert res.value == pytest.approx(0.5000499950, abs=1e-9)
        for k in (0.3, 0.999):  # constants below L still jump across the diagonal
            with pytest.raises(NoSignChange):
                sugeno_fixed_point(DistributionProfile(constant_function(k, UNIT), UNIT,
                                                       MonotoneClosedForm()))

    def test_grid_backed_profile_agrees(self):
        f = function_from_expression("x^4/2", UNIT)
        res = sugeno_fixed_point(DistributionProfile(f, UNIT, GridScan(10**6)))
        assert res.value == pytest.approx(0.2023, abs=5e-4)


class TestSupmin:
    def test_quartic_halved_oracle(self):
        f = function_from_expression("x^4/2", UNIT)
        res = sugeno_supmin(f, UNIT, 10**4)
        assert res.method is IntegralMethod.SUPMIN_GRID
        assert res.value == pytest.approx(0.2023, abs=1e-3)

    def test_constant_within_sweep_resolution(self):
        res = sugeno_supmin(constant_function(0.3, UNIT), UNIT, 10**4)
        assert res.value == pytest.approx(0.3, abs=2e-4)

    def test_constant_above_length_clamps_to_length(self):
        res = sugeno_supmin(constant_function(2.0, UNIT), UNIT, 10**4)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exact_grid_variant_is_exact_for_constants(self):
        assert sugeno_supmin_exact(constant_function(0.3, UNIT), UNIT, 10**5).value == 0.3
        assert sugeno_supmin_exact(constant_function(2.0, UNIT), UNIT, 10**5).value == 1.0

    def test_exact_grid_rejects_negative_samples(self):
        # zero at every point of the 4097-point guard grid, -0.1998 between them
        f = function_from_expression("x/2 + 0.2*sin(3.141592653589793*4096*x)", UNIT)
        assert np.min(f.evaluate(UNIT.grid(4097))) >= -1e-12
        with pytest.raises(NegativeFunction, match="-0.19"):
            sugeno_supmin_exact(f, UNIT)
        with pytest.raises(NegativeFunction):
            sugeno_integral(f, UNIT)

    def test_rejects_tiny_threshold_count(self):
        with pytest.raises(ValueError):
            sugeno_supmin(constant_function(0.3, UNIT), UNIT, 1)


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

    def test_constant_rule_is_exact_through_fallback(self):
        for k in (0.0, 0.3, 0.95, 1.0, 2.0):
            res = sugeno_integral(constant_function(k, UNIT), UNIT)
            assert res.value == pytest.approx(min(k, 1.0), abs=1e-9)

    def test_step_function_falls_back_to_supmin(self):
        f = from_callable(
            lambda x: np.where(np.asarray(x) <= 0.8, 0.3, 0.0), UNIT, name="step"
        )
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
        assert calls == [4097] * 3

    def test_forced_fixedpoint_propagates_plateau(self):
        with pytest.raises(NoSignChange):
            sugeno_integral(constant_function(0.3, UNIT), UNIT, method="fixedpoint")

    @pytest.mark.parametrize("method", ["auto", "fixedpoint", "supmin"])
    def test_grid_validated_on_every_route(self, method):
        # x is declared increasing, so "auto" never reaches the grid form
        f = function_from_expression("x", UNIT)
        for grid in (0, -3):
            with pytest.raises(ValueError, match="grid must be positive"):
                sugeno_integral(f, UNIT, grid=grid, method=method)

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
            c, d = rng.uniform(0.0, 3.0, 2)
            p = rng.uniform(0.3, 3.0)
            f = power_affine_function(c, p, d, UNIT)
            assert sugeno_integral(f, UNIT).value <= UNIT.length() + 1e-12

    def test_monotone_in_the_integrand(self):
        f = power_affine_function(1.0, 2.0, 0.1, UNIT)
        g = power_affine_function(1.5, 2.0, 0.2, UNIT)  # g >= f pointwise
        vf = sugeno_integral(f, UNIT, tol=1e-12).value
        vg = sugeno_integral(g, UNIT, tol=1e-12).value
        assert vf <= vg + 1e-9

    def test_threshold_rules(self):
        f = function_from_expression("x^2/2", UNIT)
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
        value = sugeno_integral(f, UNIT, tol=1e-12).value
        for beta in (0.05, 0.15, 0.25, 0.4, 0.9):
            if profile.at(beta) >= beta:
                assert value >= beta - 1e-9
            if profile.at(beta) <= beta:
                assert value <= beta + 1e-9

    def test_strict_characterizations(self):
        # value > alpha iff some gamma > alpha keeps F(gamma) > alpha, and dually
        f = function_from_expression("x^2/2", UNIT)
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
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
            c, d = rng.uniform(0.0, 1.0, 2)
            p = rng.uniform(0.25, 4.0)
            lo = rng.uniform(0.0, 0.5)
            hi = lo + rng.uniform(0.1, 0.5)
            A = RealInterval(lo, hi)
            f = power_affine_function(c, p, d, RealInterval(0.0, 1.0))
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
    res = sugeno_integral(constant_function(k, A), A)
    assert res.value == pytest.approx(min(k, A.length()), abs=1e-9)


# -- the crossing kernel against the fixed-point and grid oracles ------------------


def _oracle(f, A):
    """Nested-bisection fixed point; the exact grid sup-min where it has none.

    Returns (value, tolerance): 1e-9 for the fixed point, the grid's own
    cell measure on top of that for the sup-min.
    """
    try:
        profile = DistributionProfile(f, A, MonotoneClosedForm())
        return sugeno_fixed_point(profile, tol=1e-13).value, 1e-9
    except NoSignChange:
        res = sugeno_supmin_exact(f, A)
        return res.value, res.residual + 1e-9


def _power_affine(draw, increasing, hi):
    p = draw(st.floats(0.2, 4.0))
    c = draw(st.floats(0.01, 3.0))
    if increasing:
        return power_affine_function(c, p, draw(st.floats(0.0, 1.5)), RealInterval(0.0, 3.0))
    # lowest value on [0, hi] is d - c * hi^p, kept non-negative
    d = c * hi**p + draw(st.floats(0.0, 1.0))
    return power_affine_function(-c, p, d, RealInterval(0.0, 3.0))


def _affine_root(draw, increasing, hi):
    r = draw(st.floats(0.25, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    c = draw(st.floats(0.01, 2.0))
    if increasing != (r > 0):
        c = -c
    # c*x + d stays at least 0.05 on [0, 3], so r < 0 never meets a zero base
    d = max(0.0, -3.0 * c) + draw(st.floats(0.05, 1.0))
    return affine_root_function(c, d, r, RealInterval(0.0, 3.0))


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
    want, tol = _oracle(f, A)
    assert res.method is IntegralMethod.FIXED_POINT
    assert res.residual <= 1e-9
    assert abs(res.value - want) <= tol


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
    cases = [
        (constant_function(level, A), min(level, width)),
        (power_affine_function(slope, 1.0, level - slope * (lo if increasing else lo + width),
                               RealInterval(0.0, 3.0)), None),
    ]
    for f, exact in cases:
        res = sugeno_integral(f, A)
        want, tol = _oracle(f, A)
        assert abs(res.value - want) <= tol
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
    f = from_callable(step, A, mono, name="step")
    res = sugeno_integral(f, A)
    assert res.method is IntegralMethod.FIXED_POINT
    assert res.value == pytest.approx(side, abs=1e-9)
    want, tol = _oracle(f, A)
    assert abs(res.value - want) <= tol


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


def test_selected_crossing_equals_the_sorted_sample(monkeypatch):
    """The grid form selects the crossing where it can prove a bracket and
    sorts the whole sample otherwise; either way it returns the floats the
    sorted sample gives, bit for bit."""
    sorted_calls = []
    reference = sugeno._sorted_supmin
    monkeypatch.setattr(sugeno, "_sorted_supmin",
                        lambda v, mu: sorted_calls.append(v.size) or reference(v, mu))
    rng = np.random.default_rng(4)
    paths = {kind: [0, 0] for kind in KINDS}  # [selected, sorted]
    tiny = [0, 0]
    for kind in KINDS:
        for _ in range(25):
            n = int(rng.choice([1, 7, sugeno.SUBSAMPLE_STRIDE - 1, 1000, 4097, 30_000, 200_000]))
            lo = rng.uniform(0.0, 1.0)
            A = RealInterval(lo, lo + float(rng.choice([1e-3, 0.5, 1.0, 2.7, 40.0])))
            v = _samples(rng, kind, n, A.length())
            want = max(reference(np.sort(v), A.length()), 0.0)
            before = len(sorted_calls)
            # pointwise: each midpoint looks up its own cell's value
            cells = A.midpoints(n)
            lookup = from_callable(lambda x, v=v, cells=cells: v[np.searchsorted(cells, x)], A)
            res = sugeno_supmin_exact(lookup, A, n)
            assert res.value == want, (kind, n)
            fell_back = len(sorted_calls) > before
            paths[kind][fell_back] += 1
            if n < sugeno.SUBSAMPLE_STRIDE:
                tiny[fell_back] += 1
    assert sum(s for s, _ in paths.values()) > 0 and sum(f for _, f in paths.values()) > 0
    assert paths["smooth"][0] > 0 and paths["level-grid"][0] > 0
    assert paths["constant"][0] == 0  # one tie block holds the whole sample
    assert tiny[0] == 0 and tiny[1] > 0


def test_grid_route_evaluates_once_per_grid():
    """An UNKNOWN-hinted integrand costs one 4097-point guard sample (the sign
    checks) and one 1e6-point sample (the grid form) taken in blocks of at
    most SAMPLE_BLOCK points, nothing else."""
    calls = []
    f = from_callable(lambda x: 0.9 - 1.3 * (np.asarray(x) - 0.45) ** 2, UNIT)
    assert f.monotonicity is Monotonicity.UNKNOWN and f.extension is None
    ev = f.evaluate
    counted = dataclasses.replace(f, evaluate=lambda x: calls.append(np.size(x)) or ev(x))
    res = sugeno_integral(counted, UNIT)
    assert calls[0] == 4097
    assert max(calls[1:]) <= sugeno.SAMPLE_BLOCK and sum(calls[1:]) == 1_000_000
    assert res == sugeno_supmin_exact(f, UNIT)


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
    # the whole sample fails the sqrt check first, in tree order
    f = _compiled("sqrt(0.5 - x) + log(x - 0.3)", UNIT)
    with pytest.raises(EvalError, match="log of a non-positive value"):
        f.evaluate(UNIT.midpoints(1_000_000)[:B])
    with pytest.raises(EvalError, match="sqrt of a negative value"):
        f.evaluate(UNIT.midpoints(1_000_000))
    with pytest.raises(EvalError, match="sqrt of a negative value"):
        sugeno_supmin_exact(f, UNIT)


def test_nan_sample_takes_the_full_sort(monkeypatch):
    """A NaN in any block makes the minimum NaN, so the whole sample is
    sorted (NaN last), as for the unblocked sample."""
    sorted_calls = []
    reference = sugeno._sorted_supmin
    monkeypatch.setattr(sugeno, "_sorted_supmin",
                        lambda v, mu: sorted_calls.append(v.size) or reference(v, mu))
    monkeypatch.setattr(sugeno, "_selected_supmin", lambda v, mu: pytest.fail("selected"))

    def holed(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.3) & (x < 0.31), np.nan, 0.9 - (x - 0.4) ** 2)

    f = from_callable(holed, UNIT)
    want = max(reference(np.sort(holed(UNIT.midpoints(1_000_000))), 1.0), 0.0)
    res = sugeno_supmin_exact(f, UNIT)
    assert sorted_calls == [1_000_000]
    assert res.value == want


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

    def test_quadratic_costs_a_few_evaluations(self):
        calls, points = [], []
        f = _counting(function_from_expression("0.9 - 1.3*(x - 0.45)^2", UNIT), calls)
        ev = f.evaluate
        f = dataclasses.replace(f, evaluate=lambda x: points.append(np.size(x)) or ev(x))
        res = sugeno_integral(f, UNIT)
        assert len(calls) == 3  # two pieces and the turning gap
        assert points[0] == sugeno.CROSSING_POINTS
        assert all(p == 2 * sugeno.ROUND_POINTS for p in points[1:]) and len(points) <= 5
        assert res.value == pytest.approx(0.727833825, abs=1e-8)

    def test_alias_is_refused_before_any_interval_evaluation(self):
        calls = []
        f = function_from_expression(f"x/2 + 0.2*abs(sin({PI}*2048*x))", UNIT)
        assert f.monotonicity is Monotonicity.UNKNOWN
        res = sugeno_integral(_counting(f, calls), UNIT)
        assert calls == []
        assert res == sugeno_supmin_exact(f, UNIT)

    def test_spent_budget_takes_the_grid_form(self, monkeypatch):
        box = "0.05 + 10*(abs(x - 0.2) - abs(x - 0.21) - abs(x - 0.7) + abs(x - 0.71))"
        f = function_from_expression(box, UNIT)
        assert sugeno_integral(f, UNIT).method is IntegralMethod.FIXED_POINT
        calls = []
        monkeypatch.setattr(sugeno, "INTERVAL_BUDGET", 4)
        res = sugeno_integral(_counting(f, calls), UNIT)
        assert len(calls) == 4
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
