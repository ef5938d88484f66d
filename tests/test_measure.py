import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhh.measure import (
    DistributionProfile,
    GridScan,
    InvalidThreshold,
    Monotonicity,
    MonotoneClosedForm,
    RealInterval,
    StrategyMismatch,
    constant_function,
    from_callable,
    power_function,
)
from fuzzyhh.expressions import function_from_expression

UNIT = RealInterval(0.0, 1.0)


class TestRealInterval:
    def test_length(self):
        assert RealInterval(0.0, 1.0).length() == 1.0
        assert RealInterval(2.0, 2.0).length() == 0.0
        assert RealInterval(0.25, 0.75).length() == 0.5

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            RealInterval(1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                        (0.0, math.nan), (math.nan, 1.0)])
    def test_rejects_non_finite_endpoints(self, lo, hi):
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            RealInterval(lo, hi)

    def test_midpoints_cover_cells(self):
        mids = RealInterval(0.0, 1.0).midpoints(4)
        assert np.allclose(mids, [0.125, 0.375, 0.625, 0.875])

    @settings(max_examples=100, deadline=None)
    @given(lo=st.floats(-5.0, 5.0), width=st.floats(0.0, 10.0), n=st.integers(1, 3000))
    def test_midpoints_are_the_plain_formula_bit_for_bit(self, lo, width, n):
        A = RealInterval(lo, lo + width)
        expected = A.lo + (np.arange(n) + 0.5) * (A.length() / n)
        assert A.midpoints(n).tobytes() == expected.tobytes()


class TestClosedFormDistribution:
    def test_quartic_halved_level_set(self):
        # F(0.2023) = 1 - (2*0.2023)^(1/4), by direct inversion of x^4/2
        f = function_from_expression("x^4/2", UNIT)
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
        expected = 1.0 - (2.0 * 0.2023) ** 0.25
        assert profile.at(0.2023) == pytest.approx(expected, abs=1e-9)

    def test_threshold_zero_gives_full_length(self):
        f = function_from_expression("x^4/2", RealInterval(0.25, 0.75))
        profile = DistributionProfile(f, RealInterval(0.25, 0.75), MonotoneClosedForm())
        assert profile.at(0.0) == 0.5

    def test_decreasing_function(self):
        f = function_from_expression("1-x", UNIT)
        assert f.monotonicity is Monotonicity.DECREASING
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
        # {1 - x >= 0.25} = [0, 0.75]
        assert profile.at(0.25) == pytest.approx(0.75, abs=1e-9)

    def test_unknown_hint_rejected(self):
        f = from_callable(lambda x: np.sin(np.pi * np.asarray(x)), UNIT)
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
        with pytest.raises(StrategyMismatch):
            profile.at(0.5)

    def test_negative_threshold_rejected(self):
        f = function_from_expression("x", UNIT)
        profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
        with pytest.raises(InvalidThreshold):
            profile.at(-0.1)


class TestGridDistribution:
    def test_sine_level_set_against_closed_form(self):
        # {sin(pi x) >= 1/2} = [1/6, 5/6], measure 2/3 = 1 - (2/pi)*asin(1/2)
        f = from_callable(lambda x: np.sin(np.pi * np.asarray(x)), UNIT, name="sin(pi x)")
        profile = DistributionProfile(f, UNIT, GridScan(10**6))
        expected = 1.0 - (2.0 / math.pi) * math.asin(0.5)
        assert expected == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert profile.at(0.5) == pytest.approx(expected, abs=2e-6)

    def test_threshold_zero_exact_length(self):
        f = function_from_expression("x^2", RealInterval(0.1, 0.7))
        profile = DistributionProfile(f, RealInterval(0.1, 0.7), GridScan(10**5))
        assert profile.at(0.0) == 0.7 - 0.1

    def test_agrees_with_closed_form_on_power_family(self):
        # >= 100 random (c, p, beta) pairs; mismatch bounded by one grid cell
        rng = np.random.default_rng(42)
        n = 10**5
        for _ in range(100):
            c = rng.uniform(0.1, 3.0)
            p = rng.uniform(0.3, 4.0)
            f = power_function(c, p, UNIT)
            beta = rng.uniform(0.0, c * 1.1)
            grid = DistributionProfile(f, UNIT, GridScan(n))
            closed = DistributionProfile(f, UNIT, MonotoneClosedForm())
            assert abs(grid.at(beta) - closed.at(beta)) <= UNIT.length() / n + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(min_value=0.0, max_value=2.0),
    b2=st.floats(min_value=0.0, max_value=2.0),
)
def test_distribution_is_non_increasing(b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    f = function_from_expression("x^3", UNIT)
    profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
    assert profile.at(hi) <= profile.at(lo) + 1e-12


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(min_value=0.0, max_value=3.0))
def test_distribution_vanishes_above_sup(beta):
    f = function_from_expression("x^2", UNIT)  # sup on [0, 1] is 1
    profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
    if beta > 1.0:
        assert profile.at(beta) == 0.0
    else:
        assert 0.0 <= profile.at(beta) <= 1.0


def test_constant_function_distribution_is_a_step():
    f = constant_function(0.4, UNIT)
    profile = DistributionProfile(f, UNIT, MonotoneClosedForm())
    assert profile.at(0.0) == 1.0
    assert profile.at(0.4) == 1.0
    assert profile.at(0.4000001) == 0.0


def test_scalar_function_power_keeps_increasing_hint():
    f = power_function(2.0, 3.0, UNIT)
    g = f.power(0.5)
    assert g.monotonicity is Monotonicity.INCREASING
    assert g(0.25) == pytest.approx(math.sqrt(2.0 * 0.25**3))
