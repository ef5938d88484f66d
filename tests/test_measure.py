import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhh.measure import (
    DistributionProfile,
    InvalidThreshold,
    Monotonicity,
    RealInterval,
    StrategyMismatch,
    follows,
    from_callable,
    solve_beta,
)
from fuzzyhh import measure
from fuzzyhh.expressions import function_from_expression
from fuzzyhh.sugeno import sugeno_fixed_point

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

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.5e308, 0.5e308)])
    def test_rejects_a_width_that_overflows(self, lo, hi):
        # finite endpoints whose difference is inf would loop the crossing search
        with pytest.raises(ValueError, match="interval width overflows"):
            RealInterval(lo, hi)
        assert RealInterval(-8e307, 8e307).length() == 1.6e308

    def test_midpoints_cover_cells(self):
        mids = RealInterval(0.0, 1.0).midpoints(4)
        assert np.allclose(mids, [0.125, 0.375, 0.625, 0.875])

    @settings(max_examples=100, deadline=None)
    @given(lo=st.floats(-5.0, 5.0), width=st.floats(0.0, 10.0), n=st.integers(1, 3000))
    def test_midpoints_are_the_plain_formula_bit_for_bit(self, lo, width, n):
        A = RealInterval(lo, lo + width)
        expected = A.lo + (np.arange(n) + 0.5) * (A.length() / n)
        assert A.midpoints(n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (0.3, 0.3), (-0.0, 0.0), (0.0, -0.0), (-7.5, -2.25), (-3.0, 11.0),
        (-8e307, 8e307), (1e300, 1.7e308), (1e-300, 3e-300), (1.0, 1.0 + 2.0**-52),
        (0.0, 5e-324), (0.0, 1e-320), (-1e-310, 1e-310), (2.5, 2.5 + 1e-320 * 2.0**-20),
        (0, 1), (-2, 3),
    ])
    def test_grid_is_linspace_bit_for_bit(self, lo, hi):
        # subnormal widths take numpy's branch for a step that underflows to 0
        A = RealInterval(lo, hi)
        rng = np.random.default_rng(17)
        for n in [0, 1, 2, 3, 4, 2049, 4097] + rng.integers(5, 6000, 8).tolist():
            got, want = A.grid(n), np.linspace(lo, hi, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6), n=st.integers(1, 5000))
    def test_random_grids_are_linspace_bit_for_bit(self, lo, width, n):
        A = RealInterval(lo, lo + width)
        assert A.grid(n).tobytes() == np.linspace(A.lo, A.hi, n).tobytes()

    def test_grid_rejects_a_negative_count(self):
        with pytest.raises(ValueError):
            UNIT.grid(-1)


def _follows_before(ys, monotonicity):
    """``follows`` as first written: ``np.diff`` and ``np.all``."""
    if monotonicity is Monotonicity.UNKNOWN:
        return False
    dy = np.diff(ys)
    slack = 1e-11 * max(1.0, float(np.max(np.abs(ys))))
    if monotonicity is Monotonicity.INCREASING:
        return bool(np.all(dy >= -slack))
    return bool(np.all(dy <= slack))


def _follow_samples():
    rng = np.random.default_rng(29)
    up = np.cumsum(rng.uniform(0.0, 1.0, 50))
    flat = np.full(40, 3.0)
    samples = [np.array([0.4]), np.array([np.nan]), np.array([np.inf]), np.array([-1.0, -1.0]),
               up, up[::-1], flat, -flat, np.zeros(7)]
    for scale in (1.0, 1e-9, 1e12):  # steps against the direction within and past the slack
        for step in (0.5e-11, 0.99e-11, 1.01e-11, 3e-11):
            for sign in (1.0, -1.0):
                ys = flat * scale
                ys[17] -= sign * step * 3.0 * scale
                samples += [ys, ys[::-1]]
    for bad in (np.nan, np.inf, -np.inf):
        for where in (0, 25, 49):
            ys = up.copy()
            ys[where] = bad
            samples += [ys, ys[::-1]]
    samples += [np.array([np.inf, np.inf]), np.array([-np.inf, 1.0, np.inf]),
                np.array([1.0, np.inf, 1.0]), np.array([np.nan, np.nan])]
    samples += [rng.normal(0.0, 1.0, n) for n in (2, 3, 100)]
    return samples


def test_follows_matches_the_first_form():
    for ys in _follow_samples():
        for mono in Monotonicity:
            with np.errstate(invalid="ignore"):  # inf - inf
                assert follows(ys, mono) == _follows_before(ys, mono), (ys, mono)
    with np.errstate(invalid="ignore"):
        outcomes = {follows(ys, m) for ys in _follow_samples() for m in Monotonicity}
    assert outcomes == {True, False}


class TestClosedFormDistribution:
    def test_quartic_halved_level_set(self):
        # F(0.2023) = 1 - (2*0.2023)^(1/4), by direct inversion of x^4/2
        f = function_from_expression("x^4/2", UNIT)
        profile = DistributionProfile(f, UNIT)
        expected = 1.0 - (2.0 * 0.2023) ** 0.25
        assert profile.at(0.2023) == pytest.approx(expected, abs=1e-9)

    def test_threshold_zero_gives_full_length(self):
        f = function_from_expression("x^4/2", RealInterval(0.25, 0.75))
        profile = DistributionProfile(f, RealInterval(0.25, 0.75))
        assert profile.at(0.0) == 0.5

    def test_decreasing_function(self):
        f = function_from_expression("1-x", UNIT)
        assert f.monotonicity is Monotonicity.DECREASING
        profile = DistributionProfile(f, UNIT)
        # {1 - x >= 0.25} = [0, 0.75]
        assert profile.at(0.25) == pytest.approx(0.75, abs=1e-9)

    def test_unknown_hint_rejected(self):
        f = from_callable(lambda x: np.sin(np.pi * np.asarray(x)), UNIT)
        profile = DistributionProfile(f, UNIT)
        with pytest.raises(StrategyMismatch):
            profile.at(0.5)

    def test_negative_threshold_rejected(self):
        f = function_from_expression("x", UNIT)
        profile = DistributionProfile(f, UNIT)
        with pytest.raises(InvalidThreshold):
            profile.at(-0.1)

    @pytest.mark.parametrize("mono, beta, error", [
        (Monotonicity.UNKNOWN, 0.5, StrategyMismatch),
        (Monotonicity.INCREASING, -0.1, InvalidThreshold),
    ], ids=["unknown hint", "negative threshold"])
    def test_rejections_evaluate_nothing(self, mono, beta, error):
        points = []
        profile = DistributionProfile(from_callable(lambda x: points.append(x) or x, UNIT, mono), UNIT)
        with pytest.raises(error):
            profile.at(beta)
        assert points == []

    def test_fixed_point_reads_the_ends_once(self, monkeypatch):
        # every evaluation of f but the two end values is a step of a level-set solve
        f = function_from_expression("x^2/2", UNIT)
        points, steps = [], []
        counted = dataclasses.replace(f, evaluate=lambda x: points.append(x) or f.evaluate(x))

        def counted_solve(F, L):
            return solve_beta(lambda d: steps.append(d) or F(d), L)

        monkeypatch.setattr(measure, "solve_beta", counted_solve)
        result = sugeno_fixed_point(DistributionProfile(counted, UNIT))
        assert result.value == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)  # 1 - sqrt(2b) = b
        assert len(steps) > 0
        assert len(points) == 2 + len(steps)


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(min_value=0.0, max_value=2.0),
    b2=st.floats(min_value=0.0, max_value=2.0),
)
def test_distribution_is_non_increasing(b1, b2):
    lo, hi = min(b1, b2), max(b1, b2)
    f = function_from_expression("x^3", UNIT)
    profile = DistributionProfile(f, UNIT)
    assert profile.at(hi) <= profile.at(lo) + 1e-12


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(min_value=0.0, max_value=3.0))
def test_distribution_vanishes_above_sup(beta):
    f = function_from_expression("x^2", UNIT)  # sup on [0, 1] is 1
    profile = DistributionProfile(f, UNIT)
    if beta > 1.0:
        assert profile.at(beta) == 0.0
    else:
        assert 0.0 <= profile.at(beta) <= 1.0


def test_constant_function_distribution_is_a_step():
    f = function_from_expression("0.4", UNIT)
    profile = DistributionProfile(f, UNIT)
    assert profile.at(0.0) == 1.0
    assert profile.at(0.4) == 1.0
    assert profile.at(0.4000001) == 0.0


# -- the level set is exact to the float ---------------------------------------


def _assert_exact_level_set(profile: DistributionProfile, beta: float) -> None:
    """``at(beta)`` is the largest float d in [0, L] at which f is still >= beta:
    f(hi - d) for an increasing f, f(lo + d) for a decreasing one."""
    ev, lo, hi, L = profile.f.evaluate, profile.A.lo, profile.A.hi, profile.A.length()
    if profile.f.monotonicity is Monotonicity.INCREASING:
        def holds(d):
            return float(ev(max(hi - d, lo))) >= beta
    else:
        def holds(d):
            return float(ev(min(lo + d, hi))) >= beta
    d = profile.at(beta)
    past = math.nextafter(d, math.inf)
    assert 0.0 <= d <= L, (beta, d)
    assert d == 0.0 or holds(d), (beta, d)
    assert past > L or not holds(past), (beta, d)


def _betas(profile: DistributionProfile, rng: np.random.Generator) -> list[float]:
    """A sweep of thresholds: both closed-form ends and their neighbours,
    values f takes inside A, and uniform draws up to past f's sup."""
    ev, A = profile.f.evaluate, profile.A
    ends = [float(ev(A.lo)), float(ev(A.hi))]
    near = [math.nextafter(e, s) for e in ends for s in (-math.inf, math.inf)]
    inside = [float(ev(x)) for x in rng.uniform(A.lo, A.hi, 8)]
    top = 1.25 * max(ends)
    return [b for b in [0.0, *ends, *near, *inside, *rng.uniform(0.0, top, 24)] if b >= 0.0]


def _seeded_monotone(rng: np.random.Generator) -> list[tuple[str, RealInterval]]:
    out = []
    for _ in range(4):
        lo = float(rng.uniform(0.0, 1.0))
        A = RealInterval(lo, lo + float(rng.uniform(0.8, 1.25)))
        c, p, d = (float(v) for v in rng.uniform((0.3, 1.5, 0.0), (2.0, 4.0, 0.2)))
        s = A.hi + float(rng.uniform(0.0, 0.5))
        k = float(rng.uniform(0.5, 2.5))
        out += [
            (f"{c!r}*x^{p!r} + {d!r}", A),
            (f"{c!r}*({s!r} - x)^{p!r} + {d!r}", A),
            (f"{c!r}*exp(-{k!r}*x) + {d!r}", A),
            (f"{c!r}*sqrt(x + {d!r})", A),
        ]
    return out


def test_level_sets_of_seeded_monotone_functions_are_exact_to_the_float():
    rng = np.random.default_rng(2206)
    directions = set()
    for src, A in _seeded_monotone(rng):
        f = function_from_expression(src, A)
        assert f.monotonicity is not Monotonicity.UNKNOWN, src
        directions.add(f.monotonicity)
        profile = DistributionProfile(f, A)
        for beta in _betas(profile, rng):
            _assert_exact_level_set(profile, beta)
    assert directions == {Monotonicity.INCREASING, Monotonicity.DECREASING}


def _step(x):
    return np.where(np.asarray(x, dtype=float) >= 0.3, 0.8, 0.2)


def _plateaus(x):
    # rises on [0, 0.3], flat on [0.3, 0.7], rises again: a plateau inside A
    x = np.asarray(x, dtype=float)
    return np.minimum(x, 0.3) + np.maximum(x - 0.7, 0.0)


def _clipped(x):
    # flat at both ends of A
    return np.clip(2.0 * np.asarray(x, dtype=float), 0.4, 1.6)


@pytest.mark.parametrize("fn", [_step, _plateaus, _clipped], ids=["step", "plateaus", "clipped"])
@pytest.mark.parametrize("mono", [Monotonicity.INCREASING, Monotonicity.DECREASING])
def test_level_sets_of_declared_steps_and_plateaus_are_exact_to_the_float(fn, mono):
    if mono is Monotonicity.DECREASING:
        def g(x):
            return fn(1.0 - np.asarray(x, dtype=float))
    else:
        g = fn
    profile = DistributionProfile(from_callable(g, UNIT, mono), UNIT)
    rng = np.random.default_rng(2207)
    # the levels of the flat stretches themselves, and the ones just off them
    flats = [0.2, 0.8, 0.3, 0.4, 1.6]
    near = [math.nextafter(v, s) for v in flats for s in (-math.inf, math.inf)]
    for beta in [*_betas(profile, rng), *flats, *near]:
        _assert_exact_level_set(profile, beta)


def test_solve_beta_is_one_function():
    import fuzzyhh
    from fuzzyhh import bounds, measure, sugeno

    assert fuzzyhh.solve_beta is sugeno.solve_beta is bounds.solve_beta is measure.solve_beta
