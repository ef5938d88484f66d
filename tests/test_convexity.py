import math

import pytest

from fuzzyhh.convexity import (
    AFFINE_ETA,
    DomainEscape,
    EtaMap,
    NonPositiveFunction,
    check_alpha_m_preinvex,
    check_condition_c,
    check_invex,
    check_m_preinvex,
    check_preinvex,
    check_r_preinvex,
    scaled_eta,
)
from fuzzyhh.expressions import function_from_expression
from fuzzyhh.measure import RealInterval

UNIT = RealInterval(0.0, 1.0)
SAMPLES = 20_000
SEED = 20240817


def report_key(report):
    w = report.witness
    return (report.holds, None if w is None else (w.u, w.v, w.t, w.lhs, w.rhs))


class TestInvex:
    def test_convex_interval_with_affine_map(self):
        assert check_invex(UNIT, AFFINE_ETA, samples=10_000, seed=SEED).holds

    def test_doubled_map_escapes(self):
        report = check_invex(UNIT, scaled_eta(2.0), samples=10_000, seed=SEED)
        assert not report.holds
        w = report.witness
        # re-derive the escape independently from the witness draw
        point = w.u + w.t * 2.0 * (w.v - w.u)
        escape = max(UNIT.lo - point, point - UNIT.hi)
        assert escape > 1e-9
        assert w.lhs == pytest.approx(escape)

    def test_zero_map_never_leaves(self):
        assert check_invex(UNIT, scaled_eta(0.0), samples=10_000, seed=SEED).holds


class TestConditionC:
    def test_affine_map_satisfies_identities(self):
        assert check_condition_c(UNIT, AFFINE_ETA, samples=10_000, seed=SEED).holds

    def test_affine_map_on_shifted_interval(self):
        assert check_condition_c(
            RealInterval(-3.0, 7.0), AFFINE_ETA, samples=10_000, seed=SEED
        ).holds

    def test_doubled_map_fails_first_identity(self):
        # algebraically: eta(y, y + t*eta(x,y)) = -4t(x-y) != -2t(x-y)
        report = check_condition_c(UNIT, scaled_eta(2.0), samples=10_000, seed=SEED)
        assert not report.holds
        w = report.witness
        assert abs(w.lhs - w.rhs) > 1e-9

    def test_witness_reevaluates_independently(self):
        report = check_condition_c(UNIT, scaled_eta(2.0), samples=10_000, seed=SEED)
        w = report.witness
        eta = lambda v, u: 2.0 * (v - u)
        y, x = w.u, w.v
        if w.kind == "eta-consistency-1":
            lhs = eta(y, y + w.t * eta(x, y))
            rhs = -w.t * eta(x, y)
        elif w.kind == "eta-consistency-2":
            lhs = eta(x, y + w.t * eta(x, y))
            rhs = (1.0 - w.t) * eta(x, y)
        else:
            lhs = eta(y + w.t2 * eta(x, y), y + w.t * eta(x, y))
            rhs = (w.t2 - w.t) * eta(x, y)
        assert abs(lhs - rhs) > 1e-9

    def test_restricted_eta_domain_raises(self):
        tight = EtaMap(apply=lambda v, u: 3.0 * (v - u), name="wild", domain=UNIT)
        with pytest.raises(DomainEscape):
            check_condition_c(UNIT, tight, samples=10_000, seed=SEED)


class TestPreinvex:
    def test_square_is_preinvex(self):
        f = function_from_expression("x^2", UNIT)
        assert check_preinvex(f, UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED).holds

    def test_sqrt_is_refuted_with_witness(self):
        f = function_from_expression("sqrt(x)", UNIT)
        report = check_preinvex(f, UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED)
        assert not report.holds
        # the classic interior violation, checked directly: u=0, v=1, t=1/4
        assert math.sqrt(0.0 + 0.25 * 1.0) > (1 - 0.25) * 0.0 + 0.25 * 1.0
        w = report.witness
        lhs = math.sqrt(w.u + w.t * (w.v - w.u))
        rhs = (1 - w.t) * math.sqrt(w.u) + w.t * math.sqrt(w.v)
        assert lhs - rhs > 1e-9
        assert report.max_violation >= lhs - rhs - 1e-12

    def test_constant_is_preinvex(self):
        assert check_preinvex(
            function_from_expression("0.7", UNIT), UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED
        ).holds

    def test_path_leaving_domain_raises(self):
        f = function_from_expression("x^2", UNIT)
        with pytest.raises(DomainEscape):
            check_preinvex(f, UNIT, scaled_eta(2.0), samples=SAMPLES, seed=SEED)


class TestRPreinvex:
    def test_quartic_halved_at_one_half(self):
        f = function_from_expression("x^4/2", UNIT)
        assert check_r_preinvex(f, UNIT, AFFINE_ETA, 0.5, samples=SAMPLES, seed=SEED).holds

    def test_cubic_third_at_one_half(self):
        f = function_from_expression("x^3/3", UNIT)
        assert check_r_preinvex(f, UNIT, AFFINE_ETA, 0.5, samples=SAMPLES, seed=SEED).holds

    def test_r_one_reduces_to_preinvexity(self):
        f = function_from_expression("sqrt(x)", UNIT)
        plain = check_preinvex(f, UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED)
        via_r = check_r_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=SAMPLES, seed=SEED)
        assert report_key(plain) == report_key(via_r)

    def test_geometric_mean_branch(self):
        f = function_from_expression("exp(x)", UNIT)  # log-linear, so 0-preinvex
        assert check_r_preinvex(f, UNIT, AFFINE_ETA, 0.0, samples=SAMPLES, seed=SEED).holds

    def test_nonpositive_function_rejected_for_nonpositive_r(self):
        zero = function_from_expression("0", UNIT)
        for r in (-1.0, 0.0):
            with pytest.raises(NonPositiveFunction):
                check_r_preinvex(zero, UNIT, AFFINE_ETA, r, samples=SAMPLES, seed=SEED)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, r):
        f = function_from_expression("x^2", UNIT)
        with pytest.raises(ValueError, match="r must be finite"):
            check_r_preinvex(f, UNIT, AFFINE_ETA, r, samples=100, seed=SEED)

    def test_power_law_transfer(self):
        # every function certified r-preinvex here has a preinvex r-th power
        for src, r in (("x^4/2", 0.5), ("x^3/3", 0.5), ("x^2", 0.5)):
            f = function_from_expression(src, UNIT)
            certified = check_r_preinvex(f, UNIT, AFFINE_ETA, r, samples=SAMPLES, seed=SEED)
            assert certified.holds
            powered = function_from_expression(f"({src})^{r!r}", UNIT)
            assert check_preinvex(powered, UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED).holds


class TestScaledArgumentHypotheses:
    def test_square_with_half_scale_holds(self):
        f = function_from_expression("x^2", RealInterval(0.0, 2.0))
        assert check_m_preinvex(f, UNIT, AFFINE_ETA, 0.5, samples=SAMPLES, seed=SEED).holds

    def test_m_one_reduces_to_preinvexity(self):
        f = function_from_expression("sqrt(x)", UNIT)
        plain = check_preinvex(f, UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED)
        via_m = check_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=SAMPLES, seed=SEED)
        via_am = check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, 1.0, samples=SAMPLES, seed=SEED)
        assert report_key(plain) == report_key(via_m) == report_key(via_am)

    def test_exponential_fails_for_small_scale(self):
        # scan found (u, v, t) = (1, 0, 1/2) at m = 0.1: e^0.5 > 0.5e + 0.1
        f = function_from_expression("exp(x)", RealInterval(0.0, 10.0))
        assert math.exp(0.5) > 0.5 * math.e + 0.1
        report = check_m_preinvex(f, UNIT, AFFINE_ETA, 0.1, samples=SAMPLES, seed=SEED)
        assert not report.holds
        w = report.witness
        lhs = math.exp(w.u + w.t * (w.v - w.u))
        rhs = (1 - w.t) * math.exp(w.u) + 0.1 * w.t * math.exp(w.v / 0.1)
        assert lhs - rhs > 1e-9

    def test_quadratic_fails_strict_two_point_definition(self):
        # direct arithmetic at (u, v, t) = (1, 0, 1/4), alpha = 1/2, m = 1/3:
        # lhs = f(3/4) = 9/32 > 1/4 = (1 - 1/2) f(1); the sampled check agrees.
        f = function_from_expression("x^2/2", RealInterval(0.0, 3.0))
        lhs = (1.0 - 0.25) ** 2 / 2.0
        rhs = (1.0 - math.sqrt(0.25)) * 0.5 + (1.0 / 3.0) * math.sqrt(0.25) * 0.0
        assert lhs > rhs + 1e-9
        report = check_alpha_m_preinvex(
            f, UNIT, AFFINE_ETA, 0.5, 1.0 / 3.0, samples=SAMPLES, seed=SEED
        )
        assert not report.holds
        w = report.witness
        re_lhs = (w.u + w.t * (w.v - w.u)) ** 2 / 2.0
        re_rhs = (1 - w.t**0.5) * w.u**2 / 2.0 + (1.0 / 3.0) * w.t**0.5 * (3.0 * w.v) ** 2 / 2.0
        assert re_lhs - re_rhs > 1e-9

    def test_three_square_fails_the_same_way(self):
        f = function_from_expression("3*x^2", RealInterval(0.0, 3.0))
        report = check_alpha_m_preinvex(
            f, UNIT, AFFINE_ETA, 0.5, 1.0 / 3.0, samples=SAMPLES, seed=SEED
        )
        assert not report.holds

    def test_narrow_domain_raises(self):
        f = function_from_expression("x^2/2", UNIT)  # v/m needs [0, 3]
        with pytest.raises(DomainEscape):
            check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 0.5, 1.0 / 3.0, samples=SAMPLES, seed=SEED)

    def test_parameter_ranges_validated(self):
        f = function_from_expression("x^2", RealInterval(0.0, 2.0))
        with pytest.raises(ValueError):
            check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 1.5, 0.5, samples=100, seed=SEED)
        with pytest.raises(ValueError):
            check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 0.5, 0.0, samples=100, seed=SEED)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha must lie"):
                check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, bad, 0.5, samples=100, seed=SEED)
            with pytest.raises(ValueError, match="m must lie"):
                check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 0.5, bad, samples=100, seed=SEED)
            with pytest.raises(ValueError, match="m must lie"):
                check_m_preinvex(f, UNIT, AFFINE_ETA, bad, samples=100, seed=SEED)


class TestDegenerationChain:
    def test_full_chain_on_shared_seed(self):
        for src in ("x^2", "sqrt(x)", "exp(x)"):
            f = function_from_expression(src, UNIT)
            plain = check_preinvex(f, UNIT, AFFINE_ETA, samples=SAMPLES, seed=SEED)
            via_r = check_r_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=SAMPLES, seed=SEED)
            via_m = check_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=SAMPLES, seed=SEED)
            via_am = check_alpha_m_preinvex(
                f, UNIT, AFFINE_ETA, 1.0, 1.0, samples=SAMPLES, seed=SEED
            )
            assert (
                report_key(plain) == report_key(via_r) == report_key(via_m) == report_key(via_am)
            )

    def test_endpoints_are_always_drawn(self):
        # constants violate the m < 1 scaled hypothesis exactly at t = 1:
        # f(v) = 1 > m * f(v/m) = 1/2; two samples suffice because t = 0, 1
        # are injected deterministically
        probe = function_from_expression("1", RealInterval(0.0, 2.0))
        report = check_m_preinvex(probe, UNIT, AFFINE_ETA, 0.5, samples=2, seed=SEED)
        assert report.samples_checked == 2
        assert not report.holds
        assert report.witness.t == 1.0
