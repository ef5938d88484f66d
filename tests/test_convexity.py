import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhh.convexity import (
    AFFINE_ETA,
    BLOCK,
    INEQ_SLACK,
    DomainEscape,
    EtaMap,
    HypothesisReport,
    NonPositiveFunction,
    Witness,
    _blocks,
    _inequality_report,
    check_alpha_m_preinvex,
    check_condition_c,
    check_invex,
    check_m_preinvex,
    check_preinvex,
    check_r_preinvex,
    scaled_eta,
)
from fuzzyhh.expressions import compile_expression, function_from_expression, parse_expression
from fuzzyhh.measure import SET_SLACK, RealInterval, from_callable

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

    @pytest.mark.parametrize("apply", [
        lambda v, u: np.full(np.shape(u), np.nan),
        lambda v, u: np.where(u > 0.5, np.nan, v - u),
    ], ids=["all-nan", "nan-past-half"])
    def test_a_nan_deviation_is_a_violation(self, apply):
        # a NaN deviation used to be skipped: holds=True, max_violation=-inf
        report = check_condition_c(UNIT, EtaMap(apply=apply), samples=1000, seed=0)
        assert not report.holds and math.isnan(report.max_violation)
        w = report.witness
        assert w.kind == "eta-consistency-1" and math.isnan(w.lhs)
        y, x, t = next(_blocks(UNIT, 1000, 0, 1000))
        first = int(np.argmax(np.isnan(apply(y, y + t * apply(x, y)))))
        assert (w.u, w.v, w.t) == (y[first], x[first], t[first])

    def test_restricted_eta_domain_raises(self):
        tight = EtaMap(apply=lambda v, u: 3.0 * (v - u), domain=UNIT)
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

    @pytest.mark.parametrize("r", [1e-3, -1e-3, 1e-12, -1e-12, 1e-200, 1e-310, -5e-324])
    def test_small_r_matches_the_geometric_mean(self, r):
        # the direct power mean rounds f**r to 1 for tiny r; the stable form
        # stays within |r|*(log spread) of the geometric mean it tends to
        f = function_from_expression("0.5+0.4*sqrt(x)", UNIT)
        geometric = check_r_preinvex(f, UNIT, AFFINE_ETA, 0.0, samples=SAMPLES, seed=SEED)
        report = check_r_preinvex(f, UNIT, AFFINE_ETA, r, samples=SAMPLES, seed=SEED)
        assert not geometric.holds and not report.holds
        w, w0 = report.witness, geometric.witness
        assert (w.u, w.v, w.t, w.lhs) == (w0.u, w0.v, w0.t, w0.lhs)
        assert w.rhs == pytest.approx(w0.rhs, rel=max(abs(r), 1e-15))

    @pytest.mark.parametrize("r", [0.25, 1.0, 3.0, -0.5])
    def test_power_mean_keeps_its_direct_form(self, r):
        # away from 0 the rhs is the direct formula, to the last bit
        f = function_from_expression("0.5+0.4*sqrt(x)", UNIT)
        w = check_r_preinvex(f, UNIT, AFFINE_ETA, r, samples=SAMPLES, seed=SEED).witness
        fu, fv = (np.float64(float(f.evaluate(p))) for p in (w.u, w.v))
        t = np.float64(w.t)
        assert w.rhs == float(((1.0 - t) * fu**r + t * fv**r) ** (1.0 / r))

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

    def test_chain_over_several_blocks(self):
        samples = 3 * BLOCK + 5  # a partial last block
        for src in ("x^2", "sqrt(x)"):
            f = function_from_expression(src, UNIT)
            reports = (
                check_preinvex(f, UNIT, AFFINE_ETA, samples=samples, seed=SEED),
                check_r_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=samples, seed=SEED),
                check_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=samples, seed=SEED),
                check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, 1.0, samples=samples, seed=SEED),
            )
            assert len({(report_key(rep), rep.max_violation) for rep in reports}) == 1


class TestPositivePowerMean:
    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_negative_values_are_rejected(self, r):
        # used to give a NaN witness (and a RuntimeWarning) at r = 0.5, "holds" at r = 2
        f = function_from_expression("x-0.5", UNIT)
        with pytest.raises(NonPositiveFunction, match=r"> 0 requires f >= 0 on K"):
            check_r_preinvex(f, UNIT, AFFINE_ETA, r, samples=SAMPLES, seed=SEED)

    def test_zero_values_are_allowed(self):
        zero = function_from_expression("0", UNIT)
        report = check_r_preinvex(zero, UNIT, AFFINE_ETA, 0.5, samples=SAMPLES, seed=SEED)
        assert report.holds and report.max_violation == 0.0


# -- the blocked stream and checks against the whole-array checks ----------------


def ref_draw(K, samples, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(K.lo, K.hi, samples)
    v = rng.uniform(K.lo, K.hi, samples)
    t = rng.uniform(0.0, 1.0, samples)
    t[0] = 0.0
    if samples >= 2:
        t[1] = 1.0
    return u, v, t


def ref_path(f, u, t, eta_uv, kind):
    path = u + t * eta_uv
    lo, hi = f.domain.lo, f.domain.hi
    outside = (path < lo - SET_SLACK) | (path > hi + SET_SLACK)
    if np.any(outside):
        i = int(np.argmax(outside))
        raise DomainEscape(
            f"{kind}: path point {path[i]:g} leaves the declared domain "
            f"[{lo:g}, {hi:g}] (u={u[i]:g}, t={t[i]:g})"
        )
    return np.clip(path, lo, hi)


def ref_report(u, v, t, lhs, rhs, kind):
    violation = lhs - rhs
    i = int(np.argmax(violation))
    worst = float(violation[i])
    if worst <= INEQ_SLACK:
        return HypothesisReport(True, len(t), None, worst)
    witness = Witness(float(u[i]), float(v[i]), float(t[i]), float(lhs[i]), float(rhs[i]), kind)
    return HypothesisReport(False, len(t), witness, worst)


def ref_invex(K, eta, samples, seed):
    u, v, t = ref_draw(K, samples, seed)
    path = u + t * eta.apply(v, u)
    escape = np.maximum(K.lo - path, path - K.hi)
    i = int(np.argmax(escape))
    worst = float(escape[i])
    if worst <= SET_SLACK:
        return HypothesisReport(True, samples, None, worst)
    witness = Witness(float(u[i]), float(v[i]), float(t[i]), worst, 0.0, "invex-membership")
    return HypothesisReport(False, samples, witness, worst)


def ref_preinvex(f, K, eta, samples, seed):
    u, v, t = ref_draw(K, samples, seed)
    lhs = f.evaluate(ref_path(f, u, t, eta.apply(v, u), "preinvex"))
    rhs = (1.0 - t) * f.evaluate(u) + t * f.evaluate(v)
    return ref_report(u, v, t, lhs, rhs, "preinvex")


def ref_r_preinvex(f, K, eta, r, samples, seed):
    u, v, t = ref_draw(K, samples, seed)
    path = ref_path(f, u, t, eta.apply(v, u), "r-preinvex")
    fu, fv = f.evaluate(u), f.evaluate(v)
    if r <= 0 and (np.any(fu <= 0.0) or np.any(fv <= 0.0)):
        raise NonPositiveFunction(f"r = {r:g} <= 0 requires f > 0 on K; a sampled value was <= 0")
    if r > 0 and (np.any(fu < 0.0) or np.any(fv < 0.0)):
        raise NonPositiveFunction(f"r = {r:g} > 0 requires f >= 0 on K; a sampled value was < 0")
    lhs = f.evaluate(path)
    if r != 0:
        rhs = ((1.0 - t) * fu**r + t * fv**r) ** (1.0 / r)
    else:
        rhs = fu ** (1.0 - t) * fv**t
    return ref_report(u, v, t, lhs, rhs, "r-preinvex")


def ref_alpha_m_preinvex(f, K, eta, alpha, m, samples, seed):
    u, v, t = ref_draw(K, samples, seed)
    path = ref_path(f, u, t, eta.apply(v, u), "alpha-m-preinvex")
    scaled = v / m
    lo, hi = f.domain.lo, f.domain.hi
    outside = (scaled < lo - SET_SLACK) | (scaled > hi + SET_SLACK)
    if np.any(outside):
        i = int(np.argmax(outside))
        raise DomainEscape(
            f"alpha-m-preinvex: v/m = {scaled[i]:g} leaves the declared domain "
            f"[{lo:g}, {hi:g}]; declare a wider one"
        )
    scaled = np.clip(scaled, lo, hi)
    t_alpha = t**alpha
    lhs = f.evaluate(path)
    rhs = (1.0 - t_alpha) * f.evaluate(u) + m * t_alpha * f.evaluate(scaled)
    return ref_report(u, v, t, lhs, rhs, "alpha-m-preinvex")


def outcome(fn, *args, **kwargs):
    """The report's repr (every float of it), or the exception's type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


def stream(K, samples, seed):
    blocks = [tuple(a.copy() for a in block) for block in _blocks(K, samples, seed)]
    assert [b[0].size for b in blocks[:-1]] == [BLOCK] * (len(blocks) - 1)
    return tuple(np.concatenate(part) for part in zip(*blocks))


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 100_000])
def test_blocks_hold_the_whole_array_draw(n):
    for seed in (0, 7, SEED, 2**40 + 3):
        for K in (UNIT, RealInterval(-3.5, 2.25), RealInterval(-1e3, -1e-3), RealInterval(2.0, 2.0)):
            got = stream(K, n, seed)
            want = ref_draw(K, n, seed)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError, match="need at least one sample"):
        check_preinvex(function_from_expression("x", UNIT), UNIT, AFFINE_ETA, samples=0)


_SOURCES = (
    "x^2", "sqrt(x)", "exp(x)", "x^4/2", "abs(x-0.4)", "sin(7*x)+1.5", "x-0.5",
    "log(x+0.2)", "1/(x-0.3)", "x^0.7", "0.7", "exp(-3*x)*(x+1)",
)


@settings(max_examples=60, deadline=None)
@given(
    src=st.sampled_from(_SOURCES),
    lo=st.sampled_from([0.0, 0.1, -0.5]),
    width=st.sampled_from([0.5, 1.0, 2.0]),
    eta=st.sampled_from(["affine", 1.0 + 1e-6, 0.5, -1.0]),
    r=st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
    alpha=st.sampled_from([0.3, 0.75, 1.0]),
    m=st.sampled_from([0.25, 0.6, 1.0]),
    samples=st.sampled_from([1, 3, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 77, 60_000]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_checkers_match_the_whole_array_reference(src, lo, width, eta, r, alpha, m, samples, seed):
    K = RealInterval(lo, lo + width)
    eta = AFFINE_ETA if eta == "affine" else scaled_eta(eta)
    # not function_from_expression: its build-time check would keep out the
    # inputs that fail part-way through the sample
    f = from_callable(compile_expression(parse_expression(src)), RealInterval(lo, lo + 2.0 * width))
    # paths that end 5e-10 past K leave it by more than the membership slack
    # but less than the inequality slack
    for path_map in (eta, EtaMap(apply=lambda v, u: K.hi + 5e-10 - u)):
        assert outcome(check_invex, K, path_map, samples, seed) == \
            outcome(ref_invex, K, path_map, samples, seed)
    assert outcome(check_preinvex, f, K, eta, samples, seed) == \
        outcome(ref_preinvex, f, K, eta, samples, seed)
    assert outcome(check_r_preinvex, f, K, eta, r, samples, seed) == \
        outcome(ref_r_preinvex, f, K, eta, r, samples, seed)
    assert outcome(check_alpha_m_preinvex, f, K, eta, alpha, m, samples, seed) == \
        outcome(ref_alpha_m_preinvex, f, K, eta, alpha, m, samples, seed)
    assert outcome(check_m_preinvex, f, K, eta, m, samples, seed) == \
        outcome(ref_alpha_m_preinvex, f, K, eta, 1.0, m, samples, seed)


def _marked(values, n=3 * BLOCK):
    """A ``sides`` whose violation is 0 except at the draws with the given
    u-indices, where it takes the given values."""
    u = ref_draw(UNIT, n, SEED)[0]
    table = dict(zip(u[list(values)], values.values()))

    def sides(u, v, t):
        return np.array([table.get(x, 0.0) for x in u]), np.zeros_like(u)

    return sides


@pytest.mark.parametrize("values, want", [
    ({BLOCK - 1: 1.0, BLOCK: 1.0}, BLOCK - 1),  # a tie across the boundary keeps the first
    ({5: 1.0, BLOCK: 2.0, 2 * BLOCK + 9: 2.0}, BLOCK),
    ({3: 5.0, BLOCK + 2: math.nan, 2 * BLOCK: math.nan}, BLOCK + 2),  # the first NaN wins
    ({BLOCK - 1: math.nan, BLOCK + 4: 7.0}, BLOCK - 1),
])
def test_first_maximum_is_kept_across_blocks(values, want):
    n = 3 * BLOCK
    u, v, t = ref_draw(UNIT, n, SEED)
    sides = _marked(values, n)
    report = _inequality_report(UNIT, n, SEED, sides, "probe")
    assert int(np.argmax(sides(u, v, t)[0])) == want
    assert not report.holds
    assert (report.witness.u, report.witness.v, report.witness.t) == (u[want], v[want], t[want])
    assert repr(report) == repr(ref_report(u, v, t, *sides(u, v, t), "probe"))


def test_blocked_errors_are_the_whole_array_errors():
    # every block has a negative value (NonPositiveFunction for r < 0), but the
    # whole-array check first evaluates f on all of u, which fails late
    n = 3 * BLOCK + 11
    late = ref_draw(UNIT, n, SEED)[0][n - 5]

    def fn(x):
        if np.any(x == late):
            raise ArithmeticError("late failure")
        return np.where(x < 0.5, -1.0, 1.0)

    f = from_callable(fn, UNIT)
    with pytest.raises(ArithmeticError, match="late failure"):
        check_r_preinvex(f, UNIT, AFFINE_ETA, -1.0, samples=n, seed=SEED)
    with pytest.raises(ArithmeticError, match="late failure"):
        ref_r_preinvex(f, UNIT, AFFINE_ETA, -1.0, n, SEED)


def test_domain_escape_names_the_first_escaping_draw():
    n = 3 * BLOCK
    u = ref_draw(UNIT, n, SEED)[0]
    # the path leaves K at two draws of later blocks only
    late = u[[BLOCK + 10, 2 * BLOCK + 3]]
    eta = EtaMap(apply=lambda v, w: np.where(np.isin(w, late), 1e3, v - w))
    f = function_from_expression("x^2", UNIT)
    got = outcome(check_preinvex, f, UNIT, eta, n, SEED)
    assert got == outcome(ref_preinvex, f, UNIT, eta, n, SEED)
    assert got[0] is DomainEscape and f"(u={u[BLOCK + 10]:g}," in got[1]
    # v/m = 2v leaves [0, 2 - 1e-4] in the last block only
    f = function_from_expression("x^2", RealInterval(0.0, 2.0 - 1e-4))
    got = outcome(check_alpha_m_preinvex, f, UNIT, AFFINE_ETA, 0.5, 0.5, n, SEED)
    assert got == outcome(ref_alpha_m_preinvex, f, UNIT, AFFINE_ETA, 0.5, 0.5, n, SEED)
    assert got[0] is DomainEscape and "v/m = 1.9999" in got[1]


def test_plain_preinvexity_keeps_v_in_the_domain():
    """check_preinvex is the (1, 1) case of the scaled-argument sampler, so a
    v outside f's domain is an escape there too, even where no path point is:
    at seed 8 the one draw has u = 0.654 and v = 1.975, and t = 0 keeps the
    path at u.  The whole-array reference, as the plain checker was written
    before, evaluates f at that v and reports."""
    K, f = RealInterval(0.0, 2.0), function_from_expression("x^2", UNIT)
    u, v, t = ref_draw(K, 1, 8)
    assert UNIT.contains(u[0]) and not UNIT.contains(v[0]) and t[0] == 0.0
    assert isinstance(ref_preinvex(f, K, AFFINE_ETA, 1, 8), HypothesisReport)
    with pytest.raises(DomainEscape, match=r"^preinvex: v/m = 1\.97455 leaves the declared domain"):
        check_preinvex(f, K, AFFINE_ETA, samples=1, seed=8)


@pytest.mark.parametrize("src, r", [("x-0.5", -1.0), ("x-0.5", 0.0), ("x-0.5", 0.5), ("x-0.5", 2.0)])
def test_non_positive_function_messages(src, r):
    f = function_from_expression(src, UNIT)
    got = outcome(check_r_preinvex, f, UNIT, AFFINE_ETA, r, 3 * BLOCK, SEED)
    assert got == outcome(ref_r_preinvex, f, UNIT, AFFINE_ETA, r, 3 * BLOCK, SEED)
    assert got[0] is NonPositiveFunction


# -- the convexity proof that stands for the sample in the CLI --------------------

import contextlib
import io
import json

from fuzzyhh import convexity
from fuzzyhh.cli import main
from fuzzyhh.convexity import certify_convex
from fuzzyhh.expressions import extend_expression


def _family(rng):
    """A seeded function of the proof's families, non-negative on [0, 2.5]."""
    kind = rng.integers(9)
    c, p, d = rng.uniform(0.2, 2.0), rng.uniform(0.2, 3.0), float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    if kind == 0:
        return f"{c!r}*x^{p!r} + {d!r}"
    if kind == 1:
        return f"exp({rng.uniform(-3.0, 3.0)!r}*x)"
    if kind == 2:
        return f"1/({rng.uniform(2.6, 4.0)!r} - x)"
    if kind == 3:
        return (f"{c!r}*x^{p!r} + exp({rng.uniform(-2.0, 2.0)!r}*x)"
                f" + 1/({rng.uniform(2.6, 4.0)!r} - x)")
    if kind == 4:
        return f"{c!r}*x^{rng.uniform(0.2, 0.9)!r}"  # concave
    if kind == 5:
        return f"{c!r}*x^{p!r}*{d!r} + exp({rng.uniform(-1.0, 1.0)!r}*x)"
    if kind == 6:
        return f"exp({rng.uniform(0.1, 2.0)!r}*x) - 1"  # f(0) = 0, as m < 1 needs
    if kind == 7:
        return f"{c!r}*x^{rng.uniform(1.0, 3.0)!r}"
    return "exp(sin(3*x))"


ROUTES = [(), ("--r", "0.3"), ("--r", "1"), ("--r", "2.5"),
          ("--alpha", "1", "--m", "0.4", "--fdomain", "0:2.5"),
          ("--alpha", "1", "--m", "1", "--fdomain", "0:2.5")]


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def _library_check(src, route, samples, seed):
    opts = dict(zip(route[::2], route[1::2]))
    f = function_from_expression(src, RealInterval(0.0, 2.5) if "--fdomain" in opts else UNIT)
    if "--r" in opts:
        return check_r_preinvex(f, UNIT, AFFINE_ETA, float(opts["--r"]), samples, seed)
    if "--m" in opts:
        return check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, float(opts["--m"]), samples, seed)
    return check_preinvex(f, UNIT, AFFINE_ETA, samples, seed)


def test_a_certificate_never_meets_a_sampled_witness():
    """Wherever the CLI reports ``certified``, the library sampler holds on
    1e4 draws of two seeds; and a sampled verdict is the sampler's own."""
    rng = np.random.default_rng(808)
    seen = {"certified": 0, "sampled": 0}
    certified = dict.fromkeys(ROUTES, 0)
    for _ in range(60):
        src = _family(rng)
        for route in ROUTES:
            code, report = _cli("check", "-f", src, "-a", "0", "-b", "1", *route,
                                "--samples", "10000", "--format", "json")
            hypothesis = report["provenance"]["hypothesis"]
            seen[hypothesis] += 1
            certified[route] += hypothesis == "certified"
            if hypothesis == "certified":
                assert (code, report["result"]["witness"], report["provenance"]["residual"]) \
                    == (0, None, 0.0)
                for seed in (0, 1):
                    assert _library_check(src, route, 10_000, seed).holds, (src, route, seed)
            else:
                assert report["result"]["holds"] == _library_check(src, route, 10_000, 0).holds
    assert seen["certified"] > 150 and seen["sampled"] > 60, seen
    assert min(certified.values()) >= 10, certified


@pytest.mark.parametrize("argv", [
    ("-f", "0.7*x^0.6", "--r", "1"),  # concave
    ("-f", "1.3*x^0.35 + 0.2",),
    ("-f", "0.4", "--m", "0.5", "--fdomain", "0:2"),  # f(0) > 0: m*f(v/m) < f(v)
    ("-f", "0.4", "--alpha", "1", "--m", "0.5", "--fdomain", "0:2"),
    ("-f", "x^2", "--alpha", "0.5", "--m", "0.5", "--fdomain", "0:2"),  # alpha < 1: sampled
    ("-f", "x^2", "--r", "-1"),  # r <= 0: sampled
    ("-f", "x^2", "--eta", "scaled:1"),
])
def test_known_violators_and_uncovered_routes_are_sampled(argv):
    code, report = _cli("check", "-a", "0", "-b", "1", *argv, "--samples", "20000",
                        "--format", "json")
    assert report["provenance"]["hypothesis"] == "sampled"
    if "--eta" not in argv and "-1" not in argv:
        assert (code, report["result"]["holds"]) == (2, False)


@pytest.mark.parametrize("argv, message", [
    (("-f", "x^2 - 0.5", "--r", "2"), "r = 2 > 0 requires f >= 0 on K; a sampled value was < 0"),
    (("-f", "x^2", "--m", "0.5"), "m-preinvex: v/m = "),  # K/m leaves the default domain
    (("-f", "x^2", "--fdomain", "0:0.5"), "preinvex: path point "),
    (("-f", "x^2", "--samples", "0"), "need at least one sample"),
    (("-f", "x^2", "--m", "0"), "m must lie in (0, 1]"),
    (("-f", "x^2", "--r", "inf"), "r must be finite"),
])
def test_errors_still_raise_before_any_proof(capsys, argv, message):
    code = main(["check", "-a", "0", "-b", "1", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert message in captured.err


class TestCertifyConvex:
    def _proof(self, src, domain=UNIT, **kw):
        f = function_from_expression(src, domain)
        return certify_convex(f, parse_expression(src), UNIT, **kw)

    def test_a_proof_is_a_report_without_draws(self):
        assert self._proof("x^2") == HypothesisReport(True, 0, None, 0.0)
        assert self._proof("0.5296*x^1.3762 + 0.0", r=1.2238) is not None
        assert self._proof("2*x^1.5", RealInterval(0.0, 2.0), m=0.5) is not None

    def test_negative_values_fail_only_the_power_routes(self):
        assert self._proof("x^2 - 1") is not None
        assert self._proof("x^2 - 1", r=1.0) is None

    def test_the_scaled_route_needs_f0_at_most_zero(self):
        assert self._proof("x^2 + 1e-9", RealInterval(0.0, 2.0), m=0.5) is None
        assert self._proof("x^2 + 1e-9", RealInterval(0.0, 2.0), m=1.0) is not None
        assert self._proof("x^2 - 0.1", RealInterval(-1.0, 2.0), m=0.5) is not None

    def test_large_values_and_tiny_r_are_left_to_the_sampler(self):
        assert self._proof("70000*x^2") is None
        assert self._proof("30000*x^2") is not None
        assert self._proof("60000*x^2") is None  # |x*f'| = 120000 at x = 1
        # a path point an ulp off moves f by more than 1e-9: the sampler's own witnesses
        K = RealInterval(1e6, 1e6 + 1e-2)
        f = function_from_expression("60*(x - 1000000)", K)
        assert certify_convex(f, parse_expression("60*(x - 1000000)"), K) is None
        assert self._proof("1/(1.0001 - x)") is None
        assert self._proof("1/(1.1 - x)") is not None
        assert self._proof("exp(x)", r=1e-6) is None  # the power mean rounds at 1/r
        assert self._proof("10*exp(x)", r=40.0) is None  # f**r near overflow

    def test_outside_its_hypothesis_it_returns_none_without_raising(self):
        # these raised ZeroDivisionError (m = 0), math domain errors (r = 0;
        # r = -1 on x + 1) or certified (m < 0, m > 1)
        for src in ("x^2", "x + 1"):
            f = function_from_expression(src, RealInterval(-3.0, 3.0))
            for kw in [dict(m=m) for m in (0.0, -0.5, 1.5, 2.0)] + \
                    [dict(r=r) for r in (0.0, -1.0, math.inf, math.nan)]:
                assert certify_convex(f, parse_expression(src), UNIT, **kw) is None, (src, kw)

    def test_m_above_one_is_not_certified(self):
        f = function_from_expression("x^2", RealInterval(-3.0, 3.0))
        # u = 0, v = 1, t = 1 refutes f(u + t*(v - u)) <= (1 - t)*f(u) + m*t*f(v/m) at m = 2
        assert f.evaluate(1.0) == 1.0 > 2.0 * f.evaluate(0.5) == 0.5
        assert certify_convex(f, parse_expression("x^2"), UNIT, m=2.0) is None

    def test_a_proof_bisects_within_its_cells(self, monkeypatch):
        calls = []

        def counting(node):
            ext = extend_expression(node)
            return lambda a, b: calls.append((a, b)) or ext(a, b)

        monkeypatch.setattr(convexity, "extend_expression", counting)
        # g'' = 12x^2 - 6x + 1 > 0, which the extension of g' proves only on halves
        assert self._proof("x^4 - x^3 + 0.5*x^2") is not None
        assert 1 < len(calls) < convexity.PROOF_CELLS and calls[:3] == [(0, 1), (0, 0.5), (0.5, 1)]
        calls.clear()
        assert self._proof("sin(x + 1)") is None and len(calls) == 1  # g'' < 0 on all of [0, 1]
        calls.clear()
        assert self._proof("x^3/3", r=0.5) is None  # unbounded at 0: the cells run out
        assert len(calls) <= convexity.PROOF_CELLS
