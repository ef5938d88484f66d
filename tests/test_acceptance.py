"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with -s to
see them live).  Tolerances are pinned here, not configurable; runtime limits
are asserted with a wall clock.
"""

import json
import math
import time
import warnings

import numpy as np
from jsonschema import validate

from fuzzyhh.bounds import (
    BoundInputs,
    alpha_m_bound,
    classical_hh_preinvex,
    classical_hh_r_rhs,
    r_preinvex_bound,
    verify_fuzzy_hh,
)
from fuzzyhh.cli import main
from fuzzyhh.convexity import (
    AFFINE_ETA,
    check_alpha_m_preinvex,
    check_condition_c,
    check_invex,
    check_m_preinvex,
    check_preinvex,
    check_r_preinvex,
    scaled_eta,
)
from fuzzyhh.expressions import function_from_expression
from fuzzyhh.golden import run_entry
from fuzzyhh.measure import DistributionProfile, RealInterval
from fuzzyhh.sugeno import sugeno_integral, sugeno_supmin
from test_cli import REPORT_SCHEMA

UNIT = RealInterval(0.0, 1.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_quartic_golden_values():
    t0 = time.monotonic()
    f = function_from_expression("x^4/2", UNIT)
    integral = sugeno_integral(f, UNIT).value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        comparator = classical_hh_r_rhs(float(f(0.0)), float(f(1.0)), 0.5)
    entry = run_entry("s3-x4")
    elapsed = time.monotonic() - t0
    ok = (
        abs(integral - 0.2023) <= 5e-4
        and abs(comparator - 0.125) <= 1e-12
        and "violated" in entry.verdict
        and entry.ok
        and elapsed < 1.0
    )
    report(
        "1 (quartic golden values)",
        ok,
        f"integral={integral:.6f}, comparator={comparator:.6f}, {elapsed:.2f}s",
    )


def test_criterion_2_cubic_bound_and_discrepancy():
    t0 = time.monotonic()
    res = r_preinvex_bound(BoundInputs(fa=0.0, fend=1.0 / 3.0, eta_len=1.0, r=0.5))
    f = function_from_expression("x^3/3", UNIT)
    from fuzzyhh.convexity import InvexInterval

    verify = verify_fuzzy_hh(f, InvexInterval(0.0, 1.0), r=0.5)
    # independent 13-digit bisection of the example's own fixed-point equation
    lo, hi = 0.0, 1.0
    g = lambda b: (1.0 - b) ** 3 / 3.0 - b
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    derived_root = 0.5 * (lo + hi)
    entry = run_entry("s3-x3")
    elapsed = time.monotonic() - t0
    ok = (
        abs(res.bound - 0.2087) <= 5e-4
        and verify.passed
        and abs(verify.integral.value - derived_root) <= 3e-3
        and abs(derived_root - 0.1847) <= 3e-3  # the documented discrepancy waiver
        and entry.ok
        and elapsed < 1.0
    )
    report(
        "2 (cubic bound + documented discrepancy)",
        ok,
        f"bound={res.bound:.6f}, integral={verify.integral.value:.6f}, "
        f"derived={derived_root:.6f}, {elapsed:.2f}s",
    )


def test_criterion_3_quadratic_golden_values():
    t0 = time.monotonic()
    f2 = function_from_expression("x^2/2", UNIT)
    f3 = function_from_expression("3*x^2", UNIT)
    v2 = sugeno_integral(f2, UNIT, tol=1e-12).value
    v3 = sugeno_integral(f3, UNIT, tol=1e-12).value
    from fuzzyhh.convexity import InvexInterval

    iv = InvexInterval(0.0, 1.0)
    midpoint, _ = classical_hh_preinvex(f3, iv)
    _, mean = classical_hh_preinvex(f2, iv)
    e2, e3 = run_entry("s4-x2"), run_entry("s4-3x2")
    elapsed = time.monotonic() - t0
    ok = (
        abs(v2 - (2.0 - math.sqrt(3.0))) <= 1e-6
        and abs(v3 - (7.0 - math.sqrt(13.0)) / 6.0) <= 1e-6
        and abs(midpoint - 0.75) <= 1e-12
        and abs(mean - 0.25) <= 1e-12
        and "violated" in e2.verdict
        and "violated" in e3.verdict
        and e2.ok
        and e3.ok
        and elapsed < 1.0
    )
    report(
        "3 (quadratic golden values)",
        ok,
        f"x^2/2={v2:.8f}, 3x^2={v3:.8f}, {elapsed:.2f}s",
    )


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        c = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.25, 4.0)
        lo = rng.uniform(0.0, 0.9)
        hi = lo + max(rng.uniform(0.0, 1.0 - lo), 0.01)
        A = RealInterval(lo, min(hi, 1.0))
        f = function_from_expression(f"{c!r}*x^{p!r}+{d!r}", RealInterval(0.0, 1.0))
        fixed = sugeno_integral(f, A).value
        sweep = sugeno_supmin(f, A, 10**6).value
        worst = max(worst, abs(fixed - sweep))
        assert abs(fixed - sweep) <= 1e-3
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    report("4 (oracle equivalence, 200 functions)", ok, f"worst gap={worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_characterizing_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    # constant rule, exact to 1e-9
    for _ in range(50):
        k = rng.uniform(0.0, 1.5)
        lo = rng.uniform(0.0, 0.9)
        A = RealInterval(lo, lo + rng.uniform(0.05, 1.0 - min(lo, 0.9)))
        value = sugeno_integral(function_from_expression(repr(k), A), A).value
        assert abs(value - min(k, A.length())) <= 1e-9

    # monotonicity in the integrand
    for _ in range(50):
        c = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.3, 3.0)
        dc, dd = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        f = function_from_expression(f"{c!r}*x^{p!r}+{d!r}", UNIT)
        g = function_from_expression(f"{c + dc!r}*x^{p!r}+{d + dd!r}", UNIT)
        vf = sugeno_integral(f, UNIT, tol=1e-12).value
        vg = sugeno_integral(g, UNIT, tol=1e-12).value
        assert vf <= vg + 1e-9
        assert vf <= UNIT.length() + 1e-12 and vg <= UNIT.length() + 1e-12

    # threshold rules
    for _ in range(100):
        c = rng.uniform(0.1, 2.0)
        p = rng.uniform(0.3, 3.0)
        f = function_from_expression(f"{c!r}*x^{p!r}", UNIT)
        beta = rng.uniform(0.0, 1.2)
        profile = DistributionProfile(f, UNIT)
        value = sugeno_integral(f, UNIT, tol=1e-12).value
        if profile.at(beta) >= beta:
            assert value >= beta - 1e-9
        if profile.at(beta) <= beta:
            assert value <= beta + 1e-9

    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    report("5 (constant/monotone/threshold rules)", ok, f"{elapsed:.1f}s")


def test_criterion_6_tight_family_margins_and_residuals():
    t0 = time.monotonic()
    from fuzzyhh.convexity import InvexInterval

    rng = np.random.default_rng(31)
    iv = InvexInterval(0.0, 1.0)
    worst_margin = math.inf
    worst_residual = 0.0
    for _ in range(100):
        c = rng.uniform(0.05, 1.0)
        d = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.25, 3.0)
        f = function_from_expression(f"({c!r}*x+{d!r})^(1/{r!r})", UNIT)
        rep = verify_fuzzy_hh(f, iv, r=r)
        worst_margin = min(worst_margin, rep.margin)
        assert rep.margin >= -1e-6
        # residual re-evaluated from an independently coded equation
        fa, fend, eta, beta = float(f(0.0)), float(f(1.0)), 1.0, rep.bound.beta
        if abs(fend - fa) <= 1e-12:
            continue
        if fend > fa:
            g = beta * (fend**r - fa**r) + eta * beta**r - eta * fend**r
        else:
            g = beta * (fend**r - fa**r) - eta * beta**r + eta * fa**r
        worst_residual = max(worst_residual, abs(g))
        assert abs(g) <= 1e-9
    # r < 0 and falling families: the bound is the Sugeno integral of the
    # majorant ((1-t)*fa^r + t*fend^r)^(1/r), integrated as a function of its own
    worst_gap = 0.0
    for k in range(100):
        r = rng.uniform(0.25, 3.0) * (-1.0 if k % 4 >= 2 else 1.0)
        c = rng.uniform(0.05, 1.0) * (-1.0 if k % 2 else 1.0)
        d = max(0.0, -c) + rng.uniform(0.05, 1.0)  # c*x + d >= 0.05 on [0, 1]
        f = function_from_expression(f"({c!r}*x+{d!r})^(1/{r!r})", UNIT)
        rep = verify_fuzzy_hh(f, iv, r=r)
        fa, fend = float(f(0.0)), float(f(1.0))
        majorant = function_from_expression(f"({fend**r - fa**r!r}*x+{fa**r!r})^(1/{r!r})", UNIT)
        expected = sugeno_integral(majorant, UNIT)
        gap = abs(rep.bound.bound - expected.value)
        worst_margin = min(worst_margin, rep.margin)
        worst_gap = max(worst_gap, gap)
        assert rep.margin >= -1e-6 and gap <= 1e-9 + expected.residual
    elapsed = time.monotonic() - t0
    ok = worst_margin >= -1e-6 and worst_residual <= 1e-9 and elapsed < 60.0
    report(
        "6 (exactly-tight family, 200 functions)",
        ok,
        f"worst margin={worst_margin:.2e}, worst residual={worst_residual:.2e}, "
        f"worst majorant gap={worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_scaled_argument_case_coverage():
    eta_a = 1.0  # every instance uses eta_len = 1, alpha as stated

    # increasing case; the derived quadratic instance with beta = 3/4
    inc = alpha_m_bound(
        BoundInputs(fa=0.0, fend=0.5, eta_len=1.0, alpha=0.5, m=1.0 / 3.0, fscaled=4.5)
    )
    g_inc = (1 - inc.beta) ** 0.5 * ((1.0 / 3.0) * 4.5 - 0.0) - eta_a * (inc.beta - 0.0)
    assert inc.case.value == "am-increasing"
    assert abs(inc.beta - 0.75) <= 1e-9 and abs(g_inc) <= 1e-9

    # m*fscaled < fend: the hypothesis fails at t = 1 and the majorant falls,
    # so these take the falling equation beta^a*(m*fscaled - fa) = L^a*(beta - fa)
    # whatever m is against the endpoint ratio
    small = alpha_m_bound(
        BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=0.5, m=0.25, fscaled=0.2)
    )
    g_small = small.beta**0.5 * (0.25 * 0.2 - 1.0) - (small.beta - 1.0)
    assert small.case.value == "am-decreasing-large-m"
    root = ((math.sqrt(0.95**2 + 4.0) - 0.95) / 2.0) ** 2  # sqrt(beta) solves s^2 + 0.95s = 1
    assert abs(small.beta - root) <= 1e-12 and abs(g_small) <= 1e-9

    ratio = alpha_m_bound(
        BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=1.0, m=0.5, fscaled=1.0 / 3.0)
    )
    g_ratio = ratio.beta * (0.5 * (1.0 / 3.0) - 1.0) - (ratio.beta - 1.0)
    assert ratio.case.value == "am-decreasing-large-m"
    assert abs(ratio.beta - 6.0 / 11.0) <= 1e-12 and abs(g_ratio) <= 1e-9

    # decreasing, m above the endpoint ratio
    large = alpha_m_bound(
        BoundInputs(fa=1.0, fend=0.5, eta_len=1.0, alpha=0.5, m=0.8, fscaled=1.0 / 2.25)
    )
    g_large = large.beta**0.5 * (0.8 / 2.25 - 1.0) - (large.beta - 1.0)
    assert large.case.value == "am-decreasing-large-m"
    assert abs(g_large) <= 1e-9

    report(
        "7 (scaled-argument case coverage)",
        True,
        f"roots: {inc.beta:.4f}, {small.beta:.4f}, {ratio.beta:.4f}, {large.beta:.4f}",
    )


def test_criterion_8_checker_coherence():
    seed, samples = 13, 20_000

    def key(rep):
        w = rep.witness
        return (rep.holds, None if w is None else (w.u, w.v, w.t, w.lhs, w.rhs))

    # degeneration chain on shared seeds
    for src, domain in (("x^2", UNIT), ("sqrt(x)", UNIT), ("exp(x)", UNIT)):
        f = function_from_expression(src, domain)
        chain = (
            check_preinvex(f, UNIT, AFFINE_ETA, samples=samples, seed=seed),
            check_r_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=samples, seed=seed),
            check_alpha_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, 1.0, samples=samples, seed=seed),
            check_m_preinvex(f, UNIT, AFFINE_ETA, 1.0, samples=samples, seed=seed),
        )
        assert len({key(rep) for rep in chain}) == 1

    # the r-power law on every certified case
    certified = []
    for src, r in (("x^4/2", 0.5), ("x^3/3", 0.5), ("x^2", 0.5), ("x^2", 2.0)):
        f = function_from_expression(src, UNIT)
        rep = check_r_preinvex(f, UNIT, AFFINE_ETA, r, samples=samples, seed=seed)
        assert rep.holds
        certified.append((src, r))
    for src, r in certified:
        powered = function_from_expression(f"({src})^{r!r}", UNIT)
        assert check_preinvex(powered, UNIT, AFFINE_ETA, samples=samples, seed=seed).holds

    # every emitted witness independently re-violates its definition
    violations = []

    f_sqrt = function_from_expression("sqrt(x)", UNIT)
    w = check_preinvex(f_sqrt, UNIT, AFFINE_ETA, samples=samples, seed=seed).witness
    lhs = math.sqrt(w.u + w.t * (w.v - w.u))
    violations.append(lhs - ((1 - w.t) * math.sqrt(w.u) + w.t * math.sqrt(w.v)))

    f_sq = function_from_expression("x^2/2", RealInterval(0.0, 3.0))
    w = check_alpha_m_preinvex(
        f_sq, UNIT, AFFINE_ETA, 0.5, 1.0 / 3.0, samples=samples, seed=seed
    ).witness
    lhs = (w.u + w.t * (w.v - w.u)) ** 2 / 2.0
    rhs = (1 - w.t**0.5) * w.u**2 / 2.0 + (1.0 / 3.0) * w.t**0.5 * (3.0 * w.v) ** 2 / 2.0
    violations.append(lhs - rhs)

    f_exp = function_from_expression("exp(x)", RealInterval(0.0, 10.0))
    w = check_m_preinvex(f_exp, UNIT, AFFINE_ETA, 0.1, samples=samples, seed=seed).witness
    lhs = math.exp(w.u + w.t * (w.v - w.u))
    violations.append(lhs - ((1 - w.t) * math.exp(w.u) + 0.1 * w.t * math.exp(w.v / 0.1)))

    w = check_invex(UNIT, scaled_eta(2.0), samples=samples, seed=seed).witness
    point = w.u + w.t * 2.0 * (w.v - w.u)
    violations.append(max(UNIT.lo - point, point - UNIT.hi))

    w = check_condition_c(UNIT, scaled_eta(2.0), samples=samples, seed=seed).witness
    eta = lambda v, u: 2.0 * (v - u)
    assert w.kind == "eta-consistency-1"
    violations.append(abs(eta(w.u, w.u + w.t * eta(w.v, w.u)) - (-w.t * eta(w.v, w.u))))

    assert all(v > 1e-9 for v in violations)
    report(
        "8 (checker degeneration chain, power law, witnesses)",
        True,
        f"min witness violation={min(violations):.2e}",
    )


def test_criterion_9_cli_contract(capsys):
    code = main(["reproduce", "all", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    validate(payload, REPORT_SCHEMA)
    entries = payload["result"]["entries"]
    assert len(entries) == 5
    for entry in entries:
        assert entry["ok"], entry["entry"]
        for check in entry["checks"]:
            assert abs(check["computed"] - check["expected"]) <= check["tol"]

    code = main(["integrate", "-f", "(1-x", "-a", "0", "-b", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "offset 4" in err
    report("9 (CLI contract)", True, "reproduce all + positioned syntax error")
