"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The oracles must reproduce the golden closed forms without fuzzyhh, and a
deliberately wrong result must be reported as a failed operation.  The last
test installs the tracer and checks the layer counters on single operations.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402


def _root(equation, lo=0.0, hi=1.0):
    """Plain bisection for a sign change of ``equation`` on [lo, hi]."""
    g_lo = equation(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (equation(mid) > 0) == (g_lo > 0):
            lo, g_lo = mid, equation(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- oracles against closed forms -------------------------------------------------------


def test_oracles_reproduce_golden_closed_forms():
    exact = {
        "x^2/2": 2 - math.sqrt(3),
        "3*x^2": (7 - math.sqrt(13)) / 6,
        "x^4/2": _root(lambda b: 1 - (2 * b) ** 0.25 - b),
        "x^3/3": _root(lambda b: 1 - (3 * b) ** (1 / 3) - b),
    }
    for src, c, p in wl.GOLDEN_INTEGRANDS:
        ig = wl.pow_inc(c, p, 0.0, 0.0, 1.0, src)
        assert abs(orc.sup_level(ig.measure, 1.0) - exact[src]) < 1e-14, src
        assert abs(orc.grid_supmin(ig.fn, 0.0, 1.0) - exact[src]) <= orc.grid_tolerance(1, 1.0, True)
    assert abs(exact["x^4/2"] - 0.2023) < 5e-4  # the printed 4-decimal value
    expected = wl.golden_expected()
    assert abs(expected["s3-x3"]["integral-derived"] - 0.18226832611317649) < 1e-14
    # the two bounds of the table: power mean at r = 1/2, scaled argument at (1/2, 1/3)
    assert abs(orc.power_mean_majorant_integral(0.0, 1 / 3, 1.0, 0.5) - (5 - math.sqrt(21)) / 2) < 1e-14
    assert abs(orc.scaled_majorant_integral(0.0, 4.5, 1.0, 0.5, 1 / 3) - 0.75) < 1e-14


def test_grid_families_match_closed_forms():
    for k in range(1, 7):
        ig = wl.bump(0.8, float(k), 0.0, 1.0)
        want = orc.sup_level(ig.measure, 1.0)
        assert abs(orc.grid_supmin(ig.fn, 0.0, 1.0) - want) <= orc.grid_tolerance(ig.pieces, 1.0, True)
    assert abs(orc.sup_level(wl.tent(1.0, 0.5).measure, 1.0) - 1 / 3) < 1e-15
    rng = random.Random(7)
    for ig in (wl.tent(rng.uniform(0.5, 2), rng.uniform(0.2, 0.8)), wl._quad(rng),
               wl.box(0.05, 0.2, 0.2, 0.5, 0.01), wl.box(0.05, 0.8, 0.2, 0.3, 0.01),
               wl.const(0.37, 0.2, 1.3)):
        L = ig.hi - ig.lo
        got = orc.grid_supmin(ig.fn, ig.lo, ig.hi)
        assert abs(got - orc.sup_level(ig.measure, L)) <= orc.grid_tolerance(ig.pieces, L, True), ig.src


def test_majorant_integrals_match_a_dense_grid():
    rng = random.Random(11)
    n = 2_000_003
    for _ in range(40):
        L = rng.uniform(0.5, 2.0)
        fa, fend = rng.uniform(0.05, 2.5), rng.uniform(0.05, 2.5)
        r = rng.choice([-1, 1]) * rng.uniform(0.25, 3.0)
        want = orc.power_mean_majorant_integral(fa, fend, L, r)
        grid = orc.grid_supmin(lambda x: ((1 - x / L) * fa**r + x / L * fend**r) ** (1 / r), 0.0, L, n)
        assert abs(grid - want) <= 2 * L / n, (fa, fend, L, r)
        alpha, m, fs = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(0.0, 4.0)
        want = orc.scaled_majorant_integral(fa, fs, L, alpha, m)
        grid = orc.grid_supmin(lambda x: (1 - (x / L) ** alpha) * fa + m * (x / L) ** alpha * fs, 0.0, L, n)
        assert abs(grid - want) <= 2 * L / n, (fa, fs, L, alpha, m)
    # the exact value quoted for the r < 0 NoRoot example
    assert abs(orc.power_mean_majorant_integral(0.5, 2.0, 1.0, -1.0) - 2 / 3) < 1e-15


# -- perturbed results fail ----------------------------------------------------------------


def _check(op, out, exp):
    import worker

    return worker.check(op, out, exp)


def test_offset_results_are_failures():
    for workload in ("monotone-integrals", "grid-integrals", "bound-solve"):
        ops = wl.make_ops(workload, 3)
        for op, exp in zip(ops, wl.expectations(workload, ops)):
            # 1e-3, or twice the tolerance of the aliasing integrand's 4098 pieces
            offset = max(1e-3, 2 * exp["tol"])
            assert _check(op, exp["value"], exp), op.id
            assert not _check(op, exp["value"] + offset, exp), op.id
            assert not _check(op, exp["value"] - offset, exp), op.id
            assert not _check(op, math.nan, exp), op.id


def test_swapped_r_negative_pairing_is_a_failure():
    """Solving r < 0 with the equations swapped back (the library's pairing) fails;
    the pairing the majorant's level set gives passes."""
    op = wl.Op("r<0", "bound", bound=dict(fa=0.2, fend=0.9, eta_len=1.0, r=-0.5))
    exp = wl.expectations("bound-solve", [op])[0]
    fa, fend, L, r = 0.2, 0.9, 1.0, -0.5
    diff = fend**r - fa**r
    end_form = _root(lambda b: b * diff + L * b**r - L * fend**r, 1e-9, L)
    a_form = _root(lambda b: b * diff - L * b**r + L * fa**r, 1e-9, L)
    assert _check(op, min(end_form, L), exp)
    assert not _check(op, min(a_form, L), exp)
    assert abs(a_form - 0.27322) < 1e-5 and abs(exp["value"] - 0.41753) < 1e-5


def test_aliasing_integrand_value_is_a_failure():
    op = next(o for o in wl.make_ops("grid-integrals", 0) if o.fault == "d")
    exp = wl.expectations("grid-integrals", [op])[0]
    assert abs(exp["value"] - 0.41822) < 2e-5
    assert not _check(op, 0.33350, exp)


def test_cli_checks_reject_wrong_reports():
    import json

    ops = wl.make_ops("cli-session", 5)
    exps = {op.id: exp for op, exp in zip(ops, wl.expectations("cli-session", ops))}
    by_id = {op.id: op for op in ops}

    # a witness that does not violate the inequality (u = v) is rejected
    op = by_id["check-r-witness"]
    fake = {"u": 0.5, "v": 0.5, "t": 0.3, "lhs": 1.0, "rhs": 0.0, "kind": "r-preinvex"}
    text = json.dumps({"result": {"holds": False, "witness": fake}})
    assert not _check(op, (2, text), exps[op.id])

    # a golden entry off by 1e-3 is rejected, the closed forms pass
    op = by_id["reproduce#0"]
    entries = [{"entry": e, "checks": [{"name": n, "computed": v} for n, v in checks.items()]}
               for e, checks in exps[op.id]["entries"].items()]
    good = json.dumps({"result": {"holds": True, "entries": entries}})
    assert _check(op, (0, good), exps[op.id])
    entries[1]["checks"][1]["computed"] += 1e-3
    bad = json.dumps({"result": {"holds": True, "entries": entries}})
    assert not _check(op, (0, bad), exps[op.id])

    # a bound report whose bound is offset by 1e-3 is rejected
    op = by_id["bound-r#0"]
    e = exps[op.id]
    code = 0 if e["passes"] else 2
    report = {"result": {"integral": e["integral"], "bound": e["bound"]}}
    assert _check(op, (code, json.dumps(report)), e)
    report["result"]["bound"] += 1e-3
    assert not _check(op, (code, json.dumps(report)), e)


def test_inputs_follow_the_seed():
    def key(ops):
        return [(o.id, o.integrand.src if o.integrand else o.bound, o.argv) for o in ops]

    for workload in wl.WORKLOADS:
        assert key(wl.make_ops(workload, 4)) == key(wl.make_ops(workload, 4))
        assert key(wl.make_ops(workload, 4)) != key(wl.make_ops(workload, 5))
        faults = [o for o in wl.make_ops(workload, 4) if o.fault]
        assert key(faults) == key([o for o in wl.make_ops(workload, 5) if o.fault])


# -- the tracer ----------------------------------------------------------------------------


def test_tracer_counts_layers():
    import tracing
    import worker

    fz = worker.load_library("cli-session")
    tracer = tracing.Tracer()
    tracer.install()

    def layers(op):
        tracer.spans.clear()
        worker.call(fz, op)
        return tracer.layer_metrics(1)

    got = layers(wl.Op("x^2/2", "integral", integrand=wl.pow_inc(0.5, 2.0, 0.0, 0.0, 1.0, "x^2/2")))
    assert got["sugeno.integral_calls"] == 1 and got["sugeno.fallbacks"] == 0
    assert got["expressions.eval_calls"] > 1000 and got["measure.profile_queries"] > 20
    got = layers(wl.Op("const", "integral", integrand=wl.const(0.37, 0.0, 1.0)))
    assert got["sugeno.fallbacks"] == 1 and got["expressions.eval_points"] > 1_000_000
    got = layers(wl.Op("sat", "bound", bound=dict(fa=1.5, fend=2.5, eta_len=1.0, r=2.0)))
    assert got["bounds.scan_fallbacks"] == 1 and got["bounds.g_evals"] > 10_000
    got = layers(wl.Op("hint", "bound", bound=dict(fa=0.2, fend=0.9, eta_len=1.0, r=0.5)))
    assert got["bounds.scan_fallbacks"] == 0 and 0 < got["bounds.g_evals"] < 300
    ops = {op.id: op for op in wl.make_ops("cli-session", 1)}
    got = layers(ops["reproduce#0"])
    assert got["golden.entry_ms"] > 0 and got["sugeno.integral_calls"] == 5 and got["cli.self_ms"] > 0
    got = layers(ops["check-am-witness"])
    assert got["convexity.draws"] == 100_000 and got["convexity.check_ms"] > 0
    assert all(np.isfinite(v) for v in got.values())


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    tests.sort(key=lambda t: t[0] == "test_tracer_counts_layers")  # patches the library: last
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
