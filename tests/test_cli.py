import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from fuzzyhh import RealInterval, bounds, cli, function_from_expression, golden, sugeno_integral
from fuzzyhh.cli import main
from fuzzyhh.convexity import InvexInterval

# The stable report contract: field names and types; extra fields are allowed.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "result", "provenance", "verdict"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "result": {
            "type": "object",
            "properties": {
                "integral": {"type": ["number", "null"]},
                "bound": {"type": ["number", "null"]},
                "beta": {"type": ["number", "null"]},
                "case": {"type": ["string", "null"]},
                "holds": {"type": ["boolean", "null"]},
                "witness": {"type": ["object", "null"]},
            },
        },
        "provenance": {
            "type": "object",
            "required": ["method", "residual"],
            "properties": {
                "method": {"type": "string"},
                "residual": {"type": "number"},
                "integral_residual": {"type": "number"},
                "residual_is_bound": {"type": "boolean"},
                "grid": {"type": ["integer", "null"]},
                "seed": {"type": ["integer", "null"]},
                "hint": {"enum": ["certified", "declared", "unknown"]},
                "pieces": {"type": "integer", "minimum": 0},
                "hypothesis": {"enum": ["certified", "sampled"]},
            },
        },
        "verdict": {"type": "string"},
    },
}

# integrate and bound also say how the integrand's monotonicity was obtained
INTEGRAL_SCHEMA = {
    "allOf": [REPORT_SCHEMA],
    "properties": {"provenance": {"required": ["method", "residual", "residual_is_bound", "hint",
                                               "pieces"]}},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestIntegrate:
    def test_square_halved(self, capsys):
        code, report, _ = run_json(capsys, "integrate", "-f", "x^2/2", "-a", "0", "-b", "1")
        assert code == 0
        validate(report, REPORT_SCHEMA)
        assert report["result"]["integral"] == pytest.approx(0.2679, abs=5e-4)
        assert report["verdict"] == "ok"

    def test_constant(self, capsys):
        code, report, _ = run_json(capsys, "integrate", "-f", "0.3", "-a", "0", "-b", "1")
        assert code == 0
        assert report["result"]["integral"] == pytest.approx(0.3, abs=1e-9)

    def test_supmin_method_on_sine(self, capsys):
        # fixed point of 1 - (2/pi) asin(b) = b, derived independently
        g = lambda b: 1.0 - (2.0 / math.pi) * math.asin(b) - b
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
        expected = 0.5 * (lo + hi)
        code, report, _ = run_json(
            capsys, "integrate", "-f", "sin(3.14159265*x)", "-a", "0", "-b", "1",
            "--method", "supmin", "--grid", "200000",
        )
        assert code == 0
        assert report["provenance"]["method"] == "supmin_grid"
        assert report["result"]["integral"] == pytest.approx(expected, abs=2e-3)

    @pytest.mark.parametrize("src, b, code", [
        ("x^(1/5e-324)", "0.5", 0),  # x^inf is 0 on [0, 1)
        ("pow(x, 1/5e-324)", "2", 1),  # and inf past 1
        ("x^((1/5e-324)-(1/5e-324))", "0.5", 1),  # x^nan
    ])
    def test_non_finite_constant_exponent(self, capsys, src, b, code):
        # used to raise OverflowError (inf) or report a ValueError (nan) from
        # the interval extension's integer test
        got, out, err = run(capsys, "integrate", "-f", src, "-a", "0", "-b", b)
        assert got == code
        if code == 0:
            assert "integral = 0\n" in out
        else:
            assert out == ""
            assert err.startswith("fuzzyhh: expression not evaluable: ")

    def test_malformed_expression_exits_one(self, capsys):
        code, out, err = run(capsys, "integrate", "-f", "(1-x", "-a", "0", "-b", "1")
        assert code == 1
        assert "offset 4" in err

    def test_negative_function_exits_one(self, capsys):
        code, _, err = run(capsys, "integrate", "-f", "x-0.5", "-a", "0", "-b", "1")
        assert code == 1
        assert "integrand" in err

    @pytest.mark.parametrize("method", [(), ("--method", "supmin")], ids=["auto", "supmin"])
    def test_negative_between_the_guard_points_exits_one(self, capsys, method):
        # every point of the 4097-point guard grid is a zero of the sine; the
        # 1e6-point sample of the grid form and of the sweep reaches -0.1998
        code, _, err = run(
            capsys, "integrate", "-f", "x/2 + 0.2*sin(3.141592653589793*4096*x)",
            "-a", "0", "-b", "1", *method,
        )
        assert code == 1
        assert "integrand reaches -0.19" in err

    @pytest.mark.parametrize("src, method, hint, pieces", [
        ("x^2/2", "fixed_point", "certified", 1),
        ("0.9 - 1.3*(x - 0.45)^2", "fixed_point", "certified", 2),
        ("x/2 + 0.2*abs(sin(3.141592653589793*2048*x))", "supmin_grid", "unknown", 0),
    ])
    def test_provenance_reports_the_hint(self, capsys, src, method, hint, pieces):
        code, report, _ = run_json(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        assert code == 0
        validate(report, INTEGRAL_SCHEMA)
        prov = report["provenance"]
        assert (prov["method"], prov["hint"], prov["pieces"]) == (method, hint, pieces)
        code, out, _ = run(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        assert f"method={method}, " in out and f", hint={hint}, pieces={pieces}, " in out

    @pytest.mark.parametrize("src, is_bound", [
        ("x^2/2", True),
        ("0.9 - 1.3*(x - 0.45)^2", True),
        ("x/2 + 0.2*abs(sin(3.141592653589793*2048*x))", False),
    ])
    def test_a_grid_residual_is_a_sample_resolution(self, capsys, src, is_bound):
        """The crossing forms bound their error by the residual; the grid
        form's mu/n is only the spacing of its sample."""
        code, report, _ = run_json(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        assert code == 0 and report["provenance"]["residual_is_bound"] is is_bound
        _, out, _ = run(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        residual = f"residual={report['provenance']['residual']:.3g}"
        assert (f"{residual} (sample resolution), " in out) is not is_bound
        assert f"{residual}, " in out or not is_bound

    def test_tent_prints_the_digits_of_its_closed_form(self, capsys):
        """The piecewise search used to stop 5.0e-7 above tol here and print
        0.481689.  Only the left arm reaches the crossing level b, so
        s - b/c = b gives the closed form s*c/(c + 1) = 0.48168965."""
        c, s = 1.5492471205316165, 0.7926081876560689
        src = f"{c!r}*abs(x - {s!r})"
        code, out, _ = run(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        assert code == 0 and "integral = 0.48169\n" in out
        code, report, _ = run_json(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        assert report["provenance"]["residual"] <= 1e-9
        assert report["result"]["integral"] == pytest.approx(s * c / (c + 1), abs=1e-9)

    def test_forced_supmin_reports_no_hint(self, capsys):
        code, report, _ = run_json(capsys, "integrate", "-f", "x", "-a", "0", "-b", "1",
                                   "--method", "supmin", "--grid", "1000")
        assert code == 0
        validate(report, INTEGRAL_SCHEMA)
        assert (report["provenance"]["hint"], report["provenance"]["pieces"]) == ("unknown", 0)

    def test_negative_dip_between_the_guard_points_exits_one(self, capsys):
        # a dip to -0.15 of half-width 1e-5 at 0.90013: no guard point falls in
        # it, the certified gaps around it are bisected down to a negative value
        code, out, err = run(
            capsys, "integrate", "-f",
            "x/2 - 0.6*(1e-5 - abs(x - 0.90013) + abs(abs(x - 0.90013) - 1e-5))/2e-5",
            "-a", "0", "-b", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("fuzzyhh: integrand reaches -")

    @pytest.mark.parametrize("argv", [
        ("integrate", "-f", "x", "-a", "0", "-b", "inf"),
        ("integrate", "-f", "x", "-a", "0", "-b", "1e309"),
        ("bound", "-f", "x", "-a", "0", "-b", "1", "--r", "1", "--eta-len", "inf"),
        ("integrate", "-f", "x", "-a", "0", "-b", "1", "--fdomain", "0:inf"),
    ])
    def test_infinite_interval_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("fuzzyhh: ") and "interval endpoints must be finite" in err
        assert "expression" not in err

    def test_non_positive_grid_exits_one(self, capsys):
        # x takes the monotone form, which never reads the grid
        code, out, err = run(capsys, "integrate", "-f", "x", "-a", "0", "-b", "1", "--grid", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("fuzzyhh: ") and "grid must be positive" in err

    def test_steep_distribution_fixedpoint(self, capsys):
        # the monotone form, reported as fixed_point, on a distribution of slope -1e4
        code, report, _ = run_json(
            capsys, "integrate", "-f", "0.0001*x+0.5", "-a", "0", "-b", "1")
        assert code == 0
        assert report["result"]["integral"] == pytest.approx(0.5001 / 1.0001, abs=1e-9)
        assert report["provenance"]["method"] == "fixed_point"

    @pytest.mark.parametrize("src, want", [("1e-10*x+0.5", 0.5), ("0.3", 0.3)])
    def test_fixedpoint_on_jumps_and_plateaus(self, capsys, src, want):
        code, report, _ = run_json(capsys, "integrate", "-f", src, "-a", "0", "-b", "1")
        assert code == 0
        assert report["result"]["integral"] == pytest.approx(want, abs=1e-9)
        assert report["provenance"]["method"] == "fixed_point"

    def test_json_output_reparses_losslessly(self, capsys):
        code, out, _ = run(
            capsys, "integrate", "-f", "x^2/2", "-a", "0", "-b", "1", "--format", "json"
        )
        first = json.loads(out)
        assert json.loads(json.dumps(first)) == first


class TestCheck:
    def test_quartic_halved_holds(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "-f", "x^4/2", "-a", "0", "-b", "1", "--r", "0.5",
            "--samples", "20000",
        )
        assert code == 0
        validate(report, REPORT_SCHEMA)
        assert report["result"]["holds"] is True
        assert report["result"]["witness"] is None

    def test_sqrt_prints_witness_and_exits_two(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "-f", "sqrt(x)", "-a", "0", "-b", "1", "--r", "1",
            "--samples", "20000",
        )
        assert code == 2
        assert report["result"]["holds"] is False
        w = report["result"]["witness"]
        lhs = math.sqrt(w["u"] + w["t"] * (w["v"] - w["u"]))
        rhs = (1 - w["t"]) * math.sqrt(w["u"]) + w["t"] * math.sqrt(w["v"])
        assert lhs - rhs > 1e-9

    def test_scaled_argument_check_needs_wide_domain(self, capsys):
        code, _, err = run(
            capsys, "check", "-f", "x^2/2", "-a", "0", "-b", "1",
            "--alpha", "0.5", "--m", "0.3333333",
        )
        assert code == 1  # default domain [0, 1] cannot host f(v/m)
        assert "domain" in err

    def test_m_only_runs_scale_hypothesis(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "-f", "x^2", "-a", "0", "-b", "1", "--m", "0.5",
            "--fdomain", "0:2", "--samples", "20000",
        )
        assert code == 0
        assert report["result"]["holds"] is True

    def test_non_finite_r_is_a_usage_error(self, capsys):
        # used to report "violated" with rhs=nan and exit 2
        code, out, err = run(capsys, "check", "-f", "x^2", "-a", "0", "-b", "1", "--r", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("fuzzyhh: ") and "r must be finite" in err

    @pytest.mark.parametrize("factor", ["abc", "nan", "inf"])
    def test_eta_factor_must_be_finite(self, capsys, factor):
        # used to blame float() or the integrand instead of --eta
        code, out, err = run(capsys, "check", "-f", "x^2", "-a", "0", "-b", "1",
                             "--eta", f"scaled:{factor}")
        assert code == 1 and out == ""
        assert err == f"fuzzyhh: --eta scaled:<factor> needs a finite factor, got 'scaled:{factor}'\n"

    @pytest.mark.parametrize("r", ["0.5", "2"])
    def test_negative_function_with_positive_r_exits_one(self, capsys, r):
        # --r 0.5 used to print a NaN witness (not JSON) and exit 2, --r 2 to report "holds"
        code, out, err = run(capsys, "check", "-f", "x-0.5", "-a", "0", "-b", "1", "--r", r,
                             "--format", "json")
        assert code == 1 and out == ""
        assert err == f"fuzzyhh: r = {float(r):g} > 0 requires f >= 0 on K; a sampled value was < 0\n"

    def test_negative_seed_is_a_usage_error(self, capsys):
        # used to exit 1 with numpy's "expected non-negative integer"
        code, out, err = run(capsys, "check", "-f", "x^2", "-a", "0", "-b", "1", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "fuzzyhh: --seed must be non-negative, got -1\n"

    def test_plain_preinvexity_default(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "-f", "x^2", "-a", "0", "-b", "1", "--samples", "20000"
        )
        assert code == 0
        assert report["provenance"]["method"] == "preinvex"
        assert report["provenance"]["hypothesis"] == "certified"

    @pytest.mark.parametrize("argv, hypothesis, code", [
        (("-f", "x^2", "--r", "1"), "certified", 0),
        (("-f", "0.5296*x^1.3762 + 0.0", "--r", "1.2238"), "certified", 0),
        (("-f", "2*x^1.5", "--alpha", "1", "--m", "0.5", "--fdomain", "0:2"), "certified", 0),
        (("-f", "sqrt(x)", "--r", "1"), "sampled", 2),
        (("-f", "x^4/2", "--r", "0.5"), "sampled", 0),  # (x^4/2)^0.5 has no folded form
    ])
    def test_provenance_says_whether_the_hypothesis_was_proved(self, capsys, argv, hypothesis,
                                                              code):
        got, report, _ = run_json(capsys, "check", "-a", "0", "-b", "1", *argv)
        validate(report, REPORT_SCHEMA)
        assert (got, report["provenance"]["hypothesis"]) == (code, hypothesis)
        if hypothesis == "certified":  # no draw: no violation measured
            assert (report["result"]["witness"], report["provenance"]["residual"]) == (None, 0.0)
        got, out, _ = run(capsys, "check", "-a", "0", "-b", "1", *argv)
        line = next(x for x in out.splitlines() if x.startswith("provenance: "))
        assert line.endswith(f", seed=0, hypothesis={hypothesis}")


    @pytest.mark.parametrize("r", ["1e-12", "1e-200", "1e-310"])
    def test_vanishing_r_approaches_the_geometric_mean(self, capsys, r):
        # f**r rounded to 1 made the power mean collapse: r = 1e-200 and
        # 1e-310 reported holds, and r = 1e-12 was off by 1e-5 relative
        _, geometric, _ = run_json(capsys, "check", "-f", "0.5+0.4*sqrt(x)",
                                   "-a", "0", "-b", "1", "--r", "0")
        code, report, _ = run_json(capsys, "check", "-f", "0.5+0.4*sqrt(x)",
                                   "-a", "0", "-b", "1", "--r", r)
        assert code == 2 and report["result"]["holds"] is False
        w, w0 = report["result"]["witness"], geometric["result"]["witness"]
        assert (w["u"], w["v"], w["t"], w["lhs"]) == (w0["u"], w0["v"], w0["t"], w0["lhs"])
        assert w["lhs"] == pytest.approx(0.72978, abs=1e-5)
        assert w["rhs"] == pytest.approx(w0["rhs"], rel=1e-11)


class TestBound:
    def test_cubic_third(self, capsys):
        code, report, _ = run_json(capsys, "bound", "-f", "x^3/3", "-a", "0", "-b", "1",
                                   "--r", "0.5")
        assert code == 0
        validate(report, INTEGRAL_SCHEMA)
        assert report["result"]["bound"] == pytest.approx(0.2087, abs=5e-4)
        assert report["result"]["integral"] <= report["result"]["bound"]
        assert report["verdict"].startswith("pass")
        assert (report["provenance"]["hint"], report["provenance"]["pieces"]) == ("certified", 1)

    def test_provenance_keeps_the_integral_residual(self, capsys):
        # residual is the bound's float gap; the integral's crossing cell is its own field
        argv = ("bound", "-f", "x^3/3", "-a", "0", "-b", "1", "--r", "0.5")
        _, report, _ = run_json(capsys, *argv)
        prov = report["provenance"]
        unit = RealInterval(0.0, 1.0)
        integral = sugeno_integral(function_from_expression("x^3/3", unit), unit)
        assert prov["integral_residual"] == integral.residual <= 1e-9
        assert prov["residual"] < 1e-15 < prov["integral_residual"]
        assert prov["residual_is_bound"] is True
        _, out, _ = run(capsys, *argv)
        assert (f"residual={prov['residual']:.3g}, "
                f"integral_residual={prov['integral_residual']:.3g}, hint=certified") in out

    def test_a_grid_integral_residual_is_a_sample_resolution(self, capsys):
        argv = ("bound", "-f", "x/2 + 0.2*abs(sin(3.141592653589793*2048*x))", "-a", "0", "-b",
                "1", "--r", "1")
        _, report, _ = run_json(capsys, *argv)
        validate(report, INTEGRAL_SCHEMA)
        prov = report["provenance"]
        assert (prov["method"], prov["integral_residual"], prov["residual_is_bound"]) == (
            "supmin_grid", 1e-6, False)
        _, out, _ = run(capsys, *argv)
        assert (f"residual={prov['residual']:.3g}, integral_residual=1e-06 (sample resolution), "
                "hint=unknown") in out

    def test_integral_of_a_non_monotone_integrand_reports_its_pieces(self, capsys):
        code, report, _ = run_json(capsys, "bound", "-f", "0.2 + 2*(x - 0.5)^2", "-a", "0",
                                   "-b", "1", "--r", "1")
        validate(report, INTEGRAL_SCHEMA)
        assert report["provenance"]["method"] == "fixed_point"
        assert (report["provenance"]["hint"], report["provenance"]["pieces"]) == ("certified", 2)

    def test_constant_degenerate(self, capsys):
        code, report, _ = run_json(capsys, "bound", "-f", "0.3", "-a", "0", "-b", "1",
                                   "--r", "0.5")
        assert code == 0
        assert report["result"]["bound"] == pytest.approx(0.3, abs=1e-12)
        assert report["result"]["case"] == "degenerate"

    def test_scaled_argument_route(self, capsys):
        code, report, _ = run_json(
            capsys, "bound", "-f", "x^2/2", "-a", "0", "-b", "1",
            "--alpha", "0.5", "--m", "0.3333333", "--fdomain", "0:4",
        )
        assert code == 0
        assert report["result"]["bound"] == pytest.approx(0.75, abs=1e-4)
        assert report["result"]["case"] == "am-increasing"

    def test_no_root_exits_three(self, capsys, monkeypatch):
        # every valid input has a bound, so the solver is made to report none
        def no_root(F, L):
            raise bounds.NoRoot("no bound on [0, 1]")

        monkeypatch.setattr(bounds, "solve_beta", no_root)
        code, _, err = run(capsys, "bound", "-f", "1+x", "-a", "0", "-b", "1", "--r", "-1")
        assert code == 3
        assert "no root" in err.lower()

    def test_negative_r_saturates(self, capsys):
        # fa = 1, fend = 2, r = -1: the majorant 1/(1 - t/2) is >= 1 = L everywhere
        code, report, _ = run_json(
            capsys, "bound", "-f", "1+x", "-a", "0", "-b", "1", "--r", "-1"
        )
        assert code == 0
        assert report["result"]["case"] == "r-neg-increasing"
        assert report["result"]["bound"] == pytest.approx(1.0, abs=1e-9)

    def test_tiny_endpoint_power_bound_exits_two(self, capsys):
        # 1e-120 ** -3 is past float64, yet the bound exists: b^4 = fa^3 gives
        # 1e-90, far below the integral 1/2 of a function that is not
        # (-3)-preinvex, so the verification fails
        code, report, err = run_json(
            capsys, "bound", "-f", "1e-120+x", "-a", "0", "-b", "1", "--r", "-3"
        )
        assert code == 2
        assert err == ""
        assert report["result"]["bound"] == pytest.approx(1e-90, rel=1e-12)
        assert report["result"]["integral"] == pytest.approx(0.5, abs=1e-6)

    def test_vanishing_r_bound_is_the_r_zero_bound(self, capsys):
        # r*log(1.5/0.5) = 1.1e-310 is subnormal: 1/expm1 of it overflowed
        # and the bound read 1.0 instead of the r = 0 majorant's 0.697277
        code, report, _ = run_json(capsys, "bound", "-f", "x+0.5", "-a", "0", "-b", "1",
                                   "--r", "1e-310")
        assert code == 2  # x + 0.5 is not log-preinvex; its integral is 0.75
        assert report["result"]["case"] == "r-pos-increasing"
        assert report["result"]["bound"] == pytest.approx(0.6972772199061351, rel=1e-12)

    def test_tiny_distinct_endpoints_are_not_equal(self, capsys):
        # endpoints 1e-12 and 2e-12 used to count as equal (absolute 1e-12),
        # giving a constant majorant and a bound of 1e-12 below the integral
        code, report, _ = run_json(capsys, "bound", "-f", "1e-12*x+1e-12", "-a", "0",
                                   "-b", "1", "--r", "1")
        assert code == 0
        assert report["result"]["case"] == "r-pos-increasing"
        assert report["result"]["bound"] == pytest.approx(1.999999999998e-12, rel=1e-12)
        assert report["result"]["bound"] >= report["result"]["integral"] * (1 - 1e-12)

    def test_r_zero_bound_is_the_geometric_majorant_integral(self, capsys):
        # the log-preinvex hypothesis that check --r 0 certifies has a bound
        # 0.2*4.5^x is its own geometric majorant, so integral and bound coincide
        code, report, _ = run_json(capsys, "bound", "-f", f"0.2*exp({math.log(4.5)!r}*x)",
                                   "-a", "0", "-b", "1", "--r", "0")
        assert code == 0
        assert report["result"]["case"] == "r-zero-increasing"
        assert report["result"]["bound"] == pytest.approx(0.4543903171, abs=1e-10)
        assert report["result"]["integral"] == pytest.approx(report["result"]["bound"],
                                                             abs=1e-9)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_r_is_a_usage_error(self, capsys, value):
        # nan used to exit 3 with "no root"; inf printed bound 1 and exited 0
        code, out, err = run(capsys, "bound", "-f", "x^2", "-a", "0", "-b", "1", "--r", value)
        assert code == 1
        assert out == ""
        assert err.startswith("fuzzyhh: ") and "r must be finite" in err

    def test_route_required(self, capsys):
        code, _, err = run(capsys, "bound", "-f", "x^2", "-a", "0", "-b", "1")
        assert code == 1


class TestReproduce:
    def test_single_entry(self, capsys):
        code, report, _ = run_json(capsys, "reproduce", "s3-x4")
        assert code == 0
        entries = report["result"]["entries"]
        assert len(entries) == 1
        assert entries[0]["entry"] == "s3-x4"
        assert "violated" in entries[0]["verdict"]

    def test_discrepancy_entry_keeps_both_values(self, capsys):
        code, report, _ = run_json(capsys, "reproduce", "s3-x3")
        assert code == 0
        checks = {c["name"]: c for c in report["result"]["entries"][0]["checks"]}
        assert checks["integral-derived"]["expected"] == pytest.approx(0.18227, abs=1e-4)
        assert checks["integral-reported"]["expected"] == 0.1847
        assert checks["integral-reported"]["tol"] == 3e-3
        assert "rounding" in checks["integral-reported"]["note"]

    def test_all_matches_schema_and_tolerances(self, capsys):
        code, report, _ = run_json(capsys, "reproduce", "all")
        assert code == 0
        validate(report, REPORT_SCHEMA)
        entries = report["result"]["entries"]
        assert len(entries) == 5
        for entry in entries:
            assert entry["ok"], entry
            for check in entry["checks"]:
                assert abs(check["computed"] - check["expected"]) <= check["tol"]

    def test_unknown_entry_exits_one(self, capsys):
        code, _, err = run(capsys, "reproduce", "nope")
        assert code == 1
        assert "unknown entry" in err

    def test_text_lists_each_check_and_the_verdict(self, capsys):
        code, out, err = run(capsys, "reproduce", "s3-x3")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        start = lines.index("[s3-x3] x^3/3 on [0,1]: power-mean route bound, r = 1/2")
        assert lines[start + 1:start + 6] == [
            "  bound: 0.208712 (expected 0.2087 +/- 0.0005) ok",
            "  bound-derived: 0.208712 (expected 0.208712 +/- 1e-09) ok",
            "  integral-derived: 0.182268 (expected 0.182268 +/- 1e-06) ok",
            "  integral-reported: 0.182268 (expected 0.1847 +/- 0.003) ok",
            "  verdict: upper bound holds (integral <= min(beta, L)) [ok]",
        ]
        assert "verdict: all golden entries match" in lines

    def test_text_marks_a_mismatch(self, capsys, monkeypatch):
        real = golden.run_entry

        def skewed(entry_id):
            res = real(entry_id)
            first = dataclasses.replace(res.checks[0], expected=res.checks[0].expected + 1.0)
            return dataclasses.replace(res, checks=(first, *res.checks[1:]))

        monkeypatch.setattr(golden, "run_entry", skewed)
        code, out, _ = run(capsys, "reproduce", "s4-x2")
        assert code == 2
        lines = out.splitlines()
        assert "  integral: 0.267949 (expected 1.2679 +/- 0.0005) FAIL" in lines
        assert "  classical-mean: 0.25 (expected 0.25 +/- 1e-12) ok" in lines
        assert ("  verdict: endpoint-mean side violated (integral exceeds (f(a) + f(b))/2)"
                " [MISMATCH]") in lines
        assert "verdict: golden-table mismatch" in lines


class TestSweep:
    def test_r_sweep_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "-f", "x^2", "-a", "0", "-b", "1",
            "--param", "r", "--values", "0.5,1,2", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["param"] for r in rows] == ["0.5", "1.0", "2.0"]
        assert float(rows[1]["beta"]) == pytest.approx(0.5, abs=1e-9)
        for row in rows:
            assert row["case"] == "r-pos-increasing"
            assert float(row["integral"]) <= float(row["bound"]) + 1e-9

    def test_r_sweep_through_zero(self, capsys):
        code, out, _ = run(capsys, "sweep", "-f", "0.2+0.7*x", "-a", "0", "-b", "1",
                           "--param", "r", "--values=-1,0,1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["case"] for row in rows] == [
            "r-neg-increasing", "r-zero-increasing", "r-pos-increasing"]
        bounds_by_r = [float(row["bound"]) for row in rows]
        assert bounds_by_r[1] == pytest.approx(0.4543903171, abs=1e-10)
        assert bounds_by_r[0] < bounds_by_r[1] < bounds_by_r[2]

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "-f", "x^2", "-a", "0", "-b", "1",
                           "--param", "r", "--values", "")
        assert code == 0
        assert out.strip() == "param,integral,beta,bound,case"

    def test_non_finite_value_is_a_usage_error(self, capsys):
        # used to write a no-root row for nan
        code, out, err = run(capsys, "sweep", "-f", "x^2", "-a", "0", "-b", "1",
                             "--param", "r", "--values", "1,nan")
        assert code == 1
        assert out == ""
        assert err.startswith("fuzzyhh: ") and "r must be finite" in err

    @pytest.mark.parametrize("param, values, bad", [
        ("r", "1,abc", "abc"), ("m", "0.5, inf", " inf"), ("eta-len", "1,-nan", "-nan"),
    ])
    def test_values_errors_name_the_flag(self, capsys, param, values, bad):
        # a non-numeric entry used to exit 1 with a bare float() message
        code, out, err = run(capsys, "sweep", "-f", "x^2", "-a", "0", "-b", "1",
                             "--param", param, f"--values={values}")
        assert code == 1 and out == ""
        assert err == f"fuzzyhh: --values: {param} must be finite, got {bad!r}\n"

    def test_json_format_is_a_usage_error(self, capsys):
        # used to write CSV anyway
        argv = ("sweep", "-f", "x^2", "-a", "0", "-b", "1", "--param", "r", "--values", "0.5,1")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 1 and out == ""
        assert err == "fuzzyhh: sweep writes CSV; --format json is not supported\n"
        assert run(capsys, *argv, "--format", "text") == run(capsys, *argv)

    def test_m_sweep_with_fixed_alpha(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-f", "x^2", "-a", "0", "-b", "1",
            "--param", "m", "--values", "0.25,0.5,1", "--alpha", "1",
            "--fdomain", "0:4",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3

    @pytest.mark.parametrize("param, values, flags, points", [
        # f(a) and f(a + L) serve every row; fscaled = f((a + L)/m) is evaluated where m moves
        ("r", [0.25 + 0.35 * i for i in range(8)], (), [0.0, 1.1]),
        ("alpha", [0.2, 0.5, 0.9], ("--m", "0.5"), [0.0, 1.1, 2.2]),
        ("m", [0.5, 0.8, 1.0], ("--alpha", "0.5"), [0.0, 1.1, 2.2, 1.1 / 0.8, 1.1]),
    ])
    def test_endpoints_are_evaluated_once(self, capsys, monkeypatch, param, values, flags, points):
        scalars = []
        build = cli._build_function

        def counting(ns, domain):
            f = build(ns, domain)

            def evaluate(x):
                if np.ndim(x) == 0:
                    scalars.append(float(x))
                return f.evaluate(x)

            return dataclasses.replace(f, evaluate=evaluate)

        monkeypatch.setattr(cli, "_build_function", counting)
        argv = ("sweep", "-f", "0.7*x^2.2 + 0.1", "-a", "0", "-b", "1.1", "--fdomain", "0:3",
                "--param", param, "--values", ",".join(repr(v) for v in values), *flags)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert scalars == pytest.approx(points, rel=1e-15)
        # the rows of one bound per value
        f = function_from_expression("0.7*x^2.2 + 0.1", RealInterval(0.0, 3.0))
        iv = InvexInterval(0.0, 1.1)
        route = dict(zip([flag[2:] for flag in flags[::2]], map(float, flags[1::2])))
        for row, value in zip(csv.DictReader(io.StringIO(out)), values, strict=True):
            bound = bounds.route_bound(bounds.endpoint_inputs(f, iv, **{**route, param: value}))
            assert (row["beta"], row["bound"], row["case"]) == (
                str(bound.beta), str(bound.bound), bound.case.value)


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "integrate", "-f", "x", "-a", "zero", "-b", "1")
        assert code == 1

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_scale_outside_its_range_exits_one(self, capsys, m):
        # m = 0 used to raise ZeroDivisionError at (a + L)/m, m = -1 to blame the domain
        code, out, err = run(capsys, "bound", "-f", "x^2/2", "-a", "0", "-b", "1",
                             "--alpha", "0.5", "--m", m)
        assert code == 1 and out == ""
        assert err == "fuzzyhh: m must lie in (0, 1]\n"

    @pytest.mark.parametrize("argv, value", [
        (("bound", "-f", "x^2+1", "-a", "0", "-b", "1", "--r", "-1e-3"), "-1e-3"),
        (("integrate", "-f", "x+3", "-a", "-2e-1", "-b", "1"), "-2e-1"),
        (("integrate", "-f", "x+3", "-a", "-.5e-1", "-b", "1"), "-.5e-1"),
        (("sweep", "-f", "x^2+1", "-a", "0", "-b", "1", "--param", "r", "--values", "-1,-0.5"),
         "-1,-0.5"),
    ])
    def test_negative_values_need_no_equals_sign(self, capsys, argv, value):
        # argparse alone reads only the shapes -12 and -1.5 as values, and
        # rejects these with "expected one argument" unless written --flag=value
        i = argv.index(value)
        joined = (*argv[: i - 1], f"{argv[i - 1]}={value}", *argv[i + 1 :])
        parser = cli.build_parser()
        assert parser.parse_args(argv) == parser.parse_args(joined)
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("argv, message", [
        (("integrate", "--fdomain", "0:1:2"), "--fdomain expects lo:hi, got '0:1:2'"),
        (("integrate", "--fdomain", "a:b"), "--fdomain expects lo:hi, got 'a:b'"),
        (("check", "--eta", "foo"), "unknown eta map 'foo'; use 'affine' or 'scaled:<factor>'"),
        (("check", "--alpha", "0.5"), "--alpha needs --m"),
        (("bound", "--r", "1", "--eta-len=-1"), "eta_len must be positive"),
    ])
    def test_malformed_inputs_exit_one_with_their_message(self, capsys, argv, message):
        code, out, err = run(capsys, argv[0], "-f", "x^2", "-a", "0", "-b", "1", *argv[1:])
        assert (code, out, err) == (1, "", f"fuzzyhh: {message}\n")

    def test_fixedpoint_is_not_a_method(self, capsys):
        code, out, err = run(capsys, "integrate", "-f", "x", "-a", "0", "-b", "1",
                             "--method", "fixedpoint")
        assert code == 1 and out == ""
        assert "invalid choice: 'fixedpoint'" in err

    @pytest.mark.parametrize("argv", [
        ("bound", "--r", "1", "--alpha", "0.5", "--m", "0.5"),
        ("bound", "--r", "1", "--alpha", "0.5"),
        ("sweep", "--param", "m", "--values", "0.4,0.7,1", "--r", "1", "--alpha", "0.5"),
        ("sweep", "--param", "r", "--values", "0.5,1", "--alpha", "0.5", "--m", "0.5"),
        ("check", "--r", "1", "--m", "0.5"),
        ("check", "--r", "1", "--alpha", "0.5", "--m", "0.5"),
    ])
    def test_mixed_route_flags_exit_one(self, capsys, argv):
        # each used to run the r route and ignore the scaled-argument flags
        code, out, err = run(capsys, argv[0], "-f", "x^2/2", "-a", "0", "-b", "1",
                             "--fdomain", "0:3", *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("fuzzyhh: select ")

    def test_out_writes_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "integrate", "-f", "x", "-a", "0", "-b", "1",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        on_disk = json.loads(path.read_text())
        assert on_disk["result"]["integral"] == pytest.approx(0.5, abs=1e-6)

    OUT_COMMANDS = [
        ("integrate", "-f", "x", "-a", "0", "-b", "1"),
        ("bound", "-f", "x^2", "-a", "0", "-b", "1", "--r", "1", "--format", "json"),
        ("sweep", "-f", "x^2", "-a", "0", "-b", "1", "--param", "r", "--values", "0.5,1"),
    ]

    @pytest.mark.parametrize("argv", OUT_COMMANDS)
    def test_out_into_a_missing_directory_exits_one(self, capsys, tmp_path, argv):
        """The error is reported on stderr and returned, not raised."""
        path = tmp_path / "missing" / "report"
        code, _, err = run(capsys, *argv, "--out", str(path))
        assert code == 1
        assert err == f"fuzzyhh: cannot write {path}: No such file or directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
    @pytest.mark.parametrize("argv", OUT_COMMANDS)
    def test_out_onto_a_full_device_exits_one(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--out", "/dev/full")
        assert code == 1
        assert err == "fuzzyhh: cannot write /dev/full: No space left on device\n"

    @pytest.mark.parametrize("argv", [
        ("reproduce", "all", "--format", "json"),
        ("integrate", "-f", "x", "-a", "0", "-b", "1"),
        ("sweep", "-f", "x^2", "-a", "0", "-b", "1", "--param", "r", "--values", "0.5,1"),
    ])
    def test_reader_that_closed_stdout_exits_one(self, argv):
        """The read end of the pipe is closed before the CLI starts, so every
        write to stdout fails: no traceback, no failed final flush, exit 1."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fuzzyhh.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
                text=True, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_reader_that_closed_stdout_in_process_returns_one(self, capsys, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["integrate", "-f", "x", "-a", "0", "-b", "1"]) == 1
        assert sys.stdout is None and capsys.readouterr().err == ""
        # stdout is gone, so a later call writes nothing and still returns its code
        assert main(["sweep", "-f", "x^2", "-a", "0", "-b", "1", "--param", "r", "--values", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ("check", "-f", "1", "-a=-1e308", "-b", "1e308", "--samples", "10"),
        ("integrate", "-f", "x", "-a=-1e308", "-b", "1e308"),
        ("integrate", "-f", "x", "-a", "0", "-b", "1", "--fdomain=-1e308:1e308"),
        ("bound", "-f", "x", "-a", "0", "-b", "1", "--r", "1", "--fdomain=-1e308:1e308"),
    ])
    def test_interval_width_that_overflows_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("fuzzyhh: ") and "interval width overflows" in err

    def test_overflowing_width_of_a_monotone_integral_exits_one(self):
        # a NaN cell width once kept the crossing search looping; a subprocess
        # with a timeout fails the test instead of hanging the suite
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzyhh.cli", "integrate", "-f", "1", "-a=-1e308", "-b", "1e308"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "fuzzyhh: interval width overflows: [-1e+308, 1e+308]\n"

    @pytest.mark.parametrize("argv", [
        ("integrate",),
        ("integrate", "--method", "supmin", "--grid", "100"),
        ("bound", "--r", "1"),
        ("sweep", "--param", "r", "--values", "1"),
    ])
    def test_interval_outside_fdomain_exits_one(self, capsys, argv):
        # each used to integrate x over [0, 1] although f was declared on [0, 0.5]
        code, out, err = run(capsys, argv[0], "-f", "x", "-a", "0", "-b", "1",
                             "--fdomain", "0:0.5", *argv[1:])
        assert code == 1 and out == ""
        assert err == "fuzzyhh: integration interval [0.0, 1.0] leaves f's domain [0.0, 0.5]\n"


# the 18 flags that the subcommands used to parse and ignore
IGNORED_FLAGS = [
    *(("integrate", flag) for flag in ("--eta-len 1", "--eta affine", "--r 1", "--alpha 0.5",
                                       "--m 0.5", "--samples 10", "--seed 0")),
    *(("check", flag) for flag in ("--eta-len 1", "--method supmin", "--grid 10")),
    *((cmd, flag) for cmd in ("bound", "sweep")
      for flag in ("--eta scaled:2", "--method supmin", "--samples 10", "--seed 0")),
]
BASE_ARGV = {
    "integrate": ("-f", "x", "-a", "0", "-b", "1"),
    "check": ("-f", "x", "-a", "0", "-b", "1", "--samples", "10"),
    "bound": ("-f", "x", "-a", "0", "-b", "1", "--r", "1"),
    "reproduce": ("s3-x3",),
    "sweep": ("-f", "x", "-a", "0", "-b", "1", "--param", "r", "--values", "1"),
}


class TestFlags:
    @pytest.mark.parametrize("cmd, flag", IGNORED_FLAGS)
    def test_a_flag_the_subcommand_does_not_read_exits_one(self, capsys, cmd, flag):
        code, out, err = run(capsys, cmd, *BASE_ARGV[cmd], *flag.split())
        assert code == 1 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")

    @pytest.mark.parametrize("cmd, prefix", [
        ("check", ("--samp", "10")), ("integrate", ("--form", "json")),
        ("bound", ("--eta-l", "1")), ("sweep", ("--val", "2")),
    ])
    def test_abbreviated_flags_exit_one(self, capsys, cmd, prefix):
        code, out, err = run(capsys, cmd, *BASE_ARGV[cmd], *prefix)
        assert code == 1 and out == ""
        assert "unrecognized arguments: " + " ".join(prefix) in err

    @pytest.mark.parametrize("cmd, keys", [
        ("integrate", ["function", "a", "b", "fdomain", "method", "grid"]),
        ("check", ["function", "a", "b", "eta", "r", "alpha", "m", "fdomain", "samples", "seed"]),
        ("bound", ["function", "a", "b", "eta_len", "r", "alpha", "m", "fdomain", "grid"]),
        ("reproduce", ["entry"]),
    ])
    def test_json_inputs_echo_the_flags_the_subcommand_takes(self, capsys, cmd, keys):
        code, report, _ = run_json(capsys, cmd, *BASE_ARGV[cmd])
        assert code in (0, 2)
        assert list(report["inputs"]) == keys

    def test_sweep_inputs_echo_the_flags_it_takes(self):
        ns = cli.build_parser().parse_args(["sweep", *BASE_ARGV["sweep"]])
        assert list(cli._inputs_dict(ns)) == [
            "function", "a", "b", "eta_len", "r", "alpha", "m", "fdomain", "grid",
            "param", "values"]

    def test_readme_lists_the_flags_of_each_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        documented = {cmd: set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage))
                      for cmd, usage in re.findall(r"^- `(\w+) ([^`]*)`", section, re.M)}
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {cmd: {a.option_strings[0] for a in p._actions if a.option_strings} - {"-h"}
                  for cmd, p in sub.choices.items()}
        assert documented == parsed


# one call of each kind, interleaved so that a flag left over from one call
# would change the next: json after text, --r before --alpha/--m, and so on
REUSE_CALLS = [
    ("integrate", "-f", "x", "-a", "zero", "-b", "1"),
    ("--help",),
    ("reproduce", "all", "--format", "json"),
    ("bound", "-f", "x^3/3", "-a", "0", "-b", "1", "--r", "0.5", "--format", "json"),
    ("bound", "-f", "x^2/2", "-a", "0", "-b", "1", "--alpha", "0.5", "--m", "0.3333333",
     "--fdomain", "0:4", "--format", "json"),
    ("check", "-f", "sqrt(x)", "-a", "0", "-b", "1", "--r", "1", "--samples", "20000"),
    ("integrate", "-f", "x^2/2", "-a", "0", "-b", "1"),
    ("sweep", "-f", "x^2", "-a", "0", "-b", "1", "--param", "r", "--values", "0.5,1,2"),
]


def _without_elapsed(text):
    return re.sub(r'("elapsed_s": |elapsed: )[^,\n]*', r"\1", text)


def test_main_builds_one_parser_and_leaks_no_flags(capsys, monkeypatch):
    """main() builds its parser on the first call only, and each later call
    prints and exits as the same call does first in a fresh process."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")
    # bytes, since text mode would turn the CSV's \r\n into \n
    fresh = [subprocess.run([sys.executable, "-m", "fuzzyhh.cli", *argv], env=env,
                            capture_output=True) for argv in REUSE_CALLS]
    build = cli.build_parser
    builds = []

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setenv("COLUMNS", "80")  # the help width of the fresh processes
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            for argv, want in zip(REUSE_CALLS, fresh):
                code, out, err = run(capsys, *argv)
                assert (code, _without_elapsed(out), err) == (
                    want.returncode, _without_elapsed(want.stdout.decode()),
                    want.stderr.decode()), argv
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert [p.returncode for p in fresh] == [1, 0, 0, 0, 0, 2, 0, 0]


def test_tracer_sees_the_fixed_point_route():
    """The bench tracer wraps library functions by name: every name it hooks
    must resolve, and ``sugeno_fixed_point`` over a ``DistributionProfile``,
    called under the tracer, must record spans for both."""
    script = textwrap.dedent("""
        import importlib, json
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        hooks = [*tracing.PLAIN, *(("convexity", name) for name in tracing.CHECKS),
                 ("bounds", "solve_beta"), ("expressions", "function_from_expression"),
                 ("measure", "DistributionProfile.at")]
        missing = []
        for module, name in hooks:
            obj = importlib.import_module("fuzzyhh." + module)
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(module + "." + name)
        from fuzzyhh import expressions, measure, sugeno
        A = measure.RealInterval(0.0, 1.0)
        f = expressions.function_from_expression("x^2/2", A)
        res = sugeno.sugeno_fixed_point(measure.DistributionProfile(f, A))
        print(json.dumps(dict(tracer.layer_metrics(1), missing=missing, value=res.value)))
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["missing"] == []
    assert got["value"] == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-9)
    assert got["measure.profile_queries"] > 0
    assert got["sugeno.fixed_point_ms"] > 0
