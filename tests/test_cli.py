import csv
import io
import json
import math

import pytest
from jsonschema import validate

from fuzzyhh import bounds
from fuzzyhh.cli import main

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
                "grid": {"type": ["integer", "null"]},
                "seed": {"type": ["integer", "null"]},
                "hint": {"enum": ["certified", "declared", "unknown"]},
                "pieces": {"type": "integer", "minimum": 0},
            },
        },
        "verdict": {"type": "string"},
    },
}

# integrate and bound also say how the integrand's monotonicity was obtained
INTEGRAL_SCHEMA = {
    "allOf": [REPORT_SCHEMA],
    "properties": {"provenance": {"required": ["method", "residual", "hint", "pieces"]}},
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

    def test_malformed_expression_exits_one(self, capsys):
        code, out, err = run(capsys, "integrate", "-f", "(1-x", "-a", "0", "-b", "1")
        assert code == 1
        assert "offset 4" in err

    def test_negative_function_exits_one(self, capsys):
        code, _, err = run(capsys, "integrate", "-f", "x-0.5", "-a", "0", "-b", "1")
        assert code == 1
        assert "integrand" in err

    def test_negative_between_the_guard_points_exits_one(self, capsys):
        # every point of the 4097-point guard grid is a zero of the sine; the
        # 1e6-point sample of the grid form reaches -0.1998
        code, _, err = run(
            capsys, "integrate", "-f", "x/2 + 0.2*sin(3.141592653589793*4096*x)",
            "-a", "0", "-b", "1",
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
        code, report, _ = run_json(
            capsys, "integrate", "-f", "0.0001*x+0.5", "-a", "0", "-b", "1",
            "--method", "fixedpoint",
        )
        assert code == 0
        assert report["result"]["integral"] == pytest.approx(0.5001 / 1.0001, abs=1e-9)

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

    def test_plain_preinvexity_default(self, capsys):
        code, report, _ = run_json(
            capsys, "check", "-f", "x^2", "-a", "0", "-b", "1", "--samples", "20000"
        )
        assert code == 0
        assert report["provenance"]["method"] == "preinvex"


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
        # no input of either route is known to leave the case equation without
        # a root, so the solver is made to report one
        def no_root(*args, **kwargs):
            raise bounds.NoRoot("no sign change on [0, 1]")

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

    def test_overflowing_endpoint_power_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bound", "-f", "1e-120+x", "-a", "0", "-b", "1", "--r", "-3")
        assert code == 1
        assert out == ""
        assert err.startswith("fuzzyhh: ") and "overflow" in err
        assert "Traceback" not in err

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

    def test_m_sweep_with_fixed_alpha(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-f", "x^2", "-a", "0", "-b", "1",
            "--param", "m", "--values", "0.25,0.5,1", "--alpha", "1",
            "--fdomain", "0:4",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_bad_flag_value(self, capsys):
        code, _, _ = run(capsys, "integrate", "-f", "x", "-a", "zero", "-b", "1")
        assert code == 1

    def test_out_writes_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "integrate", "-f", "x", "-a", "0", "-b", "1",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        on_disk = json.loads(path.read_text())
        assert on_disk["result"]["integral"] == pytest.approx(0.5, abs=1e-6)
