"""Command-line front end.

Subcommands: integrate | check | bound | reproduce | sweep.  Functions are
given as expressions in a small arithmetic DSL (see ``expressions``); results
go to stdout as text (floats at 6 significant digits) or as a JSON report
carrying full precision, and sweeps emit RFC-4180 CSV.

Exit codes: 0 when every requested verdict passes, 1 on usage or expression
errors, 2 when a hypothesis check or a bound verification fails, 3 when a
bound equation has no root on the scan range.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from typing import Any

from . import golden
from .bounds import (
    NoRoot,
    RZero,
    MissingScaledValue,
    DivisionByZero,
    endpoint_bound,
    verify_fuzzy_hh,
)
from .convexity import (
    AFFINE_ETA,
    DomainEscape,
    EtaMap,
    InvexInterval,
    NonPositiveFunction,
    check_alpha_m_preinvex,
    check_m_preinvex,
    check_preinvex,
    check_r_preinvex,
    scaled_eta,
)
from .expressions import EvalError, ExprSyntaxError, function_from_expression
from .measure import MeasureError, RealInterval
from .sugeno import NegativeFunction, NoSignChange, sugeno_integral

__all__ = ["build_parser", "main", "app"]

PROG = "fuzzyhh"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NO_ROOT = 3


class _ArgumentParser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_fdomain(text: str) -> RealInterval:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"--fdomain expects lo:hi, got {text!r}") from exc
    try:
        return RealInterval(lo, hi)
    except ValueError as exc:
        raise ValueError(f"--fdomain {text!r}: {exc}") from exc


def _parse_eta(text: str) -> EtaMap:
    if text == "affine":
        return AFFINE_ETA
    if text.startswith("scaled:"):
        return scaled_eta(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown eta map {text!r}; use 'affine' or 'scaled:<factor>'")


def _add_common(parser: argparse.ArgumentParser, need_function: bool = True) -> None:
    if need_function:
        parser.add_argument("-f", "--function", required=True, metavar="EXPR",
                            help="integrand, e.g. 'x^2/2'")
        parser.add_argument("-a", type=float, required=True, help="interval lower end")
        parser.add_argument("-b", type=float, required=True, help="interval upper end")
        parser.add_argument("--eta-len", type=float, default=None, metavar="L",
                            help="path length eta(b, a); default b - a")
        parser.add_argument("--eta", default="affine", metavar="MAP",
                            help="path map for checks: 'affine' or 'scaled:<factor>'")
        parser.add_argument("--r", type=float, default=None, help="power-mean route parameter")
        parser.add_argument("--alpha", type=float, default=None,
                            help="scaled-argument route exponent in (0, 1]")
        parser.add_argument("--m", type=float, default=None,
                            help="scaled-argument route scale in (0, 1]")
        parser.add_argument("--fdomain", type=str, default=None, metavar="LO:HI",
                            help="declared evaluation domain of f (wider than [a, b] "
                                 "when the scaled-argument route evaluates f(v/m))")
        parser.add_argument("--method", choices=("fixedpoint", "supmin"), default=None,
                            help="force the integration route")
        parser.add_argument("--grid", type=int, default=1_000_000,
                            help="grid size for sampled distributions (default 1e6)")
        parser.add_argument("--samples", type=int, default=100_000,
                            help="draws per hypothesis check (default 1e5)")
        parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="also write the report (or CSV) to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog=PROG,
        description="Sugeno integrals on intervals and their generalized-preinvex upper bounds.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_int = sub.add_parser("integrate", help="Sugeno integral of an expression over [a, b].")
    _add_common(p_int)

    p_chk = sub.add_parser("check", help="sample a generalized-convexity hypothesis of f.")
    _add_common(p_chk)

    p_bnd = sub.add_parser("bound", help="compute the bound for the selected route and "
                                         "verify the integral stays below it.")
    _add_common(p_bnd)

    p_rep = sub.add_parser("reproduce", help="re-run a reference entry and diff against "
                                             "the golden table.")
    p_rep.add_argument("entry", help="entry id or 'all'; ids: " + ", ".join(golden.entry_ids()))
    _add_common(p_rep, need_function=False)

    p_swp = sub.add_parser("sweep", help="tabulate integral and bound across one parameter "
                                         "(CSV output).")
    _add_common(p_swp)
    p_swp.add_argument("--param", choices=("r", "alpha", "m", "eta-len"), required=True)
    p_swp.add_argument("--values", default="", metavar="V1,V2,...",
                       help="comma-separated parameter values (empty: header-only CSV)")

    return parser


# -- report plumbing ---------------------------------------------------------


def _inputs_dict(ns: argparse.Namespace) -> dict[str, Any]:
    keys = ("function", "a", "b", "eta_len", "eta", "r", "alpha", "m", "fdomain",
            "method", "grid", "samples", "seed", "entry", "param", "values")
    return {k: getattr(ns, k) for k in keys if hasattr(ns, k)}


def _render_text(report: dict[str, Any]) -> str:
    lines = [f"command: {report['command']}"]
    inputs = report["inputs"]
    shown = {k: v for k, v in inputs.items() if v is not None}
    lines.append("inputs: " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    for key, value in report["result"].items():
        if key == "entries":
            for entry in value:
                status = "ok" if entry["ok"] else "MISMATCH"
                lines.append(f"[{entry['entry']}] {entry['title']}")
                for chk in entry["checks"]:
                    mark = "ok" if chk["ok"] else "FAIL"
                    lines.append(
                        f"  {chk['name']}: {_fmt(chk['computed'])} "
                        f"(expected {_fmt(chk['expected'])} +/- {chk['tol']:g}) {mark}"
                    )
                lines.append(f"  verdict: {entry['verdict']} [{status}]")
        elif key == "witness" and value is not None:
            lines.append(
                "witness: u={u}, v={v}, t={t}, lhs={lhs}, rhs={rhs} ({kind})".format(
                    u=_fmt(value["u"]), v=_fmt(value["v"]), t=_fmt(value["t"]),
                    lhs=_fmt(value["lhs"]), rhs=_fmt(value["rhs"]), kind=value["kind"],
                )
            )
        elif isinstance(value, float):
            lines.append(f"{key} = {_fmt(value)}")
        elif value is not None:
            lines.append(f"{key} = {value}")
    prov = report["provenance"]
    prov_bits = [f"method={prov['method']}", f"residual={prov['residual']:.3g}"]
    if "hint" in prov:
        prov_bits += [f"hint={prov['hint']}", f"pieces={prov['pieces']}"]
    if prov.get("grid") is not None:
        prov_bits.append(f"grid={prov['grid']}")
    if prov.get("seed") is not None:
        prov_bits.append(f"seed={prov['seed']}")
    lines.append("provenance: " + ", ".join(prov_bits))
    lines.append(f"verdict: {report['verdict']}")
    lines.append(f"elapsed: {report['elapsed_s']:.3f}s")
    return "\n".join(lines)


def _deliver(report: dict[str, Any], ns: argparse.Namespace) -> None:
    if ns.format == "json":
        payload = json.dumps(report, indent=2)
    else:
        payload = _render_text(report)
    print(payload)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def _report(command: str, ns: argparse.Namespace, result: dict[str, Any],
            provenance: dict[str, Any], verdict: str, t0: float) -> dict[str, Any]:
    return {
        "command": command,
        "inputs": _inputs_dict(ns),
        "result": result,
        "provenance": provenance,
        "verdict": verdict,
        "elapsed_s": time.monotonic() - t0,
    }


def _build_function(ns: argparse.Namespace, default_domain: RealInterval):
    domain = _parse_fdomain(ns.fdomain) if ns.fdomain else default_domain
    return function_from_expression(ns.function, domain)


def _interval(ns: argparse.Namespace) -> RealInterval:
    return RealInterval(ns.a, ns.b)


def _eta_len(ns: argparse.Namespace) -> float:
    return ns.eta_len if ns.eta_len is not None else ns.b - ns.a


# -- subcommands -------------------------------------------------------------


def _run_integrate(ns: argparse.Namespace) -> int:
    t0 = time.monotonic()
    A = _interval(ns)
    f = _build_function(ns, A)
    method = ns.method or "auto"
    res = sugeno_integral(f, A, grid=ns.grid, method=method)
    report = _report(
        "integrate", ns,
        result={"integral": res.value},
        provenance={"method": res.method.value, "residual": res.residual,
                    "hint": res.hint, "pieces": res.pieces, "grid": ns.grid, "seed": None},
        verdict="ok",
        t0=t0,
    )
    _deliver(report, ns)
    return EXIT_OK


def _run_check(ns: argparse.Namespace) -> int:
    t0 = time.monotonic()
    K = _interval(ns)
    f = _build_function(ns, K)
    eta = _parse_eta(ns.eta)
    if ns.r is not None:
        rep = check_r_preinvex(f, K, eta, ns.r, samples=ns.samples, seed=ns.seed)
        hypothesis = f"r-preinvex (r = {ns.r:g})"
    elif ns.alpha is not None and ns.m is not None:
        rep = check_alpha_m_preinvex(f, K, eta, ns.alpha, ns.m, samples=ns.samples, seed=ns.seed)
        hypothesis = f"(alpha, m)-preinvex (alpha = {ns.alpha:g}, m = {ns.m:g})"
    elif ns.m is not None:
        rep = check_m_preinvex(f, K, eta, ns.m, samples=ns.samples, seed=ns.seed)
        hypothesis = f"m-preinvex (m = {ns.m:g})"
    elif ns.alpha is not None:
        raise ValueError("--alpha needs --m")
    else:
        rep = check_preinvex(f, K, eta, samples=ns.samples, seed=ns.seed)
        hypothesis = "preinvex"
    witness = dataclasses.asdict(rep.witness) if rep.witness is not None else None
    report = _report(
        "check", ns,
        result={"holds": rep.holds, "witness": witness},
        provenance={"method": hypothesis, "residual": rep.max_violation,
                    "grid": None, "seed": ns.seed},
        verdict="holds" if rep.holds else "violated",
        t0=t0,
    )
    _deliver(report, ns)
    return EXIT_OK if rep.holds else EXIT_CHECK_FAILED


def _run_bound(ns: argparse.Namespace) -> int:
    t0 = time.monotonic()
    eta_len = _eta_len(ns)
    iv = InvexInterval(ns.a, eta_len)
    f = _build_function(ns, iv.domain)
    if ns.r is None and (ns.alpha is None or ns.m is None):
        raise ValueError("bound needs --r, or --alpha and --m")
    rep = verify_fuzzy_hh(f, iv, r=ns.r, alpha=ns.alpha, m=ns.m, grid=ns.grid)
    result = {
        "integral": rep.integral.value,
        "bound": rep.bound.bound,
        "beta": rep.bound.beta,
        "case": rep.bound.case.value,
    }
    verdict = (
        f"pass: integral <= bound (margin {_fmt(rep.margin)})"
        if rep.passed
        else f"fail: integral exceeds bound by {_fmt(-rep.margin)}"
    )
    report = _report(
        "bound", ns,
        result=result,
        provenance={"method": rep.integral.method.value, "residual": rep.bound.residual,
                    "hint": rep.integral.hint, "pieces": rep.integral.pieces,
                    "grid": ns.grid, "seed": None},
        verdict=verdict,
        t0=t0,
    )
    _deliver(report, ns)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _entry_dict(res: golden.ReproResult) -> dict[str, Any]:
    return {
        "entry": res.entry_id,
        "title": res.title,
        "ok": res.ok,
        "verdict": res.verdict,
        "checks": [
            {
                "name": c.name,
                "computed": c.computed,
                "expected": c.expected,
                "tol": c.tol,
                "ok": c.ok,
                "note": c.note,
            }
            for c in res.checks
        ],
    }


def _run_reproduce(ns: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if ns.entry == "all":
        results = golden.run_all()
    else:
        results = [golden.run_entry(ns.entry)]
    all_ok = all(r.ok for r in results)
    report = _report(
        "reproduce", ns,
        result={"holds": all_ok, "entries": [_entry_dict(r) for r in results]},
        provenance={"method": "golden-table", "residual": 0.0, "grid": None, "seed": None},
        verdict="all golden entries match" if all_ok else "golden-table mismatch",
        t0=t0,
    )
    _deliver(report, ns)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _sweep_integral(ns: argparse.Namespace, iv: InvexInterval) -> tuple[Any, float]:
    f = _build_function(ns, iv.domain)
    return f, sugeno_integral(f, iv.domain, grid=ns.grid).value


def _sweep_row(ns: argparse.Namespace, param: str, value: float,
               fixed: tuple[Any, float] | None) -> dict[str, Any]:
    """One CSV row; ``fixed`` is (f, integral) when the sweep leaves eta_len alone."""
    eta_len = value if param == "eta-len" else _eta_len(ns)
    iv = InvexInterval(ns.a, eta_len)
    r = value if param == "r" else ns.r
    alpha = value if param == "alpha" else ns.alpha
    m = value if param == "m" else ns.m
    if r is None and (alpha is None or m is None):
        raise ValueError(f"sweep over {param!r} needs the other route flags fixed "
                         "(--r, or --alpha and --m)")
    f, integral = fixed or _sweep_integral(ns, iv)
    try:
        bound = endpoint_bound(f, iv, r=r, alpha=alpha, m=m)
        return {"param": value, "integral": integral, "beta": bound.beta,
                "bound": bound.bound, "case": bound.case.value}
    except NoRoot:
        return {"param": value, "integral": integral, "beta": "", "bound": "",
                "case": "no-root"}


def _run_sweep(ns: argparse.Namespace) -> int:
    values = [float(v) for v in ns.values.split(",") if v.strip() != ""]
    fixed = None
    if values and ns.param != "eta-len":
        # only eta_len moves the interval, so one integral serves every row
        fixed = _sweep_integral(ns, InvexInterval(ns.a, _eta_len(ns)))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["param", "integral", "beta", "bound", "case"])
    writer.writeheader()
    for value in values:
        writer.writerow(_sweep_row(ns, ns.param, value, fixed))
    payload = buf.getvalue()
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


_HANDLERS = {
    "integrate": _run_integrate,
    "check": _run_check,
    "bound": _run_bound,
    "reproduce": _run_reproduce,
    "sweep": _run_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[ns.cmd](ns)
    except ExprSyntaxError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as exc:
        print(f"{PROG}: expression not evaluable: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoRoot as exc:
        print(f"{PROG}: no root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except (RZero, MissingScaledValue, DivisionByZero, DomainEscape, NonPositiveFunction,
            NegativeFunction, NoSignChange, MeasureError, ValueError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
