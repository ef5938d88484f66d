"""Command-line front end.

Subcommands: integrate | check | bound | reproduce | sweep.  Functions are
given as expressions in a small arithmetic DSL (see ``expressions``); results
go to stdout as text (floats at 6 significant digits) or as a JSON report
carrying full precision, and sweeps emit RFC-4180 CSV.  Every subcommand
but sweep returns its result, provenance, verdict and exit code, and
``main`` alone times it, builds the report and delivers it.

Exit codes: 0 when every requested verdict passes, 1 on usage or expression
errors or a closed stdout, 2 when a hypothesis check or a bound verification
fails, 3 when no bound exists for the inputs (reserved: valid inputs always have one).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
import time
from typing import Any

from . import golden
from .bounds import (
    BoundInputs,
    NoRoot,
    MissingScaledValue,
    endpoint_inputs,
    route_bound,
    scaled_value,
    verify_fuzzy_hh,
)
from .convexity import (
    AFFINE_ETA,
    DEFAULT_SAMPLES,
    DomainEscape,
    EtaMap,
    InvexInterval,
    NonPositiveFunction,
    certify_convex,
    check_alpha_m_preinvex,
    check_m_preinvex,
    check_preinvex,
    check_r_preinvex,
    scaled_eta,
)
from .expressions import EvalError, ExprSyntaxError, function_from_expression, parse_expression
from .measure import RealInterval
from .sugeno import DEFAULT_GRID, IntegralMethod, NegativeFunction, SugenoResult, sugeno_integral

__all__ = ["build_parser", "main", "app"]

PROG = "fuzzyhh"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NO_ROOT = 3


class _ArgumentParser(argparse.ArgumentParser):
    # no prefix spellings: "bound --eta x" must not be read as --eta-len
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # "-<digit>" and "-.<digit>" tokens are values ("--r -1e-3", "--values -1,-0.5"),
        # not flags; Python 3.11's argparse reads only the shapes -12 and -1.5 so
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
        try:
            factor = float(text.split(":", 1)[1])
        except ValueError:
            factor = math.nan
        if not math.isfinite(factor):
            raise ValueError(f"--eta scaled:<factor> needs a finite factor, got {text!r}")
        return scaled_eta(factor)
    raise ValueError(f"unknown eta map {text!r}; use 'affine' or 'scaled:<factor>'")


def _add_flags(parser: argparse.ArgumentParser, reads: tuple[str, ...]) -> None:
    """Add the function flags named in ``reads`` in report order, then --format and --out."""
    def add(*names: str, **kwargs: Any) -> None:
        if names[0] in reads:
            parser.add_argument(*names, **kwargs)
    add("-f", "--function", required=True, metavar="EXPR", help="integrand, e.g. 'x^2/2'")
    add("-a", type=float, required=True, help="interval lower end")
    add("-b", type=float, required=True, help="interval upper end")
    add("--eta-len", type=float, default=None, metavar="L",
        help="path length eta(b, a); default b - a")
    add("--eta", default="affine", metavar="MAP",
        help="path map for checks: 'affine' or 'scaled:<factor>'")
    add("--r", type=float, default=None, help="power-mean route parameter")
    add("--alpha", type=float, default=None, help="scaled-argument route exponent in (0, 1]")
    add("--m", type=float, default=None, help="scaled-argument route scale in (0, 1]")
    add("--fdomain", type=str, default=None, metavar="LO:HI",
        help="declared evaluation domain of f (wider than [a, b] "
             "when the scaled-argument route evaluates f(v/m))")
    add("--method", choices=("supmin",), default=None,
        help="force the integration route: supmin sweeps --grid "
             "thresholds (the assumption-free oracle)")
    add("--grid", type=int, default=DEFAULT_GRID,
        help="grid size for sampled distributions (default %(default)d)")
    add("--samples", type=int, default=DEFAULT_SAMPLES,
        help="draws when no proof is found (default %(default)d)")
    add("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", type=str, default=None, metavar="PATH",
                        help="also write the report (or CSV) to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog=PROG,
        description="Sugeno integrals on intervals and their generalized-preinvex upper bounds.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    # each subcommand's function flags: the ones its handler reads
    bound_flags = ("-f", "-a", "-b", "--eta-len", "--r", "--alpha", "--m", "--fdomain", "--grid")

    _add_flags(sub.add_parser("integrate", help="Sugeno integral of an expression over [a, b]."),
               ("-f", "-a", "-b", "--fdomain", "--method", "--grid"))
    _add_flags(sub.add_parser("check", help="prove or sample a preinvexity hypothesis of f."),
               ("-f", "-a", "-b", "--eta", "--r", "--alpha", "--m", "--fdomain", "--samples",
                "--seed"))
    _add_flags(sub.add_parser("bound", help="compute the bound for the selected route and "
                                            "verify the integral stays below it."),
               bound_flags)

    p_rep = sub.add_parser("reproduce", help="re-run a reference entry and diff against "
                                             "the golden table.")
    p_rep.add_argument("entry", help="entry id or 'all'; ids: " + ", ".join(golden.entry_ids()))
    _add_flags(p_rep, ())

    p_swp = sub.add_parser("sweep", help="tabulate integral and bound across one parameter "
                                         "(CSV output).")
    _add_flags(p_swp, bound_flags)
    p_swp.add_argument("--param", choices=("r", "alpha", "m", "eta-len"), required=True)
    p_swp.add_argument("--values", default="", metavar="V1,V2,...",
                       help="comma-separated parameter values (empty: header-only CSV)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one parser serves every main() call
    return build_parser()


# -- report plumbing ---------------------------------------------------------

#: What a reporting subcommand returns; ``main`` times it and builds the report.
_Outcome = tuple[dict[str, Any], dict[str, Any], str, int]  # result, provenance, verdict, exit


def _inputs_dict(ns: argparse.Namespace) -> dict[str, Any]:
    return {k: v for k, v in vars(ns).items() if k not in ("cmd", "format", "out")}


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
    if "integral_residual" in prov:
        prov_bits.append(f"integral_residual={prov['integral_residual']:.3g}")
    if prov.get("residual_is_bound") is False:  # the integral's residual, the last one shown
        prov_bits[-1] += " (sample resolution)"
    if "hint" in prov:
        prov_bits += [f"hint={prov['hint']}", f"pieces={prov['pieces']}"]
    for key in ("grid", "seed", "hypothesis"):
        if prov.get(key) is not None:
            prov_bits.append(f"{key}={prov[key]}")
    lines.append("provenance: " + ", ".join(prov_bits))
    lines.append(f"verdict: {report['verdict']}")
    lines.append(f"elapsed: {report['elapsed_s']:.3f}s")
    return "\n".join(lines)


def _write_out(path: str, payload: str, newline: str | None = None) -> None:
    """Write ``payload`` to the ``--out`` file; a path that cannot be written
    is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _deliver(report: dict[str, Any], ns: argparse.Namespace) -> None:
    if ns.format == "json":
        payload = json.dumps(report, indent=2)
    else:
        payload = _render_text(report)
    print(payload)
    if ns.out:
        _write_out(ns.out, payload + "\n")


def _build_function(ns: argparse.Namespace, default_domain: RealInterval):
    domain = _parse_fdomain(ns.fdomain) if ns.fdomain else default_domain
    return function_from_expression(ns.function, domain)


def _interval(ns: argparse.Namespace) -> RealInterval:
    return RealInterval(ns.a, ns.b)


def _eta_len(ns: argparse.Namespace) -> float:
    return ns.eta_len if ns.eta_len is not None else ns.b - ns.a


# -- subcommands -------------------------------------------------------------


def _integral_provenance(res: SugenoResult, grid: int,
                         residuals: dict[str, float]) -> dict[str, Any]:
    """How the integral was obtained; ``residuals`` leads with the report's own residual."""
    return {"method": res.method.value, **residuals,
            "residual_is_bound": res.method is IntegralMethod.FIXED_POINT,
            "hint": res.hint, "pieces": res.pieces, "grid": grid, "seed": None}


def _run_integrate(ns: argparse.Namespace) -> _Outcome:
    A = _interval(ns)
    f = _build_function(ns, A)
    method = ns.method or "auto"
    res = sugeno_integral(f, A, grid=ns.grid, method=method)
    return ({"integral": res.value},
            _integral_provenance(res, ns.grid, {"residual": res.residual}), "ok", EXIT_OK)


def _run_check(ns: argparse.Namespace) -> _Outcome:
    K = _interval(ns)
    f = _build_function(ns, K)
    eta = _parse_eta(ns.eta)
    if ns.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {ns.seed}")
    if ns.r is not None and (ns.alpha is not None or ns.m is not None):
        raise ValueError("select one route: --r or --alpha/--m")
    if ns.r is not None:
        sample = functools.partial(check_r_preinvex, f, K, eta, ns.r)
        hypothesis = f"r-preinvex (r = {ns.r:g})"
    elif ns.alpha is not None and ns.m is not None:
        sample = functools.partial(check_alpha_m_preinvex, f, K, eta, ns.alpha, ns.m)
        hypothesis = f"(alpha, m)-preinvex (alpha = {ns.alpha:g}, m = {ns.m:g})"
    elif ns.m is not None:
        sample = functools.partial(check_m_preinvex, f, K, eta, ns.m)
        hypothesis = f"m-preinvex (m = {ns.m:g})"
    elif ns.alpha is not None:
        raise ValueError("--alpha needs --m")
    else:
        sample = functools.partial(check_preinvex, f, K, eta)
        hypothesis = "preinvex"
    covered = eta is AFFINE_ETA and ns.samples >= 1 and ns.alpha in (None, 1.0)
    proof = covered and certify_convex(f, parse_expression(ns.function), K, ns.r,
                                       1.0 if ns.m is None else ns.m)
    rep = proof or sample(samples=ns.samples, seed=ns.seed)
    witness = dataclasses.asdict(rep.witness) if rep.witness is not None else None
    return ({"holds": rep.holds, "witness": witness},
            {"method": hypothesis, "residual": rep.max_violation,
             "hypothesis": "certified" if proof else "sampled", "grid": None, "seed": ns.seed},
            "holds" if rep.holds else "violated",
            EXIT_OK if rep.holds else EXIT_CHECK_FAILED)


def _run_bound(ns: argparse.Namespace) -> _Outcome:
    eta_len = _eta_len(ns)
    iv = InvexInterval(ns.a, eta_len)
    f = _build_function(ns, iv.domain)
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
    residuals = {"residual": rep.bound.residual, "integral_residual": rep.integral.residual}
    return (result, _integral_provenance(rep.integral, ns.grid, residuals), verdict,
            EXIT_OK if rep.passed else EXIT_CHECK_FAILED)


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


def _run_reproduce(ns: argparse.Namespace) -> _Outcome:
    if ns.entry == "all":
        results = golden.run_all()
    else:
        results = [golden.run_entry(ns.entry)]
    all_ok = all(r.ok for r in results)
    return ({"holds": all_ok, "entries": [_entry_dict(r) for r in results]},
            {"method": "golden-table", "residual": 0.0, "grid": None, "seed": None},
            "all golden entries match" if all_ok else "golden-table mismatch",
            EXIT_OK if all_ok else EXIT_CHECK_FAILED)


def _sweep_integral(ns: argparse.Namespace, iv: InvexInterval) -> tuple[Any, float]:
    f = _build_function(ns, iv.domain)
    return f, sugeno_integral(f, iv.domain, grid=ns.grid).value


def _sweep_row(ns: argparse.Namespace, value: float, fixed: tuple[Any, float] | None,
               last: BoundInputs | None) -> tuple[dict[str, Any], BoundInputs]:
    """One CSV row and its bound inputs.  ``fixed`` is (f, integral) when the
    sweep leaves eta_len alone; then ``last``, the previous row's inputs if
    any, lends f(a) and f(a + L), and fscaled too unless m moves."""
    eta_len = value if ns.param == "eta-len" else _eta_len(ns)
    iv = InvexInterval(ns.a, eta_len)
    r = value if ns.param == "r" else ns.r
    alpha = value if ns.param == "alpha" else ns.alpha
    m = value if ns.param == "m" else ns.m
    f, integral = fixed or _sweep_integral(ns, iv)
    if fixed and last is not None:
        fscaled = scaled_value(f, iv, alpha, m) if ns.param == "m" else last.fscaled
        inputs = dataclasses.replace(last, r=r, alpha=alpha, m=m, fscaled=fscaled)
    else:
        inputs = endpoint_inputs(f, iv, r=r, alpha=alpha, m=m)
    bound = route_bound(inputs)
    return {"param": value, "integral": integral, "beta": bound.beta,
            "bound": bound.bound, "case": bound.case.value}, inputs


def _sweep_value(param: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"--values: {param} must be finite, got {text!r}")
    return value


def _run_sweep(ns: argparse.Namespace) -> int:
    if ns.format != "text":
        raise ValueError("sweep writes CSV; --format json is not supported")
    values = [_sweep_value(ns.param, v) for v in ns.values.split(",") if v.strip() != ""]
    fixed = None
    if values and ns.param != "eta-len":
        # only eta_len moves the interval, so one integral serves every row
        fixed = _sweep_integral(ns, InvexInterval(ns.a, _eta_len(ns)))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["param", "integral", "beta", "bound", "case"])
    writer.writeheader()
    inputs = None
    for value in values:
        row, inputs = _sweep_row(ns, value, fixed, inputs)
        writer.writerow(row)
    payload = buf.getvalue()
    if ns.out:
        _write_out(ns.out, payload, newline="")
    else:
        print(payload, end="")
    return EXIT_OK


_HANDLERS = {
    "integrate": _run_integrate,
    "check": _run_check,
    "bound": _run_bound,
    "reproduce": _run_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    t0 = time.monotonic()
    try:
        if ns.cmd == "sweep":
            code = _run_sweep(ns)
        else:
            result, provenance, verdict, code = _HANDLERS[ns.cmd](ns)
            _deliver({"command": ns.cmd, "inputs": _inputs_dict(ns), "result": result,
                      "provenance": provenance, "verdict": verdict,
                      "elapsed_s": time.monotonic() - t0}, ns)
        print(end="", flush=True)  # a reader that closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # nothing more reaches the reader: with no stdout, print writes
        # nothing and the interpreter's final flush skips the unwritten rest
        sys.stdout = None
        return EXIT_USAGE
    except ExprSyntaxError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as exc:
        print(f"{PROG}: expression not evaluable: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoRoot as exc:
        print(f"{PROG}: no root: {exc}", file=sys.stderr)
        return EXIT_NO_ROOT
    except (MissingScaledValue, DomainEscape, NonPositiveFunction,
            NegativeFunction, ValueError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
