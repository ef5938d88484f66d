"""Reference table for the worked examples the CLI can reproduce.

The table holds one row per entry: its title, the integrand and its domain,
the computation, the verdict texts with the rule that picks one, and the
checks.  The computation is either the Sugeno integral on [0, 1] against a
classical comparator (the endpoint power mean at r = 1/2, the endpoint mean
or the midpoint value), where the rule is that the integral exceeds or falls
below it, or ``verify_fuzzy_hh`` on a route, where the rule is that the
bound holds.  ``run_entry`` is the one runner: it recomputes a row and diffs
the named quantities against frozen expected values with per-check
tolerances.  Printed 4-decimal values are compared at 5e-4; independently
derived roots at 1e-6 or tighter.

One deliberate exception: for the cubic-third entry the equation
1 - (3*beta)^(1/3) = beta has its root at 0.182268..., while a previously
reported value of 0.1847 circulates for the same integral.  The equation is
treated as authoritative; its root is cross-checked by the sup-min oracle,
and the 0.1847 figure is kept in the table at a 3e-3 waiver tolerance with
this note attached, flagging it as a suspected rounding slip.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable

from .bounds import classical_hh_preinvex, classical_hh_r_rhs, verify_fuzzy_hh
from .convexity import InvexInterval
from .expressions import function_from_expression
from .measure import RealInterval, ScalarFunction
from .sugeno import sugeno_integral

__all__ = ["GoldenCheck", "ReproResult", "entry_ids", "run_entry", "run_all"]

UNIT = RealInterval(0.0, 1.0)
UNIT_PATH = InvexInterval(0.0, 1.0)

# Roots of the defining fixed-point equations, frozen from 40-digit bisection.
QUARTIC_HALVED_ROOT = 0.20237689020548415  # 1 - (2b)^(1/4) = b
CUBIC_THIRD_ROOT = 0.18226832611317649  # 1 - (3b)^(1/3) = b
CUBIC_THIRD_REPORTED = 0.1847  # circulated value; see module docstring
SQUARE_HALVED_ROOT = 2.0 - math.sqrt(3.0)  # 1 - sqrt(2b) = b
THREE_SQUARE_ROOT = (7.0 - math.sqrt(13.0)) / 6.0  # 1 - sqrt(b/3) = b
CUBIC_THIRD_BOUND = (5.0 - math.sqrt(21.0)) / 2.0  # c*b + sqrt(b) = c, c = 3^-1/2


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    computed: float
    expected: float
    tol: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return abs(self.computed - self.expected) <= self.tol


@dataclass(frozen=True)
class ReproResult:
    entry_id: str
    title: str
    checks: tuple[GoldenCheck, ...]
    verdict: str
    verdict_ok: bool

    @property
    def ok(self) -> bool:
        return self.verdict_ok and all(c.ok for c in self.checks)


def _power_mean(f: ScalarFunction) -> float:
    """The endpoint power mean at r = 1/2, below the classical range r >= 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return classical_hh_r_rhs(float(f(0.0)), float(f(1.0)), 0.5)


def _endpoint_mean(f: ScalarFunction) -> float:
    return classical_hh_preinvex(f, UNIT_PATH)[1]


def _midpoint(f: ScalarFunction) -> float:
    return classical_hh_preinvex(f, UNIT_PATH)[0]


@dataclass(frozen=True)
class _Entry:
    title: str
    expression: str
    domain: RealInterval
    # the computation: verify_fuzzy_hh on ``route``, giving the quantities
    # "bound" and "integral", with the rule that the bound holds; or, when
    # ``route`` is None, the integral on [0, 1] against ``comparator(f)``,
    # giving "integral" and "comparator", with the rule
    # ``rule(integral, comparator)``
    verdicts: tuple[str, str]  # (the rule holds, it does not)
    checks: tuple[tuple[str, str, float, float, str], ...]  # (name, quantity, expected, tol, note)
    route: dict[str, float] | None = None
    comparator: Callable[[ScalarFunction], float] | None = None
    rule: Callable[[float, float], bool] = operator.gt


_BOUND_VERDICTS = ("upper bound holds (integral <= min(beta, L))", "upper bound violated")
_PRINTED = "printed 4-decimal value"

_ENTRIES: dict[str, _Entry] = {
    "s3-x4": _Entry(
        "x^4/2 on [0,1]: integral vs the endpoint power mean (r = 1/2)", "x^4/2", UNIT,
        ("classical power-mean comparison violated (integral exceeds it)",
         "classical power-mean comparison unexpectedly holds"),
        (("integral", "integral", 0.2023, 5e-4, _PRINTED),
         ("integral-derived", "integral", QUARTIC_HALVED_ROOT, 1e-9, "root of 1 - (2b)^(1/4) = b"),
         ("classical-rhs", "comparator", 0.125, 1e-12, "((0 + (1/2)^(1/2))/2)^2")),
        comparator=_power_mean,
    ),
    "s3-x3": _Entry(
        "x^3/3 on [0,1]: power-mean route bound, r = 1/2", "x^3/3", UNIT,
        _BOUND_VERDICTS,
        (("bound", "bound", 0.2087, 5e-4, _PRINTED),
         ("bound-derived", "bound", CUBIC_THIRD_BOUND, 1e-9, "(5 - sqrt(21))/2"),
         ("integral-derived", "integral", CUBIC_THIRD_ROOT, 1e-6, "root of 1 - (3b)^(1/3) = b"),
         ("integral-reported", "integral", CUBIC_THIRD_REPORTED, 3e-3,
          "waiver: circulated value disagrees with the equation root "
          "by 2.4e-3; suspected rounding slip, kept for the record")),
        route={"r": 0.5},
    ),
    "s4-x2": _Entry(
        "x^2/2 on [0,1]: integral vs the classical endpoint mean", "x^2/2", UNIT,
        ("endpoint-mean side violated (integral exceeds (f(a) + f(b))/2)",
         "endpoint-mean side unexpectedly holds"),
        (("integral", "integral", 0.2679, 5e-4, _PRINTED),
         ("integral-derived", "integral", SQUARE_HALVED_ROOT, 1e-9, "2 - sqrt(3)"),
         ("classical-mean", "comparator", 0.25, 1e-12, "(f(0) + f(1))/2")),
        comparator=_endpoint_mean,
    ),
    "s4-3x2": _Entry(
        "3x^2 on [0,1]: integral vs the classical midpoint value", "3*x^2", UNIT,
        ("midpoint side violated (integral falls below f((2a + L)/2))",
         "midpoint side unexpectedly holds"),
        (("integral", "integral", 0.5657, 5e-4, _PRINTED),
         ("integral-derived", "integral", THREE_SQUARE_ROOT, 1e-9, "(7 - sqrt(13))/6"),
         ("classical-midpoint", "comparator", 0.75, 1e-12, "f(1/2)")),
        comparator=_midpoint,
        rule=operator.lt,
    ),
    "s4-x2-am": _Entry(
        "x^2/2 on [0,1]: scaled-argument route bound, (alpha, m) = (1/2, 1/3)", "x^2/2",
        RealInterval(0.0, 3.0),
        _BOUND_VERDICTS,
        (("bound", "bound", 0.75, 1e-6, "root of 1.5*sqrt(1 - b) = b (exact 3/4)"),
         ("integral-derived", "integral", SQUARE_HALVED_ROOT, 1e-9, "2 - sqrt(3)")),
        route={"alpha": 0.5, "m": 1.0 / 3.0},
    ),
}


def entry_ids() -> tuple[str, ...]:
    return tuple(_ENTRIES)


def run_entry(entry_id: str) -> ReproResult:
    try:
        entry = _ENTRIES[entry_id]
    except KeyError:
        raise ValueError(
            f"unknown entry {entry_id!r}; known: {', '.join(_ENTRIES)}"
        ) from None
    f = function_from_expression(entry.expression, entry.domain)
    if entry.route is None:
        integral = sugeno_integral(f, UNIT).value
        comparator = entry.comparator(f)
        quantity = {"integral": integral, "comparator": comparator}
        holds = entry.rule(integral, comparator)
    else:
        report = verify_fuzzy_hh(f, UNIT_PATH, **entry.route)
        quantity = {"integral": report.integral.value, "bound": report.bound.bound}
        holds = report.passed
    return ReproResult(
        entry_id=entry_id,
        title=entry.title,
        checks=tuple(GoldenCheck(name, quantity[q], expected, tol, note)
                     for name, q, expected, tol, note in entry.checks),
        verdict=entry.verdicts[0] if holds else entry.verdicts[1],
        verdict_ok=holds,
    )


def run_all() -> list[ReproResult]:
    return [run_entry(entry_id) for entry_id in _ENTRIES]
