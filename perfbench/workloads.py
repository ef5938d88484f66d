"""Seeded inputs of the four workloads, and their expected results.

``make_ops(workload, seed)`` is pure Python and deterministic: the same seed
gives the same operations on every machine.  A workload runs in rounds; one
round is the list this returns, so every round has the same make-up (the
seed moves parameters, never the count of each kind).  Operations marked
with a ``fault`` reproduce a known defect of the library on fixed inputs that
do not depend on the seed; they fail in every round until the defect is
mended, so the failed share of a run is fixed by the round's make-up.

``expectations(ops)`` computes what each operation must return, from the
oracles in ``oracles.py`` alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as orc

PI = "3.141592653589793"

WORKLOADS = ("monotone-integrals", "grid-integrals", "bound-solve", "cli-session")


@dataclass
class Integrand:
    """One DSL integrand with the benchmark's own evaluator and level-set measure."""

    src: str
    fn: Callable  # numpy evaluator of the same expression
    lo: float
    hi: float
    measure: Callable | None = None  # F(b) in closed form, or None for the dense grid
    pieces: int = 1  # monotone pieces on [lo, hi]; sets the grid tolerance


@dataclass
class Op:
    id: str
    kind: str  # "integral" | "bound" | "cli"
    fault: str | None = None  # known-defect label, fixed inputs
    integrand: Integrand | None = None
    bound: dict | None = None
    argv: list[str] = field(default_factory=list)
    cli: dict = field(default_factory=dict)  # what the cli check needs besides argv


def _n(v: float) -> str:
    """A non-negative literal the DSL parses back to the same float."""
    assert v >= 0.0
    return repr(float(v))


def _plus(v: float) -> str:
    return f" + {_n(v)}" if v >= 0 else f" - {_n(-v)}"


# -- monotone families -----------------------------------------------------------


def _interval(rng: random.Random) -> tuple[float, float]:
    lo = rng.uniform(0.0, 1.0)
    return lo, lo + rng.uniform(0.8, 1.25)


def pow_inc(c, p, d, lo, hi, src=None) -> Integrand:
    return Integrand(
        src or f"{_n(c)}*x^{_n(p)}{_plus(d)}",
        lambda x: c * np.power(x, p) + d, lo, hi,
        orc.increasing_measure(lambda b: ((b - d) / c) ** (1 / p) if b > d else -math.inf, lo, hi),
        1,
    )


def pow_dec(c, p, d, s, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(c)}*({_n(s)} - x)^{_n(p)}{_plus(d)}",
        lambda x: c * np.power(s - x, p) + d, lo, hi,
        orc.decreasing_measure(lambda b: s - ((b - d) / c) ** (1 / p) if b > d else math.inf, lo, hi),
        1,
    )


def root_inc(c, s, d, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(c)}*sqrt(x + {_n(s)}){_plus(d)}",
        lambda x: c * np.sqrt(x + s) + d, lo, hi,
        orc.increasing_measure(lambda b: ((b - d) / c) ** 2 - s if b > d else -math.inf, lo, hi),
        1,
    )


def root_dec(c, s, d, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(c)}*sqrt({_n(s)} - x){_plus(d)}",
        lambda x: c * np.sqrt(s - x) + d, lo, hi,
        orc.decreasing_measure(lambda b: s - ((b - d) / c) ** 2 if b > d else math.inf, lo, hi),
        1,
    )


def exp_inc(c, k, d, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(c)}*exp({_n(k)}*x){_plus(d)}",
        lambda x: c * np.exp(k * x) + d, lo, hi,
        orc.increasing_measure(lambda b: math.log((b - d) / c) / k if b > d else -math.inf, lo, hi),
        1,
    )


def exp_dec(c, k, d, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(c)}*exp(-{_n(k)}*x){_plus(d)}",
        lambda x: c * np.exp(-k * x) + d, lo, hi,
        orc.decreasing_measure(lambda b: -math.log((b - d) / c) / k if b > d else math.inf, lo, hi),
        1,
    )


def log_inc(c, s, d, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(c)}*log(x + {_n(s)}){_plus(d)}",
        lambda x: c * np.log(x + s) + d, lo, hi,
        orc.increasing_measure(lambda b: math.exp((b - d) / c) - s, lo, hi),
        1,
    )


def log_dec(c, s, d, lo, hi) -> Integrand:
    return Integrand(
        f"{_n(d)} - {_n(c)}*log(x + {_n(s)})",
        lambda x: d - c * np.log(x + s), lo, hi,
        orc.decreasing_measure(lambda b: math.exp((d - b) / c) - s, lo, hi),
        1,
    )


def _draw_monotone(family: str, rng: random.Random) -> Integrand:
    lo, hi = _interval(rng)
    u = rng.uniform
    if family == "pow-inc":
        return pow_inc(u(0.3, 2.0), u(1.5, 4.0), u(0.0, 0.2), lo, hi)
    if family == "pow-dec":
        return pow_dec(u(0.3, 2.0), u(1.5, 4.0), u(0.0, 0.2), hi + u(0.0, 0.5), lo, hi)
    if family == "root-inc":
        return root_inc(u(0.2, 1.2), u(0.0, 0.5), u(0.0, 0.2), lo, hi)
    if family == "root-dec":
        return root_dec(u(0.2, 1.2), hi + u(0.0, 0.5), u(0.0, 0.2), lo, hi)
    if family == "exp-inc":
        return exp_inc(u(0.02, 0.3), u(0.5, 2.5), u(0.0, 0.1), lo, hi)
    if family == "exp-dec":
        return exp_dec(u(0.5, 3.0), u(0.5, 2.5), u(0.0, 0.1), lo, hi)
    if family == "log-inc":
        c, s = u(0.3, 1.5), u(0.3, 1.0)
        return log_inc(c, s, -c * math.log(lo + s) + u(0.0, 0.2), lo, hi)
    assert family == "log-dec"
    c, s = u(0.3, 1.5), u(0.3, 1.0)
    return log_dec(c, s, c * math.log(hi + s) + u(0.0, 0.2), lo, hi)


MONOTONE_FAMILIES = (
    "pow-inc", "pow-dec", "root-inc", "root-dec", "exp-inc", "exp-dec", "log-inc", "log-dec",
)
#: The integrands of the golden table, each on [0, 1] in its own source form.
GOLDEN_INTEGRANDS = (("x^4/2", 0.5, 4.0), ("x^3/3", 1 / 3, 3.0), ("x^2/2", 0.5, 2.0), ("3*x^2", 3.0, 2.0))


def _interior(ig: Integrand) -> bool:
    """The integral is a genuine crossing well inside (0, L): the closed-form
    route then makes its full nested bisection, so every draw of a family
    costs about the same."""
    L = ig.hi - ig.lo
    s = orc.sup_level(ig.measure, L)
    return 0.1 * L < s < 0.9 * L


def _monotone_ops(rng: random.Random) -> list[Op]:
    ops = []
    for family in MONOTONE_FAMILIES:
        for i in range(3):
            ig = _draw_monotone(family, rng)
            while not _interior(ig):
                ig = _draw_monotone(family, rng)
            ops.append(Op(f"{family}#{i}", "integral", integrand=ig))
    for src, c, p in GOLDEN_INTEGRANDS:
        ops.append(Op(f"golden:{src}", "integral", integrand=pow_inc(c, p, 0.0, 0.0, 1.0, src)))
    return ops


# -- non-monotone and flat families ----------------------------------------------


def bump(c: float, k: float, lo: float, hi: float) -> Integrand:
    """c*|sin(k*pi*x)|; on [0, 1] with integer k, F(b) = 1 - 2*arcsin(b/c)/pi."""
    closed = lo == 0.0 and hi == 1.0 and k == int(k)
    measure = (lambda b: 1.0 - 2.0 * math.asin(b / c) / math.pi if b <= c else 0.0) if closed else None
    return Integrand(
        f"{_n(c)}*abs(sin({_n(k)}*{PI}*x))",
        lambda x: c * np.abs(np.sin(k * math.pi * x)), lo, hi,
        measure, int(math.ceil(2 * k * (hi - lo))) + 2,
    )


def tent(c: float, s: float) -> Integrand:
    return Integrand(
        f"{_n(c)}*abs(x - {_n(s)})", lambda x: c * np.abs(x - s), 0.0, 1.0,
        lambda b: max(0.0, s - b / c) + max(0.0, 1.0 - s - b / c), 2,
    )


def quad(h: float, k: float, s: float) -> Integrand:
    def measure(b):
        if b > h:
            return 0.0
        w = math.sqrt((h - b) / k)
        return max(0.0, min(1.0, s + w) - max(0.0, s - w))

    return Integrand(
        f"{_n(h)} - {_n(k)}*(x - {_n(s)})^2", lambda x: h - k * (x - s) ** 2, 0.0, 1.0, measure, 2,
    )


def const(k: float, lo: float, hi: float) -> Integrand:
    return Integrand(_n(k), lambda x: np.full(np.shape(x), k), lo, hi,
                     lambda b: hi - lo if b <= k else 0.0, 1)


def box(base: float, height: float, p: float, width: float, ramp: float) -> Integrand:
    """base on [0, 1], raised by height on [p + ramp, p + width - ramp], with
    linear ramps of width ``ramp``: a step built from four abs terms."""
    p1, q1, p2, q2 = p, p + ramp, p + width - ramp, p + width
    g = height / (2.0 * ramp)

    def fn(x):
        return base + g * (np.abs(x - p1) - np.abs(x - q1) - np.abs(x - p2) + np.abs(x - q2))

    def measure(b):
        if b <= base:
            return 1.0
        if b > base + height:
            return 0.0
        return width - 2.0 * ramp * (b - base) / height

    src = (f"{_n(base)} + {_n(g)}*(abs(x - {_n(p1)}) - abs(x - {_n(q1)})"
           f" - abs(x - {_n(p2)}) + abs(x - {_n(q2)}))")
    return Integrand(src, fn, 0.0, 1.0, measure, 4)


#: Fault (d): sampled monotonicity calls this "increasing" (its 2049 samples
#: x = j/2048 all land on zeros of the sine), so the closed-form route
#: integrates the wrong function.  Seed-independent.
ALIAS = Integrand(
    f"x/2 + 0.2*abs(sin({PI}*2048*x))",
    lambda x: x / 2 + 0.2 * np.abs(np.sin(math.pi * 2048 * x)), 0.0, 1.0, None, 4098,
)


def _grid_ops(rng: random.Random) -> list[Op]:
    u = rng.uniform
    draws = {
        "bump": lambda: bump(u(0.4, 1.5), float(rng.randint(1, 6)), 0.0, 1.0),
        "bump-interval": lambda: bump(u(0.4, 1.5), u(1.5, 6.0), u(0.0, 0.5), u(1.3, 1.8)),
        "tent": lambda: tent(u(0.5, 2.0), u(0.2, 0.8)),
        "quad": lambda: _quad(rng),
        "const": lambda: _const(rng),
        # crossing on the top plateau's edge: F jumps across the diagonal
        "step-jump": lambda: box(u(0.0, 0.1), u(0.15, 0.25), u(0.1, 0.3), u(0.45, 0.6), u(0.005, 0.02)),
        # crossing on the gentle slope of F along the ramps: a fixed point
        "step-slope": lambda: box(u(0.0, 0.1), u(0.6, 1.0), u(0.1, 0.3), u(0.25, 0.45), u(0.005, 0.02)),
    }
    # best times rise const < tent < quad < step-slope, bumps, alias <
    # step-jump, and the counts place each percentile inside a group whose
    # cost the seed barely moves: of the 30 operations the median falls on
    # the 15th and 16th, inside the 7 quadratics (11th to 17th), and the
    # 90th percentile inside the 4 step-jump fallbacks (27th to 30th)
    counts = {"bump": 3, "bump-interval": 3, "tent": 5, "quad": 7, "const": 5, "step-jump": 4, "step-slope": 2}
    ops = [Op(f"{name}#{i}", "integral", integrand=draws[name]())
           for name, n in counts.items() for i in range(n)]
    ops.append(Op("alias", "integral", fault="d", integrand=ALIAS))
    return ops


def _const(rng: random.Random) -> Integrand:
    lo, hi = _interval(rng)
    return const(rng.uniform(0.1, 0.7) * (hi - lo), lo, hi)  # below L: F jumps, so a fallback


def _quad(rng: random.Random) -> Integrand:
    s, k = rng.uniform(0.3, 0.7), rng.uniform(0.5, 2.0)
    return quad(k * max(s, 1 - s) ** 2 + rng.uniform(0.05, 0.5), k, s)


# -- bound draws -------------------------------------------------------------------


def _bound_draw(cls: str, rng: random.Random) -> dict:
    """Endpoint scalars of one class; margins keep every draw clear of the
    class boundaries (equal endpoints, m = fend/fa, m*fscaled = fa, fa = L)."""
    u = rng.uniform
    L = u(0.5, 2.0)
    if cls.startswith("r-"):
        r = u(0.25, 3.0)
        if cls == "r-inc":
            fa = u(0.0, 0.9) * L
            return dict(fa=fa, fend=fa + u(0.05, 1.0) * L, eta_len=L, r=r)
        if cls == "r-dec":
            fend = u(0.0, 0.9) * L
            return dict(fa=fend + u(0.05, 1.0) * L, fend=fend, eta_len=L, r=r)
        if cls == "r-equal":
            fa = u(0.1, 1.5) * L
            return dict(fa=fa, fend=fa, eta_len=L, r=r)
        if cls == "r-inc-sat":
            fa = u(1.05, 2.5) * L
            return dict(fa=fa, fend=fa + u(0.05, 1.0) * L, eta_len=L, r=r)
        assert cls == "r-dec-sat"
        fend = u(1.05, 2.5) * L
        return dict(fa=fend + u(0.05, 1.0) * L, fend=fend, eta_len=L, r=r)
    alpha = u(0.2, 1.0)
    if cls == "am-inc":  # fa <= fend <= m*fscaled, fa < L
        m = u(0.2, 1.0)
        fa = u(0.0, 0.9) * L
        fend = fa + u(0.0, 1.0) * L
        return dict(fa=fa, fend=fend, eta_len=L, alpha=alpha, m=m, fscaled=(fend + u(0.05, 1.0) * L) / m)
    fa = u(0.2, 0.9) * L if not cls.endswith("-sat") else u(1.3, 2.5) * L
    rho = u(0.3, 0.8)
    fend = rho * fa
    if cls == "am-dec-up":  # m < fend/fa and m*fscaled > fa: increasing majorant
        m = rho * u(0.3, 0.9)
        return dict(fa=fa, fend=fend, eta_len=L, alpha=alpha, m=m, fscaled=fa * u(1.1, 2.5) / m)
    if cls == "am-ratio":  # m == fend/fa exactly, increasing majorant
        m = fend / fa
        return dict(fa=fa, fend=fend, eta_len=L, alpha=alpha, m=m, fscaled=fa * u(1.1, 2.5) / m)
    if cls == "am-const":  # m*fscaled == fa: constant majorant
        m = u(0.2, 1.0)
        return dict(fa=fa, fend=fend, eta_len=L, alpha=alpha, m=m, fscaled=fa / m)
    # am-dec-down(-sat): m > fend/fa and fend <= m*fscaled < fa: decreasing majorant
    m = rho + u(0.1, 1.0) * (1.0 - rho)
    if cls == "am-dec-down":
        top = u(fend, fa / 1.1)
        top = min(top, 0.95 * L)
    else:
        assert cls == "am-dec-down-sat"
        top = u(max(fend, 1.05 * L), fa / 1.1)
    return dict(fa=fa, fend=fend, eta_len=L, alpha=alpha, m=m, fscaled=top / m)


BOUND_CLASSES = {  # class: draws per round
    "r-inc": 4, "r-dec": 4, "r-equal": 2, "am-inc": 4, "am-dec-up": 3, "am-dec-down": 3,
    "am-ratio": 2, "am-const": 2,
    # the root lies beyond L, so the hint bracket fails and the 10 000-cell scan runs
    "r-inc-sat": 3, "r-dec-sat": 3, "am-dec-down-sat": 2,
}

#: Fixed inputs of the bound faults named in the README (seed-independent).
BOUND_FAULTS = (
    ("a", "r<0 increasing, NoRoot", dict(fa=0.5, fend=2.0, eta_len=1.0, r=-1.0)),
    ("a", "r<0 increasing, tight", dict(fa=0.2, fend=0.9, eta_len=1.0, r=-0.5)),
    ("a", "r<0 decreasing", dict(fa=0.9, fend=0.2, eta_len=1.0, r=-0.5)),
    ("b", "saturated, fa <= fend", dict(fa=1.2, fend=1.5, eta_len=1.0, alpha=0.5, m=0.5, fscaled=4.0)),
    ("b", "saturated, m < fend/fa", dict(fa=1.5, fend=1.2, eta_len=1.0, alpha=0.5, m=0.5, fscaled=4.0)),
    ("c", "m > fend/fa, rising majorant", dict(fa=0.8, fend=0.3, eta_len=1.0, alpha=0.5, m=0.5, fscaled=2.0)),
    ("c", "m < fend/fa, falling majorant", dict(fa=0.8, fend=0.6, eta_len=1.0, alpha=0.5, m=0.5, fscaled=1.3)),
)


def _bound_ops(rng: random.Random) -> list[Op]:
    ops = [Op(f"{cls}#{i}", "bound", bound=_bound_draw(cls, rng))
           for cls, n in BOUND_CLASSES.items() for i in range(n)]
    ops += [Op(f"fault-{label}:{what}", "bound", fault=label, bound=dict(inp))
            for label, what, inp in BOUND_FAULTS]
    return ops


# -- cli session -------------------------------------------------------------------


def _cli_ops(rng: random.Random) -> list[Op]:
    """One round of a scripted session.

    Two ``reproduce all`` and the sweep are the three slowest of 19 calls, so
    the 90th percentile falls on the seed-independent reproduce calls; the
    median falls on the 10th, the middle of the twelve integrate and bound
    calls, each drawn from the seed, so that one draw's cost moves it little."""
    u = rng.uniform
    ops = [Op(f"reproduce#{i}", "cli", argv=["reproduce", "all", "--format", "json"]) for i in range(2)]
    seed = str(rng.randrange(1 << 20))

    def fmt(v):
        return repr(float(v))

    # integrate: monotone and non-monotone functions
    for i in range(4):
        L = u(0.8, 1.25)
        mono = pow_inc(u(0.3, 2.0), u(1.5, 4.0), 0.0, 0.0, L)
        ops.append(Op(f"integrate-monotone#{i}", "cli", integrand=mono,
                      argv=["integrate", "-f", mono.src, "-a", "0", "-b", fmt(L), "--format", "json"]))
        bumpy = bump(u(0.4, 1.5), float(rng.randint(1, 6)), 0.0, 1.0)
        ops.append(Op(f"integrate-bump#{i}", "cli", integrand=bumpy, cli=dict(grid=True),
                      argv=["integrate", "-f", bumpy.src, "-a", "0", "-b", "1", "--format", "json"]))

    # check: both routes, one that holds and one that returns a witness
    r = u(0.5, 1.5)
    held = pow_inc(u(0.3, 2.0), u(1.2, 2.0) / r, 0.0, 0.0, 1.0)  # (c x^p)^r convex: p*r >= 1.2
    ops.append(Op("check-r-holds", "cli", integrand=held, cli=dict(r=r, holds=True),
                  argv=["check", "-f", held.src, "-a", "0", "-b", "1", "--r", fmt(r),
                        "--seed", seed, "--format", "json"]))
    broken = pow_inc(u(0.3, 2.0), u(0.3, 0.8), 0.0, 0.0, 1.0)  # concave, r = 1
    ops.append(Op("check-r-witness", "cli", integrand=broken, cli=dict(r=1.0, holds=False),
                  argv=["check", "-f", broken.src, "-a", "0", "-b", "1", "--r", "1",
                        "--seed", seed, "--format", "json"]))
    m = u(0.3, 1.0)
    convex = pow_inc(u(0.3, 2.0), u(1.0, 3.0), 0.0, 0.0, 1.0 / m)  # alpha = 1: m*f(v/m) >= f(v)
    ops.append(Op("check-am-holds", "cli", integrand=convex, cli=dict(alpha=1.0, m=m, holds=True),
                  argv=["check", "-f", convex.src, "-a", "0", "-b", "1", "--alpha", "1", "--m", fmt(m),
                        "--fdomain", f"0:{fmt(1.0 / m)}", "--seed", seed, "--format", "json"]))
    alpha, m = u(0.3, 0.7), u(0.3, 0.6)
    square = pow_inc(u(0.3, 1.0), 2.0, 0.0, 0.0, 1.0 / m)  # t^alpha > t breaks it near v = 0
    ops.append(Op("check-am-witness", "cli", integrand=square, cli=dict(alpha=alpha, m=m, holds=False),
                  argv=["check", "-f", square.src, "-a", "0", "-b", "1", "--alpha", fmt(alpha),
                        "--m", fmt(m), "--fdomain", f"0:{fmt(1.0 / m)}", "--seed", seed,
                        "--format", "json"]))

    # bound: both routes on [0, L]
    for i in range(2):
        L, r = u(0.8, 1.25), u(0.5, 2.0)
        f = pow_inc(u(0.3, 1.5), u(1.0, 3.0) / r + 1.0, 0.0, 0.0, L)
        ops.append(Op(f"bound-r#{i}", "cli", integrand=f, cli=dict(r=r),
                      argv=["bound", "-f", f.src, "-a", "0", "-b", fmt(L), "--r", fmt(r),
                            "--format", "json"]))
        L, alpha, m = u(0.8, 1.25), u(0.3, 1.0), u(0.3, 1.0)
        f = pow_inc(u(0.3, 1.5), u(1.5, 3.0), 0.0, 0.0, L)
        ops.append(Op(f"bound-am#{i}", "cli", integrand=f, cli=dict(alpha=alpha, m=m),
                      argv=["bound", "-f", f.src, "-a", "0", "-b", fmt(L), "--alpha", fmt(alpha),
                            "--m", fmt(m), "--fdomain", f"0:{fmt(L / m)}", "--format", "json"]))

    # sweep: 8 values of r > 0
    L = u(0.8, 1.25)
    f = pow_inc(u(0.3, 1.5), u(1.5, 3.0), 0.0, 0.0, L)
    rs = sorted(u(0.25, 3.0) for _ in range(8))
    ops.append(Op("sweep-r", "cli", integrand=f, cli=dict(values=rs),
                  argv=["sweep", "-f", f.src, "-a", "0", "-b", fmt(L), "--param", "r",
                        "--values", ",".join(fmt(v) for v in rs)]))
    return ops


# -- entry points ------------------------------------------------------------------

_MAKERS = {
    "monotone-integrals": _monotone_ops,
    "grid-integrals": _grid_ops,
    "bound-solve": _bound_ops,
    "cli-session": _cli_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return _MAKERS[workload](random.Random(f"{workload}/{seed}"))


def integral_expected(ig: Integrand, grid_route: bool) -> dict:
    """Expected integral and its tolerance.

    ``grid_route`` marks integrands the library samples on its 1e6 grid; a
    monotone integrand goes through the closed-form route at the library's
    stated tolerance.
    """
    L = ig.hi - ig.lo
    if ig.measure is not None:
        value = orc.sup_level(ig.measure, L)
    else:
        value = orc.grid_supmin(ig.fn, ig.lo, ig.hi)
    tol = orc.grid_tolerance(ig.pieces, L, ig.measure is None) if grid_route else orc.LIB_TOL
    return {"value": value, "tol": tol}


def _bound_expected(inp: dict) -> dict:
    value = orc.bound_expected(inp)
    return {"value": value, "tol": orc.bound_tolerance(value)}


def _cli_expected(op: Op) -> dict:
    cmd = op.argv[0]
    if cmd == "reproduce":
        return {"entries": golden_expected()}
    if cmd == "integrate":
        return integral_expected(op.integrand, grid_route=op.cli.get("grid", False))
    if cmd == "check":
        return {"holds": op.cli["holds"]}
    ig = op.integrand
    L = float(op.argv[op.argv.index("-b") + 1])
    integral = orc.sup_level(ig.measure, L)
    fa, fend = float(ig.fn(0.0)), float(ig.fn(L))
    if cmd == "bound":
        if "r" in op.cli:
            inp = dict(fa=fa, fend=fend, eta_len=L, r=op.cli["r"])
        else:
            m = op.cli["m"]
            inp = dict(fa=fa, fend=fend, eta_len=L, alpha=op.cli["alpha"], m=m,
                       fscaled=float(ig.fn(L / m)))
        b = orc.bound_expected(inp)
        return {"integral": integral, "bound": b, "tol": orc.LIB_TOL,
                "passes": integral <= b + 1e-6}
    assert cmd == "sweep"
    rows = [{"param": r, "bound": orc.bound_expected(dict(fa=fa, fend=fend, eta_len=L, r=r))}
            for r in op.cli["values"]]
    return {"integral": integral, "rows": rows, "tol": orc.LIB_TOL}


def golden_expected() -> dict:
    """Closed forms of the golden table, independent of its frozen constants."""
    unit = 1.0
    quartic = orc.sup_level(pow_inc(0.5, 4.0, 0.0, 0.0, 1.0).measure, unit)
    cubic = orc.sup_level(pow_inc(1 / 3, 3.0, 0.0, 0.0, 1.0).measure, unit)
    return {
        "s3-x4": {"integral-derived": quartic, "classical-rhs": 0.125},
        "s3-x3": {"integral-derived": cubic, "bound-derived": (5 - math.sqrt(21)) / 2},
        "s4-x2": {"integral-derived": 2 - math.sqrt(3), "classical-mean": 0.25},
        "s4-3x2": {"integral-derived": (7 - math.sqrt(13)) / 6, "classical-midpoint": 0.75},
        "s4-x2-am": {"integral-derived": 2 - math.sqrt(3), "bound": 0.75},
    }


def expectations(workload: str, ops: list[Op]) -> list[dict]:
    out = []
    for op in ops:
        if op.kind == "integral":
            exp = integral_expected(op.integrand, grid_route=workload == "grid-integrals")
        elif op.kind == "bound":
            exp = _bound_expected(op.bound)
        else:
            exp = _cli_expected(op)
        out.append({"id": op.id, **exp})
    return out
