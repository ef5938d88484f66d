"""Certification of generalized-convexity hypotheses, by sample or by proof.

Each checker draws (u, v, t) triples from K x K x [0, 1] with a seeded
generator and either certifies the defining inequality on every draw or
returns the most violated draw as a reproducible witness: a statistical
verdict on a black-box function.  Each of the paper's two hypothesis
families has one sampler: the power mean (``check_r_preinvex``) and the
scaled argument (``check_alpha_m_preinvex``, whose (1, 1) and alpha = 1
cases are ``check_preinvex`` and ``check_m_preinvex``).  ``certify_convex``
instead proves, from an expression's interval extension, the hypotheses
that the affine eta turns into convexity of f or f**r; it returns None
wherever the sampler would raise, and the CLI samples where it finds no proof.

All checkers consume the same sample stream for a given (K, samples, seed),
so hypotheses that degenerate into one another (r = 1, m = 1, alpha = 1)
produce bitwise-identical reports.  The endpoints t = 0 and t = 1 are always
included deterministically; violations concentrate there surprisingly often.
The inequality checkers draw and evaluate the stream in blocks of ``BLOCK``
draws, with the same floats, witness and errors as one whole-array pass.

Inequality slack is 1e-9; closed-set membership slack is 1e-12 (floating
point evaluation of path maps lands marginally outside closed intervals, and
path points are clipped back in before the function is evaluated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expressions import BinOp, Node, Num, derivative, extend_expression
from .measure import RealInterval, ScalarFunction, SET_SLACK

__all__ = [
    "ConvexityError",
    "DomainEscape",
    "NonPositiveFunction",
    "EtaMap",
    "AFFINE_ETA",
    "scaled_eta",
    "InvexInterval",
    "Witness",
    "HypothesisReport",
    "check_invex",
    "check_condition_c",
    "check_preinvex",
    "check_r_preinvex",
    "check_m_preinvex",
    "check_alpha_m_preinvex",
    "certify_convex",
]

INEQ_SLACK = 1e-9

#: Draws of every sampling checker unless the caller asks for another count.
DEFAULT_SAMPLES = 100_000

#: Below this |r| the r-th power mean is taken in a stable form
#: (``_small_r_power_mean``): the direct form rounds f**r near 1 and loses
#: about 2**-53/|r| of relative precision, 1e-13 at this r and all of it by
#: r = 1e-200.
SMALL_R = 2.0**-10


class ConvexityError(Exception):
    """Base class for hypothesis-checker failures."""


class DomainEscape(ConvexityError):
    """A point the check must evaluate lies outside the declared domain."""


class NonPositiveFunction(ConvexityError):
    """Power-mean hypotheses need f > 0 (r <= 0) or f >= 0 (r > 0) on the sample."""


@dataclass(frozen=True)
class EtaMap:
    """Path map eta(v, u), with no name; paths run u + t * eta(v, u) for t in [0, 1].

    ``apply`` must broadcast over numpy arrays.  ``domain`` restricts where
    eta itself can be evaluated (None means everywhere); a path point outside
    K is a finding for the invexity check, not an evaluation error.
    """

    apply: Callable
    domain: RealInterval | None = None


AFFINE_ETA = EtaMap(apply=lambda v, u: v - u)


def scaled_eta(factor: float) -> EtaMap:
    """eta(v, u) = factor * (v - u); fails the consistency identities for factor != 1."""
    return EtaMap(apply=lambda v, u: factor * (v - u))


@dataclass(frozen=True)
class InvexInterval:
    """The interval [a, a + eta_len] with eta_len = eta(b, a) > 0."""

    a: float
    eta_len: float

    def __post_init__(self) -> None:
        if not self.eta_len > 0:
            raise ValueError("eta_len must be positive")

    @property
    def end(self) -> float:
        return self.a + self.eta_len

    @property
    def domain(self) -> RealInterval:
        return RealInterval(self.a, self.end)


@dataclass(frozen=True)
class Witness:
    """One concrete violating draw.

    ``lhs`` and ``rhs`` are the two sides of the broken relation; for the
    membership check lhs is the escape distance and rhs is 0.  ``kind`` names
    the relation, and ``t2`` carries the second path parameter of the
    two-parameter eta-consistency identity (None elsewhere).
    """

    u: float
    v: float
    t: float
    lhs: float
    rhs: float
    kind: str = "preinvex"
    t2: float | None = None


@dataclass(frozen=True)
class HypothesisReport:
    holds: bool
    samples_checked: int
    witness: Witness | None
    max_violation: float


#: Draws per block of the checkers' sample stream: a block's dozen arrays stay
#: in a 2 MB L2 cache (at 1e5 draws, 4 096 and 32 768 were slower).
BLOCK = 1 << 14


def _blocks(K: RealInterval, samples: int, seed: int, block: int = BLOCK):
    """The shared sample stream in (u, v, t) blocks of ``block`` reused arrays.

    Concatenated, they hold exactly the floats of ``default_rng(seed)``
    drawing ``uniform(K.lo, K.hi, samples)`` twice, then ``uniform(0, 1,
    samples)`` with t = 0 and t = 1 first: three copies of the generator,
    advanced by 0, samples and 2 * samples draws, fill them with ``random()``,
    scaled in place as ``uniform`` scales it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    gens = [np.random.default_rng(seed) for _ in range(3)]
    for k, gen in enumerate(gens):
        gen.bit_generator.advance(k * samples)
    scale = K.hi - K.lo
    bufs = np.empty((3, min(block, samples)))
    for start in range(0, samples, block):
        u, v, t = bufs[:, : min(block, samples - start)]
        for gen, x in zip(gens, (u, v, t)):
            gen.random(out=x)
        for x in (u, v):
            x *= scale
            x += K.lo
        if start == 0:
            t[:2] = (0.0, 1.0)[: t.size]
        yield u, v, t


def _first_escape(points, domain: RealInterval) -> int | None:
    """The first index of ``points`` beyond ``SET_SLACK`` outside ``domain``,
    or None: the array form of ``RealInterval.contains`` (NaN is not outside)."""
    outside = (points < domain.lo - SET_SLACK) | (points > domain.hi + SET_SLACK)
    return int(np.argmax(outside)) if np.any(outside) else None


def _path_points(f: ScalarFunction, u, t, eta_uv, kind: str):
    """u + t*eta(v, u), checked against f's domain and clipped back in."""
    path = u + t * eta_uv
    lo, hi = f.domain.lo, f.domain.hi
    i = _first_escape(path, f.domain)
    if i is not None:
        raise DomainEscape(
            f"{kind}: path point {path[i]:g} leaves the declared domain "
            f"[{lo:g}, {hi:g}] (u={u[i]:g}, t={t[i]:g})"
        )
    return np.clip(path, lo, hi, out=path)


def _inequality_report(K: RealInterval, samples: int, seed: int, sides, kind: str,
                       slack: float = INEQ_SLACK):
    """Run ``sides(u, v, t) -> (lhs, rhs)`` over the stream's blocks and report
    the first draw where lhs - rhs is largest (a NaN first), as ``np.argmax``
    over the whole sample would; the hypothesis holds when that is at most
    ``slack``.  When a block raises, ``sides`` runs once over the whole sample
    as one block, so the error is the one the unblocked check raises, in its
    order.
    """
    worst, best = -math.inf, None
    try:
        for u, v, t in _blocks(K, samples, seed):
            lhs, rhs = sides(u, v, t)
            violation = lhs - rhs
            i = int(np.argmax(violation))
            w = float(violation[i])
            if not math.isnan(worst) and not w <= worst:
                worst = w
                best = (float(u[i]), float(v[i]), float(t[i]), float(lhs[i]), float(rhs[i]))
    except Exception:
        sides(*next(_blocks(K, samples, seed, samples)))  # the unblocked call's error
        raise
    if worst <= slack:
        return HypothesisReport(True, samples, None, worst)
    return HypothesisReport(False, samples, Witness(*best, kind=kind), worst)


def check_invex(
    K: RealInterval, eta: EtaMap, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> HypothesisReport:
    """Certify u + t*eta(v, u) in K for sampled (u, v, t).

    A path point outside K (beyond 1e-12 slack) is the violation itself; the
    witness records the escape distance as lhs against rhs = 0.
    """

    def sides(u, v, t):
        path = u + t * eta.apply(v, u)
        escape = np.maximum(K.lo - path, path - K.hi)
        return escape, np.zeros_like(escape)

    return _inequality_report(K, samples, seed, sides, "invex-membership", SET_SLACK)


def check_condition_c(
    K: RealInterval, eta: EtaMap, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> HypothesisReport:
    """Check the three path-consistency identities of the map eta.

    For draws (x, y, t, t1, t2), with e = eta(x, y):

        eta(y, y + t*e) = -t*e
        eta(x, y + t*e) = (1 - t)*e
        eta(y + t2*e, y + t1*e) = (t2 - t1)*e

    each to 1e-9; a NaN deviation is a violation, and the first one is the
    witness.  These identities are what make a path map behave affinely
    along its own paths; the affine map satisfies them identically.  Raises
    ``DomainEscape`` only if an intermediate point leaves eta's own declared
    domain (the identities are otherwise still evaluable formulas).
    """
    y, x, t = next(_blocks(K, samples, seed, samples))
    rng = np.random.default_rng(seed + 1)
    t1 = rng.uniform(0.0, 1.0, samples)
    t2 = rng.uniform(0.0, 1.0, samples)

    e = eta.apply(x, y)
    base = y + t * e
    p1 = y + t1 * e
    p2 = y + t2 * e
    if eta.domain is not None:
        for pts in (base, p1, p2):
            i = _first_escape(pts, eta.domain)
            if i is not None:
                raise DomainEscape(
                    f"eta-consistency: intermediate point {pts[i]:g} leaves eta's domain"
                )

    identities = (
        (eta.apply(y, base), -t * e),
        (eta.apply(x, base), (1.0 - t) * e),
        (eta.apply(p2, p1), (t2 - t1) * e),
    )
    worst = -np.inf
    where = (0, 0)
    for k, (lhs, rhs) in enumerate(identities):
        dev = np.abs(lhs - rhs)
        i = int(np.argmax(dev))  # a NaN first, and it stays the worst
        if not math.isnan(worst) and not float(dev[i]) <= worst:
            worst = float(dev[i])
            where = (k, i)
    if worst <= INEQ_SLACK:
        return HypothesisReport(True, samples, None, worst)
    k, i = where
    lhs, rhs = identities[k]
    witness = Witness(
        u=float(y[i]), v=float(x[i]),
        t=float(t[i] if k < 2 else t1[i]),
        lhs=float(lhs[i]), rhs=float(rhs[i]),
        kind=f"eta-consistency-{k + 1}",
        t2=float(t2[i]) if k == 2 else None,
    )
    return HypothesisReport(False, samples, witness, worst)


def check_preinvex(f: ScalarFunction, K: RealInterval, eta: EtaMap, samples: int = DEFAULT_SAMPLES,
                   seed: int = 0) -> HypothesisReport:
    """f(u + t*eta(v, u)) <= (1 - t)*f(u) + t*f(v): the (alpha, m) = (1, 1)
    case of ``check_alpha_m_preinvex``, its witnesses and errors named
    "preinvex"."""
    return _scaled_argument(f, K, eta, 1.0, 1.0, samples, seed, "preinvex")


def check_r_preinvex(
    f: ScalarFunction,
    K: RealInterval,
    eta: EtaMap,
    r: float,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> HypothesisReport:
    """Power-mean form: the arithmetic mean is replaced by the r-th power mean.

    r != 0 uses ((1-t)*f(u)**r + t*f(v)**r)**(1/r); r = 0 uses the geometric
    mean f(u)**(1-t) * f(v)**t, which 0 < |r| < ``SMALL_R`` approaches in a
    stable form.  r must be finite.  For r <= 0 the function
    must be strictly positive on the sample, and for r > 0 non-negative, as
    the power mean of a negative value is undefined (``NonPositiveFunction``
    otherwise).
    """
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r:g}")

    def sides(u, v, t):
        path = _path_points(f, u, t, eta.apply(v, u), "r-preinvex")
        fu = np.asarray(f.evaluate(u), dtype=float)
        fv = np.asarray(f.evaluate(v), dtype=float)
        if r <= 0 and (np.any(fu <= 0.0) or np.any(fv <= 0.0)):
            raise NonPositiveFunction(
                f"r = {r:g} <= 0 requires f > 0 on K; a sampled value was <= 0"
            )
        if r > 0 and (np.any(fu < 0.0) or np.any(fv < 0.0)):
            raise NonPositiveFunction(
                f"r = {r:g} > 0 requires f >= 0 on K; a sampled value was < 0"
            )
        lhs = np.asarray(f.evaluate(path), dtype=float)
        if abs(r) >= SMALL_R:
            rhs = ((1.0 - t) * fu**r + t * fv**r) ** (1.0 / r)
        elif r == 0:
            rhs = fu ** (1.0 - t) * fv**t
        else:
            rhs = _small_r_power_mean(fu, fv, t, r)
        return lhs, rhs

    return _inequality_report(K, samples, seed, sides, "r-preinvex")


def _small_r_power_mean(fu, fv, t, r: float):
    """((1-t)*fu**r + t*fv**r)**(1/r) for small r != 0, relative to the larger
    value: big * exp(log1p(w*expm1(r*d))/r), with d = log(small/big) <= 0 and
    w the small value's weight.  Where |r*d| < 2**-53 that exponent is w*d
    to double precision (the geometric mean), and it is taken so, since r*d
    may be subnormal or zero there."""
    with np.errstate(all="ignore"):
        big = np.maximum(fu, fv)
        w = np.where(fu <= fv, 1.0 - t, t)
        d = np.log(np.minimum(fu, fv)) - np.log(big)
        x = r * d
        e = np.where(np.abs(x) < 2.0**-53, w * d, np.log1p(w * np.expm1(x)) / r)
        return np.where(big > 0, big * np.exp(e), 0.0)


def validate_alpha_m(alpha: float, m: float) -> None:
    """Raise ``ValueError`` unless alpha and m lie in (0, 1]."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0 < m <= 1:
        raise ValueError("m must lie in (0, 1]")


def _scaled_argument(f: ScalarFunction, K: RealInterval, eta: EtaMap, alpha: float, m: float,
                     samples: int, seed: int, kind: str) -> HypothesisReport:
    """``check_alpha_m_preinvex`` with its witness and errors named ``kind``."""
    validate_alpha_m(alpha, m)
    lo, hi = f.domain.lo, f.domain.hi

    def sides(u, v, t):
        path = _path_points(f, u, t, eta.apply(v, u), kind)
        scaled = v / m
        i = _first_escape(scaled, f.domain)
        if i is not None:
            raise DomainEscape(
                f"{kind}: v/m = {scaled[i]:g} leaves the declared domain "
                f"[{lo:g}, {hi:g}]; declare a wider one"
            )
        np.clip(scaled, lo, hi, out=scaled)
        t_alpha = t**alpha
        lhs = np.asarray(f.evaluate(path), dtype=float)
        rhs = (1.0 - t_alpha) * np.asarray(f.evaluate(u), dtype=float) + m * t_alpha * np.asarray(
            f.evaluate(scaled), dtype=float
        )
        return lhs, rhs

    return _inequality_report(K, samples, seed, sides, kind)


def check_alpha_m_preinvex(f: ScalarFunction, K: RealInterval, eta: EtaMap, alpha: float,
                           m: float, samples: int = DEFAULT_SAMPLES,
                           seed: int = 0) -> HypothesisReport:
    """f(u + t*eta(v, u)) <= (1 - t**alpha)*f(u) + m * t**alpha * f(v/m).

    alpha and m must lie in (0, 1].  f's declared domain must contain v/m for
    every v in K (``DomainEscape`` otherwise) - this is the reason functions
    carry a domain wider than the integration interval.  Assumes invexity of
    K under eta has been certified separately; a path point that leaves f's
    domain raises ``DomainEscape`` too.
    """
    return _scaled_argument(f, K, eta, alpha, m, samples, seed, "alpha-m-preinvex")


def check_m_preinvex(f: ScalarFunction, K: RealInterval, eta: EtaMap, m: float,
                     samples: int = DEFAULT_SAMPLES, seed: int = 0) -> HypothesisReport:
    """The alpha = 1 case of ``check_alpha_m_preinvex``, named as it is."""
    return _scaled_argument(f, K, eta, 1.0, m, samples, seed, "alpha-m-preinvex")


#: Cells of the bisection that ``certify_convex`` may make for its proof.
PROOF_CELLS = 32

#: Bits allowed to what the sampler rounds on the hull: f (over r for r < 1,
#: as f**r for r > 1) and |x*f'|, the change of f at a path point an ulp off
#: (f' from g', for r > 1 where f is not near 0); some ulps of 2**16 << 1e-9.
PROOF_BITS = 16.0


def certify_convex(f: ScalarFunction, node: Node, K: RealInterval, r: float | None = None,
                   m: float = 1.0) -> HypothesisReport | None:
    """A report with no draw, holding, if the extension of f's tree ``node``
    proves the hypothesis the sampler checks for the affine eta, else None:
    g = f (r None) or f**r (0 < r < inf) convex on K, or for 0 < m < 1 f convex
    on the hull H of 0, K and K/m with f(0) <= 0, so that f(v) <= m*f(v/m).
    g''s slope bounds enclose g'' on the cells of a widest-first bisection of
    H.  None for every other r or m, and wherever the sampler would raise or
    could round past ``INEQ_SLACK``; never an exception.  r and m < 1 do not
    combine: no checker samples that hypothesis."""
    if not (r is None or 0.0 < r < math.inf) or not 0.0 < m <= 1.0:
        return None
    ends = [K.lo, K.hi] + ([0.0, K.lo / m, K.hi / m] if m < 1.0 else [])
    lo, hi, power = min(ends), max(ends), 1.0 if r is None else r
    enc = f.extension and all(f.domain.contains(x) for x in ends) and f.extension(lo, hi)
    slope = derivative(BinOp("^", node, Num(power)))
    if not enc or slope is None or r is not None and enc.lo < 0.0 \
            or m < 1.0 and (f.extension(0.0, 0.0) or enc).hi > 0.0:  # f(0) <= 0
        return None
    ext, cells, steep = extend_expression(slope), [(lo, hi)], 0.0
    for a, b in cells:  # a queue of halves: the widest cell first
        e, mid = ext(a, b), 0.5 * (a + b)
        if e is not None and e.slope_lo >= 0.0:
            steep = max(steep, -e.lo, e.hi)
        elif len(cells) >= PROOF_CELLS or e is not None and e.slope_hi < 0.0 or not a < mid < b:
            return None
        else:
            cells += [(a, mid), (mid, b)]
    bits = math.log2(max(-enc.lo, enc.hi, 1.0))
    path = math.log2(max(steep * max(-lo, hi), 1.0)) + max(1.0 - power, 0.0) * bits
    rounding = max(max(power, 1.0) * bits, path) - math.log2(min(power, 1.0))
    return HypothesisReport(True, 0, None, 0.0) if rounding <= PROOF_BITS else None
