"""A small arithmetic DSL for defining integrands on the command line.

Grammar (standard precedence; ^ binds tightest and associates right, then
unary minus, then * and /, then + and -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs, pow(base, exponent).
``compile_expression`` compiles the tree once into numpy closures, with
constant subtrees folded and the domain checks a constant operand makes
vacuous left out; ``function_from_expression`` and ``evaluate`` both use it.
Evaluation accepts floats and numpy arrays and is total on the declared
domain or raises ``EvalError`` (log of a non-positive value, division by
zero, fractional powers of negatives, overflow).  ``to_source`` prints a
normal form that reparses to the identical tree.

The same compilation builds a forward-mode interval extension
(``extend_expression``): for an interval [a, b] of x it returns an
``Enclosure`` with outward-rounded bounds on the expression and on its
derivative, or None where it cannot bound them.  ``function_from_expression``
certifies its monotonicity hint with one such call over the domain: the hint
is increasing or decreasing where the derivative bounds prove it, else
unknown, and the extension stays on the function so the integral can
certify monotone pieces of an integrand that is not monotone as a whole.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .measure import Monotonicity, RealInterval, ScalarFunction

__all__ = [
    "ExprSyntaxError",
    "EvalError",
    "Num",
    "Var",
    "Unary",
    "BinOp",
    "Call",
    "parse_expression",
    "to_source",
    "compile_expression",
    "evaluate",
    "function_from_expression",
    "Enclosure",
    "extend_expression",
    "derivative",
]

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "abs": 1, "pow": 2}


class ExprSyntaxError(Exception):
    """Parse failure with the byte offset and the token set that was expected."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = "") -> None:
        self.offset = offset
        self.expected = expected
        self.found = found
        what = found if found else "end of input"
        super().__init__(
            f"syntax error at offset {offset}: found {what}, expected {' or '.join(expected)}"
        )


class EvalError(Exception):
    """The expression is not evaluable at the given point(s)."""


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str = "x"


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Num | Var | Unary | BinOp | Call


# -- parser ------------------------------------------------------------------
#
# One pattern tokenizes: each match is a number, a name, an operator, or any
# other character that is not whitespace, which is an error.  The search skips
# the whitespace between tokens.

_TOKEN = re.compile(r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S)")


class _Parser:
    """Recursive descent by index over the (kind, text, offset) tokens: kind
    "num", "ident" or the operator itself, closed by ("end", "", len(src))."""

    def __init__(self, src: str) -> None:
        self.tokens, self.i = [], 0
        for m in _TOKEN.finditer(src):
            kind, text = m.lastgroup, m.group()
            if kind == "bad":
                raise ExprSyntaxError(m.start(), ("a number", "a name", "an operator"),
                                      found=repr(text))
            self.tokens.append((text if kind == "op" else kind, text, m.start()))
        self.tokens.append(("end", "", len(src)))

    def expect(self, kind: str) -> None:
        got, text, offset = self.tokens[self.i]
        if got != kind:
            raise ExprSyntaxError(offset, (f"'{kind}'",), found=repr(text))
        self.i += 1

    def expr(self) -> Node:
        node = self.term()
        while (op := self.tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (op := self.tokens[self.i][0]) in ("*", "/"):
            self.i += 1
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        """unary and power: '-' unary | atom ('^' unary)?"""
        if self.tokens[self.i][0] == "-":
            self.i += 1
            return Unary("-", self.unary())
        node = self.atom()
        if self.tokens[self.i][0] == "^":
            self.i += 1
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, offset = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "x":
                return Var()
            arity = FUNCTIONS.get(text)
            if arity is None:
                raise ExprSyntaxError(offset, ("'x'",) + tuple(sorted(FUNCTIONS)), found=repr(text))
            self.expect("(")
            args = [self.expr()]
            while self.tokens[self.i][0] == ",":
                self.i += 1
                args.append(self.expr())
            self.expect(")")
            if len(args) != arity:
                raise ExprSyntaxError(offset, (f"{arity} argument(s) to {text}",),
                                      found=f"{len(args)}")
            return Call(text, tuple(args))
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(
            offset, ("a number", "'x'", "a function", "'('"), found=repr(text) if text else ""
        )


def parse_expression(src: str) -> Node:
    """Parse source text into an AST; raises ``ExprSyntaxError`` with offset."""
    if not src or not src.strip():
        raise ExprSyntaxError(0, ("a non-empty expression",))
    parser = _Parser(src)
    node = parser.expr()
    kind, text, offset = parser.tokens[parser.i]
    if kind != "end":
        raise ExprSyntaxError(offset, ("an operator", "end of input"), found=repr(text))
    return node


# -- printer -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM = 5


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"]
    return _ATOM


def to_source(node: Node) -> str:
    """Print the normal form; ``parse_expression(to_source(n)) == n``."""
    if isinstance(node, Num):
        if node.value < 0:  # normal form keeps literals non-negative
            return f"(-{repr(-node.value)})"
        return repr(node.value) if node.value != int(node.value) else str(int(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    if isinstance(node, Unary):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    assert isinstance(node, BinOp)
    op = node.op
    left = to_source(node.left)
    right = to_source(node.right)
    if op == "^":
        if _prec(node.left) <= _PREC["^"]:
            left = f"({left})"
        if _prec(node.right) < _PREC["neg"]:
            right = f"({right})"
    else:
        if _prec(node.left) < _PREC[op]:
            left = f"({left})"
        if _prec(node.right) <= _PREC[op]:
            right = f"({right})"
    return f"{left}{op}{right}"


# -- evaluation --------------------------------------------------------------
#
# The AST is compiled once into nested closures over numpy ufuncs.  A subtree
# without x is folded into its value, or into a closure that raises its
# EvalError, so a bad constant still fails when the expression is evaluated
# and in tree order.  A closure whose result is a new array lets its parent
# write into that array; x and constants are never written.


class _Code(NamedTuple):
    run: Callable  # x -> np.float64 or array
    ext: Callable  # the interval extension (see below)
    value: np.float64 | None = None  # the folded value of a subtree without x
    xfree: bool = False  # no x below: the subtree is folded
    owned: bool = False  # run returns a new array for array x


def _const(value) -> _Code:
    c = float(value)
    ext = (lambda a, b: (c, c, 0.0, 0.0)) if math.isfinite(c) else _unbounded
    return _Code(lambda x: value, ext, value, True)


def _raiser(message: str) -> _Code:
    def run(x):
        raise EvalError(message)

    return _Code(run, _unbounded, None, True)


def _check(test, message: str):
    """A domain check raising ``EvalError(message)`` where ``test`` holds anywhere."""

    def check(*vals):
        if test(*vals).any():
            raise EvalError(message)

    return check


def _fractional_power_of_negative(base, exponent):
    neg = base < 0
    if neg.any() and (neg & (exponent != np.floor(exponent))).any():
        raise EvalError("negative base raised to a fractional power")


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs}
_DOMAIN = {
    "log": _check(lambda u: u <= 0, "log of a non-positive value"),
    "sqrt": _check(lambda u: u < 0, "sqrt of a negative value"),
}
_ZERO_DIVISOR = _check(lambda u, v: v == 0, "division by zero")
_ZERO_TO_NEGATIVE = _check(lambda u, v: (u == 0) & (v < 0), "zero raised to a negative power")


def _may(code: _Code, test) -> bool:
    """Whether ``test`` can hold for the operand: not provably false for a constant."""
    return code.value is None or bool(test(code.value))


def _apply(ufunc, args: tuple[_Code, ...], checks: tuple, ext: Callable) -> _Code:
    """``ufunc`` over the operands, after the domain checks, into the first
    owned array operand if there is one."""
    runs = [a.run for a in args]
    into = 0 if args[0].owned else 1 if args[-1].owned else None

    def run(x):
        vals = [r(x) for r in runs]
        for check in checks:
            check(*vals)
        if into is not None and type(vals[into]) is np.ndarray:
            return ufunc(*vals, out=vals[into])
        return ufunc(*vals)

    return _Code(run, ext, None, all([a.xfree for a in args]), True)


def _power(base: _Code, exponent: _Code) -> _Code:
    checks = []
    if _may(base, lambda b: b == 0) and _may(exponent, lambda e: e < 0):
        checks.append(_ZERO_TO_NEGATIVE)
    if _may(base, lambda b: b < 0) and _may(exponent, lambda e: e != np.floor(e)):
        checks.append(_fractional_power_of_negative)
    e = None if exponent.value is None else float(exponent.value)
    return _apply(np.power, (base, exponent), tuple(checks), _ext_power(base.ext, exponent.ext, e))


def _compile(node: Node) -> _Code:
    if isinstance(node, Num):
        return _const(np.float64(node.value))
    if isinstance(node, Var):
        return _Code(lambda x: x, _ext_var)
    if isinstance(node, BinOp):
        left, right = _compile(node.left), _compile(node.right)
        if node.op == "^":
            code = _power(left, right)
        else:
            divides = node.op == "/" and _may(right, lambda v: v == 0)
            code = _apply(_BINARY[node.op], (left, right), (_ZERO_DIVISOR,) if divides else (),
                          _ext_binary(node.op, left, right))
    elif isinstance(node, Unary):
        operand = _compile(node.operand)
        code = _apply(np.negative, (operand,), (), _ext_negative(operand.ext))
    else:
        assert isinstance(node, Call)
        args = tuple(_compile(a) for a in node.args)
        if node.func == "pow":
            code = _power(*args)
        else:
            check = _DOMAIN.get(node.func)
            code = _apply(_CALLS[node.func], args, (check,) if check else (),
                          _ext_call(node.func, args[0].ext))
    if not code.xfree:
        return code
    try:
        return _const(code.run(np.float64(0.0)))  # under _compile_tree's errstate
    except EvalError as exc:
        return _raiser(str(exc))


def _compile_tree(node: Node) -> _Code:
    with np.errstate(all="ignore"):
        return _compile(node)


def compile_expression(node: Node) -> Callable:
    """Compile an AST into ``ev(x)`` for a float or numpy array.

    ``ev`` returns a float for a scalar and an array of x's shape otherwise,
    and raises ``EvalError`` where the expression is not evaluable,
    including any non-finite result.  It never writes into x.
    """
    return _evaluator(_compile_tree(node))


def _evaluator(code: _Code) -> Callable:
    run, fresh = code.run, code.owned

    def ev(x):
        if type(x) is float or np.ndim(x) == 0:
            with np.errstate(all="ignore"):
                out = float(run(np.float64(x)))
            if math.isfinite(out):
                return out
        else:
            arr = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                out = run(arr)
            if not (fresh and type(out) is np.ndarray):  # x itself or a constant: a read-only view
                out = np.broadcast_to(np.asarray(out, dtype=float), arr.shape)
            if np.isfinite(out).all():
                return out
        raise EvalError("expression produced a non-finite value (overflow?)")

    return ev


def evaluate(node: Node, x):
    """Evaluate at a float or numpy array; result broadcasts to x's shape."""
    return compile_expression(node)(x)


# -- interval extension --------------------------------------------------------
#
# Forward mode over the same tree (Moore, *Interval Analysis*, 1966): each node
# maps an interval [a, b] of x to bounds on its values and on its derivative in
# x over [a, b], so no derivative tree is built.  Every bound that is not exact
# is rounded outward by one ulp, which covers the half-ulp rounding of + - * /
# and the sub-ulp error of the library's sin, cos, exp, log and powers.  A
# subtree without x is folded by the point evaluator, so the extension bounds
# the function ``compile_expression`` evaluates, with the same constants.  abs
# at 0 takes the derivative interval [-1, 1] * u' (its generalised gradient).
# Where no finite value bound exists (an operand interval leaving the domain of
# log, sqrt, a power or a divisor, or overflow) a node raises ``_Unbounded``
# and the extension returns None.  Derivative bounds may be infinite (sqrt and
# fractional powers at 0).


class Enclosure(NamedTuple):
    """Bounds on f (lo, hi) and on f' (slope_lo, slope_hi) over an interval of x."""

    lo: float
    hi: float
    slope_lo: float
    slope_hi: float

    def direction(self) -> Monotonicity:
        """The monotonicity f' proves; a constant counts as increasing."""
        if self.slope_lo >= 0.0:
            return Monotonicity.INCREASING
        if self.slope_hi <= 0.0:
            return Monotonicity.DECREASING
        return Monotonicity.UNKNOWN


class _Unbounded(Exception):
    """The operand interval leaves the domain of a node: no bound exists."""


_INF = math.inf
_MAX = math.nextafter(_INF, 0.0)
_TWO_PI = 2.0 * math.pi


# A zero reaching _dn or _up is exact: a sum is zero only when exact, and the
# products, quotients and powers below turn an underflow into the smallest
# subnormal of its sign.  Exact zeros stay, so a slope bound of 0 proves a
# direction.


def _dn(v: float) -> float:
    return v if v == 0.0 else math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return v if v == 0.0 else math.nextafter(v, _INF)


def _no_underflow(r: float, exact_zero: bool) -> float:
    return r if r != 0.0 or exact_zero else math.copysign(5e-324, r)


def _error(s: float, a: float, b: float) -> float:
    """The rounding error a + b - s of s = a + b (Fast2Sum: exact for |a| >= |b|)."""
    return b - (s - a) if abs(a) >= abs(b) else a - (s - b)


def _add(al, ah, bl, bh):
    """Sum bounds, rounded outward only where the sum was rounded inward, so
    exact sums (1 - 1 on a plateau) stay exact; an overflow or an unbounded
    operand gives a NaN error, which rounds outward."""
    lo, hi = al + bl, ah + bh
    if not lo <= hi:  # inf - inf
        raise _Unbounded
    if not _error(lo, al, bl) >= 0.0:
        lo = math.nextafter(lo, -_INF)
    if not _error(hi, ah, bh) <= 0.0:
        hi = math.nextafter(hi, _INF)
    return lo, hi


def _times(u: float, v: float) -> float:
    """u * v with 0 * inf = 0, the product bound of a zero endpoint and an unbounded one."""
    return 0.0 if u == 0.0 or v == 0.0 else _no_underflow(u * v, False)


def _exact_scale(lo: float, hi: float) -> bool:
    """Whether products with [lo, hi] are exact: a point 0 or +-2**k, k >= 0."""
    return lo == hi and (lo == 0.0 or abs(math.frexp(lo)[0]) == 0.5 and abs(lo) >= 1.0)


def _mul(al, ah, bl, bh):
    p = (_times(al, bl), _times(al, bh), _times(ah, bl), _times(ah, bh))
    lo, hi = min(p), max(p)
    if not lo <= hi:
        raise _Unbounded
    if _exact_scale(al, ah) or _exact_scale(bl, bh):
        return lo, hi
    return _dn(lo), _up(hi)


def _div(al, ah, bl, bh):
    if bl <= 0.0 <= bh or math.isinf(bl) or math.isinf(bh):  # inf / inf would be NaN
        raise _Unbounded
    p = (_no_underflow(al / bl, al == 0.0), _no_underflow(al / bh, al == 0.0),
         _no_underflow(ah / bl, ah == 0.0), _no_underflow(ah / bh, ah == 0.0))
    return _dn(min(p)), _up(max(p))


def _pw(t: float, e: float) -> float:
    return _no_underflow(t**e, t == 0.0)


def _int_power(lo: float, hi: float, n: float):
    """Bounds on t**n for t in [lo, hi] and an integral n."""
    if n == 0.0:
        return 1.0, 1.0
    if lo > 0.0 or hi < 0.0 or n % 2.0 == 1.0 and n > 0.0:  # monotone on [lo, hi]
        p, q = _pw(lo, n), _pw(hi, n)
        return _dn(min(p, q)), _up(max(p, q))
    if n < 0.0:
        raise _Unbounded  # 0 raised to a negative power
    return 0.0, _up(max(_pw(lo, n), _pw(hi, n)))


def _real_power(lo: float, hi: float, e: float):
    """Bounds on t**e for t in [lo, hi] and a fractional e, defined for t >= 0."""
    if lo < 0.0:
        raise _Unbounded
    if e >= 0.0:
        return max(_dn(_pw(lo, e)), 0.0), _up(_pw(hi, e))
    return max(_dn(_pw(hi, e)), 0.0), _up(_pw(lo, e)) if lo > 0.0 else _INF


def _integer(e: float) -> bool:
    return math.isfinite(e) and e == math.floor(e) and abs(e) < 2.0**53


def _reaches(a: float, b: float, phase: float) -> bool:
    """Whether [a, b] holds a point phase + 2k*pi."""
    return phase + math.ceil((a - phase) / _TWO_PI) * _TWO_PI <= b


def _trig(fn, a: float, b: float, top: float):
    """Bounds on fn over [a, b] for fn = sin (top = pi/2) or cos (top = 0):
    maxima at top + 2k*pi and minima at top + pi + 2k*pi.  The extremum test
    widens [a, b] by far more than the rounding of the phase arithmetic, so
    it can only loosen a bound."""
    if not b - a < _TWO_PI or max(-a, b) > 2.0**40:
        return -1.0, 1.0
    fa, fb = fn(a), fn(b)
    lo, hi = max(_dn(min(fa, fb)), -1.0), min(_up(max(fa, fb)), 1.0)
    slack = 1e-9 * max(1.0, -a, b)
    if _reaches(a - slack, b + slack, top):
        hi = 1.0
    if _reaches(a - slack, b + slack, top + math.pi):
        lo = -1.0
    return lo, hi


def _ext_power(base, exponent, e: float | None):
    """u ** v; a constant exponent e keeps negative bases with integral e."""
    if e is not None:
        power = _int_power if _integer(e) else _real_power

        def run(a, b):  # (u^e)' = e u^(e-1) u'
            vl, vh, dl, dh = base(a, b)
            if e == 0.0:
                return 1.0, 1.0, 0.0, 0.0
            if e < 0.0 and vl <= 0.0 <= vh:
                raise _Unbounded  # 0 raised to a negative power
            return power(vl, vh, e) + _mul(*_mul(e, e, *power(vl, vh, e - 1.0)), dl, dh)

        return run

    def run(a, b):  # u ** v = exp(v * log u), for u > 0
        ul, uh, udl, udh = base(a, b)
        vl, vh, vdl, vdh = exponent(a, b)
        gl, gh = _log(ul, uh)
        lo, hi = _exp(*_mul(vl, vh, gl, gh))
        sl, sh = _add(*_mul(vdl, vdh, gl, gh), *_mul(vl, vh, *_div(udl, udh, ul, uh)))
        return (lo, hi) + _mul(lo, hi, sl, sh)

    return run


def _exp(lo: float, hi: float):
    return max(_dn(math.exp(lo)), 0.0), _up(math.exp(hi) or 5e-324)


def _log(lo: float, hi: float):
    if lo <= 0.0:
        raise _Unbounded
    return _dn(math.log(lo)), _up(math.log(hi))


def _sqrt(lo: float, hi: float):
    if lo < 0.0:
        raise _Unbounded
    return max(_dn(math.sqrt(lo)), 0.0), _up(math.sqrt(hi))


def _half_reciprocal_sqrt(lo: float, hi: float):
    """1 / (2 sqrt u), unbounded where u reaches 0."""
    sl, sh = _sqrt(lo, hi)
    return _dn(0.5 / sh), _up(0.5 / sl) if sl > 0.0 else _INF


def _abs(lo: float, hi: float):
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def _sign(lo: float, hi: float):
    """The derivative of abs, [-1, 1] where u reaches 0 from both sides."""
    return (1.0, 1.0) if lo >= 0.0 else (-1.0, -1.0) if hi <= 0.0 else (-1.0, 1.0)


_HALF_PI = math.pi / 2

#: Bounds on f(u) and on f'(u) from bounds on u, for each function f of the DSL.
_CALL_RULES = {
    "sin": (lambda lo, hi: _trig(math.sin, lo, hi, _HALF_PI),
            lambda lo, hi: _trig(math.cos, lo, hi, 0.0)),
    "cos": (lambda lo, hi: _trig(math.cos, lo, hi, 0.0),
            lambda lo, hi: _mul(-1.0, -1.0, *_trig(math.sin, lo, hi, _HALF_PI))),
    "exp": (_exp, _exp),
    "log": (_log, lambda lo, hi: _div(1.0, 1.0, lo, hi)),
    "sqrt": (_sqrt, _half_reciprocal_sqrt),
    "abs": (_abs, _sign),
}


def _ext_call(func: str, arg):
    value, slope = _CALL_RULES[func]

    def run(a, b):  # f(u)' = f'(u) u'
        vl, vh, dl, dh = arg(a, b)
        return value(vl, vh) + _mul(*slope(vl, vh), dl, dh)

    return run


def _unbounded(a, b):
    raise _Unbounded


def _ext_var(a, b):
    return a, b, 1.0, 1.0


def _ext_negative(inner):
    def run(a, b):
        vl, vh, dl, dh = inner(a, b)
        return -vh, -vl, -dh, -dl

    return run


def _ext_binary(op: str, left: _Code, right: _Code):
    """u op v.  For c*u, u*c, u + c, c + u, u - c, c - u and u/c (c != 0)
    with a finite constant c, the extension scales or shifts u's bounds
    directly, with the floats of the general rule: ``_add`` and its error
    test are symmetric in their operands, the product rule's c' * u term is
    the exact (0, 0) and u - c adds -0.0 to the slope."""
    c, u = left.value, right.ext
    if op in "+-*" and c is not None:
        if op == "-":  # c - u = c + (-u)
            u, op = _ext_negative(u), "+"
    else:
        c, u = right.value, left.ext
    c = None if c is None else float(c)
    if c is None or not math.isfinite(c) or op == "/" and c == 0.0:
        return _ext_general(op, left.ext, right.ext)
    exact = _exact_scale(c, c)
    shift, zero = (-c, -0.0) if op == "-" else (c, 0.0)

    def run(a, b):
        vl, vh, dl, dh = u(a, b)
        if op == "*":
            return _scale(vl, vh, c, exact) + _plus_zero(*_scale(dl, dh, c, exact))
        if op == "/":
            return _div(vl, vh, c, c) + _div(*_add(dl, dh, 0.0, 0.0), c, c)
        return _add(vl, vh, shift, shift) + _add(dl, dh, zero, zero)

    return run


def _ext_general(op: str, left, right):
    def run(a, b):
        ul, uh, udl, udh = left(a, b)
        vl, vh, vdl, vdh = right(a, b)
        if op == "+":
            return _add(ul, uh, vl, vh) + _add(udl, udh, vdl, vdh)
        if op == "-":
            return _add(ul, uh, -vh, -vl) + _add(udl, udh, -vdh, -vdl)
        if op == "*":
            return _mul(ul, uh, vl, vh) + _add(*_mul(udl, udh, vl, vh), *_mul(ul, uh, vdl, vdh))
        ql, qh = _div(ul, uh, vl, vh)  # (u/v)' = (u' - (u/v) v') / v
        return (ql, qh) + _div(*_add(udl, udh, *_mul(-qh, -ql, vdl, vdh)), vl, vh)

    return run


def _scale(lo: float, hi: float, c: float, exact: bool):
    """``_mul(lo, hi, c, c)``, with exact = ``_exact_scale(c, c)``."""
    p, q = _times(lo, c), _times(hi, c)
    if p > q:
        p, q = q, p
    if not p <= q:
        raise _Unbounded
    return (p, q) if exact or _exact_scale(lo, hi) else (_dn(p), _up(q))


def _plus_zero(lo: float, hi: float):
    """``_add(lo, hi, 0.0, 0.0)`` for bounds that are not NaN: exact sums,
    but an infinite bound's error test fails, so it rounds outward (+inf as a
    lower bound to the largest float, -inf as an upper one to its negative)."""
    return lo + 0.0 if lo != _INF else _MAX, hi + 0.0 if hi != -_INF else -_MAX


def extend_expression(node: Node) -> Callable:
    """The interval extension of an AST: ``ext(a, b)`` is an ``Enclosure`` of
    the expression and its derivative over [a, b], or None where the
    extension cannot bound them.  Bounds are rigorous for the real function
    with the folded constants of ``compile_expression``."""
    return _extension(_compile_tree(node).ext)


def _extension(run: Callable) -> Callable:
    def ext(a: float, b: float) -> Enclosure | None:
        try:
            lo, hi, slope_lo, slope_hi = run(float(a), float(b))
        except (_Unbounded, ArithmeticError, ValueError):  # overflow, math domain errors
            return None
        if not (math.isfinite(lo) and math.isfinite(hi) and slope_lo <= slope_hi):
            return None
        return Enclosure(lo, hi, slope_lo, slope_hi)

    return ext


# -- derivative ------------------------------------------------------------------
#
# Built on demand by ``_op``: constants fold as in ``compile_expression``, + 0,
# * 1 and * 0 drop, (c*w)^r = c^r*w^r (c > 0) and (w^p)^r = w^(p*r) (p not
# integral or r integral), so the derivative of (c*x^p)^r is bounded at 0 for
# p*r >= 1.  A p*r that only its rounding makes integral is moved off it.


def _op(op: str, u: Node, v: Node) -> Node:
    a, b = (n.value if isinstance(n, Num) else None for n in (u, v))
    if a is not None and b is not None:
        with np.errstate(all="ignore"):
            return Num(float((np.power if op == "^" else _BINARY[op])(a, b)))
    if op in "+-" and b == 0.0 or op in "*/^" and b == 1.0:
        return u
    if op == "+" and a == 0.0 or op == "*" and a == 1.0:
        return v
    if op in "*/" and a == 0.0 or op == "*" and b == 0.0:
        return Num(0.0)
    if op == "^" and b is not None and isinstance(u, BinOp):
        c, p = (n.value if isinstance(n, Num) else None for n in (u.left, u.right))
        if u.op == "*" and c is not None and 0.0 < (scale := _op("^", u.left, v).value) < _INF:
            return _op("*", Num(scale), _op("^", u.right, v))  # (c*w)^r = c^r*w^r
        if u.op == "^" and p is not None and math.isfinite(e := p * b) \
                and (_integer(b) or not _integer(p)):  # (w^p)^r = w^(p*r)
            (pn, pd), (bn, bd) = p.as_integer_ratio(), b.as_integer_ratio()
            if e == math.floor(e) and (gap := pn * bn - int(e) * pd * bd):  # (p*r - e)*pd*bd
                e = math.nextafter(e, math.copysign(_INF, gap))
            return _op("^", u.left, Num(e))
    return BinOp(op, u, v)


_CALL_DERIVATIVES = {  # f'(u) for the functions of the DSL but abs
    "sin": lambda u: Call("cos", (u,)), "exp": lambda u: Call("exp", (u,)),
    "cos": lambda u: _op("-", Num(0.0), Call("sin", (u,))), "log": lambda u: _op("/", Num(1.0), u),
    "sqrt": lambda u: _op("/", Num(0.5), Call("sqrt", (u,)))}


def _fold_and_derive(node: Node) -> tuple[Node, Node]:
    """``node`` rebuilt by ``_op``, and its derivative; KeyError at abs."""
    if isinstance(node, (Num, Var)):
        return node, Num(1.0 if isinstance(node, Var) else 0.0)
    if isinstance(node, Call) and node.func != "pow":
        u, du = _fold_and_derive(node.args[0])
        return Call(node.func, (u,)), _op("*", _CALL_DERIVATIVES[node.func](u), du)
    op, left, right = ("-", Num(0.0), node.operand) if isinstance(node, Unary) else \
        ("^", *node.args) if isinstance(node, Call) else (node.op, node.left, node.right)
    (u, du), (v, dv) = _fold_and_derive(left), _fold_and_derive(right)
    g = _op(op, u, v)
    if op in "+-":
        return g, _op(op, du, dv)
    if op == "*":
        return g, _op("+", _op("*", du, v), _op("*", u, dv))
    if op == "/":  # u'/v - (u/v)*v'/v
        return g, _op("-", _op("/", du, v), _op("/", _op("*", g, dv), v))
    if g != BinOp(op, u, v):  # a folded power
        return _fold_and_derive(g)
    if dv == Num(0.0):  # c*u^(c-1)*u'
        return g, _op("*", _op("*", v, _op("^", u, _op("-", v, Num(1.0)))), du)
    return g, _op("*", g, _op("+", _op("*", dv, Call("log", (u,))), _op("/", _op("*", v, du), u)))


def derivative(node: Node) -> Node | None:
    """The derivative of ``node`` in x as a tree, or None if it holds abs."""
    try:
        return _fold_and_derive(node)[1]
    except KeyError:
        return None


#: Points of the domain grid on which ``function_from_expression`` evaluates
#: an expression that its interval extension cannot bound.
CHECK_POINTS = 2049


def function_from_expression(src: str, domain: RealInterval) -> ScalarFunction:
    """Parse source into a ScalarFunction with a certified monotonicity hint.

    One call of the interval extension over the domain gives the hint: the
    direction it proves (a constant counts as increasing), else ``UNKNOWN``.
    The extension is kept on the function, so the integral can certify
    pieces of it.  Where the extension bounds the expression on the whole
    domain, every point of it is evaluable; elsewhere the expression is
    evaluated on a ``CHECK_POINTS``-point grid of the domain.  A degenerate
    domain counts as increasing and is not checked.  The tree is compiled, never
    printed (``to_source``).  Raises ``ExprSyntaxError`` for bad source and
    ``EvalError`` if that grid evaluation fails.
    """
    ast = parse_expression(src)
    code = _compile_tree(ast)
    ev, ext = _evaluator(code), _extension(code.ext)
    hint = Monotonicity.INCREASING  # a point: nothing to certify or check
    if domain.length() > 0.0:
        enclosure = ext(domain.lo, domain.hi)
        if enclosure is None:
            ev(domain.grid(CHECK_POINTS))
            hint = Monotonicity.UNKNOWN
        else:
            hint = enclosure.direction()
    return ScalarFunction(domain=domain, evaluate=ev, monotonicity=hint, extension=ext)
