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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .measure import Monotonicity, RealInterval, ScalarFunction, follows

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
    "detect_monotonicity",
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


# -- tokenizer ---------------------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | one of +-*/^(), | "end"
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(src, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(src, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(i, ("a number", "a name", "an operator"), found=repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.offset, (f"'{kind}'",), found=repr(tok.text))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(tok.offset, ("an operator", "end of input"), found=repr(tok.text))
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "-":
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        tok.offset, (f"{arity} argument(s) to {tok.text}",), found=f"{len(args)}"
                    )
                return Call(tok.text, tuple(args))
            raise ExprSyntaxError(
                tok.offset, ("'x'",) + tuple(sorted(FUNCTIONS)), found=repr(tok.text)
            )
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(
            tok.offset, ("a number", "'x'", "a function", "'('"), found=repr(tok.text) if tok.text else ""
        )


def parse_expression(src: str) -> Node:
    """Parse source text into an AST; raises ``ExprSyntaxError`` with offset."""
    if not src or not src.strip():
        raise ExprSyntaxError(0, ("a non-empty expression",))
    return _Parser(src).parse()


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
    value: np.float64 | None = None  # the folded value of a subtree without x
    xfree: bool = False  # no x below: the subtree is folded
    owned: bool = False  # run returns a new array for array x


def _const(value) -> _Code:
    return _Code(lambda x: value, value=value, xfree=True)


def _raiser(message: str) -> _Code:
    def run(x):
        raise EvalError(message)

    return _Code(run, xfree=True)


def _check(test, message: str):
    """A domain check raising ``EvalError(message)`` where ``test`` holds anywhere."""

    def check(*vals):
        if test(*vals).any():
            raise EvalError(message)

    return check


def _fractional_power_of_negative(base, exponent):
    neg = base < 0
    if np.any(neg) and np.any(neg & (exponent != np.floor(exponent))):
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


def _apply(ufunc, args: tuple[_Code, ...], checks=()) -> _Code:
    """``ufunc`` over the operands, after the domain checks, into the first
    owned array operand if there is one."""
    runs = [a.run for a in args]
    owned = [i for i, a in enumerate(args) if a.owned]
    into = owned[0] if owned else None

    def run(x):
        vals = [r(x) for r in runs]
        for check in checks:
            check(*vals)
        if into is not None and type(vals[into]) is np.ndarray:
            return ufunc(*vals, out=vals[into])
        return ufunc(*vals)

    return _Code(run, None, all([a.xfree for a in args]), True)


def _power(base: _Code, exponent: _Code) -> _Code:
    checks = []
    if _may(base, lambda b: b == 0) and _may(exponent, lambda e: e < 0):
        checks.append(_ZERO_TO_NEGATIVE)
    if _may(base, lambda b: b < 0) and _may(exponent, lambda e: e != np.floor(e)):
        checks.append(_fractional_power_of_negative)
    return _apply(np.power, (base, exponent), tuple(checks))


def _compile(node: Node) -> _Code:
    if isinstance(node, Num):
        return _const(np.float64(node.value))
    if isinstance(node, Var):
        return _Code(lambda x: x)
    if isinstance(node, Unary):
        code = _apply(np.negative, (_compile(node.operand),))
    elif isinstance(node, BinOp):
        left, right = _compile(node.left), _compile(node.right)
        if node.op == "^":
            code = _power(left, right)
        else:
            divides = node.op == "/" and _may(right, lambda v: v == 0)
            code = _apply(_BINARY[node.op], (left, right), (_ZERO_DIVISOR,) if divides else ())
    else:
        assert isinstance(node, Call)
        args = tuple(_compile(a) for a in node.args)
        if node.func == "pow":
            code = _power(*args)
        else:
            check = _DOMAIN.get(node.func)
            code = _apply(_CALLS[node.func], args, (check,) if check else ())
    if not code.xfree:
        return code
    try:
        return _const(code.run(np.float64(0.0)))  # under compile_expression's errstate
    except EvalError as exc:
        return _raiser(str(exc))


def compile_expression(node: Node) -> Callable:
    """Compile an AST into ``ev(x)`` for a float or numpy array.

    ``ev`` returns a float for a scalar and an array of x's shape otherwise,
    and raises ``EvalError`` where the expression is not evaluable,
    including any non-finite result.  It never writes into x.
    """
    with np.errstate(all="ignore"):
        run, _, _, fresh = _compile(node)

    def ev(x):
        scalar = np.ndim(x) == 0
        arr = np.float64(x) if scalar else np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = run(arr)
        if not (fresh and type(out) is np.ndarray):  # x itself or a constant: a read-only view
            out = np.broadcast_to(np.asarray(out, dtype=float), np.shape(arr))
        if not np.isfinite(out).all():
            raise EvalError("expression produced a non-finite value (overflow?)")
        return float(out) if scalar else out

    return ev


def evaluate(node: Node, x):
    """Evaluate at a float or numpy array; result broadcasts to x's shape."""
    return compile_expression(node)(x)


def detect_monotonicity(ev, domain: RealInterval, n: int = 2049) -> Monotonicity:
    """Classify by dense sampling; ties (constants) count as increasing."""
    if domain.length() == 0.0:
        return Monotonicity.INCREASING
    ys = np.asarray(ev(domain.grid(n)), dtype=float)
    for mono in (Monotonicity.INCREASING, Monotonicity.DECREASING):
        if follows(ys, mono):
            return mono
    return Monotonicity.UNKNOWN


def function_from_expression(
    src: str, domain: RealInterval, name: str | None = None
) -> ScalarFunction:
    """Parse source into a ScalarFunction with a sampled monotonicity hint.

    Raises ``ExprSyntaxError`` for bad source and ``EvalError`` if the
    expression is not evaluable across the declared domain.
    """
    ast = parse_expression(src)
    ev = compile_expression(ast)
    hint = detect_monotonicity(ev, domain)
    return ScalarFunction(domain=domain, evaluate=ev, monotonicity=hint, name=name or to_source(ast))
