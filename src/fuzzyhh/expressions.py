"""A small arithmetic DSL for defining integrands on the command line.

Grammar (standard precedence; ^ binds tightest and associates right, then
unary minus, then * and /, then + and -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, abs, pow(base, exponent).
Evaluation accepts floats and numpy arrays and is total on the declared
domain or raises ``EvalError`` (log of a non-positive value, division by
zero, fractional powers of negatives, overflow).  ``to_source`` prints a
normal form that reparses to the identical tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


def _safe_pow(base, exponent):
    if np.any((base == 0) & (exponent < 0)):
        raise EvalError("zero raised to a negative power")
    if np.any(base < 0):
        frac = exponent != np.floor(exponent)
        if np.any((base < 0) & frac):
            raise EvalError("negative base raised to a fractional power")
    return np.power(base, exponent)


def _ev(node: Node, x):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        return -_ev(node.operand, x)
    if isinstance(node, BinOp):
        left = _ev(node.left, x)
        right = _ev(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if np.any(right == 0):
                raise EvalError("division by zero")
            return left / right
        return _safe_pow(left, right)
    assert isinstance(node, Call)
    args = [_ev(a, x) for a in node.args]
    if node.func == "sin":
        return np.sin(args[0])
    if node.func == "cos":
        return np.cos(args[0])
    if node.func == "exp":
        return np.exp(args[0])
    if node.func == "log":
        if np.any(args[0] <= 0):
            raise EvalError("log of a non-positive value")
        return np.log(args[0])
    if node.func == "sqrt":
        if np.any(args[0] < 0):
            raise EvalError("sqrt of a negative value")
        return np.sqrt(args[0])
    if node.func == "abs":
        return np.abs(args[0])
    return _safe_pow(args[0], args[1])


def evaluate(node: Node, x):
    """Evaluate at a float or numpy array; result broadcasts to x's shape."""
    scalar = np.ndim(x) == 0
    arr = np.float64(x) if scalar else np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _ev(node, arr)
    out = np.broadcast_to(np.asarray(out, dtype=float), np.shape(arr))
    if not np.all(np.isfinite(out)):
        raise EvalError("expression produced a non-finite value (overflow?)")
    return float(out) if scalar else out


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

    def ev(x):
        return evaluate(ast, x)

    hint = detect_monotonicity(ev, domain)
    return ScalarFunction(domain=domain, evaluate=ev, monotonicity=hint, name=name or to_source(ast))
