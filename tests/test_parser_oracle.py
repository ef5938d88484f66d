"""The DSL parser against a kept copy of its character-by-character tokenizer
and token-object parser: the same tree, or the same ``ExprSyntaxError``
(offset, expected set, found text and message), on seeded valid and
malformed sources."""

import random
import re
from dataclasses import dataclass

import pytest

from fuzzyhh.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    ExprSyntaxError,
    Num,
    Unary,
    Var,
    parse_expression,
)

# -- the oracle: the tokenizer and parser as first written ---------------------

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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(tok.offset, ("an operator", "end of input"), found=repr(tok.text))
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
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


def oracle_parse(src: str):
    if not src or not src.strip():
        raise ExprSyntaxError(0, ("a non-empty expression",))
    return _Parser(src).parse()


def _outcome(parse, src):
    try:
        return ("tree", parse(src))
    except ExprSyntaxError as exc:
        return ("syntax", exc.offset, exc.expected, exc.found, str(exc))
    except Exception as exc:  # noqa: BLE001 - any other failure must match too
        return (type(exc).__name__, str(exc))


# -- seeded sources --------------------------------------------------------------

_SPACES = (" ", " ", "  ", "\t", "\n", "\r\n", "\xa0", "\u2003", "\u3000", "\x0b", "\x1c")
_DIGITS = "0123456789"
_UNICODE_DIGITS = "\u0663\u0967\uff17\u09ea"  # Arabic-Indic 3, Devanagari 1, fullwidth 7, Bengali 4


def _gap(rng):
    return "" if rng.random() < 0.45 else rng.choice(_SPACES)


def _number(rng):
    whole = "".join(rng.choice(_DIGITS) for _ in range(rng.randint(1, 4)))
    frac = "".join(rng.choice(_DIGITS) for _ in range(rng.randint(0, 6)))
    shape = rng.randrange(6)
    text = {0: whole, 1: f"{whole}.{frac}", 2: f".{frac or '5'}", 3: f"{whole}.",
            4: f"{whole}.{frac}", 5: repr(rng.uniform(0.0, 10.0))}[shape]
    if rng.random() < 0.3:
        text += rng.choice("eE") + rng.choice(["", "+", "-"]) + str(rng.randint(0, 320))
    if rng.random() < 0.03:
        text = rng.choice(_UNICODE_DIGITS) + text
    return text


def _source(rng, depth=0):
    """A valid source: every production of the grammar, with random gaps."""
    g = lambda: _gap(rng)  # noqa: E731
    roll = rng.random() if depth < 4 else rng.random() * 0.35
    if roll < 0.2:
        return _number(rng)
    if roll < 0.35:
        return "x"
    if roll < 0.5:
        return f"({g()}{_source(rng, depth + 1)}{g()})"
    if roll < 0.6:
        return f"-{g()}{_source(rng, depth + 1)}"
    if roll < 0.75:
        func = rng.choice(sorted(FUNCTIONS))
        args = [_source(rng, depth + 1) for _ in range(FUNCTIONS[func])]
        return f"{func}{g()}({g()}{f'{g()},{g()}'.join(args)}{g()})"
    op = rng.choice("+-*/^")
    return f"{_source(rng, depth + 1)}{g()}{op}{g()}{_source(rng, depth + 1)}"


def _valid_sources(n, seed):
    rng = random.Random(seed)
    return [_gap(rng) + _source(rng) + _gap(rng) for _ in range(n)]


_BAD_CHARS = ("$", "#", "@", "!", "[", "]", "=", ".", "\xe9", "\u03c0", "\u2212", "\U0001f600", "X")


def _malformed(rng, src):
    """One defect put into a valid source at a random place."""
    i = rng.randint(0, len(src))
    kind = rng.randrange(9)
    if kind == 0:  # a bad character
        return src[:i] + rng.choice(_BAD_CHARS) + src[i:]
    if kind == 1:  # a parenthesis too many or too few
        return src[:i] + rng.choice("()") + src[i:]
    if kind == 2 and "(" in src:
        j = src.index("(")
        return src[:j] + src[j + 1:]
    if kind == 3:  # a trailing token
        return src + _gap(rng) + rng.choice(["x", "1", "(", ")", ",", "sin", "2x", "e5"])
    if kind == 4:  # a dangling operator
        return src[:i] + rng.choice("+*/^,") + src[i:]
    if kind == 5:  # a function with the wrong number of arguments
        func = rng.choice(sorted(FUNCTIONS))
        args = ", ".join("x" for _ in range(rng.choice([0, 1, 2, 3])))
        return f"{src} + {func}({args})"
    if kind == 6:  # an unknown name
        return src[:i] + rng.choice(["y", "e", "pi", "sinh", "_", "x1", "Sin"]) + src[i:]
    if kind == 7:  # a cut
        return src[:i]
    return src[:i] + rng.choice(["1e", "1e+", ".", "..", "1.2.3", "\u0663"]) + src[i:]


_EDGE_SOURCES = [
    "", " ", "\t\n", "\xa0", "\u3000\u2003 ", "1e", ".", "1.", "..", "x x", "sin", "sin(",
    "sin()", "sin(x,)", "pow(1)", "pow(1, 2, 3)", "foo(x)", "(", ")", "()", "1+", "+1", "--x",
    "x^", "^x", "1,2", "\u0663", "x\u0663", "1 $", "1e5e", "e", "_", "x_1", "X", "1e-",
    "(x))", "((x)", "sin x", "x^^2", "2**3", "1 2", "x\u2212 1", "pow(x 2)", "abs(,x)",
    "log(x", "sqrt)x(", "1.e", ".e1", "x" + " " * 50, " " * 50 + "$",
]


def test_the_oracle_sees_every_outcome():
    outcomes = [_outcome(oracle_parse, s) for s in _valid_sources(400, 3)]
    assert all(o[0] == "tree" for o in outcomes)
    rng = random.Random(4)
    bad = [_outcome(oracle_parse, _malformed(rng, s)) for s in _valid_sources(400, 5)]
    expected = {o[2] for o in bad if o[0] == "syntax"}
    assert len(expected) >= 6  # bad characters, parentheses, arity, names, trailing, atoms


@pytest.mark.parametrize("seed", [11, 12])
def test_valid_sources_give_the_oracles_trees(seed):
    for src in _valid_sources(1200, seed):
        want = _outcome(oracle_parse, src)
        assert want[0] == "tree", src
        assert _outcome(parse_expression, src) == want, src


@pytest.mark.parametrize("seed", [21, 22])
def test_malformed_sources_give_the_oracles_errors(seed):
    rng = random.Random(seed)
    for src in _valid_sources(1200, seed + 100):
        bad = _malformed(rng, src)
        assert _outcome(parse_expression, bad) == _outcome(oracle_parse, bad), bad


@pytest.mark.parametrize("src", _EDGE_SOURCES)
def test_edge_sources_give_the_oracles_outcomes(src):
    assert _outcome(parse_expression, src) == _outcome(oracle_parse, src)
