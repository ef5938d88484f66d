import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhh.expressions import (
    BinOp,
    Call,
    EvalError,
    ExprSyntaxError,
    Num,
    Unary,
    Var,
    compile_expression,
    evaluate,
    parse_expression,
    to_source,
)
from fuzzyhh.measure import Monotonicity, RealInterval
from fuzzyhh.expressions import function_from_expression


def ev(src, x):
    return evaluate(parse_expression(src), x)


class TestParsing:
    def test_basic_values(self):
        assert ev("x^4/2", 0.5) == pytest.approx(0.03125)
        assert ev("3*x^2", 1.0) == pytest.approx(3.0)
        assert ev("x^2/2", 1.0) == pytest.approx(0.5)

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("(1-x")
        assert err.value.offset == 4

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("foo(x)")
        assert err.value.offset == 0

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("x + 1 )")
        assert err.value.offset == 6

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("   ")

    def test_precedence(self):
        assert ev("1-2-3", 0.0) == -4.0  # left associative
        assert ev("6/3/2", 0.0) == 1.0
        assert ev("2+3*4", 0.0) == 14.0
        assert ev("2^3^2", 0.0) == 512.0  # right associative
        assert ev("-x^2", 2.0) == -4.0  # power binds tighter than unary minus
        assert ev("2^-1", 0.0) == 0.5
        assert ev("2*-3", 0.0) == -6.0

    def test_functions(self):
        assert ev("sin(x)", math.pi / 2) == pytest.approx(1.0)
        assert ev("cos(0)", 0.0) == 1.0
        assert ev("exp(0)", 0.0) == 1.0
        assert ev("log(exp(1))", 0.0) == pytest.approx(1.0)
        assert ev("sqrt(x)", 4.0) == 2.0
        assert ev("abs(0-x)", 3.0) == 3.0
        assert ev("pow(x, 3)", 2.0) == 8.0

    def test_function_arity_checked(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("pow(x)")
        with pytest.raises(ExprSyntaxError):
            parse_expression("sin(x, 1)")

    def test_scientific_notation(self):
        assert ev("1e-2 + x", 0.0) == pytest.approx(0.01)


class TestEvaluation:
    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/x", 0.0)
        with pytest.raises(EvalError):
            ev("1/(x-0.5)", np.linspace(0.0, 1.0, 3))  # hits 0.5

    def test_log_domain(self):
        with pytest.raises(EvalError):
            ev("log(x)", 0.0)
        with pytest.raises(EvalError):
            ev("log(x-1)", 0.5)

    def test_sqrt_domain(self):
        with pytest.raises(EvalError):
            ev("sqrt(x-1)", 0.0)

    def test_power_domain(self):
        with pytest.raises(EvalError):
            ev("x^-1", 0.0)  # zero to a negative power
        with pytest.raises(EvalError):
            ev("(0-2)^0.5", 1.0)  # fractional power of a negative
        assert ev("(0-2)^3", 1.0) == -8.0  # integral powers of negatives are fine

    def test_overflow_is_reported(self):
        with pytest.raises(EvalError):
            ev("exp(x)", 1000.0)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 101)
        tree = parse_expression("sin(3.14159265*x) + x^2/2")
        vec = evaluate(tree, xs)
        scalars = np.array([evaluate(tree, float(x)) for x in xs])
        assert np.allclose(vec, scalars, atol=0.0)

    def test_constant_broadcasts_to_input_shape(self):
        out = ev("0.3", np.zeros(5))
        assert out.shape == (5,)
        assert np.all(out == 0.3)


# strategy for ASTs already in printed normal form (non-negative literals)
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=9.0, allow_nan=False)),
    st.builds(Num, st.integers(min_value=0, max_value=9).map(float)),
    st.just(Var()),
)


def _nodes(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(Unary, st.just("-"), children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "abs"]), st.tuples(children)),
        st.builds(Call, st.just("pow"), st.tuples(children, children)),
    )


_ast = st.recursive(_leaf, _nodes, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(tree=_ast)
def test_print_parse_round_trip(tree):
    assert parse_expression(to_source(tree)) == tree


# -- the compiler against a plain tree walk ------------------------------------


def _ref_pow(base, exponent):
    if np.any((base == 0) & (exponent < 0)):
        raise EvalError("zero raised to a negative power")
    if np.any((base < 0) & (exponent != np.floor(exponent))):
        raise EvalError("negative base raised to a fractional power")
    return np.power(base, exponent)


def _ref_walk(node, x):
    """Every node evaluated on every call, every domain check kept."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        return -_ref_walk(node.operand, x)
    if isinstance(node, BinOp):
        left, right = _ref_walk(node.left, x), _ref_walk(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "^":
            return _ref_pow(left, right)
        if np.any(right == 0):
            raise EvalError("division by zero")
        return left / right
    args = [_ref_walk(a, x) for a in node.args]
    if node.func == "pow":
        return _ref_pow(*args)
    if node.func == "log" and np.any(args[0] <= 0):
        raise EvalError("log of a non-positive value")
    if node.func == "sqrt" and np.any(args[0] < 0):
        raise EvalError("sqrt of a negative value")
    return getattr(np, node.func)(args[0])


def reference_evaluate(node, x):
    scalar = np.ndim(x) == 0
    arr = np.float64(x) if scalar else np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = np.broadcast_to(np.asarray(_ref_walk(node, arr), dtype=float), np.shape(arr))
    if not np.all(np.isfinite(out)):
        raise EvalError("expression produced a non-finite value (overflow?)")
    return float(out) if scalar else out


def _outcome(fn, x):
    try:
        out = fn(x)
    except EvalError as exc:
        return ("EvalError", str(exc))
    return (type(out).__name__, np.shape(out), np.asarray(out).tobytes())


# literals of either sign (through unary minus), zero included, and every function
_any_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
    st.builds(Num, st.integers(min_value=0, max_value=3).map(float)),
    st.just(Var()),
    st.just(Var()),  # twice: half the leaves are x
)


def _any_nodes(children):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(Unary, st.just("-"), children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]),
                  st.tuples(children)),
        st.builds(Call, st.just("pow"), st.tuples(children, children)),
    )


_any_ast = st.recursive(_any_leaf, _any_nodes, max_leaves=10)
_XS = (np.linspace(-2.0, 3.0, 51), np.linspace(0.05, 2.0, 40), np.array([0.0, 0.5, 1.0]))


@settings(max_examples=400, deadline=None)
@given(tree=_any_ast, x=st.floats(min_value=-3.0, max_value=3.0))
def test_compiled_matches_the_tree_walk_bit_for_bit(tree, x):
    compiled = compile_expression(tree)
    for xs in _XS:
        before = xs.copy()
        assert _outcome(compiled, xs) == _outcome(lambda v: reference_evaluate(tree, v), xs)
        assert np.array_equal(xs, before)  # never written through x
    for v in (x, 0.0, 1.0):
        assert _outcome(compiled, v) == _outcome(lambda u: reference_evaluate(tree, u), v)
    assert _outcome(lambda v: evaluate(tree, v), _XS[0]) == _outcome(compiled, _XS[0])


@pytest.mark.parametrize("src, x, message", [
    ("1/(x - 0.5)", np.linspace(0.0, 1.0, 5), "division by zero"),
    ("1/(1 - 1)", 0.3, "division by zero"),
    ("log(x - 1)", np.linspace(0.0, 2.0, 5), "log of a non-positive value"),
    ("log(0 - 2) + x", 0.3, "log of a non-positive value"),
    ("sqrt(x - 1)", np.linspace(0.0, 2.0, 5), "sqrt of a negative value"),
    ("0^-1 + x", 0.3, "zero raised to a negative power"),
    ("x^-1", np.linspace(0.0, 1.0, 5), "zero raised to a negative power"),
    ("(x - 1)^0.5", np.linspace(0.0, 2.0, 5), "negative base raised to a fractional power"),
    ("(0 - 2)^x", np.linspace(0.0, 1.0, 5), "negative base raised to a fractional power"),
    ("exp(1000*x)", np.linspace(0.0, 1.0, 5), "non-finite value"),
    ("0*exp(1000) + x", 0.3, "non-finite value"),
])
def test_domain_errors_keep_their_messages(src, x, message):
    tree = parse_expression(src)
    compiled = compile_expression(tree)  # a bad constant subtree is not an error yet
    with pytest.raises(EvalError, match=message) as got:
        compiled(x)
    with pytest.raises(EvalError) as want:
        reference_evaluate(tree, x)
    assert str(got.value) == str(want.value)


def test_errors_surface_in_tree_order():
    # the left operand's domain error comes before a constant right one's
    tree = parse_expression("log(x - 2) + 1/0")
    with pytest.raises(EvalError, match="log"):
        evaluate(tree, 0.0)
    with pytest.raises(EvalError, match="division"):
        evaluate(tree, 3.0)


def test_result_never_aliases_the_input():
    xs = np.linspace(0.0, 1.0, 11)
    for src in ("x", "0.3", "x^2", "-x"):
        out = evaluate(parse_expression(src), xs)
        assert not np.shares_memory(out, xs) or not out.flags.writeable


class TestMonotonicityDetection:
    """The hint is the direction the interval extension proves over the domain."""

    def test_increasing(self):
        f = function_from_expression("x^2", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.INCREASING and f.hint == "certified"
        assert f.extension(0.0, 1.0).slope_lo == 0.0  # exact at x = 0, not an ulp below

    def test_decreasing(self):
        f = function_from_expression("1 - x", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.DECREASING and f.hint == "certified"

    def test_constant_counts_as_increasing(self):
        f = function_from_expression("0.3", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.INCREASING

    def test_non_monotone(self):
        f = function_from_expression("sin(3.14159265*x)", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.UNKNOWN


# -- the interval extension ------------------------------------------------------

from fractions import Fraction

from fuzzyhh.expressions import extend_expression
from fuzzyhh.measure import follows
from test_sugeno import _random_source


def _enclosure(src, a, b):
    return extend_expression(parse_expression(src))(a, b)


class TestIntervalExtension:
    def test_random_expressions_enclose_a_dense_sample(self):
        """On random sub-intervals the value bounds hold every sampled value,
        and a certified direction is never contradicted by a 1e5-point sample
        beyond the ``follows`` slack."""
        rng = np.random.default_rng(2024)
        bounded = certified = 0
        for seed in range(150):
            src = _random_source(np.random.default_rng(seed))
            tree = parse_expression(src)
            ext, ev_ = extend_expression(tree), compile_expression(tree)
            for _ in range(4):
                a = rng.uniform(-2.0, 3.0)
                b = a + rng.uniform(0.0, 1.3) ** 3
                enc = ext(a, b)
                if enc is None:
                    continue
                ys = ev_(np.linspace(a, b, 100_001))  # bounded: evaluable throughout
                bounded += 1
                assert enc.lo <= ys.min() and ys.max() <= enc.hi, (src, a, b)
                direction = enc.direction()
                if direction is not Monotonicity.UNKNOWN:
                    certified += 1
                    assert follows(ys, direction), (src, a, b)
        assert bounded > 300 and certified > 200

    @pytest.mark.parametrize("src", [
        "x*x*x - 0.1*x + 0.3", "(x + 0.1)*(x - 0.7)/(x + 3)", "0.1 + 0.2*x - x*x/7",
        "(0.3 - x)*(0.3 - x)*(0.3 - x)", "x^3 - 0.1*x^2", "1/(x + 0.3) - 0.7*x",
    ])
    def test_bounds_hold_the_exact_real_value(self, src):
        """At a point x the real value of the expression, computed exactly in
        rationals from the same float constants, lies within the bounds: the
        round-to-nearest result alone would miss it."""
        tree = parse_expression(src)
        ext = extend_expression(tree)
        rng = np.random.default_rng(7)
        strict = 0
        for x in rng.uniform(-1.0, 2.0, 50):
            exact = _exact(tree, Fraction(float(x)))
            enc = ext(x, x)
            assert Fraction(enc.lo) <= exact <= Fraction(enc.hi), (src, x)
            strict += Fraction(enc.lo) < exact < Fraction(enc.hi)
        assert strict > 40

    def test_plateaus_and_kinks_certify_exactly(self):
        box = "0.05 + 10*(abs(x - 0.2) - abs(x - 0.21) - abs(x - 0.7) + abs(x - 0.71))"
        ext = extend_expression(parse_expression(box))
        assert ext(0.3, 0.6)[2:] == (0.0, 0.0)  # flat top: exactly zero slope
        assert ext(0.0, 0.15)[2:] == (0.0, 0.0)
        assert ext(0.1, 0.205).direction() is Monotonicity.INCREASING  # one kink of the ramp
        assert ext(0.69, 0.705).direction() is Monotonicity.DECREASING
        assert ext(0.1, 0.3).direction() is Monotonicity.UNKNOWN  # two kinks: dependency
        tent = extend_expression(parse_expression("abs(x - 0.5)"))
        assert tent(0.5, 1.0).direction() is Monotonicity.INCREASING
        assert tent(0.0, 0.5).direction() is Monotonicity.DECREASING
        assert tent(0.4, 0.6)[2:] == (-1.0, 1.0)

    def test_trigonometric_extrema(self):
        enc = _enclosure("sin(x)", math.pi / 2 - 1e-3, math.pi / 2 + 1e-3)
        assert enc.hi == 1.0 and enc.lo < math.sin(math.pi / 2 - 1e-3)
        assert enc.slope_lo < 0.0 < enc.slope_hi
        enc = _enclosure("cos(x)", 3.0, 3.3)
        assert enc.lo == -1.0 and enc.slope_lo < 0.0 < enc.slope_hi
        assert _enclosure("sin(x)", 0.1, 1.5).direction() is Monotonicity.INCREASING
        assert _enclosure("cos(x)", 0.1, 3.0).direction() is Monotonicity.DECREASING
        assert _enclosure("sin(x)", 0.0, 7.0)[:2] == (-1.0, 1.0)

    def test_unbounded_operands_give_none(self):
        assert _enclosure("log(x)", 0.0, 1.0) is None
        assert _enclosure("sqrt(x - 0.5)", 0.0, 1.0) is None
        assert _enclosure("1/(x - 0.5)", 0.0, 1.0) is None
        assert _enclosure("x^(-1)", -1.0, 1.0) is None
        assert _enclosure("x^0.5", -0.1, 1.0) is None
        assert _enclosure("exp(x)", 0.0, 1000.0) is None
        assert _enclosure("log(0 - 1) + x", 0.0, 1.0) is None  # a constant that fails

    def test_infinite_slopes_still_certify(self):
        for src in ("sqrt(x)", "x^0.5", "pow(x, 1.5)"):
            enc = _enclosure(src, 0.0, 1.0)
            assert enc is not None and enc.direction() is Monotonicity.INCREASING, src
        assert _enclosure("x^x", 1.0, 2.0).direction() is Monotonicity.INCREASING
        assert _enclosure("sqrt(x)", 0.0, 1.0).slope_hi == math.inf
        assert _enclosure("(-2)^x", 0.0, 1.0) is None  # negative base, variable exponent
        assert _enclosure("(x - 2)^3", 0.0, 1.0).direction() is Monotonicity.INCREASING

    def test_builder_raises_where_the_grid_evaluation_does(self):
        """``function_from_expression`` raises EvalError, with the same text,
        exactly where evaluating the expression on 2049 points of the domain
        does: a finite enclosure proves every point evaluable."""
        rng = np.random.default_rng(11)
        raised = 0
        for seed in range(600):
            src = _random_source(np.random.default_rng(seed), depth=int(rng.integers(1, 5)))
            lo = float(rng.uniform(-2.0, 2.0))
            domain = RealInterval(lo, lo + float(rng.uniform(0.0, 3.0)) ** 2)
            try:
                compile_expression(parse_expression(src))(domain.grid(2049))
                want = None
            except EvalError as exc:
                want = str(exc)
                raised += 1
            try:
                function_from_expression(src, domain)
                got = None
            except EvalError as exc:
                got = str(exc)
            assert got == want, (src, domain)
        assert raised > 50

    def test_hint_comes_from_one_call_over_the_domain(self):
        f = function_from_expression("0.9 - 1.3*(x - 0.45)^2", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.UNKNOWN and f.hint == "unknown"
        assert f.extension is not None
        f = function_from_expression("0.9 - 1.3*(x - 0.45)^2", RealInterval(0.5, 1.0))
        assert f.monotonicity is Monotonicity.DECREASING and f.hint == "certified"
        f = function_from_expression("abs(x - 0.5)", RealInterval(0.5, 0.5))
        assert f.monotonicity is Monotonicity.INCREASING  # degenerate domain


def _exact(node, x: Fraction) -> Fraction:
    """Rational value of a + - * / and integer-power tree at x."""
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        return -_exact(node.operand, x)
    left, right = _exact(node.left, x), _exact(node.right, x)
    if node.op == "^":
        return left ** int(right)
    return {"+": left + right, "-": left - right, "*": left * right}.get(node.op) or left / right
