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
from fuzzyhh.expressions import detect_monotonicity, function_from_expression


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
    def test_increasing(self):
        assert detect_monotonicity(
            lambda x: np.asarray(x) ** 2, RealInterval(0.0, 1.0)
        ) is Monotonicity.INCREASING

    def test_decreasing(self):
        assert detect_monotonicity(
            lambda x: 1.0 - np.asarray(x), RealInterval(0.0, 1.0)
        ) is Monotonicity.DECREASING

    def test_constant_counts_as_increasing(self):
        f = function_from_expression("0.3", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.INCREASING

    def test_non_monotone(self):
        f = function_from_expression("sin(3.14159265*x)", RealInterval(0.0, 1.0))
        assert f.monotonicity is Monotonicity.UNKNOWN
