import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect.payoff import (
    Binary,
    Call,
    Const,
    Neg,
    PayoffEvalError,
    PayoffSyntaxError,
    Pow,
    Var,
    arity,
    eval_expr,
    parse,
    to_str,
)


# --- parsing and evaluation ---------------------------------------------------


@pytest.mark.parametrize(
    "text, args, expected",
    [
        ("x1^2 + 3*x1 - 1", [2.0], 9.0),
        ("abs(x1)", [-3.5], 3.5),
        ("max(x1 - 0.5, 0)", [0.2], 0.0),
        ("max(x1 - 0.5, 0)", [1.2], 0.7),
        ("min(x1, 2, x2)", [5.0, 1.0], 1.0),
        ("pow(x1, 3)", [-2.0], -8.0),
        ("-x1^2", [3.0], -9.0),  # unary minus binds looser than the power
        ("(x1 + x2) * (x1 - x2)", [3.0, 1.0], 8.0),
        ("2 * x1 / 4", [6.0], 3.0),
        ("1 - 2 - 3", [0.0], -4.0),  # left associativity
        ("1.5e2", [0.0], 150.0),
    ],
)
def test_parse_eval(text, args, expected):
    assert eval_expr(parse(text), args) == pytest.approx(expected)


def test_eval_is_elementwise():
    phi = parse("max(x1 - 0.5, 0) + abs(x2)")
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([-1.0, 0.0, 1.0])
    out = eval_expr(phi, [x, y])
    np.testing.assert_allclose(out, [1.0, 0.5, 2.5])


def test_division_by_zero_raises():
    with pytest.raises(PayoffEvalError):
        eval_expr(parse("x1 / x2"), [1.0, 0.0])
    with pytest.raises(PayoffEvalError):
        eval_expr(parse("x1 / x2"), [np.ones(3), np.array([1.0, 0.0, 2.0])])


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x1 +", "x0", "foo(x1)", "max(x1)", "pow(x1, -1)",
     "pow(x1, 0.5)", "x1 ^ -2", "x1 ^ x2", "(x1", "x1 x2", "abs(x1, x2)",
     "1 @ 2"],
)
def test_syntax_errors(text):
    with pytest.raises(PayoffSyntaxError):
        parse(text)


def test_syntax_error_carries_position():
    with pytest.raises(PayoffSyntaxError) as exc:
        parse("x1 + foo")
    assert exc.value.pos == 5
    assert "position 5" in str(exc.value)


def test_exp_gated():
    with pytest.raises(PayoffSyntaxError):
        parse("exp(x1)")
    with pytest.warns(UserWarning):
        phi = parse("exp(x1)", allow_exp=True)
    assert eval_expr(phi, [0.0]) == pytest.approx(1.0)


def test_arity():
    assert arity(parse("3")) == 0
    assert arity(parse("x1 + 1")) == 1
    assert arity(parse("abs(x3) * x1")) == 3


def test_eval_missing_variable_raises():
    with pytest.raises(IndexError):
        eval_expr(parse("x2"), [1.0])


# --- printer round trip --------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["x1^2 + 3*x1 - 1", "max(x1 - 0.5, 0)", "-(x1^2)", "abs(x2 - x1) + x1^2",
     "(x1 + x2)^3", "min(x2, 2)", "x1 * (x2 + 1) / 2"],
)
def test_roundtrip_corpus(text):
    phi = parse(text)
    assert parse(to_str(phi)) == phi


def _exprs(max_vars=3):
    leaves = st.one_of(
        st.integers(0, 9).map(lambda v: Const(float(v))),
        st.integers(1, max_vars).map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Binary(*t)
            ),
            st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(*t)),
            children.map(lambda e: Call("abs", (e,))),
            st.tuples(children, children).map(lambda t: Call("max", t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(_exprs())
def test_roundtrip_random_trees(expr):
    assert parse(to_str(expr)) == expr
