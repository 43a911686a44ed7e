"""Grammar, precedence, error reporting, and print/parse round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtwcheck.errors import ParseError
from mtwcheck.expressions import (MAX_DEPTH, BinOp, Call, Lit, Neg, Pow, Var, evaluate,
                                  parse_cost)


def test_neg_cosh():
    assert parse_cost("-cosh(z)") == Neg(Call("cosh", Var()))


def test_nested_call():
    expected = Neg(Call("log", BinOp("+", Lit(1.0), Call("cosh", Var()))))
    assert parse_cost("-log(1+cosh(z))") == expected


def test_quartic_parses_and_evaluates():
    expr = parse_cost("z^2/2 - 0.001*z^4")
    assert evaluate(expr, 1.0) == pytest.approx(0.499)


def test_power_binds_tighter_than_unary_minus():
    assert parse_cost("-z^2") == Neg(Pow(Var(), 2))
    assert evaluate(parse_cost("-z^2"), 3.0) == pytest.approx(-9.0)
    assert evaluate(parse_cost("(-z)^2"), 3.0) == pytest.approx(9.0)


def test_left_associativity():
    assert parse_cost("1-2-3") == BinOp("-", BinOp("-", Lit(1.0), Lit(2.0)), Lit(3.0))
    assert evaluate(parse_cost("8/4/2"), 0.0) == pytest.approx(1.0)


def test_whitespace_insignificant():
    assert parse_cost(" - cosh ( z ) ") == parse_cost("-cosh(z)")


def test_negative_integer_exponent():
    expr = parse_cost("z^-2")
    assert expr == Pow(Var(), -2)
    assert evaluate(expr, 2.0) == pytest.approx(0.25)


def test_parse_error_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse_cost("1 + $")
    assert err.value.offset == 4
    assert err.value.expected

    with pytest.raises(ParseError) as err:
        parse_cost("cosh(z")
    assert err.value.offset == 6
    assert ")" in err.value.expected


def test_text_after_a_complete_expression_rejected():
    with pytest.raises(ParseError) as err:
        parse_cost("z)")
    assert err.value.offset == 1
    assert err.value.expected == ("operator", "end of input")


def test_operator_without_right_operand_rejected():
    with pytest.raises(ParseError) as err:
        parse_cost("z+")
    assert err.value.offset == 2
    assert "unexpected end of input" in str(err.value)


def test_unknown_function_rejected():
    with pytest.raises(ParseError) as err:
        parse_cost("frob(z)")
    assert "cosh" in err.value.expected


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_cost("z^2.5")


def test_empty_expression_rejected():
    with pytest.raises(ParseError):
        parse_cost("   ")


def test_depth_beyond_the_limit_rejected():
    # a 500-term sum and z^2 in 300 parentheses would overflow Python's recursion
    for text in ("+".join(["z^2"] * 500), "(" * 300 + "z^2" + ")" * 300,
                 "+".join(["z^2"] * (MAX_DEPTH + 1)), "(" * MAX_DEPTH + "z^2" + ")" * MAX_DEPTH,
                 "-" * MAX_DEPTH + "(z)"):
        with pytest.raises(ParseError, match=f"expression nested deeper than {MAX_DEPTH} levels"):
            parse_cost(text)
    # at the limit: MAX_DEPTH - 1 additions over powers, or MAX_DEPTH - 1
    # parentheses, calls or minus signs around one
    for text, value in [("+".join(["z^2"] * MAX_DEPTH), MAX_DEPTH),
                        ("(" * (MAX_DEPTH - 1) + "z^2" + ")" * (MAX_DEPTH - 1), 1.0),
                        ("sqrt(" * (MAX_DEPTH - 1) + "z^2" + ")" * (MAX_DEPTH - 1), 1.0),
                        ("-" * MAX_DEPTH + "z", 1.0)]:
        assert evaluate(parse_cost(text), 1.0) == value


def test_evaluate_on_arrays():
    expr = parse_cost("-log(1+cosh(z))")
    z = np.linspace(0.0, 2.0, 7)
    assert np.allclose(evaluate(expr, z), -np.log(1.0 + np.cosh(z)))


_FUNCS = ("cosh", "sinh", "cos", "sin", "tan", "log", "exp", "sqrt",
          "atan", "asinh", "atanh")

_literals = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                      allow_infinity=False).map(Lit)


def _exprs():
    return st.recursive(
        st.one_of(_literals, st.just(Var())),
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: BinOp(*t)),
            st.tuples(sub, st.integers(min_value=-3, max_value=6)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(_FUNCS), sub).map(lambda t: Call(*t)),
        ),
        max_leaves=25,
    )


# Binding levels of the printer: + - 1, * / 2, unary minus 3, ^ 4, atoms 5.
def _level(expr):
    if isinstance(expr, BinOp):
        return 1 if expr.op in "+-" else 2
    return {Neg: 3, Pow: 4}.get(type(expr), 5)


def pretty(expr, context=0):
    """Parseable text of an AST, parenthesised where its level binds less
    than context asks; parse_cost(pretty(e)) == e."""
    level = _level(expr)
    if isinstance(expr, Lit):
        text = repr(expr.value)
    elif isinstance(expr, Var):
        text = "z"
    elif isinstance(expr, Neg):
        text = f"-{pretty(expr.arg, 3)}"
    elif isinstance(expr, BinOp):
        # left-associative: the right operand needs one level more binding
        text = f"{pretty(expr.left, level)}{expr.op}{pretty(expr.right, level + 1)}"
    elif isinstance(expr, Pow):
        text = f"{pretty(expr.base, 5)}^{expr.exponent}"
    else:
        text = f"{expr.func}({pretty(expr.arg)})"
    return f"({text})" if level < context else text


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_pretty_parse_roundtrip(expr):
    assert parse_cost(pretty(expr)) == expr
