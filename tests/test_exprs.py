"""Expression-grammar tests: parsing, precedence, aliases, errors."""

import math
from fractions import Fraction

import pytest

from charmatch import exprs
from charmatch.errors import EvalDomainError


@pytest.mark.parametrize("text,x,want", [
    ("sqrt(1 - x^2)", 0.6, 0.8),
    ("sin(5*x)", 0.3, math.sin(1.5)),
    ("  sin( 5 * x )  ", 0.3, math.sin(1.5)),
    ("cos(2*pi*x - pi)", 0.25, math.cos(math.pi / 2 - math.pi)),
    ("exp(x)/2 + 1", 0.0, 1.5),
    ("x^2*3", 2.0, 12.0),
    ("2^3", 0.0, 8.0),
    ("x^-1", 4.0, 0.25),
])
def test_evaluate(text, x, want):
    assert abs(float(exprs.parse(text)(x)) - want) < 1e-14


def test_unary_minus_binds_looser_than_power():
    e = exprs.parse("-x^2")
    assert e(3) == -9


def test_numbers_are_exact():
    e = exprs.parse("0.5 * x")
    assert e(Fraction(1, 2)) == Fraction(1, 4)


def test_aliases():
    assert exprs.parse("log(x)")(math.e) == pytest.approx(1.0)
    assert exprs.parse("atan(x)")(1.0) == pytest.approx(math.pi / 4)
    assert exprs.parse("j0(x)")(0.0) == 1.0


@pytest.mark.parametrize("bad", [
    "", "sin(x", "x +", "2 ** x", "x^1.5", "foo(x)", "y + 1", "1 $ 2", "sin x",
])
def test_parse_errors(bad):
    with pytest.raises(exprs.ExprSyntaxError):
        exprs.parse(bad)


@pytest.mark.parametrize("text", [
    "(" * 1500 + "x" + ")" * 1500,
    "-" * 1500 + "x",
    "exp(" * 400 + "x" + ")" * 400,
    "(" * (exprs.MAX_DEPTH + 1) + "x" + ")" * (exprs.MAX_DEPTH + 1),
])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(exprs.ExprSyntaxError, match="nested deeper"):
        exprs.parse(text)


def test_nesting_within_the_limit_parses():
    assert exprs.parse("(" * 150 + "x" + ")" * 150)(2) == 2
    assert exprs.parse("-" * 150 + "x")(2) == 2
    assert exprs.parse("sin(" * 150 + "x" + ")" * 150)(0) == 0
    deepest = exprs.MAX_DEPTH - 1
    assert exprs.parse("(" * deepest + "x" + ")" * deepest)(3) == 3


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        exprs.parse("ln(x)")(-1.0)
    with pytest.raises(EvalDomainError):
        exprs.parse("1/x")(0.0)
    with pytest.raises(EvalDomainError):
        exprs.parse("x^-1")(0.0)


def test_expr_is_measurable_target():
    e = exprs.parse("exp(x)")
    jet = e.eval_jet(0, 3)
    assert jet.derivatives() == (1, 1, 1, 1)


def test_long_chains_evaluate_and_lift_without_recursion():
    e = exprs.parse("+".join(["x"] * 3000))
    assert e(Fraction(1, 2)) == 1500
    assert e.lift(0, 2).coeffs == (0, 3000, 0)
    p = exprs.parse("*".join(["x"] * 3000))
    assert p(1) == 1 and p.lift(1, 1).coeffs == (1, 3000)
    assert exprs.parse("x" + "^1" * 3000)(3) == 3


def test_chains_combine_left_to_right():
    assert exprs.parse("1 - 2 - 3")(0) == -4
    assert exprs.parse("64 / 4 / 2")(0) == 8
    assert exprs.parse("x^2^3")(2) == 64
    # an exact quotient is an int where it is an integer and a Fraction
    # otherwise (poly.rational), never a float
    one, half = exprs.parse("x / x")(3), exprs.parse("x / 2")(3)
    assert type(one) is int and one == 1
    assert type(half) is Fraction and half == Fraction(3, 2)
