"""Jet arithmetic and composition tests, with hand-computed series oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch import exprs
from charmatch.errors import DomainError, JetDomainError
from charmatch.jets import Jet, _exact_cbrt, bessel_jn_jet, compose
from charmatch.matching import derivative_chars
from charmatch.poly import Poly


F = Fraction


def test_exp_jet_at_zero():
    jet = exprs.parse("exp(x)").lift(0, 4)
    assert jet.coeffs == (1, 1, F(1, 2), F(1, 6), F(1, 24))
    assert jet.is_exact()


def test_sin_jet_at_zero():
    jet = exprs.parse("sin(x)").lift(0, 5)
    assert jet.coeffs == (0, 1, 0, F(-1, 6), 0, F(1, 120))


def test_ln_x2p1_jet_against_series_composition():
    # oracle: ln(1+u) = u - u^2/2 + u^3/3 - u^4/4 with u = x^2
    u = Poly([0, 0, 1])
    series = Poly([0])
    for k in range(1, 5):
        series = series + F((-1) ** (k + 1), k) * u ** k
    want = tuple(series.coeffs[:5])
    jet = exprs.parse("ln(x^2 + 1)").lift(0, 4)
    assert jet.coeffs == want == (0, 0, 1, 0, F(-1, 2))


def test_char_numbers_examples():
    c = derivative_chars(exprs.parse("sin(x)"), 0, 5)
    assert c.values == (0, 1, 0, -1, 0, 1)
    c = derivative_chars(exprs.parse("exp(x)"), 0, 7)
    assert all(v == 1 for v in c.values)
    c = derivative_chars(exprs.parse("sqrt(4 - x^2)"), 0, 2)
    assert c.values == (2, 0, F(-1, 2))


def test_arctan_sqrt_floats_match_references():
    jet = exprs.parse("arctan(x)").lift(0.5, 6)
    assert abs(jet.coeffs[0] - math.atan(0.5)) < 1e-15
    assert abs(jet.coeffs[1] - 1 / 1.25) < 1e-14
    jet = exprs.parse("sqrt(x)").lift(2.25, 3)
    assert abs(jet.coeffs[0] - 1.5) < 1e-15
    assert abs(jet.coeffs[1] - 0.5 / 1.5) < 1e-15


EXPR_TEXTS = [
    "exp(x)", "sin(x)", "cos(x)", "arctan(x)", "ln(x^2 + 1)",
    "sqrt(4 - x^2)", "1 - x^2", "x / (x^2 + 1)",
]


@pytest.mark.parametrize("left", EXPR_TEXTS[:4])
@pytest.mark.parametrize("right", EXPR_TEXTS[4:])
def test_product_rule(left, right):
    # jet of a product equals the product of jets
    for x0 in (0, 0.37, -0.81):
        a = exprs.parse(left).lift(x0, 8)
        b = exprs.parse(right).lift(x0, 8)
        prod = exprs.parse(f"({left}) * ({right})").lift(x0, 8)
        for c1, c2 in zip(prod.coeffs, (a * b).coeffs):
            assert abs(float(c1) - float(c2)) <= 1e-12 * max(1.0, abs(float(c1)))


def test_product_rule_exact_case():
    a = exprs.parse("sin(x)").lift(0, 10)
    b = exprs.parse("exp(x)").lift(0, 10)
    prod = exprs.parse("sin(x) * exp(x)").lift(0, 10)
    assert prod.coeffs == (a * b).coeffs
    assert prod.is_exact()


@pytest.mark.parametrize("text", EXPR_TEXTS)
def test_finite_difference_cross_check(text):
    f = exprs.parse(text)
    for x0 in (0.21, -0.35):
        c = derivative_chars(f, x0, 2)
        h = 1e-5
        d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
        d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / (h * h)
        assert abs(d1 - float(c.values[1])) <= 1e-6 * max(1.0, abs(d1))
        assert abs(d2 - float(c.values[2])) <= 1e-5 * max(1.0, abs(d2))


# -- composition -------------------------------------------------------------------


def test_compose_exp_with_quadratic():
    # oracle: multiply out exp(u), u = x + x^2, truncated at order 6
    order = 6
    u = Poly([0, 1, 1])
    series = Poly([0])
    upow = Poly([1])
    for k in range(order + 1):
        series = series + F(1, math.factorial(k)) * upow
        upow = upow * u
    want = tuple(series.coeffs[: order + 1])

    outer = exprs.parse("exp(x)").lift(0, order)
    inner = Jet(0, (0, 1, 1, 0, 0, 0, 0))
    got = compose(outer, inner)
    assert got.coeffs == want


def test_compose_identity_and_constant():
    outer = exprs.parse("sin(x)").lift(0, 5)
    identity = Jet.variable(0, 5)
    assert compose(outer, identity).coeffs == outer.coeffs
    const = Jet.constant(7, 0, 5)
    inner = exprs.parse("x^2").lift(0, 5)
    assert compose(const, inner).coeffs == (7, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("outer_name,inner_text", [
    ("exp", "sin(x)"),
    ("sin", "x / (x^2 + 1)"),
    ("cos", "1 - x^2"),
])
def test_compose_consistency_with_direct_lift(outer_name, inner_text):
    for x0 in (0, 0.4):
        order = 10
        inner = exprs.parse(inner_text).lift(x0, order)
        outer = exprs.parse(f"{outer_name}(x)").lift(inner.coeffs[0], order)
        via_compose = compose(outer, inner)
        direct = exprs.parse(f"{outer_name}({inner_text})").lift(x0, order)
        for c1, c2 in zip(via_compose.coeffs, direct.coeffs):
            assert abs(float(c1) - float(c2)) <= 1e-12 * max(1.0, abs(float(c1)))


def test_compose_center_mismatch():
    outer = exprs.parse("exp(x)").lift(1, 4)
    inner = Jet.variable(0, 4)  # value 0 != outer center 1
    with pytest.raises(DomainError):
        compose(outer, inner)


# -- domain errors -------------------------------------------------------------------


def test_ln_domain_error_names_primitive():
    with pytest.raises(JetDomainError, match="ln"):
        exprs.parse("ln(x)").lift(0, 3)


def test_sqrt_domain_error():
    with pytest.raises(JetDomainError, match="sqrt"):
        exprs.parse("sqrt(x - 1)").lift(0, 3)


def test_division_by_zero_constant_jet():
    with pytest.raises(JetDomainError, match="division"):
        exprs.parse("1 / x").lift(0, 3)


def test_jet_arithmetic_requires_common_center():
    a = Jet.variable(0, 3)
    b = Jet.variable(1, 3)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * Jet.variable(0, 4)


# -- Bessel jets ----------------------------------------------------------------------


def test_bessel_j0_jet_at_zero_exact():
    jet = exprs.parse("bessel_j0(x)").lift(0, 6)
    assert jet.coeffs == (1, 0, F(-1, 4), 0, F(1, 64), 0, F(-1, 2304))


def test_bessel_jn_jet_matches_mpmath_derivatives():
    mpmath = pytest.importorskip("mpmath")
    for n in (0, 1, 3):
        for t0 in (0.7, 2.1):
            jet = bessel_jn_jet(n, t0, 5)
            for k in range(6):
                want = float(mpmath.diff(lambda t: mpmath.besselj(n, t), t0, k))
                got = float(jet.coeffs[k]) * math.factorial(k)
                assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_bessel_jn_jet_accurate_at_high_order():
    # |J_n^(k)| <= 1 everywhere; the jet keeps every derivative to ~1e-16
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for n, t0, order in ((0, 0.5, 40), (3, 2.1, 30), (10, -0.7, 25)):
            jet = bessel_jn_jet(n, t0, order)
            for k in range(order + 1):
                want = float(mpmath.besselj(n, mpmath.mpf(t0), derivative=k))
                assert abs(jet.coeffs[k] * math.factorial(k) - want) < 1e-14


def test_bessel_j0_jet_composed_with_affine():
    jet = exprs.parse("bessel_j0(2*x + 1)").lift(0.0, 3)
    mpmath = pytest.importorskip("mpmath")
    for k in range(4):
        want = float(mpmath.diff(lambda t: mpmath.besselj(0, 2 * t + 1), 0, k))
        assert abs(float(jet.coeffs[k]) * math.factorial(k) - want) < 1e-9


# -- misc ------------------------------------------------------------------------------


def test_cbrt_jet():
    jet = Jet(0, (8, 1, 0, 0)).cbrt()
    assert jet.coeffs[0] == 2
    assert jet.coeffs[1] == F(1, 12)  # d/du u^(1/3) at 8 = 1/(3*4)
    neg = Jet(0, (-8, 1, 0, 0)).cbrt()
    assert neg.coeffs[0] == -2
    with pytest.raises(JetDomainError):
        Jet(0, (0, 1)).cbrt()


@pytest.mark.parametrize("root", [3, 2 ** 53 + 1, 10 ** 20, 10 ** 200, 7 ** 300 + 2,
                                  F(10 ** 100, 3), F(-5, 7 ** 120)],
                         ids=["3", "2^53+1", "10^20", "10^200", "7^300+2", "10^100/3",
                              "-5/7^120"])
def test_exact_cube_roots_beyond_the_float_range(root):
    # integer cube roots: 10^600 = (10^200)^3 lies far past the float range
    for r in (root, -root):
        got = _exact_cbrt(r ** 3)
        assert got == r and type(got) is type(r)
        assert _exact_cbrt(r ** 3 + 1) is None
        assert _exact_cbrt(F(r ** 3, 2)) is None
    assert _exact_cbrt(0) == 0


def test_cube_root_jet_of_a_huge_cube_is_exact():
    jet = Jet(0, (10 ** 60, 3, 0)).cbrt()
    assert jet.coeffs[:2] == (10 ** 20, F(1, 10 ** 40)) and jet.is_exact()


def test_integer_powers_and_reciprocal():
    var = Jet.variable(0, 4) + 1
    sq = var ** 2
    assert sq.coeffs == (1, 2, 1, 0, 0)
    inv = var ** -1
    assert inv.coeffs == (1, -1, 1, -1, 1)


def test_derivatives_scaling():
    jet = exprs.parse("exp(x)").lift(0, 4)
    assert jet.derivatives() == (1, 1, 1, 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=6),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=6))
def test_mul_div_round_trip(a, b):
    n = min(len(a), len(b)) - 1
    if b[0] == 0:
        b = [1] + b[1:]
    ja = Jet(0, [F(x) for x in a[: n + 1]])
    jb = Jet(0, [F(x) for x in b[: n + 1]])
    assert ((ja * jb) / jb).coeffs == ja.coeffs
