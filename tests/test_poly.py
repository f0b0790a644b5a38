"""Polynomial helper tests."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charmatch.jets import Jet
from charmatch.poly import Poly, div, over
from result_key import key


F = Fraction


def test_arithmetic_and_trimming():
    p = Poly([1, 2]) * Poly([1, 2])
    assert p == Poly([1, 4, 4])
    assert (p - p) == Poly([0])
    assert Poly([1, 0, 0]).degree == 0


def test_pow_and_compose_affine():
    p = Poly([0, 1]) ** 3
    assert p == Poly([0, 0, 0, 1])
    q = Poly([0, 0, 1]).compose_affine(2, 1)  # (2x+1)^2
    assert q == Poly([1, 4, 4])
    shifted = Poly([0, 0, 1]).shift(3)  # (x+3)^2
    assert shifted == Poly([9, 6, 1])


def test_exact_integral_and_derivative():
    p = Poly([0, 0, 1])
    assert p.integral(-1, 1) == F(2, 3)
    assert p.derivative() == Poly([0, 2])
    assert p.antiderivative() == Poly([0, 0, 0, F(1, 3)])


def test_eval_jet_matches_derivatives():
    p = Poly([1, -2, 0, 5])
    jet = p.eval_jet(F(1, 2), 3)
    assert jet.coeffs[0] == p(F(1, 2))
    assert jet.coeffs[1] == p.derivative()(F(1, 2))
    assert jet.is_exact()


def test_constant_poly_keeps_the_argument_kind():
    c = Poly([F(3, 2)])
    jet = c(Jet.variable(F(1, 2), 3))
    assert jet == Jet.constant(F(3, 2), F(1, 2), 3)
    assert c(Poly([0, 1])) == Poly([F(3, 2)])
    assert c.eval_jet(0, 2) == Jet.constant(F(3, 2), 0, 2)
    assert c(2.0) == F(3, 2)


def test_div_is_exact_for_exact_operands():
    assert div(1, 3) == F(1, 3) and isinstance(div(1, 3), F)
    assert div(F(1, 2), 2) == F(1, 4)
    assert over(3, 6) == F(1, 2)


def test_float_operands_give_floats():
    for value in (div(1.0, 3), div(1, 3.0), div(F(1, 2), 0.5), over(1.0, 6)):
        assert isinstance(value, float)
    assert div(1.0, 3) == 1.0 / 3


def test_over_keeps_the_rounded_float_reciprocal():
    # float coefficients multiply by the float 1.0 / n!; the Pade case
    # ln(x^2 + 1) at x0 = 0.5, N = 40 verifies only with these bits
    den = math.factorial(23)
    assert over(1.0, den) == 1.0 / den
    assert over(1.0, den) != float(F(1, den))


def test_immutability():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_float_argument_matches_fraction_horner_bitwise():
    rng = random.Random(7)
    for _ in range(50):
        coeffs = [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                  for _ in range(rng.randint(2, 12))] + [rng.randint(1, 9)]
        p = Poly(coeffs)
        for x in (rng.uniform(-3, 3), 0.1, -2.5):
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = acc * x + c
            assert p(x) == acc
            assert p(F(x)) == sum(c * F(x) ** k for k, c in enumerate(coeffs))


SPECIAL = st.sampled_from([0, F(0), 0.0, -0.0, math.inf, -math.inf, math.nan])
COEFF = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(-1000, 1000, max_denominator=60),
                  st.floats(-1e6, 1e6), SPECIAL)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=st.lists(COEFF, min_size=2, max_size=20),
       x=st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0, math.inf, math.nan])))
def test_float_argument_matches_a_plain_horner_loop_bit_for_bit(coeffs, x):
    cs = Poly(coeffs).coeffs
    assume(len(cs) > 1)
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
    assert key(Poly(coeffs)(x)) == key(acc)


def test_float_antiderivative_keeps_int_zeros_out_of_fraction():
    anti = Poly([0.5, 0, 0, 2.0]).antiderivative()
    assert not any(isinstance(c, F) for c in anti.coeffs)
    assert anti.coeffs == (0, 0.5, 0, 0, 0.5)
    assert isinstance(anti(0.5), float)
