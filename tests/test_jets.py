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
from result_key import key


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


# -- the integer form of exact jets against textbook recurrences on Fractions --------

ENTRY = st.one_of(st.integers(-40, 40), st.fractions(-9, 9, max_denominator=24))
POSITIVE = st.one_of(st.integers(1, 30), st.fractions(F(1, 20), 20, max_denominator=24)).filter(
    lambda h: h > 0)
SQUARES = st.sampled_from([1, 4, F(9, 4), F(25, 49), 10 ** 6])
CUBES = st.sampled_from([1, 8, F(27, 8), F(1, 1000), -8, F(-64, 27)])


@st.composite
def exact_jets(draw, heads, order=None):
    """An exact jet at 0 of order 0-12 whose entries are ints and Fractions."""
    n = draw(st.integers(0, 12)) if order is None else order
    return Jet(0, (draw(heads), *draw(st.lists(ENTRY, min_size=n, max_size=n))))


def jet_pairs(heads_a, heads_b):
    return st.integers(0, 12).flatmap(
        lambda n: st.tuples(exact_jets(heads_a, n), exact_jets(heads_b, n)))


ANY_HEAD = st.one_of(st.just(0), st.just(1), POSITIVE, ENTRY)


def series(jet):
    return [F(c) for c in jet.coeffs]


def ref_mul(a, b):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(len(a))]


def ref_div(a, b):
    q = []
    for k in range(len(a)):
        q.append((a[k] - sum((q[i] * b[k - i] for i in range(k)), F(0))) / b[0])
    return q


def ref_derivative(u):
    return [(j + 1) * u[j + 1] for j in range(len(u) - 1)] + [F(0)]


def ref_integral(t, head):
    return [head] + [t[k - 1] / k for k in range(1, len(t))]


def ref_exp(u):
    # v' = u' v at head 0
    v = [F(1)]
    for k in range(1, len(u)):
        v.append(sum((j * u[j] * v[k - j] for j in range(1, k + 1)), F(0)) / k)
    return v


def ref_sin_cos(u):
    # s' = u' c and c' = -u' s at head 0
    s, c = [F(0)], [F(1)]
    for k in range(1, len(u)):
        s.append(sum((j * u[j] * c[k - j] for j in range(1, k + 1)), F(0)) / k)
        c.append(-sum((j * u[j] * s[k - j] for j in range(1, k + 1)), F(0)) / k)
    return s, c


def ref_sqrt(u, v0):
    # v^2 = u
    v = [v0]
    for k in range(1, len(u)):
        v.append((u[k] - sum((v[j] * v[k - j] for j in range(1, k)), F(0))) / (2 * v0))
    return v


def ref_cbrt(u, v0):
    # v^3 = u, one unknown coefficient at a time
    v = [v0]
    for k in range(1, len(u)):
        cube = ref_mul(ref_mul(v + [F(0)] * (len(u) - k), v + [F(0)] * (len(u) - k)),
                       v + [F(0)] * (len(u) - k))
        v.append((u[k] - cube[k]) / (3 * v0 * v0))
    return v


def ref_compose(outer, inner):
    # sum_m outer_m (inner - inner_0)^m
    shifted = [F(0)] + inner[1:]
    out, power = [F(0)] * len(inner), [F(1)] + [F(0)] * (len(inner) - 1)
    for c in outer:
        out = [a + c * p for a, p in zip(out, power)]
        power = ref_mul(power, shifted)
    return out


def assert_integer_form(jet):
    assert jet.is_exact() and jet.den > 0 and math.gcd(jet.den, *jet.nums) == 1
    again = Jet(jet.center, jet.coeffs)
    assert (again.nums, again.den) == (jet.nums, jet.den)


def same_series(jet, want):
    assert key(jet.coeffs) == key(tuple(want))


@settings(max_examples=150, deadline=None)
@given(jet_pairs(ANY_HEAD, ANY_HEAD), ENTRY)
def test_exact_sums_and_products_match_the_textbook(pair, r):
    a, b = pair
    sa, sb = series(a), series(b)
    for got, want in ((a + b, [x + y for x, y in zip(sa, sb)]),
                      (a - b, [x - y for x, y in zip(sa, sb)]),
                      (-a, [-x for x in sa]),
                      (a + r, [sa[0] + r] + sa[1:]),
                      (r - a, [r - sa[0]] + [-x for x in sa[1:]]),
                      (a * r, [x * r for x in sa]),
                      (a * b, ref_mul(sa, sb)),
                      (a ** 3, ref_mul(ref_mul(sa, sa), sa))):
        same_series(got, want)
        assert_integer_form(got)
    if r:
        same_series(a / r, [x / r for x in sa])
    if sb[0]:
        same_series(a / b, ref_div(sa, sb))
        assert_integer_form(a / b)
        same_series(b ** -2, ref_div([F(1)] + [F(0)] * (len(sb) - 1), ref_mul(sb, sb)))
    assert key(a.derivatives()) == key(tuple(math.factorial(n) * x for n, x in enumerate(sa)))


@settings(max_examples=150, deadline=None)
@given(exact_jets(st.just(0)))
def test_exact_primitives_at_head_0_match_the_textbook(u):
    su = series(u)
    same_series(u.exp(), ref_exp(su))
    s, c = ref_sin_cos(su)
    same_series(u.sin(), s)
    same_series(u.cos(), c)
    one_plus_square = ref_mul(su, su)
    one_plus_square[0] += 1
    same_series(u.arctan(), ref_integral(ref_div(ref_derivative(su), one_plus_square), F(0)))
    for jet in (u.exp(), u.sin(), u.cos(), u.arctan()):
        assert_integer_form(jet)


@settings(max_examples=150, deadline=None)
@given(exact_jets(st.one_of(st.just(1), POSITIVE)))
def test_exact_ln_matches_the_textbook(u):
    # ln(u) = ln(u_0) + integral of u' / u; ln(u_0) is a float unless u_0 = 1
    su = series(u)
    head = F(0) if su[0] == 1 else math.log(float(su[0]))
    same_series(u.ln(), ref_integral(ref_div(ref_derivative(su), su), head))
    if su[0] == 1:
        assert_integer_form(u.ln())


@settings(max_examples=150, deadline=None)
@given(exact_jets(SQUARES), exact_jets(CUBES))
def test_exact_roots_match_the_textbook(u, w):
    su, sw = series(u), series(w)
    root = F(math.isqrt(su[0].numerator), math.isqrt(su[0].denominator))
    same_series(u.sqrt(), ref_sqrt(su, root))
    assert_integer_form(u.sqrt())
    sign = 1 if sw[0] > 0 else -1
    num, den = abs(sw[0].numerator), sw[0].denominator
    root = F(sign * round(num ** (1 / 3)), round(den ** (1 / 3)))
    assert root ** 3 == sw[0]
    same_series(w.cbrt(), ref_cbrt(sw, root))
    assert_integer_form(w.cbrt())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(exact_jets(ENTRY, n), exact_jets(ANY_HEAD, n))))
def test_exact_compose_matches_the_textbook(pair):
    outer, inner = pair
    outer = Jet(inner.value, outer.coeffs)
    same_series(compose(outer, inner), ref_compose(series(outer), series(inner)))
    assert_integer_form(compose(outer, inner))


def plain_mul(a, b):
    """The double loop of an exact times a float jet before integer forms."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[:len(a) - i]):
            if y != 0:
                out[i + j] += x * y
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(ENTRY, min_size=n + 1, max_size=n + 1),
    st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=n + 1,
             max_size=n + 1))))
def test_exact_with_float_keeps_the_bits_of_the_double_loop(pair):
    values, floats = pair
    # an exact jet made by an exact product holds only its integer form
    exact = Jet(0, values) * Jet.constant(1, 0, len(values) - 1)
    f = Jet(0, floats)
    assert key((exact * f).coeffs) == key(tuple(plain_mul(values, floats)))
    assert key((f * exact).coeffs) == key(tuple(plain_mul(floats, values)))
    assert key((exact + f).coeffs) == key(tuple(x + y for x, y in zip(values, floats)))
    assert key((exact * 0.5).coeffs) == key(tuple(x * 0.5 for x in values))


def test_power_squares_only_while_a_bit_is_left(monkeypatch):
    calls = []
    product = Jet.__mul__

    def counting(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    x = Jet.variable(0, 40)
    for n, products in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4)):
        calls.clear()
        assert (x ** n).coeffs == tuple(int(k == n) for k in range(41))
        assert len(calls) == products
    # the first factor meets the exact one, whose product turns float zeros into 0
    assert key((Jet(0, (1.0, -0.0, 2.0)) ** 1).coeffs) == key((1.0, 0, 2.0))
