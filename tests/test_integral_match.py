"""Integral-family tests: moments, Fourier variants, higher integrals, Bernoulli."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch import exprs, specfun
from charmatch import integral_match as im
from charmatch.errors import DomainError
from charmatch.matching import (
    CharNumbers,
    EndpointDiff,
    HigherIntegral,
    Moments,
    Projection,
    measure,
    verify_matching,
)
from charmatch.poly import Poly, is_exact, tri_table
from charmatch.quadrature import GaussLegendre
from result_key import key


F = Fraction


# -- quadrature ------------------------------------------------------------------


def test_quadrature_rule_invariants():
    q = GaussLegendre(panels=2)
    assert q.nodes == tuple(sorted(q.nodes)) and len(q.nodes) == len(q.weights) == 32
    assert all(x == -y for x, y in zip(q.nodes, reversed(q.nodes)))
    assert all(w == v for w, v in zip(q.weights, reversed(q.weights)))
    assert all(w > 0 for w in q.weights)
    assert sum(q.weights) == pytest.approx(2.0)  # reference panel length
    # exact for degree <= 63 per panel
    for k in range(64):
        monomial = Poly([0] * k + [1])
        want = float(monomial.integral(F(-2), F(3, 2)))
        assert q.integrate(monomial.as_float(), -2, 1.5) == pytest.approx(want, rel=1e-13), k


def test_quadrature_rule_is_numpys_leggauss_to_the_bit():
    import mpmath
    import numpy

    nodes, weights = numpy.polynomial.legendre.leggauss(32)
    assert GaussLegendre.nodes == tuple(nodes.tolist())
    assert GaussLegendre.weights == tuple(weights.tolist())
    with mpmath.workdps(50):
        p32 = lambda t: mpmath.legendre(32, t)  # noqa: E731
        for x, w in zip(GaussLegendre.nodes, GaussLegendre.weights):
            root = mpmath.findroot(p32, mpmath.mpf(x))
            exact_w = 2 / ((1 - root ** 2) * mpmath.diff(p32, root) ** 2)
            assert abs(root - x) < 1e-16
            assert abs((exact_w - w) / exact_w) < 1e-13


def test_quadrature_takes_no_order():
    with pytest.raises(TypeError):
        GaussLegendre(order=16)
    with pytest.raises(DomainError):
        GaussLegendre(panels=0)


def test_quadrature_error_estimate():
    q = GaussLegendre(panels=2)
    val, err = q.integrate_with_error(math.exp, 0, 1)
    assert abs(val - (math.e - 1)) < 1e-13
    assert err < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(-50, 50), length=st.floats(1e-3, 20), panels=st.integers(1, 6))
def test_quadrature_sampled_values_sum_like_the_callable(a, length, panels):
    b = a + length
    q = GaussLegendre(panels=panels)
    f = lambda x: math.sin(3 * x) * math.exp(-0.1 * x)  # noqa: E731
    xs = q.points(a, b)
    assert len(xs) == 32 * panels
    # the composite rule written out panel by panel
    width = (b - a) / panels
    ref = 0.0
    for p in range(panels):
        half = 0.5 * width
        mid = a + p * width + half
        acc = 0.0
        for t, w in zip(q.nodes, q.weights):
            acc += w * f(mid + half * t)
        ref += half * acc
    assert q.integrate([f(x) for x in xs], a, b) == q.integrate(f, a, b) == ref
    fine = GaussLegendre(2 * panels)
    assert fine.integrate([f(x) for x in fine.points(a, b)], a, b) == fine.integrate(f, a, b)


def test_quadrature_rejects_a_sample_of_the_wrong_length():
    q = GaussLegendre(panels=2)
    with pytest.raises(DomainError):
        q.integrate([1.0] * 63, 0, 1)
    for weight in ([1.0] * 63, [1.0] * 65, []):
        with pytest.raises(DomainError):
            q.integrate([1.0] * 64, 0, 1, weight)


QUAD_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
QUAD_EXACT = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(-1000, 1000, max_denominator=60))


@st.composite
def quad_values(draw, size, entries):
    """``size`` random floats with a few of ``entries`` in random places."""
    rng = draw(st.randoms(use_true_random=False))
    values = [rng.uniform(-1e3, 1e3) for _ in range(size)]
    for _ in range(draw(st.integers(0, 8))):
        values[rng.randrange(size)] = draw(entries)
    return values


def _plain_rule(q, values, a, b):
    """The composite rule on sampled values, written out panel by panel."""
    k, m = len(q.weights), q.panels
    half = 0.5 * ((float(b) - float(a)) / m)
    total = 0.0
    for p in range(0, k * m, k):
        acc = 0.0
        for w, v in zip(q.weights, values[p:p + k]):
            acc += w * v
        total += half * acc
    return total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), panels=st.integers(1, 2),
       interval=st.sampled_from([(-1, 1), (-math.pi, math.pi), (0.25, 3), (F(-1, 3), 2)]))
def test_weighted_quadrature_integrates_the_products(data, panels, interval):
    a, b = interval
    q = GaussLegendre(panels=panels)
    size = 32 * panels
    vs = data.draw(quad_values(size, QUAD_SPECIAL))
    gs = data.draw(quad_values(size, QUAD_SPECIAL))
    assert key(q.integrate(vs, a, b, gs)) == key(
        q.integrate([g * v for g, v in zip(gs, vs)], a, b))
    # without a weight each value is v itself: ints, Fractions, -0.0 and nan
    exact = data.draw(quad_values(size, st.one_of(QUAD_SPECIAL, QUAD_EXACT)))
    for values in (vs, exact):
        assert key(q.integrate(values, a, b)) == key(_plain_rule(q, values, a, b))


class _Counting:
    """A float-only target that counts its evaluations."""

    def __init__(self, text):
        self.f = exprs.parse(text)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


@pytest.mark.parametrize("family", [Projection("fourier"), Projection("legendre"),
                                    Moments(-1, 1), HigherIntegral()],
                         ids=lambda fam: fam.describe())
def test_quadrature_families_sample_the_target_once(family):
    quad = GaussLegendre()
    target = _Counting("arctan(x)")
    a, b = getattr(family, "interval", (-1, 1))
    values = measure(target, family, family.orders(41))
    assert len(values) == 41
    assert target.calls == len(quad.points(a, b)) == 256


def test_sampled_families_equal_one_integral_per_order():
    # each order's value is bit for bit the rule applied to w_n(x) f(x)
    quad = GaussLegendre()
    f = exprs.parse("arctan(x) + exp(x)")
    orders = list(range(1, 21))
    weights = {
        Moments(-1, 1): lambda n, x: x ** n,
        HigherIntegral(): lambda n, x: (1 - x) ** (n - 1),
    }
    for family, w in weights.items():
        want = [quad.integrate(lambda x, n=n: w(n, x) * float(f(x)), -1, 1) for n in orders]
        if isinstance(family, HigherIntegral):
            want = [v / math.factorial(n - 1) for n, v in zip(orders, want)]
        assert measure(f, family, orders) == want
    for basis in ("fourier", "legendre"):
        family = Projection(basis)
        a, b = family.interval
        want = []
        for n in orders:
            scale, shape = family.term(n)
            want.append(quad.integrate(lambda x: scale * shape(x) * float(f(x)), a, b)
                        / family.norm(n))
        assert measure(f, family, orders) == want


# -- moments --------------------------------------------------------------------------


def test_moments_examples():
    m = im.moments_compute(Poly([0, 0, 1]), (-1, 1), 2)
    assert m.values == (F(2, 3), 0, F(2, 5)) and m.source == "exact"
    m1 = im.moments_compute(Poly([1]), (F(-1, 2), 2), 1)
    assert m1.values == (F(5, 2), F(15, 8))  # b-a, (b^2-a^2)/2
    ms = im.moments_compute(exprs.parse("sin(x)"), (-1, 1), 4)
    assert ms.source == "quadrature"
    assert abs(ms.values[0]) < 1e-12 and abs(ms.values[2]) < 1e-12


@pytest.mark.parametrize("f, interval, source", [
    (Poly([F(1, 2), 1, F(1, 4)]), (-1, 1), "exact"),
    (Poly([0.5, 1.0, 0.25]), (-1, 1), "float-poly"),
    (Poly([1, 2]), (-0.5, 1), "float-poly"),
    (exprs.parse("exp(x)"), (-1, 1), "quadrature"),
])
def test_moments_source_names_how_the_values_were_found(f, interval, source):
    m = im.moments_compute(f, interval, 3)
    assert m.source == source
    assert all(map(is_exact, m.values)) == (source == "exact")


def test_momentset_json():
    m = im.moments_compute(Poly([0, 0, 1]), (-1, 1), 2)
    data = m.as_dict()
    assert data["interval"] == [-1.0, 1.0]
    assert data["source"] == "exact"
    assert len(data["values"]) == 3


def test_legendre_moment_match_x_squared():
    m = im.moments_compute(Poly([0, 0, 1]), (-1, 1), 2)
    approx = im.legendre_moment_match(m)
    assert approx.poly == Poly([0, 0, 1])


def test_legendre_moment_match_beta_values():
    # beta = (1/3, 0, 2/3) for f = x^2
    m = im.moments_compute(Poly([0, 0, 1]), (-1, 1), 2)
    betas = []
    for n in range(3):
        gamma = specfun.legendre_coeffs(n)
        betas.append(F(2 * n + 1, 2) * sum(gamma.coeffs[j] * m.values[j]
                                           for j in range(n + 1)))
    assert betas == [F(1, 3), 0, F(2, 3)]


def test_legendre_moment_match_of_legendre_polynomial():
    p3 = specfun.legendre_coeffs(3)
    m = im.moments_compute(p3, (-1, 1), 5)
    approx = im.legendre_moment_match(m)
    assert approx.poly == p3


def test_legendre_moment_match_zero_and_domain():
    m = im.moments_compute(Poly([0]), (-1, 1), 3)
    assert im.legendre_moment_match(m).poly == Poly([0])
    with pytest.raises(DomainError):
        im.legendre_moment_match(im.moments_compute(Poly([1]), (0, 1), 2))


def test_moment_matching_invariant():
    # exact for polynomial input
    f = Poly([1, 2, 0, -1])
    m = im.moments_compute(f, (-1, 1), 5)
    approx = im.legendre_moment_match(m)
    assert measure(approx, Moments(-1, 1), range(6)) == list(m.values)
    # quadrature-limited for e^x
    fe = exprs.parse("exp(x)")
    me = im.moments_compute(fe, (-1, 1), 6)
    report = verify_matching(im.legendre_moment_match(me), me.as_char_numbers())
    assert report.passed


def test_moment_partial_delta_examples():
    assert im.moment_partial_delta(0, 0) == Poly([F(1, 2)])
    assert im.moment_partial_delta(1, 1) == Poly([0, F(3, 2)])


@pytest.mark.parametrize("order", [4, 9, 16])
def test_moment_partial_delta_identity(order):
    for m_index in range(order + 1):
        delta = im.moment_partial_delta(m_index, order)
        for n in range(order + 1):
            want = 1 if n == m_index else 0
            assert (delta * Poly([0] * n + [1])).integral(-1, 1) == want


def test_moment_delta_growth():
    table = im.moment_delta_growth(0, [4, 8, 16, 32])
    sups = [s for _, s in table]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    # parity: the m=0 partial delta is even
    p = im.moment_partial_delta(0, 8)
    assert all(p.coeffs[k] == 0 for k in range(1, p.degree + 1, 2))


# -- Fourier families ------------------------------------------------------------------


def test_fourier_sin_coefficients_and_raw_integral():
    f = exprs.parse("sin(x)")
    coeffs = im.fourier_coeffs(f, 5)
    # normalized functional: a_1 = 1; the raw basis integral is pi
    assert coeffs.values[1] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(v) < 1e-12 for i, v in enumerate(coeffs.values) if i != 1)
    quad = GaussLegendre()
    raw = quad.integrate(lambda x: math.sin(x) * math.sin(x), -math.pi, math.pi)
    assert raw == pytest.approx(math.pi, abs=1e-12)
    approx = im.fourier_approx(f, 5)
    for x in (-2.0, 0.3, 1.1):
        assert abs(approx(x) - math.sin(x)) < 1e-10


def test_fourier_delta_property():
    # the functionals hit 1 on their own basis member, 0 on the others
    for m in range(5):
        target = im.FourierApproximant(
            im.CoeffSeq(tuple(1 if i == m else 0 for i in range(5)), "fourier"))
        vals = measure(target, Projection("fourier"), range(5))
        for n, v in enumerate(vals):
            assert abs(v - (1.0 if n == m else 0.0)) < 1e-12


def test_legendre_fourier_orthogonality_examples():
    ones = im.legendre_fourier_coeffs(Poly([1]).as_float(), 4)
    assert all(abs(v) < 1e-12 for v in ones.values[1:])
    p2 = specfun.legendre_coeffs(2).as_float()
    c = im.legendre_fourier_coeffs(p2, 4)
    assert all(abs(v) < 1e-10 for i, v in enumerate(c.values) if i != 2)
    assert abs(c.values[2]) > 0.1


def test_legendre_fourier_equals_moment_match():
    f = exprs.parse("exp(x)")
    lf = im.legendre_fourier_approx(f, 8)
    mm = im.legendre_moment_match(im.moments_compute(f, (-1, 1), 8))
    for x in [-1 + i / 10 for i in range(21)]:
        assert abs(float(lf(x)) - float(mm(x))) < 1e-8


# -- higher integrals --------------------------------------------------------------------


def test_higher_integral_chars_examples():
    c = im.higher_integral_chars(Poly([1]), 5)
    assert c.values == tuple(F(2 ** n, math.factorial(n)) for n in range(1, 6))
    cz = im.higher_integral_chars(Poly([0]), 4)
    assert all(v == 0 for v in cz.values)
    f = exprs.parse("exp(x)")
    c1 = im.higher_integral_chars(f, 1)
    assert c1.values[0] == pytest.approx(math.e - 1 / math.e, abs=1e-12)
    with pytest.raises(DomainError):
        im.higher_integral_chars(f, 0)


def test_higher_integral_orders_start_at_one():
    c = im.higher_integral_chars(Poly([1]), 3)
    assert list(c.orders()) == [1, 2, 3]


def test_higher_integral_reconstructs_polynomials():
    approx = im.higher_integral_approx(im.higher_integral_chars(Poly([1]), 2))
    assert approx.poly == Poly([1])
    approx_x = im.higher_integral_approx(im.higher_integral_chars(Poly([0, 1]), 2))
    assert approx_x.poly == Poly([0, 1])


def test_higher_integral_round_trip_exp():
    f = exprs.parse("exp(x)")
    c = im.higher_integral_chars(f, 8)
    approx = im.higher_integral_approx(c)
    report = verify_matching(approx, c)
    assert report.passed


# -- Bernoulli family -----------------------------------------------------------------------


def test_bernoulli_x_squared_exact_both_modes():
    f = Poly([0, 0, 1])
    for zeroth in ("value", "integral"):
        c = im.bernoulli_chars(f, (0, 1), 3, zeroth=zeroth)
        approx = im.bernoulli_approx(c)
        assert approx.poly == f
        report = verify_matching(approx, c)
        assert report.passed and all(r == 0 for r in report.residuals)


def test_bernoulli_chars_values():
    c = im.bernoulli_chars(Poly([0, 0, 1]), (0, 1), 3)
    assert c.values == (0, 1, 2, 0)
    ci = im.bernoulli_chars(Poly([0, 0, 1]), (0, 1), 3, zeroth="integral")
    assert ci.values[0] == F(1, 3)


def test_bernoulli_constant_function():
    c = im.bernoulli_chars(Poly([4]), (0, 1), 4)
    approx = im.bernoulli_approx(c)
    assert approx.poly == Poly([4])


def test_bernoulli_scaled_interval():
    f = Poly([1, -2, 1])
    c = im.bernoulli_chars(f, (1, 3), 4)
    assert im.bernoulli_approx(c).poly == f


def test_bernoulli_periodic_blind_spot():
    # cos(2 pi x - pi) has equal endpoint derivatives on (0,1): the expansion
    # collapses to a constant and cannot converge to f
    f = exprs.parse("cos(2*pi*x - pi)")
    c = im.bernoulli_chars(f, (0, 1), 8)
    assert all(abs(v) < 1e-9 for v in c.values[1:])
    approx = im.bernoulli_approx(c)
    assert abs(approx(0.5) - approx(0.25)) < 1e-8  # constant
    assert abs(approx(0.5) - float(f(0.5))) > 0.5  # and far from f


def test_bernoulli_delta_property_exact():
    basis = [specfun.bernoulli_poly(m) * F(1, math.factorial(m)) for m in range(11)]
    family = EndpointDiff(0, 1, zeroth="integral")
    for m, b in enumerate(basis):
        got = measure(b, family, range(11))
        assert got == [1 if n == m else 0 for n in range(11)]


def test_bernoulli_taylor_limit_ratio():
    f = exprs.parse("exp(x)")
    eps = [0.1 * 2.0 ** -k for k in range(11)]  # down to ~1e-4
    rows = im.bernoulli_taylor_limit(f, 0, eps, 5)
    diffs = [d for _, d in rows]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    assert all(0.3 <= r <= 0.7 for r in ratios)


def test_bernoulli_taylor_limit_polynomial_is_exactish():
    f = Poly([2, 1, 0, -3])
    rows = im.bernoulli_taylor_limit(f, 0, [0.1, 0.01], 5)
    assert all(d < 1e-10 for _, d in rows)
    with pytest.raises(DomainError):
        im.bernoulli_taylor_limit(f, 0, [0.0], 5)


def test_bernoulli_degenerate_interval():
    with pytest.raises(DomainError):
        im.bernoulli_chars(Poly([1]), (1, 1), 3)


def test_fourier_approximant_sums_the_old_terms_bit_for_bit():
    values = (F(1, 3), 0, 0.5, F(0), -2.0, F(-7, 5), 0.0, 1e-300, F(1, 10 ** 400), 3)
    approx = im.FourierApproximant(im.CoeffSeq(values, "fourier"))
    family = Projection("fourier")
    terms = [family.term(n) for n in range(len(values))]
    xs = GaussLegendre().points(-math.pi, math.pi) + [0, F(1, 2), -0.0, 3.0]
    for x in xs:
        # the sum as written before: each term converts a_n and x itself
        want = sum(float(a) * (scale * shape(float(x)))
                   for a, (scale, shape) in zip(values, terms) if a != 0)
        got = approx(x)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# -- float characteristic numbers lifted into the exact Legendre layer -------------------


ACCEPTANCE_TARGETS = ("exp(x)", "sin(x)", "cos(x)", "arctan(x)", "ln(x^2 + 1)",
                      "sqrt(4 - x^2)")


@pytest.mark.parametrize("order", [11, 20, 40])
@pytest.mark.parametrize("text", ACCEPTANCE_TARGETS)
def test_float_legendre_matches_round_trip_with_zero_residuals(text, order):
    # the float moments and repeated integrals are lifted exactly, so the
    # matched polynomial reproduces them to the last bit
    f = exprs.parse(text)
    m = im.moments_compute(f, (-1, 1), order)
    c = im.higher_integral_chars(f, order)
    for approx, chars in ((im.legendre_moment_match(m), m.as_char_numbers()),
                          (im.higher_integral_approx(c), c)):
        assert not any(map(is_exact, chars.values))
        assert all(map(is_exact, approx.poly.coeffs))
        report = verify_matching(approx, chars)
        assert report.passed and all(r == 0 for r in report.residuals)


def ref_legendre_sum(beta):
    """The sum of beta_n P_n as legendre_fourier_approx accumulated it before
    the transposed table: one Poly term at a time, on float P_n for floats."""
    total = Poly([0])
    for n, b in enumerate(beta):
        p = specfun.legendre_coeffs(n)
        total = total + b * (p.as_float() if isinstance(b, float) else p)
    return total


LEGENDRE_SUMS = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0])), min_size=1, max_size=41),
    st.lists(st.one_of(st.integers(-10 ** 20, 10 ** 20), st.fractions(max_denominator=10 ** 6),
                       st.sampled_from([0, F(0)])), min_size=1, max_size=41))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(beta=LEGENDRE_SUMS)
def test_legendre_cols_sum_the_old_poly_loop_bit_for_bit(beta):
    got = Poly(tri_table(im._legendre_cols, len(beta)).apply(beta))
    assert key(got) == key(ref_legendre_sum(beta))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_characteristic_number_is_not_matched(bad):
    with pytest.raises(DomainError):
        im.legendre_moment_match(im.MomentSet((-1, 1), (1.0, bad, 0.5)))
    with pytest.raises(DomainError):
        im.higher_integral_approx(CharNumbers((0.25, bad), HigherIntegral()))


def test_a_polynomial_with_an_inf_coefficient_takes_the_quadrature_rule():
    p = Poly([1.0, math.inf, 2.0])
    got = Moments(-1, 1).measure(p, [0, 1, 2])
    assert key(got) == key(Moments(-1, 1).measure(lambda x: p(x), [0, 1, 2]))
    assert im.moments_compute(p, (-1, 1), 2).source == "quadrature"
