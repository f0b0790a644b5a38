"""Framework tests: triangular solving, measurement, verification, delta checks."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch import exprs, specfun
from charmatch.errors import DomainError, FamilyMismatchError, SingularSystemError
from charmatch.matching import (
    TOL_ABS,
    TOL_REL,
    CharNumbers,
    Derivative,
    EndpointDiff,
    Family,
    HigherIntegral,
    Moments,
    Nonlinear,
    NONLINEAR_TRANSFORMS,
    TriMatrix,
    PolynomialApproximant,
    Projection,
    ValueNodes,
    delta_check,
    derivative_chars,
    measure,
    tri_forward_solve,
    verify_matching,
)
from charmatch.integral_match import bernoulli_chars, moments_compute
from charmatch.poly import Poly
from charmatch.expansions import taylor_approx
from charmatch.registry import build_kind
from result_key import key


F = Fraction


# -- triangular systems ----------------------------------------------------------


def test_tri_solve_identity():
    t = TriMatrix([[1], [0, 1], [0, 0, 1]])
    c = (3, -2, 5)
    assert tri_forward_solve(t, c).values == c


def test_tri_solve_all_ones():
    t = TriMatrix([[1], [1, 1], [1, 1, 1]])
    assert tri_forward_solve(t, (1, 2, 4)).values == (1, 1, 2)


def test_tri_solve_zero_diagonal():
    t = TriMatrix([[1], [1, 0]])
    with pytest.raises(SingularSystemError):
        tri_forward_solve(t, (1, 1))


def test_trimatrix_validation():
    with pytest.raises(DomainError):
        TriMatrix([[1], [2, 3, 4]])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=10_000))
def test_tri_solve_round_trip(order, seed):
    import random

    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(n)] + [rng.choice([-3, -1, 1, 2, 5])]
            for n in range(order + 1)]
    t = TriMatrix(rows)
    c = [rng.randint(-50, 50) for _ in range(order + 1)]
    sol = tri_forward_solve(t, c)
    back = t.multiply(sol.values)
    assert all(a == b for a, b in zip(back, c))


# -- measurement and verification ---------------------------------------------------


def test_taylor_self_verification_is_exact():
    f = exprs.parse("exp(x)")
    c = derivative_chars(f, 0, 6)
    report = verify_matching(taylor_approx(c), c)
    assert report.passed
    assert all(r == 0 for r in report.residuals)


@pytest.mark.parametrize("kind", [
    "log_powers", "stirling1_g", "lambert_w_g", "rational_x_over_x1",
    "dirichlet_g", "dirichlet_rat1", "dirichlet_rat2",
])
def test_exact_verification_holds_past_the_tested_orders(kind):
    res = build_kind(kind, exprs.parse("exp(x)"), 60)
    report = verify_matching(res.approximant, res.chars)
    assert len(report.residuals) == 61
    assert all(isinstance(r, (int, Fraction)) and r == 0 for r in report.residuals)
    assert report.passed


def test_verify_fails_on_perturbed_numbers():
    f = exprs.parse("exp(x)")
    c = derivative_chars(f, 0, 4)
    wrong = CharNumbers(c.values[:-1] + (c.values[-1] + F(1, 100),), c.family)
    report = verify_matching(taylor_approx(c), wrong)
    assert not report.passed


def test_report_json_shape():
    f = exprs.parse("sin(x)")
    c = derivative_chars(f, 0, 4)
    report = verify_matching(taylor_approx(c), c)
    data = json.loads(report.to_json())
    assert set(data) == {"kind", "order", "family", "residuals", "max_residual", "pass"}
    assert data["pass"] is True and data["order"] == 4


def test_measure_moments_exact_and_quadrature():
    p = Poly([0, 0, 1])  # x^2
    vals = measure(p, Moments(-1, 1), range(3))
    assert vals == [F(2, 3), 0, F(2, 5)]
    f = exprs.parse("sin(x)")
    got = measure(f, Moments(-1, 1), [1])[0]
    want = 2 * (math.sin(1) - math.cos(1))  # integral of x sin x over (-1,1)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("ends", [(-1, math.inf), (-math.inf, 0.5), (math.nan, 1)])
def test_moments_refuse_a_non_finite_end(ends):
    # the closed form and the rule would both give nan numbers
    with pytest.raises(DomainError):
        Moments(*ends)
    with pytest.raises(DomainError):
        moments_compute(Poly([1, 2]), ends, 2)
    with pytest.raises(DomainError):
        Moments(*ends).chars(exprs.parse("exp(x)"), 3)


@pytest.mark.parametrize("ends", [(0, math.inf), (-math.inf, 0.5), (math.nan, 1), (0, math.nan)])
@pytest.mark.parametrize("zeroth", ["value", "integral"])
def test_endpoint_differences_refuse_a_non_finite_end(ends, zeroth):
    # an inf end gave c = (1, inf, inf, 0) and then the approximant Poly([nan]);
    # a nan end failed later, in the jet arithmetic, with another message
    with pytest.raises(DomainError, match="finite ends"):
        EndpointDiff(*ends, zeroth=zeroth)
    with pytest.raises(DomainError, match="finite ends"):
        bernoulli_chars(Poly([1, 2, 3]), ends, 3, zeroth=zeroth)


@pytest.mark.parametrize("anchor", [math.inf, -math.inf, math.nan])
def test_endpoint_differences_refuse_a_non_finite_anchor(anchor):
    with pytest.raises(DomainError, match="finite ends"):
        EndpointDiff(0, 1, zeroth="value", anchor=anchor)
    with pytest.raises(DomainError, match="finite ends"):
        bernoulli_chars(Poly([1, 2, 3]), (0, 1), 3, anchor=anchor)


def test_measure_values_family():
    p = Poly([0, 1])
    vals = measure(p, ValueNodes((0, 2, 5)), range(3))
    assert vals == [0, 2, 5]


def test_family_mismatch_for_non_jet_target():
    class Opaque:
        def __call__(self, x):
            return 0.0

    with pytest.raises(FamilyMismatchError):
        measure(Opaque(), Derivative(0), range(3))


FAMILIES = [Derivative(0), Moments(-1, 1), HigherIntegral(), EndpointDiff(0, 1),
            EndpointDiff(0, 1, zeroth="value"), ValueNodes((0, F(1, 2), 1, 2)),
            Projection("legendre"), Projection("fourier"), Nonlinear("ln", 0)]
# exact polynomial, float polynomial and non-polynomial targets, f(0) > 0 for ln
TARGETS = [Poly([1, F(1, 2), 3]), Poly([1.0, 0.5, 3.0]), exprs.parse("exp(x) + x^2")]


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
@pytest.mark.parametrize("target", TARGETS, ids=["exact", "float", "expr"])
def test_measure_gives_one_value_per_order_in_order(family, target):
    orders = [3, 1] if isinstance(family, HigherIntegral) else [2, 0]
    got = measure(target, family, orders)
    assert got == [measure(target, family, [n])[0] for n in orders]


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_family_chars_measures_its_orders(family):
    assert isinstance(family, Family)
    f = TARGETS[-1]
    want = CharNumbers(measure(f, family, family.orders(4)), family)
    assert repr(family.chars(f, 4)) == repr(want)


# -- delta checks ----------------------------------------------------------------------


def test_taylor_basis_is_delta_under_derivatives():
    basis = [Poly([0] * n + [F(1, math.factorial(n))]) for n in range(6)]
    m = delta_check(basis, Derivative(0), 6)
    for i in range(6):
        for j in range(6):
            assert m[i][j] == (1 if i == j else 0)


def test_legendre_basis_is_triangular_under_moments():
    basis = [specfun.legendre_coeffs(n) for n in range(8)]
    m = delta_check(basis, Moments(-1, 1), 8)
    for i in range(8):
        for j in range(8):
            if j > i:
                assert m[i][j] == 0
        assert m[i][i] != 0


def test_bernoulli_basis_is_delta_under_endpoint_family():
    basis = [specfun.bernoulli_poly(n) * F(1, math.factorial(n)) for n in range(11)]
    m = delta_check(basis, EndpointDiff(0, 1, zeroth="integral"), 11)
    for i in range(11):
        for j in range(11):
            assert m[i][j] == (1 if i == j else 0)


# -- nonlinear transforms ----------------------------------------------------------------


def test_nonlinear_registry_roundtrips():
    for name in ("identity", "ln", "sqrt", "cube"):
        tr = NONLINEAR_TRANSFORMS[name]
        for y in (0.3, 1.7, 4.0):
            assert abs(tr.omega(tr.lam(y)) - y) < 1e-12


def test_cube_transform_on_negatives():
    tr = NONLINEAR_TRANSFORMS["cube"]
    assert tr.omega(-8.0) == -2.0


def test_nonlinear_family_measurement():
    f = exprs.parse("exp(x)")
    vals = measure(f, Nonlinear("ln", 0), range(4))
    assert vals == [0, 1, 0, 0]


def test_endpoint_family_validation():
    with pytest.raises(DomainError):
        EndpointDiff(0, 1, zeroth="nope")
    fam = EndpointDiff(0, 1, zeroth="value")
    assert fam.anchor == 0


def test_polynomial_approximant_as_poly_moves_its_center():
    # p(x - 1/3) as a polynomial in x: the compose_affine branch
    approx = PolynomialApproximant(Poly([1, F(2), 3]), center=F(1, 3))
    assert approx.as_poly() == Poly([F(2, 3), 0, 3])
    for x in (F(0), F(5), F(-7, 2)):
        assert approx.as_poly()(x) == approx(x)
    assert PolynomialApproximant(Poly([1, 2])).as_poly() == Poly([1, 2])


class _Measured(Family):
    """A family whose measurement of any target is the given values."""

    def __init__(self, values):
        self.values = values

    def describe(self) -> str:
        return "measured"

    def measure(self, target, orders):
        return [self.values[n] for n in orders]


def _plain_residuals(got, want):
    """The residuals and the verdict, each number meeting the other as it is."""
    residuals, passed = [], True
    for g, w in zip(got, want):
        r = abs(g - w)
        residuals.append(r)
        try:
            allowed = max(TOL_REL * abs(w), TOL_ABS)
        except OverflowError:
            allowed = math.inf
        if not float(r) <= allowed:
            passed = False
    return residuals, passed


EXACT = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(-1000, 1000, max_denominator=60),
                  st.sampled_from([0, F(10 ** 400), F(1, 10 ** 400), 10 ** 400]))
FLOAT = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, math.inf, math.nan]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs=st.lists(st.one_of(st.tuples(EXACT, FLOAT), st.tuples(FLOAT, EXACT),
                                st.tuples(EXACT, EXACT), st.tuples(FLOAT, FLOAT)),
                      min_size=1, max_size=12))
def test_residuals_of_exact_and_float_numbers_match_the_plain_operators(pairs):
    got, want = zip(*pairs)
    try:
        wanted = _plain_residuals(got, want)
    except OverflowError:  # an exact number beyond the float range meets a float
        with pytest.raises(OverflowError):
            verify_matching(None, CharNumbers(want, _Measured(got)))
        return
    report = verify_matching(None, CharNumbers(want, _Measured(got)))
    assert key((list(report.residuals), report.passed)) == key(wanted)


@pytest.mark.parametrize("values", [(math.nan, 1.0), (1.0, math.nan)])
def test_nan_residual_fails_verification(values):
    approx = PolynomialApproximant(Poly([0.0, 1.0]))
    report = verify_matching(approx, CharNumbers(values, Derivative(0)))
    assert report.passed is False
    assert math.isnan(report.max_residual)
