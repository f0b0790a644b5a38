"""Tests for every derivative-matching expansion family.

Each family is checked three ways where possible: frozen hand values,
an independent oracle (triangular solve against exactly computed basis
functionals, brute-force divisor sums, series multiplication), and the
universal jet-verification round trip.
"""

import functools
import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from charmatch import exprs, specfun
from charmatch import expansions as xp
from charmatch.errors import DomainError, EvalDomainError, SingularSystemError
from charmatch.figures import grid
from charmatch.jets import bessel_jn_jet
from charmatch.matching import (
    CharNumbers,
    CoeffSeq,
    Derivative,
    Nonlinear,
    TriMatrix,
    delta_check,
    derivative_chars,
    lift_exact,
    tri_forward_solve,
    verify_matching,
)
from charmatch.poly import is_exact, tri_table
from charmatch.registry import KIND_NAMES, build_kind, normalize_kind


F = Fraction


def chars_of(text, order, x0=0):
    return derivative_chars(exprs.parse(text), x0, order)


# -- Taylor ---------------------------------------------------------------------


def test_taylor_examples():
    assert xp.taylor_coeffs(chars_of("exp(x)", 3)).values == (1, 1, 1, 1)
    assert xp.taylor_coeffs(chars_of("sin(x)", 3)).values == (0, 1, 0, -1)
    assert xp.taylor_coeffs(chars_of("1 - x^2", 2)).values == (1, 0, -2)


def test_taylor_is_delta():
    # a_n depends only on c_n
    c = chars_of("exp(x)", 5)
    perturbed = CharNumbers(c.values[:3] + (c.values[3] + 7,) + c.values[4:], c.family)
    a, b = xp.taylor_coeffs(c).values, xp.taylor_coeffs(perturbed).values
    assert all(x == y for i, (x, y) in enumerate(zip(a, b)) if i != 3)


# -- Neumann series of Bessel functions ----------------------------------------------


def test_nsbf_sin_coefficients_exact():
    c = chars_of("sin(x)", 11)
    a = xp.nsbf_coeffs(c).values
    assert a == (0, 2, 0, -2, 0, 2, 0, -2, 0, 2, 0, -2)


def test_nsbf_zero_linearity():
    c = CharNumbers((0,) * 6, Derivative(0))
    assert all(v == 0 for v in xp.nsbf_coeffs(c).values)


def test_nsbf_cos_matches_jacobi_anger():
    # cos x = J_0 - 2 J_2 + 2 J_4 - ...; the even-order c_0 term in the sum
    # is essential for the matching property (checked by jets below)
    c = chars_of("cos(x)", 4)
    a = xp.nsbf_coeffs(c).values
    assert a[:3] == (1, 0, -2)
    assert a[4] == 2


def test_nsbf_against_triangular_solve():
    # independent route: measure C_k(J_n) exactly from Bessel jets and solve
    order = 9
    t = TriMatrix([
        [bessel_jn_jet(m, 0, order).derivatives()[n] for m in range(n + 1)]
        for n in range(order + 1)
    ])
    for text in ("exp(x)", "sin(x)", "cos(x)", "arctan(x)"):
        c = chars_of(text, order)
        assert xp.nsbf_coeffs(c).values == tri_forward_solve(t, c).values


def test_nsbf_round_trip_exact():
    for text in ("exp(x)", "cos(x)", "sqrt(4 - x^2)"):
        c = chars_of(text, 8)
        report = verify_matching(xp.nsbf_approx(c), c)
        assert report.passed and all(r == 0 for r in report.residuals)


def test_nsbf_evaluation_matches_bessel_sum():
    c = chars_of("sin(x)", 9)
    approx = xp.nsbf_approx(c)
    x = 2.3
    want = sum(2 * (-1) ** k * specfun.bessel_j(2 * k + 1, x) for k in range(5))
    assert abs(approx(x) - want) < 1e-14


# -- Pade ------------------------------------------------------------------------------


def test_pade_exp_1_1():
    c = chars_of("exp(x)", 2)
    approx = xp.PadeApproximant(xp.pade_solve(c, 1, 1))
    assert approx.p.coeffs == (1, F(1, 2))
    assert approx.q.coeffs == (1, F(-1, 2))


def test_pade_denominator_zero_is_taylor():
    c = chars_of("sin(x)", 5)
    approx = xp.PadeApproximant(xp.pade_solve(c, 5, 0))
    taylor = [c.values[k] * F(1, math.factorial(k)) for k in range(6)]
    assert list(approx.p.coeffs) == taylor


def test_pade_reconstructs_rational_function():
    c = chars_of("1 / (1 + x)", 1)
    approx = xp.pade_approx(c, 0, 1)
    report = verify_matching(approx, c)
    assert report.passed and all(r == 0 for r in report.residuals)
    assert approx.q.coeffs == (1, 1)


def test_pade_degenerate_block():
    # the [1/1] block of cos has no solution
    c = chars_of("cos(x)", 2)
    with pytest.raises(SingularSystemError):
        xp.pade_solve(c, 1, 1)


@pytest.mark.parametrize("x0", [0, F(1, 3)])
@pytest.mark.parametrize("text, order", [("1/(1 + x^2)", 11), ("1", 4), ("1 + x", 4),
                                         ("x^3", 20)])
def test_pade_solves_consistent_singular_blocks(text, order, x0):
    # each q-block is singular and has solutions: an unknown whose column has
    # no pivot is 0, and P - f Q = O(x^(m+n+1)) holds for any solution
    res = build_kind("pade", exprs.parse(text), order, x0=x0)
    report = verify_matching(res.approximant, res.chars)
    assert report.passed and all(r == 0 and is_exact(r) for r in report.residuals)


def test_pade_round_trip():
    c = chars_of("exp(x)", 8)
    report = verify_matching(xp.pade_approx(c, 4, 4), c)
    assert report.passed and all(r == 0 for r in report.residuals)


def test_pade_persistence_fails():
    # recomputing at a higher order changes previously computed coefficients.
    # For exp the diagonal pair (1,1)->(2,2) shares p_1 = m/(m+n) = 1/2 by a
    # symmetry accident, so the failure is shown on the adjacent blocks.
    c = chars_of("exp(x)", 6)

    def numerator(size, m, n):
        return xp.PadeApproximant(
            xp.pade_solve(CharNumbers(c.values[:size], c.family), m, n)).p.coeffs

    b11, b21 = numerator(3, 1, 1), numerator(4, 2, 1)
    b22, b33 = numerator(5, 2, 2), numerator(7, 3, 3)
    assert b11[1] != b21[1]
    assert b22[2] != b33[2]
    # the (1,1)->(2,2) accident itself, pinned so the ledgered deviation is visible
    assert b11[1] == b22[1]


@pytest.mark.parametrize("m, n", [(10, 10), (0, 5), (5, 0)])
def test_pade_solves_only_the_q_block(monkeypatch, m, n):
    shapes = []
    solve = xp._solve_dense

    def recording(matrix, rhs):
        shapes.append((len(matrix), {len(row) for row in matrix}, len(rhs)))
        return solve(matrix, rhs)

    monkeypatch.setattr(xp, "_solve_dense", recording)
    coeffs = xp.pade_solve(chars_of("exp(x)", m + n), m, n)
    assert shapes == [(n, {n} if n else set(), n)]
    assert coeffs.params == {"m": m, "n": n}
    assert len(coeffs.values) == m + n + 1


def test_pade_keeps_exact_terms_exact_beside_a_float_head():
    # the jet of ln(x^2 + 1) at 1/3 has a float head and an exact tail; the
    # full (m+n+1)-square system turned its P sums into floats through its
    # 0 * p_k terms and lost 3.3e-10 relative here
    c = chars_of("ln(x^2 + 1)", 40, F(1, 3))
    assert not all(map(is_exact, c.values)) and any(map(is_exact, c.values))
    got = xp.pade_solve(c, 20, 20).values
    exact = xp.pade_solve(CharNumbers(lift_exact(c.values), c.family), 20, 20).values
    assert all(map(is_exact, exact))
    for v, e in zip(got, exact):
        assert abs(F(v) - e) <= F(1e-15) * abs(e)


# -- powers of sines -----------------------------------------------------------------


def test_pow_sine_examples():
    assert xp.pow_sine_coeffs(chars_of("sin(x)", 1)).values == (0, 2)
    zero = CharNumbers((0,) * 4, Derivative(0))
    assert all(v == 0 for v in xp.pow_sine_coeffs(zero).values)
    a = xp.pow_sine_coeffs(chars_of("cos(x)", 2)).values
    assert a == (1, 0, -2)


def test_pow_sine_cos_is_finite_expansion():
    # cos x = 1 - 2 sin^2(x/2) exactly
    a = xp.pow_sine_coeffs(chars_of("cos(x)", 8)).values
    assert a == (1, 0, -2, 0, 0, 0, 0, 0, 0)


def test_pow_sine_round_trip_exact():
    for text in ("sin(x)", "exp(x)", "arctan(x)"):
        c = chars_of(text, 9)
        report = verify_matching(xp.powers_of_g_approx(c, "pow_sine"), c)
        assert report.passed and all(r == 0 for r in report.residuals)


# -- exp-weighted expansion ------------------------------------------------------------


def test_exp_weighted_w0_is_taylor():
    c = chars_of("arctan(x)", 6)
    a = xp.exp_weighted_coeffs(c, 0, 2).values
    want = tuple(c.values[n] * F(1, math.factorial(n)) for n in range(7))
    assert a == want


def test_exp_weighted_symbolic_a2():
    # q=2: a_2 = -w c_0 + c_2 / 2
    w = F(-1, 2)
    c = chars_of("cos(x)", 2)
    a = xp.exp_weighted_coeffs(c, w, 2).values
    assert a[2] == -w * c.values[0] + c.values[2] * F(1, 2)


def test_exp_weighted_exp_collapses():
    # f = e^x with w=1, q=1: e^x * 1
    c = chars_of("exp(x)", 6)
    a = xp.exp_weighted_coeffs(c, 1, 1).values
    assert a == (1, 0, 0, 0, 0, 0, 0)


def test_exp_weighted_matches_dmatrix_solve():
    c = chars_of("sin(x)", 8)
    for (w, q) in ((F(-1, 2), 2), (F(2), 3), (F(1), 1)):
        d, _ = xp.dmatrix_build(w, q, 8)
        assert (xp.exp_weighted_coeffs(c, w, q).values
                == tri_forward_solve(d, c).values)


def test_exp_weighted_round_trip_exact():
    c = chars_of("sin(x)", 10)
    approx = xp.exp_weighted_approx(c, F(-1, 2), 2)
    report = verify_matching(approx, c)
    assert report.passed and all(r == 0 for r in report.residuals)


def test_q_check_shared_by_dmatrix_and_exp_weighted():
    # an integral float q is that integer; any other q is refused alike
    c = chars_of("sin(x)", 4)
    d, dinv = xp.dmatrix_build(F(-1, 2), 2.0, 4)
    assert (d.rows, dinv.rows) == tuple(m.rows for m in xp.dmatrix_build(F(-1, 2), 2, 4))
    assert (xp.exp_weighted_coeffs(c, F(-1, 2), 2.0).values
            == xp.exp_weighted_coeffs(c, F(-1, 2), 2).values)
    for q in (1.5, 0, -2, F(3, 2), math.inf, math.nan):
        with pytest.raises(DomainError):
            xp.dmatrix_build(F(-1, 2), q, 4)
        with pytest.raises(DomainError):
            xp.exp_weighted_coeffs(c, F(-1, 2), q)


def test_dmatrix_properties():
    d, dinv = xp.dmatrix_build(F(0), 1, 6)
    for i in range(7):
        assert d.entry(i, i) == math.factorial(i)
        for j in range(i):
            assert d.entry(i, j) == 0  # w=0 kills every off-diagonal term
    for (w, q) in ((F(-1, 2), 2), (F(1), 1), (F(2), 3), (F(0), 2)):
        d, dinv = xp.dmatrix_build(w, q, 30)
        assert d.matmul(dinv).is_identity()


def test_dmatrix_inverse_of_a_float_w_is_the_exact_table_in_floats():
    for w, q in ((-0.5, 2), (0.1, 1), (3.0, 3)):
        _, dinv = xp.dmatrix_build(w, q, 12)
        _, exact = xp.dmatrix_build(F(w), q, 12)
        for row, exact_row in zip(dinv.rows, exact.rows):
            assert list(row) == [float(t) for t in exact_row]
            assert all(type(v) is float for v, t in zip(row, exact_row) if t)


# -- powers of g ------------------------------------------------------------------------


def test_log_powers_bell_numbers():
    c = chars_of("exp(x)", 3)
    a = xp.powers_of_g_coeffs(c, "log_powers").values
    assert a[2] == 1  # Bell(2)/2!
    assert a[3] == F(5, 6)  # Bell(3)/3!


def test_stirling1_g_exp_all_ones():
    c = chars_of("exp(x)", 6)
    a = xp.powers_of_g_coeffs(c, "stirling1_g").values
    assert a == (1,) * 7


def test_powers_of_g_zero_chars():
    zero = CharNumbers((0,) * 5, Derivative(0))
    for variant in ("log_powers", "stirling1_g", "lambert_w_g"):
        assert all(v == 0 for v in xp.powers_of_g_coeffs(zero, variant).values)


def test_lambert_w_g_coefficients_from_series():
    # independent check for exp: coefficients of exp(x e^x)
    order = 6
    target = exprs.parse("exp(x*exp(x))").lift(0, order)
    c = chars_of("exp(x)", order)
    a = xp.powers_of_g_coeffs(c, "lambert_w_g").values
    assert tuple(target.coeffs) == a


def test_powers_of_g_round_trip_exact():
    for variant in ("log_powers", "stirling1_g", "lambert_w_g"):
        for text in ("sin(x)", "ln(x^2 + 1)"):
            c = chars_of(text, 9)
            report = verify_matching(xp.powers_of_g_approx(c, variant), c)
            assert report.passed and all(r == 0 for r in report.residuals)


def test_powers_of_g_unknown_variant():
    c = chars_of("exp(x)", 4)
    for variant in ("nope", "custom"):
        with pytest.raises(DomainError):
            xp.powers_of_g_coeffs(c, variant)
        with pytest.raises(DomainError):
            xp.powers_of_g_approx(c, variant)
    # g = x/(x+1) reads alpha, which only rational_x1_coeffs takes
    with pytest.raises(DomainError, match="rational_x1_coeffs"):
        xp.powers_of_g_approx(c, "rational_x_over_x1")


POWERS_OF_G_KINDS = ["log_powers", "stirling1_g", "lambert_w_g", "pow_sine", "rational_x_over_x1"]


@pytest.mark.parametrize("kind", POWERS_OF_G_KINDS)
def test_every_powers_of_g_kind_is_one_series_in_g(kind):
    # one coefficient map, a_0 = c_0 and then the rows of _powers_of_g_rows on
    # the numbers (scaled by (-alpha)^k for x/(x+1)), and one approximant
    params = {"alpha": F(1, 3)} if kind == "rational_x_over_x1" else {}
    built = build_kind(kind, exprs.parse("exp(x) * cos(x)"), 12, **params)
    c = built.chars.values
    v = [(-params["alpha"]) ** k * ck for k, ck in enumerate(c)] if params else c
    rows = tri_table(xp._powers_of_g_rows, kind, len(c))
    assert isinstance(built.approximant, xp.SeriesInGApproximant)
    assert built.coeffs.values == (c[0], *rows.apply(v))
    assert built.coeffs.params == params


SERIES_IN_G = {
    "log_powers": lambda c: xp.powers_of_g_approx(c, "log_powers"),
    "stirling1_g": lambda c: xp.powers_of_g_approx(c, "stirling1_g"),
    "lambert_w_g": lambda c: xp.powers_of_g_approx(c, "lambert_w_g"),
    "pow_sine": lambda c: xp.powers_of_g_approx(c, "pow_sine"),
    "rational_x_over_x1": lambda c: xp.rational_x1_approx(c, -1),
}


@pytest.mark.parametrize("kind", SERIES_IN_G)
def test_series_in_g_maps_are_delta_up_to_60(kind):
    # With M the rows of the coefficient map (a = M c) and P(n, k) = [t^n] g^k,
    # the approximant built from the unit numbers e_m is phi_m = sum_k M[k][m] g^k
    # and C_n(phi_m) = (diag(n!) P M)[n][m].  The paper's C_n(phi_m) = delta_nm
    # is diag(n!) P M = I, which for square matrices is M diag(n!) P = I.
    order = 60
    basis = [SERIES_IN_G[kind](CharNumbers(tuple(int(n == m) for n in range(order + 1)),
                                           Derivative(0)))
             for m in range(order + 1)]
    m = delta_check(basis, Derivative(0))
    assert all(is_exact(v) for row in m for v in row)
    assert m == [[int(n == k) for k in range(order + 1)] for n in range(order + 1)]


# -- rational x/(x+1) --------------------------------------------------------------------


def test_rational_x1_exp_values():
    a = xp.rational_x1_coeffs(chars_of("exp(x)", 2), alpha=-1).values
    assert a == (1, 1, F(3, 2))


def test_rational_x1_constant():
    c = CharNumbers((5, 0, 0, 0), Derivative(0))
    assert xp.rational_x1_coeffs(c, alpha=-1).values == (5, 0, 0, 0)


def test_rational_x1_partial_x2_coefficient():
    # the order-2 partial approximant of exp reproduces the x^2 coefficient 1/2
    c = chars_of("exp(x)", 2)
    approx = xp.rational_x1_approx(c, alpha=-1)
    jet = approx.eval_jet(0, 2)
    assert jet.coeffs[2] == F(1, 2)


def test_rational_x1_pole_relocation():
    c = chars_of("exp(x)", 5)
    approx = xp.rational_x1_approx(c, alpha=2)
    # u = -x/alpha is -1 exactly at x = alpha: the pole is refused there, and
    # one ulp away on either side the approximant is huge but finite
    with pytest.raises(EvalDomainError):
        approx(2.0)
    for x in (math.nextafter(2.0, 0), math.nextafter(2.0, 3)):
        assert math.isfinite(approx(x)) and abs(approx(x)) > 1e30
    report = verify_matching(approx, c)
    assert report.passed and all(r == 0 for r in report.residuals)


def test_rational_x1_alpha_zero_rejected():
    with pytest.raises(DomainError):
        xp.rational_x1_coeffs(chars_of("exp(x)", 2), alpha=0)


# -- Dirichlet expansions ------------------------------------------------------------------


def test_dirichlet_g_divisor_sums():
    # f = x: f_1 = 1, others 0 -> a_n = 1 for every n
    c = chars_of("x", 12)
    a = xp.dirichlet_expansion_coeffs(c, "dirichlet_g")
    assert a.values == (1,) * 12
    assert a.params["b0"] == 0


def test_dirichlet_rat1_recovers_moebius():
    c = chars_of("x", 20)
    a = xp.dirichlet_expansion_coeffs(c, "dirichlet_rat1")
    assert a.values == tuple(specfun.moebius(n) for n in range(1, 21))
    assert a.params["b0"] == 0 - sum(a.values)


def test_dirichlet_zero_function():
    zero = CharNumbers((F(7),) + (0,) * 8, Derivative(0))
    for variant in ("dirichlet_g", "dirichlet_rat1", "dirichlet_rat2"):
        coeffs = xp.dirichlet_expansion_coeffs(zero, variant)
        assert all(v == 0 for v in coeffs.values)
        assert coeffs.params["b0"] == 7


def test_dirichlet_sieve_table_identity():
    # re-collected by powers of x: sum_{k|n} a_k g_{n/k} must reproduce f_n
    rng = random.Random(99)
    for _ in range(5):
        g = [rng.randint(1, 5)] + [rng.randint(-4, 4) for _ in range(63)]
        f = [rng.randint(-4, 4) for _ in range(64)]
        g_inv = specfun.dirichlet_inverse(g)
        a = specfun.dirichlet_convolve(g_inv, f)
        back = specfun.dirichlet_convolve(a, g)
        assert all(x == y for x, y in zip(back, f))


@pytest.mark.parametrize("variant, inverse", [
    ("dirichlet_g", lambda k: 1), ("dirichlet_rat1", specfun.moebius),
    ("dirichlet_rat2", specfun.nu)])
def test_dirichlet_coefficient_map_is_the_inverse_of_the_series(variant, inverse):
    # a_n = sum_{k | n} gamma^-1(k) f_(n/k) with gamma^-1 = 1, mu, nu
    c = chars_of("exp(x)", 40)
    f = [F(ck, math.factorial(k)) for k, ck in enumerate(c.values)]
    want = [sum(inverse(k) * f[n // k] for k in range(1, n + 1) if n % k == 0)
            for n in range(1, 41)]
    assert list(xp.dirichlet_expansion_coeffs(c, variant).values) == want
    # one characteristic number reads no row of the map
    assert xp.dirichlet_expansion_coeffs(CharNumbers((0,), Derivative(0)), variant).values == ()


def test_dirichlet_round_trip_exact():
    for variant in ("dirichlet_g", "dirichlet_rat1", "dirichlet_rat2"):
        for text in ("exp(x)", "sin(x)"):
            c = chars_of(text, 10)
            report = verify_matching(xp.dirichlet_approx(c, variant), c)
            assert report.passed and all(r == 0 for r in report.residuals)


def test_dirichlet_rat1_rejects_unit_circle():
    c = chars_of("exp(x)", 6)
    approx = xp.dirichlet_approx(c, "dirichlet_rat1")
    for x in (1.0, -1.0):
        with pytest.raises(EvalDomainError):
            approx(x)
    assert math.isfinite(approx(0.5))
    assert math.isfinite(approx(3.0))  # defined beyond the unit circle


def test_dirichlet_rat2_finite_on_unit_circle():
    c = chars_of("exp(x)", 6)
    approx = xp.dirichlet_approx(c, "dirichlet_rat2")
    assert math.isfinite(approx(1.0))
    assert math.isfinite(approx(-1.0))


def test_dirichlet_g_domain():
    c = chars_of("exp(x)", 6)
    approx = xp.dirichlet_approx(c, "dirichlet_g")
    with pytest.raises(EvalDomainError):
        approx(1.0)


def test_dirichlet_g_refuses_unconverged_series():
    # at 0.999 the Moebius series misses its tail bound within the term cap
    approx = xp.dirichlet_approx(chars_of("exp(x)", 6), "dirichlet_g")
    with pytest.raises(EvalDomainError, match="tail bound"):
        approx(0.999)
    assert math.isfinite(approx(0.5))


def test_moebius_g_eval():
    assert xp.moebius_G_eval(0.0, 10).value == 0.0
    v40 = xp.moebius_G_eval(0.5, 40)
    v80 = xp.moebius_G_eval(0.5, 80)
    assert abs(v40.value - v80.value) < 1e-10
    assert v40.tail_bound == pytest.approx(0.5 ** 41 / 0.5)
    with pytest.raises(DomainError):
        xp.moebius_G_eval(1.0)


def test_moebius_g_even_part():
    # series rearrangement: (G(x) + G(-x))/2 = sum over even n
    x = 0.4
    n = 60
    even = sum(specfun.moebius(k) * x ** k for k in range(2, n + 1, 2))
    g1 = xp.moebius_G_eval(x, n).value
    g2 = xp.moebius_G_eval(-x, n).value
    assert abs(0.5 * (g1 + g2) - even) < 1e-14


@functools.lru_cache(maxsize=None)
def _a_star_mu(a, n_terms):
    # (a * mu)_k for k = 1..n_terms, summed over the divisors d of k ascending
    return [sum(a[d - 1] * specfun.moebius(k // d)
                for d in range(1, min(k, len(a)) + 1) if k % d == 0)
            for k in range(1, n_terms + 1)]


def _moebius_G_full(x, n_terms, a=(1,)):
    # the plain partial sum of sum_k (a * mu)_k x^k, the one series of
    # sum_n a_n G(x^n), over all n_terms terms with no early exit
    acc, xn = 0.0, 1.0
    for c in _a_star_mu(a, n_terms):
        xn *= x
        if c:
            acc += c * xn
    return acc


def _added(values):
    # left to right: the builtin sum of floats is compensated from Python 3.12 on
    acc = 0
    for v in values:
        acc += v
    return acc


def _weights(rng):
    # weight vectors with ints, Fractions and zeros, and random ones over a
    # wide range of scales with zeros and a_1 = 0 in some
    out = [(1,), (0, 3, 0, -2), (F(1, 3), 0, F(-7, 2), 5), (1e-3, 0.0, -1e3), (0.0,)]
    for i in range(4):
        a = [rng.choice((0.0, 1.0)) * rng.uniform(-1, 1) * 10 ** rng.uniform(-3, 3)
             for _ in range(rng.randint(1, 12))]
        if i % 2:
            a[0] = 0.0
        out.append(tuple(a))
    return out


def _stop_term(x, n_terms, a):
    # the first k whose term the per-term test W |x^k| < 2^-55 |acc| would
    # skip, n_terms + 1 where it skips none (always for W = 0)
    weight = _added(map(abs, a))
    if not weight:
        return n_terms + 1
    negligible = 2.0 ** -55 / weight
    acc, xn = 0.0, 1.0
    for k, c in enumerate(_a_star_mu(a, n_terms), start=1):
        xn *= x
        if abs(xn) < negligible * abs(acc):
            return k
        if c:
            acc += c * xn
    return n_terms + 1


# x = 0, the smallest subnormals and points up to the largest float below 1
_G_EDGES = [0.0, -0.0, 5e-324, -5e-324] + [s * (1 - 2.0 ** -k) for k in (1, 4, 10, 30, 53)
                                           for s in (1, -1)]


# every length of the adaptive ladder, and two whose last block is partial
@pytest.mark.parametrize("n_terms", [64 * 2 ** i for i in range(8)] + [100, 1000])
def test_moebius_g_early_exit_is_bit_identical(n_terms):
    rng = random.Random(n_terms)
    scan = [s * i / 64 for i in range(1, 64) for s in (1, -1)]
    for a in _weights(rng):
        weight = _added(map(abs, a))
        # points whose per-term stop falls one term before, on and one term
        # after the end of a block of the G series
        near = {15: [], 0: [], 1: []}
        for x in scan:
            k = _stop_term(x, n_terms, a)
            if k <= n_terms and k % 16 in near and len(near[k % 16]) < 3:
                near[k % 16].append(x)
        assert all(near.values()) or not weight, (a, near)
        randoms = [rng.uniform(-0.999, 0.999) for _ in range(25)]
        for x in _G_EDGES + sum(near.values(), []) + randoms:
            got = xp.moebius_G_eval(x, n_terms, a)
            assert got.value.hex() == _moebius_G_full(x, n_terms, a).hex(), (a, x)
            assert got.tail_bound == weight * abs(x) ** (n_terms + 1) / (1 - abs(x))


def _g_outcomes(points, tuples) -> list:
    """The bits of moebius_G_eval (value, tail bound) and of _G_adaptive at
    each point for each coefficient tuple, or what _G_adaptive raised."""
    out = []
    for a in tuples:
        for x in points:
            got = xp.moebius_G_eval(x, 64, a)
            try:
                adaptive = xp._G_adaptive(x, a).hex()
            except EvalDomainError as exc:
                adaptive = str(exc)
            out.append((got.value.hex(), got.tail_bound.hex(), adaptive))
    return out


def test_moebius_g_weight_is_the_loop_once_per_tuple(monkeypatch):
    rng = random.Random(34)
    tuples = [tuple(float(v) for v in a) for a in _weights(rng)]
    points = _G_EDGES + [rng.uniform(-0.999, 0.999) for _ in range(20)]
    xp._G_weight.cache_clear()
    cached = _g_outcomes(points, tuples)
    info = xp._G_weight.cache_info()
    assert info.misses == len(set(tuples)) and info.hits > 0
    monkeypatch.setattr(xp, "_G_weight", xp._G_weight.__wrapped__)
    assert _g_outcomes(points, tuples) == cached


def test_equal_tuples_of_other_types_keep_their_own_weight(monkeypatch):
    # the Fractions sum exactly to 1 + 2^-52, the equal floats round to 1.0,
    # so a W shared between the two would move the float tail bound's bits
    exact = (F(1), F(1, 2 ** 53), F(1, 2 ** 53))
    floats = tuple(float(v) for v in exact)
    assert exact == floats
    points = _G_EDGES + [0.3, -0.7, 0.99]
    xp._G_weight.cache_clear()
    assert type(xp._G_weight(1)) is int and type(xp._G_weight(1.0)) is float
    primed = _g_outcomes(points, [exact, floats, (1,), (1.0,)])
    monkeypatch.setattr(xp, "_G_weight", xp._G_weight.__wrapped__)
    assert _g_outcomes(points, [exact, floats, (1,), (1.0,)]) == primed
    assert _g_outcomes([0.5], [exact]) != _g_outcomes([0.5], [floats])


def test_the_weight_cache_is_bounded_and_emptied_before_every_bench_case(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    xp.moebius_G_eval(0.5, 64, (0.25, -1.0))
    info = xp._G_weight.cache_info()
    assert info.currsize > 0 and info.maxsize is not None
    workloads.clear_caches()
    assert xp._G_weight.cache_info().currsize == 0


@pytest.mark.parametrize("x", [math.nan, 1.0, -1.0, math.inf, -math.inf])
def test_moebius_g_refuses_points_off_the_open_unit_disc(x):
    with pytest.raises(DomainError, match=r"\|x\| < 1"):
        xp.moebius_G_eval(x, 64, (0.0,))


def test_dirichlet_g_sums_to_the_first_sufficient_length():
    # b_0 + sum a_n G(x^n) is b_0 plus the full partial sum of the one series
    # sum_k (a * mu)_k x^k to the first doubling length whose weighted tail
    # bound W |x|^(n+1) / (1 - |x|), W = sum |a_n|, is at most 1e-15
    for text, order, x in (("exp(x)", 3, 0.93), ("exp(x)", 3, -0.6),
                           ("sin(5*x)", 10, 0.93), ("sin(5*x)", 10, 0.3)):
        approx = xp.dirichlet_approx(chars_of(text, order), "dirichlet_g")
        a = approx.coeffs.floats
        weight = _added(map(abs, a))
        b0 = float(approx.b0)
        length = 64
        while weight * abs(x) ** (length + 1) / (1 - abs(x)) > 1e-15:
            length *= 2
        got = approx(x)
        assert got == b0 + _moebius_G_full(x, length, a)
        # and it is the per-term sum, each G(x^n) to its own sufficient length
        old = b0
        for n, an in enumerate(a, start=1):
            y, length = x ** n, 64
            while abs(y) ** (length + 1) / (1 - abs(y)) > 1e-15:
                length *= 2
            old += an * _moebius_G_full(y, length)
        assert got == pytest.approx(old, rel=1e-14)


# -- dex functions ----------------------------------------------------------------------


def test_dex_known_functions():
    for x in [-5 + i * 0.5 for i in range(21)]:
        assert abs(xp.dex_eval(1, 0, x) - math.exp(x)) < 1e-12 * max(1, math.exp(x))
        assert abs(xp.dex_eval(2, 0, x) - math.cosh(x)) < 1e-12 * max(1, math.cosh(x))
        assert abs(xp.dex_eval(2, 1, x) - math.sinh(x)) < 1e-12 * max(1, math.cosh(x))


def test_dex_ring_derivative_property():
    # d/dx dex_[3,0] = dex_[3,2] on series coefficients through order 12
    def dex_jet(index, order):
        one_hot = tuple(int(n == index) for n in range(3))
        return xp.DexApproximant(CoeffSeq(one_hot, "dex", {"ring": 3}), 0).eval_jet(0, order)

    j0 = dex_jet(0, 13)
    j2 = dex_jet(2, 12)
    deriv = tuple((k + 1) * j0.coeffs[k + 1] for k in range(12))
    assert deriv == j2.coeffs[:12]


def _dex_per_ring(ring, index, x, tol=1e-15):
    # the per-ring series with its own adaptive truncation
    term = x ** index / math.factorial(index)
    acc = term
    power = index
    for _ in range(500):
        for _ in range(ring):
            power += 1
            term *= x / power
        acc += term
        if abs(term) <= tol * max(1.0, abs(acc)):
            break
    return acc


def test_dex_ladder_matches_per_ring_series():
    xs = [-3.0 + 0.37 * i for i in range(17)] + [3.0, -1e-3, 0.0]
    for ring in range(1, 46):
        for index in range(ring):
            for x in xs:
                v = xp.dex_eval(ring, index, x)
                assert abs(v - _dex_per_ring(ring, index, x)) <= 1e-15 * max(1.0, abs(v))


def test_dex_eval_adds_its_ladder_left_to_right():
    rng = random.Random(8)
    for _ in range(400):
        ring = rng.randint(1, 12)
        index = rng.randrange(ring)
        x = rng.uniform(-40, 40)
        ladder = xp._dex_ladder(x, max(64, index + 1))
        assert xp.dex_eval(ring, index, x).hex() == _added(ladder[index::ring]).hex(), x


def test_dex_high_index_keeps_its_leading_term():
    # index 69 lies past the shared 64-term ladder, whose terms at x = 0.5
    # drop below 1e-15 from j = 14 on, so the ladder is extended to reach it
    v = xp.dex_eval(70, 69, 0.5)
    assert v == pytest.approx(0.5 ** 69 / math.factorial(69), rel=1e-13)


@pytest.mark.parametrize("x", [math.nan, math.inf, 701.0, -1e6])
def test_dex_refuses_nonfinite_and_large_arguments(x):
    with pytest.raises(DomainError):
        xp.dex_eval(2, 0, x)
    with pytest.raises(DomainError):
        xp.prime_indicator_eval(x)


def test_dex_index_domain():
    with pytest.raises(DomainError):
        xp.dex_eval(3, 3, 1.0)


def test_dex_approx_matching_and_cyclicity():
    for ring in (3, 4, 5):
        c = chars_of("sin(x)", ring - 1)
        approx = xp.dex_approx(c)
        report = verify_matching(approx, c)
        assert report.passed and all(r == 0 for r in report.residuals)
        jet = approx.eval_jet(0, 2 * ring - 1)
        der = jet.derivatives()
        for m in range(ring, 2 * ring):
            assert der[m] == c.values[m % ring]


def test_prime_indicator():
    vals = xp.prime_indicator_P(30)
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for p in range(2, 31):
        if p in primes:
            assert vals[p] == 1
        else:
            assert vals[p] != 1
    assert vals[6] == 3
    assert vals[7] == 1
    assert vals[2] == 1



def test_prime_indicator_counts_the_divisors_past_1():
    vals = xp.prime_indicator_P(300)
    want = (0, *(sum(1 for i in range(2, p + 1) if p % i == 0) for p in range(1, 301)))
    assert vals == want and all(type(v) is int for v in vals)
    assert xp.prime_indicator_P(2) == (0, 0, 1)
    with pytest.raises(DomainError):
        xp.prime_indicator_P(1)

def _prime_indicator_mp(mpmath, x):
    # P^(k)(x) = sum_{i=2..40} dex_[i, -k mod i](x) - 39 [k = 0], k = 0..3,
    # with dex_[i,n](x) = sum_m x^(n + m i) / (n + m i)!, at 50 digits
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        powers = [mpmath.mpf(1)]  # x^j / j! until far below 10^-50 of the sum
        while len(powers) < 80 or abs(powers[-1]) > mpmath.mpf(10) ** -70:
            powers.append(powers[-1] * x / len(powers))
        return [sum(sum(powers[(-k) % i::i]) for i in range(2, 41)) - (39 if k == 0 else 0)
                for k in range(4)]


def test_prime_indicator_eval_reads_one_ladder():
    # within 4 units of 2^-53 of each P^(k), relative, on every 10th point of
    # the pprime figure's grid and near 0, where P(x) ~ x^2 / 2 is small
    mpmath = pytest.importorskip("mpmath")
    for x in grid(-3.0, 3.0, 1201)[::10] + [1e-3, -1e-3, 1e-6, -1e-6]:
        got = xp.prime_indicator_eval(x)
        for k, want in enumerate(_prime_indicator_mp(mpmath, x)):
            assert abs(got[k] - want) <= 4 * 2.0 ** -53 * abs(want), (x, k)
    # at 0 the truncated sum i <= 40 gives the exact derivatives up to order 39
    exact = xp.prime_indicator_P(39)
    assert xp.prime_indicator_eval(0.0) == tuple(exact[:4])


# -- nonlinear approximation ------------------------------------------------------------


def test_nonlinear_identity_reduces_to_taylor():
    f = exprs.parse("sin(x)")
    c = xp.nonlinear_chars(f, "identity", 0, 6)
    assert c.values == derivative_chars(f, 0, 6).values
    approx = xp.nonlinear_approx(c)
    taylor = xp.taylor_approx(derivative_chars(f, 0, 6))
    assert approx.inner.coeffs == taylor.poly.coeffs


def test_nonlinear_ln_exp_is_exact():
    f = exprs.parse("exp(x)")
    c = xp.nonlinear_chars(f, "ln", 0, 8)
    assert c.values == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    approx = xp.nonlinear_approx(c)
    for x in (-2.0, 0.3, 1.7):
        assert abs(approx(x) - math.exp(x)) < 1e-14 * math.exp(x)
    report = verify_matching(approx, c)
    assert report.passed and all(r == 0 for r in report.residuals)


def test_nonlinear_delta_coefficients_give_omega():
    c = CharNumbers((0, 1, 0, 0, 0), Nonlinear("ln", 0))
    approx = xp.nonlinear_approx(c)
    for x in (-1.0, 0.0, 2.0):
        assert abs(approx(x) - math.exp(x)) < 1e-14 * math.exp(x)


def test_nonlinear_transformed_jet_under_another_transform():
    # A = exp(x) built under ln; under sqrt and cube, Lambda(A) = exp(x/2)
    # and exp(3x), and under the identity it is A's own jet
    approx = xp.nonlinear_approx(xp.nonlinear_chars(exprs.parse("exp(x)"), "ln", 0, 8))
    for transform, rate in (("sqrt", F(1, 2)), ("cube", 3), ("identity", 1)):
        jet = approx.transformed_jet(transform, 0, 6)
        assert jet.coeffs == tuple(F(rate) ** n / math.factorial(n) for n in range(7))
    assert approx.transformed_jet("identity", F(1, 2), 4) == approx.eval_jet(F(1, 2), 4)
    assert approx.transformed_jet("ln", 0, 6).coeffs == (0, 1, 0, 0, 0, 0, 0)


def test_nonlinear_round_trip_sqrt_and_cube():
    for text, lam in (("cos(x)", "sqrt"), ("arctan(x)", "cube"), ("exp(x)", "ln")):
        f = exprs.parse(text)
        c = xp.nonlinear_chars(f, lam, 0, 8)
        report = verify_matching(xp.nonlinear_approx(c), c)
        assert report.passed


def test_nonlinear_domain_error():
    f = exprs.parse("sin(x)")  # sin(0) = 0: ln undefined
    with pytest.raises(Exception):
        xp.nonlinear_chars(f, "ln", 0, 4)


# -- persistence across orders --------------------------------------------------------------


PERSISTENT_KINDS = (
    "taylor", "nsbf", "pow_sine", "exp_weighted", "log_powers",
    "stirling1_g", "lambert_w_g", "rational_x_over_x1",
    "dirichlet_g", "dirichlet_rat1", "dirichlet_rat2",
)


@pytest.mark.parametrize("kind", PERSISTENT_KINDS)
def test_coefficient_persistence(kind):
    f = exprs.parse("exp(x)")
    low = build_kind(kind, f, 6).coeffs
    high = build_kind(kind, f, 9).coeffs
    assert low.values == high.values[: len(low.values)]


def test_dirichlet_rat1_b0_is_order_dependent():
    # the one non-persistent coefficient of that family
    f = exprs.parse("exp(x)")
    low = build_kind("dirichlet_rat1", f, 6).coeffs
    high = build_kind("dirichlet_rat1", f, 9).coeffs
    assert low.params["b0"] != high.params["b0"]


def test_registry_names_and_aliases():
    assert len(KIND_NAMES) == 14
    assert normalize_kind("newpade") == "rational_x_over_x1"
    assert normalize_kind("dirichlet-G") == "dirichlet_g"
    with pytest.raises(DomainError):
        normalize_kind("fourier-madeup")


@pytest.mark.parametrize("kind", KIND_NAMES)
def test_coefficients_follow_the_type_of_the_characteristic_numbers(kind):
    f = exprs.parse("exp(x)")
    floats = build_kind(kind, f, 40, x0=0.5)
    assert all(isinstance(v, float) for v in floats.chars.values)
    assert all(isinstance(v, float) for v in floats.coeffs.values)
    exact = build_kind(kind, f, 40, x0=0)
    assert all(isinstance(v, (int, F)) for v in exact.chars.values)
    assert all(isinstance(v, (int, F)) for v in exact.coeffs.values)
