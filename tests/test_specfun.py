"""Tests for the exact sequences and special functions.

Every derived value is checked against an independent oracle computed in
this file (recurrences, brute-force divisor sums, bisections) before being
asserted.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch import specfun
from charmatch.errors import DomainError
from charmatch.poly import Poly


# -- oracles -----------------------------------------------------------------


def stirling2_explicit(n, k):
    # S(n, k) = (1/k!) sum_i (-1)^i C(k, i) (k - i)^n, with 0^0 = 1
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    value, rem = divmod(total, math.factorial(k))
    assert rem == 0
    return value


def rising_factorial_poly(n):
    # x (x+1) ... (x+n-1); its coefficients are the unsigned Stirling-1 numbers
    p = Poly([1])
    for i in range(n):
        p = p * Poly([i, 1])
    return p


def legendre_recurrence(n):
    # Bonnet: (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
    p0, p1 = Poly([1]), Poly([0, 1])
    if n == 0:
        return p0
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * Poly([0, 1]) * p1 - k * p0) * Fraction(1, k + 1)
    return p1


def divisor_sum(u, v, n):
    return sum(u[d - 1] * v[n // d - 1] for d in range(1, n + 1) if n % d == 0)


# -- generalized exponentiation and binomials ------------------------------------


def test_gen_pow():
    assert specfun.gen_pow(0, 0) == 1
    assert specfun.gen_pow(0, 3) == 0
    assert specfun.gen_pow(Fraction(1, 2), 2) == Fraction(1, 4)
    with pytest.raises(DomainError):
        specfun.gen_pow(0, -1)


# -- Stirling tables ---------------------------------------------------------------


def test_stirling2_values():
    assert specfun.stirling2(0, 0) == 1
    assert specfun.stirling2(3, 2) == 3
    assert specfun.stirling2(4, 4) == 1
    with pytest.raises(DomainError):
        specfun.stirling2(2, 3)


def test_stirling2_against_the_explicit_sum():
    for n in range(61):
        for k in range(n + 1):
            assert specfun.stirling2(n, k) == stirling2_explicit(n, k)


def test_stirling2_row_identity():
    # sum_k S(n,k) x(x-1)...(x-k+1) = x^n, exactly, for x = 0..n
    for n in range(13):
        for x in range(n + 1):
            total = 0
            for k in range(n + 1):
                falling = 1
                for i in range(k):
                    falling *= x - i
                total += specfun.stirling2(n, k) * falling
            assert total == x ** n


def test_stirling1_values():
    # x(x+1)(x+2) = 2x + 3x^2 + x^3
    p = rising_factorial_poly(3)
    assert specfun.stirling1_unsigned(3, 1) == p.coeffs[1] == 2
    for n in range(21):
        assert specfun.stirling1_unsigned(n, n) == 1
    assert sum(specfun.stirling1_unsigned(4, k) for k in range(5)) == math.factorial(4)
    with pytest.raises(DomainError):
        specfun.stirling1_unsigned(3, 4)


def test_stirling1_against_polynomial_expansion():
    for n in range(1, 10):
        p = rising_factorial_poly(n)
        for k in range(n + 1):
            coeff = p.coeffs[k] if k <= p.degree else 0
            assert specfun.stirling1_unsigned(n, k) == coeff


def test_cold_deep_entries_need_no_recursion():
    # the rows are built in a loop: far more rows than the recursion limit allows
    specfun._table.cache_clear()
    assert specfun.stirling1_unsigned(1500, 1) == math.factorial(1499)
    h1 = sum(Fraction(1, j) for j in range(1, 1500))
    h2 = sum(Fraction(1, j * j) for j in range(1, 1500))
    assert specfun.stirling1_unsigned(1500, 3) == math.factorial(1499) * (h1 * h1 - h2) / 2
    # |t(2m, 2)| = ((m-1)!)^2, from x^[2m] = x^2 prod_{j<m} (x^2 - j^2)
    specfun._table.cache_clear()
    value = specfun.central_factorial_abs(3000, 2)
    assert type(value) is Fraction and value == math.factorial(1499) ** 2


# -- central factorial numbers --------------------------------------------------------


def test_central_factorial_values():
    assert specfun.central_factorial_abs(2, 2) == 1
    assert specfun.central_factorial_abs(3, 1) == Fraction(1, 4)
    assert specfun.central_factorial_abs(3, 2) == 0
    with pytest.raises(DomainError):
        specfun.central_factorial_abs(0, 0)


def test_central_factorial_recurrence_matches_the_product():
    # the rows as the product x (x + n/2 - 1) ... (x - n/2 + 1) gives them
    for n in range(1, 61):
        p = Poly([0, 1])
        for j in range(1, n):
            p = p * Poly([Fraction(n, 2) - j, 1])
        assert [repr(specfun.central_factorial_abs(n, k)) for k in range(n + 1)] == \
            [repr(abs(Fraction(p.coeffs[k]))) for k in range(n + 1)]


def test_central_factorial_defining_identity():
    # signed reconstruction: t(n,k) = (-1)^((n-k)/2) |t(n,k)| for matching parity
    rng = random.Random(42)
    for n in range(1, 13):
        for _ in range(20):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            product = x
            for j in range(1, n):
                product *= x + Fraction(n, 2) - j
            series = sum(
                (-1) ** ((n - k) // 2) * specfun.central_factorial_abs(n, k) * x ** k
                for k in range(n + 1)
                if (n - k) % 2 == 0
            )
            assert series == product


# -- Bernoulli --------------------------------------------------------------------


def test_bernoulli_polynomials():
    assert specfun.bernoulli_poly(0) == Poly([1])
    assert specfun.bernoulli_poly(1) == Poly([Fraction(-1, 2), 1])
    assert specfun.bernoulli_poly(2) == Poly([Fraction(1, 6), -1, 1])


def test_bernoulli_difference_identity():
    # B_n(x+1) - B_n(x) = n x^(n-1), exactly as polynomials
    for n in range(1, 11):
        b = specfun.bernoulli_poly(n)
        diff = b.compose_affine(1, 1) - b
        assert diff == Poly([0] * (n - 1) + [n])


def test_bernoulli_zero_mean():
    for n in range(1, 11):
        assert specfun.bernoulli_poly(n).integral(0, 1) == 0
    assert specfun.bernoulli_poly(0).integral(0, 1) == 1


# -- Legendre ---------------------------------------------------------------------


def test_legendre_examples():
    assert specfun.legendre_coeffs(2) == Poly([Fraction(-1, 2), 0, Fraction(3, 2)])
    assert specfun.legendre_coeffs(0) == Poly([1])
    assert specfun.legendre_coeffs(1, shifted=True) == Poly([-1, 2])


def test_legendre_closed_form_matches_binomial_definition():
    # gamma_j = 2^n C(n,j) C((n+j-1)/2, n), the product form of the
    # generalized binomial, entry by entry and type by type
    for n in range(61):
        want = []
        for j in range(n + 1):
            r, acc = Fraction(n + j - 1, 2), Fraction(1)
            for i in range(n):
                acc *= r - i
            want.append(2 ** n * math.comb(n, j) * acc / math.factorial(n))
        assert repr(list(specfun.legendre_coeffs(n).coeffs)) == repr(want)


def test_legendre_against_recurrence():
    for n in range(11):
        assert specfun.legendre_coeffs(n) == legendre_recurrence(n)


def test_legendre_triangular_orthogonality():
    # integral of P_m x^n over (-1,1) vanishes exactly for n < m
    for m in range(11):
        p = specfun.legendre_coeffs(m)
        for n in range(m):
            assert (p * Poly([0] * n + [1])).integral(-1, 1) == 0


def test_shifted_legendre_orthogonality():
    for m in range(8):
        p = specfun.legendre_coeffs(m, shifted=True)
        for n in range(m):
            assert (p * Poly([0] * n + [1])).integral(0, 1) == 0


# -- multiplicative sequences -----------------------------------------------------


def test_moebius_values():
    assert specfun.moebius(1) == 1
    assert specfun.moebius(4) == 0
    assert specfun.moebius(6) == 1
    with pytest.raises(DomainError):
        specfun.moebius(0)


def test_moebius_is_inverse_of_ones():
    ones = [1] * 100
    inv = specfun.dirichlet_inverse(ones)
    assert inv == [specfun.moebius(n) for n in range(1, 101)]


def test_nu_values():
    assert specfun.nu(1) == 1
    assert specfun.nu(5) == -1
    assert specfun.nu(9) == 0


def test_nu_is_inverse_of_sin_sequence():
    u = [[0, 1, 0, -1][n % 4] for n in range(1, 101)]  # sin(n pi / 2)
    inv = specfun.dirichlet_inverse(u)
    assert inv == [specfun.nu(n) for n in range(1, 101)]


@pytest.mark.parametrize("u1, head", [
    (1, 1), (-1, -1), (Fraction(1, 3), 3), (Fraction(-1, 3), -3), (2, Fraction(1, 2)),
    (-2, Fraction(-1, 2)), (Fraction(3, 5), Fraction(5, 3)), (0.5, 2.0), (-4.0, -0.25)])
def test_dirichlet_inverse_head_is_rational(u1, head):
    # 1/u_1 is an int where it is an integer and a Fraction otherwise
    # (poly.rational), a float for a float u_1
    inv = specfun.dirichlet_inverse([u1, 1])
    assert (type(inv[0]), inv[0]) == (type(head), head)


def test_dirichlet_convolve_examples():
    delta = [1] + [0] * 49
    assert specfun.dirichlet_convolve(delta, delta) == delta
    ones = [1] * 100
    mu = [specfun.moebius(n) for n in range(1, 101)]
    conv = specfun.dirichlet_convolve(ones, mu)
    assert conv == [1] + [0] * 99
    # brute-force cross-check of a few entries
    for n in (6, 12, 60, 97):
        assert divisor_sum(ones, mu, n) == (1 if n == 1 else 0)


def test_dirichlet_sin_nu_identity():
    n_max = 10_000
    u = [[0, 1, 0, -1][n % 4] for n in range(1, n_max + 1)]
    nu_seq = [specfun.nu(n) for n in range(1, n_max + 1)]
    conv = specfun.dirichlet_convolve(u, nu_seq)
    assert conv == [1] + [0] * (n_max - 1)


def test_dirichlet_inverse_errors():
    with pytest.raises(DomainError):
        specfun.dirichlet_inverse([0, 1, 2])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=200),
       st.sampled_from([1, -1, 2, -3, 7]))
def test_dirichlet_inverse_round_trip(tail, head):
    u = [head] + tail
    inv = specfun.dirichlet_inverse(u)
    conv = specfun.dirichlet_convolve(u, inv)
    assert conv[0] == 1
    assert all(v == 0 for v in conv[1:])


# -- Bessel functions ----------------------------------------------------------------


def test_bessel_trivial():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(1, 0.0) == 0.0
    with pytest.raises(DomainError):
        specfun.bessel_j(-1, 1.0)


def test_bessel_first_root_by_bisection():
    lo, hi = 2.0, 3.0
    flo = specfun.bessel_j(0, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = specfun.bessel_j(0, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2.4048255576957728) < 1e-10
    assert abs(specfun.bessel_j(0, 2.4048255576957728)) < 1e-10


def test_bessel_jacobi_identity():
    # J_0(x) + 2 sum_{k=1..40} J_2k(x) = 1
    for x in (-10.0, -4.2, 0.5, 3.3, 7.7, 10.0):
        total = specfun.bessel_j(0, x) + 2 * sum(
            specfun.bessel_j(2 * k, x) for k in range(1, 41))
        assert abs(total - 1.0) < 1e-9


def mp_besselj(mpmath, n: int, x: float) -> float:
    """J_n(x) at 40 digits, rounded once."""
    with mpmath.workdps(40):
        return float(mpmath.besselj(n, mpmath.mpf(x)))


def test_bessel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for n in (0, 1, 2, 5, 10, 25, 40):
        for x in (-30.0, -12.5, -3.0, 0.7, 6.0, 14.3, 21.0, 30.0):
            assert abs(specfun.bessel_j(n, x) - mp_besselj(mpmath, n, x)) < 1e-12


def test_bessel_j_all_against_mpmath():
    # one sweep gives every order, for small and large |x| alike
    mpmath = pytest.importorskip("mpmath")
    for x in (0.001, -0.001, 0.7, 6.0, 12.6, 30.0, 300.0, 1000.0):
        values = specfun.bessel_j_all(40, x)
        assert len(values) == 41
        for n, v in enumerate(values):
            assert abs(v - mp_besselj(mpmath, n, x)) < 1e-14


def test_bessel_orders_in_one_block_share_one_sweep():
    # bessel_j(n, x) is bessel_j_all(n, x)[n]; the orders of one block of 32
    # come from one sweep, so they agree bit for bit across calls
    for x in (-7.3, 0.4, 45.0):
        block = specfun.bessel_j_all(31, x)
        for n in range(32):
            assert specfun.bessel_j(n, x) == block[n] == specfun.bessel_j_all(n, x)[n]
        assert specfun.bessel_j(50, x) == specfun.bessel_j_all(50, x)[50]


def test_bessel_j_all_small_and_zero_arguments():
    assert specfun.bessel_j_all(3, 0.0) == [1.0, 0.0, 0.0, 0.0]
    # below the recurrence range J_n is its leading term (x/2)^n / n!
    values = specfun.bessel_j_all(4, -1e-40)
    assert values[0] == 1.0
    for n in range(1, 5):
        assert values[n] == pytest.approx((-0.5e-40) ** n / math.factorial(n), rel=1e-15)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               specfun.BESSEL_X_MAX * 1.01, -2e4, 1e6])
def test_bessel_refuses_nonfinite_and_large_arguments(x):
    with pytest.raises(DomainError):
        specfun.bessel_j(0, x)
    with pytest.raises(DomainError):
        specfun.bessel_j_all(5, x)


def test_bessel_at_the_cap_is_finite():
    values = specfun.bessel_j_all(2, specfun.BESSEL_X_MAX)
    assert all(math.isfinite(v) and abs(v) < 0.01 for v in values)


def test_moebius_table_matches_moebius():
    assert specfun.moebius_table(0) == ()
    assert specfun.moebius_table(5000) == tuple(specfun.moebius(n) for n in range(1, 5001))



def test_moebius_loop_matches_the_sieve_and_nu_is_moebius_times_chi4():
    n_max = 20_000
    mu = specfun.moebius_table(n_max)
    assert tuple(specfun.moebius(n) for n in range(1, n_max + 1)) == mu
    for n in range(1, n_max + 1):
        nu = specfun.nu(n)
        assert type(nu) is int and nu == mu[n - 1] * (0, 1, 0, -1)[n % 4]
    # a prime and the square of a prime past the sieve's reach
    assert specfun.moebius(1_000_000_007) == -1
    assert specfun.moebius(10_007 ** 2) == 0
    for n in (0, -3):
        with pytest.raises(DomainError):
            specfun.nu(n)


def test_dirichlet_inverse_refuses_an_empty_sequence():
    with pytest.raises(DomainError):
        specfun.dirichlet_inverse([])
    assert specfun.dirichlet_convolve([], [1, 2]) == []


# -- Lambert W ----------------------------------------------------------------------


def test_lambert_trivial():
    assert specfun.lambert_w0(0.0) == 0.0
    assert abs(specfun.lambert_w0(math.e) - 1.0) < 1e-14
    with pytest.raises(DomainError):
        specfun.lambert_w0(-1.0)


def test_lambert_against_bisection():
    # solve w e^w = 2 on [0, 2] independently
    lo, hi = 0.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    w = specfun.lambert_w0(2.0)
    assert abs(w - 0.5 * (lo + hi)) < 1e-13
    assert abs(w * math.exp(w) - 2.0) < 1e-13


def test_lambert_residual_on_log_grid():
    xmin = -math.exp(-1.0) + 1e-6
    points = [xmin] + [10.0 ** (-6 + 7 * i / 40) for i in range(41)]
    for x in points:
        w = specfun.lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12


def test_lambert_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for x in (-0.36, -0.1, 0.3, 1.0, 5.0, 123.0):
        with mpmath.workdps(40):
            want = float(mpmath.lambertw(mpmath.mpf(x)).real)
        assert abs(specfun.lambert_w0(x) - want) < 1e-12


def test_lambert_branch_point():
    w = specfun.lambert_w0(-math.exp(-1.0))
    assert abs(w + 1.0) < 1e-6


def test_bell_binomial_power():
    assert specfun.bell_binomial_power(0, 0) == 1
    assert specfun.bell_binomial_power(3, 1) == 3
    assert specfun.bell_binomial_power(4, 0) == 0
