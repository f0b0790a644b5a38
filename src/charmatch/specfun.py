"""Exact combinatorial sequences and special functions behind the expansions.

Every table-valued quantity (Stirling numbers, central factorials, Bernoulli
data, Legendre coefficients, Moebius-type sequences) is computed over exact
rationals; floats only appear in the evaluation-level functions ``bessel_j``
and ``lambert_w0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath

from .errors import DomainError
from .poly import Poly, div, is_exact

__all__ = [
    "gen_pow",
    "binomial_general",
    "stirling2",
    "stirling1_unsigned",
    "central_factorial_abs",
    "bell_binomial_power",
    "bernoulli_number",
    "bernoulli_poly",
    "legendre_coeffs",
    "moebius",
    "nu",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "bessel_j",
    "lambert_w0",
]


def gen_pow(x, y: int):
    """Generalized exponentiation: ``x**y`` with the convention ``0**0 = 1``.

    Negative exponents of zero are undefined and raise ``DomainError``.
    """
    if x == 0:
        if y == 0:
            return 1
        if y < 0:
            raise DomainError("0 cannot be raised to a negative power")
        return 0
    return x ** y


def binomial_general(r, k: int):
    """Binomial coefficient with arbitrary real upper argument.

    Returns ``prod_{i=0}^{k-1} (r - i) / k!``; the result is an exact
    Fraction whenever ``r`` is an int or Fraction.
    """
    if k < 0:
        raise DomainError("binomial lower index must be nonnegative")
    acc = 1
    for i in range(k):
        acc *= r - i
    return div(acc, math.factorial(k))


# -- Stirling-type tables ------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the explicit alternating sum.

    Uses generalized exponentiation so that the (0, 0) entry equals 1.
    """
    if n < 0 or k < 0:
        raise DomainError("stirling2 indices must be nonnegative")
    if k > n:
        raise DomainError(f"stirling2 requires k <= n, got ({n}, {k})")
    total = 0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k, i) * gen_pow(k - i, n)
    value, rem = divmod(total, math.factorial(k))
    assert rem == 0
    return value


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind.

    Recurrence c(n,k) = c(n-1,k-1) + (n-1) c(n-1,k).
    """
    if n < 0 or k < 0:
        raise DomainError("stirling1 indices must be nonnegative")
    if k > n:
        raise DomainError(f"stirling1 requires k <= n, got ({n}, {k})")
    if k == n:
        return 1
    if k == 0:
        return 0
    return stirling1_unsigned(n - 1, k - 1) + (n - 1) * stirling1_unsigned(n - 1, k)


@lru_cache(maxsize=None)
def _central_factorial_poly(n: int) -> Poly:
    # x (x + n/2 - 1)(x + n/2 - 2) ... (x - n/2 + 1), exactly over Fractions
    p = Poly([0, 1])
    for j in range(1, n):
        p = p * Poly([Fraction(n, 2) - j, 1])
    return p


def central_factorial_abs(n: int, k: int) -> Fraction:
    """|t(n, k)|: absolute central factorial number of the first kind."""
    if n < 1:
        raise DomainError("central factorial numbers need n >= 1")
    if k < 0 or k > n:
        raise DomainError(f"central factorial requires 0 <= k <= n, got ({n}, {k})")
    p = _central_factorial_poly(n)
    coeff = p.coeffs[k] if k <= p.degree else 0
    return abs(Fraction(coeff))


def bell_binomial_power(n: int, k: int) -> int:
    """B_{n,k}(1, 2, ..., n-k+1) = C(n, k) k^(n-k) (Lambert-W coefficient table)."""
    if k > n or k < 0:
        raise DomainError(f"requires 0 <= k <= n, got ({n}, {k})")
    return math.comb(n, k) * gen_pow(k, n - k)


# -- Bernoulli -------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """Bernoulli number B_k with the B_1 = -1/2 convention."""
    if k < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> Poly:
    """Bernoulli polynomial B_n(x) as an exact Poly."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    return Poly(math.comb(n, k) * bernoulli_number(n - k) for k in range(n + 1))


# -- Legendre --------------------------------------------------------------


@lru_cache(maxsize=None)
def legendre_coeffs(n: int, shifted: bool = False) -> Poly:
    """Exact coefficients of P_n on (-1,1), or of the shifted P_n on (0,1).

    Plain case: gamma_j = 2^n C(n,j) C((n+j-1)/2, n) with the generalized
    binomial; shifted case: (-1)^(n+j) C(n,j) C(n+j,j).
    """
    if n < 0:
        raise DomainError("Legendre index must be nonnegative")
    if shifted:
        coeffs = [
            Fraction((-1) ** (n + j) * math.comb(n, j) * math.comb(n + j, j))
            for j in range(n + 1)
        ]
    else:
        coeffs = [
            (2 ** n) * math.comb(n, j) * binomial_general(Fraction(n + j - 1, 2), n)
            for j in range(n + 1)
        ]
    return Poly(coeffs)


# -- multiplicative number theory -------------------------------------------


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    """Moebius function mu(n) by trial factorization."""
    if n < 1:
        raise DomainError("Moebius function needs n >= 1")
    if n == 1:
        return 1
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


@lru_cache(maxsize=None)
def nu(n: int) -> int:
    """Dirichlet inverse of sin(n pi / 2): (-1)^(sum (p+1)/2) on square-free
    odd n, zero elsewhere."""
    if n < 1:
        raise DomainError("nu needs n >= 1")
    if n == 1:
        return 1
    if n % 2 == 0:
        return 0
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    s = sum((p + 1) // 2 for p, _ in factors)
    return -1 if s % 2 else 1


# -- Dirichlet convolution ---------------------------------------------------
#
# Sequences are Python sequences whose element ``u[i]`` holds the value at
# index i+1 (arithmetic functions are 1-based).


def dirichlet_convolve(u: Sequence, v: Sequence, n_max: int | None = None) -> list:
    """(u * v)_n = sum_{k | n} u_k v_{n/k}, exactly, for n = 1..n_max."""
    if n_max is None:
        n_max = min(len(u), len(v))
    if n_max > len(u) or n_max > len(v):
        raise DomainError("sequences shorter than requested order")
    out = [0] * n_max
    for d in range(1, n_max + 1):
        ud = u[d - 1]
        if ud == 0:
            continue
        for m in range(d, n_max + 1, d):
            out[m - 1] += ud * v[m // d - 1]
    return out


def dirichlet_inverse(u: Sequence, n_max: int | None = None) -> list:
    """Inverse with respect to Dirichlet convolution, (u * u^-1)_n = delta_{1,n}.

    Requires u_1 != 0.
    """
    if n_max is None:
        n_max = len(u)
    if n_max > len(u):
        raise DomainError("sequence shorter than requested order")
    if n_max < 1 or u[0] == 0:
        raise DomainError("no Dirichlet inverse: u_1 = 0")
    head = div(1, u[0])
    if is_exact(head) and head.denominator == 1:
        head = int(head)
    inv = [head] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        acc = 0
        for d in range(1, n):
            if n % d == 0:
                acc += u[n // d - 1] * inv[d - 1]
        val = -acc * head if acc != 0 else 0 * head
        inv[n - 1] = val
    return inv


# -- Bessel functions of the first kind --------------------------------------

_BESSEL_FLOAT_CUTOFF = 6.0
_BESSEL_REL_STOP = 1e-18


def _bessel_series(n: int, x, factorial, one):
    """Ascending series with adaptive truncation; generic over float/mpf."""
    half = x / 2
    term = half ** n / factorial(n)
    acc = term * 0 + term
    msq = -(half * half)
    for k in range(1, 400):
        term = term * msq / (k * (n + k))
        acc += term
        if abs(term) <= _BESSEL_REL_STOP * abs(acc) + 1e-300:
            break
    return acc


def bessel_j(n: int, x: float) -> float:
    """J_n(x) by the ascending power series with adaptive truncation.

    For |x| beyond the float-cancellation range the same series is summed
    in higher-precision arithmetic, so the result stays accurate to about
    1e-12 absolute over the desk scale |x| <= 30, n <= 40.
    """
    if n < 0:
        raise DomainError("Bessel order must be nonnegative")
    x = float(x)
    sign = 1
    if x < 0:
        x = -x
        sign = -1 if n % 2 else 1
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= _BESSEL_FLOAT_CUTOFF:
        return sign * _bessel_series(n, x, math.factorial, 1.0)
    # cancellation grows like I_0(x); add ~0.5 digits per unit of |x|
    with mpmath.workdps(20 + int(0.5 * x)):
        value = _bessel_series(n, mpmath.mpf(x), mpmath.factorial, mpmath.mpf(1))
        return sign * float(value)


# -- Lambert W ---------------------------------------------------------------


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function by damped Halley iteration.

    Valid for x >= -1/e; the residual |w e^w - x| is driven below ~1e-13.
    """
    x = float(x)
    xmin = -math.exp(-1.0)
    if x < xmin:
        if x < xmin - 1e-14 * (1 + abs(xmin)):
            raise DomainError(f"lambert_w0 needs x >= -1/e, got {x}")
        x = xmin
    if x == 0.0:
        return 0.0
    # initial guess
    if x < -0.2:
        # series around the branch point -1/e
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif abs(x) < 0.3:
        w = x
    elif x > 3.0:
        lx = math.log(x)
        w = lx - math.log(lx)
    else:
        w = math.log(1.0 + x)
    for _ in range(50):
        ew = math.exp(w)
        r = w * ew - x
        if r == 0.0:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        dw = r / (ew * wp1 - (w + 2.0) * r / (2.0 * wp1))
        cand = w - dw
        while cand < -1.0:
            dw /= 2.0
            cand = w - dw
        w = cand
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w
