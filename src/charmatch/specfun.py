"""Exact combinatorial sequences and special functions behind the expansions.

Every table-valued quantity (Stirling numbers, central factorials, Bernoulli
data, Legendre coefficients, Moebius-type sequences) is computed over exact
rationals; floats only appear in the evaluation-level functions
``bessel_j``/``bessel_j_all`` and ``lambert_w0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DomainError
from .poly import Poly, admit, div, rational

__all__ = [
    "gen_pow",
    "stirling2",
    "stirling1_unsigned",
    "central_factorial_abs",
    "central_factorial_scaled",
    "bell_binomial_power",
    "bernoulli_ints",
    "bernoulli_number",
    "bernoulli_poly",
    "legendre_coeffs",
    "moebius",
    "moebius_table",
    "nu",
    "dirichlet_convolve",
    "dirichlet_inverse",
    "BESSEL_X_MAX",
    "bessel_j",
    "bessel_j_all",
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


# -- Stirling-type tables ------------------------------------------------


@lru_cache(maxsize=None)
def _table(row) -> list:
    """[width, rows]: the rows of the triangle that ``row`` builds, computed so
    far and each cut at ``width`` entries; ``_entry`` grows it in place."""
    return [0, []]


def _entry(row, n: int, k: int):
    """Entry (n, k) of the triangle whose row m is ``row(rows, m, top)`` (its
    entries 0..top), built in a loop from row 0.  The rows are cut at a width
    that doubles whenever an entry lies past it, so N whole rows cost O(N^2)
    and a deep narrow entry such as (1500, 3) costs O(n k)."""
    table = _table(row)
    if k >= table[0]:
        table[:] = [max(2 * table[0], k + 1), []]
    width, rows = table
    while len(rows) <= n:
        rows.append(row(rows, len(rows), min(len(rows), width - 1)))
    return rows[n][k]


def _stirling2_row(rows, n: int, top: int) -> tuple:
    p = (*rows[n - 1], 0) if n else ()
    return (int(n == 0), *(k * p[k] + p[k - 1] for k in range(1, top + 1)))


def _stirling1_row(rows, n: int, top: int) -> tuple:
    p = (*rows[n - 1], 0) if n else ()
    return (int(n == 0), *(p[k - 1] + (n - 1) * p[k] for k in range(1, top + 1)))


def _central_factorial_row(rows, n: int, top: int) -> tuple:
    """Row n of u(n, k) = u(n-2, k-2) + (n-2)^2 u(n-2, k) = 2^(n-k) |t(n, k)|."""
    if n < 2:  # u(0,0) = 1 seeds the even rows, x^[1] = x the odd ones
        return (1 - n, n)[:top + 1]
    p = (*rows[n - 2], 0, 0)
    s = (n - 2) ** 2
    return tuple((p[k - 2] if k > 1 else 0) + s * p[k] for k in range(top + 1))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind.

    Recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1), with S(0,0) = 1.
    """
    if n < 0 or k < 0:
        raise DomainError("stirling2 indices must be nonnegative")
    if k > n:
        raise DomainError(f"stirling2 requires k <= n, got ({n}, {k})")
    return _entry(_stirling2_row, n, k)


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind.

    Recurrence c(n,k) = c(n-1,k-1) + (n-1) c(n-1,k), with c(0,0) = 1.
    """
    if n < 0 or k < 0:
        raise DomainError("stirling1 indices must be nonnegative")
    if k > n:
        raise DomainError(f"stirling1 requires k <= n, got ({n}, {k})")
    return _entry(_stirling1_row, n, k)


def central_factorial_abs(n: int, k: int) -> Fraction:
    """|t(n, k)|: absolute central factorial number of the first kind.

    Recurrence |t(n,k)| = |t(n-2,k-2)| + ((n-2)/2)^2 |t(n-2,k)|, from
    x^[n] = x^[n-2] (x^2 - (n/2 - 1)^2), with |t(0,0)| = |t(1,1)| = 1.
    """
    return Fraction(central_factorial_scaled(n, k), 1 << n - k)


def central_factorial_scaled(n: int, k: int) -> int:
    """The integer u(n, k) = 2^(n-k) |t(n, k)|, by the recurrence of
    ``central_factorial_abs`` times 2^(n-k)."""
    if n < 1:
        raise DomainError("central factorial numbers need n >= 1")
    if k < 0 or k > n:
        raise DomainError(f"central factorial requires 0 <= k <= n, got ({n}, {k})")
    return _entry(_central_factorial_row, n, k)


def bell_binomial_power(n: int, k: int) -> int:
    """B_{n,k}(1, 2, ..., n-k+1) = C(n, k) k^(n-k) (Lambert-W coefficient table)."""
    if k > n or k < 0:
        raise DomainError(f"requires 0 <= k <= n, got ({n}, {k})")
    return math.comb(n, k) * gen_pow(k, n - k)


# -- Bernoulli -------------------------------------------------------------


@lru_cache(maxsize=1)
def _bernoulli_table() -> list:
    """[nums, den]: B_0..B_k found so far, a tuple of integer numerators over
    one shared denominator; ``bernoulli_ints`` replaces both at once."""
    return [(1,), 1]


def bernoulli_ints(n: int) -> tuple[tuple, int]:
    """B_0..B_n as a tuple of integer numerators over one shared denominator,
    and that denominator: from sum_{j<=k} C(k+1, j) B_j = 0 each new B_k is
    one integer dot product, admitted over the denominator (``admit``).
    The table grows on a copy and is replaced in one step, so a result
    already handed out, and the table itself, stay as they were if a later
    call raises the denominator or is interrupted."""
    table = _bernoulli_table()
    nums, den = table
    if len(nums) <= n:
        nums = list(nums)
        while len(nums) <= n:
            k = len(nums)
            acc = sum(math.comb(k + 1, j) * x for j, x in enumerate(nums))
            den = admit(nums, den, -acc, den * (k + 1))
        nums = tuple(nums)
        table[:] = nums, den
    return nums[:n + 1], den


def bernoulli_number(k: int):
    """Bernoulli number B_k with the B_1 = -1/2 convention, an int or a
    Fraction (``rational``)."""
    if k < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    nums, den = bernoulli_ints(k)
    return rational(nums[k], den)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> Poly:
    """Bernoulli polynomial B_n(x) = sum_k C(n, k) B_(n-k) x^k as an exact Poly."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    nums, den = bernoulli_ints(n)
    return Poly(rational(math.comb(n, k) * nums[n - k], den) for k in range(n + 1))


# -- Legendre --------------------------------------------------------------


@lru_cache(maxsize=None)
def legendre_coeffs(n: int, shifted: bool = False) -> Poly:
    """Exact coefficients of P_n on (-1,1), or of the shifted P_n on (0,1).

    Plain case: gamma_j = (-1)^k C(n,k) C(n+j,n) / 2^n with k = (n-j)/2 when
    n-j is even, and 0 when it is odd (the integer form of
    2^n C(n,j) C((n+j-1)/2, n)); shifted case: (-1)^(n+j) C(n,j) C(n+j,j).
    """
    if n < 0:
        raise DomainError("Legendre index must be nonnegative")
    if shifted:
        coeffs = [
            Fraction((-1) ** (n + j) * math.comb(n, j) * math.comb(n + j, j))
            for j in range(n + 1)
        ]
    else:
        coeffs = []
        for j in range(n + 1):
            k, odd = divmod(n - j, 2)
            coeffs.append(Fraction(0) if odd else Fraction(
                (-1) ** k * math.comb(n, k) * math.comb(n + j, n), 2 ** n))
    return Poly(coeffs)


# -- multiplicative number theory -------------------------------------------


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    """Moebius function mu(n) by trial division: each prime factor flips the
    sign, a repeated one gives 0."""
    if n < 1:
        raise DomainError("Moebius function needs n >= 1")
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1 if d == 2 else 2
    return -mu if n > 1 else mu


@lru_cache(maxsize=32)
def moebius_table(n: int) -> tuple[int, ...]:
    """(mu(1), ..., mu(n)) from one linear sieve."""
    if n < 0:
        raise DomainError("Moebius table length must be nonnegative")
    mu = [1] * (n + 1)
    composite = bytearray(n + 1)
    primes = []
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            composite[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return tuple(mu[1:])


def nu(n: int) -> int:
    """Dirichlet inverse of chi_4(n) = sin(n pi / 2) (0, 1, 0, -1 for n = 0, 1,
    2, 3 mod 4): chi_4 is completely multiplicative, so its inverse is mu chi_4
    (Apostol 1976, Thm 2.17)."""
    if n < 1:
        raise DomainError("nu needs n >= 1")
    return moebius(n) * (0, 1, 0, -1)[n % 4]


# -- Dirichlet convolution ---------------------------------------------------
#
# Sequences are Python sequences whose element ``u[i]`` holds the value at
# index i+1 (arithmetic functions are 1-based).


def dirichlet_convolve(u: Sequence, v: Sequence) -> list:
    """(u * v)_n = sum_{k | n} u_k v_{n/k}, exactly, for n up to the shorter length."""
    n_max = min(len(u), len(v))
    out = [0] * n_max
    for d in range(1, n_max + 1):
        ud = u[d - 1]
        if ud == 0:
            continue
        for m in range(d, n_max + 1, d):
            out[m - 1] += ud * v[m // d - 1]
    return out


def dirichlet_inverse(u: Sequence) -> list:
    """Inverse with respect to Dirichlet convolution, (u * u^-1)_n = delta_{1,n}.

    Requires u_1 != 0.
    """
    n_max = len(u)
    if n_max < 1 or u[0] == 0:
        raise DomainError("no Dirichlet inverse: u_1 = 0")
    head = div(1, u[0])
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

# the backward recurrence takes O(|x|) steps; beyond this |x| bessel_j refuses
BESSEL_X_MAX = 1.0e4
_BESSEL_RESCALE = 1.0e250
# below this |x| one step of the recurrence could overflow past the rescaling
_BESSEL_TINY = 1.0e-30
# orders come in blocks of this size: all of J_0..J_{32m-1} at one x come
# from one sweep, so per-order calls at one point (NSBF) share it
_BESSEL_BLOCK = 32


def bessel_j_all(n_max: int, x: float) -> list[float]:
    """[J_0(x), ..., J_{n_max}(x)] from one Miller backward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} runs down from an even start well above
    max(top, |x|), where top is n_max rounded up to the end of its block of
    32 orders; it is rescaled whenever it nears overflow and normalized by
    J_0 + 2 sum_k J_2k = 1 (DLMF 10.74(iv)); J_n(-x) = (-1)^n J_n(x).
    Accurate to about 1e-15 absolute for |x| <= 1000 and to 1e-14 up to
    ``BESSEL_X_MAX``; a larger or non-finite argument raises ``DomainError``.
    """
    return list(_bessel_block(n_max, x)[:n_max + 1])


def bessel_j(n: int, x: float) -> float:
    """J_n(x), equal to ``bessel_j_all(n, x)[n]``; calls at one x for orders
    in one block of 32 read the same (cached) sweep."""
    return _bessel_block(n, x)[n]


def _bessel_block(n: int, x) -> tuple:
    if n < 0:
        raise DomainError("Bessel order must be nonnegative")
    return _bessel_sweep(n | (_BESSEL_BLOCK - 1), float(x))


@lru_cache(maxsize=16)
def _bessel_sweep(top: int, x: float) -> tuple:
    """(J_0(x), ..., J_top(x)), see ``bessel_j_all``."""
    if not abs(x) <= BESSEL_X_MAX:
        raise DomainError(f"bessel_j needs a finite |x| <= {BESSEL_X_MAX:g}, got {x}")
    ax = abs(x)
    if ax < _BESSEL_TINY:
        # J_n = (x/2)^n / n! to a relative (x/2)^2 / (n+1); also covers x = 0
        out = [0.0] * (top + 1)
        term = 1.0
        for i in range(top + 1):
            out[i] = term
            term *= ax / 2 / (i + 1)
        norm = 1.0
    else:
        big = max(top, int(ax))
        start = big + 20 + int(8.0 * big ** (1.0 / 3.0))
        start += start % 2
        out = [0.0] * start  # J_0..J_{start-1} up to a common scale
        # J_start = 1, J_{start+1} = 0; the first step cannot need rescaling
        cur, nxt = 2 * start / ax, 1.0  # J_{k-1}, J_k for k = start - 1
        norm = 0.0
        # two steps per pass, k odd: J_{k-1} (even order, into the norm)
        # and J_{k-2}; each rescales whenever it nears overflow
        for k in range(start - 1, 2, -2):
            nxt = (2 * k / ax) * cur - nxt
            if abs(nxt) > _BESSEL_RESCALE:
                cur, nxt, norm = _rescaled(out, k, top, cur, nxt, norm)
            norm += 2.0 * nxt
            cur = ((2 * k - 2) / ax) * nxt - cur
            if abs(cur) > _BESSEL_RESCALE:
                cur, nxt, norm = _rescaled(out, k, top, cur, nxt, norm)
            out[k - 1] = nxt
            out[k - 2] = cur
        j0 = (2 / ax) * cur - nxt
        if abs(j0) > _BESSEL_RESCALE:
            j0, norm = _rescaled(out, 1, top, j0, norm)
        out[0] = j0
        norm += j0
        del out[top + 1:]
    if x < 0:
        out[1::2] = [-v for v in out[1::2]]
    return tuple([v / norm for v in out])


def _rescaled(out: list, k: int, top: int, *scaled: float) -> tuple:
    """Divide out[k..top] in place, and the given floats, by ``_BESSEL_RESCALE``."""
    out[k:top + 1] = [v / _BESSEL_RESCALE for v in out[k:top + 1]]
    return tuple(v / _BESSEL_RESCALE for v in scaled)


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
