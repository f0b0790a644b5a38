"""Integral-based characteristic families.

Raw moments with Legendre triangular matching and partial delta functions,
Fourier / Legendre-Fourier delta approximations, higher-integral matching
through the Cauchy repeated-integral formula, and the Bernoulli-polynomial
family driven by endpoint derivative differences, including its
shrinking-interval Taylor limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import specfun
from .errors import DomainError
from .matching import (
    Approximant,
    CharNumbers,
    CoeffSeq,
    EndpointDiff,
    HigherIntegral,
    Moments,
    PolynomialApproximant,
    Projection,
    lift_exact,
    measure,
    target_poly,
)
from .poly import Poly, TriRows, all_exact, div, over, scaled, tri_table

__all__ = [
    "MomentSet",
    "moments_compute",
    "legendre_moment_match",
    "moment_partial_delta",
    "moment_delta_growth",
    "fourier_coeffs",
    "fourier_approx",
    "FourierApproximant",
    "legendre_fourier_coeffs",
    "legendre_fourier_approx",
    "higher_integral_chars",
    "higher_integral_approx",
    "bernoulli_chars",
    "bernoulli_approx",
    "bernoulli_taylor_limit",
]


# -- moments -------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSet:
    """Raw moments c_n = integral of x^n f over a finite interval."""

    interval: tuple
    values: tuple
    source: str = "quadrature"

    def as_char_numbers(self) -> CharNumbers:
        a, b = self.interval
        return CharNumbers(self.values, Moments(a, b))

    def as_dict(self) -> dict:
        return {
            "interval": [float(self.interval[0]), float(self.interval[1])],
            "values": [float(v) for v in self.values],
            "source": self.source,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def moments_compute(f, interval: tuple, order: int) -> MomentSet:
    """Moments c_0..c_order of ``f``: closed-form integrals when ``f`` has a
    polynomial form (source "exact" when every value is exact, "float-poly"
    otherwise), quadrature when it has none."""
    a, b = interval
    values = measure(f, Moments(a, b), range(order + 1))
    source = ("quadrature" if target_poly(f) is None
              else "exact" if all_exact(values) else "float-poly")
    return MomentSet((a, b), tuple(values), source)


def legendre_moment_match(m: MomentSet) -> PolynomialApproximant:
    """Polynomial sum beta_n P_n whose first moments equal ``m`` on (-1, 1).

    beta_n = (2n+1)/2 sum_j gamma_j^n c_j with gamma the exact Legendre
    coefficients, on the moments lifted to exact numbers: an exact polynomial.
    """
    a, b = m.interval
    if not (a == -1 and b == 1):
        raise DomainError("Legendre moment matching is defined on (-1, 1)")
    return PolynomialApproximant(_legendre_match(m.values),
                                 coeffs=CoeffSeq(m.values, "legendre_moment"))


def _legendre_match(values: Sequence, shifted: bool = False) -> Poly:
    """The sum beta_n P_n whose first moments on (-1, 1) are ``values`` (its
    repeated integrals when ``shifted``), lifted to exact numbers first; an
    inf or a nan raises DomainError.  beta_n is row n of ``_legendre_rows``
    at the values, and x^j has the coefficient sum_n beta_n gamma_nj."""
    exact = lift_exact(values)
    if exact is None:
        raise DomainError("an inf or a nan has no exact value to match")
    beta = tri_table(_legendre_rows, len(exact), shifted).apply(exact)
    return Poly(tri_table(_legendre_cols, len(exact)).apply(beta))


def _legendre_rows(size: int, shifted: bool) -> TriRows:
    """Row n: gamma_nj / <P_n, P_n>, <P_n, P_n> = 2/(2n+1), as integers over one
    denominator.  Shifted: the gamma_nj of P*_n, 1/(2n+1), each times the sign
    of P*_n(w) = (-1)^n P_n(1 - 2w) and the j! / 2^(j+1) of m_j."""
    rows = []
    for n in range(size):
        nums, den = scaled(specfun.legendre_coeffs(n, shifted).coeffs)
        if shifted:  # den is 1: each times (-1)^n j! 2^(n-j) over 2^n
            nums, den = [(-1) ** n * g * math.factorial(j) << n - j
                         for j, g in enumerate(nums)], 1 << n
        rows.append((range(n + 1), [(2 * n + 1) * g for g in nums], 2 * den))
    return TriRows(ints=rows)


def _legendre_cols(size: int) -> TriRows:
    """Row j lists (n, gamma_nj), n = j..size-1, zeros included: beta_n to the
    coefficients of sum beta_n P_n, a float sum in the order of n."""
    polys = [specfun.legendre_coeffs(n).coeffs for n in range(size)]
    return TriRows([(n, polys[n][j]) for n in range(j, size)] for j in range(size))


def moment_partial_delta(m_index: int, order: int) -> Poly:
    """Partial delta polynomial: integral of x^n times it equals
    delta_{n, m_index} for all n <= order, exactly over rationals."""
    if not (0 <= m_index <= order):
        raise DomainError("need 0 <= m <= N")
    return _legendre_match([int(n == m_index) for n in range(order + 1)])


def moment_delta_growth(m_index: int, orders: Sequence[int],
                        grid_points: int = 2001) -> list[tuple[int, float]]:
    """Sup norm of the partial delta polynomial on a (-1, 1) grid per order.

    The growth of these norms is the numerically observable face of the
    nonexistence of continuous moment delta functions.
    """
    xs = [-1.0 + 2.0 * i / (grid_points - 1) for i in range(grid_points)]
    return [(n, max(map(abs, map(moment_partial_delta(m_index, n).as_float(), xs))))
            for n in orders]


# -- Fourier and Legendre-Fourier -------------------------------------------------


def fourier_coeffs(f, order: int) -> CoeffSeq:
    """Coefficients a_n = c_n of the trigonometric delta approximation on
    (-pi, pi); the functionals are normalized so the delta property holds."""
    values = measure(f, Projection("fourier"), range(order + 1))
    return CoeffSeq(tuple(values), "fourier")


class FourierApproximant(Approximant):
    """sum a_n v_n with the trigonometric basis on (-pi, pi)."""

    @cached_property
    def terms(self) -> tuple:
        """0 + a_0 v_0 and (k, a_n, sin or cos) for each other nonzero a_n, floats
        made on first use as ``_TermSum.nonzero`` makes them; k as in ``Projection.term``."""
        values, a = self.coeffs.values, self.coeffs.floats
        head = 0 + a[0] * (1.0 / math.sqrt(2.0)) if values and values[0] != 0 else 0
        return head, tuple(((n + 1) / 2, a[n], math.sin) if n % 2 else (n / 2, a[n], math.cos)
                           for n in range(1, len(a)) if values[n] != 0)

    def __call__(self, x):
        x = float(x)
        acc, rest = self.terms
        for k, a, fn in rest:
            acc += a * fn(k * x)
        return acc


def fourier_approx(f, order: int) -> FourierApproximant:
    return FourierApproximant(fourier_coeffs(f, order))


def legendre_fourier_coeffs(f, order: int) -> CoeffSeq:
    """Coefficients a_n = c_n for the basis v_n = sqrt(2/(2n+1)) P_n."""
    values = measure(f, Projection("legendre"), range(order + 1))
    return CoeffSeq(tuple(values), "legendre_fourier")


def legendre_fourier_approx(f, order: int) -> PolynomialApproximant:
    coeffs = legendre_fourier_coeffs(f, order)
    family = Projection("legendre")
    beta = [a * family.term(n)[0] for n, a in enumerate(coeffs.values)]
    return PolynomialApproximant(Poly(tri_table(_legendre_cols, len(beta)).apply(beta)),
                                 coeffs=coeffs)


# -- higher integrals ---------------------------------------------------------------


def higher_integral_chars(f, order: int) -> CharNumbers:
    """c_n = n-fold repeated integral of f on (-1, 1) at the right endpoint,
    n = 1..order, via the Cauchy formula; exact for exact polynomials."""
    if order < 1:
        raise DomainError("higher-integral matching starts at order 1")
    return HigherIntegral().chars(f, order)


def higher_integral_approx(c: CharNumbers) -> PolynomialApproximant:
    """Polynomial on (-1, 1) whose repeated integrals match ``c``.

    Transforms to the moment problem for h(w) = f(1 - 2w) on (0, 1) with
    m_n = n! c_{n+1} / 2^(n+1) of the c_n lifted to exact numbers, matches
    with shifted Legendre polynomials and reads the match in x = 1 - 2w.
    """
    if not isinstance(c.family, HigherIntegral):
        raise DomainError("expected higher-integral characteristic numbers")
    return PolynomialApproximant(_legendre_match(c.values, shifted=True),
                                 coeffs=CoeffSeq(c.values, "higher_integral"))


# -- Bernoulli endpoint-difference family ----------------------------------------------


def bernoulli_chars(f, interval: tuple, order: int, zeroth: str = "value",
                    anchor=None) -> CharNumbers:
    """Characteristic numbers c_n = f^(n-1)(b) - f^(n-1)(a) for n >= 1.

    The zeroth entry is either the plain integral of f over (a, b)
    (``zeroth="integral"``) or the function value at ``anchor`` (default a)
    used to renormalize the expansion (``zeroth="value"``).
    """
    a, b = interval
    if a == b:
        raise DomainError("degenerate interval")
    return EndpointDiff(a, b, zeroth=zeroth, anchor=anchor).chars(f, order + 1)


def bernoulli_approx(c: CharNumbers) -> PolynomialApproximant:
    """sum c_n (b-a)^(n-1) B_n((x-a)/(b-a)) / n!, normalized via c_0."""
    if not isinstance(c.family, EndpointDiff):
        raise DomainError("expected endpoint-difference characteristic numbers")
    fam = c.family
    a, b = fam.a, fam.b
    width = b - a
    inv_width = div(1, width)
    total = Poly([0])
    for n in range(1, len(c.values)):
        if c.values[n] == 0:
            continue
        basis = specfun.bernoulli_poly(n).compose_affine(inv_width, -a * inv_width)
        scale = over(width ** (n - 1), math.factorial(n))
        total = total + (c.values[n] * scale) * basis
    if fam.zeroth == "value":
        shift = c.values[0] - total(fam.anchor)
    else:
        shift = (c.values[0] - total.integral(a, b)) * inv_width
    total = total + Poly([shift])
    return PolynomialApproximant(total, coeffs=CoeffSeq(c.values, "bernoulli"))


def bernoulli_taylor_limit(f, a, eps_list: Sequence[float], order: int
                           ) -> list[tuple[float, float]]:
    """Coefficient distance between the (a, a+eps) expansion and the Taylor
    polynomial at ``a``, per eps; shrinks linearly for analytic f."""
    taylor = f.eval_jet(a, order).coeffs
    out = []
    for eps in eps_list:
        if eps == 0:
            raise DomainError("degenerate interval")
        c = bernoulli_chars(f, (a, a + eps), order, zeroth="value", anchor=a)
        approx = bernoulli_approx(c)
        # re-expand exactly in powers of (x - a)
        recentred = approx.as_poly().shift(a)
        coeffs = list(recentred.coeffs) + [0] * (order + 1 - len(recentred.coeffs))
        diff = max(abs(float(coeffs[k]) - float(taylor[k])) for k in range(order + 1))
        out.append((eps, diff))
    return out
