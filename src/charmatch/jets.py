"""Truncated power-series (jet) arithmetic.

A jet stores ``f(x0), f'(x0), f''(x0)/2!, ...`` up to a fixed order and is
the package's exact derivative oracle: arithmetic and the elementary
primitives propagate Taylor data through composite expressions using the
standard series recurrences.

Coefficients are ordinary Python numbers.  Arithmetic stays in exact
rationals as long as every head value is exact; each primitive knows the
special points where that is possible (``exp`` at 0, ``ln`` at 1, ``sin``
and ``cos`` at 0, square roots of perfect squares, ``bessel_j0`` at 0) and
falls back to floats elsewhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from . import specfun
from .errors import DomainError, JetDomainError
from .poly import Poly, admit, all_exact, div, is_exact, mul, power, rational, scaled

__all__ = ["Jet", "compose", "bessel_jn_jet"]


def exact_sqrt(v):
    """Exact square root of an int/Fraction if it is a perfect square, else None."""
    f = Fraction(v)
    if f < 0:
        return None
    num = math.isqrt(f.numerator)
    den = math.isqrt(f.denominator)
    if num * num == f.numerator and den * den == f.denominator:
        return rational(num, den)
    return None


def _icbrt(n: int) -> int:
    """The integer cube root floor(n^(1/3)) of an int n >= 0, by Newton's
    method from a power of two above the root."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _exact_cbrt(v):
    """Exact cube root of an int/Fraction if it is a perfect cube, else None."""
    f = Fraction(v)
    num = _icbrt(abs(f.numerator))
    den = _icbrt(f.denominator)
    if num ** 3 == abs(f.numerator) and den ** 3 == f.denominator:
        return rational(num if f >= 0 else -num, den)
    return None


def _float_head(primitive: str, head) -> float:
    """The head value as a finite float, or ``JetDomainError``."""
    try:
        value = float(head)
    except OverflowError:
        raise JetDomainError(primitive, "constant term is beyond float range") from None
    if not math.isfinite(value):
        raise JetDomainError(primitive, f"constant term must be finite, got {value}")
    return value


def _positive_float_head(primitive: str, head) -> float:
    """The positive head of ``ln`` or ``sqrt`` as a float, or
    ``JetDomainError``: an exact head below the float range would round to
    0.0, where neither has a finite value."""
    value = _float_head(primitive, head)
    if value == 0:
        raise JetDomainError(primitive, "constant term is below float range")
    return value


def _weighted(u: Sequence) -> tuple[list, int]:
    """The integer numerators j U_j, j = 1, 2, ..., of the exact series ``u``
    scaled as U / Du, and Du: the weights of the exp and sin/cos recurrences."""
    num_u, den_u = scaled(u)
    return [j * x for j, x in enumerate(num_u) if j], den_u


class Jet:
    """Taylor data of a function at a point: coeffs[n] = f^(n)(x0) / n!."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the constant term")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Jet is immutable")

    # -- construction ---------------------------------------------------

    @classmethod
    def constant(cls, value, center=0, order: int = 0) -> "Jet":
        return cls(center, (value,) + (0,) * order)

    @classmethod
    def variable(cls, center, order: int) -> "Jet":
        if order == 0:
            return cls(center, (center,))
        return cls(center, (center, 1) + (0,) * (order - 1))

    def constant_like(self, value) -> "Jet":
        """The constant ``value`` at this jet's center and order."""
        return Jet.constant(value, self.center, self.order)

    # -- inspection -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def is_exact(self) -> bool:
        return all_exact(self.coeffs)

    def derivatives(self) -> tuple:
        """(f(x0), f'(x0), ..., f^(N)(x0)) -- coefficients times n!."""
        return tuple(math.factorial(n) * c for n, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"Jet(center={self.center!r}, coeffs={list(self.coeffs)!r})"

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.center == other.center and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.center, self.coeffs))

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "Jet"):
        if self.center != other.center:
            raise DomainError("jet arithmetic requires a common center")
        if self.order != other.order:
            raise DomainError("jet arithmetic requires equal orders")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.center, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return Jet(self.center, (self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.center, mul(self.coeffs, other.coeffs, self.order + 1))
        return Jet(self.center, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.center, _div_series(self.coeffs, other.coeffs))
        return Jet(self.center, tuple(div(c, other) for c in self.coeffs))

    def __rtruediv__(self, other):
        num = Jet.constant(other, self.center, self.order)
        return num / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise DomainError("jet powers require integer exponents")
        if n < 0:
            return 1 / (self ** (-n))
        return power(self, n, Jet.constant(1, self.center, self.order))

    # -- primitives --------------------------------------------------------
    #
    # Each primitive applies the standard truncated-series recurrence; the
    # head value decides whether the computation stays exact.

    def exp(self) -> "Jet":
        u = self.coeffs
        exact_head = is_exact(u[0]) and u[0] == 0
        try:
            v0 = 1 if exact_head else math.exp(_float_head("exp", u[0]))
        except OverflowError:
            raise JetDomainError("exp", f"overflows at {u[0]}") from None
        if exact_head and all_exact(u):
            # v_k = sum_j j u_j v_(k-j) / k with u = U / Du and v = V / D
            ju, den_u = _weighted(u)
            nums, den = [1], 1
            v = [1]
            for k in range(1, len(u)):
                c = Fraction(sum(map(operator.mul, ju, reversed(nums))), den_u * den * k)
                v.append(c)
                den = admit(nums, den, c)
            return Jet(self.center, v)
        v = [v0] + [0] * self.order
        for k in range(1, len(u)):
            acc = 0
            for j in range(1, k + 1):
                if u[j] != 0:
                    acc += j * u[j] * v[k - j]
            v[k] = div(acc, k)
        return Jet(self.center, v)

    def ln(self) -> "Jet":
        u = self.coeffs
        head = u[0]
        if not (head > 0):
            raise JetDomainError("ln", f"constant term must be positive, got {head}")
        v0 = 0 if (is_exact(head) and head == 1) else math.log(_positive_float_head("ln", head))
        if all_exact(u):
            # the recurrence never reads v_0, so it stays exact at any exact head:
            # v_k = (k U_k D - sum_j j V_j U_(k-j)) / (D k U_0), u = U / Du, v = V / D
            num_u, _ = scaled(u)
            nums, den = [], 1
            v = [v0]
            for k in range(1, len(u)):
                s = sum(map(operator.mul, map(operator.mul, range(1, k), nums),
                            num_u[k - 1:0:-1]))
                c = Fraction(k * num_u[k] * den - s, den * k * num_u[0])
                v.append(c)
                den = admit(nums, den, c)
            return Jet(self.center, v)
        v = [v0] + [0] * self.order
        for k in range(1, len(u)):
            acc = k * u[k]
            for j in range(1, k):
                acc -= j * v[j] * u[k - j]
            v[k] = div(acc, k * head)
        return Jet(self.center, v)

    def _sin_cos(self) -> tuple["Jet", "Jet"]:
        u = self.coeffs
        exact_head = is_exact(u[0]) and u[0] == 0
        if exact_head:
            s0, c0 = 0, 1
        else:
            h = _float_head("sin/cos", u[0])
            s0, c0 = math.sin(h), math.cos(h)
        if exact_head and all_exact(u):
            # s_k = sum_j j u_j c_(k-j) / k and c_k = -sum_j j u_j s_(k-j) / k,
            # with u = U / Du, s = S / Ds and c = C / Dc
            ju, den_u = _weighted(u)
            s_nums, s_den, c_nums, c_den = [0], 1, [1], 1
            s, c = [0], [1]
            for k in range(1, len(u)):
                sk = Fraction(sum(map(operator.mul, ju, reversed(c_nums))), den_u * c_den * k)
                ck = Fraction(-sum(map(operator.mul, ju, reversed(s_nums))), den_u * s_den * k)
                s.append(sk)
                c.append(ck)
                s_den = admit(s_nums, s_den, sk)
                c_den = admit(c_nums, c_den, ck)
            return Jet(self.center, s), Jet(self.center, c)
        s = [s0] + [0] * self.order
        c = [c0] + [0] * self.order
        for k in range(1, len(u)):
            sa = 0
            ca = 0
            for j in range(1, k + 1):
                if u[j] != 0:
                    sa += j * u[j] * c[k - j]
                    ca += j * u[j] * s[k - j]
            s[k] = div(sa, k)
            c[k] = div(-ca, k)
        return Jet(self.center, s), Jet(self.center, c)

    def sin(self) -> "Jet":
        return self._sin_cos()[0]

    def cos(self) -> "Jet":
        return self._sin_cos()[1]

    def sqrt(self) -> "Jet":
        u = self.coeffs
        head = u[0]
        if not (head > 0):
            raise JetDomainError("sqrt", f"constant term must be positive, got {head}")
        v0 = exact_sqrt(head) if is_exact(head) else None
        if v0 is None:
            v0 = math.sqrt(_positive_float_head("sqrt", head))
        if is_exact(v0) and all_exact(u):
            # v_k = (U_k D^2 - Du sum_j V_j V_(k-j)) Q / (Du D^2 2 P),
            # with u = U / Du, v = V / D for k >= 1 and v_0 = P / Q
            num_u, den_u = scaled(u)
            nums, den = [], 1
            v = [v0]
            for k in range(1, len(u)):
                s = sum(map(operator.mul, nums, reversed(nums)))
                c = Fraction((num_u[k] * den * den - den_u * s) * v0.denominator,
                             den_u * den * den * 2 * v0.numerator)
                v.append(c)
                den = admit(nums, den, c)
            return Jet(self.center, v)
        v = [v0] + [0] * self.order
        for k in range(1, len(u)):
            acc = u[k]
            for j in range(1, k):
                acc -= v[j] * v[k - j]
            v[k] = div(acc, 2 * v0)
        return Jet(self.center, v)

    def arctan(self) -> "Jet":
        u = self.coeffs
        v0 = 0 if (is_exact(u[0]) and u[0] == 0) else math.atan(_float_head("arctan", u[0]))
        w = (Jet.constant(1, self.center, self.order) + self * self).coeffs
        uprime = tuple((j + 1) * u[j + 1] for j in range(self.order)) + (0,)
        t = _div_series(uprime, w)
        v = [v0] + [div(t[k - 1], k) for k in range(1, len(u))]
        return Jet(self.center, v)

    def cbrt(self) -> "Jet":
        """Real cube root; the constant term must be nonzero."""
        head = self.coeffs[0]
        if head == 0:
            raise JetDomainError("cbrt", "constant term must be nonzero")
        if head < 0:
            return -((-self).cbrt())
        v0 = _exact_cbrt(head) if is_exact(head) else None
        if v0 is None:
            v0 = _float_head("cbrt", head) ** (1.0 / 3.0)
        # v = v0 * exp(ln(u/u0)/3) keeps exact arithmetic when possible
        w = self / head
        return v0 * (w.ln() / 3).exp()

    def bessel_j0(self) -> "Jet":
        return compose(bessel_jn_jet(0, self.coeffs[0], self.order), self)


def _div_series(p: Sequence, q: Sequence) -> tuple:
    """The first len(p) coefficients of p / q.

    Exact operands run the same recurrence on integers: p = P / Dp and
    q = Q / Dq, and the outputs so far are kept as integer numerators over
    the lcm L of their denominators, so each step is one integer dot
    product S = sum_i L out_i Q_(k-i) and one gcd:
    out_k = (P_k L Dq - S Dp) / (Dp L Q_0).  The result is a Fraction
    throughout, as the plain recurrence gives it.
    """
    if q[0] == 0:
        raise JetDomainError("division", "divisor jet has zero constant term")
    n = len(p)
    if all_exact(p) and all_exact(q[:n]):
        num_p, den_p = scaled(p)
        num_q, den_q = scaled(q[:n])
        nums, den = [], 1
        out = []
        for k in range(n):
            s = sum(map(operator.mul, nums, num_q[k:0:-1]))
            c = Fraction(num_p[k] * den * den_q - s * den_p, den_p * den * num_q[0])
            out.append(c)
            den = admit(nums, den, c)
        return tuple(out)
    out = [0] * n
    for k in range(n):
        acc = p[k]
        for i in range(k):
            if out[i] != 0:
                acc -= out[i] * q[k - i]
        out[k] = div(acc, q[0])
    return tuple(out)


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of f(g(x)) from the jets of f (at g(x0)) and g (at x0).

    Requires ``inner.coeffs[0] == outer.center`` and equal orders; this is
    the Faa di Bruno composition in truncated-series form (Horner scheme).
    """
    if inner.coeffs[0] != outer.center:
        raise DomainError(
            "composition centers do not match: inner value "
            f"{inner.coeffs[0]!r} vs outer center {outer.center!r}"
        )
    if inner.order != outer.order:
        raise DomainError("composition requires equal jet orders")
    shifted = Jet(inner.center, (0,) + inner.coeffs[1:])
    return Poly(outer.coeffs)(shifted)


def bessel_jn_jet(n: int, t0, order: int) -> Jet:
    """Jet of J_n at ``t0``.

    At the origin the ascending series gives exact rational coefficients.
    Elsewhere J_n^(k) = 2^-k sum_i (-1)^i C(k, i) J_{n-k+2i} (DLMF 10.6.7),
    with J_{-m} = (-1)^m J_m, from one sweep of J_0..J_{n+order} at t0;
    every term is bounded, unlike the Taylor recurrence of the Bessel
    equation, whose error grows like k! / t0^k.
    """
    if n < 0:
        raise DomainError("Bessel order must be nonnegative")
    if t0 == 0:
        coeffs = [0] * (order + 1)
        for j in range(n, order + 1):
            if (j - n) % 2:
                continue
            k = (j - n) // 2
            num = (-1) ** k
            den = 2 ** j * math.factorial(k) * math.factorial(n + k)
            coeffs[j] = Fraction(num, den) if is_exact(t0) else num / den
        return Jet(t0, coeffs)
    top = n + order
    js = specfun.bessel_j_all(top, _float_head("bessel_j", t0))
    # J_m for m = -top..top at index m + top
    j = [(-1) ** m * js[m] for m in range(top, 0, -1)] + js
    coeffs = []
    for k in range(order + 1):
        acc = 0.0
        for i in range(k + 1):
            acc += (-1) ** i * math.comb(k, i) * j[n - k + 2 * i + top]
        coeffs.append(acc / (2 ** k * math.factorial(k)))
    return Jet(t0, coeffs)
