"""Truncated power-series (jet) arithmetic.

A jet stores ``f(x0), f'(x0), f''(x0)/2!, ...`` up to a fixed order and is
the package's exact derivative oracle: arithmetic and the elementary
primitives propagate Taylor data through composite expressions using the
standard series recurrences.

An exact jet holds integer numerators over one denominator, reduced so
that ``gcd(den, *nums) == 1`` (the form ``poly.scaled`` gives), and every
exact operation reads and writes that form: one integer kernel and one gcd
per result, fraction-free as in Bareiss elimination.  Fractions are built
only where a number leaves the jet: ``coeffs`` (on first read), ``value``
and ``derivatives()``.  A jet with a float coefficient holds ordinary
Python numbers and runs the plain loops.  Arithmetic stays exact as long as
every head value is exact; each primitive knows the special points where
that is possible (``exp`` at 0, ``ln`` at 1, ``sin`` and ``cos`` at 0,
square roots of perfect squares, ``bessel_j0`` at 0) and falls back to
floats elsewhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from . import specfun
from .errors import DomainError, JetDomainError
from .poly import (
    Poly, admit, all_exact, div, is_exact, mul, power, rational, reduced, scaled,
)

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


def _floats(xs: Sequence) -> Sequence:
    """The floats of ``xs``, as their products with floats take them; ``xs``
    itself where one is beyond the float range, so that a product raises
    where it is formed."""
    try:
        return tuple(map(float, xs))
    except OverflowError:
        return xs


def _float_factor(x: "Jet", ys: Sequence) -> Sequence:
    """The coefficients of the exact jet ``x`` as ``mul`` may read them in a
    product with ``ys``: as floats where ``x`` holds a Fraction and every
    nonzero entry of ``ys`` is a float, since ``mul`` skips the zeros and an
    int meets a float in C; as they are where that would turn a nonzero
    entry into 0.0."""
    xs = x.coeffs
    if x.den == 1 or any(type(y) is not float for y in ys if y != 0):
        return xs
    fs = _floats(xs)
    return fs if fs.count(0) == xs.count(0) else xs


_set = object.__setattr__


class Jet:
    """Taylor data of a function at a point: coeffs[n] = f^(n)(x0) / n!.

    A jet decides once, where it is made, whether it is exact: an exact jet
    has ``coeffs[n] = nums[n] / den`` and builds ``coeffs`` on first read; a
    jet with a float coefficient has ``nums`` None.
    """

    __slots__ = ("center", "coeffs", "nums", "den")

    def __init__(self, center, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the constant term")
        _set(self, "center", center)
        _set(self, "coeffs", coeffs)
        if is_exact(coeffs[0]) and all_exact(coeffs):
            nums, den = scaled(coeffs)
            _set(self, "nums", tuple(nums))
            _set(self, "den", den)
        else:
            _set(self, "nums", None)

    @classmethod
    def from_ints(cls, center, nums: tuple, den: int) -> "Jet":
        """The exact jet nums / den; (nums, den) must be reduced."""
        jet = object.__new__(cls)
        _set(jet, "center", center)
        _set(jet, "nums", nums)
        _set(jet, "den", den)
        return jet

    def __getattr__(self, name):
        # only the coefficients of an exact jet are left unset, until read
        if name != "coeffs" or self.nums is None:
            raise AttributeError(name)
        coeffs = tuple(rational(x, self.den) for x in self.nums)
        _set(self, "coeffs", coeffs)
        return coeffs

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
        return len(self.coeffs if self.nums is None else self.nums) - 1

    @property
    def value(self):
        return self.coeffs[0] if self.nums is None else rational(self.nums[0], self.den)

    def is_exact(self) -> bool:
        return self.nums is not None

    def derivatives(self) -> tuple:
        """(f(x0), f'(x0), ..., f^(N)(x0)) -- coefficients times n!."""
        if self.nums is None:
            return tuple(math.factorial(n) * c for n, c in enumerate(self.coeffs))
        return tuple(rational(math.factorial(n) * x, self.den) for n, x in enumerate(self.nums))

    def __repr__(self):
        return f"Jet(center={self.center!r}, coeffs={list(self.coeffs)!r})"

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.center == other.center and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.center, self.coeffs))

    # -- arithmetic -------------------------------------------------------
    #
    # Exact operands meet as integer forms; any float operand sends the
    # operation to the plain loop on ``coeffs``.

    def _check_compatible(self, other: "Jet"):
        if self.center != other.center:
            raise DomainError("jet arithmetic requires a common center")
        if self.order != other.order:
            raise DomainError("jet arithmetic requires equal orders")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            if self.nums is None or other.nums is None:
                return Jet(self.center,
                                 tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
            num_b, den_b = other.nums, other.den
        elif self.nums is None or not is_exact(other):
            return Jet(self.center, (self.coeffs[0] + other,) + self.coeffs[1:])
        else:
            num_b, den_b = (other.numerator,), other.denominator
        den = math.lcm(self.den, den_b)
        out = [x * (den // self.den) for x in self.nums]
        for i, y in enumerate(num_b):
            out[i] += y * (den // den_b)
        return Jet.from_ints(self.center, *reduced(out, den))

    __radd__ = __add__

    def __neg__(self):
        if self.nums is None:
            return Jet(self.center, tuple(-c for c in self.coeffs))
        return Jet.from_ints(self.center, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            n = self.order + 1
            if self.nums is None or other.nums is None:
                a, b = self.coeffs, other.coeffs
                if self.nums is not None:
                    a = _float_factor(self, b)
                elif other.nums is not None:
                    b = _float_factor(other, a)
                return Jet(self.center, mul(a, b, n))
            return Jet.from_ints(self.center, *reduced(mul(self.nums, other.nums, n),
                                                       self.den * other.den))
        if self.nums is None or not is_exact(other):
            return Jet(self.center, tuple(c * other for c in self.coeffs))
        return self._times(other)

    __rmul__ = __mul__

    def _times(self, r) -> "Jet":
        """The exact jet times the int or Fraction ``r``."""
        return Jet.from_ints(self.center, *reduced([x * r.numerator for x in self.nums],
                                                   self.den * r.denominator))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            if self.nums is None or other.nums is None:
                return Jet(self.center, _div_series(self.coeffs, other.coeffs))
            if other.nums[0] == 0:
                raise JetDomainError("division", "divisor jet has zero constant term")
            nums, den = [], 1
            num_p, den_p, num_q, den_q = self.nums, self.den, other.nums, other.den
            # out_k = (P_k D Dq - Dp sum_i O_i Q_(k-i)) / (Dp D Q_0), out = O / D
            for k in range(len(num_p)):
                s = sum(map(operator.mul, nums, num_q[k:0:-1]))
                den = admit(nums, den, num_p[k] * den * den_q - s * den_p,
                            den_p * den * num_q[0])
            return Jet.from_ints(self.center, tuple(nums), den)
        if self.nums is None or not is_exact(other):
            return Jet(self.center, tuple(div(c, other) for c in self.coeffs))
        return self._times(Fraction(1, other))  # ZeroDivisionError at an exact 0

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
    # head value decides whether the computation stays exact.  The exact
    # recurrences keep their outputs as integer numerators over a shared
    # denominator (``admit``), so each step is one integer dot product.

    def exp(self) -> "Jet":
        if self.nums is not None and self.nums[0] == 0:
            # v_k = sum_j j u_j v_(k-j) / k with u = U / Du and v = V / D
            ju = [j * x for j, x in enumerate(self.nums) if j]
            den_u, nums, den = self.den, [1], 1
            for k in range(1, len(self.nums)):
                den = admit(nums, den, sum(map(operator.mul, ju, reversed(nums))),
                            den_u * den * k)
            return Jet.from_ints(self.center, tuple(nums), den)
        u = self.coeffs
        exact_head = is_exact(u[0]) and u[0] == 0
        try:
            v0 = 1 if exact_head else math.exp(_float_head("exp", u[0]))
        except OverflowError:
            raise JetDomainError("exp", f"overflows at {u[0]}") from None
        v = [v0] + [0] * self.order
        for k in range(1, len(u)):
            acc = 0
            for j in range(1, k + 1):
                if u[j] != 0:
                    acc += j * u[j] * v[k - j]
            v[k] = div(acc, k)
        return Jet(self.center, v)

    def ln(self) -> "Jet":
        head = self.value
        if not (head > 0):
            raise JetDomainError("ln", f"constant term must be positive, got {head}")
        v0 = 0 if (is_exact(head) and head == 1) else math.log(_positive_float_head("ln", head))
        if self.nums is not None:
            # the recurrence never reads v_0, so it stays exact at any exact head:
            # v_k = (k U_k D - sum_j j V_j U_(k-j)) / (D k U_0), u = U / Du, v = V / D
            num_u = self.nums
            nums, den = [0], 1
            for k in range(1, len(num_u)):
                s = sum(map(operator.mul, map(operator.mul, range(1, k), nums[1:]),
                            num_u[k - 1:0:-1]))
                den = admit(nums, den, k * num_u[k] * den - s, den * k * num_u[0])
            if is_exact(v0):  # the head 1 gives 0
                return Jet.from_ints(self.center, tuple(nums), den)
            return Jet(self.center, (v0, *(rational(x, den) for x in nums[1:])))
        u = self.coeffs
        v = [v0] + [0] * self.order
        for k in range(1, len(u)):
            acc = k * u[k]
            for j in range(1, k):
                acc -= j * v[j] * u[k - j]
            v[k] = div(acc, k * head)
        return Jet(self.center, v)

    def _sin_cos(self) -> tuple["Jet", "Jet"]:
        if self.nums is not None and self.nums[0] == 0:
            # s_k = sum_j j u_j c_(k-j) / k and c_k = -sum_j j u_j s_(k-j) / k,
            # with u = U / Du, s = S / Ds and c = C / Dc
            ju = [j * x for j, x in enumerate(self.nums) if j]
            den_u, s_nums, s_den, c_nums, c_den = self.den, [0], 1, [1], 1
            for k in range(1, len(self.nums)):
                sk = sum(map(operator.mul, ju, reversed(c_nums)))
                ck = -sum(map(operator.mul, ju, reversed(s_nums)))
                ds, dc = den_u * c_den * k, den_u * s_den * k
                s_den = admit(s_nums, s_den, sk, ds)
                c_den = admit(c_nums, c_den, ck, dc)
            return (Jet.from_ints(self.center, tuple(s_nums), s_den),
                    Jet.from_ints(self.center, tuple(c_nums), c_den))
        u = self.coeffs
        if is_exact(u[0]) and u[0] == 0:
            s0, c0 = 0, 1
        else:
            h = _float_head("sin/cos", u[0])
            s0, c0 = math.sin(h), math.cos(h)
        s = [s0] + [0] * self.order
        c = [c0] + [0] * self.order
        ju = [j * x for j, x in enumerate(u)]
        # j u_j meets a float s or c entry as its float, an exact one as itself
        fju = _floats(ju)
        for k in range(1, len(u)):
            sa = 0
            ca = 0
            for j in range(1, k + 1):
                if u[j] != 0:
                    cj, sj = c[k - j], s[k - j]
                    sa += (fju if type(cj) is float else ju)[j] * cj
                    ca += (fju if type(sj) is float else ju)[j] * sj
            s[k] = div(sa, k)
            c[k] = div(-ca, k)
        return Jet(self.center, s), Jet(self.center, c)

    def sin(self) -> "Jet":
        return self._sin_cos()[0]

    def cos(self) -> "Jet":
        return self._sin_cos()[1]

    def sqrt(self) -> "Jet":
        head = self.value
        if not (head > 0):
            raise JetDomainError("sqrt", f"constant term must be positive, got {head}")
        v0 = exact_sqrt(head) if is_exact(head) else None
        if v0 is None:
            v0 = math.sqrt(_positive_float_head("sqrt", head))
        elif self.nums is not None:
            # v_k = (U_k D^2 - Du sum_j V_j V_(k-j)) Q / (Du D^2 2 P),
            # with u = U / Du, v = V / D and v_0 = P / Q
            num_u, den_u = self.nums, self.den
            nums = []
            den = admit(nums, 1, v0.numerator, v0.denominator)
            for k in range(1, len(num_u)):
                s = sum(map(operator.mul, nums[1:], reversed(nums[1:])))
                den = admit(nums, den, (num_u[k] * den * den - den_u * s) * v0.denominator,
                            den_u * den * den * 2 * v0.numerator)
            return Jet.from_ints(self.center, tuple(nums), den)
        u = self.coeffs
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
        w = Jet.constant(1, self.center, self.order) + self * self
        uprime = Jet(self.center, tuple((j + 1) * u[j + 1] for j in range(self.order)) + (0,))
        t = (uprime / w).coeffs
        v = [v0] + [div(t[k - 1], k) for k in range(1, len(u))]
        return Jet(self.center, v)

    def cbrt(self) -> "Jet":
        """Real cube root; the constant term must be nonzero."""
        head = self.value
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
        return compose(bessel_jn_jet(0, self.value, self.order), self)


def _div_series(p: Sequence, q: Sequence) -> tuple:
    """The first len(p) coefficients of p / q by the plain recurrence: the
    quotient of jets with a float coefficient."""
    if q[0] == 0:
        raise JetDomainError("division", "divisor jet has zero constant term")
    n = len(p)
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
    if inner.value != outer.center:
        raise DomainError(
            "composition centers do not match: inner value "
            f"{inner.value!r} vs outer center {outer.center!r}"
        )
    if inner.order != outer.order:
        raise DomainError("composition requires equal jet orders")
    if inner.nums is None:
        shifted = Jet(inner.center, (0,) + inner.coeffs[1:])
    else:
        shifted = Jet.from_ints(inner.center, *reduced((0,) + inner.nums[1:], inner.den))
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
