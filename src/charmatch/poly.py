"""Dense univariate polynomials over exact rationals or floats.

Coefficients are plain Python numbers (``int``, ``fractions.Fraction`` or
``float``); arithmetic stays exact as long as every participating number is
exact.  This is the workhorse behind the combinatorial polynomial tables
(Bernoulli, Legendre) and every place the tests demand exact-zero residuals.
Exactness follows the operand types; ``div`` and ``over`` are the only two
places where the package chooses between exact and float arithmetic by hand.
An exact number meets a float as its ``float()``: int's and Fraction's
operators convert it first, so an exact operand converted once with
``float`` gives the same bits, and the float paths do so wherever the other
operand is a float, which keeps them out of Fraction's Python-level fallback.
Exact sequences are computed on as integer numerators over one denominator
(``scaled``, ``reduced``): the one product ``mul``, ``TriRows`` and the exact
jets, and the integer Taylor shift ``taylor_shift``.  A number leaves that
form as ``rational(num, den)``, an int where the value is an integer and a
Fraction otherwise.  Every fixed triangular map, the power tables of
``Poly.__call__`` included, is one ``TriRows`` in the one cache
``tri_table``; the identity jet t takes no table, since an exact polynomial
composed with it is its own coefficients in that integer form.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Sequence

EXACT_TYPES = (int, Fraction)


def is_exact(value) -> bool:
    """True for numbers participating in exact (rational) arithmetic."""
    return isinstance(value, EXACT_TYPES)


def all_exact(values) -> bool:
    """True when every one of ``values`` is exact, tested once per type."""
    return all(issubclass(t, EXACT_TYPES) for t in set(map(type, values)))


def div(a, b):
    """``a / b``, for exact operands the exact quotient as ``rational`` types it
    (``int / int`` alone would give a float): ``div(6, 3)`` is the int 2 and
    ``div(1, 3)`` is ``Fraction(1, 3)``.  Any float operand gives ``a / b``."""
    if isinstance(a, EXACT_TYPES) and isinstance(b, EXACT_TYPES):
        return rational(a.numerator * b.denominator, a.denominator * b.numerator)
    return a / b


def over(x, den: int):
    """``x / den`` for an integer ``den`` as ``x`` times the reciprocal; for a
    float ``x`` that is the float ``1.0 / den`` (at ``den = 23!`` an ulp away
    from the correctly rounded 1/23!), which the float coefficients rely on."""
    return x * Fraction(1, den) if isinstance(x, EXACT_TYPES) else x * (1.0 / den)


def scaled(cs) -> tuple[list, int]:
    """Integer numerators of the ints/Fractions ``cs`` over the lcm of their
    denominators, and that lcm."""
    den = math.lcm(*[c.denominator for c in cs])
    if den == 1:  # the ints themselves, not copies
        return [c.numerator for c in cs], den
    return [c.numerator * (den // c.denominator) for c in cs], den


def admit(nums: list, den: int, num: int, d: int) -> int:
    """Append ``num / d`` (ints, ``d`` nonzero) to ``nums``, integer numerators
    over ``den``, and return the new shared denominator: the quotient is
    reduced by one gcd, then ``den`` grows, with every numerator, to the
    least multiple that its denominator divides.

    The exact recurrences (series quotient, jet primitives, back
    substitution) keep the outputs found so far this way, so each new output
    costs one integer dot product and one gcd.  Started from ``[], 1``, the
    result is reduced: ``den`` is the lcm of the outputs' denominators.
    """
    g = math.gcd(num, d)
    if d < 0:
        g = -g
    num, d = num // g, d // g
    if den % d:
        grow = d // math.gcd(den, d)
        nums[:] = [x * grow for x in nums]
        den *= grow
    nums.append(num * (den // d))
    return den


def rational(num: int, den: int):
    """``num / den`` for ints: an int when ``den`` divides ``num``, else a
    Fraction.  Every exact integer kernel types its results this way."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def reduced(nums: Sequence[int], den: int) -> tuple[tuple, int]:
    """``nums / den`` (``den > 0``) with the common factor of ``den`` and every
    numerator divided out: the one integer form of an exact sequence, as
    ``scaled`` gives it for the sequence's values."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def mul(a, b, n: int, skip_zero_b: bool = True) -> list:
    """The first ``n`` coefficients of the product of the coefficient
    sequences ``a`` and ``b`` by the double loop ``out[i + j] += a[i] * b[j]``;
    a zero ``a[i]`` is skipped, and so is a zero ``b[j]`` when
    ``skip_zero_b``.  The one product of the package: on integer numerators
    for exact jets and polynomials (fraction-free, as in Bareiss
    elimination), and on the coefficients themselves where a float takes
    part, whose skip rules decide the sign of a zero and whether inf * 0
    makes a nan.  Each sum adds its terms in order of increasing ``i``.

    Where every ``b[j]`` from the first nonzero one on takes part (every g
    jet at a float center has head 0.0), the inner loop runs over
    ``b[lead:n - i]`` with a running index; otherwise over the terms of
    ``b`` that take part, with a bound test per term.
    """
    out = [0] * n
    b = b[:n]
    terms = [(j, y) for j, y in enumerate(b) if y != 0 or not skip_zero_b]
    lead = terms[0][0] if terms else n
    if len(terms) < len(b) - lead:  # a zero b[j] after the leading ones
        for i, x in enumerate(a[:n]):
            if x == 0:
                continue
            for j, y in terms:
                if i + j >= n:
                    break
                out[i + j] += x * y
        return out
    for i, x in enumerate(a[:n - lead]):
        if x == 0:
            continue
        k = i + lead
        for y in b[lead:n - i]:
            out[k] += x * y
            k += 1
    return out


class TriRows:
    """The rows of a triangular map a_n = sum_k T(n, k) v_k with exact
    entries, and optional divisors d_n, prepared for ``apply``.  The rows
    come as their (k, T(n, k)) pairs or as ``ints``, the one form kept: per
    row its column indices, its integer numerators over one denominator and
    that denominator.  Two more forms are made on first use and kept:

    - ``pairs``, each entry as ``rational(num, den)``, for the loop;
    - ``floats``, per row the column indices and each float(T(n, k)) =
      num / den, correctly rounded, in an ``array('d')``.  An int or a
      Fraction meets a float as its ``float``, so ``t * x`` and
      ``float(t) * x`` have the same bits for a float x, and an entry beyond
      the float range raises OverflowError in both.
    """

    def __init__(self, rows=None, divisors=None, ints=None):
        self.divisors = None if divisors is None else list(divisors)
        self.ints = ints if ints is not None else [
            (tuple(k for k, _ in row), *scaled([t for _, t in row])) for row in map(list, rows)]

    @functools.cached_property
    def pairs(self) -> list:
        return [list(zip(cols, [rational(num, den) for num in nums]))
                for cols, nums, den in self.ints]

    @functools.cached_property
    def floats(self) -> list:
        return [(cols, array("d", [num / den for num in nums])) for cols, nums, den in self.ints]

    def _sums(self, v: Sequence) -> list:
        """Per row of the map of the exact ``v``, the sum's integer numerator
        and its denominator: v is scaled once, so each is one integer dot
        product."""
        nums_v, den_v = scaled(v)
        divisors = repeat(1) if self.divisors is None else self.divisors
        return [(sum(map(operator.mul, nums, map(nums_v.__getitem__, cols))), den * den_v * d)
                for (cols, nums, den), d in zip(self.ints, divisors)]

    def exact(self, v: Sequence) -> tuple[tuple, int]:
        """``tri_map`` of the rows at the exact ``v`` as one reduced integer
        form: numerators over one denominator (``reduced``)."""
        sums = self._sums(v)
        den = math.lcm(*[d for _, d in sums])
        return reduced([s * (den // d) for s, d in sums], den)

    def apply(self, v: Sequence) -> list:
        """``tri_map`` of the rows; at an exact v each a_n is one
        ``rational``."""
        if all_exact(v):
            return [rational(s, d) for s, d in self._sums(v)]
        if all(type(x) is float for x in v):
            return tri_map((zip(cols, ts) for cols, ts in self.floats), v, self.divisors)
        return tri_map(self.pairs, v, self.divisors)


@functools.lru_cache(maxsize=256, typed=True)
def tri_table(build: Callable, *key) -> TriRows | list:
    """The rows ``build(*key)`` of a fixed triangular map, built once per
    builder and key and kept in the one bounded cache (256 tables) of every
    such map.  The key is typed, so a float parameter never reads the table
    of an equal exact one (``-0.5 == Fraction(-1, 2)``)."""
    return build(*key)


def tri_map(rows: Iterable, v: Sequence, divisors: Iterable[int] | None = None) -> list:
    """a_n = sum_k T(n, k) v_k, row n given as its (k, T(n, k)) pairs, then
    ``over(a_n, d_n)`` for the n-th of ``divisors`` if given.  The sum starts at
    int 0 and adds the terms in row order, zero entries listed included."""
    out = []
    for row in rows:
        acc = 0
        for k, t in row:
            acc += t * v[k]
        out.append(acc)
    if divisors is not None:
        out = [over(a, d) for a, d in zip(out, divisors)]
    return out


def _power_rows(nums: tuple, den: int) -> TriRows:
    """Rows n = 0..N of the power table P(n, k) = [t^n] y^k, k = 0..n // v,
    of the exact jet y = nums / den (reduced) with head 0 and first nonzero
    index v, its powers made by jet products.  The key holds values only,
    so value-equal jets share the table.
    """
    from .jets import Jet

    v = next(k for k, y in enumerate(nums) if y)
    y = Jet.from_ints(0, nums, den)
    powers = [Jet.constant(1, 0, y.order)]
    for _ in range(y.order // v):
        powers.append(powers[-1] * y)
    rows = []
    for n in range(len(nums)):
        row = powers[:n // v + 1]
        d = math.lcm(*[p.den for p in row])
        rows.append((range(len(row)), *reduced([p.nums[n] * (d // p.den) for p in row], d)))
    return TriRows(ints=rows)


def taylor_shift(nums: Sequence[int], den: int, alpha, beta, top: int | None = None) -> list:
    """The coefficients of p(alpha x + beta), p = sum_k nums[k] x^k / den with
    ``den > 0`` and exact ``alpha``, ``beta``, as one (numerator, denominator)
    pair per power of x; each denominator is positive and depends on den,
    alpha, beta, ``top`` (at least the degree, by default the degree) and
    the power alone, so the shifts of several polynomials with one ``den``
    and ``top`` share it.

    For beta = r/s nonzero this is the Taylor shift of von zur Gathen and
    Gerhard (ISSAC 1997) on integers: h(y) = p(beta y) has the numerators
    nums[k] r^k s^(top - k) over den s^top, h(y + 1) follows from them by
    additions alone, and y = (alpha / beta) x multiplies coefficient j by
    (alpha / beta)^j.  For beta = 0 coefficient j is nums[j] alpha^j / den.
    """
    p, q = alpha.numerator, alpha.denominator
    r, s = beta.numerator, beta.denominator
    if not r:
        return [(x * p ** j, den * q ** j) for j, x in enumerate(nums)]
    top = len(nums) - 1 if top is None else top
    g = [x * r ** k * s ** (top - k) for k, x in enumerate(nums)]
    for i in range(len(g) - 1):
        for k in range(len(g) - 2, i - 1, -1):
            g[k] += g[k + 1]
    ps, qr = (-p * s, -q * r) if r < 0 else (p * s, q * r)
    return [(x * ps ** j, den * s ** top * qr ** j) for j, x in enumerate(g)]


def power(base, n: int, one):
    """``base ** n`` for an int n >= 0 by square and multiply from ``one``;
    the base is squared only while a higher bit is left.  The first factor
    is multiplied into ``one``, so a float zero of a jet base becomes the
    exact zero that the product's skip rule leaves."""
    result = one
    while True:
        if n & 1:
            result = result * base
        n >>= 1
        if not n:
            return result
        base = base * base


class Poly:
    """Immutable polynomial ``c[0] + c[1] x + ... + c[d] x^d``."""

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable = (0,)):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic protocol -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __call__(self, x):
        """Horner evaluation at a number, a Poly or a Jet (the package's one
        Horner loop); exact when coefficients and ``x`` are exact.

        The result has the kind of ``x``, also for a constant polynomial.  At
        a float ``x`` the loop runs on float copies of the coefficients, made
        once, which gives the same bits (an exact number meets a float as its
        ``float()``).

        A jet ``x`` whose head is 0 and whose first nonzero coefficient has
        index v adds nothing to orders beyond N from x^k with k v > N, so the
        loop starts at degree N // v, and the accumulator that ends up
        multiplied by x^k keeps orders up to N - k v only.  Those orders are
        the same sums of the same products (``mul`` on the coefficients) as
        in the full loop, so floats keep their bits.  On exact coefficients
        and an exact jet the loop gives way to the cached power table of the
        jet (``_power_rows``, keyed by its integer form): O(N^2) integer work
        per call instead of one product per degree.  The identity jet t
        takes no table: the result is the coefficients themselves.
        """
        if isinstance(x, float):
            coeffs = self.floats
            acc = coeffs[-1]
        else:
            coeffs = self.coeffs
            from .jets import Jet

            if isinstance(x, Jet) and len(coeffs) > 1:
                ys = x.coeffs if x.nums is None else x.nums
                order = len(ys) - 1
                v = next((k for k, y in enumerate(ys) if y != 0), 0)
                if v:
                    coeffs = coeffs[:min(len(coeffs) - 1, order // v) + 1]
                    top = len(coeffs) - 1
                    if x.nums is not None and all_exact(coeffs):
                        # padded to the columns k = 0..N // v of the table
                        coeffs += (0,) * (order // v - top)
                        if x.den == 1 and ys[1] == 1 and not any(ys[2:]):
                            # the identity jet t, whose table is the identity
                            return Jet.from_ints(x.center, *reduced(*scaled(coeffs)))
                        table = tri_table(_power_rows, x.nums, x.den)
                        return Jet.from_ints(x.center, *table.exact(coeffs))
                    ys = x.coeffs
                    acc = [coeffs[top]] + [0] * (order - top * v)
                    for k in range(top - 1, -1, -1):
                        # the orders of the cofactor of x^k that count
                        keep = order - k * v
                        acc = mul(acc + [0] * v, ys[:keep + 1], keep + 1)
                        acc[0] += coeffs[k]
                    return Jet(x.center, acc)
            acc = coeffs[-1]
            constant_like = getattr(x, "constant_like", None)
            if constant_like is not None:
                acc = constant_like(acc)
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    @property
    def floats(self) -> tuple:
        """The coefficients as floats, converted on first use."""
        try:
            return self._floats
        except AttributeError:
            object.__setattr__(self, "_floats", tuple(float(c) for c in self.coeffs))
            return self._floats

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            n = max(len(self.coeffs), len(other.coeffs))
            a = list(self.coeffs) + [0] * (n - len(self.coeffs))
            b = list(other.coeffs) + [0] * (n - len(other.coeffs))
            return Poly(x + y for x, y in zip(a, b))
        return self + Poly([other])

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly([-other]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            n = len(a) + len(b) - 1
            if all_exact(a) and all_exact(b):
                (num_a, den_a), (num_b, den_b) = scaled(a), scaled(b)
                return Poly(rational(s, den_a * den_b) for s in mul(num_a, num_b, n))
            return Poly(mul(a, b, n, skip_zero_b=False))
        return Poly(c * other for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Poly([1]))

    # -- calculus -------------------------------------------------------

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0])
        return Poly(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def antiderivative(self) -> "Poly":
        """Antiderivative with zero constant term (exact over Fractions)."""
        return Poly([0] + [div(c, k + 1) for k, c in enumerate(self.coeffs)])

    def integral(self, a, b):
        """Definite integral over [a, b]; exact for exact inputs."""
        anti = self.antiderivative()
        return anti(b) - anti(a)

    # -- structural helpers ----------------------------------------------

    def compose_affine(self, alpha, beta) -> "Poly":
        """Return p(alpha*x + beta) by Horner over polynomials."""
        return self(Poly([beta, alpha]))

    def shift(self, a) -> "Poly":
        """Return q with q(t) = p(t + a), i.e. re-expansion around ``a``."""
        return self.compose_affine(1, a)

    def as_float(self) -> "Poly":
        return Poly(self.floats)

    def as_poly(self) -> "Poly":
        return self

    def constant_like(self, value) -> "Poly":
        """The constant polynomial ``value``."""
        return Poly([value])

    def eval_jet(self, x0, order: int):
        """Jet of the polynomial at ``x0`` (exact when inputs are exact)."""
        from .jets import Jet

        return self(Jet.variable(x0, order))
