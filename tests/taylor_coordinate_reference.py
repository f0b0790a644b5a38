"""The exact Taylor-coordinate code that now runs on integers, kept as it was.

Three exact paths divided each c_k by k! one Fraction at a time:

* ``pade_solve``: f_k = c_k / k! as Fractions, the q-block of -f_(k-j) and
  f_k scaled row by row (``scaled``) for Bareiss elimination, the unknowns as
  Fractions, and P = f Q cut after x^m through ``poly.mul`` on Fractions;
* ``Poly.__call__`` at the identity jet t: the power table of t, whose rows
  are the identity;
* the Dirichlet coefficient maps: the divisor sums of gamma^-1 read at the
  f_k.

The tests compare the integer paths with these by ``result_key.key``.
"""

import math
import operator
from fractions import Fraction

from charmatch import poly, specfun
from charmatch.errors import DomainError, SingularSystemError
from charmatch.expansions import _DIRICHLET, _require_derivative
from charmatch.jets import Jet
from charmatch.matching import CharNumbers, CoeffSeq
from charmatch.poly import Poly, TriRows, admit, all_exact, div, mul, over, scaled


def solve_bareiss(a):
    n = len(a)
    prev, pivots = 1, {}  # pivot column -> its row
    for col in range(n):
        top = len(pivots)
        pivot = next((r for r in range(top, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[top], a[pivot] = a[pivot], a[top]
        row = pivots[col] = a[top]
        p = row[col]
        for r in range(top + 1, n):
            below, f = a[r], a[r][col]
            a[r] = below[:col] + [(p * x - f * y) // prev
                                  for x, y in zip(below[col:], row[col:])]
        prev = p
    if any(row[n] for row in a[len(pivots):]):  # 0 = b with b != 0
        raise SingularSystemError("degenerate Pade block")
    nums, den = [], 1  # x_(n-1), x_(n-2), ... over den
    for col in range(n - 1, -1, -1):
        if (row := pivots.get(col)) is None:
            nums.append(0)  # a free unknown
            continue
        s = sum(map(operator.mul, row[col + 1:n], reversed(nums)))
        den = admit(nums, den, row[n] * den - s, den * row[col])
    return [Fraction(x, den) for x in reversed(nums)]


def solve_dense(matrix, rhs):
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if all(map(all_exact, a)):
        return solve_bareiss([scaled(row)[0] for row in a])
    pivots = []  # the pivot column of row 0, 1, ...
    for col in range(n):
        top = len(pivots)
        pivot = max(range(top, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            continue
        a[top], a[pivot] = a[pivot], a[top]
        piv = a[top][col]
        for r in range(top + 1, n):
            if a[r][col] == 0:
                continue
            f = div(a[r][col], piv)
            for k in range(col, n + 1):
                a[r][k] -= f * a[top][k]
        pivots.append(col)
    if any(row[n] != 0 for row in a[len(pivots):]):  # 0 = b with b != 0
        raise SingularSystemError("degenerate Pade block")
    out = [0] * n
    for row, col in reversed(list(zip(a, pivots))):
        acc = row[n]
        for k in range(col + 1, n):
            acc -= row[k] * out[k]
        out[col] = div(acc, row[col])
    return out


def pade_solve(c: CharNumbers, m: int, n: int) -> CoeffSeq:
    _require_derivative(c)
    if m < 0 or n < 0:
        raise DomainError("Pade degrees must be nonnegative")
    total = m + n + 1
    if len(c.values) < total:
        raise DomainError(f"need {total} characteristic numbers, got {len(c.values)}")
    f = [over(c.values[k], math.factorial(k)) for k in range(total)]
    block = [[-f[k - j] if j <= k else 0 for j in range(1, n + 1)]
             for k in range(m + 1, total)]
    q = [1] + solve_dense(block, f[m + 1:])
    p = mul(q, f, m + 1, skip_zero_b=False)
    return CoeffSeq(p + q[1:], "pade", params={"m": m, "n": n})


def compose_with_power_table(p: Poly, x: Jet) -> Jet:
    """The exact ``p(x)`` for an exact jet x with head 0 and x_1 != 0, summed
    with the power table of x as ``Poly.__call__`` sums it for every other
    such jet."""
    order = x.order
    coeffs = p.coeffs[:min(len(p.coeffs) - 1, order) + 1]
    coeffs += (0,) * (order + 1 - len(coeffs))
    return Jet.from_ints(x.center, *poly._power_rows(x.nums, x.den).exact(coeffs))


def dirichlet_rows(variant: str, size: int) -> TriRows:
    series = _DIRICHLET[variant]["series"]
    # gamma^-1 at the divisors k of n, ascending (gamma_size keeps it nonempty)
    inv = (0, *specfun.dirichlet_inverse([series(j) for j in range(1, size + 1)]))
    return TriRows([[(n // k, inv[k]) for k in range(1, n + 1) if n % k == 0 and inv[k]]
                    for n in range(1, size)])


def dirichlet_expansion_coeffs(c: CharNumbers, variant: str) -> CoeffSeq:
    _require_derivative(c)
    table = _DIRICHLET.get(variant)
    if table is None:
        raise DomainError(f"unknown Dirichlet expansion variant {variant!r}")
    f = [over(ck, math.factorial(k)) for k, ck in enumerate(c.values)]
    values = dirichlet_rows(variant, len(c.values)).apply(f)
    b0 = c.values[0]
    if table["series"](0):
        total = 0  # a += loop, as the builtin sum was before Python 3.12
        for a in values:
            total += a
        b0 = b0 - total
    return CoeffSeq(tuple(values), variant, params={"b0": b0})
