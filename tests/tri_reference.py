"""An independent reference for ``tri_map``: exact sums and a float error bound.

Row n of a triangular map gives a_n = sum_k T(n, k) v_k / d_n.  A row with no
float among its entries and the v_k it reads must give that value exactly,
as an int or a Fraction: the sum of ``Fraction(t) * Fraction(v[k])``, then
divided by d_n.  A row with floats, all finite, must give a float within the
standard error bound of a dot product (N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, sec. 3.1):
|a - s| <= gamma_m * sum |t_k v_k| / d_n, gamma_m = m u / (1 - m u), with
u = 2^-53 and m the number of terms plus the roundings of the operands,
of the divisor's reciprocal and of the scaling, and one least subnormal
per operation for underflow.  A non-finite float makes the row's float
non-finite.  Where an exact number beyond the float range meets a float,
or the sum itself nears the float range, the row is left unchecked, and
only there may the map raise OverflowError.
"""

import math
import sys
from fractions import Fraction

UNIT = Fraction(1, 2 ** 53)
TINY = Fraction(1, 2 ** 1074)
HALF_MAX = Fraction(sys.float_info.max) / 2
EXTRA = 6  # operand conversions, the reciprocal 1.0 / d and the scaling


def gamma(m: int) -> Fraction:
    return m * UNIT / (1 - m * UNIT)


def _row_check(terms, d):
    """What row (t, v_k) pairs with divisor d must give: ("exact", value),
    ("float", value, bound), ("nonfinite",) or ("beyond",)."""
    floats = [x for pair in terms for x in pair if isinstance(x, float)]
    if not floats:
        return "exact", sum((Fraction(t) * Fraction(x) for t, x in terms), Fraction(0)) / d
    exact_part = sum((abs(Fraction(t) * Fraction(x)) for t, x in terms
                      if not (isinstance(t, float) or isinstance(x, float))), Fraction(0))
    if exact_part > HALF_MAX or any(abs(Fraction(x)) > HALF_MAX for pair in terms
                                    for x in pair if not isinstance(x, float)):
        return ("beyond",)
    if not all(map(math.isfinite, floats)):
        return ("nonfinite",)
    products = [Fraction(t) * Fraction(x) for t, x in terms]
    scale = sum(map(abs, products), Fraction(0))
    if scale > HALF_MAX:
        return ("beyond",)
    m = len(terms) + EXTRA
    return "float", sum(products, Fraction(0)) / d, gamma(m) * scale / d + m * TINY


def check_tri_map(call, rows, v, divisors=None) -> None:
    """Assert that ``call()``, a ``tri_map`` of ``rows`` at ``v`` with
    ``divisors``, agrees with the exact sums as the module docstring says."""
    rows = [list(row) for row in rows]
    divisors = [1] * len(rows) if divisors is None else list(divisors)
    checks = [_row_check([(t, v[k]) for k, t in row], d) for row, d in zip(rows, divisors)]
    try:
        got = call()
    except OverflowError:
        assert any(c[0] == "beyond" for c in checks)
        return
    assert len(got) == len(checks)
    for a, check in zip(got, checks):
        if check[0] == "exact":
            assert isinstance(a, (int, Fraction)) and a == check[1]
        elif check[0] == "float":
            assert isinstance(a, float) and abs(Fraction(a) - check[1]) <= check[2]
        elif check[0] == "nonfinite":
            assert isinstance(a, float) and not math.isfinite(a)
        else:
            assert isinstance(a, float)
