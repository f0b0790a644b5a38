"""Plain references for the float loops of the float-center round trip.

``integral_match.FourierApproximant`` sums terms prepared once, and
``expansions.exp_weighted_coeffs`` reads the cached rows of the exact w.
Both must give the results, bits and exactness included, of the loops
below.  The Fourier loop, copied from the code it replaced, builds its
terms with ``Projection.term`` on each call and adds them with ``+=`` from
the int 0, which is what the builtin ``sum`` did before Python 3.12 (it is
compensated from 3.12 on).  The exp-weighted loop calls ``_m_entry`` for
every (n, i) at the Fraction that w equals and multiplies each c_i by the
exact m_{n,i}, or by its correctly rounded float where w is a float.
"""

from fractions import Fraction

from charmatch.expansions import _m_entry
from charmatch.matching import Projection
from charmatch.poly import is_exact, over


def fourier_call(approx, x):
    """sum a_n v_n(x) over the nonzero a_n of a ``FourierApproximant``."""
    family = Projection("fourier")
    terms = [family.term(n) for n in range(len(approx.coeffs.values))]
    x = float(x)
    acc = 0
    for v, a, (scale, shape) in zip(approx.coeffs.values, approx.coeffs.floats, terms):
        if v != 0:
            acc += a * (scale * shape(x))
    return acc


def exp_weighted_float_map(values, w, q: int) -> list:
    """a_n = sum_i m_{n,i} c_i over the m_{n,i} that ``_m_entry`` lists."""
    exact = Fraction(w)
    out = []
    for n in range(len(values)):
        acc = 0
        for i in range(n + 1):
            if (entry := _m_entry(n, i, exact, q)) is not None:
                m = over(*entry)
                acc += (m if is_exact(w) else float(m)) * values[i]
        out.append(acc)
    return out
