"""Plain references for the float loops of the float-center round trip.

``integral_match.FourierApproximant`` sums terms prepared once, and the
float branch of ``expansions.exp_weighted_coeffs`` reads one cached table
of (i, m, float(m), den) entries.  Both must give the results, bits and
exactness included, of the loops below, copied from the code they replaced.
The Fourier loop builds its terms with ``Projection.term`` on each call and
adds them with ``+=`` from the int 0, which is what the builtin ``sum`` did
before Python 3.12 (it is compensated from 3.12 on).  The exp-weighted loop
calls ``_m_entry`` for every (n, i) and multiplies each c_i by the exact m,
so a float c_i goes through Fraction's operator fallback.
"""

from charmatch.expansions import _m_entry
from charmatch.matching import Projection
from charmatch.poly import over


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
    """a_n = sum_i over(c_i * m, den) over the nonzero m_{n,i} = m / den."""
    out = []
    for n in range(len(values)):
        acc = 0
        for i in range(n + 1):
            if (entry := _m_entry(n, i, w, q)) is not None:
                acc += over(values[i] * entry[0], entry[1])
        out.append(acc)
    return out
