"""The triangular map against the per-kind loops it replaced.

Every lower-triangular coefficient formula now runs through
``matching.tri_map``.  Each reference below is the loop a kind used before,
kept verbatim, and the two must agree by ``result_key.key`` on int,
Fraction and float characteristic numbers (signed zeros included): exact
values and exactness, and float bits.  On exact operands the map gives an
int where a value is an integer and a Fraction otherwise
(``poly.rational``), whatever type the loop gave.  The exact
characterization digests cannot see the float path.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch import specfun
from charmatch import expansions as xp
from charmatch import integral_match as im
from charmatch.matching import CharNumbers, Derivative, HigherIntegral, TriMatrix, tri_map
from charmatch.poly import Poly, over
from result_key import same


F = Fraction

INTS = st.integers(-10 ** 30, 10 ** 30)
FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
ZEROS = st.sampled_from([0, 0.0, -0.0, F(0)])
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# pow_sine folds 2^n into its entries, which scales a product c_k |t(n, k)| exactly
# only while it stays a normal float: with 1/4 <= |t(n, k)| 2^n < 2.6e46 for n <= 40
# that holds for 1e-300 <= |c_k| <= 1e250.  Outside it the last bits may differ.
NORMAL_FLOATS = st.floats(-1e250, 1e250).filter(lambda x: x == 0 or abs(x) >= 1e-300)


def chars(floats=FLOATS):
    """N + 1 <= 41 characteristic numbers, mixing ints, Fractions and floats."""
    entries = st.one_of(INTS, FRACTIONS, floats, ZEROS)
    return st.integers(0, 40).flatmap(
        lambda n: st.lists(entries, min_size=n + 1, max_size=n + 1))


# -- the loops the map replaced --------------------------------------------------


def ref_nsbf(c):
    def comb(a, b):
        return math.comb(a, b) if b >= 0 else 0

    values = [c[0]]
    for n in range(1, len(c)):
        acc = 0
        for i in range(0, n // 2 + 1):
            weight = comb(n - i - 1, n - 2 * i - 1) + 2 * comb(n - i - 1, n - 2 * i)
            acc += 2 ** (n - 2 * i) * weight * c[n - 2 * i]
        values.append(acc)
    return tuple(values)


def ref_pow_sine(c):
    values = [c[0]]
    for n in range(1, len(c)):
        acc = 0
        for k in range(1, n + 1):
            t = specfun.central_factorial_abs(n, k)
            if t:
                acc += c[k] * t
        values.append(over(acc * 2 ** n, math.factorial(n)))
    return tuple(values)


REF_TABLES = {
    "log_powers": specfun.stirling2,
    "stirling1_g": specfun.stirling1_unsigned,
    "lambert_w_g": specfun.bell_binomial_power,
}


def ref_powers_of_g(c, variant):
    b = REF_TABLES[variant]
    values = [c[0]]
    for n in range(1, len(c)):
        acc = 0
        for k in range(1, n + 1):
            bkn = b(n, k)
            if bkn:
                acc += c[k] * bkn
        values.append(over(acc, math.factorial(n)))
    return tuple(values)


def ref_rational_x1(c, alpha):
    values = [c[0]]
    for n in range(1, len(c)):
        acc = 0
        for k in range(1, n + 1):
            lah = math.comb(n - 1, k - 1) * (math.factorial(n) // math.factorial(k))
            acc += (-alpha) ** k * c[k] * lah
        values.append(over(acc, math.factorial(n)))
    return tuple(values), {"alpha": alpha}


REF_SEQ = {"dirichlet_g": lambda k: 1, "dirichlet_rat1": specfun.moebius,
           "dirichlet_rat2": specfun.nu}


def ref_dirichlet(c, variant):
    seq = REF_SEQ[variant]
    order = len(c) - 1
    f = [over(c[k], math.factorial(k)) for k in range(order + 1)]
    values = []
    for n in range(1, order + 1):
        acc = 0
        for k in range(1, n + 1):
            if n % k == 0:
                s = seq(k)
                if s:
                    acc += s * f[n // k]
        values.append(acc)
    b0 = c[0] - sum(values) if variant == "dirichlet_rat1" else c[0]
    return tuple(values), {"b0": b0}


def ref_multiply(rows, t):
    return [sum(row[m] * t[m] for m in range(n + 1)) for n, row in enumerate(rows)]


def lifted(values):
    """Each of ``values`` as the Fraction it equals: the Legendre matches lift
    finite floats, every one a dyadic rational, before they sum."""
    return [F(v) for v in values]


def ref_legendre_moment_match(moments):
    total = Poly([0])
    for n in range(len(moments)):
        gamma = specfun.legendre_coeffs(n)
        acc = sum(gamma.coeffs[j] * moments[j] for j in range(n + 1))
        beta = Fraction(2 * n + 1, 2) * acc
        total = total + beta * gamma
    return total.coeffs


def ref_higher_integral_approx(c):
    moments = [Fraction(math.factorial(n), 2 ** (n + 1)) * c[n] for n in range(len(c))]
    total = Poly([0])
    for n in range(len(moments)):
        gamma = specfun.legendre_coeffs(n, shifted=True)
        acc = sum(gamma.coeffs[j] * moments[j] for j in range(n + 1))
        beta = (2 * n + 1) * acc
        total = total + beta * gamma
    half = Fraction(1, 2)
    return total.compose_affine(-half, half).coeffs


# -- the map against them ----------------------------------------------------------------


def derivative(c):
    return CharNumbers(c, Derivative(0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=chars())
def test_nsbf_on_the_map(c):
    same(lambda: xp.nsbf_coeffs(derivative(c)).values, lambda: ref_nsbf(c))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=chars(NORMAL_FLOATS))
def test_pow_sine_on_the_map(c):
    same(lambda: xp.pow_sine_coeffs(derivative(c)).values, lambda: ref_pow_sine(c))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=chars(), variant=st.sampled_from(sorted(REF_TABLES)))
def test_powers_of_g_on_the_map(c, variant):
    same(lambda: xp.powers_of_g_coeffs(derivative(c), variant).values,
         lambda: ref_powers_of_g(c, variant))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=chars(), alpha=st.sampled_from([-1, F(1, 3), 2.5]))
def test_rational_x1_on_the_map(c, alpha):
    def new():
        coeffs = xp.rational_x1_coeffs(derivative(c), alpha)
        return coeffs.values, coeffs.params

    same(new, lambda: ref_rational_x1(c, alpha))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=chars(), variant=st.sampled_from(sorted(REF_SEQ)))
def test_dirichlet_on_the_map(c, variant):
    def new():
        coeffs = xp.dirichlet_expansion_coeffs(derivative(c), variant)
        return coeffs.values, coeffs.params

    same(new, lambda: ref_dirichlet(c, variant))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_trimatrix_multiply_on_the_map(data):
    # a dense matrix costs N^2 draws, so N stays at most 12 here
    entries = st.one_of(INTS, FRACTIONS, FLOATS, ZEROS)
    size = data.draw(st.integers(1, 13))
    t = data.draw(st.lists(entries, min_size=size, max_size=size))
    rows = [data.draw(st.lists(entries, min_size=n + 1, max_size=n + 1))
            for n in range(size)]
    same(lambda: TriMatrix(rows).multiply(t), lambda: ref_multiply(rows, t))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=chars())
def test_legendre_moment_match_on_the_map(m):
    same(lambda: im.legendre_moment_match(im.MomentSet((-1, 1), tuple(m))).poly.coeffs,
         lambda: ref_legendre_moment_match(lifted(m)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=chars())
def test_higher_integral_approx_on_the_map(c):
    same(lambda: im.higher_integral_approx(CharNumbers(c, HigherIntegral())).poly.coeffs,
         lambda: ref_higher_integral_approx(lifted(c)))


def test_tri_map_rows_and_divisors():
    # sparse rows in the order given; a listed zero entry still adds a term
    rows = [[(0, 1)], [(1, F(1, 2)), (0, 0)], []]
    assert tri_map(rows, [3, 4]) == [3, F(2), 0]
    assert tri_map(rows, [3, 4], [1, 4, 2]) == [F(3), F(1, 2), F(0)]
    assert tri_map(rows, [-0.0, 2.0]) == [0.0, 1.0, 0]
