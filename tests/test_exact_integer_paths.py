"""The integer-numerator paths against the plain loops they replaced.

``TriRows``, the jet primitives ``exp``, ``ln``, ``sqrt`` and ``sin``/``cos``,
the closed-form ``Moments`` and ``HigherIntegral`` of a polynomial, their
power integrals, the Bernoulli numbers, the central factorials, the
integer Taylor shift ``taylor_shift`` and the exact Pade solve now run on
integer numerators over shared denominators when every operand is an int
or a Fraction; the NSBF and Dirichlet approximant jets, the exact
``exp_weighted_coeffs`` and ``bernoulli_approx`` are ``tri_map`` sums, and
an exact series composed with an exact jet of head 0 is summed from the
jet's power table, kept in the one cache ``tri_table``, except at the
identity jet, which takes no table.  The exact Pade solve builds its block,
Q and P on integers, and the exact Dirichlet maps fold 1/k! into their
rows; the code they replaced is kept in ``taylor_coordinate_reference``.
Each reference below is the loop used before, kept verbatim, and the two
must agree by ``result_key.key``: exact values and exactness, and float
bits.  An exact integer path gives an int where a value is an integer and a
Fraction otherwise (``poly.rational``), whatever type the loop gave.  Float
and mixed operands still take the loops, and nothing else in the suite
guards their bits, with three exceptions.  The closed-form integrals lift
finite floats to exact numbers and round each result once, so their loops
run on the lifted operands.  The Bernoulli basis takes float interval ends
as the exact numbers they are, so its loop composes with the lifted ends.
The NSBF and Dirichlet jets at the center read the cached rows for every
operand; those rows hold the nonzero entries alone, where the basis sums
also multiply the zero coefficients of each basis function, so they are
checked against a loop over the nonzero entries.
"""

import importlib.util
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charmatch import expansions as xp
from charmatch import integral_match as im
from charmatch import poly, specfun
from charmatch.errors import DomainError, JetDomainError, SingularSystemError
from charmatch.exprs import parse
from charmatch.jets import Jet, _float_head, bessel_jn_jet, exact_sqrt
from charmatch.matching import (
    CharNumbers, CoeffSeq, Derivative, EndpointDiff, HigherIntegral, Moments,
    derivative_chars, tri_map, verify_matching,
)
from charmatch.poly import Poly, div, is_exact, over
from charmatch.registry import build_kind
from result_key import key, same
from test_exact_kernel import plain_mul
from tri_reference import check_tri_map
import taylor_coordinate_reference as former


F = Fraction

INTS = st.integers(-10 ** 6, 10 ** 6)
FRACTIONS = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
ZEROS = st.sampled_from([0, 0.0, -0.0, F(0)])
FLOATS = st.floats(-1e6, 1e6)
EXACT = st.one_of(INTS, FRACTIONS, st.sampled_from([0, F(0)]))
NUMBERS = st.one_of(INTS, FRACTIONS, FLOATS, ZEROS)


def numbers(size, exact_only):
    return st.lists(EXACT if exact_only else NUMBERS, min_size=size, max_size=size)


def sequences(max_size=41):
    """Up to ``max_size`` numbers: all exact half of the time, else mixed."""
    return st.tuples(st.integers(1, max_size), st.booleans()).flatmap(
        lambda t: numbers(*t))


# -- the loops the integer paths replaced --------------------------------------------


def ref_linear_combination(head, terms):
    acc = head
    for a, basis in terms:
        acc = acc + a * basis
    return acc


def ref_nsbf_eval_jet(self, x0, order):
    t0 = x0 - self.center
    return ref_linear_combination(
        Jet.constant(0, x0, order),
        ((a, Jet(x0, bessel_jn_jet(n, t0, order).coeffs))
         for n, a in enumerate(self.coeffs.values) if a != 0))


def ref_dirichlet_eval_jet(self, x0, order):
    t = Jet.variable(x0, order) - self.center
    variant = self.kind
    terms = []
    for n, a in enumerate(self.coeffs.values, start=1):
        if a == 0:
            continue
        y = t ** n
        if variant == "dirichlet_g":
            if y.coeffs[0] != 0:
                raise DomainError(
                    "Moebius-G jets are only supported at the expansion point"
                )
            # truncated at the jet order, exact since y has no constant term
            mu_poly = Poly((0,) + specfun.moebius_table(order))
            basis = mu_poly(y)
        elif variant == "dirichlet_rat1":
            basis = 1 / (1 - y)
        else:
            basis = y / (y * y + 1)
        terms.append((a, basis))
    return ref_linear_combination(Jet.constant(self.b0, x0, order), terms)


def ref_exp(jet):
    u = jet.coeffs
    try:
        v0 = 1 if (is_exact(u[0]) and u[0] == 0) else math.exp(_float_head("exp", u[0]))
    except OverflowError:
        raise JetDomainError("exp", f"overflows at {u[0]}") from None
    v = [v0] + [0] * jet.order
    for k in range(1, len(u)):
        acc = 0
        for j in range(1, k + 1):
            if u[j] != 0:
                acc += j * u[j] * v[k - j]
        v[k] = div(acc, k)
    return Jet(jet.center, v)


def ref_ln(jet):
    u = jet.coeffs
    head = u[0]
    if not (head > 0):
        raise JetDomainError("ln", f"constant term must be positive, got {head}")
    v0 = 0 if (is_exact(head) and head == 1) else math.log(_float_head("ln", head))
    v = [v0] + [0] * jet.order
    for k in range(1, len(u)):
        acc = k * u[k]
        for j in range(1, k):
            acc -= j * v[j] * u[k - j]
        v[k] = div(acc, k * head)
    return Jet(jet.center, v)


def ref_sin_cos(jet):
    u = jet.coeffs
    if is_exact(u[0]) and u[0] == 0:
        s0, c0 = 0, 1
    else:
        h = _float_head("sin/cos", u[0])
        s0, c0 = math.sin(h), math.cos(h)
    s = [s0] + [0] * jet.order
    c = [c0] + [0] * jet.order
    for k in range(1, len(u)):
        sa = 0
        ca = 0
        for j in range(1, k + 1):
            if u[j] != 0:
                sa += j * u[j] * c[k - j]
                ca += j * u[j] * s[k - j]
        s[k] = div(sa, k)
        c[k] = div(-ca, k)
    return Jet(jet.center, s), Jet(jet.center, c)


def ref_sqrt(jet):
    u = jet.coeffs
    head = u[0]
    if not (head > 0):
        raise JetDomainError("sqrt", f"constant term must be positive, got {head}")
    v0 = exact_sqrt(head) if is_exact(head) else None
    if v0 is None:
        v0 = math.sqrt(_float_head("sqrt", head))
    v = [v0] + [0] * jet.order
    for k in range(1, len(u)):
        acc = u[k]
        for j in range(1, k):
            acc -= v[j] * v[k - j]
        v[k] = div(acc, 2 * v0)
    return Jet(jet.center, v)


def as_float_unless_exact(value, *operands):
    """The loops' integral, as a float unless every operand is exact."""
    return value if all(map(poly.all_exact, operands)) else float(value)


def lifted(values):
    """Each of ``values`` as the Fraction it equals: a finite float is a dyadic
    rational.  The loops run on lifted operands, so a float result is the
    exact integral rounded once."""
    return [F(v) for v in values]


def ref_moments(p, a, b, orders):
    return [as_float_unless_exact(Poly([0] * n + lifted(p.coeffs)).integral(*lifted([a, b])),
                                  p.coeffs, [a, b]) for n in orders]


def ref_higher_integral(p, orders):
    power, k = Poly([1]), 0
    out = []
    for n in orders:
        if k > n - 1:
            power, k = Poly([1]), 0
        while k < n - 1:
            power, k = power * Poly([1, -1]), k + 1
        val = as_float_unless_exact((power * Poly(lifted(p.coeffs))).integral(-1, 1),
                                    p.coeffs)
        out.append(div(val, math.factorial(n - 1)))
    return out


def ref_solve_dense(matrix, rhs):
    """Elimination with partial pivoting to row echelon form: an unknown whose
    column has no pivot is 0, and a row left as 0 = b with b != 0 raises."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
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
    for r in range(len(pivots), n):
        if a[r][n] != 0:
            raise SingularSystemError("degenerate Pade block")
    out = [0] * n
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = a[r][n]
        for k in range(col + 1, n):
            acc -= a[r][k] * out[k]
        out[col] = div(acc, a[r][col])
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_tri_map_matches_the_loop(data):
    v = data.draw(sequences())
    exact_entries = data.draw(st.booleans())
    entry = st.one_of(INTS, FRACTIONS) if exact_entries else NUMBERS
    if data.draw(st.booleans()):
        entry = INTS  # the int rows of the coefficient maps
    rows = [data.draw(st.lists(st.tuples(st.integers(0, n), entry), max_size=n + 2))
            for n in range(len(v))]
    divisors = data.draw(st.none() | st.lists(st.integers(1, 10 ** 12),
                                              min_size=len(v), max_size=len(v)))
    # against exact sums of exact products, and the dot-product error bound
    check_tri_map(lambda: tri_map(iter(rows), v, divisors), rows, v, divisors)


def test_tri_map_gives_exact_values():
    # an empty row and a row of zero entries sum to an exact 0
    v = [F(1, 2), 3, -0]
    rows = [[(0, 2)], [(1, 5), (2, 7)], [], [(1, 0), (0, 0)]]
    assert key(tri_map(rows, v)) == key([1, 15, 0, 0])
    assert key(tri_map(rows, v, [3, 5, 7, 1])) == key([F(1, 3), 3, 0, 0])


CENTERS = st.sampled_from([0, F(1, 3), 0.5])
# int coefficients with zeros among them: a row that no Fraction reaches
INT_SEQUENCES = st.lists(st.one_of(INTS, st.just(0)), min_size=1, max_size=40)
# floats with inf and nan among them, or numbers of every kind with a float
NON_EXACT = numbers(40, False).filter(lambda v: not poly.all_exact(v)) | st.lists(
    st.one_of(FLOATS, ZEROS, st.sampled_from([math.inf, math.nan])), min_size=1, max_size=40)


def row_map(rows, v):
    """sum_n T(m, n) v_n per row m, from the int 0 in row order."""
    out = []
    for row in rows:
        acc = 0
        for n, t in row:
            acc += t * v[n]
        out.append(acc)
    return out


def check_center_rows(jet, rows, v):
    """The center jets sum the nonzero entries alone: a zero entry forms no
    term, so an inf or nan v_n reaches only the orders where its basis
    function has a nonzero coefficient, and a zero v_n adds its zero term.
    The jet must equal the plain loop over those entries by key and the
    exact sums within the bound of ``tri_reference``."""
    same(lambda: tuple(jet().coeffs), lambda: tuple(row_map(rows, v)))
    check_tri_map(lambda: list(jet().coeffs), rows, v)


def nsbf_center_rows(t0, order, size):
    """Row j: (n, j-th coefficient of J_n at t0 = 0) where it is nonzero, a
    float at a float t0."""
    jets = [bessel_jn_jet(n, t0, order).coeffs for n in range(size)]
    return [[(n, cs[j]) for n, cs in enumerate(jets) if cs[j]] for j in range(order + 1)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=sequences() | INT_SEQUENCES, center=CENTERS,
       off=st.sampled_from([0, 0, F(1, 4)]),
       order=st.integers(0, 60))
def test_nsbf_jet_matches_the_basis_sum(values, center, off, order):
    # the basis sum skips a zero a_n where the center rows skip a zero entry:
    # those jets are checked against their rows below
    assume(off != 0 or (is_exact(center) and poly.all_exact(values)))
    approx = xp.NsbfApproximant(CoeffSeq(values, "nsbf"), center=center)
    x0 = center + off
    same(lambda: approx.eval_jet(x0, order), lambda: ref_nsbf_eval_jet(approx, x0, order))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=NON_EXACT | sequences(), center=CENTERS, order=st.integers(0, 60))
@example(values=[1.0, math.inf, 0.0, math.nan], center=0.5, order=5)
@example(values=[0, 5, F(1, 3)], center=0.5, order=4)
def test_nsbf_center_jet_sums_the_nonzero_entries(values, center, order):
    approx = xp.NsbfApproximant(CoeffSeq(values, "nsbf"), center=center)
    rows = nsbf_center_rows(center - center, order, len(values))
    check_center_rows(lambda: approx.eval_jet(center, order), rows, values)


def test_an_inf_coefficient_reaches_only_the_orders_of_its_basis_function():
    # J_1 has odd powers only, and 1/(1 - t^2) even ones
    nsbf = xp.NsbfApproximant(CoeffSeq((1.0, math.inf), "nsbf"), center=0.5).eval_jet(0.5, 6)
    assert [math.isfinite(c) for c in nsbf.coeffs] == [True, False] * 3 + [True]
    rat1 = xp.DirichletApproximant(CoeffSeq((0.0, math.nan), "dirichlet_rat1", {"b0": 1.0}), 0.5)
    assert [math.isnan(c) for c in rat1.eval_jet(0.5, 4).coeffs] == [True, False] * 2 + [True]


VARIANTS = st.sampled_from(["dirichlet_g", "dirichlet_rat1", "dirichlet_rat2"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=numbers(40, True) | INT_SEQUENCES, b0=EXACT, variant=VARIANTS, center=CENTERS,
       order=st.integers(0, 60))
@example(values=[0, 5], b0=1, variant="dirichlet_rat1", center=0, order=3)
def test_dirichlet_jet_matches_the_basis_sum(values, b0, variant, center, order):
    approx = xp.DirichletApproximant(CoeffSeq(values, variant, {"b0": b0}), center=center)
    same(lambda: approx.eval_jet(center, order),
         lambda: ref_dirichlet_eval_jet(approx, center, order))


def dirichlet_center_rows(variant, order, size):
    """Row m: (0, 1) for b_0 in row 0, then (n, gamma_(m/n)) for each n <= size
    dividing m with gamma nonzero, gamma the series coefficients of g at 0:
    mu_j for G, 1 for 1/(1-x), +-1 at odd j for x/(x^2+1)."""
    gamma = {"dirichlet_g": lambda j: specfun.moebius(j) if j else 0,
             "dirichlet_rat1": lambda j: 1,
             "dirichlet_rat2": lambda j: (-1) ** (j // 2) if j % 2 else 0}[variant]
    rows = [[(n, gamma(m // n)) for n in range(1, size + 1) if m % n == 0 and gamma(m // n)]
            for m in range(order + 1)]
    rows[0].insert(0, (0, 1))
    return rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=NON_EXACT, b0=NUMBERS, variant=VARIANTS, center=CENTERS, order=st.integers(0, 60))
@example(values=[-1.5, 0, -2.0], b0=-0.0, variant="dirichlet_g", center=0, order=3)
@example(values=[0.0], b0=-0.0, variant="dirichlet_rat1", center=0.5, order=2)
@example(values=[math.inf, 0.0, 1.5], b0=2, variant="dirichlet_rat2", center=0.5, order=9)
def test_dirichlet_float_rows_match_the_exact_rows(values, b0, variant, center, order):
    approx = xp.DirichletApproximant(CoeffSeq(values, variant, {"b0": b0}), center=center)
    rows = dirichlet_center_rows(variant, order, len(values))
    check_center_rows(lambda: approx.eval_jet(center, order), rows, (b0, *values))


@pytest.mark.parametrize("variant", ["dirichlet_g", "dirichlet_rat1", "dirichlet_rat2"])
@pytest.mark.parametrize("values", [(F(1, 2), 3, 0.25), (0, 0.0, F(0))])
def test_dirichlet_jet_refuses_other_points(variant, values):
    approx = xp.DirichletApproximant(CoeffSeq(values, variant, {"b0": 1}), center=0)
    for x0 in (F(1, 3), 0.5, -1e-300):
        with pytest.raises(DomainError):
            approx.eval_jet(x0, 4)
    assert approx.eval_jet(0.0, 4).center == 0.0


def jets(heads):
    """A jet of order <= 40 with the given head strategy."""
    return st.tuples(heads, sequences(40)).map(lambda t: Jet(0, (t[0],) + tuple(t[1])))


ANY_HEAD = st.one_of(NUMBERS, st.sampled_from([1, F(1), 1.0, 4, F(9, 4), -0.0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jet=jets(ANY_HEAD))
def test_exp_matches_the_loop(jet):
    same(jet.exp, lambda: ref_exp(jet))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jet=jets(ANY_HEAD))
def test_ln_matches_the_loop(jet):
    same(jet.ln, lambda: ref_ln(jet))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jet=jets(ANY_HEAD))
def test_sqrt_matches_the_loop(jet):
    same(jet.sqrt, lambda: ref_sqrt(jet))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jet=jets(ANY_HEAD))
@example(jet=Jet(0, [1, 0, 1, 0]))  # s_3 and c_1 stay exact zeros beside float entries
def test_sin_cos_matches_the_loop(jet):
    same(jet._sin_cos, lambda: ref_sin_cos(jet))


def test_exact_head_decides_the_exp_and_sin_cos_paths():
    # a tiny exact head is not an exact zero: the float loop runs
    jet = Jet(0, (F(1, 10 ** 400), 1, F(1, 2)))
    assert key(jet.exp()) == key(ref_exp(jet))
    assert key(jet._sin_cos()) == key(ref_sin_cos(jet))


INTERVALS = st.sampled_from([(-1, 1), (0, 1), (F(-1, 2), F(2, 3)), (2, 2), (-1.0, 1.0),
                             (0, 0.5)])


def polys():
    """Polynomials of degree <= 40, the zero polynomial among them."""
    return st.one_of(sequences(), st.sampled_from([[0], [F(0)], [0, 0, 0], [0.0]])).map(Poly)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=polys(), interval=INTERVALS, orders=st.lists(st.integers(0, 40), min_size=1,
                                                       max_size=41))
def test_moments_match_the_loop(p, interval, orders):
    a, b = interval
    same(lambda: Moments(a, b).measure(p, orders),
         lambda: ref_moments(p, a, b, orders))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=polys(), orders=st.lists(st.integers(1, 41), min_size=1, max_size=41))
def test_higher_integral_matches_the_loop(p, orders):
    same(lambda: HigherIntegral().measure(p, orders),
         lambda: ref_higher_integral(p, orders))


def test_zero_polynomial_integrates_to_exact_zeros():
    for zero in (Poly([0]), Poly([F(0)])):
        assert key(Moments().measure(zero, [0, 3])) == key([0, 0])
        assert key(HigherIntegral().measure(zero, [1, 3])) == key([0, 0])


def test_float_zero_polynomial_integrates_to_float_zeros():
    # no verification can then claim an exact zero for a float input
    zero = Poly([0.0])
    assert key(Moments().measure(zero, [0, 2])) == key([0.0, 0.0])
    assert key(HigherIntegral().measure(zero, [1, 2])) == key([0.0, 0.0])
    assert key(Moments(F(-1, 2), 1).measure(Poly([0.0, 0.0]), [3])) == key([0.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_solve_dense_matches_the_loop(data):
    size = data.draw(st.integers(1, 10))
    exact_only = data.draw(st.booleans())
    # small ints make singular blocks likely
    entry = st.one_of(st.integers(-2, 2), EXACT if exact_only else NUMBERS)
    matrix = [data.draw(st.lists(entry, min_size=size, max_size=size)) for _ in range(size)]
    # columns with nothing below the diagonal, which Bareiss eliminates like any other
    for col in data.draw(st.sets(st.integers(0, size - 1))):
        for row in matrix[col + 1:]:
            row[col] = 0
    rhs = data.draw(st.lists(entry, min_size=size, max_size=size))
    if exact_only and data.draw(st.booleans()):
        # a right-hand side in the column space: a singular block then has a solution
        rhs = [sum(map(operator.mul, row, rhs)) for row in matrix]
    same(lambda: xp._solve_dense(matrix, rhs), lambda: ref_solve_dense(matrix, rhs))


def ref_pade_full_system(c, m, n):
    """The Pade solve before the q-block split: all m+n+1 unknowns p_0..p_m,
    q_1..q_n in one system, whose p_k rows are identity rows."""
    total = m + n + 1
    f = [over(c[k], math.factorial(k)) for k in range(total)]
    matrix = [[0] * total for _ in range(total)]
    rhs = []
    for k in range(total):
        if k <= m:
            matrix[k][k] = 1
        for j in range(1, min(k, n) + 1):
            matrix[k][m + j] = -f[k - j]
        rhs.append(f[k])
    sol = ref_solve_dense(matrix, rhs)
    return tuple(sol)


def ref_pade_q_block(c, m, n):
    """The q-block in q_1..q_n by the plain elimination loop, and P as the
    first m+1 coefficients of f Q by the plain product loop."""
    total = m + n + 1
    f = [over(c[k], math.factorial(k)) for k in range(total)]
    block = [[-f[k - j] if j <= k else 0 for j in range(1, n + 1)]
             for k in range(m + 1, total)]
    q = [1] + ref_solve_dense(block, f[m + 1:])
    return tuple(plain_mul(q, f, m + 1, skip_zero_b=False) + q[1:])


# floats away from zero, under- and overflow, of either sign
MODERATE_FLOATS = st.builds(lambda v, sign: sign * v,
                            st.floats(1e-6, 1e6, exclude_min=True, exclude_max=True),
                            st.sampled_from([1.0, -1.0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_pade_matches_the_loop(data):
    size = data.draw(st.integers(1, 41))
    kind = data.draw(st.sampled_from(["exact", "mixed", "float"]))
    entry = {"exact": EXACT, "mixed": NUMBERS, "float": MODERATE_FLOATS}[kind]
    c = data.draw(st.lists(entry, min_size=size, max_size=size))
    m = data.draw(st.integers(0, size - 1))
    n = size - 1 - m

    def new():
        coeffs = xp.pade_solve(CharNumbers(c, Derivative(0)), m, n)
        assert coeffs.params == {"m": m, "n": n}
        return coeffs.values

    same(new, lambda: ref_pade_q_block(c, m, n))
    # The full system solves the same q-block by the same steps, so it agrees
    # by value on exact input and to the bit on these floats.  Its structural
    # zeros take part in its sums, though: 0 * p_k and 0 * q_j terms decide
    # the sign of a zero P coefficient, turn 0 * inf into nan, and make an
    # exact P term a float where a float zero meets it, so signed zeros,
    # overflow and mixed input are left out here.
    if kind != "mixed":
        same(new, lambda: ref_pade_full_system(c, m, n))


def test_singular_exact_block_still_raises():
    # the second row is twice the first, and 3 is not twice 1
    try:
        xp._solve_dense([[1, F(1, 2)], [2, 1]], [1, 3])
    except SingularSystemError as exc:
        assert str(exc) == "degenerate Pade block"
    else:
        raise AssertionError("a singular exact block must raise")


# -- the power table of an exact head-0 jet against the jet Horner loop -----------------


def ref_head0_horner(coeffs, x):
    """The truncated jet Horner loop of ``Poly.__call__`` at a jet with head 0."""
    ys = x.coeffs
    order = len(ys) - 1
    v = next((k for k, y in enumerate(ys) if y != 0), 0)
    top = min(len(coeffs) - 1, order // v)
    acc = Jet.constant(coeffs[top], x.center, order - top * v)
    for k in range(top - 1, -1, -1):
        # the orders of the cofactor of x^k that count
        keep = order - k * v
        acc = (Jet(x.center, acc.coeffs + (0,) * v)
               * Jet(x.center, ys[:keep + 1]) + coeffs[k])
    return acc


def ref_exp_weighted_values(c, w, q):
    """The per-term loop of ``exp_weighted_coeffs``."""
    values = []
    for n in range(len(c.values)):
        acc = 0
        for i in range(n + 1):
            entry = xp._m_entry(n, i, w, q)
            if entry is not None:
                num, den = entry
                acc += over(c.values[i] * num, den)
        values.append(acc)
    return tuple(values)


def structured_jet(name, order):
    """The exact head-0 jets the approximants compose with, at center 0."""
    var = Jet.variable(0, order)
    if name in xp._G_BASIS:
        return xp._G_BASIS[name]["jet"](var)
    if name == "identity":
        return var
    u = -var / name  # the u/(u+1) jet of the rational kind with alpha = name
    return u / (u + 1)


STRUCTURED = ["log_powers", "stirling1_g", "lambert_w_g", "pow_sine", "identity",
              -1, F(1, 3), 2]


@st.composite
def head0_jets(draw, order):
    """A random exact jet with head 0 whose first nonzero index is 1 to 3: all
    ints, all Fractions or mixed, with zeros among them."""
    v = draw(st.integers(1, min(3, order)))
    entry = draw(st.sampled_from([INTS, FRACTIONS, EXACT]))
    zero = st.sampled_from([0, F(0)])
    lead = draw(entry.filter(bool))
    rest = draw(st.lists(st.one_of(entry, zero), min_size=order - v, max_size=order - v))
    return Jet(0, (draw(zero),) + (0,) * (v - 1) + (lead,) + tuple(rest))


def jets_of_one_order():
    """One to three jets of one order up to 40, structured or random."""
    return st.integers(1, 40).flatmap(lambda order: st.lists(
        st.sampled_from(STRUCTURED).map(lambda name: structured_jet(name, order))
        | head0_jets(order), min_size=1, max_size=3))


def identity_jet(one, order=12):
    return Jet(0, (0, one) + (0,) * (order - 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(coeffs=st.lists(EXACT, min_size=2, max_size=43), jets=jets_of_one_order())
# value-equal jets of other types, one after the other, share one cached table
@example(coeffs=[0, 1, 2, 0, -3, F(0), 5] * 2,
         jets=[identity_jet(1), identity_jet(F(1)), identity_jet(1)])
# 5 - y + y^2 cancels at y^2 inside the loop
@example(coeffs=[0, 5, -1, F(1)], jets=[Jet(0, (0, 1, 1, 0)), Jet(0, (0, F(1), F(1), F(0)))])
# [t^5] y^2 = 2 (2 * 1 + (-1) * 2) = 0 and y_5 = 0: a zero inside the table
@example(coeffs=[1, F(1, 2), 1], jets=[Jet(0, (0, F(2), F(-1), F(2), F(1), F(0)))])
def test_power_table_matches_the_horner_loop(coeffs, jets):
    p = Poly(coeffs)
    if len(p.coeffs) < 2:
        return
    new = [p(x) for x in jets]
    for x, got in zip(jets, new):
        assert key(got) == key(ref_head0_horner(p.coeffs, x))
    poly.tri_table.cache_clear()
    assert key([p(x) for x in jets]) == key(new)


def composed_from_one_new_table(p, x):
    """``p(x)`` with an emptied table cache, which must miss once."""
    poly.tri_table.cache_clear()
    got = p(x)
    assert poly.tri_table.cache_info().misses == 1
    return got


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_jets_take_the_power_table(name):
    x = structured_jet(name, 20)
    coeffs = Poly([F(k, 3) for k in range(1, 22)])
    if name == "identity":  # p(t) is p itself: no table is built or read
        poly.tri_table.cache_clear()
        got = coeffs(x)
        assert poly.tri_table.cache_info().misses == 0
    else:
        got = composed_from_one_new_table(coeffs, x)
    assert key(got) == key(ref_head0_horner(coeffs.coeffs, x))
    # floats keep the Horner loop
    assert key(coeffs.as_float()(x)) == key(ref_head0_horner(coeffs.floats, x))


@pytest.mark.parametrize("x", [Jet(0, (0, 1, F(1, 2), 3)), Jet(0, (F(0), 2, 0, F(1, 3), -1)),
                               Jet(0, (0, 0, F(5), 1, F(-1, 7)))])
def test_jets_mixing_ints_and_fractions_take_the_power_table(x):
    p = Poly([F(1, 2), F(1, 3), F(1, 5)])
    got = composed_from_one_new_table(p, x)
    assert key(got) == key(ref_head0_horner(p.coeffs, x))


def test_a_verification_keeps_its_map_and_its_power_table_in_the_one_cache():
    poly.tri_table.cache_clear()
    built = build_kind("log_powers", parse("exp(x)"), 40)
    assert verify_matching(built.approximant, built.chars).max_residual == 0
    assert poly.tri_table.cache_info().misses == 2
    # the coefficient map and the power table of g = ln(1 + x) are the two
    g = xp._G_BASIS["log_powers"]["jet"](Jet.variable(0, 40))
    assert isinstance(poly.tri_table(xp._powers_of_g_rows, "log_powers", 41), poly.TriRows)
    assert isinstance(poly.tri_table(poly._power_rows, g.nums, g.den), poly.TriRows)
    built = build_kind("log_powers", parse("exp(x)"), 40)
    assert verify_matching(built.approximant, built.chars).max_residual == 0
    info = poly.tri_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(c=st.lists(EXACT, min_size=1, max_size=41),
       w=st.sampled_from([F(-1, 2), 1, F(3, 7)]), q=st.sampled_from([1, 2, 3]))
def test_exp_weighted_matches_the_loop(c, w, q):
    chars = CharNumbers(tuple(c), Derivative(0))
    assert key(xp.exp_weighted_coeffs(chars, w, q).values) == key(
        ref_exp_weighted_values(chars, w, q))


# -- the exact integral families: tables on integer numerators ----------------------


def check_rational_types(values):
    """Each exact value is typed as ``poly.rational`` types it: an int where
    it is an integer and a Fraction otherwise."""
    for x in values:
        if is_exact(x):
            assert type(x) is (int if x.denominator == 1 else F), repr(x)


def ref_power_integrals(a, b, top):
    a, b = Fraction(a), Fraction(b)
    pa, pb, table = a, b, []
    for m in range(top + 1):
        table.append((pb - pa) / (m + 1))
        pa, pb = pa * a, pb * b
    return poly.scaled(table)


def ref_compose_affine(p, alpha, beta):
    """Horner over polynomials."""
    return p(Poly([beta, alpha]))


def ref_bernoulli_numbers(top):
    out = [F(1)]
    for k in range(1, top + 1):
        acc = F(0)
        for j in range(k):
            acc += math.comb(k + 1, j) * out[j]
        out.append(-acc / (k + 1))
    return out


def ref_central_factorial_rows(top):
    """|t(n, k)| by the Fraction recurrence, rows 0..top in full."""
    rows = [(F(1),), (F(0), F(1))]
    for n in range(2, top + 1):
        p = (*rows[n - 2], 0, 0)
        s = F(n - 2, 2) ** 2
        rows.append(tuple((p[k - 2] if k > 1 else 0) + s * p[k] if (n - k) % 2 == 0 else F(0)
                          for k in range(n + 1)))
    return rows


def ref_bernoulli_approx(c, lift=True):
    """The per-order loop: each B_n composed with the interval's affine map by
    Horner, then summed.  With ``lift`` the basis takes float ends as the
    exact numbers they are, as the table of ``bernoulli_approx`` does; the
    scale and the zeroth shift read the ends as given."""
    fam = c.family
    a, b = fam.a, fam.b
    width = b - a
    inv_width = div(1, width)
    lo, w = (F(a), F(b) - F(a)) if lift else (a, width)
    total = Poly([0])
    for n in range(1, len(c.values)):
        if c.values[n] == 0:
            continue
        basis = specfun.bernoulli_poly(n)(Poly([-lo * div(1, w), div(1, w)]))
        scale = over(width ** (n - 1), math.factorial(n))
        total = total + (c.values[n] * scale) * basis
    if fam.zeroth == "value":
        shift = c.values[0] - total(fam.anchor)
    else:
        shift = (c.values[0] - total.integral(a, b)) * inv_width
    return total + Poly([shift])


SMALL_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
END = st.one_of(st.integers(-5, 5), SMALL_FRACTIONS, st.floats(-5, 5).map(lambda x: x or 0.0))
# a != 0, b - a != 1 and b < a among them
ENDS = st.sampled_from([(0, 1), (1, 3), (F(-1, 2), F(3, 2)), (0.25, 1.75), (3, -1),
                        (1.0, 0.0), (F(7, 3), F(1, 5))]) | st.tuples(END, END).filter(
    lambda e: abs(e[1] - e[0]) > 1e-3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ends=ENDS, top=st.integers(0, 81))
def test_power_integrals_match_the_loop(ends, top):
    from charmatch.matching import _power_integrals

    nums, den = _power_integrals(*ends, top)
    assert type(nums) is tuple and all(type(x) is int for x in (*nums, den))
    assert (list(nums), den) == ref_power_integrals(*ends, top)


EXACT_END = st.one_of(st.integers(-5, 5), SMALL_FRACTIONS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coeffs=st.integers(1, 41).flatmap(lambda size: numbers(size, True)),
       alpha=EXACT_END, beta=EXACT_END, extra=st.none() | st.integers(0, 4))
@example(coeffs=[F(1, 3), 0, 2, F(-5, 7)], alpha=1, beta=0, extra=None)
@example(coeffs=[1, 2, 3], alpha=0, beta=F(-2, 3), extra=None)
@example(coeffs=[1, 2, 3], alpha=F(1, 2), beta=-3, extra=2)
def test_taylor_shift_matches_horner(coeffs, alpha, beta, extra):
    nums, den = poly.scaled(coeffs)
    top = None if extra is None else len(nums) - 1 + extra
    pairs = poly.taylor_shift(nums, den, alpha, beta, top)
    got = [poly.rational(num, d) for num, d in pairs]
    same(lambda: Poly(got), lambda: ref_compose_affine(Poly(coeffs), alpha, beta))
    check_rational_types(got)
    # the denominators depend on den, alpha, beta, top and the power alone
    ones = poly.taylor_shift([1] * len(nums), den, alpha, beta, top)
    assert [d for _, d in pairs] == [d for _, d in ones] and all(d > 0 for _, d in pairs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ks=st.lists(st.integers(0, 60), min_size=1, max_size=8))
def test_bernoulli_numbers_match_the_loop(ks):
    # the shared table grows in the order the numbers are asked for
    specfun._bernoulli_table.cache_clear()
    ref = ref_bernoulli_numbers(max(ks))
    got = [specfun.bernoulli_number(k) for k in ks]
    assert key(got) == key([ref[k] for k in ks])
    check_rational_types(got)
    for n in ks:
        poly_n = specfun.bernoulli_poly(n).coeffs
        assert key(list(poly_n)) == key([math.comb(n, k) * ref[n - k] for k in range(n + 1)])
        check_rational_types(poly_n)


def test_bernoulli_numbers_handed_out_keep_their_values():
    # a later call raises the shared denominator: an earlier result is a
    # snapshot, not the table it rescales
    specfun._bernoulli_table.cache_clear()
    ref = ref_bernoulli_numbers(40)
    nums, den = specfun.bernoulli_ints(2)
    specfun.bernoulli_ints(40)
    assert [F(x, den) for x in nums] == ref[:3]
    nums, den = specfun.bernoulli_ints(40)
    assert len(nums) == 41 and [F(x, den) for x in nums] == ref


def test_an_interrupted_bernoulli_table_keeps_its_numbers(monkeypatch):
    # the table grows on a copy, so an error after the numerators were
    # rescaled leaves the table as it was
    specfun._bernoulli_table.cache_clear()
    specfun.bernoulli_ints(2)
    calls = []

    def failing_admit(nums, den, num, d):
        calls.append(d)
        new_den = poly.admit(nums, den, num, d)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return new_den

    monkeypatch.setattr(specfun, "admit", failing_admit)
    with pytest.raises(KeyboardInterrupt):
        specfun.bernoulli_ints(40)
    monkeypatch.undo()
    ref = ref_bernoulli_numbers(40)
    nums, den = specfun.bernoulli_ints(2)
    assert [F(x, den) for x in nums] == ref[:3]
    assert [specfun.bernoulli_number(k) for k in range(41)] == ref


@settings(max_examples=40, deadline=None, derandomize=True)
@given(entries=st.lists(st.integers(1, 80).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))), min_size=1, max_size=8))
def test_central_factorials_match_the_loop(entries):
    # the rows are cut at a width that doubles with the deepest column asked for
    specfun._table.cache_clear()
    ref = ref_central_factorial_rows(max(n for n, _ in entries))
    for n, k in entries:
        got = specfun.central_factorial_abs(n, k)
        assert type(got) is F and got == ref[n][k]
        scaled = specfun.central_factorial_scaled(n, k)
        assert type(scaled) is int and scaled == ref[n][k] * 2 ** (n - k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=sequences(), ends=ENDS, zeroth=st.sampled_from(["value", "integral"]),
       anchor=st.none() | END)
@example(values=[0, 0, 0, -3.2e5, -0.0, -0.0, F(1, 2), 5.6e5, F(44, 13), -1.37, F(39, 16),
                 F(-29, 17), 0.0, 0.0, 0, F(43, 11)], ends=(0, 1), zeroth="value", anchor=None)
@example(values=[1.0, math.inf, 0.0, 2.5], ends=(1, 3), zeroth="integral", anchor=None)
def test_bernoulli_approx_matches_the_per_order_loop(values, ends, zeroth, anchor):
    # a zero c_n forms no term: a float zero among exact numbers leaves them exact.
    # A float term that underflows to zero left the loop's sum in one more
    # way, as the trailing zeros of its polynomial were dropped: such tiny
    # numbers are left out
    assume(all(not isinstance(v, float) or v == 0 or abs(v) > 1e-100 for v in values))
    c = CharNumbers(tuple(values), EndpointDiff(*ends, zeroth=zeroth, anchor=anchor))
    got = im.bernoulli_approx(c).poly
    same(lambda: got, lambda: ref_bernoulli_approx(c))
    if poly.all_exact((*values, *ends)):
        # coefficient 0 takes the shift by Fraction arithmetic
        check_rational_types(got.coeffs[1:])


def test_float_ends_move_the_bernoulli_basis_by_rounding_alone():
    # the basis was composed by Horner on the float ends; it now takes their
    # exact values, which moves float coefficients by a few ulps at most
    c = im.bernoulli_chars(parse("exp(x)"), (0.25, 1.75), 20)
    got = im.bernoulli_approx(c).poly.coeffs
    old = ref_bernoulli_approx(c, lift=False).coeffs
    assert len(got) == len(old) and key(got) != key(old)
    scale = max(map(abs, old))
    assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(got, old))


def test_the_integral_tables_are_bounded_and_emptied_before_every_bench_pass(monkeypatch):
    from charmatch import matching, quadrature

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    caches = (matching._power_integrals, quadrature._points, specfun._bernoulli_table)
    im.moments_compute(Poly([1, 2, 3]), (-1, 1), 4)
    im.moments_compute(parse("exp(x)"), (-1, 1), 4)
    im.bernoulli_approx(im.bernoulli_chars(Poly([1, 2, 3]), (0, 1), 4))
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize > 0 and info.maxsize is not None
    workloads.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


# -- the Taylor coordinate f_k = c_k / k! on integers: Pade, t, Dirichlet -----------------
#
# Each against the code it replaced (``taylor_coordinate_reference``): exact
# values and the types they had, floats to the bit.


def pade_entries(c, m, n):
    """``pade_solve`` against the former solve; on exact c_0..c_{m+n} every
    p_i and q_j is a Fraction, as before."""
    same(lambda: xp.pade_solve(c, m, n), lambda: former.pade_solve(c, m, n))
    if poly.all_exact(c.values[:m + n + 1]):
        try:
            values = xp.pade_solve(c, m, n).values
        except SingularSystemError:
            return
        assert all(type(v) is F for v in values)


PADE_TARGETS = ["exp(x)", "cos(x)", "exp(sin(x))", "ln(x^2 + 1)", "sqrt(4 - x^2)",
                "sin(x)/(1 + x)", "1", "1 + x", "1/(1 + x^2)"]


@pytest.mark.parametrize("x0", [0, F(1, 3), F(1, 2)])
@pytest.mark.parametrize("target", PADE_TARGETS)
def test_pade_on_integers_matches_the_former_solve(target, x0):
    c = derivative_chars(parse(target), x0, 40)
    for order in (0, 1, 2, 3, 5, 8, 11, 20, 40):
        head = CharNumbers(c.values[:order + 1], c.family)
        for m, n in {((order + 1) // 2, order // 2), (order, 0), (0, order),
                     (max(order - 1, 0), min(order, 1))}:
            pade_entries(head, m, n)


@pytest.mark.parametrize("x0", [0, F(1, 3)])
@pytest.mark.parametrize("target", ["1", "1 + x", "1/(1 + x^2)"])
def test_consistent_singular_pade_blocks_still_build(target, x0):
    for order in (11, 20, 40):
        built = build_kind("pade", parse(target), order, x0=x0)
        assert all(type(v) is F for v in built.coeffs.values)
        assert key(built.coeffs) == key(former.pade_solve(built.chars, (order + 1) // 2,
                                                          order // 2))
        if x0 == 0:
            assert verify_matching(built.approximant, built.chars).max_residual == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_pade_on_random_exact_numbers_matches_the_former_solve(data):
    size = data.draw(st.integers(1, 41))
    # zeros among the numbers make singular blocks likely
    c = data.draw(st.lists(st.one_of(EXACT, st.just(0)), min_size=size, max_size=size))
    x0 = data.draw(CENTERS.filter(is_exact))
    m = data.draw(st.integers(0, size - 1))
    pade_entries(CharNumbers(tuple(c), Derivative(x0)), m, size - 1 - m)


def identity_jets(order):
    """The identity jet t of one order, at one of ``CENTERS``, its 1 and zeros
    held as ints or Fractions: every one is the integer form (0, 1, 0, ...) / 1."""
    one, zero = st.sampled_from([1, F(1)]), st.sampled_from([0, F(0)])
    return st.tuples(CENTERS, one, st.lists(zero, min_size=order, max_size=order)).map(
        lambda t: Jet(t[0], (t[2][0], t[1], *t[2][1:])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(coeffs=st.lists(EXACT, min_size=1, max_size=43),
       x=st.integers(1, 40).flatmap(identity_jets))
@example(coeffs=[F(1, 2), 0, 3], x=Jet(0, (0, 1)))  # the degree cut at the jet order
@example(coeffs=[0, 0, F(0)], x=Jet(F(1, 3), (0, 1, 0, 0)))
def test_identity_composition_takes_no_table(coeffs, x):
    p = Poly(coeffs)
    assert (x.nums[:2], x.den) == ((0, 1), 1) and not any(x.nums[2:])
    poly.tri_table.cache_clear()
    got = p(x)
    assert poly.tri_table.cache_info().misses == 0
    assert key(got) == key(former.compose_with_power_table(p, x))
    if len(p.coeffs) > 1:  # a constant is the constant jet, typed as given
        assert key(got) == key(ref_head0_horner(p.coeffs, x))
        check_rational_types(got.coeffs)


@pytest.mark.parametrize("x", [Jet(0, (0, 2, 0, 0)), Jet(0, (0, F(1, 2), 0)),
                               Jet(0, (0, 1, 0, 1)), Jet(0, (0, 1, F(1, 3)))])
def test_jets_near_the_identity_take_the_power_table(x):
    p = Poly([F(1, 2), 3, F(-2, 7), 5])
    got = composed_from_one_new_table(p, x)
    assert key(got) == key(former.compose_with_power_table(p, x))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=st.lists(EXACT, min_size=1, max_size=41) | INT_SEQUENCES, variant=VARIANTS)
@example(c=[0], variant="dirichlet_rat1")
@example(c=[F(1, 3), 0, 0, 0, 0, 0, 120], variant="dirichlet_g")
def test_exact_dirichlet_rows_fold_in_the_factorials(c, variant):
    chars = CharNumbers(tuple(c), Derivative(0))
    got = xp.dirichlet_expansion_coeffs(chars, variant)
    assert key(got) == key(former.dirichlet_expansion_coeffs(chars, variant))
    check_rational_types(got.values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=NON_EXACT, variant=VARIANTS)
@example(c=[1.0, math.inf, 0.0, -0.0, 2.5], variant="dirichlet_rat1")
@example(c=[0, 5, F(1, 3), 0.5], variant="dirichlet_rat2")
def test_float_dirichlet_coefficients_keep_their_bits(c, variant):
    chars = CharNumbers(tuple(c), Derivative(0))
    same(lambda: xp.dirichlet_expansion_coeffs(chars, variant),
         lambda: former.dirichlet_expansion_coeffs(chars, variant))
