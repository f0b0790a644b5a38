"""Derivative-matching expansion families.

Classical: Taylor, Neumann series of Bessel functions, Pade, powers of
sines.  New: the exp-weighted expansion exp(w x^q) sum a_n x^n, expansions
in powers of an invertible g (logarithm powers, 1 - e^-x, Lambert W, the
rational x/(x+1) family), the Dirichlet-convolution expansions in g(x^n),
the dex derivative-ring approximation and the nonlinear delta example.

Each family comes as a coefficient builder (CharNumbers -> CoeffSeq) plus an
evaluable approximant that also supports jet evaluation at its expansion
point, which is how the matching property is verified.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

from . import specfun
from .errors import DomainError, EvalDomainError, SingularSystemError
from .jets import Jet, bessel_jn_jet, compose
from .matching import (
    Approximant,
    CharNumbers,
    CoeffSeq,
    Derivative,
    Nonlinear,
    NONLINEAR_TRANSFORMS,
    PolynomialApproximant,
    TriMatrix,
    lift_exact,
)
from .poly import (
    Poly, TriRows, admit, all_exact, div, is_exact, mul, over, scaled, tri_map, tri_table,
)

__all__ = [
    "taylor_coeffs", "taylor_approx",
    "nsbf_coeffs", "nsbf_approx", "NsbfApproximant",
    "pade_solve", "pade_approx", "PadeApproximant",
    "pow_sine_coeffs",
    "exp_weighted_coeffs", "exp_weighted_approx", "ExpWeightedApproximant",
    "dmatrix_build",
    "powers_of_g_coeffs", "powers_of_g_approx", "SeriesInGApproximant",
    "rational_x1_coeffs", "rational_x1_approx",
    "dirichlet_expansion_coeffs", "dirichlet_approx", "DirichletApproximant",
    "moebius_G_eval", "GEval",
    "dex_eval", "dex_approx", "DexApproximant", "prime_indicator_P", "prime_indicator_eval",
    "nonlinear_chars", "nonlinear_approx", "NonlinearApproximant",
]

# where the float series stop: the Moebius-G tail bound and the last dex
# ladder term must fall below it
_TOL = 1e-15


def _require_derivative(c: CharNumbers) -> Derivative:
    if not isinstance(c.family, Derivative):
        raise DomainError(
            f"expected derivative-family characteristic numbers, got {c.family!r}"
        )
    return c.family


class _TermSum(Approximant):
    """An approximant summed per point over its nonzero terms."""

    @cached_property
    def nonzero(self) -> tuple:
        """(n, a_n) for every nonzero a_n as a float, made on first use."""
        return tuple((n, a) for n, a in enumerate(self.coeffs.floats, self.first_index) if a)


# -- Taylor -----------------------------------------------------------------


def taylor_coeffs(c: CharNumbers) -> CoeffSeq:
    """Delta coefficients a_n = c_n for the basis (x - x0)^n / n!."""
    _require_derivative(c)
    return CoeffSeq(c.values, "taylor")


def taylor_approx(c: CharNumbers) -> PolynomialApproximant:
    coeffs = taylor_coeffs(c)
    poly = Poly(over(a, math.factorial(n)) for n, a in enumerate(coeffs.values))
    return PolynomialApproximant(poly, center=c.family.center, coeffs=coeffs)


# -- Neumann series of Bessel functions ---------------------------------------


def nsbf_coeffs(c: CharNumbers) -> CoeffSeq:
    """Coefficients of sum a_n J_n matching the derivatives in ``c``.

    a_0 = c_0 and, for n > 0,
    a_n = sum_{2i <= n} 2^(n-2i) [C(n-i-1, n-2i-1) + 2 C(n-i-1, n-2i)] c_{n-2i};
    the i = n/2 term (2 c_0, present for even n) is required for the matching
    property to hold, as jet verification confirms.  With k = n - 2i and
    j = n - i, Pascal's rule writes the bracket as C(j, k) + C(j - 1, k).
    """
    _require_derivative(c)
    values = tri_table(_nsbf_rows, len(c.values)).apply(c.values)
    return CoeffSeq((c.values[0], *values), "nsbf")


def _nsbf_rows(size: int) -> TriRows:
    return TriRows([[(k, 2 ** k * (math.comb((n + k) // 2, k) + math.comb((n + k) // 2 - 1, k)))
                     for k in range(n, -1, -2)] for n in range(1, size)])


def _nsbf_jet_rows(order: int, size: int) -> TriRows:
    """Row j lists (n, j-th coefficient of J_n at 0) for every n < size where
    that coefficient is nonzero: the jet at the center of exact and float
    coefficients alike.  A zero entry forms no term, so an inf or nan a_n
    reaches only the orders where J_n has a nonzero coefficient."""
    jets = [bessel_jn_jet(n, 0, order).coeffs for n in range(size)]
    return TriRows([[(n, cs[j]) for n, cs in enumerate(jets) if cs[j]]
                    for j in range(order + 1)])


class NsbfApproximant(_TermSum):
    """sum a_n J_n(x - center)."""

    def __call__(self, x):
        # one Bessel sweep per point: every order here lies in one block
        t = float(x - self.center)
        acc = 0
        for n, an in self.nonzero:
            acc += an * specfun.bessel_j(n, t)
        return acc

    def eval_jet(self, x0, order: int) -> Jet:
        t0 = x0 - self.center
        values = self.coeffs.values
        if t0 == 0:
            table = tri_table(_nsbf_jet_rows, order, len(values))
            if is_exact(t0) and all_exact(values):
                return Jet.from_ints(x0, *table.exact(values))
            # at a float t0 the jets of J_n are float jets: each a_n meets a float
            return Jet(x0, table.apply(values if is_exact(t0) else [float(a) for a in values]))
        # row j lists (n, j-th coefficient of J_n at t0) for every nonzero a_n
        jets = [(n, bessel_jn_jet(n, t0, order).coeffs)
                for n, a in enumerate(values) if a != 0]
        rows = [[(n, coeffs[j]) for n, coeffs in jets] for j in range(order + 1)]
        return Jet(x0, tri_map(rows, values))


def nsbf_approx(c: CharNumbers) -> NsbfApproximant:
    return NsbfApproximant(nsbf_coeffs(c), c.family.center)


# -- Pade ----------------------------------------------------------------------


def _solve_dense(matrix: list[list], rhs: list) -> list:
    """A solution of the square system: Gaussian elimination with partial
    pivoting for floats; an all-exact system goes through ``_solve_bareiss``
    and gives the same Fractions.  An unknown whose column has no pivot is 0;
    a row left as 0 = b with b != 0 raises."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if all(map(all_exact, a)):
        nums, den = _solve_bareiss([scaled(row)[0] for row in a])
        return [Fraction(x, den) for x in nums]
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


def _solve_bareiss(a: list[list[int]]) -> tuple[list, int]:
    """A solution of the integer augmented system ``a`` by fraction-free
    elimination (E. H. Bareiss, Math. Comp. 1968), where every division is
    exact, also past a column with no pivot, whose unknown is 0, as integer
    numerators over one positive denominator.  Back substitution keeps the
    unknowns found so far over that denominator, so each costs one integer
    dot product and one gcd.
    """
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
    return nums[::-1], den


def pade_solve(c: CharNumbers, m: int, n: int) -> CoeffSeq:
    """Pade block [m/n]: P_m / Q_n with Q_n(0) = 1 matching c_0..c_{m+n}.

    Of the series identity P = f Q mod x^(m+n+1), f_k = c_k / k!, only the
    orders m+1..m+n, where P has no term, form a linear system: the n x n
    block in q_1..q_n.  P is then f Q cut after x^m.  The values are
    p_0..p_m, q_1..q_n, each a Fraction where every c_k is exact
    (``_pade_ints``).
    """
    _require_derivative(c)
    if m < 0 or n < 0:
        raise DomainError("Pade degrees must be nonnegative")
    total = m + n + 1
    if len(c.values) < total:
        raise DomainError(f"need {total} characteristic numbers, got {len(c.values)}")
    if all_exact(c.values[:total]):
        return CoeffSeq(_pade_ints(c.values[:total], m, n), "pade", params={"m": m, "n": n})
    f = [over(c.values[k], math.factorial(k)) for k in range(total)]
    block = [[-f[k - j] if j <= k else 0 for j in range(1, n + 1)]
             for k in range(m + 1, total)]
    q = [1] + _solve_dense(block, f[m + 1:])
    p = mul(q, f, m + 1, skip_zero_b=False)
    return CoeffSeq(p + q[1:], "pade", params={"m": m, "n": n})


def _pade_ints(c: tuple, m: int, n: int) -> list:
    """``pade_solve`` of the exact c_0..c_{m+n} on integers.  With c_k = C_k / D
    over one denominator, each f_k = C_k / (D k!) is reduced once; q-block
    row k is then -f_(k-1)..-f_(k-n), f_k over the lcm of the window's
    reduced denominators, the row ``scaled`` gives, and Bareiss gives
    Q = (E, e_1..e_n) / E.  P is one integer product of Q with the
    numerators C_k m!/k! of f over m! D, so each p_i is one Fraction over
    m! D E.
    """
    nums, d = scaled(c)
    fn, fd = [], []  # f_k = fn[k] / fd[k], reduced
    for k, x in enumerate(nums):
        den = d * math.factorial(k)
        g = math.gcd(x, den)
        fn.append(x // g)
        fd.append(den // g)
    rows = []
    for k in range(m + 1, m + n + 1):
        den = math.lcm(*fd[max(k - n, 0):k + 1])
        row = [-fn[k - j] * (den // fd[k - j]) if j <= k else 0 for j in range(1, n + 1)]
        row.append(fn[k] * (den // fd[k]))
        rows.append(row)
    q, e = _solve_bareiss(rows)
    top = math.factorial(m)
    p = mul([e, *q], [x * (top // math.factorial(k)) for k, x in enumerate(nums[:m + 1])], m + 1)
    den = top * d * e
    return [Fraction(x, den) for x in p] + [Fraction(x, e) for x in q]


class PadeApproximant(Approximant):
    """Rational P_m(t) / Q_n(t), t = x - center."""

    def __init__(self, coeffs: CoeffSeq, center=0):
        super().__init__(coeffs, center)
        split = coeffs.params["m"] + 1
        self.p = Poly(coeffs.values[:split])
        self.q = Poly((1,) + coeffs.values[split:])

    def __call__(self, x):
        t = x - self.center
        den = self.q(t)
        if den == 0:
            raise EvalDomainError(f"Pade denominator vanishes at x={x}")
        return self.p(t) / den

    def eval_jet(self, x0, order: int) -> Jet:
        var = Jet.variable(x0, order) - self.center
        return self.p(var) / self.q(var)


def pade_approx(c: CharNumbers, m: int, n: int) -> PadeApproximant:
    return PadeApproximant(pade_solve(c, m, n), c.family.center)


# -- powers of sines --------------------------------------------------------------


def pow_sine_coeffs(c: CharNumbers) -> CoeffSeq:
    """a_0 = c_0; a_n = (2^n / n!) sum_k c_k |t(n, k)| for the basis sin(x/2)^n:
    ``powers_of_g_coeffs`` of g = sin(x/2)."""
    return powers_of_g_coeffs(c, "pow_sine")


# -- exp-weighted expansion ---------------------------------------------------------


def _uv(n: int, q: int) -> tuple[int, int]:
    return n // q, n % q


def _check_q(q) -> int:
    """The exponent q of exp(w x^q) as an int; 2.0 passes, 1.5 and 0 do not."""
    if not (q >= 1 and q % 1 == 0):
        raise DomainError("q must be a positive integer")
    return int(q)


def _m_entry(n: int, i: int, w, q: int):
    """m_{n,i} = num / den as the pair (num, den), or None where it vanishes:
    m_{n,i} = delta_{v_{n-i},0} (-1)^(u_{n-i}) w^[[u_{n-i}]] / ((v_n + q u_i)! u_{n-i}!).
    """
    u, v = _uv(n - i, q)
    if v != 0:
        return None
    _, vn = _uv(n, q)
    ui, _ = _uv(i, q)
    den = math.factorial(vn + q * ui) * math.factorial(u)
    return (-1) ** u * specfun.gen_pow(w, u), den


def exp_weighted_coeffs(c: CharNumbers, w, q: int) -> CoeffSeq:
    """Coefficients of exp(w x^q) sum a_n x^n: a_n = sum_i m_{n,i} c_i, by the
    rows of the exact w.  A float w reads the rows of the Fraction it equals,
    and its m_{n,i} are floats, so a float w or c_i gives float a_n."""
    _require_derivative(c)
    q = _check_q(q)
    v = c.values if is_exact(w) else [float(ci) for ci in c.values]
    values = _exp_weighted_table(w, q, len(v)).apply(v)
    return CoeffSeq(tuple(values), "exp_weighted", params={"w": w, "q": q})


def _exp_weighted_table(w, q: int, size: int) -> TriRows:
    """The cached rows m_{n,i} of the Fraction that a finite w equals."""
    if (exact := lift_exact([w])) is None:
        raise DomainError(f"w must be finite, got {w}")
    return tri_table(_exp_weighted_rows, exact[0], q, size)


def _exp_weighted_rows(w, q: int, size: int) -> TriRows:
    """The m_{n,i} of an exact w = p / r as integer rows, with no Fraction
    built: m_{n,i} is the ``_m_entry`` (num, den) of p over a further r^u."""
    ints = []
    for n in range(size):
        cols, entries = [], []
        for i in range(n + 1):
            if (entry := _m_entry(n, i, w.numerator, q)) is not None:
                cols.append(i)
                entries.append((entry[0], entry[1] * w.denominator ** ((n - i) // q)))
        den = math.lcm(*(d for _, d in entries))
        ints.append((tuple(cols), [num * (den // d) for num, d in entries], den))
    return TriRows(ints=ints)


def dmatrix_build(w, q: int, order: int) -> tuple[TriMatrix, TriMatrix]:
    """The matrix D mapping coefficients to derivatives, and its inverse.

    D[m][j] = delta_{v_{m-j},0} m! (u_{m-j} q)! / ((m-j)! u_{m-j}!) w^(u_{m-j});
    the inverse is the table m_{n,i} of ``exp_weighted_coeffs``, in floats
    for a float w.  D @ D^-1 = I exactly over rationals -- the content of the
    inversion proof.
    """
    q = _check_q(q)

    def d_entry(m, j):
        u, v = _uv(m - j, q)
        if v != 0:
            return 0
        num = math.factorial(m) * math.factorial(u * q)
        den = math.factorial(m - j) * math.factorial(u)
        return Fraction(num, den) * specfun.gen_pow(w, u)

    d = TriMatrix([[d_entry(m, j) for j in range(m + 1)] for m in range(order + 1)])
    rows = [{i: t if is_exact(w) else float(t) for i, t in row}
            for row in _exp_weighted_table(w, q, order + 1).pairs]
    return d, TriMatrix([[row.get(i, 0) for i in range(n + 1)] for n, row in enumerate(rows)])


class ExpWeightedApproximant(Approximant):
    """exp(w t^q) * sum a_n t^n with t = x - center."""

    def __init__(self, coeffs: CoeffSeq, center=0):
        super().__init__(coeffs, center)
        self.w = coeffs.params["w"]
        self.q = coeffs.params["q"]
        self.poly = Poly(coeffs.values)

    def __call__(self, x):
        t = x - self.center
        return math.exp(float(self.w) * float(t) ** self.q) * float(self.poly(t))

    def eval_jet(self, x0, order: int) -> Jet:
        var = Jet.variable(x0, order) - self.center
        weight = (self.w * var ** self.q).exp()
        return weight * self.poly(var)


def exp_weighted_approx(c: CharNumbers, w, q: int) -> ExpWeightedApproximant:
    return ExpWeightedApproximant(exp_weighted_coeffs(c, w, q), c.family.center)


# -- powers of an invertible g -------------------------------------------------------

def powers_of_g_coeffs(c: CharNumbers, variant: str) -> CoeffSeq:
    """a_0 = c_0 and a_n = (1/n!) sum_k b_{n,k} c_k for the expansion sum a_n g(x)^n.

    b_{n,k} = (n!/k!) [y^n] (g^-1(y))^k (Comtet, Advanced Combinatorics,
    1974, ch. 3), so g alone fixes the table: Stirling-2 for g = ln(1+x),
    unsigned Stirling-1 for g = 1 - exp(-x), C(n,k) k^(n-k) for g = W(x),
    2^n |t(n,k)| for g = sin(x/2) (``pow_sine_coeffs``) and the Lah numbers
    C(n-1,k-1) n!/k! for g = x/(x+1) (``rational_x1_coeffs``, which reads
    alpha).  Every g has g(0) = 0, so b_{n,0} = 0 for n >= 1.
    """
    _require_derivative(c)
    if variant not in _G_BASIS:
        raise DomainError(f"unknown powers-of-g variant {variant!r}")
    if variant == "rational_x_over_x1":
        raise DomainError("rational_x_over_x1 reads alpha: use rational_x1_coeffs")
    return _in_powers_of_g(c, c.values, variant)


def _in_powers_of_g(c: CharNumbers, values, kind: str, **params) -> CoeffSeq:
    """a_0 = c_0 and a_n for n >= 1 by the rows of ``_powers_of_g_rows`` on ``values``."""
    rows = tri_table(_powers_of_g_rows, kind, len(values))
    return CoeffSeq((c.values[0], *rows.apply(values)), kind, params=params)


def _powers_of_g_rows(variant: str, size: int) -> TriRows:
    b = _G_BASIS[variant]["table"]
    orders = range(1, size)
    return TriRows([[(k, bnk) for k in range(1, n + 1) if (bnk := b(n, k))] for n in orders],
                   map(math.factorial, orders))


def _g_jet_log_powers(var: Jet) -> Jet:
    return (1 + var).ln()


def _g_jet_stirling1(var: Jet) -> Jet:
    return 1 - (-var).exp()


def _g_jet_lambert(var: Jet) -> Jet:
    if var.coeffs[0] != 0:
        raise DomainError("Lambert-W basis jets are only supported at the expansion point")
    # W(t) = sum (-n)^(n-1) t^n / n! around 0, exactly
    coeffs = [0] + [
        Fraction((-n) ** (n - 1), math.factorial(n)) for n in range(1, var.order + 1)
    ]
    # at a float center the head 0.0 is a float but the tail of var is exact;
    # float series keep the composition out of Fraction arithmetic
    if not var.is_exact():
        coeffs = [float(c) for c in coeffs]
    return compose(Jet(var.coeffs[0], coeffs), var)


def _g_jet_sin_half(var: Jet) -> Jet:
    return (var / 2).sin()


def _x_over_x1(alpha, t):
    """u / (u + 1) with u = -t / alpha, at a float or a jet t.  Its pole u = -1
    sits at t = alpha, where a float t divides by zero."""
    u = -t / alpha
    return u / (u + 1)


# per kind: g at a float t and at a jet, the t where g is defined (absent
# where every t is, or where g divides by zero outside it: the pole u = -1
# of x/(x+1)) and the table b_{n,k} of ``powers_of_g_coeffs``.  A kind's
# own parameters (alpha alone) come before t.
_G_BASIS = {
    "log_powers": {
        "eval": lambda t: math.log1p(t),
        "jet": _g_jet_log_powers,
        "domain": lambda t: t > -1,
        "table": specfun.stirling2,
    },
    "stirling1_g": {
        "eval": lambda t: -math.expm1(-t),
        "jet": _g_jet_stirling1,
        "table": specfun.stirling1_unsigned,
    },
    "lambert_w_g": {
        "eval": specfun.lambert_w0,
        "jet": _g_jet_lambert,
        "domain": lambda t: t >= -math.exp(-1.0),
        "table": specfun.bell_binomial_power,
    },
    "pow_sine": {
        "eval": lambda t: math.sin(t / 2.0),
        "jet": _g_jet_sin_half,
        # 2^n |t(n,k)| = 2^k u(n,k): 2^n is folded into the integer entries
        "table": lambda n, k: specfun.central_factorial_scaled(n, k) << k,
    },
    "rational_x_over_x1": {
        "eval": _x_over_x1,
        "jet": _x_over_x1,
        "table": lambda n, k: math.comb(n - 1, k - 1) * (math.factorial(n) // math.factorial(k)),
    },
}


class SeriesInGApproximant(Approximant):
    """sum a_n [g(t)]^n evaluated Horner-style in y = g(t), t = x - center,
    with g the ``_G_BASIS`` row of the kind: read once, here, with the
    kind's own parameters bound."""

    def __init__(self, coeffs: CoeffSeq, center=0):
        super().__init__(coeffs, center)
        basis = _G_BASIS.get(self.kind)
        if basis is None:
            raise DomainError(f"unknown basis function {self.kind!r}")
        self.series = Poly(coeffs.values)
        args = tuple(coeffs.params.values())
        self._g, self._g_jet = (partial(basis[key], *args) if args else basis[key]
                                for key in ("eval", "jet"))
        self._in_domain = basis.get("domain")

    def __call__(self, x):
        t = float(x - self.center)
        if self._in_domain is None or self._in_domain(t):
            try:
                y = self._g(t)
            except ZeroDivisionError:  # at the pole of rational_x_over_x1
                pass
            else:
                return self.series(y)
        raise EvalDomainError(f"{self.kind} basis undefined at x={x}")

    def eval_jet(self, x0, order: int) -> Jet:
        var = Jet.variable(x0, order) - self.center
        return self.series(self._g_jet(var))


def powers_of_g_approx(c: CharNumbers, variant: str) -> SeriesInGApproximant:
    return SeriesInGApproximant(powers_of_g_coeffs(c, variant), c.family.center)


# -- rational x/(x+1) expansion (newPade) ----------------------------------------------


def rational_x1_coeffs(c: CharNumbers, alpha) -> CoeffSeq:
    """Coefficients of a_0 + sum a_n (u/(u+1))^n with u = -t/alpha.

    The unscaled expansion (alpha = -1, u = t) is ``powers_of_g_coeffs`` of
    g = x/(x+1), with a pole at t = -1; rescaling the characteristic
    numbers by (-alpha)^k moves the pole of every partial approximant to
    t = alpha.
    """
    _require_derivative(c)
    if alpha == 0:
        raise DomainError("pole location alpha must be nonzero")
    scaled = [(-alpha) ** k * ck for k, ck in enumerate(c.values)]
    return _in_powers_of_g(c, scaled, "rational_x_over_x1", alpha=alpha)


def rational_x1_approx(c: CharNumbers, alpha) -> SeriesInGApproximant:
    return SeriesInGApproximant(rational_x1_coeffs(c, alpha), c.family.center)


# -- Dirichlet-convolution expansions -----------------------------------------------


class GEval(NamedTuple):
    value: float
    tail_bound: float


# a term below 2^-55 |acc| is under a quarter ulp of acc and rounds away
_G_NEGLIGIBLE = 2.0 ** -55
_G_BLOCK = 16  # terms summed between two stopping tests of the G series


@lru_cache(maxsize=16)
def _G_series(a: tuple, n_terms: int) -> tuple:
    """The coefficients (a * mu)_1..(a * mu)_n_terms of sum a_n G(x^n) as one
    power series (Dirichlet convolution), as the floats that ``c * x^k``
    converts them to, in blocks of ``_G_BLOCK`` (the last one may be shorter)."""
    u = (a + (0,) * n_terms)[:n_terms]
    c = [float(v) for v in specfun.dirichlet_convolve(u, specfun.moebius_table(n_terms))]
    return tuple(tuple(c[i:i + _G_BLOCK]) for i in range(0, n_terms, _G_BLOCK))


@lru_cache(maxsize=16, typed=True)
def _G_weight(*a):
    """W = sum |a_n| left to right (the builtin sum is compensated from Python 3.12 on),
    once per coefficient tuple; ``typed`` keeps apart equal tuples of other types,
    whose sums may round apart (Fractions sum exactly, the floats they equal do not)."""
    weight = 0
    for v in a:
        weight += abs(v)
    return weight


def _G_tail_bound(x: float, n_terms: int, weight) -> float:
    return weight * abs(x) ** (n_terms + 1) / (1 - abs(x))


def moebius_G_eval(x: float, n_terms: int = 64, a: tuple = (1,)) -> GEval:
    """Partial sum of sum_n a_n G(x^n) = sum_k (a * mu)_k x^k, with G(x) =
    sum mu_n x^n the Moebius generating function, and its tail bound
    W |x|^(n_terms+1) / (1 - |x|), W = sum |a_n|.

    After each block of terms the loop stops if W |x^k| < 2^-55 |acc|.  From
    the first k where that holds, every term is below a quarter ulp of acc
    (|x| < 1, every |(a * mu)_j| <= W) and rounds away, so acc and the test
    stay put; no block test holds before that k (it then held one term
    later), so the value is the full partial sum's to the bit.  Zero terms
    add nothing: acc + 0.0 is acc, and acc is never -0.0.
    """
    x = float(x)
    if not abs(x) < 1:
        raise DomainError("the Moebius generating function needs |x| < 1")
    a = tuple(a)
    weight = _G_weight(*a)
    # W |x^k| < 2^-55 |acc| as one product per term; the rounding of 2^-55 / W
    # is far inside the factor 2 between 2^-55 |acc| and half an ulp of acc
    negligible = _G_NEGLIGIBLE / weight if weight else 0.0
    acc = 0.0
    xn = 1.0
    for block in _G_series(a, n_terms):
        for c in block:
            xn *= x
            acc += c * xn
        if abs(xn) < negligible * abs(acc):
            break
    return GEval(acc, _G_tail_bound(x, n_terms, weight))


def _G_adaptive(x: float, a: tuple) -> float:
    """sum a_n G(x^n) summed to the first n in 64, 128, ..., 8192 whose
    weighted tail bound meets ``_TOL``."""
    x = float(x)
    weight = _G_weight(*a)
    n = 64
    while abs(x) < 1 and _G_tail_bound(x, n, weight) > _TOL:
        if n >= 8192:
            raise EvalDomainError(
                f"Moebius G series at x={x} misses its tail bound after {n} terms "
                f"(bound {_G_tail_bound(x, n, weight):.3g} > {_TOL:.0e})"
            )
        n *= 2
    return moebius_G_eval(x, n, a).value


def _rat1_sum(acc: float, t: float, a: tuple, nonzero: tuple) -> float:
    """acc + sum a_n / (1 - t^n) over the nonzero a_n."""
    for n, an in nonzero:
        acc += an * (1.0 / (1.0 - t ** n))
    return acc


def _rat2_sum(acc: float, t: float, a: tuple, nonzero: tuple) -> float:
    """acc + sum a_n t^n / (t^2n + 1) over the nonzero a_n."""
    for n, an in nonzero:
        y = t ** n
        acc += an * (y / (y * y + 1.0))
    return acc


# what each variant decides: g's series coefficients gamma_j (the coefficient map is their
# Dirichlet inverse, the jet at the center reads them), b_0 + sum a_n g(t^n) in floats (from
# all a_n and the nonzero (n, a_n)) and the t where that sum is refused
_DIRICHLET = {
    "dirichlet_g": {
        "series": lambda j: specfun.moebius(j) if j else 0,
        "sum": lambda acc, t, a, nonzero: acc + _G_adaptive(t, a),
        "outside": lambda t: abs(t) >= 1,
        "outside_error": "the Moebius-G expansion is defined for |x| < 1",
    },
    "dirichlet_rat1": {
        "series": lambda j: Fraction(1),
        "sum": _rat1_sum,
        "outside": lambda t: abs(t) == 1,
        "outside_error": "the 1/(1-x^n) expansion diverges on |x| = 1 "
                         "(poles at roots of unity)",
    },
    "dirichlet_rat2": {
        "series": lambda j: Fraction((-1) ** (j // 2) if j % 2 else 0),
        "sum": _rat2_sum,
        "outside": lambda t: False,
        "outside_error": None,
    },
}


def dirichlet_expansion_coeffs(c: CharNumbers, variant: str) -> CoeffSeq:
    """Coefficients a_1..a_N of b_0 + sum a_n g(x^n) for the three variants.

    f_n = c_n / n!; a_n is the divisor sum of f against the Dirichlet inverse
    of g's power-series coefficients: all-ones for g = G, mu for
    g = 1/(1-x), nu for g = x/(x^2+1).  b_0 is f(0) when g(0) = 0
    (G, rat2) and c_0 - sum a_n for the rat1 basis with g(0) = 1.  Exact c
    read rows with 1/(n/k)! folded into their entries; float c read f.
    """
    _require_derivative(c)
    table = _DIRICHLET.get(variant)
    if table is None:
        raise DomainError(f"unknown Dirichlet expansion variant {variant!r}")
    folded = all_exact(c.values)
    f = c.values if folded else [over(ck, math.factorial(k)) for k, ck in enumerate(c.values)]
    values = tri_table(_dirichlet_rows, variant, len(c.values), folded).apply(f)
    b0 = c.values[0]
    if table["series"](0):
        total = 0  # a += loop, as the builtin sum was before Python 3.12
        for a in values:
            total += a
        b0 = b0 - total
    return CoeffSeq(tuple(values), variant, params={"b0": b0})


def _dirichlet_rows(variant: str, size: int, folded: bool) -> TriRows:
    """Row n lists (n/k, gamma^-1_k) for the divisors k of n, ascending, with
    gamma^-1_k nonzero (gamma_size keeps the inverse nonempty); ``folded``
    entries are gamma^-1_k / (n/k)!, to be read at c rather than at f."""
    series = _DIRICHLET[variant]["series"]
    inv = (0, *specfun.dirichlet_inverse([series(j) for j in range(1, size + 1)]))
    return TriRows([[(n // k, Fraction(inv[k], math.factorial(n // k)) if folded else inv[k])
                     for k in range(1, n + 1) if n % k == 0 and inv[k]]
                    for n in range(1, size)])


def _dirichlet_jet_rows(variant: str, order: int, size: int) -> TriRows:
    """Row m lists (n, gamma_(m/n)) for every n <= size dividing m with that
    gamma nonzero, after (0, 1) for b_0: the jet at the center of exact and
    float coefficients alike.  A structural zero of g(t^n) forms no term, so
    an inf or nan a_n reaches only the orders where g(t^n) has a nonzero
    coefficient."""
    series = _DIRICHLET[variant]["series"]
    gamma = [series(j) for j in range(order + 1)]
    rows = [[(n, gamma[m // n]) for n in range(1, size + 1) if m % n == 0 and gamma[m // n]]
            for m in range(order + 1)]
    rows[0].insert(0, (0, 1))
    return TriRows(rows)


class DirichletApproximant(_TermSum):
    """b_0 + sum_{n>=1} a_n g(t^n) for one of the three Dirichlet bases."""

    first_index = 1

    def __init__(self, coeffs: CoeffSeq, center=0):
        super().__init__(coeffs, center)
        self.b0 = coeffs.params["b0"]

    def __call__(self, x):
        t = float(x - self.center)
        table = _DIRICHLET[self.kind]
        if table["outside"](t):
            raise EvalDomainError(table["outside_error"])
        return table["sum"](float(self.b0), t, self.coeffs.floats, self.nonzero)

    def eval_jet(self, x0, order: int) -> Jet:
        """At the center, coefficient m of g(t^n) is gamma_(m/n) where n
        divides m and zero elsewhere: the cached rows of
        ``_dirichlet_jet_rows`` at (b_0, a_1, ..., a_N)."""
        if x0 != self.center:
            raise DomainError("Dirichlet expansion jets are only supported "
                              "at the expansion point")
        v = (self.b0, *self.coeffs.values)
        table = tri_table(_dirichlet_jet_rows, self.kind, order, len(v) - 1)
        if all_exact(v):
            return Jet.from_ints(x0, *table.exact(v))
        return Jet(x0, table.apply(v))


def dirichlet_approx(c: CharNumbers, variant: str) -> DirichletApproximant:
    return DirichletApproximant(dirichlet_expansion_coeffs(c, variant), c.family.center)


# -- dex functions --------------------------------------------------------------


# x^j / j! overflows near |x| = 709; the ladder runs to j >= 2|x|
_DEX_X_MAX = 700.0
# ladder length that serves every index of rings up to this size
_DEX_MIN_TERMS = 64


@lru_cache(maxsize=256)
def _dex_ladder(x: float, length: int) -> tuple:
    """T_j = x^j / j! by T_j = T_{j-1} (x/j), at least ``length`` terms and
    on until the terms are decreasing and below ``_TOL``."""
    t = 1.0
    terms = [t]
    j = 0
    for j in range(1, length):
        t *= x / j
        terms.append(t)
    reach = 2 * abs(x)
    while j < reach or abs(t) > _TOL:
        j += 1
        t *= x / j
        terms.append(t)
    return tuple(terms)


def _dex_point(x) -> float:
    x = float(x)
    if not abs(x) <= _DEX_X_MAX:
        raise DomainError(f"dex_eval needs a finite |x| <= {_DEX_X_MAX:g}, got {x}")
    return x


def dex_eval(ring: int, index: int, x: float) -> float:
    """dex_[N,n](x) = sum_k x^(n + kN) / (n + kN)!, read from one shared
    ladder of x^j / j! per x (cut where its terms fall below ``_TOL``)."""
    if ring < 1:
        raise DomainError("dex ring size must be >= 1")
    if not (0 <= index < ring):
        raise DomainError(f"dex index must satisfy 0 <= n < N, got ({ring}, {index})")
    acc = 0.0  # a += loop: the builtin sum of floats is compensated from Python 3.12 on
    for term in _dex_ladder(_dex_point(x), max(_DEX_MIN_TERMS, index + 1))[index::ring]:
        acc += term
    return acc


class DexApproximant(_TermSum):
    """sum_{n < N} c_n dex_[N,n](t); derivatives repeat with period N."""

    def __init__(self, coeffs: CoeffSeq, center=0):
        super().__init__(coeffs, center)
        self.ring = coeffs.params["ring"]

    def __call__(self, x):
        t = x - self.center
        acc = 0
        for n, cn in self.nonzero:
            acc += cn * dex_eval(self.ring, n, t)
        return acc

    def eval_jet(self, x0, order: int) -> Jet:
        t0 = x0 - self.center
        if t0 != 0:
            raise DomainError("dex jets are only supported at the expansion point")
        return Jet(x0, [over(self.coeffs.values[j % self.ring], math.factorial(j))
                        for j in range(order + 1)])


def dex_approx(c: CharNumbers) -> DexApproximant:
    """Approximant sum c_n dex_[N,n] from the first N derivatives (Eq.-level
    construction: the ring size equals the number of matched numbers)."""
    fam = _require_derivative(c)
    coeffs = CoeffSeq(c.values, "dex", params={"ring": len(c.values)})
    return DexApproximant(coeffs, fam.center)


def prime_indicator_P(pmax: int) -> tuple[int, ...]:
    """Exact p-th derivatives at 0 of P(x) = sum_{i>=2} (dex_[i,0] - 1).

    With the sum truncated at i = pmax + 1 the values are exact for all
    p <= pmax: the p-th derivative counts the divisors of p that are >= 2,
    (1 * 1)(p) - 1, so it equals 1 exactly when p is prime.
    """
    if pmax < 2:
        raise DomainError("pmax must be at least 2")
    return (0, *(d - 1 for d in specfun.dirichlet_convolve([1] * pmax, [1] * pmax)))


def prime_indicator_eval(x: float) -> tuple[float, float, float, float]:
    """P(x) = sum_{i=2..40} (dex_[i,0](x) - 1) and its first three
    derivatives at x, exact at 0 up to order 39 (``prime_indicator_P(39)``).
    The k-th derivative of dex_[i,0] is dex_[i,-k mod i], so P^(k)(x) =
    sum_j T_j m_k(j) over the one ladder T_j = x^j / j! at x, with
    m_k(j) = #{2 <= i <= 40 : i | j + k} (``_prime_counts``)."""
    ladder = _dex_ladder(_dex_point(x), _DEX_MIN_TERMS)
    return tuple(math.fsum(map(operator.mul, ladder, m)) for m in _prime_counts(len(ladder)))


@lru_cache(maxsize=16)
def _prime_counts(length: int) -> tuple:
    """(m_0, m_1, m_2, m_3) for j < length, m_k(j) = #{2 <= i <= 40 : i | j + k},
    except m_0(0) = 0: T_0 m_0(0) = 39 is the constant that P subtracts."""
    divisors = [0] * (length + 3)
    for i in range(2, 41):
        for n in range(0, length + 3, i):
            divisors[n] += 1
    divisors[0] = 0
    return tuple(tuple(divisors[k:k + length]) for k in range(4))


# -- nonlinear delta approximation ------------------------------------------------


def nonlinear_chars(f, transform: str, x0=0, order: int = 8) -> CharNumbers:
    """c_n = d^n/dx^n Lambda(f(x)) at x0, computed through jets."""
    return Nonlinear(transform, x0).chars(f, order + 1)


class NonlinearApproximant(Approximant):
    """Omega(sum a_n t^n / n!) with a_n = c_n and Omega = Lambda^{-1}."""

    def __init__(self, coeffs: CoeffSeq, center=0):
        super().__init__(coeffs, center)
        self.transform = NONLINEAR_TRANSFORMS[coeffs.params["transform"]]
        self.inner = Poly(over(a, math.factorial(n)) for n, a in enumerate(coeffs.values))

    def __call__(self, x):
        y = self.inner(x - self.center)
        try:
            return self.transform.omega(float(y))
        except ValueError as exc:
            raise EvalDomainError(
                f"inner series leaves the domain of Omega at x={x}: {exc}"
            ) from exc

    def eval_jet(self, x0, order: int) -> Jet:
        var = Jet.variable(x0, order) - self.center
        return self.transform.omega_jet(self.inner(var))

    def transformed_jet(self, transform: str, x0, order: int) -> Jet:
        """Jet of Lambda(A); for the approximant's own transform this is the
        inner series itself, since Lambda(Omega(y)) = y on the branch in use."""
        if transform == self.transform.name:
            return self.inner(Jet.variable(x0, order) - self.center)
        tr = NONLINEAR_TRANSFORMS[transform]
        return tr.lam_jet(self.eval_jet(x0, order))


def nonlinear_approx(c: CharNumbers) -> NonlinearApproximant:
    if not isinstance(c.family, Nonlinear):
        raise DomainError("nonlinear approximants need nonlinear-family numbers")
    coeffs = CoeffSeq(c.values, "nonlinear", params={"transform": c.family.transform})
    return NonlinearApproximant(coeffs, c.family.center)
