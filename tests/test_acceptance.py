"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import random
import time
from fractions import Fraction

from charmatch import exprs, specfun
from charmatch import expansions as xp
from charmatch import integral_match as im
from charmatch.cli import main as cli_main
from charmatch.errors import EvalDomainError
from charmatch.interp import value_chars, ws_build, ws_node_systems
from charmatch.matching import (
    EndpointDiff,
    Moments,
    measure,
    verify_matching,
)
from charmatch.poly import Poly, is_exact
from charmatch.registry import KIND_NAMES, build_kind

F = Fraction


def _report(num: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


FUNCTIONS = {
    "exp": "exp(x)",
    "sin": "sin(x)",
    "cos": "cos(x)",
    "arctan": "arctan(x)",
    "ln_x2p1": "ln(x^2 + 1)",
    "sqrt_4mx2": "sqrt(4 - x^2)",
}

# domain-appropriate subsets: Pade blocks of odd functions degenerate at
# N = 11 (m = 6, n = 5), and the ln transform needs f(0) > 0
SUBSETS = {
    "pade": ("exp", "cos", "ln_x2p1", "sqrt_4mx2"),
    "nonlinear": ("exp", "cos", "sqrt_4mx2"),
}


def test_criterion_1_round_trip():
    t0 = time.time()
    ok = True
    checked = 0
    for kind in KIND_NAMES:
        names = SUBSETS.get(kind, tuple(FUNCTIONS))
        for name in names:
            f = exprs.parse(FUNCTIONS[name])
            for order in (4, 8, 11):
                res = build_kind(kind, f, order)
                report = verify_matching(res.approximant, res.chars)
                ok = ok and report.passed
                if all(is_exact(v) for v in res.chars.values):
                    ok = ok and all(r == 0 for r in report.residuals)
                checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0 and checked >= 14 * 3 * 3
    _report(1, f"round trip over {checked} kind/function/order combos "
               f"(residuals <= 1e-9 rel, exact where rational; {elapsed:.1f}s)", ok)


def test_criterion_2_matrix_inverse():
    ok = True
    for (w, q) in ((F(-1, 2), 2), (F(1), 1), (F(2), 3), (F(0), 2)):
        d, dinv = xp.dmatrix_build(w, q, 30)
        ok = ok and d.matmul(dinv).is_identity()
    _report(2, "D * D^-1 = I exactly over rationals, N=30, "
               "(w,q) in {(-1/2,2),(1,1),(2,3),(0,2)}", ok)


def test_criterion_3_dirichlet_identities():
    n_max = 10_000
    ones = [1] * n_max
    mu = [specfun.moebius(n) for n in range(1, n_max + 1)]
    conv = specfun.dirichlet_convolve(ones, mu)
    ok = conv[0] == 1 and all(v == 0 for v in conv[1:])
    u = [[0, 1, 0, -1][n % 4] for n in range(1, n_max + 1)]
    nu_seq = [specfun.nu(n) for n in range(1, n_max + 1)]
    conv = specfun.dirichlet_convolve(u, nu_seq)
    ok = ok and conv[0] == 1 and all(v == 0 for v in conv[1:])
    rng = random.Random(2024)
    for _ in range(100):
        seq = [rng.choice([1, -1, 2, -2, 3, 5])] + \
              [rng.randint(-9, 9) for _ in range(199)]
        inv = specfun.dirichlet_inverse(seq)
        back = specfun.dirichlet_convolve(seq, inv)
        ok = ok and back[0] == 1 and all(v == 0 for v in back[1:])
    _report(3, "Dirichlet identities exact to n=10^4 and 100 random "
               "inverse round trips at N=200", ok)


def test_criterion_4_bernoulli():
    # delta property, exact, n, m <= 10
    family = EndpointDiff(0, 1, zeroth="integral")
    ok = True
    for m in range(11):
        basis = specfun.bernoulli_poly(m) * F(1, math.factorial(m))
        got = measure(basis, family, range(11))
        ok = ok and got == [1 if n == m else 0 for n in range(11)]
    # exact reconstruction of x^2 on (0, 1)
    c = im.bernoulli_chars(Poly([0, 0, 1]), (0, 1), 3)
    ok = ok and im.bernoulli_approx(c).poly == Poly([0, 0, 1])
    # shrinking-interval limit: coefficient error halves with eps
    eps = [0.1 * 2.0 ** -k for k in range(11)]  # 1e-1 .. ~1e-4
    rows = im.bernoulli_taylor_limit(exprs.parse("exp(x)"), 0, eps, 5)
    diffs = [d for _, d in rows]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    ok = ok and all(0.3 <= r <= 0.7 for r in ratios)
    _report(4, "Bernoulli delta property exact (n,m<=10), x^2 exact, "
               f"Taylor-limit halving ratios in [0.3,0.7] (got "
               f"{min(ratios):.2f}..{max(ratios):.2f})", ok)


def test_criterion_5_moment_machinery():
    ok = True
    for order in range(17):
        for m_index in range(order + 1):
            delta = im.moment_partial_delta(m_index, order)
            for n in range(order + 1):
                want = 1 if n == m_index else 0
                if (delta * Poly([0] * n + [1])).integral(-1, 1) != want:
                    ok = False
    targets = [Poly([0, 0, 1]), specfun.legendre_coeffs(3), exprs.parse("exp(x)")]
    for f in targets:
        m = im.moments_compute(f, (-1, 1), 6)
        approx = im.legendre_moment_match(m)
        got = measure(approx, Moments(-1, 1), range(7))
        ok = ok and all(abs(float(a) - float(b)) <= 1e-8
                        for a, b in zip(got, m.values))
    sups = [s for _, s in im.moment_delta_growth(0, [4, 8, 16, 32])]
    ok = ok and all(b > a for a, b in zip(sups, sups[1:]))
    _report(5, "partial-delta matrices exactly identity (N<=16), moment "
               "matching <= 1e-8, sup norms strictly increase "
               f"({', '.join(f'{s:.2f}' for s in sups)})", ok)


def test_criterion_6_nsbf_vs_taylor():
    f = exprs.parse("sin(x)")
    coeffs = build_kind("nsbf", f, 11).coeffs
    want = tuple(0 if n % 2 == 0 else (2 if n % 4 == 1 else -2) for n in range(12))
    ok = coeffs.values == want
    taylor = build_kind("taylor", f, 10).approximant
    nsbf = build_kind("nsbf", f, 10).approximant
    xs = [3 * math.pi * i / 500 for i in range(501)]
    terr = max(abs(float(taylor(x)) - math.sin(x)) for x in xs)
    nerr = max(abs(float(nsbf(x)) - math.sin(x)) for x in xs)
    ok = ok and terr >= 10 * nerr
    _report(6, f"NsBf sin coefficients exact through N=11; on [0,3pi] "
               f"NsBf error {nerr:.3g} vs Taylor {terr:.3g} "
               f"(factor {terr / nerr:.0f} >= 10)", ok)


def test_criterion_7_dex():
    ok = True
    for x in [-5 + 0.25 * i for i in range(41)]:
        scale = max(1.0, math.cosh(x))
        ok = ok and abs(xp.dex_eval(1, 0, x) - math.exp(x)) <= 1e-12 * max(1.0, math.exp(x))
        ok = ok and abs(xp.dex_eval(2, 0, x) - math.cosh(x)) <= 1e-12 * scale
        ok = ok and abs(xp.dex_eval(2, 1, x) - math.sinh(x)) <= 1e-12 * scale
    for ring in (3, 4, 5):
        c = build_kind("dex", exprs.parse("sin(x)"), ring - 1).chars
        approx = xp.dex_approx(c)
        der = approx.eval_jet(0, 2 * ring - 1).derivatives()
        for m in range(2 * ring):
            ok = ok and der[m] == c.values[m % ring]
    vals = xp.prime_indicator_P(30)
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for p in range(2, 31):
        ok = ok and (vals[p] == 1) == (p in primes)
    _report(7, "dex identities <= 1e-12 on [-5,5], jet cyclicity for "
               "N in {3,4,5}, exact prime indicator to p=30", ok)


def test_criterion_8_ws_presets():
    systems = ws_node_systems()
    ok = True
    for name in ("ws-a", "ws-b", "ws-c", "ws-d", "ws-e", "ws-f"):
        system = systems[name]
        c = value_chars(system.test_function, system, 20)
        approx = ws_build(system, c, 20)
        for (_, xn), want in zip(system.nodes(20), c.values):
            ok = ok and abs(approx(xn) - want) <= 1e-9
        if system.slope_closed is not None:
            for n in system.indices(20):
                closed = system.slope_closed(n)
                slope = float(system.lambda_jet(system.node(n), 1).coeffs[1])
                ok = ok and abs(slope - closed) <= 1e-10 * max(1.0, abs(closed))
    _report(8, "WS presets (a)-(f): node interpolation <= 1e-9 at N=20; "
               "jet slopes match closed forms (a)-(e) within 1e-10", ok)


def test_criterion_9_rational_expansions():
    c = build_kind("rational_x_over_x1", exprs.parse("exp(x)"), 4).coeffs
    ok = c.values[1] == 1 and c.values[2] == F(3, 2)
    # pole relocation: denominator root of u/(u+1) sits exactly at x = alpha = 2,
    # and one ulp away the approximant is huge but finite
    chars = build_kind("taylor", exprs.parse("exp(x)"), 5).chars
    shifted = xp.rational_x1_approx(chars, alpha=2)
    near = shifted(math.nextafter(2.0, 3))
    ok = ok and math.isfinite(near) and abs(near) > 1e30
    try:
        shifted(2.0)
        ok = False
    except EvalDomainError:
        pass
    ok = ok and abs(shifted(2.0 + 1e-9)) > 1e6
    rat1 = build_kind("dirichlet_rat1", exprs.parse("exp(x)"), 8).approximant
    for x in (1.0, -1.0):
        try:
            rat1(x)
            ok = False
        except EvalDomainError:
            pass
    rat2 = build_kind("dirichlet_rat2", exprs.parse("exp(x)"), 8).approximant
    ok = ok and math.isfinite(rat2(1.0)) and math.isfinite(rat2(-1.0))
    _report(9, "newPade a_1=1, a_2=3/2 exact; pole moved to alpha=2; "
               "rat1 rejects |x|=1; rat2 finite at x=+-1", ok)


def test_criterion_10_nonlinear():
    f = exprs.parse("exp(x)")
    c = xp.nonlinear_chars(f, "ln", 0, 8)
    ok = c.values == tuple(1 if n == 1 else 0 for n in range(9))
    approx = xp.nonlinear_approx(c)
    ok = ok and all(abs(approx(x) - math.exp(x)) <= 1e-13 * math.exp(x)
                    for x in (-2.0, -0.5, 0.0, 1.0, 2.5))
    ident = xp.nonlinear_chars(f, "identity", 0, 8)
    taylor = build_kind("taylor", f, 8).coeffs
    ok = ok and xp.nonlinear_approx(ident).coeffs.values == taylor.values
    _report(10, "Lambda=ln of exp gives c_n = delta_{n,1} and the exact "
                "exponential; Lambda=identity reduces to Taylor", ok)


def test_criterion_11_figure_suite(tmp_path):
    names = ("besscos", "legout", "exppoly", "logpowers", "newpade",
             "inargpow", "pprime", "nonlin", "ws")
    ok = True
    slowest = 0.0
    for name in names:
        outputs = []
        for attempt in ("one", "two"):
            csv = tmp_path / f"{name}-{attempt}.csv"
            svg = tmp_path / f"{name}-{attempt}.svg"
            t0 = time.time()
            code = cli_main(["figure", name, "--csv", str(csv), "--svg", str(svg)])
            elapsed = time.time() - t0
            slowest = max(slowest, elapsed)
            ok = ok and code == 0 and elapsed < 10.0
            outputs.append((csv.read_bytes(), svg.read_bytes()))
        ok = ok and outputs[0] == outputs[1]
    _report(11, f"nine figure commands deterministic, slowest "
                f"{slowest:.1f}s < 10s", ok)
