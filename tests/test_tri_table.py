"""The prepared rows of a triangular map against the plain loop.

``poly.TriRows`` keeps the exact rows of a map as integer numerators
over one denominator per row and makes their float entries on first use,
and ``poly.tri_table`` keeps one ``TriRows`` per row builder and key for the
coefficient maps, the center jets of the NSBF and Dirichlet approximants
and Legendre moment matching.  Each result must equal the plain
loop on the entries by ``result_key.key``: exact values and exactness, float
bits (signed zeros, inf and nan included) and the exception raised.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmatch import expansions as xp
from charmatch import integral_match as im
from charmatch.jets import Jet, bessel_jn_jet
from charmatch.matching import CharNumbers, CoeffSeq, Derivative
from charmatch.poly import TriRows, over, tri_map, tri_table
from result_key import key, same
from tri_reference import check_tri_map

F = Fraction

# ints past 2^53, where float(t) rounds, and entries past the float range
BIG_INTS = st.integers(2 ** 53 - 4, 2 ** 60) | st.sampled_from([10 ** 400, -(2 ** 1024)])
ENTRIES = st.one_of(st.integers(-10 ** 6, 10 ** 6), BIG_INTS,
                    st.fractions(max_denominator=10 ** 9),
                    st.sampled_from([0, F(0), F(10 ** 400, 3)]))
SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
V_ENTRIES = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=10 ** 6),
                      st.floats(), SPECIAL)


def ref_loop(rows, v, divisors=None):
    out = []
    for row in rows:
        acc = 0
        for k, t in row:
            acc += t * v[k]
        out.append(acc)
    if divisors is not None:
        out = [over(a, d) for a, d in zip(out, divisors)]
    return out


def vectors(size):
    """All exact, all float or mixed, a third of the time each."""
    return st.sampled_from([
        st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(max_denominator=10 ** 6)),
        st.one_of(st.floats(), SPECIAL),
        V_ENTRIES,
    ]).flatmap(lambda entry: st.lists(entry, min_size=size, max_size=size))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)
def test_prepared_rows_match_the_loop(data):
    if data is None:  # an entry past the float range meets -0.0 and an exact 1
        rows, divisors = [[(0, 10 ** 400)], [(1, 2), (0, F(1, 3))]], None
        vs = [[-0.0, 1.0], [1, F(1, 2)], [-0.0, 1], [1, -0.0]]
    else:
        size = data.draw(st.integers(1, 12))
        rows = [data.draw(st.lists(st.tuples(st.integers(0, n), ENTRIES), max_size=n + 2))
                for n in range(size)]
        divisors = data.draw(st.none() | st.lists(st.integers(1, 10 ** 12),
                                                  min_size=size, max_size=size))
        vs = [data.draw(vectors(size)) for _ in range(3)]
    # one table for every vector: its forms are made on first use and kept
    table = TriRows(rows, divisors)
    for v in vs:
        same(lambda: table.apply(v), lambda: ref_loop(rows, v, divisors))
        check_tri_map(lambda: tri_map(rows, v, divisors), rows, v, divisors)


def test_an_entry_past_the_float_range_raises_as_the_loop_does():
    rows = [[(0, 1)], [(0, F(10 ** 400, 3)), (1, 2)]]
    for v in ([1.0, 2.0], [-0.0, math.nan], [1, 2.0]):
        with pytest.raises(OverflowError):
            ref_loop(rows, v)
        with pytest.raises(OverflowError):
            TriRows(rows).apply(v)
    assert key(TriRows(rows).apply([F(3), 1])) == key([3, F(10 ** 400, 3) * 3 + 2])
    # where no float meets the big entry, the loop leaves it exact
    rows = [[(0, F(10 ** 400, 3))], [(1, 2)]]
    assert key(TriRows(rows).apply([3, 2.0])) == key([10 ** 400, 4.0])


def test_floats_keep_the_bits_of_big_ints_and_fractions():
    big = 2 ** 53 + 1  # rounds to 2^53 as a float
    rows = [[(0, big), (1, F(1, 3))], [(1, F(2 ** 80 + 1, 3))]]
    v = [1.0, -0.0]
    assert key(TriRows(rows).apply(v)) == key(ref_loop(rows, v))
    floats = [(cols, list(ts)) for cols, ts in TriRows(rows).floats]
    assert key(floats) == key([((0, 1), [float(big), 1 / 3]), ((1,), [(2 ** 80 + 1) / 3])])


def derivative(values):
    return CharNumbers(tuple(values), Derivative(0))


MAPS = {
    "nsbf": lambda c: xp.nsbf_coeffs(c),
    "pow_sine": lambda c: xp.pow_sine_coeffs(c),
    "exp_weighted": lambda c: xp.exp_weighted_coeffs(c, F(-1, 2), 2),
    "log_powers": lambda c: xp.powers_of_g_coeffs(c, "log_powers"),
    "stirling1_g": lambda c: xp.powers_of_g_coeffs(c, "stirling1_g"),
    "lambert_w_g": lambda c: xp.powers_of_g_coeffs(c, "lambert_w_g"),
    "rational_x1": lambda c: xp.rational_x1_coeffs(c, F(1, 3)),
    "dirichlet_g": lambda c: xp.dirichlet_expansion_coeffs(c, "dirichlet_g"),
    "dirichlet_rat1": lambda c: xp.dirichlet_expansion_coeffs(c, "dirichlet_rat1"),
    "dirichlet_rat2": lambda c: xp.dirichlet_expansion_coeffs(c, "dirichlet_rat2"),
    "legendre_moment": lambda c: im.legendre_moment_match(im.MomentSet((-1, 1), c.values)).poly,
    "nsbf_jet": lambda c: xp.NsbfApproximant(CoeffSeq(c.values, "nsbf"), 0).eval_jet(0, 13),
    "dirichlet_jet": lambda c: xp.DirichletApproximant(
        CoeffSeq(c.values[1:], "dirichlet_rat1", {"b0": c.values[0]}), 0).eval_jet(0, 13),
}


@pytest.mark.parametrize("name", MAPS)
def test_a_second_call_adds_no_cache_miss(name):
    build = MAPS[name]
    c = derivative([F(k + 1, 7) for k in range(23)])
    first = key(build(c))
    misses = tri_table.cache_info().misses
    assert key(build(derivative([F(k - 3, 5) for k in range(23)]))) != first
    assert key(build(c)) == first
    assert tri_table.cache_info().misses == misses


def test_the_key_is_typed():
    # -0.5 == Fraction(-1, 2) and they hash alike: an untyped key would give
    # the float w the exact table
    def build(w):
        return TriRows([[(0, 1)]])

    assert tri_table(build, F(-1, 2)) is not tri_table(build, -0.5)
    c = derivative([F(1), 2, F(1, 3), 5, 7])
    exact = xp.exp_weighted_coeffs(c, F(-1, 2), 2).values
    floats = xp.exp_weighted_coeffs(c, -0.5, 2).values
    assert all(type(a) is float for a in floats)
    assert [float(a) for a in exact] == pytest.approx(floats)


def test_integer_rows_of_exp_weighted_equal_its_entries():
    for w, q in ((F(-1, 2), 2), (0, 1), (F(3, 7), 3), (-2, 1)):
        table = xp._exp_weighted_rows(w, q, 15)
        rows = [[(i, F(*e)) for i in range(n + 1) if (e := xp._m_entry(n, i, w, q))]
                for n in range(15)]
        assert key(table.pairs) == key(rows)


# -- the center jets against their per-case rows ------------------------------------------


def per_case_nsbf_jet(approx, x0, order):
    t0 = x0 - approx.center
    jets = [(n, bessel_jn_jet(n, t0, order).coeffs)
            for n, a in enumerate(approx.coeffs.values) if a != 0]
    rows = [[(n, coeffs[j]) for n, coeffs in jets] for j in range(order + 1)]
    return Jet(x0, tri_map(rows, approx.coeffs.values))


def per_case_dirichlet_jet(approx, x0, order):
    series = xp._DIRICHLET[approx.kind]["series"]
    gamma = [series(j) for j in range(order + 1)]
    nonzero = [n for n, a in enumerate(approx.coeffs.values, start=1) if a != 0]
    rows = [[(n, 0 if m % n else gamma[m // n]) for n in nonzero] for m in range(order + 1)]
    rows[0].insert(0, (0, 1))
    return Jet(x0, tri_map(rows, (approx.b0, *approx.coeffs.values)))


EXACT_VALUES = st.lists(st.one_of(st.integers(-10 ** 9, 10 ** 9), st.just(0),
                                  st.fractions(max_denominator=10 ** 4)),
                        min_size=1, max_size=30)
CENTERS = st.sampled_from([0, F(1, 3), -2])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=EXACT_VALUES, center=CENTERS, order=st.integers(0, 45))
def test_nsbf_center_jet_equals_the_per_case_rows(values, center, order):
    approx = xp.NsbfApproximant(CoeffSeq(values, "nsbf"), center)
    same(lambda: approx.eval_jet(center, order),
         lambda: per_case_nsbf_jet(approx, center, order))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=EXACT_VALUES, b0=st.fractions(max_denominator=100), center=CENTERS,
       order=st.integers(0, 45),
       variant=st.sampled_from(["dirichlet_g", "dirichlet_rat1", "dirichlet_rat2"]))
def test_dirichlet_center_jet_equals_the_per_case_rows(values, b0, center, order, variant):
    approx = xp.DirichletApproximant(CoeffSeq(values, variant, {"b0": b0}), center)
    same(lambda: approx.eval_jet(center, order),
         lambda: per_case_dirichlet_jet(approx, center, order))
