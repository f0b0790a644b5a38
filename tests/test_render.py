"""The figure renderers on synthetic figures with literal floats.

Every output is compared byte for byte with the per-cell loops of
``render_reference``; the CSV is also read back, and the SVG polylines are
counted, so that the references are not the only check.
"""

import contextlib
import math
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmatch.figures import FigureData, render_csv, render_svg
from charmatch.svgplot import _nice_ticks, line_plot_svg
from render_reference import ref_line_plot_svg, ref_render_csv, ref_render_svg

INF, NAN = math.inf, math.nan
TINY, HUGE = 5e-324, 1.7976931348623157e308

CSV_FIGURES = [
    FigureData("specials", [
        ("x", [-1.0, -0.0, 0.0, TINY, HUGE, 0.1, 2.5]),
        ("f", [NAN, INF, -INF, -0.0, 1 / 3, -HUGE, 1e-310]),
        ("err_f", [0.0, NAN, 1e22, -TINY, 123456789.0, 2.0 ** 60, 0.5]),
    ], "specials"),
    FigureData("one column", [("x", [0.25, -7.0])], "x only"),
    FigureData("empty", [("x", []), ("f", [])], "no rows"),
]


@pytest.mark.parametrize("fig", CSV_FIGURES, ids=lambda fig: fig.name)
def test_csv_matches_the_per_cell_loop_and_reads_back(fig):
    text = render_csv(fig)
    assert text == ref_render_csv(fig)
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == len(fig.x) + 2
    assert lines[0] == ",".join(label for label, _ in fig.columns)
    for i, line in enumerate(lines[1:-1]):
        for cell, (_, values) in zip(line.split(","), fig.columns, strict=True):
            v = values[i]
            back = float(cell)
            if math.isnan(v):
                assert cell == "nan"
            else:
                assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)


X10 = [float(i) for i in range(10)]

SVG_CASES = {
    # kept and clamped (1.5, -1.9), beyond one span (3.5, -3.5), non-finite,
    # and single-point runs (0.1 between nan and inf, 0.7 at the end)
    "clamped and broken": (X10, [
        ("a", [0.5, 1.5, -1.9, 3.5, 0.2, NAN, 0.1, INF, 0.3, 0.4]),
        ("b", [-INF, TINY, -0.0, HUGE, -HUGE, 2.99, -2.99, NAN, -3.5, 0.7]),
    ], (-1.0, 1.0)),
    "all nan next to a line": (X10, [("nan", [NAN] * 10), ("line", X10)], (-5.0, 12.0)),
    "autoscaled": (X10, [("a", [NAN, 1.0, 4.0, -2.5, INF, 0.0, TINY, -0.0, 3.0, 2.0]),
                         ("b", [0.5] * 10)], None),
    "autoscaled all nan": (X10, [("a", [NAN] * 10)], None),
    "autoscaled flat": (X10, [("a", [2.0] * 10)], None),
    "inverted ylim": (X10, [("a", [0.5, -0.5, 2.0, -2.0, 3.5, NAN, 0.0, 0.9, -0.9, 1.0])],
                      (1.0, -1.0)),
    "one x value": ([2.0, 2.0, 2.0], [("a", [0.0, 1.0, 0.5])], (-1.0, 1.0)),
    "one point": ([2.0], [("a", [0.0])], None),
}


@pytest.mark.parametrize("case", list(SVG_CASES))
def test_svg_matches_the_per_point_loop(case):
    x, series, ylim = SVG_CASES[case]
    assert line_plot_svg(x, series, title=case, ylim=ylim) == \
        ref_line_plot_svg(x, series, title=case, ylim=ylim)


def test_svg_breaks_lines_where_points_are_dropped():
    x, series, ylim = SVG_CASES["clamped and broken"]
    svg = line_plot_svg(x, series, ylim=ylim)
    runs = [m.split() for m in re.findall(r'points="([^"]*)"', svg)]
    # a: [0.5, 1.5, -1.9] | 3.5 | [0.2] | nan | [0.1] | inf | [0.3, 0.4]
    # b: -inf | [5e-324, -0.0] | huge | -huge | [2.99, -2.99] | nan | -3.5 | [0.7]
    assert [len(run) for run in runs] == [3, 2, 2, 2]
    # the clamped 1.5 and -1.9 sit on the top and bottom of the plot area
    assert [p.split(",")[1] for p in runs[0]] == ["167.50", "40.00", "550.00"]


def test_an_inverted_ylim_keeps_no_point():
    # ylo - span > yhi + span when ylo > yhi, so no y lies in the kept range
    x, series, ylim = SVG_CASES["inverted ylim"]
    assert "<polyline" not in line_plot_svg(x, series, ylim=ylim)


def test_render_svg_plots_every_column_but_x_and_errors():
    fig = FigureData("fig", [("x", X10), ("f", X10), ("err_f", X10), ("g", X10[::-1])],
                     "title", ylim=(0.0, 9.0))
    svg = render_svg(fig)
    assert svg == ref_render_svg(fig)
    assert svg.count("<polyline") == 2 and ">g</text>" in svg and "err_f" not in svg


SPECIALS = [NAN, INF, -INF, -0.0, TINY, HUGE, -HUGE]
# any finite plot coordinates: ranges that overflow, that are empty or that
# span a few ulps included
finite = st.floats(allow_nan=False, allow_infinity=False)
ys = st.one_of(finite, st.sampled_from(SPECIALS))


@st.composite
def plots(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    x = draw(st.lists(finite, min_size=n, max_size=n))
    series = [(f"s{i}", draw(st.lists(ys, min_size=n, max_size=n)))
              for i in range(draw(st.integers(min_value=1, max_value=4)))]
    ylim = draw(st.one_of(st.none(), st.tuples(finite, finite)))
    return x, series, ylim


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(plots())
def test_svg_matches_the_per_point_loop_on_drawn_plots(plot):
    x, series, ylim = plot
    with time_limit(10):
        assert line_plot_svg(x, series, ylim=ylim) == \
            ref_line_plot_svg(x, series, ylim=ylim)


def test_ticks_of_a_few_ulp_range_fall_back_to_the_unit_range():
    with time_limit(10):
        ticks = _nice_ticks(1e20, math.nextafter(1e20, 2e20))
    assert ticks == _nice_ticks(0.0, 1.0) and len(ticks) == 6


@pytest.mark.parametrize("top", [HUGE, TINY])
def test_a_y_range_beyond_the_ticks_still_renders(top):
    # an autoscaled range that overflows, and one narrower than a tick step
    with time_limit(10):
        svg = line_plot_svg([0.0, 1.0], [("a", [0.0, top])])
    assert svg.count("<polyline") == 1 and svg.endswith("</svg>\n")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIALS)),
                         min_size=3, max_size=3), max_size=20))
def test_csv_matches_the_per_cell_loop_on_drawn_rows(rows):
    columns = [(label, [row[k] for row in rows]) for k, label in enumerate("xyz")]
    fig = FigureData("drawn", columns, "drawn")
    assert render_csv(fig) == ref_render_csv(fig)
