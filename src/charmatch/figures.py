"""Reproduction of the study's figures as deterministic CSV (+ SVG) files.

Each figure is a named recipe producing columns ``x, f(x), approximant(s),
error(s)``; the CSV carries 17 significant digits and the SVG is a plain
line plot.  Everything is a pure function of the recipe, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from . import exprs
from . import expansions as xp
from .errors import DomainError
from .integral_match import legendre_fourier_approx
from .interp import value_chars, ws_build, ws_node_systems
from .registry import build_kind
from .svgplot import line_plot_svg

__all__ = ["FIGURES", "build_figure", "render_csv", "render_svg", "grid", "sample"]


@dataclass
class FigureData:
    name: str
    columns: list[tuple[str, list[float]]]  # first column is x
    title: str
    ylim: tuple[float, float] | None = None

    @property
    def x(self) -> list[float]:
        return self.columns[0][1]


def grid(lo: float, hi: float, n: int) -> list[float]:
    """``n`` equally spaced points from lo to hi: the grid of the figures and
    ``compare``."""
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def sample(fn: Callable[[float], float], xs: Sequence[float]) -> list[float]:
    """``fn`` at each x as a float, NaN wherever it fails or is not finite;
    the one grid loop of the figures and ``compare``."""
    out = []
    for x in xs:
        try:
            v = float(fn(x))
        except (ArithmeticError, ValueError):  # DomainError is a ValueError
            v = math.nan
        if not math.isfinite(v):
            v = math.nan
        out.append(v)
    return out


def _approx_columns(name: str, f, approxes: Sequence[tuple[str, Callable]],
                    xs: Sequence[float]) -> list[tuple[str, list[float]]]:
    """Columns f, then each approximant and its error |A - f|, NaN where
    either side is NaN."""
    fx = sample(f, xs)
    cols = [(name, fx)]
    for label, approx in approxes:
        ax = sample(approx, xs)
        cols.append((label, ax))
        cols.append((f"err_{label}", [abs(a - b) for a, b in zip(ax, fx)]))
    return cols


# -- individual figures ------------------------------------------------------


# the figures of one grid, targets and kinds: per figure the grid (lo, hi,
# n), the targets (label t, text, kind parameters), the kinds (column label
# as a format of t and the parameters, kind), the title and the ylim; each
# target gives its column, then each kind its approximant of order 10 and
# the error
_EXP_SIN = [("exp", "exp(x)", {}), ("sin", "sin(x)", {})]
_MATCHED = {
    "besscos": ((-4 * math.pi, 4 * math.pi, 2001), [("sin", "sin(x)", {})],
                [("taylor10", "taylor"), ("nsbf10", "nsbf")],
                "sin(x): Taylor vs Neumann-Bessel, 10 derivatives matched", (-2.0, 2.0)),
    "exppoly": ((-6.0, 6.0, 1201), [("sin", "sin(x)", {}), ("arctan", "arctan(x)", {})],
                [("expw_{t}", "exp_weighted")],
                "exp(-x^2/2) polynomial expansion, 11 terms", (-2.0, 2.0)),
    "logpowers": ((-0.9, 4.0, 981), _EXP_SIN, [("log_powers_{t}", "log_powers")],
                  "powers of ln(x+1), 11 terms", (-3.0, 8.0)),
    "newpade": ((-0.9, 4.0, 981), _EXP_SIN, [("rational_x_over_x1_{t}", "rational_x_over_x1")],
                "powers of x/(x+1), 11 terms", (-3.0, 8.0)),
    **{f"inargpow-{sub}": ((-0.95, 0.95, 951), [_EXP_SIN[0], ("sin5x", "sin(5*x)", {})],
                           [(f"{kind}_{{t}}", kind)],
                           f"sum a_n g(x^n) approximation ({kind}), 10 terms", (-3.0, 3.0))
       for sub, kind in (("b", "dirichlet_g"), ("c", "dirichlet_rat1"), ("d", "dirichlet_rat2"))},
    "nonlin": ((-2.0, 2.0, 801), [("exp", "exp(x)", {"lam": "ln"}),
                                  ("cos", "cos(x)", {"lam": "sqrt"}),
                                  ("arctan", "arctan(x)", {"lam": "cube"})],
               [("nl_{lam}_{t}", "nonlinear")],
               "nonlinear delta approximation, 11 terms", (-3.0, 8.0)),
}


def _fig_matched(name: str) -> FigureData:
    span, targets, kinds, title, ylim = _MATCHED[name]
    xs = grid(*span)
    cols = [("x", xs)]
    for t, text, params in targets:
        f = exprs.parse(text)
        approxes = [(label.format(t=t, **params), build_kind(kind, f, 10, **params).approximant)
                    for label, kind in kinds]
        cols += _approx_columns(t, f, approxes, xs)
    return FigureData(name, cols, title, ylim=ylim)


def _fig_legout() -> FigureData:
    xs = grid(-1.8, 1.8, 901)
    cols = [("x", xs)]
    for label, text in (("exp", "exp(x)"), ("cos", "cos(x)")):
        f = exprs.parse(text)
        approx = legendre_fourier_approx(f, 8)
        fx = sample(f, xs)
        ax = sample(approx, xs)
        cols.append((label, fx))
        cols.append((f"lf8_{label}", ax))
        cols.append((f"err_{label}", [abs(a - b) for a, b in zip(ax, fx)]))
    return FigureData("legout", cols,
                      "Legendre-Fourier matching beyond (-1,1), order 8",
                      ylim=(-3.0, 7.0))


def _fig_inargpow_a() -> FigureData:
    xs = grid(-0.99, 0.99, 991)
    g = [xp.moebius_G_eval(x, 4096).value for x in xs]
    return FigureData("inargpow-a", [("x", xs), ("G", g)],
                      "Moebius ordinary generating function G(x)")


def _fig_pprime() -> FigureData:
    xs = grid(-3.0, 3.0, 1201)
    rows = [xp.prime_indicator_eval(x) for x in xs]
    cols = [("x", xs)]
    for k, label in enumerate(("P", "dP", "d2P", "d3P")):
        cols.append((label, [row[k] for row in rows]))
    return FigureData("pprime", cols, "P(x) and derivatives (prime sieve at 0)",
                      ylim=(-3.0, 8.0))


def _fig_ws(preset: str) -> FigureData:
    systems = ws_node_systems()
    system = systems[preset]
    f = system.test_function
    orders = (20, 100) if preset in ("ws-c", "ws-e") else (20,)
    nodes20 = [xn for _, xn in system.nodes(20)]
    lo, hi = min(nodes20), max(nodes20)
    pad = 0.08 * (hi - lo)
    if preset == "ws-d":
        lo, hi, pad = -1.2, 1.2, 0.0
    if preset == "ws-e":
        lo, hi, pad = -0.999, 0.999, 0.0
    xs = grid(lo - pad, hi + pad, 1001)
    approxes = [(f"ws{n_max}", ws_build(system, value_chars(f, system, n_max), n_max))
                for n_max in orders]
    cols = [("x", xs)] + _approx_columns("f", f, approxes, xs)
    return FigureData(preset, cols,
                      f"generalized sampling interpolation, preset {preset[-1]}",
                      ylim=None)


_FIGURE_BUILDERS: dict[str, Callable[[], FigureData]] = {
    "besscos": partial(_fig_matched, "besscos"),
    "legout": _fig_legout,
    "exppoly": partial(_fig_matched, "exppoly"),
    "logpowers": partial(_fig_matched, "logpowers"),
    "newpade": partial(_fig_matched, "newpade"),
    "inargpow-a": _fig_inargpow_a,
    "inargpow-b": partial(_fig_matched, "inargpow-b"),
    "inargpow-c": partial(_fig_matched, "inargpow-c"),
    "inargpow-d": partial(_fig_matched, "inargpow-d"),
    "pprime": _fig_pprime,
    "nonlin": partial(_fig_matched, "nonlin"),
    **{f"ws-{sub}": partial(_fig_ws, f"ws-{sub}") for sub in "abcdef"},
}

_FIGURE_ALIASES = {"inargpow": "inargpow-b", "ws": "ws-e"}

FIGURES = tuple(_FIGURE_BUILDERS)


def build_figure(name: str) -> FigureData:
    key = _FIGURE_ALIASES.get(name, name)
    builder = _FIGURE_BUILDERS.get(key)
    if builder is None:
        raise DomainError(f"unknown figure name {name!r}")
    return builder()


def render_csv(fig: FigureData) -> str:
    """One header line, then one line per x with every column's float to 17
    significant digits (``nan``, ``inf``, ``-0`` as Python prints them)."""
    labels = [label for label, _ in fig.columns]
    row = ",".join(["%.17g"] * len(labels)) + "\n"
    rows = map(row.__mod__, zip(*(values for _, values in fig.columns)))
    return ",".join(labels) + "\n" + "".join(rows)


def render_svg(fig: FigureData) -> str:
    series = [(label, values) for label, values in fig.columns[1:]
              if not label.startswith("err_")]
    return line_plot_svg(fig.x, series, title=fig.title, ylim=fig.ylim)
