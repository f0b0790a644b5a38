"""Command-line front end.

Subcommands::

    coeffs   print the coefficient table of an expansion
    verify   rebuild an approximant and verify the matching property
    figure   emit a named figure as CSV (+ SVG)
    compare  grid error norms for several expansions of one function

Exit codes: 0 ok/pass, 1 verification failure, 2 usage or domain error
(a value beyond the float range included), 3 family/kind mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

from . import exprs
from .errors import CharmatchError, DomainError, FamilyMismatchError
from .figures import FIGURES, build_figure, render_csv, render_svg, sample
from .interp import value_chars, ws_build, ws_node_systems
from .jets import Jet
from .matching import Approximant, Derivative, Moments, verify_matching
from .poly import is_exact
from .registry import KIND_NAMES, build_kind, normalize_kind

__all__ = ["main"]


class UsageError(CharmatchError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token after a flag that starts with a single dash (-1e-3, -1/2,
        # -1,1,11, -x^2) is that flag's value unless it names a flag itself;
        # argparse alone reads only plain decimals such as -1 or -0.5 so
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message):  # route argparse failures through exit code 2
        raise UsageError(message)


def _num(text: str):
    """Parse a numeric flag exactly when possible (keeps rational paths exact);
    NaN and infinities are refused."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"not a finite number: {text!r}")
    return value


def _pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'a,b', got {text!r}")
    return _num(parts[0]), _num(parts[1])


def _grid_spec(value) -> tuple:
    """'lo,hi,points' (a string, or a 3-element list from a config file) as
    (lo, hi, points) with finite lo < hi and an integer points >= 2."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        lo, hi, pts = parts
        lo, hi = float(lo), float(hi)
        pts = int(pts) if isinstance(pts, str) else pts
    except (TypeError, ValueError):
        pts = None
    if type(pts) is not int:
        raise UsageError(f"grid expects 'lo,hi,points' with an integer point count, "
                         f"got {value!r}")
    if pts < 2:
        raise UsageError("grid needs at least 2 points")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise UsageError("grid needs finite lo < hi")
    return lo, hi, pts


def _number(key: str, value):
    """A finite number: a flag's text through ``_num``, or an int, Fraction or
    float as the flag parser or a config file delivers it."""
    if isinstance(value, str):
        return _num(value)
    exact = isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    if exact or (isinstance(value, float) and math.isfinite(value)):
        return value
    raise UsageError(f"{key} must be a finite number, got {value!r}")


def _integer(key: str, value, low: int) -> int:
    if type(value) is not int or value < low:
        raise UsageError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _perturb(value) -> tuple:
    """IDX,DELTA (a string, or a 2-element list from a config file) as
    (int >= 0, finite float)."""
    parts = value.split(",") if isinstance(value, str) else value
    try:
        idx, delta = parts
        idx = int(idx) if isinstance(idx, str) else idx
        delta = float(delta) if isinstance(delta, str) else delta
        ok = (isinstance(parts, list) and type(idx) is int and idx >= 0
              and type(delta) in (int, float) and math.isfinite(delta))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise UsageError("perturb expects IDX,DELTA with an integer IDX >= 0 and "
                         f"a finite number DELTA, got {value!r}")
    return idx, float(delta)


_TEXT_KEYS = ("f", "kind", "preset", "lam", "csv", "svg", "json", "family")
# the nonlinear transforms a run may name, from a flag or a config file alike
_LAMBDAS = ("ln", "sqrt", "cube")
_CONFIG_KEYS = _TEXT_KEYS + ("order", "x0", "w", "q", "alpha", "interval", "grid",
                             "perturb")


def _config_value(key: str, value):
    """A flag or config-file value, checked as strictly for either source."""
    if key in _TEXT_KEYS:
        if not isinstance(value, str):
            raise UsageError(f"{key} must be a string, got {value!r}")
        if key == "lam" and value not in _LAMBDAS:
            raise UsageError(f"lam must be one of {', '.join(_LAMBDAS)}, got {value!r}")
        return value
    if key in ("x0", "w", "alpha"):
        return _number(key, value)
    if key == "interval":
        if isinstance(value, str):
            return _pair(value)
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise UsageError(f"interval expects 'a,b', got {value!r}")
        return tuple(_number(key, v) for v in value)
    if key == "grid":
        return value if isinstance(value, tuple) else _grid_spec(value)
    if key == "order":
        return _integer(key, value, 0)
    if key == "q":
        return _integer(key, value, 1)
    if key == "perturb":
        return _perturb(value)
    raise UsageError(f"unknown config key {key!r}")


@dataclass
class RunConfig:
    f: str | None = None
    kind: str | None = None
    order: int = 8
    x0: object = 0
    w: object = None
    q: int | None = None
    alpha: object = None
    interval: tuple | None = None
    grid: tuple | None = None
    preset: str | None = None
    lam: str | None = None
    csv: str | None = None
    svg: str | None = None
    json_path: str | None = None
    family: str | None = None
    perturb: tuple | None = None

    def expr(self) -> exprs.Expr:
        if not self.f:
            raise UsageError("--f EXPR is required")
        try:
            return exprs.parse(self.f)
        except exprs.ExprSyntaxError as exc:
            raise UsageError(f"cannot parse expression: {exc}") from exc

    def kind_params(self) -> dict:
        params = {"x0": self.x0}
        if self.w is not None:
            params["w"] = self.w
        if self.q is not None:
            params["q"] = self.q
        if self.alpha is not None:
            params["alpha"] = self.alpha
        if self.lam is not None:
            params["lam"] = self.lam
        return params


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        for path in args.config:
            try:
                file_data = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config {path}: {exc}") from exc
            if not isinstance(file_data, dict):
                raise UsageError(f"config {path} must hold a JSON object")
            data.update(file_data)
    for key in _CONFIG_KEYS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            data[key] = cli_val
    cfg = RunConfig()
    for key, value in data.items():
        setattr(cfg, "json_path" if key == "json" else key, _config_value(key, value))
    return cfg


def _format_number(v) -> str:
    if is_exact(v):
        try:
            return str(v)
        except ValueError:  # beyond the int-to-str digit limit: 17 digits
            v = Fraction(v)
            d = Context(prec=17).divide(Decimal(v.numerator), Decimal(v.denominator))
            return format(d.normalize(), ".17g")
    return f"{float(v):.17g}"


def _grid_points(cfg: RunConfig) -> list[float]:
    if cfg.grid is None:
        raise UsageError("--grid lo,hi,points is required")
    lo, hi, pts = cfg.grid
    return [lo + (hi - lo) * i / (pts - 1) for i in range(pts)]


class _CorruptedApproximant(Approximant):
    """Wrapper adding delta * (x - x0)^idx / idx! (negative-control testing)."""

    def __init__(self, inner: Approximant, x0, idx: int, delta: float):
        super().__init__(inner.coeffs, inner.center)
        self.inner = inner
        self.x0 = x0
        self.idx = idx
        self.delta = delta

    def __call__(self, x):
        bump = self.delta * (x - self.x0) ** self.idx / math.factorial(self.idx)
        return self.inner(x) + bump

    def eval_jet(self, x0, order: int) -> Jet:
        jet = self.inner.eval_jet(x0, order)
        var = (Jet.variable(x0, order) - self.x0) ** self.idx
        return jet + (self.delta / math.factorial(self.idx)) * var


def _build_for_config(cfg: RunConfig):
    if cfg.preset:
        systems = ws_node_systems()
        if cfg.preset not in systems:
            raise UsageError(f"unknown node-system preset {cfg.preset!r}")
        system = systems[cfg.preset]
        f = cfg.expr() if cfg.f else system.test_function
        if f is None:
            raise UsageError("this preset needs --f EXPR")
        chars = value_chars(f, system, cfg.order)
        approx = ws_build(system, chars, cfg.order)
        return chars, approx.coeffs, approx
    if not cfg.kind:
        raise UsageError("--kind NAME is required")
    try:
        normalize_kind(cfg.kind)
    except DomainError as exc:
        raise UsageError(f"unknown expansion kind {cfg.kind!r}") from exc
    return build_kind(cfg.kind, cfg.expr(), cfg.order, **cfg.kind_params())


def _cmd_coeffs(cfg: RunConfig) -> int:
    chars, coeffs, _ = _build_for_config(cfg)
    _print(f"kind: {coeffs.kind}")
    if coeffs.params:
        printable = {k: _format_number(v) if isinstance(v, (int, float, Fraction))
                     else str(v) for k, v in coeffs.params.items()
                     if k not in ("numerator", "denominator")}
        if printable:
            _print(f"params: {printable}")
    start = 1 if coeffs.kind.startswith("dirichlet") else 0
    _print(f"{'n':>4}  {'a_n':>24}  {'c_n':>24}")
    for i, a in enumerate(coeffs.values):
        n = i + start
        c = chars.values[n] if n < len(chars.values) else ""
        _print(f"{n:>4}  {_format_number(a):>24}  "
              f"{_format_number(c) if c != '' else '':>24}")
    if coeffs.kind.startswith("dirichlet"):
        _print(f"b0: {_format_number(coeffs.params['b0'])}")
    if cfg.json_path:
        payload = {
            "kind": coeffs.kind,
            "order": cfg.order,
            "a": [_format_number(v) for v in coeffs.values],
            "c": [_format_number(v) for v in chars.values],
        }
        Path(cfg.json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    chars, _, approx = _build_for_config(cfg)
    if cfg.perturb is not None:
        idx, delta = cfg.perturb
        x0 = cfg.x0 if not cfg.preset else 0
        approx = _CorruptedApproximant(approx, x0, idx, delta)
    if cfg.family:
        chars = _override_family(cfg, approx, chars)
    report = verify_matching(approx, chars)
    _print(report.to_json(indent=2))
    if cfg.json_path:
        Path(cfg.json_path).write_text(report.to_json(indent=2) + "\n")
    return 0 if report.passed else 1


def _override_family(cfg: RunConfig, approx, chars):
    from .matching import CharNumbers, measure

    name = cfg.family
    if name == "derivative":
        family = Derivative(cfg.x0)
    elif name == "moments":
        a, b = cfg.interval or (-1, 1)
        family = Moments(a, b)
    else:
        raise UsageError(f"unknown family override {name!r}")
    f = cfg.expr()
    orders = family.orders(cfg.order + 1)
    values = measure(f, family, orders)
    return CharNumbers(tuple(values), family)


def _cmd_figure(cfg: RunConfig, name: str) -> int:
    try:
        fig = build_figure(name)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    csv_path = Path(cfg.csv) if cfg.csv else Path(f"{fig.name}.csv")
    csv_path.write_text(render_csv(fig))
    svg_path = Path(cfg.svg) if cfg.svg else Path(f"{fig.name}.svg")
    svg_path.write_text(render_svg(fig))
    _print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_compare(cfgs: list[RunConfig]) -> int:
    if len(cfgs) < 2:
        raise UsageError("compare needs at least two configurations")
    base = cfgs[0]
    if base.grid is None or not base.f:
        raise UsageError("compare needs --f and --grid")
    for other in cfgs[1:]:
        if other.f != base.f:
            raise UsageError("compared configurations must share the function")
        if other.grid != base.grid:
            raise UsageError("compared configurations must share the grid")
    # the errors are taken where f is finite, and there only
    grid = _grid_points(base)
    f = base.expr()
    points = [(x, fv) for x, fv in zip(grid, sample(f, grid)) if not math.isnan(fv)]
    if not points:
        float(f(grid[0]))  # the error of f itself says why, where it raises one
        raise UsageError("the function is finite at no grid point")
    xs, fx = zip(*points)
    _print(f"{'kind':>22}  {'max_abs_err':>14}  {'l2_err':>14}")
    rows = []
    for cfg in cfgs:
        _, _, approx = _build_for_config(cfg)
        # a point where the approximant fails counts as an infinite error
        errs = [math.inf if math.isnan(av) else abs(av - fv)
                for av, fv in zip(sample(approx, xs), fx)]
        max_err = max(errs)
        finite = [e for e in errs if math.isfinite(e)]
        l2 = math.sqrt(sum(e * e for e in finite) / len(finite)) if finite else math.inf
        label = cfg.kind or cfg.preset or "?"
        rows.append({"kind": label, "max_abs_err": max_err, "l2_err": l2})
        _print(f"{label:>22}  {max_err:>14.6e}  {l2:>14.6e}")
    if base.json_path:
        Path(base.json_path).write_text(json.dumps(rows, indent=2) + "\n")
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--f", help="function expression, e.g. 'sin(5*x)'")
    parser.add_argument("--kind", help=f"expansion kind: {', '.join(KIND_NAMES)}")
    parser.add_argument("--order", type=int, help="expansion order N (default 8)")
    parser.add_argument("--x0", type=_num, help="expansion point (default 0)")
    parser.add_argument("--w", type=_num, help="exp-weighted w parameter")
    parser.add_argument("--q", type=int, help="exp-weighted q parameter")
    parser.add_argument("--alpha", type=_num, help="pole location for rational kinds")
    parser.add_argument("--interval", type=_pair, help="interval a,b")
    parser.add_argument("--grid", type=_grid_spec, help="grid lo,hi,points")
    parser.add_argument("--preset", help="node-system preset ws-a..ws-f")
    parser.add_argument("--lambda", dest="lam", choices=_LAMBDAS,
                        help="nonlinear transform")
    parser.add_argument("--csv", help="CSV output path")
    parser.add_argument("--svg", help="SVG output path")
    parser.add_argument("--json", help="JSON output path")
    parser.add_argument("--family", help="verification family override")
    parser.add_argument("--perturb", help="IDX,DELTA coefficient corruption (testing)")
    parser.add_argument("--config", action="append",
                        help="JSON config file (flags override)")


def _build_cli() -> _Parser:
    parser = _Parser(prog="charmatch",
                     description="characteristic-number matching toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("coeffs", "verify", "compare"):
        p = sub.add_parser(name)
        _add_common(p)
    p = sub.add_parser("figure")
    p.add_argument("name", help=f"one of: {', '.join(FIGURES)} (or inargpow, ws)")
    _add_common(p)
    return parser


def _pipe_safe(write, *args) -> None:
    """``write(*args)`` on stdout, which its reader may close early
    (``charmatch ... | head``).  Then, as the SIGPIPE note of the ``signal``
    docs describes, the rest of the output goes to devnull, so that neither
    later writes nor the flush at exit raise, and the command keeps its own
    exit code."""
    try:
        write(*args)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print(text: str) -> None:
    _pipe_safe(print, text)


def main(argv: list[str] | None = None) -> int:
    code = _run(argv)
    _pipe_safe(sys.stdout.flush)
    return code


def _run(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_cli()
    try:
        args = parser.parse_args(argv)
        if args.command == "compare":
            cfgs = []
            if args.config:
                for path in args.config:
                    ns = argparse.Namespace(**vars(args))
                    ns.config = [path]
                    cfgs.append(_merge_config(ns))
            else:
                kinds = (args.kind or "").split(",") if args.kind else []
                if len(kinds) < 2:
                    raise UsageError(
                        "compare needs --config twice or --kind k1,k2[,...]")
                for kind in kinds:
                    ns = argparse.Namespace(**vars(args))
                    ns.kind = kind.strip()
                    ns.config = None
                    cfgs.append(_merge_config(ns))
            return _cmd_compare(cfgs)
        cfg = _merge_config(args)
        if args.command == "coeffs":
            return _cmd_coeffs(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        if args.command == "figure":
            return _cmd_figure(cfg, args.name)
        raise UsageError(f"unknown command {args.command!r}")
    except FamilyMismatchError as exc:
        print(f"error: family mismatch: {exc}", file=sys.stderr)
        return 3
    except CharmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # an exact number met a float beyond its range
        print(f"error: a value lies beyond the float range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
