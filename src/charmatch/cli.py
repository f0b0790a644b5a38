"""Command-line front end.

Subcommands::

    coeffs   print the coefficient table of an expansion
    verify   rebuild an approximant and verify the matching property
    figure   emit a named figure as CSV (+ SVG)
    compare  grid error norms for several expansions of one function

Each command takes only the settings it reads (``_READS``) and refuses the
rest, as a flag or as a config-file key.  So does a configuration's builder:
a kind reads f, order, kind, x0 and its own parameters (``kind_params``), a
preset f, order and preset.  ``compare --kind k1,k2,...`` gives a kind
parameter to the listed kinds that read it, and refuses it if none does.

Exit codes: 0 ok/pass, 1 verification failure, 2 usage or domain error
(a refused setting, an output file that cannot be written or a value
beyond the float range included), 3 family/kind mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import exprs
from .errors import CharmatchError, DomainError, FamilyMismatchError
from .figures import FIGURES, build_figure, grid, render_csv, render_svg, sample
from .interp import value_chars, ws_build, ws_node_systems
from .jets import Jet
from .matching import (NONLINEAR_TRANSFORMS, Approximant, CharNumbers, Derivative, Moments,
                       verify_matching)
from .poly import is_exact
from .registry import KIND_NAMES, KINDS, build_kind, kind_params

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


# Each check below reads a setting's value, as a flag's text or as a config
# file's JSON value alike, and returns it checked and converted.


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{key} must be a string, got {value!r}")
    return value


def _one_of(names: tuple):
    def check(key: str, value) -> str:
        if _text(key, value) not in names:
            raise UsageError(f"{key} must be one of {', '.join(names)}, got {value!r}")
        return value

    return check


def _number(key: str, value):
    """A finite number: text read exactly where it can be (keeps rational paths
    exact), or a JSON int or float; NaN and infinities are refused."""
    if isinstance(value, str):
        exprs.check_digits(value, key)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            try:
                value = float(value)
            except ValueError:
                raise UsageError(f"{key} is not a number: {value!r}") from None
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    raise UsageError(f"{key} must be a finite number, got {value!r}")


def _integer(low: int):
    def check(key: str, value) -> int:
        if isinstance(value, str):  # read as int() reads it: '+5' and ' 5' are 5
            with contextlib.suppress(ValueError):
                value = int(value)
        if type(value) is not int or value < low:
            raise UsageError(f"{key} must be an integer >= {low}, got {value!r}")
        return value

    return check


def _fields(what: str, *checks):
    """A list setting: text 'v1,v2,...' or a JSON list, one value per check,
    each read by its check."""
    def check(key: str, value) -> tuple:
        parts = value.split(",") if isinstance(value, str) else value
        if not (isinstance(parts, list) and len(parts) == len(checks)):
            raise UsageError(f"{key} expects {what}, got {value!r}")
        return tuple(read(key, part) for read, part in zip(checks, parts))

    return check


def _float(key: str, value) -> float:
    """A ``_number`` as a float; one beyond the float range is refused."""
    with contextlib.suppress(OverflowError):
        return float(_number(key, value))
    raise UsageError(f"{key} lies beyond the float range, got {value!r}")


def _interval(key: str, value) -> tuple:
    """'a,b' as (a, b) with a != b: over an empty interval every integral is
    0, so any approximant would match."""
    a, b = _fields("'a,b'", _number, _number)(key, value)
    if a == b:
        raise UsageError(f"{key} needs a != b, got {value!r}")
    return a, b


def _grid_spec(key: str, value) -> tuple:
    """'lo,hi,points' as (lo, hi, points) with float lo < hi and points >= 2."""
    lo, hi, pts = _fields("'lo,hi,points'", _float, _float, _integer(2))(key, value)
    if not hi > lo:
        raise UsageError(f"{key} needs lo < hi, got {value!r}")
    return lo, hi, pts


class _Setting(NamedTuple):
    flag: str
    default: object
    check: Callable[[str, object], object]
    help: str


# identity is left out: with it, the nonlinear kind is the taylor kind
_LAMBDAS = tuple(name for name in NONLINEAR_TRANSFORMS if name != "identity")

# every run setting, once; its key is also its config-file key
_SETTINGS = {
    "f": _Setting("--f", None, _text, "function expression, e.g. 'sin(5*x)'"),
    "kind": _Setting("--kind", None, _text, f"expansion kind: {', '.join(KIND_NAMES)}"),
    "order": _Setting("--order", 8, _integer(0), "expansion order N (default 8)"),
    "x0": _Setting("--x0", None, _number, "expansion point (default 0)"),
    "w": _Setting("--w", None, _number, "exp-weighted w parameter"),
    "q": _Setting("--q", None, _integer(1), "exp-weighted q parameter"),
    "alpha": _Setting("--alpha", None, _number, "pole location for rational kinds"),
    "lam": _Setting("--lambda", None, _one_of(_LAMBDAS),
                    f"nonlinear transform: {', '.join(_LAMBDAS)}"),
    "preset": _Setting("--preset", None, _text, "node-system preset ws-a..ws-f"),
    "json": _Setting("--json", None, _text, "JSON output path"),
    "family": _Setting("--family", None, _one_of(("derivative", "moments")),
                       "verification family override: derivative, moments"),
    "interval": _Setting("--interval", None, _interval,
                         "moments interval a,b (default -1,1)"),
    "perturb": _Setting("--perturb", None, _fields("IDX,DELTA", _integer(0), _float),
                        "IDX,DELTA coefficient corruption (testing)"),
    "grid": _Setting("--grid", None, _grid_spec, "grid lo,hi,points"),
    "csv": _Setting("--csv", None, _text, "CSV output path"),
    "svg": _Setting("--svg", None, _text, "SVG output path"),
}
# the settings a kind may read besides f, order and kind
_KIND_SETTINGS = ("x0", *dict.fromkeys(key for _, params in KINDS.values() for key in params))
# the settings that build an approximant
_BUILD = ("f", "kind", "order", *_KIND_SETTINGS, "preset")
# the settings each command reads; it refuses every other one
_READS = {
    "coeffs": _BUILD + ("json",),
    "verify": _BUILD + ("json", "family", "interval", "perturb"),
    "compare": _BUILD + ("grid", "json"),
    "figure": ("csv", "svg"),
}


def _settings(command: str, flags: dict, paths: list[str]) -> SimpleNamespace:
    """The settings of one run: the defaults, then each config file in turn,
    then the flags, each value through its setting's check."""
    data: dict = {}
    for path in paths:
        try:
            file_data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # JSON, UTF-8 and int-digit errors
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(file_data, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        data.update(file_data)
    data.update((key, flags[key]) for key in _READS[command] if flags[key] is not None)
    cfg = SimpleNamespace(**{key: s.default for key, s in _SETTINGS.items()})
    for key, value in data.items():
        if key not in _SETTINGS:
            raise UsageError(f"unknown config key {key!r}")
        if key not in _READS[command]:
            raise UsageError(f"{command} does not read {key!r}")
        if key not in _KIND_SETTINGS:
            setattr(cfg, key, _SETTINGS[key].check(key, value))
    if cfg.interval is not None and cfg.family != "moments":
        raise UsageError("interval is read only with family moments")
    if cfg.preset or cfg.kind:  # with neither, the build says that a kind is required
        builder, reads = _builder(cfg)
        for key in _BUILD:
            if key in data and key not in reads:
                raise UsageError(f"{builder} and {_SETTINGS[key].flag} do not combine: {builder} "
                                 f"reads only {', '.join(_SETTINGS[k].flag for k in reads)}")
    # a kind's own settings are checked once it is known to read them
    for key in _KIND_SETTINGS:
        if key in data:
            setattr(cfg, key, _SETTINGS[key].check(key, data[key]))
    return cfg


def _builder(cfg: SimpleNamespace) -> tuple[str, tuple]:
    """The builder a configuration names and the build settings it reads."""
    if cfg.preset:  # a preset builds its own approximant
        return "--preset", ("f", "order", "preset")
    return f"--kind {cfg.kind}", ("f", "order", "kind", "x0", *kind_params(cfg.kind))


def _compare_settings(flags: dict) -> list[SimpleNamespace]:
    """The configurations of ``compare --kind k1,k2,...``: one per kind, each
    with the kind settings that its kind reads."""
    kinds = [kind.strip() for kind in flags["kind"].split(",")] if flags["kind"] else []
    if len(kinds) < 2:
        raise UsageError("compare needs --config twice or --kind k1,k2[,...]")
    reads = [("x0", *kind_params(kind)) for kind in kinds]
    for key in _KIND_SETTINGS:
        if flags[key] is not None and not any(key in r for r in reads):
            raise UsageError(f"--kind {flags['kind']} and {_SETTINGS[key].flag} do not "
                             "combine: no listed kind reads it")
    return [_settings("compare", flags | {"kind": kind}
                      | {key: None for key in _KIND_SETTINGS if key not in r}, [])
            for kind, r in zip(kinds, reads)]


def _expr(cfg: SimpleNamespace) -> exprs.Expr:
    if not cfg.f:
        raise UsageError("--f EXPR is required")
    try:
        return exprs.parse(cfg.f)
    except exprs.ExprSyntaxError as exc:
        raise UsageError(f"cannot parse expression: {exc}") from exc


def _format_number(v) -> str:
    if is_exact(v):
        try:
            return str(v)
        except ValueError:  # beyond the int-to-str digit limit: 17 digits
            return format(_digits17(Fraction(v)), ".17g")
    return f"{float(v):.17g}"


# 40 digits with an exponent range that holds any exact number: a rounding
# of v = num / den from the top 128 bits of each, off by well under 1e-30
_APPROX = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)
_ROUND17 = Context(prec=17, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
_LOWER, _UPPER = _APPROX.subtract(1, Decimal("1e-30")), _APPROX.add(1, Decimal("1e-30"))


def _digits17(v: Fraction) -> Decimal:
    """The nonzero ``v`` rounded half to even to 17 significant digits, with
    no trailing zeros.  Rounding is monotone, so when both ends of a short
    approximation's error interval round alike, v rounds to the same
    (Ziv's strategy); only a v within 1e-30 of a rounding boundary takes the
    exact ``_digits17_exact``."""
    num, den = abs(v.numerator), v.denominator
    num_shift, den_shift = max(num.bit_length() - 128, 0), max(den.bit_length() - 128, 0)
    approx = _APPROX.multiply(_APPROX.divide(num >> num_shift, den >> den_shift),
                              _APPROX.power(2, num_shift - den_shift))
    low = _ROUND17.plus(_APPROX.multiply(approx, _LOWER))
    if low != _ROUND17.plus(_APPROX.multiply(approx, _UPPER)):
        return _digits17_exact(v)
    low = low.normalize(_ROUND17)
    return low.copy_negate() if v < 0 else low


def _digits17_exact(v: Fraction) -> Decimal:
    """``_digits17`` on integers: the decimal exponent from ``math.log10``,
    corrected by comparison, and one ``divmod`` by a power of ten."""
    num, den = abs(v.numerator), v.denominator
    e = math.floor(math.log10(num) - math.log10(den)) - 16
    while True:  # v = (q + r / d) * 10^e with 10^16 <= q < 10^17
        d = den * 10 ** max(e, 0)
        q, r = divmod(num * 10 ** max(-e, 0), d)
        if q < 10 ** 16:
            e -= 1
        elif q >= 10 ** 17:
            e += 1
        else:
            break
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    while q % 10 == 0:
        q, e = q // 10, e + 1
    return Decimal(f"{'-' if v < 0 else ''}{q}e{e}")


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


def _build_for_config(cfg: SimpleNamespace):
    # an inf or a nan among the numbers built is a value beyond the float range
    if cfg.preset:
        systems = ws_node_systems()
        if cfg.preset not in systems:
            raise UsageError(f"unknown node-system preset {cfg.preset!r}")
        system = systems[cfg.preset]
        f = _expr(cfg) if cfg.f else system.test_function
        if f is None:
            raise UsageError("this preset needs --f EXPR")
        chars = value_chars(f, system, cfg.order)
        approx = ws_build(system, chars, cfg.order)
        built = chars, approx.coeffs, approx
    elif cfg.kind:
        params = {key: value for key in _KIND_SETTINGS if (value := getattr(cfg, key)) is not None}
        built = build_kind(cfg.kind, _expr(cfg), cfg.order, **params)
    else:
        raise UsageError("--kind NAME is required")
    for name, seq in zip(("characteristic number", "coefficient"), built):
        if bad := [v for v in seq.values if not (is_exact(v) or math.isfinite(v))]:
            raise DomainError(f"a {name} is {bad[0]}: a value lies beyond the float range")
    return built


def _cmd_coeffs(cfg: SimpleNamespace) -> int:
    chars, coeffs, approx = _build_for_config(cfg)
    _print(f"kind: {coeffs.kind}")
    if coeffs.params:
        printable = {k: _format_number(v) if isinstance(v, (int, float, Fraction))
                     else str(v) for k, v in coeffs.params.items()}
        _print(f"params: {printable}")
    _print(f"{'n':>4}  {'a_n':>24}  {'c_n':>24}")
    for n, a in enumerate(coeffs.values, approx.first_index):
        c = chars.values[n] if n < len(chars.values) else ""
        _print(f"{n:>4}  {_format_number(a):>24}  "
              f"{_format_number(c) if c != '' else '':>24}")
    if cfg.json:
        payload = {
            "kind": coeffs.kind,
            "order": cfg.order,
            "a": [_format_number(v) for v in coeffs.values],
            "c": [_format_number(v) for v in chars.values],
        }
        _write(cfg.json, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_verify(cfg: SimpleNamespace) -> int:
    chars, _, approx = _build_for_config(cfg)
    if cfg.perturb is not None:
        idx, delta = cfg.perturb
        x0 = 0 if cfg.x0 is None else cfg.x0
        approx = _CorruptedApproximant(approx, x0, idx, delta)
    if cfg.family:
        chars = _override_family(cfg)
    report = verify_matching(approx, chars)
    _print(report.to_json(indent=2))
    if cfg.json:
        _write(cfg.json, report.to_json(indent=2) + "\n")
    return 0 if report.passed else 1


def _override_family(cfg: SimpleNamespace) -> CharNumbers:
    if cfg.family == "derivative":
        family = Derivative(0 if cfg.x0 is None else cfg.x0)
    else:
        family = Moments(*(cfg.interval or (-1, 1)))
    return family.chars(_expr(cfg), cfg.order + 1)


def _cmd_figure(cfg: SimpleNamespace, name: str) -> int:
    try:
        fig = build_figure(name)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    csv_path = Path(cfg.csv) if cfg.csv else Path(f"{fig.name}.csv")
    _write(csv_path, render_csv(fig))
    svg_path = Path(cfg.svg) if cfg.svg else Path(f"{fig.name}.svg")
    _write(svg_path, render_svg(fig))
    _print(f"wrote {csv_path} and {svg_path}")
    return 0


def _rms(errs: list) -> float:
    """The root mean square of the finite ``errs``, inf for none, by a += loop (the
    builtin sum is compensated from Python 3.12 on), of the errors scaled by the
    largest one where their plain squares overflow or the largest is subnormal."""
    big = max(errs, default=math.inf)
    for scale in (1.0, big):
        squares = 0.0
        for r in (e / scale for e in errs):
            squares += r * r
        if squares < math.inf and not 0 < big < 2.0 ** -511:
            break
    return scale * math.sqrt(squares / len(errs)) if errs else math.inf


def _cmd_compare(cfgs: list[SimpleNamespace]) -> int:
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
    xs = grid(*base.grid)
    f = _expr(base)
    points = [(x, fv) for x, fv in zip(xs, sample(f, xs)) if not math.isnan(fv)]
    if not points:
        float(f(xs[0]))  # the error of f itself says why, where it raises one
        raise UsageError("the function is finite at no grid point")
    xs, fx = zip(*points)
    # a configuration that cannot be built fails the command before any row
    approxes = [_build_for_config(cfg)[2] for cfg in cfgs]
    _print(f"{'kind':>22}  {'max_abs_err':>14}  {'l2_err':>14}")
    rows = []
    for cfg, approx in zip(cfgs, approxes):
        # a point where the approximant fails counts as an infinite error
        errs = [math.inf if math.isnan(av) else abs(av - fv)
                for av, fv in zip(sample(approx, xs), fx)]
        max_err = max(errs)
        l2 = _rms([e for e in errs if math.isfinite(e)])
        label = cfg.kind or cfg.preset or "?"
        rows.append({"kind": label, "max_abs_err": max_err, "l2_err": l2})
        _print(f"{label:>22}  {max_err:>14.6e}  {l2:>14.6e}")
    if base.json:
        _write(base.json, json.dumps(rows, indent=2) + "\n")
    return 0


def _write(path, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_cli() -> _Parser:
    parser = _Parser(prog="charmatch",
                     description="characteristic-number matching toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _READS.items():
        p = sub.add_parser(command)
        if command == "figure":
            p.add_argument("name", help=f"one of: {', '.join(FIGURES)} (or inargpow, ws)")
        for key in keys:
            p.add_argument(_SETTINGS[key].flag, dest=key, help=_SETTINGS[key].help)
        p.add_argument("--config", action="append",
                       help="JSON config file (flags override)")
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
        flags = vars(args)
        if args.command == "compare":
            return _cmd_compare([_settings("compare", flags, [path]) for path in args.config]
                                if args.config else _compare_settings(flags))
        cfg = _settings(args.command, flags, args.config or [])
        if args.command == "coeffs":
            return _cmd_coeffs(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        return _cmd_figure(cfg, args.name)
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
