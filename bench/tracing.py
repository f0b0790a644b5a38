"""Layer tracing from outside the program.

The tracer wraps the public entry points of the ``charmatch`` modules by
``setattr`` on module and class attributes.  Names that a module imported
directly (``from .registry import build_kind``) or stored in a table
(``_G_BASIS[...]["eval"] = specfun.lambert_w0``) are rebound wherever the
original object appears, so no call slips past a wrapper.

Span boundaries record (name, start, end, parent, case id) in memory.  The
per-point hot calls, of which there are hundreds of thousands, only get
counters and busy time.  Every boundary gets self time: its duration minus
the time of the boundaries nested directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# specfun.bessel_j sums in extended precision above this |x|
BESSEL_MP_CUTOFF = 6.0

COEFF_MAPS = ("taylor_coeffs", "nsbf_coeffs", "pade_solve", "pow_sine_coeffs",
              "exp_weighted_coeffs", "powers_of_g_coeffs", "rational_x1_coeffs",
              "dirichlet_expansion_coeffs")
INTEGRAL_BUILDERS = ("moments_compute", "legendre_moment_match", "fourier_approx",
                     "legendre_fourier_approx", "higher_integral_chars",
                     "higher_integral_approx", "bernoulli_chars", "bernoulli_approx")


@dataclass(frozen=True)
class Boundary:
    """A layer boundary: the metric name, what it wraps and where it must act."""

    name: str
    module: str  # charmatch submodule owning the wrapped attributes
    attrs: tuple  # attribute names on the module, or on ``cls``
    hot: bool = False  # counters only, no spans
    extras: tuple = ()  # reported stats beyond calls and busy_s
    workloads: tuple = ()  # workloads on which calls must be nonzero
    cls: str | None = None


ALL = ("grid", "roundtrip_exact", "roundtrip_float")
RT = ("roundtrip_exact", "roundtrip_float")

BOUNDARIES = (
    Boundary("cli.main", "cli", ("main",), extras=("self_s",), workloads=("grid",)),
    Boundary("exprs.parse", "exprs", ("parse",), workloads=ALL),
    Boundary("matching.derivative_chars", "matching", ("derivative_chars",), workloads=RT),
    Boundary("expansions.coeffs", "expansions", COEFF_MAPS, workloads=RT),
    Boundary("registry.build_kind", "registry", ("build_kind",), extras=("self_s",),
             workloads=RT),
    Boundary("matching.verify_matching", "matching", ("verify_matching",),
             extras=("failed",), workloads=RT),
    Boundary("jets.mul", "jets", ("__mul__", "__rmul__"), hot=True, cls="Jet",
             workloads=("roundtrip_exact",)),
    Boundary("approx.eval", "matching", ("__call__",), hot=True, cls="Approximant",
             extras=("self_s", "failed"), workloads=("grid",)),
    Boundary("specfun.bessel_j", "specfun", ("bessel_j",), hot=True,
             extras=("mp_share",), workloads=("grid",)),
    Boundary("specfun.lambert_w0", "specfun", ("lambert_w0",), hot=True,
             workloads=("grid",)),
    Boundary("expansions.moebius_G_eval", "expansions", ("moebius_G_eval",), hot=True,
             extras=("calls_per_point",), workloads=("grid",)),
    Boundary("expansions.dex_eval", "expansions", ("dex_eval",), hot=True,
             workloads=("grid",)),
    Boundary("quadrature.integrate", "quadrature", ("integrate",), hot=True,
             cls="GaussLegendre", workloads=("roundtrip_float", "grid")),
    Boundary("integral_match.build", "integral_match", INTEGRAL_BUILDERS,
             extras=("self_s",), workloads=RT),
    Boundary("interp.build", "interp", ("value_chars", "ws_build"), workloads=("grid",)),
    Boundary("figures.build_figure", "figures", ("build_figure",), extras=("self_s",),
             workloads=("grid",)),
    Boundary("figures.render", "figures", ("render_csv", "render_svg"), extras=("bytes",),
             workloads=("grid",)),
)

# bench-level stats of the traced run
BENCH_STATS = ("bench.case.calls", "bench.case.busy_s", "bench.trace.overhead_s",
               "bench.trace.overhead_share", "bench.trace.uncovered")


def metric_names() -> list[str]:
    names = []
    for b in BOUNDARIES:
        names += [f"{b.name}.calls", f"{b.name}.busy_s"]
        names += [f"{b.name}.{extra}" for extra in b.extras]
    return names + list(BENCH_STATS)


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    active: int = 0  # nesting depth, so recursion counts busy time once
    extra: dict = field(default_factory=dict)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str


class Tracer:
    """Installs wrappers, accumulates counters and spans, restores on exit."""

    def __init__(self):
        self.stats = {b.name: Stat() for b in BOUNDARIES}
        self.spans: list[Span] = []
        self.case_id = ""
        self.case_stat = Stat()  # whole cases
        self._frames: list[list] = []  # [start, child time] per open boundary
        self._open_spans: list[int] = []
        self._restore: list[tuple] = []
        self._adaptive_depth = 0
        self._points = 0

    # -- accounting -----------------------------------------------------------

    def _enter(self, stat: Stat) -> list:
        stat.calls += 1
        stat.active += 1
        frame = [time.perf_counter(), 0.0]
        self._frames.append(frame)
        return frame

    def _exit(self, stat: Stat, frame: list) -> float:
        end = time.perf_counter()
        self._frames.pop()
        stat.active -= 1
        dur = end - frame[0]
        stat.self_s += dur - frame[1]
        if stat.active == 0:
            stat.busy_s += dur
        if self._frames:
            self._frames[-1][1] += dur
        return end

    @contextlib.contextmanager
    def case(self, case_id: str):
        """Record one whole case as a span; its boundaries carry its id."""
        self.case_id = case_id
        frame = self._enter(self.case_stat)
        index = self._open_span("case", frame[0])
        try:
            yield
        finally:
            self._close_span(index, self._exit(self.case_stat, frame))

    def _open_span(self, name: str, start: float) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append(Span(name, start, 0.0, parent, self.case_id))
        index = len(self.spans) - 1
        self._open_spans.append(index)
        return index

    def _close_span(self, index: int, end: float) -> None:
        self._open_spans.pop()
        self.spans[index].end = end

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn):
        stat = self.stats[boundary.name]
        enter, leave = self._enter, self._exit
        post = self._post_hook(boundary, stat)
        pre = self._pre_hook(boundary, stat)

        if boundary.hot:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                if pre is not None:
                    pre(args)
                frame = enter(stat)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    stat.failed += 1
                    raise
                finally:
                    leave(stat, frame)
                return result
            return hot

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = enter(stat)
            index = self._open_span(boundary.name, frame[0])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.failed += 1
                raise
            finally:
                self._close_span(index, leave(stat, frame))
            if post is not None:
                post(result)
            return result
        return spanned

    def _pre_hook(self, boundary: Boundary, stat: Stat):
        if boundary.name == "specfun.bessel_j":
            stat.extra["mp_calls"] = 0

            def count_mp(args):
                if abs(float(args[1])) > BESSEL_MP_CUTOFF:
                    stat.extra["mp_calls"] += 1
            return count_mp
        if boundary.name == "expansions.moebius_G_eval":
            stat.extra["adaptive_calls"] = 0

            def count_adaptive(args):
                if self._adaptive_depth:
                    stat.extra["adaptive_calls"] += 1
            return count_adaptive
        return None

    def _post_hook(self, boundary: Boundary, stat: Stat):
        if boundary.name == "matching.verify_matching":
            def count_failed(report):
                if not report.passed:
                    stat.failed += 1
            return count_failed
        if boundary.name == "figures.render":
            stat.extra["bytes"] = 0

            def count_bytes(text):
                stat.extra["bytes"] += len(text.encode())
            return count_bytes
        return None

    def _wrap_adaptive(self, fn):
        # each _G_adaptive call evaluates G at one point; moebius_G_eval
        # calls beyond one per point are adaptive-doubling retries
        @functools.wraps(fn)
        def adaptive(*args, **kwargs):
            self._points += 1
            self._adaptive_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._adaptive_depth -= 1
        return adaptive

    # -- installation --------------------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if name == "charmatch" or name.startswith("charmatch.")]

    def _rebind(self, original, wrapped) -> None:
        """Replace ``original`` wherever a module global or table holds it."""
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)
                elif isinstance(value, dict):
                    self._rebind_dict(value, original, wrapped, depth=2)

    def _rebind_dict(self, table: dict, original, wrapped, depth: int) -> None:
        for key, value in list(table.items()):
            if value is original:
                self._restore.append((table, key, value, "item"))
                table[key] = wrapped
            elif depth > 1 and isinstance(value, dict):
                self._rebind_dict(value, original, wrapped, depth - 1)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr), "attr"))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import importlib

        # importers of directly imported names must be loaded before rebinding
        for name in ("cli", "figures", "integral_match", "interp", "registry"):
            importlib.import_module(f"charmatch.{name}")
        for boundary in BOUNDARIES:
            module = importlib.import_module(f"charmatch.{boundary.module}")
            if boundary.cls is None:
                for attr in boundary.attrs:
                    original = getattr(module, attr)
                    self._rebind(original, self._wrap(boundary, original))
                continue
            base = getattr(module, boundary.cls)
            for cls in [base] + _subclasses(base):
                for attr in boundary.attrs:
                    if attr in vars(cls):
                        self._set(cls, attr, self._wrap(boundary, vars(cls)[attr]))
        expansions = importlib.import_module("charmatch.expansions")
        adaptive = getattr(expansions, "_G_adaptive", None)
        if adaptive is not None:
            self._rebind(adaptive, self._wrap_adaptive(adaptive))
        return self

    def uninstall(self) -> None:
        for owner, key, value, how in reversed(self._restore):
            if how == "item":
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for b in BOUNDARIES:
            stat = self.stats[b.name]
            out[f"{b.name}.calls"] = (stat.calls, "count")
            out[f"{b.name}.busy_s"] = (stat.busy_s, "s")
            for extra in b.extras:
                out[f"{b.name}.{extra}"] = self._extra(b, stat, extra)
        return out

    def _extra(self, b: Boundary, stat: Stat, extra: str) -> tuple:
        if extra == "self_s":
            return stat.self_s, "s"
        if extra == "failed":
            return stat.failed, "count"
        if extra == "bytes":
            return stat.extra.get("bytes", 0), "bytes"
        if extra == "mp_share":
            return stat.extra.get("mp_calls", 0) / stat.calls if stat.calls else 0.0, "ratio"
        if extra == "calls_per_point":
            calls = stat.extra.get("adaptive_calls", 0)
            return calls / self._points if self._points else 0.0, "ratio"
        raise KeyError(extra)

    def uncovered(self, workload: str) -> list[str]:
        return [b.name for b in BOUNDARIES
                if workload in b.workloads and self.stats[b.name].calls == 0]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "case": s.case}) + "\n")


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
