"""charmatch benchmark: one workload, one seed, one closed-loop caller.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
run and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import os

# numpy's BLAS/OpenMP pools stay at one thread: the load is one process with
# one caller, and the machine is shared
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from gauge import Gauge, nominal_process_times

SETUP_PROBES = 7
# each case runs at least this often; its latency is its median repetition
MIN_REPEATS = 3
SPANS_DIR = wl.ROOT / ".bench_build" / "traces"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> None:
    """Child process: import the program and generate the inputs, nothing else."""
    wl.load_program()
    workload = wl.make_workload(args.workload, args.seed, Path("."))
    workload.build_pass()


def measure_setup(args) -> float:
    """Median time from process start to the first case, over fresh processes,
    at the gauge's reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    return statistics.median(nominal_process_times(cmd, SETUP_PROBES, wl.ROOT))


class Tally:
    """Outcomes and timings of every case run."""

    def __init__(self):
        # per case, per repetition: (measured seconds, start, end)
        self.timings: dict[wl.Case, list[tuple]] = {}
        self.measured_s = 0.0  # wall time inside cases, not scaled
        self.attempted = 0
        self.failed = 0  # cases that failed a check, known defects included
        # cases whose outcome differs from the seed commit's: wrong outputs
        self.unexpected: list[str] = []
        self.reasons: dict[str, int] = {}
        self.exact = 0
        self.zero = 0
        self.cells = 0
        self.nan_cells = 0

    def add(self, workload, case, timing: tuple, outcome: wl.Outcome) -> None:
        self.attempted += 1
        self.timings.setdefault(case, []).append(timing)
        self.measured_s += timing[0]
        self.exact += outcome.exact
        self.zero += outcome.zero
        self.cells += outcome.cells
        self.nan_cells += outcome.nan_cells
        if outcome.ok:
            return
        self.failed += 1
        self.reasons[outcome.reason] = self.reasons.get(outcome.reason, 0) + 1
        if not workload.expected_failure(case, outcome):
            self.unexpected.append(f"{case.id}: {outcome.reason} {outcome.detail}")

    def per_case(self, gauge=None) -> list[float]:
        """Each case's latency: the median over its repetitions, at the
        gauge's reference speed, or as measured without a gauge."""
        def latency(measured, start, end):
            return measured * gauge.factor(start, end) if gauge is not None else measured
        return [statistics.median(latency(*t) for t in reps)
                for reps in self.timings.values()]


def run_case(workload, case, tally: Tally, tracer=None, gauge=None) -> float:
    """Run and check one case; returns its measured wall time."""
    workload.before_case()
    result, error = None, None
    clock = gauge.clock if gauge is not None else time.perf_counter
    if gauge is not None:
        gauge.sample()
    with tracer.case(case.id) if tracer is not None else contextlib.nullcontext():
        start, t0 = time.perf_counter(), clock()
        try:
            result = workload.run(case)
        except Exception as exc:  # an in-domain case that raises is a failed case
            error = exc
        measured, end = clock() - t0, time.perf_counter()
    if gauge is not None:
        gauge.sample()
    if error is not None:
        outcome = wl.Outcome(False, f"raised {type(error).__name__}", str(error))
    else:
        try:
            outcome = workload.check(case, result)
        except Exception as exc:  # unreadable output counts against the case
            outcome = wl.Outcome(False, f"check raised {type(exc).__name__}", str(exc))
    tally.add(workload, case, (measured, start, end), outcome)
    return measured


def run_pass(workload, cases, tally: Tally, tracer=None, gauge=None) -> float:
    workload.before_pass()
    return sum(run_case(workload, case, tally, tracer, gauge) for case in cases)


def run_passes(workload, cases, seconds: float, tally: Tally, tracer=None, gauge=None,
               min_repeats: int = MIN_REPEATS) -> int:
    """Repeat the pass until both limits are met; returns the repetitions."""
    busy, repeats = 0.0, 0
    while repeats < min_repeats or busy < seconds:
        busy += run_pass(workload, cases, tally, tracer, gauge)
        repeats += 1
    return repeats


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles(n=100) does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally: Tally, setup_s: float, gauge) -> dict:
    per_case = tally.per_case(gauge)
    return {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (len(per_case) / sum(per_case), "1/s"),
        "case_p50_ms": (statistics.median(per_case) * 1e3, "ms"),
        "case_p95_ms": (quantile(per_case, 95) * 1e3, "ms"),
        "pass_share": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_lines(name: str, tally: Tally, metrics: dict, repeats: int,
                 gauge=None) -> list[str]:
    per_case = tally.per_case(gauge)
    n = len(per_case)
    lines = [f"workload {name}: {n} cases x {repeats} repetitions, "
             f"{tally.attempted} attempted, {len(tally.unexpected)} failed, "
             f"{tally.failed - len(tally.unexpected)} known defects reproduced"]
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<40} {value:>16.6g} {unit}")
    if "case_p95_ms" in metrics:
        p95 = metrics["case_p95_ms"][0] / 1e3
        beyond = sum(1 for x in per_case if x > p95)
        lines.append(f"  latencies: median repetition of each of {n} cases, "
                     f"{beyond} beyond case_p95_ms; at reference speed")
        lines.append(f"  {'cases_per_s as measured':<40} "
                     f"{tally.attempted / tally.measured_s:>16.6g} 1/s")
        lines.append(f"  {'fail_share':<40} {tally.failed / tally.attempted:>16.6g} ratio")
        if name == "roundtrip_exact":
            share = tally.zero / tally.exact if tally.exact else float("nan")
            lines.append(f"  {'exact_zero_share':<40} {share:>16.6g} ratio "
                         f"({tally.zero} of {tally.exact} exact cases)")
        if name == "grid":
            share = tally.nan_cells / tally.cells if tally.cells else float("nan")
            lines.append(f"  {'nan_share':<40} {share:>16.6g} ratio "
                         f"({tally.nan_cells} of {tally.cells} cells)")
    for reason, count in sorted(tally.reasons.items()):
        lines.append(f"  failure x{count}: {reason}")
    return lines


def traced_run(args, workload, cases) -> tuple[Tally, dict, int]:
    from tracing import Tracer

    def first_pass_s(tally: Tally, gauge: Gauge) -> float:
        return sum(reps[0][0] * gauge.factor(*reps[0][1:]) for reps in tally.timings.values())

    # overhead: the same pass, untraced and then traced, both cold and at
    # reference speed; no interval timer, so no calibration lands in a layer
    with Gauge(timer=False) as gauge:
        untraced = Tally()
        run_pass(workload, cases, untraced, gauge=gauge)
        tally = Tally()
        tracer = Tracer().install()
        try:
            measured = run_pass(workload, cases, tally, tracer, gauge)
            repeats = 1 + run_passes(workload, cases, args.seconds - measured, tally,
                                     tracer, gauge, min_repeats=0)
        finally:
            tracer.uninstall()
    overhead = first_pass_s(tally, gauge) - first_pass_s(untraced, gauge)
    metrics = tracer.metrics()
    metrics["bench.case.calls"] = (tracer.case_stat.calls, "count")
    metrics["bench.case.busy_s"] = (tracer.case_stat.busy_s, "s")
    metrics["bench.trace.overhead_s"] = (overhead, "s")
    metrics["bench.trace.overhead_share"] = (overhead / first_pass_s(untraced, gauge), "ratio")
    uncovered = tracer.uncovered(args.workload)
    metrics["bench.trace.uncovered"] = (len(uncovered), "count")
    for name in uncovered:
        print(f"warning: boundary {name} saw no calls on {args.workload}", file=sys.stderr)
    tracer.write_spans(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")
    return tally, metrics, repeats


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl.load_program()
    except (wl.ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    build = wl.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=build))
    try:
        workload = wl.make_workload(args.workload, args.seed, out_dir)
        cases = workload.build_pass()
        gauge = None
        if args.trace:
            tally, metrics, repeats = traced_run(args, workload, cases)
        else:
            setup_s = measure_setup(args)
            tally = Tally()
            with Gauge() as gauge:
                repeats = run_passes(workload, cases, args.seconds, tally, gauge=gauge)
            metrics = end_to_end(tally, setup_s, gauge)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in report_lines(args.workload, tally, metrics, repeats, gauge):
        print(line)
    for item in tally.unexpected[:20]:
        print(f"unexpected failure: {item}", file=sys.stderr)
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": len(tally.unexpected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
