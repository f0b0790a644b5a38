"""Time one in-process pass of a benchmark workload on two checkouts.

    python tools/pass_time.py ROOT_A ROOT_B --workload W --seed S --pairs P

Each run is a fresh process that imports charmatch from ``<root>/src``,
builds the pass of ``<root>/bench/workloads.py`` (read as
``output_digest.py`` reads it, nothing under ``bench/`` changes) and runs it
five times, each from emptied caches as the benchmark runs it.  The run
reports the best of the five (the time inside the cases, as the benchmark
measures it), the pass's cases over that time (``cases_per_s``, the
benchmark's throughput metric), the median and the 95th percentile over
cases of each case's best time over the five (``case_p50_ms`` and
``case_p95_ms``, the benchmark's p50 and p95 of case times, the p95
interpolated as ``bench/run.py`` does), the share of cases whose check
passed, the process's peak resident memory and each case's best time and
family.  A pair is one run of A and one of B, in alternating order.  The
summary gives the medians per checkout, the median ratio B / A of the pass
times and, for each case (by its id), the median over pairs of its ratio
B / A, printed from the largest gain to the largest loss, and for each case
family the median of its cases' ratios (``family_ratio_b_over_a``, in the
JSON only).
A change of a few percent shows in a minute, where the benchmark needs ten
pairs of 20 s runs, and the case ratios show which cases moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
BEST_OF = 5

CHILD = """
import sys
sys.path.insert(0, {tools!r})
import pass_time
pass_time.one_run({root!r}, {workload!r}, {seed!r})
"""


def one_run(root: str, workload: str, seed: int) -> None:
    """Print, as one JSON line, the best pass time of ``BEST_OF``, the cases
    per second of that pass, the median and the 95th percentile case time
    (each case at its best of ``BEST_OF``), the pass share, the peak RSS of
    this process and each case's best time and family by case id."""
    import resource
    import statistics
    import tempfile
    import time

    from output_digest import load_workloads

    wl = load_workloads(Path(root).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        work = wl.make_workload(workload, seed, Path(tmp))
        cases = work.build_pass()
        best, passed = float("inf"), 0
        case_best = [float("inf")] * len(cases)
        for _ in range(BEST_OF):
            work.before_pass()
            busy, passed = 0.0, 0
            for i, case in enumerate(cases):
                work.before_case()
                start = time.perf_counter()
                try:
                    result = work.run(case)
                except Exception:  # a case that raises is a failed case
                    continue
                finally:
                    took = time.perf_counter() - start
                    busy += took
                    case_best[i] = min(case_best[i], took)
                try:
                    passed += work.check(case, result).ok
                except Exception:  # unreadable output counts against the case
                    pass
            best = min(best, busy)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p95 = statistics.quantiles(case_best, n=100, method="inclusive")[94]
    print(json.dumps({"pass_s": best, "cases_per_s": len(cases) / best,
                      "case_p50_ms": statistics.median(case_best) * 1e3,
                      "case_p95_ms": p95 * 1e3, "pass_share": passed / len(cases),
                      "cases": len(cases), "peak_rss_mb": peak_mb,
                      "case_ms": {case.id: t * 1e3 for case, t in zip(cases, case_best)},
                      "case_family": {case.id: case.family for case in cases}}))


def run(root: Path, workload: str, seed: int) -> dict:
    code = CHILD.format(tools=str(TOOLS), root=str(root), workload=workload, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, cwd=root).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", help="first checkout (the reference)")
    parser.add_argument("root_b", help="second checkout (the change)")
    parser.add_argument("--workload", default="roundtrip_exact",
                        choices=("grid", "roundtrip_exact", "roundtrip_float"))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"A": Path(args.root_a).resolve(), "B": Path(args.root_b).resolve()}
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        for name in ("AB" if i % 2 == 0 else "BA"):
            result = run(roots[name], args.workload, args.seed)
            runs[name].append(result)
            print(f"pair {i + 1} {name}: pass {result['pass_s'] * 1e3:.1f} ms, "
                  f"cases_per_s {result['cases_per_s']:.2f}, "
                  f"case p50 {result['case_p50_ms']:.2f} ms, "
                  f"case p95 {result['case_p95_ms']:.2f} ms, "
                  f"pass_share {result['pass_share']:.4f}, "
                  f"peak {result['peak_rss_mb']:.1f} MB", flush=True)
    ratios = [b["pass_s"] / a["pass_s"] for a, b in zip(runs["A"], runs["B"])]
    summary = {name: {field: statistics.median(r[field] for r in rs)
                      for field in ("pass_s", "cases_per_s", "case_p50_ms", "case_p95_ms",
                                    "pass_share", "peak_rss_mb", "cases")}
               for name, rs in runs.items()}
    summary["ratio_b_over_a"] = statistics.median(ratios)
    summary["b_faster_pairs"] = sum(r < 1 for r in ratios)
    shared = runs["A"][0]["case_ms"].keys() & runs["B"][0]["case_ms"].keys()
    case_ratios = {case: statistics.median(b["case_ms"][case] / a["case_ms"][case]
                                           for a, b in zip(runs["A"], runs["B"]))
                   for case in shared}
    summary["case_ratio_b_over_a"] = dict(sorted(case_ratios.items(), key=lambda kv: kv[1]))
    by_family = {}
    for case, ratio in case_ratios.items():
        by_family.setdefault(runs["A"][0]["case_family"][case], []).append(ratio)
    summary["family_ratio_b_over_a"] = dict(sorted(
        ((family, statistics.median(ratios)) for family, ratios in by_family.items()),
        key=lambda kv: kv[1]))
    for case, ratio in summary["case_ratio_b_over_a"].items():
        print(f"case {case}: B/A {ratio:.3f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
