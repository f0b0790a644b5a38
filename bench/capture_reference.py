"""Capture the benchmark's correctness references from the current sources.

Run from the root of a checkout of the reference commit::

    python3 bench/capture_reference.py

It writes, under bench/reference/:

* ``grid_figures.npz``: every cell of every figure CSV, per figure, with its
  header;
* ``grid_compare.json``: the ``compare --json`` rows for each function of
  the compare pool;
* ``float_known_failures.json``: the ids of the ``roundtrip_float`` cases that
  fail verification at this commit, over every target either pool can pick.
  Those cases still run and still count against ``pass_share``; any other
  failure counts in ``failed`` and makes the run incorrect.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import numpy as np

import run
import workloads as wl


def capture_grid(out_dir) -> None:
    grid = wl.Grid(0, out_dir)
    arrays = {}
    for name in grid.figure_names:
        case = wl.Case("figure", name)
        code, err = grid.run(case)
        if code != 0:
            raise SystemExit(f"figure {name} failed: {err}")
        header, values = wl.parse_csv(grid._paths(case)[0].read_text())
        arrays[name] = values
        arrays[f"{name}:header"] = np.array(header)
    np.savez_compressed(wl.REFERENCE_DIR / "grid_figures.npz", **arrays)
    compare = {}
    for function in wl.COMPARE_POOL:
        code, err = grid.run(wl.Case("compare", function))
        if code != 0:
            raise SystemExit(f"compare {function} failed: {err}")
        compare[function] = json.loads((out_dir / "compare.json").read_text())
    (wl.REFERENCE_DIR / "grid_compare.json").write_text(json.dumps(compare, indent=1) + "\n")


def capture_float_failures(out_dir) -> list[str]:
    workload = wl.RoundtripFloat(0, out_dir)
    workload.known = set()
    targets = wl.ACCEPTANCE + wl.POOL
    cases = wl.derivative_cases(targets, workload.registry.KIND_NAMES)
    cases += workload.family_cases(targets)
    tally = run.Tally()
    for case in cases:
        run.run_case(workload, case, tally)
    return sorted(item.split(": ")[0] for item in tally.unexpected)


def main() -> int:
    wl.load_program()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    build = wl.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_dir = wl.Path(tempfile.mkdtemp(prefix="capture-", dir=build))
    try:
        capture_grid(out_dir)
        failures = capture_float_failures(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    (wl.REFERENCE_DIR / "float_known_failures.json").write_text(
        json.dumps(failures, indent=1) + "\n")
    print(f"captured {len(failures)} known roundtrip_float failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
