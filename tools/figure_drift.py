"""List how far the figure and compare outputs of two checkouts differ.

    python tools/figure_drift.py ROOT_A ROOT_B

Each checkout runs, in a fresh process that imports charmatch from
``<root>/src`` (``bench/workloads.py`` is read as ``output_digest.py``
reads it), every figure recipe and the benchmark's ``compare`` run for each
function of ``COMPARE_POOL``.  For every figure column and every compare
row (its ``max_abs_err`` and ``l2_err``) the script prints:

* ``drift``: the largest |b - a| over the cells finite on both sides, as a
  share of the benchmark's tolerance max(1e-9 |a|, 1e-12), with a from
  ROOT_A; 1 is the edge of what the benchmark accepts;
* ``nonfinite``: the number of cells whose NaN or inf differs between the
  two sides (a cell finite on one side only counts here).

A column whose length differs, or that one side lacks, is listed as
``missing``.  The last line is one JSON object with the same entries and
their maxima, ``max_drift`` and ``nonfinite``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REL_TOL, ABS_TOL = 1e-9, 1e-12  # the benchmark's cell tolerance

CHILD = """
import sys
sys.path.insert(0, {tools!r})
import figure_drift
figure_drift.collect({root!r})
"""


def collect(root: str) -> None:
    """Print, as one JSON line, {label: [cells]} for every figure column
    ("figure NAME.COLUMN") and compare row ("compare F KIND")."""
    from output_digest import load_workloads, run_cli

    wl = load_workloads(Path(root).resolve())
    columns = {}
    with tempfile.TemporaryDirectory() as tmp:
        grid = wl.make_workload("grid", 1, Path(tmp))
        for name in grid.figure_names:
            case = wl.Case("figure", name)
            wl.clear_caches()
            run_cli(grid.cli, grid.argv(case))
            header, values = wl.parse_csv(grid._paths(case)[0].read_text())
            for j, column in enumerate(header):
                columns[f"figure {name}.{column}"] = values[:, j].tolist()
        for function in wl.COMPARE_POOL:
            wl.clear_caches()
            run_cli(grid.cli, grid.argv(wl.Case("compare", function)))
            for row in json.loads((Path(tmp) / "compare.json").read_text()):
                columns[f"compare {function} {row['kind']}"] = [
                    float(row[k]) for k in wl.GridReference.COMPARE_KEYS]
    print(json.dumps(columns))


def outputs(root: Path) -> dict:
    code = CHILD.format(tools=str(TOOLS), root=str(root))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, cwd=root).stdout
    return json.loads(out.strip().splitlines()[-1])


def drift(a: list[float], b: list[float]) -> tuple[float, int]:
    """Largest |b - a| / max(REL_TOL |a|, ABS_TOL) over the cells finite on
    both sides, and the number of cells whose non-finite values differ."""
    share, nonfinite = 0.0, 0
    for u, v in zip(a, b):
        if math.isfinite(u) and math.isfinite(v):
            share = max(share, abs(v - u) / max(REL_TOL * abs(u), ABS_TOL))
        elif not (u == v or (math.isnan(u) and math.isnan(v))):
            nonfinite += 1
    return share, nonfinite


def compare(columns_a: dict, columns_b: dict) -> dict:
    rows = {}
    for label in sorted(columns_a.keys() | columns_b.keys()):
        a, b = columns_a.get(label), columns_b.get(label)
        if a is None or b is None or len(a) != len(b):
            rows[label] = "missing"
        else:
            share, nonfinite = drift(a, b)
            rows[label] = {"drift": share, "nonfinite": nonfinite}
    found = [r for r in rows.values() if r != "missing"]
    return {"columns": rows, "missing": len(rows) - len(found),
            "max_drift": max((r["drift"] for r in found), default=0.0),
            "nonfinite": sum(r["nonfinite"] for r in found)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", help="first checkout (the reference)")
    parser.add_argument("root_b", help="second checkout (the change)")
    args = parser.parse_args(argv)
    result = compare(outputs(Path(args.root_a).resolve()), outputs(Path(args.root_b).resolve()))
    for label, row in result["columns"].items():
        if row == "missing":
            print(f"{label}: missing")
        else:
            print(f"{label}: drift {row['drift']:.3g}, nonfinite {row['nonfinite']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
