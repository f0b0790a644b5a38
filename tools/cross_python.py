"""List the outputs of this checkout that depend on the Python interpreter.

    python tools/cross_python.py PY [PY ...]

The script runs ``tools/output_digest.py`` of this checkout under the
interpreter that runs it and under each PY, each in a fresh process, and
compares every PY's digests with its own.  An entry is one figure, one
``compare`` function, one round-trip case (``roundtrip/<workload>:<seed>/<case
id>``) or one kind entry (``kinds/<kind>|<target>|<order>|<center>``).  It
prints one JSON object keyed by PY: the interpreter's version and the
sorted names of the entries that differ or that one side lacks, or, where
the digest run fails, its exit code and the last line of its stderr.  The
exit code is 0 when every PY gives the same digests, 1 otherwise.

The digests need only the standard library and this checkout, so any
interpreter that ``requires-python`` admits can run them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from output_digest import differ, entries

DIGEST = Path(__file__).resolve().parent / "output_digest.py"


def run_digest(python: str, out: Path) -> dict:
    """``output_digest.py`` under ``python``: its entries, or how it failed."""
    proc = subprocess.run([python, str(DIGEST), str(out)], capture_output=True, text=True)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"exit": proc.returncode, "error": lines[-1] if lines else ""}
    version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, check=True).stdout.strip()
    return {"version": version, "entries": entries(json.loads(out.read_text()))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", metavar="PY", help="interpreter to compare")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = run_digest(sys.executable, Path(tmp) / "base.json")
        if "entries" not in base:
            print(json.dumps({sys.executable: base}, indent=1))
            return 1
        report = {}
        for i, python in enumerate(args.pythons):
            run = run_digest(python, Path(tmp) / f"{i}.json")
            if "entries" in run:
                run["differ"] = differ(base["entries"], run.pop("entries"))
            report[python] = run
    print(json.dumps(report, indent=1))
    return 0 if all(run.get("differ") == [] for run in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
