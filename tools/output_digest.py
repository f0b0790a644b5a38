"""Write sha256 digests of charmatch's outputs, to show that a change keeps them.

    python tools/output_digest.py OUT.json [--root CHECKOUT] [--against OTHER.json]

The digests cover, for the checkout at ``--root`` (default: the one that
holds this script):

* ``figures``: the CSV and SVG bytes of every figure recipe;
* ``compare``: stdout and the JSON file of the benchmark's ``compare`` run
  for each function of ``COMPARE_POOL``;
* ``roundtrip``: per case of one pass of ``roundtrip_exact`` (seeds 5, 6)
  and of ``roundtrip_float`` (seeds 31, 32), its id, the digest of
  ``repr(key((case id, chars, residuals, verdict)))`` and the verdict itself
  (true or false, null where the case raises), so that a change whose float
  bits move can show that no verdict moved;
* ``kinds``: ``repr(key(...))`` of the characteristic numbers and
  coefficients of every expansion kind for every benchmark target at orders
  11, 20 and 40 and centers 0, 1/3 and 0.5 (the ``repr`` of the error where
  a build raises).

``key`` is ``tests/result_key.py`` of the checkout that holds this script:
exact numbers by value and exactness, whether held as an int or a
Fraction, and floats by their bits.  ``figures`` and ``compare`` are byte
digests.

charmatch is imported from ``<root>/src`` and the cases come from
``<root>/bench/workloads.py``, which is read and not changed.  Run it once
on each checkout and compare the files: ``diff`` lists the entries that
moved.  With ``--against OTHER.json`` (the file of another checkout, such as
the parent commit) the script also prints, per section, the sorted names of
the entries that moved: whose digest differs or that one side lacks.  It then
exits 1 if any entry moved, 0 otherwise.  An entry is one figure, one
``compare`` function, one round-trip case (``<workload>:<seed>/<case id>``)
or one kind entry (``<kind>|<target>|<order>|<center>``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ORDERS = (11, 20, 40)
CENTERS = (0, Fraction(1, 3), 0.5)
ROUNDTRIP_SEEDS = (("roundtrip_exact", 5), ("roundtrip_exact", 6),
                   ("roundtrip_float", 31), ("roundtrip_float", 32))
TESTS = Path(__file__).resolve().parent.parent / "tests"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def load_workloads(root: Path):
    """``<root>/bench/workloads.py`` as a module, with charmatch from ``<root>/src``."""
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module
    spec.loader.exec_module(module)
    module.load_program()
    return module


def load_key():
    """``key`` of ``tests/result_key.py``, once charmatch is imported."""
    sys.path.insert(0, str(TESTS))
    from result_key import key

    return key


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def grid_digests(wl, out_dir: Path) -> tuple[dict, dict]:
    grid = wl.make_workload("grid", 1, out_dir)
    figures, compare = {}, {}
    for name in grid.figure_names:
        case = wl.Case("figure", name)
        wl.clear_caches()
        code, _ = run_cli(grid.cli, grid.argv(case))
        csv, svg = grid._paths(case)
        figures[name] = digest(str(code), csv.read_bytes(), svg.read_bytes())
    for function in wl.COMPARE_POOL:
        wl.clear_caches()
        code, stdout = run_cli(grid.cli, grid.argv(wl.Case("compare", function)))
        compare[function] = digest(str(code), stdout,
                                   (out_dir / "compare.json").read_bytes())
    return figures, compare


def roundtrip_digests(wl, key, out_dir: Path) -> dict:
    out = {}
    for name, seed in ROUNDTRIP_SEEDS:
        workload = wl.make_workload(name, seed, out_dir)
        workload.before_pass()
        rows = []
        for case in workload.build_pass():
            try:
                chars, report = workload.run(case)
                text = repr(key((case.id, chars, report.residuals, report.passed)))
                passed = bool(report.passed)
            except Exception as exc:  # a refusal is an output too
                text, passed = repr((case.id, exc)), None
            rows.append([case.id, digest(text), passed])
        out[f"{name}:{seed}"] = rows
    return out


def kind_digests(wl, key) -> dict:
    import charmatch
    from charmatch import registry

    out = {}
    for kind in registry.KIND_NAMES:
        for target in wl.ACCEPTANCE + wl.POOL:
            f = charmatch.parse(target.text)
            for order in ORDERS:
                for x0 in CENTERS:
                    try:
                        res = registry.build_kind(kind, f, order, x0=x0)
                        text = repr(key((res.chars, res.coeffs)))
                    except Exception as exc:
                        text = repr(exc)
                    out[f"{kind}|{target.text}|{order}|{x0}"] = digest(text)
    return out


def entries(digests: dict) -> dict[str, str]:
    """The digest file as one flat map of entry name -> digest, each name
    ``<section>/<entry>``."""
    flat = {}
    for section, table in digests.items():
        if section == "roundtrip":
            for run, rows in table.items():
                # the verdict beside each digest is part of what the digest covers
                flat.update((f"roundtrip/{run}/{case}", value) for case, value, *_ in rows)
        else:
            flat.update((f"{section}/{name}", value) for name, value in table.items())
    return flat


def differ(mine: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """The sorted names of the entries that differ or that one side lacks."""
    return sorted(name for name in mine.keys() | theirs.keys()
                  if mine.get(name) != theirs.get(name))


def moved(digests: dict, other: dict) -> dict[str, list[str]]:
    """Per section of either digest file, the entries that moved."""
    out = {section: [] for section in sorted(digests.keys() | other.keys())}
    for name in differ(entries(digests), entries(other)):
        section, entry = name.split("/", 1)
        out[section].append(entry)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and bench/ to use")
    parser.add_argument("--against", metavar="OTHER.json",
                        help="digest file to compare with; print the moved entries")
    args = parser.parse_args(argv)
    wl = load_workloads(Path(args.root).resolve())
    key = load_key()
    with tempfile.TemporaryDirectory() as tmp:
        figures, compare = grid_digests(wl, Path(tmp))
        roundtrip = roundtrip_digests(wl, key, Path(tmp))
    result = {"figures": figures, "compare": compare, "roundtrip": roundtrip,
              "kinds": kind_digests(wl, key)}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.against is None:
        return 0
    report = moved(result, json.loads(Path(args.against).read_text()))
    print(json.dumps(report, indent=1))
    return 1 if any(report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
