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
  a build raises);
* ``integral``: ``repr(key(...))`` of the characteristic numbers and the
  approximant's polynomial coefficients of the integral families, at orders
  11, 20 and 40, for every benchmark target and the three polynomials of
  ``INTEGRAL_POLYS``: ``bernoulli`` on each interval of
  ``BERNOULLI_INTERVALS`` (the benchmark runs (0, 1) alone, where the
  change of variable is the identity), ``moments`` and ``higher_integral``
  on (-1, 1);
* ``cli``: exit code, stdout, stderr and JSON file of ``coeffs`` and
  ``verify`` for ``CLI_F`` with every kind at its defaults, with each
  kind parameter of ``CLI_PARAMS`` (one non-default value per parameter a
  kind reads), with ``--family moments`` and with every node-system
  preset of ``interp.ws_node_systems``.

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
``compare`` function, one round-trip case (``<workload>:<seed>/<case id>``),
one kind entry (``<kind>|<target>|<order>|<center>``), one integral entry
(``<family>|<interval>|<target>|<order>``) or one command line of the ``cli``
section (``<command> <flags>``).
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
BERNOULLI_INTERVALS = ((0, 1), (1, 3), (Fraction(-1, 2), Fraction(3, 2)), (0.25, 1.75))
INTEGRAL_POLYS = ((1, -2, Fraction(1, 3)),
                  (Fraction(-3, 4), 0, Fraction(5, 2), -1, 0, Fraction(1, 7)),
                  (2, Fraction(1, 8), Fraction(-9, 7), 0, 3, Fraction(5, 3), Fraction(-1, 3), 0,
                   Fraction(1, 2), Fraction(1, 9), -4))
CLI_F = "exp(sin(x))"
# per kind, the non-default values of the parameters it reads, one run each
CLI_PARAMS = {"exp_weighted": (("--w", "1/3"), ("--q", "3")),
              "rational_x_over_x1": (("--alpha", "2"),),
              "nonlinear": (("--lambda", "cube"),)}


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


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def grid_digests(wl, out_dir: Path) -> tuple[dict, dict]:
    grid = wl.make_workload("grid", 1, out_dir)
    figures, compare = {}, {}
    for name in grid.figure_names:
        case = wl.Case("figure", name)
        wl.clear_caches()
        code, _, _ = run_cli(grid.cli, grid.argv(case))
        csv, svg = grid._paths(case)
        figures[name] = digest(str(code), csv.read_bytes(), svg.read_bytes())
    for function in wl.COMPARE_POOL:
        wl.clear_caches()
        code, stdout, _ = run_cli(grid.cli, grid.argv(wl.Case("compare", function)))
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


def integral_case(im, family: str, f, interval: tuple, order: int) -> tuple:
    """The characteristic numbers and the approximant of one integral family."""
    if family == "moments":
        m = im.moments_compute(f, interval, order)
        return m.as_char_numbers(), im.legendre_moment_match(m)
    if family == "higher_integral":
        chars = im.higher_integral_chars(f, order)
        return chars, im.higher_integral_approx(chars)
    chars = im.bernoulli_chars(f, interval, order)
    return chars, im.bernoulli_approx(chars)


def integral_digests(wl, key) -> dict:
    import charmatch
    from charmatch import integral_match as im
    from charmatch.poly import Poly

    targets = [(t.text, charmatch.parse(t.text)) for t in wl.ACCEPTANCE + wl.POOL]
    targets += [("poly(" + ",".join(map(str, p)) + ")", Poly(p)) for p in INTEGRAL_POLYS]
    runs = [("bernoulli", interval) for interval in BERNOULLI_INTERVALS]
    runs += [("moments", (-1, 1)), ("higher_integral", (-1, 1))]
    out = {}
    for family, (a, b) in runs:
        for name, f in targets:
            for order in ORDERS:
                try:
                    chars, approx = integral_case(im, family, f, (a, b), order)
                    text = repr(key((chars, approx.poly)))
                except Exception as exc:
                    text = repr(exc)
                out[f"{family}|({a},{b})|{name}|{order}"] = digest(text)
    return out


def cli_argvs() -> list[list[str]]:
    """The ``coeffs`` and ``verify`` command lines of the ``cli`` section."""
    from charmatch import registry
    from charmatch.interp import ws_node_systems

    builds = []
    for kind in registry.KIND_NAMES:
        builds.append(["--kind", kind])
        builds += [["--kind", kind, flag, value] for flag, value in CLI_PARAMS.get(kind, ())]
    presets = [["--preset", name] for name in ws_node_systems()]
    argvs = [[command, *build, "--f", CLI_F] for command in ("coeffs", "verify")
             for build in builds]
    argvs += [["verify", "--kind", kind, "--f", CLI_F, "--family", "moments"]
              for kind in registry.KIND_NAMES]
    return argvs + [[command, *preset] for command in ("coeffs", "verify") for preset in presets]


def cli_digests(wl, out_dir: Path) -> dict:
    from charmatch import cli

    out, path = {}, out_dir / "cli.json"
    for argv in cli_argvs():
        path.unlink(missing_ok=True)  # a refused command writes no file
        wl.clear_caches()
        code, stdout, stderr = run_cli(cli, [*argv, "--json", str(path)])
        out[" ".join(argv)] = digest(str(code), stdout, stderr,
                                     path.read_bytes() if path.exists() else b"")
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
        cli = cli_digests(wl, Path(tmp))
    result = {"figures": figures, "compare": compare, "roundtrip": roundtrip,
              "kinds": kind_digests(wl, key), "integral": integral_digests(wl, key),
              "cli": cli}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.against is None:
        return 0
    report = moved(result, json.loads(Path(args.against).read_text()))
    print(json.dumps(report, indent=1))
    return 1 if any(report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
