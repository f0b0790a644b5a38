"""Count the Fraction operations with a float operand in one cold pass of a
benchmark workload.

    python tools/mixed_ops.py ROOT --workload W --seed S

CPython runs a ``fractions.Fraction`` operator whose other operand is a
float through Fraction's Python-level fallback, which computes
``float(q) op x`` at about twenty times the cost of the float operation
itself.  The script imports charmatch from ``<root>/src``, builds the pass
of ``<root>/bench/workloads.py`` (read as ``output_digest.py`` reads it;
nothing under ``bench/`` changes), wraps Fraction's binary arithmetic
operators and runs every case of the pass once, from emptied caches as the
benchmark's first pass runs them.  It prints one JSON object: the total,
the count per case family and, largest first, every call site (the code
line that applied the operator, and the function that called that line's
function) with its count per family.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

OPERATORS = ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow")


def _where(frame, root: Path | None) -> str:
    code = frame.f_code
    path = Path(code.co_filename)
    if root is not None and path.is_relative_to(root):
        path = path.relative_to(root)
    return f"{path}:{frame.f_lineno} {getattr(code, 'co_qualname', code.co_name)}"


@contextlib.contextmanager
def counting(root: Path | None = None):
    """While active, count each call of a Fraction binary arithmetic operator
    whose other operand is a float, in the yielded Counter by call site: the
    frame that applied the operator and its caller, paths relative to
    ``root`` where they lie under it."""
    counts = collections.Counter()
    originals = {name: vars(Fraction)[name] for op in OPERATORS
                 for name in (f"__{op}__", f"__r{op}__") if name in vars(Fraction)}

    def wrap(original):
        def counted(a, b, *rest):
            if isinstance(b, float):
                frame = sys._getframe(1)
                caller = frame.f_back
                counts[_where(frame, root) + (f" <- {_where(caller, root)}" if caller else "")] += 1
            return original(a, b, *rest)
        return counted

    for name, original in originals.items():
        setattr(Fraction, name, wrap(original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(Fraction, name, original)


def one_pass(root: Path, workload: str, seed: int) -> dict:
    """The counts of one cold pass of ``workload`` at ``seed`` on ``root``."""
    from output_digest import load_workloads

    wl = load_workloads(root)
    families, sites = collections.Counter(), collections.defaultdict(collections.Counter)
    with tempfile.TemporaryDirectory() as tmp:
        work = wl.make_workload(workload, seed, Path(tmp))
        cases = work.build_pass()
        work.before_pass()
        for case in cases:
            work.before_case()
            with counting(root) as counts:
                try:
                    work.run(case)
                except Exception:  # a case that raises still made its operations
                    pass
            for site, n in counts.items():
                families[case.family] += n
                sites[site][case.family] += n
    ranked = sorted(sites.items(), key=lambda kv: (-sum(kv[1].values()), kv[0]))
    return {"workload": workload, "seed": seed, "cases": len(cases),
            "total": sum(families.values()),
            "families": dict(families.most_common()),
            "sites": [{"site": site, "count": sum(fams.values()),
                       "families": dict(fams.most_common())} for site, fams in ranked]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="checkout whose src/ and bench/ to use")
    parser.add_argument("--workload", default="roundtrip_float",
                        choices=("grid", "roundtrip_exact", "roundtrip_float"))
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args(argv)
    print(json.dumps(one_pass(Path(args.root).resolve(), args.workload, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
