"""Tests of the benchmark itself: inputs, correctness checks and tracing.

Run from the root of a checkout::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

charmatch = wl.load_program()
from charmatch import cli, registry  # noqa: E402  (needs load_program's path)


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path


def rates(tally: run.Tally) -> tuple[float, float]:
    return tally.failed / tally.attempted, tally.zero / tally.exact


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_inputs(name, out_dir):
    first = [wl.make_workload(name, 7, out_dir).build_pass() for _ in range(2)]
    assert first[0] == first[1]
    other = wl.make_workload(name, 8, out_dir).build_pass()
    assert other != first[0]


@pytest.mark.parametrize("seed", range(5))
def test_every_kind_and_order_in_every_pass(seed, out_dir):
    for name in ("roundtrip_exact", "roundtrip_float"):
        cases = wl.make_workload(name, seed, out_dir).build_pass()
        pairs = {(c.family, c.order) for c in cases}
        assert {(k, n) for k in registry.KIND_NAMES for n in wl.ORDERS} <= pairs
    cases = wl.make_workload("grid", seed, out_dir).build_pass()
    figures = sorted(c.target for c in cases if c.family == "figure")
    assert figures == sorted(charmatch.figures.FIGURES)
    assert [c.family for c in cases].count("compare") == 1


def small_exact_pass(out_dir):
    workload = wl.make_workload("roundtrip_exact", 3, out_dir)
    cases = wl.derivative_cases(wl.ACCEPTANCE, ("taylor", "pow_sine", "pade"))
    cases = [c for c in cases if c.order == 11]
    return workload, cases


def test_negative_control_corrupted_coefficient(out_dir, monkeypatch):
    """A wrong number must lower the pass share and the exact-zero share."""
    workload, cases = small_exact_pass(out_dir)
    clean = run.Tally()
    run.run_pass(workload, cases, clean)
    assert rates(clean) == (0.0, 1.0)

    build = registry.build_kind

    def corrupted(kind, f, order, **params):
        # the same wrapper `charmatch verify --perturb IDX,DELTA` applies
        res = build(kind, f, order, **params)
        bad = cli._CorruptedApproximant(res.approximant, params.get("x0", 0), 3, 1e-3)
        return registry.BuildResult(res.chars, res.coeffs, bad)

    monkeypatch.setattr(registry, "build_kind", corrupted)
    dirty = run.Tally()
    run.run_pass(workload, cases, dirty)
    fail_share, zero_share = rates(dirty)
    assert fail_share > 0.9
    assert zero_share < 0.1
    assert len(dirty.unexpected) == dirty.failed


def test_known_float_defects_count_against_pass_share_only(out_dir, monkeypatch):
    """A known defect lowers pass_share; a new failure makes the run wrong."""
    workload = wl.make_workload("roundtrip_float", 0, out_dir)
    known, new = wl.Case("log_powers", "exp(x)", 20), wl.Case("taylor", "exp(x)", 11)
    tally = run.Tally()
    run.run_pass(workload, [known, new], tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, [])

    def raising(*args, **kwargs):
        raise ZeroDivisionError("injected")

    # a known case that raises instead of failing verification is wrong too
    monkeypatch.setattr(workload.registry, "build_kind", raising)
    tally = run.Tally()
    run.run_pass(workload, [known, new], tally)
    assert tally.failed == 2 and len(tally.unexpected) == 2


def test_grid_reference_catches_a_wrong_cell(out_dir):
    grid = wl.make_workload("grid", 0, out_dir)
    case = wl.Case("figure", "ws-a")
    result = grid.run(case)
    assert grid.check(case, result).ok
    csv = out_dir / "ws-a.csv"
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    outcome = grid.check(case, result)
    assert not outcome.ok and outcome.reason == "reference mismatch"


def test_grid_reference_catches_a_moved_nan(out_dir):
    grid = wl.make_workload("grid", 0, out_dir)
    case = wl.Case("figure", "ws-a")
    result = grid.run(case)
    csv = out_dir / "ws-a.csv"
    lines = csv.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "nan"
    lines[2] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    assert not grid.check(case, result).ok


COVERAGE_CASES = {
    "roundtrip_exact": [wl.Case("pow_sine", "exp(x)", 11),
                        wl.Case("moments", (1, 2, 3), 11)],
    "roundtrip_float": [wl.Case("pow_sine", "exp(x)", 11),
                        wl.Case("fourier", "exp(x)", 11)],
    "grid": [wl.Case("figure", "legout"), wl.Case("figure", "ws-a"),
             wl.Case("figure", "inargpow-d"), wl.Case("compare", "exp(x)")],
}


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_trace_covers_every_mapped_boundary(name, out_dir):
    workload = wl.make_workload(name, 0, out_dir)
    tracer = tracing.Tracer().install()
    try:
        tally = run.Tally()
        run.run_pass(workload, COVERAGE_CASES[name], tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.unexpected == []
    assert tracer.uncovered(name) == []
    assert tracer.case_stat.calls == len(COVERAGE_CASES[name])
    metrics = tracer.metrics()
    assert set(metrics) | set(tracing.BENCH_STATS) == set(tracing.metric_names())
    # spans nest inside their case, and self time never exceeds busy time
    for span in tracer.spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    for stat in tracer.stats.values():
        assert stat.self_s <= stat.busy_s + 1e-9


def test_uninstall_restores_direct_imports():
    originals = (charmatch.cli.build_figure, charmatch.figures.build_kind,
                 charmatch.expansions._G_BASIS["lambert_w_g"]["eval"],
                 charmatch.jets.Jet.__mul__)
    tracer = tracing.Tracer().install()
    try:
        assert charmatch.cli.build_figure is not originals[0]
        assert charmatch.figures.build_kind is not originals[1]
        assert charmatch.expansions._G_BASIS["lambert_w_g"]["eval"] is not originals[2]
    finally:
        tracer.uninstall()
    assert (charmatch.cli.build_figure, charmatch.figures.build_kind,
            charmatch.expansions._G_BASIS["lambert_w_g"]["eval"],
            charmatch.jets.Jet.__mul__) == originals


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_build").exists()
    assert Path(tmp_path / "bench" / "run.py").is_file()
