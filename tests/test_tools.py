"""Smoke tests of the scripts under tools/."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_pass_time_compares_a_checkout_with_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pass_time.py"), str(ROOT), str(ROOT),
         "--workload", "roundtrip_exact", "--seed", "13", "--pairs", "1"],
        capture_output=True, text=True, check=True, timeout=600).stdout.splitlines()
    assert [line.split(":")[0] for line in out[:2]] == ["pair 1 A", "pair 1 B"]
    assert all(", cases_per_s " in line for line in out[:2])
    summary = json.loads(out[-1])
    for side in ("A", "B"):
        assert summary[side]["pass_share"] == 1.0
        assert summary[side]["pass_s"] > 0 and summary[side]["peak_rss_mb"] > 0
        # the benchmark's throughput metric: the cases of one best pass per second
        assert summary[side]["cases_per_s"] == pytest.approx(
            summary[side]["cases"] / summary[side]["pass_s"])
        # the median case at its best of five cannot exceed its p95, nor the
        # p95 the best pass
        assert 0 < summary[side]["case_p50_ms"] <= summary[side]["case_p95_ms"] \
            <= summary[side]["pass_s"] * 1e3
    assert summary["ratio_b_over_a"] > 0 and summary["b_faster_pairs"] in (0, 1)
    # one ratio per case of the pass, each printed on its own line
    case_ratios = summary["case_ratio_b_over_a"]
    assert len(case_ratios) == summary["A"]["cases"] == summary["B"]["cases"] > 0
    assert all(ratio > 0 for ratio in case_ratios.values())
    assert [line.rsplit(": B/A ", 1)[0] for line in out[2:-1]] == [f"case {c}" for c in case_ratios]
    # per family the median of its cases' ratios, smallest first
    family_ratios = summary["family_ratio_b_over_a"]
    families = {case.split("|", 1)[0] for case in case_ratios}
    assert set(family_ratios) == families and len(families) > 1
    assert list(family_ratios.values()) == sorted(family_ratios.values())
    for family, ratio in family_ratios.items():
        mine = sorted(r for c, r in case_ratios.items() if c.split("|", 1)[0] == family)
        assert mine[0] <= ratio <= mine[-1]


def test_figure_drift_of_a_checkout_with_itself_is_zero():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "figure_drift.py"), str(ROOT), str(ROOT)],
        capture_output=True, text=True, check=True, timeout=600).stdout.splitlines()
    summary = json.loads(out[-1])
    columns = summary["columns"]
    assert any(label.startswith("figure pprime.") for label in columns)
    assert any(label.startswith("compare exp(x) ") for label in columns)
    assert summary["missing"] == 0 and summary["max_drift"] == 0 and summary["nonfinite"] == 0
    assert all(row == {"drift": 0.0, "nonfinite": 0} for row in columns.values())
    assert len(out) == len(columns) + 1


def test_mixed_ops_counts_a_cold_pass_of_the_checkout():
    # no Fraction meets a float in a cold pass of either round trip
    for workload, seed in (("roundtrip_float", 31), ("roundtrip_exact", 5)):
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "mixed_ops.py"), str(ROOT),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=600).stdout
        result = json.loads(out)
        assert result["workload"] == workload and result["seed"] == seed
        assert result["cases"] > 0
        assert (result["total"], result["families"], result["sites"]) == (0, {}, [])


def test_mixed_ops_counts_each_fraction_operator_with_a_float_operand():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import mixed_ops
    finally:
        sys.path.remove(str(ROOT / "tools"))
    third = Fraction(1, 3)
    with mixed_ops.counting(ROOT) as counts:
        for _ in range(2):
            third * 0.5
        0.5 - third
        third * third, third + 1, 0.5 * 0.5  # no float meets a Fraction here
    assert sum(counts.values()) == 3 and len(counts) == 2
    assert all(site.startswith("tests/test_tools.py:") for site in counts)
    assert third * 0.5 == 1 / 6  # the operators are restored


def test_output_digest_records_each_roundtrip_verdict(tmp_path):
    out = tmp_path / "digests.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), str(out)],
                   capture_output=True, text=True, check=True, timeout=600)
    digests = json.loads(out.read_text())
    assert set(digests) == {"figures", "compare", "roundtrip", "kinds"}
    verdicts = {}
    for run, rows in digests["roundtrip"].items():
        assert rows and all(len(row) == 3 and len(row[1]) == 64 for row in rows)
        verdicts[run.split(":")[0]] = {row[2] for row in rows}
    # every exact case passes, and the float pass keeps its known failures
    assert verdicts == {"roundtrip_exact": {True}, "roundtrip_float": {True, False}}


def test_output_digest_against_another_file_lists_the_moved_entries(tmp_path):
    script = str(ROOT / "tools" / "output_digest.py")
    first, second, other = (tmp_path / f"{name}.json" for name in ("first", "second", "other"))
    subprocess.run([sys.executable, script, str(first)], check=True, timeout=600)
    digests = json.loads(first.read_text())
    figure, kind = sorted(digests["figures"])[0], sorted(digests["kinds"])[-1]
    run, rows = sorted(digests["roundtrip"].items())[0]
    digests["figures"][figure] = "0" * 64  # changed
    del digests["kinds"][kind]  # missing here
    digests["compare"]["extra"] = "0" * 64  # missing there
    rows[1][1] = "0" * 64
    other.write_text(json.dumps(digests))
    proc = subprocess.run([sys.executable, script, str(second), "--against", str(other)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"compare": ["extra"], "figures": [figure],
                                       "kinds": [kind], "roundtrip": [f"{run}/{rows[1][0]}"]}
    # two runs of one checkout give the same digests: nothing moved, exit 0
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import output_digest
    finally:
        sys.path.remove(str(ROOT / "tools"))
    mine, theirs = (json.loads(path.read_text()) for path in (first, second))
    assert output_digest.moved(mine, theirs) == dict.fromkeys(sorted(mine), [])


def test_cross_python_of_the_running_interpreter_finds_no_difference():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cross_python.py"), sys.executable],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert list(report) == [sys.executable]
    assert report[sys.executable]["differ"] == []
    assert report[sys.executable]["version"] == ".".join(map(str, sys.version_info[:3]))


def test_cross_python_lists_changed_missing_and_failed_entries(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import cross_python
    finally:
        sys.path.remove(str(ROOT / "tools"))
    digests = {"figures": {"a": "1", "b": "2"}, "roundtrip": {"w:5": [["case", "3"]]}}
    base = cross_python.entries(digests)
    assert base == {"figures/a": "1", "figures/b": "2", "roundtrip/w:5/case": "3"}
    runs = {sys.executable: base,
            "same": dict(base),
            "moved": {"figures/a": "1", "figures/b": "9", "roundtrip/w:5/new": "3"},
            "broken": None}

    def fake_run(python, out):
        found = runs[python]
        if found is None:
            return {"exit": 1, "error": "ModuleNotFoundError"}
        return {"version": "x", "entries": dict(found)}

    monkeypatch.setattr(cross_python, "run_digest", fake_run)
    assert cross_python.main(["same", "moved", "broken"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["same"] == {"version": "x", "differ": []}
    assert report["moved"]["differ"] == ["figures/b", "roundtrip/w:5/case", "roundtrip/w:5/new"]
    assert report["broken"] == {"exit": 1, "error": "ModuleNotFoundError"}
    assert cross_python.main(["same"]) == 0
