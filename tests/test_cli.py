"""CLI behavior: subcommands, exit codes, config handling, determinism."""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from datetime import timedelta
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import charmatch
from charmatch import cli
from charmatch.cli import _format_number, main
from charmatch.figures import grid, sample
from charmatch.registry import KIND_NAMES, kind_params


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- coeffs ------------------------------------------------------------------------


def test_coeffs_taylor_exp(capsys):
    code, out, _ = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "taylor",
                       "--order", "3")
    assert code == 0
    rows = [line.split() for line in out.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert all(r[1] == "1" for r in rows)


def test_coeffs_nsbf_sin(capsys):
    code, out, _ = run(capsys, "coeffs", "--f", "sin(x)", "--kind", "nsbf",
                       "--order", "5")
    assert code == 0
    values = [line.split()[1] for line in out.splitlines()
              if line.split() and line.split()[0].isdigit()]
    assert values == ["0", "2", "0", "-2", "0", "2"]


def test_coeffs_unknown_kind(capsys):
    code, _, err = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "gauss")
    assert code == 2
    assert "unknown expansion kind" in err


def test_coeffs_bad_expression(capsys):
    code, _, err = run(capsys, "coeffs", "--f", "exp(", "--kind", "taylor")
    assert code == 2


def test_coeffs_json_output(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "coeffs", "--f", "sin(x)", "--kind", "taylor",
                     "--order", "4", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["kind"] == "taylor" and len(data["a"]) == 5


# -- verify -------------------------------------------------------------------------


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--f", "exp(x)", "--kind", "taylor",
                       "--order", "8")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["max_residual"] == 0.0


def test_verify_newpade_alias(capsys):
    code, out, _ = run(capsys, "verify", "--f", "exp(x)", "--kind", "newpade",
                       "--order", "8")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_corrupted_coefficient_fails(capsys):
    code, out, _ = run(capsys, "verify", "--f", "exp(x)", "--kind", "taylor",
                       "--order", "4", "--perturb", "2,0.001")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_ws_preset(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "ws-a", "--order", "10")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_family_mismatch_exits_3(capsys):
    code, _, err = run(capsys, "verify", "--preset", "ws-a", "--order", "6",
                       "--f", "1 - x^2", "--family", "derivative")
    assert code == 3
    assert "family mismatch" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--f", "ln(x)", "--kind", "taylor"),
    ("coeffs", "--f", "1/x", "--kind", "taylor"),
    ("coeffs", "--f", "sqrt(x^2)", "--kind", "taylor"),
])
def test_jet_domain_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, primitive", [
    (("verify", "--f", "ln(x)", "--kind", "taylor", "--x0", "1e-400", "--order", "4"), "ln"),
    (("verify", "--f", "sqrt(2*x)", "--kind", "taylor", "--x0", "1e-400", "--order", "4"),
     "sqrt"),
    (("coeffs", "--f", "x^-2", "--kind", "nonlinear", "--order", "0", "--x0", "1e300"), "ln"),
])
def test_a_positive_head_below_float_range_exits_2(capsys, argv, primitive):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {primitive}:") and "below float range" in err


def test_exit_code_contract_sweep(capsys):
    # every kind at centers in, below and above the float range
    escaped, codes = [], set()
    for kind in KIND_NAMES:
        for f in ("exp(x)", "1/x", "ln(x)", "sqrt(2*x)", "x^-2", "1e-300*x"):
            for x0 in (None, "1/3", "1e-400", "1e300", "-2"):
                for order in ("0", "4"):
                    argv = ["verify", "--f", f, "--kind", kind, "--order", order]
                    if x0 is not None:
                        argv += ["--x0", x0]
                    try:
                        codes.add(run(capsys, *argv)[0])
                    except Exception as exc:
                        escaped.append((argv, repr(exc)))
    assert escaped == []
    assert codes <= {0, 1, 2, 3}


@pytest.mark.parametrize("command", ["coeffs", "verify"])
def test_exp_overflow_exits_2(capsys, command):
    code, _, err = run(capsys, command, "--f", "exp(x)", "--kind", "taylor",
                       "--x0", "1000")
    assert code == 2
    assert err.startswith("error:") and "exp" in err


@pytest.mark.parametrize("perturb", ["1", "0,abc", "1,2,3"])
def test_malformed_perturb_exits_2(capsys, perturb):
    code, _, err = run(capsys, "verify", "--f", "exp(x)", "--kind", "taylor",
                       "--order", "4", "--perturb", perturb)
    assert code == 2
    assert err.startswith("error:") and "perturb" in err


def test_malformed_perturb_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "exp(x)", "kind": "taylor", "perturb": 3}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "perturb" in err


def test_perturb_from_config_list(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "exp(x)", "kind": "taylor", "order": 4,
                               "perturb": [2, 0.001]}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["pass"] is False


# -- figure --------------------------------------------------------------------------


def test_figure_unknown_name(capsys):
    code, _, err = run(capsys, "figure", "totally-made-up")
    assert code == 2


def test_figure_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, _, _ = run(capsys, "figure", "ws-d", "--csv", str(path),
                         "--svg", str(path.with_suffix(".svg")))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".svg").read_bytes() == second.with_suffix(".svg").read_bytes()


def test_figure_csv_format(tmp_path, capsys):
    path = tmp_path / "fig.csv"
    code, _, _ = run(capsys, "figure", "exppoly", "--csv", str(path),
                     "--svg", str(tmp_path / "fig.svg"))
    assert code == 0
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "x" and "sin" in header
    assert any("err_" in h for h in header)
    # 17 significant digits survive a round trip
    row = lines[1].split(",")
    assert all(f"{float(v):.17g}" == v for v in row)


def test_figure_aliases(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "inargpow", "--csv",
                     str(tmp_path / "i.csv"), "--svg", str(tmp_path / "i.svg"))
    assert code == 0


def test_figure_svg_is_wellformed(tmp_path, capsys):
    import xml.etree.ElementTree as ET

    svg = tmp_path / "fig.svg"
    run(capsys, "figure", "ws-d", "--csv", str(tmp_path / "fig.csv"),
        "--svg", str(svg))
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")


# -- compare --------------------------------------------------------------------------


def test_compare_nsbf_beats_taylor(capsys):
    code, out, _ = run(capsys, "compare", "--f", "sin(x)",
                       "--grid", "0,9.42,301", "--order", "10",
                       "--kind", "nsbf,taylor")
    assert code == 0
    lines = [l.split() for l in out.splitlines()[1:]]
    errors = {row[0]: float(row[1]) for row in lines}
    assert errors["nsbf"] < errors["taylor"] / 10


def test_compare_identical_configs(capsys):
    code, out, _ = run(capsys, "compare", "--f", "exp(x)",
                       "--grid=-1,1,51", "--order", "6",
                       "--kind", "taylor,taylor")
    assert code == 0
    lines = [l.split() for l in out.splitlines()[1:]]
    assert lines[0][1] == lines[1][1]


def test_compare_needs_two(capsys):
    code, _, err = run(capsys, "compare", "--f", "exp(x)",
                       "--grid", "-1,1,11", "--kind", "taylor")
    assert code == 2


@pytest.mark.parametrize("flag, exact, decimal", [
    ("--grid", "-1/2,1/2,5", "-0.5,0.5,5"),
    ("--grid", "-1/4,1/2,+5", "-0.25,0.5,5"),
])
def test_grid_reads_numbers_as_x0_does(capsys, flag, exact, decimal):
    argv = ("compare", "--f", "exp(x)", "--kind", "taylor,pade", "--order", "4")
    want = run(capsys, *argv, f"{flag}={decimal}")
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, *argv, f"{flag}={exact}") == want


def test_perturb_reads_numbers_as_x0_does(capsys):
    argv = ("verify", "--f", "exp(x)", "--kind", "taylor", "--order", "4", "--perturb")
    want = run(capsys, *argv, "1,0.001")
    assert want[0] == 1 and json.loads(want[1])["pass"] is False
    assert run(capsys, *argv, "1,1/1000") == want


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "-1e400,1,5", "error: grid lies beyond the float range, got '-1e400'\n"),
    ("--grid", "0,1,1", "error: grid must be an integer >= 2, got 1\n"),
    ("--grid", "1/2,1/2,5", "error: grid needs lo < hi, got '1/2,1/2,5'\n"),
    ("--perturb", "1,1e400", "error: perturb lies beyond the float range, got '1e400'\n"),
])
def test_list_settings_name_the_setting_they_refuse(capsys, flag, value, message):
    argv = {"--grid": ("compare", "--kind", "taylor,pade"),
            "--perturb": ("verify", "--kind", "taylor")}[flag]
    assert run(capsys, *argv, "--f", "exp(x)", f"{flag}={value}") == (2, "", message)


def test_compare_invalid_grid(capsys):
    code, _, err = run(capsys, "compare", "--f", "exp(x)",
                       "--grid", "0,1,1", "--kind", "taylor,nsbf")
    assert code == 2


def test_compare_mismatched_grids_via_configs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"f": "sin(x)", "kind": "taylor", "order": 6,
                             "grid": "0,1,11"}))
    b.write_text(json.dumps({"f": "sin(x)", "kind": "nsbf", "order": 6,
                             "grid": "0,2,11"}))
    code, _, err = run(capsys, "compare", "--config", str(a), "--config", str(b))
    assert code == 2
    assert "share the grid" in err


# -- config files ----------------------------------------------------------------------


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "exp(x)", "kind": "taylor", "order": 3}))
    code, out, _ = run(capsys, "coeffs", "--config", str(cfg), "--order", "5")
    assert code == 0
    rows = [l for l in out.splitlines() if l.split() and l.split()[0].isdigit()]
    assert len(rows) == 6  # the flag wins over the file


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "exp(x)", "kind": "taylor", "bogus": 1}))
    code, _, err = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}", b'{"order": ' + b"1" * 5000 + b"}"])
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(content)
    code, _, err = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "taylor",
                       "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"error: cannot read config {cfg}")


_WRITERS = {
    "coeffs --json": ("coeffs", "--f", "exp(x)", "--kind", "taylor", "--order", "3",
                      "--json", "{bad}"),
    "verify --json": ("verify", "--f", "exp(x)", "--kind", "taylor", "--order", "3",
                      "--json", "{bad}"),
    "figure --csv": ("figure", "nonlin", "--csv", "{bad}", "--svg", "{ok}"),
    "figure --svg": ("figure", "nonlin", "--csv", "{ok}", "--svg", "{bad}"),
    "compare --json": ("compare", "--f", "exp(x)", "--grid=-0.5,0.5,11", "--order", "3",
                       "--kind", "taylor,nsbf", "--json", "{bad}"),
}


@pytest.mark.parametrize("where", ["missing directory", "path is a directory"])
@pytest.mark.parametrize("writer", list(_WRITERS))
def test_unwritable_output_exits_2(tmp_path, capsys, writer, where):
    bad = tmp_path / "missing" / "out" if where == "missing directory" else tmp_path
    argv = [arg.format(bad=bad, ok=tmp_path / "ok") for arg in _WRITERS[writer]]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1


def test_usage_error_on_missing_subcommand(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("body", [{"grid": "a,1,11"}, {"grid": [0, 1]},
                                  {"grid": [0, 1, 1.5]}, {"grid": "1,0,11"}])
def test_malformed_config_grid_exits_2(tmp_path, capsys, body):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body))
    code, _, err = run(capsys, "compare", "--f", "exp(x)", "--kind", "taylor,nsbf",
                       "--config", str(cfg), "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "grid" in err


def test_config_grid_list_works(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "exp(x)", "kind": "taylor", "order": 4,
                               "grid": [-1, 1, 11]}))
    code, out, _ = run(capsys, "compare", "--config", str(cfg), "--config", str(cfg))
    assert code == 0
    assert "taylor" in out


@pytest.mark.parametrize("key, value", [
    ("order", "abc"), ("order", -1), ("order", 2.5), ("order", None),
    ("x0", float("nan")), ("x0", float("inf")), ("x0", True), ("w", [1]),
    ("q", "abc"), ("interval", [1]), ("kind", 5), ("f", 5),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "exp(x)", "kind": "exp_weighted", "order": 4,
                               key: value}))
    code, _, err = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("f, x0, want", [
    ("ln(x)", "1e400", 2),
    ("arctan(x)", "1e400", 2),
    ("sin(x)", "1e400", 2),
    ("sin(x)", "inf", 2),
    ("bessel_j0(x)", "nan", 2),
    ("bessel_j0(x)", "inf", 2),
    ("bessel_j0(x)", "1e400", 2),
    ("exp(x)", "nan", 2),
    ("exp(x)", "inf", 2),
    ("exp(x)", "-inf", 2),
    ("sqrt(x)", "nan", 2),
    ("sqrt(x)", "inf", 2),
    ("x^2", "nan", 2),
    ("x^2", "inf", 2),
    ("x^2", "1e400", 0),
])
def test_bad_centers_exit_2(capsys, f, x0, want):
    code, _, err = run(capsys, "coeffs", "--f", f, "--kind", "taylor", "--order", "4",
                       f"--x0={x0}")
    assert code == want
    assert "Traceback" not in err
    if want == 2:
        assert err.startswith("error:")


@pytest.mark.parametrize("flag, value, argv", [
    ("--x0", "-1e-3", ("coeffs", "--f", "exp(x)", "--kind", "taylor")),
    ("--x0", "-.5", ("coeffs", "--f", "exp(x)", "--kind", "taylor")),
    ("--alpha", "-1/2", ("coeffs", "--f", "exp(x)", "--kind", "newpade")),
    ("--w", "-1/2", ("coeffs", "--f", "exp(x)", "--kind", "exp_weighted", "--q", "2")),
    ("--grid", "-1,1,11", ("compare", "--f", "exp(x)", "--kind", "taylor,nsbf")),
    ("--f", "-x^2", ("coeffs", "--kind", "taylor")),
])
def test_negative_values_after_a_space_parse_like_the_equals_form(capsys, flag, value, argv):
    spaced = run(capsys, *argv, flag, value)
    assert spaced[0] == 0, spaced[2]
    assert run(capsys, *argv, f"{flag}={value}")[:2] == spaced[:2]


@pytest.mark.parametrize("argv", [
    ("coeffs", "--x0", "--kind", "taylor", "--f", "exp(x)"),
    ("coeffs", "--f", "exp(x)", "--kind", "taylor", "--x0"),
    ("coeffs", "--f", "exp(x)", "--kind", "taylor", "--x0", "-h"),
    ("coeffs", "-f", "exp(x)", "--kind", "taylor"),
])
def test_missing_value_or_unknown_flag_still_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_import_does_not_load_mpmath():
    # mpmath is a test-only oracle, never a runtime import
    src = Path(charmatch.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import charmatch, charmatch.cli, charmatch.figures, sys; "
            "assert 'mpmath' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_no_command_imports_numpy(tmp_path):
    # the quadrature rule is tabulated, so numpy serves the tests only
    src = Path(charmatch.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = """if True:
        import sys
        sys.modules["numpy"] = None  # any import of numpy raises ImportError
        import charmatch.cli
        main = charmatch.cli.main
        assert main(["coeffs", "--f", "exp(x)", "--kind", "taylor", "--order", "3"]) == 0
        assert main(["verify", "--f", "exp(x)", "--kind", "taylor", "--family", "moments",
                     "--order", "11"]) == 0
        assert main(["figure", "legout"]) == 0
        assert main(["compare", "--f", "exp(x)", "--kind", "taylor,nsbf", "--grid=-0.9,0.9,21",
                     "--order", "8"]) == 0
    """
    subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                   stdout=subprocess.DEVNULL)


# -- exit-code contract ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["taylor", "nsbf", "dirichlet_g"])
def test_constant_beyond_float_range_verifies(capsys, kind):
    # the exact constant 1.1e309 has no float tolerance; its residuals are 0
    code, out, err = run(capsys, "verify", "--f", "11e308", "--kind", kind,
                         "--order", "12")
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] and report["max_residual"] == 0.0


@pytest.mark.parametrize("constant", ["1" + "0" * 20, "1" + "0" * 400],
                         ids=["10^20", "10^400"])
def test_nonlinear_cube_of_a_huge_constant_verifies_exactly(capsys, constant):
    # the approximant takes the exact cube root of (10^k)^3, past 2^53 and
    # past the float range
    code, out, err = run(capsys, "verify", "--f", f"{constant} + x", "--kind", "nonlinear",
                         "--lambda", "cube", "--family", "derivative", "--order", "3")
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] and report["residuals"] == [0.0] * 4


@pytest.mark.parametrize("argv", [
    ("verify", "--f", "11e308", "--preset", "ws-f", "--order", "1"),
    ("compare", "--f", "-11e308", "--kind", "dex,taylor", "--grid", "-1,1,9"),
    ("verify", "--f", "exp(1000*x)", "--kind", "nsbf", "--order", "0",
     "--family", "moments"),
    ("verify", "--f", "ln(x)", "--kind", "lambert_w_g", "--order", "12",
     "--x0", "1e-300", "--perturb", "1,1e-3"),
])
def test_values_beyond_float_range_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "float range" in err


def test_exact_numbers_beyond_the_digit_limit_print(capsys):
    # 10^16000 has more digits than str(int) allows; it prints in 17 digits
    code, out, _ = run(capsys, "coeffs", "--f", "x^40", "--kind", "taylor",
                       "--order", "0", "--x0", "1e400")
    assert code == 0
    assert out.splitlines()[-1].split() == ["0", "1e+16000", "1e+16000"]


def test_huge_numbers_print_as_the_correctly_rounded_decimal():
    # 17 significant digits rounded half to even, as Decimal division gives
    # them, fixed point included for values near 1
    rng = random.Random(15)
    context = Context(prec=17)
    for _ in range(60):
        big = rng.randrange(10 ** 4400, 10 ** rng.randint(4401, 6000))
        num = big * rng.randint(1, 10 ** rng.randint(0, 20)) + rng.randint(-10 ** 30, 10 ** 30)
        for den in (1, rng.randrange(1, 10 ** 40), big * rng.randint(1, 10 ** rng.randint(0, 20)),
                    big * big):
            v = Fraction(rng.choice((1, -1)) * num, den)
            want = format(context.divide(Decimal(v.numerator), Decimal(v.denominator))
                          .normalize(), ".17g")
            assert _format_number(v) == want
    assert _format_number(Fraction(10 ** 5000 + 5 * 10 ** 4983)) == "1e+5000"  # tie to even
    assert _format_number(Fraction(10 ** 5000 + 15 * 10 ** 4983)) == "1.0000000000000002e+5000"
    assert _format_number(Fraction(10 ** 5000 - 1)) == "1e+5000"  # rounds up a digit
    assert _format_number(Fraction(10 ** 5000 + 1, 10 ** 5000)) == "1"


def _short_and_exact_digits(v, monkeypatch):
    """``_digits17(v)`` and ``_digits17_exact(v)``, and whether the first fell
    back on the second."""
    exact = cli._digits17_exact
    fallbacks = []
    monkeypatch.setattr(cli, "_digits17_exact", lambda w: fallbacks.append(w) or exact(w))
    got = cli._digits17(v)
    monkeypatch.undo()
    return got.as_tuple(), exact(v).as_tuple(), bool(fallbacks)


def test_digits17_rounds_as_the_exact_path(monkeypatch):
    # random Fractions of every size take the short path and agree digit for
    # digit, exponent included, with the exact divmod
    rng = random.Random(24)
    for _ in range(400):
        num = rng.randrange(1, 10 ** rng.randint(1, 3000))
        den = rng.randrange(1, 10 ** rng.randint(1, 3000))
        v = Fraction(rng.choice((1, -1)) * num, den)
        got, want, fell_back = _short_and_exact_digits(v, monkeypatch)
        assert got == want and not fell_back, v
    # exact ties, and values one unit of a huge numerator either side of a
    # tie, lie within the short path's error bound: they take the exact one
    for _ in range(100):
        q = rng.randrange(10 ** 16, 10 ** 17)
        e = rng.randint(-400, 400)
        scale = 10 ** rng.randint(40, 60)
        tie = Fraction((2 * q + 1) * scale, 20 * scale) * Fraction(10) ** e
        for v in (tie, tie + Fraction(1, tie.denominator * scale),
                  tie - Fraction(1, tie.denominator * scale), -tie):
            got, want, fell_back = _short_and_exact_digits(v, monkeypatch)
            assert got == want and fell_back, v


def test_a_power_with_a_million_digits_prints_fast(capsys):
    # building 10^e for the exact divmod took 1.5 s of this call
    start = time.perf_counter()
    code, out, _ = run(capsys, "coeffs", "--f", "x^2999999", "--kind", "taylor",
                       "--order", "2", "--x0", "2")
    assert time.perf_counter() - start < 0.4
    assert code == 0
    assert out.splitlines()[2:] == [
        "   0  4.8524598194503558e+903089  4.8524598194503558e+903089",
        "   1  7.2786873029456239e+903095  7.2786873029456239e+903095",
        "   2  1.0918023675731133e+903102  1.0918023675731133e+903102",
    ]


def test_a_huge_power_prints_fast(capsys):
    # the Decimal conversion of 2^999999 took about 2 s per printed number
    start = time.perf_counter()
    code, out, _ = run(capsys, "coeffs", "--f", "x^999999", "--kind", "taylor",
                       "--order", "2", "--x0", "2")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert out.splitlines()[1:] == [
        "   n                       a_n                       c_n",
        "   0  4.9503281146479491e+301029  4.9503281146479491e+301029",
        "   1  2.4751615821599172e+301035  2.4751615821599172e+301035",
        "   2  1.2375783159183765e+301041  1.2375783159183765e+301041",
    ]


@pytest.mark.parametrize("argv", [
    ("coeffs", "--f", "exp(x)", "--kind", "taylor", "--order", "1", "--x0", "1e300000"),
    ("verify", "--f", "x^2 + 1", "--kind", "taylor", "--order", "2", "--x0", "1e-5000"),
    ("compare", "--f", "exp(x)", "--kind", "taylor,dex", "--grid", "-1,1,9",
     "--x0", "-1_0.5E+4300"),
])
def test_numbers_beyond_the_digit_limit_exit_2(capsys, argv):
    # an exponent that puts the exact value past str(int)'s digit limit is
    # refused before the integer 10^exponent is built
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "digits" in err and "Traceback" not in err


def test_a_huge_exponent_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "taylor",
                       "--order", "1", "--x0", "1e999999999")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("f", ["1e300000*x", "1" * 5000 + "*x", "x^" + "1" * 5000],
                         ids=["exponent", "digits", "power"])
def test_expression_numbers_beyond_the_digit_limit_exit_2(capsys, f):
    # a literal of --f is checked like a number flag, before any integer is built
    start = time.perf_counter()
    code, out, err = run(capsys, "coeffs", "--f", f, "--kind", "taylor", "--order", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "digits" in err and "Traceback" not in err


def test_expression_numbers_at_the_digit_limit_are_read_exactly(capsys):
    code, out, err = run(capsys, "coeffs", "--f", "1e-4299*x", "--kind", "taylor",
                         "--order", "1")
    assert code == 0, err
    assert out.splitlines()[-1].split()[1] == "1/1" + "0" * 4299


def test_numbers_at_the_digit_limit_are_read_exactly(capsys):
    # 10^-4299 has a 4300-digit denominator, the most str(int) prints
    code, out, err = run(capsys, "verify", "--f", "x^2 + 1", "--kind", "taylor",
                         "--order", "2", "--x0", "1e-4299")
    assert code == 0, err
    assert json.loads(out)["pass"]


_FUZZ_EXPRS = ("exp(x)", "sin(x)", "cos(x) + x", "arctan(x)", "ln(x)", "sqrt(x)", "1/x",
               "1/(1 - x)", "x^2", "x^40", "-x^3 + 2", "11e308", "-11e308", "1e-320", "0",
               "exp(exp(x))", "exp(100*x)", "exp(1000*x)", "bessel_j0(x)", "ln(x^2 + 1)",
               "sqrt(4 - x^2)", "x^-1", "(x", "")
_FUZZ_NUMBERS = ("0", "0.5", "-1e-3", "1/3", "-2", "3", "1e400", "11e308", "1e-300",
                 "nan", "-inf", "abc")
_FUZZ_FLAGS = (
    ("--x0", _FUZZ_NUMBERS),
    ("--w", _FUZZ_NUMBERS),
    ("--q", ("0", "1", "2", "x")),
    ("--alpha", _FUZZ_NUMBERS),
    ("--interval", ("-1,1", "0,2", "1,1", "-2,1e400", "a")),
    ("--family", ("derivative", "moments", "bogus")),
    ("--perturb", ("1,1e-3", "0,-2", "3,1e300", "0,nan", "x")),
    ("--lambda", ("ln", "sqrt", "cube")),
    ("--preset", ("ws-a", "ws-f", "ws-z")),
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(("coeffs", "verify", "compare")))
    kinds = st.sampled_from(KIND_NAMES + ("gauss",))
    argv = [command, "--f", draw(st.sampled_from(_FUZZ_EXPRS))]
    if command == "compare":
        argv += ["--kind", ",".join(draw(st.lists(kinds, min_size=1, max_size=3))),
                 "--grid", draw(st.sampled_from(("-1,1,9", "0.1,2,5", "1,0,5", "-1,1,1")))]
    else:
        argv += ["--kind", draw(kinds)]
    argv += ["--order", draw(st.sampled_from(("0", "1", "3", "6", "12", "-1", "x")))]
    for flag, values in _FUZZ_FLAGS:
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_exit_code_contract_fuzz(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err


# -- the CLI contract as a property -------------------------------------------------------

_CONTRACT_FNS = ("exp", "ln", "sin", "cos", "sqrt", "arctan", "bessel_j0")
_CONTRACT_X0 = ("0", "1/3", "0.5", "-0.0", "1e20", "nan", "inf")
_CONTRACT_GRID = (-0.9, 0.9, 21)
_NON_FINITE = re.compile(r"\b(?:inf|nan|infinity)\b", re.IGNORECASE)


def _contract_expressions(depth: int):
    """Expressions of depth at most ``depth`` over the parser's functions and
    operators, with atoms x, small integers and numbers from 1e-300 to 1e300."""
    atoms = st.one_of(
        st.just("x"), st.integers(0, 9).map(str),
        st.builds("{}e{}".format, st.sampled_from(("1", "2.5", "7")), st.integers(-300, 300)))
    if depth == 0:
        return atoms
    sub = _contract_expressions(depth - 1)
    return st.one_of(
        atoms,
        st.builds("{}({})".format, st.sampled_from(_CONTRACT_FNS), sub),
        st.builds("({}) {} ({})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({})^{}".format, sub, st.integers(-3, 3)))


@st.composite
def _contract_argv(draw):
    command = draw(st.sampled_from(("coeffs", "verify", "compare")))
    argv = [command, "--f", draw(_contract_expressions(3))]
    if command == "compare":
        kinds = draw(st.lists(st.sampled_from(KIND_NAMES), min_size=2, max_size=3))
        argv += ["--kind", ",".join(kinds), "--grid={},{},{}".format(*_CONTRACT_GRID)]
    else:
        argv += ["--kind", draw(st.sampled_from(KIND_NAMES))]
    argv += ["--order", str(draw(st.integers(0, 20))),
             "--x0", draw(st.sampled_from(_CONTRACT_X0))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--family", "moments"]
    return argv


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _finite_errors(argv, kind) -> int:
    """How many grid points of a ``compare`` row give a finite error."""
    f = charmatch.parse(_flag(argv, "--f"))
    xs = grid(*_CONTRACT_GRID)
    approx = charmatch.build_kind(kind, f, int(_flag(argv, "--order")),
                                  x0=Fraction(_flag(argv, "--x0", "0"))).approximant
    return sum(math.isfinite(a) and math.isfinite(v)
               for a, v in zip(sample(approx, xs), sample(f, xs)))


def _check_compare_rows(argv, out):
    f = charmatch.parse(_flag(argv, "--f"))
    points = sum(map(math.isfinite, sample(f, grid(*_CONTRACT_GRID))))
    for line in out.splitlines()[1:]:
        kind, max_err, l2 = line.split()
        max_err, l2 = float(max_err), float(l2)
        assert not math.isnan(max_err) and not math.isnan(l2), line
        if math.isfinite(max_err):
            # every error is finite: the mean square lies between max^2 / n and
            # max^2, up to the 7 digits printed
            slack = 1 + 1e-6
            assert max_err / math.sqrt(points) <= l2 * slack and l2 <= max_err * slack, line
        elif l2 == math.inf:
            assert _finite_errors(argv, kind) == 0, line


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=_contract_argv())
@example(argv=["compare", "--f", "(0.5) / (1e-300)", "--order", "1",
               "--grid=-0.9,0.9,21", "--kind", "taylor,nonlinear"])
@example(argv=["compare", "--f", "1e-170*exp(x)", "--order", "3",
               "--grid=-0.9,0.9,21", "--kind", "taylor,pade"])
@example(argv=["coeffs", "--f", "(1e155) * ((2.5e153) + (exp(x)))", "--kind", "taylor",
               "--order", "0", "--x0", "1/3"])
def test_cli_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, err)
    if code in (2, 3):
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), argv
        return
    if code == 0:
        assert err == "", argv
    command = argv[0]
    if command == "verify":
        report = json.loads(out)
        assert report["pass"] is (code == 0), argv
        if code == 0:
            assert all(map(math.isfinite, report["residuals"] + [report["max_residual"]])), argv
        return
    assert code == 0, argv
    if command == "compare":
        _check_compare_rows(argv, out)
    else:
        assert not _NON_FINITE.search(out), (argv, out)


def test_compare_kind_failing_on_part_of_the_grid(tmp_path, capsys):
    # log_powers is undefined for x <= -1, so 3 of the 11 points fail for it
    path = tmp_path / "cmp.json"
    code, out, _ = run(capsys, "compare", "--f", "exp(x)", "--grid", "-1.5,1,11",
                       "--kind", "taylor,log_powers", "--json", str(path))
    assert code == 0
    rows = {row["kind"]: row for row in json.loads(path.read_text())}
    assert list(rows) == ["taylor", "log_powers"]
    assert rows["log_powers"]["max_abs_err"] == math.inf
    assert math.isfinite(rows["log_powers"]["l2_err"])
    assert math.isfinite(rows["taylor"]["max_abs_err"])
    assert math.isfinite(rows["taylor"]["l2_err"])
    assert "inf" in out.splitlines()[2]


@pytest.mark.parametrize("f, order, kinds", [
    ("(0.5) / (1e-300)", "1", "taylor,nonlinear"),  # squares beyond the float range
    ("1e-170*exp(x)", "3", "taylor,pade"),  # squares below it
])
def test_compare_l2_err_stays_finite_beside_extreme_errors(tmp_path, capsys, f, order, kinds):
    path = tmp_path / "cmp.json"
    code, _, err = run(capsys, "compare", "--f", f, "--order", order, "--grid=-0.9,0.9,21",
                       "--kind", kinds, "--json", str(path))
    assert code == 0 and err == ""
    for row in json.loads(path.read_text()):
        high, l2 = row["max_abs_err"], row["l2_err"]
        assert math.isfinite(high)
        assert high / math.sqrt(21) * (1 - 1e-15) <= l2 <= high * (1 + 1e-15)


@pytest.mark.parametrize("command", [
    # exp(1/3) is a float, and the product overflows to inf where the exact
    # 2.5e153 + exp(1/3) meets the factor 1e155
    ["coeffs", "--kind", "taylor", "--f", "(1e155) * ((2.5e153) + (exp(x)))", "--x0", "1/3"],
    ["verify", "--kind", "taylor", "--f", "(1e155) * ((2.5e153) + (exp(x)))", "--x0", "1/3"],
    # finite on the left half of the grid, inf at the center 1
    ["compare", "--kind", "taylor,pade", "--grid=-0.9,0.9,21", "--f", "1e308 * exp(x)",
     "--x0", "1"],
])
def test_a_characteristic_number_beyond_the_float_range_exits_2(capsys, command):
    code, out, err = run(capsys, *command, "--order", "0")
    assert code == 2 and out == ""
    assert err == "error: a characteristic number is inf: a value lies beyond the float range\n"


@pytest.mark.parametrize("lam", ["identity", "bogus"])
def test_unknown_lambda_exits_2_from_flag_and_config(tmp_path, capsys, lam):
    argv = ("verify", "--f", "exp(x)", "--kind", "nonlinear", "--order", "4")
    code, _, err = run(capsys, *argv, "--lambda", lam)
    assert code == 2 and err.startswith("error:")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lam": lam}))
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("f, grid, kinds", [
    ("ln(x)", "0,2,11", "taylor,pade"),
    ("1/x", "-1,1,11", "taylor,log_powers"),
    ("sqrt(x)", "-1,1,11", "taylor,pade"),
])
def test_compare_skips_points_where_the_function_is_not_finite(tmp_path, capsys, f, grid,
                                                                kinds):
    path = tmp_path / "cmp.json"
    code, _, err = run(capsys, "compare", "--f", f, f"--grid={grid}", "--kind", kinds,
                       "--x0", "1", "--order", "4", "--json", str(path))
    assert code == 0, err
    rows = json.loads(path.read_text())
    assert [row["kind"] for row in rows] == kinds.split(",")
    assert all(math.isfinite(row["l2_err"]) for row in rows)


@pytest.mark.parametrize("f, grid, message", [
    ("ln(x)", "-2,-1,5", "ln(-2.0): math domain error"),  # the error of f itself
    ("1e308*x*x", "10,20,3", "the function is finite at no grid point"),  # inf, no error
])
def test_compare_of_a_function_finite_nowhere_exits_2(capsys, f, grid, message):
    code, out, err = run(capsys, "compare", "--f", f, f"--grid={grid}",
                         "--kind", "taylor,pade", "--x0", "1", "--order", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("extra, want", [((), 0), (("--perturb", "3,0.5"), 1)])
def test_closed_stdout_keeps_the_exit_code(extra, want):
    # the reader goes away before the first line: no traceback, and the code
    # still says whether the verification passed
    src = Path(charmatch.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "charmatch.cli", "verify", "--f", "exp(x)",
            "--kind", "taylor", "--order", "40", *extra]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == want, err
    assert "Traceback" not in err and "Error" not in err


# -- the settings each command reads --------------------------------------------

_BUILD = ("f", "kind", "order", "x0", "w", "q", "alpha", "lam", "preset")
_READS = {
    "coeffs": _BUILD + ("json",),
    "verify": _BUILD + ("json", "family", "interval", "perturb"),
    "compare": _BUILD + ("grid", "json"),
    "figure": ("csv", "svg"),
}
# each setting's flag and a value it accepts
_SETTINGS = {
    "f": ("--f", "exp(x)"), "kind": ("--kind", "taylor"), "order": ("--order", "4"),
    "x0": ("--x0", "0"), "w": ("--w", "1"), "q": ("--q", "2"), "alpha": ("--alpha", "-1"),
    "lam": ("--lambda", "ln"), "preset": ("--preset", "ws-a"),
    "json": ("--json", "out.json"), "family": ("--family", "moments"),
    "interval": ("--interval", "0,1"), "perturb": ("--perturb", "1,1"),
    "grid": ("--grid", "-1,1,11"), "csv": ("--csv", "out.csv"), "svg": ("--svg", "out.svg"),
}
# an accepted run of each command
_ACCEPTED = {
    "coeffs": ("coeffs", "--f", "exp(x)", "--kind", "taylor", "--order", "2"),
    "verify": ("verify", "--f", "exp(x)", "--kind", "taylor", "--order", "2"),
    "compare": ("compare", "--f", "exp(x)", "--kind", "taylor,nsbf", "--order", "2",
                "--grid", "-1,1,5"),
    "figure": ("figure", "ws-d"),
}


@pytest.mark.parametrize("command, key", [(command, key) for command, reads in _READS.items()
                                          for key in _SETTINGS if key not in reads])
def test_a_setting_the_command_does_not_read_is_refused(tmp_path, monkeypatch, capsys,
                                                         command, key):
    monkeypatch.chdir(tmp_path)
    flag, value = _SETTINGS[key]
    code, out, err = run(capsys, *_ACCEPTED[command], flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, *_ACCEPTED[command], "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {command} does not read {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("extra", [(), ("--family", "derivative")])
def test_interval_without_family_moments_is_refused(capsys, extra):
    code, out, err = run(capsys, "verify", "--f", "exp(x)", "--kind", "taylor", "--order", "4",
                         "--interval", "0,1", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "interval" in err


@pytest.mark.parametrize("command, bodies, extra, want", [
    ("coeffs", [{"f": "exp(x)", "kind": "exp_weighted", "order": 3, "x0": "1/2", "w": -0.5,
                 "q": 2, "json": "out.json"}], (), 0),
    ("coeffs", [{"f": "exp(x)", "kind": "newpade", "order": 3, "alpha": -2}], (), 0),
    ("coeffs", [{"f": "exp(x)", "kind": "nonlinear", "lam": "sqrt", "order": 3}], (), 0),
    ("verify", [{"f": "x^2", "kind": "taylor", "order": 3, "family": "moments",
                 "interval": [0, 1], "json": "out.json"}], (), 0),
    ("verify", [{"preset": "ws-a", "order": 4, "perturb": [1, 0.5]}], (), 1),
    ("compare", [{"f": "exp(x)", "kind": "taylor", "order": 4, "grid": [-1, 1, 11],
                  "json": "out.json"},
                 {"f": "exp(x)", "kind": "pade", "order": 4, "grid": "-1,1,11"}], (), 0),
    ("figure", [{"csv": "out.csv", "svg": "out.svg"}], ("ws-d",), 0),
])
def test_config_files_holding_only_read_keys_work(tmp_path, monkeypatch, capsys, command,
                                                   bodies, extra, want):
    monkeypatch.chdir(tmp_path)
    argv = [command, *extra]
    for i, body in enumerate(bodies):
        (tmp_path / f"run{i}.json").write_text(json.dumps(body))
        argv += ["--config", f"run{i}.json"]
    code, out, err = run(capsys, *argv)
    assert code == want, err
    assert out and err == ""
    written = {value for body in bodies for key, value in body.items()
               if key in ("json", "csv", "svg")}
    assert all((tmp_path / name).is_file() for name in written)


def test_compare_builds_every_kind_before_printing(capsys):
    # pade has no [1/1] block for cos(x), where f_1 q_1 = -f_2 reads 0 = 1/2:
    # no header and no taylor row come first
    code, out, err = run(capsys, "compare", "--f", "cos(x)", "--grid=-1,1,11",
                         "--kind", "taylor,pade", "--order", "2")
    assert (code, out) == (2, "")
    assert err == "error: degenerate Pade block\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--f", "1/(1+x^2)", "--kind", "pade", "--order", "11"),
    ("verify", "--f", "1/(1+x^2)", "--kind", "pade", "--order", "11", "--x0", "1/3"),
    ("verify", "--f", "1", "--kind", "pade", "--order", "4"),
    ("verify", "--f", "1+x", "--kind", "pade", "--order", "4"),
    ("compare", "--f", "x^3", "--kind", "taylor,pade", "--grid=-0.9,0.9,5", "--order", "20"),
])
def test_consistent_singular_pade_blocks_build(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if argv[0] == "verify":
        assert json.loads(out)["max_residual"] == 0
    else:
        assert [line.split()[1:] for line in out.splitlines()[1:]] == [["0.000000e+00"] * 2] * 2


def test_the_benchmark_argv_shapes_run(tmp_path, capsys):
    # the two shapes the grid workload (bench/workloads.py, Grid.argv) passes to main
    code, _, err = run(capsys, "figure", "ws-d", "--csv", str(tmp_path / "f.csv"),
                       "--svg", str(tmp_path / "f.svg"))
    assert code == 0, err
    code, _, err = run(capsys, "compare", "--f", "exp(sin(x))", "--grid=-0.9,0.9,2001",
                       "--order", "20", "--kind", ",".join(KIND_NAMES),
                       "--json", str(tmp_path / "compare.json"))
    assert code == 0, err
    rows = json.loads((tmp_path / "compare.json").read_text())
    assert [row["kind"] for row in rows] == list(KIND_NAMES)


# -- a preset reads no kind --------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("compare", "--f", "exp(x)", "--kind", "taylor,nsbf", "--preset", "ws-a",
     "--grid=-1,1,21", "--order", "4"),
    ("coeffs", "--f", "exp(x)", "--kind", "taylor", "--preset", "ws-a"),
    ("verify", "--preset", "ws-a", "--kind", "pade"),
])
def test_preset_with_kind_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--preset" in err and "--kind" in err


@pytest.mark.parametrize("command", ["coeffs", "verify", "compare"])
@pytest.mark.parametrize("key, flag, value", [
    ("kind", "--kind", "taylor"), ("w", "--w", "1"), ("q", "--q", "2"),
    ("alpha", "--alpha", "-1"), ("lam", "--lambda", "ln"),
])
def test_preset_with_a_kind_setting_exits_2_from_flag_and_config(tmp_path, capsys, command,
                                                                 key, flag, value):
    configs = [{"preset": "ws-a", key: value, "order": 4}]
    if command == "compare":  # one configuration per config file
        configs.append({"f": "exp(x)", "kind": "nsbf", "order": 4})
    else:
        code, out, err = run(capsys, command, "--preset", "ws-a", "--order", "4", flag, value)
        assert (code, out) == (2, "")
        assert "--preset" in err and flag in err
    argv = [command]
    for i, body in enumerate(configs):
        (tmp_path / f"run{i}.json").write_text(json.dumps(body))
        argv += ["--config", str(tmp_path / f"run{i}.json")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--preset" in err and flag in err


def test_preset_alone_still_works(capsys):
    code, out, err = run(capsys, "coeffs", "--preset", "ws-a", "--order", "4")
    assert code == 0 and err == ""
    assert out.startswith("kind: ws")


# -- a preset reads no center ------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("coeffs", "--preset", "ws-a", "--order", "4", "--x0", "7"),
    ("verify", "--preset", "ws-a", "--order", "4", "--x0", "1"),
])
def test_preset_with_x0_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--preset" in err and "--x0" in err


def test_preset_with_x0_in_a_config_exits_2(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"preset": "ws-a", "x0": 1}))
    code, out, err = run(capsys, "verify", "--config", str(tmp_path / "run.json"),
                         "--order", "4")
    assert (code, out) == (2, "")
    assert "--preset" in err and "--x0" in err


@pytest.mark.parametrize("argv", [
    ("coeffs", "--f", "exp(x)", "--kind", "pade", "--order", "5"),
    ("verify", "--f", "exp(x)", "--kind", "nsbf", "--order", "5"),
    ("verify", "--f", "exp(x)", "--kind", "taylor", "--order", "5", "--family", "derivative",
     "--perturb", "2,0.5"),
])
def test_x0_left_out_reads_as_zero(capsys, argv):
    left_out = run(capsys, *argv)
    assert left_out == run(capsys, *argv, "--x0", "0")
    assert left_out[0] in (0, 1) and left_out[2] == ""


# -- a kind reads only its own parameters ------------------------------------------

# each kind parameter's config key, flag and an accepted value
_KIND_PARAMS = (("w", "--w", "-1/3"), ("q", "--q", "3"), ("alpha", "--alpha", "2"),
                ("lam", "--lambda", "sqrt"))
_UNREAD = [(kind, key, flag, value) for kind in KIND_NAMES
           for key, flag, value in _KIND_PARAMS if key not in kind_params(kind)]


@pytest.mark.parametrize("command", ["coeffs", "verify", "compare"])
@pytest.mark.parametrize("kind, key, flag, value", _UNREAD)
def test_a_kind_parameter_the_kind_does_not_read_exits_2(tmp_path, capsys, command, kind,
                                                         key, flag, value):
    configs = [{"f": "exp(x)", "kind": kind, "order": 4, key: value}]
    if command == "compare":  # one configuration per config file
        configs = [body | {"grid": "-0.5,0.5,5"}
                   for body in configs + [{"f": "exp(x)", "kind": "taylor", "order": 4}]]
    else:
        code, out, err = run(capsys, command, "--f", "exp(x)", "--kind", kind, "--order", "4",
                             flag, value)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --kind {kind} and {flag} do not combine:")
    argv = [command]
    for i, body in enumerate(configs):
        (tmp_path / f"run{i}.json").write_text(json.dumps(body))
        argv += ["--config", str(tmp_path / f"run{i}.json")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --kind {kind} and {flag} do not combine:")


def test_the_cli_names_an_aliased_kind_as_given(capsys):
    code, out, err = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "newpade", "--w", "1")
    assert (code, out) == (2, "")
    assert err == ("error: --kind newpade and --w do not combine: --kind newpade reads only "
                   "--f, --order, --kind, --x0, --alpha\n")


def test_a_setting_the_kind_does_not_read_is_refused_before_its_value(tmp_path, capsys):
    # 'abc' is no number, but exp_weighted does not read alpha at all
    want = "error: --kind exp_weighted and --alpha do not combine:"
    code, out, err = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "exp_weighted",
                         "--alpha", "abc")
    assert (code, out) == (2, "") and err.startswith(want), err
    (tmp_path / "run.json").write_text(json.dumps({"alpha": "abc"}))
    code, out, err = run(capsys, "coeffs", "--f", "exp(x)", "--kind", "exp_weighted",
                         "--config", str(tmp_path / "run.json"))
    assert (code, out) == (2, "") and err.startswith(want), err


@pytest.mark.parametrize("kinds, flags", [
    ("taylor,exp_weighted", ("--w", "-1/3")),
    ("exp_weighted,nonlinear,newpade,taylor", ("--w", "-1/3", "--q", "3", "--lambda", "sqrt",
                                               "--alpha", "2", "--x0", "1/4")),
])
def test_compare_gives_a_kind_parameter_to_the_kinds_that_read_it(tmp_path, capsys, kinds,
                                                                  flags):
    shared = ("--f", "exp(x)", "--grid=-0.5,0.5,5", "--order", "4")
    code, by_flags, err = run(capsys, "compare", *shared, "--kind", kinds, *flags)
    assert code == 0, err
    # the same run from one config file per kind, each with the settings it reads
    keys = {flag: key for key, flag, _ in _KIND_PARAMS} | {"--x0": "x0"}
    given = {keys[flag]: value for flag, value in zip(flags[::2], flags[1::2])}
    argv = ["compare", *shared]
    for kind in kinds.split(","):
        reads = ("x0", *kind_params(kind))
        body = {"kind": kind} | {key: value for key, value in given.items() if key in reads}
        (tmp_path / f"{kind}.json").write_text(json.dumps(body))
        argv += ["--config", str(tmp_path / f"{kind}.json")]
    assert run(capsys, *argv) == (0, by_flags, "")


@pytest.mark.parametrize("flag, value", [("--w", "1"), ("--q", "2"), ("--alpha", "-1"),
                                         ("--lambda", "ln")])
def test_compare_refuses_a_kind_parameter_no_listed_kind_reads(capsys, flag, value):
    code, out, err = run(capsys, "compare", "--f", "exp(x)", "--grid=-0.5,0.5,5",
                         "--kind", "taylor,nsbf", flag, value)
    assert (code, out) == (2, "")
    assert err == (f"error: --kind taylor,nsbf and {flag} do not combine: "
                   "no listed kind reads it\n")


# -- an empty moments interval is refused ---------------------------------------------


@pytest.mark.parametrize("interval", ["1,1", "1,1.0", "-0.5,-1/2"])
def test_empty_interval_exits_2(capsys, interval):
    code, out, err = run(capsys, "verify", "--f", "x^2", "--kind", "taylor", "--order", "4",
                         "--family", "moments", "--interval", interval, "--perturb", "1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "interval" in err


def test_empty_interval_in_a_config_exits_2(tmp_path, capsys):
    body = {"f": "x^2", "kind": "taylor", "order": 4, "family": "moments",
            "interval": [1, 1.0], "perturb": [1, 1]}
    (tmp_path / "run.json").write_text(json.dumps(body))
    code, out, err = run(capsys, "verify", "--config", str(tmp_path / "run.json"))
    assert (code, out) == (2, "")
    assert "interval" in err


@pytest.mark.parametrize("interval, perturb, want", [
    ("0,1", "1,1", 1), ("0,1", "1,0", 0), ("1,0", "1,0", 0), ("1,0", "1,1", 1),
])
def test_nonempty_intervals_still_verify(capsys, interval, perturb, want):
    code, out, err = run(capsys, "verify", "--f", "x^2", "--kind", "taylor", "--order", "4",
                         "--family", "moments", "--interval", interval, "--perturb", perturb)
    assert (code, err) == (want, "")
    assert json.loads(out)["pass"] is (want == 0)
