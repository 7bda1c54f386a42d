import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import cbcseries
import cbcseries.cli as cli
import cbcseries.registry as registry
from cbcseries.families import MAX_INDEX
from cbcseries.precision import GUARD_DIGITS, MAX_DIGITS, make_context
from cbcseries.registry import ComparisonReport

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_simple(capsys):
    code, out, err = run(
        capsys, "eval", "--family", "F3", "--x", "1/2", "--digits", "20"
    )
    assert code == 0
    assert "converged" in out
    assert "true" in out


def test_eval_boundary_exits_3(capsys):
    code, out, err = run(
        capsys, "eval", "--family", "F3", "--x", "1", "--digits", "20"
    )
    assert code == 3
    assert "numeric failure" in err
    assert out == ""


def test_eval_boundary_force_terms(capsys):
    code, out, err = run(
        capsys,
        "eval", "--family", "F3", "--x", "1", "--digits", "20",
        "--force-terms", "500",
    )
    assert code == 0
    assert "unknown" in out  # no certified truncation bound at |x| = 1


def test_compare_pass(capsys):
    code, out, err = run(capsys, "compare", "--family", "F3", "--x", "1/2")
    assert code == 0
    assert "pass" in out


def test_compare_max_terms_cap_exits_3(capsys):
    code, out, err = run(
        capsys,
        "compare", "--family", "F1", "--x", "9/10", "--max-terms", "10",
    )
    assert code == 3
    assert "numeric failure" in err


def test_compare_j1_capped_exits_3(capsys):
    code, out, err = run(
        capsys, "compare", "--family", "J1", "--max-terms", "2000"
    )
    assert code == 3


def test_constants_json(capsys):
    code, out, err = run(capsys, "constants", "--format", "json", "--digits", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "constants"
    assert len(doc["results"]) == 5
    names = [row["name"] for row in doc["results"]]
    assert names == ["alpha", "beta", "delta", "sqrt5", "pi"]
    alpha = doc["results"][0]["value"]
    assert alpha.startswith("1.618033988749894848204586834365638117720")


def test_constants_csv(capsys):
    code, out, err = run(capsys, "constants", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value"]
    assert len(rows) == 6


def test_closed_matches_eval(capsys):
    code_e, out_e, _ = run(
        capsys, "eval", "--family", "I3", "--digits", "25", "--format", "json"
    )
    code_c, out_c, _ = run(
        capsys, "closed", "--family", "I3", "--digits", "25", "--format", "json"
    )
    assert code_e == code_c == 0
    val_e = json.loads(out_e)["results"][0]["value"]
    val_c = json.loads(out_c)["results"][0]["value"]
    assert val_e[:24] == val_c[:24]


def test_identity_single(capsys):
    code, out, err = run(
        capsys, "identity", "--id", "harmonic-integral", "--n-max", "30"
    )
    assert code == 0
    assert "harmonic-log-moment" in out
    assert "pass" in out


def test_identity_n_max_rejected_for_sample_checks(capsys):
    code, out, err = run(capsys, "identity", "--id", "arcsin-split", "--n-max", "5")
    assert code == 2
    assert "error:" in err


def test_identity_huge_n_max_fails_fast(capsys):
    for ident in ("convolution", "weighted-convolution", "binomial-transform",
                  "sign-split", "harmonic-integral"):
        start = time.perf_counter()
        code, out, err = run(capsys, "identity", "--id", ident, "--n-max", "10000000")
        assert code == 2
        assert out == ""
        assert "must be in [" in err and "got 10000000" in err
        assert time.perf_counter() - start < 1.0


def test_extreme_precision_and_indices_exit_2_fast(capsys):
    """Requests far past the digits or index limits would run for minutes; they
    are refused before any work."""
    cases = [
        (("constants", "--digits", "100000000"), "digits must be <= 100000"),
        (("eval", "--family", "F3", "--x", "1/2", "--digits", "5000000"),
         "digits must be <= 100000"),
        (("closed", "--family", "C1", "--x", "1/3", "--digits", "50000000"),
         "digits must be <= 100000"),
        (("eval", "--family", "G1", "--m", "1", "--s", "100000000", "--p", "8", "--digits", "20"),
         "|s| must be <= 1000000"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert out == ""
        assert message in err and "limit" in err
    # the limits themselves pass validation; nothing is evaluated
    assert cbcseries.make_context(MAX_DIGITS).working_digits == MAX_DIGITS + GUARD_DIGITS
    cbcseries.FamilySpec("G1", m=1, s=-MAX_INDEX, p=Fraction(8))
    cbcseries.FamilySpec("I1", r=MAX_INDEX)
    cbcseries.FamilySpec("I2", r=MAX_INDEX)
    for kwargs in ({"m": MAX_INDEX + 1, "s": 0}, {"m": 1, "s": MAX_INDEX + 1}):
        with pytest.raises(cbcseries.UsageError, match="index limit"):
            cbcseries.FamilySpec("G1", p=Fraction(8), **kwargs)
    with pytest.raises(cbcseries.UsageError, match="index limit"):
        cbcseries.FamilySpec("I2", r=MAX_INDEX + 2)


def test_negative_tolerance_exits_2(capsys):
    for argv in (("compare", "--family", "F3", "--x", "1/2", "--tol", "-1"),
                 ("examples", "--id", "thm15-I3", "--tol", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "tolerance must be >= 0" in err
    code, out, err = run(capsys, "compare", "--family", "F3", "--x", "1/2", "--tol", "0")
    assert code == 0


def test_negative_values_as_separate_words(capsys, monkeypatch):
    """A negative fraction or angle may follow its flag as a separate word."""
    eval_c1 = ("eval", "--family", "C1", "--force-terms", "10", "--format", "json")
    code, spaced, err = run(capsys, *eval_c1, "--x", "-1/2")
    assert code == 0, err
    code, joined, err = run(capsys, *eval_c1, "--x=-1/2")
    assert code == 0, err
    assert spaced == joined
    code, out, err = run(capsys, "compare", "--family", "T3", "--phi", "-pi/6")
    assert code == 0, err
    code, out, err = run(capsys, "compare", "--family", "F3", "--x", "1/2", "--tol", "-1/10")
    assert code == 2
    assert out == ""
    assert "tolerance must be >= 0" in err
    # the same from the command line itself
    monkeypatch.setattr(sys, "argv", ["cbcseries", *eval_c1, "--x", "-1/2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == joined


def test_traced_names_are_looked_up_at_call_time(capsys, monkeypatch):
    """cli and registry call check_convolution, sum_adaptive and evaluate
    through their module globals, so a wrapper put there sees every call.
    The benchmark's tracer times these layers that way; a table that captured
    the function objects would read zero."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli, "check_convolution")
    count(cli, "sum_adaptive")
    count(registry, "evaluate")
    assert cli.main(["identity", "--id", "convolution"]) == 0
    assert calls == {"check_convolution": 1}
    assert cli.main(["compare", "--family", "F3", "--x", "1/2"]) == 0
    assert calls["sum_adaptive"] == 1
    assert registry.run_example("thm15-I3", make_context(30)).passed
    assert calls["evaluate"] == 1
    capsys.readouterr()


def test_identity_unknown_id_rejected(capsys):
    code, out, err = run(capsys, "identity", "--id", "frobnicate")
    assert code == 2


def test_examples_single_row(capsys):
    code, out, err = run(
        capsys, "examples", "--id", "ex6-F3-x1", "--digits", "40"
    )
    assert code == 0
    assert "pass" in out


def test_examples_set_json(capsys):
    code, out, err = run(
        capsys, "examples", "--set", "thm15", "--format", "json", "--digits", "30"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 7
    assert all(row["pass"] == "pass" for row in doc["results"])


def test_examples_bad_set(capsys):
    code, out, err = run(capsys, "examples", "--set", "bogus")
    assert code == 2


def test_examples_failure_exits_1(capsys, monkeypatch):
    def fake(row_id, ctx, tolerance=None):
        return ComparisonReport(
            id=row_id, series_value=0, closed_value=1, abs_diff=1,
            certified_bound=0, terms_used=5, passed=False,
        )

    monkeypatch.setattr(cli, "run_example", fake)
    code, out, err = run(capsys, "examples", "--id", "thm15-I3")
    assert code == 1
    assert "fail" in out


def test_usage_errors_exit_2(capsys):
    cases = [
        ("eval", "--family", "F99", "--x", "1/2"),
        ("eval", "--family", "F3"),
        ("eval", "--family", "F3", "--x", "1/2", "--r", "4"),
        ("eval", "--family", "T1", "--phi", "pi/banana"),
        ("eval", "--family", "C1", "--x", "3/5"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_list_families_text(capsys):
    code, out, err = run(capsys, "list-families")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    # header + separator-free rows, one per family
    assert len(lines) == 1 + 34


def test_list_families_json_is_unchanged(capsys):
    """The catalog JSON is byte-identical to the recorded one (sign and start per family)."""
    code, out, err = run(capsys, "list-families", "--format", "json")
    assert code == 0
    recorded = Path(__file__).resolve().parent / "data" / "list_families.json"
    assert out == recorded.read_text()


def test_compare_past_the_cap_fails_fast(capsys):
    """H2 at x = 0.999999 needs ~10^8 terms: refused before summing, naming the model."""
    start = time.perf_counter()
    code, out, err = run(
        capsys, "compare", "--family", "H2", "--x=999999/1000000", "--digits", "40"
    )
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "geometric tail model (q = 0.999999) predicts N = 100392810" in err
    assert "past the cap of 10000000 terms (tail_bound at N = 9999999 is 0.0057274734)" in err


def test_ratio_rounding_to_one_exits_3_naming_the_model(capsys):
    """Inside the domain, a ratio majorant that rounds to 1 is a term-cap refusal."""
    near_four_alpha = f"{2 * 10**60 + math.isqrt(20 * 10**120) + 1}/{10**60}"
    for argv in (("eval", "--family", "I1", "--r", "1000"),
                 ("eval", "--family", "H2", "--x", "0." + "9" * 60),
                 ("compare", "--family", "G1", "--m", "1", "--s", "0", "--p", near_four_alpha)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3, argv
        assert out == ""
        assert "the geometric tail model (q = 1.0) predicts N = more than 2^64" in err
        assert "rounds to 1 at the working precision" in err
        assert "reaches 1" not in err


_H2_NEAR_ONE = ("eval", "--family", "H2", "--x", "0.999999999999999999", "--digits", "20")


def test_a_ratio_just_below_one_shows_its_distance_from_one(capsys):
    """q = 1 - 10^-18 is certifiable in principle; it must not read as the boundary q = 1.0."""
    code, out, err = run(capsys, *_H2_NEAR_ONE)
    assert code == 3
    assert "the geometric tail model (q = 1 - 1.0e-18) predicts N = more than 2^64" in err
    assert "q = 1.0)" not in err


def test_max_terms_past_the_search_limit_exits_2(capsys):
    """No stop index past 2^64 is searched, so a larger cap cannot be honoured."""
    code, out, err = run(capsys, *_H2_NEAR_ONE, "--max-terms", str(10**21))
    assert code == 2
    assert out == ""
    assert f"max_terms must be <= 2^64, the search limit, got {10**21}" in err
    code, out, err = run(capsys, *_H2_NEAR_ONE, "--max-terms", str(2**64))
    assert code == 3
    assert f"past the cap of {2**64} terms" in err
    code, out, err = run(capsys, "compare", "--family", "F3", "--x", "1/2",
                         "--max-terms", str(2**64 + 1))
    assert code == 2


def test_max_terms_below_one_exits_2(capsys):
    for command in ("eval", "compare"):
        for cap in ("0", "-5"):
            code, out, err = run(
                capsys, command, "--family", "F3", "--x", "1/2", f"--max-terms={cap}"
            )
            assert code == 2
            assert out == ""
            assert f"max_terms must be >= 1, got {cap}" in err


def test_force_terms_past_the_cap_exits_2_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "eval", "--family", "F3", "--x", "1/2", "--force-terms", "1000000000000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "--force-terms 1000000000000" in err and "--max-terms 10000000" in err
    # F5 starts at n = 1: terms 1..10 are 10 terms
    code, out, err = run(
        capsys, "eval", "--family", "F5", "--x", "1/2", "--force-terms", "10", "--max-terms", "10"
    )
    assert code == 0
    code, out, err = run(
        capsys, "eval", "--family", "F5", "--x", "1/2", "--force-terms", "11", "--max-terms", "10"
    )
    assert code == 2


def test_json_output_is_reproducible(capsys):
    argv = ("compare", "--family", "H1", "--x", "1/2", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_installed_console_script(tmp_path):
    # Runs the declared [project.scripts] entry through the same wrapper an
    # installer writes, so no install is needed; an installed `cbcseries`
    # found on PATH is run as well.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    entry = EntryPoint(
        name="cbcseries", value=scripts["cbcseries"], group="console_scripts"
    )
    script = tmp_path / entry.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry.attr}())\n"
    )
    src = str(Path(cbcseries.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run_wrapper(*argv):
        return subprocess.run(
            [sys.executable, str(script), *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )

    proc = run_wrapper("constants", "--digits", "10")
    assert proc.returncode == 0, proc.stderr
    assert "alpha" in proc.stdout

    proc = run_wrapper("eval", "--family", "F3", "--x", "1", "--digits", "20")
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure" in proc.stderr

    installed = shutil.which(entry.name)
    if installed:
        proc = subprocess.run(
            [installed, "constants", "--digits", "10"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "alpha" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cbcseries", "list-families", "--format", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 35
