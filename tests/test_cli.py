import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import cbcseries
import cbcseries.cli as cli
import cbcseries.engine as engine
import cbcseries.registry as registry
from cbcseries.closedforms import closed_value
from cbcseries.families import MAX_INDEX, FamilySpec, PhiValue, SurdValue
from cbcseries.precision import GUARD_DIGITS, MAX_DIGITS, make_context
from cbcseries.registry import ComparisonReport

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


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
        capsys, "eval", "--family", "F5", "--x", "1", "--digits", "20"
    )
    assert code == 3
    assert "numeric failure" in err
    assert out == ""
    # F3 at x = 1 converges and is summed by CVZ
    code, out, err = run(
        capsys, "eval", "--family", "F3", "--x", "1", "--digits", "100", "--format", "json"
    )
    assert code == 0, err
    row = json.loads(out)["results"][0]
    assert row["converged"] == "true"
    ctx = make_context(120)
    with ctx.workprec():
        closed = closed_value(FamilySpec("F3", x=Fraction(1)), ctx)
        # the print rounds to 100 significant digits
        slack = mpf(10) ** -100 * max(1, abs(closed))
        assert abs(mpf(row["value"]) - closed) <= mpf(row["error_bound"]) + slack


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


@pytest.mark.parametrize("family, x, terms", [("F5", "1/2", 143), ("H3", "-1/2", 135)])
def test_max_terms_and_terms_used_count_from_the_first_nonzero_index(capsys, family, x, terms):
    """F5 and H3 step indices 1..N, so both counts are N, not N + 1."""
    argv = ("eval", "--family", family, f"--x={x}", "--digits", "40", "--format", "json")
    code, out, err = run(capsys, *argv, "--max-terms", str(terms))
    assert code == 0
    assert json.loads(out)["results"][0]["terms_used"] == terms
    code, out, err = run(capsys, *argv, "--max-terms", str(terms - 1))
    assert code == 3
    assert f"predicts N = {terms} ({terms} terms), past the cap of {terms - 1} terms" in err


def test_force_terms_counts_from_the_first_nonzero_index(capsys):
    """H3 starts at n = 1, so --force-terms 135 sums 135 terms and fits a cap of
    135; its terms_used is still N + 1, the indices the value stands for."""
    argv = ("eval", "--family", "H3", "--x=-1/2", "--max-terms", "135", "--format", "json")
    code, out, err = run(capsys, *argv, "--force-terms", "135")
    assert code == 0, err
    assert json.loads(out)["results"][0]["terms_used"] == 136
    code, out, err = run(capsys, *argv, "--force-terms", "136")
    assert code == 2
    assert "--force-terms 136 sums 136 terms, past the cap --max-terms 135" in err


@pytest.mark.parametrize("family, x", [("H4", f"1/{10**40}"), ("H3", f"-1/{10**40}")],
                         ids=["H4-1e-40", "H3--1e-40"])
def test_h3_h4_near_zero_sum_their_first_term(capsys, family, x):
    """Where tail_bound(0) already fits, the sum still holds its one nonzero term."""
    code, out, err = run(capsys, "compare", "--family", family, f"--x={x}", "--digits", "30",
                         "--format", "json")
    assert code == 0, err
    row = json.loads(out)["results"][0]
    assert row["terms_used"] == 1 and row["pass"] == "pass"
    value, bound = mpf(row["series_value"]), mpf(row["error_bound"])
    assert value != 0
    assert abs(value - mpf(row["closed_value"])) <= bound < abs(value)


def test_a_rational_phi_is_refused_past_its_stated_bound(capsys):
    """A rational |phi| is accepted up to 0.7853981 (pi/4 = 0.78539816...); the
    refusal states that bound, not pi/4, which the rational may lie below."""
    code, out, err = run(capsys, "eval", "--family", "T3", "--phi", "0.78539816")
    assert code == 2
    assert ("T3: requires |phi| <= 0.7853981 for a rational phi (write the boundary itself "
            "as pi/4), got phi = 9817477/12500000") in err
    assert run(capsys, "eval", "--family", "T3", "--phi", "0.7853981")[0] == 0
    code, out, err = run(capsys, "eval", "--family", "T3", "--phi", "pi/3")
    assert code == 2
    assert "T3: requires |phi| <= pi/4, got phi = pi/3" in err


def test_readme_transcripts_are_current(capsys):
    """Every README block that opens with ``$ cbcseries`` prints exactly what follows it."""
    blocks = re.findall(r"^```\n\$ cbcseries ([^\n]*)\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) >= 4
    for command, want in blocks:
        code, out, err = run(capsys, *shlex.split(command))
        assert (code, out) == (0, want), command


def test_compare_j1_capped_exits_3(capsys):
    """Below the index where the tail enclosure meets the target, the refusal
    names the enclosure, its order, N0 and the half-width it reached."""
    code, out, err = run(
        capsys, "compare", "--family", "J1", "--max-terms", "30"
    )
    assert code == 3
    assert err == ("numeric failure: J1: cannot certify target 1.0e-32: the J1 tail enclosure "
                   "of order 10 at N0 = 29 has half-width 1.1399036e-17, with a cap of 30 "
                   "terms\n")


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


@pytest.mark.parametrize("ident, limit", [
    ("convolution", 2000), ("weighted-convolution", 2000), ("binomial-transform", 1000),
    ("sign-split", 2000), ("harmonic-integral", 1000),
])
def test_range_checks_take_under_a_second_at_their_limits(capsys, ident, limit):
    """The exact checks hold for every n, so --n-max only labels their range:
    at its limit each passes within a second, naming the limit in its
    range, and one past it exits 2."""
    argv = ("identity", "--id", ident, "--format", "json", "--n-max")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, str(limit))
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    row = json.loads(out)["results"][0]
    assert row["status"] == "pass" and str(limit) in row["range"]
    code, out, err = run(capsys, *argv, str(limit + 1))
    assert code == 2
    assert out == "" and "must be in [" in err and f"got {limit + 1}" in err


def test_identity_huge_digits_runs_fast(capsys):
    """Every identity check is exact, so --digits 100000 passes within a
    second with the same rows as at 30 digits."""
    argv = ("identity", "--id", "all", "--format", "json", "--digits")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "100000")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    code, out30, err = run(capsys, *argv, "30")
    assert code == 0
    assert json.loads(out)["results"] == json.loads(out30)["results"]


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


@pytest.mark.parametrize("argv, flag", [
    (("eval", "--family", "F3", "--x", "1e-5000"), "--x"),
    (("eval", "--family", "F3", "--x", "1e5000"), "--x"),
    (("closed", "--family", "G1", "--m", "1", "--s", "0", "--p", "1e5000"), "--p"),
    (("eval", "--family", "T3", "--phi", "1e-5000"), "--phi"),
    (("eval", "--family", "F3", "--x", "1e-100000000"), "--x"),
    (("eval", "--family", "F3", "--x", "1e-1_0000_0000"), "--x"),
    (("eval", "--family", "F3", "--x", "1e-" + "9" * 5000), "--x"),
    (("eval", "--family", "T3", "--phi", "-1e-100000000"), "--phi"),
    (("compare", "--family", "F3", "--x", "1/2", "--tol", "1e-100000000"), "--tol"),
    (("compare", "--family", "F3", "--x", "1/2", "--tol", "-1e-5000"), "--tol"),
    (("examples", "--id", "trig-T1-pi6", "--tol", "1e100000000"), "--tol"),
], ids=lambda v: v if isinstance(v, str) else " ".join(v)[:48])
def test_rationals_past_the_digit_limit_exit_2_fast(capsys, argv, flag):
    """A value with more than 4300 digits above or below its fraction bar
    cannot be printed by any message, and one written with a huge exponent
    would take seconds to build; both are refused before any work."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"{flag} must have a numerator and denominator of at most 4300 digits, the digit limit" in err


@pytest.mark.parametrize("x", ["1/" + "3" * 4400, "3" * 4400 + "/7", "-" + "1" * 4301 + "/2",
                               "0" * 4400 + "1/2", "0." + "3" * 4400, "1" * 4301 + "e-9"],
                         ids=lambda x: f"{x[:8]}..{len(x)}")
def test_fraction_text_past_the_digit_limit_names_the_limit(capsys, x):
    """A numerator, denominator or decimal of more than 4300 digits, which
    int() would not read, is refused naming the limit, without echoing the
    text back."""
    code, out, err = run(capsys, "eval", "--family", "F3", f"--x={x}")
    assert (code, out) == (2, "")
    assert err == ("error: --x must have a numerator and denominator of at most 4300 digits, "
                   "the digit limit\n")


def test_version_prints_the_package_version(capsys):
    code, out, err = run(capsys, "--version")
    assert (code, out, err) == (0, f"cbcseries {cbcseries.__version__}\n", "")
    assert out == "cbcseries 0.1.0\n"


def test_rationals_at_the_digit_limit_pass(capsys):
    """4300 digits pass, from the CLI and the library; 4301 do not, in any part
    of x, phi or p."""
    argv = ("compare", "--family", "C1", "--digits", "30", "--format", "json", "--x")
    for x in ("1e-4299", "1000e-4302", "5e-4300", "1/1" + "0" * 4299):
        code, out, err = run(capsys, *argv, x)
        assert code == 0, err
    FamilySpec("F3", x=Fraction(1, 10**4299))
    cases = [
        ("F3", {"x": Fraction(1, 10**4300)}),
        ("F1", {"x": SurdValue(Fraction(1, 2), Fraction(10**4300 + 1))}),
        ("T3", {"phi": PhiValue(Fraction(10**4300, 3))}),
        ("G5", {"m": 1, "s": 0, "p": Fraction(10**4300)}),
    ]
    for family, kwargs in cases:
        with pytest.raises(cbcseries.UsageError, match="at most 4300 digits, the digit limit"):
            FamilySpec(family, **kwargs)


@pytest.mark.parametrize("m, figure", [(1473, "2.75965e+308"), (1475, "7.22486e+308"),
                                       (10**6, "1.74707e+208988")])
def test_g_refusal_past_the_float_range_prints_a_finite_figure(capsys, m, figure):
    """4 alpha^|m| overflows a float from |m| = 1473 on; the refusal still
    names it, to the 6 digits that mpmath gives."""
    code, out, err = run(capsys, "eval", "--family", "G1", f"--m={m}", "--s", "0", "--p", "9")
    assert code == 2
    assert out == ""
    assert f"requires p >= 4*alpha^|m| (~{figure}), got p = 9" in err
    assert "inf" not in err and "Traceback" not in err
    with mp.workdps(30):
        assert mp.nstr(4 * mp.phi**m, 6) == figure


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
    for tol in ("--tol", "--to", "--t"):
        code, out, err = run(capsys, "compare", "--family", "F3", "--x", "1/2", tol, "-1/10")
        assert code == 2, tol
        assert out == ""
        assert "tolerance must be >= 0" in err
    # an abbreviated flag resolves as argparse resolves it: a unique prefix
    # ("--ph" is --phi), but an exact flag first ("--p" is G's --p)
    eval_t1 = ("eval", "--family", "T1", "--format", "json")
    code, abbreviated, err = run(capsys, *eval_t1, "--ph", "-pi/6")
    assert code == 0, err
    code, full, err = run(capsys, *eval_t1, "--phi=-pi/6")
    assert code == 0, err
    assert abbreviated == full
    code, out, err = run(capsys, "eval", "--family", "G1", "--m", "1", "--s", "0", "--p", "-17/2")
    assert code == 2
    assert "got p = -17/2" in err
    # the same from the command line itself
    monkeypatch.setattr(sys, "argv", ["cbcseries", *eval_c1, "--x", "-1/2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == joined
    # every value flag of every subcommand, under every prefix that argparse
    # resolves to it, reads a negative word as it reads the "=" form
    values = {"--x": "-1/2", "--phi": "-pi/6", "--p": "-17/2", "--tol": "-1/10"}
    family = {"--x": ("--family", "C1"), "--phi": ("--family", "T1"),
              "--p": ("--family", "G1", "--m", "1", "--s", "0")}
    requests = [(cmd, flag, base) for cmd in ("eval", "closed", "compare")
                for flag, base in family.items()]
    requests += [("compare", "--tol", ("--family", "F3", "--x", "1/2")),
                 ("examples", "--tol", ("--id", "trig-T3-pi6"))]
    resolved = {}
    for cmd, flag, base in requests:
        value = values[flag]
        for prefix in (flag[:end] for end in range(3, len(flag) + 1)):
            try:
                parsed = cli._PARSER.parse_args([cmd, *base, f"{prefix}={value}"])
            except SystemExit:  # an ambiguous prefix
                parsed = None
            capsys.readouterr()
            if getattr(parsed, flag[2:], None) != value:
                continue  # not this flag: "--p" is G's --p, not --phi
            resolved.setdefault((cmd, flag), []).append(prefix)
            spaced = run(capsys, cmd, *base, prefix, value)
            assert spaced == run(capsys, cmd, *base, f"{prefix}={value}"), (cmd, prefix)
            assert "expected one argument" not in spaced[2]
    assert len(resolved) == len(requests)
    expected = {"--phi": ["--ph", "--phi"], "--tol": ["--t", "--to", "--tol"]}
    for (cmd, flag), prefixes in resolved.items():
        assert prefixes == expected.get(flag, [flag]), (cmd, flag)


def test_negative_word_after_any_flag_is_its_value(capsys):
    """A negative word is a value after every flag, so after one that takes
    no fraction or angle argparse's own type or choice check rejects it."""
    code, out, err = run(capsys, "eval", "--family", "F3", "--digits", "-1/2")
    assert (code, out) == (2, "")
    assert "argument --digits: invalid int value: '-1/2'" in err
    code, out, err = run(capsys, "eval", "--family", "-1/2")
    assert (code, out) == (2, "")
    assert "argument --family: invalid choice: '-1/2'" in err


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


def test_main_reuses_one_parser_and_carries_no_state(capsys, monkeypatch):
    """The parser is built once, at import: main builds none, and no call
    leaves state in it that a later call sees."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    compare = ("compare", "--family", "F3", "--x", "1/2", "--format", "json")
    code, out, err = run(capsys, *compare, "--tol", "0")
    assert code == 0, err
    assert json.loads(out)["parameters"]["tol"] == "0"
    code, out, err = run(capsys, *compare)
    assert code == 0, err
    assert json.loads(out)["parameters"]["tol"] == "1e-25"
    eval_f3 = ("eval", "--family", "F3", "--x", "1/2", "--format", "json")
    code, out, err = run(capsys, *eval_f3, "--force-terms", "10")
    assert code == 0, err
    assert json.loads(out)["results"][0]["converged"] == "false"
    code, out, err = run(capsys, *eval_f3)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["results"][0]["converged"] == "true"
    assert "force_terms" not in doc["parameters"]
    # --set and --id are mutually exclusive; --id must not linger
    code, out, err = run(capsys, "examples", "--id", "ex6-F3-x1", "--format", "json")
    assert code == 0, err
    code, out, err = run(capsys, "examples", "--set", "thm15", "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)["results"]) == 7
    code, out, err = run(capsys, "eval", "--family", "F99")
    assert code == 2
    assert err.startswith("usage: cbcseries eval")
    code, out, err = run(capsys, "constants", "--digits", "10")
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "eval", "--help")
    assert code == 0
    assert out.startswith("usage: cbcseries eval")
    code, out, err = run(capsys, "constants", "--digits", "10")
    assert (code, err) == (0, "")
    assert out.startswith("name ")
    assert built == []


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
        ("eval", "--family", "F3", "--x", "1/2", "--force-terms", "3", "--max-terms", "-5"),
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


@pytest.mark.parametrize("argv, golden", [
    (("examples", "--set", "all", "--digits", "30"), "examples_all_30.json"),
    (("identity", "--id", "all"), "identity_all.json"),
])
def test_json_output_is_byte_identical_to_the_golden(capsys, argv, golden):
    """Every registry row's digits, bounds, terms and verdict, and every
    identity check's range and status, as recorded; a change that moves a
    bound records the golden anew and names each string it moved."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert out == (Path(__file__).resolve().parent / "data" / golden).read_text()


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


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "F3", "--x", "1/2", "--digits", "5000", "--max-terms", "10"),
    ("compare", "--family", "I1", "--r", "12", "--digits", "4400"),
    ("eval", "--family", "H2", "--x", "999999/1000000", "--digits", "4400"),
    ("compare", "--family", "F1", "--x", "1", "--digits", "4400", "--max-terms", "10"),
    ("eval", "--family", "T3", "--phi", "pi/4", "--digits", "4400", "--max-terms", "10"),
    ("eval", "--family", "J1", "--digits", "5000"),
], ids=["F3-cap", "I1-model", "H2-model", "F1-cvz-cap", "T3-cvz-cap", "J1"])
def test_refusals_past_4300_digits_exit_3(capsys, argv):
    """A refusal prints its figures to 8 digits, which Python's int-to-str
    limit must not reach from the mantissa of a 4,300-digit target."""
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ") and "cannot certify target 1.0e-" in err


@pytest.mark.parametrize("digits", [25000, 100000])
def test_j1_past_the_cap_at_huge_digits_exits_3_fast(capsys, digits):
    """The order-64 enclosure at the cap misses the target by thousands of
    bits; the refusal reads its half-width from 64 bits past the radius, not
    from an evaluation at the full working precision."""
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--family", "J1", "--digits", str(digits))
    assert time.perf_counter() - start < 2
    assert code == 3
    assert err == (f"numeric failure: J1: cannot certify target 1.0e-{digits + 2}: the J1 tail "
                   "enclosure of order 64 at N0 = 9999999 has half-width 1.1662055e-424, with "
                   "a cap of 10000000 terms\n")


@pytest.mark.parametrize("digits, cap, steps", [(10, 3, 16), (10, 14, 16), (40, 3, 55)])
def test_c_at_one_half_past_the_cap_names_the_cvz_count(capsys, digits, cap, steps):
    """Below the CVZ step count the cap refuses C at |x| = 1/2 by that count,
    a cap that works, and not by the power-law model's N (13,548,289 terms at
    10 digits, which the search still solves), and CVZ certifies at it."""
    code, out, err = run(capsys, "compare", "--family", "C1", "--x", "1/2", "--digits",
                         str(digits), "--max-terms", str(cap))
    assert code == 3
    assert err == (f"numeric failure: C1 x=1/2: cannot certify target 1.0e-{digits + 2}: CVZ on "
                   f"[0, 1] needs {steps} terms, past the cap of {cap} terms\n")
    ctx = make_context(digits)
    with ctx.workprec():
        budget = ctx.real(Fraction(1, 10 ** (digits + 2))) * (1 - mpf(2) ** -16)
        N = engine._stop_index(FamilySpec("C1", x=Fraction(1, 2)), budget, ctx)[0]
    assert N == (13548289 if digits == 10 else None)
    code, out, err = run(capsys, "compare", "--family", "C1", "--x", "1/2", "--digits",
                         str(digits), "--max-terms", str(steps))
    assert code == 0, err
    assert re.search(rf"terms_used\s+{steps}\n", out)


@pytest.mark.parametrize("family, x, cap, model", [
    ("F1", "17/64", 34, "the geometric tail model (q = 0.070556641)"),
    ("C1", "1/10", 14, "the alternating tail model (q = 16x^4 = 0.0016)"),
])
def test_capped_refusal_names_the_smaller_of_the_two_counts(capsys, family, x, cap, model):
    """Where CVZ's count (46 and 23 terms here) and the kernel's N both pass
    the cap, the refusal names the kernel's N, the smaller: that cap
    certifies, and one term less refuses."""
    argv = ("compare", "--family", family, "--x", x, "--digits", "40", "--max-terms")
    code, out, err = run(capsys, *argv, str(cap))
    assert code == 0, err
    assert re.search(rf"terms_used\s+{cap}\n", out)
    code, out, err = run(capsys, *argv, str(cap - 1))
    assert code == 3
    assert f"{model} predicts N = {cap - 1} ({cap} terms), past the cap of {cap - 1} terms" in err
    assert "CVZ" not in err


@pytest.mark.parametrize("family, x, first", [("F1", "17/64", 0), ("H3", "-1/2", 1)])
def test_kernel_cap_refusal_names_the_least_cap_that_certifies(capsys, family, x, first):
    """The kernel's refusal names N and the terms from ``first`` to N: a cap
    of that count certifies, one term less refuses naming the same count."""
    argv = ("compare", "--family", family, f"--x={x}", "--digits", "40", "--max-terms")
    code, out, err = run(capsys, *argv, "1")
    assert code == 3
    N, count = map(int, re.search(r"predicts N = (\d+) \((\d+) terms\)", err).groups())
    assert count == N + 1 - first
    code, out, err = run(capsys, *argv, str(count))
    assert code == 0, err
    assert re.search(rf"terms_used\s+{count}\n", out)
    code, out, err = run(capsys, *argv, str(count - 1))
    assert code == 3
    assert f"predicts N = {N} ({count} terms), past the cap of {count - 1} terms" in err


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
    for command in (("eval",), ("compare",), ("eval", "--force-terms", "3")):
        for cap in ("0", "-5"):
            code, out, err = run(
                capsys, *command, "--family", "F3", "--x", "1/2", f"--max-terms={cap}"
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


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "F3", "--x", "1/2"),
    ("eval", "--family", "C1", "--x=-1/2", "--force-terms", "10", "--digits", "20"),
    ("closed", "--family", "T1", "--phi", "-pi/6"),
    ("compare", "--family", "G1", "--m", "1", "--s", "0", "--p", "8", "--tol", "1e-20"),
    ("constants", "--digits", "12"),
    ("identity", "--id", "all"),
    ("identity", "--id", "convolution", "--n-max", "20"),
    ("examples", "--set", "ex6"),
    ("list-families",),
])
def test_json_writer_equals_json_dumps_on_every_subcommand(capsys, argv):
    """Each subcommand's record, written by the writer and by the json module
    with indent=2, gives the same text, and main prints it."""
    args = cli._PARSER.parse_args(argv)
    record, ok = cli._DISPATCH[args.command](args)
    assert ok
    assert cli._json(record) == json.dumps(record, indent=2)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(record, indent=2) + "\n"


_JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀a ') | st.characters(),
                     max_size=8)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(-(2**200), 2**200) | _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({
    "schema_version": st.integers(),
    "command": _JSON_TEXT,
    "parameters": st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4),
    "results": st.lists(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4), max_size=3),
}))
def test_json_writer_equals_json_dumps_on_drawn_records(record):
    assert cli._json(record) == json.dumps(record, indent=2)


# argv lists that reach every way the parser answers: help, a missing or
# unknown command, a missing, unknown or invalid argument, an abbreviated flag,
# mutually exclusive flags and a negative value taken for a flag
USAGE_CENSUS = [
    (),
    ("--help",),
    ("evaluate",),
    ("eval",),
    ("eval", "--help"),
    ("eval", "--family", "F3", "--seq", "F"),
    ("eval", "--family", "F3", "--x", "1/2", "extra"),
    ("list-families", "--digits", "3"),
    ("eval", "--family", "-1/2"),
    ("eval", "--family", "F3", "--digits", "-1/2"),
    ("compare", "--fam", "F3", "--x", "-1/2"),
    ("examples", "--set", "ex6", "--id", "ex6-F3-x1"),
    ("constants", "--he"),
    ("identity", "--id", "frobnicate"),
    ("-h", "eval"),
    ("--version",),
    ("compare", "--family", "F3", "--x", "1/3", "--format", "json"),
]
# the census argv that leave arguments over, and the words the error names
UNRECOGNIZED = {
    ("eval", "--family", "F3", "--seq", "F"): "--seq F",
    ("eval", "--family", "F3", "--x", "1/2", "extra"): "extra",
    ("list-families", "--digits", "3"): "--digits 3",
}


@pytest.mark.parametrize("argv", USAGE_CENSUS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_subcommand_dispatch_answers_as_the_top_level_parser(capsys, monkeypatch, argv):
    """main hands argv to its subcommand's parser; with no subcommand parser
    to hand it to, every argv goes through the top-level parser and the json
    module, and the exit code, stdout and stderr are the same."""
    monkeypatch.setenv("COLUMNS", "80")
    dispatched = run(capsys, *argv)
    with monkeypatch.context() as top_level:
        top_level.setattr(cli, "_SUBPARSERS", {})
        top_level.setattr(cli, "_json", lambda record: json.dumps(record, indent=2))
        assert run(capsys, *argv) == dispatched
    if argv in UNRECOGNIZED:
        assert dispatched == (2, "", "usage: cbcseries [-h] [--version] COMMAND ...\n"
                              f"cbcseries: error: unrecognized arguments: {UNRECOGNIZED[argv]}\n")


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports the package under test."""
    src = str(Path(cbcseries.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    env = _env_with_src()

    def run_wrapper(*argv):
        return subprocess.run(
            [sys.executable, str(script), *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )

    proc = run_wrapper("constants", "--digits", "10")
    assert proc.returncode == 0, proc.stderr
    assert "alpha" in proc.stdout

    proc = run_wrapper("eval", "--family", "F5", "--x", "1", "--digits", "20")
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure" in proc.stderr

    proc = run_wrapper("eval", "--family", "F3", "--x", "1", "--digits", "100", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)["results"][0]
    ctx = make_context(120)
    with ctx.workprec():
        closed = closed_value(FamilySpec("F3", x=Fraction(1)), ctx)
        # the print rounds to 100 significant digits
        slack = mpf(10) ** -100 * max(1, abs(closed))
        assert abs(mpf(row["value"]) - closed) <= mpf(row["error_bound"]) + slack

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
        capture_output=True, text=True, timeout=120, env=_env_with_src(),
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 35
