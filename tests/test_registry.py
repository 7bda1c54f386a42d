import re
from fractions import Fraction

import pytest
from mpmath import mpf

from cbcseries.closedforms import closed_value
from cbcseries.engine import x_real
from cbcseries.expressions import evaluate
from cbcseries.precision import UsageError, make_context
from cbcseries.registry import (
    EXAMPLE_SETS,
    get_example,
    list_examples,
    run_example,
)

CTX40 = make_context(40)


def test_row_counts():
    rows = list_examples("all")
    assert len(rows) == 54
    sizes = {name: len(list_examples(name)) for name in EXAMPLE_SETS}
    assert sizes == {
        "ex6": 18,
        "trig": 8,
        "ex9": 8,
        "ex10": 4,
        "ex11": 8,
        "thm15": 7,
        "thm16": 1,
    }
    ids = [row.id for row in rows]
    assert len(set(ids)) == len(ids)
    for row in rows:
        assert re.fullmatch(r"adaptive|closed|bound:\d+", row.mode), (row.id, row.mode)


def test_known_ids_present():
    ids = {row.id for row in list_examples("all")}
    for rid in (
        "ex6-F3-x1",
        "trig-T1-pi6",
        "trig-T5-pi8",
        "ex9-F-p8",
        "ex10-F-p8",
        "thm15-I1-r2",
        "thm15-I3",
        "thm16-J1",
    ):
        assert rid in ids


@pytest.mark.parametrize("digits", [40, 120])
def test_every_expected_tree_is_its_family_closed_form(digits):
    """scale * closed form of the spec equals the expected constant to
    10^-(digits + 10) on every row, which pins each transcribed constant far
    past the 30 digits `examples` prints; for thm16-J1 this is the only deep
    check, since its bound-mode run certifies only 0.02."""
    ctx = make_context(digits)
    with ctx.workprec():
        for row in list_examples("all"):
            got = x_real(row.scale, ctx) * closed_value(row.spec, ctx)
            assert abs(got - evaluate(row.expected, ctx)) <= mpf(10) ** -(digits + 10), row.id


def test_spot_values():
    checks = [
        ("ex6-F3-x1", mpf("0.45508986"), mpf("1e-7")),
        ("trig-T1-pi6", mpf("0.889022"), mpf("1e-6")),
        ("ex10-F-p8", mpf("-0.2573033"), mpf("1e-6")),
        ("thm15-I1-r2", mpf("3.3610154"), mpf("1e-6")),
        ("thm15-I3", mpf("1.90211303"), mpf("1e-8")),
    ]
    with CTX40.workprec():
        for rid, want, tol in checks:
            report = run_example(rid, CTX40)
            assert report.passed, rid
            assert abs(report.closed_value - want) < tol, rid


def test_adaptive_mode_report_shape():
    report = run_example("ex6-F4-x1o2", CTX40)
    assert report.passed
    assert report.terms_used > 0
    assert report.certified_bound > 0
    with CTX40.workprec():
        assert report.abs_diff <= report.certified_bound + mpf(10) ** -30


def test_closed_mode_report_shape():
    # the |x| = 1 rows cannot be certified by summation; they compare the
    # two closed-form evaluation routes instead
    row = get_example("ex6-F3-x1")
    assert row.mode == "closed"
    report = run_example("ex6-F3-x1", CTX40)
    assert report.terms_used == 0
    assert report.certified_bound == 0
    assert report.passed


def test_bound_mode_report_shape():
    row = get_example("thm16-J1")
    assert row.mode == "bound:1000000"
    ctx = make_context(20)
    report = run_example("thm16-J1", ctx)
    assert report.terms_used == 1000001
    with ctx.workprec():
        assert report.certified_bound < mpf("0.02")
        assert report.abs_diff <= report.certified_bound
    assert report.passed


def test_run_example_explicit_tolerance():
    strict = run_example("trig-T3-pi6", CTX40, tolerance=Fraction(1, 10**30))
    assert strict.passed
    absurd = run_example("trig-T3-pi6", CTX40, tolerance=Fraction(1, 10**60))
    # bound + tolerance still certifies: the adaptive target is 1e-42 here
    assert absurd.certified_bound > 0


def test_unknown_id_and_bad_set():
    with pytest.raises(UsageError):
        get_example("no-such-row")
    with pytest.raises(UsageError):
        list_examples("ex99")


def test_list_examples_none_means_all():
    assert [r.id for r in list_examples(None)] == [r.id for r in list_examples("all")]
