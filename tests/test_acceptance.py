"""End-to-end checks, one test per contract item, at the stated tolerances."""

import json
import time
from fractions import Fraction

from mpmath import mpf

import cbcseries.cli as cli
from cbcseries.closedforms import closed_value
from cbcseries.engine import sum_adaptive, sum_fixed
from cbcseries.families import FamilySpec, PhiValue
from cbcseries.identities import (
    check_binomial_transform,
    check_convolution,
    check_harmonic_integral,
    check_lemma1,
    check_lemma2,
    check_sign_split,
    check_weighted_convolution,
)
from cbcseries.precision import make_context
from cbcseries.registry import list_examples, run_example

TOL30 = Fraction(1, 10**30)


def _compare(spec, ctx, tol):
    target = mpf(10) ** -(ctx.digits + 2)
    res = sum_adaptive(spec, target, ctx)
    closed = closed_value(spec, ctx)
    with ctx.workprec():
        diff = abs(res.value - closed)
        assert diff <= tol, (spec.describe(), ctx.to_str(diff))
    return res


def test_criterion_01_f_families_50_digits():
    start = time.monotonic()
    ctx = make_context(50)
    xs = [
        Fraction(9, 10),
        Fraction(-9, 10),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1, 10),
    ]
    with ctx.workprec():
        tol = mpf(10) ** -40
        for fam in ("F1", "F2", "F3", "F4", "F5", "F6"):
            for x in xs:
                _compare(FamilySpec(fam, x=x), ctx, tol)
    assert time.monotonic() - start <= 10.0


def test_criterion_02_ex6_registry():
    ctx = make_context(40)
    rows = list_examples("ex6")
    assert len(rows) == 18
    for row in rows:
        report = run_example(row.id, ctx, tolerance=TOL30)
        assert report.passed, row.id
        if row.id == "ex6-F3-x1":
            with ctx.workprec():
                assert abs(report.closed_value - mpf("0.45508986")) < mpf("1e-7")


def test_criterion_03_trig_suite():
    ctx = make_context(40)
    angles = [
        PhiValue(Fraction(1, 6), True),
        PhiValue(Fraction(1, 8), True),
        PhiValue(Fraction(-1, 5), True),
    ]
    with ctx.workprec():
        tol = mpf(10) ** -30
        for fam in ("T1", "T2", "T3", "T4", "T5", "T6"):
            for phi in angles:
                _compare(FamilySpec(fam, phi=phi), ctx, tol)
    for row in list_examples("trig"):
        report = run_example(row.id, ctx, tolerance=TOL30)
        assert report.passed, row.id
        if row.id == "trig-T1-pi6":
            with ctx.workprec():
                assert abs(report.closed_value - mpf("0.889022")) < mpf("1e-6")


def test_criterion_04_quartic_families():
    ctx = make_context(40)
    with ctx.workprec():
        tol = mpf(10) ** -30
        for fam in ("C1", "C2"):
            for x in (Fraction(1, 10), Fraction(2, 5)):
                _compare(FamilySpec(fam, x=x), ctx, tol)
    # at |x| = 1/2 full convergence is out of reach; bound-mode instead
    for fam in ("C1", "C2"):
        spec = FamilySpec(fam, x=Fraction(1, 2))
        res = sum_fixed(spec, 14_000_000, ctx)
        closed = closed_value(spec, ctx)
        with ctx.workprec():
            bound = res.error_bound()
            assert bound <= mpf(10) ** -12, fam
            assert abs(res.value - closed) <= bound, fam


def test_criterion_05_fibonacci_lucas_grid():
    ctx = make_context(40)
    grid = [(1, 0, 8), (1, 0, 16), (2, 0, 16), (2, 1, 12), (3, 0, 20)]
    with ctx.workprec():
        tol = mpf(10) ** -30
        for i in range(1, 13):
            for m, s, p in grid:
                spec = FamilySpec(f"G{i}", m=m, s=s, p=Fraction(p))
                # the beta branch at odd m is the sign twin of the shape:
                # a real route, compared here with the series
                _compare(spec, ctx, tol)
    for set_name in ("ex9", "ex10", "ex11"):
        for row in list_examples(set_name):
            report = run_example(row.id, ctx, tolerance=TOL30)
            assert report.passed, row.id
            if row.id == "ex10-F-p8":
                with ctx.workprec():
                    assert abs(report.closed_value - mpf("-0.2573033")) < mpf("1e-6")


def test_criterion_06_quartic_binomial_and_lucas_sums():
    ctx = make_context(40)
    with ctx.workprec():
        tol = mpf(10) ** -30
        for fam in ("H1", "H2", "H3", "H4"):
            for x in (Fraction(1, 2), Fraction(-1, 2), Fraction(9, 10)):
                _compare(FamilySpec(fam, x=x), ctx, tol)
        for fam in ("I1", "I2"):
            for r in (2, 4, 6, 8):
                _compare(FamilySpec(fam, r=r), ctx, tol)
        _compare(FamilySpec("I3"), ctx, tol)
        assert abs(closed_value(FamilySpec("I3"), ctx) - mpf("1.90211303")) < mpf("1e-8")
        assert abs(closed_value(FamilySpec("I2", r=2), ctx) - mpf("1.2533")) < mpf("1e-4")


def test_criterion_07_harmonic_series():
    assert check_harmonic_integral(100).passed
    start = time.monotonic()
    ctx = make_context(40)
    spec = FamilySpec("J1")
    res = sum_fixed(spec, 10**6, ctx)
    closed = closed_value(spec, ctx)
    with ctx.workprec():
        bound = res.error_bound()
        assert bound <= mpf("0.02")
        assert abs(res.value - closed) <= bound
        assert abs(closed - mpf("3.15073")) < mpf("1e-5")
    assert time.monotonic() - start <= 60.0


def test_criterion_08_exact_identity_sweeps():
    assert check_convolution(300).passed
    assert check_weighted_convolution(300).passed
    assert check_binomial_transform(60).passed
    assert check_sign_split(n_max=63).passed


def test_criterion_09_lemma_suite():
    ctx = make_context(40)
    samples = [Fraction(7 * (2 * k - 19), 200) for k in range(20)]
    assert len(samples) == 20
    assert all(abs(x) < Fraction(7, 10) for x in samples)
    assert check_lemma1(samples, ctx).passed
    assert check_lemma2(samples, ctx).passed


def test_criterion_10_robustness(capsys):
    lo = make_context(30)
    hi = make_context(60)
    cases = [
        FamilySpec("F3", x=Fraction(1, 2)),
        FamilySpec("F1", x=Fraction(-9, 10)),
        FamilySpec("T4", phi=PhiValue(Fraction(1, 8), True)),
        FamilySpec("C2", x=Fraction(2, 5)),
        FamilySpec("G2", m=1, s=0, p=Fraction(8)),
        FamilySpec("H4", x=Fraction(1, 2)),
        FamilySpec("I2", r=4),
    ]
    for spec in cases:
        r_lo = sum_adaptive(spec, mpf(10) ** -(lo.digits + 2), lo)
        r_hi = sum_adaptive(spec, mpf(10) ** -(hi.digits + 2), hi)
        assert r_lo.converged and r_hi.converged
        with hi.workprec():
            drift = abs(r_lo.value - r_hi.value)
            assert drift <= r_lo.error_bound() + r_hi.error_bound(), spec.describe()
            # the sharper form: the high-digit value sits inside the
            # low-digit certificate
            assert drift <= r_lo.error_bound() * mpf("1.000001"), spec.describe()
    assert cli.main(["eval", "--family", "F6", "--x", "-1", "--digits", "20"]) == 3
    # F4 at x = -1 converges and is summed by CVZ
    capsys.readouterr()
    argv = ["eval", "--family", "F4", "--x", "-1", "--digits", "100", "--format", "json"]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    ref = make_context(120)
    with ref.workprec():
        closed = closed_value(FamilySpec("F4", x=Fraction(-1)), ref)
        # the print rounds to 100 significant digits
        slack = mpf(10) ** -100 * max(1, abs(closed))
        assert abs(mpf(row["value"]) - closed) <= mpf(row["error_bound"]) + slack
