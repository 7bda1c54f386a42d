import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import cbcseries.closedforms as closedforms
import cbcseries.engine as engine
import cbcseries.moments as moments
from cbcseries.engine import (
    ConvergenceError,
    UncertifiedError,
    sum_adaptive,
    sum_fixed,
    tail_bound,
    term,
    term_fraction,
)
from cbcseries.closedforms import closed_value
from cbcseries.exact import fib_lucas
from cbcseries.families import (
    ALL_FAMILIES,
    C_FAMILIES,
    FAMILIES,
    F_FAMILIES,
    G_FAMILIES,
    H_FAMILIES,
    T_FAMILIES,
    FamilySpec,
    PhiValue,
    SurdValue,
    four_alpha_pow_cmp,
)
from cbcseries.precision import UsageError, make_context
from cbcseries.registry import list_examples

from exact_streams import central_binomials

CTX = make_context(30)
CTX40 = make_context(40)

F3_HALF = FamilySpec("F3", x=Fraction(1, 2))
C1_HALF = FamilySpec("C1", x=Fraction(1, 2))
J1 = FamilySpec("J1")


def spec_zoo():
    """One representative per term-stream shape, all rational parameters."""
    return [
        FamilySpec("F1", x=Fraction(1, 2)),
        FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2))),
        FamilySpec("F2", x=Fraction(-3, 5)),
        F3_HALF,
        FamilySpec("F4", x=Fraction(-1, 3)),
        FamilySpec("F5", x=Fraction(2, 5)),
        FamilySpec("F6", x=Fraction(1, 4)),
        FamilySpec("T1", phi=PhiValue(Fraction(1, 6), True)),
        FamilySpec("T4", phi=PhiValue(Fraction(-1, 5), True)),
        FamilySpec("T5", phi=PhiValue(Fraction(1, 8), True)),
        C1_HALF,
        FamilySpec("C2", x=Fraction(-2, 5)),
        FamilySpec("G1", m=1, s=0, p=Fraction(8)),
        FamilySpec("G6", m=2, s=1, p=Fraction(12)),
        FamilySpec("G11", m=1, s=-2, p=Fraction(7)),
        FamilySpec("H1", x=Fraction(1, 2)),
        FamilySpec("H2", x=Fraction(-1, 2)),
        FamilySpec("H3", x=Fraction(9, 10)),
        FamilySpec("H4", x=Fraction(-3, 4)),
        FamilySpec("I1", r=2),
        FamilySpec("I2", r=4),
        FamilySpec("I3"),
        J1,
    ]


def test_term_hand_values():
    with CTX.workprec():
        assert abs(term(F3_HALF, 1, CTX) + mpf(1) / 4) < mpf(10) ** -35
        g5 = FamilySpec("G5", m=1, s=0, p=Fraction(8))
        assert term(g5, 0, CTX) == 0  # F_0 = 0
        assert abs(term(J1, 1, CTX) - mpf("0.28125")) < mpf(10) ** -35
        t3 = FamilySpec("T3", phi=PhiValue(Fraction(1, 4), True))
        assert abs(term(t3, 2, CTX) + mpf(6) / 16) < mpf(10) ** -30  # tan(pi/4) = 1
        h3 = FamilySpec("H3", x=Fraction(1, 2))
        assert term(h3, 0, CTX) == 0
        assert abs(term(h3, 1, CTX) + mpf(1) / 4) < mpf(10) ** -35
    with pytest.raises(UsageError):
        term(F3_HALF, -1, CTX)


def test_term_fraction_exact_values():
    assert term_fraction(FamilySpec("I3"), 2) == Fraction(70, 400)
    assert term_fraction(F3_HALF, 1) == Fraction(-1, 4)
    assert term_fraction(J1, 1) == Fraction(9, 32)
    assert term_fraction(C1_HALF, 1) == Fraction(-6, 5 * 32)
    assert term_fraction(FamilySpec("H3", x=Fraction(1, 2)), 0) == 0
    with pytest.raises(UsageError):
        term_fraction(FamilySpec("T3", phi=PhiValue(Fraction(1, 6), True)), 1)
    with pytest.raises(UsageError):
        term_fraction(FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2))), 0)


def test_surd_x_outside_f1_f2_is_a_usage_error():
    """x^n of F3-F6 must be rational for every n, which an irrational surd is not."""
    for family in ("F3", "F4", "F5", "F6"):
        spec = FamilySpec(family, x=SurdValue(Fraction(1, 2), Fraction(2)))
        for call in (lambda: sum_adaptive(spec, Fraction(1, 10**32), CTX),
                     lambda: sum_fixed(spec, 10, CTX), lambda: term_fraction(spec, 3)):
            with pytest.raises(UsageError, match="surd x is only representable for F1/F2"):
                call()


@pytest.mark.parametrize("family", ["F1", "F2", "C1", "C2"])
def test_odd_series_vanish_at_x_zero(family):
    """At x = 0 every term of the odd series is 0, and the 1/(2n+1) closed
    form takes its y = 0 branch: both give exactly 0."""
    spec = FamilySpec(family, x=Fraction(0))
    res = sum_adaptive(spec, Fraction(1, 10**32), CTX)
    assert res.converged and res.value == 0
    assert closed_value(spec, CTX) == 0


def test_term_matches_term_fraction():
    with CTX40.workprec():
        for spec in spec_zoo():
            if spec.family.startswith("T"):
                continue
            if isinstance(spec.x, SurdValue) and spec.x.as_rational() is None:
                continue
            for n in (0, 1, 2, 5, 17):
                frac = term_fraction(spec, n)
                approx = term(spec, n, CTX40)
                want = mpf(frac.numerator) / frac.denominator
                assert abs(approx - want) <= mpf(10) ** -45 * max(1, abs(want))


def driver_terms(spec, ctx, indexes):
    """Term n as the summation driver produces it: the step between its partial sums."""
    previous = None
    for n in indexes:
        if previous is None:
            previous = sum_fixed(spec, n - 1, ctx).value if n > 0 else mpf(0)
        current = sum_fixed(spec, n, ctx).value
        yield n, current - previous
        previous = current


def test_streams_match_terms_in_exact_window():
    """The driver's first terms of every shape agree with the direct ``term``."""
    with CTX40.workprec():
        for spec in spec_zoo():
            for n, value in driver_terms(spec, CTX40, range(41)):
                direct = term(spec, n, CTX40)
                assert abs(value - direct) <= mpf(10) ** -44 * max(1, abs(direct)), (
                    spec.describe(),
                    n,
                )


def test_streams_match_terms_past_window():
    """Terms a thousand steps into the scaled-integer recurrence show no drift."""
    with CTX.workprec():
        for spec in spec_zoo():
            for n, value in driver_terms(spec, CTX, range(1000, 1031)):
                direct = term(spec, n, CTX)
                assert abs(value - direct) <= mpf(10) ** -32 * max(1, abs(direct)), (
                    spec.describe(),
                    n,
                )


def test_i1_large_r_continuation():
    # r = 8: 2,601 steps of the F/L recurrence against the exact partial sum of
    # C(4n, 2n) L(8n)/(16 L_8)^n over the common denominator (16 L_8)^2600
    N = 2600
    res = sum_fixed(FamilySpec("I1", r=8), N, CTX)
    base = 16 * fib_lucas(8)[1]
    numer = 0
    for n, c in zip(range(N + 1), itertools.islice(central_binomials(), 0, None, 2)):
        numer = numer * base + c * fib_lucas(8 * n)[1]
    with mp.workdps(CTX.working_digits + 40):
        exact = mpf(numer) / mpf(base) ** N
        assert abs(res.value - exact) <= res.rounding_bound


def test_i3_partial_sum_n6_exact():
    want = sum(term_fraction(FamilySpec("I3"), n) for n in range(7))
    assert want == Fraction(28334819, 16000000)
    res = sum_fixed(FamilySpec("I3"), 6, CTX40)
    with CTX40.workprec():
        assert abs(res.value - mpf(want.numerator) / want.denominator) < mpf(10) ** -45
    assert res.terms_used == 7
    assert not res.converged


def test_sum_fixed_increment_is_term():
    with CTX.workprec():
        for spec in (F3_HALF, FamilySpec("G2", m=1, s=0, p=Fraction(8)), J1):
            a = sum_fixed(spec, 10, CTX).value
            b = sum_fixed(spec, 11, CTX).value
            assert abs((b - a) - term(spec, 11, CTX)) < mpf(10) ** -38


def test_tail_bound_dominates_true_tail():
    far = 400
    with CTX40.workprec():
        for spec in spec_zoo():
            if spec.family in ("C1",) and spec.x == Fraction(1, 2):
                continue  # ratio majorant equals 1; covered separately below
            n_check = 12
            bound = tail_bound(spec, n_check, CTX40)
            head = sum_fixed(spec, n_check, CTX40).value
            long = sum_fixed(spec, far, CTX40).value
            true_tail = abs(long - head)
            assert bound > 0
            assert true_tail <= bound, spec.describe()


def test_tail_bound_c1_at_half():
    # q = 16 x^4 = 1: the alternating bound still certifies via 1/(4n+1)
    with CTX.workprec():
        bound = tail_bound(C1_HALF, 100, CTX)
        head = sum_fixed(C1_HALF, 100, CTX).value
        long = sum_fixed(C1_HALF, 3000, CTX).value
        assert abs(long - head) <= bound
        assert bound < mpf(1) / 100


def test_tail_bound_j1_levels():
    with CTX.workprec():
        b0 = tail_bound(J1, 0, CTX)
        b1m = tail_bound(J1, 10**6, CTX)
        assert b0 > mpf(9) / 32  # includes |t_1| = 9/32 exactly
        assert b1m < mpf("0.0145")
        assert tail_bound(J1, 10, CTX) < b0
    with pytest.raises(UsageError):
        tail_bound(J1, -1, CTX)


@pytest.mark.parametrize("digits, max_terms", [
    (1, engine.DEFAULT_MAX_TERMS), (10, engine.DEFAULT_MAX_TERMS), (30, engine.DEFAULT_MAX_TERMS),
    (40, engine.DEFAULT_MAX_TERMS), (100, engine.DEFAULT_MAX_TERMS), (40, 2000)])
def test_sum_adaptive_certifies_j1_by_its_tail_enclosure(digits, max_terms):
    """terms_used is N0 + 1 and truncation_bound the enclosure's half-width;
    the value lies within error_bound of the closed form 20 digits deeper."""
    ctx, target = make_context(digits), Fraction(1, 10 ** (digits + 2))
    res = sum_adaptive(J1, target, ctx, max_terms)
    with ctx.workprec():
        plan = engine._plan(J1, ctx, target=ctx.real(target), max_terms=max_terms)
        assert res.converged and res.error_bound() <= ctx.real(target)
    assert plan.path == "j1"
    assert (res.terms_used, res.truncation_bound) == (plan.last + 1, plan.trunc)
    assert res.terms_used <= max_terms
    deep = make_context(digits + 20)
    with deep.workprec():
        assert abs(res.value - closed_value(J1, deep)) <= res.error_bound()


def test_j1_plan_that_fits_only_past_the_model_margin_keeps_full_bits(monkeypatch):
    """At a cap of 100 terms the float model misses this target by less than
    its 2^-8 margin, so the enclosure meant for the refusal, at 64 bits past
    the radius, fits after all; the plan then evaluates it again at B + 16
    bits, as every plan does."""
    e = moments.j1_expansion(moments.j1_highest_order(99))
    target = Fraction(2 ** (moments.j1_log2_radius(e, 99) + 2**-9))
    ctx, bits, real = make_context(100), [], moments.j1_tail
    monkeypatch.setattr(moments, "j1_tail", lambda N, e, b: bits.append(b) or real(N, e, b))
    res = sum_adaptive(J1, target, ctx, max_terms=100)
    full = engine._scale_bits(99, ctx) + 16
    assert res.converged and res.terms_used == 100
    assert bits[0] < full and bits[1:] == [full]
    with ctx.workprec():
        lo, hi = engine._ends(real(99, e, full))
        assert res.truncation_bound == mp.ldexp(mp.fsub(hi, lo, rounding="u"), -1)


def test_sum_adaptive_j1_reads_no_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("the closed form entered the sum")

    monkeypatch.setattr(closedforms, "closed_value", refuse)
    assert sum_adaptive(J1, Fraction(1, 10**42), CTX40, max_terms=2000).converged


def test_sum_adaptive_j1_at_40_digits_under_a_cap_of_2000_takes_under_10_ms():
    sum_adaptive(J1, Fraction(1, 10**42), CTX40, max_terms=2000)
    best = math.inf
    for _ in range(7):
        start = time.perf_counter()
        sum_adaptive(J1, Fraction(1, 10**42), CTX40, max_terms=2000)
        best = min(best, time.perf_counter() - start)
    assert best < 0.010


def test_tail_bound_uncertified_at_boundary():
    with pytest.raises(UncertifiedError):
        tail_bound(FamilySpec("F3", x=Fraction(1)), 10, CTX)
    with pytest.raises(UncertifiedError):
        tail_bound(FamilySpec("T3", phi=PhiValue(Fraction(1, 4), True)), 10, CTX)


def test_sum_fixed_at_boundary_reports_unknown():
    res = sum_fixed(FamilySpec("F3", x=Fraction(1)), 50, CTX)
    assert res.truncation_bound == mpf("inf")
    assert res.terms_used == 51
    assert not res.converged


def test_sum_adaptive_certifies_target():
    with CTX40.workprec():
        target = mpf(10) ** -42
        res = sum_adaptive(F3_HALF, target, CTX40)
        assert res.converged
        assert res.error_bound() <= target
        # closed form for this x: sqrt((sqrt(5)/2 - 1/2) / (5/4))
        want = mp.sqrt((mp.sqrt(mpf(5)) / 2 - mpf(1) / 2) / (mpf(5) / 4))
        assert abs(res.value - want) <= target + mpf(10) ** -45


def test_sum_adaptive_deterministic():
    a = sum_adaptive(F3_HALF, Fraction(1, 10**32), CTX)
    b = sum_adaptive(F3_HALF, Fraction(1, 10**32), CTX)
    assert a.value == b.value
    assert a.terms_used == b.terms_used


def test_sum_adaptive_rejects_boundary():
    """The n-weighted shapes diverge on the boundary; F4 there is summed by CVZ."""
    with pytest.raises(UncertifiedError):
        sum_adaptive(FamilySpec("F6", x=Fraction(-1)), Fraction(1, 100), CTX)
    spec, ctx = FamilySpec("F4", x=Fraction(-1)), make_context(100)
    res = sum_adaptive(spec, Fraction(1, 10**102), ctx)
    assert res.converged
    with mp.workdps(140):
        assert abs(res.value - closed_value(spec, make_context(120))) <= res.error_bound()


def test_sum_adaptive_cap_carries_partial():
    spec = FamilySpec("F3", x=Fraction(9, 10))
    with pytest.raises(ConvergenceError) as info:
        sum_adaptive(spec, Fraction(1, 10**30), CTX, max_terms=10)
    partial = info.value.partial
    assert partial.terms_used == 10
    assert not partial.converged
    with CTX.workprec():
        assert abs(partial.value - sum_fixed(spec, 9, CTX).value) < mpf(10) ** -40


def test_sum_adaptive_bad_target():
    with pytest.raises(UsageError):
        sum_adaptive(F3_HALF, 0, CTX)


def exact_sum(spec, N):
    total = sum(term_fraction(spec, n) for n in range(N + 1))
    return mpf(total.numerator) / total.denominator


def test_fixed_point_c_matches_stream():
    """C1/C2 driver sums, at both signs of x, equal the exact sum of their terms."""
    for spec, N in ((C1_HALF, 300), (FamilySpec("C1", x=Fraction(-1, 2)), 300),
                    (FamilySpec("C2", x=Fraction(-1, 2)), 250),
                    (FamilySpec("C2", x=Fraction(2, 5)), 250)):
        res = sum_fixed(spec, N, CTX)
        assert res.terms_used == N + 1
        with CTX.workprec():
            err = abs(res.value - exact_sum(spec, N))
            assert err < mpf(10) ** -40
            assert err <= res.rounding_bound


def test_fixed_point_j_matches_stream():
    res = sum_fixed(J1, 300, CTX)
    with CTX.workprec():
        err = abs(res.value - exact_sum(J1, 300))
        assert err < mpf(10) ** -40
        assert err <= res.rounding_bound


def test_rounding_bound_scales_with_terms():
    res = sum_fixed(F3_HALF, 100, CTX)
    with CTX.workprec():
        expected = 101 * res.value * mpf(10) ** (1 - CTX.working_digits)
        # max partial is the final value here (monotone after the first terms)
        assert res.rounding_bound <= expected * 2
        assert res.rounding_bound > 0


def test_negative_n_rejected():
    with pytest.raises(UsageError):
        sum_fixed(F3_HALF, -1, CTX)
    with pytest.raises(UsageError, match="n must be >= 0, got -1"):
        term_fraction(F3_HALF, -1)


def counting_tail_bound(monkeypatch):
    calls = []
    real_tail_bound = engine.tail_bound

    def counted(spec, N, ctx):
        calls.append(N)
        return real_tail_bound(spec, N, ctx)

    monkeypatch.setattr(engine, "tail_bound", counted)
    return calls


def test_sum_adaptive_stop_index_is_least_with_few_tail_calls(monkeypatch):
    """N comes from two tail_bound calls, its certificate, and is the least index that fits."""
    real_tail_bound = engine.tail_bound
    calls = counting_tail_bound(monkeypatch)
    for spec, ctx, target in ((FamilySpec("F5", x=Fraction(1, 2)), CTX40, Fraction(1, 10**42)),
                              (FamilySpec("I1", r=4), CTX, Fraction(1, 10**32)),
                              (FamilySpec("G10", m=2, s=3, p=Fraction(11)), CTX, Fraction(1, 10**32)),
                              (FamilySpec("H3", x=Fraction(-9, 10)), CTX, Fraction(1, 10**32))):
        calls.clear()
        res = sum_adaptive(spec, target, ctx)
        assert res.converged
        assert len(calls) <= 2
        # terms_used counts from the first nonzero index: 1 for F5, G10 and H3
        N = res.terms_used - 1 + FAMILIES[spec.family].first
        with ctx.workprec():
            assert res.truncation_bound == real_tail_bound(spec, N, ctx)
            assert res.error_bound() <= ctx.real(target)
            assert real_tail_bound(spec, N - 1, ctx) > ctx.real(target) * (1 - mpf(2) ** -16)
            assert abs(res.value - closed_value(spec, ctx)) <= res.error_bound() + mpf(10) ** -40


def test_sum_adaptive_refuses_at_the_rounding_floor():
    """G1 at s = 202 has value ~2.8e41: 40 digits cannot carry it to 1e-42."""
    spec = FamilySpec("G1", m=1, s=202, p=Fraction(8))
    with pytest.raises(ConvergenceError) as info:
        sum_adaptive(spec, Fraction(1, 10**42), CTX40, max_terms=2000)
    assert "rounding bound" in str(info.value)
    with CTX40.workprec():
        assert info.value.partial.error_bound() > mpf(10) ** -42


def test_g_refusal_at_a_huge_shift_forms_alpha_to_the_shift_once(monkeypatch):
    """G1 at s = 10^6 refuses at the rounding floor without rebuilding
    alpha^|s| (an F/L pair of ~700,000 bits) at each stop-index probe."""
    s = 10**6
    calls = []
    real_fib_lucas = engine.fib_lucas

    def counted(k):
        calls.append(k)
        return real_fib_lucas(k)

    monkeypatch.setattr(engine, "fib_lucas", counted)
    engine._constants.cache_clear()
    with pytest.raises(ConvergenceError) as info:
        sum_adaptive(FamilySpec("G1", m=1, s=s, p=Fraction(8)), Fraction(1, 10**42), CTX40)
    assert "rounding bound" in str(info.value)
    assert calls.count(s) <= 2


def test_g_tail_bound_does_not_depend_on_the_alpha_power_cache():
    specs = [FamilySpec("G1", m=1, s=202, p=Fraction(8)),
             FamilySpec("G10", m=2, s=-7, p=Fraction(11)),
             FamilySpec("G6", m=3, s=5, p=Fraction(20))]
    for ctx in (CTX, CTX40):
        for spec in specs:
            engine._constants.cache_clear()
            cold = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            warm = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            assert cold == warm
            with ctx.workprec():
                direct = 2 * alpha_pow(abs(spec.s), ctx)
                if FAMILIES[spec.family].seq == "F":
                    direct /= mp.sqrt(mpf(5))
                assert engine._constants(spec, ctx)[1] == direct


def test_c_families_keep_the_sign_of_negative_x_past_50000_terms():
    N = 60_000
    for family in ("C1", "C2"):
        plus = sum_fixed(FamilySpec(family, x=Fraction(1, 2)), N, CTX)
        minus_spec = FamilySpec(family, x=Fraction(-1, 2))
        minus = sum_fixed(minus_spec, N, CTX)
        with CTX.workprec():
            assert minus.value == -plus.value
            assert abs(minus.value - closed_value(minus_spec, CTX)) <= minus.error_bound()


def kernel_sum(spec, N, ctx):
    """(value, rounding bound) of the terms 0..N summed by the kernel, whichever
    path engine._plan would choose."""
    B = engine._scale_bits(N, ctx)
    plan = engine._Plan("kernel", N, B, engine._kernel(spec, N, B))
    with ctx.workprec():
        value, _, rounding = engine._sum(spec, plan)
    return value, rounding


def test_kernel_keeps_the_sign_of_negative_x_past_50000_terms():
    """sum_fixed takes the CVZ path at this N, so the kernel is called directly."""
    N = 60_000
    for family in ("C1", "C2"):
        plus, _ = kernel_sum(FamilySpec(family, x=Fraction(1, 2)), N, CTX)
        minus_spec = FamilySpec(family, x=Fraction(-1, 2))
        minus, rounding = kernel_sum(minus_spec, N, CTX)
        with CTX.workprec():
            assert minus == -plus
            bound = rounding + tail_bound(minus_spec, N, CTX)
            assert abs(minus - closed_value(minus_spec, CTX)) <= bound


_ROOT2_HALF = SurdValue(Fraction(1, 2), Fraction(2))


@pytest.mark.parametrize("path, plus, minus, sign, N", [
    ("kernel", FamilySpec("F1", x=Fraction(3, 4)), FamilySpec("F1", x=Fraction(-3, 4)), -1, 40),
    ("kernel", FamilySpec("F2", x=_ROOT2_HALF),
     FamilySpec("F2", x=SurdValue(Fraction(-1, 2), Fraction(2))), -1, 40),
    # the same terms: (-1)^n (-x)^n = x^n
    ("kernel", FamilySpec("H2", x=Fraction(1, 2)), FamilySpec("H1", x=Fraction(-1, 2)), 1, None),
    ("cvz", FamilySpec("F1", x=Fraction(1)), FamilySpec("F1", x=Fraction(-1)), -1, None),
    ("cvz", FamilySpec("F2", x=Fraction(1)), FamilySpec("F2", x=Fraction(-1)), -1, None),
    ("cvz", FamilySpec("C1", x=Fraction(1, 2)), FamilySpec("C1", x=Fraction(-1, 2)), -1, None),
    ("split", FamilySpec("C2", x=Fraction(2, 5)), FamilySpec("C2", x=Fraction(-2, 5)), -1, 60_000),
], ids=lambda v: v.describe() if isinstance(v, FamilySpec) else str(v))
def test_negating_the_terms_negates_the_value_on_every_path(path, plus, minus, sign, N):
    """The value is the bracket's midpoint rounded once, to nearest, so terms
    of opposite sign give exactly opposite values, with the same bounds."""
    results = []
    for spec in (plus, minus):
        with CTX40.workprec():
            target = CTX40.real(Fraction(1, 10**42))
            assert engine._plan(spec, CTX40, N, target).path == path
        results.append(sum_adaptive(spec, target, CTX40) if N is None else sum_fixed(spec, N, CTX40))
    a, b = results
    assert b.value == mp.fmul(sign, a.value, exact=True)
    assert (b.truncation_bound, b.rounding_bound) == (a.truncation_bound, a.rounding_bound)


_ALPHA = (1 + 5**0.5) / 2


@st.composite
def rational_specs(draw):
    """A rational-term family at a random point of its domain (boundaries included)."""
    family = draw(st.sampled_from([f for f in ALL_FAMILIES if f[0] != "T"]))
    den = draw(st.integers(1, 40))
    if family in F_FAMILIES or family in C_FAMILIES or family in H_FAMILIES:
        top = {"C": den // 2, "H": den - 1}.get(family[0], den)
        return FamilySpec(family, x=Fraction(draw(st.integers(-top, top)), den))
    if family in G_FAMILIES:
        m = draw(st.integers(-3, 3))
        low = math.ceil(4 * _ALPHA ** abs(m) * den) + 1
        p = Fraction(draw(st.integers(low, low + 10 * den)), den)
        return FamilySpec(family, m=m, s=draw(st.integers(-12, 12)), p=p)
    if family in ("I1", "I2"):
        return FamilySpec(family, r=2 * draw(st.integers(0 if family == "I1" else 1, 6)))
    return FamilySpec(family)


@st.composite
def surd_specs(draw):
    """F1/F2 at a surd x = c sqrt(d), d = 2, 3 or 5, with x^2 <= 1."""
    d = draw(st.sampled_from([2, 3, 5]))
    den = draw(st.integers(3, 40))
    top = math.isqrt(den * den // d)
    c = Fraction(draw(st.integers(-top, top).filter(bool)), den)
    return FamilySpec(draw(st.sampled_from(["F1", "F2"])), x=SurdValue(c, Fraction(d)))


def exact_partial_sum(spec, N):
    """The terms 0..N summed exactly and rounded once at the current precision;
    at a surd x = c sqrt(d), sqrt(d) times the rational sum with x^(2n+1) =
    c (c^2 d)^n sqrt(d)."""
    x = spec.x
    if isinstance(x, SurdValue) and x.as_rational() is None:
        unit = FamilySpec(spec.family, x=Fraction(1))
        total = x.coeff * sum(term_fraction(unit, n) * x.squared() ** n for n in range(N + 1))
        root = mp.sqrt(mpf(x.radicand.numerator) / x.radicand.denominator)
        return mpf(total.numerator) / total.denominator * root
    total = sum(term_fraction(spec, n) for n in range(N + 1))
    return mpf(total.numerator) / total.denominator


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_specs(), surd_specs()), st.integers(0, 300), st.sampled_from([10, 30, 60]))
@example(FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2))), 150, 30)
@example(FamilySpec("F2", x=SurdValue(Fraction(-1, 3), Fraction(3))), 300, 60)
@example(FamilySpec("F1", x=SurdValue(Fraction(1, 4), Fraction(5))), 40, 10)
def test_counted_rounding_bound_holds(spec, N, digits):
    ctx = make_context(digits)
    res = sum_fixed(spec, N, ctx)
    with mp.workdps(ctx.working_digits + 40):
        assert abs(res.value - exact_partial_sum(spec, N)) <= res.rounding_bound


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(T_FAMILIES), st.sampled_from([-1, 1]), st.integers(0, 300))
def test_counted_rounding_bound_holds_for_t_at_tan_one(family, t, N):
    """At tan(phi) = +-1 the T terms are the F terms at x = t (T1/T2 at t = 1 only)."""
    if family in ("T1", "T2"):
        t = 1
    res = sum_fixed(FamilySpec(family, phi=PhiValue(Fraction(t, 4), True)), N, CTX)
    exact = sum(term_fraction(FamilySpec("F" + family[1], x=Fraction(t)), n) for n in range(N + 1))
    with mp.workdps(CTX.working_digits + 40):
        assert abs(res.value - mpf(exact.numerator) / exact.denominator) <= res.rounding_bound


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(T_FAMILIES), st.integers(-24, 24), st.integers(0, 120))
def test_counted_rounding_bound_holds_for_irrational_tan(family, k, N):
    phi = PhiValue(Fraction(k or 1, 97), times_pi=True)
    spec = FamilySpec(family, phi=phi)
    res = sum_fixed(spec, N, CTX)
    deep = make_context(CTX.working_digits + 40)
    with deep.workprec():
        exact = sum(term(spec, n, deep) for n in range(N + 1))
        assert abs(res.value - exact) <= res.rounding_bound + mpf(10) ** -(CTX.working_digits + 30)


def reference_stop_index(spec, budget, ctx):
    """The doubling-and-bisection stop-index search that the model-read one replaced."""
    lo = FAMILIES[spec.family].first - 1
    hi = lo + 1
    while True:
        bound = engine.tail_bound(spec, hi, ctx)
        if bound <= budget:
            break
        if hi >= engine._SEARCH_LIMIT:
            return None, None
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        b = engine.tail_bound(spec, mid, ctx)
        if b <= budget:
            hi, bound = mid, b
        else:
            lo = mid
    return hi, bound


def reference_capped_at_the_search_limit(spec, budget, ctx):
    """The reference, except that a least N past _SEARCH_LIMIT (which its doubling
    reports up to 2^65 - 1) reads "more than 2^64" like the model-read search."""
    N, bound = reference_stop_index(spec, budget, ctx)
    if N is not None and N > engine._SEARCH_LIMIT:
        return None, None
    return N, bound


@pytest.mark.parametrize("digits", [30, 40])
def test_stop_index_matches_the_reference_on_every_registry_row(monkeypatch, digits):
    """Every adaptive registry row off the boundary (where no tail model
    exists) gets the reference's (N, bound) from at most 2 calls, the
    certificate at N and N - 1 (the reference took 15)."""
    ctx = make_context(digits)
    rows = [row for row in list_examples()
            if row.mode == "adaptive" and not engine._at_boundary(row.spec)]
    assert len(rows) >= 40
    total = 0
    for row in rows:
        with ctx.workprec():
            budget = mpf(10) ** -(digits + 2) * (1 - mpf(2) ** -16)
            want = reference_stop_index(row.spec, budget, ctx)
            calls = counting_tail_bound(monkeypatch)
            got = engine._stop_index(row.spec, budget, ctx)
            monkeypatch.undo()
        assert got == want, row.id
        assert len(calls) <= 2, (row.id, calls)
        total += len(calls)
        N = got[0]
        assert N in calls and (N == FAMILIES[row.spec.family].first or N - 1 in calls), row.id
    assert total <= 2 * len(rows)


@pytest.mark.parametrize("digits", [40, 1000])
@pytest.mark.parametrize("spec", [J1, FamilySpec("C1", x=Fraction(1, 2)),
                                  FamilySpec("C2", x=Fraction(-1, 2))],
                         ids=["J1", "C1-1/2", "C2--1/2"])
def test_j1_refusal_takes_a_handful_of_tail_calls(monkeypatch, spec, digits):
    """The power-law tail of C at |x| = 1/2 needs far more than 2^64 terms:
    the float model puts N past the search limit, and one call there
    certifies it (66 calls by doubling).  sum_adaptive sums C at |x| = 1/2
    by CVZ (tests/test_cvz.py), so the search is called directly.  J1 runs
    no search: its adaptive sums take the tail enclosure, whose refusal
    under a cap of 30 terms calls no tail_bound at all."""
    calls = counting_tail_bound(monkeypatch)
    ctx, target = make_context(digits), Fraction(1, 10 ** (digits + 2))
    if spec.family == "J1":
        with pytest.raises(ConvergenceError, match="the J1 tail enclosure of order"):
            sum_adaptive(spec, target, ctx, max_terms=30)
        assert calls == []
        return
    with ctx.workprec():
        budget = ctx.real(target) * (1 - mpf(2) ** -16)
        assert engine._stop_index(spec, budget, ctx) == (None, None)
    assert len(calls) <= 2
    assert calls.count(engine._SEARCH_LIMIT) == 1


@pytest.mark.parametrize("digits", [30, 40])
@pytest.mark.parametrize("family", ["H2", "F3", "F5"])
def test_stop_index_within_1e_17_of_q_1_takes_four_calls(monkeypatch, family, digits):
    """At x = 1 - 10^-17 the stop index is about 10^19, past what the float
    model resolves (it reads 1,709 too low for H2 at 30 digits); the secant
    step through the two certificate calls lands on N, which two more
    calls certify."""
    spec, ctx = FamilySpec(family, x=1 - Fraction(1, 10**17)), make_context(digits)
    with ctx.workprec():
        budget = ctx.real(Fraction(1, 10 ** (digits + 2))) * (1 - mpf(2) ** -16)
        want = reference_stop_index(spec, budget, ctx)
        calls = counting_tail_bound(monkeypatch)
        assert engine._stop_index(spec, budget, ctx) == want
    assert want[0] > 10**18
    assert len(calls) <= 4


def outcome(spec, target, ctx, cap):
    try:
        res = sum_adaptive(spec, target, ctx, max_terms=cap)
    except (ConvergenceError, UncertifiedError) as exc:
        return type(exc).__name__, str(exc)
    return res.terms_used, res.value, res.truncation_bound, res.rounding_bound


@st.composite
def t_specs(draw):
    family = draw(st.sampled_from(T_FAMILIES))
    k = draw(st.integers(1, 24)) * draw(st.sampled_from([-1, 1]))
    return FamilySpec(family, phi=PhiValue(Fraction(k, 97), times_pi=True))


@st.composite
def near_one_specs(draw):
    """I1 at r <= 12, and G at |m| <= 3 with |s| up to 10^4 and p just above
    4 alpha^|m|, where q lies within 10^-8 of 1 and the stop index is huge."""
    if draw(st.booleans()):
        return FamilySpec("I1", r=2 * draw(st.integers(0, 6)))
    m = draw(st.integers(-3, 3))
    den = 10 ** draw(st.integers(1, 8))
    low = math.ceil(4 * _ALPHA ** abs(m) * den) + 1
    p = Fraction(draw(st.integers(low, low + 10)), den)
    return FamilySpec(draw(st.sampled_from(G_FAMILIES)), m=m, s=draw(st.integers(-10**4, 10**4)), p=p)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_specs(), t_specs(), near_one_specs()), st.integers(20, 1000),
       st.integers(-10, 10), st.integers(1, 99), st.sampled_from([1, 50, 2000]))
def test_stop_index_matches_the_reference_on_a_sample(spec, digits, shift, mantissa, cap):
    """Same (N, bound), and so the same sum, bounds or refusal message, as the reference."""
    ctx = make_context(digits)
    target = Fraction(mantissa, 10 ** (digits + shift))
    got = outcome(spec, target, ctx, cap)
    with mock.patch.object(engine, "_stop_index", reference_capped_at_the_search_limit):
        want = outcome(spec, target, ctx, cap)
    assert got == want


@pytest.mark.parametrize("spec, digits, target", [
    (F3_HALF, 30, Fraction(1, 10**32)),
    (FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2))), 40, Fraction(1, 10**42)),
    (FamilySpec("T5", phi=PhiValue(Fraction(1, 5), True)), 30, Fraction(1, 10**32)),
    (FamilySpec("C2", x=Fraction(-1, 3)), 100, Fraction(1, 10**102)),
    (FamilySpec("G10", m=2, s=3, p=Fraction(11)), 30, Fraction(1, 10**32)),
    (FamilySpec("H2", x=Fraction(99, 100)), 40, Fraction(1, 10**42)),
    (FamilySpec("I1", r=8), 40, Fraction(1, 10**42)),
    (FamilySpec("C1", x=Fraction(1, 2)), 40, Fraction(1, 10**42)),
], ids=["geometric", "recip-surd", "linear-T", "alternating", "F/L", "H-near-1", "I1-r8", "C-power"])
@pytest.mark.parametrize("miss", [-1000, -1, 1, 1000, "past"])
def test_stop_index_recovers_from_a_wrong_model_index(monkeypatch, spec, digits, target, miss):
    """With the float model's index moved by +-1, +-1000 or past 2^64, the
    mpf search from it still returns the reference's (N, bound); unmoved,
    the model reads N itself."""
    ctx = make_context(digits)
    first = FAMILIES[spec.family].first
    with ctx.workprec():
        budget = ctx.real(target) * (1 - mpf(2) ** -16)
        want = reference_capped_at_the_search_limit(spec, budget, ctx)
        N = engine._SEARCH_LIMIT if want[0] is None else want[0]
        assert engine._model_index(spec, budget, ctx) == N
        guess = engine._SEARCH_LIMIT if miss == "past" else min(max(N + miss, first),
                                                                 engine._SEARCH_LIMIT)
        monkeypatch.setattr(engine, "_model_index", lambda *args: guess)
        assert engine._stop_index(spec, budget, ctx) == want


def test_model_index_where_the_model_falls_faster_than_its_slope(monkeypatch):
    """F2 at x = 6/7 with a budget of 0.05: near N = 0 the model falls by
    1.2-1.7 an index against -log2 q = 0.44, so steps at the constant slope
    would swing between N = 0 and 7; the slope across the first step lands
    on the reference's N = 3, which the two certificate calls confirm."""
    spec, ctx = FamilySpec("F2", x=Fraction(6, 7)), make_context(10)
    with ctx.workprec():
        budget = ctx.real(Fraction(1, 20))
        want = reference_stop_index(spec, budget, ctx)
        assert want[0] == engine._model_index(spec, budget, ctx) == 3
        calls = counting_tail_bound(monkeypatch)
        assert engine._stop_index(spec, budget, ctx) == want
    assert calls == [3, 2]


def test_ratio_is_formed_once_per_search():
    spec = FamilySpec("T5", phi=PhiValue(Fraction(1, 5), True))
    engine._constants.cache_clear()
    res = sum_adaptive(spec, Fraction(1, 10**42), CTX40)
    info = engine._constants.cache_info()
    assert res.converged
    assert info.misses == 1 and info.hits >= 2


def test_tail_bound_does_not_depend_on_the_ratio_cache():
    specs = [FamilySpec("T3", phi=PhiValue(Fraction(1, 5), True)),
             FamilySpec("T6", phi=PhiValue(Fraction(3, 10), False)),
             FamilySpec("I1", r=6), FamilySpec("G8", m=-1, s=2, p=Fraction(7)),
             FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2)))]
    for ctx in (CTX, CTX40):
        for spec in specs:
            engine._constants.cache_clear()
            cold = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            warm = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            assert cold == warm


def catalog_boundary(spec) -> bool:
    """The boundary by the catalog's group rule: F at |x| = 1, T at |phi| =
    pi/4, G at p = 4 alpha^|m|, and no other family."""
    group = FAMILIES[spec.family].group
    if group == "F":
        return (spec.x.squared() if isinstance(spec.x, SurdValue) else spec.x**2) == 1
    if group == "T":
        return spec.phi.times_pi and abs(spec.phi.coeff) == Fraction(1, 4)
    return group == "G" and four_alpha_pow_cmp(spec.p, spec.m) == 0


@st.composite
def catalog_specs(draw):
    """Every family on its domain, with the boundary drawn about half the time
    where there is one; F3-F6 take only surds of rational value."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    group, edge = FAMILIES[family].group, draw(st.booleans())
    sign = draw(st.sampled_from([1, -1]))
    inner = Fraction(draw(st.integers(0, 99)), 100)
    if group == "F":
        d = draw(st.sampled_from([1, 2, 4, 5, 9] if family in ("F1", "F2") else [1, 4, 9]))
        root = math.isqrt(d)
        c = Fraction(1, root) if edge and root * root == d else inner / (root + 1)
        return FamilySpec(family, x=sign * c if d == 1 else SurdValue(sign * c, Fraction(d)))
    if group == "T":
        coeff = Fraction(1, 4) if edge else Fraction(draw(st.integers(1, 99)), 400)
        return FamilySpec(family, phi=PhiValue(sign * coeff, draw(st.booleans()) or edge))
    if group == "C":
        return FamilySpec(family, x=sign * (Fraction(1, 2) if edge else inner / 2))
    if group == "G":
        m = 0 if edge else draw(st.integers(-3, 3))
        p = Fraction(math.ceil(4 * 1.6180339887498949 ** abs(m) * 4) + (m != 0), 4)
        return FamilySpec(family, m=m, s=draw(st.integers(-5, 5)),
                          p=p + Fraction(draw(st.integers(0, 8)), 4))
    if group == "H":
        return FamilySpec(family, x=sign * inner)
    if family in ("I1", "I2"):
        return FamilySpec(family, r=2 * draw(st.integers(0 if family == "I1" else 1, 10)))
    return FamilySpec(family)


def test_boundary_matches_the_catalog_rule_on_every_registry_row():
    rows = list_examples()
    assert sum(engine._at_boundary(row.spec) for row in rows) >= 4
    for row in rows:
        assert engine._at_boundary(row.spec) == catalog_boundary(row.spec), row.id


@settings(max_examples=200, deadline=None)
@given(catalog_specs())
@example(FamilySpec("F1", x=SurdValue(Fraction(-1, 3), Fraction(9))))
@example(FamilySpec("F6", x=Fraction(-1)))
@example(FamilySpec("T6", phi=PhiValue(Fraction(-1, 4), True)))
@example(FamilySpec("G12", m=0, s=-4, p=Fraction(4)))
@example(FamilySpec("C2", x=Fraction(-1, 2)))
def test_boundary_matches_the_catalog_rule_on_a_sample(spec):
    """The engine reads the boundary off the term ratio; the catalog's rule
    decided it by family group.  They agree, on and off the boundary."""
    assert engine._at_boundary(spec) == catalog_boundary(spec), spec.describe()


_FOUR_ALPHA_PLUS = Fraction(2 * 10**60 + math.isqrt(20 * 10**120) + 1, 10**60)


@pytest.mark.parametrize("spec", [
    FamilySpec("I1", r=1000),
    FamilySpec("H2", x=1 - Fraction(1, 10**60)),
    FamilySpec("G1", m=1, s=0, p=_FOUR_ALPHA_PLUS),
], ids=["I1-r1000", "H2-near-1", "G1-p-near-4alpha"])
def test_ratio_rounding_to_one_is_a_convergence_error(monkeypatch, spec):
    """Inside the domain, a ratio majorant that rounds to 1 predicts more than
    2^64 terms; the refusal does not evaluate the tail bound at the cap."""
    assert not engine._at_boundary(spec)
    calls = counting_tail_bound(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        sum_adaptive(spec, Fraction(1, 10**32), CTX, max_terms=1000)
    message = str(info.value)
    assert "the geometric tail model (q = 1.0) predicts N = more than 2^64" in message
    assert "past the cap of 1000 terms" in message
    assert "rounds to 1 at the working precision" in message
    assert calls == [FAMILIES[spec.family].first]
    assert sum_fixed(spec, 20, CTX).truncation_bound == mpf("inf")


def test_sum_adaptive_rejects_a_cap_below_one():
    for cap in (0, -5):
        with pytest.raises(UsageError, match=f"max_terms must be >= 1, got {cap}"):
            sum_adaptive(F3_HALF, Fraction(1, 10**32), CTX, max_terms=cap)
    assert sum_adaptive(F3_HALF, Fraction(1), CTX, max_terms=1).terms_used == 1


def test_sum_adaptive_rejects_a_cap_past_the_search_limit():
    """No stop index past 2^64 is searched, so a cap above it cannot be honoured."""
    message = rf"max_terms must be <= 2\^64, the search limit, got {2**64 + 1}"
    with pytest.raises(UsageError, match=message):
        sum_adaptive(F3_HALF, Fraction(1, 10**32), CTX, max_terms=2**64 + 1)
    assert sum_adaptive(F3_HALF, Fraction(1, 10**32), CTX, max_terms=2**64).converged
    with pytest.raises(ConvergenceError, match="predicts N = more than 2\\^64, past the cap"):
        sum_adaptive(FamilySpec("H2", x=1 - Fraction(1, 10**18)), Fraction(1, 10**22),
                     make_context(20), max_terms=2**64)


def alpha_pow(k, ctx):
    """alpha^k = (L_k + sqrt5 F_k)/2 at the working precision."""
    with ctx.workprec():
        f, ell = fib_lucas(k)
        return (ctx.real(ell) + mp.sqrt(mpf(5)) * ctx.real(f)) / 2


def reference_geometric_ratio(spec, ctx):
    """The per-family ratio majorant q that the table-driven one replaced."""
    fam = spec.family
    if fam in ("F1", "F2"):
        x = spec.x if isinstance(spec.x, SurdValue) else SurdValue(spec.x)
        return ctx.real(x.squared())
    if fam in ("F3", "F4", "F5", "F6"):
        return abs(engine.x_real(spec.x, ctx))
    if fam in T_FAMILIES:
        return abs(mp.tan(engine.phi_real(spec.phi, ctx)))
    if fam in C_FAMILIES:
        return 16 * ctx.real(spec.x) ** 4
    if fam in G_FAMILIES:
        return 4 * alpha_pow(abs(spec.m), ctx) / ctx.real(spec.p)
    if fam in H_FAMILIES:
        return abs(ctx.real(spec.x))
    if fam == "I1":
        _, lr = fib_lucas(spec.r)
        return alpha_pow(spec.r, ctx) / lr
    if fam == "I2":
        _, lr = fib_lucas(spec.r)
        return ctx.real(Fraction(4, lr * lr))
    return ctx.real(Fraction(4, 5))


def reference_tail_bound(spec, N, ctx):
    """The per-family tail bound that the one table-driven formula replaced."""
    if N < 0:
        raise UsageError(f"tail_bound: N must be >= 0, got {N}")
    fam = spec.family
    with ctx.workprec():
        pad = mpf(engine._BOUND_PAD)
        if fam == "J1":
            if N == 0:
                return (mpf(9) / 32 + engine._j1_integral_bound(1)) * pad
            return engine._j1_integral_bound(N) * pad
        if fam in C_FAMILIES:
            xa = abs(ctx.real(spec.x))
            q = 16 * xa**4
            M = N + 1
            if fam == "C1":
                return q**M * xa / (mp.sqrt(2 * mp.pi * M) * (4 * M + 1)) * pad
            return q**M * 4 * xa**3 / (mp.sqrt(mp.pi * (2 * M + 1)) * (4 * M + 3)) * pad
        q = reference_geometric_ratio(spec, ctx)
        if not q < 1:
            raise UncertifiedError(spec, "term-ratio majorant reaches 1; no certified tail bound")
        M = N + 1
        if fam in ("F1", "F2"):
            xa = abs(engine.x_real(spec.x, ctx))
            return xa ** (2 * M + 1) / ((2 * M + 1) * mp.sqrt(mp.pi * M)) / (1 - q) * pad
        if fam in ("F3", "F4", "T3", "T4"):
            return q**M / mp.sqrt(mp.pi * M) / (1 - q) * pad
        if fam in ("F5", "F6", "T5", "T6"):
            return q**M * (M * (1 - q) + q) / ((1 - q) ** 2 * mp.sqrt(mp.pi * M)) * pad
        if fam in ("T1", "T2"):
            return q**M / ((2 * M + 1) * mp.sqrt(mp.pi * M)) / (1 - q) * pad
        if fam in G_FAMILIES:
            kappa = alpha_pow(abs(spec.s), ctx)
            row = FAMILIES[fam]
            kappa = kappa * 2 / mp.sqrt(mpf(5)) if row.seq == "F" else kappa * 2
            weight = row.weight
            if weight == "recip":
                return kappa * q**M / ((2 * M + 1) * mp.sqrt(mp.pi * M) * (1 - q)) * pad
            if weight == "plain":
                return kappa * q**M / (mp.sqrt(mp.pi * M) * (1 - q)) * pad
            return kappa * q**M * (M * (1 - q) + q) / ((1 - q) ** 2 * mp.sqrt(mp.pi * M)) * pad
        if fam in ("H1", "H2"):
            return q**M / mp.sqrt(2 * mp.pi * M) / (1 - q) * pad
        if fam in ("H3", "H4"):
            return q**M / mp.sqrt(mp.pi * (2 * M - 1)) / (1 - q) * pad
        if fam == "I1":
            return 2 * q**M / mp.sqrt(2 * mp.pi * M) / (1 - q) * pad
        return q**M / mp.sqrt(2 * mp.pi * M) / (1 - q) * pad


def assert_same_tail_bound(spec, N, ctx):
    """tail_bound equals the reference to a relative 1e-20, or both refuse.

    On the boundary tail_bound always refuses.  At |phi| = pi/4 the reference's
    q is tan(pi/4) rounded, which can land an ulp below 1 and give a finite
    bound, so only the refusal is checked there.
    """
    if engine._at_boundary(spec):
        with pytest.raises(UncertifiedError):
            tail_bound(spec, N, ctx)
        if spec.phi is not None:
            return
    try:
        want = reference_tail_bound(spec, N, ctx)
    except UncertifiedError:
        with pytest.raises(UncertifiedError):
            tail_bound(spec, N, ctx)
        return
    got = tail_bound(spec, N, ctx)
    with ctx.workprec():
        assert abs(got - want) <= mpf(10) ** -20 * want, (spec.describe(), N)


def stop_index_or_refusal(spec, budget, ctx):
    try:
        return engine._stop_index(spec, budget, ctx)
    except UncertifiedError:
        return "refused", None


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_tail_bound_matches_the_reference_on_every_registry_row(monkeypatch, digits):
    """Every registry row, boundary rows included, gets the reference's bounds and
    the same stop index."""
    ctx = make_context(digits)
    rows = list_examples()
    assert len(rows) >= 50
    for row in rows:
        for N in (0, 1, 9, 100, 12_345, 10**6):
            assert_same_tail_bound(row.spec, N, ctx)
        with ctx.workprec():
            budget = mpf(10) ** -(digits + 2) * (1 - mpf(2) ** -16)
            got = stop_index_or_refusal(row.spec, budget, ctx)
            monkeypatch.setattr(engine, "tail_bound", reference_tail_bound)
            want = stop_index_or_refusal(row.spec, budget, ctx)
            monkeypatch.undo()
            assert got[0] == want[0], row.id
            if got[1] is not None:
                assert abs(got[1] - want[1]) <= mpf(10) ** -20 * want[1], row.id


@st.composite
def surd_specs(draw):
    """F1/F2 at x = c sqrt(d), |x| < 1, mostly irrational."""
    d = draw(st.sampled_from([2, 3, 5, Fraction(1, 2), Fraction(4, 9)]))
    c = Fraction(draw(st.integers(-4, 4)), 10)
    return FamilySpec(draw(st.sampled_from(["F1", "F2"])), x=SurdValue(c, Fraction(d)))


def t_at_quarter_pi(family, t):
    return FamilySpec(family, phi=PhiValue(Fraction(t, 4), True))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(spec_zoo()), rational_specs(), t_specs(), surd_specs(),
                 st.builds(t_at_quarter_pi, st.sampled_from(T_FAMILIES), st.sampled_from([-1, 1]))),
       st.one_of(st.integers(0, 100), st.integers(0, 10**6)),
       st.sampled_from([20, 30, 60, 100]))
def test_tail_bound_matches_the_reference_on_a_sample(spec, N, digits):
    """Every family shape, boundary points (|x| = 1, |x| = 1/2 for C, |phi| = pi/4)
    included."""
    assert_same_tail_bound(spec, N, make_context(digits))


def reference_run(k, N):
    """The kernel loop that evaluated num(n) and den(n) by Horner's rule at each
    step, before they were stepped by forward differences."""
    a0, a1, a2, a3 = k.num
    b0, b1, b2, b3 = k.den
    neg = k.neg
    if k.weight == "harmonic":
        one = a = k.head[0]
        partial = lower = 0
        h = one  # H_{n+1}
        for n in range(N):
            partial += a
            m = n + 2
            lower += partial // m
            h += one // m
            a = a * (((a3 * n + a2) * n + a1) * n + a0) // (((b3 * n + b2) * n + b1) * n + b0)
        return h * (partial + a) // one - lower
    if k.step is None:
        (u,) = k.head
        total = 0
        for n in range(k.first, N + 1):
            if neg[n & 3]:
                total -= u
            else:
                total += u
            u = u * (((a3 * n + a2) * n + a1) * n + a0) // (((b3 * n + b2) * n + b1) * n + b0)
        return total
    fm, lm = k.step
    f5 = 5 * fm
    f, l = k.head
    sf = sl = 0
    for n in range(k.first, N + 1):
        if neg[n & 3]:
            sf -= f
            sl -= l
        else:
            sf += f
            sl += l
        r = ((a3 * n + a2) * n + a1) * n + a0
        s = ((b3 * n + b2) * n + b1) * n + b0
        f, l = (f * lm + l * fm) * r // s, (l * lm + f * f5) * r // s
    return k.out[0] * sf + k.out[1] * sl


def kernel_zoo():
    """Every family once or more: surd F1/F2, T at irrational tan(phi) and at
    tan(phi) = -1, G at negative m and s, I1 at r = 0, J1."""
    x_specs = [FamilySpec(f, x=Fraction(-2, 3) if f[0] == "F" else Fraction(3, 7))
               for f in F_FAMILIES + C_FAMILIES + H_FAMILIES]
    return x_specs + [
        FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2))),
        FamilySpec("F2", x=SurdValue(Fraction(-3, 10), Fraction(3))),
        FamilySpec("C1", x=Fraction(-1, 2)),
        FamilySpec("C2", x=Fraction(1, 2)),
        FamilySpec("H3", x=Fraction(-9, 10)),
        *(FamilySpec(f, phi=PhiValue(Fraction(1, 7), True)) for f in T_FAMILIES),
        FamilySpec("T4", phi=PhiValue(Fraction(-1, 4), True)),
        *(FamilySpec(f, m=2, s=3, p=Fraction(23, 2)) for f in G_FAMILIES),
        FamilySpec("G1", m=-2, s=-3, p=Fraction(13)),
        FamilySpec("G12", m=-1, s=-5, p=Fraction(7)),
        FamilySpec("I1", r=0),
        FamilySpec("I1", r=4),
        FamilySpec("I2", r=2),
        FamilySpec("I3"),
        J1,
    ]


def test_kernel_matches_the_horner_reference_on_every_family():
    """Stepping num and den by forward differences gives the very integers of
    evaluating them at each n.  J1, whose H_{N+1} is no longer stepped, has
    tests of its own below."""
    specs = kernel_zoo()
    assert {spec.family for spec in specs} == set(ALL_FAMILIES)
    for spec in specs:
        if spec == J1:
            continue
        first = FAMILIES[spec.family].first
        for N, B in itertools.product(sorted({first, first + 1, first + 2, 7, 50, 777}),
                                      (80, 239, 3400)):
            k = engine._kernel(spec, N, B)
            assert engine._run(k, N) == reference_run(k, N), (spec.describe(), N, B)


def reference_j1_error(N):
    """The count of the reference loop, whose h steps H_{n+1} and so errs by
    up to N + 1 units."""
    return (2 + (N + 1).bit_length()) * (N + 1) ** 2


def test_j1_kernel_brackets_the_exact_sum():
    """_run +- _kernel_error holds the exact partial sum of J1 at scale 2^B."""
    Ns = (0, 1, 2, 7, 50, 777)
    sums = list(itertools.accumulate(term_fraction(J1, n) for n in range(Ns[-1] + 1)))
    for N, B in itertools.product(Ns, (80, 239, 3400)):
        k = engine._kernel(J1, N, B)
        total, err = engine._run(k, N), engine._kernel_error(k, N)
        assert err <= reference_j1_error(N)
        want = sums[N] * 2**B
        assert total - err <= want <= total + err, (N, B)


def test_j1_kernel_matches_the_horner_reference_past_50000_terms():
    """The reference loop steps h = H_{n+1}; the two totals lie within the sum
    of their counts."""
    N = 60_000
    B = math.ceil(CTX40.working_digits * 3.3219280948873626) + 2 * (N + 1).bit_length() + 16
    k = engine._kernel(J1, N, B)
    gap = abs(engine._run(k, N) - reference_run(k, N))
    assert gap <= engine._kernel_error(k, N) + reference_j1_error(N)


def test_kernel_matches_the_horner_reference_past_50000_terms():
    N = 60_000
    B = math.ceil(CTX40.working_digits * 3.3219280948873626) + 2 * (N + 1).bit_length() + 16
    k = engine._kernel(FamilySpec("C1", x=Fraction(-1, 2)), N, B)
    assert engine._run(k, N) == reference_run(k, N)
