import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import cbcseries.engine as engine
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
from cbcseries.exact import central_binomials, fib_lucas
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
)
from cbcseries.precision import UsageError, make_context
from cbcseries.registry import list_examples

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
    with pytest.raises(UncertifiedError):
        sum_adaptive(FamilySpec("F4", x=Fraction(-1)), Fraction(1, 100), CTX)


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


def counting_tail_bound(monkeypatch):
    calls = []
    real_tail_bound = engine.tail_bound

    def counted(spec, N, ctx):
        calls.append(N)
        return real_tail_bound(spec, N, ctx)

    monkeypatch.setattr(engine, "tail_bound", counted)
    return calls


def test_sum_adaptive_stop_index_is_least_with_few_tail_calls(monkeypatch):
    """N comes from a handful of tail_bound calls and is the least index that fits."""
    real_tail_bound = engine.tail_bound
    calls = counting_tail_bound(monkeypatch)
    for spec, ctx, target in ((F3_HALF, CTX40, Fraction(1, 10**42)),
                              (FamilySpec("I1", r=4), CTX, Fraction(1, 10**32)),
                              (FamilySpec("G10", m=2, s=3, p=Fraction(11)), CTX, Fraction(1, 10**32)),
                              (FamilySpec("H3", x=Fraction(-9, 10)), CTX, Fraction(1, 10**32))):
        calls.clear()
        res = sum_adaptive(spec, target, ctx)
        assert res.converged
        assert len(calls) <= 8
        N = res.terms_used - 1
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
    engine._alpha_pow_at.cache_clear()
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
            engine._alpha_pow_at.cache_clear()
            cold = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            warm = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            assert cold == warm
            with ctx.workprec():
                f, ell = engine.fib_lucas(abs(spec.s))
                direct = (ctx.real(ell) + mp.sqrt(mpf(5)) * ctx.real(f)) / 2
                assert engine._alpha_pow(abs(spec.s), ctx) == direct


def test_c_families_keep_the_sign_of_negative_x_past_50000_terms():
    N = 60_000
    for family in ("C1", "C2"):
        plus = sum_fixed(FamilySpec(family, x=Fraction(1, 2)), N, CTX)
        minus_spec = FamilySpec(family, x=Fraction(-1, 2))
        minus = sum_fixed(minus_spec, N, CTX)
        with CTX.workprec():
            assert minus.value == -plus.value
            assert abs(minus.value - closed_value(minus_spec, CTX)) <= minus.error_bound()


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


@settings(max_examples=60, deadline=None)
@given(rational_specs(), st.integers(0, 300), st.sampled_from([10, 30, 60]))
def test_counted_rounding_bound_holds(spec, N, digits):
    ctx = make_context(digits)
    res = sum_fixed(spec, N, ctx)
    exact = sum(term_fraction(spec, n) for n in range(N + 1))
    with mp.workdps(ctx.working_digits + 40):
        assert abs(res.value - mpf(exact.numerator) / exact.denominator) <= res.rounding_bound


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
    """The doubling-and-bisection stop-index search that the model-guided one replaced."""
    lo = spec.first_index() - 1
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
    reports up to 2^65 - 1) reads "more than 2^64" like the model-guided search."""
    N, bound = reference_stop_index(spec, budget, ctx)
    if N is not None and N > engine._SEARCH_LIMIT:
        return None, None
    return N, bound


@pytest.mark.parametrize("digits", [30, 40])
def test_stop_index_matches_the_reference_on_every_registry_row(monkeypatch, digits):
    """Every adaptive registry row gets the reference's (N, bound) from at most 8
    calls, and from under 5 on average (the reference took 15)."""
    ctx = make_context(digits)
    rows = [row for row in list_examples() if row.mode == "adaptive"]
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
        assert len(calls) <= 8, (row.id, calls)
        total += len(calls)
        N = got[0]
        assert N in calls and (N == row.spec.first_index() or N - 1 in calls), row.id
    assert total < 5 * len(rows)


def test_j1_refusal_takes_a_handful_of_tail_calls(monkeypatch):
    """J1 needs ~10^84 terms at 40 digits: the refusal probes the search limit once
    the model points past it (66 calls by doubling), plus one call at the cap."""
    calls = counting_tail_bound(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        sum_adaptive(J1, Fraction(1, 10**42), CTX40, max_terms=2000)
    assert "predicts N = more than 2^64, past the cap of 2000 terms" in str(info.value)
    assert len(calls) <= 12
    assert calls.count(engine._SEARCH_LIMIT) == 1
    assert calls[-1] == 1999


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


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_specs(), t_specs()), st.integers(20, 200), st.integers(-10, 10),
       st.integers(1, 99), st.sampled_from([1, 50, 2000]))
def test_stop_index_matches_the_reference_on_a_sample(spec, digits, shift, mantissa, cap):
    """Same (N, bound), and so the same sum, bounds or refusal message, as the reference."""
    ctx = make_context(digits)
    target = Fraction(mantissa, 10 ** (digits + shift))
    got = outcome(spec, target, ctx, cap)
    with mock.patch.object(engine, "_stop_index", reference_capped_at_the_search_limit):
        want = outcome(spec, target, ctx, cap)
    assert got == want


def test_ratio_is_formed_once_per_search():
    spec = FamilySpec("T3", phi=PhiValue(Fraction(1, 5), True))
    engine._geometric_ratio_at.cache_clear()
    res = sum_adaptive(spec, Fraction(1, 10**42), CTX40)
    info = engine._geometric_ratio_at.cache_info()
    assert res.converged
    assert info.misses == 1 and info.hits >= 2


def test_tail_bound_does_not_depend_on_the_ratio_cache():
    specs = [FamilySpec("T3", phi=PhiValue(Fraction(1, 5), True)),
             FamilySpec("T6", phi=PhiValue(Fraction(3, 10), False)),
             FamilySpec("I1", r=6), FamilySpec("G8", m=-1, s=2, p=Fraction(7)),
             FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2)))]
    for ctx in (CTX, CTX40):
        for spec in specs:
            engine._geometric_ratio_at.cache_clear()
            cold = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            warm = [tail_bound(spec, N, ctx) for N in (0, 9, 400)]
            assert cold == warm


_FOUR_ALPHA_PLUS = Fraction(2 * 10**60 + math.isqrt(20 * 10**120) + 1, 10**60)


@pytest.mark.parametrize("spec", [
    FamilySpec("I1", r=1000),
    FamilySpec("H2", x=1 - Fraction(1, 10**60)),
    FamilySpec("G1", m=1, s=0, p=_FOUR_ALPHA_PLUS),
], ids=["I1-r1000", "H2-near-1", "G1-p-near-4alpha"])
def test_ratio_rounding_to_one_is_a_convergence_error(monkeypatch, spec):
    """Inside the domain, a ratio majorant that rounds to 1 predicts more than
    2^64 terms; the refusal does not evaluate the tail bound at the cap."""
    assert not spec.at_certification_boundary()
    calls = counting_tail_bound(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        sum_adaptive(spec, Fraction(1, 10**32), CTX, max_terms=1000)
    message = str(info.value)
    assert "the geometric tail model (q = 1.0) predicts N = more than 2^64" in message
    assert "past the cap of 1000 terms" in message
    assert "rounds to 1 at the working precision" in message
    assert calls == [spec.first_index()]
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
        return 4 * engine._alpha_pow(abs(spec.m), ctx) / ctx.real(spec.p)
    if fam in H_FAMILIES:
        return abs(ctx.real(spec.x))
    if fam == "I1":
        _, lr = fib_lucas(spec.r)
        return engine._alpha_pow(spec.r, ctx) / lr
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
            kappa = engine._alpha_pow(abs(spec.s), ctx)
            row = FAMILIES[fam]
            kappa = kappa * 2 / mp.sqrt(mpf(5)) if row.seq == "F" else kappa * 2
            weight = row.weight
            if weight == "recip":
                return kappa * q**M / ((2 * M + 1) * (1 - q)) * pad
            if weight == "plain":
                return kappa * q**M / (1 - q) * pad
            return kappa * q**M * (M * (1 - q) + q) / (1 - q) ** 2 * pad
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
    if spec.at_certification_boundary():
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
    evaluating them at each n."""
    specs = kernel_zoo()
    assert {spec.family for spec in specs} == set(ALL_FAMILIES)
    for spec in specs:
        first = spec.first_index()
        for N, B in itertools.product(sorted({first, first + 1, first + 2, 7, 50, 777}),
                                      (80, 239, 3400)):
            k = engine._kernel(spec, N, B)
            assert engine._run(k, N) == reference_run(k, N), (spec.describe(), N, B)


def test_kernel_matches_the_horner_reference_past_50000_terms():
    N = 60_000
    B = math.ceil(CTX40.working_digits * 3.3219280948873626) + 2 * (N + 1).bit_length() + 16
    k = engine._kernel(FamilySpec("C1", x=Fraction(-1, 2)), N, B)
    assert engine._run(k, N) == reference_run(k, N)
