from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import cbcseries.identities as identities
from cbcseries.exact import central_binomials
from cbcseries.families import SignPattern
from cbcseries.identities import (
    LEMMA_DIGITS_LIMIT,
    IdentityReport,
    check_binomial_transform,
    check_convolution,
    check_harmonic_integral,
    check_lemma1,
    check_lemma2,
    check_sign_split,
    check_weighted_convolution,
)
from cbcseries.precision import UsageError, make_context

CTX40 = make_context(40)

LEMMA_SAMPLES = [Fraction(7 * (2 * k - 19), 200) for k in range(20)]


def c_prefix(n):
    stream = central_binomials()
    return [next(stream) for _ in range(n + 1)]


def test_convolution_sweep():
    assert check_convolution(120).passed


def test_weighted_convolution_sweep():
    assert check_weighted_convolution(120).passed


def test_k_squared_needs_full_range():
    # dropping the k = n term breaks the k^2-weighted identity immediately
    c = c_prefix(2)
    short = sum(k * k * c[k] * c[2 - k] for k in range(2))
    assert short == 4
    full = sum(k * k * c[k] * c[2 - k] for k in range(3))
    assert full == 28 == 2 * (3 * 2 + 1) * 4**2 // 8


def test_binomial_transform_sweep():
    assert check_binomial_transform(40).passed


def test_binomial_transform_small_case_by_hand():
    c = c_prefix(2)
    n, t = 2, -2
    lhs = sum(4 ** (n - k) * comb(n, k) * c[k] * t**k for k in range(n + 1))
    rhs = sum(c[k] * c[n - k] * (1 + t) ** k for k in range(n + 1))
    assert lhs == rhs == 8


def test_sign_split_default_batch():
    assert check_sign_split(n_max=63, count=50).passed


def test_sign_split_difference_form_by_hand():
    report = check_sign_split(sample_sequences=[[Fraction(n) for n in range(7)]])
    assert report.passed
    # for f_n = n the difference form collapses to -2 (1 - 3 + 5)
    assert -2 * (1 - 3 + 5) == -6


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30),
        min_size=1,
        max_size=40,
    )
)
def test_sign_split_arbitrary_sequences(seq):
    assert check_sign_split(sample_sequences=[seq]).passed


def test_report_semantics():
    ok = IdentityReport("demo", "n <= 3")
    assert ok.status == "pass"
    assert ok.passed
    assert str(ok) == "demo [n <= 3]: pass"
    bad = IdentityReport("demo", "n <= 3", [({"n": 1}, 0, 1), ({"n": 2}, 0, 2)])
    assert bad.status == "fail"
    assert not bad.passed
    assert "2 failure(s)" in str(bad)


def test_lemma1_sweep():
    report = check_lemma1(LEMMA_SAMPLES, CTX40)
    assert report.passed
    assert "20 samples" in report.range


def test_lemma1_spot_value():
    with CTX40.workprec():
        w = mp.asin(mp.mpc(mpf(1) / 2, mpf(1) / 2))
        assert abs(w.real - mpf("0.45227844715")) < mpf("1e-11")
        g = mp.sqrt(2) * mpf(1) / 2 / mp.sqrt(mp.sqrt(mpf(5) / 4) + 1)
        assert abs(w.real - mp.atan(g)) < mpf(10) ** -45
        assert abs(w.imag - mp.atanh(g)) < mpf(10) ** -45


def test_lemma1_rejects_out_of_range():
    with pytest.raises(UsageError):
        check_lemma1([Fraction(3, 4)], CTX40)


def test_lemma_checks_refuse_past_their_digits_limit():
    ctx = make_context(LEMMA_DIGITS_LIMIT + 1)
    for check in (check_lemma1, check_lemma2):
        with pytest.raises(UsageError, match="digits of the lemma checks"):
            check(LEMMA_SAMPLES, ctx)


def test_lemma2_sweep():
    report = check_lemma2(LEMMA_SAMPLES, CTX40)
    assert report.passed


def test_lemma2_rejects_zero_and_edge():
    with pytest.raises(UsageError):
        check_lemma2([Fraction(0)], CTX40)
    with pytest.raises(UsageError):
        check_lemma2([Fraction(1)], CTX40)


def test_harmonic_integral_sweep():
    assert check_harmonic_integral(100).passed


def test_harmonic_integral_v5_by_hand():
    lhs = sum(Fraction((-1) ** k * comb(4, k), (2 * k + 2) ** 2) for k in range(5))
    assert lhs == Fraction(137, 1200)


def test_range_validation():
    with pytest.raises(UsageError):
        check_convolution(-1)
    with pytest.raises(UsageError):
        check_weighted_convolution(0)
    with pytest.raises(UsageError):
        check_harmonic_integral(0)
    with pytest.raises(UsageError):
        check_binomial_transform(5, t_values=())


def test_range_limits_refuse_huge_sweeps_at_once():
    limits = (
        (check_convolution, identities.CONVOLUTION_N_LIMIT),
        (check_weighted_convolution, identities.CONVOLUTION_N_LIMIT),
        (check_binomial_transform, identities.TRANSFORM_N_LIMIT),
        (lambda n: check_sign_split(n_max=n), identities.SIGN_SPLIT_N_LIMIT),
        (check_harmonic_integral, identities.HARMONIC_V_LIMIT),
    )
    for check, limit in limits:
        for bound in (limit + 1, 10**7):
            with pytest.raises(UsageError, match=f"must be in \\[[01], {limit}\\]"):
                check(bound)


# ---------------------------------------------------------------------------
# the per-n formulas the checks used before they formed each product once,
# kept as an independent reference; they read the prefix, the harmonic
# stream and sign() through the module, so a monkeypatch reaches both sides


def reference_convolution(n_max):
    c = identities._central_prefix(n_max)
    failures = []
    for n in range(n_max + 1):
        plain = sum(c[k] * c[n - k] for k in range(n + 1))
        if plain != 4**n:
            failures.append(({"identity": "plain", "n": n}, plain, 4**n))
        alt = sum((-1) ** k * c[k] * c[n - k] for k in range(n + 1))
        want = 0 if n % 2 else comb(n, n // 2) * 2**n
        if alt != want:
            failures.append(({"identity": "alternating", "n": n}, alt, want))
    return IdentityReport("central-convolution", f"0 <= n <= {n_max}", failures)


def reference_weighted_convolution(n_max):
    c = identities._central_prefix(n_max)
    failures = []
    for n in range(1, n_max + 1):
        prods = [c[k] * c[n - k] for k in range(n + 1)]
        kn = sum(k * (n - k) * prods[k] for k in range(n + 1))
        want_kn = n * (n - 1) * 4**n // 8
        if kn != want_kn:
            failures.append(({"identity": "k(n-k)", "n": n}, kn, want_kn))
        if n % 2:
            alt = sum((-1) ** k * k * (n - k) * prods[k] for k in range(n + 1))
            if alt != 0:
                failures.append(({"identity": "alternating k(n-k)", "n": n}, alt, 0))
        k1 = sum(k * prods[k] for k in range(n + 1))
        want_k1 = n * 4**n // 2
        if k1 != want_k1:
            failures.append(({"identity": "k", "n": n}, k1, want_k1))
        k2 = sum(k * k * prods[k] for k in range(n + 1))
        want_k2 = n * (3 * n + 1) * 4**n // 8
        if k2 != want_k2:
            failures.append(({"identity": "k^2", "n": n}, k2, want_k2))
    return IdentityReport("weighted-convolution", f"1 <= n <= {n_max}", failures)


def reference_binomial_transform(n_max, t_values=(-3, -2, -1, 0, 1, 2, 3)):
    c = identities._central_prefix(n_max)
    failures = []
    for n in range(n_max + 1):
        for t in t_values:
            lhs = sum(4 ** (n - k) * comb(n, k) * c[k] * t**k for k in range(n + 1))
            rhs = sum(c[k] * c[n - k] * (1 + t) ** k for k in range(n + 1))
            if lhs != rhs:
                failures.append(({"n": n, "t": t}, lhs, rhs))
    ts = ",".join(str(t) for t in t_values)
    return IdentityReport("binomial-transform", f"0 <= n <= {n_max}; t in {{{ts}}}", failures)


def reference_sign_split(seqs, n_max):
    sign = identities.sign
    failures = []
    for idx, f in enumerate(seqs):
        f = [Fraction(v) for v in f[: n_max + 1]]
        lhs_sum = sum(
            (sign(SignPattern.CEIL_HALF, n) + sign(SignPattern.FLOOR_HALF, n)) * f[n]
            for n in range(len(f))
        )
        rhs_sum = 2 * sum((-1) ** j * f[2 * j] for j in range((len(f) + 1) // 2))
        if lhs_sum != rhs_sum:
            failures.append(({"sequence": idx, "form": "sum"}, lhs_sum, rhs_sum))
        lhs_diff = sum(
            (sign(SignPattern.CEIL_HALF, n) - sign(SignPattern.FLOOR_HALF, n)) * f[n]
            for n in range(len(f))
        )
        rhs_diff = -2 * sum((-1) ** j * f[2 * j + 1] for j in range(len(f) // 2))
        if lhs_diff != rhs_diff:
            failures.append(({"sequence": idx, "form": "difference"}, lhs_diff, rhs_diff))
    return failures


def reference_harmonic_integral(v_max):
    failures = []
    harmonics = identities.harmonic_stream()
    next(harmonics)
    for v in range(1, v_max + 1):
        h_v = next(harmonics)
        lhs = sum(
            Fraction((-1) ** k * comb(v - 1, k), (2 * k + 2) ** 2) for k in range(v)
        )
        rhs = h_v / (4 * v)
        if lhs != rhs:
            failures.append(({"v": v}, lhs, rhs))
    return IdentityReport("harmonic-log-moment", f"1 <= v <= {v_max}", failures)


def assert_same_report(new, ref):
    assert (new.id, new.range) == (ref.id, ref.range)
    assert new.failures == ref.failures
    for (_, lhs, rhs), (_, ref_lhs, ref_rhs) in zip(new.failures, ref.failures):
        assert type(lhs) is type(ref_lhs) and type(rhs) is type(ref_rhs)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 7, 16, 41])
def test_reports_equal_the_reference(n_max):
    assert_same_report(check_convolution(n_max), reference_convolution(n_max))
    assert_same_report(check_binomial_transform(n_max), reference_binomial_transform(n_max))
    assert_same_report(
        check_binomial_transform(n_max, t_values=(5, -7)),
        reference_binomial_transform(n_max, t_values=(5, -7)),
    )
    if n_max >= 1:
        assert_same_report(
            check_weighted_convolution(n_max), reference_weighted_convolution(n_max)
        )
        assert_same_report(check_harmonic_integral(n_max), reference_harmonic_integral(n_max))


def _corrupt_prefix(monkeypatch, j):
    real_prefix = identities._central_prefix

    def corrupted(n_max):
        c = real_prefix(n_max)
        if j <= n_max:
            c[j] += 1
        return c

    monkeypatch.setattr(identities, "_central_prefix", corrupted)


@pytest.mark.parametrize("j", [0, 1, 5, 12])
def test_corrupted_prefix_fails_exactly_where_the_reference_does(monkeypatch, j):
    """One c_j off by 1: every product check fails, at n >= j and nowhere else."""
    _corrupt_prefix(monkeypatch, j)
    n_max = 20
    conv = check_convolution(n_max)
    assert_same_report(conv, reference_convolution(n_max))
    plain = [p["n"] for p, _, _ in conv.failures if p["identity"] == "plain"]
    assert plain == list(range(j, n_max + 1))
    alternating = [p["n"] for p, _, _ in conv.failures if p["identity"] == "alternating"]
    assert alternating == [n for n in range(j, n_max + 1) if n % 2 == 0]

    weighted = check_weighted_convolution(n_max)
    assert_same_report(weighted, reference_weighted_convolution(n_max))
    assert weighted.failures
    assert min(p["n"] for p, _, _ in weighted.failures) >= max(j, 1)
    k1 = [p["n"] for p, _, _ in weighted.failures if p["identity"] == "k"]
    assert k1 == list(range(max(j, 1), n_max + 1))

    transform = check_binomial_transform(n_max)
    assert_same_report(transform, reference_binomial_transform(n_max))
    assert transform.failures
    assert {p["n"] for p, _, _ in transform.failures} == set(range(j, n_max + 1))


def test_corrupted_harmonic_stream_fails_exactly_at_that_v(monkeypatch):
    real_stream = identities.harmonic_stream

    def corrupted():
        for v, h in enumerate(real_stream()):
            yield h + Fraction(1, 10**9) if v in (3, 17) else h

    monkeypatch.setattr(identities, "harmonic_stream", corrupted)
    report = check_harmonic_integral(30)
    assert_same_report(report, reference_harmonic_integral(30))
    assert [p["v"] for p, _, _ in report.failures] == [3, 17]


def test_corrupted_sign_fails_exactly_where_the_reference_does(monkeypatch):
    """One flipped sign weight breaks both forms for sequences long enough to reach it."""
    real_sign = identities.sign

    def corrupted(pattern, n):
        value = real_sign(pattern, n)
        return -value if pattern is SignPattern.CEIL_HALF and n == 6 else value

    monkeypatch.setattr(identities, "sign", corrupted)
    seqs = [[Fraction(k + 1, 3 + k % 4) for k in range(length)] for length in (1, 6, 7, 12)]
    report = check_sign_split(sample_sequences=seqs, n_max=10)
    assert report.failures == reference_sign_split(seqs, 10)
    assert [(p["sequence"], p["form"]) for p, _, _ in report.failures] == [
        (2, "sum"), (2, "difference"), (3, "sum"), (3, "difference")
    ]
    default = check_sign_split(n_max=20, count=30, seed=7)
    batch = identities._random_rational_sequences(30, 20, 7) + [
        identities._ratio_weighted_sequence(x, 21)
        for x in (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    ]
    assert default.failures == reference_sign_split(batch, 20)
    reaching = [i for i, f in enumerate(batch) if len(f) > 6 and f[6] != 0]
    assert sorted({p["sequence"] for p, _, _ in default.failures}) == reaching


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30),
            max_size=30,
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 40),
)
def test_sign_split_equals_the_reference(seqs, n_max):
    assert check_sign_split(sample_sequences=seqs, n_max=n_max).failures == reference_sign_split(
        seqs, n_max
    )
