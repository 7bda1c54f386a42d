import itertools
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbcseries.engine as engine
from cbcseries import moments
from cbcseries.closedforms import closed_value
from cbcseries.engine import sum_fixed, tail_bound, term_fraction
from cbcseries.exact import harmonic
from cbcseries.families import FamilySpec
from cbcseries.precision import UsageError, make_context


def exact(v) -> Fraction:
    """An mpf as the exact Fraction it stands for."""
    sign, man, exp, _ = v._mpf_
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def kernel_sum(spec, N, ctx):
    """(value, rounding bound) of the terms 0..N summed by the kernel, whichever
    path engine._plan would choose."""
    B = engine._scale_bits(N, ctx)
    plan = engine._Plan("kernel", N, B, engine._kernel(spec, N, B))
    with ctx.workprec():
        value, _, rounding = engine._sum(spec, plan)
    return value, rounding


def first_cvz_index(ctx) -> int:
    """The least N that sum_fixed sums by S - T(N), found by galloping and
    bisecting on the plan's path: the kernel's cost grows with N and the
    split's only with B, which grows like log N."""
    def split(N):
        return engine._plan(FamilySpec("C1", x=Fraction(1, 2)), ctx, N).path == "split"

    low, high = 0, 1
    while not split(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if split(mid) else (mid, high)
    return high


@pytest.mark.parametrize("digits", [10, 40, 1000])
def test_central_binomial_enclosure_contains_the_exact_value(digits):
    bits = math.ceil(digits * 3.3219280948873626)
    for k in itertools.chain(range(0, 401, 2), (4000, 20000)):
        box = moments.central_binomial_enclosure(k, bits)
        low, high = (exact(v) for v in engine._ends(box))
        c = Fraction(math.comb(k, k // 2), 2**k)
        assert low <= c <= high, (k, bits)
        assert (high - low) <= c / 2**bits, (k, bits)


@pytest.mark.parametrize("digits", [40, 1000])
@pytest.mark.parametrize("k", [4 * 10**6 + 4, 4 * 10**6 + 6])
def test_central_binomial_enclosure_agrees_with_itself_at_twice_the_bits(digits, k):
    """At the split's indices for N = 10^6 the enclosure at twice the bits
    lies inside it, and each is as narrow as it claims."""
    bits = math.ceil(digits * 3.3219280948873626)
    low, high = (exact(v) for v in engine._ends(moments.central_binomial_enclosure(k, bits)))
    deep_low, deep_high = (exact(v) for v in engine._ends(
        moments.central_binomial_enclosure(k, 2 * bits)))
    assert low <= deep_low <= deep_high <= high
    assert high - low <= deep_low / 2**bits
    assert deep_high - deep_low <= deep_low / 2 ** (2 * bits)


def test_stirling_coefficients_are_the_bernoulli_ratios():
    for j, c in enumerate(moments._stirling_coefficients(64), start=1):
        assert c == Fraction(*mpmath.bernfrac(2 * j)) / (2 * j * (2 * j - 1))


def test_central_binomial_enclosure_rejects_odd_and_negative_indices():
    for k in (-2, 3):
        with pytest.raises(UsageError):
            moments.central_binomial_enclosure(k, 40)


@pytest.mark.parametrize("bits", [80, 239, 3400])
def test_harmonic_enclosure_contains_the_exact_value(bits):
    """Below n = bits the enclosure is shifted down from H_bits by exact 1/j."""
    for n in itertools.chain(range(61), (100, 777, 3000)):
        low, high = moments.harmonic_enclosure(n, bits)
        assert low <= harmonic(n) * 2**bits <= high, (n, bits)
        assert high - low <= 2, (n, bits)


def test_harmonic_enclosure_agrees_with_itself_at_twice_the_bits():
    low, high = moments.harmonic_enclosure(10**6, 200)
    deep_low, deep_high = moments.harmonic_enclosure(10**6, 400)
    assert low <= deep_low >> 200 and -(-deep_high >> 200) <= high
    assert high - low <= 2


def test_harmonic_enclosure_rejects_negative_indices():
    with pytest.raises(UsageError):
        moments.harmonic_enclosure(-1, 80)


def check_against_the_kernel(spec, N, ctx):
    """Past the crossover sum_fixed and the kernel agree within their two
    rounding bounds, and the CVZ bound is no larger than the kernel's."""
    res = sum_fixed(spec, N, ctx)
    value, rounding = kernel_sum(spec, N, ctx)
    with ctx.workprec():
        assert res.terms_used == N + 1
        assert res.truncation_bound == tail_bound(spec, N, ctx)
        assert abs(res.value - value) <= res.rounding_bound + rounding, (spec.describe(), N)
        assert res.rounding_bound <= rounding, (spec.describe(), N)


@pytest.mark.parametrize("digits", [10, 40, 200])
def test_partial_sum_past_the_crossover_matches_the_kernel(digits):
    ctx = make_context(digits)
    c = first_cvz_index(ctx)
    # one below the crossover, sum_fixed is the kernel itself
    below = sum_fixed(FamilySpec("C1", x=Fraction(1, 2)), c - 1, ctx)
    assert (below.value, below.rounding_bound) == kernel_sum(below.spec, c - 1, ctx)
    for family, x, N in itertools.product(
            ("C1", "C2"), (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 5), Fraction(1, 10)),
            (c, c + 1, 3 * c)):
        check_against_the_kernel(FamilySpec(family, x=x), N, ctx)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["C1", "C2"]), st.integers(1, 40), st.data(),
       st.sampled_from([10, 40]), st.integers(0, 1500))
def test_partial_sum_matches_the_kernel_on_a_sample(family, den, data, digits, offset):
    x = Fraction(data.draw(st.integers(-(den // 2), den // 2)), den)
    ctx = make_context(digits)
    check_against_the_kernel(FamilySpec(family, x=x), first_cvz_index(ctx) + offset, ctx)


def test_partial_sum_rounding_bound_holds_against_the_exact_sum():
    """Against the exact partial sum the CVZ bound holds alone, without the
    kernel's much larger bound beside it."""
    ctx = make_context(10)
    c = first_cvz_index(ctx)
    for family, x in itertools.product(("C1", "C2"), (Fraction(1, 2), Fraction(-2, 5))):
        spec = FamilySpec(family, x=x)
        total = sum(term_fraction(spec, n) for n in range(c))
        for N in (c, c + 1):
            total += term_fraction(spec, N)
            res = sum_fixed(spec, N, ctx)
            assert abs(exact(res.value) - total) <= exact(res.rounding_bound), (spec.describe(), N)


def test_partial_sum_at_ten_to_the_fifteen_terms():
    ctx = make_context(40)
    spec = FamilySpec("C1", x=Fraction(1, 2))
    start = time.perf_counter()
    res = sum_fixed(spec, 10**15, ctx)
    assert time.perf_counter() - start < 1
    assert res.terms_used == 10**15 + 1
    with ctx.workprec():
        assert abs(res.value - closed_value(spec, ctx)) <= res.error_bound()


def test_partial_sum_is_zero_at_zero():
    ctx = make_context(30)
    N = 3 * first_cvz_index(ctx)
    for family in ("C1", "C2"):
        res = sum_fixed(FamilySpec(family, x=Fraction(0)), N, ctx)
        assert res.value == 0 and res.rounding_bound == 0


def j1_orders(digits):
    """The orders the adaptive J1 plan takes at ``digits``: the rule's, and the
    highest, which it takes where the cap binds."""
    ctx = make_context(digits)
    with ctx.workprec():
        plan = engine._plan(FamilySpec("J1"), ctx, target=ctx.real(Fraction(1, 10 ** (digits + 2))))
    return plan, (plan.n, engine._J1_MAX_ORDER)


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_j1_tail_encloses_the_closed_form_less_the_partial_sum(digits):
    """From the smallest N0 each order holds at (2K + 9) to 10^5, the
    enclosure holds closed_value - S_N, both 20 digits deeper, and its upper
    end lies below tail_bound, the integral comparison."""
    spec, ctx, deep = FamilySpec("J1"), make_context(digits), make_context(digits + 20)
    plan, orders = j1_orders(digits)
    closed = closed_value(spec, deep)
    for order in orders:
        e = moments.j1_expansion(order)
        for N in sorted({e.first, e.first + 1, plan.last, 2000, 10**5}):
            with deep.workprec():
                want = exact(closed - sum_fixed(spec, N, deep).value)
            low, high = engine._ends(moments.j1_tail(N, e, engine._scale_bits(N, ctx) + 16))
            assert exact(low) <= want <= exact(high), (order, N)
            with ctx.workprec():
                assert high < tail_bound(spec, N, ctx), (order, N)


def test_j1_tail_is_tight_where_the_plan_stops():
    """At the plan's N0 the enclosure fits the target, and the midpoint
    misses the tail by more than 10^-4 of the half-width: the bound is not
    orders of magnitude above what it bounds."""
    spec, deep = FamilySpec("J1"), make_context(60)
    plan, _ = j1_orders(40)
    with deep.workprec():
        want = closed_value(spec, deep) - sum_fixed(spec, plan.last, deep).value
        low, high = plan.tail
        assert plan.trunc <= mpmath.mpf(10) ** -42
        assert abs(want - (low + high) / 2) > plan.trunc / 10**4


def test_j1_expansion_holds_from_its_first_index():
    e = moments.j1_expansion(3)
    assert (e.order, e.first) == (3, 15)
    assert moments.j1_highest_order(e.first) == 3
    assert moments.j1_highest_order(e.first - 1) == 2
    with pytest.raises(UsageError):
        moments.j1_tail(e.first - 1, e, 100)
    with pytest.raises(UsageError):
        moments.j1_expansion(0)
