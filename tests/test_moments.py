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


def test_stirling_coefficients_are_the_bernoulli_ratios():
    for j, c in enumerate(moments._stirling_coefficients(64), start=1):
        assert c == Fraction(*mpmath.bernfrac(2 * j)) / (2 * j * (2 * j - 1))


def test_central_binomial_enclosure_rejects_odd_and_negative_indices():
    for k in (-2, 3):
        with pytest.raises(UsageError):
            moments.central_binomial_enclosure(k, 40)


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
