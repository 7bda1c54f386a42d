"""Certified CVZ summation of the alternating families (engine.sum_adaptive)."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import cbcseries.cli as cli
import cbcseries.engine as engine
from cbcseries import moments
from cbcseries.closedforms import closed_value
from cbcseries.engine import ConvergenceError, UncertifiedError, sum_adaptive
from cbcseries.families import FamilySpec, PhiValue, SurdValue
from cbcseries.precision import make_context

QUARTER_PI = PhiValue(Fraction(1, 4), True)
BOUNDARY = (
    [FamilySpec(f, x=Fraction(s)) for f in ("F1", "F2", "F3", "F4") for s in (1, -1)]
    + [FamilySpec(f, phi=PhiValue(Fraction(s, 4), True)) for f in ("T1", "T2", "T3", "T4")
       for s in (1, -1)]
    + [FamilySpec(f, x=Fraction(s, 2)) for f in ("C1", "C2") for s in (1, -1)]
)


def certified(spec, digits):
    """sum_adaptive at 10^-(digits + 2), checked against closed_value at
    digits + 20: closed_value carries no bound of its own, so the reference
    runs deeper than the sum."""
    res = sum_adaptive(spec, Fraction(1, 10 ** (digits + 2)), make_context(digits))
    assert res.converged, spec.describe()
    reference = closed_value(spec, make_context(digits + 20))
    with mp.workdps(digits + 40):
        assert abs(res.value - reference) <= res.error_bound(), (spec.describe(), digits)
        assert res.error_bound() <= mpf(10) ** -(digits + 2)
        assert res.error_bound() >= mp.fadd(res.truncation_bound, res.rounding_bound, exact=True)
    return res


@pytest.mark.parametrize("digits", [40, 100])
@pytest.mark.parametrize("spec", BOUNDARY, ids=lambda spec: spec.describe())
def test_boundary_points_certify(spec, digits):
    res = certified(spec, digits)
    # about 2.54 bits a weight at q' = 1, in pairs for F and T
    weights = res.terms_used // (1 if spec.family[0] == "C" else 2)
    assert weights <= math.ceil((digits + 3) * math.log2(10) / math.log2(3 + math.sqrt(8))) + 1


@pytest.mark.parametrize("spec", [FamilySpec("F3", x=Fraction(-1)),
                                  FamilySpec("T1", phi=QUARTER_PI),
                                  FamilySpec("C2", x=Fraction(1, 2)),
                                  FamilySpec("H2", x=Fraction(-99, 100))],
                         ids=lambda spec: spec.describe())
def test_cvz_at_1000_digits(spec):
    certified(spec, 1000)


def test_term_counts_near_and_on_the_boundary():
    """The tail model steps 9,534 terms for H2 at x = -99/100 and 903 for F3
    at x = -9/10 at 40 digits."""
    assert certified(FamilySpec("H2", x=Fraction(-99, 100)), 40).terms_used <= 60
    assert certified(FamilySpec("F3", x=Fraction(-9, 10)), 40).terms_used <= 110
    assert certified(FamilySpec("F3", x=Fraction(1)), 40).terms_used == 112


def test_cvz_runs_no_stop_index_search(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "tail_bound", lambda *args: calls.append(args))
    for spec in (FamilySpec("C1", x=Fraction(-1, 2)), FamilySpec("F3", x=Fraction(-9, 10))):
        certified(spec, 40)
    assert calls == []


@pytest.mark.parametrize("spec", [FamilySpec("F5", x=Fraction(1)),
                                  FamilySpec("F6", x=Fraction(-1)),
                                  FamilySpec("T5", phi=QUARTER_PI),
                                  FamilySpec("T6", phi=PhiValue(Fraction(-1, 4), True))],
                         ids=lambda spec: spec.describe())
def test_divergent_boundary_refusal_says_so(spec, capsys):
    with pytest.raises(UncertifiedError, match=r"terms grow like sqrt\(n\) .* diverges"):
        sum_adaptive(spec, Fraction(1, 10**22), make_context(20))
    value = f"--x={spec.x}" if spec.x is not None else f"--phi={spec.phi}"
    assert cli.main(["eval", "--family", spec.family, value]) == 3
    assert "the series diverges" in capsys.readouterr().err


def test_the_cap_counts_the_terms_cvz_steps():
    """On the boundary a cap below CVZ's terms refuses; inside the domain the
    kernel takes over, here with the one term that a target of 1 needs."""
    spec, ctx = FamilySpec("F3", x=Fraction(1)), make_context(40)
    with pytest.raises(ConvergenceError, match="CVZ on \\[0, 1\\] needs 112 terms, past the "
                                               "cap of 100 terms") as info:
        sum_adaptive(spec, Fraction(1, 10**42), ctx, max_terms=100)
    assert info.value.partial.terms_used == 100
    assert info.value.partial.truncation_bound == mpf("inf")
    assert sum_adaptive(spec, Fraction(1, 10**42), ctx, max_terms=112).terms_used == 112
    inside = FamilySpec("F3", x=Fraction(1, 2))
    assert sum_adaptive(inside, Fraction(1), ctx, max_terms=1).terms_used == 1


def exact_weights(n, q):
    """c_j and d of qn^n T_n(1 - 2t/q) from Fraction polynomial arithmetic."""
    y = [Fraction(1), -2 / q]  # 1 - 2t/q
    t0, t1 = [Fraction(1)], y
    for _ in range(n - 1):
        prod = [Fraction(0)] * (len(t1) + 1)
        for i, c in enumerate(t1):
            prod[i] += 2 * c * y[0]
            prod[i + 1] += 2 * c * y[1]
        t0, t1 = t1, [a - (t0[i] if i < len(t0) else 0) for i, a in enumerate(prod)]
    beta = [c * q.numerator**n for c in (t1 if n else t0)]
    assert all(c.denominator == 1 for c in beta)
    mags = [abs(int(c)) for c in beta]
    return [(-1) ** j * sum(mags[j + 1:]) for j in range(n)], sum(mags)


@pytest.mark.parametrize("q", [Fraction(1), Fraction(13, 16), Fraction(1, 4), Fraction(3, 16)])
@pytest.mark.parametrize("pair", [0, 1, -1])
def test_the_loop_matches_exact_weights_and_its_error_bound(q, pair):
    """a_m = 2^(B - m) (ratio 1/2, exact on integers) is the moment sequence of
    the point mass at 1/2; for q >= 1/4 its pairs, at 1/4, are too."""
    B = 64
    for n in (1, 2, 5, 9):
        weights, d = exact_weights(n, q)
        assert moments.chebyshev(n, q) == d
        total = moments.cvz((1, 0, 0, 0), (2, 0, 0, 0), 1 << B, 0, moments.weights(n, q)[1], pair)
        a = [Fraction(1 << B, 2**m) for m in range(2 * n)]
        mags = a[:n] if pair == 0 else [a[2 * j] + pair * a[2 * j + 1] for j in range(n)]
        assert total == sum(c * m for c, m in zip(weights, mags))
        support = Fraction(1, 2) if pair == 0 else Fraction(1, 4)
        if support <= q:
            exact = mags[0] / (1 + support)  # sum (-1)^j A_j for A_j = A_0 support^j
            assert abs(exact - Fraction(total, d)) <= mags[0] * Fraction(q.numerator**n, d)


ALTERNATE_FOR_POSITIVE_X = {"H1", "H3"}


@st.composite
def alternating_specs(draw):
    """C1/C2, H1-H4, F1-F4 and T1-T4 on their domains: the boundary, tiny
    magnitudes and points between.  Where H's terms do not alternate (H1/H3
    at x < 0, H2/H4 at x > 0) they are positive and the kernel steps about
    d log 10/|log x| terms, so there |x| stays at most 9/10."""
    family = draw(st.sampled_from(["C1", "C2", "H1", "H2", "H3", "H4", "F1", "F2", "F3", "F4",
                                   "T1", "T2", "T3", "T4"]))
    sign = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["edge", "tiny", "between"]))
    den = draw(st.integers(2, 1000))
    top = {"C": Fraction(1, 2), "H": Fraction(9, 10)}.get(family[0], Fraction(1))
    if kind == "tiny":
        magnitude = Fraction(1, 10 ** draw(st.integers(3, 60)))
    elif kind == "between":
        magnitude = Fraction(draw(st.integers(1, math.floor(top * den))), den)
    elif family[0] == "H":
        alternating = (sign > 0) == (family in ALTERNATE_FOR_POSITIVE_X)
        magnitude = 1 - Fraction(1, 10 ** draw(st.integers(1, 12))) if alternating else top
    else:
        magnitude = Fraction(1) if family[0] in "FT" else top
    if family[0] == "T":
        if kind == "edge":
            return FamilySpec(family, phi=PhiValue(sign * Fraction(1, 4), True))
        # phi = magnitude * pi/4, or a rational angle of at most 0.785
        return FamilySpec(family, phi=draw(st.sampled_from([
            PhiValue(sign * magnitude / 4, True),
            PhiValue(sign * magnitude * Fraction(785, 1000))])))
    if family in ("F1", "F2") and kind == "between" and den > 2 and draw(st.booleans()):
        # a surd x = c sqrt(d) with x^2 = d c^2 <= 1
        d = draw(st.sampled_from([2, 3, 5]))
        c = Fraction(draw(st.integers(1, math.isqrt(den * den // d))), den)
        return FamilySpec(family, x=SurdValue(sign * c, Fraction(d)))
    return FamilySpec(family, x=sign * magnitude)


@settings(max_examples=80, deadline=None)
@given(alternating_specs(), st.sampled_from([10, 40, 100]))
@example(FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(2))), 40)
@example(FamilySpec("F2", x=SurdValue(Fraction(-1, 3), Fraction(3))), 100)
@example(FamilySpec("F1", x=SurdValue(Fraction(1, 4), Fraction(5))), 10)
@example(FamilySpec("T3", phi=PhiValue(Fraction(1, 7), True)), 40)
def test_every_alternating_family_certifies_within_its_bound(spec, digits):
    certified(spec, digits)


def test_cvz_refusal_below_the_rounding_floor_keeps_its_partial():
    """A target below what the working precision can carry refuses after
    summing, naming both bounds, and keeps the uncertified sum."""
    with pytest.raises(ConvergenceError, match=r"CVZ with 105 weights on \[0, 1\] leaves "
                                               r"truncation 8\.2820162e-81 and rounding") as info:
        sum_adaptive(FamilySpec("F3", x=Fraction(1)), Fraction(1, 10**80), make_context(20))
    assert info.value.partial.terms_used == 210
    assert not info.value.partial.converged
