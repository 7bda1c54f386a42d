from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from cbcseries.closedforms import closed_value
from cbcseries.engine import sum_adaptive, term_fraction
from cbcseries.families import FamilySpec, PhiValue, SurdValue
from cbcseries.precision import constants, make_context

CTX = make_context(30)
CTX40 = make_context(40)


@settings(deadline=None, max_examples=40)
@given(
    st.fractions(
        min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=60
    )
)
def test_f3_f4_product(x):
    with CTX.workprec():
        a = closed_value(FamilySpec("F3", x=x), CTX)
        b = closed_value(FamilySpec("F4", x=x), CTX)
        u = 1 + CTX.real(x) ** 2
        assert abs(a * b * u - 1) < mpf(10) ** -40


def test_t3_to_t6_match_f_at_tan_phi():
    """These four run in powers of tan(phi), and tan(pi/6) = sqrt(3)/3 is
    exactly representable, so the angle route and the x route must land on
    the same number."""
    x = SurdValue(Fraction(1, 3), Fraction(3))
    phi = PhiValue(Fraction(1, 6), True)
    with CTX40.workprec():
        tol = mpf(10) ** -50
        for tfam, ffam in (("T3", "F3"), ("T4", "F4"), ("T5", "F5"), ("T6", "F6")):
            tv = closed_value(FamilySpec(tfam, phi=phi), CTX40)
            fv = closed_value(FamilySpec(ffam, x=x), CTX40)
            assert abs(tv - fv) < tol, (tfam, ffam)


def test_t1_t2_closed_match_series():
    # negative phi routes through complex square roots; the series is the oracle
    cases = [
        ("T1", PhiValue(Fraction(1, 6), True)),
        ("T1", PhiValue(Fraction(-1, 5), True)),
        ("T2", PhiValue(Fraction(1, 8), True)),
        ("T2", PhiValue(Fraction(-1, 8), True)),
    ]
    for fam, phi in cases:
        spec = FamilySpec(fam, phi=phi)
        series = sum_adaptive(spec, mpf(10) ** -32, CTX)
        with CTX.workprec():
            assert abs(series.value - closed_value(spec, CTX)) < mpf(10) ** -30, fam


def test_t1_known_value_at_pi_sixth():
    with CTX.workprec():
        v = closed_value(FamilySpec("T1", phi=PhiValue(Fraction(1, 6), True)), CTX)
        want = mp.sqrt(2 * mp.sqrt(mpf(3))) * mp.atan(mp.sqrt(2 - mp.sqrt(mpf(3))))
        assert abs(v - want) < mpf(10) ** -40
        assert abs(v - mpf("0.889022")) < mpf("1e-6")


def test_h1_square_identity():
    with CTX.workprec():
        for x in (Fraction(1, 2), Fraction(-1, 2), Fraction(9, 10)):
            v = closed_value(FamilySpec("H1", x=x), CTX)
            u = 1 + CTX.real(x)
            assert abs(v**2 * u - (1 + mp.sqrt(u)) / 2) < mpf(10) ** -40


def test_h3_negative_x_recovers_real():
    """Every route is real: closed_value returns an mpf at a negative
    argument in every group, and H3 at x < 0 matches its series."""
    negative = [
        FamilySpec("F2", x=SurdValue(Fraction(-1, 2), Fraction(2))),
        FamilySpec("T1", phi=PhiValue(Fraction(-1, 5), True)),
        FamilySpec("C2", x=Fraction(-1, 2)),
        FamilySpec("G7", m=-3, s=-2, p=Fraction(18)),
        FamilySpec("H3", x=Fraction(-1, 2)),
    ]
    for spec in negative:
        assert isinstance(closed_value(spec, CTX), mpf), spec.describe()
    spec = negative[-1]
    v = closed_value(spec, CTX)
    series = sum_adaptive(spec, mpf(10) ** -32, CTX)
    with CTX.workprec():
        assert abs(series.value - v) < mpf(10) ** -30


def test_closed_matches_series_spot_checks():
    cases = [
        FamilySpec("F1", x=Fraction(1, 2)),
        FamilySpec("F5", x=Fraction(-3, 5)),
        FamilySpec("T5", phi=PhiValue(Fraction(1, 8), True)),
        FamilySpec("T6", phi=PhiValue(Fraction(-1, 5), True)),
        FamilySpec("C1", x=Fraction(2, 5)),
        FamilySpec("C2", x=Fraction(-2, 5)),
        FamilySpec("G9", m=1, s=1, p=Fraction(8)),
        FamilySpec("G12", m=2, s=0, p=Fraction(11)),
        FamilySpec("H4", x=Fraction(3, 4)),
        FamilySpec("I2", r=6),
        # one point on each negative-argument branch
        FamilySpec("G3", m=-1, s=-2, p=Fraction(8)),
        FamilySpec("G6", m=-3, s=-1, p=Fraction(18)),
        FamilySpec("G9", m=-1, s=-3, p=Fraction(7)),
        FamilySpec("H1", x=Fraction(-2, 3)),
        FamilySpec("H2", x=Fraction(-1, 2)),
        FamilySpec("H4", x=Fraction(-3, 4)),
        FamilySpec("F1", x=SurdValue(Fraction(-1, 2), Fraction(2))),
        FamilySpec("F2", x=SurdValue(Fraction(-1, 3), Fraction(3))),
        FamilySpec("I1", r=0),
    ]
    with CTX.workprec():
        for spec in cases:
            series = sum_adaptive(spec, mpf(10) ** -32, CTX)
            closed = closed_value(spec, CTX)
            assert abs(series.value - closed) < mpf(10) ** -30, spec.describe()


def test_g_closed_is_real_at_high_digits():
    # the beta branch at odd m, and negative m and s, included
    for fam, m, s, p in (("G1", 1, 0, 8), ("G6", 2, 1, 12), ("G11", 3, 0, 20),
                         ("G4", -1, -1, 7), ("G8", -3, -2, 18)):
        spec = FamilySpec(fam, m=m, s=s, p=Fraction(p))
        v = closed_value(spec, CTX40)
        assert isinstance(v, mpf), spec.describe()


def test_i1_values():
    with CTX40.workprec():
        tol = mpf(10) ** -38
        want = {
            2: mpf("3.361015442420516696171159752804707600259"),
            4: mpf("6.247468328456226006395035148608479285265"),
            6: mpf("14.05813511483161594433994625799172252600"),
            8: mpf("34.57835405017256877908864113697117010200"),
        }
        for r, ref in want.items():
            v = closed_value(FamilySpec("I1", r=r), CTX40)
            assert abs(v - ref) < tol, r
        # at large r, 1 - alpha^r/L_r ~ alpha^(-2r) must not cancel
        v = closed_value(FamilySpec("I1", r=200), CTX40)
        assert abs(v / mpf("443621976220726274925518316232782699714557.4912") - 1) < tol


def test_i2_i3_j1_values():
    with CTX.workprec():
        i2 = closed_value(FamilySpec("I2", r=2), CTX)
        assert abs(i2 - mpf("1.2533")) < mpf("1e-4")
        i3 = closed_value(FamilySpec("I3"), CTX)
        cs = constants(CTX)
        assert abs(i3 - mp.sqrt(cs.alpha * mp.sqrt(mpf(5)))) < mpf(10) ** -43
        assert abs(i3 - mpf("1.90211303")) < mpf("1e-8")
        j1 = closed_value(FamilySpec("J1"), CTX)
        assert abs(j1 - mpf("3.15073")) < mpf("1e-5")


def test_i1_series_agreement_small_r():
    # the corrected r = 2 branch against the raw series
    spec = FamilySpec("I1", r=2)
    series = sum_adaptive(spec, mpf(10) ** -32, CTX)
    with CTX.workprec():
        assert abs(series.value - closed_value(spec, CTX)) < mpf(10) ** -30


def test_c_closed_at_tiny_x_matches_the_exact_series():
    """C2's two shapes at 4x^2 cancel about 2 log2(1/|x|) bits; the value keeps
    every requested digit all the same."""
    for digits in (30, 60):
        ctx = make_context(digits)
        for fam, x in ((f, sign * Fraction(1, 10**e)) for f in ("C1", "C2")
                       for e in (20, 40) for sign in (1, -1)):
            spec = FamilySpec(fam, x=x)
            # the terms past n = 2 are below 10^-230 of the first
            exact = sum(term_fraction(spec, n) for n in range(3))
            v = closed_value(spec, ctx)
            with mp.workdps(digits + 40):
                want = mpf(exact.numerator) / exact.denominator
                assert abs(v - want) <= mpf(10) ** (1 - digits) * abs(want), (fam, x, digits)
