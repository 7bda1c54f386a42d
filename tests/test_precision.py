import random
from fractions import Fraction

import pytest
from mpmath import mp

from cbcseries.expressions import arccot, arctan, artanh, evaluate
from cbcseries.precision import UsageError, constants, make_context

CTX = make_context(30)


def test_context_validation():
    with pytest.raises(UsageError):
        make_context(0)
    with pytest.raises(UsageError):
        make_context(-3)
    assert make_context(25).working_digits == 40


def test_real_conversion_is_exact():
    ctx = make_context(40)
    with ctx.workprec():
        assert ctx.real("0.9") == mp.mpf(9) / 10
        assert ctx.real(Fraction(1, 3)) == mp.mpf(1) / 3
        assert ctx.real(7) == 7
    with pytest.raises(UsageError):
        ctx.real(object())


def test_to_str_deterministic():
    with CTX.workprec():
        a = CTX.to_str(mp.sqrt(2))
        b = CTX.to_str(mp.sqrt(2))
    assert a == b
    assert a.startswith("1.4142135623730950488")


def test_known_constants():
    cs = constants(make_context(35))
    pi_str = make_context(30).to_str(cs.pi)
    assert pi_str.startswith("3.1415926535897932384626433832")
    ctx = make_context(35)
    with ctx.workprec():
        tol = mp.mpf(10) ** -40
        assert abs(cs.alpha**2 - cs.alpha - 1) < tol
        assert abs(cs.alpha * cs.beta + 1) < tol
        assert abs(cs.delta**2 - 2 * cs.delta - 1) < tol
        assert abs(cs.sqrt5**2 - 5) < tol
        assert abs(cs.alpha + cs.beta - 1) < tol


def test_constants_are_formed_once_per_precision():
    """Every caller at one precision shares one frozen Constants, equal to a fresh one."""
    ctx = make_context(30)
    cs = constants(ctx)
    assert constants(make_context(30)) is cs
    fresh = constants.__wrapped__(ctx)
    assert fresh == cs and fresh is not cs
    with pytest.raises(AttributeError):
        cs.pi = 3
    assert constants(make_context(31)).pi != cs.pi


def test_artanh_against_higher_precision():
    """200 random points, low-precision result within 10 units of
    10^-(working_digits - 1) of a 3x context."""
    lo = make_context(30)
    hi = make_context(90)
    rng = random.Random(91)
    with hi.workprec():
        cap = 10 * mp.mpf(10) ** -(lo.working_digits - 1)
        for _ in range(200):
            num = rng.randint(-9800, 9800)
            expr = lambda c: artanh(mp.mpf(num) / 10000)
            coarse = evaluate(expr, lo)
            fine = evaluate(expr, hi)
            assert abs(coarse - fine) <= cap * max(1, abs(fine))


def test_arccot_complements_arctan():
    ctx = make_context(40)
    with ctx.workprec():
        tol = mp.mpf(10) ** -45
        for x in (Fraction(1, 4), Fraction(1), Fraction(35, 2)):
            s = evaluate(lambda c: arccot(ctx.real(x)) + arctan(ctx.real(x)), ctx)
            assert abs(s - mp.pi / 2) < tol
