import math
from fractions import Fraction

from cbcseries.exact import binomial, fib_lucas, harmonic
from cbcseries.precision import UsageError, make_context

from mpmath import mp

from exact_streams import central_binomials, harmonic_stream


def test_binomial_matches_math_comb():
    for n in range(0, 200):
        for k in (0, 1, n // 3, n // 2, n - 1, n):
            if 0 <= k <= n:
                assert binomial(n, k) == math.comb(n, k)
    assert binomial(1000, 500) == math.comb(1000, 500)


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 7) == 0
    assert binomial(0, 0) == 1
    for n in (-1, -2):
        try:
            binomial(n, 0)
            assert False, "expected UsageError"
        except UsageError:
            pass


def _take(it, count):
    return [next(it) for _ in range(count)]


def test_stream_2n_n():
    got = _take(central_binomials(), 300)
    assert got == [math.comb(2 * n, n) for n in range(300)]


def test_fib_lucas_small():
    fs = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    ls = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    for n in range(11):
        assert fib_lucas(n) == (fs[n], ls[n])


def test_fib_lucas_iterative_crosscheck():
    a, b = 0, 1
    for n in range(400):
        f, ell = fib_lucas(n)
        assert f == a
        assert ell == 2 * b - a  # L_n = F_{n-1} + F_{n+1} = 2F_{n+1} - F_n
        a, b = b, a + b


def test_fib_lucas_negative():
    assert fib_lucas(-1) == (1, -1)
    assert fib_lucas(-2) == (-1, 3)
    assert fib_lucas(-5) == (5, -11)
    assert fib_lucas(-6) == (-8, 18)


def test_cassini_and_lucas_relation():
    for n in range(-500, 500):
        fm1, _ = fib_lucas(n - 1)
        fn, ln = fib_lucas(n)
        fp1, _ = fib_lucas(n + 1)
        assert fm1 * fp1 - fn * fn == (-1) ** n
        assert ln == fm1 + fp1


def test_binet_60_digits():
    ctx = make_context(60)
    with ctx.workprec():
        sqrt5 = mp.sqrt(5)
        alpha = (1 + sqrt5) / 2
        beta = (1 - sqrt5) / 2
        for n in range(-60, 61):
            f, ell = fib_lucas(n)
            assert abs((alpha**n - beta**n) / sqrt5 - f) < mp.mpf(10) ** -40
            assert abs(alpha**n + beta**n - ell) < mp.mpf(10) ** -40


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(5) == Fraction(137, 60)


def test_harmonic_stream_matches():
    stream = harmonic_stream()
    for n in range(200):
        assert next(stream) == harmonic(n)
