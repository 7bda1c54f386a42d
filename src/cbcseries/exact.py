"""Exact integer and rational building blocks.

Everything here is exact arithmetic: binomial coefficients, Fibonacci/Lucas
numbers at arbitrary (signed) index, and harmonic numbers as Fractions.  No
floating point enters this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cbcseries.precision import UsageError


def binomial(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention C(n, k) = 0 for k < 0 or k > n.

    Negative n is rejected: the series in this package never need it, and a
    silent generalized-binomial answer would mask indexing bugs.
    """
    if n < 0:
        raise UsageError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def fib_lucas(k: int) -> tuple[int, int]:
    """(F_k, L_k) for any integer k, by fast doubling.

    Negative indices follow F_{-n} = (-1)^(n-1) F_n and L_{-n} = (-1)^n L_n.
    """
    if k < 0:
        f, ell = fib_lucas(-k)
        sign = -1 if (-k) % 2 == 0 else 1
        return sign * f, -sign * ell

    def doubling(m: int) -> tuple[int, int]:
        # returns (F_m, F_{m+1})
        if m == 0:
            return 0, 1
        a, b = doubling(m >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        if m & 1:
            return d, c + d
        return c, d

    f, f1 = doubling(k)
    return f, 2 * f1 - f


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact Fraction (H_0 = 0)."""
    if n < 0:
        raise UsageError(f"harmonic: n must be >= 0, got {n}")
    L = math.lcm(*range(1, n + 1))  # one common denominator, one reduction
    return Fraction(sum(L // k for k in range(1, n + 1)), L)
