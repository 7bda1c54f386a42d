"""Exact integer and rational building blocks.

Everything here is exact arithmetic: binomial coefficients, incremental
streams of the central binomial coefficients the series engine consumes,
Fibonacci/Lucas numbers at arbitrary (signed) index, and harmonic numbers
as Fractions.  No floating point enters this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

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


def central_binomial(n: int) -> int:
    """C(2n, n), advanced incrementally from C(0, 0) = 1.

    The loop applies C(2(k+1), k+1) = C(2k, k) * 2(2k+1)/(k+1), which is the
    same exact ratio the series streams use.
    """
    if n < 0:
        raise UsageError(f"central_binomial: n must be >= 0, got {n}")
    c = 1
    for k in range(n):
        c = c * (2 * (2 * k + 1)) // (k + 1)
    return c


def central_binomials(kind: str = "2n,n") -> Iterator[int]:
    """Yield an exact stream of central binomial coefficients from n = 0.

    Kinds:
      "2n,n"       C(2n, n)                 1, 2, 6, 20, 70, ...
      "4n,2n"      C(4n, 2n)                1, 6, 70, 924, ...
      "4n+2,2n+1"  C(4n+2, 2n+1)            2, 20, 252, ...
      "4n-2,2n-1"  C(4n-2, 2n-1), 0 at n=0  0, 2, 20, 252, ...

    Each kind advances by an integer recurrence (ratios of consecutive terms
    are rational with small factors), so term n costs O(1) bigint work.
    """
    if kind == "2n,n":
        c, n = 1, 0
        while True:
            yield c
            c = c * (2 * (2 * n + 1)) // (n + 1)
            n += 1
    elif kind == "4n,2n":
        c, n = 1, 0
        while True:
            yield c
            c = c * (4 * (4 * n + 1) * (4 * n + 3)) // ((2 * n + 1) * (2 * n + 2))
            n += 1
    elif kind == "4n+2,2n+1":
        c, n = 2, 0
        while True:
            yield c
            c = c * (4 * (4 * n + 3) * (4 * n + 5)) // ((2 * n + 2) * (2 * n + 3))
            n += 1
    elif kind == "4n-2,2n-1":
        # n = 0 term is out of range, hence 0; start the recurrence at n = 1.
        yield 0
        c, n = 2, 1
        while True:
            yield c
            c = c * (2 * (4 * n - 1) * (4 * n + 1)) // (n * (2 * n + 1))
            n += 1
    else:
        raise UsageError(f"central_binomials: unknown kind {kind!r}")


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
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


def harmonic_stream() -> Iterator[Fraction]:
    """Yield H_0, H_1, H_2, ... incrementally."""
    total = Fraction(0)
    k = 0
    while True:
        yield total
        k += 1
        total += Fraction(1, k)
