"""Exact incremental streams that the tests' reference computations read.

The package's identity checks are proofs that read no prefix of C(2n, n) and
no harmonic number, so these streams live beside the references that use
them.  The reference sweeps read them through this module at call time, so a
monkeypatch of either stream reaches them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator


def central_binomials() -> Iterator[int]:
    """Yield the exact stream C(2n, n) = 1, 2, 6, 20, 70, ... from n = 0.

    Each step applies C(2n+2, n+1) = C(2n, n) * 2(2n+1)/(n+1), so term n costs
    O(1) bigint work; C(4n, 2n) is every second element.
    """
    c, n = 1, 0
    while True:
        yield c
        c = c * (2 * (2 * n + 1)) // (n + 1)
        n += 1


def harmonic_stream() -> Iterator[Fraction]:
    """Yield H_0, H_1, H_2, ... incrementally."""
    total = Fraction(0)
    k = 0
    while True:
        yield total
        k += 1
        total += Fraction(1, k)
