"""Certified partial sums of the C families without stepping every term.

The magnitudes a_n of C1 and C2 form a Hausdorff moment sequence on [0, 1]:
with k = 4n + b, a_n = kappa (16x^4)^n c_k/(k + 1), where

    c_k = C(k, k/2)/2^k = (1/pi) int_0^1 t^(k/2 - 1/2) (1 - t)^(-1/2) dt

and 1/(k + 1) = int_0^1 s^k ds are moments in n, and so are their product,
the point mass (16x^4)^n on [0, 1] and every shift n -> N + 1 + j.  So the
alternating sums S = sum_n (-1)^n a_n and T(N) = sum_{n>N} (-1)^n a_n both
yield to the acceleration of H. Cohen, F. Rodriguez Villegas and D. Zagier
("Convergence acceleration of alternating series", Exp. Math. 9, 2000):
n weighted terms give the sum to within a_first/T_n(3), T_n the Chebyshev
polynomial, and the partial sum is S_N = S - T(N).

Two services make that a proof:

* :func:`central_binomial_enclosure` encloses c_k at any even index from the
  Stirling series of ln Gamma, which envelops for real arguments (DLMF
  5.11(ii)): the remainder lies between 0 and the first omitted term.  T(N)
  needs it for a_{N+1}.
* :func:`_cvz` runs the weighted sum on integers scaled by 2^B, stepping
  a_j/a_first by the exact term ratio of the summation kernel, with every
  truncation counted.

:func:`partial_sum` assembles S_N; ``engine.sum_fixed`` takes it from
:func:`crossover` terms on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from mpmath import iv, mp

from cbcseries.precision import PrecisionContext, Real, UsageError

# log2(3 + sqrt8): T_n(3) >= (3 + sqrt8)^n / 2
_LOG2_CVZ_RATE = math.log2(3 + math.sqrt(8))


def cvz_terms(B: int) -> int:
    """The CVZ weights n whose Chebyshev denominator T_n(3) is at least 2^B."""
    return math.ceil((B + 2) / _LOG2_CVZ_RATE)


def crossover(B: int) -> int:
    """The least N at which :func:`partial_sum` is worth its cost at scale 2^B.

    A kernel step multiplies a B-bit integer by small ones, a CVZ step two
    B-bit integers, so their cost ratio grows with B once the interpreter's
    per-step overhead stops dominating.  Measured break-even N/n (CPython
    3.11, mpmath on its pure-Python backend): 7-9 at 40 digits (B = 240),
    12 at 1000 (B = 3400), 40 at 10^4 (B = 33,300); max(10, sqrt(B/16))
    gives 10, 15 and 46.
    """
    return math.ceil(max(10, math.sqrt(B / 16)) * cvz_terms(B))


@lru_cache(maxsize=4)
def _stirling_coefficients(size: int) -> Tuple[Fraction, ...]:
    """B_2j/(2j(2j - 1)) for j = 1..size, the coefficients of x^(1 - 2j) in
    the Stirling series, from the tangent numbers T_j by the O(size^2)
    integer recurrence of R. P. Brent and D. Harvey ("Fast computation of
    Bernoulli, tangent and secant numbers", 2013): B_2j = (-1)^(j-1) 2j
    T_j/(4^j (4^j - 1))."""
    t = [0, 1] + [0] * (size - 1)
    for k in range(2, size + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, size + 1):
        for j in range(k, size + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (j - 1) * t[j], (4**j - 1) * (2 * j - 1) << 2 * j)
                 for j in range(1, size + 1))


def _log2_stirling_term(j: int, x: int) -> float:
    """An upper bound on log2 |B_2j/(2j(2j - 1) x^(2j - 1))|, from |B_2j| =
    2 (2j)! zeta(2j)/(2 pi)^2j and zeta(2j) <= zeta(2) < 2."""
    return (2 + math.lgamma(2 * j + 1) / math.log(2) - 2 * j * math.log2(2 * math.pi)
            - math.log2(2 * j * (2 * j - 1)) - (2 * j - 1) * math.log2(x))


def _iv_fraction(q: Fraction):
    return iv.mpf(q.numerator) / q.denominator


def _ends(v) -> Tuple[Real, Real]:
    """The endpoints of an iv interval, as mpf."""
    return mp.make_mpf(v._mpi_[0]), mp.make_mpf(v._mpi_[1])


def _stirling_terms(x: int, bits: int) -> int:
    """J, the index of the first Stirling term at x below 2^-bits."""
    J = 1
    while _log2_stirling_term(J, x) >= -bits:
        J += 1
    return J


def _ln_gamma(x: int, bits: int, coefficients: Tuple[Fraction, ...]):
    """An iv enclosure of ln Gamma(x) for an integer x >= bits/2, within 2 2^-bits.

    The Stirling series stops before J, its first term below 2^-bits, which
    bounds the remainder; ``coefficients`` holds at least the J - 1 kept
    ones.  They sum by Horner's rule in 1/x^2 on integers scaled by 2^P,
    each of the 2J floors costing less than one unit.
    """
    J = _stirling_terms(x, bits)
    P = bits + (2 * J).bit_length()
    s = 0
    for c in reversed(coefficients[:J - 1]):
        s = (c.numerator << P) // c.denominator + s // (x * x)
    series = iv.ldexp(iv.mpf([s // x - 2 * J, s // x + 2 * J]), -P)
    remainder = iv.ldexp(iv.mpf([-1, 1]), -bits)
    return (x - iv.mpf(0.5)) * iv.log(x) - x + iv.log(2 * iv.pi) / 2 + series + remainder


def central_binomial_enclosure(k: int, bits: int):
    """An ``mpmath.iv`` interval containing C(k, k/2)/2^k, of relative width
    at most 2^-bits, for an even k >= 0.

    The smallest Stirling term at x is about e^(-2 pi x), so below k/2 =
    bits/2 the index moves up to K = 2 (bits // 2) by c_k = c_K prod
    (j + 2)/(j + 1) over j = k, k + 2, ..., K - 2.
    """
    if k < 0 or k % 2:
        raise UsageError(f"central_binomial_enclosure: k must be even and >= 0, got {k}")
    m = max(k // 2, bits // 2)
    saved = iv.prec
    try:
        iv.prec = bits + 2 * m.bit_length() + 16
        return (_stirling_enclosure(m, bits) * math.prod(range(k + 2, 2 * m + 1, 2))
                / math.prod(range(k + 1, 2 * m, 2)))
    finally:
        iv.prec = saved


@lru_cache(maxsize=4)
def _stirling_enclosure(m: int, bits: int):
    """c_2m = exp(ln Gamma(2m + 1) - 2 ln Gamma(m + 1) - 2m ln 2) for m >= bits/2,
    at the current ``iv.prec``; memoised, as every k/2 below bits/2 shares it."""
    g = bits + 8
    # the smaller argument needs the most terms
    coefficients = _stirling_coefficients(_stirling_terms(m + 1, g))
    return iv.exp(_ln_gamma(2 * m + 1, g, coefficients) - 2 * _ln_gamma(m + 1, g, coefficients)
                  - 2 * m * iv.log(2))


def _chebyshev_3(n: int) -> int:
    """T_n(3), by T_(j+1) = 6 T_j - T_(j-1)."""
    t0, t1 = 1, 3
    for _ in range(n):
        t0, t1 = t1, 6 * t1 - t0
    return t0


def _cubic(c: Tuple[int, int, int, int], m: int) -> int:
    return ((c[3] * m + c[2]) * m + c[1]) * m + c[0]


def _cvz(num, den, first: int, n: int, d: int, B: int) -> Tuple[int, int]:
    """sum_j c_j u_j and sum_j c_j v_j, j < n, for the CVZ weights c_j and u_j,
    v_j the floors of 2^B a_j/a_0 and 2^B a_(first+j)/a_first, stepped by
    a_(m+1)/a_m = num(m)/den(m) <= 1.

    With P(t) = T_n(1 - 2t) = sum_i beta_i t^i, c_j = (-1)^j sum_(i>j) |beta_i|
    and d = T_n(3) = sum |beta_i|.  For moments a_m of a positive measure on
    [0, 1], |sum_j (-1)^j a_j/a_0 - sum_j c_j a_j/(d a_0)| <= 1/d, and so from
    ``first``.  Each u_j lies within j units below its exact value (a ratio at
    most 1 carries earlier errors on undiminished) and |c_j| < d, so each
    scaled total errs by less than d n(n - 1)/2 units.
    """
    u = v = 1 << B
    b, c, head, tail = -1, -d, 0, 0
    for j in range(n):
        c = b - c
        head += c * u
        tail += c * v
        b = b * 2 * (j + n) * (j - n) // ((2 * j + 1) * (j + 1))
        u = u * _cubic(num, j) // _cubic(den, j)
        v = v * _cubic(num, first + j) // _cubic(den, first + j)
    return head, tail


def partial_sum(num, den, ratio, index: Tuple[int, int], N: int, B: int,
                ctx: PrecisionContext) -> Tuple[Real, Real]:
    """(value, rounding bound) of sum_(n<=N) (-1)^n a_n ``ratio.flip``, for
    a_(m+1)/a_m = num(m)/den(m) <= 1 and, with k = a m + b for ``index`` =
    (a, b), a_m = kappa z^m C(k, k/2)/(2^k (k + 1)) (kappa, z from ``ratio``).

    S_N = a_0 H + (-1)^N a_(N+1) T for the normalized alternating sums H
    from index 0 and T from N + 1.  The bound holds the two CVZ errors, the
    counted truncations, the width of the enclosure of a_(N+1) and the
    rounding of the value to the working precision.
    """
    n = cvz_terms(B)
    d = _chebyshev_3(n)
    (a, b), M = index, N + 1
    k = a * M + b
    units = n * (n - 1) // 2 + 1
    head_sum, tail_sum = _cvz(num, den, M, n, d, B)
    saved = iv.prec
    try:
        iv.prec = B + 32
        head = _iv_fraction(ratio.kappa * Fraction(math.comb(b, b // 2), (b + 1) << b))
        tail_head = (_iv_fraction(ratio.kappa) * _iv_fraction(ratio.z) ** M
                     * central_binomial_enclosure(k, B + 8) / (k + 1))
        scale = iv.ldexp(iv.mpf(d), B)
        slack = iv.ldexp(iv.mpf([-units, units]), -B)
        total = (head * (head_sum / scale + slack)
                 + (-1) ** N * tail_head * (tail_sum / scale + slack))
        low, high = _ends(total)
        with ctx.workprec():
            value = (low + high) / 2
        low, high = _ends(total - value)
    finally:
        iv.prec = saved
    with ctx.workprec():
        # the sign applies last and exactly, so x and -x give opposite values
        return ratio.flip * value, max(-low, high)
