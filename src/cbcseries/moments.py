"""Certified CVZ summation of alternating moment sequences.

Where a series alternates, its magnitudes are often a Hausdorff moment
sequence a_m = int_0^q t^m dmu for a positive mu: the central-binomial
factor c_k = C(k, k/2)/2^k = (1/pi) int_0^1 t^(k/2 - 1/2) (1 - t)^(-1/2) dt
and 1/(k + 1) = int_0^1 s^k ds are moments in the index, and so are their
products, a factor |z|^m (which moves the support to [0, |z|]) and every
shift m -> M + j.  The acceleration of H. Cohen, F. Rodriguez Villegas and
D. Zagier ("Convergence acceleration of alternating series", Exp. Math. 9,
2000), with P_n(t) = T_n(1 - 2t/q) for the Chebyshev polynomial T_n, then
sums sum (-1)^m a_m from n weighted terms to within a_0/T_n(1 + 2/q): 3 +
sqrt8 per weight at q = 1, 9.9 at q = 1/2.  Terms whose signs repeat with
period 4 (F1-F4, T1-T4) alternate in pairs a_2k +- a_2k+1 = int t^2k (1 +-
t) dmu, again moments, on [0, q^2].

* :func:`cvz` is the one summation loop: it steps the magnitudes on
  integers scaled by 2^B by the exact term ratio of the summation kernel,
  with the cubics stepped by exact forward differences
  (:func:`differences`), and weights them by :func:`weights`.
  ``engine.sum_adaptive`` sums the alternating families with it, n
  following from the target (:func:`weight_count`), and ``engine.sum_fixed``
  forms a C1/C2 partial sum in bound mode as S_N = S - T(N), two calls of
  the loop, where that is cheaper than the kernel.
* :func:`central_binomial_enclosure` encloses C(k, k/2)/2^k at any even
  index, the first term a_(N+1) of T(N), from one series in 1/m,
  ln(C(2m, m)/4^m sqrt(pi m)) (:func:`_central_stirling`), the Stirling
  series of ln(2m)! - 2 ln m!, which envelops for real arguments (DLMF
  5.11(ii)): each remainder lies between 0 and the first omitted term.
* :func:`harmonic_enclosure` encloses H_n from the enveloping series of the
  harmonic numbers, shifted down as the central binomial is;
  ``engine._run`` takes J1's H_(N+1) from it.
* :func:`j1_expansion` and :func:`j1_tail` enclose the tail of J1 after N
  from the same series at m = 2n, the enveloping series of H_n and
  Euler-Maclaurin sums, to an order K in 1/N; ``engine.sum_adaptive`` adds
  that enclosure to J1's partial sum.

Each of these sums its rational coefficients by :func:`_horner`, one loop
on integers scaled by 2^P.

The module holds only this mathematics; ``engine`` chooses when to run it.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple

from mpmath import iv, mp

from cbcseries.precision import UsageError


def iv_fraction(q: Fraction):
    """An ``mpmath.iv`` interval holding the Fraction q."""
    return iv.mpf(q.numerator) / q.denominator


@contextmanager
def iv_precision(bits: int) -> Iterator[None]:
    """Run the block at ``iv.prec = bits``, restoring the caller's precision after."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def _end(v, i: int) -> Fraction:
    """End i (0 lower, 1 upper) of an iv interval, as the Fraction it stands for."""
    sign, man, exp, _ = v._mpi_[i]
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


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


def _stirling_terms(x: int, bits: int) -> int:
    """J, the index of the first Stirling term at x below 2^-bits."""
    J = 1
    while _log2_stirling_term(J, x) >= -bits:
        J += 1
    return J


def _horner(coefficients: Sequence[Fraction], y: int, P: int) -> int:
    """sum_i c_i y^-i for an integer y >= 1, scaled by 2^P and below its exact
    value by less than 2 len(coefficients) units: by Horner's rule on
    integers, each of whose 2 floors per coefficient costs less than a unit."""
    acc = 0
    for c in reversed(coefficients):
        acc = (c.numerator << P) // c.denominator + acc // y
    return acc


@lru_cache(maxsize=8)
def _central_stirling(J: int) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """(e_1, ..., e_(J-1)) and eta with ln(c_2m sqrt(pi m)) = sum_(j<J) e_j
    m^(1-2j) + R and |R| <= eta m^(1-2J), for c_2m = C(2m, m)/4^m and m >= 1.

    ln(2m)! - 2 ln m! - 2m ln 2 by the Stirling series of ln z! gives e_j =
    b_j (2^(1-2j) - 2) for the Stirling coefficients b_j.  Each remainder
    R(z) lies between 0 and b_J z^(1-2J) (DLMF 5.11(ii)), and R(2m) and -2
    R(m) have opposite signs, so eta = 2 |b_J|.
    """
    b = _stirling_coefficients(J)
    return tuple(b[j - 1] * (Fraction(2, 4**j) - 2) for j in range(1, J)), 2 * abs(b[J - 1])


def central_binomial_enclosure(k: int, bits: int):
    """An ``mpmath.iv`` interval containing C(k, k/2)/2^k, of relative width
    at most 2^-bits, for an even k >= 0.

    The smallest Stirling term at m is about e^(-2 pi m), so below k/2 =
    bits/2 the index moves up to K = 2 (bits // 2) by c_k = c_K prod
    (j + 2)/(j + 1) over j = k, k + 2, ..., K - 2.
    """
    if k < 0 or k % 2:
        raise UsageError(f"central_binomial_enclosure: k must be even and >= 0, got {k}")
    m = max(k // 2, bits // 2, 1)
    with iv_precision(bits + 16):
        return (_central_enclosure(m, bits) * math.prod(range(k + 2, 2 * m + 1, 2))
                / math.prod(range(k + 1, 2 * m, 2)))


@lru_cache(maxsize=4)
def _central_enclosure(m: int, bits: int):
    """c_2m for m >= bits/2 from :func:`_central_stirling`, memoised, as every
    k/2 below bits/2 shares it; ``iv.prec`` is bits + 16, as the one caller
    sets it.  The series stops before J, where |b_J| m^(1-2J) < 2^-(g+1), so
    |R| < 2^-g; on integers scaled by 2^P it lies within 2J units above the
    floor s."""
    g = bits + 8
    J = _stirling_terms(m, g + 1)
    e = _central_stirling(J)[0]
    P = g + (2 * J).bit_length()
    s = _horner(e, m * m, P) // m
    series = iv.ldexp(iv.mpf([s, s + 2 * J]), -P) + iv.ldexp(iv.mpf([-1, 1]), -g)
    return iv.exp(series) / iv.sqrt(iv.pi * m)


def harmonic_enclosure(n: int, bits: int) -> Tuple[int, int]:
    """Integers lo <= H_n 2^bits <= hi with hi - lo <= 2, for n >= 0 and bits >= 1.

    H_m = ln m + gamma + 1/(2m) - sum_(k<P) B_2k/(2k m^2k) + R, where R lies
    between 0 and the first omitted term (DLMF 5.11(ii)), taken below
    2^-(bits+4) at m = max(n, bits), where a few terms get there; H_n = H_m
    less the exact 1/j for n < j <= m, as :func:`central_binomial_enclosure`
    shifts its index.  On integers scaled by 2^G, G = bits + g, the ends of
    ln m + gamma, rounded outward, lie within 2 units of each other, the
    1/(2m) and Horner terms within 2P of their exact sum, the m - n shifts
    within m - n below theirs and R within 2^(g-4), so 2^g > 2 (4P + m - n
    + 3) keeps the span under 2^g (1/2 + 1/8), and rounding outward to
    2^bits adds less than 2.
    """
    if n < 0 or bits < 1:
        raise UsageError(f"harmonic_enclosure: needs n >= 0 and bits >= 1, got {n}, {bits}")
    m = max(n, bits)
    P = 1  # the first omitted term, B_2P/(2P m^2P) = b_P (2P - 1)/m^2P
    while _log2_stirling_term(P, m) + math.log2((2 * P - 1) / m) >= -bits - 4:
        P += 1
    G = bits + (4 * P + m - n + 3).bit_length() + 1
    b = _stirling_coefficients(P - 1)  # B_2k/(2k) = b_k (2k - 1)
    acc = _horner([c * (2 * k - 1) for k, c in enumerate(b, start=1)], m * m, G)
    s = (1 << G) // (2 * m) - acc // (m * m) - sum((1 << G) // j for j in range(n + 1, m + 1))
    with iv_precision(G + m.bit_length().bit_length() + 8):
        log = iv.ldexp(iv.log(m) + iv.euler, G)
    slack = 2 * P + (1 << G - bits - 4)
    lo = math.floor(_end(log, 0)) + s - (m - n) - slack
    hi = math.ceil(_end(log, 1)) + s + slack
    return lo >> G - bits, -(-hi >> G - bits)


def chebyshev(n: int, q: Fraction) -> int:
    """d = qn^n T_n(1 + 2/q) for q = qn/qd, the integer denominator of the CVZ
    weights on [0, q], by U_(j+1) = 2 (qn + 2 qd) U_j - qn^2 U_(j-1) for
    U_j = qn^j T_j(1 + 2/q)."""
    qn, qd = q.numerator, q.denominator
    x, qq = 2 * (qn + 2 * qd), qn * qn
    t0, t1 = 1, qn + 2 * qd
    for _ in range(n):
        t0, t1 = t1, x * t1 - qq * t0
    return t0


def grid_support(q) -> Fraction:
    """q' >= q on the grid 1/16, for 0 <= q <= 1 a Fraction or, with 2^-20 to
    spare for its rounding, an mpf."""
    if isinstance(q, Fraction):
        return Fraction(max(1, -(-16 * q.numerator // q.denominator)), 16)
    return Fraction(min(16, max(1, int(mp.ceil(q * 16 + mp.ldexp(1, -20))))), 16)


def weight_count(bits: float, q: Fraction) -> int:
    """The least n with 2/rho^n <= 2^-bits, rho = x + sqrt(x^2 - 1) at x = 1 +
    2/q, so that qn^n/d = 1/T_n(x) <= 2^-bits, as T_n(x) >= rho^n/2."""
    x = 1 + 2 * q.denominator / q.numerator
    return max(1, math.ceil((bits + 1) / math.log2(x + math.sqrt(x * x - 1))))


def differences(c: Tuple[int, int, int, int], n: int) -> Tuple[int, int, int, int]:
    """p(n) and the forward differences of p at n, for the cubic p with
    coefficients c (constant first): p(n+1) - p(n), 2 c2 + 6 c3 (n + 1), 6 c3."""
    c0, c1, c2, c3 = c
    return (((c3 * n + c2) * n + c1) * n + c0, c1 + c2 * (2 * n + 1) + c3 * (3 * n * (n + 1) + 1),
            2 * c2 + 6 * c3 * (n + 1), 6 * c3)


def _weights(n: int, q: Fraction, d: int) -> Iterator[int]:
    """The CVZ weights c_0, ..., c_(n-1) on [0, q], for d = ``chebyshev(n, q)``.

    With q = qn/qd and qn^n T_n(1 - 2t/q) = sum_i beta_i t^i, c_j = (-1)^j
    sum_(i>j) |beta_i| and d = sum |beta_i|; b steps through -|beta_0|,
    |beta_1|, -|beta_2|, ... by the exact ratio of consecutive coefficients.
    """
    qn, qd = q.numerator, q.denominator
    b, c = -qn**n, -d
    for j in range(n):
        c = b - c
        yield c
        b = b * (2 * (j + n) * (j - n) * qd) // ((2 * j + 1) * (j + 1) * qn)


@lru_cache(maxsize=8)
def _weight_table(n: int, q: Fraction) -> Tuple[int, Tuple[int, ...]]:
    d = chebyshev(n, q)
    return d, tuple(_weights(n, q, d))


def weights(n: int, q: Fraction) -> Tuple[int, Iterable[int]]:
    """(d, c_0..c_(n-1)), memoised up to n = 128 (about 100 digits), where a
    table takes at most about 15 kB; past that each weight reaches B bits, so
    they stream, and each call gives a fresh stream."""
    if n <= 128:
        return _weight_table(n, q)
    d = chebyshev(n, q)
    return d, _weights(n, q, d)


def cvz(num, den, u: int, first: int, weights: Iterable[int], pair: int = 0) -> int:
    """sum_j c_j A_j over the CVZ ``weights`` c_j on [0, q] of :func:`weights`.

    The magnitudes start at u = a_first and step by a_(m+1) = a_m num(m)//den(m),
    the cubics stepped by exact forward differences.  A_j is a_(first+j) for
    ``pair`` 0, else the pair a_(first+2j) + pair a_(first+2j+1).

    |c_j| < d, and if A_j = int t^j dmu for a positive mu on [0, q], then
    sum_j (-1)^j A_j = int dmu/(1 + t) and |that - sum_j c_j A_j/d| <=
    qn^n A_0/d.  A floored a_m that lies within e units below its exact
    value, with a ratio at most 1, steps to one within e + 1, so whatever the
    caller counts per a_m, the weighted total errs by less than d times that
    count summed over the A_j.
    """
    r, r1, r2, r3 = differences(num, first)
    s, s1, s2, s3 = differences(den, first)
    total = 0
    for c in weights:
        if pair:
            v = u
            u = u * r // s
            r, r1, r2 = r + r1, r1 + r2, r2 + r3
            s, s1, s2 = s + s1, s1 + s2, s2 + s3
            total += c * (v + u if pair > 0 else v - u)
        else:
            total += c * u
        u = u * r // s
        r, r1, r2 = r + r1, r1 + r2, r2 + r3
        s, s1, s2 = s + s1, s1 + s2, s2 + s3
    return total


# ---------------------------------------------------------------------------
# the tail of J1

# gamma = 0.5772156649... lies below this
_EULER_ABOVE = Fraction(57722, 100000)


class J1Expansion(NamedTuple):
    """The tail T(N) = sum_(n>N) c_4n H_(n+1)/(n+1) of J1 to ``order`` K in 1/N.

    For every N >= ``first``, sqrt(2 pi N) T(N) lies within N^-(K+1) sum_j
    N^-j (rlog_j ln N + rplain_j) of sum_i N^-i (log_i ln N + plain_i +
    euler_i gamma); every coefficient is an exact rational.
    """

    order: int
    first: int
    log: Tuple[Fraction, ...]
    plain: Tuple[Fraction, ...]
    euler: Tuple[Fraction, ...]
    rlog: Tuple[Fraction, ...]
    rplain: Tuple[Fraction, ...]


def _cauchy_radius(E: Sequence[Fraction], K: int, u0: Fraction) -> Fraction:
    """r > u0 near the least of e^Ehat(r)/r^(K+1), Ehat the polynomial with
    coefficients |E_i|: where r Ehat'(r) = K + 1, found by bisection in ln r."""
    lo, hi = math.log(2 * u0), math.log(16 * (K + 1))  # |E_1| = 1/16
    ie = [(i, i * float(abs(e))) for i, e in enumerate(E) if e]
    for _ in range(30):
        t = (lo + hi) / 2
        if sum(c * math.exp(i * t) for i, c in ie) < K + 1:
            lo = t
        else:
            hi = t
    return Fraction(math.exp(lo))


def j1_highest_order(N: int) -> int:
    """The highest order K whose expansion holds at N, N >= 2K + 9."""
    return (N - 9) // 2


@lru_cache(maxsize=4)
def j1_expansion(K: int) -> J1Expansion:
    """The order-K expansion of J1's tail, for K >= 1, valid from N = 2K + 9.

    With u = 1/n <= u0 = 1/(2K + 10) for n > N, t_n sqrt(2 pi) n^(3/2) =
    A(u) (ln n + gamma + h(u)), A = G/(1 + u):

    * ln G = ln(c_4n sqrt(2 pi n)) is :func:`_central_stirling`'s series at
      m = 2n: sum_(j<J) E_(2j-1) u^(2j-1) + eps with E_(2j-1) = 2^(1-2j) e_j,
      and |eps| <= eta 2^(1-2J) u^(2J-1), 2J - 1 >= K + 1.
    * G to order K is exp of that polynomial E to order K.  exp(E) is
      entire, so by Cauchy's estimate on |u| = r its coefficients past K sum
      to at most e^Ehat(r) (u/r)^(K+1)/(1 - u0/r), Ehat with the |E_i|; and
      |e^eps - 1| <= |eps| e^|eps|.  A = G/(1 + u) to order K has a_m = g_m
      - a_(m-1), and |A - A_K| <= alpha u^(K+1), alpha = |a_K| + the two.
    * h(u) = u/2 + u/(1 + u) - sum_(k<P) B_2k/(2k) u^2k + R_H, the
      enveloping series of H_n plus 1/(n + 1), |R_H| <= |B_2P/(2P)| u^2P
      (DLMF 5.11(ii)), 2P >= K + 1.  So t_n sqrt(2 pi) n^(3/2) = sum_(m<=K)
      u^m (a_m ln n + gamma a_m + w_m) + rho, w = A_K h_K to order K, with
      |rho| <= u^(K+1) (alpha ln n + beta) from the bounds of the pieces on
      (0, u0].
    * Summed over n > N: n^-s and n^-s ln n, s = m + 3/2, by Euler-Maclaurin
      from N (DLMF 2.10.1) less the term at N, to order K + 2 in 1/N.  The
      remainder is at most twice the first omitted term, because the
      (2p)-th derivative keeps one sign on [N, inf): for n^-s ln n that
      needs ln N >= sum_(i<2p) 1/(s + i) <= ln((s + 2p - 1)/(s - 1)), which
      N >= 2K + 9 gives.  The sum of the bound on |rho| n^(-3/2) is at most
      its integral from N, as it decreases.
    """
    if K < 1:
        raise UsageError(f"j1_expansion: the order must be >= 1, got {K}")
    P, J, first = K // 2 + 1, (K + 3) // 2, 2 * K + 9
    u0 = Fraction(1, first + 1)
    b = _stirling_coefficients(K // 2 + 2)
    e, eta = _central_stirling(J)
    eta /= 2 ** (2 * J - 1)
    E = [Fraction(0)] * (K + 1)
    for j, ej in enumerate(e, start=1):
        E[2 * j - 1] = ej / 2 ** (2 * j - 1)
    g = [Fraction(1)]
    for m in range(1, K + 1):
        g.append(sum(i * E[i] * g[m - i] for i in range(1, m + 1, 2)) / m)
    a = list(itertools.accumulate(g, lambda prev, gm: gm - prev))
    # B_2k/(2k) = b_k (2k - 1)
    h = [Fraction(0), Fraction(3, 2)] + [
        (-1) ** (i + 1) - (b[i // 2 - 1] * (i - 1) if i % 2 == 0 else 0) for i in range(2, K + 1)]
    w = [sum(a[i] * h[m - i] for i in range(m + 1)) for m in range(K + 1)]

    def majorant(c, x):  # sum |c_i| x^i
        return sum(abs(ci) * x ** i for i, ci in enumerate(c))

    r = _cauchy_radius(E, K, u0)
    dh = 1 + abs(b[P - 1]) * (2 * P - 1) * u0 ** (2 * P - K - 1)
    with iv_precision(64):
        cauchy = iv.exp(iv_fraction(majorant(E, r))) / iv_fraction(r ** (K + 1) * (1 - u0 / r))
        eps = (iv.exp(iv_fraction(majorant(E, u0) + eta * u0 ** (2 * J - 1)))
               * iv_fraction(eta * u0 ** (2 * J - 2 - K)))
        alpha = iv_fraction(abs(a[K])) + cauchy + eps
        hmax = majorant(h, u0) + dh * u0 ** (K + 1)
        # sum over i + j > K of |a_i h_j| u0^(i+j-K-1), from the suffix sums of |h_j| u0^j
        hs = list(itertools.accumulate(abs(h[j]) * u0 ** j for j in range(K, -1, -1)))[::-1]
        high = sum(abs(a[i]) * u0 ** i * hs[K + 1 - i] for i in range(1, K + 1)) / u0 ** (K + 1)
        beta = _end(alpha * iv_fraction(_EULER_ABOVE + hmax)
                    + iv_fraction(majorant(a, u0) * dh + high), 1)
        alpha = _end(alpha, 1)
    size = K + 5
    log, plain, euler, rlog, rplain = ([Fraction(0)] * size for _ in range(5))
    for m in range(K + 1):
        s, am, wm = m + Fraction(3, 2), a[m], w[m]
        # the integrals from N, then - f(N)/2
        log[m] += am / (s - 1)
        plain[m] += am / (s - 1) ** 2 + wm / (s - 1)
        euler[m] += am / (s - 1)
        log[m + 1] -= am / 2
        plain[m + 1] -= wm / 2
        euler[m + 1] -= am / 2
        # B_2k/(2k)! (s)_(2k-1) N^-(s+2k-1) (ln N - the s-derivative of ln (s)_(2k-1))
        p = (K + 4 - m) // 2
        rising, slope = s, Fraction(1)  # (s)_(2k-1) and its derivative in s
        for k in range(1, p + 1):
            for j in (2 * k - 3, 2 * k - 2) if k > 1 else ():
                slope, rising = slope * (s + j) + rising, rising * (s + j)
            c = b[k - 1] / math.factorial(2 * k - 2)
            if k < p:
                log[m + 2 * k] += am * c * rising
                plain[m + 2 * k] += c * (wm * rising - am * slope)
                euler[m + 2 * k] += am * c * rising
            else:
                rlog[m + 2 * k] += 2 * abs(am * c) * rising
                rplain[m + 2 * k] += 2 * abs(c) * rising * (_EULER_ABOVE * abs(am) + abs(wm))
    rlog[K + 1] += alpha / (K + Fraction(3, 2))
    rplain[K + 1] += alpha / (K + Fraction(3, 2)) ** 2 + beta / (K + Fraction(3, 2))
    return J1Expansion(K, first, tuple(log[:K + 3]), tuple(plain[:K + 3]), tuple(euler[:K + 3]),
                       tuple(rlog[K + 1:]), tuple(rplain[K + 1:]))


def j1_tail(N: int, e: J1Expansion, bits: int):
    """An ``mpmath.iv`` interval containing T(N) for N >= ``e.first``, from
    the expansion ``e`` evaluated at iv precision ``bits``."""
    if N < e.first:
        raise UsageError(
            f"j1_tail: the order-{e.order} expansion holds from N = {e.first}, got {N}")

    def poly(c):  # sum_i c_i N^-i
        h = _horner(c, N, bits)
        return iv.ldexp(iv.mpf([h, h + 2 * len(c)]), -bits)

    with iv_precision(bits):
        ln = iv.log(N)
        value = ln * poly(e.log) + poly(e.plain) + iv.euler * poly(e.euler)
        radius = (ln * poly(e.rlog) + poly(e.rplain)) / iv.mpf(N) ** (e.order + 1)
        return (value + iv.mpf([-radius.b, radius.b])) / iv.sqrt(2 * iv.pi * N)


def j1_log2_radius(e: J1Expansion, N: float) -> float:
    """log2 of the radius of :func:`j1_tail` at a real N >= ``e.first``, in floats."""
    ln = math.log(N)
    poly = sum(N ** -j * (float(rl) * ln + float(rp))
               for j, (rl, rp) in enumerate(zip(e.rlog, e.rplain)))
    return math.log2(poly) - (e.order + 1.5) * math.log2(N) - math.log2(2 * math.pi) / 2
