"""Term generation and certified summation for every series family.

Every family is one row of :data:`cbcseries.families.FAMILIES` (sign
pattern, weight, central-binomial index) plus the parameter part of its
terms at a point, :func:`_ratio`.  The tail bound, its ratio q and the
summation kernel read those two descriptions; only :func:`term_fraction`,
the exact oracle, spells each family out.

Each sum runs one of four paths, which :func:`_plan` chooses before any
term is stepped, by one measured cost rule; it also raises every refusal
known before summing.  :func:`_sum` runs the plan.  Each result carries two
proven error components:

* ``truncation_bound``: the one tail formula of :func:`tail_bound` (an
  integral comparison for J1) evaluated at the last summed index.
* ``rounding_bound``: the exact distance from the value to the farther end
  of two integers that bracket the sum at scale 2^B, from the counted
  truncations of the one summation driver, which runs every family on
  integers scaled by 2^B (see :class:`_Kernel`).  Where it is cheaper,
  :func:`sum_fixed` forms a C partial sum as S - T(N) by certified CVZ
  instead of stepping every term; its bracket then holds the CVZ errors,
  their counted truncations and the width of the enclosure of the first
  omitted term.

:func:`sum_adaptive` sums up to the least N whose ``tail_bound`` fits the
target, found before summing: read off ``tail_bound``'s formula in floats and
certified by two ``tail_bound`` calls, at N and N - 1 (see
:func:`_stop_index`).  Where the terms alternate, directly or in pairs, and
their magnitudes are a moment sequence (C, H, F1-F4, T1-T4), it sums by
certified CVZ instead wherever that is cheaper, and on the domain boundary,
where no tail model exists; ``truncation_bound`` is then the CVZ error.
J1 it sums to a stop index N0 and adds a certified enclosure of the tail
after N0 (:func:`moments.j1_tail`); ``truncation_bound`` is then the
enclosure's half-width.  ``term`` and ``term_fraction`` compute single
summands directly and are the independent checks of the driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from mpmath import iv, mp, mpf

from cbcseries import moments
from cbcseries.exact import binomial, fib_lucas, harmonic
from cbcseries.families import (
    FAMILIES, Family, FamilySpec, PhiValue, SurdValue, phi_real, sign, x_real)
from cbcseries.precision import PrecisionContext, Real, UsageError

DEFAULT_MAX_TERMS = 10_000_000
# multiplicative safety pad on the tail bound, so that it stays an upper bound
# despite its own few-ulp evaluation error
_BOUND_PAD = "1.00000001"
# the stop-index search reports "more than 2^64" past this index
_SEARCH_LIMIT = 2**64


def _figure(x: Real, digits: int = 8) -> str:
    """x to ``digits`` digits for a message, from its rounding to 64 bits:
    mpmath's pure-Python backend turns the whole mantissa into a decimal
    string, which Python refuses past 4,300 digits."""
    with mp.workprec(64):
        return mp.nstr(mpf(x), digits)


class UncertifiedError(Exception):
    """No proven tail bound exists at the requested parameter point."""

    def __init__(self, spec: FamilySpec, reason: str):
        self.spec = spec
        self.reason = reason
        super().__init__(f"{spec.describe()}: {reason}")


class ConvergenceError(Exception):
    """Adaptive summation cannot certify the target within its limits.

    Raised when the predicted stop index lies past the term cap (before
    summing; also where the ratio majorant rounds to 1 at the working
    precision), or when the rounding bound there keeps the total above the
    target.  ``partial``, the uncertified sum up to index ``last`` (the cap
    or the predicted index), is computed when first read.
    """

    def __init__(self, spec: FamilySpec, target, reason: str, ctx: PrecisionContext,
                 last: int, partial: Optional["EvalResult"] = None):
        self.spec = spec
        self.target = target
        self.last = last
        self._ctx = ctx
        self._partial = partial
        super().__init__(
            f"{spec.describe()}: cannot certify target {_figure(target)}: {reason}"
        )

    @property
    def partial(self) -> "EvalResult":
        if self._partial is None:
            self._partial = sum_fixed(self.spec, self.last, self._ctx)
        return self._partial


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a summation: value plus certified error components."""

    spec: FamilySpec
    value: Real
    terms_used: int
    truncation_bound: Real
    rounding_bound: Real
    converged: bool
    digits: int

    def error_bound(self) -> Real:
        return mp.fadd(self.truncation_bound, self.rounding_bound, rounding="u")


def _rational_x(spec: FamilySpec) -> Fraction:
    x = spec.x
    if isinstance(x, SurdValue):
        r = x.as_rational()
        if r is None:
            raise UsageError(
                f"{spec.family}: surd x is only representable for F1/F2 "
                "(other families need x^n rational for every n)"
            )
        return r
    return x


# ---------------------------------------------------------------------------
# the n-th summand, computed directly from exact ingredients


def term(spec: FamilySpec, n: int, ctx: PrecisionContext) -> Real:
    """The n-th summand of the family, evaluated in ctx, with no recurrence.

    Rational terms are :func:`term_fraction` rounded once; T and F1/F2 at an
    irrational surd x take C(2n,n)/4^n y^n and the weight at working
    precision, with y = tan(phi), or y = x^2 and one more factor x.
    """
    if n < 0:
        raise UsageError(f"term: n must be >= 0, got {n}")
    row, x = FAMILIES[spec.family], spec.x
    surd = isinstance(x, SurdValue) and x.as_rational() is None and row.weight == "recip"
    if spec.phi is None and not surd:
        return ctx.real(term_fraction(spec, n))
    with ctx.workprec():
        if surd:
            y, kappa = ctx.real(x.squared()), x_real(x, ctx)
        else:
            y, kappa = mp.tan(phi_real(spec.phi, ctx)), 1
        w = n if row.weight == "linear" else 1
        d = 2 * n + 1 if row.weight == "recip" else 1
        return sign(row.sign, n) * w * binomial(2 * n, n) * kappa * y**n / (d * mpf(4) ** n)


def term_fraction(spec: FamilySpec, n: int) -> Fraction:
    """The exact n-th summand as a Fraction, for the rational families.

    T families (and F1/F2 at genuinely irrational surd x) have no rational
    terms and raise a usage error.
    """
    if n < 0:
        raise UsageError(f"term_fraction: n must be >= 0, got {n}")
    fam, row = spec.family, FAMILIES[spec.family]
    if row.group == "T":
        raise UsageError("term_fraction: T-family terms are not rational")
    if n < row.first:
        return Fraction(0)
    s = sign(row.sign, n)
    w = n if row.weight == "linear" else 1
    if fam in ("F1", "F2"):
        rat = (spec.x if isinstance(spec.x, SurdValue) else SurdValue(spec.x)).as_rational()
        if rat is None:
            raise UsageError("term_fraction: surd x gives irrational terms")
        return s * binomial(2 * n, n) * rat ** (2 * n + 1) / Fraction((2 * n + 1) * 4**n)
    if row.group == "F":
        return s * w * binomial(2 * n, n) * _rational_x(spec) ** n / Fraction(4**n)
    if fam == "C1":
        return s * binomial(4 * n, 2 * n) * spec.x ** (4 * n + 1) / Fraction(4 * n + 1)
    if fam == "C2":
        return s * binomial(4 * n + 2, 2 * n + 1) * spec.x ** (4 * n + 3) / Fraction(4 * n + 3)
    if row.group == "G":
        f, ell = fib_lucas(spec.m * n + spec.s)
        sv = f if row.seq == "F" else ell
        den = (2 * n + 1) if row.weight == "recip" else 1
        return Fraction(s * w * binomial(2 * n, n) * sv) / (spec.p**n * den)
    if fam in ("H1", "H2"):
        return s * binomial(4 * n, 2 * n) * spec.x**n / Fraction(16**n)
    if fam in ("H3", "H4"):
        return s * binomial(4 * n - 2, 2 * n - 1) * spec.x**n / Fraction(2 ** (4 * n - 2))
    if fam == "I1":
        _, lrn = fib_lucas(spec.r * n)
        _, lr = fib_lucas(spec.r)
        return Fraction(binomial(4 * n, 2 * n) * lrn, 16**n * lr**n)
    if fam == "I2":
        _, lr = fib_lucas(spec.r)
        return Fraction(binomial(4 * n, 2 * n), 4**n * lr ** (2 * n))
    if fam == "I3":
        return Fraction(binomial(4 * n, 2 * n), 20**n)
    return binomial(4 * n, 2 * n) * harmonic(n + 1) / Fraction(16**n * (n + 1))


# ---------------------------------------------------------------------------
# the term ratio and certified tail bounds


class _Ratio(NamedTuple):
    """The parameter part of a family's terms at one point.

    With k = a n + b and w the weight of the catalog row, |t_n| =
    kappa sqrt(radicand) w(n) C(k, k/2)/2^k |z|^n, of sign sign(n) sgn(z)^n
    ``flip``; G and I1 carry one more factor, ``out`` . (F, L)(stride n)
    (for G, 2 V(stride n + shift)).  ``z`` is None for T at an irrational
    tan(phi).
    """

    z: Optional[Fraction]
    kappa: Fraction = Fraction(1)
    flip: int = 1
    radicand: Fraction = Fraction(1)
    stride: Optional[int] = None
    shift: int = 0
    out: Tuple[int, int] = (0, 1)


# 64 entries hold every spec of a registry pass (48 _ratio and 42 _constants
# keys at 30 digits); the largest, a G entry at |s| = 10^6, holds about 170 kB
# of F/L integers, so about 11 MB in all at worst
@lru_cache(maxsize=64)
def _ratio(spec: FamilySpec) -> _Ratio:
    """The ``_Ratio`` of ``spec``, memoised because G's F_s, L_s can be large."""
    row, x = FAMILIES[spec.family], spec.x
    if row.group == "F" and row.weight == "recip":
        # x^(2n+1) = sign(c) |c| sqrt(d) (c^2 d)^n for x = c sqrt(d)
        x = x if isinstance(x, SurdValue) else SurdValue(x)
        return _Ratio(x.squared(), abs(x.coeff), -1 if x.coeff < 0 else 1, x.radicand)
    if row.group in ("F", "H"):
        return _Ratio(_rational_x(spec))
    if row.group == "C":  # 2^k x^(k+1) = (16 x^4)^n 2^b x^(b+1), with b even
        b = row.index[1]
        return _Ratio(16 * x**4, 2**b * abs(x) ** (b + 1), -1 if x < 0 else 1)
    if row.group == "T":
        return _Ratio(spec.phi.exact_tan())
    if row.group == "G":
        # the state holds (F, L)(mn)/2: 2 V(mn + s) = F(mn) L_s + L(mn) F_s for
        # V = F, and L(mn) L_s + 5 F(mn) F_s for V = L
        fs, ls = fib_lucas(spec.s)
        return _Ratio(4 / spec.p, Fraction(1, 2), stride=spec.m, shift=spec.s,
                      out=(ls, fs) if row.seq == "F" else (5 * fs, ls))
    if spec.r is None:  # I3, J1
        return _Ratio(Fraction(4, 5) if row.group == "I" else Fraction(1))
    lr = fib_lucas(spec.r)[1]
    if row.seq == "L":  # I1: L(rn)/L_r^n
        return _Ratio(Fraction(1, lr), stride=spec.r)
    return _Ratio(Fraction(4, lr * lr))


@lru_cache(maxsize=64)  # sized as _ratio's memo
def _constants(spec: FamilySpec, ctx: PrecisionContext) -> Tuple[Real, Real, Real]:
    """(q, c, pad) of ``spec`` at ``ctx``'s working precision, formed once
    per (spec, ctx), as every ``tail_bound`` call and the stop-index model read them.

    q is the term-ratio majorant, valid for every index: the factors a n + b
    of the term ratio (see :func:`_kernel`) pair up with equal leading
    coefficients, so q = |z| (|tan phi| where z is None), times the F/L
    step's larger eigenvalue alpha^|stride|.  c, the terms' constant factor,
    is kappa sqrt(radicand), or for G and I1 the F/L bound 2 alpha^|shift|
    (over sqrt5 for F).  pad is ``_BOUND_PAD``.
    """
    row, r = FAMILIES[spec.family], _ratio(spec)
    with ctx.workprec():
        sqrt5 = mp.sqrt(mpf(5))

        def alpha_pow(k: int) -> Real:  # (L_k + sqrt5 F_k)/2
            f, ell = fib_lucas(k)
            return (ctx.real(ell) + sqrt5 * ctx.real(f)) / 2

        if r.stride is None:
            q = abs(mp.tan(phi_real(spec.phi, ctx))) if r.z is None else ctx.real(abs(r.z))
            c = ctx.real(r.kappa) * mp.sqrt(ctx.real(r.radicand))
        else:
            q = alpha_pow(abs(r.stride)) / ctx.real(1 / abs(r.z))
            c = 2 * alpha_pow(abs(r.shift)) / (sqrt5 if row.seq == "F" else 1)
        return q, c, mpf(_BOUND_PAD)


def tail_bound(spec: FamilySpec, N: int, ctx: PrecisionContext) -> Real:
    """Proven upper bound on |sum over n > N| of the family's terms.

    With M = N + 1 and k = a M + b, every family but J1 (an integral
    comparison) gets pad c q^M cb(k)/d(M) shape(q, M), with pad, c and q
    from :func:`_constants`; cb(k) = 1/sqrt(pi k/2) >= C(k, k/2)/2^k, which
    decreases in k, so cb(k) bounds that factor in every tail term; d(M) =
    k + 1 for the 1/(k+1) weight, else 1; shape = 1/(1 - q), (M(1 - q) +
    q)/(1 - q)^2 for the n weight, or 1 for C: its terms alternate and
    strictly decrease on the whole domain, even at |x| = 1/2, where q = 1.
    Raises :class:`UncertifiedError` where q otherwise reaches 1 (|x| = 1,
    |phi| = pi/4, p = 4*alpha^|m|).
    """
    if N < 0:
        raise UsageError(f"tail_bound: N must be >= 0, got {N}")
    row = FAMILIES[spec.family]
    with ctx.workprec():
        q, c, pad = _constants(spec, ctx)
        if row.weight == "harmonic":  # at N = 0: |t_1| = 9/32, then the bound from 1
            return pad * (_j1_integral_bound(N) if N else mpf(9) / 32 + _j1_integral_bound(1))
        alternating = row.group == "C"
        if not (alternating or q < 1):
            raise UncertifiedError(spec, "term-ratio majorant reaches 1; no certified tail bound")
        M = N + 1
        k = row.index[0] * M + row.index[1]
        bound = pad * q**M * c / mp.sqrt(mp.pi * (k // 2))
        if row.weight == "recip":
            bound /= k + 1
        if alternating:
            return bound
        if row.weight == "linear":
            bound *= (M * (1 - q) + q) / (1 - q)
        return bound / (1 - q)


def _j1_integral_bound(N: int) -> Real:
    """Integral comparison: sum_{n>N} t_n <= (1/sqrt(2 pi)) * 2 (ln N + 4)/sqrt(N).

    Uses t_n <= (1 + H-bound)/(n+1) * 1/sqrt(2 pi n) <= (ln t + 2)/(sqrt(2 pi) t^{3/2})
    at t = n, which is decreasing, then compares with the integral from N.
    """
    return 2 * (mp.log(N) + 4) / mp.sqrt(2 * mp.pi * N)


# ---------------------------------------------------------------------------
# the scaled-integer summation kernel


class _Kernel(NamedTuple):
    """One family at one parameter point, as the summation driver runs it.

    The state holds term magnitudes scaled by 2^B.  From index ``first`` on,
    term n is the state (negated when ``neg[n % 4]``), and the state steps by
    the rational ratio R(n) = num(n)/den(n), cubic polynomials given by their
    coefficients, constant first, which :func:`_run` steps from n to n + 1 by
    exact forward differences.  Two shapes carry a second component:

    * ``step = (F_m, L_m)``: the state is a pair (f, l), scaled F and L
      numbers, and each step also applies (F_k, L_k) -> (F_{k+m}, L_{k+m})
      with the divisor 2 inside den.  The scaled total is out . (S_F, S_L).
    * the "harmonic" weight (J1, terms a_n H_{n+1}): by Abel summation the
      total is H_{N+1} A_N - sum_{n<N} A_n/(n+2) over the partial sums A_n
      of a_n, so a step adds one division by the small n+2, and H_{N+1}
      comes once, from :func:`moments.harmonic_enclosure`.

    Every step truncates below one unit and multiplies earlier errors by at
    most 1 in modulus (for ``step``, on the eigenvectors (1, +-sqrt5) of the
    F/L map, where a unit becomes at most 1 + sqrt5), except that the
    "linear" weight folds (n+1)/n into the ratio.  So the scaled total errs
    by at most ``units`` x steps x spread (:func:`_kernel_error`), where
    spread is the number of steps, or N (1 + log2 N) >= n H_n for the linear
    weight; J1's Abel total has a count of its own there.  The value is the
    scaled total times the spec's sqrt(radicand) times 2^-B; ``root`` = r,
    with r <= sqrt(radicand) 2^B < r + 1, carries that factor as the
    tan(phi) of T is carried (None for radicand 1).
    """

    first: int
    head: Tuple[int, ...]
    num: Tuple[int, int, int, int]
    den: Tuple[int, int, int, int]
    neg: Tuple[bool, bool, bool, bool]
    step: Optional[Tuple[int, int]]
    out: Tuple[int, int]
    weight: str
    units: int
    root: Optional[int]


def _poly(c: int, *factors: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """Coefficients, constant first, of c * prod(a*n + b) over (a, b) factors."""
    p = [c]
    for a, b in factors:
        p = [b * p[0]] + [b * p[i] + a * p[i - 1] for i in range(1, len(p))] + [a * p[-1]]
    return tuple(p + [0] * (4 - len(p)))


def _tan_fixed(phi: PhiValue, bits: int) -> Fraction:
    """tan(phi) rounded toward 0 to a multiple of 2^-bits, within 2 units (32 guard bits)."""
    with mp.workprec(bits + 32):
        v = mpf(phi.coeff.numerator) / phi.coeff.denominator
        if phi.times_pi:
            v *= mp.pi
        t = int(mp.floor(mp.ldexp(abs(mp.tan(v)), bits)))
    return Fraction(-t if phi.coeff < 0 else t, 1 << bits)


def _head(row: Family, r: _Ratio, z: Fraction) -> Tuple[int, int]:
    """(hn, hd) with |t_first| = hn/hd = kappa |z|^first C(k, k/2)/2^k w(first),
    for G and I1 without their F/L factor and for F1/F2 without sqrt(radicand)."""
    first = row.first
    k = row.index[0] * first + row.index[1]
    wd = {"recip": k + 1, "harmonic": first + 1}.get(row.weight, 1)  # 1/w(first)
    hn, hd = r.kappa.numerator * math.comb(k, k // 2), r.kappa.denominator * wd << k
    return (hn * abs(z.numerator) ** first, hd * z.denominator ** first) if first else (hn, hd)


def _signs(row: Family, r: _Ratio, negative: bool) -> Tuple[bool, bool, bool, bool]:
    """Whether t_n is negative, for n mod 4, when z (tan phi for T) is ``negative``."""
    flip = r.flip < 0
    return tuple((sign(row.sign, n) < 0) ^ flip ^ (negative and n % 2 == 1) for n in range(4))


def _kernel(spec: FamilySpec, N: int, B: int) -> _Kernel:
    """The summation descriptor of ``spec`` for indices up to N at scale 2^B."""
    row, r = FAMILIES[spec.family], _ratio(spec)
    a, b = row.index
    z, units = r.z, 1
    if z is None:
        # tan(phi) carries N.bit_length() + 2 bits more than the state, so its
        # error adds at most 1 unit per step over N weighted steps
        extra = B + N.bit_length() + 2
        z, units = _tan_fixed(spec.phi, extra), 2
    # R(n) = t_(n+1)/t_n in small factors a n + b (few machine digits a step):
    # C(k, k/2)/2^k steps by (k+1)/(k+2) per 2 in k; the weight adds (k+1)/(k+a+1),
    # or turns the last k + 2 = a (n+1) (b = 0) into a n for the n weight and into
    # a (n+2) for J1's 1/(n+1).  The F/L step below doubles.
    num = [(a, b + j) for j in range(1, a, 2)]
    den = [(a, b + j + 1) for j in range(1, a, 2)]
    if row.weight == "recip":
        num, den = num + [(a, b + 1)], den + [(a, b + a + 1)]
    elif row.weight != "plain":
        den[-1] = (a, b + (0 if row.weight == "linear" else 2 * a))
    zk = z / 2 if r.stride is not None else z
    num, den = _poly(abs(zk.numerator), *num), _poly(zk.denominator, *den)
    g = math.gcd(*num, *den)
    num, den = tuple(c // g for c in num), tuple(c // g for c in den)
    hn, hd = _head(row, r, z)
    if r.stride is None:
        step, head = None, ((hn << B) // hd,)
    else:
        step = fib_lucas(r.stride)
        head = tuple((v * hn << B) // hd for v in fib_lucas(r.stride * row.first))
        units = 2 * abs(r.out[0]) + 4 * abs(r.out[1])
    d = r.radicand
    root = None if d == 1 else math.isqrt((d.numerator << 2 * B) // d.denominator)
    return _Kernel(row.first, head, num, den, _signs(row, r, z < 0), step, r.out, row.weight,
                   units, root)


def _run(k: _Kernel, N: int) -> int:
    """The scaled total of the terms first..N.

    num(n) and den(n) step by exact forward differences (r, r1, r2 = r + r1,
    r1 + r2, r2 + r3), so each step multiplies and divides by the same
    integers as evaluating the two cubics at n would.
    """
    r, r1, r2, r3 = moments.differences(k.num, k.first)
    s, s1, s2, s3 = moments.differences(k.den, k.first)
    neg = k.neg
    if k.weight == "harmonic":  # J1: first = 0, so m = n + 2; num and den are quadratics
        a = k.head[0]  # a_0 = 1, so 2^B exactly
        B = a.bit_length() - 1
        partial = lower = 0
        for m in range(2, N + 2):
            partial += a
            lower += partial // m
            a = a * r // s
            r, r1 = r + r1, r1 + r2
            s, s1 = s + s1, s1 + s2
        # H_{N+1} 2^B within one unit: the enclosure at 2^(B+2) spans at most 2 of its units
        h = moments.harmonic_enclosure(N + 1, B + 2)[1] >> 2
        return (h * (partial + a) >> B) - lower
    if k.step is None:
        (u,) = k.head
        total = 0
        for n in range(k.first, N + 1):
            if neg[n & 3]:
                total -= u
            else:
                total += u
            u = u * r // s
            r, r1, r2 = r + r1, r1 + r2, r2 + r3
            s, s1, s2 = s + s1, s1 + s2, s2 + s3
        return total
    fm, lm = k.step
    f5 = 5 * fm
    f, l = k.head
    sf = sl = 0
    for n in range(k.first, N + 1):
        if neg[n & 3]:
            sf -= f
            sl -= l
        else:
            sf += f
            sl += l
        f, l = (f * lm + l * fm) * r // s, (l * lm + f * f5) * r // s
        r, r1, r2 = r + r1, r1 + r2, r2 + r3
        s, s1, s2 = s + s1, s1 + s2, s2 + s3
    return k.out[0] * sf + k.out[1] * sl


def _scale_bits(N: int, ctx: PrecisionContext) -> int:
    """B, the scale 2^B of a sum over indices up to N."""
    return math.ceil(ctx.working_digits * 3.3219280948873626) + 2 * (N + 1).bit_length() + 16


def _kernel_error(k: _Kernel, N: int) -> int:
    """The count of units within which ``_run(k, N)`` is exact."""
    if k.weight == "harmonic":
        # J1: a_n lies within n units below its exact value and A_n within
        # n(n+1)/2, so ``lower`` lies less than sum_(n<N) (n/2 + 1) below its
        # own.  h lies within one unit of H_{N+1} 2^B and A_N < 1.85 2^B (a_0
        # = 1, and a_n <= 1/((n + 1) sqrt(2 pi n)), as C(4n, 2n)/16^n <=
        # 1/sqrt(2 pi n), sum to less than 0.85 from n = 1), so h A_N 2^-B
        # lies within H_{N+1} N(N+1)/2 + 1.85 of its own, and H_n <=
        # n.bit_length(); the final floor adds less than 1
        return (N + 1).bit_length() * N * (N + 1) // 2 + 3
    steps = max(0, N - k.first + 1)
    # a truncation at step j reaches term n multiplied by at most 1, or by
    # n/j for the linear weight: sum_j n/j <= N (1 + log2 N)
    spread = N * (1 + N.bit_length()) if k.weight == "linear" else steps
    return k.units * steps * spread


# ---------------------------------------------------------------------------
# the summation plan


def _log2(x: Real) -> float:
    """log2 of a positive mpf of any size, to about 1e-16 near x = 1."""
    man, exp = x.man_exp
    man = int(man)
    bits = man.bit_length()
    return math.log2(man / (1 << bits)) + (exp + bits)


@lru_cache(maxsize=64)  # sized as _ratio's memo
def _log2_tail(spec: FamilySpec, ctx: PrecisionContext):
    """(log2 q, f) with f(N) log2 :func:`tail_bound` at a real N >= 0, in floats.

    f is the formula that tail_bound evaluates, as log2 pad + log2 c +
    M log2 q - log2(pi k/2)/2 - log2 d(M) + log2 shape(q, M), with its pieces
    taken from :func:`_constants` through :func:`_log2`.  log2 q and
    log2(1 - q) come from the mpf 1 - q, so that a q within 10^-16 of 1
    keeps its distance.  None where tail_bound refuses or uses another
    formula (q not below 1 off C, J1 among them).
    """
    row = FAMILIES[spec.family]
    q, c, pad = _constants(spec, ctx)
    if not (q and c):
        return -math.inf, lambda N: -math.inf
    alternating = row.group == "C"
    if not (alternating or q < 1):
        return None
    with ctx.workprec():
        d = 1 - q
    lq = math.log1p(-float(d)) / math.log(2) if d < 0.5 else _log2(q)
    a, b = row.index
    base = _log2(pad) + _log2(c)
    if not alternating:
        base -= _log2(d) * (2 if row.weight == "linear" else 1)
    df, qf = float(d), float(q)

    def f(N: float) -> float:
        M = N + 1
        k = a * M + b
        v = base + M * lq - math.log2(math.pi * k / 2) / 2
        if row.weight == "recip":
            v -= math.log2(k + 1)
        elif row.weight == "linear":
            v += math.log2(M * df + qf)
        return v

    return lq, f


def _least_index(f, target: float, first: int, last: int, slope: float, log: bool) -> int:
    """The least N in [first, last] with f(N) <= target, or ``last`` where
    f(last) > target, for a float model f that falls by about ``slope`` a
    unit of t, with t = N, or t = log2(N + 1) for a power law (``log``).

    Constant-slope steps t <- t + (f(N) - target)/slope from t at ``first``,
    clamped to [first, last], stop once one moves N by less than half an
    index, or after 8; one +-1 check settles N.  Near ``first`` the slowly
    changing terms of f can make it fall more than twice as fast as
    ``slope``; where a step crosses the root and lands no nearer to it in f,
    the slope becomes that of f across the step.
    """
    def index(t: float) -> float:
        return 2.0**t - 1 if log else t

    lo, hi = (math.log2(first + 1), math.log2(last + 1)) if log else (first, last)
    t, n, t0, g0 = lo, float(first), lo, 0.0
    for _ in range(8):
        g = f(n) - target
        if g * g0 < 0 and abs(g) >= abs(g0):
            slope = (g0 - g) / (t - t0)
        t, t0, g0 = min(max(t + g / slope, lo), hi), t, g
        n, prev = index(t), n
        if abs(n - prev) < 0.5:
            break
    N = min(max(math.ceil(n), first), last)
    if f(N) > target:
        N = min(N + 1, last)
    elif N > first and f(N - 1) <= target:
        N -= 1
    return N


def _model_index(spec: FamilySpec, budget: Real, ctx: PrecisionContext) -> int:
    """The least N >= ``Family.first`` where the float model of
    :func:`_log2_tail` fits log2 ``budget``; ``_SEARCH_LIMIT`` where it does
    not fit there, and ``Family.first`` where there is no model or no tail.

    Where q < 1 the model falls by -log2 q an index plus terms that change
    slowly; the power law of C at |x| = 1/2 falls by 3/2 a unit of log2 M.
    :func:`_least_index` solves either.
    """
    first = FAMILIES[spec.family].first
    model = _log2_tail(spec, ctx)
    if model is None or model[0] == -math.inf:
        return first
    lq, f = model
    return _least_index(f, _log2(budget), first, _SEARCH_LIMIT, -lq if lq < 0 else 1.5, lq >= 0)


def _stop_index(spec: FamilySpec, budget: Real, ctx: PrecisionContext):
    """(N, tail_bound(N)) for the least N >= ``Family.first`` with tail_bound(N) <= budget.

    N is read off the float model of :func:`_model_index` and certified in
    mpf: tail_bound(N) <= budget < tail_bound(N - 1), or N = ``Family.first``,
    makes N the least such index because the bound falls as N grows.  So a
    search takes two ``tail_bound`` calls, one where N = ``Family.first``, and
    one at ``_SEARCH_LIMIT`` where the model puts N past it.  Where the
    certificate fails, the search takes one secant step in mpf through its
    two calls, which lie one index apart, then gallops away from there and
    bisects.  Over 10,092 searches (the adaptive registry rows at 10, 30,
    40, 100 and 1000 digits and three targets, the four bench workloads at
    seeds 1-3 and 9,000 random points of every family but J1 at 10-1000
    digits) it made 1.996 calls on average; the 9 that made more (4 each)
    have q within 10^-17 of 1 and N near 10^19, which a float cannot
    resolve to 1.  There the secant lands on N: log2 of the bound falls by
    log2 q a step plus the share of its slow factors, which the two calls
    measure too (at x = 1 - 10^-17 that share is 0.5% of log2 q for H2).
    Returns (None, None) when tail_bound(_SEARCH_LIMIT) exceeds the budget.
    """
    lo, hi, bound = FAMILIES[spec.family].first - 1, None, None
    n, step, calls = _model_index(spec, budget, ctx), 1, []
    while True:
        b = tail_bound(spec, n, ctx)
        calls.append((n, b))
        if b <= budget:
            hi, bound = n, b
        elif n >= _SEARCH_LIMIT:
            return None, None
        else:
            lo = n
        if hi == lo + 1:
            return hi, bound
        if len(calls) == 2:
            (n1, b1), (n2, b2) = calls
            slope = mp.log(b2 / b1) / (n2 - n1) if b1 and b2 else 0
            if slope < 0:
                n = int(mp.ceil(n2 - mp.log(b2 / budget) / slope))
                n, step = min(max(n, lo + 1), _SEARCH_LIMIT if hi is None else hi - 1), 1
                continue
        # gallop away from the model's index, bisecting once the steps pass mid-bracket
        if hi is None:
            n = min(lo + step, _SEARCH_LIMIT)
        elif b <= budget:
            n = max(hi - step, (lo + hi) // 2)
        else:
            n = min(lo + step, (lo + hi) // 2)
        step *= 2


def _alternation(spec: FamilySpec) -> Optional[int]:
    """How the terms of ``spec`` alternate, when their magnitudes are a moment
    sequence: 0 term by term, 1 or -1 (the sign of t_(2k+1)/t_(2k)) in pairs
    t_(2k) + t_(2k+1); None when they do not alternate or carry the n,
    harmonic or F/L factor."""
    row, r = FAMILIES[spec.family], _ratio(spec)
    if r.stride is not None or row.weight not in ("plain", "recip"):
        return None
    neg = _signs(row, r, (spec.phi.coeff if r.z is None else r.z) < 0)
    if neg[0] != neg[1] != neg[2] != neg[3]:
        return 0
    if neg[0] != neg[2] and neg[1] != neg[3]:
        return 1 if neg[0] == neg[1] else -1
    return None


class _Plan(NamedTuple):
    """How one sum runs, by ``kernel`` at scale 2^B, up to index ``last``:
    ``path`` "kernel" (``trunc``, its tail bound in adaptive mode), "cvz" (n
    weights on [0, q], in pairs of sign ``pair`` if not 0, with A_0 <= hn/hd
    sqrt(radicand) for ``head`` = (hn, hd)), "split" (n weights on [0, 1])
    or "j1" (the ends ``tail`` of the order-n enclosure of J1's tail after
    ``last``, and ``trunc`` its half-width)."""

    path: str
    last: int
    B: int
    kernel: _Kernel
    n: int = 0
    q: Fraction = Fraction(1)
    pair: int = 0
    trunc: Optional[Real] = None
    head: Tuple[int, int] = (0, 1)
    tail: Tuple[Real, Real] = (0, 0)


def _plan(spec: FamilySpec, ctx: PrecisionContext, N: Optional[int] = None,
          target: Optional[Real] = None, max_terms: int = DEFAULT_MAX_TERMS) -> _Plan:
    """How to sum to index N (bound mode), or to within ``target`` in at most
    ``max_terms`` terms (adaptive mode, at ``ctx``'s working precision): by
    the path predicted cheapest, and by CVZ where no tail model exists.  n
    weights on [0, q'] err by at most A_0 qn^n/d (:func:`moments.cvz`), so n
    follows from the target in closed form; the kernel's N comes from
    :func:`_stop_index`.  Raises the refusals known before summing, in this
    order: :class:`UncertifiedError` on the boundary without CVZ,
    :class:`UsageError` for a target not above 0, :class:`ConvergenceError`
    past the cap (by CVZ's term count where CVZ was priced and the kernel's
    N passes the cap too), where q rounds to 1, or where the kernel's
    counted error alone leaves the target out of reach (the rounding floor).
    Where the kernel's N passes the cap and a priced CVZ fits under it, CVZ
    sums, whatever the cost rule preferred.

    Costs are in kernel steps at scale 2^B, a step of C1 at x = 1/2, whose
    state keeps all B bits (0.42-0.81 us at 40 digits, 2.4-4.0 us at 1000).
    Best of 5 to 7, medians of 3 to 9 runs (CVZ on [0, 1]; at 2000 digits
    6.69), of 6 (the search over C1, F3, H2, T3, I3) and of 3 (a C1 split at
    x = 1/2 at the rule's crossover, per weight, with the enclosure's memo
    cleared, as a new N finds it, and warm, as a repeated N does), CPython
    3.11.7, mpmath 1.3.0's pure-Python backend; the last column is the rule:

        digits      10    40   100   200   300  1000
        B          120   220   430   755  1090  3420
        CVZ step     -  1.08  2.18  2.70  3.07  5.30   max(1, sqrt(B/110))
        search       -   426   468     -   383   453   400
        search now 253   260   267   244   239   365
        split cold  25    16    11   9.3    11    15   max(10, sqrt(B/16))
        split warm  11   7.7   6.9   6.4   7.9    11

    "search" timed the earlier secant fit (about 5 ``tail_bound`` calls);
    "search now" the float model and its two-call certificate, medians of 6
    over the same five series with q, c and the model memoised (384-558
    where they are formed anew), against 516-904 for the earlier search on
    the same machine.  The rule keeps 400: a lower figure moves the
    CVZ/kernel choice, and so ``terms_used`` and the bounds, at some points,
    which a change with its own census of those points should make.

    Weights on [0, 13/16] (2.34 B bits) cost 1.83 times those on [0, 1] at
    300 and 1000 digits, and on [0, 3/4] (1.56 B bits) 1.3 to 2 times; the
    rule takes the ratio of the bits to the power 0.7 (1.81 and 1.36).  The
    split's rule, from its first measurement (break-even N/n 7-9 at 40
    digits, 12 at 1000, 40 at 10^4), lies between its cold and warm costs
    but at 10 and 200 digits; no workload near the crossover shows which of
    the two its requests see.
    """
    row = FAMILIES[spec.family]
    first = row.first
    if N is not None:
        B = _scale_bits(N, ctx)
        n = moments.weight_count(B + 1, Fraction(1))  # T_n(3) >= 2^B
        if row.group == "C" and max(10, math.sqrt(B / 16)) * n <= N:
            return _Plan("split", N, B, _kernel(spec, N, B), n)
        return _Plan("kernel", N, B, _kernel(spec, N, B))
    pair, boundary, r = _alternation(spec), spec.at_certification_boundary(), _ratio(spec)
    if boundary and pair is None:
        raise UncertifiedError(spec, (
            "the terms grow like sqrt(n) on the domain boundary, so the series diverges; use "
            "sum_fixed for a partial sum") if row.weight == "linear" else (
            "parameter on the domain boundary; use sum_fixed for an uncertified partial sum"))
    if not target > 0:
        raise UsageError("sum_adaptive: target_abs_error must be > 0")
    if row.weight == "harmonic":
        return _j1_plan(spec, ctx, target, max_terms)
    # where CVZ was priced: its plan (kernel formed once chosen) within the
    # cap, or its refusal past it
    cvz_fits = cvz_past_cap = None
    if pair is not None and r.z != 0:  # at x = 0 the kernel sums the one nonzero term
        # A_0 <= hn/hd sqrt(radicand) (2 a_first for + pairs; tan(phi) is not
        # in a T head, as first = 0); ratio the kernel's q, and the magnitudes'
        # support q = |z|, or z^2 in pairs
        hn, hd = _head(row, r, r.z if r.z is not None else Fraction(1))
        hn *= 2 if pair > 0 else 1
        ratio = _constants(spec, ctx)[0] if r.z is None else abs(r.z)
        log_q = (_log2(ratio) if r.z is None
                 else math.log2(ratio.numerator) - math.log2(ratio.denominator))
        q = moments.grid_support(ratio ** (2 if pair else 1))
        # log2(a0 sqrt(radicand)/(target (1 - 2^-16))), with 2^-15 for the last factor
        bits = math.log2(hn) - math.log2(hd) - _log2(target) + 2**-15
        if r.radicand != 1:
            bits += math.log2(r.radicand) / 2
        n = moments.weight_count(bits, q)
        steps = 2 * n if pair else n
        B = _scale_bits(first + steps - 1, ctx)
        # the kernel steps about bits/log2(1/q) terms after its search; the
        # weights on [0, qn/16] have about B + n log2(qn) bits
        kernel = bits / -log_q + 400 if log_q < 0 else math.inf
        cvz = steps * max(1, math.sqrt(B / 110)) * ((B + n * math.log2(q.numerator)) / B) ** 0.7
        if steps > max_terms:
            cvz_past_cap = f"CVZ on [0, {q}] needs {steps} terms, past the cap of {max_terms} terms"
        else:
            cvz_fits = _Plan("cvz", first + steps - 1, B, None, n, q, pair, head=(hn, hd))
        if boundary and cvz_past_cap:
            raise ConvergenceError(spec, target, cvz_past_cap, ctx, first + max_terms - 1)
        if cvz_fits and (boundary or cvz < kernel):
            return cvz_fits._replace(kernel=_kernel(spec, cvz_fits.last, B))
    last = first + max_terms - 1
    try:
        N, trunc = _stop_index(spec, target * (1 - mpf(2) ** -16), ctx)
    except UncertifiedError:
        # off the boundary the ratio majorant is below 1, so here it lies
        # within a few ulps of 1: far more than 2^64 terms
        N, at_cap = None, "the ratio majorant rounds to 1 at the working precision"
    else:
        if N is not None and N <= last:
            B = _scale_bits(N, ctx)
            k = _kernel(spec, N, B)
            err = _kernel_error(k, N)
            floor = _finish(k, -err, err, B)[1]
            if floor > target - trunc:
                raise ConvergenceError(spec, target, _floor_reason(N, floor, trunc), ctx, N)
            return _Plan("kernel", N, B, k, trunc=trunc)
        at_cap = f"tail_bound at N = {last} is {_figure(tail_bound(spec, last, ctx))}"
    if cvz_fits:  # the kernel's N passes the cap and CVZ's count does not
        return cvz_fits._replace(kernel=_kernel(spec, cvz_fits.last, cvz_fits.B))
    if cvz_past_cap:  # past the cap both ways: CVZ's count names a cap that works
        raise ConvergenceError(spec, target, cvz_past_cap, ctx, last)
    raise ConvergenceError(
        spec, target, f"{_tail_model(spec, ctx)} predicts N = "
        f"{'more than 2^64' if N is None else N}, past the cap of {max_terms} terms ({at_cap})",
        ctx, last)


# the highest order of J1's tail enclosure: its expansion takes about 0.1 s
# to form, once per process
_J1_MAX_ORDER = 64


def _j1_plan(spec: FamilySpec, ctx: PrecisionContext, target: Real, max_terms: int) -> _Plan:
    """The adaptive J1 plan: the kernel steps the terms 0..N0, and the
    order-K enclosure of the tail after N0 (:func:`moments.j1_tail`) adds
    the rest, with N0 the least index where the float model of the
    enclosure's radius (:func:`moments.j1_log2_radius`) fits the target
    within 2^-8, from :func:`_least_index` at the radius's slope K + 3/2 in
    log2 N.

    K follows from the target's bits by a measured rule, K = bits/12 within
    [2, 64].  Forming the expansion, once per order and process, takes about
    1.5 ms at K <= 5, 5-8 ms at 12, 28 ms at 26 and 35-67 ms at 40, and a
    kernel step 0.4-1.3 us at 1-200 digits; their sum for a first request
    was least at K = 3, 3-5, 6, 8, 12, 14-20, 27 and 39 at 1, 10, 20, 30,
    40, 60, 100 and 150 digits (best of 5, CPython 3.11.7, mpmath 1.3.0's
    pure-Python backend).  The rule gives N0 = 13, 476, 1087, 1256, 4169 and
    9880 at 1, 10, 30, 40, 100 and 200 digits.  Where N0 passes
    ``max_terms`` it takes the highest order that holds at the cap instead,
    and refuses when that one does not fit there either.  Where the model
    says so, the enclosure is first evaluated at 64 bits past its radius,
    enough for the half-width the refusal prints: at B + 16 bits the
    refusal took 7.6 s at 25,000 digits and 131 s at 100,000, most of it in
    ``iv.euler``.
    """
    budget = target * (1 - mpf(2) ** -16)
    last = max_terms - 1
    log2_budget = _log2(budget) - 2**-8

    def index(e: moments.J1Expansion) -> int:  # past ``last`` where it does not fit there
        return _least_index(lambda N: moments.j1_log2_radius(e, N), log2_budget, e.first,
                            last + 1, e.order + 1.5, True)

    def enclosure(bits: int) -> Tuple[Real, Real, Real]:
        lo, hi = _ends(moments.j1_tail(N, e, bits))
        return lo, hi, mp.ldexp(mp.fsub(hi, lo, rounding="u"), -1)

    e = moments.j1_expansion(min(_J1_MAX_ORDER, max(2, round(-log2_budget / 12))))
    N = index(e)
    if N > last:
        e = moments.j1_expansion(max(1, min(_J1_MAX_ORDER, moments.j1_highest_order(last))))
        if e.first > last:
            raise ConvergenceError(spec, target, (
                f"the J1 tail enclosure holds from N0 = {e.first}, past the cap of {max_terms} "
                "terms"), ctx, last)
        N = min(last, index(e))
    order, B = e.order, _scale_bits(N, ctx)
    # where the model says the enclosure cannot fit, 64 bits past its radius
    # show the half-width that the refusal prints; a plan keeps B + 16 bits
    radius = moments.j1_log2_radius(e, N)
    bits = B + 16 if radius <= log2_budget else min(B + 16, 64 - math.floor(radius))
    lo, hi, trunc = enclosure(bits)
    if trunc <= budget and bits < B + 16:  # it fits after all
        lo, hi, trunc = enclosure(B + 16)
    if trunc > budget:
        raise ConvergenceError(spec, target, (
            f"the J1 tail enclosure of order {order} at N0 = {N} has half-width "
            f"{_figure(trunc)}, with a cap of {max_terms} terms"), ctx, N)
    k = _kernel(spec, N, B)
    err = _kernel_error(k, N) + 1
    floor = _finish(k, -err, err, B)[1]
    if floor > target - trunc:
        raise ConvergenceError(spec, target, _floor_reason(N, floor, trunc), ctx, N)
    return _Plan("j1", N, B, k, order, trunc=trunc, tail=(lo, hi))


def _tail_model(spec: FamilySpec, ctx: PrecisionContext) -> str:
    row = FAMILIES[spec.family]
    q = _constants(spec, ctx)[0]
    # a q below 1 that reads 1.0 at 8 digits shows its distance from 1
    q = f"1 - {_figure(1 - q, 2)}" if q < 1 and _figure(q) == "1.0" else _figure(q)
    if row.group == "C":
        return f"the alternating tail model (q = 16x^4 = {q})"
    return f"the geometric tail model (q = {q})"


def _floor_reason(N: int, rounding: Real, trunc: Real) -> str:
    return (f"at the predicted N = {N} the rounding bound {_figure(rounding)} leaves "
            f"no room for it (truncation {_figure(trunc)}); it needs more working digits")


# ---------------------------------------------------------------------------
# the runner, and the drivers: plan, run, wrap


def _ends(v) -> Tuple[Real, Real]:
    """The endpoints of an iv interval, as mpf."""
    return mp.make_mpf(v._mpi_[0]), mp.make_mpf(v._mpi_[1])


def _finish(k: _Kernel, lo: int, hi: int, B: int) -> Tuple[Real, Real]:
    """(value, rounding bound) of a sum that lies in [lo, hi] 2^-B times
    sqrt(radicand), which ``k.root`` brings in outward: the midpoint rounded
    once to the working precision, to nearest, so that x and -x give opposite
    values, and its exact distance to the farther end, rounded up."""
    if k.root is not None:  # times [r, r + 1] 2^-B
        r = k.root
        lo, hi, B = lo * (r if lo >= 0 else r + 1), hi * (r + 1 if hi >= 0 else r), 2 * B
    mid = mpf(lo + hi)  # an integer rounded to prec bits, so int(mid) is exact
    far = max(int(mid) - 2 * lo, 2 * hi - int(mid))
    return mp.ldexp(mid, -B - 1), mp.ldexp(mp.fadd(far, 0, rounding="u"), -B - 1)


def _sum(spec: FamilySpec, plan: _Plan) -> Tuple[Real, Optional[Real], Real]:
    """(value, truncation bound, rounding bound) of ``plan`` at the working
    precision, the truncation bound ``plan.trunc`` but for "cvz".  Each path
    brackets its scaled sum between two integers, which :func:`_finish` rounds.

    * "kernel": :func:`_run` within :func:`_kernel_error` units.
    * "j1": the same, plus the midpoint of the tail's enclosure ``plan.tail``
      at 2^B, rounded outward; its half-width is the truncation bound.
    * "cvz": the magnitudes A_j (terms or pairs) are moments of a positive
      measure on [0, q'], pairs because a_2k +- a_2k+1 = int t^2k (1 +- t)
      dmu, so the n weights err by at most A_0 qn^n/d, which rounds up
      exactly.  A magnitude j steps past the head lies within units (j + 1)
      below its exact value, and the weighted total errs by less than the
      sum of those over the A_j, plus 1 for the floor of the division by d.
    * "split": sum_(m<=N) (-1)^m a_m flip for N = ``plan.last``, with a_m =
      kappa z^m C(k, k/2)/(2^k (k + 1)), k = a m + b for the C row's index
      (a, b), and kappa, z and flip from :func:`_ratio`; a_(m+1)/a_m <= 1.
      S_N = a_0 H + (-1)^N a_(N+1) T for the normalized alternating sums H
      from index 0 and T from N + 1, each one :func:`moments.cvz` on [0, 1]
      from 2^B, whose magnitudes are exact at the start and so err by at
      most j units j steps on.  An ``mpmath.iv`` enclosure, as the Stirling
      head of T needs, holds the two CVZ errors, the counted truncations and
      the width of the enclosure of a_(N+1) (from
      :func:`moments.central_binomial_enclosure`); its ends convert exactly.
    """
    k, B, trunc, N, n = plan.kernel, plan.B, plan.trunc, plan.last, plan.n
    if plan.path == "split":
        row, ratio = FAMILIES[spec.family], _ratio(spec)
        (a, b), M = row.index, N + 1
        units = n * (n - 1) // 2 + 1
        d, c = moments.weights(n, Fraction(1))
        head_sum = moments.cvz(k.num, k.den, 1 << B, 0, c)
        tail_sum = moments.cvz(k.num, k.den, 1 << B, M, moments.weights(n, Fraction(1))[1])
        saved = iv.prec
        try:
            iv.prec = B + 32
            head = moments.iv_fraction(Fraction(*_head(row, ratio, ratio.z)))  # a_0
            tail_head = (moments.iv_fraction(ratio.kappa) * moments.iv_fraction(ratio.z) ** M
                         * moments.central_binomial_enclosure(a * M + b, B + 8) / (a * M + b + 1))
            scale = iv.ldexp(iv.mpf(d), B)
            slack = iv.ldexp(iv.mpf([-units, units]), -B)
            total = (head * (head_sum / scale + slack)
                     + (-1) ** N * tail_head * (tail_sum / scale + slack))
        finally:
            iv.prec = saved
        ends = _ends(total)
        B = -min(v._mpf_[2] for v in ends)  # the lowest bit's exponent
        lo, hi = sorted(ratio.flip * int(mp.ldexp(v, B)) for v in ends)
    elif plan.path in ("kernel", "j1"):
        total, err = _run(k, N), _kernel_error(k, N)
        lo, hi = total - err, total + err
        if plan.path == "j1":
            mid = mp.ldexp(mp.fadd(*plan.tail, exact=True), B - 1)
            lo, hi = lo + int(mp.floor(mid)), hi + int(mp.ceil(mid))
    else:
        q, (hn, hd) = plan.q, plan.head
        d, weights = moments.weights(n, q)
        total = moments.cvz(k.num, k.den, k.head[0], k.first, weights, plan.pair) // d
        units = k.units * (2 * n * n + n if plan.pair else n * (n + 1) // 2) + 1
        total = -total if k.neg[k.first & 3] else total
        lo, hi = total - units, total + units
        num, den = hn * q.numerator**n, hd * d
        if k.root is not None:
            num, den = num * (k.root + 1), den << B
        trunc = mp.fdiv(num, den, rounding="u")
    value, rounding = _finish(k, lo, hi, B)
    return value, trunc, rounding


def sum_fixed(spec: FamilySpec, N: int, ctx: PrecisionContext) -> EvalResult:
    """Partial sum of the terms with index 0..N (inclusive).

    Never refuses: at uncertifiable parameter points the truncation bound
    is reported as +inf.  ``converged`` is always False; certified
    convergence is :func:`sum_adaptive`'s job.  Where :func:`_plan` finds it
    cheaper, C1 and C2 are not stepped term by term but formed as S - T(N)
    (:func:`_sum`).  ``terms_used`` is N + 1 either way, the terms
    the value stands for.
    """
    if N < 0:
        raise UsageError(f"sum_fixed: N must be >= 0, got {N}")
    plan = _plan(spec, ctx, N)
    with ctx.workprec():
        value, _, rounding = _sum(spec, plan)
        try:
            trunc = tail_bound(spec, N, ctx)
        except UncertifiedError:
            trunc = mpf("inf")
    return EvalResult(spec, value, N + 1, trunc, rounding, False, ctx.digits)


def sum_adaptive(
    spec: FamilySpec,
    target_abs_error,
    ctx: PrecisionContext,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalResult:
    """Sum exactly the terms that truncation + rounding bounds need for the target.

    The stop index N is the least index whose ``tail_bound`` is within
    (1 - 2^-16) of the target (the rest is left for rounding), computed once
    before summing.  Alternating moment sequences are summed by certified
    CVZ instead where :func:`_plan` finds that cheaper or no tail model
    exists, and J1 to an N0 past which it adds the enclosure of its tail.
    ``terms_used`` counts the terms stepped, from the first nonzero index
    (``Family.first``) to N or N0, both terms of each CVZ pair, and
    ``max_terms`` caps that count.  Raises :class:`UncertifiedError` at
    parameter points with neither (the n-weighted shapes on the boundary,
    where they diverge), :class:`ConvergenceError` when N or the CVZ terms
    lie past the cap or when the rounding bound keeps the total above the
    target, and :class:`UsageError` when ``max_terms`` is below 1 or above
    2^64, past which no stop index is searched.
    """
    if max_terms < 1:
        raise UsageError(f"sum_adaptive: max_terms must be >= 1, got {max_terms}")
    if max_terms > _SEARCH_LIMIT:
        raise UsageError(
            f"sum_adaptive: max_terms must be <= 2^64, the search limit, got {max_terms}")
    with ctx.workprec():
        target = ctx.real(target_abs_error)
        plan = _plan(spec, ctx, target=target, max_terms=max_terms)
        value, trunc, rounding = _sum(spec, plan)
        terms = plan.last + 1 - plan.kernel.first
        converged = mp.fadd(trunc, rounding, rounding="u") <= target
        result = EvalResult(spec, value, terms, trunc, rounding, converged, ctx.digits)
        if converged:
            return result
        reason = (f"CVZ with {plan.n} weights on [0, {plan.q}] leaves truncation "
                  f"{_figure(trunc)} and rounding {_figure(rounding)}"
                  if plan.path == "cvz" else _floor_reason(plan.last, rounding, trunc))
        raise ConvergenceError(spec, target, reason, ctx, plan.last, result)
