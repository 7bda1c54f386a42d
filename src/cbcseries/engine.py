"""Term generation and certified summation for every series family.

Every family is one row of :data:`cbcseries.families.FAMILIES` (sign
pattern, weight, central-binomial index) plus the parameter part of its
terms at a point, :func:`_ratio`.  The tail bound, its ratio q and the
summation kernel read those two descriptions; only :func:`term_fraction`,
the exact oracle, spells each family out.

Each result carries two proven error components:

* ``truncation_bound``: the one tail formula of :func:`tail_bound` (an
  integral comparison for J1) evaluated at the last summed index.
* ``rounding_bound``: a counted bound on the arithmetic error of the one
  summation driver, which runs every family on integers scaled by 2^B
  (see :class:`_Kernel`), plus the final rounding to working precision.

:func:`sum_adaptive` sums up to the least N whose ``tail_bound`` fits the
target, found before summing by a secant search on log2 ``tail_bound`` (see
:func:`_stop_index`).  ``term`` and ``term_fraction`` compute single summands
directly and are the independent checks of the driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from mpmath import mp, mpf

from cbcseries.exact import binomial, fib_lucas, harmonic
from cbcseries.families import FAMILIES, FamilySpec, PhiValue, SurdValue, sign
from cbcseries.precision import PrecisionContext, Real, UsageError

DEFAULT_MAX_TERMS = 10_000_000
# multiplicative safety pad on every reported bound, so that the bound stays
# an upper bound despite its own few-ulp evaluation error
_BOUND_PAD = "1.00000001"
# the stop-index search reports "more than 2^64" past this index
_SEARCH_LIMIT = 2**64
# model-guided stop-index probes before the search falls back to galloping and
# bisection
_MODEL_PROBES = 16


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
            f"{spec.describe()}: cannot certify target {mp.nstr(mpf(target), 8)}: {reason}"
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
        return self.truncation_bound + self.rounding_bound


# ---------------------------------------------------------------------------
# parameter realization


def x_real(x, ctx: PrecisionContext) -> Real:
    """The x parameter as a Real at working precision (handles surds)."""
    if isinstance(x, SurdValue):
        return ctx.real(x.coeff) * mp.sqrt(ctx.real(x.radicand))
    return ctx.real(x)


def phi_real(phi: PhiValue, ctx: PrecisionContext) -> Real:
    """The angle parameter as a Real at working precision."""
    v = ctx.real(phi.coeff)
    if phi.times_pi:
        v = v * mp.pi
    return v


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


def _alpha_pow(k: int, ctx: PrecisionContext) -> Real:
    """alpha^k = (L_k + sqrt5 F_k)/2 at working precision, memoised per (k, ctx, prec)."""
    return _alpha_pow_at(k, ctx, mp.prec)


@lru_cache(maxsize=32)
def _alpha_pow_at(k: int, ctx: PrecisionContext, prec: int) -> Real:
    f, ell = fib_lucas(k)
    return (ctx.real(ell) + mp.sqrt(mpf(5)) * ctx.real(f)) / 2


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
        if n == 0:
            return Fraction(0)
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


@lru_cache(maxsize=32)
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
        c = spec.phi.coeff
        if c == 0 or spec.at_certification_boundary():  # tan is exactly 0 or +-1
            return _Ratio(Fraction((c > 0) - (c < 0)))
        return _Ratio(None)
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


def _geometric_ratio(spec: FamilySpec, ctx: PrecisionContext) -> Real:
    """The ratio majorant q of ``spec``'s terms, valid for every index; memoised
    per (spec, ctx, precision), as the stop-index search reads it at each probe."""
    return _geometric_ratio_at(spec, ctx, mp.prec)


@lru_cache(maxsize=32)
def _geometric_ratio_at(spec: FamilySpec, ctx: PrecisionContext, prec: int) -> Real:
    r = _ratio(spec)
    if r.z is None:
        return abs(mp.tan(phi_real(spec.phi, ctx)))
    # the factors a n + b of the term ratio (see _kernel) pair up with equal leading
    # coefficients, so q = |z|, times the F/L step's larger eigenvalue alpha^|stride|
    if r.stride is None:
        return ctx.real(abs(r.z))
    return _alpha_pow(abs(r.stride), ctx) / ctx.real(1 / abs(r.z))


def tail_bound(spec: FamilySpec, N: int, ctx: PrecisionContext) -> Real:
    """Proven upper bound on |sum over n > N| of the family's terms.

    With M = N + 1 and k = a M + b, every family but J1 (an integral
    comparison) gets pad kappa q^M cb(k)/d(M) shape(q, M): q from
    :func:`_geometric_ratio`; kappa the terms' constant factor, or for G and
    I1 the F/L bound 2 alpha^|s| (over sqrt5 for F); cb(k) = 1/sqrt(pi k/2)
    >= C(k, k/2)/2^k, omitted for G; d(M) = k + 1 for the 1/(k+1) weight,
    else 1; shape = 1/(1 - q), (M(1 - q) + q)/(1 - q)^2 for the n weight, or
    1 for C: its terms alternate and strictly decrease on the whole domain,
    even at |x| = 1/2, where q = 1.  Raises :class:`UncertifiedError` where
    q otherwise reaches 1 (|x| = 1, |phi| = pi/4, p = 4*alpha^|m|).
    """
    if N < 0:
        raise UsageError(f"tail_bound: N must be >= 0, got {N}")
    row = FAMILIES[spec.family]
    with ctx.workprec():
        pad = mpf(_BOUND_PAD)
        if row.weight == "harmonic":  # at N = 0: |t_1| = 9/32, then the bound from 1
            return pad * (_j1_integral_bound(N) if N else mpf(9) / 32 + _j1_integral_bound(1))
        q = _geometric_ratio(spec, ctx)
        alternating = row.group == "C"
        if not (alternating or q < 1):
            raise UncertifiedError(spec, "term-ratio majorant reaches 1; no certified tail bound")
        r, M = _ratio(spec), N + 1
        k = row.index[0] * M + row.index[1]
        bound = pad * q**M
        if r.stride is not None:
            bound *= 2 * _alpha_pow(abs(r.shift), ctx) / (mp.sqrt(mpf(5)) if row.seq == "F" else 1)
        elif (r.kappa, r.radicand) != (1, 1):
            bound *= ctx.real(r.kappa) * mp.sqrt(ctx.real(r.radicand))
        if row.group != "G":
            bound /= mp.sqrt(mp.pi * (k // 2))
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
      of a_n, so a step adds two divisions by the small n+2.

    Every step truncates below one unit and multiplies earlier errors by at
    most 1 in modulus (for ``step``, on the eigenvectors (1, +-sqrt5) of the
    F/L map, where a unit becomes at most 1 + sqrt5), except that the
    "linear" weight folds (n+1)/n into the ratio.  So the scaled total errs
    by at most ``units`` x steps x spread, where spread is the number of
    steps, or N (1 + log2 N) >= n H_n for the linear weight.  The value is
    the scaled total times sqrt(``radicand``) times 2^-B.
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
    radicand: Fraction


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
    # the first nonzero term: n = 1 for the n weight and for C(4n-2, 2n-1)
    first = 1 if row.first or b < 0 else 0
    k = a * first + b
    wd = {"recip": k + 1, "harmonic": first + 1}.get(row.weight, 1)  # 1/w(first)
    zf = abs(z) ** first  # the head kappa z^first C(k, k/2)/2^k w(first) is hn/hd
    hn = r.kappa.numerator * zf.numerator * math.comb(k, k // 2)
    hd = r.kappa.denominator * zf.denominator * wd << k
    if r.stride is None:
        step, head = None, ((hn << B) // hd,)
    else:
        step = fib_lucas(r.stride)
        head = tuple((v * hn << B) // hd for v in fib_lucas(r.stride * first))
        units = 2 * abs(r.out[0]) + 4 * abs(r.out[1])
    if row.weight == "harmonic":
        # J1: A_n errs by at most n(n+1)/2 units and A_N, H_{N+1} <= 1 + log2(N+1),
        # so the Abel total errs by less than (2 + log2(N+1)) (N+1)^2 units
        units = 2 + (N + 1).bit_length()
    neg = tuple(sign(row.sign, n) * (-1 if z < 0 else 1) ** n * r.flip < 0 for n in range(4))
    return _Kernel(first, head, num, den, neg, step, r.out, row.weight, units, r.radicand)


def _differences(c: Tuple[int, int, int, int], n: int) -> Tuple[int, int, int, int]:
    """p(n) and the forward differences of p at n, for the cubic p with
    coefficients c (constant first): p(n+1) - p(n), 2 c2 + 6 c3 (n + 1), 6 c3."""
    c0, c1, c2, c3 = c
    return (((c3 * n + c2) * n + c1) * n + c0, c1 + c2 * (2 * n + 1) + c3 * (3 * n * (n + 1) + 1),
            2 * c2 + 6 * c3 * (n + 1), 6 * c3)


def _run(k: _Kernel, N: int) -> int:
    """The scaled total of the terms first..N.

    num(n) and den(n) step by exact forward differences (r, r1, r2 = r + r1,
    r1 + r2, r2 + r3), so each step multiplies and divides by the same
    integers as evaluating the two cubics at n would.
    """
    r, r1, r2, r3 = _differences(k.num, k.first)
    s, s1, s2, s3 = _differences(k.den, k.first)
    neg = k.neg
    if k.weight == "harmonic":  # J1: first = 0, so m = n + 2
        one = a = k.head[0]
        partial = lower = 0
        h = one  # H_{n+1}
        for m in range(2, N + 2):
            partial += a
            lower += partial // m
            h += one // m
            a = a * r // s
            r, r1, r2 = r + r1, r1 + r2, r2 + r3
            s, s1, s2 = s + s1, s1 + s2, s2 + s3
        return h * (partial + a) // one - lower
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


def _scaled_sum(spec: FamilySpec, N: int, ctx: PrecisionContext,
                room: Optional[Real] = None) -> Tuple[Optional[Real], Real]:
    """(value, rounding bound) of the terms with index 0..N.

    Returns (None, fixed-point part of the bound) without summing when that
    part alone exceeds ``room``.
    """
    B = math.ceil(ctx.working_digits * 3.3219280948873626) + 2 * (N + 1).bit_length() + 16
    k = _kernel(spec, N, B)
    steps = max(0, N - k.first + 1)
    # a truncation at step j reaches term n multiplied by at most 1, or by
    # n/j for the linear weight: sum_j n/j <= N (1 + log2 N)
    spread = N * (1 + N.bit_length()) if k.weight == "linear" else steps
    with ctx.workprec():
        pad = mpf(_BOUND_PAD)
        root = mp.sqrt(ctx.real(k.radicand))
        err = mp.ldexp(mpf(k.units * steps * spread), -B) * root
        if room is not None and err * pad > room:
            return None, err * pad
        value = mp.ldexp(mpf(_run(k, N)), -B) * root
        # the total, sqrt(d) and their product round once each
        return value, (err + abs(value) * mp.ldexp(1, 4 - mp.prec)) * pad


# ---------------------------------------------------------------------------
# summation drivers


def sum_fixed(spec: FamilySpec, N: int, ctx: PrecisionContext) -> EvalResult:
    """Partial sum of the terms with index 0..N (inclusive).

    Never refuses: at uncertifiable parameter points the truncation bound
    is reported as +inf.  ``converged`` is always False; certified
    convergence is :func:`sum_adaptive`'s job.
    """
    if N < 0:
        raise UsageError(f"sum_fixed: N must be >= 0, got {N}")
    value, rounding = _scaled_sum(spec, N, ctx)
    with ctx.workprec():
        try:
            trunc = tail_bound(spec, N, ctx)
        except UncertifiedError:
            trunc = mpf("inf")
    return EvalResult(spec, value, N + 1, trunc, rounding, False, ctx.digits)


def _log2(x: Real) -> float:
    """log2 of a positive mpf of any size, to about 1e-16 near x = 1."""
    man, exp = x.man_exp
    man = int(man)
    bits = man.bit_length()
    return math.log2(man / (1 << bits)) + (exp + bits)


def _model_guess(points, low: int, high: int) -> int:
    """The least n in [low, high] where the model through ``points`` fits, else high.

    ``points`` are (M, log2(tail_bound(M - 1)/budget)), oldest first.  The
    model is a + b M + c log2 M: through three points it fits b and c; through
    two, c = 0 (a secant); through one, b = -1 (q = 1/2).
    """
    m2, f2 = points[-1]
    b, c = -1.0, 0.0
    if len(points) > 1:
        m1, f1 = points[-2]
        b = (f1 - f2) / (m1 - m2)
    if len(points) == 3:
        (m0, f0), (m1, f1) = points[:2]
        l0, l1 = math.log2(m0 / m2), math.log2(m1 / m2)
        det = (m0 - m2) * l1 - (m1 - m2) * l0
        if det:
            b = ((f0 - f2) * l1 - (f1 - f2) * l0) / det
            c = ((m0 - m2) * (f1 - f2) - (m1 - m2) * (f0 - f2)) / det

    def fits(n: int) -> bool:
        return f2 + b * (n + 1 - m2) + c * math.log2((n + 1) / m2) <= 0

    if fits(low):
        return low
    # gallop up from low, which does not fit, to an index that does; then bisect
    step, top = 1, min(low + 1, high)
    while not fits(top):
        if top == high:
            return high
        low, step = top, 2 * step
        top = min(low + step, high)
    while top - low > 1:
        mid = (low + top) // 2
        if fits(mid):
            top = mid
        else:
            low = mid
    return top


def _stop_index(spec: FamilySpec, budget: Real, ctx: PrecisionContext):
    """(N, tail_bound(N)) for the least N >= first index with tail_bound(N) <= budget.

    Every tail model makes log2 tail_bound(N) close to a + b M + c log2 M in
    M = N + 1: b = log2 q for the geometric models, c from their sqrt(M),
    (2M + 1) or M factors, and b = 0 for J1 and for C at |x| = 1/2.  So each
    probe goes where that model, fitted through the last three probes (a
    secant through the last two at first), puts the least index that fits.
    Probes keep a bracket lo < N <= hi and always land strictly inside it;
    after ``_MODEL_PROBES`` probes the search gallops up from lo and bisects
    instead, so it terminates.  It ends on the certificate tail_bound(N) <=
    budget < tail_bound(N - 1), or N = first index, which makes N the least
    such index because the bound falls as N grows: typically 4-6
    ``tail_bound`` calls.  Returns (None, None) when tail_bound(_SEARCH_LIMIT)
    > budget; it probes there only when the model or the gallop points past it.
    """
    lo, hi, bound = spec.first_index() - 1, None, None
    points = []
    n, probes, step = lo + 1, 0, 1
    while True:
        b = tail_bound(spec, n, ctx)
        probes += 1
        if b <= budget:
            hi, bound = n, b
        elif n >= _SEARCH_LIMIT:
            return None, None
        else:
            lo = n
        if hi == lo + 1:
            return hi, bound
        if b > 0:
            points = (points + [(n + 1, _log2(b / budget))])[-3:]
        if probes < _MODEL_PROBES:
            n = _model_guess(points, lo + 1, _SEARCH_LIMIT if hi is None else hi - 1)
        else:  # gallop up from lo, bisecting once the steps pass mid-bracket
            n = min(lo + step, _SEARCH_LIMIT if hi is None else (lo + hi) // 2)
            step *= 2


def _tail_model(spec: FamilySpec, ctx: PrecisionContext) -> str:
    row = FAMILIES[spec.family]
    if row.weight == "harmonic":
        return "the J1 integral-comparison tail model"
    q = _geometric_ratio(spec, ctx)
    # a q below 1 that reads 1.0 at 8 digits shows its distance from 1
    q = f"1 - {mp.nstr(1 - q, 2)}" if q < 1 and mp.nstr(q, 8) == "1.0" else mp.nstr(q, 8)
    if row.group == "C":
        return f"the alternating tail model (q = 16x^4 = {q})"
    return f"the geometric tail model (q = {q})"


def sum_adaptive(
    spec: FamilySpec,
    target_abs_error,
    ctx: PrecisionContext,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalResult:
    """Sum exactly the terms that truncation + rounding bounds need for the target.

    The stop index N is the least index whose ``tail_bound`` is within
    (1 - 2^-16) of the target (the rest is left for rounding), computed once
    before summing.  Raises :class:`UncertifiedError` at parameter points
    with no tail model, :class:`ConvergenceError` when N lies past
    ``max_terms`` terms (counted from the family's first index) or when the
    rounding bound keeps the total above the target, and
    :class:`UsageError` when ``max_terms`` is below 1 or above 2^64, past
    which no stop index is searched.
    """
    if max_terms < 1:
        raise UsageError(f"sum_adaptive: max_terms must be >= 1, got {max_terms}")
    if max_terms > _SEARCH_LIMIT:
        raise UsageError(
            f"sum_adaptive: max_terms must be <= 2^64, the search limit, got {max_terms}")
    if spec.at_certification_boundary():
        raise UncertifiedError(
            spec, "parameter on the domain boundary; use sum_fixed for an "
            "uncertified partial sum"
        )
    with ctx.workprec():
        target = ctx.real(target_abs_error)
        if not target > 0:
            raise UsageError("sum_adaptive: target_abs_error must be > 0")
        last = spec.first_index() + max_terms - 1
        at_cap = None
        try:
            N, trunc = _stop_index(spec, target * (1 - mpf(2) ** -16), ctx)
        except UncertifiedError:
            # off the boundary the ratio majorant is below 1, so here it lies
            # within a few ulps of 1: far more than 2^64 terms
            N = trunc = None
            at_cap = "the ratio majorant rounds to 1 at the working precision"
        if N is None or N > last:
            predicted = "more than 2^64" if N is None else str(N)
            if at_cap is None:
                at_cap = f"tail_bound at N = {last} is {mp.nstr(tail_bound(spec, last, ctx), 8)}"
            raise ConvergenceError(
                spec, target,
                f"{_tail_model(spec, ctx)} predicts N = {predicted}, past the cap of "
                f"{max_terms} terms ({at_cap})",
                ctx, last,
            )
        value, rounding = _scaled_sum(spec, N, ctx, room=target - trunc)
        partial = None
        if value is not None:
            if trunc + rounding <= target:
                return EvalResult(spec, value, N + 1, trunc, rounding, True, ctx.digits)
            partial = EvalResult(spec, value, N + 1, trunc, rounding, False, ctx.digits)
        raise ConvergenceError(
            spec, target,
            f"at the predicted N = {N} the rounding bound {mp.nstr(rounding, 8)} leaves no "
            f"room for it (truncation {mp.nstr(trunc, 8)}); it needs more working digits",
            ctx, N, partial,
        )
