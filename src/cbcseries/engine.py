"""Term generation and certified summation for every series family.

Evaluation contract
-------------------
Each result carries two proven error components:

* ``truncation_bound``: upper bound on |true sum - partial sum|, from a
  per-family term-majorant model (see :func:`tail_bound`).  It is always
  ``tail_bound`` evaluated at the last summed index.
* ``rounding_bound``: a counted bound on the arithmetic error.  Every family
  is summed by one driver on integers scaled by 2^B (see :class:`_Kernel`):
  each term follows from the previous one by a rational ratio R(n), and each
  step truncates at most one unit of 2^-B.  No step multiplies an earlier
  error by more than 1 (the n-weighted shapes by at most n/k over the steps
  k..n), so the bound is (units per step) x (steps) x (that propagation
  factor) x 2^-B, plus the final rounding of the scaled total to a
  working-precision number.

:func:`sum_adaptive` picks the stop index N once, before summing: the least
N whose ``tail_bound`` fits the target, found in a handful of calls by a
secant search on log2 ``tail_bound`` (see :func:`_stop_index`) that ends on
the two calls certifying N.  When N lies past ``max_terms`` it raises
:class:`ConvergenceError` without summing, and likewise when the rounding
bound at N keeps the total above the target (its counted part is known
before summing, the rounding of the value after the N + 1 terms).  ``term``
and ``term_fraction`` compute single summands directly and are the
independent checks of the driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from mpmath import mp, mpf

from cbcseries.exact import binomial, fib_lucas, harmonic
from cbcseries.families import (
    C_FAMILIES,
    F_FAMILIES,
    G_FAMILIES,
    H_FAMILIES,
    FamilySpec,
    PhiValue,
    SurdValue,
    T_FAMILIES,
    sign,
)
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
    precision), or when the rounding bound at that index keeps the total
    above the target.
    ``partial`` is the uncertified sum up to index ``last`` (the cap, or the
    predicted index); it is computed when first read.
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
        v = ctx.real(x.coeff)
        if x.radicand != 1:
            v = v * mp.sqrt(ctx.real(x.radicand))
        return v
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
    """alpha^k at working precision via alpha^k = (L_k + sqrt5 * F_k)/2.

    Memoised per (k, ctx, precision): a G family's ``tail_bound`` needs
    alpha^|s| at every stop-index probe, and the exact F/L pair behind it
    has about 0.7 |s| bits.
    """
    return _alpha_pow_at(k, ctx, mp.prec)


@lru_cache(maxsize=32)
def _alpha_pow_at(k: int, ctx: PrecisionContext, prec: int) -> Real:
    f, ell = fib_lucas(k)
    return (ctx.real(ell) + mp.sqrt(mpf(5)) * ctx.real(f)) / 2


# ---------------------------------------------------------------------------
# the n-th summand, computed directly from exact ingredients


def term(spec: FamilySpec, n: int, ctx: PrecisionContext) -> Real:
    """The exact n-th summand of the family, evaluated in ctx.

    Integer parts (binomials, F/L numbers, harmonic numbers) are computed
    exactly and converted once; no recurrences are involved, which makes
    this the independent cross-check for the incremental streams.
    """
    if n < 0:
        raise UsageError(f"term: n must be >= 0, got {n}")
    fam = spec.family
    with ctx.workprec():
        s = sign(spec.sign_pattern(), n)
        if fam in ("F1", "F2"):
            x = x_real(spec.x, ctx)
            return s * binomial(2 * n, n) * x ** (2 * n + 1) / ((2 * n + 1) * mpf(4) ** n)
        if fam in ("F3", "F4", "F5", "F6"):
            w = n if fam in ("F5", "F6") else 1
            x = x_real(spec.x, ctx)
            return s * w * binomial(2 * n, n) * x**n / mpf(4) ** n
        if fam in T_FAMILIES:
            t = mp.tan(phi_real(spec.phi, ctx))
            c = binomial(2 * n, n)
            if fam in ("T1", "T2"):
                return s * c * t**n / ((2 * n + 1) * mpf(4) ** n)
            w = n if fam in ("T5", "T6") else 1
            return s * w * c * t**n / mpf(4) ** n
        if fam == "C1":
            x = ctx.real(spec.x)
            return s * binomial(4 * n, 2 * n) * x ** (4 * n + 1) / (4 * n + 1)
        if fam == "C2":
            x = ctx.real(spec.x)
            return s * binomial(4 * n + 2, 2 * n + 1) * x ** (4 * n + 3) / (4 * n + 3)
        if fam in G_FAMILIES:
            _, weight, seqname = spec.g_shape()
            f, ell = fib_lucas(spec.m * n + spec.s)
            sv = f if seqname == "F" else ell
            w = n if weight == "linear" else 1
            den = (2 * n + 1) if weight == "recip" else 1
            return s * w * binomial(2 * n, n) * sv / (ctx.real(spec.p) ** n * den)
        if fam in ("H1", "H2"):
            x = ctx.real(spec.x)
            return s * binomial(4 * n, 2 * n) * x**n / mpf(16) ** n
        if fam in ("H3", "H4"):
            if n == 0:
                return mpf(0)  # C(-2,-1) taken as 0 by convention
            x = ctx.real(spec.x)
            return s * binomial(4 * n - 2, 2 * n - 1) * x**n / mpf(2) ** (4 * n - 2)
        if fam == "I1":
            _, lrn = fib_lucas(spec.r * n)
            _, lr = fib_lucas(spec.r)
            return binomial(4 * n, 2 * n) * lrn / (mpf(16) ** n * ctx.real(lr) ** n)
        if fam == "I2":
            _, lr = fib_lucas(spec.r)
            return binomial(4 * n, 2 * n) / (mpf(4) ** n * ctx.real(lr) ** (2 * n))
        if fam == "I3":
            return binomial(4 * n, 2 * n) / mpf(20) ** n
        # J1
        return binomial(4 * n, 2 * n) * ctx.real(harmonic(n + 1)) / (mpf(16) ** n * (n + 1))


def term_fraction(spec: FamilySpec, n: int) -> Fraction:
    """The exact n-th summand as a Fraction, for the rational families.

    T families (and F1/F2 at genuinely irrational surd x) have no rational
    terms and raise a usage error.
    """
    if n < 0:
        raise UsageError(f"term_fraction: n must be >= 0, got {n}")
    fam = spec.family
    if fam in T_FAMILIES:
        raise UsageError("term_fraction: T-family terms are not rational")
    s = sign(spec.sign_pattern(), n)
    if fam in ("F1", "F2"):
        x = spec.x if isinstance(spec.x, SurdValue) else SurdValue(spec.x)
        rat = x.as_rational()
        if rat is None:
            raise UsageError("term_fraction: surd x gives irrational terms")
        return (
            s * binomial(2 * n, n) * rat ** (2 * n + 1) / Fraction((2 * n + 1) * 4**n)
        )
    if fam in ("F3", "F4", "F5", "F6"):
        w = n if fam in ("F5", "F6") else 1
        return s * w * binomial(2 * n, n) * _rational_x(spec) ** n / Fraction(4**n)
    if fam == "C1":
        return s * binomial(4 * n, 2 * n) * spec.x ** (4 * n + 1) / Fraction(4 * n + 1)
    if fam == "C2":
        return (
            s * binomial(4 * n + 2, 2 * n + 1) * spec.x ** (4 * n + 3) / Fraction(4 * n + 3)
        )
    if fam in G_FAMILIES:
        _, weight, seqname = spec.g_shape()
        f, ell = fib_lucas(spec.m * n + spec.s)
        sv = f if seqname == "F" else ell
        w = n if weight == "linear" else 1
        den = (2 * n + 1) if weight == "recip" else 1
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
# certified tail bounds


def _geometric_ratio(spec: FamilySpec, ctx: PrecisionContext) -> Real:
    """The per-family geometric ratio majorant q (valid for every index).

    Memoised per (spec, ctx, precision), like :func:`_alpha_pow`: the stop-index
    search evaluates ``tail_bound`` several times at one parameter point, and q
    can need tan(phi) or alpha^r.
    """
    return _geometric_ratio_at(spec, ctx, mp.prec)


@lru_cache(maxsize=32)
def _geometric_ratio_at(spec: FamilySpec, ctx: PrecisionContext, prec: int) -> Real:
    fam = spec.family
    if fam in ("F1", "F2"):
        x = spec.x if isinstance(spec.x, SurdValue) else SurdValue(spec.x)
        return ctx.real(x.squared())
    if fam in ("F3", "F4", "F5", "F6"):
        return abs(x_real(spec.x, ctx))
    if fam in T_FAMILIES:
        return abs(mp.tan(phi_real(spec.phi, ctx)))
    if fam in C_FAMILIES:
        return 16 * ctx.real(spec.x) ** 4
    if fam in G_FAMILIES:
        return 4 * _alpha_pow(abs(spec.m), ctx) / ctx.real(spec.p)
    if fam in H_FAMILIES:
        return abs(ctx.real(spec.x))
    if fam == "I1":
        _, lr = fib_lucas(spec.r)
        return _alpha_pow(spec.r, ctx) / lr
    if fam == "I2":
        _, lr = fib_lucas(spec.r)
        return ctx.real(Fraction(4, lr * lr))
    if fam == "I3":
        return ctx.real(Fraction(4, 5))
    raise UsageError(f"no geometric ratio model for {fam}")


def tail_bound(spec: FamilySpec, N: int, ctx: PrecisionContext) -> Real:
    """Proven upper bound on |sum over n > N| of the family's terms.

    Models: a geometric-ratio majorant for the F/T/C/G/H/I families (with
    the standard central-binomial estimate C(2m,m)/4^m <= 1/sqrt(pi*m)
    sharpening the first omitted term, and an exact arithmetico-geometric
    sum for the n-weighted shapes), and an integral-comparison bound for
    J1.  Raises :class:`UncertifiedError` where the model ratio reaches 1
    (|x| = 1, |phi| = pi/4, p = 4*alpha^|m|).
    """
    if N < 0:
        raise UsageError(f"tail_bound: N must be >= 0, got {N}")
    fam = spec.family
    with ctx.workprec():
        pad = mpf(_BOUND_PAD)
        if fam == "J1":
            if N == 0:
                # |t_1| = 9/32 exactly, then the integral bound from 1
                return (mpf(9) / 32 + _j1_integral_bound(1)) * pad
            return _j1_integral_bound(N) * pad
        if fam in C_FAMILIES:
            # Alternating with strictly decreasing magnitudes on the whole
            # domain (the index factors keep the step ratio below 1 even at
            # |x| = 1/2, where the plain geometric ratio reaches 1), so the
            # first omitted term bounds the tail with no 1/(1-q) factor.
            xa = abs(ctx.real(spec.x))
            q = 16 * xa**4
            M = N + 1
            if fam == "C1":
                return q**M * xa / (mp.sqrt(2 * mp.pi * M) * (4 * M + 1)) * pad
            return q**M * 4 * xa**3 / (mp.sqrt(mp.pi * (2 * M + 1)) * (4 * M + 3)) * pad
        q = _geometric_ratio(spec, ctx)
        if not q < 1:
            raise UncertifiedError(
                spec, "term-ratio majorant reaches 1; no certified tail bound"
            )
        M = N + 1  # first omitted index
        if fam in ("F1", "F2"):
            xa = abs(x_real(spec.x, ctx))
            t_hat = xa ** (2 * M + 1) / ((2 * M + 1) * mp.sqrt(mp.pi * M))
            return t_hat / (1 - q) * pad
        if fam in ("F3", "F4"):
            t_hat = q**M / mp.sqrt(mp.pi * M)
            return t_hat / (1 - q) * pad
        if fam in ("F5", "F6"):
            # sum_{n>=M} n q^n = q^M (M(1-q) + q)/(1-q)^2, with the
            # C(2n,n)/4^n factor bounded by its value majorant at M
            return q**M * (M * (1 - q) + q) / ((1 - q) ** 2 * mp.sqrt(mp.pi * M)) * pad
        if fam in ("T1", "T2"):
            t_hat = q**M / ((2 * M + 1) * mp.sqrt(mp.pi * M))
            return t_hat / (1 - q) * pad
        if fam in ("T3", "T4"):
            t_hat = q**M / mp.sqrt(mp.pi * M)
            return t_hat / (1 - q) * pad
        if fam in ("T5", "T6"):
            return q**M * (M * (1 - q) + q) / ((1 - q) ** 2 * mp.sqrt(mp.pi * M)) * pad
        if fam in G_FAMILIES:
            kappa = _alpha_pow(abs(spec.s), ctx)
            if spec.g_shape()[2] == "F":
                kappa = kappa * 2 / mp.sqrt(mpf(5))
            else:
                kappa = kappa * 2
            weight = spec.weight()
            if weight == "recip":
                return kappa * q**M / ((2 * M + 1) * (1 - q)) * pad
            if weight == "plain":
                return kappa * q**M / (1 - q) * pad
            return kappa * q**M * (M * (1 - q) + q) / (1 - q) ** 2 * pad
        if fam in ("H1", "H2"):
            t_hat = q**M / mp.sqrt(2 * mp.pi * M)
            return t_hat / (1 - q) * pad
        if fam in ("H3", "H4"):
            t_hat = q**M / mp.sqrt(mp.pi * (2 * M - 1))
            return t_hat / (1 - q) * pad
        if fam == "I1":
            t_hat = 2 * q**M / mp.sqrt(2 * mp.pi * M)
            return t_hat / (1 - q) * pad
        # I2, I3
        t_hat = q**M / mp.sqrt(2 * mp.pi * M)
        return t_hat / (1 - q) * pad


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
    coefficients, constant first.  Two shapes carry a second component:

    * ``step = (F_m, L_m)``: the state is a pair (f, l), scaled F and L
      numbers, and each step also applies (F_k, L_k) -> (F_{k+m}, L_{k+m})
      with the divisor 2 inside den.  The scaled total is out . (S_F, S_L).
    * ``harmonic`` (J1, terms a_n H_{n+1}): by Abel summation the total is
      H_{N+1} A_N - sum_{n<N} A_n/(n+2) over the partial sums A_n of a_n,
      so a step adds two divisions by the small n+2.

    Every step truncates below one unit and multiplies earlier errors by at
    most 1 in modulus (for ``step``, on the eigenvectors (1, +-sqrt5) of the
    F/L map, where a unit becomes at most 1 + sqrt5), except that a
    ``weighted`` ratio folds in (n+1)/n.  So the scaled total errs by at
    most ``units`` x steps x spread, where spread is the number of steps, or
    N (1 + log2 N) >= n H_n for a weighted ratio.  The value is the scaled
    total times sqrt(``radicand``) times 2^-B.
    """

    first: int
    head: Tuple[int, ...]
    num: Tuple[int, int, int, int]
    den: Tuple[int, int, int, int]
    neg: Tuple[bool, bool, bool, bool] = (False,) * 4
    step: Optional[Tuple[int, int]] = None
    out: Tuple[int, int] = (0, 1)
    harmonic: bool = False
    weighted: bool = False
    units: int = 1
    radicand: Fraction = Fraction(1)


def _poly(c: int, *factors: Tuple[int, int]) -> Tuple[int, int, int, int]:
    """Coefficients, constant first, of c * prod(a*n + b) over (a, b) factors."""
    p = [c]
    for a, b in factors:
        p = [b * p[0]] + [b * p[i] + a * p[i - 1] for i in range(1, len(p))] + [a * p[-1]]
    return tuple(p + [0] * (4 - len(p)))


def _tan_scaled(phi: PhiValue, bits: int) -> int:
    """floor(|tan phi| * 2^bits), within 2 units: computed with 32 guard bits."""
    with mp.workprec(bits + 32):
        v = mpf(phi.coeff.numerator) / phi.coeff.denominator
        if phi.times_pi:
            v *= mp.pi
        return int(mp.floor(mp.ldexp(abs(mp.tan(v)), bits)))


def _kernel(spec: FamilySpec, N: int, B: int) -> _Kernel:
    """The summation descriptor of ``spec`` for indices up to N at scale 2^B."""
    fam = spec.family
    pat = spec.sign_pattern()
    one = 1 << B

    def signs(z_sign: int = 1, flip: int = 1) -> Tuple[bool, ...]:
        return tuple(sign(pat, n) * z_sign**n * flip < 0 for n in range(4))

    if fam in F_FAMILIES or fam in T_FAMILIES:
        # C(2n,n)/4^n z^n with weight 1/(2n+1), 1 or n; z = x^2 (times one
        # factor x) for F1/F2, x for F3-F6, tan(phi) for T
        head, flip, radicand, units = one, 1, Fraction(1), 1
        if fam in ("F1", "F2"):  # x^(2n+1) = sign(c) |c| sqrt(d) (c^2 d)^n for x = c sqrt(d)
            x = spec.x if isinstance(spec.x, SurdValue) else SurdValue(spec.x)
            c = x.coeff
            z, z_sign, flip, radicand = x.squared(), 1, (-1 if c < 0 else 1), x.radicand
            head = (abs(c.numerator) << B) // c.denominator
        elif fam in F_FAMILIES:
            z = _rational_x(spec)
            z_sign = -1 if z < 0 else 1
        else:
            phi = spec.phi
            z_sign = -1 if phi.coeff < 0 else 1
            if phi.coeff == 0 or (phi.times_pi and abs(phi.coeff) == Fraction(1, 4)):
                z = Fraction(z_sign if phi.coeff else 0)  # tan is exactly 0 or +-1
            else:
                # tan(phi) carries N.bit_length() + 2 bits more than the state, so
                # its error adds at most 1 unit per step over N weighted steps
                extra = B + N.bit_length() + 2
                z, units = Fraction(_tan_scaled(phi, extra), 1 << extra), 2
        zn, zd = abs(z.numerator), z.denominator
        weight = spec.weight()
        if weight == "recip":
            num, den = _poly(zn, (2, 1), (2, 1)), _poly(zd, (2, 2), (2, 3))
        elif weight == "plain":
            num, den = _poly(zn, (2, 1)), _poly(zd, (2, 2))
        else:  # linear: n C(2n,n) z^n/4^n from n = 1, where it is z/2
            return _Kernel(1, ((zn << B) // (2 * zd),), _poly(zn, (2, 1)), _poly(zd, (2, 0)),
                           signs(z_sign), weighted=True, units=units)
        return _Kernel(0, (head,), num, den, signs(z_sign, flip), units=units,
                       radicand=radicand)
    if fam in C_FAMILIES:
        x = spec.x
        xn4, xd4 = x.numerator**4, x.denominator**4
        flip = -1 if x < 0 else 1
        if fam == "C1":  # C(4n,2n) |x|^(4n+1)/(4n+1)
            return _Kernel(0, ((abs(x.numerator) << B) // x.denominator,),
                           _poly(4 * xn4, (4, 1), (4, 1), (4, 3)),
                           _poly(xd4, (2, 1), (2, 2), (4, 5)), signs(flip=flip))
        head = Fraction(2 * abs(x) ** 3, 3)  # C(4n+2,2n+1) |x|^(4n+3)/(4n+3)
        return _Kernel(0, ((head.numerator << B) // head.denominator,),
                       _poly(4 * xn4, (4, 3), (4, 3), (4, 5)),
                       _poly(xd4, (2, 2), (2, 3), (4, 7)), signs(flip=flip))
    if fam in G_FAMILIES:
        # C(2n,n)/p^n F-or-L(mn) with the weight, halved; the index shift s
        # enters once at the end: 2 V(mn+s) = F(mn) L_s + L(mn) F_s for V = F,
        # and L(mn) L_s + 5 F(mn) F_s for V = L
        fm, lm = fib_lucas(spec.m)
        fs, ls = fib_lucas(spec.s)
        out = (ls, fs) if spec.seq == "F" else (5 * fs, ls)
        pn, pd = spec.p.numerator, spec.p.denominator
        units = 2 * abs(out[0]) + 4 * abs(out[1])
        weight = spec.weight()
        if weight == "linear":  # from n = 1: (pd/pn) (F_m, L_m)
            head = ((pd * fm << B) // pn, (pd * lm << B) // pn)
            return _Kernel(1, head, _poly(2 * pd, (2, 1)), _poly(pn, (2, 0)), signs(),
                           (fm, lm), out, weighted=True, units=units)
        if weight == "recip":
            num, den = _poly(2 * pd, (2, 1), (2, 1)), _poly(pn, (2, 2), (2, 3))
        else:
            num, den = _poly(2 * pd, (2, 1)), _poly(pn, (2, 2))
        return _Kernel(0, (0, one), num, den, signs(), (fm, lm), out, units=units)
    # C(4n+4,2n+2)/(16 C(4n,2n)) = (4n+1)(4n+3)/(4 (2n+1)(2n+2)); the dens below
    # carry the 4 (2n+1)(2n+2) with each family's other factors
    quarter = _poly(1, (4, 1), (4, 3))
    if fam in H_FAMILIES:
        x = spec.x
        xn, xd = abs(x.numerator), x.denominator
        z_sign = -1 if x < 0 else 1
        if fam in ("H1", "H2"):  # C(4n,2n) |x|^n/16^n
            return _Kernel(0, (one,), _poly(xn, (4, 1), (4, 3)),
                           _poly(4 * xd, (2, 1), (2, 2)), signs(z_sign))
        # C(4n-2,2n-1) |x|^n/2^(4n-2) from n = 1, where it is |x|/2
        return _Kernel(1, ((xn << B) // (2 * xd),), _poly(xn, (4, -1), (4, 1)),
                       _poly(8 * xd, (1, 0), (2, 1)), signs(z_sign))
    if fam == "I1":  # C(4n,2n)/16^n (F, L)(rn)/L_r^n
        fr, lr = fib_lucas(spec.r)
        return _Kernel(0, (0, 2 * one), quarter, _poly(8 * lr, (2, 1), (2, 2)),
                       step=(fr, lr), units=4)
    if fam == "I2":
        _, lr = fib_lucas(spec.r)
        return _Kernel(0, (one,), quarter, _poly(lr * lr, (2, 1), (2, 2)))
    if fam == "I3":
        return _Kernel(0, (one,), quarter, _poly(5, (2, 1), (2, 2)))
    # J1: a_n = C(4n,2n)/(16^n (n+1)) steps by (4n+1)(4n+3)/(8 (2n+1)(n+2)).  A_n
    # errs by at most n(n+1)/2 units and A_N, H_{N+1} <= 1 + log2(N+1), so the
    # Abel total errs by less than (2 + log2(N+1)) (N+1)^2 units
    return _Kernel(0, (one,), quarter, _poly(8, (2, 1), (1, 2)), harmonic=True,
                   units=2 + (N + 1).bit_length())


def _run(k: _Kernel, N: int) -> int:
    """The scaled total of the terms first..N."""
    a0, a1, a2, a3 = k.num
    b0, b1, b2, b3 = k.den
    neg = k.neg
    if k.harmonic:
        one = a = k.head[0]
        partial = lower = 0
        h = one  # H_{n+1}
        for n in range(N):
            partial += a
            m = n + 2
            lower += partial // m
            h += one // m
            a = a * (((a3 * n + a2) * n + a1) * n + a0) // (((b3 * n + b2) * n + b1) * n + b0)
        return h * (partial + a) // one - lower
    if k.step is None:
        (u,) = k.head
        total = 0
        for n in range(k.first, N + 1):
            if neg[n & 3]:
                total -= u
            else:
                total += u
            u = u * (((a3 * n + a2) * n + a1) * n + a0) // (((b3 * n + b2) * n + b1) * n + b0)
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
        r = ((a3 * n + a2) * n + a1) * n + a0
        s = ((b3 * n + b2) * n + b1) * n + b0
        f, l = (f * lm + l * fm) * r // s, (l * lm + f * f5) * r // s
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
    # n/j for a weighted ratio: sum_j n/j <= N (1 + log2 N)
    spread = N * (1 + N.bit_length()) if k.weighted else steps
    with ctx.workprec():
        pad = mpf(_BOUND_PAD)
        err = mp.ldexp(mpf(k.units * steps * spread), -B)
        root = mp.sqrt(ctx.real(k.radicand)) if k.radicand != 1 else None
        if root is not None:
            err *= root
        if room is not None and err * pad > room:
            return None, err * pad
        value = mp.ldexp(mpf(_run(k, N)), -B)
        if root is not None:
            value *= root
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
    ``tail_bound`` calls, where doubling and bisection took 10-30.  Returns
    (None, None) when tail_bound(_SEARCH_LIMIT) > budget; it probes there
    only when the model or the gallop points past it.
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
    if spec.family == "J1":
        return "the J1 integral-comparison tail model"
    if spec.family in C_FAMILIES:
        return f"the alternating tail model (q = 16x^4 = {mp.nstr(16 * ctx.real(spec.x) ** 4, 8)})"
    return f"the geometric tail model (q = {mp.nstr(_geometric_ratio(spec, ctx), 8)})"


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
    :class:`UsageError` when ``max_terms`` is below 1.
    """
    if max_terms < 1:
        raise UsageError(f"sum_adaptive: max_terms must be >= 1, got {max_terms}")
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
