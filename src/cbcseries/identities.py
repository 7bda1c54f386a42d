"""Brute-force verification of the finite identities behind the series catalog.

Every check in this module returns an :class:`IdentityReport`.  Exact checks
(convolutions, transforms, the sign-split rearrangement, the logarithmic
moment sum) run entirely over ``int``/``Fraction``, so a reported failure is a
genuine counterexample and never a rounding artifact.  The two analytic
checks (``check_lemma1``, ``check_lemma2``) compare high-precision numeric
evaluations under an explicit :class:`~cbcseries.precision.PrecisionContext`
and quote their tolerances in the report id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from mpmath import mp

from .exact import central_binomials, harmonic_stream
from .families import SignPattern, sign
from .precision import PrecisionContext, UsageError

Failure = Tuple[dict, object, object]

# Largest sweep bounds accepted.  The integers of a sweep grow with its
# bound and its time grows about as the cube, so an unbounded request would
# run for hours or exhaust memory; each check at its limit takes 2-4 s
# (Python 3.11, one Xeon core) and is refused at once above it.
CONVOLUTION_N_LIMIT = 2000
TRANSFORM_N_LIMIT = 1000
SIGN_SPLIT_N_LIMIT = 2000
HARMONIC_V_LIMIT = 1000
# Largest --digits of the two numeric lemma checks, whose time grows about
# as digits^2: at this limit 1.8 s (arcsin-split) and 2.9 s
# (derivative-forms), and at 100,000 digits each runs past two minutes.
LEMMA_DIGITS_LIMIT = 5000
# sequence length bound of the sign-split check when none is given
SIGN_SPLIT_N_DEFAULT = 63


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity sweep.

    ``failures`` holds ``(parameters, lhs, rhs)`` triples for every parameter
    choice where the two sides disagreed; ``status`` is ``"pass"`` exactly
    when that list is empty.
    """

    id: str
    range: str
    failures: List[Failure] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        head = f"{self.id} [{self.range}]: {self.status}"
        if self.failures:
            head += f" ({len(self.failures)} failure(s))"
        return head


def _central_prefix(n_max: int) -> List[int]:
    """First ``n_max + 1`` central binomial coefficients C(2k, k)."""
    out: List[int] = []
    stream = central_binomials()
    for _ in range(n_max + 1):
        out.append(next(stream))
    return out


def _check_range(name: str, value: int, low: int, high: int) -> None:
    """Refuse a sweep bound outside [low, high] before any work is done."""
    if not low <= value <= high:
        raise UsageError(f"{name} must be in [{low}, {high}], got {value}")


def check_lemma_digits(ctx: PrecisionContext) -> None:
    """Refuse a lemma check past ``LEMMA_DIGITS_LIMIT`` before any work is done."""
    _check_range("digits of the lemma checks", ctx.digits, 1, LEMMA_DIGITS_LIMIT)


def _pair_products(c: Sequence[int], n: int) -> List[int]:
    """[c_k c_(n-k) for 0 <= k <= n]: each product is formed once, for
    k <= n/2, and the list is mirrored, since p_k = p_(n-k)."""
    half = list(map(mul, c[: n // 2 + 1], reversed(c[(n + 1) // 2 : n + 1])))
    return half + half[: (n + 1) // 2][::-1]


def check_convolution(n_max: int) -> IdentityReport:
    """Check the plain and alternating central-binomial self-convolutions.

    For 0 <= n <= n_max, over exact integers:

    * sum_k C(2k,k) C(2(n-k),n-k) = 4^n
    * sum_k (-1)^k C(2k,k) C(2(n-k),n-k) = (1+(-1)^n)/2 * C(n, n/2) * 2^n

    The alternating right side vanishes for odd n and equals the middle
    binomial coefficient times 2^n for even n.  With E and O the sums over
    even and odd k, the left sides are E + O and E - O.
    """
    _check_range("n_max", n_max, 0, CONVOLUTION_N_LIMIT)
    c = _central_prefix(n_max)
    failures: List[Failure] = []
    for n in range(n_max + 1):
        p = _pair_products(c, n)
        even, odd = sum(p[0::2]), sum(p[1::2])
        plain = even + odd
        if plain != 1 << 2 * n:
            failures.append(({"identity": "plain", "n": n}, plain, 1 << 2 * n))
        alt = even - odd
        want = 0 if n % 2 else comb(n, n // 2) << n
        if alt != want:
            failures.append(({"identity": "alternating", "n": n}, alt, want))
    return IdentityReport("central-convolution", f"0 <= n <= {n_max}", failures)


def check_weighted_convolution(n_max: int) -> IdentityReport:
    """Check the weighted self-convolutions with weights k(n-k), k and k^2.

    For 1 <= n <= n_max, over exact integers:

    * sum_k k(n-k) C(2k,k) C(2(n-k),n-k) = n(n-1) 2^(2n-3)
    * sum_k (-1)^k k(n-k) C(2k,k) C(2(n-k),n-k) = 0 for odd n
    * sum_k k C(2k,k) C(2(n-k),n-k) = n 2^(2n-1)
    * sum_k k^2 C(2k,k) C(2(n-k),n-k) = n(3n+1) 2^(2n-3)

    All sums run over the full range 0 <= k <= n.  For the k^2-weighted sum
    this full range is the convention that actually holds; stopping at
    k = n - 1 drops the nonzero term n^2 C(2n,n) and fails for every n >= 1
    (the unit tests pin that down).  The k- and k^2-weighted sums S1, S2
    are taken over even and odd k apart; k(n-k) weights give n S1 - S2.
    """
    _check_range("n_max", n_max, 1, CONVOLUTION_N_LIMIT)
    c = _central_prefix(n_max)
    squares = [k * k for k in range(n_max + 1)]
    failures: List[Failure] = []
    for n in range(1, n_max + 1):
        p = _pair_products(c, n)
        k1_even = sum(map(mul, range(0, n + 1, 2), p[0::2]))
        k1_odd = sum(map(mul, range(1, n + 1, 2), p[1::2]))
        k2_even = sum(map(mul, squares[0 : n + 1 : 2], p[0::2]))
        k2_odd = sum(map(mul, squares[1 : n + 1 : 2], p[1::2]))
        k1, k2 = k1_even + k1_odd, k2_even + k2_odd
        kn = n * k1 - k2
        want_kn = n * (n - 1) * 4**n // 8
        if kn != want_kn:
            failures.append(({"identity": "k(n-k)", "n": n}, kn, want_kn))
        if n % 2:
            alt = n * (k1_even - k1_odd) - (k2_even - k2_odd)
            if alt != 0:
                failures.append(({"identity": "alternating k(n-k)", "n": n}, alt, 0))
        want_k1 = n * 4**n // 2
        if k1 != want_k1:
            failures.append(({"identity": "k", "n": n}, k1, want_k1))
        want_k2 = n * (3 * n + 1) * 4**n // 8
        if k2 != want_k2:
            failures.append(({"identity": "k^2", "n": n}, k2, want_k2))
    return IdentityReport("weighted-convolution", f"1 <= n <= {n_max}", failures)


def _pascal_rows() -> Iterator[List[int]]:
    """Rows [C(n, k) for 0 <= k <= n] of Pascal's triangle, n = 0, 1, 2, ..."""
    row = [1]
    while True:
        yield row
        row = [1] + list(map(add, row[:-1], row[1:])) + [1]


def _horner(coeffs: Sequence[int], x: int) -> int:
    """sum_k coeffs[k] x^k."""
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def check_binomial_transform(
    n_max: int, t_values: Sequence[int] = (-3, -2, -1, 0, 1, 2, 3)
) -> IdentityReport:
    """Check the binomial transform linking the two convolution kernels.

    For 0 <= n <= n_max and each integer t:

        sum_k 4^(n-k) C(n,k) C(2k,k) t^k
            = sum_k C(2k,k) C(2(n-k),n-k) (1+t)^k

    checked as exact integers.  At t = 0 both sides collapse to 4^n.  The
    coefficients of both sides are formed once per n (C(n,k) by stepping
    the Pascal row) and evaluated by Horner's rule in t and in 1 + t.
    """
    _check_range("n_max", n_max, 0, TRANSFORM_N_LIMIT)
    if not t_values:
        raise UsageError("t_values must be nonempty")
    c = _central_prefix(n_max)
    failures: List[Failure] = []
    for n, row in zip(range(n_max + 1), _pascal_rows()):
        lhs_coeffs = [(b * ck) << 2 * (n - k) for k, (b, ck) in enumerate(zip(row, c))]
        rhs_coeffs = _pair_products(c, n)
        for t in t_values:
            lhs = _horner(lhs_coeffs, t)
            rhs = _horner(rhs_coeffs, 1 + t)
            if lhs != rhs:
                failures.append(({"n": n, "t": t}, lhs, rhs))
    ts = ",".join(str(t) for t in t_values)
    return IdentityReport("binomial-transform", f"0 <= n <= {n_max}; t in {{{ts}}}", failures)


def _random_rational_sequences(count: int, n_max: int, seed: int) -> List[List[Fraction]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(1, n_max + 1)
        out.append(
            [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(length)]
        )
    return out


def _ratio_weighted_sequence(x: Fraction, length: int) -> List[Fraction]:
    """f_n = C(2n,n) x^n / 4^n, the archetypal sequence fed to the split."""
    seq: List[Fraction] = []
    stream = central_binomials()
    xn = Fraction(1)
    for n in range(length):
        seq.append(next(stream) * xn / 4**n)
        xn *= x
    return seq


def check_sign_split(
    sample_sequences: Optional[Iterable[Sequence[Fraction]]] = None,
    n_max: int = SIGN_SPLIT_N_DEFAULT,
    count: int = 200,
    seed: int = 20260823,
) -> IdentityReport:
    """Check the sign-split rearrangement on finite rational sequences.

    For any finite sequence f_0, ..., f_L with s+(n) = (-1)^ceil(n/2) and
    s-(n) = (-1)^floor(n/2):

    * sum form:        sum_n (s+(n) + s-(n)) f_n = 2 sum_j (-1)^j f_{2j}
    * difference form: sum_n (s+(n) - s-(n)) f_n = -2 sum_j (-1)^j f_{2j+1}

    Both hold exactly at every truncation length because the combined sign
    weight vanishes on the complementary parity class.  When no sequences are
    given, ``count`` seeded random rational sequences of length <= n_max + 1
    are used, plus three sequences of the form C(2n,n) x^n / 4^n at rational
    x, which is the shape the series engine actually sums.
    """
    _check_range("n_max", n_max, 0, SIGN_SPLIT_N_LIMIT)
    if sample_sequences is None:
        seqs = _random_rational_sequences(count, n_max, seed)
        for x in (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)):
            seqs.append(_ratio_weighted_sequence(x, n_max + 1))
        origin = f"{count} random + 3 binomial-ratio sequences"
    else:
        seqs = [list(s) for s in sample_sequences]
        origin = f"{len(seqs)} supplied sequences"
    ceil_half = [sign(SignPattern.CEIL_HALF, n) for n in range(n_max + 1)]
    floor_half = [sign(SignPattern.FLOOR_HALF, n) for n in range(n_max + 1)]
    sum_weights = list(map(add, ceil_half, floor_half))
    diff_weights = list(map(sub, ceil_half, floor_half))
    failures: List[Failure] = []
    for idx, f in enumerate(seqs):
        f = [Fraction(v) for v in f[: n_max + 1]]
        # every f_n as a_n / den over the sequence's least common denominator
        den = lcm(*(v.denominator for v in f))
        a = [v.numerator * (den // v.denominator) for v in f]
        lhs_sum = Fraction(sum(map(mul, sum_weights, a)), den)
        rhs_sum = Fraction(2 * (sum(a[0::4]) - sum(a[2::4])), den)
        if lhs_sum != rhs_sum:
            failures.append(({"sequence": idx, "form": "sum"}, lhs_sum, rhs_sum))
        lhs_diff = Fraction(sum(map(mul, diff_weights, a)), den)
        rhs_diff = Fraction(-2 * (sum(a[1::4]) - sum(a[3::4])), den)
        if lhs_diff != rhs_diff:
            failures.append(({"sequence": idx, "form": "difference"}, lhs_diff, rhs_diff))
    return IdentityReport(
        "sign-split", f"{origin}, truncation <= {n_max + 1} terms", failures
    )


def _lemma1_argument(x, ctx: PrecisionContext):
    """sqrt(2) x / sqrt(sqrt(1 + 4 x^4) + 1), the shared inverse-trig argument."""
    xr = ctx.real(x)
    s = mp.sqrt(1 + 4 * xr**4)
    return mp.sqrt(2) * xr / mp.sqrt(s + 1)


def check_lemma1(x_samples: Sequence, ctx: PrecisionContext) -> IdentityReport:
    """Check the real/imaginary split of arcsin((1+i)x) against closed forms.

    For each sample x with |x| <= 0.7, evaluates w = arcsin((1+i)x) on the
    principal branch and requires

        Re w = arctan(g(x)),   Im w = artanh(g(x)),
        g(x) = sqrt(2) x / sqrt(sqrt(1 + 4 x^4) + 1)

    to 10^(3 - digits).
    """
    check_lemma_digits(ctx)
    samples = list(x_samples)
    failures: List[Failure] = []
    with ctx.workprec():
        tol = mp.mpf(10) ** (3 - ctx.digits)
        for x in samples:
            xr = ctx.real(x)
            if abs(xr) > mp.mpf(7) / 10:
                raise UsageError(f"sample {x!r} outside |x| <= 0.7")
            w = mp.asin(mp.mpc(xr, xr))
            g = _lemma1_argument(x, ctx)
            re_rhs, im_rhs = mp.atan(g), mp.atanh(g)
            if abs(w.real - re_rhs) > tol:
                failures.append(({"x": str(x), "part": "Re"}, w.real, re_rhs))
            if abs(w.imag - im_rhs) > tol:
                failures.append(({"x": str(x), "part": "Im"}, w.imag, im_rhs))
    return IdentityReport(
        "arcsin-complex-split",
        f"{len(samples)} samples, tol 1e-{ctx.digits - 3}",
        failures,
    )


def _inverse_tangent_form(x, hyperbolic: bool):
    """arctan or artanh of x / sqrt(1 + sqrt(1 + x^4)) at current precision."""
    u = x / mp.sqrt(1 + mp.sqrt(1 + x**4))
    return mp.atanh(u) if hyperbolic else mp.atan(u)


def check_lemma2(x_samples: Sequence, ctx: PrecisionContext) -> IdentityReport:
    """Check the derivative closed forms of the paired inverse-tangent maps.

    With F(x) = arctan(x / sqrt(1 + sqrt(1 + x^4))) and G the artanh twin,
    and s = sqrt(1 + x^4), the claimed closed forms are

        F'(x)  =  sqrt((s - x^2) / (2 (1 + x^4)))
        G'(x)  =  sqrt((s + x^2) / (2 (1 + x^4)))
        F''(x) = -x (s + 2 x^2) sqrt((s - x^2) / (2 (1 + x^4)^3))
        G''(x) =  x (s - 2 x^2) sqrt((s + x^2) / (2 (1 + x^4)^3))

    Checked two ways per sample:

    1. against central finite differences of F and G with step
       h = 10^(-digits // 3), to a tolerance scaled by h^2;
    2. the exact products F' G' = 1 / (2 (1 + x^4)) and
       F'' G'' = x^2 (3 x^4 - 1) / (2 (1 + x^4)^3), to 10^(5 - digits).
    """
    check_lemma_digits(ctx)
    samples = list(x_samples)
    failures: List[Failure] = []
    with ctx.workprec():
        h = mp.mpf(10) ** -(ctx.digits // 3)
        fd_tol = 50 * (h * h + mp.mpf(10) ** (-(ctx.digits + 10)) / (h * h))
        prod_tol = mp.mpf(10) ** (5 - ctx.digits)
        for x in samples:
            xr = ctx.real(x)
            if xr == 0 or abs(xr) >= 1:
                raise UsageError(f"sample {x!r} outside (-1, 1) minus the origin")
            s = mp.sqrt(1 + xr**4)
            q = 2 * (1 + xr**4)
            d_tan = mp.sqrt((s - xr**2) / q)
            d_tanh = mp.sqrt((s + xr**2) / q)
            d2_tan = -xr * (s + 2 * xr**2) * mp.sqrt((s - xr**2) / (q * (1 + xr**4) ** 2))
            d2_tanh = xr * (s - 2 * xr**2) * mp.sqrt((s + xr**2) / (q * (1 + xr**4) ** 2))
            for label, hyp, d1, d2 in (
                ("arctan", False, d_tan, d2_tan),
                ("artanh", True, d_tanh, d2_tanh),
            ):
                fp = _inverse_tangent_form(xr + h, hyp)
                fm = _inverse_tangent_form(xr - h, hyp)
                f0 = _inverse_tangent_form(xr, hyp)
                fd1 = (fp - fm) / (2 * h)
                fd2 = (fp - 2 * f0 + fm) / (h * h)
                if abs(fd1 - d1) > fd_tol:
                    failures.append(({"x": str(x), "check": label + "'"}, fd1, d1))
                if abs(fd2 - d2) > fd_tol:
                    failures.append(({"x": str(x), "check": label + "''"}, fd2, d2))
            p1 = d_tan * d_tanh
            want1 = 1 / q
            if abs(p1 - want1) > prod_tol:
                failures.append(({"x": str(x), "check": "product'"}, p1, want1))
            p2 = d2_tan * d2_tanh
            want2 = xr**2 * (3 * xr**4 - 1) / (q * (1 + xr**4) ** 2)
            if abs(p2 - want2) > prod_tol:
                failures.append(({"x": str(x), "check": "product''"}, p2, want2))
    return IdentityReport(
        "paired-derivative-forms",
        f"{len(samples)} samples, products to 1e-{ctx.digits - 5}",
        failures,
    )


def check_harmonic_integral(v_max: int) -> IdentityReport:
    """Check the logarithmic moment sum behind the harmonic-number series.

    Expanding (1 - x^2)^(v-1) binomially inside int_0^1 x (1-x^2)^(v-1) ln x dx
    and using int_0^1 x^(2k+1) ln x dx = -1/(2k+2)^2 turns the integral into
    a finite rational sum, so for 1 <= v <= v_max this checks

        sum_k C(v-1,k) (-1)^k / (2k+2)^2 = H_v / (4v)

    as exact rationals, H_v the v-th harmonic number.
    """
    _check_range("v_max", v_max, 1, HARMONIC_V_LIMIT)
    failures: List[Failure] = []
    harmonics = harmonic_stream()
    next(harmonics)  # H_0 = 0
    lcm_v = 1  # lcm(1, ..., v), so lcm(2, 4, ..., 2v)^2 = 4 lcm_v^2
    # row holds C(v-1, k) for 0 <= k <= v-1
    for v, row in zip(range(1, v_max + 1), _pascal_rows()):
        h_v = next(harmonics)
        lcm_v = lcm(lcm_v, v)
        # (-1)^k C(v-1,k) / (2k+2)^2 = (-1)^k C(v-1,k) (lcm_v/(k+1))^2 / (4 lcm_v^2)
        scaled = [b * (lcm_v // (k + 1)) ** 2 for k, b in enumerate(row)]
        lhs = Fraction(sum(scaled[0::2]) - sum(scaled[1::2]), 4 * lcm_v * lcm_v)
        rhs = h_v / (4 * v)
        if lhs != rhs:
            failures.append(({"v": v}, lhs, rhs))
    return IdentityReport("harmonic-log-moment", f"1 <= v <= {v_max}", failures)
