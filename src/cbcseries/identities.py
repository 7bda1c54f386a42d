"""Exact proofs and checks of the finite identities behind the series catalog.

Every check in this module returns an :class:`IdentityReport`.  The
central-binomial self-convolutions are proven for every n, by WZ
certificates checked as polynomial identities over the integers plus their
boundary terms and base cases (:func:`_prove`); their ``n_max`` only labels
the range.  The other exact checks (the binomial transform, the sign-split
rearrangement, the logarithmic moment sum) sweep their range over
``int``/``Fraction``.  Either way a reported failure is exact, never a
rounding artifact.  The two analytic checks (``check_lemma1``,
``check_lemma2``) compare high-precision numeric evaluations under an
explicit :class:`~cbcseries.precision.PrecisionContext` and quote their
tolerances in the report id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from mpmath import mp

from .exact import central_binomials, harmonic_stream
from .families import SignPattern, sign
from .precision import PrecisionContext, UsageError

Failure = Tuple[dict, object, object]

# Largest sweep bounds accepted.  The integers of a sweep grow with its
# bound and its time grows about as the cube, so an unbounded request would
# run for hours or exhaust memory; each sweep at its limit takes 2-4 s
# (Python 3.11, one Xeon core) and is refused at once above it.  The two
# convolution checks are proofs for every n and take a few milliseconds at
# any bound; their limit stays so that a larger --n-max still exits 2.
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


class _Poly:
    """An exact polynomial in n and k, held as {(i, j): coefficient of
    n^i k^j} without zero coefficients: just the algebra the WZ
    certificates below need."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, int], int]):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def of(value) -> "_Poly":
        return value if isinstance(value, _Poly) else _Poly({(0, 0): value})

    def __add__(self, other) -> "_Poly":
        terms = dict(self.terms)
        for e, c in _Poly.of(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return _Poly(terms)

    def __neg__(self) -> "_Poly":
        return _Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "_Poly":
        return self + -_Poly.of(other)

    def __mul__(self, other) -> "_Poly":
        terms: Dict[Tuple[int, int], int] = {}
        for (i, j), c in self.terms.items():
            for (a, b), d in _Poly.of(other).terms.items():
                terms[i + a, j + b] = terms.get((i + a, j + b), 0) + c * d
        return _Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "_Poly":
        return _product([self] * e)

    def __eq__(self, other) -> bool:
        return self.terms == _Poly.of(other).terms

    def __call__(self, n, k) -> "_Poly":
        """This polynomial at n and k, each a polynomial or an int."""
        out, n_pow, k_pow = _Poly({}), [_ONE], [_ONE]
        for (i, j), c in self.terms.items():
            while len(n_pow) <= i:
                n_pow.append(n_pow[-1] * n)
            while len(k_pow) <= j:
                k_pow.append(k_pow[-1] * k)
            out += c * n_pow[i] * k_pow[j]
        return out

    def at(self, n: int, k: int) -> int:
        return sum(c * n**i * k**j for (i, j), c in self.terms.items())

    def __str__(self) -> str:
        out = ""
        for (i, j), c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("n", i), ("k", j)) if e)
            factor = str(abs(c)) if abs(c) != 1 or not mono else ""
            out += (" - " if c < 0 else " + ") + "*".join(filter(None, (factor, mono)))
        text = out[3:] if out else "0"
        return "-" + text if out.startswith(" - ") else text


_ONE = _Poly({(0, 0): 1})
_N = _Poly({(1, 0): 1})
_K = _Poly({(0, 1): 1})


def _product(factors: Iterable[_Poly]) -> _Poly:
    out = _ONE
    for f in factors:
        out = out * f
    return out


class _ConvolutionSum(NamedTuple):
    """sum_k sign^k w(n, k) c_k c_(L-k) = r(n) 4^n c_n^central / den over
    0 <= k <= L = step n, with c_k = C(2k, k): the even-n alternating sum
    is written in m = n/2, with step 2."""

    label: str
    weight: _Poly
    rhs: _Poly = _ONE
    den: int = 1
    sign: int = 1
    step: int = 1
    central: int = 0


class _Certificate(NamedTuple):
    """A WZ certificate z = numer / prod(denom), valid from n = start, for a
    sum whose n-difference vanishes below k = low."""

    start: int
    low: int
    numer: _Poly
    denom: Tuple[_Poly, ...]


# The certificates come from sympy's gosper_term of F(n+1,k) - F(n,k) in k
# (after gammasimp), F the summand over its right side; sympy is not a
# dependency and nothing here imports it, as the checks below prove each
# certificate afresh.  The k(n-k)-weighted sum has one too,
# (k-1)(2k-2n-1)/(4k-3n-1), but its pole lies inside the support (n = 5,
# k = 4), so that sum is n S1 - S2 instead.
_PLAIN = _ConvolutionSum("plain", _ONE)
_PLAIN_Z = _Certificate(0, 0, _K * (2 * _N - 2 * _K + 1), (_N + 1,))
_ALTERNATING = _ConvolutionSum("alternating", _ONE, sign=-1, step=2, central=1)
_ALTERNATING_Z = _Certificate(
    0, 0, _K * (4 * _N - 2 * _K + 1), (_Poly.of(2), 2 * _K**2 - 4 * _K * _N - 2 * _K - _N - 1)
)
_K1 = _ConvolutionSum("k", _K, _N, 2)
_K2 = _ConvolutionSum("k^2", _K**2, _N * (3 * _N + 1), 8)
_K2_Z = _Certificate(
    1, 1, (_K - 1) * (2 * _K - 2 * _N - 1) * (3 * _K * _N + 2 * _K - _N - 1),
    (_K, 12 * _K * _N + 8 * _K - 15 * _N**2 - 21 * _N - 8),
)
_KN = _ConvolutionSum("k(n-k)", _K * (_N - _K), _N * (_N - 1), 8)
_ALTERNATING_KN = _ConvolutionSum("alternating k(n-k)", _K * (_N - _K), _Poly({}), sign=-1)


def _sign(f: _Poly, start: int) -> int:
    """+1 or -1 where every coefficient of f(start + t), a polynomial in t
    alone, has that sign, so f has it at every integer n >= start; 0 where
    this test proves no sign."""
    coeffs = f(_N + start, _K).terms
    for s in (1, -1):
        if s * coeffs.get((0, 0), 0) > 0 and all(s * c > 0 for c in coeffs.values()):
            return s
    return 0


def _nonzero_between(f: _Poly, start: int, low, high) -> bool:
    """Whether f(n, k) != 0 for n >= start and low(n) <= k <= high(n) is
    proven (low and high polynomials in n, or ints): f affine in k with one
    sign at both ends, or convex (concave) in k and negative (positive) at
    both ends."""
    ends = {_sign(f(_N, low), start), _sign(f(_N, high), start)}
    degree = max((j for _, j in f.terms), default=0)
    if degree <= 1:
        return ends in ({1}, {-1})
    lead = _sign(_Poly({(i, 0): c for (i, j), c in f.terms.items() if j == 2}), start)
    return degree == 2 and lead != 0 and ends == {-lead}


def _prove(s: _ConvolutionSum, z: _Certificate) -> List[Failure]:
    """Prove the sum ``s`` for every n >= z.start by a WZ certificate.

    With F(n, k) the summand over the right side (0 off 0 <= k <= L),
    f(n, k) = F(n+1, k) - F(n, k) and G = z f on low <= k <= H = L + step
    (0 elsewhere), G(n, k+1) - G(n, k) = f(n, k) at every k telescopes to
    sum_k F(n+1, k) = sum_k F(n, k), and the base sum makes that 1.  On
    0 <= k <= H, f = h p / (v 2^step) with p below and the nonzero
    hypergeometric term h = sign^k c_k c_(H-k) / (rhs(n+1) prod_j (2L+2j-2k-1)),
    j = 1..step, whose ratio h(n, k+1)/h(n, k) is a/b with
    b = (k+1)(2L-2k-1) != 0; u/v = rhs(n+1)/rhs(n).  The obligations:

    * right side: r(n) keeps one sign, so F is defined;
    * support: p(n, k) = 0 for 0 <= k < low, so f vanishes there;
    * denominator: no factor of z's denominator vanishes on low <= k <= H;
    * lower end: numer(n, low) p(n, low) = 0, so G(n, low) = 0;
    * upper end: (numer(n, H) + denom(n, H)) p(n, H) = 0, so
      G(n, H+1) - G(n, H) = f(n, H);
    * interior: for low <= k < H the identity divided by h(n, k)/(v 2^step)
      and multiplied by b denom(k) denom(k+1), in Z[n, k];
    * base: the sum at n = start over the integers.

    Each failure names the sum and the obligation, with the two sides that
    differ (the interior's difference against 0), or the polynomial of no
    proven sign and "nonzero".
    """
    failures: List[Failure] = []

    def require(obligation, lhs, rhs):
        if lhs != rhs:
            failures.append(({"identity": s.label, "obligation": obligation}, lhs, rhs))

    L, H, j = s.step * _N, s.step * _N + s.step, range(1, s.step + 1)
    u = 4 * s.rhs(_N + 1, _K) * (4 * _N + 2) ** s.central
    v = s.rhs * (_N + 1) ** s.central
    p = (v * 2**s.step * s.weight(_N + 1, _K) * _product(2 * L + 2 * i - 2 * _K - 1 for i in j)
         - u * s.weight * _product(L + i - _K for i in j))
    a, b = s.sign * (2 * _K + 1) * (H - _K), (_K + 1) * (2 * L - 2 * _K - 1)
    if not _sign(s.rhs, z.start):
        failures.append(({"identity": s.label, "obligation": "right side"}, s.rhs, "nonzero"))
    for k in range(z.low):
        require("support", p(_N, k), 0)
    for f in z.denom:  # on low <= k < H, and at H alone, where a convex factor may turn
        if not (_nonzero_between(f, z.start, z.low, H - 1) and _sign(f(_N, H), z.start)):
            failures.append(({"identity": s.label, "obligation": "denominator"}, f, "nonzero"))
    q = _product(z.denom)
    require("lower end", z.numer(_N, z.low) * p(_N, z.low), 0)
    require("upper end", (z.numer(_N, H) + q(_N, H)) * p(_N, H), 0)
    q1, p1 = q(_N, _K + 1), p(_N, _K + 1)
    require("interior", z.numer(_N, _K + 1) * p1 * a * q - (z.numer + q) * p * b * q1, 0)
    c = [comb(2 * i, i) for i in range(s.step * z.start + 1)]
    n, top = z.start, s.step * z.start
    lhs = sum(s.sign**k * s.weight.at(n, k) * c[k] * c[top - k] for k in range(top + 1))
    require("base", lhs, Fraction(s.rhs.at(n, 0) * 4**n * c[n] ** s.central, s.den))
    return failures


def _derive(s: _ConvolutionSum, scale: int, sources, rule: str) -> List[Failure]:
    """Derive scale * (sum s) = sum of coef(n) * (sum source) over
    ``sources``, sums of the same c_k c_(n-k) with plain signs: each side's
    weight plus its mirror k -> n-k agree, since c_k c_(n-k) is symmetric,
    and so do the right sides over the common 4^n."""
    def mirrored(w):
        return w + w(_N, _N - _K)

    den = lcm(s.den, *(t.den for _, t in sources))
    failures: List[Failure] = []
    for part, lhs, rhs in (
        ("weights", scale * mirrored(s.weight),
         sum((coef * mirrored(t.weight) for coef, t in sources), _Poly({}))),
        ("right side", scale * s.rhs * (den // s.den),
         sum((coef * t.rhs * (den // t.den) for coef, t in sources), _Poly({}))),
    ):
        if lhs != rhs:
            failures.append(({"identity": s.label, "obligation": f"{rule}: {part}"}, lhs, rhs))
    return failures


def _vanishes_at_odd_n(s: _ConvolutionSum) -> List[Failure]:
    """sum_k (-1)^k w(n, k) c_k c_(n-k) = 0 for odd n, since k -> n-k flips
    (-1)^k and keeps w(n, k) c_k c_(n-k), once w is symmetric."""
    mirror = s.weight(_N, _N - _K)
    if mirror != s.weight:
        return [({"identity": s.label, "obligation": "k <-> n-k"}, mirror, s.weight)]
    return []


def check_convolution(n_max: int) -> IdentityReport:
    """Prove the plain and alternating central-binomial self-convolutions.

    For every n >= 0, over the integers:

    * sum_k C(2k,k) C(2(n-k),n-k) = 4^n
    * sum_k (-1)^k C(2k,k) C(2(n-k),n-k) = (1+(-1)^n)/2 * C(n, n/2) * 2^n

    The plain sum and the alternating sum at even n = 2m (C(2m,m) 4^m)
    by WZ certificates (:func:`_prove`); at odd n the alternating sum
    vanishes by the symmetry k -> n-k.  ``n_max`` only labels the range.
    """
    _check_range("n_max", n_max, 0, CONVOLUTION_N_LIMIT)
    failures = (_prove(_PLAIN, _PLAIN_Z) + _prove(_ALTERNATING, _ALTERNATING_Z)
                + _vanishes_at_odd_n(_ALTERNATING))
    return IdentityReport("central-convolution", f"0 <= n <= {n_max}", failures)


def check_weighted_convolution(n_max: int) -> IdentityReport:
    """Prove the weighted self-convolutions with weights k(n-k), k and k^2.

    For every n >= 1, over the integers:

    * sum_k k(n-k) C(2k,k) C(2(n-k),n-k) = n(n-1) 2^(2n-3)
    * sum_k (-1)^k k(n-k) C(2k,k) C(2(n-k),n-k) = 0 for odd n
    * sum_k k C(2k,k) C(2(n-k),n-k) = n 2^(2n-1)
    * sum_k k^2 C(2k,k) C(2(n-k),n-k) = n(3n+1) 2^(2n-3)

    All sums run over the full range 0 <= k <= n.  For the k^2-weighted sum
    this full range is the convention that actually holds; stopping at
    k = n - 1 drops the nonzero term n^2 C(2n,n) and fails for every n >= 1
    (the unit tests pin that down).  The k^2 sum S2 has a WZ certificate;
    the k sum S1 is n/2 times the plain sum (proven again here), by the
    symmetry k -> n-k; the k(n-k) sum is n S1 - S2, and its alternating
    sum vanishes at odd n by the same symmetry.  ``n_max`` only labels the
    range.
    """
    _check_range("n_max", n_max, 1, CONVOLUTION_N_LIMIT)
    failures = (
        _prove(_K2, _K2_Z)
        + _prove(_PLAIN, _PLAIN_Z)
        + _derive(_K1, 2, ((_N, _PLAIN),), "2 S1 = n S0")
        + _derive(_KN, 1, ((_N, _K1), (-1, _K2)), "n S1 - S2")
        + _vanishes_at_odd_n(_ALTERNATING_KN)
    )
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
