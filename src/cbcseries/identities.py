"""Exact proofs and checks of the finite identities behind the series catalog.

Every check in this module returns an :class:`IdentityReport`.  The five
exact checks hold for every n.  The central-binomial self-convolutions, the
binomial transform and the logarithmic moment sum are proven by WZ and
Gosper certificates, checked as polynomial identities over the integers
plus their boundary terms and base cases (:func:`_prove`) on every call.
The sign-split rearrangement is linear in the sequence, so it is proven by
comparing its integer weights over one period of the signs.  Their ``n_max``
only labels the range, and a reported failure is exact, never a rounding
artifact.  The two analytic checks (``check_lemma1``, ``check_lemma2``)
compare high-precision numeric evaluations under an explicit
:class:`~cbcseries.precision.PrecisionContext` and quote their tolerances in
the report id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from mpmath import mp

from .families import SignPattern, sign
from .precision import PrecisionContext, UsageError

Failure = Tuple[dict, object, object]

# Largest range bounds accepted.  The exact checks are proofs for every n
# and take a few milliseconds at any bound; the limits stay so that a
# larger --n-max still exits 2, as it did when each check swept its range.
CONVOLUTION_N_LIMIT = 2000
TRANSFORM_N_LIMIT = 1000
SIGN_SPLIT_N_LIMIT = 2000
HARMONIC_V_LIMIT = 1000
# Largest --digits of the two numeric lemma checks, whose time grows about
# as digits^2: at this limit 1.8 s (arcsin-split) and 2.9 s
# (derivative-forms), and at 100,000 digits each runs past two minutes.
LEMMA_DIGITS_LIMIT = 5000


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check.

    ``failures`` holds ``(parameters, lhs, rhs)`` triples for every parameter
    choice or proof obligation where the two sides disagreed; ``status`` is
    ``"pass"`` exactly when that list is empty.
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


def _check_range(name: str, value: int, low: int, high: int) -> None:
    """Refuse a range bound outside [low, high] before any work is done."""
    if not low <= value <= high:
        raise UsageError(f"{name} must be in [{low}, {high}], got {value}")


def check_lemma_digits(ctx: PrecisionContext) -> None:
    """Refuse a lemma check past ``LEMMA_DIGITS_LIMIT`` before any work is done."""
    _check_range("digits of the lemma checks", ctx.digits, 1, LEMMA_DIGITS_LIMIT)


class _Poly:
    """An exact polynomial in n, k and j, held as {(a, b, c): coefficient of
    n^a k^b j^c} without zero coefficients: just the algebra the
    certificates below need."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, int, int], int]):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def of(value) -> "_Poly":
        return value if isinstance(value, _Poly) else _Poly({(0, 0, 0): value})

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
        terms: Dict[Tuple[int, int, int], int] = {}
        for (a, b, c), x in self.terms.items():
            for (d, e, f), y in _Poly.of(other).terms.items():
                key = (a + d, b + e, c + f)
                terms[key] = terms.get(key, 0) + x * y
        return _Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "_Poly":
        return _product([self] * e)

    def __eq__(self, other) -> bool:
        return self.terms == _Poly.of(other).terms

    def __call__(self, n, k, j=None) -> "_Poly":
        """This polynomial at n, k and j (j itself when not given), each a
        polynomial or an int."""
        powers = ([_ONE], [_ONE], [_ONE])
        out = _Poly({})
        for exponents, c in self.terms.items():
            term = _Poly.of(c)
            for pows, x, e in zip(powers, (n, k, _J if j is None else j), exponents):
                while len(pows) <= e:
                    pows.append(pows[-1] * x)
                if e:
                    term = term * pows[e]
            out += term
        return out

    def at(self, n: int, k: int, j: int = 0) -> int:
        return sum(c * n**a * k**b * j**d for (a, b, d), c in self.terms.items())

    def __str__(self) -> str:
        out = ""
        for exponents, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("nkj", exponents) if e)
            factor = str(abs(c)) if abs(c) != 1 or not mono else ""
            out += (" - " if c < 0 else " + ") + "*".join(filter(None, (factor, mono)))
        text = out[3:] if out else "0"
        return "-" + text if out.startswith(" - ") else text


_ONE = _Poly({(0, 0, 0): 1})
_N = _Poly({(1, 0, 0): 1})
_K = _Poly({(0, 1, 0): 1})
_J = _Poly({(0, 0, 1): 1})


def _product(factors: Iterable[_Poly]) -> _Poly:
    out = _ONE
    for f in factors:
        out = out * f
    return out


class _Summand(NamedTuple):
    """A sum S(n) = sum_k F(n, k) as :func:`_prove` reads it.

    F(n, k) vanishes off low <= k <= top(n), top(n) <= top(n+1).  On
    low <= k <= H = top(n+1), F(n+1, k) = h U and F(n, k) = h E with h a
    hypergeometric term, nonzero there, whose ratio h(n, k+1)/h(n, k) is
    a/b, b nonzero for low <= k < H.  From n to n + 1 the sum rises by
    h(n, low) rise[0]/rise[1], or stays the same where ``rise`` is None.
    ``right`` are the polynomials that keep one sign where F and the rise
    are defined, and ``base`` the two sides of the base case.
    """

    label: str
    low: object
    high: _Poly
    U: _Poly
    E: _Poly
    a: _Poly
    b: _Poly
    right: Tuple[_Poly, ...]
    base: Tuple[object, object]
    rise: Optional[Tuple[_Poly, _Poly]] = None

    def summand(self, start) -> "_Summand":
        return self


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

    def summand(self, start: int) -> _Summand:
        """F, the summand over the right side, as a :class:`_Summand`, with
        the sum at n = start as its base.  h = sign^k c_k c_(H-k) /
        (r(n+1) prod_i (2L+2i-2k-1)) up to a factor free of k, i = 1..step,
        since c_(L-k) = c_(H-k) prod_i (L+i-k)/(2 (2L+2i-2k-1)); its ratio
        has b = (k+1)(2L-2k-1), odd in its second factor; r's ratio is
        u/v = r(n+1) 4 (4n+2)^central / (r(n) (n+1)^central)."""
        L, H, steps = self.step * _N, self.step * _N + self.step, range(1, self.step + 1)
        u = 4 * self.rhs(_N + 1, _K) * (4 * _N + 2) ** self.central
        v = self.rhs * (_N + 1) ** self.central
        c = [comb(2 * i, i) for i in range(self.step * start + 1)]
        top = self.step * start
        lhs = sum(self.sign**k * self.weight.at(start, k) * c[k] * c[top - k]
                  for k in range(top + 1))
        rhs = Fraction(self.rhs.at(start, 0) * 4**start * c[start] ** self.central, self.den)
        return _Summand(
            self.label, 0, H,
            v * 2**self.step * self.weight(_N + 1, _K)
            * _product(2 * L + 2 * i - 2 * _K - 1 for i in steps),
            u * self.weight * _product(L + i - _K for i in steps),
            self.sign * (2 * _K + 1) * (H - _K), (_K + 1) * (2 * L - 2 * _K - 1),
            (self.rhs,), (lhs, rhs),
        )


class _Certificate(NamedTuple):
    """A certificate z = numer / prod(denom), valid from n = start (an int,
    or a polynomial in j), for a sum whose n-difference vanishes on the
    ``low`` indices above the lower end of its support."""

    start: object
    low: int
    numer: _Poly
    denom: Tuple[_Poly, ...]


# The certificates come from sympy's gosper_term of F(n+1,k) - F(n,k) in k
# (after combsimp), F the summand over its right side;
# tools/derive_certificates.py derives them again.  sympy is not a
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

# The coefficient of t^j of the binomial transform, F(n, k) =
# C(k,j) c_k c_(n-k) / (4^(n-j) C(n,j) c_j) on j <= k <= n, n >= j:
# h = F(n+1, k) / ((2n-2k+1)(n+1-j)), the first factor odd and the second
# at least 1, so F(n, k) = h 2(n+1)(n+1-k) and b = (k+1-j)(2n-2k-1) != 0.
# At the base n = j the sum is its one term F(j, j).  F(0, 0) = 1 at j = 0
# (every factor is 1), and along the diagonal F(n+1, k+1; j+1) / F(n, k; j)
# = (2k+1)(j+1) / ((n+1)(2j+1)): the base's two sides are this ratio's
# numerator and denominator at n = k = j, whose equality makes F(j, j) = 1.
_TRANSFORM = _Summand(
    "binomial transform", _J, _N + 1,
    (2 * _N - 2 * _K + 1) * (_N + 1 - _J), 2 * (_N + 1) * (_N + 1 - _K),
    (2 * _K + 1) * (_N + 1 - _K), (_K + 1 - _J) * (2 * _N - 2 * _K - 1),
    (_N + 1 - _J,), (((2 * _K + 1) * (_J + 1))(_J, _J), ((_N + 1) * (2 * _J + 1))(_J, _J)),
)
_TRANSFORM_Z = _Certificate(
    _J, 0, (_K - _J) * (2 * _K - 2 * _N - 1), (2 * _J * _K - 2 * _J * _N - _J - _N - 1,)
)
# S(v) = v sum_k C(v-1,k) (-1)^k / (k+1)^2, in n = v, on 0 <= k <= v-1:
# with h = (-1)^k C(v+1,k+1) / ((v+1)(k+1)), F(v+1, k) = h (v+1) and
# F(v, k) = h (v-k), since v C(v-1,k) = (k+1) C(v,k+1).  S rises by
# 1/(v+1) = h(v, 0)/(v+1) from S(1) = 1, so S(v) = H_v.
_HARMONIC = _Summand(
    "harmonic", 0, _N, _N + 1, _N - _K, -(_N - _K) * (_K + 1), (_K + 2) ** 2, (_N + 1,),
    (sum(Fraction(comb(0, k) * (-1) ** k, (k + 1) ** 2) for k in range(1)), Fraction(1)),
    (_ONE, _N + 1),
)
_HARMONIC_Z = _Certificate(1, 0, -(_K + 1), (_N + 1,))


def _sign(f: _Poly, start) -> int:
    """+1 or -1 where every coefficient of f(start + t, ., j), a polynomial
    in t and j alone, has that sign, so f has it at every n >= start and
    j >= 0; 0 where this test proves no sign."""
    coeffs = f(_N + start, _K).terms
    for s in (1, -1):
        if s * coeffs.get((0, 0, 0), 0) > 0 and all(s * c > 0 for c in coeffs.values()):
            return s
    return 0


def _nonzero_between(f: _Poly, start, low, high) -> bool:
    """Whether f(n, k) != 0 for n >= start and low(n) <= k <= high(n) is
    proven (low and high polynomials in n and j, or ints): f affine in k
    with one sign at both ends, or convex (concave) in k and negative
    (positive) at both ends."""
    ends = {_sign(f(_N, low), start), _sign(f(_N, high), start)}
    degree = max((b for _, b, _ in f.terms), default=0)
    if degree <= 1:
        return ends in ({1}, {-1})
    lead = _sign(_Poly({(a, 0, c): x for (a, b, c), x in f.terms.items() if b == 2}), start)
    return degree == 2 and lead != 0 and ends == {-lead}


def _prove(s, z: _Certificate) -> List[Failure]:
    """Prove the sum ``s`` (a :class:`_Summand`, or a sum that gives one)
    for every n >= z.start by a certificate.

    With f(n, k) = F(n+1, k) - F(n, k) = h p, p = U - E, and G = z f on
    low' <= k <= H (low' = low + z.low; 0 elsewhere), G(n, k+1) - G(n, k) =
    f(n, k) at every low' <= k <= H telescopes to sum_k F(n+1, k) -
    sum_k F(n, k) = -G(n, low'), which the lower end makes the sum's rise,
    and the base makes the sum right at n = start.  The obligations:

    * right side: each of s.right keeps one sign, so F and the rise are
      defined;
    * support: p = 0 on low <= k < low', so f vanishes there;
    * denominator: no factor of z's denominator vanishes on low' <= k <= H;
    * lower end: numer(n, low') p(n, low') = 0, so G(n, low') = 0, or where
      the sum rises, numer(n, low') p(n, low') rise[1] + rise[0]
      denom(n, low') = 0, so -G(n, low') is the rise;
    * upper end: (numer(n, H) + denom(n, H)) p(n, H) = 0, so
      G(n, H+1) - G(n, H) = f(n, H);
    * interior: for low' <= k < H the identity divided by h(n, k) and
      multiplied by b denom(k) denom(k+1), in Z[n, k, j];
    * base: its two sides.

    Each failure names the sum and the obligation, with the two sides that
    differ (the interior's difference against 0), or the polynomial of no
    proven sign and "nonzero".
    """
    d = s.summand(z.start)
    failures: List[Failure] = []

    def require(obligation, lhs, rhs):
        if lhs != rhs:
            failures.append(({"identity": d.label, "obligation": obligation}, lhs, rhs))

    def nonzero(obligation, f, proven):
        if not proven:
            failures.append(({"identity": d.label, "obligation": obligation}, f, "nonzero"))

    p, H, low = d.U - d.E, d.high, d.low + z.low
    for f in d.right:
        nonzero("right side", f, _sign(f, z.start))
    for i in range(z.low):
        require("support", p(_N, d.low + i), 0)
    for f in z.denom:  # on low' <= k < H, and at H alone, where a convex factor may turn
        nonzero("denominator", f,
                _nonzero_between(f, z.start, low, H - 1) and _sign(f(_N, H), z.start))
    q = _product(z.denom)
    lower = z.numer(_N, low) * p(_N, low)
    if d.rise:
        lower = lower * d.rise[1] + d.rise[0] * q(_N, low)
    require("lower end", lower, 0)
    require("upper end", (z.numer(_N, H) + q(_N, H)) * p(_N, H), 0)
    q1, p1 = q(_N, _K + 1), p(_N, _K + 1)
    require("interior", z.numer(_N, _K + 1) * p1 * d.a * q - (z.numer + q) * p * d.b * q1, 0)
    require("base", *d.base)
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


def check_binomial_transform(n_max: int) -> IdentityReport:
    """Prove the binomial transform linking the two convolution kernels.

    For every n >= 0 and every t:

        sum_k 4^(n-k) C(n,k) C(2k,k) t^k
            = sum_k C(2k,k) C(2(n-k),n-k) (1+t)^k

    Both sides are polynomials in t.  Their coefficients of t^j agree,

        sum_k C(k,j) C(2k,k) C(2(n-k),n-k) = 4^(n-j) C(n,j) C(2j,j),

    for every n >= j >= 0 by one WZ certificate in n, k and j
    (:func:`_prove`), and both vanish at n < j.  ``n_max`` only labels the
    range.
    """
    _check_range("n_max", n_max, 0, TRANSFORM_N_LIMIT)
    return IdentityReport("binomial-transform", f"0 <= n <= {n_max}; every t",
                          _prove(_TRANSFORM, _TRANSFORM_Z))


def check_sign_split(n_max: int) -> IdentityReport:
    """Prove the sign-split rearrangement for every sequence.

    For any sequence f_0, f_1, ..., truncated at any length, with
    s+(n) = (-1)^ceil(n/2) and s-(n) = (-1)^floor(n/2):

    * sum form:        sum_n (s+(n) + s-(n)) f_n = 2 sum_j (-1)^j f_{2j}
    * difference form: sum_n (s+(n) - s-(n)) f_n = -2 sum_j (-1)^j f_{2j+1}

    Both forms are linear in f, so each holds for every sequence exactly
    when both sides give f_n the same integer weight at every n.  Every
    weight, s+(n) +- s-(n) on the left and +-2 or 0 on the right, has period
    4 in n, so comparing them at n = 0..3 proves both forms for every n.
    ``n_max`` only labels the range.
    """
    _check_range("n_max", n_max, 0, SIGN_SPLIT_N_LIMIT)
    failures: List[Failure] = []
    # the right sides' weights of f_n: (sum form, difference form)
    for n, right in enumerate(((2, 0), (0, -2), (-2, 0), (0, 2))):
        plus, minus = sign(SignPattern.CEIL_HALF, n), sign(SignPattern.FLOOR_HALF, n)
        for form, lhs, rhs in zip(("sum", "difference"), (plus + minus, plus - minus), right):
            if lhs != rhs:
                failures.append(({"n": n, "form": form}, lhs, rhs))
    return IdentityReport("sign-split", f"every sequence, 0 <= n <= {n_max}", failures)


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
    """Prove the logarithmic moment sum behind the harmonic-number series.

    Expanding (1 - x^2)^(v-1) binomially inside int_0^1 x (1-x^2)^(v-1) ln x dx
    and using int_0^1 x^(2k+1) ln x dx = -1/(2k+2)^2 turns the integral into
    a finite rational sum, so for every v >= 1 this proves

        sum_k C(v-1,k) (-1)^k / (2k+2)^2 = H_v / (4v),

    H_v the v-th harmonic number.  S(v) = v sum_k C(v-1,k) (-1)^k / (k+1)^2
    has S(1) = 1 and S(v+1) - S(v) = sum_k C(v+1,k+1) (-1)^k / (v+1), which
    is 1/(v+1) by the Gosper certificate -(k+1)/(v+1) (:func:`_prove`), so
    S(v) = H_v.  ``v_max`` only labels the range.
    """
    _check_range("v_max", v_max, 1, HARMONIC_V_LIMIT)
    return IdentityReport("harmonic-log-moment", f"1 <= v <= {v_max}",
                          _prove(_HARMONIC, _HARMONIC_Z))
