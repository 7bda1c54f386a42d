"""Exact proofs of the finite identities and lemmas behind the series catalog.

Every check in this module returns an :class:`IdentityReport`, and every one
is a proof.  The five checks of sums hold for every n.  The
central-binomial self-convolutions, the binomial transform and the
logarithmic moment sum are proven by WZ and Gosper certificates, checked as
polynomial identities over the integers plus their boundary terms and base
cases (:func:`_prove`) on every call.  The sign-split rearrangement is
linear in the sequence, so it is proven by comparing its integer weights
over one period of the signs.  Their ``n_max`` only labels the range.  The
paper's two analytic lemmas (``check_lemma1``, ``check_lemma2``) hold for
every real x: each is proven by identities in Z[x][s] modulo s^2 = c(x),
s = sqrt(c(x)) (:func:`_prove_in_field`).  A reported failure is exact,
never a rounding artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .families import SignPattern, sign
from .precision import UsageError

Failure = Tuple[dict, object, object]

# Largest range bounds accepted.  The exact checks are proofs for every n
# and take a few milliseconds at any bound; the limits stay so that a
# larger --n-max still exits 2, as it did when each check swept its range.
CONVOLUTION_N_LIMIT = 2000
TRANSFORM_N_LIMIT = 1000
SIGN_SPLIT_N_LIMIT = 2000
HARMONIC_V_LIMIT = 1000


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


class _Poly:
    """An exact polynomial in n, k and j, held as {(a, b, c): coefficient of
    n^a k^b j^c} without zero coefficients: just the algebra the
    certificates below need.  The lemma proofs read n as x and k as a
    square root s = sqrt(c(x)), c a polynomial in n alone."""

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

    __radd__ = __add__

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

    def reduced(self, c: "_Poly") -> "_Poly":
        """The remainder modulo k^2 - c, of degree at most 1 in k: each k^b
        becomes k^(b mod 2) c^(b // 2).  As k^2 - c is monic in k, two
        polynomials are equal modulo it exactly when their remainders are."""
        powers = [_ONE]
        terms: Dict[Tuple[int, int, int], int] = {}
        for (a, b, d), x in self.terms.items():
            while len(powers) <= b // 2:
                powers.append(powers[-1] * c)
            for (e, _, _), y in powers[b // 2].terms.items():
                key = (a + e, b % 2, d)
                terms[key] = terms.get(key, 0) + x * y
        return _Poly(terms)

    def s_derivative(self, c: "_Poly") -> "_Poly":
        """s d/dx of this polynomial in x = n and s = k, s^2 = c(x): as
        ds/dx = c'/(2s), that is s d/dx = s d/dn + (c'/2) d/dk, again a
        polynomial (c' has even coefficients)."""
        half = _Poly({(a - 1, 0, 0): a * x // 2 for (a, _, _), x in c.terms.items() if a})
        by_n = _Poly({(a - 1, b + 1, d): a * x for (a, b, d), x in self.terms.items() if a})
        by_k = _Poly({(a, b - 1, d): b * x for (a, b, d), x in self.terms.items() if b})
        return by_n + half * by_k

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


# The lemma proofs read x as n and s = sqrt(c(x)) as k.
_X, _S = _N, _K


class _ArcsinSplit(NamedTuple):
    """Lemma 1's claim g(x)^2 = numer / denom, with s = sqrt(c(x))."""

    c: _Poly
    numer: _Poly
    denom: _Poly


class _DerivativeForm(NamedTuple):
    """One map of Lemma 2: arctan (sign 1) or artanh (sign -1) of
    u = x / sqrt(1 + s), whose claimed derivatives are sqrt(p / (2 s^2))
    and q sqrt(p / (2 s^6))."""

    label: str
    sign: int
    p: _Poly
    q: _Poly


class _DerivativeForms(NamedTuple):
    """Lemma 2's claims, with s = sqrt(c(x)): the two maps, F and G, and
    the claimed F''G'' = product / (2 s^6)."""

    c: _Poly
    forms: Tuple[_DerivativeForm, _DerivativeForm]
    product: _Poly


# g(x) = sqrt(2) x / sqrt(s + 1), s = sqrt(1 + 4 x^4)
_LEMMA1 = _ArcsinSplit(1 + 4 * _X**4, 2 * _X**2, _S + 1)
# F = arctan(x / sqrt(1 + s)) and G = artanh(x / sqrt(1 + s)), s = sqrt(1 + x^4):
# F' = sqrt((s - x^2) / (2 s^2)), F'' = -x (s + 2 x^2) sqrt((s - x^2) / (2 s^6)),
# G' = sqrt((s + x^2) / (2 s^2)), G'' = x (s - 2 x^2) sqrt((s + x^2) / (2 s^6)),
# F'G' = 1 / (2 s^2) and F''G'' = x^2 (3 x^4 - 1) / (2 s^6)
_LEMMA2 = _DerivativeForms(
    1 + _X**4,
    (_DerivativeForm("F", 1, _S - _X**2, -_X * (_S + 2 * _X**2)),
     _DerivativeForm("G", -1, _S + _X**2, _X * (_S - 2 * _X**2))),
    _X**2 * (3 * _X**4 - 1),
)


def _prove_in_field(label: str, c: _Poly, obligations) -> List[Failure]:
    """Prove each (obligation, lhs, rhs), polynomials in x and s, modulo
    s^2 = c(x): the two sides have equal remainders (:meth:`_Poly.reduced`),
    so they agree wherever s = sqrt(c(x)).  Each failure names the identity
    and the obligation, with the two remainders."""
    failures: List[Failure] = []
    for obligation, lhs, rhs in obligations:
        lhs, rhs = _Poly.of(lhs).reduced(c), _Poly.of(rhs).reduced(c)
        if lhs != rhs:
            failures.append(({"identity": label, "obligation": obligation}, lhs, rhs))
    return failures


def check_lemma1() -> IdentityReport:
    """Prove the split of arcsin((1+i)x) into arctan and artanh, for every real x.

    On the principal branch,

        arcsin((1+i) x) = arctan(g) + i artanh(g),
        g = sqrt(2) x / sqrt(s + 1),  s = sqrt(1 + 4 x^4).

    With g^2 = 2x^2 / (s + 1) the one obligation is

    * g^2 = x^2 (1 - g^4), that is 2x^2 (s+1) = x^2 ((s+1)^2 - 4x^4)
      modulo s^2 = 1 + 4x^4.

    For x != 0 it gives 1 - g^4 = g^2 / x^2 > 0, so g^2 < 1, and
    g / sqrt(1 - g^4) = x, as g has the sign of x.  Then
    sin(arctan g + i artanh g) = (1+i) g / sqrt(1 - g^4) = (1+i) x, from
    sin(a + ib) = sin a cosh b + i cos a sinh b, and at x = 0 both sides
    vanish.  |arctan g| < pi/4, and sin is injective on the strip
    |Re w| < pi/2 that holds the principal arcsin, so the split holds.
    """
    c, numer, denom = _LEMMA1
    return IdentityReport("arcsin-complex-split", "every real x", _prove_in_field(
        "Lemma 1", c,
        [("g^2 = x^2 (1 - g^4)", numer * denom, _X**2 * (denom**2 - numer**2))]))


def check_lemma2() -> IdentityReport:
    """Prove the derivative closed forms of the paired inverse-tangent maps.

    With s = sqrt(1 + x^4), u = x / sqrt(1 + s), F = arctan(u) and
    G = artanh(u), for every real x:

        F'(x)  =  sqrt((s - x^2) / (2 (1 + x^4)))
        G'(x)  =  sqrt((s + x^2) / (2 (1 + x^4)))
        F''(x) = -x (s + 2 x^2) sqrt((s - x^2) / (2 (1 + x^4)^3))
        G''(x) =  x (s - 2 x^2) sqrt((s + x^2) / (2 (1 + x^4)^3))
        F' G'  = 1 / (2 (1 + x^4))
        F'' G'' = x^2 (3 x^4 - 1) / (2 (1 + x^4)^3)

    Write D = s d/dx, a map of Z[x][s] into itself (:meth:`_Poly.s_derivative`),
    and each claimed F' as sqrt(p / (2 s^2)), F'' as q sqrt(p / (2 s^6)).
    The obligations, modulo s^2 = 1 + x^4:

    * u': 2s(1+s) - x D(1+s) = 2(1+s).  As s (1+s)^(3/2) u' =
      s(1+s) - x D(1+s)/2, u' = 1 / (s sqrt(1+s)) > 0.  s > x^2, as
      s^2 = 1 + x^4, so u^2 = x^2 / (1+s) < 1 and both maps are defined.
    * F'^2 and G'^2: 2(1+s) = p w^2, w = 1 + s +- x^2 = (1+s)(1 +- u^2).
      Then F' = u' / (1 +- u^2) = sqrt(1+s) / (s w) > 0 has the square
      p / (2 s^2), so F' is the claimed root.
    * F'' and G'': s D(p) - 2p D(s) = 2qp, that is (F'^2)' = q p / s^4 =
      2 F' (the claimed F'').  As F' > 0, F'' is the claimed form, its
      sign included.
    * F'G' and F''G'': p_F p_G = 1, so F'G' = sqrt(p_F p_G) / (2 s^2) is
      1 / (2 s^2), and q_F q_G is the claimed x^2 (3 x^4 - 1), as
      F''G'' = q_F q_G sqrt(p_F p_G) / (2 s^6).
    """
    c, forms, product = _LEMMA2
    v = 1 + _S  # u = x / sqrt(v)
    obligations = [("u'", 2 * _S * v - _X * v.s_derivative(c), 2 * v)]
    for f in forms:
        obligations += [
            (f"{f.label}'^2", 2 * v, f.p * (v + f.sign * _X**2) ** 2),
            (f"{f.label}''", _S * f.p.s_derivative(c) - 2 * f.p * _S.s_derivative(c),
             2 * f.q * f.p),
        ]
    tan, tanh = forms
    obligations += [("F'G'", tan.p * tanh.p, 1), ("F''G''", tan.q * tanh.q, product)]
    return IdentityReport("paired-derivative-forms", "every real x",
                          _prove_in_field("Lemma 2", c, obligations))


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
