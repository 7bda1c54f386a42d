"""Series family catalog: identifiers, parameters, and domain validation.

A :class:`FamilySpec` names one series from the catalog and carries its
parameters.  Construction validates the parameter domain exactly (rational
arithmetic only); everything numeric happens later in the engine and the
closed-form evaluator, which both realize the parameters with
:func:`x_real` and :func:`phi_real`.

:data:`FAMILIES` holds each family's structural facts in one row: group,
parameters, domain text, sign pattern, weight, central-binomial index and
F/L sequence (the first index follows from the weight and the index).  The
:class:`FamilySpec` validation, :func:`list_families`, the engine's tail
bound and summation kernel, and the closed forms all read it.

Catalog overview (n runs from 0, or from 1 for the n-weighted shapes and H3/H4):

========  =======================================================  ==========
id        n-th summand                                             parameter
========  =======================================================  ==========
F1        s⌈(n) C(2n,n) x^(2n+1) / ((2n+1) 4^n)                    x
F2        s⌊(n) C(2n,n) x^(2n+1) / ((2n+1) 4^n)                    x
F3 / F4   s⌈/s⌊(n) C(2n,n) x^n / 4^n                              x
F5 / F6   s⌈/s⌊(n) n C(2n,n) x^n / 4^n                            x
T1 / T2   s⌈/s⌊(n) C(2n,n) tan(phi)^n / ((2n+1) 4^n)              phi
T3 / T4   s⌈/s⌊(n) C(2n,n) tan(phi)^n / 4^n                       phi
T5 / T6   s⌈/s⌊(n) n C(2n,n) tan(phi)^n / 4^n                     phi
C1        (−1)^n C(4n,2n) x^(4n+1) / (4n+1)                        x
C2        (−1)^n C(4n+2,2n+1) x^(4n+3) / (4n+3)                    x
G1..G4    s⌈/s⌊(n) C(2n,n) F-or-L(mn+s) / (p^n (2n+1))            m, s, p
G5..G8    s⌈/s⌊(n) C(2n,n) F-or-L(mn+s) / p^n                     m, s, p
G9..G12   s⌊/s⌈(n) n C(2n,n) F-or-L(mn+s) / p^n                   m, s, p
H1        (−1)^n C(4n,2n) x^n / 16^n                               x
H2        C(4n,2n) x^n / 16^n                                      x
H3        (−1)^n C(4n−2,2n−1) x^n / 2^(4n−2)                       x
H4        C(4n−2,2n−1) x^n / 2^(4n−2)                              x
I1        C(4n,2n) L(rn) / (16^n L(r)^n)                           r
I2        C(4n,2n) / (4^n L(r)^(2n))                               r
I3        C(4n,2n) / 20^n                                          (none)
J1        C(4n,2n) H(n+1) / (16^n (n+1))                           (none)
========  =======================================================  ==========

where s⌈(n) = (−1)^ceil(n/2) and s⌊(n) = (−1)^floor(n/2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt, log10
from typing import NamedTuple, Optional, Tuple, Union

from mpmath import mp

from cbcseries.exact import fib_lucas
from cbcseries.precision import PrecisionContext, Real, UsageError

# Largest |m|, |s| (G) and r (I1, I2) accepted.  F_k and L_k have about
# 0.69 k bits; at |s| = 10^6 a G1 refusal takes about 0.4 s and at 10^7 7-9 s
# (Python 3.11, one Xeon core), so a larger index is refused before any F/L
# number is formed.
MAX_INDEX = 10**6
# Most digits in the numerator or denominator of a rational parameter:
# Python's default limit on converting an int to text, past which no message
# could print the value.
MAX_RATIONAL_DIGITS = 4300
_RATIONAL_BOUND = 10**MAX_RATIONAL_DIGITS
_RATIONAL_QUARTER_PI = Fraction(7853981, 10**7)  # the largest rational |phi| taken as <= pi/4


class SignPattern(enum.Enum):
    CEIL_HALF = "ceil-half"      # (−1)^ceil(n/2):  +,−,−,+,+,−,−,+,...
    FLOOR_HALF = "floor-half"    # (−1)^floor(n/2): +,+,−,−,+,+,−,−,...
    ALTERNATING = "alternating"  # (−1)^n
    PLUS = "plus"


# each pattern's signs at n = 0, 1, 2, 3: every one has period 4 in n
_SIGN_PERIOD = {SignPattern.CEIL_HALF: (1, -1, -1, 1), SignPattern.FLOOR_HALF: (1, 1, -1, -1),
                SignPattern.ALTERNATING: (1, -1, 1, -1), SignPattern.PLUS: (1, 1, 1, 1)}


def sign(pattern: SignPattern, n: int) -> int:
    if n < 0:
        raise UsageError(f"sign: n must be >= 0, got {n}")
    return _SIGN_PERIOD[pattern][n % 4]


@dataclass(frozen=True)
class SurdValue:
    """coeff * sqrt(radicand), both exact rationals (radicand >= 0).

    Exists so parameters like sqrt(2)/2 stay exact: the odd-power families
    only ever need x^2 (rational) plus one factor of x per term.
    """

    coeff: Fraction
    radicand: Fraction = Fraction(1)

    def __post_init__(self):
        if self.radicand < 0:
            raise UsageError("SurdValue radicand must be >= 0")

    def squared(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def as_rational(self) -> Optional[Fraction]:
        """The exact rational value, or None when genuinely irrational."""
        if self.coeff == 0:
            return Fraction(0)
        if self.radicand == 1:
            return self.coeff
        num = isqrt(self.radicand.numerator)
        den = isqrt(self.radicand.denominator)
        if num * num == self.radicand.numerator and den * den == self.radicand.denominator:
            return self.coeff * Fraction(num, den)
        return None


@dataclass(frozen=True)
class PhiValue:
    """An angle, either an exact rational multiple of pi or an exact rational.

    ``coeff * pi`` when ``times_pi`` else just ``coeff``.
    """

    coeff: Fraction
    times_pi: bool = False

    def bounded_by_quarter_pi(self) -> bool:
        if self.times_pi:
            return abs(self.coeff) <= Fraction(1, 4)
        # pi/4 > 0.785398163; a rational |phi| <= 0.7853981 is safely inside,
        # anything above 0.7853982 is outside.  The sliver between cannot be
        # decided exactly, so it is rejected (conservative).
        return abs(self.coeff) <= _RATIONAL_QUARTER_PI

    def is_zero(self) -> bool:
        return self.coeff == 0

    def exact_tan(self) -> Optional[Fraction]:
        """tan(phi) exactly where it is rational for |phi| <= pi/4: 0 at 0 and
        +-1 at +-pi/4; None elsewhere, where it is irrational."""
        if self.coeff == 0:
            return Fraction(0)
        if self.times_pi and abs(self.coeff) == Fraction(1, 4):
            return Fraction(1 if self.coeff > 0 else -1)
        return None

    def __str__(self) -> str:
        if self.times_pi:
            c = self.coeff
            if c == 1:
                return "pi"
            if c.numerator in (1, -1):
                s = "-" if c < 0 else ""
                return f"{s}pi/{c.denominator}"
            return f"{c}*pi"
        return str(self.coeff)


XValue = Union[Fraction, SurdValue]


def x_real(x: XValue, ctx: PrecisionContext) -> Real:
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


class Family(NamedTuple):
    """One catalog row: the structural facts of a family.

    Every summand is sign(n) * w(n) * C(k, k/2)/2^k * (parameter part) at
    k = a n + b, ``index`` = (a, b), with ``weight`` w(n) one of "recip"
    (1/(k+1)), "plain" (1), "linear" (n) or "harmonic" (H(n+1)/(n+1)).
    """

    group: str  # "F", "T", "C", "G", "H", "I" or "J"
    params: str  # as list-families prints them
    domain: str
    sign: SignPattern
    weight: str
    index: Tuple[int, int]
    seq: Optional[str] = None  # the F/L sequence the terms carry (G, I1)

    @property
    def first(self) -> int:
        """The first nonzero index: 1 for the n weight and for an index offset
        b < 0 (H3/H4's C(4n-2, 2n-1)), whose n = 0 summand is 0; else 0."""
        return 1 if self.weight == "linear" or self.index[1] < 0 else 0


_CEIL, _FLOOR = SignPattern.CEIL_HALF, SignPattern.FLOOR_HALF
_ALT, _PLUS = SignPattern.ALTERNATING, SignPattern.PLUS
_F = ("F", "x", "|x| <= 1 (certified evaluation needs |x| < 1)")
_T = ("T", "phi", "|phi| <= pi/4 (certified needs |phi| < pi/4)")
_T12 = ("T", "phi", _T[2] + ", phi != 0")
_C = ("C", "x", "|x| <= 1/2 (certified on the whole domain)")
_G = ("G", "m, s, p", "integers m, s; rational p >= 4*alpha^|m| (certified needs >)")
_H = ("H", "x", "|x| < 1")

FAMILIES = {
    "F1": Family(*_F, _CEIL, "recip", (2, 0)),
    "F2": Family(*_F, _FLOOR, "recip", (2, 0)),
    "F3": Family(*_F, _CEIL, "plain", (2, 0)),
    "F4": Family(*_F, _FLOOR, "plain", (2, 0)),
    "F5": Family(*_F, _CEIL, "linear", (2, 0)),
    "F6": Family(*_F, _FLOOR, "linear", (2, 0)),
    "T1": Family(*_T12, _CEIL, "recip", (2, 0)),
    "T2": Family(*_T12, _FLOOR, "recip", (2, 0)),
    "T3": Family(*_T, _CEIL, "plain", (2, 0)),
    "T4": Family(*_T, _FLOOR, "plain", (2, 0)),
    "T5": Family(*_T, _CEIL, "linear", (2, 0)),
    "T6": Family(*_T, _FLOOR, "linear", (2, 0)),
    "C1": Family(*_C, _ALT, "recip", (4, 0)),
    "C2": Family(*_C, _ALT, "recip", (4, 2)),
    "G1": Family(*_G, _CEIL, "recip", (2, 0), "F"),
    "G2": Family(*_G, _CEIL, "recip", (2, 0), "L"),
    "G3": Family(*_G, _FLOOR, "recip", (2, 0), "F"),
    "G4": Family(*_G, _FLOOR, "recip", (2, 0), "L"),
    "G5": Family(*_G, _CEIL, "plain", (2, 0), "F"),
    "G6": Family(*_G, _CEIL, "plain", (2, 0), "L"),
    "G7": Family(*_G, _FLOOR, "plain", (2, 0), "F"),
    "G8": Family(*_G, _FLOOR, "plain", (2, 0), "L"),
    "G9": Family(*_G, _FLOOR, "linear", (2, 0), "F"),
    "G10": Family(*_G, _FLOOR, "linear", (2, 0), "L"),
    "G11": Family(*_G, _CEIL, "linear", (2, 0), "F"),
    "G12": Family(*_G, _CEIL, "linear", (2, 0), "L"),
    "H1": Family(*_H, _ALT, "plain", (4, 0)),
    "H2": Family(*_H, _PLUS, "plain", (4, 0)),
    "H3": Family(*_H, _ALT, "plain", (4, -2)),
    "H4": Family(*_H, _PLUS, "plain", (4, -2)),
    "I1": Family("I", "r", "even r >= 0", _PLUS, "plain", (4, 0), "L"),
    "I2": Family("I", "r", "even r >= 2", _PLUS, "plain", (4, 0)),
    "I3": Family("I", "", "no parameters", _PLUS, "plain", (4, 0)),
    "J1": Family("J", "", "no parameters", _PLUS, "harmonic", (4, 0)),
}

ALL_FAMILIES = tuple(FAMILIES)
F_FAMILIES, T_FAMILIES, C_FAMILIES, G_FAMILIES, H_FAMILIES, I_FAMILIES = (
    tuple(fam for fam, row in FAMILIES.items() if row.group == g) for g in "FTCGHI"
)


def _abs_le(x: XValue, bound: Fraction) -> bool:
    if isinstance(x, SurdValue):
        return x.squared() <= bound * bound
    return abs(x) <= bound


def check_rational_digits(name: str, value) -> None:
    """Refuse a Fraction, or a surd's or angle's parts, whose numerator or
    denominator has more than MAX_RATIONAL_DIGITS digits, without formatting it."""
    for v in (getattr(value, "coeff", value), getattr(value, "radicand", 1)):
        if isinstance(v, Fraction) and max(abs(v.numerator), v.denominator) >= _RATIONAL_BOUND:
            raise UsageError(f"{name} must have a numerator and denominator of at most "
                             f"{MAX_RATIONAL_DIGITS} digits, the digit limit")


def _check_index(fam: str, name: str, value: int) -> None:
    """Refuse a Fibonacci/Lucas index with |value| past MAX_INDEX."""
    if abs(value) > MAX_INDEX:
        raise UsageError(f"{fam}: |{name}| must be <= {MAX_INDEX}, the index limit, got {value}")


def four_alpha_pow_cmp(p: Fraction, m: int) -> int:
    """Sign of (p − 4·alpha^|m|), decided exactly.

    Uses 4·alpha^k = 2·L_k + 2·sqrt5·F_k for k = |m| >= 0 and integer
    squaring; returns −1, 0, or +1.  For rational p the result is never 0
    when F_k > 0 (sqrt5 is irrational), but 0 is handled for completeness.
    """
    k = abs(m)
    f, ell = fib_lucas(k)
    a = p - 2 * ell  # compare a with 2*sqrt5*f, both sides of known sign
    if f == 0:  # k = 0: 4*alpha^0 = 4, and a = p − 4 exactly
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a <= 0:
        return -1
    lhs = a * a
    rhs = Fraction(20) * f * f
    return -1 if lhs < rhs else (1 if lhs > rhs else 0)


def _four_alpha_pow_text(m: int) -> str:
    """4 alpha^|m| to 6 significant digits, as a float prints it where it fits
    one, else as a mantissa and an exponent read off its log10."""
    e = abs(m) * log10(1.618033988749895) + log10(4)
    if e < 300:
        return f"{4 * 1.618033988749895 ** abs(m):.6g}"
    exponent = floor(e)
    mantissa = round(10 ** (e - exponent), 5)
    if mantissa >= 10:
        mantissa, exponent = mantissa / 10, exponent + 1
    return f"{mantissa:.6g}e+{exponent}"


@dataclass(frozen=True)
class FamilySpec:
    """One series from the catalog plus its parameters.

    Exactly the parameters the family needs may be given; the rest stay None.
    A G family's F or L sequence is fixed by its id (``FAMILIES[id].seq``).
    Construction raises :class:`UsageError` on a domain violation.  The
    boundary of a domain (|x| = 1, |phi| = pi/4, p = 4 alpha^|m|) is accepted
    here; whether evaluation can be *certified* there is the engine's call.
    """

    family: str
    x: Optional[XValue] = None
    phi: Optional[PhiValue] = None
    m: Optional[int] = None
    s: Optional[int] = None
    p: Optional[Fraction] = None
    r: Optional[int] = None

    def __post_init__(self):
        fam = self.family
        if fam not in FAMILIES:
            raise UsageError(f"unknown family {fam!r}")
        row = FAMILIES[fam]
        needed = set(filter(None, row.params.split(", ")))
        given = {name for name in ("x", "phi", "m", "s", "p", "r")
                 if getattr(self, name) is not None}
        extra = given - needed
        missing = needed - given
        if extra:
            raise UsageError(f"{fam} does not take parameter(s) {sorted(extra)}")
        if missing:
            raise UsageError(f"{fam} requires parameter(s) {sorted(missing)}")
        for name in given & {"x", "phi", "p"}:
            check_rational_digits(f"{fam}: {name}", getattr(self, name))
        self._validate(row)

    def _validate(self, row: Family):
        fam, group = self.family, row.group
        if group == "F":
            if not isinstance(self.x, (Fraction, SurdValue)):
                raise UsageError(f"{fam}: x must be an exact rational or surd")
            if not _abs_le(self.x, Fraction(1)):
                raise UsageError(f"{fam}: requires |x| <= 1, got x = {self.x}")
        elif group == "T":
            if not isinstance(self.phi, PhiValue):
                raise UsageError(f"{fam}: phi must be a PhiValue")
            if not self.phi.bounded_by_quarter_pi():
                bound = "pi/4" if self.phi.times_pi else (
                    f"{float(_RATIONAL_QUARTER_PI)} for a rational phi (write the boundary "
                    "itself as pi/4)")
                raise UsageError(f"{fam}: requires |phi| <= {bound}, got phi = {self.phi}")
            if row.weight == "recip" and self.phi.is_zero():
                raise UsageError(f"{fam}: phi = 0 is excluded (cot(phi) singular)")
        elif group == "C":
            if not isinstance(self.x, Fraction):
                raise UsageError(f"{fam}: x must be an exact rational")
            if not abs(self.x) <= Fraction(1, 2):
                raise UsageError(f"{fam}: requires |x| <= 1/2, got x = {self.x}")
        elif group == "G":
            for name in ("m", "s"):
                if not isinstance(getattr(self, name), int):
                    raise UsageError(f"{fam}: {name} must be an integer")
                _check_index(fam, name, getattr(self, name))
            if not isinstance(self.p, Fraction):
                raise UsageError(f"{fam}: p must be an exact rational")
            if four_alpha_pow_cmp(self.p, self.m) < 0:
                raise UsageError(f"{fam}: requires p >= 4*alpha^|m| "
                                 f"(~{_four_alpha_pow_text(self.m)}), got p = {self.p}")
        elif group == "H":
            if not isinstance(self.x, Fraction):
                raise UsageError(f"{fam}: x must be an exact rational")
            if not abs(self.x) < 1:
                raise UsageError(f"{fam}: requires |x| < 1, got x = {self.x}")
        elif row.params == "r":
            low = 0 if fam == "I1" else 2
            if not isinstance(self.r, int) or self.r % 2 or self.r < low:
                raise UsageError(f"{fam}: r must be an even integer >= {low}, got {self.r}")
            _check_index(fam, "r", self.r)

    # -- structural helpers used by the engine and the CLI -------------------

    def describe(self) -> str:
        parts = [self.family]
        if self.x is not None:
            if isinstance(self.x, SurdValue):
                parts.append(f"x={self.x.coeff}*sqrt({self.x.radicand})")
            else:
                parts.append(f"x={self.x}")
        if self.phi is not None:
            parts.append(f"phi={self.phi}")
        for name in ("m", "s", "p", "r"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        if FAMILIES[self.family].group == "G":
            parts.append(f"seq={FAMILIES[self.family].seq}")
        return " ".join(parts)


def list_families() -> list[dict]:
    """Machine-readable catalog: id, parameters, domain, series shape."""
    return [{"id": fam, "parameters": row.params, "domain": row.domain,
             "sign": row.sign.value, "starts_at": row.first}
            for fam, row in FAMILIES.items()]
