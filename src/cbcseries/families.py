"""Series family catalog: identifiers, parameters, and domain validation.

A :class:`FamilySpec` names one series from the catalog and carries its
parameters.  Construction validates the parameter domain exactly (rational
arithmetic only); everything numeric happens later in the engine and the
closed-form evaluator.

Catalog overview (n runs from 0, or from 1 for the n-weighted shapes):

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
from math import isqrt
from typing import Optional, Union

from cbcseries.exact import fib_lucas
from cbcseries.precision import UsageError


class SignPattern(enum.Enum):
    CEIL_HALF = "ceil-half"      # (−1)^ceil(n/2):  +,−,−,+,+,−,−,+,...
    FLOOR_HALF = "floor-half"    # (−1)^floor(n/2): +,+,−,−,+,+,−,−,...
    ALTERNATING = "alternating"  # (−1)^n
    PLUS = "plus"


def sign(pattern: SignPattern, n: int) -> int:
    if n < 0:
        raise UsageError(f"sign: n must be >= 0, got {n}")
    if pattern is SignPattern.CEIL_HALF:
        return -1 if ((n + 1) // 2) % 2 else 1
    if pattern is SignPattern.FLOOR_HALF:
        return -1 if (n // 2) % 2 else 1
    if pattern is SignPattern.ALTERNATING:
        return -1 if n % 2 else 1
    return 1


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
        return abs(self.coeff) <= Fraction(7853981, 10**7)

    def is_zero(self) -> bool:
        return self.coeff == 0

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

F_FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6")
T_FAMILIES = ("T1", "T2", "T3", "T4", "T5", "T6")
C_FAMILIES = ("C1", "C2")
G_FAMILIES = tuple(f"G{i}" for i in range(1, 13))
H_FAMILIES = ("H1", "H2", "H3", "H4")
I_FAMILIES = ("I1", "I2", "I3")
ALL_FAMILIES = F_FAMILIES + T_FAMILIES + C_FAMILIES + G_FAMILIES + H_FAMILIES + I_FAMILIES + ("J1",)

# (sign pattern, weight, sequence) per G id.  Weight: "recip" = 1/(2n+1),
# "plain" = 1, "linear" = n.
_G_SHAPE = {
    "G1": (SignPattern.CEIL_HALF, "recip", "F"),
    "G2": (SignPattern.CEIL_HALF, "recip", "L"),
    "G3": (SignPattern.FLOOR_HALF, "recip", "F"),
    "G4": (SignPattern.FLOOR_HALF, "recip", "L"),
    "G5": (SignPattern.CEIL_HALF, "plain", "F"),
    "G6": (SignPattern.CEIL_HALF, "plain", "L"),
    "G7": (SignPattern.FLOOR_HALF, "plain", "F"),
    "G8": (SignPattern.FLOOR_HALF, "plain", "L"),
    "G9": (SignPattern.FLOOR_HALF, "linear", "F"),
    "G10": (SignPattern.FLOOR_HALF, "linear", "L"),
    "G11": (SignPattern.CEIL_HALF, "linear", "F"),
    "G12": (SignPattern.CEIL_HALF, "linear", "L"),
}

_FT_SIGN = {
    "F1": SignPattern.CEIL_HALF, "F2": SignPattern.FLOOR_HALF,
    "F3": SignPattern.CEIL_HALF, "F4": SignPattern.FLOOR_HALF,
    "F5": SignPattern.CEIL_HALF, "F6": SignPattern.FLOOR_HALF,
    "T1": SignPattern.CEIL_HALF, "T2": SignPattern.FLOOR_HALF,
    "T3": SignPattern.CEIL_HALF, "T4": SignPattern.FLOOR_HALF,
    "T5": SignPattern.CEIL_HALF, "T6": SignPattern.FLOOR_HALF,
}


def _abs_le(x: XValue, bound: Fraction) -> bool:
    if isinstance(x, SurdValue):
        return x.squared() <= bound * bound
    return abs(x) <= bound


def _abs_eq(x: XValue, bound: Fraction) -> bool:
    if isinstance(x, SurdValue):
        return x.squared() == bound * bound
    return abs(x) == bound


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


def _sign_pattern_of(fam: str) -> SignPattern:
    if fam in _FT_SIGN:
        return _FT_SIGN[fam]
    if fam in G_FAMILIES:
        return _G_SHAPE[fam][0]
    if fam in ("C1", "C2", "H1", "H3"):
        return SignPattern.ALTERNATING
    return SignPattern.PLUS


def _first_index_of(fam: str) -> int:
    """1 for the n-weighted shapes, whose n = 0 summand is identically 0."""
    return 1 if fam in ("F5", "F6", "T5", "T6", "G9", "G10", "G11", "G12") else 0


@dataclass(frozen=True)
class FamilySpec:
    """One series from the catalog plus its parameters.

    Exactly the parameters the family needs may be given; the rest stay None.
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
    seq: Optional[str] = None

    def __post_init__(self):
        fam = self.family
        if fam not in ALL_FAMILIES:
            raise UsageError(f"unknown family {fam!r}")
        given = {name for name in ("x", "phi", "m", "s", "p", "r", "seq")
                 if getattr(self, name) is not None}
        needed = self._needed_params()
        if fam in G_FAMILIES and self.seq is None:
            # seq is derivable from the id; fill it in for convenience
            object.__setattr__(self, "seq", _G_SHAPE[fam][2])
            given.add("seq")
        extra = given - needed
        missing = needed - given
        if extra:
            raise UsageError(f"{fam} does not take parameter(s) {sorted(extra)}")
        if missing:
            raise UsageError(f"{fam} requires parameter(s) {sorted(missing)}")
        self._validate()

    def _needed_params(self) -> set:
        fam = self.family
        if fam in F_FAMILIES or fam in C_FAMILIES or fam in H_FAMILIES:
            return {"x"}
        if fam in T_FAMILIES:
            return {"phi"}
        if fam in G_FAMILIES:
            return {"m", "s", "p", "seq"}
        if fam in ("I1", "I2"):
            return {"r"}
        return set()

    def _validate(self):
        fam = self.family
        if fam in F_FAMILIES:
            if not isinstance(self.x, (Fraction, SurdValue)):
                raise UsageError(f"{fam}: x must be an exact rational or surd")
            if not _abs_le(self.x, Fraction(1)):
                raise UsageError(f"{fam}: requires |x| <= 1, got x = {self.x}")
        elif fam in T_FAMILIES:
            if not isinstance(self.phi, PhiValue):
                raise UsageError(f"{fam}: phi must be a PhiValue")
            if not self.phi.bounded_by_quarter_pi():
                raise UsageError(f"{fam}: requires |phi| <= pi/4, got phi = {self.phi}")
            if fam in ("T1", "T2") and self.phi.is_zero():
                raise UsageError(f"{fam}: phi = 0 is excluded (cot(phi) singular)")
        elif fam in C_FAMILIES:
            if not isinstance(self.x, Fraction):
                raise UsageError(f"{fam}: x must be an exact rational")
            if not abs(self.x) <= Fraction(1, 2):
                raise UsageError(f"{fam}: requires |x| <= 1/2, got x = {self.x}")
        elif fam in G_FAMILIES:
            for name in ("m", "s"):
                if not isinstance(getattr(self, name), int):
                    raise UsageError(f"{fam}: {name} must be an integer")
            if not isinstance(self.p, Fraction):
                raise UsageError(f"{fam}: p must be an exact rational")
            if self.seq not in ("F", "L"):
                raise UsageError(f"{fam}: seq must be 'F' or 'L'")
            if self.seq != _G_SHAPE[fam][2]:
                raise UsageError(
                    f"{fam} is a {_G_SHAPE[fam][2]}-sequence family; got seq={self.seq!r}"
                )
            if four_alpha_pow_cmp(self.p, self.m) < 0:
                raise UsageError(
                    f"{fam}: requires p >= 4*alpha^|m| "
                    f"(~{float(4 * 1.618033988749895 ** abs(self.m)):.6g}), got p = {self.p}"
                )
        elif fam in H_FAMILIES:
            if not isinstance(self.x, Fraction):
                raise UsageError(f"{fam}: x must be an exact rational")
            if not abs(self.x) < 1:
                raise UsageError(f"{fam}: requires |x| < 1, got x = {self.x}")
        elif fam == "I1":
            if not isinstance(self.r, int) or self.r % 2 or self.r < 0:
                raise UsageError(f"I1: r must be an even integer >= 0, got {self.r}")
        elif fam == "I2":
            if not isinstance(self.r, int) or self.r % 2 or self.r < 2:
                raise UsageError(f"I2: r must be an even integer >= 2, got {self.r}")

    # -- structural helpers used by the engine and closed forms --------------

    def sign_pattern(self) -> SignPattern:
        return _sign_pattern_of(self.family)

    def weight(self) -> str:
        """Per-term weight: "recip" (1/(2n+1)-like), "plain", or "linear"."""
        fam = self.family
        if fam in ("F1", "F2", "T1", "T2"):
            return "recip"
        if fam in ("F5", "F6", "T5", "T6"):
            return "linear"
        if fam in G_FAMILIES:
            return _G_SHAPE[fam][1]
        if fam in ("C1", "C2"):
            return "recip"
        if fam == "J1":
            return "harmonic"
        return "plain"

    def g_shape(self):
        if self.family not in G_FAMILIES:
            raise UsageError(f"{self.family} is not a G family")
        return _G_SHAPE[self.family]

    def first_index(self) -> int:
        return _first_index_of(self.family)

    def at_certification_boundary(self) -> bool:
        """True when the parameter sits where no proven tail bound exists.

        F families at |x| = 1; T families at |phi| = pi/4; G families at
        p = 4 alpha^|m| (unreachable for rational p); I1 at no r (the ratio
        alpha^r/L_r < 1 for all even r >= 0).  C families certify on their
        whole domain via the alternating-term bound, J1 via its integral
        bound, H families are strict-interior by validation.
        """
        fam = self.family
        if fam in F_FAMILIES:
            return _abs_eq(self.x, Fraction(1))
        if fam in T_FAMILIES:
            return self.phi.times_pi and abs(self.phi.coeff) == Fraction(1, 4)
        if fam in G_FAMILIES:
            return four_alpha_pow_cmp(self.p, self.m) == 0
        return False

    def describe(self) -> str:
        parts = [self.family]
        if self.x is not None:
            if isinstance(self.x, SurdValue):
                parts.append(f"x={self.x.coeff}*sqrt({self.x.radicand})")
            else:
                parts.append(f"x={self.x}")
        if self.phi is not None:
            parts.append(f"phi={self.phi}")
        for name in ("m", "s", "p", "r", "seq"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        return " ".join(parts)


def list_families() -> list[dict]:
    """Machine-readable catalog: id, parameters, domain, series shape."""
    rows = []
    for fam in ALL_FAMILIES:
        if fam in F_FAMILIES:
            params, domain = "x", "|x| <= 1 (certified evaluation needs |x| < 1)"
        elif fam in T_FAMILIES:
            domain = "|phi| <= pi/4 (certified needs |phi| < pi/4)"
            if fam in ("T1", "T2"):
                domain += ", phi != 0"
            params = "phi"
        elif fam in C_FAMILIES:
            params, domain = "x", "|x| <= 1/2 (certified on the whole domain)"
        elif fam in G_FAMILIES:
            params = "m, s, p"
            domain = "integers m, s; rational p >= 4*alpha^|m| (certified needs >)"
        elif fam in H_FAMILIES:
            params, domain = "x", "|x| < 1"
        elif fam == "I1":
            params, domain = "r", "even r >= 0"
        elif fam == "I2":
            params, domain = "r", "even r >= 2"
        else:
            params, domain = "", "no parameters"
        rows.append({
            "id": fam,
            "parameters": params,
            "domain": domain,
            "sign": _sign_pattern_of(fam).value,
            "starts_at": _first_index_of(fam),
        })
    return rows
