"""Closed-form values for every series family, all from one real shape.

With c_n = C(2n,n)/4^n, :func:`_shape` gives sum sign(n) w(n) c_n y^n for
real |y| <= 1, for the sign patterns and weights of the catalog:

* ceil-half or floor-half (e = -1 or +1), with u = 1 + y^2 at y >= 0:

  - plain weight: sqrt((sqrt(u) + e y)/u);
  - n-weighted: e (y/2) (sqrt(u) - 2 e y) sqrt((sqrt(u) + e y)/u^3);
  - 1/(2n+1): sqrt(2) A(sqrt(y)/sqrt(1 + sqrt(u)))/sqrt(y), with A = atan
    for ceil-half and artanh for floor-half, and the value 1 at y = 0;

* alternating or plus, plain weight: 1/sqrt(1 + y) or 1/sqrt(1 - y).

At y < 0 the shape is its sign twin at -y: a factor (-1)^n swaps ceil-half
with floor-half and alternating with plus.  Every family is the shape at a
derived real argument, or the even or odd part of a pair of shapes:

* F at x (F1/F2 as x times the shape at x^2), T at tan(phi);
* C1/C2 as x times the even or odd part of the 1/(2n+1) shapes at 4 x^2;
* G by Binet: sum over z = alpha, beta of z^s times the shape at
  4 z^m / p, combined as (a - b)/sqrt5 for F and a + b for L;
* H as the even (H1/H2) or odd (H3/H4) part of a pair of plain shapes at
  sqrt(x), after the twin when x < 0;
* I as H2 at Lucas-number arguments (I1 as H2(t) + H2(1 - t), the second
  written in t); J1 is a constant.

Every intermediate is real; no closed form passes through complex values.
"""

from __future__ import annotations

from mpmath import mp, mpf

from cbcseries.exact import fib_lucas
from cbcseries.families import FAMILIES, FamilySpec, SignPattern, phi_real, x_real
from cbcseries.precision import PrecisionContext, Real, constants

_CEIL, _FLOOR = SignPattern.CEIL_HALF, SignPattern.FLOOR_HALF
_ALT, _PLUS = SignPattern.ALTERNATING, SignPattern.PLUS
_TWIN = {_CEIL: _FLOOR, _FLOOR: _CEIL, _ALT: _PLUS, _PLUS: _ALT}


class NumericFailure(Exception):
    """A closed form that cannot be evaluated.

    No closed form raises it (every route is real).  It stays defined only
    because ``bench/run.py`` names it among the numeric failures it catches;
    that is its only reader.
    """


def _shape(sign: SignPattern, weight: str, y: Real) -> Real:
    """sum sign(n) w(n) C(2n,n) y^n / 4^n for real |y| <= 1."""
    if y < 0:
        sign, y = _TWIN[sign], -y
    if sign in (_ALT, _PLUS):
        return 1 / mp.sqrt(1 + y if sign is _ALT else 1 - y)
    e = -1 if sign is _CEIL else 1
    u = 1 + y * y
    root = mp.sqrt(u)
    if weight == "plain":
        return mp.sqrt((root + e * y) / u)
    if weight == "linear":
        return e * y / 2 * (root - 2 * e * y) * mp.sqrt((root + e * y) / u**3)
    if y == 0:
        return mpf(1)
    ry = mp.sqrt(y)
    arc = mp.atan if sign is _CEIL else mp.atanh
    return mp.sqrt(2) * arc(ry / mp.sqrt(1 + root)) / ry


def _h(sign: SignPattern, odd: bool, x: Real) -> Real:
    """H1..H4 at real |x| < 1: the even or odd part of a pair of shapes."""
    if x < 0:
        sign, x = _TWIN[sign], -x
    y = mp.sqrt(x)
    a, b = (_shape(s, "plain", y) for s in ((_CEIL, _FLOOR) if sign is _ALT else (_PLUS, _ALT)))
    return y * (a - b) / 2 if odd else (a + b) / 2


def closed_value(spec: FamilySpec, ctx: PrecisionContext) -> Real:
    """The closed-form value of the family's sum at the spec's parameters."""
    fam, row = spec.family, FAMILIES[spec.family]
    with ctx.workprec():
        if row.group == "F":
            x = x_real(spec.x, ctx)
            if row.weight == "recip":  # F1/F2 run in odd powers of x
                v = x * _shape(row.sign, row.weight, x * x)
            else:
                v = _shape(row.sign, row.weight, x)
        elif row.group == "T":
            t = spec.phi.exact_tan()
            y = mp.tan(phi_real(spec.phi, ctx)) if t is None else ctx.real(t)
            v = _shape(row.sign, row.weight, y)
        elif row.group == "C":
            # a - b is about y/3 at y = 4x^2: the difference cancels
            # log2(1/y) ~ 2 log2(1/|x|) bits, carried as extra working bits
            x = spec.x
            with mp.extraprec(2 * (x.denominator.bit_length() - x.numerator.bit_length() + 1)):
                x = ctx.real(x)
                a, b = (_shape(s, "recip", 4 * x * x) for s in (_FLOOR, _CEIL))
                v = x * (a + b if fam == "C1" else a - b) / 2
        elif row.group == "G":
            cs, p = constants(ctx), ctx.real(spec.p)
            a, b = (z**spec.s * _shape(row.sign, row.weight, 4 * z**spec.m / p)
                    for z in (cs.alpha, cs.beta))
            v = (a - b) / cs.sqrt5 if row.seq == "F" else a + b
        elif row.group == "H":
            # H3/H4, at index 4n - 2, are the odd parts
            v = _h(row.sign, row.index[1] != 0, ctx.real(spec.x))
        elif fam == "I1":
            # H2(beta^r/L_r) + H2(alpha^r/L_r) = H2(t) + H2(1 - t) with
            # t = 1/(alpha^r L_r); H2(1 - t) is written in t, since forming
            # 1 - sqrt(1 - t) would cancel about 0.42 r digits
            t = 1 / (constants(ctx).alpha ** spec.r * fib_lucas(spec.r)[1])
            v = _h(_PLUS, False, t) + mp.sqrt((1 + mp.sqrt(t)) / 2) / mp.sqrt(t)
        elif fam == "I2":
            v = _h(_PLUS, False, mpf(4) / fib_lucas(spec.r)[1] ** 2)
        elif fam == "I3":
            v = _h(_PLUS, False, mpf(4) / 5)
        else:
            rt2 = mp.sqrt(2)
            v = mpf(80) / 9 - 32 * rt2 / 9 - 8 * rt2 / 3 * mp.log((1 + rt2) / 2)
        return +v
