"""Catalog of worked series constants and the runner that reproduces them.

Each :class:`ExampleRow` binds one series (a :class:`FamilySpec`, plus an
exact ``scale`` factor where the printed constant normalizes the series
differently) to an ``expected`` closed-form expression tree.  The rows are
one table, :func:`_rows`, written with the tree helpers ``sq add sub mul div
neg apow arctan artanh``; ``tests/test_registry.py`` checks every tree
against the family closed form to 30 digits.

Row modes:

* ``adaptive``: sum the series with a certified adaptive run;
* ``closed``: the parameter sits on the certification boundary (|x| = 1), so
  the family closed form stands in for the series, with zero certified bound;
* ``bound:N``: fixed N-term summation with its certified tail bound, for rows
  whose series converges too slowly for the adaptive path.

A comparison passes when |series - expected| <= certified_bound + tolerance,
the tolerance covering closed-form evaluation rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from mpmath import mp

from .closedforms import closed_value
from .engine import sum_adaptive, sum_fixed, x_real
from .expressions import Expr, evaluate
from .families import FamilySpec, PhiValue, SurdValue, XValue
from .precision import PrecisionContext, UsageError

EXAMPLE_SETS = ("ex6", "trig", "ex9", "ex10", "ex11", "thm15", "thm16")
# the default comparison tolerance is 10^(TOLERANCE_EXPONENT - digits)
TOLERANCE_EXPONENT = 5


@dataclass(frozen=True)
class ExampleRow:
    """One catalogued constant: series spec, exact scale, expected expression."""

    id: str
    spec: FamilySpec
    expected: Expr
    anchor: str
    mode: str = "adaptive"
    scale: XValue = Fraction(1)

    def example_set(self) -> str:
        return self.id.split("-", 1)[0]


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of reproducing one row.

    ``passed`` is the pass/fail verdict (serialized as ``pass`` on the CLI):
    true iff abs_diff <= certified_bound + tolerance.
    """

    id: str
    series_value: object
    closed_value: object
    abs_diff: object
    certified_bound: object
    terms_used: int
    passed: bool


# -- expression tree helpers -------------------------------------------------

def sq(a):
    return ["sqrt", a]


def add(a, b):
    return ["add", a, b]


def sub(a, b):
    return ["sub", a, b]


def mul(*xs):
    tree = xs[0]
    for x in xs[1:]:
        tree = ["mul", tree, x]
    return tree


def div(a, b):
    return ["div", a, b]


def neg(a):
    return ["neg", a]


def apow(k):
    """alpha^k as a product tree (k >= 1)."""
    tree = "alpha"
    for _ in range(k - 1):
        tree = ["mul", tree, "alpha"]
    return tree


def arctan(a):
    return ["arctan", a]


def artanh(a):
    return ["artanh", a]


@lru_cache(maxsize=1)
def _rows() -> tuple:
    """Every registry row, in catalog order; built once, on first use."""
    rows = []

    # ---- set ex6: golden/silver-ratio constants of the F families ----------
    # Three denominator groups 4^n, 8^n, 16^n; for F1/F2 the printed constant
    # is the series divided by x, carried here as an exact scale factor.
    one, half, quarter = Fraction(1), Fraction(1, 2), Fraction(1, 4)
    sqrt2_over_2 = SurdValue(Fraction(1, 2), Fraction(2))
    sqrt2 = SurdValue(Fraction(1), Fraction(2))
    a3 = apow(3)
    a5 = apow(5)
    s17 = sq(17)
    rows += [
        ExampleRow("ex6-F1-x1", FamilySpec("F1", x=one),
                   mul(sq(2), ["arccot", sq("delta")]),
                   "catalog ex6: inverse-tangent weight, ceil signs, denominator 4^n",
                   "closed"),
        ExampleRow("ex6-F2-x1", FamilySpec("F2", x=one),
                   mul(sq(2), ["arccoth", sq("delta")]),
                   "catalog ex6: inverse-tangent weight, floor signs, denominator 4^n",
                   "closed"),
        ExampleRow("ex6-F1-xs2o2", FamilySpec("F1", x=sqrt2_over_2),
                   mul(2, ["arccot", sq(a3)]),
                   "catalog ex6: inverse-tangent weight, ceil signs, denominator 8^n",
                   scale=sqrt2),
        ExampleRow("ex6-F2-xs2o2", FamilySpec("F2", x=sqrt2_over_2),
                   mul(2, ["arccoth", sq(a3)]),
                   "catalog ex6: inverse-tangent weight, floor signs, denominator 8^n",
                   scale=sqrt2),
        ExampleRow("ex6-F1-x1o2", FamilySpec("F1", x=half),
                   mul(2, sq(2), arctan(sq(sub(s17, 4)))),
                   "catalog ex6: inverse-tangent weight, ceil signs, denominator 16^n",
                   scale=Fraction(2)),
        ExampleRow("ex6-F2-x1o2", FamilySpec("F2", x=half),
                   mul(2, sq(2), artanh(sq(sub(s17, 4)))),
                   "catalog ex6: inverse-tangent weight, floor signs, denominator 16^n",
                   scale=Fraction(2)),
        ExampleRow("ex6-F3-x1", FamilySpec("F3", x=one),
                   div(1, sq(mul(2, "delta"))),
                   "catalog ex6: plain weight, ceil signs, denominator 4^n",
                   "closed"),
        ExampleRow("ex6-F4-x1", FamilySpec("F4", x=one),
                   div(sq(mul(2, "delta")), 2),
                   "catalog ex6: plain weight, floor signs, denominator 4^n",
                   "closed"),
        ExampleRow("ex6-F3-x1o2", FamilySpec("F3", x=half),
                   div(2, sq(mul(5, "alpha"))),
                   "catalog ex6: plain weight, ceil signs, denominator 8^n"),
        ExampleRow("ex6-F4-x1o2", FamilySpec("F4", x=half),
                   div(mul(2, sq(mul(5, "alpha"))), 5),
                   "catalog ex6: plain weight, floor signs, denominator 8^n"),
        ExampleRow("ex6-F3-x1o4", FamilySpec("F3", x=quarter),
                   div(mul(2, sq(sub(s17, 1))), s17),
                   "catalog ex6: plain weight, ceil signs, denominator 16^n"),
        ExampleRow("ex6-F4-x1o4", FamilySpec("F4", x=quarter),
                   div(mul(2, sq(add(s17, 1))), s17),
                   "catalog ex6: plain weight, floor signs, denominator 16^n"),
        ExampleRow("ex6-F5-x1", FamilySpec("F5", x=one),
                   neg(div(sq("delta"), 4)),
                   "catalog ex6: linear weight, ceil signs, denominator 4^n",
                   "closed"),
        ExampleRow("ex6-F6-x1", FamilySpec("F6", x=one),
                   neg(div(1, mul(4, sq("delta")))),
                   "catalog ex6: linear weight, floor signs, denominator 4^n",
                   "closed"),
        ExampleRow("ex6-F5-x1o2", FamilySpec("F5", x=half),
                   neg(div(sq(mul(5, a5)), 25)),
                   "catalog ex6: linear weight, ceil signs, denominator 8^n"),
        ExampleRow("ex6-F6-x1o2", FamilySpec("F6", x=half),
                   div(1, mul(5, sq(mul(5, a5)))),
                   "catalog ex6: linear weight, floor signs, denominator 8^n"),
        ExampleRow("ex6-F5-x1o4", FamilySpec("F5", x=quarter),
                   neg(mul(div(s17, 289), sq(add(mul(17, s17), 47)))),
                   "catalog ex6: linear weight, ceil signs, denominator 16^n"),
        ExampleRow("ex6-F6-x1o4", FamilySpec("F6", x=quarter),
                   mul(div(s17, 289), sq(sub(mul(17, s17), 47))),
                   "catalog ex6: linear weight, floor signs, denominator 16^n"),
    ]

    # ---- set trig: tangent-argument constants at pi/6 and pi/8 -------------
    # Six ceil-sign constants plus two floor-sign companions at pi/6 derived
    # from the floor closed forms (same radical vocabulary).
    pi6 = PhiValue(Fraction(1, 6), times_pi=True)
    pi8 = PhiValue(Fraction(1, 8), times_pi=True)
    s3 = sq(3)
    w8d = sq(mul(sq(8), "delta"))          # sqrt(sqrt(8)*delta)
    w2d = sq(mul(sq(2), "delta"))          # sqrt(sqrt(2)*delta)
    pair8 = add(sq(add(2, w2d)), sq(sub(2, w2d)))
    rows += [
        ExampleRow("trig-T1-pi6", FamilySpec("T1", phi=pi6),
                   mul(sq(mul(2, s3)), arctan(sq(sub(2, s3)))),
                   "catalog trig: inverse-tangent weight, ceil signs, phi = pi/6"),
        ExampleRow("trig-T3-pi6", FamilySpec("T3", phi=pi6),
                   div(sq(s3), 2),
                   "catalog trig: plain weight, ceil signs, phi = pi/6"),
        ExampleRow("trig-T5-pi6", FamilySpec("T5", phi=pi6),
                   neg(div(sq(s3), 4)),
                   "catalog trig: linear weight, ceil signs, phi = pi/6"),
        ExampleRow("trig-T1-pi8", FamilySpec("T1", phi=pi8),
                   mul(sq(mul(2, "delta")), arctan(sq(sub(w8d, "delta")))),
                   "catalog trig: inverse-tangent weight, ceil signs, phi = pi/8"),
        ExampleRow("trig-T3-pi8", FamilySpec("T3", phi=pi8),
                   div(sq(mul("delta", w8d)), mul(sq(2), pair8)),
                   "catalog trig: plain weight, ceil signs, phi = pi/8"),
        ExampleRow("trig-T5-pi8", FamilySpec("T5", phi=pi8),
                   neg(div(add(sq(mul(2, "delta")), sq(sq(8))),
                           mul(4, sq(w8d), pair8))),
                   "catalog trig: linear weight, ceil signs, phi = pi/8 "
                   "(fourth root groups sqrt(8)*delta together)"),
        ExampleRow("trig-T2-pi6", FamilySpec("T2", phi=pi6),
                   mul(sq(mul(2, s3)), artanh(sq(sub(2, s3)))),
                   "catalog trig: inverse-tangent weight, floor signs, phi = pi/6"),
        ExampleRow("trig-T4-pi6", FamilySpec("T4", phi=pi6),
                   div(mul(s3, sq(s3)), 2),
                   "catalog trig: plain weight, floor signs, phi = pi/6"),
    ]

    # ---- set ex9: Fibonacci/Lucas inverse-tangent rows (m=1, s=0) ----------
    p8, p16 = Fraction(8), Fraction(16)
    c1 = sq(add(sub(2, mul(2, "alpha")), sq(sub(9, mul(4, "alpha")))))
    c2 = sq(sub(sq(add(5, mul(4, "alpha"))), mul(2, "alpha")))
    d1 = sq(add(sub(4, mul(4, "alpha")), sq(sub(33, mul(16, "alpha")))))
    d2 = sq(sub(sq(add(mul(16, "alpha"), 17)), mul(4, "alpha")))
    pref_f8 = div(mul(2, sq(5)), mul(5, sq("alpha")))
    pref_l8 = div(2, sq("alpha"))
    pref_f16 = div(mul(2, sq(10)), mul(5, sq("alpha")))
    pref_l16 = div(mul(2, sq(2)), sq("alpha"))
    rows += [
        ExampleRow("ex9-F-p8", FamilySpec("G1", m=1, s=0, p=p8),
                   mul(pref_f8, sub(arctan(c1), mul("alpha", artanh(c2)))),
                   "catalog ex9: Fibonacci, ceil signs, p = 8"),
        ExampleRow("ex9-L-p8", FamilySpec("G2", m=1, s=0, p=p8),
                   mul(pref_l8, add(arctan(c1), mul("alpha", artanh(c2)))),
                   "catalog ex9: Lucas, ceil signs, p = 8"),
        ExampleRow("ex9-F-p8-floor", FamilySpec("G3", m=1, s=0, p=p8),
                   mul(pref_f8, sub(artanh(c1), mul("alpha", arctan(c2)))),
                   "catalog ex9: Fibonacci, floor signs, p = 8"),
        ExampleRow("ex9-L-p8-floor", FamilySpec("G4", m=1, s=0, p=p8),
                   mul(pref_l8, add(artanh(c1), mul("alpha", arctan(c2)))),
                   "catalog ex9: Lucas, floor signs, p = 8"),
        ExampleRow("ex9-F-p16", FamilySpec("G1", m=1, s=0, p=p16),
                   mul(pref_f16, sub(arctan(d1), mul("alpha", artanh(d2)))),
                   "catalog ex9: Fibonacci, ceil signs, p = 16"),
        ExampleRow("ex9-L-p16", FamilySpec("G2", m=1, s=0, p=p16),
                   mul(pref_l16, add(arctan(d1), mul("alpha", artanh(d2)))),
                   "catalog ex9: Lucas, ceil signs, p = 16"),
        ExampleRow("ex9-F-p16-floor", FamilySpec("G3", m=1, s=0, p=p16),
                   mul(pref_f16, sub(artanh(d1), mul("alpha", arctan(d2)))),
                   "catalog ex9: Fibonacci, floor signs, p = 16"),
        ExampleRow("ex9-L-p16-floor", FamilySpec("G4", m=1, s=0, p=p16),
                   mul(pref_l16, add(artanh(d1), mul("alpha", arctan(d2)))),
                   "catalog ex9: Lucas, floor signs, p = 16"),
    ]

    # ---- set ex10: plain-weight Fibonacci/Lucas rows (m=1, s=0, p=8) -------
    a1 = sq(add(sq(mul(29, sub(6, "alpha"))), sub(1, mul(5, "alpha"))))
    a2 = sq(add(sq(mul(29, add(5, "alpha"))), sub(mul(5, "alpha"), 4)))
    b1 = sq(add(sq(mul(29, sub(6, "alpha"))), sub(mul(5, "alpha"), 1)))
    b2 = sq(add(sq(mul(29, add(5, "alpha"))), sub(4, mul(5, "alpha"))))
    rows += [
        ExampleRow("ex10-F-p8", FamilySpec("G5", m=1, s=0, p=p8),
                   mul(div(sq(290), 145), sub(a1, a2)),
                   "catalog ex10: Fibonacci, ceil signs"),
        ExampleRow("ex10-L-p8", FamilySpec("G6", m=1, s=0, p=p8),
                   mul(div(sq(58), 29), add(a1, a2)),
                   "catalog ex10: Lucas, ceil signs"),
        ExampleRow("ex10-F-p8-floor", FamilySpec("G7", m=1, s=0, p=p8),
                   mul(div(sq(290), 145), sub(b1, b2)),
                   "catalog ex10: Fibonacci, floor signs"),
        ExampleRow("ex10-L-p8-floor", FamilySpec("G8", m=1, s=0, p=p8),
                   mul(div(sq(58), 29), add(b1, b2)),
                   "catalog ex10: Lucas, floor signs"),
    ]

    # ---- set ex11: even-index rows (m=2, s=0, p=16) ------------------------
    e1 = sq(add(sub(sq(sub(81, mul(48, "alpha"))), 8), mul(4, "alpha")))
    e2 = sq(sub(sub(sq(add(33, mul(48, "alpha"))), mul(4, "alpha")), 4))
    a2t = mul("alpha", "alpha")
    pref_fe = div(mul(2, sq(10)), mul(5, "alpha"))
    pref_le = div(mul(2, sq(2)), "alpha")
    w1 = sq(add(18, mul(3, "alpha")))
    w2 = sq(sub(21, mul(3, "alpha")))
    den1 = sq(add(15, mul(23, "alpha")))
    den2 = sq(sub(38, mul(23, "alpha")))
    h1p = div(mul(sq(sub(w1, 4)), add(add(5, "alpha"), w1)), den1)
    h1m = div(mul(sq(add(w1, 4)), sub(add(5, "alpha"), w1)), den1)
    h2p = div(mul(sq(sub(w2, 4)), add(sub(6, "alpha"), w2)), den2)
    h2m = div(mul(sq(add(w2, 4)), sub(sub(6, "alpha"), w2)), den2)
    rows += [
        ExampleRow("ex11-F-recip-floor", FamilySpec("G3", m=2, s=0, p=p16),
                   mul(pref_fe, sub(artanh(e1), mul(a2t, artanh(e2)))),
                   "catalog ex11: Fibonacci, inverse-tangent weight, floor signs"),
        ExampleRow("ex11-L-recip-floor", FamilySpec("G4", m=2, s=0, p=p16),
                   mul(pref_le, add(artanh(e1), mul(a2t, artanh(e2)))),
                   "catalog ex11: Lucas, inverse-tangent weight, floor signs"),
        ExampleRow("ex11-F-recip", FamilySpec("G1", m=2, s=0, p=p16),
                   mul(pref_fe, sub(arctan(e1), mul(a2t, arctan(e2)))),
                   "catalog ex11: Fibonacci, inverse-tangent weight, ceil signs"),
        ExampleRow("ex11-L-recip", FamilySpec("G2", m=2, s=0, p=p16),
                   mul(pref_le, add(arctan(e1), mul(a2t, arctan(e2)))),
                   "catalog ex11: Lucas, inverse-tangent weight, ceil signs"),
        ExampleRow("ex11-F-plain-floor", FamilySpec("G7", m=2, s=0, p=p16),
                   mul(div(sq(30), 15), sub(h1p, h2p)),
                   "catalog ex11: Fibonacci, plain weight, floor signs"),
        ExampleRow("ex11-L-plain-floor", FamilySpec("G8", m=2, s=0, p=p16),
                   mul(div(sq(150), 15), add(h1p, h2p)),
                   "catalog ex11: Lucas, plain weight, floor signs"),
        ExampleRow("ex11-F-plain", FamilySpec("G5", m=2, s=0, p=p16),
                   mul(div(sq(30), 15), sub(h1m, h2m)),
                   "catalog ex11: Fibonacci, plain weight, ceil signs"),
        ExampleRow("ex11-L-plain", FamilySpec("G6", m=2, s=0, p=p16),
                   mul(div(sq(150), 15), add(h1m, h2m)),
                   "catalog ex11: Lucas, plain weight, ceil signs"),
    ]

    # ---- set thm15: Lucas-ratio rows of the 4n-choose-2n series ------------
    def i1_expected(lr, c_half):
        # c_half encodes alpha^(r/2) + |beta|^(r/2): the half-index Lucas
        # number when r/2 is even, sqrt5 * F_{r/2} when r/2 is odd
        inner = add(add(mul(lr, sq(lr)), c_half),
                    mul(2, sq(add(1 + lr, mul(sq(lr), c_half)))))
        return mul(div(sq(sq(lr)), sq(2)), sq(inner))

    rows += [
        ExampleRow("thm15-I1-r2", FamilySpec("I1", r=2), i1_expected(3, sq(5)),
                   "catalog thm15: Lucas-weighted row, r = 2"),
        ExampleRow("thm15-I1-r4", FamilySpec("I1", r=4), i1_expected(7, 3),
                   "catalog thm15: Lucas-weighted row, r = 4"),
        ExampleRow("thm15-I1-r6", FamilySpec("I1", r=6), i1_expected(18, sq(20)),
                   "catalog thm15: Lucas-weighted row, r = 6"),
        ExampleRow("thm15-I2-r2", FamilySpec("I2", r=2),
                   div(sq(mul(15, a2t)), 5),
                   "catalog thm15: Lucas-denominator row, r = 2"),
        ExampleRow("thm15-I2-r4", FamilySpec("I2", r=4),
                   div(sq(mul(35, mul(a2t, a2t))), 15),
                   "catalog thm15: Lucas-denominator row, r = 4"),
        ExampleRow("thm15-I2-r6", FamilySpec("I2", r=6),
                   div(sq(mul(90, mul(a2t, mul(a2t, a2t)))), 40),
                   "catalog thm15: Lucas-denominator row, r = 6"),
        ExampleRow("thm15-I3", FamilySpec("I3"),
                   sq(mul("alpha", sq(5))),
                   "catalog thm15: the 20^n row"),
    ]

    # ---- set thm16: harmonic-number series ---------------------------------
    rows += [
        ExampleRow("thm16-J1", FamilySpec("J1"),
                   sub(sub(div(80, 9), div(mul(32, sq(2)), 9)),
                       mul(div(mul(8, sq(2)), 3), ["ln", div("delta", 2)])),
                   "catalog thm16: harmonic-weighted series, certified at fixed N",
                   "bound:1000000"),
    ]
    return tuple(rows)


def list_examples(example_set: Optional[str] = None) -> List[ExampleRow]:
    """All registry rows, optionally restricted to one example set."""
    rows = list(_rows())
    if example_set is None or example_set == "all":
        return rows
    if example_set not in EXAMPLE_SETS:
        raise UsageError(
            f"unknown example set {example_set!r}; choose from {', '.join(EXAMPLE_SETS)} or all"
        )
    return [row for row in rows if row.example_set() == example_set]


def get_example(row_id: str) -> ExampleRow:
    for row in _rows():
        if row.id == row_id:
            return row
    raise UsageError(f"unknown example id {row_id!r}")


def adaptive_target(ctx: PrecisionContext):
    """10^-(digits + 2), the error target of the adaptive runs behind a comparison."""
    with ctx.workprec():
        return mp.mpf(10) ** (-(ctx.digits + 2))


def comparison_tolerance(ctx: PrecisionContext, tolerance=None):
    """``tolerance`` at working precision, by default 10^(TOLERANCE_EXPONENT -
    digits): the slack granted to closed-form evaluation on top of the
    certified bound.  A negative tolerance raises :class:`UsageError`."""
    with ctx.workprec():
        if tolerance is None:
            return mp.mpf(10) ** (TOLERANCE_EXPONENT - ctx.digits)
        tol = ctx.real(tolerance)
        if tol < 0:
            raise UsageError(f"tolerance must be >= 0, got {tolerance}")
        return tol


def comparison_passes(diff, bound, tol) -> bool:
    """The verdict of a comparison, at the caller's working precision:
    |series - closed| <= certified bound + tol."""
    return bool(diff <= bound + tol)


def run_example(row_id: str, ctx: PrecisionContext,
                tolerance=None) -> ComparisonReport:
    """Reproduce one row: evaluate the series and the expected expression.

    ``tolerance`` defaults to that of :func:`comparison_tolerance`.
    """
    row = get_example(row_id)
    tol = comparison_tolerance(ctx, tolerance)
    with ctx.workprec():
        scale = x_real(row.scale, ctx)
        if row.mode == "closed":
            series = scale * closed_value(row.spec, ctx)
            bound = mp.mpf(0)
            terms = 0
        elif row.mode.startswith("bound:"):
            res = sum_fixed(row.spec, int(row.mode.split(":", 1)[1]), ctx)
            series = scale * res.value
            bound = abs(scale) * res.error_bound()
            terms = res.terms_used
        else:
            res = sum_adaptive(row.spec, adaptive_target(ctx), ctx)
            series = scale * res.value
            bound = abs(scale) * res.error_bound()
            terms = res.terms_used
        expected = evaluate(row.expected, ctx)
        diff = abs(series - expected)
        return ComparisonReport(
            id=row.id,
            series_value=series,
            closed_value=expected,
            abs_diff=diff,
            certified_bound=bound,
            terms_used=terms,
            passed=comparison_passes(diff, bound, tol),
        )
