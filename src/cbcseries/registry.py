"""Catalog of worked series constants and the runner that reproduces them.

Each :class:`ExampleRow` binds one series (a :class:`FamilySpec`, plus an
exact ``scale`` factor where the printed constant normalizes the series
differently) to its ``expected`` closed-form constant, written as plain
mpmath code: a function of the named constants (``c.alpha``, ``c.delta``)
built from the elementary functions of :mod:`cbcseries.expressions`.  The
rows are one table, :func:`_rows`; ``tests/test_registry.py`` checks every
constant against the family closed form at 40 and 120 digits.

Row modes:

* ``adaptive``: sum the series with a certified adaptive run;
* ``closed``: the family closed form stands in for the series, with zero
  certified bound.  These are the F5/F6 rows at x = 1, where their series
  diverge; F1-F4 at x = 1 are summed adaptively, by certified CVZ;
* ``bound:N``: fixed N-term summation with its certified tail bound, for rows
  whose series converges too slowly for the adaptive path.

A comparison passes when |series - expected| <= certified_bound + tolerance,
the tolerance covering closed-form evaluation rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional

from mpmath import mp

from .closedforms import closed_value
from .engine import sum_adaptive, sum_fixed
from .expressions import arccot, arccoth, arctan, artanh, evaluate, ln, sqrt
from .families import FamilySpec, PhiValue, SurdValue, XValue, x_real
from .precision import Constants, PrecisionContext, Real, UsageError

EXAMPLE_SETS = ("ex6", "trig", "ex9", "ex10", "ex11", "thm15", "thm16")
# the default comparison tolerance is 10^(TOLERANCE_EXPONENT - digits)
TOLERANCE_EXPONENT = 5


@dataclass(frozen=True)
class ExampleRow:
    """One catalogued constant: series spec, expected constant, mode and
    exact scale.  The id names the set and the series (``ex6-F1-x1``); the
    row carries no other description of itself."""

    id: str
    spec: FamilySpec
    expected: Callable[[Constants], Real]
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
    a3 = lambda c: c.alpha * c.alpha * c.alpha
    a5 = lambda c: a3(c) * c.alpha * c.alpha
    rows += [
        ExampleRow("ex6-F1-x1", FamilySpec("F1", x=one),
                   lambda c: sqrt(2) * arccot(sqrt(c.delta))),
        ExampleRow("ex6-F2-x1", FamilySpec("F2", x=one),
                   lambda c: sqrt(2) * arccoth(sqrt(c.delta))),
        ExampleRow("ex6-F1-xs2o2", FamilySpec("F1", x=sqrt2_over_2),
                   lambda c: 2 * arccot(sqrt(a3(c))),
                   scale=sqrt2),
        ExampleRow("ex6-F2-xs2o2", FamilySpec("F2", x=sqrt2_over_2),
                   lambda c: 2 * arccoth(sqrt(a3(c))),
                   scale=sqrt2),
        ExampleRow("ex6-F1-x1o2", FamilySpec("F1", x=half),
                   lambda c: 2 * sqrt(2) * arctan(sqrt(sqrt(17) - 4)),
                   scale=Fraction(2)),
        ExampleRow("ex6-F2-x1o2", FamilySpec("F2", x=half),
                   lambda c: 2 * sqrt(2) * artanh(sqrt(sqrt(17) - 4)),
                   scale=Fraction(2)),
        ExampleRow("ex6-F3-x1", FamilySpec("F3", x=one),
                   lambda c: 1 / sqrt(2 * c.delta)),
        ExampleRow("ex6-F4-x1", FamilySpec("F4", x=one),
                   lambda c: sqrt(2 * c.delta) / 2),
        ExampleRow("ex6-F3-x1o2", FamilySpec("F3", x=half),
                   lambda c: 2 / sqrt(5 * c.alpha)),
        ExampleRow("ex6-F4-x1o2", FamilySpec("F4", x=half),
                   lambda c: 2 * sqrt(5 * c.alpha) / 5),
        ExampleRow("ex6-F3-x1o4", FamilySpec("F3", x=quarter),
                   lambda c: 2 * sqrt(sqrt(17) - 1) / sqrt(17)),
        ExampleRow("ex6-F4-x1o4", FamilySpec("F4", x=quarter),
                   lambda c: 2 * sqrt(sqrt(17) + 1) / sqrt(17)),
        ExampleRow("ex6-F5-x1", FamilySpec("F5", x=one),
                   lambda c: -(sqrt(c.delta) / 4),
                   "closed"),
        ExampleRow("ex6-F6-x1", FamilySpec("F6", x=one),
                   lambda c: -(1 / (4 * sqrt(c.delta))),
                   "closed"),
        ExampleRow("ex6-F5-x1o2", FamilySpec("F5", x=half),
                   lambda c: -(sqrt(5 * a5(c)) / 25)),
        ExampleRow("ex6-F6-x1o2", FamilySpec("F6", x=half),
                   lambda c: 1 / (5 * sqrt(5 * a5(c)))),
        ExampleRow("ex6-F5-x1o4", FamilySpec("F5", x=quarter),
                   lambda c: -(sqrt(17) / 289 * sqrt(17 * sqrt(17) + 47))),
        ExampleRow("ex6-F6-x1o4", FamilySpec("F6", x=quarter),
                   lambda c: sqrt(17) / 289 * sqrt(17 * sqrt(17) - 47)),
    ]

    # ---- set trig: tangent-argument constants at pi/6 and pi/8 -------------
    # Six ceil-sign constants plus two floor-sign companions at pi/6 derived
    # from the floor closed forms (same radical vocabulary).
    pi6 = PhiValue(Fraction(1, 6), times_pi=True)
    pi8 = PhiValue(Fraction(1, 8), times_pi=True)
    w8d = lambda c: sqrt(sqrt(8) * c.delta)
    w2d = lambda c: sqrt(sqrt(2) * c.delta)
    pair8 = lambda c: sqrt(2 + w2d(c)) + sqrt(2 - w2d(c))
    rows += [
        ExampleRow("trig-T1-pi6", FamilySpec("T1", phi=pi6),
                   lambda c: sqrt(2 * sqrt(3)) * arctan(sqrt(2 - sqrt(3)))),
        ExampleRow("trig-T3-pi6", FamilySpec("T3", phi=pi6),
                   lambda c: sqrt(sqrt(3)) / 2),
        ExampleRow("trig-T5-pi6", FamilySpec("T5", phi=pi6),
                   lambda c: -(sqrt(sqrt(3)) / 4)),
        ExampleRow("trig-T1-pi8", FamilySpec("T1", phi=pi8),
                   lambda c: sqrt(2 * c.delta) * arctan(sqrt(w8d(c) - c.delta))),
        ExampleRow("trig-T3-pi8", FamilySpec("T3", phi=pi8),
                   lambda c: sqrt(c.delta * w8d(c)) / (sqrt(2) * pair8(c))),
        # the fourth root groups sqrt(8)*delta together
        ExampleRow("trig-T5-pi8", FamilySpec("T5", phi=pi8),
                   lambda c: -((sqrt(2 * c.delta) + sqrt(sqrt(8)))
                               / (4 * sqrt(w8d(c)) * pair8(c)))),
        ExampleRow("trig-T2-pi6", FamilySpec("T2", phi=pi6),
                   lambda c: sqrt(2 * sqrt(3)) * artanh(sqrt(2 - sqrt(3)))),
        ExampleRow("trig-T4-pi6", FamilySpec("T4", phi=pi6),
                   lambda c: sqrt(3) * sqrt(sqrt(3)) / 2),
    ]

    # ---- set ex9: Fibonacci/Lucas inverse-tangent rows (m=1, s=0) ----------
    p8, p16 = Fraction(8), Fraction(16)
    c1 = lambda c: sqrt(2 - 2 * c.alpha + sqrt(9 - 4 * c.alpha))
    c2 = lambda c: sqrt(sqrt(5 + 4 * c.alpha) - 2 * c.alpha)
    d1 = lambda c: sqrt(4 - 4 * c.alpha + sqrt(33 - 16 * c.alpha))
    d2 = lambda c: sqrt(sqrt(16 * c.alpha + 17) - 4 * c.alpha)
    pref_f8 = lambda c: 2 * sqrt(5) / (5 * sqrt(c.alpha))
    pref_l8 = lambda c: 2 / sqrt(c.alpha)
    pref_f16 = lambda c: 2 * sqrt(10) / (5 * sqrt(c.alpha))
    pref_l16 = lambda c: 2 * sqrt(2) / sqrt(c.alpha)
    rows += [
        ExampleRow("ex9-F-p8", FamilySpec("G1", m=1, s=0, p=p8),
                   lambda c: pref_f8(c) * (arctan(c1(c)) - c.alpha * artanh(c2(c)))),
        ExampleRow("ex9-L-p8", FamilySpec("G2", m=1, s=0, p=p8),
                   lambda c: pref_l8(c) * (arctan(c1(c)) + c.alpha * artanh(c2(c)))),
        ExampleRow("ex9-F-p8-floor", FamilySpec("G3", m=1, s=0, p=p8),
                   lambda c: pref_f8(c) * (artanh(c1(c)) - c.alpha * arctan(c2(c)))),
        ExampleRow("ex9-L-p8-floor", FamilySpec("G4", m=1, s=0, p=p8),
                   lambda c: pref_l8(c) * (artanh(c1(c)) + c.alpha * arctan(c2(c)))),
        ExampleRow("ex9-F-p16", FamilySpec("G1", m=1, s=0, p=p16),
                   lambda c: pref_f16(c) * (arctan(d1(c)) - c.alpha * artanh(d2(c)))),
        ExampleRow("ex9-L-p16", FamilySpec("G2", m=1, s=0, p=p16),
                   lambda c: pref_l16(c) * (arctan(d1(c)) + c.alpha * artanh(d2(c)))),
        ExampleRow("ex9-F-p16-floor", FamilySpec("G3", m=1, s=0, p=p16),
                   lambda c: pref_f16(c) * (artanh(d1(c)) - c.alpha * arctan(d2(c)))),
        ExampleRow("ex9-L-p16-floor", FamilySpec("G4", m=1, s=0, p=p16),
                   lambda c: pref_l16(c) * (artanh(d1(c)) + c.alpha * arctan(d2(c)))),
    ]

    # ---- set ex10: plain-weight Fibonacci/Lucas rows (m=1, s=0, p=8) -------
    a1 = lambda c: sqrt(sqrt(29 * (6 - c.alpha)) + (1 - 5 * c.alpha))
    a2 = lambda c: sqrt(sqrt(29 * (5 + c.alpha)) + (5 * c.alpha - 4))
    b1 = lambda c: sqrt(sqrt(29 * (6 - c.alpha)) + (5 * c.alpha - 1))
    b2 = lambda c: sqrt(sqrt(29 * (5 + c.alpha)) + (4 - 5 * c.alpha))
    rows += [
        ExampleRow("ex10-F-p8", FamilySpec("G5", m=1, s=0, p=p8),
                   lambda c: sqrt(290) / 145 * (a1(c) - a2(c))),
        ExampleRow("ex10-L-p8", FamilySpec("G6", m=1, s=0, p=p8),
                   lambda c: sqrt(58) / 29 * (a1(c) + a2(c))),
        ExampleRow("ex10-F-p8-floor", FamilySpec("G7", m=1, s=0, p=p8),
                   lambda c: sqrt(290) / 145 * (b1(c) - b2(c))),
        ExampleRow("ex10-L-p8-floor", FamilySpec("G8", m=1, s=0, p=p8),
                   lambda c: sqrt(58) / 29 * (b1(c) + b2(c))),
    ]

    # ---- set ex11: even-index rows (m=2, s=0, p=16) ------------------------
    alpha2 = lambda c: c.alpha * c.alpha
    e1 = lambda c: sqrt(sqrt(81 - 48 * c.alpha) - 8 + 4 * c.alpha)
    e2 = lambda c: sqrt(sqrt(33 + 48 * c.alpha) - 4 * c.alpha - 4)
    pref_fe = lambda c: 2 * sqrt(10) / (5 * c.alpha)
    pref_le = lambda c: 2 * sqrt(2) / c.alpha
    w1 = lambda c: sqrt(18 + 3 * c.alpha)
    w2 = lambda c: sqrt(21 - 3 * c.alpha)
    den1 = lambda c: sqrt(15 + 23 * c.alpha)
    den2 = lambda c: sqrt(38 - 23 * c.alpha)
    h1p = lambda c: sqrt(w1(c) - 4) * (5 + c.alpha + w1(c)) / den1(c)
    h1m = lambda c: sqrt(w1(c) + 4) * (5 + c.alpha - w1(c)) / den1(c)
    h2p = lambda c: sqrt(w2(c) - 4) * (6 - c.alpha + w2(c)) / den2(c)
    h2m = lambda c: sqrt(w2(c) + 4) * (6 - c.alpha - w2(c)) / den2(c)
    rows += [
        ExampleRow("ex11-F-recip-floor", FamilySpec("G3", m=2, s=0, p=p16),
                   lambda c: pref_fe(c) * (artanh(e1(c)) - alpha2(c) * artanh(e2(c)))),
        ExampleRow("ex11-L-recip-floor", FamilySpec("G4", m=2, s=0, p=p16),
                   lambda c: pref_le(c) * (artanh(e1(c)) + alpha2(c) * artanh(e2(c)))),
        ExampleRow("ex11-F-recip", FamilySpec("G1", m=2, s=0, p=p16),
                   lambda c: pref_fe(c) * (arctan(e1(c)) - alpha2(c) * arctan(e2(c)))),
        ExampleRow("ex11-L-recip", FamilySpec("G2", m=2, s=0, p=p16),
                   lambda c: pref_le(c) * (arctan(e1(c)) + alpha2(c) * arctan(e2(c)))),
        ExampleRow("ex11-F-plain-floor", FamilySpec("G7", m=2, s=0, p=p16),
                   lambda c: sqrt(30) / 15 * (h1p(c) - h2p(c))),
        ExampleRow("ex11-L-plain-floor", FamilySpec("G8", m=2, s=0, p=p16),
                   lambda c: sqrt(150) / 15 * (h1p(c) + h2p(c))),
        ExampleRow("ex11-F-plain", FamilySpec("G5", m=2, s=0, p=p16),
                   lambda c: sqrt(30) / 15 * (h1m(c) - h2m(c))),
        ExampleRow("ex11-L-plain", FamilySpec("G6", m=2, s=0, p=p16),
                   lambda c: sqrt(150) / 15 * (h1m(c) + h2m(c))),
    ]

    # ---- set thm15: Lucas-ratio rows of the 4n-choose-2n series ------------
    def i1_expected(lr, c_half):
        # c_half(c) is alpha^(r/2) + |beta|^(r/2): the half-index Lucas
        # number when r/2 is even, sqrt5 * F_{r/2} when r/2 is odd
        return lambda c: (sqrt(sqrt(lr)) / sqrt(2)
                          * sqrt(lr * sqrt(lr) + c_half(c)
                                 + 2 * sqrt(1 + lr + sqrt(lr) * c_half(c))))

    rows += [
        ExampleRow("thm15-I1-r2", FamilySpec("I1", r=2),
                   i1_expected(3, lambda c: sqrt(5))),
        ExampleRow("thm15-I1-r4", FamilySpec("I1", r=4),
                   i1_expected(7, lambda c: 3)),
        ExampleRow("thm15-I1-r6", FamilySpec("I1", r=6),
                   i1_expected(18, lambda c: sqrt(20))),
        ExampleRow("thm15-I2-r2", FamilySpec("I2", r=2),
                   lambda c: sqrt(15 * alpha2(c)) / 5),
        ExampleRow("thm15-I2-r4", FamilySpec("I2", r=4),
                   lambda c: sqrt(35 * (alpha2(c) * alpha2(c))) / 15),
        ExampleRow("thm15-I2-r6", FamilySpec("I2", r=6),
                   lambda c: sqrt(90 * (alpha2(c) * (alpha2(c) * alpha2(c)))) / 40),
        ExampleRow("thm15-I3", FamilySpec("I3"),
                   lambda c: sqrt(c.alpha * sqrt(5))),
    ]

    # ---- set thm16: harmonic-number series ---------------------------------
    rows += [
        ExampleRow("thm16-J1", FamilySpec("J1"),
                   lambda c: (mp.mpf(80) / 9 - 32 * sqrt(2) / 9
                              - 8 * sqrt(2) / 3 * ln(c.delta / 2)),
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


@lru_cache(maxsize=16)
def _power_of_ten(exponent: int, ctx: PrecisionContext) -> Real:
    """10^exponent at the working precision of ``ctx``, formed once per pair."""
    with ctx.workprec():
        return mp.mpf(10) ** exponent


def adaptive_target(ctx: PrecisionContext):
    """10^-(digits + 2), the error target of the adaptive runs behind a comparison."""
    return _power_of_ten(-(ctx.digits + 2), ctx)


def comparison_tolerance(ctx: PrecisionContext, tolerance=None):
    """``tolerance`` at working precision, by default 10^(TOLERANCE_EXPONENT -
    digits): the slack granted to closed-form evaluation on top of the
    certified bound.  A negative tolerance raises :class:`UsageError`."""
    if tolerance is None:
        return _power_of_ten(TOLERANCE_EXPONENT - ctx.digits, ctx)
    with ctx.workprec():
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
    """Reproduce one row: evaluate the series and the expected constant.

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
