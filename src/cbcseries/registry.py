"""Catalog of worked series constants and the runner that reproduces them.

Each :class:`ExampleRow` binds one series (a :class:`FamilySpec`, plus an
exact ``scale`` factor where the printed constant normalizes the series
differently) to an ``expected`` closed-form expression tree.  Rows live in
``data/examples.json`` inside the package; they are data, not code, so new
rows need no runner changes.

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

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import List, Optional

from mpmath import mp

from .closedforms import closed_value
from .engine import sum_adaptive, sum_fixed, x_real
from .expressions import Expr, evaluate, validate_expression
from .families import FamilySpec, PhiValue, SurdValue, XValue
from .precision import PrecisionContext, UsageError

SCHEMA_VERSION = 1
_DATA = "data/examples.json"

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


def _parse_exact(obj) -> XValue:
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict):
        return SurdValue(Fraction(obj["coeff"]), Fraction(obj["radicand"]))
    raise UsageError(f"cannot parse exact value {obj!r}")


def _parse_params(family: str, params: dict) -> FamilySpec:
    kwargs = {}
    if "x" in params:
        kwargs["x"] = _parse_exact(params["x"])
    if "phi" in params:
        kwargs["phi"] = PhiValue(Fraction(params["phi"]["coeff"]),
                                 bool(params["phi"].get("times_pi", False)))
    for name in ("m", "s", "r"):
        if name in params:
            kwargs[name] = int(params[name])
    if "p" in params:
        kwargs["p"] = Fraction(params["p"])
    if "seq" in params:
        kwargs["seq"] = params["seq"]
    return FamilySpec(family=family, **kwargs)


def _row_from_record(rec: dict) -> ExampleRow:
    validate_expression(rec["expected"])
    mode = rec.get("mode", "adaptive")
    if mode != "adaptive" and mode != "closed" and not mode.startswith("bound:"):
        raise UsageError(f"row {rec['id']}: unknown mode {mode!r}")
    return ExampleRow(
        id=rec["id"],
        spec=_parse_params(rec["family"], rec["params"]),
        expected=rec["expected"],
        anchor=rec["anchor"],
        mode=mode,
        scale=_parse_exact(rec.get("scale", "1")),
    )


@lru_cache(maxsize=1)
def _load_rows() -> tuple:
    text = resources.files("cbcseries").joinpath(_DATA).read_text(encoding="utf-8")
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(f"registry schema_version {doc.get('schema_version')!r} unsupported")
    rows = tuple(_row_from_record(rec) for rec in doc["rows"])
    seen = set()
    for row in rows:
        if row.id in seen:
            raise UsageError(f"duplicate registry id {row.id!r}")
        seen.add(row.id)
    return rows


def list_examples(example_set: Optional[str] = None) -> List[ExampleRow]:
    """All registry rows, optionally restricted to one example set."""
    rows = list(_load_rows())
    if example_set is None or example_set == "all":
        return rows
    if example_set not in EXAMPLE_SETS:
        raise UsageError(
            f"unknown example set {example_set!r}; choose from {', '.join(EXAMPLE_SETS)} or all"
        )
    return [row for row in rows if row.example_set() == example_set]


def get_example(row_id: str) -> ExampleRow:
    for row in _load_rows():
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
    certified bound."""
    with ctx.workprec():
        return (mp.mpf(10) ** (TOLERANCE_EXPONENT - ctx.digits) if tolerance is None
                else ctx.real(tolerance))


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
