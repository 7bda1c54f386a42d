"""Independent check of every result the benchmark gets back.

A value is accepted when it lies within its reported error bound, plus
10^(5 - digits) relative to max(1, |reference|), of the family's closed form
evaluated 20 digits deeper.  The relative form only matters above 1, where
the CLI's rendering at ``digits`` significant digits itself errs by more
than 10^(5 - digits).  For rational families the engine's first eight terms
must also sum to the exact ``term_fraction`` sum, and an uncertified
``--force-terms`` partial sum at a boundary point must equal the exact sum
of its terms.  The CLI's own pass verdict is never taken as the check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath import mp

from cbcseries import engine, registry
from cbcseries.closedforms import closed_value
from cbcseries.families import FamilySpec, PhiValue, SurdValue
from cbcseries.precision import UsageError, make_context

EXTRA_DIGITS = 20
TERMS_CHECKED = 8
# outcomes that satisfy each expectation (see workloads.py)
ACCEPTED = {
    "certify": {"certified"},
    "partial": {"partial", "certified"},
    "may-fail": {"certified", "numeric-failure"},
    "refuse": {"numeric-failure"},
}


def make_spec(family: str, params: dict) -> FamilySpec:
    """The FamilySpec a request names, built from its exact arguments."""
    kwargs = {}
    for name, value in params.items():
        if name == "x":
            kwargs["x"] = (SurdValue(Fraction(value["coeff"]), Fraction(value["radicand"]))
                           if isinstance(value, dict) else Fraction(value))
        elif name == "phi":
            sign, _, k = value.rpartition("pi/")
            kwargs["phi"] = PhiValue(Fraction(-1 if sign == "-" else 1, int(k)), times_pi=True)
        elif name == "p":
            kwargs["p"] = Fraction(value)
        else:
            kwargs[name] = value
    return FamilySpec(family=family, **kwargs)


def _exact_real(value):
    if isinstance(value, SurdValue):
        return mp.mpf(value.coeff.numerator) / value.coeff.denominator * mp.sqrt(
            mp.mpf(value.radicand.numerator) / value.radicand.denominator)
    return mp.mpf(value.numerator) / value.denominator


class Checker:
    """Checks raw results; caches references, which depend only on the spec."""

    def __init__(self):
        self._refs = {}
        self._term_ok = {}

    def reference(self, spec: FamilySpec, digits: int, scale=Fraction(1)):
        key = (spec, digits, scale)
        if key not in self._refs:
            ctx = make_context(digits + EXTRA_DIGITS)
            with ctx.workprec():
                self._refs[key] = closed_value(spec, ctx) * _exact_real(scale)
        return self._refs[key]

    def _agrees(self, value, bound, ref, digits) -> bool:
        """|value - ref| <= bound + slack; ``ref`` is an mpf or an exact Fraction."""
        with mp.workdps(digits + EXTRA_DIGITS + 10):
            if isinstance(ref, Fraction):
                ref = _exact_real(ref)
            slack = mp.mpf(10) ** (5 - digits) * max(1, abs(ref))
            return bool(abs(mp.mpf(value) - ref) <= mp.mpf(bound) + slack)

    def first_terms_match(self, spec: FamilySpec, digits: int) -> bool:
        """sum_fixed over the first terms equals the exact term_fraction sum."""
        if spec in self._term_ok:
            return self._term_ok[spec]
        try:
            exact = sum(engine.term_fraction(spec, n) for n in range(TERMS_CHECKED))
        except UsageError:  # T families and irrational surd x have no exact terms
            self._term_ok[spec] = True
            return True
        res = engine.sum_fixed(spec, TERMS_CHECKED - 1, make_context(digits))
        ok = self._agrees(res.value, res.rounding_bound, exact, digits)
        self._term_ok[spec] = ok
        return ok

    def _value_status(self, spec, digits, value, bound, scale=Fraction(1)) -> str:
        if not math.isfinite(float(bound)):
            return "error"
        ref = self.reference(spec, digits, scale)
        if not self._agrees(value, bound, ref, digits):
            return "wrong"
        return "certified" if self.first_terms_match(spec, digits) else "wrong"

    def _partial_status(self, spec, digits, value, rounding, terms) -> str:
        """An uncertified boundary partial sum against its exact terms.

        T families at tan(phi) = t = +-1 have the terms of the F family with
        the same number at x = t (T1/T2 only at t = 1, where x^(2n+1) = t^n).
        """
        if spec.family[0] == "T":
            t = -1 if spec.phi.coeff < 0 else 1
            spec = FamilySpec(family="F" + spec.family[1], x=Fraction(t))
        exact = sum(engine.term_fraction(spec, n) for n in range(terms))
        ok = self._agrees(value, rounding, exact, digits)
        return "partial" if ok else "wrong"

    def status(self, req: dict, raw) -> dict:
        """Outcome of one request: status, terms_used, and the detail on failure.

        ``raw`` is ``(exit_code, payload, stderr)`` where payload is the CLI's
        stdout, a registry ComparisonReport, or an (EvalResult, closed) pair.
        """
        code, payload, err = raw
        out = {"status": "error", "terms": None, "detail": err[-300:] if err else ""}
        if code == 3:
            out["status"] = "numeric-failure"
            return out
        if code not in (0, 1):
            return out
        try:
            if req["kind"] == "row":
                out.update(self._row(req, payload))
            elif req["kind"] == "api":
                out.update(self._api(req, payload))
            elif req["argv"][0] == "identity":
                out.update(self._identity(req, json.loads(payload)))
            else:
                out.update(self._series(req, json.loads(payload)["results"][0]))
        except Exception as exc:  # a crash in one check must not stop the run
            out["status"] = "error"
            out["detail"] = f"check failed: {exc!r}"
        if code == 1 and out["status"] != "wrong":
            out["status"] = "wrong"
            out["detail"] = "the program's own comparison failed"
        return out

    def _row(self, req, report):
        row = registry.get_example(req["row"])
        status = self._value_status(row.spec, req["digits"], report.series_value,
                                    report.certified_bound, row.scale)
        if not report.passed:
            status = "wrong"
        return {"status": status, "terms": report.terms_used}

    def _api(self, req, payload):
        result, _closed = payload
        spec = make_spec(req["family"], req["params"])
        status = self._value_status(spec, req["digits"], result.value, result.error_bound())
        return {"status": status, "terms": result.terms_used}

    def _identity(self, req, record):
        rows = record["results"]
        argv = req["argv"]
        n_max = next((a.split("=", 1)[1] for a in argv if a.startswith("--n-max=")), None)
        ok = len(rows) == 1 and rows[0]["status"] == "pass" and rows[0]["failures"] == 0
        if n_max is not None:
            ok = ok and n_max in rows[0]["range"]
        return {"status": "certified" if ok else "wrong", "terms": None}

    def _series(self, req, row):
        spec = make_spec(req["family"], req["params"])
        digits = req["digits"]
        terms = int(row["terms_used"])
        value = row.get("series_value", row.get("value"))
        bound = row["error_bound"]
        if bound == "unknown":
            status = self._partial_status(spec, digits, value, row["rounding_bound"], terms)
        else:
            status = self._value_status(spec, digits, value, bound)
        return {"status": status, "terms": terms}


def accepted(req: dict, status: str) -> bool:
    return status in ACCEPTED[req["expect"]]
