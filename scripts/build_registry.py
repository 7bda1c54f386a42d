#!/usr/bin/env python3
"""Regenerate src/cbcseries/data/examples.json.

Every row is validated numerically before the file is written: the series is
summed with a certified bound and compared against the expected expression
tree, so a transcription slip in either the parameters or the tree fails the
build instead of landing in the data file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mpmath import mp

from cbcseries.closedforms import closed_value
from cbcseries.engine import sum_adaptive, sum_fixed, x_real
from cbcseries.expressions import evaluate
from cbcseries.precision import make_context
from cbcseries.registry import SCHEMA_VERSION, _row_from_record

OUT = ROOT / "src" / "cbcseries" / "data" / "examples.json"


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


def row(id, family, params, expected, anchor, mode="adaptive", scale="1"):
    return {
        "id": id,
        "family": family,
        "params": params,
        "scale": scale,
        "mode": mode,
        "expected": expected,
        "anchor": anchor,
    }


def x(v):
    return {"x": v}


def phi_pi(frac):
    return {"phi": {"coeff": frac, "times_pi": True}}


def gparams(m, s, p, seq):
    return {"m": m, "s": s, "p": str(p), "seq": seq}


SQRT2_OVER_2 = {"coeff": "1/2", "radicand": "2"}
SQRT2 = {"coeff": "1", "radicand": "2"}


def build_rows():
    rows = []

    # ---- set ex6: golden/silver-ratio constants of the F families ----------
    # Three denominator groups 4^n, 8^n, 16^n; for F1/F2 the printed constant
    # is the series divided by x, carried here as an exact scale factor.
    a3 = apow(3)
    a5 = apow(5)
    s17 = sq(17)
    rows += [
        row("ex6-F1-x1", "F1", x("1"),
            mul(sq(2), ["arccot", sq("delta")]),
            "catalog ex6: inverse-tangent weight, ceil signs, denominator 4^n",
            mode="closed"),
        row("ex6-F2-x1", "F2", x("1"),
            mul(sq(2), ["arccoth", sq("delta")]),
            "catalog ex6: inverse-tangent weight, floor signs, denominator 4^n",
            mode="closed"),
        row("ex6-F1-xs2o2", "F1", x(SQRT2_OVER_2),
            mul(2, ["arccot", sq(a3)]),
            "catalog ex6: inverse-tangent weight, ceil signs, denominator 8^n",
            scale=SQRT2),
        row("ex6-F2-xs2o2", "F2", x(SQRT2_OVER_2),
            mul(2, ["arccoth", sq(a3)]),
            "catalog ex6: inverse-tangent weight, floor signs, denominator 8^n",
            scale=SQRT2),
        row("ex6-F1-x1o2", "F1", x("1/2"),
            mul(2, sq(2), arctan(sq(sub(s17, 4)))),
            "catalog ex6: inverse-tangent weight, ceil signs, denominator 16^n",
            scale="2"),
        row("ex6-F2-x1o2", "F2", x("1/2"),
            mul(2, sq(2), artanh(sq(sub(s17, 4)))),
            "catalog ex6: inverse-tangent weight, floor signs, denominator 16^n",
            scale="2"),
        row("ex6-F3-x1", "F3", x("1"),
            div(1, sq(mul(2, "delta"))),
            "catalog ex6: plain weight, ceil signs, denominator 4^n",
            mode="closed"),
        row("ex6-F4-x1", "F4", x("1"),
            div(sq(mul(2, "delta")), 2),
            "catalog ex6: plain weight, floor signs, denominator 4^n",
            mode="closed"),
        row("ex6-F3-x1o2", "F3", x("1/2"),
            div(2, sq(mul(5, "alpha"))),
            "catalog ex6: plain weight, ceil signs, denominator 8^n"),
        row("ex6-F4-x1o2", "F4", x("1/2"),
            div(mul(2, sq(mul(5, "alpha"))), 5),
            "catalog ex6: plain weight, floor signs, denominator 8^n"),
        row("ex6-F3-x1o4", "F3", x("1/4"),
            div(mul(2, sq(sub(s17, 1))), s17),
            "catalog ex6: plain weight, ceil signs, denominator 16^n"),
        row("ex6-F4-x1o4", "F4", x("1/4"),
            div(mul(2, sq(add(s17, 1))), s17),
            "catalog ex6: plain weight, floor signs, denominator 16^n"),
        row("ex6-F5-x1", "F5", x("1"),
            neg(div(sq("delta"), 4)),
            "catalog ex6: linear weight, ceil signs, denominator 4^n",
            mode="closed"),
        row("ex6-F6-x1", "F6", x("1"),
            neg(div(1, mul(4, sq("delta")))),
            "catalog ex6: linear weight, floor signs, denominator 4^n",
            mode="closed"),
        row("ex6-F5-x1o2", "F5", x("1/2"),
            neg(div(sq(mul(5, a5)), 25)),
            "catalog ex6: linear weight, ceil signs, denominator 8^n"),
        row("ex6-F6-x1o2", "F6", x("1/2"),
            div(1, mul(5, sq(mul(5, a5)))),
            "catalog ex6: linear weight, floor signs, denominator 8^n"),
        row("ex6-F5-x1o4", "F5", x("1/4"),
            neg(mul(div(s17, 289), sq(add(mul(17, s17), 47)))),
            "catalog ex6: linear weight, ceil signs, denominator 16^n"),
        row("ex6-F6-x1o4", "F6", x("1/4"),
            mul(div(s17, 289), sq(sub(mul(17, s17), 47))),
            "catalog ex6: linear weight, floor signs, denominator 16^n"),
    ]

    # ---- set trig: tangent-argument constants at pi/6 and pi/8 -------------
    # Six ceil-sign constants plus two floor-sign companions at pi/6 derived
    # from the floor closed forms (same radical vocabulary).
    s3 = sq(3)
    w8d = sq(mul(sq(8), "delta"))          # sqrt(sqrt(8)*delta)
    w2d = sq(mul(sq(2), "delta"))          # sqrt(sqrt(2)*delta)
    pair8 = add(sq(add(2, w2d)), sq(sub(2, w2d)))
    rows += [
        row("trig-T1-pi6", "T1", phi_pi("1/6"),
            mul(sq(mul(2, s3)), arctan(sq(sub(2, s3)))),
            "catalog trig: inverse-tangent weight, ceil signs, phi = pi/6"),
        row("trig-T3-pi6", "T3", phi_pi("1/6"),
            div(sq(s3), 2),
            "catalog trig: plain weight, ceil signs, phi = pi/6"),
        row("trig-T5-pi6", "T5", phi_pi("1/6"),
            neg(div(sq(s3), 4)),
            "catalog trig: linear weight, ceil signs, phi = pi/6"),
        row("trig-T1-pi8", "T1", phi_pi("1/8"),
            mul(sq(mul(2, "delta")), arctan(sq(sub(w8d, "delta")))),
            "catalog trig: inverse-tangent weight, ceil signs, phi = pi/8"),
        row("trig-T3-pi8", "T3", phi_pi("1/8"),
            div(sq(mul("delta", w8d)), mul(sq(2), pair8)),
            "catalog trig: plain weight, ceil signs, phi = pi/8"),
        row("trig-T5-pi8", "T5", phi_pi("1/8"),
            neg(div(add(sq(mul(2, "delta")), sq(sq(8))),
                    mul(4, sq(w8d), pair8))),
            "catalog trig: linear weight, ceil signs, phi = pi/8 "
            "(fourth root groups sqrt(8)*delta together)"),
        row("trig-T2-pi6", "T2", phi_pi("1/6"),
            mul(sq(mul(2, s3)), artanh(sq(sub(2, s3)))),
            "catalog trig: inverse-tangent weight, floor signs, phi = pi/6"),
        row("trig-T4-pi6", "T4", phi_pi("1/6"),
            div(mul(s3, sq(s3)), 2),
            "catalog trig: plain weight, floor signs, phi = pi/6"),
    ]

    # ---- set ex9: Fibonacci/Lucas inverse-tangent rows (m=1, s=0) ----------
    c1 = sq(add(sub(2, mul(2, "alpha")), sq(sub(9, mul(4, "alpha")))))
    c2 = sq(sub(sq(add(5, mul(4, "alpha"))), mul(2, "alpha")))
    d1 = sq(add(sub(4, mul(4, "alpha")), sq(sub(33, mul(16, "alpha")))))
    d2 = sq(sub(sq(add(mul(16, "alpha"), 17)), mul(4, "alpha")))
    pref_f8 = div(mul(2, sq(5)), mul(5, sq("alpha")))
    pref_l8 = div(2, sq("alpha"))
    pref_f16 = div(mul(2, sq(10)), mul(5, sq("alpha")))
    pref_l16 = div(mul(2, sq(2)), sq("alpha"))
    rows += [
        row("ex9-F-p8", "G1", gparams(1, 0, 8, "F"),
            mul(pref_f8, sub(arctan(c1), mul("alpha", artanh(c2)))),
            "catalog ex9: Fibonacci, ceil signs, p = 8"),
        row("ex9-L-p8", "G2", gparams(1, 0, 8, "L"),
            mul(pref_l8, add(arctan(c1), mul("alpha", artanh(c2)))),
            "catalog ex9: Lucas, ceil signs, p = 8"),
        row("ex9-F-p8-floor", "G3", gparams(1, 0, 8, "F"),
            mul(pref_f8, sub(artanh(c1), mul("alpha", arctan(c2)))),
            "catalog ex9: Fibonacci, floor signs, p = 8"),
        row("ex9-L-p8-floor", "G4", gparams(1, 0, 8, "L"),
            mul(pref_l8, add(artanh(c1), mul("alpha", arctan(c2)))),
            "catalog ex9: Lucas, floor signs, p = 8"),
        row("ex9-F-p16", "G1", gparams(1, 0, 16, "F"),
            mul(pref_f16, sub(arctan(d1), mul("alpha", artanh(d2)))),
            "catalog ex9: Fibonacci, ceil signs, p = 16"),
        row("ex9-L-p16", "G2", gparams(1, 0, 16, "L"),
            mul(pref_l16, add(arctan(d1), mul("alpha", artanh(d2)))),
            "catalog ex9: Lucas, ceil signs, p = 16"),
        row("ex9-F-p16-floor", "G3", gparams(1, 0, 16, "F"),
            mul(pref_f16, sub(artanh(d1), mul("alpha", arctan(d2)))),
            "catalog ex9: Fibonacci, floor signs, p = 16"),
        row("ex9-L-p16-floor", "G4", gparams(1, 0, 16, "L"),
            mul(pref_l16, add(artanh(d1), mul("alpha", arctan(d2)))),
            "catalog ex9: Lucas, floor signs, p = 16"),
    ]

    # ---- set ex10: plain-weight Fibonacci/Lucas rows (m=1, s=0, p=8) -------
    a1 = sq(add(sq(mul(29, sub(6, "alpha"))), sub(1, mul(5, "alpha"))))
    a2 = sq(add(sq(mul(29, add(5, "alpha"))), sub(mul(5, "alpha"), 4)))
    b1 = sq(add(sq(mul(29, sub(6, "alpha"))), sub(mul(5, "alpha"), 1)))
    b2 = sq(add(sq(mul(29, add(5, "alpha"))), sub(4, mul(5, "alpha"))))
    rows += [
        row("ex10-F-p8", "G5", gparams(1, 0, 8, "F"),
            mul(div(sq(290), 145), sub(a1, a2)),
            "catalog ex10: Fibonacci, ceil signs"),
        row("ex10-L-p8", "G6", gparams(1, 0, 8, "L"),
            mul(div(sq(58), 29), add(a1, a2)),
            "catalog ex10: Lucas, ceil signs"),
        row("ex10-F-p8-floor", "G7", gparams(1, 0, 8, "F"),
            mul(div(sq(290), 145), sub(b1, b2)),
            "catalog ex10: Fibonacci, floor signs"),
        row("ex10-L-p8-floor", "G8", gparams(1, 0, 8, "L"),
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
        row("ex11-F-recip-floor", "G3", gparams(2, 0, 16, "F"),
            mul(pref_fe, sub(artanh(e1), mul(a2t, artanh(e2)))),
            "catalog ex11: Fibonacci, inverse-tangent weight, floor signs"),
        row("ex11-L-recip-floor", "G4", gparams(2, 0, 16, "L"),
            mul(pref_le, add(artanh(e1), mul(a2t, artanh(e2)))),
            "catalog ex11: Lucas, inverse-tangent weight, floor signs"),
        row("ex11-F-recip", "G1", gparams(2, 0, 16, "F"),
            mul(pref_fe, sub(arctan(e1), mul(a2t, arctan(e2)))),
            "catalog ex11: Fibonacci, inverse-tangent weight, ceil signs"),
        row("ex11-L-recip", "G2", gparams(2, 0, 16, "L"),
            mul(pref_le, add(arctan(e1), mul(a2t, arctan(e2)))),
            "catalog ex11: Lucas, inverse-tangent weight, ceil signs"),
        row("ex11-F-plain-floor", "G7", gparams(2, 0, 16, "F"),
            mul(div(sq(30), 15), sub(h1p, h2p)),
            "catalog ex11: Fibonacci, plain weight, floor signs"),
        row("ex11-L-plain-floor", "G8", gparams(2, 0, 16, "L"),
            mul(div(sq(150), 15), add(h1p, h2p)),
            "catalog ex11: Lucas, plain weight, floor signs"),
        row("ex11-F-plain", "G5", gparams(2, 0, 16, "F"),
            mul(div(sq(30), 15), sub(h1m, h2m)),
            "catalog ex11: Fibonacci, plain weight, ceil signs"),
        row("ex11-L-plain", "G6", gparams(2, 0, 16, "L"),
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
        row("thm15-I1-r2", "I1", {"r": 2}, i1_expected(3, sq(5)),
            "catalog thm15: Lucas-weighted row, r = 2"),
        row("thm15-I1-r4", "I1", {"r": 4}, i1_expected(7, 3),
            "catalog thm15: Lucas-weighted row, r = 4"),
        row("thm15-I1-r6", "I1", {"r": 6}, i1_expected(18, sq(20)),
            "catalog thm15: Lucas-weighted row, r = 6"),
        row("thm15-I2-r2", "I2", {"r": 2},
            div(sq(mul(15, a2t)), 5),
            "catalog thm15: Lucas-denominator row, r = 2"),
        row("thm15-I2-r4", "I2", {"r": 4},
            div(sq(mul(35, mul(a2t, a2t))), 15),
            "catalog thm15: Lucas-denominator row, r = 4"),
        row("thm15-I2-r6", "I2", {"r": 6},
            div(sq(mul(90, mul(a2t, mul(a2t, a2t)))), 40),
            "catalog thm15: Lucas-denominator row, r = 6"),
        row("thm15-I3", "I3", {},
            sq(mul("alpha", sq(5))),
            "catalog thm15: the 20^n row"),
    ]

    # ---- set thm16: harmonic-number series ---------------------------------
    rows += [
        row("thm16-J1", "J1", {},
            sub(sub(div(80, 9), div(mul(32, sq(2)), 9)),
                mul(div(mul(8, sq(2)), 3), ["ln", div("delta", 2)])),
            "catalog thm16: harmonic-weighted series, certified at fixed N",
            mode="bound:1000000"),
    ]
    return rows


def validate(records):
    ctx30 = make_context(30)
    ctx40 = make_context(40)
    failures = []
    for rec in records:
        r = _row_from_record(rec)
        with ctx40.workprec():
            expected = evaluate(r.expected, ctx40)
            scale = x_real(r.scale, ctx40)
            if r.mode == "closed":
                got = scale * closed_value(r.spec, ctx40)
                ok = abs(got - expected) < mp.mpf(10) ** -30
            elif r.mode.startswith("bound:"):
                got = scale * closed_value(r.spec, ctx40)
                ok = abs(got - expected) < mp.mpf(10) ** -30
                res = sum_fixed(r.spec, 4000, ctx40)
                ok = ok and abs(res.value - got) <= res.error_bound()
            else:
                res = sum_adaptive(r.spec, mp.mpf(10) ** -32, ctx30)
                got = scale * res.value
                ok = abs(got - expected) < mp.mpf(10) ** -25
            print(f"  {r.id:24s} {'ok' if ok else 'MISMATCH':8s} {mp.nstr(expected, 12)}")
            if not ok:
                failures.append((r.id, got, expected))
    if failures:
        for rid, got, exp in failures:
            print(f"MISMATCH {rid}: series {mp.nstr(got, 25)} expected {mp.nstr(exp, 25)}",
                  file=sys.stderr)
        raise SystemExit(1)


def main():
    records = build_rows()
    print(f"validating {len(records)} rows ...")
    validate(records)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema_version": SCHEMA_VERSION, "rows": records}
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(records)} rows)")


if __name__ == "__main__":
    main()
