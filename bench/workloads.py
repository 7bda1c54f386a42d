"""Seeded request lists for the four benchmark workloads.

A request is a plain dict, so that two lists compare with ``==``:

* ``kind``: ``"cli"`` (``argv`` goes to ``cbcseries.cli.main`` with
  ``--format json`` appended), ``"api"`` (``engine.sum_adaptive`` then
  ``closedforms.closed_value`` on ``family``/``params``, for inputs the CLI
  cannot spell, such as surd x) or ``"row"`` (``registry.run_example`` on
  ``row``);
* ``family``/``params``: the exact arguments of the series, or ``None`` for
  identity checks and registry rows (whose spec lives in the registry);
* ``digits``: the requested precision;
* ``expect``: the outcome the program must produce today.  ``"certify"``:
  a finite proven bound that the independent check accepts.  ``"partial"``:
  an uncertified ``--force-terms`` partial sum at a boundary point, checked
  term by term.  ``"refuse"``: exit 3, forever (divergent shapes).
  ``"may-fail"``: either a verified certified value or exit 3; these are the
  documented slow points a later method may certify (see README.md).

Costs vary little between seeds: the seed picks signs, orderings and values
inside narrow bands, never how much work a slot is.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("reproduce", "sweep40", "deep1000", "endpoints")

ALPHA = (1 + math.sqrt(5)) / 2
# every adaptive request in ``endpoints`` carries this one term cap
ENDPOINT_CAP = 2000
# identity sweeps of ``reproduce``, enlarged so that they take a visible share
IDENTITY_N_MAX = {
    "convolution": 1000,
    "weighted-convolution": 1000,
    "binomial-transform": 200,
    "sign-split": None,
    "arcsin-split": None,
    "derivative-forms": None,
    "harmonic-integral": 400,
}
# sweep40: six q bands per family between 0.05 and 0.9
SWEEP_BANDS = 6
SWEEP_FAMILIES = (
    "F1", "F2", "F3", "F4", "F5", "F6", "T1", "T2", "T3", "T4", "T5", "T6", "C1", "C2",
    *(f"G{i}" for i in range(1, 13)), "H1", "H2", "H3", "H4", "I1", "I2", "I3",
)


def _flag(name: str, value) -> str:
    return f"--{name}={value}"


def spec_argv(family: str, params: dict) -> list:
    """The CLI flags naming one series; values use ``--flag=value`` so that a
    negative rational is never read as a flag."""
    return ["--family", family] + [_flag(k, v) for k, v in params.items()]


def _cli(command: str, family: str, params: dict, digits: int, expect: str, extra=()) -> dict:
    argv = [command] + spec_argv(family, params) + [_flag("digits", digits), *extra]
    return {"kind": "cli", "argv": argv, "family": family, "params": params,
            "digits": digits, "expect": expect}


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _rational(rng: random.Random, magnitude: float, den: int = 64) -> str:
    """A signed k/den close to ``magnitude``, with 1 <= k < den."""
    k = min(max(round(magnitude * den), 1), den - 1)
    return str(Fraction(_sign(rng) * k, den))


def _pi_angle(rng: random.Random, q: float) -> str:
    """A signed pi/K with tan(pi/K) close to q; K >= 5 keeps q below 0.73."""
    k = max(round(math.pi / math.atan(q)), 5)
    return f"-pi/{k}" if _sign(rng) < 0 else f"pi/{k}"


def _g_params(rng: random.Random, q: float) -> dict:
    """m in 1..3, s in 0..5, and p just above 4*alpha^m/q, so the ratio is about q."""
    m = rng.choice((1, 2, 3))
    p = Fraction(math.ceil(4 * ALPHA**m / q * 4), 4)
    return {"m": m, "s": rng.choice(range(6)), "p": str(p)}


# ---------------------------------------------------------------------------


def reproduce(seed: int) -> list:
    """All registry rows at 30 digits, then the enlarged identity checks."""
    from cbcseries.registry import list_examples

    rows = [{"kind": "row", "row": row.id, "family": None, "params": None,
             "digits": 30, "expect": "certify"} for row in list_examples()]
    checks = []
    for ident, n_max in IDENTITY_N_MAX.items():
        argv = ["identity", "--id", ident, _flag("digits", 30)]
        if n_max is not None:
            argv.append(_flag("n-max", n_max))
        checks.append({"kind": "cli", "argv": argv, "family": None, "params": None,
                       "digits": 30, "expect": "certify"})
    out = rows + checks
    random.Random(seed).shuffle(out)
    return out


def _sweep_params(rng: random.Random, family: str, q: float, band: int):
    """(kind, params) of one sweep40 point with geometric ratio about q."""
    if family in ("F1", "F2"):
        if band % 2:  # surd x = c*sqrt(rad), x^2 = q; only the API can pass it
            rad = rng.choice((2, 3, 5, 6, 7))
            k = max(round(math.sqrt(q / rad) * 64), 1)
            return "api", {"x": {"coeff": str(Fraction(_sign(rng) * k, 64)), "radicand": str(rad)}}
        return "cli", {"x": _rational(rng, math.sqrt(q))}
    if family[0] == "F" or family[0] == "H":
        return "cli", {"x": _rational(rng, q)}
    if family[0] == "T":
        return "cli", {"phi": _pi_angle(rng, q)}
    if family[0] == "C":
        return "cli", {"x": _rational(rng, (q / 16) ** 0.25)}
    if family[0] == "G":
        return "cli", _g_params(rng, q)
    if family == "I1":
        return "cli", {"r": rng.choice((0, 2))}
    if family == "I2":
        return "cli", {"r": rng.choice((2, 4, 6, 8))}
    return "cli", {}


def sweep40(seed: int) -> list:
    """Six compare requests per family (J1 excepted), one per q band, 40 digits."""
    rng = random.Random(seed)
    out = []
    width = (0.9 - 0.05) / SWEEP_BANDS
    for family in SWEEP_FAMILIES:
        for band in range(SWEEP_BANDS):
            q = 0.05 + width * (band + rng.random())
            kind, params = _sweep_params(rng, family, q, band)
            if kind == "cli":
                out.append(_cli("compare", family, params, 40, "certify"))
            else:
                out.append({"kind": "api", "family": family, "params": params,
                            "digits": 40, "expect": "certify"})
    rng.shuffle(out)
    return out


def deep1000(seed: int) -> list:
    """Eight compare requests at 1000 digits, q <= 1/2 (I1 r=0 sits at 1/2)."""
    rng = random.Random(seed)
    slots = [
        (rng.choice(("F3", "F4")), {"x": _rational(rng, 1 / 4, 4)}),
        (rng.choice(("F1", "F2")), {"x": _rational(rng, 1 / 2, 2)}),
        (rng.choice(("T3", "T4")), {"phi": rng.choice(("pi/16", "-pi/16"))}),
        (rng.choice(("C1", "C2")), {"x": _rational(rng, 1 / 4, 4)}),
        (rng.choice(("G5", "G6", "G7", "G8")), {"m": 1, "s": rng.choice((1, 2, 3)), "p": "29"}),
        (rng.choice(("H1", "H2")), {"x": _rational(rng, 1 / 4, 4)}),
        ("I2", {"r": 4}),
        ("I1", {"r": 0}),
    ]
    out = [_cli("compare", family, params, 1000, "certify") for family, params in slots]
    rng.shuffle(out)
    return out


def endpoints(seed: int) -> list:
    """Bound-mode loops, boundary refusals, capped requests, 40 digits."""
    rng = random.Random(seed)
    cap = (_flag("max-terms", ENDPOINT_CAP),)
    out = []
    for family in ("C1", "C2"):
        # bound mode at x = +1/2 only: past 50,000 terms sum_fixed drops the
        # sign of a negative x (README.md, known defects)
        out.append(_cli("eval", family, {"x": "1/2"}, 40, "certify", (_flag("force-terms", 10**6),)))
        out.append(_cli("compare", family, {"x": str(Fraction(_sign(rng), 2))}, 40, "may-fail", cap))
    out.append(_cli("eval", "J1", {}, 40, "certify", (_flag("force-terms", 10**6),)))
    out.append(_cli("compare", "J1", {}, 40, "may-fail", cap))
    for family in ("F1", "F2", "F3", "F4", "F5", "F6", "T1", "T2", "T3", "T4", "T5", "T6"):
        if family[0] == "F":
            params = {"x": str(_sign(rng))}
        elif family in ("T1", "T2"):
            # the partial-sum check maps T1/T2 at tan(phi) = 1 onto F1/F2 at x = 1
            params = {"phi": "pi/4"}
        else:
            params = {"phi": rng.choice(("pi/4", "-pi/4"))}
        expect = "refuse" if family in ("F5", "F6", "T5", "T6") else "may-fail"
        out.append(_cli("compare", family, params, 40, expect, cap))
        out.append(_cli("eval", family, params, 40, "partial", (_flag("force-terms", 200),)))
    for r in (6, 8):
        out.append(_cli("compare", "I1", {"r": r}, 40, "may-fail", cap))
    out.append(_cli("compare", "H2", {"x": "99/100"}, 40, "may-fail", cap))
    out.append(_cli("compare", "G1", {"m": 1, "s": rng.randrange(190, 211), "p": "8"},
                    40, "may-fail", cap))
    rng.shuffle(out)
    return out


def requests(workload: str, seed: int) -> list:
    builders = {"reproduce": reproduce, "sweep40": sweep40, "deep1000": deep1000,
                "endpoints": endpoints}
    return builders[workload](seed)
