"""Command-line surface: evaluation, comparison, identity sweeps, registry runs.

Every subcommand writes one machine-readable record to stdout in the selected
format (text table, CSV with header row, or a single JSON document) and keeps
diagnostics on stderr.  Exit codes: 0 success/pass, 1 verification failure,
2 usage error, 3 numeric failure (uncertifiable point or term-cap overrun).

The same command line always produces byte-identical stdout: all numeric
output is rendered through the deterministic precision context, and the one
randomized sweep (sign-split) runs from a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from mpmath import mp

from cbcseries.closedforms import closed_value
from cbcseries.engine import (
    DEFAULT_MAX_TERMS,
    ConvergenceError,
    UncertifiedError,
    sum_adaptive,
    sum_fixed,
)
from cbcseries.families import ALL_FAMILIES, FamilySpec, PhiValue, list_families
from cbcseries.identities import (
    SIGN_SPLIT_N_DEFAULT,
    check_binomial_transform,
    check_convolution,
    check_harmonic_integral,
    check_lemma1,
    check_lemma2,
    check_sign_split,
    check_weighted_convolution,
)
from cbcseries.precision import DomainError, PrecisionContext, UsageError, constants, make_context
from cbcseries.registry import (
    EXAMPLE_SETS,
    TOLERANCE_EXPONENT,
    adaptive_target,
    comparison_passes,
    comparison_tolerance,
    get_example,
    list_examples,
    run_example,
)

SCHEMA_VERSION = 1

_TOL_HELP = f"comparison tolerance, >= 0 (default 10^({TOLERANCE_EXPONENT}-digits))"
_PI_RE = re.compile(r"^([+-]?)pi(?:/(\d+))?$")

# a negative fraction or angle given as a separate word ("--x -1/2",
# "--phi -pi/6"), which argparse would read as a flag
_NEGATIVE_VALUE_RE = re.compile(r"^-(\d|\.|pi)")
_VALUE_FLAGS = ("--x", "--phi", "--p", "--tol")

# identity id -> (default --n-max of a range check, or None; the check run at
# that bound and a context).  The lambdas look the check_* functions up as
# module globals at call time.
_IDENTITY_CHECKS = {
    "convolution": (300, lambda n, ctx: check_convolution(n)),
    "weighted-convolution": (300, lambda n, ctx: check_weighted_convolution(n)),
    "binomial-transform": (60, lambda n, ctx: check_binomial_transform(n)),
    "sign-split": (SIGN_SPLIT_N_DEFAULT, lambda n, ctx: check_sign_split(n_max=n)),
    "arcsin-split": (None, lambda n, ctx: check_lemma1(_lemma_samples(), ctx)),
    "derivative-forms": (None, lambda n, ctx: check_lemma2(_lemma_samples(), ctx)),
    "harmonic-integral": (100, lambda n, ctx: check_harmonic_integral(n)),
}
IDENTITY_IDS = tuple(_IDENTITY_CHECKS) + ("all",)
_RANGE_CHECKS = sorted(i for i, (default, _) in _IDENTITY_CHECKS.items() if default is not None)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: cannot parse {text!r} (use p/q or a decimal)")


def _parse_phi(text: str) -> PhiValue:
    m = _PI_RE.match(text.strip())
    if m:
        num = -1 if m.group(1) == "-" else 1
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise UsageError("--phi: pi/0 is not an angle")
        return PhiValue(Fraction(num, den), times_pi=True)
    try:
        return PhiValue(Fraction(text), times_pi=False)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--phi: cannot parse {text!r} (use pi/K, -pi/K, or a decimal)")


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    kwargs = {}
    if args.x is not None:
        kwargs["x"] = _parse_fraction(args.x, "--x")
    if args.phi is not None:
        kwargs["phi"] = _parse_phi(args.phi)
    for name in ("m", "s", "r"):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    if args.p is not None:
        kwargs["p"] = _parse_fraction(args.p, "--p")
    if args.seq is not None:
        kwargs["seq"] = args.seq
    return FamilySpec(family=args.family, **kwargs)


# ---------------------------------------------------------------------------
# output record assembly


def _num(ctx: PrecisionContext, value) -> str:
    """Decimal string at full requested digits; non-finite means no bound."""
    if not mp.isfinite(value):
        return "unknown"
    return ctx.to_str(value)


def _record(command: str, parameters: dict, results: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _echo_spec(args: argparse.Namespace) -> dict:
    out = {"family": args.family}
    for name in ("x", "phi", "m", "s", "p", "r", "seq"):
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value if isinstance(value, int) else str(value)
    out["digits"] = args.digits
    return out


def _emit(record: dict, fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        json.dump(record, out, indent=2)
        out.write("\n")
        return
    rows = record["results"]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([row.get(key, "") for key in header])
        return
    if not rows:
        out.write(f"{record['command']}: no results\n")
        return
    if len(rows) == 1:
        row = rows[0]
        width = max(len(key) for key in row)
        for key, value in row.items():
            out.write(f"{key.ljust(width)}  {value}\n")
        return
    header = list(rows[0].keys())
    widths = {
        key: max(len(key), max(len(str(row.get(key, ""))) for row in rows))
        for key in header
    }
    out.write("  ".join(key.ljust(widths[key]) for key in header).rstrip() + "\n")
    for row in rows:
        line = "  ".join(str(row.get(key, "")).ljust(widths[key]) for key in header)
        out.write(line.rstrip() + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_constants(args: argparse.Namespace):
    ctx = make_context(args.digits)
    values = constants(ctx)
    rows = [
        {"name": name, "value": _num(ctx, getattr(values, name))}
        for name in ("alpha", "beta", "delta", "sqrt5", "pi")
    ]
    return _record("constants", {"digits": args.digits}, rows), True


def _cmd_eval(args: argparse.Namespace):
    ctx = make_context(args.digits)
    spec = _spec_from_args(args)
    if args.force_terms is not None:
        count = args.force_terms + 1 - spec.first_index()
        if count > args.max_terms:
            raise UsageError(
                f"--force-terms {args.force_terms} sums {count} terms, past the cap "
                f"--max-terms {args.max_terms}"
            )
        result = sum_fixed(spec, args.force_terms, ctx)
    else:
        result = sum_adaptive(spec, adaptive_target(ctx), ctx, max_terms=args.max_terms)
    with ctx.workprec():
        row = {
            "spec": spec.describe(),
            "value": _num(ctx, result.value),
            "terms_used": result.terms_used,
            "truncation_bound": _num(ctx, result.truncation_bound),
            "rounding_bound": _num(ctx, result.rounding_bound),
            "error_bound": _num(ctx, result.error_bound()),
            "converged": "true" if result.converged else "false",
        }
    params = _echo_spec(args)
    params["max_terms"] = args.max_terms
    if args.force_terms is not None:
        params["force_terms"] = args.force_terms
    return _record("eval", params, [row]), True


def _cmd_closed(args: argparse.Namespace):
    ctx = make_context(args.digits)
    spec = _spec_from_args(args)
    value = closed_value(spec, ctx)
    row = {"spec": spec.describe(), "value": _num(ctx, value)}
    return _record("closed", _echo_spec(args), [row]), True


def _cmd_compare(args: argparse.Namespace):
    ctx = make_context(args.digits)
    spec = _spec_from_args(args)
    tol = _parse_fraction(args.tol, "--tol") if args.tol is not None else None
    tol = comparison_tolerance(ctx, tol)
    result = sum_adaptive(spec, adaptive_target(ctx), ctx, max_terms=args.max_terms)
    closed = closed_value(spec, ctx)
    with ctx.workprec():
        diff = abs(result.value - closed)
        bound = result.error_bound()
        ok = comparison_passes(diff, bound, tol)
        row = {
            "spec": spec.describe(),
            "series_value": _num(ctx, result.value),
            "closed_value": _num(ctx, closed),
            "abs_diff": _num(ctx, diff),
            "error_bound": _num(ctx, bound),
            "terms_used": result.terms_used,
            "pass": "pass" if ok else "fail",
        }
    params = _echo_spec(args)
    params["tol"] = args.tol if args.tol is not None else f"1e{TOLERANCE_EXPONENT - args.digits}"
    params["max_terms"] = args.max_terms
    return _record("compare", params, [row]), ok


def _lemma_samples():
    # 20 symmetric points, spacing 7/100, staying inside (-0.7, 0.7)
    return [Fraction(7 * (2 * k - 19), 200) for k in range(20)]


def _cmd_identity(args: argparse.Namespace):
    ident = args.id
    if args.n_max is not None and ident not in _RANGE_CHECKS:
        raise UsageError(
            "--n-max applies only to a single range-based check "
            f"({', '.join(_RANGE_CHECKS)})"
        )
    ctx = make_context(args.digits)
    selected = list(_IDENTITY_CHECKS) if ident == "all" else [ident]
    rows = []
    ok = True
    for name in selected:
        default, run = _IDENTITY_CHECKS[name]
        report = run(default if args.n_max is None else args.n_max, ctx)
        rows.append(
            {
                "id": report.id,
                "range": report.range,
                "status": report.status,
                "failures": len(report.failures),
            }
        )
        if not report.passed:
            ok = False
            for params, lhs, rhs in report.failures[:3]:
                print(f"{report.id} failed at {params}: lhs={lhs} rhs={rhs}", file=sys.stderr)
            if len(report.failures) > 3:
                print(f"{report.id}: {len(report.failures) - 3} more failure(s)", file=sys.stderr)
    params = {"id": ident, "digits": args.digits}
    if args.n_max is not None:
        params["n_max"] = args.n_max
    return _record("identity", params, rows), ok


def _cmd_examples(args: argparse.Namespace):
    ctx = make_context(args.digits)
    tolerance = _parse_fraction(args.tol, "--tol") if args.tol is not None else None
    if args.id is not None:
        selected = [get_example(args.id)]
    else:
        selected = list_examples(args.set)
    rows = []
    ok = True
    for example in selected:
        report = run_example(example.id, ctx, tolerance=tolerance)
        rows.append(
            {
                "id": report.id,
                "set": example.example_set(),
                "series_value": _num(ctx, report.series_value),
                "closed_value": _num(ctx, report.closed_value),
                "abs_diff": _num(ctx, report.abs_diff),
                "certified_bound": _num(ctx, report.certified_bound),
                "terms_used": report.terms_used,
                "pass": "pass" if report.passed else "fail",
            }
        )
        ok = ok and report.passed
    params = {"digits": args.digits}
    if args.id is not None:
        params["id"] = args.id
    else:
        params["set"] = args.set
    if args.tol is not None:
        params["tol"] = args.tol
    return _record("examples", params, rows), ok


def _cmd_list_families(args: argparse.Namespace):
    return _record("list-families", {}, list_families()), True


_DISPATCH = {
    "constants": _cmd_constants,
    "eval": _cmd_eval,
    "closed": _cmd_closed,
    "compare": _cmd_compare,
    "identity": _cmd_identity,
    "examples": _cmd_examples,
    "list-families": _cmd_list_families,
}


# ---------------------------------------------------------------------------
# parser


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=ALL_FAMILIES, metavar="ID",
                   help="series family id (see list-families)")
    p.add_argument("--x", help="series argument, exact p/q or decimal")
    p.add_argument("--phi", help="angle: pi/K, -pi/K, or a decimal in radians")
    p.add_argument("--m", type=int, help="index stride (G families)")
    p.add_argument("--s", type=int, help="index offset (G families)")
    p.add_argument("--p", help="denominator base, exact p/q or decimal (G families)")
    p.add_argument("--r", type=int, help="even Lucas index (I1, I2)")
    p.add_argument("--seq", choices=("F", "L"), help="sequence kind (G families)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digits", type=int, default=30, help="requested digits (default 30)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="data-stream format (default text)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cbcseries",
        description="Certified evaluation and verification of central-binomial series.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("constants", help="print the named constants")
    _add_output_flags(p)

    p = sub.add_parser("eval", help="sum one series with certified error bounds")
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS,
                   help="term cap (default 10^7)")
    p.add_argument("--force-terms", type=int, metavar="N",
                   help="sum exactly terms 0..N without requiring a certified bound")

    p = sub.add_parser("closed", help="evaluate the family's closed form")
    _add_family_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("compare", help="series vs closed form, pass/fail verdict")
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--tol", help=_TOL_HELP)
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS,
                   help="term cap (default 10^7)")

    p = sub.add_parser("identity", help="brute-force identity sweeps")
    p.add_argument("--id", choices=IDENTITY_IDS, default="all",
                   help="which check to run (default all)")
    p.add_argument("--n-max", type=int, help="override the sweep range")
    _add_output_flags(p)

    p = sub.add_parser("examples", help="reproduce catalogued constants")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--set", choices=EXAMPLE_SETS + ("all",), default="all",
                       help="example set to run (default all)")
    which.add_argument("--id", help="single row id")
    p.add_argument("--tol", help=_TOL_HELP)
    _add_output_flags(p)

    p = sub.add_parser("list-families", help="catalog of families and domains")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="data-stream format (default text)")

    return ap


def _attach_negative_values(argv: list) -> list:
    """Write a value flag followed by a negative word, "--x -1/2", as the one
    word "--x=-1/2", which argparse reads as the flag's value."""
    out = []
    for word in argv:
        if out and out[-1] in _VALUE_FLAGS and _NEGATIVE_VALUE_RE.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        record, ok = _DISPATCH[args.command](args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UncertifiedError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format)
    return 0 if ok else 1
