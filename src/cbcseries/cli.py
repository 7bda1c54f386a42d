"""Command-line surface: evaluation, comparison, identity checks, registry runs.

Every subcommand writes one machine-readable record to stdout in the selected
format (text table, CSV with header row, or a single JSON document) and keeps
diagnostics on stderr.  Exit codes: 0 success/pass, 1 verification failure,
2 usage error, 3 numeric failure (uncertifiable point or term-cap overrun).

The same command line always produces byte-identical stdout: all numeric
output is rendered through the deterministic precision context.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from mpmath import mp

from cbcseries.closedforms import closed_value
from cbcseries.engine import (
    DEFAULT_MAX_TERMS,
    ConvergenceError,
    UncertifiedError,
    sum_adaptive,
    sum_fixed,
)
from cbcseries.families import (
    ALL_FAMILIES, FAMILIES, MAX_RATIONAL_DIGITS, FamilySpec, PhiValue, check_rational_digits,
    list_families)
from cbcseries.identities import (
    check_binomial_transform,
    check_convolution,
    check_harmonic_integral,
    check_lemma1,
    check_lemma2,
    check_lemma_digits,
    check_sign_split,
    check_weighted_convolution,
)
from cbcseries.precision import PrecisionContext, UsageError, constants, make_context
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
# a decimal exponent of 10^5 or more in absolute value, whose power of ten
# Fraction would build in full (Fraction("1e-10000000") alone takes 5 s); as
# int() reads at most 4300 digits before it, the value has more than 4300 too
_HUGE_EXPONENT_RE = re.compile(r"e[+-]?[0_]*[1-9](_?\d){5,}\s*$", re.IGNORECASE)

# the words each subcommand reads as values, not flags: a negative number, as
# argparse's own matcher, and a negative fraction or angle ("--x -1/2",
# "--phi -pi/6"), which that matcher would take for a flag
_NEGATIVE_VALUE_RE = re.compile(r"^-(\d|\.|pi)")

# identity id -> (default --n-max of a range check, or None; the check run at
# that bound and a context).  The lambdas look the check_* functions up as
# module globals at call time.
_IDENTITY_CHECKS = {
    "convolution": (300, lambda n, ctx: check_convolution(n)),
    "weighted-convolution": (300, lambda n, ctx: check_weighted_convolution(n)),
    "binomial-transform": (60, lambda n, ctx: check_binomial_transform(n)),
    "sign-split": (63, lambda n, ctx: check_sign_split(n)),
    "arcsin-split": (None, lambda n, ctx: check_lemma1(_lemma_samples(), ctx)),
    "derivative-forms": (None, lambda n, ctx: check_lemma2(_lemma_samples(), ctx)),
    "harmonic-integral": (100, lambda n, ctx: check_harmonic_integral(n)),
}
IDENTITY_IDS = tuple(_IDENTITY_CHECKS) + ("all",)
_RANGE_CHECKS = sorted(i for i, (default, _) in _IDENTITY_CHECKS.items() if default is not None)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_fraction(text: str, flag: str, forms: str = "p/q or a decimal") -> Fraction:
    """The exact value of ``text``, refused past MAX_RATIONAL_DIGITS digits."""
    if _HUGE_EXPONENT_RE.search(text):
        raise UsageError(f"{flag} must have a numerator and denominator of at most "
                         f"{MAX_RATIONAL_DIGITS} digits, the digit limit")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: cannot parse {text!r} (use {forms})")
    check_rational_digits(flag, value)
    return value


def _parse_phi(text: str) -> PhiValue:
    m = _PI_RE.match(text.strip())
    if m:
        num = -1 if m.group(1) == "-" else 1
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise UsageError("--phi: pi/0 is not an angle")
        return PhiValue(Fraction(num, den), times_pi=True)
    return PhiValue(_parse_fraction(text, "--phi", "pi/K, -pi/K, or a decimal"), times_pi=False)


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
    for name in ("x", "phi", "m", "s", "p", "r"):
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value if isinstance(value, int) else str(value)
    out["digits"] = args.digits
    return out


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the dicts, lists,
    strings, ints, bools and None a record holds.  The json module runs its C
    encoder only without an indent; here each string goes through the C
    escaper and the indented layout is joined around it."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_encode_str(key)}: {_json(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        items = [_json(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"a record holds no {type(value).__name__}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit(record: dict, fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        out.write(_json(record) + "\n")
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
        if args.max_terms < 1:
            raise UsageError(f"max_terms must be >= 1, got {args.max_terms}")
        count = args.force_terms + 1 - FAMILIES[spec.family].first
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
    if any(_IDENTITY_CHECKS[name][0] is None for name in selected):
        check_lemma_digits(ctx)  # the lemma checks, before the first check runs
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


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digits", type=int, default=30, help="requested digits (default 30)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="data-stream format (default text)")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
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

    p = sub.add_parser("identity",
                       help="identity checks: proofs for every n, numeric lemmas")
    p.add_argument("--id", choices=IDENTITY_IDS, default="all",
                   help="which check to run (default all)")
    p.add_argument("--n-max", type=int,
                   help="override the range reported (the exact checks hold for every n)")
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

    # argparse has no public hook for this; it reads the private matcher the
    # same way on CPython 3.10 to 3.13, and test_negative_values_as_separate_words
    # fails if a later version stops
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
    return ap, sub.choices


# built once, at import: parsing keeps its state in the namespace it returns,
# and help and usage read the terminal and sys.stdout/stderr when they print.
# main hands a request straight to its subcommand's parser, which parses it as
# the top-level parser's subparsers action would, at about half the cost.
_PARSER, _SUBPARSERS = _build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    try:
        if sub is None:  # no argv, -h/--help or an unknown command
            args = _PARSER.parse_args(argv)
        else:
            args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        record, ok = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UncertifiedError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format)
    return 0 if ok else 1
