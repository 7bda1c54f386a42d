"""Tiny prefix expression trees for exact closed-form constants.

A tree is either a leaf or a list ``[op, arg, ...]``:

* leaves: Python ``int``, a rational string ``"p/q"`` (or ``"p"``), or one of
  the symbols ``"alpha"`` (golden ratio), ``"beta"`` (its conjugate),
  ``"delta"`` (silver ratio);
* ops: the names of :data:`OPS`, the one table of what a tree may use.  Each
  entry gives the arity, the mpmath function and the domain test:
  ``neg sqrt ln arctan artanh arccot arccoth`` take one argument,
  ``add sub mul div`` two.

The registry writes its expected constants as such trees.  Evaluation happens
under a :class:`~cbcseries.precision.PrecisionContext`, one rounding per
operation, so the same tree yields more digits in a bigger context.  An
argument outside an op's domain raises :class:`~cbcseries.precision.DomainError`.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from mpmath import mp

from .precision import DomainError, PrecisionContext, UsageError, constants

Expr = Union[int, str, list, tuple]


def _arccot(a):
    # arctan(1/a) for a > 0; continued to the (0, pi) branch for a <= 0 so the
    # function is continuous on the whole line.
    if a == 0:
        return mp.pi / 2
    if a > 0:
        return mp.atan(1 / a)
    return mp.atan(1 / a) + mp.pi


class Op(NamedTuple):
    """One tree operation; ``outside`` is true where its last argument leaves
    the domain, and ``detail`` then explains the :class:`DomainError`."""

    arity: int
    fn: Callable
    outside: Optional[Callable] = None
    detail: str = ""


OPS = {
    "neg": Op(1, operator.neg),
    "add": Op(2, operator.add),
    "sub": Op(2, operator.sub),
    "mul": Op(2, operator.mul),
    "div": Op(2, operator.truediv, lambda b: b == 0, "division by zero"),
    "sqrt": Op(1, mp.sqrt, lambda a: a < 0, "negative argument on the real surface"),
    "ln": Op(1, mp.log, lambda a: a <= 0),
    "arctan": Op(1, mp.atan),
    "artanh": Op(1, mp.atanh, lambda a: abs(a) >= 1, "|x| must be < 1"),
    "arccot": Op(1, _arccot),
    "arccoth": Op(1, lambda a: mp.atanh(1 / a), lambda a: abs(a) <= 1, "|x| must be > 1"),
}
_SYMBOLS = ("alpha", "beta", "delta")
_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def validate_expression(expr: Expr) -> None:
    """Raise :class:`UsageError` unless ``expr`` is a well-formed tree."""
    if isinstance(expr, bool):
        raise UsageError("booleans are not expression leaves")
    if isinstance(expr, int):
        return
    if isinstance(expr, str):
        if expr in _SYMBOLS:
            return
        if _RATIONAL_RE.match(expr):
            try:
                Fraction(expr)
            except ZeroDivisionError:
                raise UsageError(f"zero denominator in leaf {expr!r}")
            return
        raise UsageError(f"unknown expression leaf {expr!r}")
    if isinstance(expr, (list, tuple)) and expr:
        op = OPS.get(expr[0]) if isinstance(expr[0], str) else None
        if op is not None and len(expr) == op.arity + 1:
            for arg in expr[1:]:
                validate_expression(arg)
            return
        raise UsageError(f"malformed expression node {expr!r}")
    raise UsageError(f"cannot interpret {expr!r} as an expression")


def evaluate(expr: Expr, ctx: PrecisionContext):
    """Evaluate a tree to a Real under ``ctx`` (deterministic)."""
    validate_expression(expr)
    with ctx.workprec():
        return _eval(expr, ctx, constants(ctx))


def _eval(expr, ctx, cs):
    if isinstance(expr, int):
        return ctx.real(expr)
    if isinstance(expr, str):
        if expr in _SYMBOLS:
            return getattr(cs, expr)
        return ctx.real(Fraction(expr))
    op = OPS[expr[0]]
    args = [_eval(a, ctx, cs) for a in expr[1:]]
    if op.outside is not None and op.outside(args[-1]):
        raise DomainError(expr[0], args[-1], op.detail)
    return op.fn(*args)
