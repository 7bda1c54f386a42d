"""The elementary functions of the registry's closed-form constants.

The registry writes each expected constant as plain mpmath code: a function of
the named constants (:class:`~cbcseries.precision.Constants`), such as
``lambda c: sqrt(2) * arccot(sqrt(c.delta))``.  :func:`evaluate` calls it
under a :class:`~cbcseries.precision.PrecisionContext`, one rounding per
operation, so the same function yields more digits in a bigger context.

The functions below are the ones those constants use: ``sqrt ln arctan artanh
arccot arccoth``.  An argument outside a function's domain raises
:class:`~cbcseries.precision.DomainError`.
"""

from __future__ import annotations

from typing import Callable

from mpmath import mp

from .precision import Constants, DomainError, PrecisionContext, Real, constants


def evaluate(expr: Callable[[Constants], Real], ctx: PrecisionContext):
    """``expr`` at the named constants of ``ctx``, at its working precision
    (deterministic)."""
    with ctx.workprec():
        return expr(constants(ctx))


def sqrt(a):
    if a < 0:
        raise DomainError("sqrt", a, "negative argument on the real surface")
    return mp.sqrt(a)


def ln(a):
    if a <= 0:
        raise DomainError("ln", a)
    return mp.log(a)


arctan = mp.atan


def artanh(a):
    if abs(a) >= 1:
        raise DomainError("artanh", a, "|x| must be < 1")
    return mp.atanh(a)


def arccot(a):
    """arctan(1/a) for a > 0, continued to the (0, pi) branch for a <= 0 so
    that the function is continuous on the whole line."""
    # mp.one / a, so that an int argument is not divided as a float
    if a == 0:
        return mp.pi / 2
    if a > 0:
        return mp.atan(mp.one / a)
    return mp.atan(mp.one / a) + mp.pi


def arccoth(a):
    if abs(a) <= 1:
        raise DomainError("arccoth", a, "|x| must be > 1")
    return mp.atanh(mp.one / a)
