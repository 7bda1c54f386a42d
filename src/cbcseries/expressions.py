"""The elementary functions of the registry's closed-form constants.

The registry writes each expected constant as plain mpmath code: a function of
the named constants (:class:`~cbcseries.precision.Constants`), such as
``lambda c: sqrt(2) * arccot(sqrt(c.delta))``.  :func:`evaluate` calls it
under a :class:`~cbcseries.precision.PrecisionContext`, one rounding per
operation, so the same function yields more digits in a bigger context.

The functions below are the ones those constants use: ``sqrt ln arctan artanh``
are mpmath's own, and ``arccot arccoth`` the reciprocal forms for a > 1, the
only arguments the registry passes them.
"""

from __future__ import annotations

from typing import Callable

from mpmath import mp

from .precision import Constants, PrecisionContext, Real, constants


def evaluate(expr: Callable[[Constants], Real], ctx: PrecisionContext):
    """``expr`` at the named constants of ``ctx``, at its working precision
    (deterministic)."""
    with ctx.workprec():
        return expr(constants(ctx))


sqrt, ln, arctan, artanh = mp.sqrt, mp.log, mp.atan, mp.atanh


# mp.one / a, so that an int argument is not divided as a float
def arccot(a):
    return mp.atan(mp.one / a)


def arccoth(a):
    return mp.atanh(mp.one / a)
