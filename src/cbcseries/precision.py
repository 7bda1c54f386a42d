"""Precision contexts, the package's error types and named constants.

All numeric work in this package runs inside a :class:`PrecisionContext`,
which fixes a requested digit count plus guard digits.  The context wraps
mpmath (gmpy2-backed where available): entering ``ctx.workprec()`` sets the
working precision for every operation in the block, and results are
deterministic -- the same inputs under the same context give bit-identical
output.

The module also provides the handful of named constants the series closed
forms need (golden ratio and friends).  The elementary functions of the
registry's constants, with their domain checks, are in ``expressions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp

Real = mpmath.mpf

RealLike = Union[int, float, str, Fraction, Real]

# Guard digits past the requested ones: they absorb cancellation and
# accumulated rounding, and rounding bounds are quoted at digits + GUARD_DIGITS.
GUARD_DIGITS = 15

# Extra working digits beyond digits + GUARD_DIGITS, so that the reported
# rounding bound dominates the true accumulated error even for ~1e7-term sums.
_SLACK_DPS = 10

# Largest digits accepted.  At 10^5 digits `constants` takes about 2 s and
# `closed` or `eval` up to about 30 s (Python 3.11, one Xeon core); at 10^6
# `constants` alone runs past a minute, so a larger request is refused at once.
MAX_DIGITS = 100_000


class UsageError(ValueError):
    """A caller violated an interface contract (bad parameter, bad range)."""


class DomainError(ValueError):
    """An elementary function was called outside its mathematical domain."""

    def __init__(self, func: str, argument: object, detail: str = ""):
        self.func = func
        self.argument = argument
        msg = f"{func}: argument {argument!r} outside domain"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class PrecisionContext:
    """Requested precision plus ``GUARD_DIGITS``.

    ``digits`` is what the caller wants to trust, at most ``MAX_DIGITS``;
    ``working_digits`` adds the guard digits and is the precision at which
    rounding bounds are quoted.
    """

    digits: int

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < 1:
            raise UsageError(f"digits must be a positive integer, got {self.digits!r}")
        if self.digits > MAX_DIGITS:
            raise UsageError(f"digits must be <= {MAX_DIGITS}, the digits limit, got {self.digits}")

    @property
    def working_digits(self) -> int:
        return self.digits + GUARD_DIGITS

    def workprec(self):
        """Context manager setting mpmath precision for this context."""
        return mp.workdps(self.working_digits + _SLACK_DPS)

    def real(self, value: RealLike) -> Real:
        """Convert ``value`` to a Real, rounded once at working precision.

        Fractions and decimal strings are converted exactly before the single
        rounding, so e.g. ``"0.9"`` means 9/10 and not the nearest double.
        """
        with self.workprec():
            if isinstance(value, Fraction):
                return mp.mpf(value.numerator) / value.denominator
            if isinstance(value, (int, str)):
                return mp.mpf(value)
            if isinstance(value, (Real, float)):
                return +mp.mpf(value)
        raise UsageError(f"cannot interpret {value!r} as a real number")

    def to_str(self, value) -> str:
        """Render at the requested digit count (deterministic)."""
        with self.workprec():
            return mp.nstr(value, self.digits, strip_zeros=False)


def make_context(digits: int) -> PrecisionContext:
    return PrecisionContext(digits=digits)


@dataclass(frozen=True)
class Constants:
    alpha: Real      # golden ratio (1 + sqrt5)/2
    beta: Real       # conjugate root -1/alpha
    delta: Real      # silver ratio 1 + sqrt2
    sqrt5: Real
    pi: Real


def constants(ctx: PrecisionContext) -> Constants:
    with ctx.workprec():
        sqrt5 = mp.sqrt(5)
        alpha = (1 + sqrt5) / 2
        beta = (1 - sqrt5) / 2
        delta = 1 + mp.sqrt(2)
        return Constants(alpha=alpha, beta=beta, delta=delta, sqrt5=sqrt5, pi=+mp.pi)
