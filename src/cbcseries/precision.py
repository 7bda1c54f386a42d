"""Precision contexts, the package's error types and named constants.

All numeric work in this package runs inside a :class:`PrecisionContext`,
which fixes a requested digit count plus guard digits.  The context wraps
mpmath (gmpy2-backed where available): entering ``ctx.workprec()`` sets the
working precision for every operation in the block, and results are
deterministic -- the same inputs under the same context give bit-identical
output.

The module also provides the handful of named constants the series closed
forms need (golden ratio and friends).  The elementary operations of the
registry's expression trees, with their domain checks, are the one table
``expressions.OPS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp

Real = mpmath.mpf

RealLike = Union[int, float, str, Fraction, Real]

# Extra working digits beyond digits + guard_digits.  Rounding bounds are
# reported at digits + guard_digits, so the slack guarantees the reported
# bound dominates the true accumulated error even for ~1e7-term sums.
_SLACK_DPS = 10


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
    """Requested precision plus guard digits.

    ``digits`` is what the caller wants to trust; ``guard_digits`` absorb
    cancellation and accumulated rounding.  ``working_digits`` is their sum
    and is the precision at which rounding bounds are quoted.
    """

    digits: int
    guard_digits: int = 15

    def __post_init__(self):
        if not isinstance(self.digits, int) or self.digits < 1:
            raise UsageError(f"digits must be a positive integer, got {self.digits!r}")
        if not isinstance(self.guard_digits, int) or self.guard_digits < 0:
            raise UsageError(
                f"guard_digits must be a non-negative integer, got {self.guard_digits!r}"
            )

    @property
    def working_digits(self) -> int:
        return self.digits + self.guard_digits

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


def make_context(digits: int, guard_digits: int = 15) -> PrecisionContext:
    return PrecisionContext(digits=digits, guard_digits=guard_digits)


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
