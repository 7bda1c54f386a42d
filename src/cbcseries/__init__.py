"""Certified evaluation of central-binomial-coefficient series.

The package sums a catalog of series built from central binomial
coefficients (plain, trigonometric-argument, quarter-index, Fibonacci and
Lucas weighted, harmonic-number weighted), evaluates their elementary closed
forms, and compares the two with certified truncation and rounding error
bounds at user-chosen precision.  A set of finite exact identities can be
verified by brute force over integer ranges.
"""

from cbcseries.precision import (
    PrecisionContext,
    make_context,
    constants,
    UsageError,
    DomainError,
)
from cbcseries.families import FamilySpec, SignPattern, list_families
from cbcseries.engine import (
    EvalResult,
    sum_fixed,
    sum_adaptive,
    tail_bound,
    term,
    term_fraction,
    UncertifiedError,
    ConvergenceError,
)
from cbcseries.closedforms import closed_value
from cbcseries.registry import list_examples, run_example

__version__ = "0.1.0"

__all__ = [
    "PrecisionContext",
    "make_context",
    "constants",
    "UsageError",
    "DomainError",
    "FamilySpec",
    "SignPattern",
    "list_families",
    "EvalResult",
    "sum_fixed",
    "sum_adaptive",
    "tail_bound",
    "term",
    "term_fraction",
    "UncertifiedError",
    "ConvergenceError",
    "closed_value",
    "list_examples",
    "run_example",
    "__version__",
]
