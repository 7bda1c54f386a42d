"""Certified evaluation of central-binomial-coefficient series.

The package sums a catalog of series built from central binomial
coefficients (plain, trigonometric-argument, quarter-index, Fibonacci and
Lucas weighted, harmonic-number weighted), evaluates their elementary closed
forms, and compares the two with certified truncation and rounding error
bounds at user-chosen precision.  Seven identities are checked: the five
exact ones are proved for every n (the two central-binomial convolutions,
the binomial transform and the harmonic log-moment sum by WZ and Gosper
certificates, the sign split by its weights over one period of the signs),
and two analytic lemmas are compared numerically at high precision.
"""

from cbcseries.precision import (
    PrecisionContext,
    make_context,
    constants,
    UsageError,
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
