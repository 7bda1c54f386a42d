"""Derive the certificates that ``cbcseries.identities`` proves its sums with.

Each certificate is sympy's ``gosper_term`` in k of f(n, k) = F(n+1, k) -
F(n, k), F the summand of a sum over its right side: the rational z(n, k)
with G = z f and G(n, k+1) - G(n, k) = f(n, k).  The package commits the
results as polynomials and proves them afresh on every call, so sympy is
needed only here.  Run from the root of a checkout:

    python3 tools/derive_certificates.py

It prints each certificate, factored.  ``derive()`` returns them, keyed by
the name of the committed certificate in ``cbcseries.identities``.
"""

from __future__ import annotations

from sympy import binomial, combsimp, factor, symbols
from sympy.concrete.gosper import gosper_term

n, k, j = symbols("n k j", integer=True, nonnegative=True)


def _c(x):
    return binomial(2 * x, x)


# name of the committed certificate -> the summand F(n, k) over its right side
SUMMANDS = {
    "_PLAIN_Z": _c(k) * _c(n - k) / 4**n,
    # the alternating sum at even 2n, written in n
    "_ALTERNATING_Z": (-1) ** k * _c(k) * _c(2 * n - k) / (4**n * _c(n)),
    "_K2_Z": k**2 * _c(k) * _c(n - k) * 8 / (n * (3 * n + 1) * 4**n),
    # the coefficient of t^j of the binomial transform
    "_TRANSFORM_Z": binomial(k, j) * _c(k) * _c(n - k) / (4 ** (n - j) * binomial(n, j) * _c(j)),
    # S(n) = n sum_k C(n-1,k) (-1)^k / (k+1)^2, whose right side H_n is no
    # hypergeometric term: the sum itself, which rises by 1/(n+1)
    "_HARMONIC_Z": n * binomial(n - 1, k) * (-1) ** k / (k + 1) ** 2,
}


def derive():
    """{name: z(n, k), a sympy rational function} for every committed certificate."""
    out = {}
    for name, F in SUMMANDS.items():
        f = combsimp(F.subs(n, n + 1) - F)
        out[name] = factor(gosper_term(f, k))
    return out


if __name__ == "__main__":
    for name, z in derive().items():
        print(f"{name} = {z}")
