"""Derive the certificates that ``cbcseries.identities`` proves its sums with,
and rederive its two lemmas with sympy's own calculus.

Each certificate is sympy's ``gosper_term`` in k of f(n, k) = F(n+1, k) -
F(n, k), F the summand of a sum over its right side: the rational z(n, k)
with G = z f and G(n, k+1) - G(n, k) = f(n, k).  The package commits the
results as polynomials and proves them afresh on every call, so sympy is
needed only here.  Run from the root of a checkout:

    python3 tools/derive_certificates.py

It prints each certificate, factored, then the residue of each lemma claim,
which simplifies to 0.  ``derive()`` returns the certificates, keyed by the
name of the committed certificate in ``cbcseries.identities``, and
``lemma_residues()`` the residues for the claims it is given.
"""

from __future__ import annotations

from sympy import atan, atanh, binomial, combsimp, diff, factor, simplify, sqrt, symbols
from sympy.concrete.gosper import gosper_term

n, k, j = symbols("n k j", integer=True, nonnegative=True)
x = symbols("x", real=True)


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


def lemma_residues(tan, tanh, product, g2):
    """{claim: residue, simplified} of the paper's two lemmas, each residue 0
    exactly when the claim holds.  Lemma 2, with s = sqrt(1 + x^4) and
    u = x / sqrt(1 + s): F = arctan(u) and G = artanh(u) are differentiated
    by sympy and compared with their claimed forms F' = sqrt(p / (2 s^2))
    and F'' = q sqrt(p / (2 s^6)), ``tan`` = (p, q) and ``tanh`` that of G,
    through F'^2 and F'F'', which hold no root of p; F'G' with 1 / (2 s^2)
    and F''G'' with product / (2 s^6).  Lemma 1: the claimed g^2 against
    x^2 (1 - g^4)."""
    s = sqrt(1 + x**4)
    u = x / sqrt(1 + s)
    out, first, second = {}, [], []
    for name, f, (p, q) in (("F", atan(u), tan), ("G", atanh(u), tanh)):
        d1 = diff(f, x)
        d2 = diff(d1, x)
        first.append(d1)
        second.append(d2)
        out[f"{name}'^2"] = d1**2 - p / (2 * s**2)
        out[f"{name}'{name}''"] = d1 * d2 - q * p / (2 * s**4)
    out["F'G'"] = first[0] * first[1] - 1 / (2 * s**2)
    out["F''G''"] = second[0] * second[1] - product / (2 * s**6)
    out["g^2 = x^2 (1 - g^4)"] = g2 - x**2 * (1 - g2**2)
    return {name: simplify(residue) for name, residue in out.items()}


if __name__ == "__main__":
    for name, z in derive().items():
        print(f"{name} = {z}")
    s, s1 = sqrt(1 + x**4), sqrt(1 + 4 * x**4)
    residues = lemma_residues((s - x**2, -x * (s + 2 * x**2)), (s + x**2, x * (s - 2 * x**2)),
                              x**2 * (3 * x**4 - 1), 2 * x**2 / (s1 + 1))
    for name, residue in residues.items():
        print(f"{name}: residue {residue}")
