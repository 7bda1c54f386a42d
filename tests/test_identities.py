import importlib.util
import time
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import cbcseries.cli as cli
import cbcseries.identities as identities
from cbcseries.families import SignPattern
from cbcseries.identities import (
    CONVOLUTION_N_LIMIT,
    IdentityReport,
    check_binomial_transform,
    check_convolution,
    check_harmonic_integral,
    check_lemma1,
    check_lemma2,
    check_sign_split,
    check_weighted_convolution,
)
from cbcseries.precision import UsageError, make_context

import exact_streams

CTX40 = make_context(40)


def c_prefix(n):
    """C(2k, k) for k <= n, read through ``exact_streams`` at call time, so
    that a monkeypatch of its stream reaches the reference sweeps below."""
    stream = exact_streams.central_binomials()
    return [next(stream) for _ in range(n + 1)]


def test_convolution_sweep():
    assert check_convolution(120).passed


def test_weighted_convolution_sweep():
    assert check_weighted_convolution(120).passed


# the WZ proofs of the two convolution checks: (sum, certificate) by name
PROOFS = [("_PLAIN", "_PLAIN_Z"), ("_ALTERNATING", "_ALTERNATING_Z"), ("_K2", "_K2_Z")]
# the proofs of the binomial transform and the harmonic log-moment sum
NEW_PROOFS = [("_TRANSFORM", "_TRANSFORM_Z"), ("_HARMONIC", "_HARMONIC_Z")]
P, N, K, J = identities._Poly, identities._N, identities._K, identities._J


@pytest.mark.parametrize("names", PROOFS + NEW_PROOFS, ids=[s for s, _ in PROOFS + NEW_PROOFS])
def test_every_certificate_meets_its_obligations(names):
    s, z = (getattr(identities, name) for name in names)
    assert identities._prove(s, z) == []


def test_every_derivation_holds():
    assert identities._derive(identities._K1, 2, ((N, identities._PLAIN),), "r") == []
    assert identities._derive(
        identities._KN, 1, ((N, identities._K1), (-1, identities._K2)), "r") == []
    assert identities._vanishes_at_odd_n(identities._ALTERNATING) == []
    assert identities._vanishes_at_odd_n(identities._ALTERNATING_KN) == []


def _summand(s, n, k):
    """F(n, k) of the sum s as an exact Fraction, 0 off 0 <= k <= L."""
    top = s.step * n
    if not 0 <= k <= top:
        return Fraction(0)
    c = comb(2 * k, k) * comb(2 * (top - k), top - k)
    rhs = Fraction(s.rhs.at(n, 0) * 4**n * comb(2 * n, n) ** s.central, s.den)
    return s.sign**k * s.weight.at(n, k) * c / rhs


@pytest.mark.parametrize("names", PROOFS, ids=[s for s, _ in PROOFS])
def test_certificates_make_wz_pairs_pointwise(names):
    """G(n, k+1) - G(n, k) = F(n+1, k) - F(n, k) with G = z (F(n+1, k) - F(n, k))
    (0 where that difference is), in Fractions at every n < 25 and
    -2 <= k <= 2 step n + 5, and the base sum is 1: an oracle for the
    certificates that shares no algebra with _prove."""
    s, z = (getattr(identities, name) for name in names)

    def f(n, k):
        return _summand(s, n + 1, k) - _summand(s, n, k)

    def g(n, k):
        d = f(n, k)
        if d == 0:
            return d
        den = 1
        for factor in z.denom:
            den *= factor.at(n, k)
        return Fraction(z.numer.at(n, k), den) * d

    for n in range(z.start, 25):
        for k in range(-2, 2 * s.step * n + 6):
            assert g(n, k + 1) - g(n, k) == f(n, k), (n, k)
    assert sum(_summand(s, z.start, k) for k in range(s.step * z.start + 1)) == 1


def test_a_certificate_with_a_pole_on_the_support_fails_its_denominator():
    """The k(n-k) sum's own Gosper certificate, (k-1)(2k-2n-1)/(4k-3n-1), has
    a pole at n = 5, k = 4, so that sum is derived as n S1 - S2."""
    z = identities._Certificate(2, 1, (K - 1) * (2 * K - 2 * N - 1), (4 * K - 3 * N - 1,))
    assert (4 * K - 3 * N - 1).at(5, 4) == 0
    failures = identities._prove(identities._KN, z)
    assert [(p, str(lhs), rhs) for p, lhs, rhs in failures] == [
        ({"identity": "k(n-k)", "obligation": "denominator"}, "-3*n + 4*k - 1", "nonzero")
    ]


def _transform_summand(n, k, j):
    """C(k,j) c_k c_(n-k) / (4^(n-j) C(n,j) c_j) as an exact Fraction, 0 off
    j <= k <= n."""
    if not j <= k <= n:
        return Fraction(0)
    return Fraction(comb(k, j) * comb(2 * k, k) * comb(2 * (n - k), n - k),
                    4 ** (n - j) * comb(n, j) * comb(2 * j, j))


def _harmonic_summand(v, k):
    """v C(v-1,k) (-1)^k / (k+1)^2 as an exact Fraction, 0 off 0 <= k < v."""
    if not 0 <= k < v:
        return Fraction(0)
    return Fraction(v * comb(v - 1, k) * (-1) ** k, (k + 1) ** 2)


def _gosper(z, f, n, k, j=0):
    """G = z f at (n, k), 0 where f is."""
    d = f(n, k)
    return d and Fraction(z.numer.at(n, k, j), prod(x.at(n, k, j) for x in z.denom)) * d


@pytest.mark.parametrize("j", range(7))
def test_transform_certificate_makes_a_wz_pair_pointwise(j):
    """G(n, k+1) - G(n, k) = F(n+1, k) - F(n, k) in Fractions at n <= 15 and
    -2 <= k <= n + 4, the sum is 1 at every such n, and the base term
    F(j, j) is 1: an oracle for the certificate that shares no algebra with
    _prove."""
    z = identities._TRANSFORM_Z

    def f(n, k):
        return _transform_summand(n + 1, k, j) - _transform_summand(n, k, j)

    for n in range(j, 16):
        for k in range(-2, n + 5):
            assert _gosper(z, f, n, k + 1, j) - _gosper(z, f, n, k, j) == f(n, k), (n, k)
        assert sum(_transform_summand(n, k, j) for k in range(n + 1)) == 1
    assert _transform_summand(j, j, j) == 1


def test_harmonic_certificate_telescopes_pointwise():
    """At every v <= 19, in Fractions: G(v, k+1) - G(v, k) = f(v, k) for
    0 <= k <= v + 2, with f = F(v+1, k) - F(v, k) and G = z f; the sum of f
    is -G(v, 0) = 1/(v+1); and the sum of F is H_v, from F(1, 0) = 1."""
    z = identities._HARMONIC_Z

    def f(v, k):
        return _harmonic_summand(v + 1, k) - _harmonic_summand(v, k)

    h = Fraction(0)
    for v in range(1, 20):
        h += Fraction(1, v)
        for k in range(v + 3):
            assert _gosper(z, f, v, k + 1) - _gosper(z, f, v, k) == f(v, k), (v, k)
        assert sum(f(v, k) for k in range(-2, v + 3)) == -_gosper(z, f, v, 0) == Fraction(1, v + 1)
        assert sum(_harmonic_summand(v, k) for k in range(v)) == h
    assert _harmonic_summand(1, 0) == 1


# (sum, obligation, a change to the sum or certificate that only that
# obligation reads, or that breaks it first): each obligation of the two new
# proofs holds, and is checked
OBLIGATIONS = [
    ("_TRANSFORM", "right side", lambda s, z: (s._replace(right=(N - J - 1,)), z)),
    ("_TRANSFORM", "support", lambda s, z: (s, z._replace(low=1))),
    ("_TRANSFORM", "denominator", lambda s, z: (s, z._replace(denom=z.denom + (N - 2 * K,)))),
    ("_TRANSFORM", "lower end", lambda s, z: (s._replace(rise=(identities._ONE, N + 1)), z)),
    ("_TRANSFORM", "upper end", lambda s, z: (s._replace(high=N + 2), z)),
    ("_TRANSFORM", "interior", lambda s, z: (s._replace(a=s.a + 1), z)),
    ("_TRANSFORM", "base", lambda s, z: (s._replace(base=(s.base[0] + J, s.base[1])), z)),
    ("_HARMONIC", "support", lambda s, z: (s, z._replace(low=1))),
    ("_HARMONIC", "denominator", lambda s, z: (s, z._replace(denom=z.denom + (N - 2 * K,)))),
    ("_HARMONIC", "right side", lambda s, z: (s._replace(right=(N - 2,)), z)),
    ("_HARMONIC", "lower end", lambda s, z: (s._replace(rise=(s.rise[0] + 1, s.rise[1])), z)),
    ("_HARMONIC", "upper end", lambda s, z: (s._replace(high=N + 1), z)),
    ("_HARMONIC", "interior", lambda s, z: (s._replace(b=s.b + 1), z)),
    ("_HARMONIC", "base", lambda s, z: (s._replace(base=(s.base[0], Fraction(3, 2))), z)),
]


@pytest.mark.parametrize("name, obligation, change", OBLIGATIONS,
                         ids=[f"{n}-{o}" for n, o, _ in OBLIGATIONS])
def test_each_obligation_of_the_new_proofs_is_checked(name, obligation, change):
    s, z = getattr(identities, name), getattr(identities, name + "_Z")
    label = s.label
    assert all(p["obligation"] != obligation for p, _, _ in identities._prove(s, z))
    failures = identities._prove(*change(s, z))
    assert ({"identity": label, "obligation": obligation}) in [p for p, _, _ in failures]


def _coefficient_corruptions(name):
    """(where, changed sum, changed certificate) for every coefficient of
    the certificate of the sum ``name`` and of the polynomials that fix its
    sum (not ``right``, whose polynomials need only keep a sign), off by +1
    and by -1."""
    s, z = getattr(identities, name), getattr(identities, name + "_Z")
    fields = [(z, "numer"), (z, "denom"), (s, "U"), (s, "E"), (s, "a"), (s, "b"), (s, "rise"),
              (s, "base")]
    for owner, field in fields:
        value = getattr(owner, field)
        items = value if isinstance(value, tuple) else (value,)
        for i, poly in enumerate(items):
            if not isinstance(poly, P):  # no rise, or a base of numbers
                continue
            for exponent in poly.terms:
                for by in (1, -1):
                    bumped = items[:i] + (_bump(poly, exponent, by),) + items[i + 1:]
                    changed = owner._replace(
                        **{field: bumped if isinstance(value, tuple) else bumped[0]})
                    yield (f"{field}[{i}]{exponent}{by:+d}",
                           changed if owner is s else s, changed if owner is z else z)


@pytest.mark.parametrize("name", [s for s, _ in NEW_PROOFS])
def test_every_coefficient_off_by_one_fails_naming_its_obligation(name):
    """Each coefficient of the new certificates and of their sums' parts, off
    by 1 either way, fails the proof, each failure naming the sum and one of
    the obligations of _prove."""
    names = {"right side", "support", "denominator", "lower end", "upper end", "interior",
             "base"}
    label = getattr(identities, name).label
    count = 0
    for where, s, z in _coefficient_corruptions(name):
        failures = identities._prove(s, z)
        assert failures, where
        for params, _, _ in failures:
            assert params["identity"] == label and params["obligation"] in names, where
        count += 1
    assert count >= 30


def test_committed_certificates_equal_the_derived_ones():
    """tools/derive_certificates.py derives every committed certificate again
    with sympy's gosper_term; each equals it as a rational function.  sympy
    is not a dependency, so this skips where it is not installed."""
    sympy = pytest.importorskip("sympy")
    path = Path(__file__).resolve().parents[1] / "tools" / "derive_certificates.py"
    spec = importlib.util.spec_from_file_location("derive_certificates", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def expression(poly):
        return sum(c * tool.n**a * tool.k**b * tool.j**d for (a, b, d), c in poly.terms.items())

    derived = tool.derive()
    assert sorted(derived) == sorted(z for _, z in PROOFS + NEW_PROOFS)
    for name, z_derived in derived.items():
        z = getattr(identities, name)
        committed = expression(z.numer) / sympy.Mul(*map(expression, z.denom))
        assert sympy.cancel(z_derived - committed) == 0, name


def test_lemma_claims_equal_the_ones_sympy_rederives():
    """tools/derive_certificates.py differentiates Lemma 2's maps with sympy
    and checks Lemma 1's g; every committed claim, read with x = n and
    s = sqrt(c(x)) = k, leaves a residue that simplifies to 0.  sympy is not
    a dependency, so this skips where it is not installed."""
    sympy = pytest.importorskip("sympy")
    path = Path(__file__).resolve().parents[1] / "tools" / "derive_certificates.py"
    spec = importlib.util.spec_from_file_location("derive_certificates", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def expression(poly, c):
        s = sympy.sqrt(sum(v * tool.x**a for (a, _, _), v in c.terms.items()))
        return sum(v * tool.x**a * s**b for (a, b, _), v in poly.terms.items())

    c1, numer, denom = identities._LEMMA1
    c2, (tan, tanh), product = identities._LEMMA2
    residues = tool.lemma_residues(
        (expression(tan.p, c2), expression(tan.q, c2)),
        (expression(tanh.p, c2), expression(tanh.q, c2)),
        expression(product, c2), expression(numer, c1) / expression(denom, c1))
    assert residues == {name: 0 for name in ("F'^2", "F'F''", "G'^2", "G'G''", "F'G'", "F''G''",
                                             "g^2 = x^2 (1 - g^4)")}


def _bump(poly, exponent, by=1):
    terms = dict(poly.terms)
    terms[exponent] = terms.get(exponent, 0) + by
    return P(terms)


def _corrupt(name, field, value):
    old = getattr(identities, name)
    return name, old._replace(**{field: value(getattr(old, field))})


# identity id -> the check that proves it
RANGE_PROOFS = {
    "convolution": check_convolution,
    "weighted-convolution": check_weighted_convolution,
    "binomial-transform": check_binomial_transform,
    "harmonic-integral": check_harmonic_integral,
}
# (check id, corrupted module attribute, the (identity, obligation) pairs reported)
CORRUPTIONS = [
    ("convolution", _corrupt("_PLAIN_Z", "numer", lambda p: _bump(p, (1, 1, 0), -1)),
     [("plain", "upper end"), ("plain", "interior")]),
    ("convolution", _corrupt("_ALTERNATING_Z", "denom", lambda d: (d[0], _bump(d[1], (1, 0, 0)))),
     [("alternating", "upper end"), ("alternating", "interior")]),
    ("convolution", _corrupt("_PLAIN", "rhs", lambda p: _bump(p, (0, 0, 0))),
     [("plain", "base")]),
    ("convolution", _corrupt("_ALTERNATING", "den", lambda d: 2 * d),
     [("alternating", "base")]),
    ("weighted-convolution", _corrupt("_K2_Z", "numer", lambda p: _bump(p, (1, 2, 0), 1)),
     [("k^2", "lower end"), ("k^2", "upper end"), ("k^2", "interior")]),
    ("weighted-convolution", _corrupt("_K2_Z", "denom", lambda d: (d[0], _bump(d[1], (1, 1, 0), 4))),
     [("k^2", "denominator"), ("k^2", "upper end"), ("k^2", "interior")]),
    ("weighted-convolution", _corrupt("_K2", "rhs", lambda p: _bump(p, (1, 0, 0))),
     [("k^2", "interior"), ("k^2", "base"), ("k(n-k)", "n S1 - S2: right side")]),
    ("weighted-convolution", _corrupt("_K1", "den", lambda d: d + 1),
     [("k", "2 S1 = n S0: right side"), ("k(n-k)", "n S1 - S2: right side")]),
    ("weighted-convolution", _corrupt("_KN", "rhs", lambda p: _bump(p, (0, 0, 0))),
     [("k(n-k)", "n S1 - S2: right side")]),
    ("weighted-convolution", _corrupt("_ALTERNATING_KN", "weight", lambda p: _bump(p, (0, 1, 0))),
     [("alternating k(n-k)", "k <-> n-k")]),
    ("binomial-transform", _corrupt("_TRANSFORM_Z", "numer", lambda p: _bump(p, (1, 1, 0), 1)),
     [("binomial transform", "lower end"), ("binomial transform", "upper end"),
      ("binomial transform", "interior")]),
    ("binomial-transform", _corrupt("_TRANSFORM_Z", "denom", lambda d: (_bump(d[0], (0, 0, 1)),)),
     [("binomial transform", "denominator"), ("binomial transform", "upper end"),
      ("binomial transform", "interior")]),
    ("binomial-transform", _corrupt("_TRANSFORM", "E", lambda p: _bump(p, (0, 0, 0))),
     [("binomial transform", "interior")]),
    ("harmonic-integral", _corrupt("_HARMONIC_Z", "numer", lambda p: _bump(p, (0, 0, 0), -1)),
     [("harmonic", "lower end"), ("harmonic", "upper end"), ("harmonic", "interior")]),
    ("harmonic-integral", _corrupt("_HARMONIC", "rise", lambda r: (r[0], _bump(r[1], (1, 0, 0)))),
     [("harmonic", "lower end")]),
]


@pytest.mark.parametrize("ident, corrupted, reported", CORRUPTIONS,
                         ids=[f"{i}-{c[0]}-{n}" for n, (i, c, _) in enumerate(CORRUPTIONS)])
def test_corrupted_certificate_fails_naming_its_obligation(capsys, monkeypatch, ident,
                                                           corrupted, reported):
    """One coefficient of a certificate, or one right side, off: the report
    fails, each failure names the identity and the obligation, and the
    identity command exits 1 naming them on stderr."""
    monkeypatch.setattr(identities, *corrupted)
    report = RANGE_PROOFS[ident](20)
    assert report.status == "fail"
    assert [(p["identity"], p["obligation"]) for p, _, _ in report.failures] == reported
    assert all(set(p) == {"identity", "obligation"} for p, _, _ in report.failures)
    assert cli.main(["identity", "--id", ident]) == 1
    err = capsys.readouterr().err
    identity, obligation = reported[0]
    assert f"'identity': '{identity}', 'obligation': '{obligation}'" in err


def test_convolution_proofs_take_under_a_second_at_the_limit():
    """The proofs hold for every n, so their time does not grow with n_max;
    the sweeps they replace took 2-4 s at this bound (Python 3.11, one Xeon
    core)."""
    for check in (check_convolution, check_weighted_convolution):
        start = time.perf_counter()
        assert check(CONVOLUTION_N_LIMIT).passed
        assert time.perf_counter() - start < 1.0


def test_k_squared_needs_full_range():
    # dropping the k = n term breaks the k^2-weighted identity immediately
    c = c_prefix(2)
    short = sum(k * k * c[k] * c[2 - k] for k in range(2))
    assert short == 4
    full = sum(k * k * c[k] * c[2 - k] for k in range(3))
    assert full == 28 == 2 * (3 * 2 + 1) * 4**2 // 8


def test_binomial_transform_sweep():
    assert check_binomial_transform(40).passed


def test_binomial_transform_small_case_by_hand():
    c = c_prefix(2)
    n, t = 2, -2
    lhs = sum(4 ** (n - k) * comb(n, k) * c[k] * t**k for k in range(n + 1))
    rhs = sum(c[k] * c[n - k] * (1 + t) ** k for k in range(n + 1))
    assert lhs == rhs == 8


def test_sign_split_default_batch():
    report = check_sign_split(n_max=63)
    assert report.passed
    assert report.range == "every sequence, 0 <= n <= 63"


def test_report_semantics():
    ok = IdentityReport("demo", "n <= 3")
    assert ok.status == "pass"
    assert ok.passed
    assert str(ok) == "demo [n <= 3]: pass"
    bad = IdentityReport("demo", "n <= 3", [({"n": 1}, 0, 1), ({"n": 2}, 0, 2)])
    assert bad.status == "fail"
    assert not bad.passed
    assert "2 failure(s)" in str(bad)


def test_lemma1_sweep():
    report = check_lemma1()
    assert report.passed
    assert report.range == "every real x"


def test_lemma1_spot_value():
    with CTX40.workprec():
        w = mp.asin(mp.mpc(mpf(1) / 2, mpf(1) / 2))
        assert abs(w.real - mpf("0.45227844715")) < mpf("1e-11")
        g = mp.sqrt(2) * mpf(1) / 2 / mp.sqrt(mp.sqrt(mpf(5) / 4) + 1)
        assert abs(w.real - mp.atan(g)) < mpf(10) ** -45
        assert abs(w.imag - mp.atanh(g)) < mpf(10) ** -45


def test_lemma2_sweep():
    report = check_lemma2()
    assert report.passed
    assert report.range == "every real x"


def _lemma2_form(index, **change):
    """Lemma 2's claims with F (index 0) or G (index 1) changed."""
    forms = list(identities._LEMMA2.forms)
    forms[index] = forms[index]._replace(**change)
    return identities._LEMMA2._replace(forms=tuple(forms))


def _flip(poly, exponent):
    return _bump(poly, exponent, -2 * poly.terms[exponent])


L1, L2 = identities._LEMMA1, identities._LEMMA2
F2, G2 = L2.forms
# (check id, the corrupted claims of Lemma 1 or 2, the obligations reported):
# one coefficient or one sign off, together naming every obligation
LEMMA_CORRUPTIONS = [
    ("arcsin-split", ("_LEMMA1", L1._replace(numer=_bump(L1.numer, (2, 0, 0)))),
     ["g^2 = x^2 (1 - g^4)"]),
    ("arcsin-split", ("_LEMMA1", L1._replace(denom=_flip(L1.denom, (0, 0, 0)))),
     ["g^2 = x^2 (1 - g^4)"]),
    ("derivative-forms", ("_LEMMA2", L2._replace(c=_flip(L2.c, (0, 0, 0)))),
     ["u'", "F'^2", "G'^2", "F'G'", "F''G''"]),
    ("derivative-forms", ("_LEMMA2", _lemma2_form(0, sign=-1)), ["F'^2"]),
    ("derivative-forms", ("_LEMMA2", _lemma2_form(1, sign=1)), ["G'^2"]),
    ("derivative-forms", ("_LEMMA2", _lemma2_form(0, p=_flip(F2.p, (2, 0, 0)))),
     ["F'^2", "F''", "F'G'"]),
    ("derivative-forms", ("_LEMMA2", _lemma2_form(1, p=_flip(G2.p, (2, 0, 0)))),
     ["G'^2", "G''", "F'G'"]),
    ("derivative-forms", ("_LEMMA2", _lemma2_form(0, q=_flip(F2.q, (1, 1, 0)))),
     ["F''", "F''G''"]),
    ("derivative-forms", ("_LEMMA2", _lemma2_form(1, q=_bump(G2.q, (3, 0, 0)))),
     ["G''", "F''G''"]),
    ("derivative-forms", ("_LEMMA2", L2._replace(product=_flip(L2.product, (6, 0, 0)))),
     ["F''G''"]),
]
LEMMA_CHECKS = {"arcsin-split": check_lemma1, "derivative-forms": check_lemma2}


@pytest.mark.parametrize("ident, corrupted, reported", LEMMA_CORRUPTIONS,
                         ids=[f"{i}-{n}" for n, (i, _, _) in enumerate(LEMMA_CORRUPTIONS)])
def test_corrupted_lemma_claim_fails_naming_its_obligation(capsys, monkeypatch, ident,
                                                           corrupted, reported):
    """One coefficient or one sign of a lemma's claims off: the proof fails,
    each failure naming the lemma and the obligation, and the identity
    command exits 1 naming them on stderr."""
    monkeypatch.setattr(identities, *corrupted)
    report = LEMMA_CHECKS[ident]()
    lemma = "Lemma 1" if ident == "arcsin-split" else "Lemma 2"
    assert [(p["identity"], p["obligation"]) for p, _, _ in report.failures] == [
        (lemma, obligation) for obligation in reported]
    assert cli.main(["identity", "--id", ident]) == 1
    assert str({"identity": lemma, "obligation": reported[0]}) in capsys.readouterr().err


def test_every_lemma_coefficient_off_by_one_fails():
    """Each coefficient of the lemmas' claims, off by 1 either way, fails
    the proof naming one of its obligations."""
    names = {"u'", "F'^2", "F''", "G'^2", "G''", "F'G'", "F''G''"}
    corruptions = [(check_lemma1, "_LEMMA1", L1._replace(**{field: _bump(poly, e, by)}))
                   for field, poly in (("numer", L1.numer), ("denom", L1.denom))
                   for e in poly.terms for by in (1, -1)]
    corruptions += [(check_lemma2, "_LEMMA2", _lemma2_form(i, **{field: _bump(poly, e, by)}))
                    for i, form in enumerate(L2.forms)
                    for field, poly in (("p", form.p), ("q", form.q))
                    for e in poly.terms for by in (1, -1)]
    corruptions += [(check_lemma2, "_LEMMA2", L2._replace(product=_bump(L2.product, e, by)))
                    for e in L2.product.terms for by in (1, -1)]
    for check, name, claims in corruptions:
        saved = getattr(identities, name)
        setattr(identities, name, claims)
        try:
            failures = check().failures
        finally:
            setattr(identities, name, saved)
        assert failures, claims
        for params, _, _ in failures:
            assert params["obligation"] in names | {"g^2 = x^2 (1 - g^4)"}, claims
    assert len(corruptions) == 26


def test_reduction_and_derivative_by_hand():
    """s^3 x = x (1 + x^4) s and s d/dx (x s) = s^2 + 2x^4 = 1 + 3x^4 modulo
    s^2 = 1 + x^4."""
    c = 1 + N**4
    assert (K**3 * N).reduced(c) == N * K + N**5 * K
    assert (N * K).s_derivative(c).reduced(c) == 1 + 3 * N**4
    assert K.s_derivative(c) == 2 * N**3


# points past the old |x| <= 0.7 samples: the lemmas are proven for every real x
LEMMA_POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(-5, 2),
                Fraction(1, 3), Fraction(-7, 10), Fraction(10)]


@pytest.mark.parametrize("x", LEMMA_POINTS, ids=str)
def test_lemmas_agree_with_mpmath(x):
    """Both lemmas, numerically at 50 digits, by mpmath's own principal
    arcsin and its numerical derivatives: an oracle that shares nothing
    with the proofs."""
    with mp.workdps(50):
        x = mpf(x.numerator) / x.denominator
        g = mp.sqrt(2) * x / mp.sqrt(mp.sqrt(1 + 4 * x**4) + 1)
        w = mp.asin(mp.mpc(x, x))
        assert abs(w - mp.mpc(mp.atan(g), mp.atanh(g))) < mpf(10) ** -45
        s = mp.sqrt(1 + x**4)

        def u(t):
            return t / mp.sqrt(1 + mp.sqrt(1 + t**4))

        tan = (mp.diff(lambda t: mp.atan(u(t)), x), mp.diff(lambda t: mp.atan(u(t)), x, 2))
        tanh = (mp.diff(lambda t: mp.atanh(u(t)), x), mp.diff(lambda t: mp.atanh(u(t)), x, 2))
        claims = (mp.sqrt((s - x**2) / (2 * s**2)),
                  -x * (s + 2 * x**2) * mp.sqrt((s - x**2) / (2 * s**6)))
        claims_h = (mp.sqrt((s + x**2) / (2 * s**2)),
                    x * (s - 2 * x**2) * mp.sqrt((s + x**2) / (2 * s**6)))
        for got, want in zip(tan + tanh, claims + claims_h):
            assert abs(got - want) < mpf(10) ** -35
        assert abs(tan[0] * tanh[0] - 1 / (2 * s**2)) < mpf(10) ** -35
        assert abs(tan[1] * tanh[1] - x**2 * (3 * x**4 - 1) / (2 * s**6)) < mpf(10) ** -35


def test_harmonic_integral_sweep():
    assert check_harmonic_integral(100).passed


def test_harmonic_integral_v5_by_hand():
    lhs = sum(Fraction((-1) ** k * comb(4, k), (2 * k + 2) ** 2) for k in range(5))
    assert lhs == Fraction(137, 1200)


def test_range_validation():
    with pytest.raises(UsageError):
        check_convolution(-1)
    with pytest.raises(UsageError):
        check_weighted_convolution(0)
    with pytest.raises(UsageError):
        check_harmonic_integral(0)


def test_range_limits_refuse_huge_sweeps_at_once():
    limits = (
        (check_convolution, identities.CONVOLUTION_N_LIMIT),
        (check_weighted_convolution, identities.CONVOLUTION_N_LIMIT),
        (check_binomial_transform, identities.TRANSFORM_N_LIMIT),
        (check_sign_split, identities.SIGN_SPLIT_N_LIMIT),
        (check_harmonic_integral, identities.HARMONIC_V_LIMIT),
    )
    for check, limit in limits:
        for bound in (limit + 1, 10**7):
            with pytest.raises(UsageError, match=f"must be in \\[[01], {limit}\\]"):
                check(bound)


# ---------------------------------------------------------------------------
# the per-n formulas the checks swept before they became proofs, kept as an
# independent reference; they read the prefix and the harmonic stream
# through ``exact_streams`` and sign() through ``identities`` at call time, so a
# monkeypatch reaches them


def reference_convolution(n_max):
    c = c_prefix(n_max)
    failures = []
    for n in range(n_max + 1):
        plain = sum(c[k] * c[n - k] for k in range(n + 1))
        if plain != 4**n:
            failures.append(({"identity": "plain", "n": n}, plain, 4**n))
        alt = sum((-1) ** k * c[k] * c[n - k] for k in range(n + 1))
        want = 0 if n % 2 else comb(n, n // 2) * 2**n
        if alt != want:
            failures.append(({"identity": "alternating", "n": n}, alt, want))
    return IdentityReport("central-convolution", f"0 <= n <= {n_max}", failures)


def reference_weighted_convolution(n_max):
    c = c_prefix(n_max)
    failures = []
    for n in range(1, n_max + 1):
        prods = [c[k] * c[n - k] for k in range(n + 1)]
        kn = sum(k * (n - k) * prods[k] for k in range(n + 1))
        want_kn = n * (n - 1) * 4**n // 8
        if kn != want_kn:
            failures.append(({"identity": "k(n-k)", "n": n}, kn, want_kn))
        if n % 2:
            alt = sum((-1) ** k * k * (n - k) * prods[k] for k in range(n + 1))
            if alt != 0:
                failures.append(({"identity": "alternating k(n-k)", "n": n}, alt, 0))
        k1 = sum(k * prods[k] for k in range(n + 1))
        want_k1 = n * 4**n // 2
        if k1 != want_k1:
            failures.append(({"identity": "k", "n": n}, k1, want_k1))
        k2 = sum(k * k * prods[k] for k in range(n + 1))
        want_k2 = n * (3 * n + 1) * 4**n // 8
        if k2 != want_k2:
            failures.append(({"identity": "k^2", "n": n}, k2, want_k2))
    return IdentityReport("weighted-convolution", f"1 <= n <= {n_max}", failures)


def reference_binomial_transform(n_max, t_values=(-3, -2, -1, 0, 1, 2, 3, 5, -7)):
    c = c_prefix(n_max)
    failures = []
    for n in range(n_max + 1):
        for t in t_values:
            lhs = sum(4 ** (n - k) * comb(n, k) * c[k] * t**k for k in range(n + 1))
            rhs = sum(c[k] * c[n - k] * (1 + t) ** k for k in range(n + 1))
            if lhs != rhs:
                failures.append(({"n": n, "t": t}, lhs, rhs))
    return IdentityReport("binomial-transform", f"0 <= n <= {n_max}; every t", failures)


def reference_sign_split(seqs, n_max):
    sign = identities.sign
    failures = []
    for idx, f in enumerate(seqs):
        f = [Fraction(v) for v in f[: n_max + 1]]
        lhs_sum = sum(
            (sign(SignPattern.CEIL_HALF, n) + sign(SignPattern.FLOOR_HALF, n)) * f[n]
            for n in range(len(f))
        )
        rhs_sum = 2 * sum((-1) ** j * f[2 * j] for j in range((len(f) + 1) // 2))
        if lhs_sum != rhs_sum:
            failures.append(({"sequence": idx, "form": "sum"}, lhs_sum, rhs_sum))
        lhs_diff = sum(
            (sign(SignPattern.CEIL_HALF, n) - sign(SignPattern.FLOOR_HALF, n)) * f[n]
            for n in range(len(f))
        )
        rhs_diff = -2 * sum((-1) ** j * f[2 * j + 1] for j in range(len(f) // 2))
        if lhs_diff != rhs_diff:
            failures.append(({"sequence": idx, "form": "difference"}, lhs_diff, rhs_diff))
    return failures


def reference_harmonic_integral(v_max):
    failures = []
    harmonics = exact_streams.harmonic_stream()
    next(harmonics)
    for v in range(1, v_max + 1):
        h_v = next(harmonics)
        lhs = sum(
            Fraction((-1) ** k * comb(v - 1, k), (2 * k + 2) ** 2) for k in range(v)
        )
        rhs = h_v / (4 * v)
        if lhs != rhs:
            failures.append(({"v": v}, lhs, rhs))
    return IdentityReport("harmonic-log-moment", f"1 <= v <= {v_max}", failures)


def assert_same_report(new, ref):
    assert (new.id, new.range) == (ref.id, ref.range)
    assert new.failures == ref.failures
    for (_, lhs, rhs), (_, ref_lhs, ref_rhs) in zip(new.failures, ref.failures):
        assert type(lhs) is type(ref_lhs) and type(rhs) is type(ref_rhs)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 7, 16, 41])
def test_reports_equal_the_reference(n_max):
    assert_same_report(check_convolution(n_max), reference_convolution(n_max))
    assert_same_report(check_binomial_transform(n_max), reference_binomial_transform(n_max))
    assert_same_report(check_sign_split(n_max=n_max), IdentityReport(
        "sign-split", f"every sequence, 0 <= n <= {n_max}",
        reference_sign_split(reference_basis(n_max), n_max)))
    if n_max >= 1:
        assert_same_report(
            check_weighted_convolution(n_max), reference_weighted_convolution(n_max)
        )
        assert_same_report(check_harmonic_integral(n_max), reference_harmonic_integral(n_max))


def reference_basis(n_max):
    """The unit sequences e_0, ..., e_n_max: a linear identity holds for every
    sequence of length <= n_max + 1 exactly when it holds for each."""
    return [[Fraction(int(i == n)) for i in range(n + 1)] for n in range(n_max + 1)]


def _corrupt_prefix(monkeypatch, j):
    real_stream = exact_streams.central_binomials

    def corrupted():
        for k, c in enumerate(real_stream()):
            yield c + 1 if k == j else c

    monkeypatch.setattr(exact_streams, "central_binomials", corrupted)


@pytest.mark.parametrize("j", [0, 1, 5, 12])
def test_corrupted_prefix_fails_exactly_where_the_reference_does(monkeypatch, j):
    """One c_j off by 1: the reference sweeps fail (the binomial transform at
    n >= j and nowhere else), while the proofs, which read no prefix, still
    pass; their corruptions are in
    test_corrupted_certificate_fails_naming_its_obligation."""
    _corrupt_prefix(monkeypatch, j)
    n_max = 20
    assert reference_convolution(n_max).failures
    assert check_convolution(n_max).passed and check_weighted_convolution(n_max).passed

    reference = reference_binomial_transform(n_max)
    assert {p["n"] for p, _, _ in reference.failures} == set(range(j, n_max + 1))
    assert check_binomial_transform(n_max).passed


def test_corrupted_harmonic_stream_fails_exactly_at_that_v(monkeypatch):
    """H_3 and H_17 off: the reference sweep fails exactly at those v, while
    the proof, which reads no harmonic number, still passes."""
    real_stream = exact_streams.harmonic_stream

    def corrupted():
        for v, h in enumerate(real_stream()):
            yield h + Fraction(1, 10**9) if v in (3, 17) else h

    monkeypatch.setattr(exact_streams, "harmonic_stream", corrupted)
    assert [p["v"] for p, _, _ in reference_harmonic_integral(30).failures] == [3, 17]
    assert check_harmonic_integral(30).passed


def test_corrupted_sign_fails_exactly_where_the_reference_does(monkeypatch):
    """The ceil-half sign flipped at every n = 2 (mod 4), as a period-4 table
    can only be changed: the proof, which reads sign at n < 4 alone, fails at
    n = 2 in both forms whatever its range, and the reference sweep over the
    unit sequences fails at e_2, e_6, ..., e_18 and nowhere else."""
    real_sign = identities.sign
    read = set()

    def corrupted(pattern, n):
        read.add(n)
        value = real_sign(pattern, n)
        return -value if pattern is SignPattern.CEIL_HALF and n % 4 == 2 else value

    monkeypatch.setattr(identities, "sign", corrupted)
    report = check_sign_split(20)
    assert [(p, lhs, rhs) for p, lhs, rhs in report.failures] == [
        ({"n": 2, "form": "sum"}, 0, -2), ({"n": 2, "form": "difference"}, 2, 0)
    ]
    assert check_sign_split(1).failures == report.failures
    assert read == {0, 1, 2, 3}
    basis = reference_sign_split(reference_basis(20), 20)
    assert [(p["sequence"], p["form"]) for p, _, _ in basis] == [
        (n, form) for n in (2, 6, 10, 14, 18) for form in ("sum", "difference")
    ]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 40),
    st.none() | st.tuples(st.sampled_from(list(SignPattern)), st.integers(0, 3)),
)
def test_sign_split_equals_the_reference(n_max, corruption):
    """No corruption, or one pattern's sign flipped at every n = r (mod 4):
    the proof names n = r in each form the flip breaks (both, for the two
    half patterns the split reads; none for the others), whatever n_max is,
    and the reference fails at exactly the unit sequences e_n with
    n = r (mod 4) and n <= n_max, with the same weights."""
    real_sign = identities.sign

    def corrupted(pattern, n):
        value = real_sign(pattern, n)
        return -value if (pattern, n % 4) == corruption else value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "sign", corrupted)
        report = check_sign_split(n_max)
        reference = reference_sign_split(reference_basis(n_max), n_max)
    pattern, r = corruption or (None, 0)
    forms = ("sum", "difference") if pattern in (SignPattern.CEIL_HALF, SignPattern.FLOOR_HALF) else ()
    assert [(p["n"], p["form"]) for p, _, _ in report.failures] == [(r, form) for form in forms]
    assert [(p["sequence"], p["form"]) for p, _, _ in reference] == [
        (n, form) for n in range(r, n_max + 1, 4) for form in forms
    ]
    weights = {p["form"]: (lhs, rhs) for p, lhs, rhs in report.failures}
    assert all(weights[p["form"]] == (lhs, rhs) for p, lhs, rhs in reference)
