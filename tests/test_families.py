from fractions import Fraction

import pytest

import cbcseries.cli as cli
from cbcseries.engine import _at_boundary, term, term_fraction
from cbcseries.families import (
    ALL_FAMILIES,
    FAMILIES,
    FamilySpec,
    PhiValue,
    SignPattern,
    SurdValue,
    four_alpha_pow_cmp,
    list_families,
    sign,
)
from cbcseries.precision import UsageError, make_context


def test_sign_patterns_first_period():
    assert [sign(SignPattern.CEIL_HALF, n) for n in range(8)] == [1, -1, -1, 1, 1, -1, -1, 1]
    assert [sign(SignPattern.FLOOR_HALF, n) for n in range(8)] == [1, 1, -1, -1, 1, 1, -1, -1]
    assert [sign(SignPattern.ALTERNATING, n) for n in range(4)] == [1, -1, 1, -1]
    assert [sign(SignPattern.PLUS, n) for n in range(4)] == [1, 1, 1, 1]
    with pytest.raises(UsageError):
        sign(SignPattern.PLUS, -1)


def test_sign_period_four():
    for pat in (SignPattern.CEIL_HALF, SignPattern.FLOOR_HALF):
        for n in range(200):
            assert sign(pat, n) == sign(pat, n + 4)


def test_surd_value():
    s = SurdValue(Fraction(1, 2), Fraction(2))
    assert s.squared() == Fraction(1, 2)
    assert s.as_rational() is None
    assert SurdValue(Fraction(3, 2), Fraction(4)).as_rational() == 3
    assert SurdValue(Fraction(1, 3), Fraction(9, 4)).as_rational() == Fraction(1, 2)
    assert SurdValue(Fraction(0), Fraction(7)).as_rational() == 0
    with pytest.raises(UsageError):
        SurdValue(Fraction(1), Fraction(-2))


def test_phi_value():
    assert PhiValue(Fraction(1, 4), True).bounded_by_quarter_pi()
    assert not PhiValue(Fraction(1, 3), True).bounded_by_quarter_pi()
    assert PhiValue(Fraction(7853981, 10**7)).bounded_by_quarter_pi()
    assert not PhiValue(Fraction(7853982, 10**7)).bounded_by_quarter_pi()
    assert str(PhiValue(Fraction(-1, 5), True)) == "-pi/5"
    assert str(PhiValue(Fraction(1), True)) == "pi"
    assert str(PhiValue(Fraction(3, 10))) == "3/10"
    assert PhiValue(Fraction(0)).is_zero()


def test_exact_tan_is_rational_only_at_zero_and_quarter_pi():
    assert PhiValue(Fraction(0)).exact_tan() == 0
    assert PhiValue(Fraction(0), True).exact_tan() == 0
    assert PhiValue(Fraction(1, 4), True).exact_tan() == 1
    assert PhiValue(Fraction(-1, 4), True).exact_tan() == -1
    assert PhiValue(Fraction(1, 6), True).exact_tan() is None
    assert PhiValue(Fraction(1, 2)).exact_tan() is None


def test_four_alpha_pow_cmp():
    # 4*alpha ~ 6.4721
    assert four_alpha_pow_cmp(Fraction(13, 2), 1) == 1
    assert four_alpha_pow_cmp(Fraction(32, 5), 1) == -1
    assert four_alpha_pow_cmp(Fraction(4), 0) == 0
    assert four_alpha_pow_cmp(Fraction(5), 0) == 1
    # 4*alpha^2 ~ 10.4721, sign of m irrelevant
    assert four_alpha_pow_cmp(Fraction(21, 2), 2) == 1
    assert four_alpha_pow_cmp(Fraction(21, 2), -2) == 1
    assert four_alpha_pow_cmp(Fraction(10), 2) == -1


def test_family_validation_domains():
    FamilySpec("F3", x=Fraction(1))
    with pytest.raises(UsageError):
        FamilySpec("F3", x=Fraction(2))
    with pytest.raises(UsageError):
        FamilySpec("F3", x=0.5)  # floats are not exact parameters
    with pytest.raises(UsageError):
        FamilySpec("T1", phi=PhiValue(Fraction(0)))
    FamilySpec("T3", phi=PhiValue(Fraction(0)))
    with pytest.raises(UsageError):
        FamilySpec("T2", phi=PhiValue(Fraction(1, 3), True))
    FamilySpec("C1", x=Fraction(1, 2))
    with pytest.raises(UsageError):
        FamilySpec("C1", x=Fraction(3, 5))
    with pytest.raises(UsageError):
        FamilySpec("H2", x=Fraction(1))
    FamilySpec("I1", r=0)
    with pytest.raises(UsageError):
        FamilySpec("I1", r=3)
    with pytest.raises(UsageError):
        FamilySpec("I2", r=0)
    with pytest.raises(UsageError):
        FamilySpec("Q7", x=Fraction(1, 2))


def test_family_parameter_presence():
    with pytest.raises(UsageError):
        FamilySpec("F3")
    with pytest.raises(UsageError):
        FamilySpec("I3", x=Fraction(1, 2))
    with pytest.raises(UsageError):
        FamilySpec("F3", x=Fraction(1, 2), r=2)
    FamilySpec("J1")
    FamilySpec("I3")


def test_g_family_validation(capsys):
    spec = FamilySpec("G1", m=1, s=0, p=Fraction(8))
    assert spec.describe().endswith(" seq=F")  # the sequence comes from the id
    with pytest.raises(TypeError):
        FamilySpec("G2", m=1, s=0, p=Fraction(8), seq="L")
    assert cli.main(["eval", "--family", "G1", "--m", "1", "--s", "0", "--p", "8",
                     "--seq", "F"]) == 2
    assert "unrecognized arguments: --seq F" in capsys.readouterr().err
    with pytest.raises(UsageError):
        FamilySpec("G1", m=1, s=0, p=Fraction(6))  # below 4*alpha
    FamilySpec("G5", m=1, s=0, p=Fraction(7))  # 7 > 4*alpha ~ 6.4721
    with pytest.raises(UsageError):
        FamilySpec("G5", m=1, s=0, p=8)  # p must be a Fraction, not int


def test_shape_helpers():
    assert FAMILIES["F5"].first == 1
    assert FAMILIES["F3"].first == 0
    assert FAMILIES["G9"].first == 1
    assert FAMILIES["F1"].weight == "recip"
    assert FAMILIES["F5"].weight == "linear"
    assert FAMILIES["J1"].weight == "harmonic"
    assert FAMILIES["H1"].sign is SignPattern.ALTERNATING
    assert FAMILIES["H2"].sign is SignPattern.PLUS
    g = FAMILIES["G10"]
    assert (g.sign, g.weight, g.seq) == (SignPattern.FLOOR_HALF, "linear", "L")
    assert FAMILIES["F3"].seq is None


def test_certification_boundary():
    """The engine reads the boundary off the term ratio: |z| = 1 with no F/L
    stride, outside C and J1 (tests/test_engine.py checks it against the
    catalog's rule on a sample)."""
    assert _at_boundary(FamilySpec("F3", x=Fraction(1)))
    assert _at_boundary(FamilySpec("F1", x=SurdValue(Fraction(1, 2), Fraction(4))))
    assert not _at_boundary(FamilySpec("F3", x=Fraction(9, 10)))
    assert _at_boundary(FamilySpec("T4", phi=PhiValue(Fraction(1, 4), True)))
    assert not _at_boundary(FamilySpec("T4", phi=PhiValue(Fraction(1, 8), True)))
    assert not _at_boundary(FamilySpec("C1", x=Fraction(1, 2)))
    assert not _at_boundary(FamilySpec("G1", m=1, s=0, p=Fraction(7)))
    assert _at_boundary(FamilySpec("G1", m=0, s=3, p=Fraction(4)))
    assert not _at_boundary(FamilySpec("I1", r=8))
    assert not _at_boundary(FamilySpec("J1"))


def test_describe():
    assert FamilySpec("F3", x=Fraction(1, 2)).describe() == "F3 x=1/2"
    assert "phi=pi/6" in FamilySpec("T1", phi=PhiValue(Fraction(1, 6), True)).describe()
    text = FamilySpec("G4", m=1, s=2, p=Fraction(9)).describe()
    assert "m=1" in text and "s=2" in text and "p=9" in text and "seq=L" in text


def test_list_families_catalog():
    rows = list_families()
    assert len(rows) == len(ALL_FAMILIES) == 34
    ids = [row["id"] for row in rows]
    assert len(set(ids)) == 34
    by_id = {row["id"]: row for row in rows}
    assert by_id["F5"]["starts_at"] == 1
    assert by_id["C1"]["sign"] == "alternating"
    assert by_id["J1"]["parameters"] == ""
    assert "r" in by_id["I2"]["parameters"]


def sample_spec(fam: str) -> FamilySpec:
    """A point where no summand of ``fam`` vanishes by its parameters."""
    group = FAMILIES[fam].group
    if group == "T":
        return FamilySpec(fam, phi=PhiValue(Fraction(1, 7), True))
    if group == "G":
        return FamilySpec(fam, m=1, s=3, p=Fraction(8))
    if fam in ("I1", "I2"):
        return FamilySpec(fam, r=2)
    if fam in ("I3", "J1"):
        return FamilySpec(fam)
    return FamilySpec(fam, x=Fraction(1, 3))


@pytest.mark.parametrize("fam", ALL_FAMILIES)
def test_first_is_the_least_index_with_a_nonzero_summand(fam):
    """``Family.first`` is where the summands start, and list-families prints it."""
    spec, ctx = sample_spec(fam), make_context(20)
    summand = term_fraction if FAMILIES[fam].group != "T" else (lambda s, n: term(s, n, ctx))
    first = next(n for n in range(3) if summand(spec, n) != 0)
    assert FAMILIES[fam].first == first
    assert {row["id"]: row["starts_at"] for row in list_families()}[fam] == first
