"""Which path engine._plan chooses: the registry, the endpoints slot shapes and
one 1000-digit point on each side of each cost rule."""

from fractions import Fraction

import pytest

import cbcseries.engine as engine
from cbcseries.engine import ConvergenceError, UncertifiedError
from cbcseries.families import FamilySpec, PhiValue
from cbcseries.precision import make_context
from cbcseries.registry import adaptive_target, list_examples

# the registry rows that CVZ sums at 30 digits; every other adaptive row
# steps the kernel
CVZ_ROWS = {
    "ex6-F1-x1", "ex6-F2-x1", "ex6-F3-x1", "ex6-F4-x1", "ex6-F1-xs2o2", "ex6-F2-xs2o2",
    "ex6-F1-x1o2", "ex6-F2-x1o2", "ex6-F3-x1o2", "ex6-F4-x1o2", "ex6-F3-x1o4", "ex6-F4-x1o4", "trig-T1-pi6", "trig-T3-pi6",
    "trig-T1-pi8", "trig-T3-pi8", "trig-T2-pi6", "trig-T4-pi6",
}
CAP = 2000  # the term cap of the endpoints requests


def adaptive_plan(spec, digits, max_terms=engine.DEFAULT_MAX_TERMS):
    ctx = make_context(digits)
    with ctx.workprec():
        return engine._plan(spec, ctx, target=ctx.real(adaptive_target(ctx)),
                            max_terms=max_terms)


def test_every_registry_row_takes_its_path():
    paths = {}
    for row in list_examples():
        if row.mode.startswith("bound:"):
            N = int(row.mode.split(":", 1)[1])
            paths[row.id] = "bound " + engine._plan(row.spec, make_context(30), N).path
        elif row.mode != "closed":
            paths[row.id] = adaptive_plan(row.spec, 30).path
    assert paths.pop("thm16-J1") == "bound kernel"
    assert len(paths) == 51
    assert paths == {row: "cvz" if row in CVZ_ROWS else "kernel" for row in paths}


@pytest.mark.parametrize("spec", [
    *(FamilySpec(f, x=Fraction(s)) for f in ("F1", "F2", "F3", "F4") for s in (1, -1)),
    *(FamilySpec(f, phi=PhiValue(Fraction(s, 4), True)) for f in ("T1", "T2", "T3", "T4")
      for s in (1, -1)),
    *(FamilySpec(f, x=Fraction(s, 2)) for f in ("C1", "C2") for s in (1, -1)),
], ids=lambda spec: spec.describe())
def test_boundary_compares_take_cvz(spec):
    plan = adaptive_plan(spec, 40, CAP)
    assert (plan.path, plan.pair != 0) == ("cvz", spec.family[0] != "C")


@pytest.mark.parametrize("spec", [
    FamilySpec("F5", x=Fraction(1)), FamilySpec("F6", x=Fraction(-1)),
    FamilySpec("T5", phi=PhiValue(Fraction(1, 4), True)),
    FamilySpec("T6", phi=PhiValue(Fraction(-1, 4), True)),
], ids=lambda spec: spec.describe())
def test_divergent_boundary_refuses_before_summing(spec):
    with pytest.raises(UncertifiedError, match="diverges"):
        adaptive_plan(spec, 40, CAP)


@pytest.mark.parametrize("spec", [FamilySpec("J1"), FamilySpec("I1", r=6), FamilySpec("I1", r=8),
                                  FamilySpec("H2", x=Fraction(99, 100))],
                         ids=lambda spec: spec.describe())
def test_capped_compares_refuse_before_summing(spec):
    # J1 certifies under the cap by its tail enclosure, which holds from N0 = 11
    cap = 11 if spec.family == "J1" else CAP
    with pytest.raises(ConvergenceError, match=f"past the cap of {cap} terms"):
        adaptive_plan(spec, 40, cap)


def test_j1_takes_its_tail_enclosure_under_the_cap():
    plan = adaptive_plan(FamilySpec("J1"), 40, CAP)
    assert (plan.path, plan.n, plan.last) == ("j1", 12, 1256)
    assert adaptive_plan(FamilySpec("J1"), 40, 200).path == "j1"


def test_bound_mode_endpoints():
    ctx = make_context(40)
    for family in ("C1", "C2"):
        assert engine._plan(FamilySpec(family, x=Fraction(1, 2)), ctx, 10**6).path == "split"
    for spec, N in ((FamilySpec("F3", x=Fraction(1)), 200),
                    (FamilySpec("T3", phi=PhiValue(Fraction(1, 4), True)), 200),
                    (FamilySpec("J1"), 10**6)):
        assert engine._plan(spec, ctx, N).path == "kernel"


def test_each_side_of_each_rule_at_1000_digits():
    c1 = FamilySpec("C1", x=Fraction(1, 3))
    assert adaptive_plan(c1, 1000).path == "kernel"
    assert adaptive_plan(FamilySpec("H2", x=Fraction(-99, 100)), 1000).path == "cvz"
    ctx = make_context(1000)
    assert engine._plan(c1, ctx, 10**6).path == "split"
    assert engine._plan(c1, ctx, 10**4).path == "kernel"


def test_divergent_boundary_refuses_before_the_target_check():
    with pytest.raises(UncertifiedError, match="diverges"):
        engine.sum_adaptive(FamilySpec("F5", x=Fraction(1)), 0, make_context(20))


def test_cvz_sums_where_the_kernel_passes_the_cap_and_cvz_does_not():
    """At 300 digits the cost rule prefers the kernel for F3 at x = -1/2
    (N = 998), but under a cap between CVZ's 484 terms and that N CVZ sums,
    where the cap alone used to refuse; below CVZ's count the refusal names it."""
    spec, ctx = FamilySpec("F3", x=Fraction(-1, 2)), make_context(300)
    assert adaptive_plan(spec, 300).path == "kernel"
    plan = adaptive_plan(spec, 300, 484)
    assert (plan.path, plan.last) == ("cvz", 483)
    with ctx.workprec():
        target = ctx.real(adaptive_target(ctx))
    result = engine.sum_adaptive(spec, target, ctx, max_terms=484)
    assert result.terms_used == 484 and result.error_bound() <= target
    with pytest.raises(ConvergenceError, match=r"CVZ on \[0, 1/4\] needs 484 terms, past the "
                                               r"cap of 483 terms$"):
        adaptive_plan(spec, 300, 483)
