from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cbcseries.expressions import evaluate, validate_expression
from cbcseries.precision import DomainError, UsageError, make_context

CTX = make_context(30)


def test_leaf_evaluation():
    with CTX.workprec():
        assert evaluate(7, CTX) == 7
        assert evaluate("-3/4", CTX) == mpf(-3) / 4
        assert evaluate("12", CTX) == 12
        golden = (1 + mp.sqrt(mpf(5))) / 2
        assert abs(evaluate("alpha", CTX) - golden) < mpf(10) ** -43
        assert abs(evaluate("beta", CTX) - (1 - golden)) < mpf(10) ** -43
        assert abs(evaluate("delta", CTX) - (1 + mp.sqrt(mpf(2)))) < mpf(10) ** -43


def test_operator_evaluation():
    with CTX.workprec():
        assert abs(evaluate(["sqrt", "1/4"], CTX) - mpf(1) / 2) < mpf(10) ** -43
        assert evaluate(["neg", ["add", 1, 2]], CTX) == -3
        assert evaluate(["sub", 10, ["mul", 2, 3]], CTX) == 4
        assert abs(evaluate(["div", 1, 3], CTX) - mpf(1) / 3) < mpf(10) ** -43
        assert abs(evaluate(["ln", 1], CTX)) == 0
        v = evaluate(["arctan", 1], CTX)
        assert abs(v - mp.pi / 4) < mpf(10) ** -43
        w = evaluate(["arccot", 1], CTX)
        assert abs(v - w) < mpf(10) ** -43
        assert abs(evaluate(["artanh", "1/2"], CTX) - mp.atanh(mpf(1) / 2)) < mpf(10) ** -43
        assert abs(evaluate(["arccoth", 2], CTX) - mp.atanh(mpf(1) / 2)) < mpf(10) ** -43

def test_evaluate_deterministic():
    tree = ["mul", ["sqrt", 2], ["arctan", ["div", "alpha", 3]]]
    a = evaluate(tree, CTX)
    b = evaluate(tree, CTX)
    assert a == b


def test_validation_rejections():
    bad = [
        True,
        3.5,
        "nonsense",
        "1/0",
        ["sqrt"],
        ["sqrt", 1, 2],
        ["add", 1],
        ["cosh", 1],
        [],
        None,
        ["add", 1, "x"],
        [["add", 1, 2], 3],
    ]
    for expr in bad:
        with pytest.raises(UsageError):
            validate_expression(expr)
    # tuples count as nodes, same as lists
    validate_expression(("mul", ("sqrt", 2), "-5/7"))


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(["sqrt", -1], CTX)
    with pytest.raises(DomainError):
        evaluate(["div", 1, 0], CTX)
    with pytest.raises(DomainError):
        evaluate(["artanh", 1], CTX)
    with pytest.raises(DomainError):
        evaluate(["ln", 0], CTX)
    with pytest.raises(DomainError, match=r"arccoth: argument .* \(\|x\| must be > 1\)"):
        evaluate(["arccoth", "1/2"], CTX)
    with pytest.raises(DomainError):
        evaluate(["artanh", -1], CTX)
    with pytest.raises(DomainError):
        evaluate(["ln", "-1/3"], CTX)
    with pytest.raises(DomainError):
        evaluate(["arccoth", ["neg", 1]], CTX)
