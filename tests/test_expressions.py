from mpmath import mp, mpf

from cbcseries.expressions import arccot, arccoth, arctan, artanh, evaluate, ln, sqrt
from cbcseries.precision import make_context

CTX = make_context(30)


def test_leaf_evaluation():
    with CTX.workprec():
        assert evaluate(lambda c: 7, CTX) == 7
        golden = (1 + mp.sqrt(mpf(5))) / 2
        assert abs(evaluate(lambda c: c.alpha, CTX) - golden) < mpf(10) ** -43
        assert abs(evaluate(lambda c: c.beta, CTX) - (1 - golden)) < mpf(10) ** -43
        assert abs(evaluate(lambda c: c.delta, CTX) - (1 + mp.sqrt(mpf(2)))) < mpf(10) ** -43


def test_operator_evaluation():
    with CTX.workprec():
        assert abs(evaluate(lambda c: sqrt(mpf(1) / 4), CTX) - mpf(1) / 2) < mpf(10) ** -43
        assert evaluate(lambda c: -(mpf(1) + 2), CTX) == -3
        assert evaluate(lambda c: mpf(10) - mpf(2) * 3, CTX) == 4
        assert abs(evaluate(lambda c: mpf(1) / 3, CTX) - mpf(1) / 3) < mpf(10) ** -43
        assert abs(evaluate(lambda c: ln(1), CTX)) == 0
        v = evaluate(lambda c: arctan(1), CTX)
        assert abs(v - mp.pi / 4) < mpf(10) ** -43
        w = evaluate(lambda c: arccot(1), CTX)
        assert abs(v - w) < mpf(10) ** -43
        assert abs(evaluate(lambda c: artanh(mpf(1) / 2), CTX) - mp.atanh(mpf(1) / 2)) < mpf(10) ** -43
        assert abs(evaluate(lambda c: arccoth(2), CTX) - mp.atanh(mpf(1) / 2)) < mpf(10) ** -43
        # an int argument is not divided as a float
        assert evaluate(lambda c: arccoth(3), CTX) == mp.atanh(mpf(1) / 3)
        assert evaluate(lambda c: arccot(3), CTX) == mp.atan(mpf(1) / 3)


def test_evaluate_deterministic():
    expr = lambda c: sqrt(2) * arctan(c.alpha / 3)
    a = evaluate(expr, CTX)
    b = evaluate(expr, CTX)
    assert a == b
