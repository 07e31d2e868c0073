import math
import random

import numpy as np
import pytest

from lagfrac.exprs import (
    BinOp,
    Call,
    ExprDomainError,
    ExprError,
    ExprNameError,
    ExprSyntaxError,
    Neg,
    Num,
    Pi,
    Var,
    evaluate,
    parse,
    to_text,
)
from lagfrac.special import DomainError


@pytest.mark.parametrize("text,x,expected", [
    ("2*x + 1", 3.0, 7.0),
    ("3/2", 0.0, 1.5),
    ("-x^2", 3.0, -9.0),
    ("2^3^2", 0.0, 512.0),
    ("x^-2", 2.0, 0.25),
    ("(9 + sin(x - 10))/5", 1.0, (9.0 + math.sin(-9.0)) / 5.0),
    ("1 + 0.5*abs(sin(x))", -2.0, 1.0 + 0.5 * abs(math.sin(-2.0))),
    ("pi", 0.0, math.pi),
    ("exp(log(x))", 2.5, 2.5),
    ("sqrt(x^2)", 3.0, 3.0),
    ("tanh(0)", 1.0, 0.0),
    ("gamma(4)/gamma(2.5)", 0.0, 6.0 / math.gamma(2.5)),
    ("gamma(4)/gamma(2.5)*x^1.5 + x^3 + 7*x + 1", 1.0,
     6.0 / math.gamma(2.5) + 9.0),
    ("1.5e-2 * x", 2.0, 0.03),
    ("--x", 4.0, 4.0),
    ("gamma(-0.5)", 0.0, -2.0 * math.sqrt(math.pi)),
])
def test_evaluate(text, x, expected):
    value = evaluate(parse(text), x)
    assert isinstance(value, float)
    assert value == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_parse_structure():
    assert parse("1+2*3") == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))
    assert parse("-x^2") == Neg(BinOp("^", Var(), Num(2.0)))
    assert parse("2^3^2") == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    assert parse("x^-2") == BinOp("^", Var(), Neg(Num(2.0)))
    assert parse("(1+x)*3") == BinOp("*", BinOp("+", Num(1.0), Var()), Num(3.0))
    assert parse("sin(x)") == Call("sin", Var())
    assert parse("1-2-3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))


@pytest.mark.parametrize("text", ["", "   ", "2+", "sin 3", ")", "1 2", "(1+2",
                                  "sin(x", "*3", "2^", "1..2"])
def test_syntax_errors(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_syntax_error_reports_column():
    with pytest.raises(ExprSyntaxError, match="column 5"):
        parse("2 + $")


def test_unknown_identifier():
    with pytest.raises(ExprNameError, match="foo"):
        parse("foo(3)")
    with pytest.raises(ExprNameError, match="allowed"):
        parse("y + 1")


@pytest.mark.parametrize("text,x", [
    ("1/x", 0.0),
    ("log(x)", 0.0),
    ("log(x - 5)", 1.0),
    ("sqrt(x)", -1.0),
    ("(0 - 2)^0.5", 0.0),
    ("gamma(x)", 0.0),
    ("gamma(x)", -1.0),
    ("sin(exp(x))", 1000.0),
])
def test_domain_errors(text, x):
    node = parse(text)
    with pytest.raises(ExprDomainError):
        evaluate(node, x)
    # the domain branch of the CLI exit-code mapping relies on this subclassing
    assert issubclass(ExprDomainError, ExprError)
    assert issubclass(ExprDomainError, DomainError)


def test_domain_error_names_subexpression():
    with pytest.raises(ExprDomainError, match="division by zero"):
        evaluate(parse("1/(x - 2)"), 2.0)


@pytest.mark.parametrize("text,x", [
    ("exp(1000)", 0.0),
    ("gamma(200)", 0.0),
    ("10^10^10", 0.0),
])
def test_overflow_saturates(text, x):
    assert evaluate(parse(text), x) == math.inf


def test_to_text_spot_checks():
    assert to_text(parse("sin(x)")) == "sin(x)"
    assert to_text(BinOp("*", Num(2.0), Var())) == "2.0*x"
    assert to_text(Neg(BinOp("*", Num(2.0), Var()))) == "-(2.0*x)"
    assert to_text(BinOp("^", Neg(Var()), Num(2.0))) == "(-x)^2.0"
    assert to_text(Neg(BinOp("^", Var(), Num(2.0)))) == "-x^2.0"
    assert to_text(BinOp("-", Num(1.0), BinOp("+", Var(), Num(2.0)))) == "1.0-(x+2.0)"


def random_expr(rng, depth):
    kinds = ["num", "var", "pi"]
    if depth > 0:
        kinds += ["neg", "bin", "bin", "call"]
    kind = rng.choice(kinds)
    if kind == "num":
        return Num(round(rng.uniform(0.0, 50.0), rng.randint(0, 3)))
    if kind == "var":
        return Var()
    if kind == "pi":
        return Pi()
    if kind == "neg":
        return Neg(random_expr(rng, depth - 1))
    if kind == "call":
        name = rng.choice(["sin", "cos", "tan", "tanh", "exp", "log", "sqrt",
                           "abs", "gamma"])
        return Call(name, random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def test_print_parse_round_trip():
    rng = random.Random(2026)
    for _ in range(50):
        tree = random_expr(rng, depth=5)
        assert parse(to_text(tree)) == tree


def _evaluate_or_error(tree, x):
    try:
        return evaluate(tree, x)
    except ExprDomainError:
        return None


def test_array_evaluation_matches_pointwise():
    # one pass over an array gives bit for bit the pointwise values, and
    # fails exactly when some point leaves a domain
    rng = random.Random(7)
    raised = 0
    for _ in range(400):
        tree = random_expr(rng, depth=4)
        xs = np.array([rng.choice([0.0, 1.0, -2.0, rng.uniform(-60.0, 60.0)])
                       for _ in range(rng.randint(1, 12))])
        pointwise = [_evaluate_or_error(tree, x) for x in xs]
        if any(value is None for value in pointwise):
            raised += 1
            with pytest.raises(ExprDomainError):
                evaluate(tree, xs)
            continue
        values = evaluate(tree, xs)
        assert values.shape == xs.shape
        assert values.tobytes() == np.array(pointwise).tobytes(), to_text(tree)
    assert 0 < raised < 400


def test_domain_error_names_first_bad_point():
    with pytest.raises(ExprDomainError, match=r"sqrt of negative value in 'sqrt\(x\)' at x=-1.0"):
        evaluate(parse("sqrt(x)"), np.array([4.0, -1.0, -2.0]))


def test_array_evaluation_of_constants_keeps_shape():
    values = evaluate(parse("2*pi"), np.zeros(3))
    assert values.shape == (3,)
    assert np.all(values == 2.0 * math.pi)
