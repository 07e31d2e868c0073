import math
import random
import re
from dataclasses import dataclass

import numpy as np
import pytest

from lagfrac.exprs import (
    FUNCTION_NAMES,
    BinOp,
    Call,
    Expr,
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
    ("gamma(x)", 172.0),
    ("gamma(x)", 1e-320),
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


def test_literal_past_double_range_round_trips():
    tree = parse("2e400*x")
    assert tree == BinOp("*", Num(math.inf), Var())
    assert parse(to_text(tree)) == tree


@pytest.mark.parametrize("tree,text", [
    (BinOp("^", Num(-1.0), Num(2.0)), "(-1.0)^2.0"),
    (BinOp("^", Num(-2.0), Var()), "(-2.0)^x"),
    (BinOp("^", Num(-0.0), Num(2.0)), "(-0.0)^2.0"),
    (Num(-math.inf), "-1e999"),
], ids=["minus one squared", "negative base", "negative zero", "minus infinity"])
def test_negative_literal_prints_as_its_value(tree, text):
    # parse builds Neg, never a negative Num; a hand-built one must still print its value
    assert to_text(tree) == text
    for x in (0.0, 1.0, 2.0, 3.0):
        again = evaluate(parse(to_text(tree)), x)
        assert np.float64(again).tobytes() == np.float64(evaluate(tree, x)).tobytes(), x


def test_domain_error_parenthesizes_a_negative_literal():
    with pytest.raises(ExprDomainError, match=r"in '\(-2\.0\)\^x' at x=0\.5"):
        evaluate(BinOp("^", Num(-2.0), Var()), 0.5)


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


@pytest.mark.parametrize("value", [5, None, b"x", 2.5])
def test_parse_names_a_non_string_argument(value):
    with pytest.raises(ExprSyntaxError, match=f"must be a string, got {type(value).__name__}"):
        parse(value)


# ---- the recursive-descent front end the scanner regex and the
# precedence-climbing parser replaced, kept as the reference for the
# differential test below -----------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        column = pos + 1
        match = _NUMBER_RE.match(text, pos)
        if match:
            tokens.append(_Token("number", match.group(), column))
            pos = match.end()
            continue
        match = _IDENT_RE.match(text, pos)
        if match:
            tokens.append(_Token("ident", match.group(), column))
            pos = match.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, column))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at column {column}")
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.peek()
        if token.kind == "op" and token.text == text:
            self.advance()
            return
        raise ExprSyntaxError(f"expected {text!r} at column {token.column}")

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        token = self.advance()
        if token.kind == "number":
            return Num(float(token.text))
        if token.kind == "ident":
            if token.text == "x":
                return Var()
            if token.text == "pi":
                return Pi()
            if token.text in FUNCTION_NAMES:
                opener = self.peek()
                if not (opener.kind == "op" and opener.text == "("):
                    raise ExprSyntaxError(
                        f"expected '(' after {token.text!r} at column {opener.column}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(token.text, arg)
            allowed = ", ".join(("x", "pi") + FUNCTION_NAMES)
            raise ExprNameError(
                f"unknown identifier {token.text!r} at column {token.column}; "
                f"allowed names: {allowed}")
        if token.kind == "op" and token.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if token.kind == "end":
            raise ExprSyntaxError(f"unexpected end of input at column {token.column}")
        raise ExprSyntaxError(f"unexpected {token.text!r} at column {token.column}")


def reference_parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError / ExprNameError."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("expression is empty at column 1")
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(
            f"unexpected trailing input {trailing.text!r} at column {trailing.column}")
    return node


NUMBERS = ["2", "3.5", ".5", "1e-3", "2.E+4", "1.2.3", "\u0663"]
NAMES = ["x", "pi", *FUNCTION_NAMES, "foo", "x1"]
OPERATORS = ["+", "-", "*", "/", "^", "(", ")"]
SPACES = [" ", "\t", "\u00a0"]
PIECES = NUMBERS + NAMES + OPERATORS + SPACES + [".", "#"]


def _spaces(rng):
    return "".join(rng.choice(SPACES) for _ in range(rng.choice((0, 0, 0, 1, 2))))


def _well_formed(rng, depth):
    """Expression text along the grammar, with random whitespace between tokens."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(NUMBERS + ["x", "pi"])
    if roll < 0.4:
        return "-" + _spaces(rng) + _well_formed(rng, depth - 1)
    inner = _spaces(rng) + _well_formed(rng, depth - 1) + _spaces(rng)
    if roll < 0.55:
        return rng.choice(FUNCTION_NAMES) + _spaces(rng) + "(" + inner + ")"
    if roll < 0.65:
        return "(" + inner + ")"
    return _well_formed(rng, depth - 1) + _spaces(rng) + rng.choice(OPERATORS[:5]) + inner


def expression_text(rng):
    """A string of the expression language's pieces: a random run of them, or
    grammar-built text with up to two pieces inserted or swapped in."""
    if rng.random() < 0.4:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
    text = _well_formed(rng, 4)
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(PIECES) + text[at + rng.randint(0, 1):]
    return text


def _outcome(parser, text):
    try:
        return parser(text)
    except ExprError as exc:
        return type(exc), str(exc)


def test_parse_matches_reference_front_end():
    rng = random.Random(15)
    accepted = 0
    for _ in range(20_000):
        text = expression_text(rng)
        got = _outcome(parse, text)
        assert got == _outcome(reference_parse, text), repr(text)
        if isinstance(got, Expr):
            accepted += 1
            assert parse(to_text(got)) == got, repr(text)
    # both branches of the comparison are exercised
    assert 2_000 < accepted < 18_000
