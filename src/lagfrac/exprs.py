"""A small arithmetic expression language for order and coefficient functions.

Grammar (whitespace insensitive, numbers in decimal or scientific notation):

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := number | 'x' | 'pi' | name '(' expr ')' | '(' expr ')'

'^' is right associative and binds tighter than unary minus, so -x^2 means
-(x^2) and 2^3^2 means 2^(3^2) = 512. Allowed function names: sin, cos,
tan, tanh, exp, log, sqrt, abs, gamma.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .special import DomainError, _gamma

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Pi",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprNameError",
    "ExprDomainError",
    "parse",
    "evaluate",
    "to_text",
    "FUNCTION_NAMES",
]

FUNCTION_NAMES = ("sin", "cos", "tan", "tanh", "exp", "log", "sqrt", "abs", "gamma")


class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; the message carries a 1-based column."""


class ExprNameError(ExprError):
    """An identifier outside the allowed set."""


class ExprDomainError(ExprError, DomainError):
    """Evaluation left a function's domain; names the offending subexpression."""


class Expr:
    """Abstract syntax tree node."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr


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


def parse(text: str) -> Expr:
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


_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "gamma": _gamma,
}


def evaluate(node: Expr, x):
    """Evaluate the AST at a real point x, or at every point of an array x.

    The tree is walked once with numpy ufuncs over all points: a scalar x
    gives a float, an array x an array of its shape. Leaving a function's
    domain at any point (division by zero, log of a non-positive value,
    sqrt of a negative value, a negative base with a fractional exponent or
    zero to a negative power, a gamma pole at 0, -1, -2, ..., sin, cos or
    tan of an infinite value) raises ExprDomainError naming the offending
    subexpression and the first such point. Overflow saturates to an
    infinity.
    """
    points = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        values = _evaluate(node, np.atleast_1d(points))
    return float(values[0]) if points.ndim == 0 else values


def _check(bad: np.ndarray, problem: str, node: Expr, x: np.ndarray) -> None:
    hits = np.flatnonzero(bad)
    if hits.size:
        raise ExprDomainError(
            f"{problem} in {to_text(node)!r} at x={x.flat[hits[0]]}")


def _evaluate(node: Expr, x: np.ndarray) -> np.ndarray:
    if isinstance(node, Num):
        return np.full(x.shape, node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Pi):
        return np.full(x.shape, math.pi)
    if isinstance(node, Neg):
        return -_evaluate(node.operand, x)
    if isinstance(node, BinOp):
        left = _evaluate(node.left, x)
        right = _evaluate(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            _check(right == 0.0, "division by zero", node, x)
            return left / right
        if node.op == "^":
            # real pow is undefined here for finite operands; infinite ones take C99 limits
            finite = np.isfinite(left) & np.isfinite(right)
            fractional = (left < 0.0) & (right != np.floor(right))
            _check(finite & (fractional | ((left == 0.0) & (right < 0.0))),
                   "invalid power (negative base with fractional exponent, "
                   "or zero to a negative power)", node, x)
            return np.power(left, right)
        raise AssertionError(f"unreachable operator {node.op!r}")
    if isinstance(node, Call):
        value = _evaluate(node.arg, x)
        if node.name in ("sin", "cos", "tan"):
            _check(np.isinf(value), f"{node.name} of an infinite value", node, x)
        elif node.name == "log":
            _check(value <= 0.0, "log of non-positive value", node, x)
        elif node.name == "sqrt":
            _check(value < 0.0, "sqrt of negative value", node, x)
        elif node.name == "gamma":
            _check((value <= 0.0) & (value == np.floor(value)), "gamma pole", node, x)
        return _FUNCS[node.name](value)
    raise TypeError(f"not an expression node: {node!r}")


# printer precedence levels; atoms sit above everything
_LEVEL_SUM = 1
_LEVEL_PRODUCT = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 5


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _LEVEL_SUM
        if node.op in "*/":
            return _LEVEL_PRODUCT
        return _LEVEL_POWER
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def to_text(node: Expr) -> str:
    """Render the AST with minimal parentheses; parse(to_text(e)) == e."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Call):
        return f"{node.name}({to_text(node.arg)})"
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        if _level(node.operand) < _LEVEL_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        left = to_text(node.left)
        right = to_text(node.right)
        if node.op == "^":
            # left operand must be an atom; a signed exponent needs no parens
            if _level(node.left) < _LEVEL_ATOM:
                left = f"({left})"
            if _level(node.right) < _LEVEL_UNARY:
                right = f"({right})"
        else:
            level = _LEVEL_SUM if node.op in "+-" else _LEVEL_PRODUCT
            if _level(node.left) < level:
                left = f"({left})"
            # left-associative: an equal-level right operand would regroup
            if _level(node.right) <= level:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")
