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

import numpy as np

from ._record import Record
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

class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; the message carries a 1-based column."""


class ExprNameError(ExprError):
    """An identifier outside the allowed set."""


class ExprDomainError(ExprError, DomainError):
    """Evaluation left a function's domain; names the offending subexpression."""


class Expr(Record):
    """Abstract syntax tree node."""

    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(Expr):
    __slots__ = ()


class Pi(Expr):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Call(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)


# one alternative per token kind; the last, any other non-space character, is an error
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>\S))""", re.VERBOSE)

# binary operators: printer and parser precedence level, and numpy ufunc
_OPS = {
    "+": (1, np.add),
    "-": (1, np.subtract),
    "*": (2, np.multiply),
    "/": (2, np.divide),
    "^": (4, np.power),
}
# levels of unary minus and of atoms, which sit above every binary operator
_UNARY, _ATOM = 3, 5


def _scan(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based column) tokens, closed by an 'end' token."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        column = match.start(kind) + 1
        if kind == "bad":
            raise ExprSyntaxError(
                f"unexpected character {match.group(kind)!r} at column {column}")
        tokens.append((kind, match.group(kind), column))
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _climb(tokens: list, pos: int, min_level: int) -> tuple[Expr, int]:
    """An operand and every binary operator of level >= min_level after it."""
    node, pos = _operand(tokens, pos)
    op = tokens[pos][1]
    while op in _OPS and _OPS[op][0] >= min_level:
        level = _OPS[op][0]
        # '^' is right associative, the others left associative
        right, pos = _climb(tokens, pos + 1, level if op == "^" else level + 1)
        node = BinOp(op, node, right)
        op = tokens[pos][1]
    return node, pos


def _operand(tokens: list, pos: int) -> tuple[Expr, int]:
    """A number, name, call, negation or parenthesized expression."""
    kind, text, column = tokens[pos]
    pos += 1
    if kind == "number":
        return Num(float(text)), pos
    if kind == "ident":
        if text == "x":
            return Var(), pos
        if text == "pi":
            return Pi(), pos
        if text in FUNCTION_NAMES:
            if tokens[pos][1] != "(":
                raise ExprSyntaxError(
                    f"expected '(' after {text!r} at column {tokens[pos][2]}")
            arg, pos = _climb(tokens, pos + 1, 1)
            return Call(text, arg), _close(tokens, pos)
        allowed = ", ".join(("x", "pi") + FUNCTION_NAMES)
        raise ExprNameError(
            f"unknown identifier {text!r} at column {column}; allowed names: {allowed}")
    if text == "-":
        operand, pos = _climb(tokens, pos, _UNARY + 1)
        return Neg(operand), pos
    if text == "(":
        node, pos = _climb(tokens, pos, 1)
        return node, _close(tokens, pos)
    if kind == "end":
        raise ExprSyntaxError(f"unexpected end of input at column {column}")
    raise ExprSyntaxError(f"unexpected {text!r} at column {column}")


def _close(tokens: list, pos: int) -> int:
    if tokens[pos][1] != ")":
        raise ExprSyntaxError(f"expected ')' at column {tokens[pos][2]}")
    return pos + 1


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError / ExprNameError."""
    if not isinstance(text, str):
        raise ExprSyntaxError(f"expression must be a string, got {type(text).__name__}")
    if not text.strip():
        raise ExprSyntaxError("expression is empty at column 1")
    tokens = _scan(text)
    node, pos = _climb(tokens, 0, 1)
    kind, trailing, column = tokens[pos]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {trailing!r} at column {column}")
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
FUNCTION_NAMES = tuple(_FUNCS)


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
        if node.op == "/":
            _check(right == 0.0, "division by zero", node, x)
        elif node.op == "^":
            # real pow is undefined here for finite operands; infinite ones take C99 limits
            finite = np.isfinite(left) & np.isfinite(right)
            fractional = (left < 0.0) & (right != np.floor(right))
            _check(finite & (fractional | ((left == 0.0) & (right < 0.0))),
                   "invalid power (negative base with fractional exponent, "
                   "or zero to a negative power)", node, x)
        return _OPS[node.op][1](left, right)
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


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _OPS[node.op][0]
    if isinstance(node, Neg):
        return _UNARY
    # a negative literal, -0.0 included, prints with its sign and binds as a negation
    if isinstance(node, Num) and math.copysign(1.0, node.value) < 0.0:
        return _UNARY
    return _ATOM


def to_text(node: Expr) -> str:
    """Render the AST with minimal parentheses.

    parse(to_text(e)) == e for every tree e that parse returns. parse never
    builds a negative Num (it reads -2 as Neg(Num(2.0))), but a tree built by
    hand may hold one: it prints parenthesized wherever a Neg would be, so
    the text still evaluates to the tree's value, though it parses to a Neg.
    """
    if isinstance(node, Num):
        # a literal past double range such as 2e400 parses to inf, and so does 1e999
        if math.isinf(node.value):
            return "1e999" if node.value > 0.0 else "-1e999"
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Call):
        return f"{node.name}({to_text(node.arg)})"
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        if _level(node.operand) < _UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        left = to_text(node.left)
        right = to_text(node.right)
        if node.op == "^":
            # left operand must be an atom; a signed exponent needs no parens
            if _level(node.left) < _ATOM:
                left = f"({left})"
            if _level(node.right) < _UNARY:
                right = f"({right})"
        else:
            level = _OPS[node.op][0]
            if _level(node.left) < level:
                left = f"({left})"
            # left-associative: an equal-level right operand would regroup
            if _level(node.right) <= level:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")
