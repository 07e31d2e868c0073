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
# parse refuses deeper text; evaluate and to_text recurse once per level and the
# parser twice, far inside Python's default limit of 1000 frames
_MAX_DEPTH = 200


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


def _climb(tokens: list, pos: int, min_level: int, depth: int) -> tuple[Expr, int, int]:
    """An operand and every binary operator of level >= min_level after it, and its height.

    depth counts the levels around it, and depth + height may not pass _MAX_DEPTH.
    """
    if depth >= _MAX_DEPTH:
        raise _too_deep(tokens[pos][2])
    node, pos, height = _operand(tokens, pos, depth)
    op = tokens[pos][1]
    while op in _OPS and _OPS[op][0] >= min_level:
        level, at = _OPS[op][0], pos
        # '^' is right associative, the others left associative
        right, pos, right_height = _climb(tokens, pos + 1, level if op == "^" else level + 1,
                                          depth + 1)
        node = BinOp(op, node, right)
        height = (height if height > right_height else right_height) + 1
        if depth + height > _MAX_DEPTH:  # a long left-associative chain
            raise _too_deep(tokens[at][2])
        op = tokens[pos][1]
    return node, pos, height


def _too_deep(column: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nests more than {_MAX_DEPTH} levels deep "
                           f"at column {column}")


def _operand(tokens: list, pos: int, depth: int) -> tuple[Expr, int, int]:
    """A number, name, call, negation or parenthesized expression, and its height."""
    kind, text, column = tokens[pos]
    pos += 1
    if kind == "number":
        return Num(float(text)), pos, 1
    if kind == "ident":
        if text == "x":
            return Var(), pos, 1
        if text == "pi":
            return Pi(), pos, 1
        if text in FUNCTION_NAMES:
            if tokens[pos][1] != "(":
                raise ExprSyntaxError(
                    f"expected '(' after {text!r} at column {tokens[pos][2]}")
            arg, pos, height = _climb(tokens, pos + 1, 1, depth + 1)
            return Call(text, arg), _close(tokens, pos), height + 1
        allowed = ", ".join(("x", "pi") + FUNCTION_NAMES)
        raise ExprNameError(
            f"unknown identifier {text!r} at column {column}; allowed names: {allowed}")
    if text == "-":
        operand, pos, height = _climb(tokens, pos, _UNARY + 1, depth + 1)
        return Neg(operand), pos, height + 1
    if text == "(":
        node, pos, height = _climb(tokens, pos, 1, depth + 1)
        return node, _close(tokens, pos), height + 1
    if kind == "end":
        raise ExprSyntaxError(f"unexpected end of input at column {column}")
    raise ExprSyntaxError(f"unexpected {text!r} at column {column}")


def _close(tokens: list, pos: int) -> int:
    if tokens[pos][1] != ")":
        raise ExprSyntaxError(f"expected ')' at column {tokens[pos][2]}")
    return pos + 1


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ExprSyntaxError / ExprNameError.

    Each operator, negation, call and pair of parentheses nests one level, and
    text nested past _MAX_DEPTH levels is a syntax error naming its column.
    """
    if not isinstance(text, str):
        raise ExprSyntaxError(f"expression must be a string, got {type(text).__name__}")
    if not text.strip():
        raise ExprSyntaxError("expression is empty at column 1")
    tokens = _scan(text)
    node, pos, _ = _climb(tokens, 0, 1, 0)
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
    grid = np.atleast_1d(points)
    with np.errstate(all="ignore"):
        values = _spread(_evaluate(node, grid), grid)
    return float(values[0]) if points.ndim == 0 else values


def _bad_power(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # real pow is undefined here for finite operands; infinite ones take C99 limits
    finite = np.isfinite(left) & np.isfinite(right)
    fractional = (left < 0.0) & (right != np.floor(right))
    return finite & (fractional | ((left == 0.0) & (right < 0.0)))


# (test, problem) of each operator and function with a domain: the test takes
# the operands and marks the points outside it. A point outside gives an inf or
# a nan, so a test runs only once that shows.
_DOMAINS = {
    "/": (lambda left, right: right == 0.0, "division by zero"),
    "^": (_bad_power, "invalid power (negative base with fractional exponent, "
                      "or zero to a negative power)"),
    **{name: (np.isinf, f"{name} of an infinite value") for name in ("sin", "cos", "tan")},
    "log": (lambda value: value <= 0.0, "log of non-positive value"),
    "sqrt": (lambda value: value < 0.0, "sqrt of negative value"),
    "gamma": (lambda value: (value <= 0.0) & (value == np.floor(value)), "gamma pole"),
}
_PI = np.float64(math.pi)


def _check(node: Expr, x: np.ndarray, *operands) -> None:
    """Raise ExprDomainError at the first point where operands leave node's domain, if any."""
    test, problem = _DOMAINS[node.op if type(node) is BinOp else node.name]
    hits = np.flatnonzero(np.broadcast_to(test(*operands), x.shape))
    if hits.size:
        raise ExprDomainError(
            f"{problem} in {to_text(node)!r} at x={x.flat[hits[0]]}")


def _spread(value, x: np.ndarray) -> np.ndarray:
    """value as an array of x's shape: a scalar fills one, an array passes."""
    return value if isinstance(value, np.ndarray) else np.full(x.shape, value)


def _evaluate(node: Expr, x: np.ndarray):
    """node at the points x: an array of x's shape, or a float64 scalar where
    node is numbers and pi under + - * / and negation."""
    kind = type(node)
    if kind is BinOp:
        op, left, right = node.op, _evaluate(node.left, x), _evaluate(node.right, x)
        if op == "^":  # np.power rounds a scalar exponent 2, 0.5 or -1 differently
            left, right = _spread(left, x), _spread(right, x)
        value = _OPS[op][1](left, right)
        if op in _DOMAINS and not np.isfinite(value).all():
            _check(node, x, left, right)
        return value
    if kind is Var:
        return x
    if kind is Num:
        return np.float64(node.value)
    if kind is Call:
        name, arg = node.name, _spread(_evaluate(node.arg, x), x)
        value = _FUNCS[name](arg)
        if name in _DOMAINS and not np.isfinite(value).all():
            _check(node, x, arg)
        return value
    if kind is Neg:
        return -_evaluate(node.operand, x)
    if kind is Pi:
        return _PI
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
        # a literal past double range such as 2e400 parses to inf, and so does 1e999;
        # no literal reads as NaN, but inf - inf evaluates to it
        if math.isinf(node.value):
            return "1e999" if node.value > 0.0 else "-1e999"
        if math.isnan(node.value):
            return "(1e999-1e999)"
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
