"""Spectral collocation for initial value problems with a fractional term.

The unknown is expanded in a generalized Laguerre basis. The differential
equation is enforced at the smallest Gauss nodes and the initial data fill
the remaining rows, giving a dense square system for the coefficients that
is solved directly by LU with partial pivoting.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

import numpy as np

from ._record import Record
from .fractional import (
    OrderFunction,
    _checked_range,
    _frac_ladder,
    _order_values,
    _require_derivative_window,
    _sample,
)
from .laguerre import (
    InterpolantCoeffs,
    LaguerreParams,
    _certified_basis,
    _checked_degree,
    _checked_int,
    _checked_length,
    _gauss_nodes,
    eval_interpolant,
    value_at_zero,
)

__all__ = [
    "SolverError",
    "IvpSpec",
    "LinearSystem",
    "ErrorReport",
    "collocation_nodes",
    "assemble",
    "solve",
    "max_abs_error",
]


class SolverError(RuntimeError):
    """The collocation system could not be solved reliably."""


class IvpSpec(Record):
    """An initial value problem with an added fractional derivative term.

    The equation is a(x) u^(m)(x) + b(x) D^(rho(x)) u(x) + c(x) u(x) = f(x)
    for x >= 0 with u(0) = u0, plus u'(0) = v0 when the fractional order
    lies in (1, 2). The coefficient and forcing callables take a 1-D float
    array of points and return an array of the same shape (a scalar return
    is broadcast); they must be pure and finite at the collocation nodes.
    """

    __slots__ = ("params", "N", "order", "m", "a", "b", "c", "f", "u0", "v0")

    def __init__(self, params: LaguerreParams, N: int, order: OrderFunction, m: int,
                 a: Callable[[np.ndarray], np.ndarray], b: Callable[[np.ndarray], np.ndarray],
                 c: Callable[[np.ndarray], np.ndarray], f: Callable[[np.ndarray], np.ndarray],
                 u0: float, v0: Optional[float] = None):
        N = _checked_int(N, "N", 2)
        if m not in (1, 2):
            raise ValueError(f"m must be 1 or 2, got {m!r}")
        m = int(m)
        _require_derivative_window(order)
        if order.n == 2:
            if v0 is None:
                raise ValueError("v0 is required when the order lies in (1, 2)")
            if not np.isfinite(float(v0)):
                raise ValueError("v0 must be finite")
            v0 = float(v0)
        else:
            if v0 is not None:
                raise ValueError("v0 must be omitted when the order lies in (0, 1)")
            if m != 1:
                raise ValueError("m must be 1 when the order lies in (0, 1)")
        for name, func in (("a", a), ("b", b), ("c", c), ("f", f)):
            if not callable(func):
                raise ValueError(f"{name} must be callable")
        if not np.isfinite(float(u0)):
            raise ValueError("u0 must be finite")
        self._fill(params, N, order, m, a, b, c, f, float(u0), v0)


class LinearSystem(Record):
    """Dense collocation system, one row per equation: matrix @ coeffs = rhs."""

    __slots__ = ("matrix", "rhs")

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray):
        mat = np.array(matrix, dtype=float)
        vec = np.array(rhs, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if vec.shape != (mat.shape[0],):
            raise ValueError("rhs length must match the matrix dimension")
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(vec))):
            raise ValueError("system entries must be finite")
        mat.setflags(write=False)
        vec.setflags(write=False)
        self._fill(mat, vec)


class ErrorReport(Record):
    """Maximum absolute deviation of an expansion from a reference on [0, L]."""

    __slots__ = ("N", "params", "max_abs_error", "grid_size", "domain_length")

    def __init__(self, N: int, params: LaguerreParams, max_abs_error: float, grid_size: int,
                 domain_length: float):
        if not np.isfinite(max_abs_error) or max_abs_error < 0.0:
            raise ValueError(f"max_abs_error must be finite and nonnegative, "
                             f"got {max_abs_error!r}")
        self._fill(N, params, max_abs_error, grid_size, domain_length)


def collocation_nodes(params: LaguerreParams, N, count) -> np.ndarray:
    """The `count` smallest zeros of the degree-(N+1) basis polynomial, ascending.

    The nodes of ``gauss_rule(params, N)``, bit for bit, with no ladder,
    weights or norms, so past the N ~ 190 where the Gauss weights
    underflow. assemble certifies the nodes from its basis ladder, which
    leaves double range from N ~ 375.
    """
    degree = _checked_degree(N, "N")
    c = _checked_degree(count, "count")
    if c > degree + 1:
        raise ValueError(f"count must be at most N+1={degree + 1}, got {count}")
    return _gauss_nodes(params, degree)[:c]


def assemble(spec: IvpSpec) -> LinearSystem:
    """Build the square collocation system for the given problem.

    One row per collocation node carries the equation
    a(x_j) u^(m) + b(x_j) D^(rho) u + c(x_j) u = f(x_j); the remaining one
    or two rows carry the initial conditions via the basis boundary
    values L_i(0) and (for orders in (1, 2)) the slopes L_i'(0).

    The three ladders at the nodes come from one recurrence pass, a column
    block each: the basis to degree N + 1 (whose top rows certify the nodes),
    the family theta + m whose rows scaled by (-beta)^m are the m-th
    derivatives, and the family theta + n at order n - rho, the Caputo rows.
    """
    n, m, N = spec.order.n, spec.m, spec.N
    count = N if n == 1 else N - 1
    nodes = collocation_nodes(spec.params, N, count)
    theta, beta = spec.params.theta, spec.params.beta
    zeros = np.zeros(count)
    ladder = _frac_ladder(spec.params,
                          np.concatenate([zeros, zeros, n - _order_values(spec.order, nodes)]),
                          N + 1, np.concatenate([nodes, nodes, nodes]),
                          shift=np.repeat([0.0, m, n], count))
    # rows by degree, a column per node; rows past the ones kept may be out of range
    basis = _certified_basis(spec.params, nodes, ladder[:, :count])
    integer = np.zeros((N + 1, count))
    np.multiply(ladder[:N - m + 1, count:2 * count], (-beta) ** m, out=integer[m:])
    frac = np.zeros((N + 1, count))
    np.multiply(_checked_range(ladder[:N - n + 1, 2 * count:], nodes), (-beta) ** n,
                out=frac[n:])

    a_vals = _sample(spec.a, nodes, "function 'a'")
    b_vals = _sample(spec.b, nodes, "function 'b'")
    c_vals = _sample(spec.c, nodes, "function 'c'")
    f_vals = _sample(spec.f, nodes, "function 'f'")

    matrix = np.zeros((N + 1, N + 1))
    matrix[:count] = (a_vals * integer + b_vals * frac + c_vals * basis).T
    matrix[count] = value_at_zero(spec.params, np.arange(N + 1))
    rhs = np.empty(N + 1)
    rhs[:count] = f_vals
    rhs[count] = spec.u0
    if n == 2:
        slope_family = LaguerreParams(theta + 1.0, beta)
        matrix[count + 1, 1:] = -beta * value_at_zero(slope_family, np.arange(N))
        rhs[count + 1] = spec.v0
    return LinearSystem(matrix=matrix, rhs=rhs)


def solve(spec: IvpSpec) -> InterpolantCoeffs:
    """Solve the collocation system and return the coefficient expansion.

    Dense LU with partial pivoting (``numpy.linalg.solve``). The reciprocal
    condition number in the infinity norm, 1 / (||A|| ||A^-1||) with the
    inverse formed explicitly by ``numpy.linalg.cond`` (exact, not an
    estimate), is logged at INFO on the lagfrac.solver logger for every
    solve once some code has imported logging, and gates matrices that are
    singular at working precision: an exactly singular matrix (whose
    condition number is inf) or an rcond below eps raises SolverError.
    """
    system = assemble(spec)
    rcond = 1.0 / float(np.linalg.cond(system.matrix, np.inf))
    if rcond < np.finfo(float).eps:
        raise SolverError(
            f"collocation matrix is singular to working precision "
            f"(rcond={rcond:.3e}, N={spec.N})")
    coeffs = np.linalg.solve(system.matrix, system.rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SolverError("linear solve produced non-finite coefficients")
    # no handler or level can exist before logging is imported, so until then nothing listens
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info("solved collocation system N=%d, rcond=%.3e",
                                         spec.N, rcond)
    return InterpolantCoeffs(params=spec.params, coeffs=coeffs)


def max_abs_error(coeffs: InterpolantCoeffs, exact, domain_length, grid_size) -> ErrorReport:
    """Max |expansion - exact| over a uniform grid including both endpoints.

    exact takes the 1-D array of grid points and returns an array of the
    same shape (a scalar return is broadcast); write it with numpy
    functions, as ``np.sin`` rather than ``math.sin``.
    """
    size = _checked_int(grid_size, "grid_size", 2)
    length = _checked_length(domain_length, "domain_length")
    xs = np.linspace(0.0, length, size)
    approx = eval_interpolant(coeffs, xs)
    reference = _sample(exact, xs, "exact")
    value = float(np.max(np.abs(approx - reference)))
    return ErrorReport(N=coeffs.coeffs.size - 1, params=coeffs.params,
                       max_abs_error=value, grid_size=size, domain_length=length)
