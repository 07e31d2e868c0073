"""Spectral collocation for initial value problems with a fractional term.

The unknown is expanded in a generalized Laguerre basis. The differential
equation is enforced at the smallest Gauss nodes and the initial data fill
the remaining rows, giving a dense square system for the coefficients that
is solved directly by LU with partial pivoting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fractional import OrderFunction, _require_derivative_window, _sample, caputo_row
from .laguerre import (
    InterpolantCoeffs,
    LaguerreParams,
    _checked_degree,
    _checked_int,
    _checked_length,
    _gauss_nodes,
    eval_basis,
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

logger = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """The collocation system could not be solved reliably."""


@dataclass(frozen=True)
class IvpSpec:
    """An initial value problem with an added fractional derivative term.

    The equation is a(x) u^(m)(x) + b(x) D^(rho(x)) u(x) + c(x) u(x) = f(x)
    for x >= 0 with u(0) = u0, plus u'(0) = v0 when the fractional order
    lies in (1, 2). The coefficient and forcing callables take a 1-D float
    array of points and return an array of the same shape (a scalar return
    is broadcast); they must be pure and finite at the collocation nodes.
    """

    params: LaguerreParams
    N: int
    order: OrderFunction
    m: int
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    c: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    u0: float
    v0: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "N", _checked_int(self.N, "N", 2))
        if self.m not in (1, 2):
            raise ValueError(f"m must be 1 or 2, got {self.m!r}")
        m = int(self.m)
        object.__setattr__(self, "m", m)
        _require_derivative_window(self.order)
        if self.order.n == 2:
            if self.v0 is None:
                raise ValueError("v0 is required when the order lies in (1, 2)")
            if not np.isfinite(float(self.v0)):
                raise ValueError("v0 must be finite")
            object.__setattr__(self, "v0", float(self.v0))
        else:
            if self.v0 is not None:
                raise ValueError("v0 must be omitted when the order lies in (0, 1)")
            if m != 1:
                raise ValueError("m must be 1 when the order lies in (0, 1)")
        for name in ("a", "b", "c", "f"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable")
        if not np.isfinite(float(self.u0)):
            raise ValueError("u0 must be finite")
        object.__setattr__(self, "u0", float(self.u0))


@dataclass(frozen=True)
class LinearSystem:
    """Dense collocation system, one row per equation: matrix @ coeffs = rhs."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        vec = np.array(self.rhs, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if vec.shape != (mat.shape[0],):
            raise ValueError("rhs length must match the matrix dimension")
        if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(vec))):
            raise ValueError("system entries must be finite")
        mat.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "rhs", vec)


@dataclass(frozen=True)
class ErrorReport:
    """Maximum absolute deviation of an expansion from a reference on [0, L]."""

    N: int
    params: LaguerreParams
    max_abs_error: float
    grid_size: int
    domain_length: float

    def __post_init__(self):
        if not np.isfinite(self.max_abs_error) or self.max_abs_error < 0.0:
            raise ValueError(f"max_abs_error must be finite and nonnegative, "
                             f"got {self.max_abs_error!r}")


def collocation_nodes(params: LaguerreParams, N, count) -> np.ndarray:
    """The `count` smallest zeros of the degree-(N+1) basis polynomial, ascending.

    The nodes of ``gauss_rule(params, N)``, bit for bit, from the same
    eigenvalue solve and two rolling-recurrence Newton sweeps, but with no
    weights or norms: the solver needs none, so this works past the
    N ~ 190 where the Gauss weights underflow (to at least N = 360).
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
    """
    n = spec.order.n
    count = spec.N if n == 1 else spec.N - 1
    nodes = collocation_nodes(spec.params, spec.N, count)
    theta, beta = spec.params.theta, spec.params.beta

    # ladders with one row per basis degree and one column per node
    basis = eval_basis(spec.params, spec.N, nodes)
    frac = caputo_row(spec.params, spec.order, spec.N, nodes)
    integer = np.zeros((spec.N + 1, count))
    shifted = LaguerreParams(theta + spec.m, beta)
    integer[spec.m:] = (-beta) ** spec.m * eval_basis(shifted, spec.N - spec.m, nodes)

    a_vals = _sample(spec.a, nodes, "function 'a'")
    b_vals = _sample(spec.b, nodes, "function 'b'")
    c_vals = _sample(spec.c, nodes, "function 'c'")
    f_vals = _sample(spec.f, nodes, "function 'f'")

    matrix = np.zeros((spec.N + 1, spec.N + 1))
    matrix[:count] = (a_vals * integer + b_vals * frac + c_vals * basis).T
    matrix[count] = value_at_zero(spec.params, np.arange(spec.N + 1))
    rhs = np.empty(spec.N + 1)
    rhs[:count] = f_vals
    rhs[count] = spec.u0
    if n == 2:
        slope_family = LaguerreParams(theta + 1.0, beta)
        matrix[count + 1, 1:] = -beta * value_at_zero(slope_family, np.arange(spec.N))
        rhs[count + 1] = spec.v0
    return LinearSystem(matrix=matrix, rhs=rhs)


def solve(spec: IvpSpec) -> InterpolantCoeffs:
    """Solve the collocation system and return the coefficient expansion.

    Dense LU with partial pivoting (``numpy.linalg.solve``). The reciprocal
    condition number in the infinity norm, 1 / (||A|| ||A^-1||) with the
    inverse formed explicitly by ``numpy.linalg.cond`` (exact, not an
    estimate), is logged for every solve and gates matrices that are
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
    logger.info("solved collocation system N=%d, rcond=%.3e", spec.N, rcond)
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
