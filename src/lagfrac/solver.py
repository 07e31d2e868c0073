"""Spectral collocation for initial value problems with a fractional term.

The unknown is expanded in a generalized Laguerre basis. The differential
equation is enforced at the smallest Gauss nodes and the initial data fill
the remaining rows, giving a dense square system for the coefficients that
is solved directly by LU with partial pivoting.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Callable, Sequence

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
    for x >= 0, with m >= 1 and rho inside one unit window (n - 1, n). The
    k = max(m, n) values u(0), u'(0), ..., u^(k-1)(0) are the initial
    sequence, and N >= max(2, k) leaves at least one collocation row. The
    coefficient and forcing callables take a 1-D float array of points and
    return an array of the same shape (a scalar return is broadcast); they
    must be pure and finite at the collocation nodes.
    """

    __slots__ = ("params", "N", "order", "m", "a", "b", "c", "f", "initial")

    def __init__(self, params: LaguerreParams, N: int, order: OrderFunction, m: int,
                 a: Callable[[np.ndarray], np.ndarray], b: Callable[[np.ndarray], np.ndarray],
                 c: Callable[[np.ndarray], np.ndarray], f: Callable[[np.ndarray], np.ndarray],
                 initial: Sequence[float]):
        m = _checked_int(m, "m", 1)
        _require_derivative_window(order)
        k = max(m, order.n)
        N = _checked_int(N, "N", max(2, k))
        for name, func in (("a", a), ("b", b), ("c", c), ("f", f)):
            if not callable(func):
                raise ValueError(f"{name} must be callable")
        values = np.asarray(initial, dtype=float)
        if values.shape != (k,) or not np.all(np.isfinite(values)):
            raise ValueError(f"{k} finite initial values u^(j)(0), j < {k}, are needed "
                             f"for m={m} and n={order.n}, got {initial!r}")
        self._fill(params, N, order, m, a, b, c, f, tuple(values.tolist()))


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


def assemble(spec: IvpSpec) -> tuple[np.ndarray, np.ndarray]:
    """The square collocation system (matrix, rhs), matrix @ coeffs = rhs.

    One row per collocation node carries the equation
    a(x_j) u^(m) + b(x_j) D^(rho) u + c(x_j) u = f(x_j); the remaining k
    rows carry the initial conditions u^(j)(0) = initial[j], j < k, whose
    basis values (-beta)^j L_(i-j)^(theta+j)(0) come by the parameter shift.

    The three ladders at the nodes come from one recurrence pass, a column
    block each: the basis to degree N + 1 (whose top rows certify the nodes),
    the family theta + m whose rows scaled by (-beta)^m are the m-th
    derivatives (derivative_basis), and the family theta + n at order
    n - rho, the Caputo rows. A row that leaves double range (a huge
    coefficient, say) raises SolverError naming N and the row's x.
    """
    n, m, N = spec.order.n, spec.m, spec.N
    count = N + 1 - len(spec.initial)
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
    rhs = np.empty(N + 1)
    rhs[:count] = f_vals
    # a row past double range is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        matrix[:count] = (a_vals * integer + b_vals * frac + c_vals * basis).T
        for j, value in enumerate(spec.initial):
            family = LaguerreParams(theta + j, beta)
            matrix[count + j, j:] = (-beta) ** j * value_at_zero(family, np.arange(N + 1 - j))
            rhs[count + j] = value
    bad = np.flatnonzero(~np.all(np.isfinite(matrix), axis=1))
    if bad.size:
        x = nodes[bad[0]] if bad[0] < count else 0.0
        raise SolverError(f"collocation system for N={N} leaves double range "
                          f"in its row at x={x}")
    return matrix, rhs


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
    matrix, rhs = assemble(spec)
    rcond = 1.0 / float(np.linalg.cond(matrix, np.inf))
    if rcond < np.finfo(float).eps:
        raise SolverError(
            f"collocation matrix is singular to working precision "
            f"(rcond={rcond:.3e}, N={spec.N})")
    coeffs = np.linalg.solve(matrix, rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SolverError(f"linear solve produced non-finite coefficients for N={spec.N}")
    # no handler or level can exist before logging is imported, so until then nothing listens
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info("solved collocation system N=%d, rcond=%.3e",
                                         spec.N, rcond)
    return InterpolantCoeffs(params=spec.params, coeffs=coeffs)


def max_abs_error(coeffs: InterpolantCoeffs, exact, domain_length, grid_size) -> float:
    """Max |expansion - exact| over a uniform grid including both endpoints.

    exact takes the 1-D array of grid points and returns an array of the
    same shape (a scalar return is broadcast); write it with numpy
    functions, as ``np.sin`` rather than ``math.sin``. A non-finite value
    of the expansion or of exact raises DomainError naming its x; finite
    values farther apart than the largest double give an error of inf.
    """
    size = _checked_int(grid_size, "grid_size", 2)
    length = _checked_length(domain_length, "domain_length")
    xs = np.linspace(0.0, length, size)
    approx = _sample(partial(eval_interpolant, coeffs), xs, "expansion")
    reference = _sample(exact, xs, "exact")
    with np.errstate(over="ignore"):  # finite values a double range apart: inf
        return float(np.max(np.abs(approx - reference)))
