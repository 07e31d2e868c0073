"""Spectral collocation for initial value problems with fractional terms.

The unknown is expanded in a generalized Laguerre basis. The equation, a sum
of integer-order and variable-order fractional terms, is enforced at the
smallest Gauss nodes and the initial data fill the remaining rows, giving a
dense square system for the coefficients that is solved directly by LU.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._record import Record
from .fractional import (
    OrderFunction,
    _frac_ladder,
    _ladder_orders,
    _order_values,
    _sample,
)
from .laguerre import (
    InterpolantCoeffs,
    LaguerreParams,
    _certified_basis,
    _check_params,
    _checked_degree,
    _checked_int,
    _checked_length,
    _gauss_nodes,
    _zero_ladder,
    eval_interpolant,
)
from .special import DomainError

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
    """The initial value problem sum_k c_k(x) D^(q_k) u(x) = f(x) for x >= 0.

    terms holds one (coefficient c_k, order q_k) pair per term. An order is an
    int q >= 0, the q-th derivative (0 is u itself), or an OrderFunction inside
    one unit window (n - 1, n), the Caputo derivative. initial holds u(0), ...,
    u^(k-1)(0), k the largest q or n, and N >= max(2, k) leaves a collocation
    row. Each callable maps a 1-D float array of points to an array of its
    shape (a scalar is broadcast) and must be pure and finite at the nodes.

    nodes, derived and read-only, are the N + 1 - k collocation nodes. Every
    OrderFunction is checked against its window there on construction: a
    value outside it raises DomainError naming the node, the term and N.
    """

    __slots__ = ("params", "N", "terms", "f", "initial", "nodes")

    def __init__(self, params: LaguerreParams, N: int, terms: Sequence[tuple],
                 f: Callable[[np.ndarray], np.ndarray], initial: Sequence[float]):
        _check_params(params)
        checked = []
        for i, term in enumerate(terms):
            try:
                coefficient, order = term
            except (TypeError, ValueError):
                raise ValueError(f"term {i} must be a (coefficient, order) pair, "
                                 f"got {term!r}") from None
            if not callable(coefficient):
                raise ValueError(f"coefficient of term {i} must be callable")
            if not isinstance(order, OrderFunction):
                order = _checked_degree(order, f"order of term {i}")
            checked.append((coefficient, order))
        if not checked:
            raise ValueError("terms must hold at least one (coefficient, order) pair")
        k = max(order.n if isinstance(order, OrderFunction) else order for _, order in checked)
        N = _checked_int(N, "N", max(2, k))
        if not callable(f):
            raise ValueError("f must be callable")
        values = np.asarray(initial, dtype=float)
        if values.shape != (k,) or not np.isfinite(values).all():
            raise ValueError(f"{k} finite initial values u^(j)(0), j < {k}, are needed, "
                             f"got {initial!r}")
        nodes = collocation_nodes(params, N, N + 1 - k)
        for i, (_, order) in enumerate(checked):
            if isinstance(order, OrderFunction):
                try:
                    _order_values(order, nodes)
                except DomainError as exc:
                    raise DomainError(f"{exc} (term {i}, N={N})") from None
        nodes.setflags(write=False)
        self._fill(params, N, tuple(checked), f, tuple(values.tolist()), nodes)


def collocation_nodes(params: LaguerreParams, N, count) -> np.ndarray:
    """The `count` smallest zeros of the degree-(N+1) basis polynomial, ascending.

    The nodes of ``gauss_rule(params, N)``, bit for bit, with no ladder,
    weights or norms, so past the N ~ 190 where the Gauss weights
    underflow. IvpSpec keeps them; assemble certifies them from its basis
    ladder, which leaves double range from N ~ 375.
    """
    degree = _checked_degree(N, "N")
    c = _checked_degree(count, "count")
    if c > degree + 1:
        raise ValueError(f"count must be at most N+1={degree + 1}, got {count}")
    return _gauss_nodes(params, degree)[:c]


def assemble(spec: IvpSpec) -> tuple[np.ndarray, np.ndarray]:
    """The square collocation system (matrix, rhs), matrix @ coeffs = rhs.

    One row per collocation node x_j of spec.nodes carries sum_k c_k(x_j) D^(q_k) u = f(x_j);
    the remaining k rows carry u^(j)(0) = initial[j], whose basis values
    (-beta)^j L_(i-j)^(theta+j)(0) come by the parameter shift. The ladders at
    the nodes come from one recurrence pass, a column block each: the basis to
    degree N + 1 (whose top rows certify the nodes; an order-0 term reads it),
    then one block per term of nonzero order, as caputo_row reads it. Each
    coefficient is sampled as its block is added, in term order, then f. One
    check of the finished matrix raises SolverError naming N and the x of a row out of range.
    """
    N, terms, nodes = spec.N, spec.terms, spec.nodes
    count = nodes.size
    theta, minus_beta = spec.params.theta, np.float64(-spec.params.beta)
    orders = [0] + [order for _, order in terms if order != 0]
    shifts, ladder_orders = zip(*(_ladder_orders(order, nodes) for order in orders))
    ladder = _frac_ladder(spec.params, np.concatenate(ladder_orders), N + 1,
                          np.tile(nodes, len(orders)), shift=np.repeat(shifts, count))
    # by block, degree and node; degrees past the ones a block keeps may be out of range
    blocks = ladder.reshape(N + 2, len(orders), count).swapaxes(0, 1)
    _certified_basis(spec.params, nodes, blocks[0])
    matrix = np.zeros((N + 1, N + 1))
    # a row past double range is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (coefficient, order) in enumerate(terms):
            values = _sample(coefficient, nodes, f"coefficient of term {i}")
            k = orders.index(order)
            s, block = shifts[k], blocks[k][:N - shifts[k] + 1]
            # an order-0 block skips its scale, (-beta)^0 = 1
            matrix[:count, s:] += (values * (block * minus_beta ** s if s else block)).T
        rhs = np.concatenate([_sample(spec.f, nodes, "function 'f'"), spec.initial])
        for j in range(len(spec.initial)):
            matrix[count + j, j:] = minus_beta ** j * np.array(_zero_ladder(theta + j, N - j))
    if not np.isfinite(matrix).all():
        bad = np.flatnonzero(~np.all(np.isfinite(matrix), axis=1))
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
    if not np.isfinite(coeffs).all():
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
