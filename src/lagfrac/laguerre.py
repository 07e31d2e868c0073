"""Generalized Laguerre polynomial families on the half line.

The family with parameters (theta, beta) is orthogonal on (0, inf) against
the weight x^theta * exp(-beta * x), theta > -1, beta > 0. This module
evaluates the polynomial ladder and its derivatives, computes norms and
boundary values, builds the matching Gauss quadrature rule, and converts
point samples to spectral coefficients and back.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .special import DomainError, gamma_ratio, log_gamma

__all__ = [
    "LaguerreParams",
    "QuadratureRule",
    "InterpolantCoeffs",
    "eval_basis",
    "value_at_zero",
    "derivative_basis",
    "norm",
    "gauss_rule",
    "interpolate",
    "eval_interpolant",
]


_TINY = float(np.finfo(float).tiny)


class LaguerreParams(Record):
    """Parameters (theta, beta) of one basis family."""

    __slots__ = ("theta", "beta")

    def __init__(self, theta: float, beta: float):
        theta = float(theta)
        beta = float(beta)
        if not (math.isfinite(theta) and math.isfinite(beta)):
            raise ValueError("LaguerreParams entries must be finite")
        if theta <= -1.0:
            raise ValueError(f"theta must exceed -1, got {theta}")
        if beta <= 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
        self._fill(theta, beta)


def _frozen_array(values, name: str) -> np.ndarray:
    """values as a read-only nonempty 1-D finite float array."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


class QuadratureRule(Record):
    """Gauss rule for one basis family from its nodes, with the discrete transform.

    Only params and the N + 1 nodes (positive, strictly increasing) are
    given; all four arrays are read-only. basis is the ladder L_0..L_N at
    the nodes (rows by degree, a column per node), norms the squared norms
    gamma_0..gamma_N, and the weights the inverse Christoffel sums
    w_j = 1 / sum_i p_i(x_j)^2 over the orthonormal ladder p_i = L_i / sqrt(gamma_i),
    added in degree order: unlike squared first-eigenvector components they
    keep full relative accuracy in the tiny far-node weights. Nodes that are
    not zeros of L_(N+1), norms past double range, weights that underflow
    (from N ~ 190) or a failed zeroth moment check raise RuntimeError naming N.
    """

    __slots__ = ("params", "nodes", "weights", "basis", "norms")

    def __init__(self, params: LaguerreParams, nodes: np.ndarray):
        nodes = _frozen_array(nodes, "nodes")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be positive and strictly increasing")
        n = nodes.size - 1
        with np.errstate(over="ignore", invalid="ignore"):
            basis = _certified_basis(params, nodes, eval_basis(params, n + 1, nodes))
        norms = norm(params, np.arange(n + 1))
        _require_finite_positive(norms, "norms", n, "Gamma(i + theta + 1) / (i! beta^(theta + 1))")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ortho = basis * (1.0 / np.sqrt(norms))[:, None]
            # a reduction over the leading axis adds the rows in degree order
            weights = 1.0 / np.add.reduce(ortho * ortho, axis=0)
        _require_finite_positive(weights, "weights", n, "the basis ladder")
        mu0 = float(norms[0])
        total = float(np.sum(weights))
        if not np.isfinite(total) or abs(total - mu0) > 1e-12 * mu0:
            raise RuntimeError(
                f"quadrature rule failed the zeroth moment check for N={n}: "
                f"sum of weights {total!r}, expected {mu0!r}")
        for arr in (nodes, weights, basis, norms):
            arr.setflags(write=False)
        self._fill(params, nodes, weights, basis, norms)


class InterpolantCoeffs(Record):
    """Spectral coefficients of an expansion in one basis family."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: LaguerreParams, coeffs: np.ndarray):
        self._fill(params, _frozen_array(coeffs, "coeffs"))


def _checked_int(value, name: str, low: int) -> int:
    """value as an int >= low; a fraction or a non-finite value raises ValueError."""
    if not math.isfinite(value) or int(value) != value or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _checked_length(value, name: str) -> float:
    """value as a finite positive float, such as the length of a domain [0, L]."""
    length = float(value)
    if not math.isfinite(length) or length <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return length


def _checked_degree(value, name: str = "degree"):
    """value as a nonnegative int, or a 1-D array of them as an int array."""
    if np.ndim(value) == 0:
        if not math.isfinite(value) or int(value) != value or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        return int(value)
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or not np.all(np.isfinite(arr) & (arr >= 0.0) & (arr == np.floor(arr))):
        raise ValueError(f"{name} must be a 1-D array of nonnegative integers, got {value!r}")
    return arr.astype(int)


def _as_points(x):
    """Normalize x to a 1-D array of half-line points; remember if it was scalar."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    if pts.ndim != 1:
        raise ValueError("x must be a scalar or a 1-D array")
    if not np.all(np.isfinite(pts)):
        raise DomainError("x must be finite")
    if np.any(pts < 0.0):
        raise DomainError("x must be nonnegative (half line domain)")
    return pts, scalar


def _ladder(theta: float, bx: np.ndarray, top: int):
    """Yield L_0, ..., L_top at the points with beta * x = bx, two rows kept.

    The forward three-term recurrence
    (i + 1) L_(i+1) = (2i + theta + 1 - beta x) L_i - (i + theta) L_(i-1).
    """
    prev = np.ones_like(bx)
    yield prev
    if top >= 1:
        cur = theta + 1.0 - bx
        yield cur
        for i in range(1, top):
            prev, cur = cur, ((2.0 * i + theta + 1.0 - bx) * cur
                              - (i + theta) * prev) / (i + 1.0)
            yield cur


def eval_basis(params: LaguerreParams, max_degree, x):
    """Ladder [L_0(x), ..., L_max_degree(x)] by the forward three-term recurrence.

    x may be a scalar or a 1-D array; with an array argument the result has
    shape (max_degree + 1, x.size), degrees along the first axis.
    """
    deg = _checked_degree(max_degree, "max_degree")
    xs, scalar = _as_points(x)
    out = np.empty((deg + 1, xs.size), dtype=float)
    for i, row in enumerate(_ladder(params.theta, params.beta * xs, deg)):
        out[i] = row
    return out[:, 0] if scalar else out


def value_at_zero(params: LaguerreParams, i):
    """L_i(0) = Gamma(i + theta + 1) / (Gamma(i + 1) Gamma(theta + 1)).

    i is one degree (the result is a float) or a 1-D array of degrees. The
    values come from the multiplicative ladder
    L_(k+1)(0) = L_k(0) (k + theta + 1) / (k + 1), with no gamma evaluations.
    A value beyond double range is inf, without a warning.
    """
    idx = _checked_degree(i, "i")
    # Python floats, unlike numpy scalars, overflow to inf without a warning
    ladder = [1.0]
    for k in range(np.max(idx, initial=0)):
        ladder.append(ladder[k] * (k + params.theta + 1.0) / (k + 1.0))
    return ladder[idx] if np.ndim(idx) == 0 else np.array(ladder)[idx]


def derivative_basis(params: LaguerreParams, i, m, x):
    """m-th derivative of L_i at x via the parameter-shift identity.

    The derivative of the family is again a family member:
    d^m/dx^m L_i^(theta,beta) = (-beta)^m L_(i-m)^(theta+m,beta),
    and identically zero when i < m.

    The ladder runs in np.longdouble (80-bit extended on x86-64; plain
    double where numpy has nothing wider): at the smallest Gauss nodes, with
    theta close to -1 and i ~ 150, a double ladder keeps only about 1e-12
    of relative accuracy.
    """
    idx = _checked_degree(i, "i")
    order = _checked_degree(m, "m")
    xs, scalar = _as_points(x)
    if idx < order:
        return 0.0 if scalar else np.zeros(xs.size)
    for top in _ladder(np.longdouble(params.theta) + order,
                       np.longdouble(params.beta) * xs, idx - order):
        pass
    vals = (top * (-params.beta) ** order).astype(float)
    return float(vals[0]) if scalar else vals


def norm(params: LaguerreParams, i):
    """Squared weighted L2 norm gamma_i = Gamma(i + theta + 1) / (i! beta^(theta + 1)) of L_i.

    i is one degree (the result is a float) or a 1-D array of degrees. A norm
    in double range gets its value; one beyond it is inf, without a warning.
    """
    idx = _checked_degree(i, "i")
    a, b, power = idx + params.theta + 1.0, idx + 1.0, -(params.theta + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.float64(params.beta) ** power)
        out = gamma_ratio(a, b) * scale
        # where a factor or the product leaves the normal range, the power
        # joins the log-gamma difference instead
        direct = (_TINY <= scale < math.inf) & (out > 0.0) & (out < math.inf)
        if np.all(direct):
            return out
        out = np.where(direct, out, np.exp(log_gamma(a) - log_gamma(b) + power * math.log(params.beta)))
    return float(out) if np.ndim(idx) == 0 else out


def _require_finite_positive(values: np.ndarray, name: str, n: int, cause: str) -> None:
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise RuntimeError(f"quadrature {name} for N={n} are not finite and positive: "
                           f"{cause} leaves double range")


def _certified_basis(params: LaguerreParams, nodes: np.ndarray, ladder: np.ndarray) -> np.ndarray:
    """Rows L_0..L_n of the ladder L_0..L_(n+1) at nodes that must be zeros of L_(n+1).

    By x L_(n+1)' = (n + 1) L_(n+1) - (n + 1 + theta) L_n the top rows give
    each node's Newton step, which must be finite (the ladder leaves double
    range at the far nodes from N ~ 375) and at most 1e-8 of the node, or a
    RuntimeError names n.
    """
    n = ladder.shape[0] - 2
    top = ladder[n + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step = nodes * top / ((n + 1.0) * top - (n + 1.0 + params.theta) * ladder[n])
    if not np.all(np.abs(step) <= 1e-8 * nodes):
        cause = ("a Newton step on L_(N+1) moves one by more than 1e-8 relative"
                 if np.all(np.isfinite(top)) else "the basis ladder leaves double range")
        raise RuntimeError(f"quadrature nodes for N={n} are not certified: {cause}")
    return ladder[:n + 1]


def _gauss_nodes(params: LaguerreParams, n: int) -> np.ndarray:
    """Ascending zeros of L_(n+1): the Jacobi matrix's eigenvalues, unpolished.

    A Newton sweep would move the worst node error only at rounding level
    (379 -> 371 eps at N = 80); see _certified_basis for the node check.
    """
    theta, beta = params.theta, params.beta
    k = np.arange(n + 1, dtype=float)
    diag = (2.0 * k + theta + 1.0) / beta
    off = np.sqrt(k[1:] * (k[1:] + theta)) / beta
    try:
        # eigvalsh reads the lower triangle
        nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"tridiagonal eigenvalue solve failed for N={n}: {exc}") from exc
    if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
        raise RuntimeError(f"quadrature nodes for N={n} are not positive and strictly increasing")
    return nodes


def gauss_rule(params: LaguerreParams, N) -> QuadratureRule:
    """(N+1)-point Gauss rule for the weight x^theta exp(-beta x), with its transform.

    Nodes are the zeros of the degree-(N+1) basis polynomial: the
    eigenvalues of the symmetric tridiagonal recurrence matrix (a dense
    ``numpy.linalg.eigvalsh``), unpolished. QuadratureRule derives the
    ladder, norms and weights from them and certifies them from the same
    ladder, one degree longer. From N ~ 190 the weights underflow and a
    RuntimeError names N.
    """
    return QuadratureRule(params=params, nodes=_gauss_nodes(params, _checked_degree(N, "N")))


def interpolate(rule: QuadratureRule, samples) -> InterpolantCoeffs:
    """Spectral coefficients of the interpolant through (rule.nodes, samples).

    Discrete transform: l_i = (1/gamma_i) sum_j samples[j] L_i(x_j) w_j,
    one product with the ladder and norms the rule holds.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1 or vals.size != rule.nodes.size:
        raise ValueError(f"expected {rule.nodes.size} samples, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("samples must be finite")
    coeffs = rule.basis @ (vals * rule.weights) / rule.norms
    return InterpolantCoeffs(params=rule.params, coeffs=coeffs)


def eval_interpolant(coeffs: InterpolantCoeffs, x):
    """Sum_i l_i L_i(x) by forward recurrence; scalar or 1-D array x."""
    xs, scalar = _as_points(x)
    lc = coeffs.coeffs
    rows = _ladder(coeffs.params.theta, coeffs.params.beta * xs, lc.size - 1)
    acc = lc[0] * next(rows)
    for c, row in zip(lc[1:], rows):
        acc += c * row
    return float(acc[0]) if scalar else acc
