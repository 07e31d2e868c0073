"""Generalized Laguerre polynomial families on the half line.

The family with parameters (theta, beta) is orthogonal on (0, inf) against
the weight x^theta * exp(-beta * x), theta > -1, beta > 0. This module
evaluates the polynomial ladder, computes norms and boundary values, builds
the matching Gauss quadrature rule, and converts point samples to spectral
coefficients and back.
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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _check_params(params) -> None:
    if not isinstance(params, LaguerreParams):
        raise ValueError(f"params must be a LaguerreParams, got {params!r}")


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
        _check_params(params)
        nodes = _frozen_array(nodes, "nodes")
        if nodes[0] <= 0.0 or (np.diff(nodes) <= 0.0).any():
            raise ValueError("nodes must be positive and strictly increasing")
        n = nodes.size - 1
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
        _check_params(params)
        self._fill(params, _frozen_array(coeffs, "coeffs"))


def _checked_int(value, name: str, low: int) -> int:
    """value as an int >= low; a bool, a fraction or a non-finite value raises ValueError."""
    if (isinstance(value, (bool, np.bool_)) or not math.isfinite(value)
            or int(value) != value or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _checked_length(value, name: str) -> float:
    """value as a finite positive float, such as the length of a domain [0, L]."""
    length = float(value)
    if not math.isfinite(length) or length <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return length


def _checked_degree(value, name: str = "degree", arrays: bool = False):
    """value as a nonnegative int; with arrays, also a 1-D array of them as an int array.

    Booleans are refused: one, an array of them, or one among numbers.
    """
    ndim = np.ndim(value)
    if ndim == 0 or not arrays:
        if (ndim or isinstance(value, (bool, np.bool_)) or not math.isfinite(value)
                or int(value) != value or value < 0):
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        return int(value)
    given = np.asarray(value)
    arr = given.astype(float)
    # numpy turns a bool among numbers into a number, so a list's items are checked too
    if (given.dtype == bool or arr.ndim != 1
            or (not isinstance(value, np.ndarray)
                and any(isinstance(item, (bool, np.bool_)) for item in value))
            or not (np.isfinite(arr) & (arr >= 0.0) & (arr == np.floor(arr))).all()):
        raise ValueError(f"{name} must be a 1-D array of nonnegative integers, got {value!r}")
    return arr.astype(int)


def _as_points(x):
    """Normalize x to a 1-D array of half-line points; remember if it was scalar."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    if pts.ndim != 1:
        raise ValueError("x must be a scalar or a 1-D array")
    if not np.isfinite(pts).all():
        raise DomainError("x must be finite")
    if (pts < 0.0).any():
        raise DomainError("x must be nonnegative (half line domain)")
    return pts, scalar


def eval_basis(params: LaguerreParams, max_degree, x):
    """Ladder [L_0(x), ..., L_max_degree(x)], each row filled in place from the two below.

    The forward three-term recurrence
    (i + 1) L_(i+1) = (2i + theta + 1 - beta x) L_i - (i + theta) L_(i-1)
    is the one ladder behind the rules and interpolants too. x may be a
    scalar or a 1-D array; with an array argument the result has shape
    (max_degree + 1, x.size), degrees along the first axis. Values past
    double range (x = 1e300, say) are non-finite, without a warning.
    """
    deg = _checked_degree(max_degree, "max_degree")
    xs, scalar = _as_points(x)
    theta = params.theta
    out = np.empty((deg + 1, xs.size), dtype=float)
    out[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        bx = params.beta * xs
        if deg >= 1:
            out[1] = theta + 1.0 - bx
        # in place, into row i + 1 and one scratch row: a new array per row cost 5-15 %
        step, rows = np.empty_like(bx), list(out)
        for i in range(1, deg):
            np.subtract(2.0 * i + theta + 1.0, bx, out=step)
            step *= rows[i]
            np.multiply(rows[i - 1], i + theta, out=rows[i + 1])
            np.subtract(step, rows[i + 1], out=rows[i + 1])
            rows[i + 1] /= i + 1.0
    return out[:, 0] if scalar else out


def value_at_zero(params: LaguerreParams, i):
    """L_i(0) = Gamma(i + theta + 1) / (Gamma(i + 1) Gamma(theta + 1)).

    i is one degree (the result is a float) or a 1-D array of degrees. The
    values come from the multiplicative ladder
    L_(k+1)(0) = L_k(0) (k + theta + 1) / (k + 1), with no gamma evaluations.
    A value beyond double range is inf, without a warning.
    """
    idx = _checked_degree(i, "i", arrays=True)
    ladder = _zero_ladder(params.theta, np.max(idx, initial=0))
    return ladder[idx] if np.ndim(idx) == 0 else np.array(ladder)[idx]


def _zero_ladder(theta: float, top: int) -> list[float]:
    """[L_0(0), ..., L_top(0)] of the family theta, as value_at_zero gives them."""
    # Python floats, unlike numpy scalars, overflow to inf without a warning
    ladder = [1.0]
    for k in range(top):
        ladder.append(ladder[k] * (k + theta + 1.0) / (k + 1.0))
    return ladder


def norm(params: LaguerreParams, i):
    """Squared weighted L2 norm gamma_i = Gamma(i + theta + 1) / (i! beta^(theta + 1)) of L_i.

    i is one degree (the result is a float) or a 1-D array of degrees. A norm
    in double range gets its value; one beyond it is inf, without a warning.
    """
    idx = _checked_degree(i, "i", arrays=True)
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
    if not (np.isfinite(values) & (values > 0.0)).all():
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
    if not (np.abs(step) <= 1e-8 * nodes).all():
        cause = ("a Newton step on L_(N+1) moves one by more than 1e-8 relative"
                 if np.isfinite(top).all() else "the basis ladder leaves double range")
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
    if nodes[0] <= 0.0 or (np.diff(nodes) <= 0.0).any():
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
    one product with the ladder and norms the rule holds. Finite samples
    whose coefficients leave double range raise DomainError naming N.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1 or vals.size != rule.nodes.size:
        raise ValueError(f"expected {rule.nodes.size} samples, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("samples must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = rule.basis @ (vals * rule.weights) / rule.norms
    if not np.isfinite(coeffs).all():
        raise DomainError(f"interpolation coefficients for N={vals.size - 1} leave double range")
    return InterpolantCoeffs(params=rule.params, coeffs=coeffs)


def eval_interpolant(coeffs: InterpolantCoeffs, x):
    """Sum_i l_i L_i(x) over the eval_basis ladder, added in degree order; scalar or 1-D array x.

    A sum past double range is non-finite, without a warning, as in eval_basis.
    """
    lc = coeffs.coeffs
    ladder = eval_basis(coeffs.params, lc.size - 1, x)
    rows = ladder.reshape(lc.size, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = lc[0] * rows[0]
        for c, row in zip(lc[1:], rows[1:]):
            acc += c * row
    return float(acc[0]) if ladder.ndim == 1 else acc
