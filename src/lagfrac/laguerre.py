"""Generalized Laguerre polynomial families on the half line.

The family with parameters (theta, beta) is orthogonal on (0, inf) against
the weight x^theta * exp(-beta * x), theta > -1, beta > 0. This module
evaluates the polynomial ladder and its derivatives, computes norms and
boundary values, builds the matching Gauss quadrature rule, and converts
point samples to spectral coefficients and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as _linalg

from .special import DomainError, gamma_ratio

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


@dataclass(frozen=True)
class LaguerreParams:
    """Parameters (theta, beta) of one basis family."""

    theta: float
    beta: float

    def __post_init__(self):
        theta = float(self.theta)
        beta = float(self.beta)
        if not (np.isfinite(theta) and np.isfinite(beta)):
            raise ValueError("LaguerreParams entries must be finite")
        if theta <= -1.0:
            raise ValueError(f"theta must exceed -1, got {theta}")
        if beta <= 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "beta", beta)


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss nodes and weights for one basis family; immutable after construction."""

    params: LaguerreParams
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _frozen_array(self.nodes, "nodes")
        weights = _frozen_array(self.weights, "weights")
        if weights.size != nodes.size:
            raise ValueError("nodes and weights must have equal length")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be positive and strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class InterpolantCoeffs:
    """Spectral coefficients of an expansion in one basis family."""

    params: LaguerreParams
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs, "coeffs"))


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


def eval_basis(params: LaguerreParams, max_degree, x):
    """Ladder [L_0(x), ..., L_max_degree(x)] by the forward three-term recurrence.

    x may be a scalar or a 1-D array; with an array argument the result has
    shape (max_degree + 1, x.size), degrees along the first axis.
    """
    deg = _checked_degree(max_degree, "max_degree")
    xs, scalar = _as_points(x)
    theta, beta = params.theta, params.beta
    out = np.empty((deg + 1, xs.size), dtype=float)
    out[0] = 1.0
    if deg >= 1:
        out[1] = theta + 1.0 - beta * xs
    for i in range(1, deg):
        out[i + 1] = ((2.0 * i + theta + 1.0 - beta * xs) * out[i]
                      - (i + theta) * out[i - 1]) / (i + 1.0)
    return out[:, 0] if scalar else out


def value_at_zero(params: LaguerreParams, i):
    """L_i(0) = Gamma(i + theta + 1) / (Gamma(i + 1) Gamma(theta + 1)).

    i is one degree (the result is a float) or a 1-D array of degrees. The
    values come from the multiplicative ladder
    L_(k+1)(0) = L_k(0) (k + theta + 1) / (k + 1), with no gamma evaluations.
    """
    idx = _checked_degree(i, "i")
    ladder = np.ones(np.max(idx, initial=0) + 1)
    for k in range(ladder.size - 1):
        ladder[k + 1] = ladder[k] * (k + params.theta + 1.0) / (k + 1.0)
    return float(ladder[idx]) if np.ndim(idx) == 0 else ladder[idx]


def derivative_basis(params: LaguerreParams, i, m, x):
    """m-th derivative of L_i at x via the parameter-shift identity.

    The derivative of the family is again a family member:
    d^m/dx^m L_i^(theta,beta) = (-beta)^m L_(i-m)^(theta+m,beta),
    and identically zero when i < m.
    """
    idx = _checked_degree(i, "i")
    order = _checked_degree(m, "m")
    xs, scalar = _as_points(x)
    if idx < order:
        return 0.0 if scalar else np.zeros(xs.size)
    shifted = LaguerreParams(params.theta + order, params.beta)
    ladder = eval_basis(shifted, idx - order, xs)
    vals = (-params.beta) ** order * ladder[-1]
    return float(vals[0]) if scalar else vals


def norm(params: LaguerreParams, i):
    """Squared weighted L2 norm gamma_i of L_i, always formed in log space.

    i is one degree (the result is a float) or a 1-D array of degrees.
    """
    idx = _checked_degree(i, "i")
    return gamma_ratio(idx + params.theta + 1.0, idx + 1.0) * params.beta ** (-(params.theta + 1.0))


def _require_finite_positive(values: np.ndarray, name: str, n: int) -> None:
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise RuntimeError(f"quadrature {name} for N={n} are not finite and positive: "
                           f"the basis ladder leaves double range")


def gauss_rule(params: LaguerreParams, N) -> QuadratureRule:
    """(N+1)-point Gauss rule for the weight x^theta exp(-beta x).

    Nodes are the zeros of the degree-(N+1) basis polynomial, computed as
    eigenvalues of the symmetric tridiagonal recurrence matrix and polished
    by two Newton sweeps. Weights come from the inverse Christoffel sums
    w_j = 1 / sum_i p_i(x_j)^2 over the orthonormal ladder
    p_i = L_i / sqrt(gamma_i); unlike squared first-eigenvector components
    these keep full relative accuracy in the tiny far-node weights.
    """
    n = _checked_degree(N, "N")
    theta, beta = params.theta, params.beta
    k = np.arange(n + 1, dtype=float)
    diag = (2.0 * k + theta + 1.0) / beta
    off = np.sqrt(k[1:] * (k[1:] + theta)) / beta
    try:
        nodes = _linalg.eigvalsh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"tridiagonal eigenvalue solve failed for N={n}: {exc}") from exc
    shifted = LaguerreParams(theta + 1.0, beta)
    # from N ~ 190 the ladder leaves double range at the far nodes; the
    # checks turn that into a RuntimeError instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(2):
            residual = eval_basis(params, n + 1, nodes)[n + 1]
            slope = -beta * eval_basis(shifted, n, nodes)[n]
            nodes = nodes - residual / slope
            _require_finite_positive(nodes, "nodes", n)
        nodes = np.sort(nodes)
        scale = 1.0 / np.sqrt(norm(params, np.arange(n + 1)))
        ortho = eval_basis(params, n, nodes) * scale[:, None]
        weights = 1.0 / np.sum(ortho * ortho, axis=0)
    _require_finite_positive(weights, "weights", n)
    mu0 = norm(params, 0)
    total = float(np.sum(weights))
    if not np.isfinite(total) or abs(total - mu0) > 1e-12 * mu0:
        raise RuntimeError(
            f"quadrature rule failed the zeroth moment check for N={n}: "
            f"sum of weights {total!r}, expected {mu0!r}")
    return QuadratureRule(params=params, nodes=nodes, weights=weights)


def interpolate(rule: QuadratureRule, samples) -> InterpolantCoeffs:
    """Spectral coefficients of the interpolant through (rule.nodes, samples).

    Discrete transform: l_i = (1/gamma_i) sum_j samples[j] L_i(x_j) w_j.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1 or vals.size != rule.nodes.size:
        raise ValueError(f"expected {rule.nodes.size} samples, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("samples must be finite")
    n = rule.nodes.size - 1
    basis = eval_basis(rule.params, n, rule.nodes)
    coeffs = basis @ (vals * rule.weights) / norm(rule.params, np.arange(n + 1))
    return InterpolantCoeffs(params=rule.params, coeffs=coeffs)


def eval_interpolant(coeffs: InterpolantCoeffs, x):
    """Sum_i l_i L_i(x) by forward recurrence; scalar or 1-D array x."""
    xs, scalar = _as_points(x)
    lc = coeffs.coeffs
    theta, beta = coeffs.params.theta, coeffs.params.beta
    prev = np.ones_like(xs)
    acc = lc[0] * prev
    if lc.size > 1:
        cur = theta + 1.0 - beta * xs
        acc = acc + lc[1] * cur
        for i in range(1, lc.size - 1):
            prev, cur = cur, ((2.0 * i + theta + 1.0 - beta * xs) * cur
                              - (i + theta) * prev) / (i + 1.0)
            acc += lc[i + 1] * cur
    return float(acc[0]) if scalar else acc
