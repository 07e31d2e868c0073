"""Variable-order fractional integrals and Caputo derivatives of expansions.

The workhorse is a ladder of fractionally integrated basis polynomials,
computed by a three-term recurrence in the degree with the order frozen at
the evaluation point. Caputo derivative ladders reuse the integral ladders
with the family parameter shifted by the integer part of the order. Closed
forms for powers, the exponential and the sine provide independent
references and exact forcing terms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import Record
from .laguerre import (
    InterpolantCoeffs,
    LaguerreParams,
    _as_points,
    _checked_degree,
    _checked_int,
    _checked_length,
)
from .special import (
    _EPS,
    DomainError,
    gamma_ratio,
    log_gamma,
    reg_lower_incomplete_gamma,
)

__all__ = [
    "OrderFunction",
    "frac_integral_basis",
    "vo_integral",
    "caputo_row",
    "vo_derivative",
    "caputo_power_rule",
    "caputo_exp_exact",
    "caputo_of_sin",
]

# margin for the strict bound checks n-1 < rho_min <= rho_max < n
_WINDOW_MARGIN = 1e-12
# OrderFunction.from_callable certifies bounds from this many points of (0, L]
_ORDER_SAMPLES = 2049
# at x = 0 an order may lie less than this below n - 1 (4 ulps of max(n - 1, 1))
_ORIGIN_SLACK = 4.0 * np.finfo(float).eps

# caputo_of_sin sums the power series up to here, the continued fraction beyond
_SERIES_MAX_X = 3.0
# both expansions converge in fewer than 80 steps for every order; a point
# still moving after this many is a numerical failure, not a value
_MAX_STEPS = 200


class OrderFunction(Record):
    """A variable fractional order x -> rho(x) with certified bounds.

    rho_min and rho_max bound the values on the intended working range. The
    integer ceiling n = floor(rho_min) + 1 used by the derivative formulas
    follows from rho_min; they require n - 1 < rho(x) < n pointwise
    (rho(0) = n - 1 is also accepted at the origin). The bounds gate
    derivative usage up front; every evaluation is additionally checked
    pointwise, so bounds certified by sampling are safe to use.

    The callable stored in ``eval`` takes a 1-D float array of points and
    returns the orders there as an array of the same shape; a scalar return
    (as from ``lambda x: 1.5``) is broadcast. Write it with numpy functions
    (``np.sin``, ``np.where``): a scalar-only callable such as ``math.sin``
    fails. It must be pure and thread safe.
    """

    __slots__ = ("eval", "rho_min", "rho_max")

    def __init__(self, eval: Callable[[np.ndarray], np.ndarray], rho_min: float,
                 rho_max: float):
        if not callable(eval):
            raise ValueError("eval must be callable")
        rho_min = float(rho_min)
        rho_max = float(rho_max)
        if not (math.isfinite(rho_min) and math.isfinite(rho_max)):
            raise ValueError("order bounds must be finite")
        if rho_min <= 0.0:
            raise ValueError(f"order values must be positive, got rho_min={rho_min}")
        if rho_min > rho_max:
            raise ValueError(f"rho_min={rho_min} exceeds rho_max={rho_max}")
        self._fill(eval, rho_min, rho_max)

    @property
    def n(self) -> int:
        """The integer ceiling: floor(rho_min) + 1."""
        return math.floor(self.rho_min) + 1

    @classmethod
    def constant(cls, value) -> "OrderFunction":
        """Constant order; the ceiling is floor(value) + 1."""
        v = float(value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"constant order must be positive and finite, got {value!r}")
        return cls(eval=lambda _x, _v=v: _v, rho_min=v, rho_max=v)

    @classmethod
    def from_callable(cls, func, domain_length) -> "OrderFunction":
        """Certify bounds for func by dense sampling of (0, domain_length].

        Zero itself is excluded from the sample so orders that touch an
        integer only at the origin (where fractional ladders vanish anyway)
        remain usable; pointwise checks still guard every later evaluation.
        """
        length = _checked_length(domain_length, "domain_length")
        xs = np.linspace(0.0, length, _ORDER_SAMPLES + 1)[1:]
        vals = _sample(func, xs, "order function")
        rho_min = float(vals.min())
        rho_max = float(vals.max())
        if rho_min <= 0.0:
            raise ValueError(f"order function must stay positive, sampled minimum {rho_min}")
        return cls(eval=func, rho_min=rho_min, rho_max=rho_max)


def _require_derivative_window(order: OrderFunction) -> None:
    n = order.n
    if n not in (1, 2):
        raise DomainError(
            f"derivative formulas support orders inside (0, 1) or (1, 2), got n={n}")
    if not (order.rho_min > n - 1 + _WINDOW_MARGIN and order.rho_max < n - _WINDOW_MARGIN):
        raise DomainError(
            f"order bounds [{order.rho_min}, {order.rho_max}] must lie strictly "
            f"inside ({n - 1}, {n})")


def _sample(func, points: np.ndarray, name: str) -> np.ndarray:
    """Values of func at every point of the 1-D array points, from one call.

    func takes the array and returns an array of its shape; a scalar return
    is broadcast, any other shape raises ValueError. A non-finite value is a
    numerical failure: it raises DomainError naming the first such point, so
    numpy's overflow and invalid-value warnings inside func (an ``np.where``
    evaluates both branches) are silenced.
    """
    with np.errstate(all="ignore"):
        values = np.asarray(func(points), dtype=float)
    if values.ndim == 0:
        values = np.full(points.shape, float(values))
    elif values.shape != points.shape:
        raise ValueError(f"{name} returned shape {values.shape} "
                         f"for points of shape {points.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = bad[0]
        raise DomainError(f"{name} returned non-finite value {values[j]} at x={points[j]}")
    return values


def _order_values(order: OrderFunction, points: np.ndarray) -> np.ndarray:
    _require_derivative_window(order)
    # rho(0) = n - 1, up to rounding, is harmless: every derivative ladder entry
    # carries x^(n - rho) and vanishes at x = 0
    rho = _sample(order.eval, points, "order function")
    n = order.n
    lower = np.where(points == 0.0, n - 1 - _ORIGIN_SLACK * max(n - 1, 1), n - 1)
    inside = (lower < rho) & (rho < n)
    bad = np.flatnonzero(~inside)
    if bad.size:
        j = bad[0]
        raise DomainError(
            f"order value {rho[j]} at x={points[j]} lies outside ({n - 1}, {n})")
    return rho


def _frac_ladder(params: LaguerreParams, rho: np.ndarray, max_degree: int,
                 x: np.ndarray, shift=0.0) -> np.ndarray:
    """Order-rho fractional integrals of the basis ladder, one column per point.

    rho and x are matching 1-D arrays. The ladder is that of the family
    (params.theta + shift, params.beta), with shift one number or an array
    matching x, so the order and the family may differ per point; a column
    with rho = 0 is the basis ladder itself. The degree recurrence is
    the basis recurrence plus a boundary correction proportional to
    x^rho / Gamma(rho); with its point-wise parts and its per-degree family
    factors formed once, a step is 8 ufunc calls into its row and a scratch
    row. Every entry with rho > 0 carries x^rho, so those vanish at x = 0.
    Entries past double range are left non-finite and unwarned; see
    _checked_range.
    """
    theta, beta = params.theta + shift, params.beta
    out = np.empty((max_degree + 1, x.size))
    with np.errstate(all="ignore"):
        pos = x > 0.0
        log_x = np.log(np.where(pos, x, 1.0))
        rho1 = rho + 1.0
        head = np.where(pos, np.exp(rho * log_x - log_gamma(rho1)), 0.0)
        out[0] = head
        if max_degree >= 1:
            # x^(rho+1) / Gamma(rho+2) = head * x / (rho+1)
            out[1] = (theta + 1.0) * head - beta * (head * x / rho1)
        correction = head * rho  # x^rho / Gamma(rho)
        # per degree i (rows) and family: i + theta, and L_i(0) - L_(i+1)(0),
        # which collapses to -theta L_i(0) / (i + 1) with no cancellation;
        # L_(i+1)(0) = L_i(0) (i + theta + 1) / (i + 1) multiplies in degree order
        degree = np.arange(float(max_degree))
        if np.ndim(theta):
            degree = degree[:, None]
        family = degree + theta
        drop = -theta * np.cumprod((family + 1.0) / (degree + 1.0), axis=0) / (degree + 2.0)
        base, scratch = (theta + 1.0 + rho) - beta * x, np.empty(x.size)
        steps = zip(out, out[1:], out[2:], family[1:], drop)
        for i, (prev, cur, row, family_i, drop_i) in enumerate(steps, start=1):
            np.multiply(np.add(base, 2.0 * i, out=scratch), cur, out=scratch)
            np.subtract(scratch, np.multiply(prev, family_i, out=row), out=scratch)
            np.subtract(scratch, np.multiply(correction, drop_i, out=row), out=scratch)
            np.divide(scratch, np.add(rho1, i, out=row), out=row)
    return out


def _checked_range(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rows, a _frac_ladder from degree 0 at the points x, or DomainError naming an x.

    A non-finite entry makes every later degree non-finite, so the last row
    tells where a column leaves double range (x = 1e300, say).
    """
    bad = np.flatnonzero(~np.isfinite(rows[-1]))
    if bad.size:
        raise DomainError(f"fractional ladder leaves double range at x={x[bad[0]]}")
    return rows


def frac_integral_basis(params: LaguerreParams, order: OrderFunction, max_degree,
                        x) -> np.ndarray:
    """Fractional integrals of the basis ladder at x, order frozen at rho(x).

    x is a scalar (the result is the row of max_degree + 1 values) or a 1-D
    array of points (a matrix with one column per point). Any positive order
    value is admissible here; the (n-1, n) window only constrains
    derivatives. The degree-0 value is x^rho / Gamma(rho + 1); the degree-1
    value is (theta + 1) x^rho / Gamma(rho + 1) - beta x^(rho + 1) / Gamma(rho + 2).
    """
    deg = _checked_degree(max_degree, "max_degree")
    pts, scalar = _as_points(x)
    rho = _sample(order.eval, pts, "order function")
    bad = np.flatnonzero(rho <= 0.0)
    if bad.size:
        j = bad[0]
        raise DomainError(f"integral order must be positive, got {rho[j]} at x={pts[j]}")
    rows = _checked_range(_frac_ladder(params, rho, deg, pts), pts)
    return rows[:, 0] if scalar else rows


def vo_integral(coeffs: InterpolantCoeffs, order: OrderFunction, x):
    """Variable-order fractional integral of the expansion at x.

    x is a scalar (the result is a float) or a 1-D array of points.
    """
    values = coeffs.coeffs @ frac_integral_basis(coeffs.params, order, coeffs.coeffs.size - 1, x)
    return float(values) if np.ndim(values) == 0 else values


def _caputo_ladder(params: LaguerreParams, order: OrderFunction, deg: int, pts: np.ndarray):
    """(-beta)^n and the unscaled caputo_row rows n..deg at pts; None if deg < n."""
    n, rho = order.n, _order_values(order, pts)
    scale = (-params.beta) ** n
    if deg < n:
        return scale, None
    return scale, _checked_range(_frac_ladder(params, n - rho, deg - n, pts, shift=n), pts)


def caputo_row(params: LaguerreParams, order: OrderFunction, max_degree, x) -> np.ndarray:
    """Caputo derivative values of the basis ladder at x, order frozen at rho(x).

    x is a scalar (the result is the row of max_degree + 1 values) or a 1-D
    array of points (a matrix with one column per point). Entries below
    degree n vanish identically: those polynomials are annihilated by the
    inner integer derivative; the rows from n on are _caputo_ladder scaled.
    """
    deg = _checked_degree(max_degree, "max_degree")
    pts, scalar = _as_points(x)
    scale, ladder = _caputo_ladder(params, order, deg, pts)
    rows = np.zeros((deg + 1, pts.size))
    if ladder is not None:
        np.multiply(ladder, scale, out=rows[order.n:])
    return rows[:, 0] if scalar else rows


def vo_derivative(coeffs: InterpolantCoeffs, order: OrderFunction, x):
    """Variable-order Caputo derivative of the expansion at x.

    x is a scalar (the result is a float) or a 1-D array of points. The
    coefficients contract _caputo_ladder before (-beta)^n scales the sum.
    """
    pts, scalar = _as_points(x)
    scale, ladder = _caputo_ladder(coeffs.params, order, coeffs.coeffs.size - 1, pts)
    values = np.zeros(pts.size) if ladder is None else scale * (coeffs.coeffs[order.n:] @ ladder)
    return float(values[0]) if scalar else values


def caputo_power_rule(gamma_exp, order_value, n, x):
    """Caputo derivative of x^gamma_exp at orders inside (n-1, n).

    Powers up to n - 1 are annihilated; larger (real) powers map to
    gamma_ratio(gamma_exp + 1, gamma_exp + 1 - order) * x^(gamma_exp - order).
    order_value and x may be scalars or matching 1-D arrays; the result is
    a float when both are scalars. A value beyond double range is inf,
    without a warning.
    """
    ceiling = _checked_int(n, "n", 1)
    rho = np.asarray(order_value, dtype=float)
    outside = np.flatnonzero(~((ceiling - 1 < rho) & (rho < ceiling)))
    if outside.size:
        raise DomainError(f"order {rho.flat[outside[0]]} must lie strictly inside "
                          f"({ceiling - 1}, {ceiling})")
    exponent = float(gamma_exp)
    if not np.isfinite(exponent) or exponent < 0.0:
        raise ValueError(f"gamma_exp must be nonnegative, got {gamma_exp!r}")
    point = np.asarray(x, dtype=float)
    nonpositive = np.flatnonzero(~(np.isfinite(point) & (point > 0.0)))
    if nonpositive.size:
        raise DomainError(f"x must be positive, got {point.flat[nonpositive[0]]}")
    if exponent <= ceiling - 1:
        out = np.zeros(np.broadcast(rho, point).shape)
    else:
        with np.errstate(over="ignore"):
            out = gamma_ratio(exponent + 1.0, exponent + 1.0 - rho) * point ** (exponent - rho)
    return float(out) if np.ndim(out) == 0 else out


def caputo_exp_exact(order: OrderFunction, x):
    """Closed form for the Caputo derivative of exp at x, scalar or 1-D array.

    Equals exp(x) * P(n - rho(x), x) with P the regularized lower incomplete
    gamma function; zero at x = 0. Past x ~ 709.78 the value leaves double
    range and is inf, without a warning.
    """
    pts, scalar = _as_points(x)
    rho = _order_values(order, pts)
    with np.errstate(over="ignore"):
        out = np.exp(pts) * reg_lower_incomplete_gamma(order.n - rho, pts)
    return float(out[0]) if scalar else out


def _sin_at(x: float, rho: float, n: int) -> float:
    """D^rho sin x at one point x >= 0, in float and complex arithmetic.

    The expansions of caputo_of_sin, stopped at this point's own eps;
    Im[i^n w] is taken as (1j ** n * w).imag, exact since i^n is 1, i, -1 or -i.
    """
    if x == 0.0:
        return 0.0
    nu = n - rho
    if x <= _SERIES_MAX_X:
        z = 1j * x
        term = total = 1.0 + 0.0j
        for k in range(1, _MAX_STEPS + 1):
            term = term * z / (nu + k)
            total += term
            if abs(term) <= _EPS * abs(total):
                return x ** nu / math.gamma(nu + 1.0) * (1j ** n * total).imag
    else:
        # modified Lentz on K = 1 / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))),
        # a_k = -k (k - nu), b_k = ix + 2k + 1 - nu; c starts at infinity in
        # effect, so that the first step sets c = b
        b = complex(1.0 - nu, x)
        c = 1e300
        d = fraction = 1.0 / b
        for k in range(1, _MAX_STEPS + 1):
            a = k * (nu - k)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            delta = c * d
            fraction *= delta
            if abs(delta - 1.0) <= _EPS:
                half = 0.5 * math.pi * rho
                # sin(x + pi rho / 2) expanded: rounding the sum first costs digits at large x
                return (math.sin(x) * math.cos(half) + math.cos(x) * math.sin(half)
                        - x ** nu / math.gamma(nu) * (1j ** n * fraction).imag)
    raise RuntimeError(f"caputo_of_sin: no convergence in {_MAX_STEPS} steps at x={x}")


def caputo_of_sin(order: OrderFunction, x):
    """Caputo derivative of sin at x, scalar or 1-D array.

    The closed form for exp(a x) at a = i gives
    D^rho sin x = Im[i^rho e^(ix) P(nu, ix)] with nu = n - rho in (0, 1] and
    P the regularized lower incomplete gamma function. In float64:

    * 0 < x <= 3: the power series of P,
      x^nu / Gamma(nu + 1) * Im[i^n sum_k (ix)^k / (nu + 1)_k];
    * x > 3: Legendre's continued fraction K for e^z z^(-nu) Gamma(nu, z)
      at z = ix, evaluated by modified Lentz,
      sin x cos(pi rho / 2) + cos x sin(pi rho / 2) - x^nu / Gamma(nu) * Im[i^n K].

    The points are evaluated one at a time in Python float and complex
    arithmetic, each stopping at its own float64 eps, so an array gives the
    same bits as its points one at a time by construction. A point costs
    about 0.4 us per step: at most 28 series steps, and at most 62 Lentz
    steps just above x = 3, fewer further out. Against 40-digit mpmath
    the error is about 2e-15 * max(1, |value|) at worst for x up to 1000
    (the tests allow 4e-15). D^rho sin 0 = 0. A point that does not converge
    raises RuntimeError naming its x.
    """
    pts, scalar = _as_points(x)
    rho = _order_values(order, pts)
    out = np.array([_sin_at(p, r, order.n) for p, r in zip(pts.tolist(), rho.tolist())],
                   dtype=float)
    return float(out[0]) if scalar else out
