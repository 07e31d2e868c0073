"""Variable-order fractional integrals and Caputo derivatives of expansions.

The workhorse is a ladder of fractionally integrated basis polynomials,
computed by a three-term recurrence in the degree with the order frozen at
the evaluation point. Caputo derivative ladders reuse the integral ladders
with the family parameter shifted by the integer part of the order, and
the order-0 ladder of a shifted family gives integer derivatives. Closed
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
from .special import DomainError, gamma_ratio, log_gamma

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

# at x = 0 an order may lie less than this below n - 1 (4 ulps of max(n - 1, 1))
_ORIGIN_SLACK = 4.0 * np.finfo(float).eps

# a Python float, since scalar loops compare against it at every step
_EPS = float(np.finfo(float).eps)
# caputo_of_sin sums the power series up to here, the continued fraction beyond
_SERIES_MAX_X = 3.0
# for every order, the expansions of caputo_exp_exact converge within about 100
# steps and those of caputo_of_sin within 62; a point still moving after this
# many is a numerical failure, not a value
_MAX_STEPS = 200


class OrderFunction(Record):
    """A variable fractional order x -> rho(x) and its unit window (n - 1, n).

    n, an int >= 1, is the integer ceiling the derivative formulas use: a
    Caputo derivative checks n - 1 < rho(x) < n at every point where it
    evaluates the order (rho(0) = n - 1 is also accepted at the origin), and
    an integral checks rho(x) > 0 there. One order keeps one window because
    the frozen-order derivative jumps where rho crosses an integer: for exp
    at rho = 1 it is e^x from below and e^x - 1 from above. constant and
    from_callable read n from a value of the order.

    The callable stored in ``eval`` takes a 1-D float array of points and
    returns the orders there as an array of the same shape; a scalar return
    (as from ``lambda x: 1.5``) is broadcast. Write it with numpy functions
    (``np.sin``, ``np.where``): a scalar-only callable such as ``math.sin``
    fails. It must be pure and thread safe.
    """

    __slots__ = ("eval", "n")

    def __init__(self, eval: Callable[[np.ndarray], np.ndarray], n: int):
        if not callable(eval):
            raise ValueError("eval must be callable")
        self._fill(eval, _checked_int(n, "n", 1))

    @classmethod
    def constant(cls, value) -> "OrderFunction":
        """Constant order; the ceiling is floor(value) + 1."""
        v = float(value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"constant order must be positive and finite, got {value!r}")
        return cls(eval=lambda _x, _v=v: _v, n=math.floor(v) + 1)

    @classmethod
    def from_callable(cls, func, domain_length) -> "OrderFunction":
        """func with the window of its value at domain_length: n = floor(rho(L)) + 1.

        func is called once, at the one point L. A non-finite value there
        raises DomainError, and a value <= 0 ValueError. The window is not
        checked here: every derivative checks it where it evaluates the order.
        """
        length = _checked_length(domain_length, "domain_length")
        rho = float(_sample(func, np.array([length]), "order function")[0])
        if rho <= 0.0:
            raise ValueError(f"order function must be positive, got {rho} at x={length}")
        return cls(eval=func, n=math.floor(rho) + 1)


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
    finite = np.isfinite(values)
    if not finite.all():
        j = np.flatnonzero(~finite)[0]
        raise DomainError(f"{name} returned non-finite value {values[j]} at x={points[j]}")
    return values


def _order_values(order: OrderFunction, points: np.ndarray) -> np.ndarray:
    """The order's values at points, or DomainError naming one outside its window."""
    rho = _sample(order.eval, points, "order function")
    n = order.n
    if not ((n - 1 < rho) & (rho < n)).all():
        # rho(0) = n - 1, up to rounding, is harmless: every derivative ladder
        # entry carries x^(n - rho) and vanishes at x = 0
        lower = np.where(points == 0.0, n - 1 - _ORIGIN_SLACK * max(n - 1, 1), n - 1)
        bad = np.flatnonzero(~((lower < rho) & (rho < n)))
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
        # x^rho / Gamma(rho + 1), with 0^0 = 1: a rho = 0 column is the basis at x = 0 too
        head = np.where(pos | (rho == 0.0), np.exp(rho * log_x - log_gamma(rho1)), 0.0)
        out[0] = head
        if max_degree >= 1:
            # x^(rho+1) / Gamma(rho+2) = head * x / (rho+1)
            out[1] = (theta + 1.0) * head - beta * (head * x / rho1)
        correction = head * rho  # x^rho / Gamma(rho)
        # per degree i (rows) and family: i + theta, 2i + theta + 1 and
        # L_i(0) - L_(i+1)(0), which collapses to -theta L_i(0) / (i + 1) with
        # no cancellation; L_(i+1)(0) = L_i(0) (i + theta + 1) / (i + 1)
        # multiplies in degree order
        degree = np.arange(float(max_degree))
        if np.ndim(theta):
            degree = degree[:, None]
        family, lead = degree + theta, 2.0 * degree + theta + 1.0
        drop = -theta * np.cumprod((family + 1.0) / (degree + 1.0), axis=0) / (degree + 2.0)
        # (2i + theta + 1 + rho) - beta x as eval_basis rounds it where rho = 0
        base, scratch = rho - beta * x, np.empty(x.size)
        steps = zip(out, out[1:], out[2:], family[1:], lead[1:], drop)
        for i, (prev, cur, row, family_i, lead_i, drop_i) in enumerate(steps, start=1):
            np.multiply(np.add(base, lead_i, out=scratch), cur, out=scratch)
            np.subtract(scratch, np.multiply(prev, family_i, out=row), out=scratch)
            np.subtract(scratch, np.multiply(correction, drop_i, out=row), out=scratch)
            np.divide(scratch, np.add(rho1, i, out=row), out=row)
    return out


def _checked_range(rows: np.ndarray, x: np.ndarray, ladder="fractional") -> np.ndarray:
    """rows, a _frac_ladder from degree 0 at the points x, or DomainError naming an x.

    A non-finite entry makes every later degree non-finite, so the last row
    tells where a column leaves double range (x = 1e300, say). ladder names
    the ladder in the message.
    """
    finite = np.isfinite(rows[-1])
    if not finite.all():
        j = np.flatnonzero(~finite)[0]
        raise DomainError(f"{ladder} ladder leaves double range at x={x[j]}")
    return rows


def frac_integral_basis(params: LaguerreParams, order: OrderFunction, max_degree,
                        x) -> np.ndarray:
    """Fractional integrals of the basis ladder at x, order frozen at rho(x).

    x is a scalar (the result is the row of max_degree + 1 values) or a 1-D
    array of points (a matrix with one column per point). Any positive order
    value is admissible here, and 0 at x = 0, where the value is the basis
    itself (the limit x -> 0+); the (n-1, n) window only constrains
    derivatives. The degree-0 value is x^rho / Gamma(rho + 1); the degree-1
    value is (theta + 1) x^rho / Gamma(rho + 1) - beta x^(rho + 1) / Gamma(rho + 2).
    """
    deg = _checked_degree(max_degree, "max_degree")
    pts, scalar = _as_points(x)
    rho = _sample(order.eval, pts, "order function")
    if not (rho > 0.0).all():
        bad = np.flatnonzero((rho < 0.0) | ((rho == 0.0) & (pts != 0.0)))
        if bad.size:
            j = bad[0]
            raise DomainError(f"integral order must be positive, got {rho[j]} at x={pts[j]}")
    rows = _checked_range(_frac_ladder(params, rho, deg, pts), pts)
    return rows[:, 0] if scalar else rows


def vo_integral(coeffs: InterpolantCoeffs, order: OrderFunction, x):
    """Variable-order fractional integral of the expansion at x.

    x is a scalar (the result is a float) or a 1-D array of points. A sum
    past double range is non-finite, without a warning, as in eval_interpolant.
    """
    rows = frac_integral_basis(coeffs.params, order, coeffs.coeffs.size - 1, x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = coeffs.coeffs @ rows
    return float(values) if np.ndim(values) == 0 else values


def _ladder_orders(order, points: np.ndarray):
    """The family shift s and the ladder orders at points of a derivative order.

    An int q >= 0 is the ordinary q-th derivative, the order-0 ladder of the
    family theta + q: (q, 0). An OrderFunction is the Caputo derivative, the
    order n - rho(x) ladder of the family theta + n: (n, n - rho), with rho
    checked pointwise against its window. Either way, the derivative rows
    from degree s on are the ladder scaled by (-beta)^s.
    """
    if isinstance(order, OrderFunction):
        return order.n, order.n - _order_values(order, points)
    return _checked_degree(order, "order"), np.zeros(points.size)


def _ladder_name(order) -> str:
    return "fractional" if isinstance(order, OrderFunction) else "derivative"


def caputo_row(params: LaguerreParams, order, max_degree, x) -> np.ndarray:
    """Derivatives of the basis ladder at x, of an int order or of an order frozen at rho(x).

    order is an int q >= 0, the ordinary q-th derivative
    d^q/dx^q L_i^(theta,beta) = (-beta)^q L_(i-q)^(theta+q,beta), or an
    OrderFunction, the Caputo derivative. x is a scalar (the result is the
    row of max_degree + 1 values) or a 1-D array of points (a matrix with
    one column per point). Entries below degree s (q, or the order's n)
    vanish identically; the rows from s on are the _frac_ladder of
    _ladder_orders scaled by (-beta)^s.
    """
    deg = _checked_degree(max_degree, "max_degree")
    pts, scalar = _as_points(x)
    shift, nu = _ladder_orders(order, pts)
    rows = np.zeros((deg + 1, pts.size))
    if deg >= shift:
        ladder = _frac_ladder(params, nu, deg - shift, pts, shift=shift)
        np.multiply(_checked_range(ladder, pts, _ladder_name(order)),
                    (-params.beta) ** shift, out=rows[shift:])
    return rows[:, 0] if scalar else rows


def vo_derivative(coeffs: InterpolantCoeffs, order, x):
    """Derivative of the expansion at x, of an int order or an OrderFunction.

    The order is read as caputo_row reads it. x is a scalar (the result is a
    float) or a 1-D array of points. The coefficients from degree s on
    contract the unscaled ladder of caputo_row before (-beta)^s scales the
    sum; a sum past double range is non-finite, without a warning.
    """
    pts, scalar = _as_points(x)
    params, deg = coeffs.params, coeffs.coeffs.size - 1
    shift, nu = _ladder_orders(order, pts)
    values = np.zeros(pts.size)
    if deg >= shift:
        ladder = _checked_range(_frac_ladder(params, nu, deg - shift, pts, shift=shift), pts,
                                _ladder_name(order))
        with np.errstate(over="ignore", invalid="ignore"):
            values = (-params.beta) ** shift * (coeffs.coeffs[shift:] @ ladder)
    return float(values[0]) if scalar else values


def caputo_power_rule(gamma_exp, order: OrderFunction, x):
    """Caputo derivative of x^gamma_exp at x > 0, a scalar or a 1-D array.

    With n the order's ceiling, integer powers up to n - 1 are annihilated;
    powers above n - 1 map to
    gamma_ratio(gamma_exp + 1, gamma_exp + 1 - rho(x)) * x^(gamma_exp - rho(x)).
    A non-integer power below n - 1 has no Caputo derivative (its n-th
    derivative is not integrable at 0) and raises DomainError. The order is
    checked as every derivative checks it. A value beyond double range is
    inf, without a warning.
    """
    exponent = float(gamma_exp)
    if not np.isfinite(exponent) or exponent < 0.0:
        raise ValueError(f"gamma_exp must be nonnegative, got {gamma_exp!r}")
    pts, scalar = _as_points(x)
    if not pts.all():  # the points are nonnegative, so this finds x = 0
        raise DomainError(f"x must be positive, got {pts[np.flatnonzero(pts == 0.0)[0]]}")
    n, rho = order.n, _order_values(order, pts)
    if exponent <= n - 1:
        if exponent != int(exponent):
            raise DomainError(f"x^{exponent:g} has no Caputo derivative at orders inside "
                              f"({n - 1}, {n}): its derivative of order "
                              f"{n} is not integrable at 0")
        out = np.zeros(pts.size)
    else:
        with np.errstate(over="ignore"):
            out = gamma_ratio(exponent + 1.0, exponent + 1.0 - rho) * pts ** (exponent - rho)
    return float(out[0]) if scalar else out


def _positive_series(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k x^k / (nu + 1)_k for x > 0, every point until every term is negligible.

    The terms are positive, and one below eps / 4 of its sum (half an ulp)
    is past the peak of the terms; neither it nor any later one changes the
    sum. So running all points until the slowest converges gives each point
    the bits it gets alone, with no per-point masks.
    """
    term = np.ones(x.size)
    total = np.ones(x.size)
    for k in range(1, _MAX_STEPS + 1):
        term *= x
        term /= nu + k
        total += term
        # the extra steps cost less than testing at every step
        if k % 4 == 0 and not (term > 0.25 * _EPS * total).any():
            return total
    moving = term > 0.25 * _EPS * total
    raise RuntimeError(f"caputo_exp_exact: no convergence in {_MAX_STEPS} "
                       f"steps at x={x[np.argmax(moving)]}")


def _legendre_fraction(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Legendre's continued fraction K = e^x x^(-nu) Gamma(nu, x) for x > 0, by modified Lentz.

    K = 1 / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))) with a_k = -k (k - nu) and
    b_k = x + 2k + 1 - nu. A point leaves the arrays at the step where it
    converges, with its value of that step, so the result at a point does
    not depend on the others. A point still moving after the step cap
    raises RuntimeError naming its x.
    """
    out = np.empty(x.size)
    live = np.arange(x.size)
    b = x + (1.0 - nu)
    # c starts at infinity in effect, so that the first step sets c = b
    c = np.full(x.size, 1e300)
    d = h = 1.0 / b
    for k in range(1, _MAX_STEPS + 1):
        a = k * (nu - k)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) <= _EPS
        if np.count_nonzero(done):  # cheaper than done.any() on short arrays
            out[live[done]] = h[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                return out
            nu, b, c, d, h = nu[keep], b[keep], c[keep], d[keep], h[keep]
    raise RuntimeError(f"caputo_exp_exact: no convergence in {_MAX_STEPS} "
                       f"steps at x={x[live[0]]}")


def caputo_exp_exact(order: OrderFunction, x):
    """Caputo derivative of exp at x, scalar or 1-D array.

    D^rho e^x = x^nu sum_k x^k / Gamma(nu + k + 1) with nu = n - rho(x) in
    (0, 1], that is e^x P(nu, x) with P the regularized lower incomplete
    gamma function (Temme, *Special Functions*, 1996, ch. 11). In float64:

    * 0 < x < nu + 1: the power series, x^nu / Gamma(nu + 1) * sum_k x^k / (nu + 1)_k;
    * x >= nu + 1: e^x - x^nu / Gamma(nu) * K with K Legendre's continued
      fraction for e^x x^(-nu) Gamma(nu, x), evaluated by modified Lentz.

    Each point converges on its own, so an array gives the same bits as its
    points one at a time. Against 40-digit mpmath the error is at most about
    1.5e-15 * max(1, |value|) for x up to 700 (the tests allow 2.6e-15). The
    series converges within 24 steps and the continued fraction within about
    100, slowest just above the switch at small nu; a point that does not
    converge within _MAX_STEPS (200) raises RuntimeError naming x. The value
    is zero at x = 0; past x ~ 709.78 it leaves double range and is inf,
    without a warning.
    """
    pts, scalar = _as_points(x)
    nu = order.n - _order_values(order, pts)
    out = np.zeros(pts.size)
    near = (pts > 0.0) & (pts < nu + 1.0)
    if near.any():
        v, p = nu[near], pts[near]
        out[near] = np.exp(v * np.log(p) - log_gamma(v + 1.0)) * _positive_series(v, p)
    far = pts >= nu + 1.0
    if far.any():
        v, p = nu[far], pts[far]
        tail = np.exp(v * np.log(p) - log_gamma(v)) * _legendre_fraction(v, p)
        with np.errstate(over="ignore"):
            out[far] = np.exp(p) - tail
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
