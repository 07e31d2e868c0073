"""Gamma-family special functions used throughout the package.

Everything here is pure, accepts scalars or ndarrays and needs only numpy
and the standard library: gamma and log-gamma values come from ``math.gamma``
and ``math.lgamma`` per element. :func:`gamma_ratio` forms a ratio of gamma
values in log space, so that large arguments never overflow double precision.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DomainError", "log_gamma", "gamma_ratio"]


class DomainError(ValueError):
    """A mathematical function was evaluated outside its domain."""


def _saturating(func, value: float) -> float:
    try:
        return func(value)
    except OverflowError:
        return math.copysign(math.inf, value)
    except ValueError:  # a pole of math.gamma
        return math.nan


def _elementwise(func, values: np.ndarray) -> np.ndarray:
    """func at every element of a float array, keeping its shape.

    Where func overflows (``math.gamma`` above 171.62 or at subnormal
    arguments, ``math.lgamma`` above about 2.55e305) the value is the
    infinity of the argument's sign; at a pole it is nan.
    """
    flat = values.ravel()
    if flat.size > 1 and (flat == flat[0]).all():
        # a constant order, or gamma(4) in an expression, fills whole grids
        return np.full(values.shape, _saturating(func, float(flat[0])))
    try:
        out = np.fromiter(map(func, flat.tolist()), float, flat.size)
    except (OverflowError, ValueError):
        out = np.array([_saturating(func, v) for v in flat.tolist()], dtype=float)
    return out.reshape(values.shape)


def _gamma(values: np.ndarray) -> np.ndarray:
    """Gamma at every element of a float array: signed infinity on overflow,
    nan at a pole (0, -1, -2, ... and -inf)."""
    return _elementwise(math.gamma, values)


def log_gamma(x):
    """Natural logarithm of Gamma(x) for x > 0.

    Accuracy is at machine level in the normalized sense
    |error| / max(1, |ln Gamma|). A pure relative bound is impossible in a
    tiny neighbourhood of the zeros of ln Gamma at x = 1 and x = 2, where
    the value itself crosses zero. Subnormal x gives its finite value
    (ln Gamma(1e-320) = 736.83); the value overflows to inf above about
    2.55e305.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"log_gamma requires finite input, got {x!r}")
    if not (arr > 0.0).all():
        raise DomainError(f"log_gamma requires values > 0.0, got {x!r}")
    out = _elementwise(math.lgamma, arr)
    return float(out) if np.ndim(x) == 0 else out


def gamma_ratio(a, b):
    """Gamma(a) / Gamma(b) for a, b > 0, formed in log space.

    Safe for arguments up to about 1e6 where either gamma value alone would
    overflow by thousands of orders of magnitude. A ratio beyond double range
    is inf, without a warning.
    """
    with np.errstate(over="ignore"):
        out = np.exp(log_gamma(a) - log_gamma(b))
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out
