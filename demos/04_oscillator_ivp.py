"""Second-order-window oscillator with solution sin(x).

Solves  u'' + D^(3/2) u + u = f,  u(0) = 0, u'(0) = 1  on [0, 1]
where f = D^(3/2) sin from its closed form, so the exact solution is
sin(x). Shows spectral decay of the error as N grows and writes the
N=20 pointwise error to demo_output/oscillator_error.csv. Then the same
solution under a variable order in (1, 2), under a fractional damping
term D^(1/2) u in place of D^(3/2) u, and with both fractional terms.

Run from the repository root:

    python3 demos/04_oscillator_ivp.py
"""

import csv
import pathlib

import numpy as np

from lagfrac import (
    IvpSpec,
    LaguerreParams,
    OrderFunction,
    caputo_of_sin,
    eval_interpolant,
    max_abs_error,
    solve,
)

OUT_DIR = pathlib.Path("demo_output")


def main():
    OUT_DIR.mkdir(exist_ok=True)

    order = OrderFunction.constant(1.5)
    one = lambda x: 1.0
    params = LaguerreParams(3.0, 6.0)
    last = None
    print("N   max abs error on [0, 1]")
    for N in (5, 10, 15, 20):
        spec = IvpSpec(params=params, N=N,
                       terms=[(one, 2), (one, order), (one, 0)],
                       f=lambda x: caputo_of_sin(order, x),
                       initial=[0.0, 1.0])
        coeffs = solve(spec)
        error = max_abs_error(coeffs, np.sin, 1.0, 1001)
        print(f"{N:<3d} {error:.3e}")
        last = coeffs

    xs = np.linspace(0.0, 1.0, 1001)
    errors = np.abs(eval_interpolant(last, xs) - np.sin(xs))
    path = OUT_DIR / "oscillator_error.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "abs_error"])
        writer.writerows([float(x), float(e)] for x, e in zip(xs, errors))
    print("wrote", path)

    # a variable order inside the same (1, 2) window works unchanged
    variable = OrderFunction.from_callable(
        lambda x: (9.0 + np.sin(x - 10.0)) / 5.0, 1.0)
    spec = IvpSpec(params=params, N=20,
                   terms=[(one, 2), (one, variable), (one, 0)],
                   f=lambda x: caputo_of_sin(variable, x),
                   initial=[0.0, 1.0])
    error = max_abs_error(solve(spec), np.sin, 1.0, 1001)
    print(f"variable order (9+sin(x-10))/5, N=20: {error:.3e}")

    # the fractionally damped oscillator u'' + D^(1/2) u + u = f, where
    # u'' + u = 0 for sin; the highest order, 2, takes 2 initial values
    half = OrderFunction.constant(0.5)
    spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=20,
                   terms=[(one, 2), (one, half), (one, 0)],
                   f=lambda x: caputo_of_sin(half, x), initial=[0.0, 1.0])
    error = max_abs_error(solve(spec), np.sin, 1.0, 1001)
    print(f"damping order 1/2 (orders 2, 1/2, 0), N=20: {error:.3e}")

    # both fractional terms at once: u'' + D^(3/2) u + D^(1/2) u + u = f
    spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=20,
                   terms=[(one, 2), (one, order), (one, half), (one, 0)],
                   f=lambda x: caputo_of_sin(order, x) + caputo_of_sin(half, x),
                   initial=[0.0, 1.0])
    error = max_abs_error(solve(spec), np.sin, 1.0, 1001)
    print(f"orders 2, 3/2, 1/2, 0, N=20: {error:.3e}")


if __name__ == "__main__":
    main()
