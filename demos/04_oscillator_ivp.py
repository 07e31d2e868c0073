"""Second-order-window oscillator with solution sin(x).

Solves  u'' + D^(3/2) u + u = f,  u(0) = 0, u'(0) = 1  on [0, 1]
where f = D^(3/2) sin from its closed form, so the exact solution is
sin(x). Shows spectral decay of the error as N grows and writes the
N=20 pointwise error to demo_output/oscillator_error.csv.

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
        spec = IvpSpec(params=params, N=N, order=order, m=2,
                       a=one, b=one, c=one,
                       f=lambda x: caputo_of_sin(order, x),
                       u0=0.0, domain_length=1.0, v0=1.0)
        coeffs = solve(spec)
        report = max_abs_error(coeffs, np.sin, 1.0, 1001)
        print(f"{N:<3d} {report.max_abs_error:.3e}")
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
    spec = IvpSpec(params=params, N=20, order=variable, m=2,
                   a=one, b=one, c=one,
                   f=lambda x: caputo_of_sin(variable, x),
                   u0=0.0, domain_length=1.0, v0=1.0)
    report = max_abs_error(solve(spec), np.sin, 1.0, 1001)
    print(f"variable order (9+sin(x-10))/5, N=20: {report.max_abs_error:.3e}")


if __name__ == "__main__":
    main()
