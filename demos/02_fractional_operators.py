"""Variable-order integrals and Caputo derivatives of an interpolant.

Run from the repository root:

    python3 demos/02_fractional_operators.py

Writes demo_output/caputo_exp.csv comparing the recursive evaluation
against the closed form for u = exp(x).
"""

import csv
import math
import pathlib

import numpy as np

from lagfrac import (
    LaguerreParams,
    OrderFunction,
    caputo_exp_exact,
    caputo_power_rule,
    gauss_rule,
    interpolate,
    vo_derivative,
    vo_integral,
)

OUT_DIR = pathlib.Path("demo_output")


def main():
    OUT_DIR.mkdir(exist_ok=True)

    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 20)
    coeffs = interpolate(rule, np.exp(rule.nodes))

    # constant order: integral of order 1/2 of a constant is the
    # half-power x^(1/2)/gamma(3/2)
    half = OrderFunction.constant(0.5)
    ones = interpolate(rule, np.ones_like(rule.nodes))
    value = vo_integral(ones, half, 1.0)
    print(f"I^(1/2) 1 at x=1: {value:.15g} vs "
          f"{1.0 / math.gamma(1.5):.15g}")

    # derivative of a cubic matches the term-by-term power rule
    cubic = interpolate(rule, rule.nodes ** 3)
    approx = vo_derivative(cubic, half, 0.7)
    exact = caputo_power_rule(3.0, 0.5, 1, 0.7)
    print(f"D^(1/2) x^3 at x=0.7: {approx:.15g} vs {exact:.15g}")

    # genuinely variable order: rho(x) = (9 + sin x)/10 stays in (0, 1)
    # order, coefficient and reference callables take an array of points
    order = OrderFunction.from_callable(lambda x: (9.0 + np.sin(x)) / 10.0, 1.0)
    # and so do the operators: one call evaluates the whole grid
    xs = np.linspace(0.05, 1.0, 20)
    exact = caputo_exp_exact(order, xs)
    approx = vo_derivative(coeffs, order, xs)
    errors = np.abs(approx - exact)
    print(f"variable-order Caputo of exp, worst error on [0.05,1]: {errors.max():.3e}")

    path = OUT_DIR / "caputo_exp.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "recursive", "exact", "abs_error"])
        writer.writerows(np.column_stack([xs, approx, exact, errors]).tolist())
    print("wrote", path)


if __name__ == "__main__":
    main()
