"""First-order-window initial value problem with a manufactured solution.

Solves  u'(x) + D^(1/2) u(x) + u(x) = f(x),  u(0) = 1  on [0, 1]
where f is chosen so that u = x^2 + 1 exactly.

Run from the repository root:

    python3 demos/03_relaxation_ivp.py
"""

import math
import pathlib

from lagfrac import (
    IvpSpec,
    LaguerreParams,
    OrderFunction,
    max_abs_error,
    solve,
)

OUT_DIR = pathlib.Path("demo_output")


def forcing(x):
    # u' + D^(1/2)(x^2) + D^(1/2)(1) + u with D^(1/2)(1) = 0
    return 2.0 * x + (2.0 / math.gamma(2.5)) * x ** 1.5 + x ** 2 + 1.0


def main():
    OUT_DIR.mkdir(exist_ok=True)

    order = OrderFunction.constant(0.5)
    one = lambda x: 1.0
    print("N   max abs error on [0, 1]")
    for N in (4, 6, 8, 10):
        # the terms u', D^(1/2) u and u, each with coefficient 1
        spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=N,
                       terms=[(one, 1), (one, order), (one, 0)], f=forcing,
                       initial=[1.0])
        coeffs = solve(spec)
        error = max_abs_error(coeffs, lambda x: x ** 2 + 1.0, 1.0, 1001)
        print(f"{N:<3d} {error:.3e}")
    print("the solution is a quadratic, so every N >= 2 resolves it "
          "to rounding error")


if __name__ == "__main__":
    main()
