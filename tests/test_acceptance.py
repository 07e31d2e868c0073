"""End-to-end acceptance checks with stated tolerances and runtime budgets.

One test per criterion; each prints a single [PASS]/[FAIL] line (visible
with -s or in captured output on failure) and asserts the same condition.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from lagfrac import (
    IvpSpec,
    LaguerreParams,
    OrderFunction,
    assemble,
    caputo_exp_exact,
    caputo_of_sin,
    caputo_power_rule,
    caputo_row,
    derivative_basis,
    eval_basis,
    eval_interpolant,
    frac_integral_basis,
    gauss_rule,
    interpolate,
    max_abs_error,
    solve,
    vo_derivative,
)

ONE = lambda x: 1.0


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _solve_oscillator(theta, beta, N, order):
    spec = IvpSpec(params=LaguerreParams(theta, beta), N=N, order=order, m=2,
                   a=ONE, b=ONE, c=ONE,
                   f=lambda x: caputo_of_sin(order, x),
                   u0=0.0, domain_length=1.0, v0=1.0)
    coeffs = solve(spec)
    return max_abs_error(coeffs, np.sin, 1.0, 1001).max_abs_error


# reference error levels for theta=2, beta=6, N=20; bound is max(100x, 1e-10)
EXP_DERIVATIVE_CELLS = {0.2: 1.09e-12, 0.5: 2.73e-12, 0.8: 8.64e-12,
                1.2: 4.13e-11, 1.5: 9.46e-11, 1.8: 2.73e-10}


def test_criterion_1_constant_order_derivative_table():
    start = time.perf_counter()
    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 20)
    coeffs = interpolate(rule, np.exp(rule.nodes))
    xs = np.linspace(0.0, 1.0, 1001)
    cells = []
    for rho, reference in EXP_DERIVATIVE_CELLS.items():
        order = OrderFunction.constant(rho)
        approx = vo_derivative(coeffs, order, xs)
        exact = np.array([caputo_exp_exact(order, x) for x in xs])
        err = float(np.max(np.abs(approx - exact)))
        cells.append((rho, err, max(100.0 * reference, 1e-10)))
    elapsed = time.perf_counter() - start
    ok = all(err <= bound for _, err, bound in cells) and elapsed < 5.0
    detail = ("theta=2 beta=6 N=20; "
              + "; ".join(f"rho={r:g}: {e:.2e} <= {b:.1e}" for r, e, b in cells)
              + f"; {elapsed:.2f}s (< 5s)")
    _report("criterion 1, constant-order derivative table", ok, detail)


def test_criterion_2_variable_order_derivative_table():
    start = time.perf_counter()
    params = LaguerreParams(3.0, 6.0)
    rule = gauss_rule(params, 20)
    coeffs = interpolate(rule, np.exp(rule.nodes))
    xs = np.linspace(0.0, 1.0, 1001)
    cases = [((lambda x: (9.0 + np.sin(x)) / 10.0), 1e-8, "(9+sin x)/10"),
             ((lambda x: (3.0 + np.tanh(x)) / 2.0), 1e-7, "(3+tanh x)/2")]
    cells = []
    for func, bound, label in cases:
        order = OrderFunction.from_callable(func, 1.0)
        approx = vo_derivative(coeffs, order, xs)
        exact = np.array([caputo_exp_exact(order, x) for x in xs])
        err = float(np.max(np.abs(approx - exact)))
        cells.append((label, err, bound))
    elapsed = time.perf_counter() - start
    ok = all(err <= bound for _, err, bound in cells) and elapsed < 5.0
    detail = ("theta=3 beta=6 N=20; "
              + "; ".join(f"{lbl}: {e:.2e} <= {b:.0e}" for lbl, e, b in cells)
              + f"; {elapsed:.2f}s (< 5s)")
    _report("criterion 2, variable-order derivative table", ok, detail)


def test_criterion_3_oscillator_benchmark():
    start = time.perf_counter()
    constant = OrderFunction.constant(1.5)
    cells = [("rho=3/2 N=10", _solve_oscillator(3.0, 6.0, 10, constant), 1e-6),
             ("rho=3/2 N=20", _solve_oscillator(3.0, 6.0, 20, constant), 1e-12)]
    variable = OrderFunction.from_callable(
        lambda x: (9.0 + np.sin(x - 10.0)) / 5.0, 1.0)
    cells.append(("variable N=20", _solve_oscillator(3.0, 6.0, 20, variable), 1e-11))
    elapsed = time.perf_counter() - start
    ok = all(err <= bound for _, err, bound in cells) and elapsed < 10.0
    detail = ("theta=3 beta=6; "
              + "; ".join(f"{lbl}: {e:.2e} <= {b:.0e}" for lbl, e, b in cells)
              + f"; {elapsed:.2f}s (< 10s)")
    _report("criterion 3, oscillator benchmark", ok, detail)


def test_criterion_4_polynomial_exact_benchmark():
    start = time.perf_counter()
    params = LaguerreParams(10.0, 10.0)
    length = math.pi / 2.0
    orders = [("rho=1.5", OrderFunction.constant(1.5)),
              ("rho=1+|sin x|/2", OrderFunction.from_callable(
                  lambda x: 1.0 + 0.5 * np.abs(np.sin(x)), length))]
    cells = []
    for label, order in orders:
        forcing = lambda x, _o=order: (caputo_power_rule(3.0, _o.eval(x), 2, x)
                                       + x ** 3 + 7.0 * x + 1.0)
        for N in (3, 4, 5):
            spec = IvpSpec(params=params, N=N, order=order, m=2,
                           a=ONE, b=ONE, c=ONE, f=forcing,
                           u0=1.0, domain_length=length, v0=1.0)
            coeffs = solve(spec)
            report = max_abs_error(coeffs, lambda x: x ** 3 + x + 1.0,
                                   length, 1001)
            cells.append((f"{label} N={N}", report.max_abs_error))
    elapsed = time.perf_counter() - start
    ok = all(err <= 1e-12 for _, err in cells) and elapsed < 2.0
    detail = ("theta=beta=10; "
              + "; ".join(f"{lbl}: {e:.2e}" for lbl, e in cells)
              + f"; all <= 1e-12; {elapsed:.2f}s (< 2s)")
    _report("criterion 4, polynomial-exact benchmark", ok, detail)


def test_criterion_5_quadrature_oracles():
    start = time.perf_counter()
    worst_integral = 0.0
    for theta, beta in ((0.0, 1.0), (1.0, 3.0), (2.0, 4.0)):
        params = LaguerreParams(theta, beta)
        for rho in (0.3, 0.5, 0.9, 1.5):
            for x in (0.2, 1.0, 3.0):
                values = frac_integral_basis(params, rho, 8, x).values
                for i in range(9):
                    integrand = lambda t, _i=i: eval_basis(params, _i, t)[_i]
                    ref, _ = quad(integrand, 0.0, x, weight="alg",
                                  wvar=(0.0, rho - 1.0), limit=200)
                    worst_integral = max(worst_integral,
                                         abs(values[i] - ref / math.gamma(rho)))
    worst_row = 0.0
    params = LaguerreParams(2.0, 4.0)
    order = OrderFunction.constant(1.5)
    for x in (0.4, 0.8, 1.6):
        row = caputo_row(params, order, 6, x)
        for i in range(2, 7):
            integrand = lambda t, _i=i: derivative_basis(params, _i, 2, t)
            ref, _ = quad(integrand, 0.0, x, weight="alg", wvar=(0.0, -0.5),
                          limit=200)
            worst_row = max(worst_row, abs(row[i] - ref / math.gamma(0.5)))
    worst_poly = 0.0
    params = LaguerreParams(1.0, 3.0)
    rule = gauss_rule(params, 6)
    coeffs = interpolate(rule, rule.nodes ** 3 + 2.0 * rule.nodes - 5.0)
    half = OrderFunction.constant(0.5)
    for x in np.linspace(0.1, 2.0, 20):
        ref = (caputo_power_rule(3.0, 0.5, 1, x)
               + 2.0 * caputo_power_rule(1.0, 0.5, 1, x))
        worst_poly = max(worst_poly, abs(vo_derivative(coeffs, half, x) - ref))
    elapsed = time.perf_counter() - start
    ok = (worst_integral <= 1e-8 and worst_row <= 1e-8 and worst_poly <= 1e-10
          and elapsed < 30.0)
    detail = (f"integral recurrence vs quadrature: {worst_integral:.2e} <= 1e-8; "
              f"derivative rows vs quadrature: {worst_row:.2e} <= 1e-8; "
              f"polynomial vs power rule: {worst_poly:.2e} <= 1e-10; "
              f"{elapsed:.2f}s (< 30s)")
    _report("criterion 5, quadrature oracle suite", ok, detail)


def test_criterion_6_gauss_rule_exactness():
    start = time.perf_counter()
    worst = 0.0
    for theta, beta in ((0.0, 1.0), (1.0, 3.0), (2.0, 6.0), (3.0, 6.0)):
        params = LaguerreParams(theta, beta)
        for N in (5, 10, 20, 40):
            rule = gauss_rule(params, N)
            powers = rule.nodes[None, :] ** np.arange(2 * N + 2)[:, None]
            discrete = powers @ rule.weights
            ks = np.arange(2 * N + 2)
            expected = np.exp([math.lgamma(theta + k + 1.0)
                               - (theta + k + 1.0) * math.log(beta) for k in ks])
            worst = max(worst, float(np.max(np.abs(discrete - expected)
                                            / expected)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    detail = (f"monomials through degree 2N+1, four parameter pairs, "
              f"N in (5,10,20,40); worst relative error {worst:.2e} <= 1e-10; "
              f"{elapsed:.2f}s (< 5s)")
    _report("criterion 6, quadrature exactness", ok, detail)


def test_criterion_7_solver_invariants():
    start = time.perf_counter()
    # manufactured first-order problem, u = x^2 + 1, order 1/2
    order = OrderFunction.constant(0.5)
    spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=10, order=order, m=1,
                   a=ONE, b=ONE, c=ONE,
                   f=lambda x: (2.0 * x + (2.0 / math.gamma(2.5)) * x ** 1.5
                                + x ** 2 + 1.0),
                   u0=1.0, domain_length=1.0)
    system = assemble(spec)
    coeffs = solve(spec)
    residual = float(np.max(np.abs(system.matrix @ coeffs.coeffs - system.rhs)))
    rhs_scale = max(1.0, float(np.max(np.abs(system.rhs))))
    ic_err = abs(eval_interpolant(coeffs, 0.0) - 1.0)
    solution_err = max_abs_error(coeffs, lambda x: x ** 2 + 1.0, 1.0,
                                 1001).max_abs_error
    # second-window problem: both initial conditions
    order2 = OrderFunction.constant(1.5)
    spec2 = IvpSpec(params=LaguerreParams(3.0, 6.0), N=12, order=order2, m=2,
                    a=ONE, b=ONE, c=ONE,
                    f=lambda x: caputo_of_sin(order2, x),
                    u0=0.0, domain_length=1.0, v0=1.0)
    coeffs2 = solve(spec2)
    ic2_value = abs(eval_interpolant(coeffs2, 0.0))
    slope = sum(c * derivative_basis(coeffs2.params, i, 1, 0.0)
                for i, c in enumerate(coeffs2.coeffs))
    ic2_slope = abs(slope - 1.0)
    elapsed = time.perf_counter() - start
    ok = (residual <= 1e-10 * rhs_scale and ic_err <= 1e-10
          and solution_err <= 1e-10 and ic2_value <= 1e-10
          and ic2_slope <= 1e-10 and elapsed < 2.0)
    detail = (f"residual {residual:.2e} <= 1e-10*|F| ({rhs_scale:.2f}); "
              f"u(0) error {ic_err:.2e}; manufactured solution {solution_err:.2e} "
              f"<= 1e-10 at N=10; second-window u(0) {ic2_value:.2e}, "
              f"u'(0) {ic2_slope:.2e}; {elapsed:.2f}s (< 2s)")
    _report("criterion 7, solver invariants", ok, detail)


def test_criterion_8_convergence_in_place_of_exact_cells():
    # reference error levels at large N sit at rounding level and depend on
    # the evaluation grid, so the check here is the relaxed bounds above
    # plus strict convergence of the oscillator benchmark
    start = time.perf_counter()
    order = OrderFunction.constant(1.5)
    coarse = _solve_oscillator(3.0, 6.0, 5, order)
    fine = _solve_oscillator(3.0, 6.0, 20, order)
    elapsed = time.perf_counter() - start
    ok = fine <= 1e-3 * coarse
    detail = (f"oscillator theta=3 beta=6: AE(N=5)={coarse:.2e}, "
              f"AE(N=20)={fine:.2e}, ratio {fine / coarse:.1e} <= 1e-3; "
              f"{elapsed:.2f}s")
    _report("criterion 8, convergence ratio", ok, detail)
