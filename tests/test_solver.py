import inspect
import logging
import math
import warnings

import numpy as np
import pytest

from lagfrac import (
    ErrorReport,
    IvpSpec,
    LaguerreParams,
    LinearSystem,
    OrderFunction,
    SolverError,
    assemble,
    caputo_of_sin,
    caputo_row,
    collocation_nodes,
    derivative_basis,
    eval_basis,
    eval_interpolant,
    gauss_rule,
    max_abs_error,
    solve,
    value_at_zero,
)

ONE = lambda x: 1.0


def basset_spec(N=10):
    """Manufactured first-order problem with u = x^2 + 1 and order 1/2."""
    order = OrderFunction.constant(0.5)
    forcing = lambda x: (2.0 * x + (2.0 / math.gamma(2.5)) * x ** 1.5
                         + x ** 2 + 1.0)
    return IvpSpec(params=LaguerreParams(2.0, 4.0), N=N, order=order, m=1,
                   a=ONE, b=ONE, c=ONE, f=forcing, u0=1.0)


def oscillator_spec(N, theta=3.0, beta=6.0):
    """u'' + D^{3/2} u + u = f with exact solution sin."""
    order = OrderFunction.constant(1.5)
    forcing = lambda x: caputo_of_sin(order, x)
    return IvpSpec(params=LaguerreParams(theta, beta), N=N, order=order, m=2,
                   a=ONE, b=ONE, c=ONE, f=forcing, u0=0.0, v0=1.0)


def test_ivp_spec_validation():
    order1 = OrderFunction.constant(0.5)
    order2 = OrderFunction.constant(1.5)
    base = dict(params=LaguerreParams(1.0, 3.0), order=order1, m=1,
                a=ONE, b=ONE, c=ONE, f=ONE, u0=0.0)
    with pytest.raises(ValueError):
        IvpSpec(N=1, **base)
    with pytest.raises(ValueError):
        IvpSpec(N=5, **{**base, "m": 3})
    # v0 is tied to the order window
    with pytest.raises(ValueError, match="v0"):
        IvpSpec(N=5, **{**base, "order": order2, "m": 2})
    with pytest.raises(ValueError, match="v0"):
        IvpSpec(N=5, v0=1.0, **base)
    with pytest.raises(ValueError, match="m"):
        IvpSpec(N=5, **{**base, "m": 2})
    with pytest.raises(ValueError):
        IvpSpec(N=5, **{**base, "a": 3.0})
    with pytest.raises(ValueError):
        IvpSpec(N=5, **{**base, "u0": math.nan})


def test_collocation_nodes_are_smallest_gauss_nodes():
    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 9)
    nodes = collocation_nodes(params, 9, 7)
    assert nodes.shape == (7,)
    assert np.allclose(nodes, rule.nodes[:7], rtol=0.0, atol=0.0)
    assert np.all(np.diff(nodes) > 0.0)
    with pytest.raises(ValueError):
        collocation_nodes(params, 9, 11)


def test_assemble_first_order_layout():
    spec = basset_spec(N=6)
    system = assemble(spec)
    assert system.matrix.shape == (7, 7)
    assert system.rhs.shape == (7,)
    # initial-condition column carries the basis boundary values
    expected = [value_at_zero(spec.params, i) for i in range(7)]
    assert np.allclose(system.matrix[6], expected, rtol=1e-13)
    assert system.rhs[6] == spec.u0


def test_assemble_second_order_layout():
    spec = oscillator_spec(N=6)
    system = assemble(spec)
    assert system.matrix.shape == (7, 7)
    # N - 1 equation columns, then value and slope columns
    expected_value = [value_at_zero(spec.params, i) for i in range(7)]
    assert np.allclose(system.matrix[5], expected_value, rtol=1e-13)
    expected_slope = [derivative_basis(spec.params, i, 1, 0.0) for i in range(7)]
    assert np.allclose(system.matrix[6], expected_slope, rtol=1e-13)
    assert system.rhs[5] == spec.u0
    assert system.rhs[6] == spec.v0


def window_order(n, variable):
    """Order n - 1/2, constant or varying by 0.3 about it."""
    if variable:
        return OrderFunction.from_callable(lambda x: n - 0.5 + 0.3 * np.sin(3.0 * x), 1.0)
    return OrderFunction.constant(n - 0.5)


def equation_spec(params, N, order, m, a, b, c):
    n = order.n
    return IvpSpec(params=params, N=N, order=order, m=m, a=a, b=b, c=c, f=np.cos,
                   u0=1.0, v0=0.5 if n == 2 else None)


@pytest.mark.parametrize("variable", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_assemble_matches_separate_ladders(m, n, variable):
    # the one stacked pass against the basis, the shifted basis and caputo_row
    # each run on its own; they round differently, so agreement is to a row's max
    order = window_order(n, variable)
    a, b, c = (lambda x: 1.0 + x), (lambda x: 0.5 + x * x), (lambda x: 0.3 * x - 1.0)
    for theta in (-0.5, 0.0, 2.0, 10.0):
        for beta in (1.0, 4.0, 10.0):
            params = LaguerreParams(theta, beta)
            for N in (2, 3, 8, 20, 40):
                count = N if n == 1 else N - 1
                x = collocation_nodes(params, N, count)
                integer = np.zeros((N + 1, count))
                shifted = LaguerreParams(theta + m, beta)
                integer[m:] = (-beta) ** m * eval_basis(shifted, N - m, x)
                want = np.zeros((N + 1, N + 1))
                want[:count] = (a(x) * integer + b(x) * caputo_row(params, order, N, x)
                                + c(x) * eval_basis(params, N, x)).T
                want[count] = value_at_zero(params, np.arange(N + 1))
                if n == 2:
                    slope = LaguerreParams(theta + 1.0, beta)
                    want[count + 1, 1:] = -beta * value_at_zero(slope, np.arange(N))
                got = assemble(equation_spec(params, N, order, m, a, b, c)).matrix
                scale = np.max(np.abs(want), axis=1, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-13 * scale), (theta, beta, N)


@pytest.mark.parametrize("variable", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_assemble_fractional_rows_are_caputo_row(m, n, variable):
    # with a = c = 0 and b = 1 the equation rows are the Caputo block alone
    order = window_order(n, variable)
    zero = lambda x: 0.0
    for theta, beta, N in [(-0.5, 1.0, 2), (0.0, 4.0, 8), (2.0, 6.0, 20), (10.0, 10.0, 40)]:
        params = LaguerreParams(theta, beta)
        count = N if n == 1 else N - 1
        got = assemble(equation_spec(params, N, order, m, zero, ONE, zero)).matrix[:count]
        want = caputo_row(params, order, N, collocation_nodes(params, N, count))
        assert np.array_equal(got, want.T)


def test_residual_of_solution():
    spec = basset_spec(N=10)
    system = assemble(spec)
    coeffs = solve(spec)
    residual = system.matrix @ coeffs.coeffs - system.rhs
    scale = max(1.0, float(np.max(np.abs(system.rhs))))
    assert np.max(np.abs(residual)) <= 1e-10 * scale


def test_initial_conditions_hold():
    coeffs = solve(oscillator_spec(N=12))
    params = coeffs.params
    assert eval_interpolant(coeffs, 0.0) == pytest.approx(0.0, abs=1e-10)
    slope = sum(c * derivative_basis(params, i, 1, 0.0)
                for i, c in enumerate(coeffs.coeffs))
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_basset_manufactured_solution():
    coeffs = solve(basset_spec(N=10))
    report = max_abs_error(coeffs, lambda x: x ** 2 + 1.0, 1.0, 1001)
    assert report.max_abs_error <= 1e-10
    assert report.N == 10
    assert report.grid_size == 1001


def test_oscillator_error_decays_with_degree():
    errs = []
    for N in (5, 10):
        coeffs = solve(oscillator_spec(N))
        errs.append(max_abs_error(coeffs, np.sin, 1.0, 1001).max_abs_error)
    assert errs[1] <= 1e-2 * errs[0]
    assert errs[1] <= 2e-7


@pytest.mark.filterwarnings("error")
def test_singular_system_raises_solver_error():
    zero = lambda x: 0.0
    order = OrderFunction.constant(0.5)
    spec = IvpSpec(params=LaguerreParams(1.0, 3.0), N=8, order=order, m=1,
                   a=zero, b=zero, c=zero, f=zero, u0=0.0)
    # an exact zero pivot is a SolverError, with no numpy warning on the way
    with pytest.raises(SolverError, match="rcond") as info:
        solve(spec)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.filterwarnings("error")
def test_solve_past_weight_underflow_reaches_rcond_gate():
    # gauss_rule raises from N ~ 190; the solver needs only nodes, so the
    # refusal at N = 200 comes from the conditioning gate
    with pytest.raises(SolverError, match="rcond"):
        solve(oscillator_spec(200))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [380, 400])
def test_solve_past_ladder_range_is_runtime_error(N):
    # the nodes need no ladder; assemble's certificate finds its ladder out of range
    with pytest.raises(RuntimeError, match=f"N={N} are not certified") as info:
        solve(oscillator_spec(N))
    assert not isinstance(info.value, SolverError)


@pytest.mark.parametrize("key", ["N", "m"])
def test_ivp_spec_rejects_infinite_integers(key):
    spec = basset_spec()
    fields = {name: getattr(spec, name) for name in inspect.signature(IvpSpec).parameters}
    with pytest.raises(ValueError, match=f"^{key} must be"):
        IvpSpec(**{**fields, key: math.inf})


@pytest.mark.parametrize("rho,solved,refused", [(0.5, 22, 23), (1.5, 24, 25)])
def test_refusal_boundary(rho, solved, refused):
    """u = x^3 at (theta, beta) = (2, 4): the rcond gate passes the degree
    `solved` and refuses the next. rcond falls about sixfold per degree and
    lies 2-3x above and below eps at these two degrees."""
    order = OrderFunction.constant(rho)
    fractional = math.gamma(4.0) / math.gamma(4.0 - rho)
    if rho < 1.0:
        integer, extra = (lambda x: 3.0 * x ** 2), {"m": 1}
    else:
        integer, extra = (lambda x: 6.0 * x), {"m": 2, "v0": 0.0}
    forcing = lambda x: integer(x) + fractional * x ** (3.0 - rho) + x ** 3

    def spec(N):
        return IvpSpec(params=LaguerreParams(2.0, 4.0), N=N, order=order, a=ONE, b=ONE,
                       c=ONE, f=forcing, u0=0.0, **extra)

    report = max_abs_error(solve(spec(solved)), lambda x: x ** 3, 1.0, 201)
    assert report.max_abs_error < 1e-11
    with pytest.raises(SolverError, match=f"N={refused}"):
        solve(spec(refused))


def test_solve_logs_condition_estimate(caplog):
    with caplog.at_level(logging.INFO, logger="lagfrac.solver"):
        solve(basset_spec(N=8))
    assert "rcond" in caplog.text


def test_nonfinite_forcing_rejected():
    spec = basset_spec(N=6)
    bad = IvpSpec(params=spec.params, N=6, order=spec.order, m=1,
                  a=ONE, b=ONE, c=ONE, f=lambda x: math.inf, u0=1.0)
    with pytest.raises(ValueError, match="f"):
        assemble(bad)


def test_callables_are_sampled_once_on_the_node_array():
    shapes = []
    spec = basset_spec()
    forcing = spec.f

    def recording(x):
        shapes.append(x.shape)
        return forcing(x)

    counted = IvpSpec(params=spec.params, N=spec.N, order=spec.order, m=1,
                      a=ONE, b=ONE, c=ONE, f=recording, u0=1.0)
    assert np.array_equal(assemble(counted).matrix, assemble(spec).matrix)
    assert shapes == [(spec.N,)]
    wrong = IvpSpec(params=spec.params, N=spec.N, order=spec.order, m=1,
                    a=ONE, b=ONE, c=ONE, f=lambda x: np.ones(2), u0=1.0)
    with pytest.raises(ValueError, match="shape"):
        assemble(wrong)


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(matrix=np.ones((2, 3)), rhs=np.ones(2))
    with pytest.raises(ValueError):
        LinearSystem(matrix=np.ones((2, 2)), rhs=np.ones(3))
    with pytest.raises(ValueError):
        LinearSystem(matrix=np.full((2, 2), math.nan), rhs=np.ones(2))


def test_error_report_validation():
    params = LaguerreParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ErrorReport(N=5, params=params, max_abs_error=-1.0, grid_size=11,
                    domain_length=1.0)
    with pytest.raises(ValueError):
        ErrorReport(N=5, params=params, max_abs_error=math.nan, grid_size=11,
                    domain_length=1.0)


def test_max_abs_error_validation():
    coeffs = solve(basset_spec(N=6))
    with pytest.raises(ValueError):
        max_abs_error(coeffs, lambda x: 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        max_abs_error(coeffs, lambda x: math.nan, 1.0, 11)
    with pytest.raises(ValueError):
        max_abs_error(coeffs, lambda x: 1.0, -1.0, 11)


def test_max_abs_error_rejects_infinite_grid_size():
    coeffs = solve(basset_spec(N=6))
    with pytest.raises(ValueError, match="^grid_size must be an integer"):
        max_abs_error(coeffs, lambda x: 1.0, 1.0, math.inf)



def test_max_abs_error_silences_warnings_inside_the_reference():
    # np.where evaluates sin(x)/x at x = 0 too; the other branch is chosen there
    coeffs = solve(basset_spec(N=6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = max_abs_error(coeffs, lambda x: np.where(x > 0, np.sin(x) / x, 1.0),
                               1.0, 11)
    assert report.grid_size == 11 and report.max_abs_error > 0.0
