import inspect
import logging
import math
import warnings

import numpy as np
import pytest

from lagfrac import (
    DomainError,
    InterpolantCoeffs,
    IvpSpec,
    LaguerreParams,
    OrderFunction,
    SolverError,
    assemble,
    caputo_of_sin,
    caputo_row,
    collocation_nodes,
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
    return IvpSpec(params=LaguerreParams(2.0, 4.0), N=N,
                   terms=[(ONE, 1), (ONE, order), (ONE, 0)], f=forcing, initial=[1.0])


def oscillator_spec(N, theta=3.0, beta=6.0):
    """u'' + D^{3/2} u + u = f with exact solution sin."""
    order = OrderFunction.constant(1.5)
    forcing = lambda x: caputo_of_sin(order, x)
    return IvpSpec(params=LaguerreParams(theta, beta), N=N,
                   terms=[(ONE, 2), (ONE, order), (ONE, 0)], f=forcing, initial=[0.0, 1.0])


def terms(m, order, a=ONE, b=ONE, c=ONE):
    """The term list of a(x) u^(m) + b(x) D^order u + c(x) u."""
    return [(a, m), (b, order), (c, 0)]


def test_ivp_spec_validation():
    half = OrderFunction.constant(0.5)
    base = dict(params=LaguerreParams(1.0, 3.0), N=5, terms=terms(1, half), f=ONE,
                initial=[0.0])
    # one rule per input: callable coefficients, int orders >= 0, N >= max(2, k), and
    # k finite initial values, k the largest q or n over the terms
    for change, message in [
            ({"params": (1.0, 3.0)}, r"^params must be a LaguerreParams, got \(1.0, 3.0\)$"),
            ({"N": 1}, r"^N must be an integer >= 2, got 1$"),
            ({"terms": []}, r"^terms must hold at least one \(coefficient, order\) pair$"),
            ({"terms": [ONE]}, r"^term 0 must be a \(coefficient, order\) pair, got <function "),
            ({"terms": [(ONE, 1), (ONE, 0, 1)]},
             r"^term 1 must be a \(coefficient, order\) pair, got \(<function .*, 0, 1\)$"),
            ({"terms": terms(0.5, half)},
             r"^order of term 0 must be a nonnegative integer, got 0.5$"),
            ({"terms": terms(1.5, half)},
             r"^order of term 0 must be a nonnegative integer, got 1.5$"),
            ({"terms": terms(True, half)},
             r"^order of term 0 must be a nonnegative integer, got True$"),
            ({"terms": terms(-1, half)},
             r"^order of term 0 must be a nonnegative integer, got -1$"),
            ({"terms": terms(math.inf, half)},
             r"^order of term 0 must be a nonnegative integer, got inf$"),
            ({"terms": [(ONE, 1), (ONE, 0.5)]},
             r"^order of term 1 must be a nonnegative integer, got 0.5$"),
            ({"terms": terms(3, half), "N": 2, "initial": [0.0] * 3},
             r"^N must be an integer >= 3, got 2$"),
            ({"terms": terms(1, OrderFunction.constant(2.5)), "N": 2, "initial": [0.0] * 3},
             r"^N must be an integer >= 3, got 2$"),
            ({"terms": terms(1, OrderFunction.constant(1.5))},
             r"^2 finite initial values u\^\(j\)\(0\), j < 2, are needed, got \[0.0\]$"),
            ({"terms": terms(2, half)},
             r"^2 finite initial values u\^\(j\)\(0\), j < 2, are needed, got \[0.0\]$"),
            ({"initial": [0.0, 1.0]}, r"^1 finite initial values"),
            ({"initial": []}, r"^1 finite initial values"),
            ({"initial": 0.0}, r"^1 finite initial values .*, got 0.0$"),
            ({"initial": [[0.0]]}, r"^1 finite initial values"),
            ({"initial": [math.nan]}, r"^1 finite initial values .*, got \[nan\]$"),
            ({"terms": terms(3, half), "initial": [0.0, 1.0, math.inf]},
             r"^3 finite initial values"),
            ({"terms": terms(1, half, a=3.0)}, r"^coefficient of term 0 must be callable$"),
            ({"terms": terms(1, half, c=None)}, r"^coefficient of term 2 must be callable$"),
            ({"f": 3.0}, r"^f must be callable$")]:
        with pytest.raises(ValueError, match=message):
            IvpSpec(**{**base, **change})


def test_ivp_spec_stores_its_terms_as_a_tuple_of_checked_pairs():
    half = OrderFunction.constant(0.5)
    spec = IvpSpec(LaguerreParams(1.0, 3.0), 5, [[ONE, np.int64(1)], (ONE, half)], ONE, [0.0])
    assert spec.terms == ((ONE, 1), (ONE, half))
    assert all(type(term) is tuple for term in spec.terms)
    assert type(spec.terms[0][1]) is int


@pytest.mark.parametrize("m,rho,initial", [(1, 0.5, [2]), (2, 0.5, (0, 1.0)),
                                           (1, 2.5, np.array([0.0, 1.0, 0.0]))])
def test_ivp_spec_stores_initial_values_as_a_tuple_of_floats(m, rho, initial):
    spec = IvpSpec(params=LaguerreParams(1.0, 3.0), N=5,
                   terms=terms(m, OrderFunction.constant(rho)), f=ONE, initial=initial)
    assert type(spec.initial) is tuple
    assert all(type(value) is float for value in spec.initial)
    assert spec.initial == tuple(float(value) for value in initial)


def test_ivp_spec_checks_its_orders_at_its_nodes(monkeypatch):
    # 1.2 + 0.3x leaves (1, 2) at x = 8/3; at (2, 4) the one node of N = 2 lies
    # below that, and the nodes of N = 20 reach about 4N/beta = 20
    params, order = LaguerreParams(2.0, 4.0), OrderFunction.from_callable(
        lambda x: 1.2 + 0.3 * x, 1.0)
    spec = IvpSpec(params, 2, terms(2, order), ONE, [0.0, 0.0])
    assert np.array_equal(spec.nodes, collocation_nodes(params, 2, 1))
    assert not spec.nodes.flags.writeable
    # assemble reads them: one node solve per spec
    with monkeypatch.context() as patch:
        patch.setattr("lagfrac.solver.collocation_nodes", None)
        assert assemble(spec)[0].shape == (3, 3)
    with pytest.raises(DomainError) as info:
        IvpSpec(params, 20, terms(2, order), ONE, [0.0, 0.0])
    assert str(info.value) == ("order value 2.0117403556208333 at x=2.7058011854027777 "
                               "lies outside (1, 2) (term 1, N=20)")
    # a non-finite order value at a node is named with its term and N too
    with pytest.raises(DomainError, match=r"^order function returned non-finite value nan "
                                          r"at x=.* \(term 1, N=4\)$"):
        IvpSpec(params, 4, terms(1, OrderFunction(lambda x: np.where(x > 0.5, np.nan, 0.5), 1)),
                ONE, [0.0])


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
    matrix, rhs = assemble(spec)
    assert matrix.shape == (7, 7)
    assert rhs.shape == (7,)
    # initial-condition column carries the basis boundary values
    expected = [value_at_zero(spec.params, i) for i in range(7)]
    assert np.allclose(matrix[6], expected, rtol=1e-13)
    assert rhs[6] == spec.initial[0]


def test_assemble_second_order_layout():
    spec = oscillator_spec(N=6)
    matrix, rhs = assemble(spec)
    assert matrix.shape == (7, 7)
    # N - 1 equation columns, then value and slope columns
    expected_value = [value_at_zero(spec.params, i) for i in range(7)]
    assert np.allclose(matrix[5], expected_value, rtol=1e-13)
    expected_slope = caputo_row(spec.params, 1, 6, 0.0)
    assert np.allclose(matrix[6], expected_slope, rtol=1e-13)
    assert tuple(rhs[5:]) == spec.initial


def window_order(n, variable):
    """Order n - 1/2, constant or varying by 0.3 about it."""
    if variable:
        return OrderFunction.from_callable(lambda x: n - 0.5 + 0.3 * np.sin(3.0 * x), 1.0)
    return OrderFunction.constant(n - 0.5)


def equation_spec(params, N, order, m, a, b, c):
    return IvpSpec(params=params, N=N, terms=terms(m, order, a, b, c), f=np.cos,
                   initial=[1.0, 0.5, -0.25][:max(m, order.n)])


# (m, n): the paper's windows with m = n and m = 1, then m != n and n = 3
ORDERS = [(1, 1), (1, 2), (2, 2), (2, 1), (1, 3), (3, 3)]


@pytest.mark.parametrize("variable", [False, True])
@pytest.mark.parametrize("m,n", ORDERS)
def test_assemble_matches_separate_ladders(m, n, variable):
    # the one stacked pass against the basis, the shifted basis and caputo_row
    # each run on its own; they round differently, so agreement is to a row's max
    order = window_order(n, variable)
    a, b, c = (lambda x: 1.0 + x), (lambda x: 0.5 + x * x), (lambda x: 0.3 * x - 1.0)
    for theta in (-0.5, 0.0, 2.0, 10.0):
        for beta in (1.0, 4.0, 10.0):
            params = LaguerreParams(theta, beta)
            for N in [N for N in (2, 3, 8, 20, 40) if N >= max(m, n)]:
                count = N + 1 - max(m, n)
                x = collocation_nodes(params, N, count)
                integer = np.zeros((N + 1, count))
                shifted = LaguerreParams(theta + m, beta)
                integer[m:] = (-beta) ** m * eval_basis(shifted, N - m, x)
                want = np.zeros((N + 1, N + 1))
                want[:count] = (a(x) * integer + b(x) * caputo_row(params, order, N, x)
                                + c(x) * eval_basis(params, N, x)).T
                # u^(j)(0) rows by the parameter shift, as caputo_row of order j at 0
                for j in range(max(m, n)):
                    want[count + j] = caputo_row(params, j, N, 0.0)
                got, _ = assemble(equation_spec(params, N, order, m, a, b, c))
                scale = np.max(np.abs(want), axis=1, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-13 * scale), (theta, beta, N)


@pytest.mark.parametrize("variable", [False, True])
@pytest.mark.parametrize("m,n", ORDERS)
def test_assemble_fractional_rows_are_caputo_row(m, n, variable):
    # with a = c = 0 and b = 1 the equation rows are the Caputo block alone
    order = window_order(n, variable)
    zero = lambda x: 0.0
    for theta, beta, N in [(-0.5, 1.0, 2), (0.0, 4.0, 8), (2.0, 6.0, 20), (10.0, 10.0, 40)]:
        params = LaguerreParams(theta, beta)
        count = N + 1 - max(m, n)
        if count < 1:  # N = 2 takes no third initial value
            continue
        got, _ = assemble(equation_spec(params, N, order, m, zero, ONE, zero))
        want = caputo_row(params, order, N, collocation_nodes(params, N, count))
        assert np.array_equal(got[:count], want.T)


@pytest.mark.parametrize("m,n", ORDERS)
def test_assemble_integer_rows_are_derivative_basis(m, n):
    # with a = 1 and b = c = 0 the equation rows are the integer-derivative block
    # alone, the caputo_row matrix of order m at the nodes bit for bit
    zero = lambda x: 0.0
    order = window_order(n, False)
    for theta in (-0.5, 0.0, 2.0, 10.0):
        for beta in (1.0, 4.0, 10.0):
            params = LaguerreParams(theta, beta)
            for N in [N for N in (2, 8, 20, 40) if N >= max(m, n)]:
                count = N + 1 - max(m, n)
                got, _ = assemble(equation_spec(params, N, order, m, ONE, zero, zero))
                want = caputo_row(params, m, N, collocation_nodes(params, N, count))
                assert np.array_equal(got[:count], want.T), (theta, beta, N)


@pytest.mark.parametrize("m,n", ORDERS)
def test_assemble_basis_rows_are_eval_basis(m, n):
    # with a = b = 0 and c = 1 the equation rows are the basis block alone, the
    # certified ladder at the nodes bit for bit
    zero = lambda x: 0.0
    order = window_order(n, True)
    for theta in (-0.5, 0.0, 2.0, 10.0):
        for beta in (1.0, 4.0, 10.0):
            params = LaguerreParams(theta, beta)
            for N in [N for N in (2, 8, 20, 40) if N >= max(m, n)]:
                count = N + 1 - max(m, n)
                got, _ = assemble(equation_spec(params, N, order, m, zero, zero, ONE))
                want = eval_basis(params, N + 1, collocation_nodes(params, N, count))
                assert np.array_equal(got[:count], want[:N + 1].T), (theta, beta, N)


@pytest.mark.parametrize("m,rho", [(2, 0.5), (3, 2.5), (1, 2.5)])
def test_sin_solves_with_orders_outside_the_paper_windows(m, rho):
    # u^(m) + D^rho u + u = f for u = sin with k = max(m, n) initial values;
    # m = 2, rho = 1/2 is the fractionally damped oscillator
    order = OrderFunction.constant(rho)
    derivatives = [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)]
    k = max(m, order.n)
    spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=20, terms=terms(m, order),
                   f=lambda x: derivatives[m](x) + caputo_of_sin(order, x) + np.sin(x),
                   initial=[derivative(0.0) for derivative in derivatives[:k]])
    assert max_abs_error(solve(spec), np.sin, 1.0, 1001) <= 1e-12


@pytest.mark.parametrize("variable", [False, True])
def test_sin_solves_with_two_fractional_terms(variable):
    # u'' + D^rho1 u + D^rho2 u + u = f for u = sin, rho1 in (1, 2) and rho2 in (0, 1)
    if variable:
        upper = OrderFunction.from_callable(lambda x: 1.5 + 0.3 * np.sin(x), 1.0)
        lower = OrderFunction.from_callable(lambda x: 0.3 + 0.2 * np.sin(x), 1.0)
    else:
        upper, lower = OrderFunction.constant(1.5), OrderFunction.constant(0.5)
    # u'' + u = 0 for u = sin, so f is the two Caputo terms alone
    forcing = lambda x: caputo_of_sin(upper, x) + caputo_of_sin(lower, x)
    spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=20,
                   terms=[(ONE, 2), (ONE, upper), (ONE, lower), (ONE, 0)], f=forcing,
                   initial=[0.0, 1.0])
    assert max_abs_error(solve(spec), np.sin, 1.0, 1001) <= 1e-12


def test_terms_of_one_order_add_up():
    # the rows add up the terms in order: two adjacent unit terms of one order are one
    # term with coefficient 2, bit for bit, for an OrderFunction, an int and order 0
    half, two = OrderFunction.constant(0.5), lambda x: 2.0
    params = LaguerreParams(2.0, 4.0)
    for twice, once in [([(ONE, half), (ONE, half), (ONE, 0)], [(two, half), (ONE, 0)]),
                        ([(ONE, 1), (ONE, 1), (ONE, half)], [(two, 1), (ONE, half)]),
                        ([(ONE, 0), (ONE, 0), (ONE, half)], [(two, 0), (ONE, half)])]:
        got, _ = assemble(IvpSpec(params, 12, twice, np.cos, [1.0]))
        want, _ = assemble(IvpSpec(params, 12, once, np.cos, [1.0]))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("N", [4, 8])
def test_equation_without_an_integer_derivative(N):
    # D^(1/2) u + u = f for u = x^2 + 1: one initial value, from the order's n = 1
    spec = IvpSpec(params=LaguerreParams(2.0, 4.0), N=N,
                   terms=[(ONE, OrderFunction.constant(0.5)), (ONE, 0)],
                   f=lambda x: (2.0 / math.gamma(2.5)) * x ** 1.5 + x ** 2 + 1.0,
                   initial=[1.0])
    assert max_abs_error(solve(spec), lambda x: x ** 2 + 1.0, 1.0, 1001) <= 1e-13


@pytest.mark.filterwarnings("error")
def test_non_finite_coefficient_names_its_term():
    spec = basset_spec(N=6)
    bad = IvpSpec(params=spec.params, N=6, terms=terms(1, OrderFunction.constant(0.5),
                                                       b=lambda x: np.where(x > 0.1, np.inf, 1.0)),
                  f=spec.f, initial=[1.0])
    with pytest.raises(DomainError, match=r"^coefficient of term 1 returned non-finite value "
                                          r"inf at x=0\.\d+$"):
        assemble(bad)


def test_residual_of_solution():
    spec = basset_spec(N=10)
    matrix, rhs = assemble(spec)
    coeffs = solve(spec)
    residual = matrix @ coeffs.coeffs - rhs
    scale = max(1.0, float(np.max(np.abs(rhs))))
    assert np.max(np.abs(residual)) <= 1e-10 * scale


def test_initial_conditions_hold():
    coeffs = solve(oscillator_spec(N=12))
    params = coeffs.params
    assert eval_interpolant(coeffs, 0.0) == pytest.approx(0.0, abs=1e-10)
    slopes = caputo_row(params, 1, coeffs.coeffs.size - 1, 0.0)
    slope = sum(c * slopes[i] for i, c in enumerate(coeffs.coeffs))
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_basset_manufactured_solution():
    coeffs = solve(basset_spec(N=10))
    assert max_abs_error(coeffs, lambda x: x ** 2 + 1.0, 1.0, 1001) <= 1e-10


def test_oscillator_error_decays_with_degree():
    errs = []
    for N in (5, 10):
        coeffs = solve(oscillator_spec(N))
        errs.append(max_abs_error(coeffs, np.sin, 1.0, 1001))
    assert errs[1] <= 1e-2 * errs[0]
    assert errs[1] <= 2e-7


@pytest.mark.filterwarnings("error")
def test_singular_system_raises_solver_error():
    zero = lambda x: 0.0
    order = OrderFunction.constant(0.5)
    spec = IvpSpec(params=LaguerreParams(1.0, 3.0), N=8, terms=terms(1, order, zero, zero, zero),
                   f=zero, initial=[0.0])
    # an exact zero pivot is a SolverError, with no numpy warning on the way
    with pytest.raises(SolverError, match="rcond") as info:
        solve(spec)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@pytest.mark.filterwarnings("error")
def test_non_finite_coefficients_name_N():
    # the system passes the rcond gate, but a forcing near the largest double
    # makes the solution overflow
    spec = IvpSpec(params=LaguerreParams(0.0, 1.0), N=8,
                   terms=terms(1, OrderFunction.constant(0.5)), f=lambda x: 1e308,
                   initial=[0.0])
    with pytest.raises(SolverError) as info:
        solve(spec)
    assert str(info.value) == "linear solve produced non-finite coefficients for N=8"


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


@pytest.mark.parametrize("key,value", [("N", math.inf), ("m", math.inf), ("N", True),
                                       ("m", True)], ids=["N", "m", "N-bool", "m-bool"])
def test_ivp_spec_rejects_infinite_integers(key, value):
    # a bool is no integer either: an order of True would be stored as 1; m is the
    # order of the integer term, term 0
    spec = basset_spec()
    fields = {name: getattr(spec, name) for name in inspect.signature(IvpSpec).parameters}
    if key == "N":
        change, name = {"N": value}, "N"
    else:
        change, name = {"terms": ((ONE, value),) + spec.terms[1:]}, "order of term 0"
    with pytest.raises(ValueError, match=f"^{name} must be"):
        IvpSpec(**{**fields, **change})


@pytest.mark.parametrize("rho,solved,refused", [(0.5, 22, 23), (1.5, 24, 25)])
def test_refusal_boundary(rho, solved, refused):
    """u = x^3 at (theta, beta) = (2, 4): the rcond gate passes the degree
    `solved` and refuses the next. rcond falls about sixfold per degree and
    lies 2-3x above and below eps at these two degrees."""
    order = OrderFunction.constant(rho)
    fractional = math.gamma(4.0) / math.gamma(4.0 - rho)
    if rho < 1.0:
        integer, m = (lambda x: 3.0 * x ** 2), 1
    else:
        integer, m = (lambda x: 6.0 * x), 2
    forcing = lambda x: integer(x) + fractional * x ** (3.0 - rho) + x ** 3

    def spec(N):
        return IvpSpec(params=LaguerreParams(2.0, 4.0), N=N, terms=terms(m, order),
                       f=forcing, initial=[0.0] * m)

    assert max_abs_error(solve(spec(solved)), lambda x: x ** 3, 1.0, 201) < 1e-11
    with pytest.raises(SolverError, match=f"N={refused}"):
        solve(spec(refused))


def test_solve_logs_condition_estimate(caplog):
    with caplog.at_level(logging.INFO, logger="lagfrac.solver"):
        solve(basset_spec(N=8))
    assert "rcond" in caplog.text


def test_nonfinite_forcing_rejected():
    spec = basset_spec(N=6)
    bad = IvpSpec(params=spec.params, N=6, terms=spec.terms, f=lambda x: math.inf,
                  initial=[1.0])
    with pytest.raises(ValueError, match="f"):
        assemble(bad)


def test_callables_are_sampled_once_on_the_node_array():
    shapes = []
    spec = basset_spec()
    forcing = spec.f

    def recording(x):
        shapes.append(x.shape)
        return forcing(x)

    counted = IvpSpec(params=spec.params, N=spec.N, terms=spec.terms, f=recording,
                      initial=[1.0])
    assert np.array_equal(assemble(counted)[0], assemble(spec)[0])
    assert shapes == [(spec.N,)]
    wrong = IvpSpec(params=spec.params, N=spec.N, terms=spec.terms, f=lambda x: np.ones(2),
                    initial=[1.0])
    with pytest.raises(ValueError, match="shape"):
        assemble(wrong)


def test_max_abs_error_validation():
    coeffs = solve(basset_spec(N=6))
    with pytest.raises(ValueError):
        max_abs_error(coeffs, lambda x: 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        max_abs_error(coeffs, lambda x: math.nan, 1.0, 11)
    with pytest.raises(ValueError):
        max_abs_error(coeffs, lambda x: 1.0, -1.0, 11)


@pytest.mark.filterwarnings("error")
def test_max_abs_error_of_finite_values_a_double_range_apart_is_inf():
    coeffs = InterpolantCoeffs(LaguerreParams(0.0, 1.0), [1e308])
    assert max_abs_error(coeffs, lambda x: -1e308 + 0 * x, 1.0, 11) == math.inf


def test_max_abs_error_rejects_infinite_grid_size():
    coeffs = solve(basset_spec(N=6))
    with pytest.raises(ValueError, match="^grid_size must be an integer"):
        max_abs_error(coeffs, lambda x: 1.0, 1.0, math.inf)



def test_max_abs_error_silences_warnings_inside_the_reference():
    # np.where evaluates sin(x)/x at x = 0 too; the other branch is chosen there
    coeffs = solve(basset_spec(N=6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = max_abs_error(coeffs, lambda x: np.where(x > 0, np.sin(x) / x, 1.0),
                              1.0, 11)
    assert error > 0.0


@pytest.mark.filterwarnings("error")
def test_max_abs_error_names_a_non_finite_expansion():
    # the expansion overflows on [0, 50]: a DomainError naming x, with no numpy warning
    coeffs = InterpolantCoeffs(LaguerreParams(0.0, 50.0), 1e300 * np.ones(200))
    with pytest.raises(DomainError, match=r"^expansion returned non-finite value .* at x="):
        max_abs_error(coeffs, np.sin, 50.0, 101)


@pytest.mark.filterwarnings("error")
def test_overflowing_system_is_a_solver_error():
    # a = 1e300 times the derivative rows leaves double range at some node
    spec = basset_spec(N=20)
    huge = IvpSpec(params=spec.params, N=20, terms=terms(1, OrderFunction.constant(0.5),
                                                        a=lambda x: 1e300),
                   f=spec.f, initial=[1.0])
    with pytest.raises(SolverError, match=r"^collocation system for N=20 leaves double "
                                          r"range in its row at x=\d"):
        solve(huge)
