import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lagfrac import (
    DomainError,
    LaguerreParams,
    OrderFunction,
    caputo_exp_exact,
    caputo_of_sin,
    caputo_power_rule,
    caputo_row,
    collocation_nodes,
    derivative_basis,
    eval_basis,
    frac_integral_basis,
    gauss_rule,
    interpolate,
    log_gamma,
    vo_derivative,
    vo_integral,
)
from lagfrac.fractional import _frac_ladder


def quad_frac_integral(params, rho, i, x):
    """Adaptive quadrature of the defining integral with its endpoint weight."""
    integrand = lambda t: eval_basis(params, i, t)[i]
    value, _ = quad(integrand, 0.0, x, weight="alg", wvar=(0.0, rho - 1.0),
                    limit=200)
    return value / math.gamma(rho)


@pytest.mark.parametrize("theta,beta", [(0.0, 1.0), (1.0, 3.0), (2.0, 4.0)])
@pytest.mark.parametrize("rho", [0.3, 0.5, 0.9, 1.5])
def test_frac_integral_matches_quadrature(theta, beta, rho):
    params = LaguerreParams(theta, beta)
    order = OrderFunction.constant(rho)
    for x in (0.2, 1.0, 3.0):
        values = frac_integral_basis(params, order, 8, x)
        assert values.shape == (9,)
        for i in range(9):
            assert abs(values[i] - quad_frac_integral(params, rho, i, x)) <= 1e-8
    # under a variable order a point array gives one column per point, each
    # the quadrature at that point's own order
    variable = OrderFunction.from_callable(lambda x: rho + 0.2 * np.sin(3.0 * x), 3.0)
    xs = np.array([0.0, 0.2, 1.0, 3.0])
    columns = frac_integral_basis(params, variable, 8, xs)
    assert np.array_equal(columns,
                          np.column_stack([frac_integral_basis(params, variable, 8, x)
                                           for x in xs]))
    assert np.all(columns[:, 0] == 0.0)
    for x, column in zip(xs[1:], columns.T[1:]):
        rho_x = float(variable.eval(x))
        for i in range(9):
            assert abs(column[i] - quad_frac_integral(params, rho_x, i, x)) <= 1e-8


def test_degree_one_value_carries_leading_factor():
    # at theta=1, beta=3, rho=1/2, x=1 the degree-1 value is
    # (theta+1)/Gamma(1.5) - beta/Gamma(2.5), which cancels to zero exactly;
    # without the (theta+1) factor it would be -1.128...
    values = frac_integral_basis(LaguerreParams(1.0, 3.0), OrderFunction.constant(0.5), 1, 1.0)
    assert values[0] == pytest.approx(1.0 / math.gamma(1.5), rel=1e-13)
    assert abs(values[1]) <= 5e-14


def test_frac_integral_basis_at_origin():
    values = frac_integral_basis(LaguerreParams(2.0, 6.0), OrderFunction.constant(0.7), 6, 0.0)
    assert np.all(values == 0.0)


def test_frac_integral_basis_validation():
    params = LaguerreParams(0.0, 1.0)
    # bounds are not the values: each evaluation checks the order it samples
    for value in (0.0, -0.5):
        lying = OrderFunction(eval=lambda x, _v=value: _v, rho_min=0.5, rho_max=0.5)
        with pytest.raises(DomainError, match=f"got {value} at x=1.0"):
            frac_integral_basis(params, lying, 3, 1.0)
    with pytest.raises(DomainError):
        frac_integral_basis(params, OrderFunction.constant(0.5), 3, -1.0)
    with pytest.raises(ValueError, match="max_degree"):
        frac_integral_basis(params, OrderFunction.constant(0.5), 2.5, 1.0)


def test_vo_integral_of_constant_function():
    # I^{rho(x)} 1 = x^rho(x) / Gamma(rho(x) + 1)
    params = LaguerreParams(1.0, 3.0)
    rule = gauss_rule(params, 10)
    coeffs = interpolate(rule, np.ones_like(rule.nodes))
    order = OrderFunction.from_callable(lambda x: (9.0 + np.sin(x)) / 10.0, 2.0)
    value = vo_integral(coeffs, order, 1.0)
    rho1 = (9.0 + math.sin(1.0)) / 10.0
    assert type(value) is float
    assert value == pytest.approx(1.0 / math.gamma(rho1 + 1.0), rel=1e-10)
    assert value == pytest.approx(1.0066430157434316, rel=1e-10)
    xs = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(vo_integral(coeffs, order, xs),
                               [vo_integral(coeffs, order, x) for x in xs],
                               rtol=1e-14, atol=0.0)


def test_vo_integral_constant_order_reduction():
    # constant order runs through the same recurrence, so values agree exactly
    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 12)
    coeffs = interpolate(rule, np.exp(rule.nodes / 2.0))
    order = OrderFunction.constant(0.8)
    for x in (0.0, 0.4, 1.3):
        direct = float(np.dot(coeffs.coeffs, frac_integral_basis(params, order, 12, x)))
        assert vo_integral(coeffs, order, x) == direct


def test_vo_integral_semigroup():
    # I^{0.3} I^{0.7} u recomposed through re-interpolation matches I^{1.0} u;
    # the re-interpolation dominates the error budget
    params = LaguerreParams(2.0, 8.0)
    rule = gauss_rule(params, 20)
    coeffs = interpolate(rule, rule.nodes ** 2)
    inner = OrderFunction.constant(0.7)
    part = np.array([vo_integral(coeffs, inner, x) for x in rule.nodes])
    recombined = interpolate(rule, part)
    outer = OrderFunction.constant(0.3)
    full = OrderFunction.constant(1.0)
    for x in (0.5, 1.0):
        direct = vo_integral(coeffs, full, x)
        assert direct == pytest.approx(x ** 3 / 3.0, rel=1e-10)
        assert vo_integral(recombined, outer, x) == pytest.approx(direct, abs=1e-6)


def test_vo_integral_rejects_nonpositive_order():
    params = LaguerreParams(0.0, 1.0)
    rule = gauss_rule(params, 4)
    coeffs = interpolate(rule, np.ones_like(rule.nodes))
    shrinking = OrderFunction(eval=lambda x: 0.5 - x, rho_min=1e-3, rho_max=0.5)
    with pytest.raises(DomainError):
        vo_integral(coeffs, shrinking, 0.75)


def expression_frac_ladder(params, rho, max_degree, x):
    """The fractional ladder as written before its steps went in place, and the
    same recurrence on the magnitudes of its terms.

    Each degree row is one expression with temporaries, in that expression's
    operation order. The magnitudes (every coefficient and term taken by its
    absolute value, each sum by the sum of its parts' magnitudes) scale the
    rounding of either operation order.
    """
    theta, beta = params.theta, params.beta
    out = np.zeros((max_degree + 1, x.size))
    size = np.zeros((max_degree + 1, x.size))
    pos = x > 0.0
    log_x = np.log(np.where(pos, x, 1.0))
    head = np.where(pos, np.exp(rho * log_x - log_gamma(rho + 1.0)), 0.0)
    out[0] = size[0] = head
    if max_degree >= 1:
        out[1] = (theta + 1.0) * head - beta * (head * x / (rho + 1.0))
        size[1] = (abs(theta) + 1.0) * head + beta * (head * x / (rho + 1.0))
    correction = head * rho
    zero_val = theta + 1.0
    bx = beta * x
    for i in range(1, max_degree):
        drop = -theta * zero_val / (i + 1.0)
        out[i + 1] = ((2.0 * i + theta + rho + 1.0 - bx) * out[i]
                      - (i + theta) * out[i - 1]
                      - correction * drop) / (i + rho + 1.0)
        size[i + 1] = ((2.0 * i + abs(theta) + rho + 1.0 + bx) * size[i]
                       + abs(i + theta) * size[i - 1]
                       + correction * abs(drop)) / (i + rho + 1.0)
        zero_val *= (i + theta + 1.0) / (i + 1.0)
    return out, size


orders_in_0_2 = st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-1.0, 10.0, exclude_min=True), beta=st.floats(0.5, 10.0),
       N=st.integers(0, 120), rho=orders_in_0_2, variable=st.booleans(), data=st.data())
def test_frac_ladder_matches_expression_order(theta, beta, N, rho, variable, data):
    params = LaguerreParams(theta, beta)
    top = float(gauss_rule(params, max(N, 1)).nodes[-1])
    xs = np.array(data.draw(st.lists(st.floats(0.0, top), min_size=1, max_size=12),
                            label="xs"))
    if variable:
        rho = np.array(data.draw(st.lists(orders_in_0_2, min_size=xs.size,
                                          max_size=xs.size), label="rho"))
    orders = np.broadcast_to(rho, xs.shape).astype(float)
    got = _frac_ladder(params, orders, N, xs)
    want, size = expression_frac_ladder(params, orders, N, xs)
    # degree i of either order is within a few (i + 1) eps of its term
    # magnitudes; the two orders differ by at most 0.86 eps (i + 1) times
    # those over 15000 random cases with theta down to -1 + 1e-16, rho down to
    # 1e-300 and x from 5e-324 to the largest node (rows 0 and 1 are equal)
    bound = 4e-16 * np.arange(1.0, N + 2.0)[:, None] * size
    assert np.all(np.abs(got - want) <= bound)
    assert np.array_equal(got[:2], want[:2])


def mpmath_frac_ladder(params, rho, max_degree, x, dps=30):
    """The ladder recurrence run in dps-digit mpmath from the same doubles."""
    mpmath = pytest.importorskip("mpmath")
    out = np.zeros((max_degree + 1, x.size))
    with mpmath.workdps(dps):
        theta, beta = mpmath.mpf(params.theta), mpmath.mpf(params.beta)
        for j, (r, t) in enumerate(zip(rho.tolist(), x.tolist())):
            r, t = mpmath.mpf(r), mpmath.mpf(t)
            head = t ** r / mpmath.gamma(r + 1)
            column = [head, (theta + 1) * head - beta * head * t / (r + 1)]
            zero_val = theta + 1
            for i in range(1, max_degree):
                drop = -theta * zero_val / (i + 1)
                column.append(((2 * i + theta + r + 1 - beta * t) * column[i]
                               - (i + theta) * column[i - 1] - head * r * drop) / (i + r + 1))
                zero_val *= (i + theta + 1) / mpmath.mpf(i + 1)
            out[:, j] = [float(v) for v in column[:max_degree + 1]]
    return out


def test_frac_ladder_error_against_mpmath_at_degree_80():
    # example1's (2, 6) under a variable order, on points up to the largest node
    params = LaguerreParams(2.0, 6.0)
    xs = np.linspace(0.0, gauss_rule(params, 80).nodes[-1], 41)[1:]
    rho = 0.5 + 0.4 * np.sin(3.0 * xs)
    exact = mpmath_frac_ladder(params, rho, 80, xs)
    # each degree against the largest of the values its step combines: a
    # plain relative error blows up wherever a degree crosses zero
    window = np.abs(exact)
    window[1:] = np.maximum(window[1:], np.abs(exact[:-1]))
    window[2:] = np.maximum(window[2:], np.abs(exact[:-2]))
    error = lambda values: np.max(np.abs(values - exact) / window)
    # measured: 2.1e-14 in place against 1.6e-14 in the expression order
    assert error(_frac_ladder(params, rho, 80, xs)) <= 2.0 * error(
        expression_frac_ladder(params, rho, 80, xs)[0])


def test_caputo_row_matches_quadrature():
    # order in (1,2): two integer derivatives, then an integral of order 2-rho
    params = LaguerreParams(2.0, 4.0)
    order = OrderFunction.constant(1.5)
    xs = np.array([0.4, 0.8, 1.6])
    # a point array gives one column per point
    assert np.array_equal(caputo_row(params, order, 6, xs),
                          np.column_stack([caputo_row(params, order, 6, x) for x in xs]))
    for x in xs:
        row = caputo_row(params, order, 6, x)
        assert row.shape == (7,)
        assert row[0] == 0.0 and row[1] == 0.0
        for i in range(2, 7):
            integrand = lambda t, _i=i: derivative_basis(params, _i, 2, t)
            val, _ = quad(integrand, 0.0, x, weight="alg", wvar=(0.0, -0.5),
                          limit=200)
            assert abs(row[i] - val / math.gamma(0.5)) <= 1e-8


def test_vo_derivative_linearity():
    params = LaguerreParams(2.0, 4.0)
    rule = gauss_rule(params, 10)
    u = interpolate(rule, np.sin(rule.nodes))
    v = interpolate(rule, np.exp(rule.nodes / 3.0))
    combo = interpolate(rule, 2.5 * np.sin(rule.nodes)
                        - 1.25 * np.exp(rule.nodes / 3.0))
    order = OrderFunction.constant(0.6)
    for x in (0.3, 1.0, 2.2):
        lhs = vo_derivative(combo, order, x)
        rhs = 2.5 * vo_derivative(u, order, x) - 1.25 * vo_derivative(v, order, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("theta,beta", [(2.0, 6.0), (0.0, 1.0)])
@pytest.mark.parametrize("rho", [0.5, 1.5])
def test_vo_derivative_contracts_caputo_row(theta, beta, rho):
    params = LaguerreParams(theta, beta)
    rule = gauss_rule(params, 40)
    coeffs = interpolate(rule, np.exp(rule.nodes))
    order = OrderFunction.from_callable(lambda x: rho + 0.3 * np.sin(x), 1.0)
    xs = np.linspace(0.0, 1.0, 101)
    rows = caputo_row(params, order, 40, xs)
    # rtol 1e-14 of the terms' magnitudes (the worst here is 7.4e-16): at
    # (0, 1) with n = 1 the terms cancel to 1/1760 of their size and the two
    # sums differ by 7e-14 of the value, at (2, 6) by at most 1e-15
    size = np.abs(coeffs.coeffs) @ np.abs(rows)
    assert np.all(np.abs(vo_derivative(coeffs, order, xs) - coeffs.coeffs @ rows)
                  <= 1e-14 * size)
    value = vo_derivative(coeffs, order, 0.7)
    assert type(value) is float
    row = caputo_row(params, order, 40, 0.7)
    assert abs(value - coeffs.coeffs @ row) <= 1e-14 * (np.abs(coeffs.coeffs) @ np.abs(row))


def test_vo_derivative_below_degree_n_is_zero():
    # degree 1 under an order in (1, 2): both basis polynomials are annihilated
    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 1)
    coeffs = interpolate(rule, np.exp(rule.nodes))
    order = OrderFunction.constant(1.5)
    value = vo_derivative(coeffs, order, 0.7)
    assert type(value) is float and value == 0.0
    xs = np.array([0.0, 0.3, 1.0])
    assert np.array_equal(vo_derivative(coeffs, order, xs), np.zeros(3))
    assert np.array_equal(caputo_row(params, order, 1, xs), np.zeros((2, 3)))


def test_vo_derivative_polynomial_vs_power_rule():
    params = LaguerreParams(1.0, 3.0)
    rule = gauss_rule(params, 6)
    coeffs = interpolate(rule, rule.nodes ** 3 + 2.0 * rule.nodes - 5.0)
    order = OrderFunction.constant(0.5)
    xs = np.linspace(0.1, 2.0, 20)
    for x in xs:
        ref = (caputo_power_rule(3.0, 0.5, 1, x)
               + 2.0 * caputo_power_rule(1.0, 0.5, 1, x))
        got = vo_derivative(coeffs, order, x)
        assert type(got) is float
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
    np.testing.assert_allclose(vo_derivative(coeffs, order, xs),
                               [vo_derivative(coeffs, order, x) for x in xs],
                               rtol=1e-14, atol=0.0)


def test_vo_derivative_variable_order_cubic():
    params = LaguerreParams(3.0, 6.0)
    rule = gauss_rule(params, 8)
    coeffs = interpolate(rule, rule.nodes ** 3)
    order = OrderFunction.from_callable(
        lambda x: (9.0 + np.sin(x - 10.0)) / 5.0, 1.0)
    assert order.n == 2
    xs = np.linspace(0.05, 1.0, 15)
    for x in xs:
        ref = caputo_power_rule(3.0, order.eval(x), 2, x)
        got = vo_derivative(coeffs, order, x)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
    np.testing.assert_allclose(vo_derivative(coeffs, order, xs),
                               [vo_derivative(coeffs, order, x) for x in xs],
                               rtol=1e-14, atol=0.0)


def test_vo_derivative_of_sin_interpolant():
    params = LaguerreParams(3.0, 6.0)
    rule = gauss_rule(params, 20)
    coeffs = interpolate(rule, np.sin(rule.nodes))
    order = OrderFunction.constant(1.5)
    for x in np.linspace(0.1, 1.0, 10):
        assert vo_derivative(coeffs, order, x) == pytest.approx(
            caputo_of_sin(order, x), abs=1e-10)


@pytest.mark.parametrize("x,error", [(-0.5, DomainError), (math.nan, DomainError),
                                     (np.array([0.5, -0.5]), DomainError),
                                     (np.array([0.5, math.nan]), DomainError),
                                     (np.full((2, 2), 0.5), ValueError)])
def test_operators_reject_bad_points(x, error):
    params = LaguerreParams(1.0, 3.0)
    rule = gauss_rule(params, 6)
    coeffs = interpolate(rule, np.exp(rule.nodes))
    order = OrderFunction.constant(0.5)
    with pytest.raises(error):
        vo_integral(coeffs, order, x)
    with pytest.raises(error):
        vo_derivative(coeffs, order, x)
    with pytest.raises(error):
        caputo_row(params, order, 6, x)
    with pytest.raises(error):
        frac_integral_basis(params, order, 6, x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e300, np.array([1.0, 1e300])], ids=["scalar", "array"])
def test_operators_leaving_double_range_raise_domain_error(x):
    # x^rho overflows; the error names the point, and no numpy warning leaks
    params = LaguerreParams(0.0, 1.0)
    rule = gauss_rule(params, 4)
    coeffs = interpolate(rule, rule.nodes)
    order = OrderFunction.constant(0.5)
    calls = [lambda: frac_integral_basis(params, order, 4, x),
             lambda: caputo_row(params, order, 4, x),
             lambda: vo_integral(coeffs, order, x),
             lambda: vo_derivative(coeffs, order, x)]
    for call in calls:
        with pytest.raises(DomainError, match="x=1e"):
            call()


def test_caputo_power_rule_values():
    assert caputo_power_rule(3.0, 1.5, 2, 1.0) == pytest.approx(
        6.0 / math.gamma(2.5), rel=1e-12)
    assert caputo_power_rule(1.0, 0.5, 1, 4.0) == pytest.approx(
        2.0 / math.gamma(1.5), rel=1e-12)


def test_caputo_power_rule_annihilates_low_powers():
    assert caputo_power_rule(0.0, 0.5, 1, 1.0) == 0.0
    assert caputo_power_rule(0.0, 1.5, 2, 1.0) == 0.0
    assert caputo_power_rule(1.0, 1.5, 2, 2.0) == 0.0


def test_caputo_power_rule_validation():
    with pytest.raises(DomainError):
        caputo_power_rule(2.0, 1.5, 1, 1.0)
    with pytest.raises(DomainError):
        caputo_power_rule(2.0, 0.5, 1, 0.0)
    with pytest.raises(ValueError):
        caputo_power_rule(-1.0, 0.5, 1, 1.0)


def test_caputo_power_rule_saturates_to_inf_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert caputo_power_rule(3.0, 0.5, 1, 1e300) == math.inf
        values = caputo_power_rule(3.0, np.array([0.5, 0.5]), 1, np.array([1e300, 2.0]))
    assert values[0] == math.inf
    assert values[1] == caputo_power_rule(3.0, 0.5, 1, 2.0)


def test_caputo_exp_exact_saturates_to_inf_silently():
    order = OrderFunction.constant(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert caputo_exp_exact(order, 720.0) == math.inf
        values = caputo_exp_exact(order, np.array([1.0, 720.0]))
    assert values[1] == math.inf
    assert values[0] == caputo_exp_exact(order, 1.0)


def test_caputo_exp_exact_values():
    order = OrderFunction.constant(0.5)
    assert caputo_exp_exact(order, 0.0) == 0.0
    assert caputo_exp_exact(order, 1.0) == pytest.approx(2.2906982523032386,
                                                         rel=1e-13)
    # n - rho matches the n=1 case above, so the value coincides
    assert caputo_exp_exact(OrderFunction.constant(1.5), 1.0) == pytest.approx(
        2.2906982523032386, rel=1e-13)


def test_caputo_of_sin_second_order_window():
    order = OrderFunction.constant(1.5)
    assert caputo_of_sin(order, 0.0) == 0.0
    for x in (0.3, 1.0, 3.0, 8.0):
        val, _ = quad(lambda t: -math.sin(t), 0.0, x, weight="alg",
                      wvar=(0.0, -0.5), limit=400)
        oracle = val / math.gamma(0.5)
        assert abs(caputo_of_sin(order, x) - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_caputo_of_sin_first_order_window():
    order = OrderFunction.constant(0.5)
    assert caputo_of_sin(order, 0.0) == 0.0
    for x in (0.5, 2.0, 10.0):
        val, _ = quad(math.cos, 0.0, x, weight="alg", wvar=(0.0, -0.5), limit=400)
        oracle = val / math.gamma(0.5)
        assert abs(caputo_of_sin(order, x) - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_caputo_of_sin_far_from_origin():
    # a fixed-length float64 series is useless at x = 40; the adaptive
    # summation must still deliver full precision (reference: 40-digit
    # quadrature of the defining integral)
    value = caputo_of_sin(OrderFunction.constant(1.5), 40.0)
    assert value == pytest.approx(-1.0876356101940467, rel=1e-12)


def test_caputo_of_sin_large_x():
    # a series summed term by term went wrong here (252.52 at x = 300) and
    # overflowed to inf from x near 790
    order = OrderFunction.constant(1.5)
    val, _ = quad(lambda t: -math.sin(t), 0.0, 300.0, weight="alg",
                  wvar=(0.0, -0.5), limit=2000)
    oracle = val / math.gamma(0.5)
    assert abs(caputo_of_sin(order, 300.0) - oracle) <= 1e-9 * max(1.0, abs(oracle))
    assert caputo_of_sin(order, 790.0) == pytest.approx(0.6047, abs=1e-4)


def test_closed_forms_take_arrays():
    # points on both sides of caputo_of_sin's series / continued-fraction switch
    order = OrderFunction.from_callable(lambda x: 1.5 + 0.3 * np.sin(3.0 * x), 8.0)
    xs = np.concatenate([np.linspace(0.0, 8.0, 17),
                         [np.nextafter(3.0, 0.0), np.nextafter(3.0, 4.0)]])
    for func in (caputo_exp_exact, caputo_of_sin):
        values = func(order, xs)
        assert values.shape == xs.shape
        assert np.array_equal(values, [func(order, x) for x in xs])
    rho = order.eval(xs[1:])
    powers = caputo_power_rule(3.0, rho, 2, xs[1:])
    assert np.array_equal(powers, [caputo_power_rule(3.0, r, 2, x)
                                   for r, x in zip(rho, xs[1:])])
    assert np.array_equal(caputo_power_rule(1.0, rho, 2, xs[1:]), np.zeros(xs.size - 1))
    with pytest.raises(DomainError):
        caputo_power_rule(3.0, rho, 2, xs)


def test_order_function_constant():
    order = OrderFunction.constant(0.5)
    assert order.n == 1
    assert order.rho_min == order.rho_max == 0.5
    assert OrderFunction.constant(1.2).n == 2
    with pytest.raises(ValueError):
        OrderFunction.constant(-0.5)
    with pytest.raises(ValueError):
        OrderFunction.constant(0.0)


def test_order_function_from_callable_excludes_origin():
    # rho touches 1 exactly at x = 0; bounds are certified on (0, L] so the
    # order is still usable as a second-window derivative order
    order = OrderFunction.from_callable(
        lambda x: 1.0 + 0.5 * np.abs(np.sin(x)), math.pi / 2.0)
    assert order.n == 2
    assert order.rho_min > 1.0
    assert order.rho_max == pytest.approx(1.5, abs=1e-6)


def test_order_callables_take_arrays():
    # a scalar return is broadcast over the sample
    constant = OrderFunction.from_callable(lambda x: 0.5, 1.0)
    assert constant.rho_min == constant.rho_max == 0.5
    with pytest.raises(ValueError, match="shape"):
        OrderFunction.from_callable(lambda x: np.full(3, 0.5), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        OrderFunction.from_callable(lambda x: np.where(x > 0.5, np.nan, 0.5), 1.0)
    # scalar-only callables fail loudly rather than being looped over
    with pytest.raises(TypeError):
        OrderFunction.from_callable(lambda x: (9.0 + math.sin(x)) / 10.0, 1.0)


def test_order_may_touch_lower_integer_at_origin_only():
    params = LaguerreParams(1.0, 6.0)
    touching = OrderFunction.from_callable(lambda x: 1.0 + 0.5 * np.abs(np.sin(x)), 1.0)
    assert np.all(caputo_row(params, touching, 6, 0.0) == 0.0)
    assert caputo_exp_exact(touching, 0.0) == 0.0
    assert caputo_of_sin(touching, 0.0) == 0.0
    # 1.4 - 0.4 rounds to 0.9999999999999999: touching up to rounding counts
    rounded = OrderFunction.from_callable(lambda x: 1.4 - 0.4 * np.cos(x), 1.0)
    assert rounded.eval(0.0) < 1.0
    assert np.all(caputo_row(params, rounded, 6, 0.0) == 0.0)
    assert caputo_exp_exact(rounded, 0.0) == 0.0
    assert caputo_of_sin(rounded, 0.0) == 0.0
    below = OrderFunction(eval=lambda x: np.where(x == 0.0, 1.0 - 1e-9, 1.5),
                          rho_min=1.5, rho_max=1.5)
    for op in (lambda: caputo_row(params, below, 6, 0.0),
               lambda: caputo_exp_exact(below, 0.0), lambda: caputo_of_sin(below, 0.0)):
        with pytest.raises(DomainError, match="order value 0.999999999 at x=0.0"):
            op()
    upper = OrderFunction.from_callable(lambda x: 2.0 - 0.5 * np.abs(np.sin(x)), 1.0)
    with pytest.raises(DomainError, match="order value 2.0 at x=0.0"):
        caputo_row(params, upper, 6, 0.0)
    lower = OrderFunction(eval=lambda x: np.where(x < 0.5, 1.0, 1.5),
                          rho_min=1.0 + 1e-6, rho_max=1.5)
    with pytest.raises(DomainError, match="order value 1.0 at x=0.25"):
        caputo_exp_exact(lower, np.array([0.0, 0.25]))


def test_order_function_validation():
    with pytest.raises(ValueError):
        OrderFunction(eval=lambda x: 0.5, rho_min=0.9, rho_max=0.5)
    with pytest.raises(ValueError):
        OrderFunction(eval=lambda x: 0.5, rho_min=-0.1, rho_max=0.5)
    with pytest.raises(ValueError):
        OrderFunction.from_callable(lambda x: -x, 1.0)
    assert OrderFunction(eval=lambda x: 1.5, rho_min=1.2, rho_max=1.7).n == 2


@pytest.mark.parametrize("call,name", [
    (lambda: caputo_power_rule(2.0, 0.5, math.inf, 1.0), "n"),
], ids=["caputo_power_rule-n"])
def test_infinite_integer_argument_is_value_error(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_derivative_window_gating():
    params = LaguerreParams(1.0, 3.0)
    with pytest.raises(DomainError):
        caputo_row(params, OrderFunction.constant(2.5), 5, 1.0)
    edge = OrderFunction(eval=lambda x: 1.0, rho_min=1.0, rho_max=1.0)
    with pytest.raises(DomainError):
        caputo_row(params, edge, 5, 1.0)


def test_pointwise_window_check_catches_lying_bounds():
    params = LaguerreParams(1.0, 3.0)
    sneaky = OrderFunction(eval=lambda x: np.where(x < 1.0, 0.5, 1.5),
                           rho_min=0.5, rho_max=0.9)
    caputo_row(params, sneaky, 5, 0.5)
    with pytest.raises(DomainError):
        caputo_row(params, sneaky, 5, 2.0)


def assert_matches_mpmath(got, rho, xs, n):
    """got against 40-digit Im[i^rho e^(ix) P(n - rho, ix)] at the float inputs."""
    mpmath = pytest.importorskip("mpmath")
    ref = []
    with mpmath.workdps(40):
        for r, x in zip(rho, xs):
            r, x = mpmath.mpf(r), mpmath.mpf(x)
            ref.append(float(mpmath.im(mpmath.expjpi(r / 2) * mpmath.expj(x)
                                       * mpmath.gammainc(n - r, 0, 1j * x, regularized=True))))
    ref = np.array(ref)
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 4e-15, (xs[err.argmax()], rho[err.argmax()], err.max())


@pytest.mark.parametrize("n", [1, 2])
def test_caputo_of_sin_matches_mpmath(n):
    # 250 random points on each side of the series / continued-fraction
    # switch at x = 3, then the switch itself, the far ends, and the nodes
    # where example2 evaluates its forcing at N = 20
    rng = np.random.default_rng(20 + n)
    switch = [np.nextafter(3.0, 0.0), 3.0, np.nextafter(3.0, 4.0), 3.0 - 1e-9, 3.0 + 1e-9]
    nodes = [collocation_nodes(LaguerreParams(theta, beta), 20, 19)
             for theta, beta in [(0.0, 1.0), (2.0, 4.0), (3.0, 6.0)]]
    xs = np.concatenate([rng.uniform(0.0, 3.0, 250), rng.uniform(3.0, 120.0, 250),
                         switch, [1e-300, 300.0, 790.0], *nodes])
    rho = rng.uniform(n - 1.0, n, xs.size)
    got = np.array([caputo_of_sin(OrderFunction.constant(r), x) for r, x in zip(rho, xs)])
    assert_matches_mpmath(got, rho, xs, n)


def test_caputo_of_sin_variable_order_matches_mpmath():
    order = OrderFunction.from_callable(lambda x: 1.5 + 0.45 * np.sin(3.0 * x), 130.0)
    xs = np.concatenate([np.linspace(0.0, 6.0, 61), np.linspace(6.5, 130.0, 40)])
    got = caputo_of_sin(order, xs)
    assert got[0] == 0.0
    assert_matches_mpmath(got[1:], order.eval(xs[1:]), xs[1:], 2)


@pytest.mark.parametrize("done,stuck", [(1e-300, 2.0), (1e6, 10.0)])
def test_caputo_of_sin_step_cap_is_an_error(monkeypatch, done, stuck):
    # the first point converges within the cap, the second does not
    import lagfrac.fractional as fractional
    monkeypatch.setattr(fractional, "_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match=f"x={stuck}"):
        caputo_of_sin(OrderFunction.constant(1.5), np.array([done, stuck]))
