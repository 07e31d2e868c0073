import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfrac import (
    InterpolantCoeffs,
    LaguerreParams,
    QuadratureRule,
    derivative_basis,
    eval_basis,
    eval_interpolant,
    gauss_rule,
    interpolate,
    norm,
    value_at_zero,
)
from lagfrac import laguerre
from lagfrac.solver import collocation_nodes

PARAMS = [(0.0, 1.0), (1.0, 3.0), (2.0, 6.0), (0.5, 2.0)]


def explicit_low_degrees(theta, beta, x):
    l0 = np.ones_like(x)
    l1 = theta + 1.0 - beta * x
    l2 = ((theta + 1.0) * (theta + 2.0) / 2.0 - beta * (theta + 2.0) * x
          + beta ** 2 * x ** 2 / 2.0)
    return l0, l1, l2


@pytest.mark.parametrize("theta,beta", PARAMS)
def test_eval_basis_low_degrees(theta, beta):
    params = LaguerreParams(theta, beta)
    xs = np.linspace(0.0, 5.0, 41)
    vals = eval_basis(params, 2, xs)
    for row, ref in zip(vals, explicit_low_degrees(theta, beta, xs)):
        assert np.allclose(row, ref, rtol=1e-13, atol=1e-13)


def test_eval_basis_shapes():
    params = LaguerreParams(1.0, 2.0)
    assert eval_basis(params, 3, 0.7).shape == (4,)
    assert eval_basis(params, 3, np.array([0.1, 0.2])).shape == (4, 2)
    assert eval_basis(params, 0, 1.0).shape == (1,)


@pytest.mark.parametrize("theta,beta", [(-1.0, 1.0), (-2.0, 1.0), (1.0, 0.0),
                                        (1.0, -3.0), (math.nan, 1.0)])
def test_params_validation(theta, beta):
    with pytest.raises(ValueError):
        LaguerreParams(theta, beta)


@pytest.mark.parametrize("theta,beta", PARAMS)
def test_value_at_zero_matches_basis(theta, beta):
    params = LaguerreParams(theta, beta)
    at_zero = eval_basis(params, 8, 0.0)
    for i in range(9):
        ref = math.gamma(i + theta + 1.0) / (math.gamma(i + 1.0) * math.gamma(theta + 1.0))
        assert value_at_zero(params, i) == pytest.approx(ref, rel=1e-13)
        assert at_zero[i] == pytest.approx(ref, rel=1e-12)
    # a degree array gives the scalar values bit for bit, in its own order
    stacked = [value_at_zero(params, i) for i in range(9)]
    assert all(type(value) is float for value in stacked)
    assert np.array_equal(value_at_zero(params, np.arange(9)), stacked)
    assert np.array_equal(value_at_zero(params, [7, 0, 3]),
                          [stacked[7], stacked[0], stacked[3]])


def test_derivative_basis_zero_below_order():
    params = LaguerreParams(1.0, 3.0)
    assert derivative_basis(params, 0, 1, 0.7) == 0.0
    assert derivative_basis(params, 1, 2, 0.7) == 0.0
    # m = 0 returns the plain value
    assert derivative_basis(params, 4, 0, 0.7) == pytest.approx(
        eval_basis(params, 4, 0.7)[4], rel=1e-14)


@pytest.mark.parametrize("theta,beta", PARAMS)
@pytest.mark.parametrize("i", [1, 2, 5, 9])
def test_derivative_basis_vs_finite_difference(theta, beta, i):
    params = LaguerreParams(theta, beta)
    h = 1e-6
    for x in (0.4, 1.1, 2.7):
        plus = eval_basis(params, i, x + h)[i]
        minus = eval_basis(params, i, x - h)[i]
        fd = (plus - minus) / (2.0 * h)
        exact = derivative_basis(params, i, 1, x)
        assert abs(fd - exact) <= 2e-5 * max(1.0, abs(exact))


def test_second_derivative_vs_finite_difference():
    params = LaguerreParams(2.0, 4.0)
    h = 1e-5
    for x in (0.5, 1.5):
        fd = (derivative_basis(params, 6, 1, x + h)
              - derivative_basis(params, 6, 1, x - h)) / (2.0 * h)
        exact = derivative_basis(params, 6, 2, x)
        assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))


def test_norm_known_value():
    # theta=2, beta=6, i=4: Gamma(7) / (6^3 Gamma(5))
    params = LaguerreParams(2.0, 6.0)
    assert norm(params, 4) == pytest.approx(720.0 / (216.0 * 24.0), rel=1e-13)


def test_norm_past_double_range_is_inf_without_warning():
    # the array form overflows like the scalar form: to inf, with no numpy warning
    params = LaguerreParams(150.0, 0.1)
    singles = [norm(params, i) for i in range(3)]
    assert singles == [math.inf] * 3
    assert np.array_equal(norm(params, np.arange(3)), singles)


def test_norm_with_beta_power_past_double_range_is_inf():
    # 0.1^-401 alone overflows; so does the norm, to inf without a warning
    params = LaguerreParams(400.0, 0.1)
    assert norm(params, 0) == math.inf
    assert np.array_equal(norm(params, np.arange(3)), [math.inf] * 3)
    with pytest.raises(RuntimeError, match="N=5"):
        gauss_rule(params, 5)


def test_norm_in_range_with_factors_out_of_range():
    # Gamma(201) overflows and 1000^-201 underflows, but gamma_0 = 7.9e-229
    params = LaguerreParams(200.0, 1000.0)
    want = [math.exp(math.lgamma(i + 201.0) - math.lgamma(i + 1.0) - 201.0 * math.log(1000.0))
            for i in range(3)]
    assert norm(params, 0) == pytest.approx(want[0], rel=1e-12)
    assert norm(params, np.arange(3)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("theta,beta", PARAMS)
def test_norm_matches_quadrature(theta, beta):
    params = LaguerreParams(theta, beta)
    for i in (0, 1, 3, 7):
        rule = gauss_rule(params, i)  # exact through degree 2i + 1
        vals = eval_basis(params, i, rule.nodes)[i]
        discrete = float(np.dot(rule.weights, vals ** 2))
        assert discrete == pytest.approx(norm(params, i), rel=1e-12)
    stacked = [norm(params, i) for i in (7, 0, 1, 3)]
    assert all(type(value) is float for value in stacked)
    assert np.array_equal(norm(params, np.array([7, 0, 1, 3])), stacked)


@pytest.mark.parametrize("func", [value_at_zero, norm])
@pytest.mark.parametrize("degrees", [-1, 2.5, [0, -1, 2], [0, 1.5], [0, math.nan],
                                     [0, math.inf], [[0, 1]]])
def test_degree_validation(func, degrees):
    with pytest.raises(ValueError):
        func(LaguerreParams(1.0, 3.0), degrees)


def test_gauss_rule_two_point_nodes():
    # zeros of L_2 for theta=0, beta=1 sit at 2 +/- sqrt(2)
    rule = gauss_rule(LaguerreParams(0.0, 1.0), 1)
    assert rule.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)],
                                       rel=1e-13)
    assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-13)


def test_gauss_rule_moment():
    # integral of x^5 against x^2 exp(-4x) is Gamma(8) / 4^8
    rule = gauss_rule(LaguerreParams(2.0, 4.0), 10)
    moment = float(np.dot(rule.weights, rule.nodes ** 5))
    assert moment == pytest.approx(5040.0 / 65536.0, rel=1e-12)


@pytest.mark.parametrize("theta,beta", PARAMS)
@pytest.mark.parametrize("N", [1, 5, 20, 40])
def test_gauss_rule_structure(theta, beta, N):
    rule = gauss_rule(LaguerreParams(theta, beta), N)
    assert rule.nodes.shape == (N + 1,)
    assert rule.weights.shape == (N + 1,)
    assert np.all(rule.nodes > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.weights > 0.0)
    mu0 = math.gamma(theta + 1.0) / beta ** (theta + 1.0)
    assert np.sum(rule.weights) == pytest.approx(mu0, rel=1e-12)


def test_gauss_rule_overflow_is_runtime_error():
    # from N ~ 190 the far-node ladder values leave double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="N=200"):
            gauss_rule(LaguerreParams(1.0, 3.0), 200)
        rule = gauss_rule(LaguerreParams(1.0, 3.0), 150)
    assert np.all(rule.weights > 0.0)
    assert np.sum(rule.weights) == pytest.approx(1.0 / 9.0, rel=1e-12)


def five_ladder_rule(params, n):
    """Gauss nodes and weights as built before the rolling recurrences.

    Eigenvalues, then two Newton sweeps of two full ladders each (the slope
    from the shifted family, d/dx L_(n+1) = -beta L_n^(theta+1)), then the
    inverse Christoffel sums over a fifth full ladder.
    """
    theta, beta = params.theta, params.beta

    def ladder(shift, deg, xs):
        out = np.empty((deg + 1, xs.size), dtype=float)
        out[0] = 1.0
        if deg >= 1:
            out[1] = theta + shift + 1.0 - beta * xs
        for i in range(1, deg):
            out[i + 1] = ((2.0 * i + (theta + shift) + 1.0 - beta * xs) * out[i]
                          - (i + (theta + shift)) * out[i - 1]) / (i + 1.0)
        return out

    k = np.arange(n + 1, dtype=float)
    diag = (2.0 * k + theta + 1.0) / beta
    off = np.sqrt(k[1:] * (k[1:] + theta)) / beta
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    for _ in range(2):
        residual = ladder(0.0, n + 1, nodes)[n + 1]
        slope = -beta * ladder(1.0, n, nodes)[n]
        nodes = nodes - residual / slope
    nodes = np.sort(nodes)
    scale = 1.0 / np.sqrt(norm(params, np.arange(n + 1)))
    ortho = ladder(0.0, n, nodes) * scale[:, None]
    return nodes, 1.0 / np.sum(ortho * ortho, axis=0)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-1.0, 10.0, exclude_min=True), beta=st.floats(0.5, 10.0),
       N=st.integers(1, 150), data=st.data())
def test_rolling_gauss_rule_matches_five_ladders(theta, beta, N, data):
    params = LaguerreParams(theta, beta)
    rule = gauss_rule(params, N)
    nodes, weights = five_ladder_rule(params, N)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    # the rule is a function of its nodes: rebuilding it from them changes no bit
    again = QuadratureRule(params, rule.nodes)
    for name in ("nodes", "weights", "basis", "norms"):
        assert np.array_equal(getattr(again, name), getattr(rule, name))
    # the stored transform is the ladder and norms, bit for bit, and
    # interpolate gives what building them afresh gives
    basis = eval_basis(params, N, rule.nodes)
    norms = norm(params, np.arange(N + 1))
    assert np.array_equal(rule.basis, basis)
    assert np.array_equal(rule.norms, norms)
    for f in (np.exp(rule.nodes / 3.0), rule.nodes ** 3):
        assert np.array_equal(interpolate(rule, f).coeffs, basis @ (f * rule.weights) / norms)
    count = data.draw(st.integers(0, N + 1), label="count")
    assert np.array_equal(collocation_nodes(params, N, count), rule.nodes[:count])
    # the Newton slope x L_(N+1)' = (N + 1) L_(N+1) - (N + 1 + theta) L_N; both
    # sides carry the rounding of an N-step recurrence (at (0, 1), N = 86, each
    # is within 6e-14 of 50-digit mpmath at the smallest node), hence the N
    ladder = eval_basis(params, N + 1, rule.nodes)
    slope = ((N + 1.0) * ladder[N + 1] - (N + 1.0 + theta) * ladder[N]) / rule.nodes
    reference = derivative_basis(params, N + 1, 1, rule.nodes)
    assert np.all(np.abs(slope - reference) <= 1e-14 * (N + 1) * np.abs(reference))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta,beta", [(3.0, 6.0), (0.0, 1.0), (1.0, 3.0)])
@pytest.mark.parametrize("N", [250, 350])
def test_collocation_nodes_past_weight_underflow(theta, beta, N):
    # gauss_rule refuses these degrees (its weights underflow); the nodes need none
    nodes = collocation_nodes(LaguerreParams(theta, beta), N, N + 1)
    assert nodes.shape == (N + 1,)
    assert np.all(np.isfinite(nodes))
    assert nodes[0] > 0.0
    assert np.all(np.diff(nodes) > 0.0)


def test_discrete_orthonormality():
    params = LaguerreParams(2.0, 6.0)
    N = 20
    rule = gauss_rule(params, N)
    scale = np.array([1.0 / math.sqrt(norm(params, i)) for i in range(N + 1)])
    ortho = eval_basis(params, N, rule.nodes) * scale[:, None]
    gram = (ortho * rule.weights) @ ortho.T
    assert np.max(np.abs(gram - np.eye(N + 1))) <= 1e-9


def test_interpolation_exact_for_polynomials():
    params = LaguerreParams(1.0, 3.0)
    rule = gauss_rule(params, 5)
    f = lambda x: x ** 3 - 2.0 * x + 1.0
    coeffs = interpolate(rule, f(rule.nodes))
    xs = np.linspace(0.0, 4.0, 57)
    approx = eval_interpolant(coeffs, xs)
    ref = f(xs)
    assert np.max(np.abs(approx - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_interpolation_round_trip_at_nodes():
    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 20)
    samples = np.exp(rule.nodes / 2.0)
    coeffs = interpolate(rule, samples)
    recovered = eval_interpolant(coeffs, rule.nodes)
    scaled = np.abs(recovered - samples) / np.maximum(1.0, np.abs(samples))
    # basis values grow fast along the node range; the largest nodes lose
    # digits to cancellation no matter how the projection is computed
    assert np.max(scaled[:-3]) <= 1e-8
    assert np.max(scaled[-3:]) <= 1e-4


def test_interpolation_round_trip_plain_weight():
    rule = gauss_rule(LaguerreParams(0.0, 1.0), 40)
    samples = np.exp(rule.nodes / 3.0)
    coeffs = interpolate(rule, samples)
    recovered = eval_interpolant(coeffs, rule.nodes)
    scaled = np.abs(recovered - samples) / np.maximum(1.0, np.abs(samples))
    assert np.max(scaled[:-3]) <= 1e-7
    assert np.max(scaled[-3:]) <= 1e-4


def test_eval_interpolant_scalar_matches_array():
    params = LaguerreParams(1.0, 2.0)
    rule = gauss_rule(params, 8)
    coeffs = interpolate(rule, np.sin(rule.nodes))
    xs = np.array([0.0, 0.3, 1.7])
    batch = eval_interpolant(coeffs, xs)
    singles = [eval_interpolant(coeffs, x) for x in xs]
    assert batch == pytest.approx(singles, rel=1e-15, abs=0.0)


def test_interpolate_length_mismatch():
    rule = gauss_rule(LaguerreParams(0.0, 1.0), 4)
    with pytest.raises(ValueError):
        interpolate(rule, np.ones(3))


def test_quadrature_rule_validation():
    params = LaguerreParams(0.0, 1.0)
    with pytest.raises(ValueError):
        QuadratureRule(params=params, nodes=np.array([1.5, 0.5]))
    # the weights follow from the nodes, so nodes off the zeros of L_2 fail the moment check
    with pytest.raises(RuntimeError, match="N=1"):
        QuadratureRule(params=params, nodes=np.array([0.5, 1.5]))
    rule = gauss_rule(params, 1)
    for arr in (rule.nodes, rule.weights, rule.basis, rule.norms):
        with pytest.raises(ValueError):
            arr[0] = 5.0


def test_interpolate_reuses_the_rule(monkeypatch):
    # interpolate builds no ladder and evaluates no norm: the rule holds both
    params = LaguerreParams(2.0, 6.0)
    rule = gauss_rule(params, 20)
    expected = interpolate(rule, np.exp(rule.nodes)).coeffs

    def refuse(*args, **kwargs):
        raise AssertionError("interpolate rebuilt part of the transform")

    for name in ("_ladder", "eval_basis", "norm"):
        monkeypatch.setattr(laguerre, name, refuse)
    assert np.array_equal(interpolate(rule, np.exp(rule.nodes)).coeffs, expected)


def test_interpolant_coeffs_frozen():
    coeffs = InterpolantCoeffs(params=LaguerreParams(0.0, 1.0),
                               coeffs=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        coeffs.coeffs[0] = 5.0


@pytest.mark.parametrize("degree", [math.inf, -math.inf, math.nan])
def test_scalar_degree_rejects_non_finite(degree):
    params = LaguerreParams(1.0, 3.0)
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        eval_basis(params, degree, 1.0)
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        value_at_zero(params, degree)
