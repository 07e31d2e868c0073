import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfrac import (
    DomainError,
    InterpolantCoeffs,
    LaguerreParams,
    OrderFunction,
    QuadratureRule,
    caputo_row,
    eval_basis,
    eval_interpolant,
    frac_integral_basis,
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


def longdouble_caputo_row(params, max_degree, m, x):
    """caputo_row at the integer order m and the points x, as (-beta)^m times
    the ladder of the family theta + m by the plain forward recurrence in
    np.longdouble."""
    theta = np.longdouble(params.theta) + m
    bx = np.longdouble(params.beta) * np.asarray(x, dtype=float)
    rows = np.zeros((max_degree + 1,) + bx.shape, dtype=np.longdouble)
    prev, cur = np.zeros_like(bx), np.ones_like(bx)
    for k in range(max_degree + 1 - m):
        rows[m + k] = cur
        prev, cur = cur, ((2 * k + theta + 1 - bx) * cur - (k + theta) * prev) / (k + 1)
    return (rows * (-params.beta) ** m).astype(float)


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
    assert caputo_row(params, 1, 0, 0.7)[0] == 0.0
    assert caputo_row(params, 2, 1, 0.7)[1] == 0.0
    # m = 0 returns the plain value
    assert caputo_row(params, 0, 4, 0.7)[4] == pytest.approx(
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
        exact = caputo_row(params, 1, i, x)[i]
        assert abs(fd - exact) <= 2e-5 * max(1.0, abs(exact))


def test_second_derivative_vs_finite_difference():
    params = LaguerreParams(2.0, 4.0)
    h = 1e-5
    for x in (0.5, 1.5):
        fd = (caputo_row(params, 1, 6, x + h)[6]
              - caputo_row(params, 1, 6, x - h)[6]) / (2.0 * h)
        exact = caputo_row(params, 2, 6, x)[6]
        assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_derivative_basis_accuracy(m, n):
    # at the collocation nodes the double ladder is within the rounding of an
    # N-step recurrence of the long-double one, against each column's largest
    # entry (3.9e-14 at worst, at N = 40); at x = 0 it is the closed form
    # (-beta)^m L_(i-m)(0) of the family theta + m
    worst = 0.0
    for theta in (-0.5, 0.0, 2.0, 10.0):
        for beta in (1.0, 4.0, 10.0):
            params = LaguerreParams(theta, beta)
            for N in (2, 8, 20, 40):
                x = collocation_nodes(params, N, N if n == 1 else N - 1)
                got = caputo_row(params, m, N, x)
                want = longdouble_caputo_row(params, N, m, x)
                scale = np.max(np.abs(want), axis=0)
                assert np.all(np.abs(got - want) <= 2e-15 * (N + 1) * scale), (theta, beta, N)
                worst = max(worst, float(np.max(np.abs(got - want))) / float(np.max(scale)))
                at_zero = caputo_row(params, m, N, 0.0)
                closed = np.zeros(N + 1)
                closed[m:] = (-beta) ** m * value_at_zero(LaguerreParams(theta + m, beta),
                                                         np.arange(N + 1 - m))
                assert np.all(np.abs(at_zero - closed) <= 1e-14 * np.abs(closed)), (theta, beta, N)
    # against the largest entry of the whole matrix
    assert worst <= 1e-14


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


@pytest.mark.filterwarnings("error")
def test_value_at_zero_past_double_range_is_inf_without_warning():
    # L_i(0) = C(i + 800, i) leaves double range at i = 351
    params = LaguerreParams(800.0, 1.0)
    values = value_at_zero(params, np.arange(401))
    assert np.all(np.isfinite(values[:351])) and np.all(values[351:] == math.inf)
    assert value_at_zero(params, 400) == math.inf


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
                                     [0, math.inf], [[0, 1]], True, [True, False],
                                     [0, True]])
def test_degree_validation(func, degrees):
    with pytest.raises(ValueError, match="^i must be"):
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta,N,message", [
    (1e300, 0, "quadrature nodes for N=0 are not finite, positive and strictly increasing$"),
    (1e150, 5, "tridiagonal eigenvalue solve failed for N=5: "),
], ids=["infinite node", "eigenvalue solve"])
def test_jacobi_matrix_past_double_range_is_runtime_error(theta, N, message):
    # (2k + theta + 1) / beta leaves double range: no warning, and N is named
    params = LaguerreParams(theta, 1e-300)
    with pytest.raises(RuntimeError, match="^" + message):
        gauss_rule(params, N)
    with pytest.raises(RuntimeError, match="^" + message):
        collocation_nodes(params, N, 1)


@pytest.mark.filterwarnings("error")
def test_rule_refuses_nodes_that_are_not_zeros():
    params = LaguerreParams(1.0, 3.0)
    nodes = gauss_rule(params, 20).nodes
    with pytest.raises(RuntimeError, match=r"N=20 are not certified: a Newton step"):
        QuadratureRule(params, nodes * (1.0 + 1e-6))


def polished_zeros(params, n, nodes):
    """The zeros of L_(n+1) near nodes: one Newton step each in 60-digit mpmath.

    A step squares the relative error of a start within about 1e-12, so the
    results are good to far below double rounding.
    """
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 60
    theta, top = ctx.mpf(params.theta), n + 1
    steps = [(2 * i + theta + 1, i + theta, ctx.one / (i + 1)) for i in range(1, top)]
    zeros = []
    for node in nodes:
        x = ctx.mpf(node)
        bx = params.beta * x
        prev, cur = ctx.one, theta + 1 - bx
        for a, c, inv in steps:
            prev, cur = cur, ((a - bx) * cur - c * prev) * inv
        zeros.append(x - x * cur / (top * cur - (top + theta) * prev))
    return zeros


@pytest.mark.parametrize("theta,beta", [(-0.9, 1.0), (0.0, 1.0), (2.0, 4.0), (10.0, 10.0)])
@pytest.mark.parametrize("N", [20, 80, 150])
def test_gauss_nodes_match_polished_mpmath_zeros(theta, beta, N):
    # unpolished eigenvalues: worst 5.1e-13 and median 2.5 eps over these cells
    params = LaguerreParams(theta, beta)
    nodes = gauss_rule(params, N).nodes
    zeros = polished_zeros(params, N, nodes)
    rel = np.array([float(abs(x - z) / z) for x, z in zip(nodes, zeros)])
    assert rel.max() <= 1e-12
    assert np.median(rel) <= 8.0 * np.finfo(float).eps


def one_ladder_rule(params, n):
    """Gauss nodes and weights from an eigenvalue solve and one full ladder.

    The nodes are the Jacobi matrix's eigenvalues, unpolished; the weights
    are the inverse Christoffel sums over the ladder L_0..L_n at them.
    """
    theta, beta = params.theta, params.beta
    k = np.arange(n + 1, dtype=float)
    diag = (2.0 * k + theta + 1.0) / beta
    off = np.sqrt(k[1:] * (k[1:] + theta)) / beta
    nodes = np.sort(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1)))
    ladder = np.empty((n + 1, nodes.size), dtype=float)
    ladder[0] = 1.0
    if n >= 1:
        ladder[1] = theta + 1.0 - beta * nodes
    for i in range(1, n):
        ladder[i + 1] = ((2.0 * i + theta + 1.0 - beta * nodes) * ladder[i]
                         - (i + theta) * ladder[i - 1]) / (i + 1.0)
    scale = 1.0 / np.sqrt(norm(params, np.arange(n + 1)))
    ortho = ladder * scale[:, None]
    return nodes, 1.0 / np.sum(ortho * ortho, axis=0)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-1.0, 10.0, exclude_min=True), beta=st.floats(0.5, 10.0),
       N=st.integers(1, 150), data=st.data())
def test_gauss_rule_matches_eigenvalues_and_one_ladder(theta, beta, N, data):
    params = LaguerreParams(theta, beta)
    rule = gauss_rule(params, N)
    nodes, weights = one_ladder_rule(params, N)
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
    # the certificate's Newton slope x L_(N+1)' = (N + 1) L_(N+1) - (N + 1 + theta) L_N;
    # both sides carry the rounding of an N-step recurrence (at (0, 1), N = 86, each
    # is within 6e-14 of 50-digit mpmath at the smallest node), hence the N
    ladder = eval_basis(params, N + 1, rule.nodes)
    slope = ((N + 1.0) * ladder[N + 1] - (N + 1.0 + theta) * ladder[N]) / rule.nodes
    reference = longdouble_caputo_row(params, N + 1, 1, rule.nodes)[N + 1]
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
    with pytest.raises(ValueError, match="^samples must be finite$"):
        interpolate(rule, [1.0, 2.0, math.nan, 3.0, 4.0])


@pytest.mark.parametrize("coeffs,message", [
    ([], "coeffs must be a nonempty 1-D array"),
    ([[1.0]], "coeffs must be a nonempty 1-D array"),
    ([1.0, math.nan], "coeffs must be finite"),
    ([math.inf], "coeffs must be finite"),
])
def test_interpolant_coeffs_validation(coeffs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        InterpolantCoeffs(LaguerreParams(0.0, 1.0), coeffs)


def test_interpolant_coeffs_refuse_params_of_another_type():
    with pytest.raises(ValueError, match=r"^params must be a LaguerreParams, got \(1, 3\)$"):
        InterpolantCoeffs((1, 3), [1.0])


@pytest.mark.filterwarnings("error")
def test_interpolate_past_double_range_names_n():
    # finite samples whose transform overflows: a DomainError, no numpy warning
    rule = gauss_rule(LaguerreParams(0.0, 0.1), 5)
    with pytest.raises(DomainError) as info:
        interpolate(rule, np.full(6, 1e308))
    assert str(info.value) == "interpolation coefficients for N=5 leave double range"
    assert isinstance(info.value, ValueError)


def test_quadrature_rule_validation():
    params = LaguerreParams(0.0, 1.0)
    with pytest.raises(ValueError):
        QuadratureRule(params=params, nodes=np.array([1.5, 0.5]))
    with pytest.raises(ValueError, match=r"^params must be a LaguerreParams, got \(0.0, 1.0\)$"):
        QuadratureRule(params=(0.0, 1.0), nodes=gauss_rule(params, 1).nodes)
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

    for name in ("eval_basis", "norm"):
        monkeypatch.setattr(laguerre, name, refuse)
    assert np.array_equal(interpolate(rule, np.exp(rule.nodes)).coeffs, expected)


def _ladder(theta: float, bx: np.ndarray, top: int):
    """Yield L_0, ..., L_top at the points with beta * x = bx, two rows kept.

    The forward three-term recurrence
    (i + 1) L_(i+1) = (2i + theta + 1 - beta x) L_i - (i + theta) L_(i-1).
    """
    prev = np.ones_like(bx)
    yield prev
    if top >= 1:
        cur = theta + 1.0 - bx
        yield cur
        for i in range(1, top):
            prev, cur = cur, ((2.0 * i + theta + 1.0 - bx) * cur
                              - (i + theta) * prev) / (i + 1.0)
            yield cur


def test_basis_and_interpolant_match_the_two_row_reference_ladder():
    # the two-row generator eval_basis and eval_interpolant once read, kept as
    # the reference: the in-place ladder and the degree-order sum give its bits
    rng = np.random.default_rng(34)
    for _ in range(400):
        theta, beta = 15.0 - 16.0 * rng.random(), rng.uniform(0.2, 12.0)
        N = int(rng.integers(0, 151))
        xs = np.concatenate([[0.0, 5e-324, 1e-300, 1e300],
                             rng.uniform(0.0, 4.0 * N / beta + 2.0, 12)])
        params = LaguerreParams(theta, beta)
        lc = rng.standard_normal(N + 1)
        coeffs = InterpolantCoeffs(params, lc)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array(list(_ladder(theta, beta * xs, N)))
            sums = lc[0] * want[0]
            for c, row in zip(lc[1:], want[1:]):
                sums += c * row
        assert np.array_equal(eval_basis(params, N, xs), want, equal_nan=True)
        assert np.array_equal(eval_interpolant(coeffs, xs), sums, equal_nan=True)
        k = int(rng.integers(xs.size))
        assert np.array_equal(eval_basis(params, N, xs[k]), want[:, k], equal_nan=True)
        value = eval_interpolant(coeffs, xs[k])
        assert type(value) is float
        assert np.array_equal(value, sums[k], equal_nan=True)


def test_interpolant_coeffs_frozen():
    coeffs = InterpolantCoeffs(params=LaguerreParams(0.0, 1.0),
                               coeffs=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        coeffs.coeffs[0] = 5.0


@pytest.mark.parametrize("degree", [math.inf, -math.inf, math.nan, True, np.True_])
def test_scalar_degree_rejects_non_finite(degree):
    # a bool is no degree either: gauss_rule(params, True) would build the N = 1 rule
    params = LaguerreParams(1.0, 3.0)
    with pytest.raises(ValueError, match="^max_degree must be a nonnegative integer"):
        eval_basis(params, degree, 1.0)
    with pytest.raises(ValueError, match="^i must be a nonnegative integer"):
        value_at_zero(params, degree)
    with pytest.raises(ValueError, match="^N must be a nonnegative integer"):
        gauss_rule(params, degree)
    with pytest.raises(ValueError, match="^order must be a nonnegative integer"):
        caputo_row(params, degree, 4, 1.0)


DEGREES = np.array([2, 3])
ORDER = OrderFunction.constant(0.5)


@pytest.mark.parametrize("call,name", [
    (lambda p: eval_basis(p, DEGREES, 1.0), "max_degree"),
    (lambda p: frac_integral_basis(p, ORDER, DEGREES, 1.0), "max_degree"),
    (lambda p: caputo_row(p, ORDER, DEGREES, 1.0), "max_degree"),
    (lambda p: caputo_row(p, 1, DEGREES, 1.0), "max_degree"),
    (lambda p: caputo_row(p, DEGREES, 4, 1.0), "order"),
    (lambda p: gauss_rule(p, DEGREES), "N"),
    (lambda p: collocation_nodes(p, DEGREES, 2), "N"),
    (lambda p: collocation_nodes(p, 4, DEGREES), "count"),
], ids=["eval_basis", "frac_integral_basis", "caputo_row", "derivative_basis max_degree",
        "derivative_basis m", "gauss_rule", "collocation_nodes N", "collocation_nodes count"])
def test_degree_array_is_refused_where_one_degree_is_taken(call, name):
    # only value_at_zero and norm take arrays of degrees
    with pytest.raises(ValueError, match=rf"^{name} must be a nonnegative integer, got array"):
        call(LaguerreParams(1.0, 3.0))


@pytest.mark.filterwarnings("error")
def test_evaluation_past_double_range_is_non_finite_without_warning():
    # the callers turn these values into their own errors: the node certificate,
    # max_abs_error and the CLI's sampling all name the x
    params = LaguerreParams(0.0, 1.0)
    assert not np.all(np.isfinite(eval_basis(params, 40, 1e300)))
    assert not np.isfinite(eval_interpolant(InterpolantCoeffs(params, np.ones(41)), 1e300))
