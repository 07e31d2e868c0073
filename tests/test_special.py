import math

import numpy as np
import pytest

from lagfrac import (
    DomainError,
    OrderFunction,
    caputo_exp_exact,
    gamma_ratio,
    log_gamma,
    reg_lower_incomplete_gamma,
)


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)
    # subnormal x has a finite value; past about 2.55e305 the value overflows
    assert log_gamma(1e-320) == pytest.approx(-math.log(1e-320), rel=1e-15)
    assert log_gamma(1e307) == math.inf


def test_log_gamma_matches_lgamma_on_grid():
    xs = np.linspace(0.05, 60.0, 241)
    ours = log_gamma(xs)
    ref = np.array([math.lgamma(x) for x in xs])
    # normalize by max(1, |ref|): lgamma vanishes at 1 and 2, so a pure
    # relative bound is meaningless near those roots
    assert np.all(np.abs(ours - ref) <= 5e-13 * np.maximum(1.0, np.abs(ref)))


def test_log_gamma_recurrence():
    xs = np.geomspace(0.1, 400.0, 173)
    lhs = log_gamma(xs + 1.0)
    rhs = log_gamma(xs) + np.log(xs)
    assert np.all(np.abs(lhs - rhs) <= 5e-13 * np.maximum(1.0, np.abs(lhs)))


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_log_gamma_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        log_gamma(bad)


def test_log_gamma_shapes():
    assert np.ndim(log_gamma(3.0)) == 0
    assert log_gamma(np.array([1.0, 2.0, 3.0])).shape == (3,)


def test_gamma_ratio_values():
    assert gamma_ratio(3.0, 2.5) == pytest.approx(2.0 / math.gamma(2.5), rel=1e-13)
    assert gamma_ratio(4.0, 2.5) == pytest.approx(6.0 / math.gamma(2.5), rel=1e-13)
    assert gamma_ratio(5.0, 5.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_ratio_vs_direct_quotient():
    for a in (0.7, 1.3, 4.0, 9.5):
        for b in (0.3, 2.1, 6.0):
            assert gamma_ratio(a, b) == pytest.approx(
                math.gamma(a) / math.gamma(b), rel=1e-12)


def test_gamma_ratio_large_arguments_stay_finite():
    # Gamma(a)/Gamma(a - 1/2) ~ sqrt(a); the direct quotient overflows far earlier
    value = gamma_ratio(1.0e6, 1.0e6 - 0.5)
    assert math.isfinite(value)
    assert value == pytest.approx(math.sqrt(1.0e6), rel=1e-6)


def test_gamma_ratio_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_ratio(-1.0, 2.0)
    with pytest.raises(DomainError):
        gamma_ratio(2.0, 0.0)


def test_reg_lower_incomplete_gamma_values():
    # P(1/2, 1) equals erf(1)
    assert reg_lower_incomplete_gamma(0.5, 1.0) == pytest.approx(
        0.84270079294971487, rel=1e-13)
    assert reg_lower_incomplete_gamma(1.0, 2.0) == pytest.approx(
        1.0 - math.exp(-2.0), rel=1e-13)
    assert reg_lower_incomplete_gamma(2.5, 0.0) == 0.0


def test_reg_lower_incomplete_gamma_monotone_in_x():
    xs = np.linspace(0.0, 12.0, 200)
    vals = reg_lower_incomplete_gamma(0.7, xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] <= 1.0


@pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1)])
def test_reg_lower_incomplete_gamma_domain(s, x):
    with pytest.raises(DomainError):
        reg_lower_incomplete_gamma(s, x)


def test_incomplete_gamma_matches_mpmath():
    """P(s, x) and e^x P(s, x) = caputo_exp_exact against 40-digit mpmath.

    s is random in (0, 1], taken as n - rho for orders rho in both windows so
    that caputo_exp_exact sees the same s; x is random in [0, 700] and in
    [0, 3], just below and at the series / continued-fraction switch
    x = s + 1, and 1e-300. The worst error |got - ref| / max(1, |ref|)
    measured over 20 seeds of this sampling (9000 points) was 1.1e-15 for P
    and 1.3e-15 for e^x P; the bound is twice that.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2026)
    n = np.where(np.arange(450) % 2, 1, 2)
    rho = n - (1.0 - rng.uniform(0.0, 1.0, 450))
    s = n - rho
    switch = s[:50] + 1.0
    x = np.concatenate([rng.uniform(0.0, 700.0, 150), rng.uniform(0.0, 3.0, 150),
                        np.nextafter(switch, 0.0), switch, np.full(50, 1e-300)])
    got_p = reg_lower_incomplete_gamma(s, x)
    got_e = np.array([caputo_exp_exact(OrderFunction.constant(r), v) for r, v in zip(rho, x)])
    with mpmath.workdps(40):
        ref_p = [mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(v), regularized=True)
                 for a, v in zip(s, x)]
        ref_e = np.array([float(mpmath.exp(mpmath.mpf(v)) * p) for v, p in zip(x, ref_p)])
    ref_p = np.array([float(p) for p in ref_p])
    for got, ref in ((got_p, ref_p), (got_e, ref_e)):
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 2.6e-15, (s[err.argmax()], x[err.argmax()], err.max())
    # one array call gives the bits of the scalar calls
    assert np.array_equal(got_p, [reg_lower_incomplete_gamma(a, v) for a, v in zip(s, x)])


@pytest.mark.parametrize("done,stuck", [(1e-300, 1.0), (700.0, 2.0)])
def test_incomplete_gamma_step_cap_is_an_error(monkeypatch, done, stuck):
    # series (x < s + 1) and continued fraction: the first point converges
    # within the cap, the second does not
    import lagfrac.special as special
    monkeypatch.setattr(special, "_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match=f"x={stuck}"):
        reg_lower_incomplete_gamma(0.5, np.array([done, stuck]))
    with pytest.raises(RuntimeError, match=f"x={stuck}"):
        caputo_exp_exact(OrderFunction.constant(1.5), np.array([done, stuck]))
