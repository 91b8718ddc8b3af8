"""Continuous-time laws, rate profiles, and the exact path sampler of `sim`.

The closed-form variances (test-side references in `oracles`) are checked
against trapezoid quadrature of the defining kernel integrals, and the
sampler (`ExactPaths`, stepped on the draws `msq` gives it) against both the
closed-form terminal law and the one-step noise covariance.
"""

import math
import threading

import numpy as np
import numpy.testing as npt
import pytest

from ldp_osc.methods import evaluate, get_method
from ldp_osc.oscillator import (GaussianLaw, MEAN_POSITION, MEAN_VELOCITY,
                                OscillatorParams, continuous_rate,
                                rate_infimum)
from ldp_osc.rng import CHUNK_ROWS, step_normals
from ldp_osc.sim import ExactPaths, exact_factor, rotation, \
    step_noise_covariance
from oracles import (continuous_log_mgf_coefficient, mean_position_law,
                     terminal_position_law)


def quad_integrated_position_variance(alpha, T, nodes=200_001):
    # Var int_0^T X dt = alpha^2 int_0^T (1 - cos(T - s))^2 ds by the isometry
    # of the stochastic integral, evaluated numerically
    s = np.linspace(0.0, T, nodes)
    kernel = 1.0 - np.cos(T - s)
    return alpha ** 2 * np.trapezoid(kernel ** 2, s)


def quad_terminal_position_variance(alpha, T, nodes=200_001):
    s = np.linspace(0.0, T, nodes)
    kernel = np.sin(T - s)
    return alpha ** 2 * np.trapezoid(kernel ** 2, s)


def test_integrated_position_law_against_quadrature():
    for alpha, T in ((1.0, 1.7), (0.6, 3.2), (2.5, 10.0)):
        params = OscillatorParams(alpha=alpha, x0=0.4, y0=-1.1)
        law = mean_position_law(params, T)
        npt.assert_allclose(law.variance,
                            quad_integrated_position_variance(alpha, T),
                            rtol=1e-9)
        # drift part: integral of the freely rotating mean
        t = np.linspace(0.0, T, 200_001)
        mean = np.trapezoid(0.4 * np.cos(t) - 1.1 * np.sin(t), t)
        npt.assert_allclose(law.mean, mean, rtol=1e-9, atol=1e-9)


def test_terminal_position_law_against_quadrature():
    for alpha, T in ((1.0, 1.7), (0.6, 3.2), (2.5, 10.0)):
        params = OscillatorParams(alpha=alpha, x0=0.4, y0=-1.1)
        law = terminal_position_law(params, T)
        npt.assert_allclose(law.variance,
                            quad_terminal_position_variance(alpha, T),
                            rtol=1e-9)
        assert law.mean == pytest.approx(0.4 * math.cos(T) - 1.1 * math.sin(T))


def test_full_period_variance_is_three_pi():
    for alpha in (1.0, 0.7):
        law = mean_position_law(OscillatorParams(alpha=alpha), 2.0 * math.pi)
        assert abs(law.variance - 3.0 * math.pi * alpha ** 2) <= 1e-12


def test_variance_growth_rates():
    params = OscillatorParams()
    T = 1e5
    assert abs(mean_position_law(params, T).variance / T - 1.5) <= 1e-4
    assert abs(terminal_position_law(params, T).variance / T - 0.5) <= 1e-4


def test_continuous_rate_coefficients():
    params = OscillatorParams(alpha=2.0)
    assert continuous_rate(MEAN_POSITION, params) == pytest.approx(1.0 / 12.0)
    assert continuous_rate(MEAN_VELOCITY, params) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        continuous_rate("positions", params)


def test_log_mgf_and_rate_are_legendre_duals():
    # for quadratic profiles the dual pair satisfies 4 * c * coefficient = 1
    for observable in (MEAN_POSITION, MEAN_VELOCITY):
        for alpha in (0.5, 1.0, 3.0):
            params = OscillatorParams(alpha=alpha)
            c = continuous_log_mgf_coefficient(observable, params)
            coefficient = continuous_rate(observable, params)
            npt.assert_allclose(4.0 * c * coefficient, 1.0, rtol=1e-14)


def test_rate_function_profile():
    # y -> 2 y^2: the infimum sits at the end nearest 0, or at 0 inside
    assert rate_infimum(2.0, -1.0, 2.0) == 0.0
    assert rate_infimum(2.0, 1.0, 2.0) == 2.0
    assert rate_infimum(2.0, -5.0, -2.0) == 8.0
    assert rate_infimum(2.0, 1.5, math.inf) == 4.5
    assert rate_infimum(2.0, -math.inf, -3.0) == 18.0
    with pytest.raises(ValueError):
        rate_infimum(2.0, 2.0, 1.0)

    # an infinite coefficient is the degenerate rate: 0 at 0, inf elsewhere
    assert rate_infimum(math.inf, -1.0, 1.0) == 0.0
    assert rate_infimum(math.inf, 0.0, 1.0) == 0.0
    assert rate_infimum(math.inf, 0.5, 1.0) == math.inf
    assert rate_infimum(math.inf, 1e-200, 1.0) == math.inf
    assert rate_infimum(math.inf, -math.inf, -1e-9) == math.inf
    assert rate_infimum(math.inf, 0.5, math.inf) == math.inf
    with pytest.raises(ValueError):
        rate_infimum(math.inf, 1.0, 0.5)


def test_guards():
    with pytest.raises(ValueError):
        OscillatorParams(alpha=0.0)
    for field in ("alpha", "x0", "y0"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                OscillatorParams(**{field: value})
    with pytest.raises(ValueError):
        GaussianLaw(0.0, -1e-9)
    with pytest.raises(ValueError):
        mean_position_law(OscillatorParams(), 0.0)


def test_gaussian_law_scaled():
    law = GaussianLaw(2.0, 9.0)
    scaled = law.scaled(-0.5)
    assert scaled.mean == -1.0
    assert scaled.variance == 2.25
    assert scaled.sigma == 1.5


def test_rotation_matrix():
    R = rotation(0.3)
    npt.assert_allclose(R @ R.T, np.eye(2), atol=1e-15)
    npt.assert_allclose(rotation(0.2) @ rotation(0.1), rotation(0.3), atol=1e-15)


def test_step_noise_covariance_against_quadrature():
    delta = 0.7
    s = np.linspace(0.0, delta, 200_001)
    kernels = np.vstack([np.ones_like(s), np.sin(delta - s), np.cos(delta - s)])
    expected = np.trapezoid(kernels[:, None, :] * kernels[None, :, :], s, axis=2)
    npt.assert_allclose(step_noise_covariance(delta), expected, atol=1e-10)


def _exact_path(params, delta, steps, paths, seed):
    # (dw, x, y) of every step, each of shape (steps, paths), stepped as
    # `msq` steps it: three draws of each path's stream per step
    exact = ExactPaths(params, delta, exact_factor(delta, params.alpha),
                       evaluate(get_method("em"), delta), paths)
    dw, x, y = [], [], []
    bits = np.empty((CHUNK_ROWS, paths), dtype=np.uint64)
    for draws in step_normals(seed, 0, paths, steps, 3, threading.Lock(),
                              bits):
        for j in range(0, len(draws), 3):
            dw.append(exact.exact_step(draws[j:j + 3]).copy())
            x.append(exact.z[0, 0].copy())
            y.append(exact.z[0, 1].copy())
    return np.array(dw), np.array(x), np.array(y)


def test_sampler_guards():
    params = OscillatorParams()
    with pytest.raises(ValueError):
        exact_factor(0.0, params.alpha)
    with pytest.raises(ValueError):
        exact_factor(1e-9, params.alpha)
    bits = np.empty((CHUNK_ROWS, 1), dtype=np.uint64)
    assert list(step_normals(0, 0, 1, 0, 3, threading.Lock(), bits)) == []


def test_sampler_matches_terminal_law():
    params = OscillatorParams(alpha=1.3, x0=0.3, y0=-0.2)
    delta, steps, paths = 0.5, 4, 60_000
    _, x, _ = _exact_path(params, delta, steps, paths, seed=11)
    law = terminal_position_law(params, delta * steps)
    xs = x[-1]
    se_mean = law.sigma / math.sqrt(paths)
    assert abs(xs.mean() - law.mean) <= 4.0 * se_mean
    se_var = law.variance * math.sqrt(2.0 / (paths - 1))
    assert abs(xs.var(ddof=1) - law.variance) <= 4.0 * se_var


def test_sampler_one_step_covariance():
    # the joint law of (dW, X_1, Y_1) from the origin is exactly the one-step
    # noise covariance scaled by alpha on the state coordinates
    delta, paths = 0.7, 200_000
    params = OscillatorParams(alpha=1.0)
    dw, x, y = _exact_path(params, delta, 1, paths, seed=5)
    emp = np.cov(np.vstack([dw[0], x[0], y[0]]))
    npt.assert_allclose(emp, step_noise_covariance(delta), atol=0.012)


def test_sampler_brownian_increment_variance():
    dw, _, _ = _exact_path(OscillatorParams(), 0.25, 8, 50_000, seed=2)
    npt.assert_allclose(dw.var(ddof=1), 0.25, rtol=0.02)
    npt.assert_allclose(dw.mean(), 0.0, atol=0.002)
