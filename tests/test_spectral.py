"""Spectral data against eigenvalue angles, and the partial sums that the law
kernel builds from the same matrices against naive summation."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from ldp_osc.laws import _augmented_moments
from ldp_osc.methods import evaluate, get_method
from ldp_osc.oscillator import OscillatorParams, rotation
from ldp_osc.spectral import NearDegenerateError, spectral_data


def eig_angle(A):
    # independent route: the argument of the eigenvalue with positive
    # imaginary part
    values = np.linalg.eigvals(np.asarray(A, dtype=float))
    lam = values[np.argmax(values.imag)]
    return math.atan2(lam.imag, lam.real)


def spectral_cases():
    cases = []
    for name, h in (("beta:0.5", 0.5), ("beta:0", 1.3), ("ex", 0.8),
                    ("theta:1", 0.7), ("em", 0.6), ("pc-em-bem", 0.5),
                    ("m2", 1.1), ("m6", 0.4)):
        cases.append((h, *evaluate(get_method(name), h)))
    return cases


def test_spectral_data_matches_eigenvalues():
    for _, A, _ in spectral_cases():
        sd = spectral_data(A)
        npt.assert_allclose(sd.theta, eig_angle(A), rtol=1e-12, atol=1e-12)
        npt.assert_allclose(sd.det, np.linalg.det(A), rtol=1e-12)
        assert sd.tr == pytest.approx(np.trace(A))
        assert 0.0 < sd.theta < math.pi


def test_rotation_angle_recovered():
    sd = spectral_data(rotation(0.3))
    assert sd.theta == pytest.approx(0.3, abs=1e-15)
    assert sd.det == pytest.approx(1.0, abs=1e-15)


def test_midpoint_angle_frozen_value():
    A, _ = evaluate(get_method("beta:0.5"), 0.5)
    sd = spectral_data(A)
    assert sd.theta == pytest.approx(0.4899573262537283, abs=1e-14)


def test_spectral_data_rejects_real_pairs():
    with pytest.raises(ValueError, match="complex-pair"):
        spectral_data([[2.0, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="complex-pair"):
        spectral_data([[1.0, 0.5], [0.5, 1.0]])


def test_spectral_data_near_degenerate():
    # disc > 0 but the cosine rounds to -1: the angle is numerically lost
    with pytest.raises(NearDegenerateError):
        spectral_data([[-1.0, 1.49e-8], [-1.49e-8, -1.0]])


def test_index_guards():
    # the doubling kernel has no closed form to break at negative indices,
    # but a negative step count would never terminate its bit loop
    A, b = evaluate(get_method("beta:0.5"), 0.5)
    params = OscillatorParams(alpha=0.7, x0=0.3, y0=-0.2)
    with pytest.raises(ValueError, match="N >= 0"):
        _augmented_moments(A, b, 0.5, -1, params)
    with pytest.raises(ValueError, match="N >= 0"):
        _augmented_moments(A, b, 0.5, -7, params)
    # N = 0 is the empty product: the initial state with no noise
    got = _augmented_moments(A, b, 0.5, 0, params)
    npt.assert_array_equal(got.mean, [params.x0, params.y0, 0.0])
    npt.assert_array_equal(got.covariance, np.zeros((3, 3)))


def test_partial_sums_against_direct():
    # sum_{n<N} A^n z0 and A^N z0 against matrix powers, term by term
    params = OscillatorParams(alpha=0.7, x0=0.3, y0=-0.2)
    z0 = np.array([params.x0, params.y0])
    for h, A, b in spectral_cases():
        for N in (1, 2, 3, 10, 57, 200):
            powers = [np.eye(2)]
            for _ in range(N):
                powers.append(A @ powers[-1])
            running_mean = sum(P @ z0 for P in powers[:N])[0]
            got = _augmented_moments(A, b, h, N, params)
            npt.assert_allclose(got.mean[:2], powers[N] @ z0,
                                rtol=1e-9, atol=1e-12)
            npt.assert_allclose(got.mean[2], running_mean, rtol=1e-9,
                                atol=1e-12)


def test_weight_vector_against_cumsum_route():
    # running-sum variance: dW_m enters every later position with weight
    # e1^T A^k b, so its total weight in the sum is the cumulative sum of
    # those; the variance is alpha^2 h times the sum of squared weights
    rng = np.random.default_rng(7)
    params = OscillatorParams(alpha=0.7, x0=0.3, y0=-0.2)
    for h, A, _ in spectral_cases():
        for N in (2, 3, 25, 160):
            b = rng.uniform(-1.0, 1.0, size=2)
            powers = [np.eye(2)]
            for _ in range(N - 2):
                powers.append(A @ powers[-1])
            weights = np.cumsum([(P @ b)[0] for P in powers])
            # the last increment reaches only x_{N-1}: its weight is b1
            assert weights[0] == pytest.approx(b[0], abs=1e-15)
            running_var = params.alpha ** 2 * h * float(np.sum(weights ** 2))
            got = _augmented_moments(A, b, h, N, params)
            npt.assert_allclose(got.covariance[2, 2], running_var, rtol=1e-9,
                                atol=1e-12)
