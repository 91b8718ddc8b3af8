"""Tests for the exact per-method Gaussian laws and interval probabilities.

The doubling kernel behind the laws is cross-checked against a direct moment
recursion (oracle_moments) for its algebra, against matrix powers and
cumulative weights term by term, and against the same doubling in 50-digit
mpmath arithmetic for its float64 precision up to N = 1e9. The rotation angle
that guards the laws is checked against eigenvalue angles.
"""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import log_ndtr, ndtr

from ldp_osc import cli
from ldp_osc.laws import (
    _GL12_NODES,
    _GL12_WEIGHTS,
    MAX_N,
    DivergentMomentsError,
    _augmented_moments,
    _log_ndtr,
    interval_probability,
    law_NA_N,
    law_x_N,
    oracle_moments,
)
from ldp_osc.methods import SIN_THETA_MIN, MethodDef, NearDegenerateError, \
    catalog, check_conditions, evaluate, get_method
from ldp_osc.oscillator import GaussianLaw, OscillatorParams
from ldp_osc.strong import rotation
from oracles import interval_probability_mp50, parse_csv

PARAMS = OscillatorParams(alpha=1.0, x0=0.3, y0=-0.2)


def _close(a, b, rel=1e-9, abs_tol=1e-12):
    assert abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol, (a, b)


@pytest.mark.parametrize("name", ["beta:0.5", "ex", "theta:1", "em", "m2", "pc-em-bem"])
@pytest.mark.parametrize("h", [0.1, 0.5])
def test_laws_match_moment_recursion(name, h):
    method = get_method(name)
    if not method.h_range[0] < h < method.h_range[1]:
        pytest.skip(f"{name} undefined at h={h}")
    for N in [2, 10, 100, 1000]:
        oracle = oracle_moments(method, h, N, PARAMS)
        run = law_NA_N(method, h, N, PARAMS)
        term = law_x_N(method, h, N, PARAMS)
        _close(run.mean, oracle.running_sum_law.mean)
        _close(run.variance, oracle.running_sum_law.variance)
        _close(term.mean, oracle.position_law.mean)
        _close(term.variance, oracle.position_law.variance)


def _mp_product(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _mp_sandwich(S, X, Q):
    # S + X Q X^T
    XQ = _mp_product(X, Q)
    return [[S[i][j] + sum(XQ[i][k] * X[j][k] for k in range(3))
             for j in range(3)] for i in range(3)]


def _mp_moments(A, b, h, N, params):
    """Mean and covariance of (x_N, y_N, sum x_n) by doubling at 50 digits,
    starting from the exact values of the float64 inputs."""
    with mpmath.workdps(50):
        f = mpmath.mpf
        zero, one = f(0), f(1)
        P = [[f(A[0][0]), f(A[0][1]), zero], [f(A[1][0]), f(A[1][1]), zero],
             [one, zero, one]]
        g = [f(b[0]), f(b[1]), zero]
        scale = f(params.alpha) ** 2 * f(h)
        Q = [[scale * g[i] * g[j] for j in range(3)] for i in range(3)]
        R = [[one if i == j else zero for j in range(3)] for i in range(3)]
        S = [[zero] * 3 for _ in range(3)]
        n = N
        while n:
            if n & 1:
                S = _mp_sandwich(S, R, Q)
                R = _mp_product(R, P)
            n >>= 1
            if n:
                Q = _mp_sandwich(Q, P, Q)
                P = _mp_product(P, P)
        z0 = [f(params.x0), f(params.y0), zero]
        mean = [sum(R[i][k] * z0[k] for k in range(3)) for i in range(3)]
        return mean, S


def test_precision_budget():
    # relative variance error <= 4e-15 + 1e-16 N; measured worst cases are
    # 9.3e-16 (N <= 10), 6.3e-15 (1e2), 4.4e-13 (1e4), 4.5e-10 (1e7) and
    # 4.4e-8 (1e9, m2 at h = 0.1). Mean error on the |mean| + sigma scale:
    # worst 1.4e-11.
    worst_var = worst_mean = (0.0, None)
    cells = 0
    for method in catalog():
        for h in (1e-3, 1e-2, 0.1, 0.5):
            if not method.h_range[0] < h < method.h_range[1]:
                continue
            A, b = evaluate(method, h)
            rep = check_conditions(A, b)
            if not rep.a1 or math.sin(rep.theta) < SIN_THETA_MIN:
                continue
            for N in (2, 3, 10, 10 ** 2, 10 ** 4, 10 ** 7, 10 ** 9):
                try:
                    got = _augmented_moments(A, b, h, N, PARAMS)
                except DivergentMomentsError:
                    continue
                ref_mean, ref_cov = _mp_moments(A, b, h, N, PARAMS)
                budget = 4e-15 + 1e-16 * N
                for i in (0, 2):
                    ref_var = ref_cov[i][i]
                    var_err = abs(got.covariance[i][i] - ref_var)
                    if ref_var > 0:
                        var_err /= ref_var
                    mean_err = abs(got.mean[i] - ref_mean[i]) / (
                        abs(ref_mean[i]) + mpmath.sqrt(ref_var))
                    where = (method.name, h, N, i)
                    assert var_err <= budget, (float(var_err), where)
                    assert mean_err <= min(budget, 3e-11), \
                        (float(mean_err), where)
                    worst_var = max(worst_var, (float(var_err), where))
                    worst_mean = max(worst_mean, (float(mean_err), where))
                cells += 1
    assert cells >= 400, cells
    print(f"{cells} cells; worst variance error {worst_var}; "
          f"worst mean error {worst_mean}")


def test_law_memory_does_not_grow_with_N(capsys):
    method = get_method("beta:0.5")

    def peak(N):
        tracemalloc.start()
        try:
            law_NA_N(method, 0.1, N, PARAMS)
            law_x_N(method, 0.1, N, PARAMS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # warm caches outside the measurement
    assert peak(10 ** 9) - peak(1000) <= 64 * 1024

    assert cli.main(["prob", "--method", "beta:0.5",
                     "--observable", "mean-position", "--h", "0.1",
                     "--interval", "0.9:1.1",
                     "--N-sweep", "1000:1000000000:4"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [int(row["N"]) for row in rows][-1] == 10 ** 9


def test_running_sum_variance_growth_rate():
    # Var(sum x_n) / N approaches twice the scaled cumulant coefficient.
    method = get_method("beta:0.5")
    h = 0.1
    N = 100_000
    law = law_NA_N(method, h, N, PARAMS)
    assert law.variance / N == pytest.approx(15.0, rel=1e-3)


def test_terminal_mean_follows_exact_rotation():
    # the exact-flow method transports the mean along the true oscillation
    method = get_method("ex")
    h, N = 0.3, 37
    law = law_x_N(method, h, N, PARAMS)
    t = N * h
    expected = PARAMS.x0 * math.cos(t) + PARAMS.y0 * math.sin(t)
    assert law.mean == pytest.approx(expected, abs=1e-12)


def test_contractive_terminal_variance_saturates():
    method = get_method("theta:1")
    h = 0.5
    v3 = law_x_N(method, h, 1_000, PARAMS).variance
    v4 = law_x_N(method, h, 10_000, PARAMS).variance
    assert v4 == pytest.approx(v3, rel=1e-3)
    assert v4 < 10.0


def test_terminal_law_single_step():
    method = get_method("beta:0.5")
    h = 0.4
    A, b = evaluate(method, h)
    law = law_x_N(method, h, 1, PARAMS)
    assert law.mean == pytest.approx(A[0][0] * PARAMS.x0 + A[0][1] * PARAMS.y0,
                                     rel=1e-14)
    assert law.variance == pytest.approx(PARAMS.alpha ** 2 * h * b[0] ** 2,
                                         rel=1e-14)


def test_running_sum_law_rejects_single_step():
    with pytest.raises(ValueError):
        law_NA_N(get_method("ex"), 0.5, 1, PARAMS)
    with pytest.raises(ValueError):
        law_x_N(get_method("ex"), 0.5, 0, PARAMS)


def test_laws_refuse_N_beyond_the_precision_budget():
    # test_precision_budget covers N up to MAX_N; beyond it the law says so
    # instead of printing an unchecked sigma
    assert MAX_N == 10 ** 9
    method = get_method("beta:0.5")
    for law in (law_NA_N, law_x_N):
        assert law(method, 0.1, MAX_N, PARAMS).variance > 0.0
        with pytest.raises(ValueError, match=r"N <= 1e\+09"):
            law(method, 0.1, MAX_N + 1, PARAMS)


def test_overflow_blames_the_powers_or_the_initial_state():
    # det(A) = 1.01: the powers themselves overflow, whatever the state
    A, b = evaluate(get_method("em"), 0.1)
    with pytest.raises(DivergentMomentsError, match="matrix powers diverge"):
        _augmented_moments(A, b, 0.1, 10 ** 6, PARAMS)
    # det(A) = 1: the powers stay bounded and only the mean overflows
    A, b = evaluate(get_method("beta:0.5"), 0.1)
    huge = OscillatorParams(alpha=1.0, x0=1e308, y0=1e308)
    with pytest.raises(ValueError, match="x0 = 1e[+]308, y0 = 1e[+]308") as info:
        _augmented_moments(A, b, 0.1, 10, huge)
    assert not isinstance(info.value, DivergentMomentsError)


def test_mean_position_drift_vanishes():
    params = OscillatorParams(alpha=1.0, x0=1.0, y0=1.0)
    N = 10_000
    law = law_NA_N(get_method("beta:0.5"), 0.1, N, params)
    assert abs(law.mean / N) <= 1e-2


def test_oracle_moments_guard():
    with pytest.raises(ValueError):
        oracle_moments(get_method("ex"), 0.5, 0, PARAMS)


def test_interval_probability_reference_values():
    std = GaussianLaw(mean=0.0, variance=1.0)
    one_two = interval_probability(std, 1.0, 2.0)
    assert one_two.p == pytest.approx(0.1359051219832779, rel=1e-13)
    assert one_two.log_p == pytest.approx(math.log(one_two.p), rel=1e-12)

    wide = interval_probability(std, -1.0, 2.0)
    assert wide.p == pytest.approx(0.8185946141203637, rel=1e-13)

    total = interval_probability(std, -math.inf, math.inf)
    assert total.p == pytest.approx(1.0, rel=1e-14)
    assert total.log_p == pytest.approx(0.0, abs=1e-14)


def test_interval_probability_far_tail_stays_finite():
    std = GaussianLaw(mean=0.0, variance=1.0)
    tail = interval_probability(std, 40.0, math.inf)
    assert tail.p == 0.0
    assert tail.log_p == pytest.approx(log_ndtr(-40.0), rel=1e-6)
    assert math.isfinite(tail.log_p)

    # bounded far-tail window: nearly all of the tail mass sits in [40, 41],
    # so its log probability coincides with the one-sided tail to double
    # precision and must stay finite
    window = interval_probability(std, 40.0, 41.0)
    assert math.isfinite(window.log_p)
    assert window.log_p <= tail.log_p <= 0.0
    assert window.log_p == pytest.approx(tail.log_p, rel=1e-6)


def test_interval_probability_monotone_in_width():
    law = GaussianLaw(mean=0.3, variance=2.0)
    widths = [0.1, 0.5, 1.0, 3.0, 10.0]
    probs = [interval_probability(law, -w, w).p for w in widths]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_interval_probability_matches_ndtr_midrange():
    law = GaussianLaw(mean=1.0, variance=4.0)
    for lo, hi in [(-2.0, 0.5), (0.0, 3.0), (-math.inf, 1.0), (1.0, math.inf)]:
        got = interval_probability(law, lo, hi)
        zlo = (lo - law.mean) / law.sigma if math.isfinite(lo) else -math.inf
        zhi = (hi - law.mean) / law.sigma if math.isfinite(hi) else math.inf
        expected = ndtr(zhi) - ndtr(zlo)
        assert got.p == pytest.approx(expected, rel=1e-12)


def test_interval_probability_point_mass():
    point = GaussianLaw(mean=0.7, variance=0.0)
    assert interval_probability(point, 0.0, 1.0).p == 1.0
    assert interval_probability(point, 0.0, 1.0).log_p == 0.0
    assert interval_probability(point, 1.0, 2.0).p == 0.0
    assert interval_probability(point, 1.0, 2.0).log_p == -math.inf


def test_interval_probability_rejects_empty_interval():
    std = GaussianLaw(mean=0.0, variance=1.0)
    with pytest.raises(ValueError):
        interval_probability(std, 1.0, 1.0)
    with pytest.raises(ValueError):
        interval_probability(std, 2.0, 1.0)



# z of the one-sided tails: the edges of the branches of `_log_ndtr` (0, the
# asymptotic series from -20, erfc's approach to the subnormals near -37.5)
# and points out to where z^2 / 2 nears the float64 range
TAIL_Z = (-1e150, -1e6, -1e4, -1e3, -300.0, -40.0, -37.5, -37.0, -30.0,
          -20.000001, -20.0, -19.999999, -10.0, -5.0, -1.0, -1e-3, -0.0, 0.0,
          1e-3, 1.0, 5.0, 10.0, 20.0, 37.0)


def _log_error(got, reference):
    return abs(got - float(reference)) / max(1.0, abs(float(reference)))


def test_one_sided_tails_match_50_digit_reference():
    std = GaussianLaw(mean=0.0, variance=1.0)
    for z in TAIL_Z:
        _, log_cdf = interval_probability_mp50(std, -math.inf, z)
        assert _log_error(_log_ndtr(z), log_cdf) <= 1e-13, z
        assert _log_error(interval_probability(std, -math.inf, z).log_p,
                          log_cdf) <= 1e-13, z
        # the mirrored right tail
        assert _log_error(interval_probability(std, -z, math.inf).log_p,
                          log_cdf) <= 1e-13, z
    assert _log_ndtr(-math.inf) == -math.inf


def test_central_intervals_match_50_digit_reference():
    # zlo < 0 < zhi: erf(zhi / sqrt 2) and erf(zlo / sqrt 2) have opposite
    # signs, so p keeps full relative precision even on the narrowest interval
    for law in (GaussianLaw(mean=0.0, variance=1.0),
                GaussianLaw(mean=0.25, variance=4.0)):
        for width in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 30.0):
            for left in (0.5, 1e-3, 0.1, 0.9, 0.999):
                lo = law.mean - left * width
                hi = law.mean + (1.0 - left) * width
                p, _ = interval_probability_mp50(law, lo, hi)
                got = interval_probability(law, lo, hi).p
                assert abs(got - float(p)) <= 1e-14 * float(p), \
                    (law, width, left, got, p)


# --------------------------------------------------------------------------
# the spectral guard of the laws, and the kernel against naive summation


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


def _fixed_method(A):
    return MethodDef("fixed", lambda h: (A, [0.0, 1.0]))


def test_condition_angle_matches_eigenvalues():
    for _, A, b in spectral_cases():
        rep = check_conditions(A, b)
        npt.assert_allclose(rep.theta, eig_angle(A), rtol=1e-12, atol=1e-12)
        npt.assert_allclose(rep.det, np.linalg.det(A), rtol=1e-12)
        assert rep.tr == pytest.approx(np.trace(A))
        assert 0.0 < rep.theta < math.pi


def test_condition_rotation_angle_recovered():
    rep = check_conditions(rotation(0.3), [0.0, 1.0])
    assert rep.theta == pytest.approx(0.3, abs=1e-15)
    assert rep.det == pytest.approx(1.0, abs=1e-15)


def test_condition_midpoint_angle_frozen_value():
    A, b = evaluate(get_method("beta:0.5"), 0.5)
    rep = check_conditions(A, b)
    assert rep.theta == pytest.approx(0.4899573262537283, abs=1e-14)


def test_law_guard_rejects_real_pairs():
    for A in ([[2.0, 0.0], [0.0, 0.5]], [[1.0, 0.5], [0.5, 1.0]]):
        method = _fixed_method(A)
        assert math.isnan(check_conditions(*evaluate(method, 0.5)).theta)
        with pytest.raises(ValueError, match="complex-pair"):
            law_NA_N(method, 0.5, 10, PARAMS)
        with pytest.raises(ValueError, match="complex-pair"):
            law_x_N(method, 0.5, 10, PARAMS)


def test_law_guard_near_degenerate():
    # 4 det > tr^2 but the cosine rounds to -1: the angle is numerically lost
    method = _fixed_method([[-1.0, 1.49e-8], [-1.49e-8, -1.0]])
    with pytest.raises(NearDegenerateError):
        law_NA_N(method, 0.5, 10, PARAMS)
    with pytest.raises(NearDegenerateError):
        law_x_N(method, 0.5, 10, PARAMS)


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
            npt.assert_allclose(got.covariance[2][2], running_var, rtol=1e-9,
                                atol=1e-12)


# z at the end of a one-sided window nearer the mean, up to where p underflows
NARROW_A = (0.0, 1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 37.0)


def test_narrow_tail_windows_match_50_digit_reference():
    # w (a + w) <= 1 integrates the density over the window; the difference
    # of the two log tails lost up to 0.2 of p on this grid, and 1.4e-7 on
    # [5, 5 + 1e-9]
    worst_p = worst_log_p = 0.0
    for law in (GaussianLaw(mean=0.0, variance=1.0),
                GaussianLaw(mean=0.25, variance=4.0)):
        for a in NARROW_A:
            edge = (math.sqrt(a * a + 4.0) - a) / 2.0  # w (a + w) = 1
            for fraction in (1e-13, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.999):
                width = fraction * edge * law.sigma
                for lo in (law.mean + a * law.sigma,
                           law.mean - a * law.sigma - width):
                    hi = lo + width
                    if hi == lo:  # narrower than the spacing of floats at lo
                        continue
                    p, log_p = interval_probability_mp50(law, lo, hi)
                    got = interval_probability(law, lo, hi)
                    if p >= sys.float_info.min:  # p has full precision
                        worst_p = max(worst_p, abs(got.p - float(p)) / float(p))
                    worst_log_p = max(worst_log_p, abs(got.log_p - float(log_p))
                                      / abs(float(log_p)))
    assert worst_p <= 1e-12
    assert worst_log_p <= 2e-15


def test_narrow_window_nodes_are_gauss_legendre_12():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    npt.assert_allclose(_GL12_NODES, nodes[6:], rtol=0, atol=1e-16)
    npt.assert_allclose(_GL12_WEIGHTS, weights[6:], rtol=0, atol=1e-16)
    npt.assert_allclose(nodes[:6], -nodes[:5:-1], rtol=0, atol=1e-16)
    npt.assert_allclose(weights[:6], weights[:5:-1], rtol=0, atol=1e-16)
