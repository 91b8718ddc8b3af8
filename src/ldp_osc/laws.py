"""Exact finite-N Gaussian laws of a one-step method and interval probabilities.

Two observables drive everything downstream: the running position sum
sum_{n=0}^{N-1} x_n and the terminal position x_N. Both are read off one
kernel, `_augmented_moments`. The state (x, y, s) of a one-step method,
extended by the running sum s_{n+1} = s_n + x_n, evolves linearly:

    z_{n+1} = M z_n + alpha b~ dW_n,   M = [[A, 0], [1 0 1]],   b~ = (b1, b2, 0).

After N steps its mean is M^N z_0 and its covariance is the discrete Lyapunov
sum Q_N = alpha^2 h sum_{k<N} M^k b~ b~^T M^kT. Squaring (M^n, Q_n) ->
(M^2n, Q_n + M^n Q_n M^nT) doubles the horizon (Smith, SIAM J. Appl. Math. 16,
1968), so N steps take at most 2 log2 N updates of 3x3 matrices (about 60 at
N = 1e9): time O(log N), memory O(1). Against the same doubling in 50-digit
mpmath, the relative variance error over the catalog is at most 1.4e-15 for
N <= 10 and about 5e-17 N beyond, within the tested budget 4e-15 + 1e-16 N;
means stay within 1.3e-11 of |mean| + sigma up to N = 1e9.

Both laws first read `check_conditions` on (A, b): real spectra and rotation
angles lost to rounding (sin theta < SIN_THETA_MIN) are rejected before any
moment is computed.

`oracle_moments` recomputes the same moments by stepping the recursion N
times; it shares only the method coefficients with the kernel, so the two
routes agreeing is a correctness check asserted in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .methods import SIN_THETA_MIN, NearDegenerateError, check_conditions, \
    evaluate
from .oscillator import GaussianLaw


class DivergentMomentsError(ValueError):
    """The moments overflow float64: the matrix powers diverge at this N."""


@dataclass(frozen=True)
class AugmentedMoments:
    """Mean vector and covariance of (x_N, y_N, sum of positions)."""

    mean: np.ndarray
    covariance: np.ndarray

    @property
    def running_sum_law(self):
        return GaussianLaw(float(self.mean[2]),
                           max(float(self.covariance[2, 2]), 0.0))

    @property
    def position_law(self):
        return GaussianLaw(float(self.mean[0]),
                           max(float(self.covariance[0, 0]), 0.0))


def _augmented_moments(A, b, h, N, params):
    """Moments of (x_N, y_N, sum_{n=0}^{N-1} x_n) by doubling, O(log N)."""
    P = np.zeros((3, 3))
    P[:2, :2] = A
    P[2, 0] = P[2, 2] = 1.0
    g = np.array([b[0], b[1], 0.0])
    Q = params.alpha ** 2 * h * np.outer(g, g)
    # (P, Q) covers a block of 2^k steps; (R, S) the steps taken so far
    R, S = np.eye(3), np.zeros((3, 3))
    n = int(N)
    if n < 0:
        raise ValueError(f"need N >= 0 steps, got {N}")
    with np.errstate(over="ignore", invalid="ignore"):
        while n:
            if n & 1:
                S = S + R @ Q @ R.T
                R = R @ P
            n >>= 1
            if n:
                Q = Q + P @ Q @ P.T
                P = P @ P
        mean = R @ np.array([params.x0, params.y0, 0.0])
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(S))):
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        raise DivergentMomentsError(
            f"moments overflow float64 at N = {N} with det(A) = {det:.6g}: "
            f"the matrix powers diverge")
    return AugmentedMoments(mean, S)


def _oscillatory_coefficients(method, h):
    """(A, b) at step h, rejecting real and near-degenerate spectra."""
    A, b = evaluate(method, h)
    rep = check_conditions(A, b)
    if not rep.a1:
        raise ValueError(
            "complex-pair condition failed: 4 det(A) - tr(A)^2 = "
            f"{4.0 * rep.det - rep.tr * rep.tr:.6g} <= 0")
    if math.sin(rep.theta) < SIN_THETA_MIN:
        raise NearDegenerateError(
            f"near-degenerate spectrum: sin(theta) = {math.sin(rep.theta):.3g} "
            f"< {SIN_THETA_MIN}")
    return A, b


def law_NA_N(method, h, N, params):
    """Law of the running position sum sum_{n=0}^{N-1} x_n after N steps."""
    if N < 2:
        raise ValueError(f"running-sum law needs N >= 2, got {N}")
    A, b = _oscillatory_coefficients(method, h)
    return _augmented_moments(A, b, h, N, params).running_sum_law


def law_x_N(method, h, N, params):
    """Law of the terminal position x_N after N steps."""
    if N < 1:
        raise ValueError(f"terminal law needs N >= 1, got {N}")
    A, b = _oscillatory_coefficients(method, h)
    return _augmented_moments(A, b, h, N, params).position_law


def oracle_moments(method, h, N, params):
    """Moments of (x_N, y_N, sum_{n=0}^{N-1} x_n) by direct propagation.

    The state is augmented with an accumulator that absorbs x before each
    step, so after N iterations it holds the sum over n = 0..N-1. O(N), and
    independent of the doubling in `_augmented_moments`.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    A, b = evaluate(method, h)
    step = np.zeros((3, 3))
    step[:2, :2] = A
    step[2, 0] = 1.0
    step[2, 2] = 1.0
    noise_vec = np.array([b[0], b[1], 0.0])
    noise = params.alpha ** 2 * h * np.outer(noise_vec, noise_vec)
    m = np.array([params.x0, params.y0, 0.0])
    C = np.zeros((3, 3))
    for _ in range(N):
        m = step @ m
        C = step @ C @ step.T + noise
    return AugmentedMoments(m, C)


class IntervalProbability(NamedTuple):
    p: float
    log_p: float


def interval_probability(law, lo, hi):
    """P(Z in [lo, hi]) for Z ~ law, with a log value that survives far tails.

    One-sided tails are computed entirely in log space via log_ndtr, so
    intervals hundreds of standard deviations out still return a finite
    log_p even when p itself underflows to 0. Infinite endpoints are allowed.
    """
    if not lo < hi:
        raise ValueError(f"interval needs lo < hi, got [{lo}, {hi}]")
    if law.variance == 0.0:
        inside = lo <= law.mean <= hi
        return IntervalProbability(1.0 if inside else 0.0,
                                   0.0 if inside else -math.inf)
    zlo = (lo - law.mean) / law.sigma
    zhi = (hi - law.mean) / law.sigma
    if zlo >= 0.0:
        log_p = _log_ndtr_difference(special.log_ndtr(-zlo),
                                     special.log_ndtr(-zhi))
        return IntervalProbability(math.exp(log_p), log_p)
    if zhi <= 0.0:
        log_p = _log_ndtr_difference(special.log_ndtr(zhi),
                                     special.log_ndtr(zlo))
        return IntervalProbability(math.exp(log_p), log_p)
    p = float(special.ndtr(zhi) - special.ndtr(zlo))
    return IntervalProbability(p, math.log(p) if p > 0.0 else -math.inf)


def _log_ndtr_difference(log_a, log_b):
    # log(exp(log_a) - exp(log_b)) with log_b <= log_a, both probabilities
    gap = min(log_b - log_a, 0.0)
    rest = -math.expm1(gap)
    return log_a + math.log(rest) if rest > 0.0 else -math.inf

