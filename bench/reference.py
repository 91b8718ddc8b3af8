"""Independent references for the benchmark's correctness checks.

Nothing here imports ldp_osc: the method coefficients are restated from their
definitions and the exact laws come from the augmented moment recursion, so a
defect in `ldp_osc.spectral` or `ldp_osc.laws` cannot hide in the reference.

The state (x, y, s) of a one-step method x_{n+1} = A x_n + alpha b dW_n,
extended by the running sum s_{n+1} = s_n + x_n, evolves linearly:

    z_{n+1} = M z_n + g dW_n,   M = [[A, 0], [1 0 1]],   g = alpha (b1, b2, 0).

After N steps its mean is M^N z_0 and its covariance is the discrete Lyapunov
sum Q_N = h sum_{k<N} M^k g g^T M^kT. Squaring (M^n, Q_n) -> (M^2n,
Q_n + M^n Q_n M^nT) doubles the horizon (Smith, SIAM J. Appl. Math. 16, 1968),
so N steps take O(log N) 3x3 products instead of the N of a direct loop.
"""

from __future__ import annotations

import math

import numpy as np


def coefficients(method, h):
    """(A, b) of the catalog methods the workloads run, from their formulas."""
    if method == "beta:0.5":
        beta = 0.5
        D = 1.0 + beta * (1.0 - beta) * h * h
        A = [[(1.0 - (1.0 - beta) ** 2 * h * h) / D, h / D],
             [-h / D, (1.0 - beta * beta * h * h) / D]]
        b = [(1.0 - beta) * h / D, 1.0 / D]
    elif method == "theta:1":
        D = 1.0 + h * h
        A = [[1.0 / D, h / D], [-h / D, 1.0 / D]]
        b = [h / D, 1.0 / D]
    else:
        raise ValueError(f"no reference coefficients for {method!r}")
    return np.array(A), np.array(b)


def augmented_moments(A, b, h, N, x0=0.0, y0=0.0, alpha=1.0):
    """Mean vector and covariance of (x_N, y_N, sum_{n<N} x_n) by doubling."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    M = np.zeros((3, 3))
    M[:2, :2] = A
    M[2, 0] = M[2, 2] = 1.0
    g = alpha * np.array([b[0], b[1], 0.0])
    # (P, Q) covers a block of 2^k steps; (R, S) the steps taken so far
    P, Q = M, h * np.outer(g, g)
    R, S = np.eye(3), np.zeros((3, 3))
    n = int(N)
    while n:
        if n & 1:
            S = S + R @ Q @ R.T
            R = R @ P
        n >>= 1
        if n:
            Q = Q + P @ Q @ P.T
            P = P @ P
    return R @ np.array([x0, y0, 0.0]), S


def observable_law(method, observable, h, N, x0=0.0, y0=0.0):
    """(mean, variance) of the mean position (1/N) sum x_n or of the mean
    velocity x_N / (N h), as the CLI reports them."""
    mean, cov = augmented_moments(*coefficients(method, h), h, N, x0, y0)
    if observable == "mean-position":
        return mean[2] / N, cov[2, 2] / (N * N)
    if observable == "mean-velocity":
        scale = 1.0 / (N * h)
        return mean[0] * scale, cov[0, 0] * scale * scale
    raise ValueError(f"unknown observable {observable!r}")


def law_gap(mean, sigma, ref_mean, ref_variance):
    """Relative disagreement of a reported (mean, sigma) with the reference.

    The mean is compared on the scale |mean| + sigma of the distribution, so
    means that vanish or underflow are judged against their spread.
    """
    ref_sigma = math.sqrt(ref_variance)
    mean_gap = abs(mean - ref_mean) / max(abs(ref_mean) + ref_sigma, 1e-300)
    sigma_gap = abs(sigma - ref_sigma) / max(ref_sigma, 1e-300)
    return max(mean_gap, sigma_gap)
