"""Exact finite-N Gaussian laws of a one-step method and interval probabilities.

Two observables drive everything downstream: the running position sum
sum_{n=0}^{N-1} x_n and the terminal position x_N. Both are read off one
kernel, `_augmented_moments`. The state (x, y, s) of a one-step method,
extended by the running sum s_{n+1} = s_n + x_n, evolves linearly:

    z_{n+1} = M z_n + alpha b~ dW_n,   M = [[A, 0], [1 0 1]],   b~ = (b1, b2, 0).

After N steps its mean is M^N z_0 and its covariance is the discrete Lyapunov
sum Q_N = alpha^2 h sum_{k<N} M^k b~ b~^T M^kT. Squaring (M^n, Q_n) ->
(M^2n, Q_n + M^n Q_n M^nT) doubles the horizon (Smith, SIAM J. Appl. Math. 16,
1968), so N steps take at most 2 log2 N updates of 3x3 float tuples (about
60 at N = 1e9, no BLAS): time O(log N), memory O(1). Against the same doubling
in 50-digit mpmath, the relative variance error over the catalog is at most
9.3e-16 for N <= 10 and about 5e-17 N beyond, within the tested budget
4e-15 + 1e-16 N; means stay within 1.4e-11 of |mean| + sigma up to N = 1e9.

Both laws first read `check_conditions` on (A, b): real spectra and rotation
angles lost to rounding (sin theta < SIN_THETA_MIN) are rejected before any
moment is computed.

`interval_probability` turns a law into P(lo <= Z <= hi) and its logarithm
with the `math` module alone: erf about the mean, and for one-sided tails
log Phi from erfc, or from the asymptotic series of the normal tail
(Abramowitz and Stegun 26.2.12) below z = -20, where erfc nears underflow.

`oracle_moments` recomputes the same moments by stepping the recursion N
times; it shares only the method coefficients with the kernel, so the two
routes agreeing is a correctness check asserted in the test suite.
"""

import math
from typing import NamedTuple

from .methods import SIN_THETA_MIN, NearDegenerateError, check_conditions, \
    evaluate
from .oscillator import MAX_N, GaussianLaw


class DivergentMomentsError(ValueError):
    """The moments overflow float64 at this N: the matrix powers diverge
    (det A > 1) or the noise covariance is too large."""


class AugmentedMoments(NamedTuple):
    """Mean vector and covariance of (x_N, y_N, sum of positions)."""

    mean: tuple
    covariance: tuple

    @property
    def running_sum_law(self):
        return GaussianLaw(self.mean[2], max(self.covariance[2][2], 0.0))

    @property
    def position_law(self):
        return GaussianLaw(self.mean[0], max(self.covariance[0][0], 0.0))


def _product(X, Y):
    """X Y for 3x3 matrices given as row tuples."""
    (a, b, c), (d, e, f), (g, k, m) = Y
    return tuple((x * a + y * d + z * g, x * b + y * e + z * k,
                  x * c + y * f + z * m) for x, y, z in X)


def _add_congruence(S, X, Q):
    """S + X Q X^T for 3x3 matrices given as row tuples."""
    (a, b, c), (d, e, f), (g, k, m) = X
    return tuple((s0 + (x * a + y * b + z * c), s1 + (x * d + y * e + z * f),
                  s2 + (x * g + y * k + z * m))
                 for (s0, s1, s2), (x, y, z) in zip(S, _product(X, Q)))


def _augmented_moments(A, b, h, N, params):
    """Moments of (x_N, y_N, sum_{n=0}^{N-1} x_n) by doubling, O(log N)."""
    (a11, a12), (a21, a22) = A
    P = ((a11, a12, 0.0), (a21, a22, 0.0), (1.0, 0.0, 1.0))
    g = (b[0], b[1], 0.0)
    Q = tuple(tuple(params.alpha ** 2 * h * (gi * gj) for gj in g) for gi in g)
    # (P, Q) covers a block of 2^k steps; (R, S) the steps taken so far
    R = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    S = ((0.0, 0.0, 0.0),) * 3
    n = int(N)
    if n < 0:
        raise ValueError(f"need N >= 0 steps, got {N}")
    while n:
        if n & 1:
            S = _add_congruence(S, R, Q)
            R = _product(R, P)
        n >>= 1
        if n:
            Q = _add_congruence(Q, P, Q)
            P = _product(P, P)
    if not all(math.isfinite(x) for M in (R, S) for row in M for x in row):
        rep = check_conditions(A, b)
        cause = "the matrix powers diverge" if rep.excluded else \
            "the noise covariance alpha^2 h b b^T is too large"
        raise DivergentMomentsError(
            f"moments overflow float64 at N = {N} with det(A) = {rep.det:.6g}: "
            f"{cause}")
    # the full product R (x0, y0, 0): the third term sets a zero mean's sign
    mean = tuple(r0 * params.x0 + r1 * params.y0 + r2 * 0.0 for r0, r1, r2 in R)
    if not all(map(math.isfinite, mean)):
        raise ValueError(
            f"the mean overflows float64 at N = {N}: the initial state "
            f"x0 = {params.x0:g}, y0 = {params.y0:g} is too large")
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


def _check_steps(N, least, law):
    if N < least:
        raise ValueError(f"{law} law needs N >= {least}, got {N}")
    if N > MAX_N:
        raise ValueError(f"{law} law needs N <= {MAX_N:.0e}, the largest N "
                         f"its precision is tested at, got {N}")


def law_NA_N(method, h, N, params):
    """Law of the running position sum sum_{n=0}^{N-1} x_n after N steps."""
    _check_steps(N, 2, "running-sum")
    A, b = _oscillatory_coefficients(method, h)
    return _augmented_moments(A, b, h, N, params).running_sum_law


def law_x_N(method, h, N, params):
    """Law of the terminal position x_N after N steps."""
    _check_steps(N, 1, "terminal")
    A, b = _oscillatory_coefficients(method, h)
    return _augmented_moments(A, b, h, N, params).position_law


def oracle_moments(method, h, N, params):
    """Moments of (x_N, y_N, sum_{n=0}^{N-1} x_n) by direct propagation.

    The state is augmented with an accumulator that absorbs x before each
    step, so after N iterations it holds the sum over n = 0..N-1. O(N), and
    independent of the doubling in `_augmented_moments`. Test-only: the
    benchmark's tests import it from here until ROADMAP item 1 moves it.
    """
    import numpy as np
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    A, b = evaluate(method, h)
    step = np.zeros((3, 3))
    step[:2, :2] = A
    step[2, 0] = step[2, 2] = 1.0
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

    One-sided tails are computed entirely in log space via `_log_ndtr`, so
    intervals hundreds of standard deviations out still return a finite
    log_p even when p itself underflows to 0, except that a window narrower
    than the tail scale integrates the density over it
    (`_log_narrow_window`); an interval about the mean is
    (erf(zhi/sqrt 2) - erf(zlo/sqrt 2)) / 2, a sum of two terms of one sign.
    Infinite endpoints are allowed.
    """
    if not lo < hi:
        raise ValueError(f"interval needs lo < hi, got [{lo}, {hi}]")
    if law.variance == 0.0:
        inside = lo <= law.mean <= hi
        return IntervalProbability(1.0 if inside else 0.0,
                                   0.0 if inside else -math.inf)
    zlo = (lo - law.mean) / law.sigma
    zhi = (hi - law.mean) / law.sigma
    if zlo < 0.0 < zhi:
        p = (math.erf(zhi / _SQRT2) - math.erf(zlo / _SQRT2)) / 2.0
        return IntervalProbability(p, math.log(p) if p > 0.0 else -math.inf)
    # a one-sided window, mirrored left of the mean; w is its width in z
    near, far = (zhi, zlo) if zhi <= 0.0 else (-zlo, -zhi)
    w = (hi - lo) / law.sigma
    if 0.0 < w and w * (w - near) <= 1.0:
        log_p = _log_narrow_window(-near, w)
    else:
        log_p = _log_ndtr_difference(_log_ndtr(near), _log_ndtr(far))
    return IntervalProbability(math.exp(log_p), log_p)


_SQRT2 = math.sqrt(2.0)

# 12-point Gauss-Legendre on [-1, 1]: the positive nodes and their weights
_GL12_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
               0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_GL12_WEIGHTS = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                 0.16007832854334642, 0.10693932599531907, 0.04717533638651141)


def _log_narrow_window(a, w):
    """log P(a <= Z <= a + w) for a standard normal Z, a >= 0, 0 < w (a + w) <= 1:
    log phi(a) + log int_0^w exp(-a s - s^2/2) ds, whose exponent stays in
    [-1, 0], so 12-point Gauss-Legendre is exact to rounding."""
    total = sum(weight * math.exp(-s * (a + s / 2.0))
                for x, weight in zip(_GL12_NODES, _GL12_WEIGHTS)
                for s in (w * (1.0 - x) / 2.0, w * (1.0 + x) / 2.0))
    return (-a * a / 2.0 - math.log(2.0 * math.pi) / 2.0 + math.log(w)
            + math.log(total / 2.0))


# below this z, erfc(-z / sqrt 2) nears the subnormal range (about z = -37.5)
# and the asymptotic series already converges in a few terms
_LOG_NDTR_ASYMPTOTIC = -20.0


def _log_ndtr(z):
    """log Phi(z) for the standard normal CDF Phi, finite down to z = -1e154."""
    if z > 0.0:
        return math.log1p(-math.erfc(z / _SQRT2) / 2.0)
    if z > _LOG_NDTR_ASYMPTOTIC:
        return math.log(math.erfc(-z / _SQRT2) / 2.0)
    if z == -math.inf:
        return -math.inf
    # Phi(z) = phi(z) / -z * sum_k (-1)^k (2k-1)!! z^-2k (Abramowitz and
    # Stegun 26.2.12); the terms shrink while 2k - 1 < z^2, which is at least
    # 400 here, so about ten terms reach 1e-17
    inv_z2 = 1.0 / (z * z)
    term = total = 1.0
    k = 0
    while abs(term) >= 1e-17 * total:
        k += 1
        term *= -(2 * k - 1) * inv_z2
        total += term
    return (-z * z / 2.0 - math.log(-z) - math.log(2.0 * math.pi) / 2.0
            + math.log(total))


def _log_ndtr_difference(log_a, log_b):
    # log(exp(log_a) - exp(log_b)) with log_b <= log_a, both probabilities
    gap = min(log_b - log_a, 0.0)
    rest = -math.expm1(gap)
    return log_a + math.log(rest) if rest > 0.0 else -math.inf
