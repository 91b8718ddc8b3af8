"""Mean-square convergence order of a one-step method, from the exact law of
its error.

On the test equation dX = Y dt, dY = -X dt + alpha dW, the exact solution
steps as (X, Y) <- R(h) (X, Y) + alpha (I1, I2), with R(h) the free rotation
and I1 = int sin(h - s) dW, I2 = int cos(h - s) dW over the step, while the
method steps as z <- A z + alpha b dW on the same increment dW. So the error
e = z - Z and the exact state Z follow one linear Gaussian recursion,

    e' = A e + (A - R) Z + alpha (b dW - (I1, I2)),   Z' = R Z + alpha (I1, I2),

from e = 0 and Z = (x0, y0), and E|e_n|^2 = |E e_n|^2 + tr Cov e_n is exact
at every grid point n (`mean_square_errors`). Each step is one update of the
4-vector mean and the 4x4 covariance of (e, Z), written on scalars without
the products by the zero block of its step matrix, so a step size of N steps
costs O(N) time and O(1) memory, with no numpy and no sampling.

The error is O(h) beside a state of order one, so the law is written where
nothing of order one cancels:
- the state is (e, Z), not (z, Z) with e read off as z - Z, whose
  covariances cancel to about four digits at h = 1e-4;
- A - R is formed as (A - I) - (R - I), whose differences of A's entries are
  exact where they cancel, with 1 - cos h and h - sin h in forms that do not
  cancel;
- the noise is the triple (dW, I1, I2 - dW) (`step_noise_covariance`), so
  the velocity error's noise (b2 - 1) dW - (I2 - dW) does not cancel either.
Against a 50-digit reference, over eight catalog methods and steps from 2.5
down to MIN_STEP, the relative error of E|e_n|^2 is a few 1e-15 at N = 100
steps and at most 1.4e-13 at N = 3000; written with (dW, I1, I2) and A - R
formed directly, it was 1.6e-7 at h = 1e-4 and 16% at h = 1e-7.

`msq_order` takes, per step size, the largest E|e_n|^2 over the grid, the
mean-square error of Milstein and Tretyakov (Stochastic Numerics for
Mathematical Physics, 2004, ch. 1), and fits the log-log slope of its root
against h (`fit_loglog_slope`, a closed form summed by math.fsum).
"""

import math
import warnings
from typing import NamedTuple

from .methods import decreasing_sweep, evaluate
from .oscillator import OscillatorParams

# smallest step the error law accepts: its precision is tested down to here
MIN_STEP = 1e-8

# most steps one sweep may take, summed over its step sizes: the law takes
# about 2.2 us a step (Python 3.11, 2 shared vCPUs), so the budget is about
# 20-25 s
MSQ_MAX_STEPS = 10 ** 7


def rotation(delta):
    """Free-flow matrix over time delta, as row tuples."""
    c, s = math.cos(delta), math.sin(delta)
    return ((c, s), (-s, c))


def step_noise_covariance(delta):
    """Covariance of (dW, I1, J) over one step, as row tuples: the Brownian
    increment, I1 = int sin(delta-s) dW and J = I2 - dW, where I2 =
    int cos(delta-s) dW. (alpha I1, alpha I2) is the exact noise of (X, Y).

    The triple carries J in place of I2 because a consistent method's noise
    b dW is dW to leading order in the velocity, so its error noise
    (b2 - 1) dW - J is formed without cancelling. No entry cancels either:
    1 - cos(delta) is 2 sin(delta/2)^2, Cov(I1, J) = -2 sin(delta/2)^4, and
    Cov(dW, J) = -(delta - sin delta), Var I1 = (2 delta - sin 2 delta)/4
    and Var J = int_0^delta (1 - cos u)^2 du take their differences from
    Taylor series at small steps (`_minus_sine`, `_squared_versine_integral`),
    so each entry is within a few ulp at every step down to MIN_STEP.
    """
    half = math.sin(0.5 * delta)
    one_minus_cos = 2.0 * half * half
    drift = -_minus_sine(delta)
    cross = -0.5 * one_minus_cos * one_minus_cos
    return ((delta, one_minus_cos, drift),
            (one_minus_cos, 0.25 * _minus_sine(2.0 * delta), cross),
            (drift, cross, _squared_versine_integral(delta)))


# the denominators (2k + 4)(2k + 5) of the ratios of successive terms of
# u - sin(u) = u^3/3! - u^5/5! + ...; at u = 2 the eleventh ratio takes the
# product below 2**-53
_SINE_RATIOS = tuple((2 * k + 4) * (2 * k + 5) for k in range(11))


def _minus_sine(u):
    """u - sin(u) for u >= 0: below 2, where the difference cancels, the
    Taylor series in nested form, u^3/6 (1 - u^2/20 (1 - u^2/42 (...)))."""
    if u >= 2.0:
        return u - math.sin(u)
    v = u * u
    nested = 1.0
    for d in reversed(_SINE_RATIOS):
        nested = 1.0 - v / d * nested
    return u * v / 6.0 * nested


def _squared_versine_integral(u):
    """int_0^u (1 - cos t)^2 dt = 3u/2 - 2 sin u + sin(2u)/4 for u >= 0:
    below 2, where the closed form cancels to O(u^5), its Taylor series
    sum_{k >= 2} (-1)^k (2^(2k-1) - 2) u^(2k+1) / (2k+1)!, whose 20th term
    is below 2**-53 of the sum at u = 2, summed by math.fsum."""
    if u >= 2.0:
        return 1.5 * u - 2.0 * math.sin(u) + 0.25 * math.sin(2.0 * u)
    v = u * u
    power = u ** 5 / 120.0  # u^(2k+1) / (2k+1)! at k = 2
    terms = []
    for k in range(2, 22):
        terms.append((-1) ** k * (2 ** (2 * k - 1) - 2) * power)
        power *= v / ((2 * k + 2) * (2 * k + 3))
    return math.fsum(terms)


def mean_square_errors(A, b, h, steps, params):
    """Yield E|z_n - Z(t_n)|^2 for n = 1..steps: the method (A, b) and the
    exact solution, both from (x0, y0), driven by one Brownian path in steps
    of h.

    The mean m and covariance S of u = (e, Z) step as m <- M m and
    S <- Q + M S M^T, with M = [[A, A - R], [0, R]] and Q = G C G^T for the
    step covariance C and the noise map G of (dW, I1, I2 - dW) into u.
    M's lower-left block is zero, so the step is written on scalars: an
    entry of M S in an e row, or of (M S) M^T in an e column, takes four
    products, and one in a Z row or column takes two. Each entry sums its
    products in the order ((x0 y0 + x1 y1) + x2 y2) + x3 y3, the order of
    the 4x4 matrix product, whose products by the zero block add only
    signed zeros, so each value is that of the 4x4 product bit for bit
    until one overflows (`tests/oracles.py` holds that product as the
    reference).
    """
    (a11, a12), (a21, a22) = A
    (r11, r12), (r21, r22) = rotation(h)
    # A - R as (A - I) - (R - I): each difference of A's entries is exact
    # where it cancels, and R - I has its own forms, 1 - cos h = 2 sin^2(h/2)
    # and sin h = h - (h - sin h)
    half = math.sin(0.5 * h)
    versine, minus_sine = 2.0 * half * half, _minus_sine(h)
    d11, d12 = (a11 - 1.0) + versine, (a12 - h) + minus_sine
    d21, d22 = (a21 + h) - minus_sine, (a22 - 1.0) + versine
    alpha = params.alpha
    g1, g2 = alpha * b[0], alpha * (b[1] - 1.0)

    def noise(v):
        # G v, for (dW, I1, J) into u: e gets alpha (b1 dW - I1,
        # (b2 - 1) dW - J), and Z gets alpha (I1, dW + J)
        return (g1 * v[0] - alpha * v[1], g2 * v[0] - alpha * v[2],
                alpha * v[1], alpha * v[0] + alpha * v[2])

    # Q = G C G^T: G maps the columns of C to those of G C, and the rows of
    # G C to those of Q
    C = step_noise_covariance(h)
    ((q00, q01, q02, q03), (q10, q11, q12, q13), (q20, q21, q22, q23),
     (q30, q31, q32, q33)) = map(noise, zip(*map(noise, zip(*C))))
    m0 = m1 = 0.0
    m2, m3 = params.x0, params.y0
    s00 = s01 = s02 = s03 = s10 = s11 = s12 = s13 = 0.0
    s20 = s21 = s22 = s23 = s30 = s31 = s32 = s33 = 0.0
    for _ in range(steps):
        m0, m1, m2, m3 = (a11 * m0 + a12 * m1 + d11 * m2 + d12 * m3,
                          a21 * m0 + a22 * m1 + d21 * m2 + d22 * m3,
                          r11 * m2 + r12 * m3, r21 * m2 + r22 * m3)
        # P = M S
        p00 = a11 * s00 + a12 * s10 + d11 * s20 + d12 * s30
        p01 = a11 * s01 + a12 * s11 + d11 * s21 + d12 * s31
        p02 = a11 * s02 + a12 * s12 + d11 * s22 + d12 * s32
        p03 = a11 * s03 + a12 * s13 + d11 * s23 + d12 * s33
        p10 = a21 * s00 + a22 * s10 + d21 * s20 + d22 * s30
        p11 = a21 * s01 + a22 * s11 + d21 * s21 + d22 * s31
        p12 = a21 * s02 + a22 * s12 + d21 * s22 + d22 * s32
        p13 = a21 * s03 + a22 * s13 + d21 * s23 + d22 * s33
        p20, p21 = r11 * s20 + r12 * s30, r11 * s21 + r12 * s31
        p22, p23 = r11 * s22 + r12 * s32, r11 * s23 + r12 * s33
        p30, p31 = r21 * s20 + r22 * s30, r21 * s21 + r22 * s31
        p32, p33 = r21 * s22 + r22 * s32, r21 * s23 + r22 * s33
        # S = Q + P M^T
        s00 = q00 + (p00 * a11 + p01 * a12 + p02 * d11 + p03 * d12)
        s01 = q01 + (p00 * a21 + p01 * a22 + p02 * d21 + p03 * d22)
        s02 = q02 + (p02 * r11 + p03 * r12)
        s03 = q03 + (p02 * r21 + p03 * r22)
        s10 = q10 + (p10 * a11 + p11 * a12 + p12 * d11 + p13 * d12)
        s11 = q11 + (p10 * a21 + p11 * a22 + p12 * d21 + p13 * d22)
        s12 = q12 + (p12 * r11 + p13 * r12)
        s13 = q13 + (p12 * r21 + p13 * r22)
        s20 = q20 + (p20 * a11 + p21 * a12 + p22 * d11 + p23 * d12)
        s21 = q21 + (p20 * a21 + p21 * a22 + p22 * d21 + p23 * d22)
        s22 = q22 + (p22 * r11 + p23 * r12)
        s23 = q23 + (p22 * r21 + p23 * r22)
        s30 = q30 + (p30 * a11 + p31 * a12 + p32 * d11 + p33 * d12)
        s31 = q31 + (p30 * a21 + p31 * a22 + p32 * d21 + p33 * d22)
        s32 = q32 + (p32 * r11 + p33 * r12)
        s33 = q33 + (p32 * r21 + p33 * r22)
        yield m0 * m0 + m1 * m1 + s00 + s11


class MsqReport(NamedTuple):
    h_values: tuple
    steps: tuple
    errors: tuple
    slope: float


def fit_loglog_slope(h_values, errors):
    """The least-squares slope of log(error) against log(h), in closed form:
    sum((x - mean x) (y - mean y)) / sum((x - mean x)^2), each sum and mean
    by math.fsum."""
    x = [math.log(h) for h in h_values]
    y = [math.log(e) for e in errors]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    return math.fsum(d * (v - y_mean) for d, v in zip(dx, y)) \
        / math.fsum(d * d for d in dx)


def msq_order(method, h_values, T0=1.0, params=OscillatorParams()):
    """Mean-square error decay of the method against the exact solution.

    Per step size, the error is the root of the largest E|z_n - Z(t_n)|^2
    over the grid, from its exact law (`mean_square_errors`), and the slope
    is fitted log-log against h. Every step size h runs round(T0/h) steps of
    T0/round(T0/h), so all of them share the horizon T0; the report gives
    these steps, and two step sizes with the same step count are an error.
    The sweep may take at most MSQ_MAX_STEPS steps in all, and every step
    size is checked (and warned about) before any law runs.
    """
    if not (math.isfinite(T0) and T0 > 0):
        raise ValueError(f"T0 must be a finite positive horizon, got {T0}")
    runs = []
    given = decreasing_sweep(h_values)
    ratios = [T0 / h for h in given]
    # a ratio that overflows to inf rounds to no integer
    total = math.inf if math.inf in ratios else sum(map(round, ratios))
    if total > MSQ_MAX_STEPS:
        raise ValueError(f"the sweep needs {total} steps over T0 = {T0:g}; "
                         f"msq takes at most {MSQ_MAX_STEPS:.0e} in all")
    for i, (h, ratio) in enumerate(zip(given, ratios)):
        steps = round(ratio)
        if steps < 1:
            raise ValueError(f"horizon {T0:g} shorter than one step of {h:g}")
        step = T0 / steps
        if runs and steps == runs[-1][1]:
            raise ValueError(f"h = {given[i - 1]:g} and h = {h:g} both give "
                             f"{steps} steps over T0 = {T0:g}; each step size "
                             "needs its own step count")
        if abs(ratio - steps) > 1e-9 * max(1.0, steps):
            warnings.warn(
                f"T0/h = {ratio!r} is not an integer; comparing over {steps} "
                f"steps of {step:g}", stacklevel=2)
        if step < MIN_STEP:
            raise ValueError(f"step {step:g} below {MIN_STEP:g}, the smallest "
                             "step the error law is tested at")
        runs.append((step, steps, evaluate(method, step)))
    errors = []
    for h, steps, (A, b) in runs:
        worst = last = 0.0
        for last in mean_square_errors(A, b, h, steps, params):
            worst = max(worst, last)
        # a diverging method overflows to inf, then nan, and stays there
        if not (math.isfinite(worst) and math.isfinite(last)):
            raise ValueError(f"{method.name}: the strong error at h = {h:g} "
                             "is not finite; the method diverges")
        if not worst > 0.0:
            raise ValueError(f"zero strong error at h = {h:g}; nothing to fit")
        errors.append(math.sqrt(worst))
    hs = tuple(run[0] for run in runs)
    return MsqReport(hs, tuple(run[1] for run in runs), tuple(errors),
                     fit_loglog_slope(hs, errors))
