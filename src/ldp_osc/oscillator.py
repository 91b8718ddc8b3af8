"""Exact laws of the linear stochastic oscillator x'' + x = alpha * dW/dt.

Writing the state as (X, Y) with Y = X', the solution rotates the initial
state and adds a Gaussian convolution integral. Everything here is closed
form: the long-horizon decay rates of the two path observables, the joint
law of one step's noise, and the exact stepper `exact_steps`, which
reproduces the one-step transition law without discretization bias.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import rng

MEAN_POSITION = "mean-position"
MEAN_VELOCITY = "mean-velocity"
OBSERVABLES = (MEAN_POSITION, MEAN_VELOCITY)

# Below this step the one-step noise covariance is numerically singular.
MIN_STEP = 1e-8


def check_observable(observable):
    if observable not in OBSERVABLES:
        raise ValueError(
            f"unknown observable {observable!r}; expected one of {OBSERVABLES}")
    return observable


@dataclass(frozen=True)
class OscillatorParams:
    """Noise intensity and initial state (position x0, velocity y0)."""

    alpha: float = 1.0
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("x0", self.x0), ("y0", self.y0)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        # laws scale with alpha^2 and rates with 1/alpha^2; neither may
        # overflow or lose precision as a subnormal
        if not sys.float_info.min <= self.alpha * self.alpha \
                <= 1.0 / (3.0 * sys.float_info.min):
            raise ValueError("alpha^2 and 1/(3 alpha^2) must be finite normal "
                             f"floats, got alpha = {self.alpha}")


@dataclass(frozen=True)
class GaussianLaw:
    """Scalar Gaussian distribution as a (mean, variance) pair."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance >= 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")

    @property
    def sigma(self):
        return math.sqrt(self.variance)

    def scaled(self, factor):
        """Law of factor * X."""
        return GaussianLaw(self.mean * factor, self.variance * factor * factor)


@dataclass(frozen=True)
class RateFunction:
    """Decay rate profile: either y -> coefficient * y**2, or the degenerate
    profile that is 0 at y = 0 and infinite elsewhere."""

    kind: str
    coefficient: float | None = None

    def __post_init__(self):
        if self.kind == "quadratic":
            if self.coefficient is None or not self.coefficient >= 0:
                raise ValueError("quadratic rate needs a nonnegative coefficient")
        elif self.kind == "degenerate":
            if self.coefficient is not None:
                raise ValueError("degenerate rate carries no coefficient")
        else:
            raise ValueError(f"unknown rate kind {self.kind!r}")

    @classmethod
    def quadratic(cls, coefficient):
        return cls("quadratic", float(coefficient))

    @classmethod
    def degenerate(cls):
        return cls("degenerate")

    @property
    def is_degenerate(self):
        return self.kind == "degenerate"

    def __call__(self, y):
        if self.kind == "quadratic":
            return self.coefficient * y * y
        return 0.0 if y == 0 else math.inf

    def infimum(self, lo, hi):
        """Infimum over [lo, hi]; the minimizer is the point closest to 0."""
        if lo > hi:
            raise ValueError("empty interval")
        if lo <= 0.0 <= hi:
            return 0.0
        edge = lo if lo > 0 else hi
        return self(edge)


def continuous_rate(observable, params):
    """Decay rate of tail probabilities of the observable over horizon T."""
    check_observable(observable)
    a2 = params.alpha ** 2
    if observable == MEAN_POSITION:
        return RateFunction.quadratic(1.0 / (3.0 * a2))
    return RateFunction.quadratic(1.0 / a2)


def rotation(delta):
    """Free-flow matrix over time delta."""
    c, s = math.cos(delta), math.sin(delta)
    return np.array([[c, s], [-s, c]])


def step_noise_covariance(delta):
    """Covariance of (dW, I1, I2) over one step, where I1 = int sin(delta-s) dW
    and I2 = int cos(delta-s) dW are the exact noise contributions to (X, Y)."""
    s, c = math.sin(delta), math.cos(delta)
    s2 = math.sin(2.0 * delta)
    return np.array([
        [delta, 1.0 - c, s],
        [1.0 - c, 0.5 * delta - 0.25 * s2, 0.5 * s * s],
        [s, 0.5 * s * s, 0.5 * delta + 0.25 * s2],
    ])


def _symmetric_sqrt(C):
    # eigh keeps the factor symmetric; Cholesky would also work but reorders
    # sensitivity onto the last column
    w, V = np.linalg.eigh(C)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def linear_step(M, x, y, u, v, new_x, new_y, tmp):
    """(new_x, new_y) = M (x, y) + (u, v) over a batch of paths, in place.

    Evaluated as (M00 x + M01 y) + u, the operation order every sampler's
    bit-for-bit reproducibility rests on; `tmp` is scratch shaped like x.
    """
    np.multiply(M[0, 0], x, out=new_x)
    np.multiply(M[0, 1], y, out=tmp)
    new_x += tmp
    new_x += u
    np.multiply(M[1, 0], x, out=new_y)
    np.multiply(M[1, 1], y, out=tmp)
    new_y += tmp
    new_y += v


def check_step(delta):
    """Reject a step the exact sampler cannot take."""
    if not delta > 0:
        raise ValueError(f"step size must be positive, got {delta}")
    if delta < MIN_STEP:
        raise ValueError(
            f"step {delta} below {MIN_STEP}: noise covariance is numerically singular")


def exact_steps(params, delta, steps, lo, hi, *, seed=0):
    """Advance the exact trajectories of paths lo..hi-1 by `steps` steps of
    size `delta`, yielding (dw, x, y) after each step.

    Each step draws the Gaussian triple (dW, I1, I2) jointly from its exact
    3x3 covariance (symmetric square root factorization L), then applies
    (X, Y) <- R(delta) (X, Y) + alpha (I1, I2). Step k consumes counter slots
    3k, 3k+1 and 3k+2 of each path's stream, keyed by the global path index,
    so the draws do not depend on how the paths are split into blocks.

    The draws come from `rng.step_normals`, `rng.CHUNK_ROWS // 3` steps per
    chunk: step j of a chunk is rows 3j..3j+2, and its triple is L times
    those rows. Memory is O(hi - lo) whatever `steps` is: the yielded arrays
    are reused buffers, valid until the generator advances.
    """
    check_step(delta)
    # the draw buffers go first: allocated after the state arrays, they
    # raised the peak RSS of `msq`
    chunks = rng.step_normals(seed, lo, hi, steps, 3)
    L = _symmetric_sqrt(step_noise_covariance(delta))
    R = rotation(delta)
    alpha = float(params.alpha)
    n = hi - lo
    tri = np.empty((3, n))
    x = np.full(n, float(params.x0))
    y = np.full(n, float(params.y0))
    new_x, new_y, u, v, tmp = (np.empty(n) for _ in range(5))
    for draws in chunks:
        for j in range(0, len(draws), 3):
            np.matmul(L, draws[j:j + 3], out=tri)
            np.multiply(alpha, tri[1], out=u)
            np.multiply(alpha, tri[2], out=v)
            linear_step(R, x, y, u, v, new_x, new_y, tmp)
            x, new_x = new_x, x
            y, new_y = new_y, y
            yield tri[0], x, y
