"""Exact laws of the linear stochastic oscillator x'' + x = alpha * dW/dt.

Writing the state as (X, Y) with Y = X', the solution rotates the initial
state and adds a Gaussian convolution integral. Everything here is closed
form: the model's parameters, scalar Gaussian laws and the long-horizon
decay rates of the two path observables. `sim.exact_steps` samples the exact
solution step by step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

MEAN_POSITION = "mean-position"
MEAN_VELOCITY = "mean-velocity"
OBSERVABLES = (MEAN_POSITION, MEAN_VELOCITY)


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
