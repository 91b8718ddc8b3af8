"""Exact laws of the linear stochastic oscillator x'' + x = alpha * dW/dt.

Writing the state as (X, Y) with Y = X', the solution rotates the initial
state and adds a Gaussian convolution integral. Everything here is closed
form: the model's parameters, scalar Gaussian laws and the long-horizon
decay rates of the two path observables, and the samplers' configuration
(`SimConfig`), which the CLI checks before numpy loads. `sim.ExactPaths`
samples the exact solution step by step.

Every decay rate here is quadratic, y -> k y^2, so a rate is its coefficient
k, a float. k = inf is the degenerate rate, 0 at y = 0 and infinite
elsewhere, which `rate_infimum` handles with the same arithmetic.
"""

import math
import sys
from typing import NamedTuple

# largest step count N a finite-N law or a sampler accepts: the laws'
# precision budget is tested up to here
MAX_N = 10 ** 9

MEAN_POSITION = "mean-position"
MEAN_VELOCITY = "mean-velocity"
OBSERVABLES = (MEAN_POSITION, MEAN_VELOCITY)


def check_observable(observable):
    if observable not in OBSERVABLES:
        raise ValueError(
            f"unknown observable {observable!r}; expected one of {OBSERVABLES}")
    return observable


class _Checked:
    """Base of a NamedTuple record that checks its fields: `_check` runs on
    every construction, `_make` and `_replace` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _OscillatorParams(NamedTuple):
    alpha: float = 1.0
    x0: float = 0.0
    y0: float = 0.0


class OscillatorParams(_Checked, _OscillatorParams):
    """Noise intensity and initial state (position x0, velocity y0)."""

    __slots__ = ()

    def _check(self):
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


class _SimConfig(NamedTuple):
    method: object
    h: float
    steps: int
    samples: int
    seed: int = 0
    params: OscillatorParams = OscillatorParams()  # immutable, so shareable


class SimConfig(_Checked, _SimConfig):
    """A `sim.simulate_paths` run: `samples` paths of `steps` steps of size h."""

    __slots__ = ()

    def _check(self):
        if not self.h > 0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if self.steps > MAX_N:
            raise ValueError(f"need at most {MAX_N:.0e} steps, got {self.steps}")
        if self.samples < 1:
            raise ValueError(f"need at least one sample, got {self.samples}")


class _GaussianLaw(NamedTuple):
    mean: float
    variance: float


class GaussianLaw(_Checked, _GaussianLaw):
    """Scalar Gaussian distribution as a (mean, variance) pair."""

    __slots__ = ()

    def _check(self):
        if not self.variance >= 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")

    @property
    def sigma(self):
        return math.sqrt(self.variance)

    def scaled(self, factor):
        """Law of factor * X."""
        return GaussianLaw(self.mean * factor, self.variance * factor * factor)


def rate_infimum(coefficient, lo, hi):
    """Infimum of the rate y -> coefficient * y^2 over [lo, hi], attained at
    the point closest to 0; an infinite coefficient is the degenerate rate."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0.0 <= hi:
        return 0.0
    edge = lo if lo > 0 else hi
    return coefficient * edge * edge


def continuous_rate(observable, params):
    """Coefficient of the decay rate of the observable's tail probabilities
    over horizon T."""
    check_observable(observable)
    a2 = params.alpha ** 2
    if observable == MEAN_POSITION:
        return 1.0 / (3.0 * a2)
    return 1.0 / a2
