"""Test-side references: closed forms and recipes the package does not need
at run time, kept here so the tests can check the package against them.

- the continuous-time laws of the integrated and the terminal position, and
  the continuous log-MGF coefficient;
- a pure-Python splitmix64 stream, which follows the recipe of the `rng`
  docstring with Python integers and `statistics.NormalDist`, sharing no
  code with `rng.fill_normals`;
- the finite-N decay rate -log P(observable in interval) / N;
- a reader for the CSV documents the CLI emits.
"""

import csv
import math
from statistics import NormalDist

import numpy as np

from ldp_osc.laws import interval_probability
from ldp_osc.ldp import observable_law
from ldp_osc.oscillator import MEAN_POSITION, GaussianLaw, check_observable

# ---------------------------------------------------------------------------
# continuous-time laws of the oscillator


def _require_horizon(T):
    if not T > 0:
        raise ValueError(f"time horizon must be positive, got {T}")


def mean_position_law(params, T):
    """Law of the integrated position int_0^T X_t dt (T times the mean position).

    The noise part collapses to a single stochastic integral with kernel
    1 - cos(T - s), which gives the variance below by the isometry of the
    integral; the drift part integrates the free rotation.
    """
    _require_horizon(T)
    mean = params.x0 * math.sin(T) + params.y0 * (1.0 - math.cos(T))
    variance = params.alpha ** 2 * (
        1.5 * T - 2.0 * math.sin(T) + 0.25 * math.sin(2.0 * T))
    return GaussianLaw(mean, max(variance, 0.0))


def terminal_position_law(params, T):
    """Law of X_T."""
    _require_horizon(T)
    mean = params.x0 * math.cos(T) + params.y0 * math.sin(T)
    variance = params.alpha ** 2 * (0.5 * T - 0.25 * math.sin(2.0 * T))
    return GaussianLaw(mean, max(variance, 0.0))


def continuous_log_mgf_coefficient(observable, params):
    """c with lim_T (1/T) log E exp(lambda * T * observable_T) = c * lambda**2."""
    check_observable(observable)
    a2 = params.alpha ** 2
    return 0.75 * a2 if observable == MEAN_POSITION else 0.25 * a2


# ---------------------------------------------------------------------------
# splitmix64 streams in Python integers

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def stream_key(seed, path):
    return splitmix64((seed + (path + 1) * _GOLDEN) & _MASK)


def stream_uniform(key, i):
    return (float(splitmix64((key + (i + 1) * _GOLDEN) & _MASK) >> 11)
            + 0.5) * 2.0 ** -53


def stream_normals(seed, paths, start, count):
    """Draws start..start+count-1 of each path's stream, step-major: shape
    (count, len(paths)), like `rng.fill_normals`."""
    inv_cdf = NormalDist().inv_cdf
    keys = [stream_key(seed, int(p)) for p in paths]
    return np.array([[inv_cdf(stream_uniform(key, i)) for key in keys]
                     for i in range(start, start + count)])


# ---------------------------------------------------------------------------
# finite-N decay rates and CLI output


def finite_N_rate(method, observable, h, N, interval, params):
    """-(1/N) log P(observable in interval) at finite N."""
    law = observable_law(method, observable, h, N, params)
    return -interval_probability(law, *interval).log_p / N


def parse_csv(text):
    """Data rows of an emitted CSV document, as dicts of strings."""
    lines = [line for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [dict(row) for row in csv.DictReader(lines)]
