"""Monte Carlo simulation of one-step methods and mean-square order fits.

Sampling is deterministic by construction: every path owns a counter-based
random stream keyed by (seed, path index), so results are bit-identical for
any thread count and any block partition. Threads only pick up disjoint,
fixed-size path blocks; all summary reductions run once over the assembled
arrays.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .methods import decreasing_sweep, evaluate
from .oscillator import OscillatorParams, sample_exact_path

BLOCK = 4096
STEP_CHUNK = 1024

_DEFAULT_PARAMS = OscillatorParams()


def thread_count():
    """Worker count: LDP_OSC_THREADS if set, else min(8, cpu count)."""
    env = os.environ.get("LDP_OSC_THREADS")
    if env is not None:
        n = int(env)
        if n < 1:
            raise ValueError(f"LDP_OSC_THREADS must be >= 1, got {env}")
        return n
    return min(8, os.cpu_count() or 1)


@dataclass(frozen=True)
class SimConfig:
    method: object
    h: float
    steps: int
    samples: int
    seed: int = 0
    params: OscillatorParams = field(default_factory=OscillatorParams)

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if self.samples < 1:
            raise ValueError(f"need at least one sample, got {self.samples}")


@dataclass(frozen=True)
class SimResult:
    """One entry per path: the running position average and the terminal
    position divided by elapsed time."""

    mean_position: np.ndarray
    mean_velocity: np.ndarray
    summary: dict


def _run_block(config, A, b, out_pos, out_vel, lo, hi):
    p = config.params
    keys = rng.stream_keys(config.seed, np.arange(lo, hi))
    x = np.full(hi - lo, float(p.x0))
    y = np.full(hi - lo, float(p.y0))
    sum_x = np.zeros(hi - lo)
    root_h = math.sqrt(config.h)
    nb1 = p.alpha * float(b[0])
    nb2 = p.alpha * float(b[1])
    done = 0
    while done < config.steps:
        count = min(STEP_CHUNK, config.steps - done)
        noise = rng.normals(keys, done, count)
        for k in range(count):
            dw = root_h * noise[:, k]
            sum_x += x
            x, y = (A[0, 0] * x + A[0, 1] * y + nb1 * dw,
                    A[1, 0] * x + A[1, 1] * y + nb2 * dw)
        done += count
    out_pos[lo:hi] = sum_x / config.steps
    out_vel[lo:hi] = x / (config.steps * config.h)


def simulate_paths(config):
    """Run the method over `samples` independent paths; see SimResult."""
    A, b = evaluate(config.method, config.h)
    pos = np.empty(config.samples)
    vel = np.empty(config.samples)
    blocks = [(lo, min(lo + BLOCK, config.samples))
              for lo in range(0, config.samples, BLOCK)]
    workers = thread_count()
    if workers == 1 or len(blocks) == 1:
        for lo, hi in blocks:
            _run_block(config, A, b, pos, vel, lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, config, A, b, pos, vel, lo, hi)
                       for lo, hi in blocks]
            for f in futures:
                f.result()
    summary = {
        "samples": int(config.samples),
        "position": _summarize(pos),
        "velocity": _summarize(vel),
    }
    return SimResult(pos, vel, summary)


def _summarize(values):
    return {
        "mean": float(np.mean(values)),
        "variance": float(np.var(values, ddof=1)) if len(values) > 1 else 0.0,
        "min": float(np.min(values)),
        "max": float(np.max(values)),
    }


@dataclass(frozen=True)
class MsqReport:
    method_name: str
    T0: float
    h_values: tuple
    errors: tuple
    slope: float


def fit_loglog_slope(h_values, errors):
    return float(np.polyfit(np.log(np.asarray(h_values, dtype=float)),
                            np.log(np.asarray(errors, dtype=float)), 1)[0])


def msq_order(method, h_values, T0=1.0, samples=10_000, seed=0,
              params=_DEFAULT_PARAMS):
    """Strong-error decay of the method against the exact solution.

    For each step size the method runs on the very Brownian increments that
    drove the exact sampler, the squared state error is maximized over the
    grid, averaged over paths, and the root is fitted log-log against h.
    """
    hs = decreasing_sweep(h_values)
    errors = []
    for h in hs:
        ratio = T0 / h
        steps = round(ratio)
        if steps < 1:
            raise ValueError(f"horizon {T0:g} shorter than one step of {h:g}")
        if abs(ratio - steps) > 1e-9 * max(1.0, steps):
            warnings.warn(
                f"T0/h = {ratio:g} is not an integer; comparing over {steps} steps",
                stacklevel=2)
        exact = sample_exact_path(params, h, steps, paths=samples, seed=seed)
        A, b = evaluate(method, h)
        nb1 = params.alpha * float(b[0])
        nb2 = params.alpha * float(b[1])
        x = np.full(samples, params.x0)
        y = np.full(samples, params.y0)
        worst = np.zeros(samples)
        for n in range(steps):
            dw = exact.dw[:, n]
            x, y = (A[0, 0] * x + A[0, 1] * y + nb1 * dw,
                    A[1, 0] * x + A[1, 1] * y + nb2 * dw)
            gap = (x - exact.x[:, n + 1]) ** 2 + (y - exact.y[:, n + 1]) ** 2
            np.maximum(worst, gap, out=worst)
        mean_sq = float(np.mean(worst))
        if not mean_sq > 0.0:
            raise ValueError(
                f"zero strong error at h = {h:g}; nothing to fit")
        errors.append(math.sqrt(mean_sq))
    return MsqReport(method.name, float(T0), hs, tuple(errors),
                     fit_loglog_slope(hs, errors))
