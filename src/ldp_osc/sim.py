"""Monte Carlo simulation of one-step methods and mean-square order fits.

Sampling is deterministic by construction: every path owns a counter-based
random stream keyed by (seed, path index), so results are bit-identical for
any thread count and any block partition. Both samplers run on one block
engine, `_block_runner`: it splits the paths into fixed-size blocks of BLOCK
paths and runs a per-block task on a thread pool (or inline on one worker).
A task works in buffers sized by the block, never by the sample count, and
writes only its own slice of the per-path result arrays; all summary
reductions run once, in the calling thread, over the assembled arrays.
Validation and warnings also stay in the calling thread. `msq_order`'s
reference paths come from `exact_steps`, which samples the exact one-step law
of the oscillator. Only this module and `rng` import numpy.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import rng
from .laws import MAX_N
from .methods import decreasing_sweep, evaluate
from .oscillator import OscillatorParams

# paths per thread task
BLOCK = 4096

# Below this step the one-step noise covariance is numerically singular.
MIN_STEP = 1e-8

_DEFAULT_PARAMS = OscillatorParams()


def thread_count():
    """Worker count: LDP_OSC_THREADS if set, else min(8, cpu count)."""
    env = os.environ.get("LDP_OSC_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"LDP_OSC_THREADS must be an integer >= 1, got {env!r}")
        return n
    return min(8, os.cpu_count() or 1)


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
    np.multiply(M[0][0], x, out=new_x)
    np.multiply(M[0][1], y, out=tmp)
    new_x += tmp
    new_x += u
    np.multiply(M[1][0], x, out=new_y)
    np.multiply(M[1][1], y, out=tmp)
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


@contextmanager
def _block_runner(samples):
    """Yield run(task), which calls task(lo, hi) for every BLOCK-path range
    of 0..samples-1 and returns once all have finished; a task's exception
    re-raises in the caller.

    The tasks go to one thread pool that lives as long as the context, so a
    sweep of runs shares it, or run inline when there is one worker or one
    block.
    """
    ranges = [(lo, min(lo + BLOCK, samples))
              for lo in range(0, samples, BLOCK)]
    workers = min(thread_count(), len(ranges))
    rng.load_ndtri()  # every task draws normals; import scipy in this thread
    if workers <= 1:
        def run(task):
            for lo, hi in ranges:
                task(lo, hi)
        yield run
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        def run(task):
            for future in [pool.submit(task, lo, hi) for lo, hi in ranges]:
                future.result()
        yield run


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
        if self.steps > MAX_N:
            raise ValueError(f"need at most {MAX_N:.0e} steps, got {self.steps}")
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
    """Run paths lo..hi-1 and store their two observables.

    Noise comes from `rng.step_normals`, one draw per step, so each step
    reads one contiguous row of a chunk of rng.CHUNK_ROWS steps. All buffers
    are allocated once per block, so memory is O(BLOCK x CHUNK_ROWS)
    whatever the step count. The arithmetic is the reference recursion's,
    operation for operation: dw = sqrt(h) z, then (a00 x + a01 y) +
    (alpha b1) dw; folding sqrt(h) into alpha b1 would change the rounding.
    """
    p = config.params
    n = hi - lo
    noise_y = np.empty((min(rng.CHUNK_ROWS, config.steps), n))
    x = np.full(n, float(p.x0))
    y = np.full(n, float(p.y0))
    new_x, new_y, tmp = np.empty(n), np.empty(n), np.empty(n)
    sum_x = np.zeros(n)
    root_h = math.sqrt(config.h)
    nb1 = p.alpha * float(b[0])
    nb2 = p.alpha * float(b[1])
    for dw in rng.step_normals(config.seed, lo, hi, config.steps, 1):
        count = len(dw)
        np.multiply(root_h, dw, out=dw)
        # the x noise overwrites dw, so the y noise is taken from it first
        np.multiply(nb2, dw, out=noise_y[:count])
        noise_x = np.multiply(nb1, dw, out=dw)
        for k in range(count):
            sum_x += x
            linear_step(A, x, y, noise_x[k], noise_y[k], new_x, new_y, tmp)
            x, new_x = new_x, x
            y, new_y = new_y, y
    out_pos[lo:hi] = sum_x / config.steps
    out_vel[lo:hi] = x / (config.steps * config.h)


def simulate_paths(config):
    """Run the method over `samples` independent paths; see SimResult."""
    A, b = evaluate(config.method, config.h)
    pos = np.empty(config.samples)
    vel = np.empty(config.samples)
    with _block_runner(config.samples) as run:
        run(partial(_run_block, config, A, b, pos, vel))
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
    steps: tuple
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

    Every step size is checked (and warned about) before any path runs. The
    paths run in BLOCK-path tasks on one thread pool for the whole sweep;
    each task advances the exact and the method state of its paths together
    (`_msq_block`), so memory is O(threads x BLOCK x CHUNK_ROWS) plus one
    float64 per path, whatever the step size.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not (math.isfinite(T0) and T0 > 0):
        raise ValueError(f"T0 must be a finite positive horizon, got {T0}")
    hs = decreasing_sweep(h_values)
    runs = []
    for h in hs:
        ratio = T0 / h
        if ratio > MAX_N:
            raise ValueError(f"T0/h = {ratio:g} steps at h = {h:g}; need at most "
                             f"{MAX_N:.0e}")
        steps = round(ratio)
        if steps < 1:
            raise ValueError(f"horizon {T0:g} shorter than one step of {h:g}")
        if abs(ratio - steps) > 1e-9 * max(1.0, steps):
            warnings.warn(
                f"T0/h = {ratio:g} is not an integer; comparing over {steps} steps",
                stacklevel=2)
        check_step(h)
        runs.append((h, steps, *evaluate(method, h)))
    worst = np.empty(samples)
    errors = []
    with _block_runner(samples) as run:
        for h, steps, A, b in runs:
            run(partial(_msq_block, params, h, steps, seed, A, b, worst))
            mean_sq = float(np.mean(worst))
            if not mean_sq > 0.0:
                raise ValueError(
                    f"zero strong error at h = {h:g}; nothing to fit")
            errors.append(math.sqrt(mean_sq))
    return MsqReport(method.name, float(T0), hs, tuple(r[1] for r in runs),
                     tuple(errors), fit_loglog_slope(hs, errors))


def _msq_block(params, h, steps, seed, A, b, worst, lo, hi):
    """Run paths lo..hi-1 of the method on the increments of their exact
    trajectories; worst[lo:hi] receives each path's largest squared state
    error over the grid."""
    n = hi - lo
    nb1 = params.alpha * float(b[0])
    nb2 = params.alpha * float(b[1])
    x = np.full(n, float(params.x0))
    y = np.full(n, float(params.y0))
    new_x, new_y, u, v, gap = (np.empty(n) for _ in range(5))
    block_worst = worst[lo:hi]
    block_worst.fill(0.0)
    for dw, ex, ey in exact_steps(params, h, steps, lo, hi, seed=seed):
        np.multiply(nb1, dw, out=u)
        np.multiply(nb2, dw, out=v)
        linear_step(A, x, y, u, v, new_x, new_y, gap)
        x, new_x = new_x, x
        y, new_y = new_y, y
        np.subtract(x, ex, out=u)
        np.square(u, out=u)
        np.subtract(y, ey, out=v)
        np.square(v, out=v)
        np.add(u, v, out=gap)
        np.maximum(block_worst, gap, out=block_worst)
