"""Monte Carlo simulation of one-step methods and mean-square order fits.

Sampling is deterministic by construction: every path owns a counter-based
random stream keyed by (seed, path index), so results are bit-identical for
any thread count and any block partition. Both samplers run on one block
engine, `_run_blocks`, which runs a per-block task over fixed-size blocks of
BLOCK paths on a thread pool and yields the results in block order, with at
most WINDOW tasks per worker submitted and not yet consumed. A task keeps
its paths in a `_Paths`, whose `step` is every sampler's linear update, and
works in buffers sized by the block, never by the sample count. Validation
and warnings stay in the calling thread.

`simulate_summary` reduces each block's two observables to their count,
mean, sum of squared deviations from the mean (M2), min and max on the
worker (`_moments`), and merges these in block order in the calling thread
(`_merge`, the pairwise update of Chan, Golub and LeVeque 1979), so it keeps
no per-path array and prints the same digits at any thread count.
`simulate_paths` also returns the per-path arrays, for library callers, and
takes its summary from the same merge.

`msq_order` runs the step sizes of a sweep together, up to MSQ_PASS per pass
of `_run_blocks`, so each normal is drawn once per pass: step k reads the
same counter slots at every step size, and one noise stream per block feeds
every step size whose step count reaches it. Each step size keeps its own exact
paths (`ExactPaths`, which sample the exact one-step law of the oscillator)
and method paths, the blocks of a pass take turns at stepping while the
others draw, and each block reduces its per-path worst squared errors to an
exact sum (`_exact_sum`), which the caller adds to running totals as the
blocks arrive. So `msq` memory grows neither with the sample count nor as h
shrinks, and its mean square error is the exact mean, rounded once, for any
block split or thread count.

Only this module and `rng` import numpy, and `rng` imports scipy, so
importing this module is the one point where both load.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from . import rng
from .methods import decreasing_sweep, evaluate
from .oscillator import MAX_N, OscillatorParams

# paths per thread task
BLOCK = 4096

# tasks per worker that `_run_blocks` keeps submitted and not yet consumed:
# one running and one finished or queued, so no worker waits on the caller
WINDOW = 2

# step sizes per `msq` pass, and steps per noise chunk of a pass: a step
# size keeps five BLOCK-long arrays (its exact and method states and the
# worst errors), and 2-step chunks keep a block of a full pass within the
# memory that one step size took with 16-row chunks
MSQ_PASS = 5
MSQ_CHUNK_STEPS = 2

# Below this step the one-step noise covariance is numerically singular.
MIN_STEP = 1e-8

_DEFAULT_PARAMS = OscillatorParams()


def thread_count():
    """Worker count: LDP_OSC_THREADS if set, else min(8, the number of CPUs
    this process may run on)."""
    env = os.environ.get("LDP_OSC_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"LDP_OSC_THREADS must be an integer >= 1, got {env!r}")
        return n
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
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


class _Paths:
    """The state (x, y) of a block of paths and the scratch its step needs.

    The scratch is a list [new_x, new_y, tmp] of arrays shaped like x; paths
    that step in turn on one thread may share one list.
    """

    def __init__(self, params, n, scratch=None):
        self.x = np.full(n, float(params.x0))
        self.y = np.full(n, float(params.y0))
        self._scratch = [np.empty(n) for _ in range(3)] if scratch is None \
            else scratch

    def step(self, M, u, v):
        """(x, y) <- M (x, y) + (u, v), in place.

        Evaluated as (M00 x + M01 y) + u, the operation order every sampler's
        bit-for-bit reproducibility rests on.
        """
        new_x, new_y, tmp = self._scratch
        np.multiply(M[0][0], self.x, out=new_x)
        np.multiply(M[0][1], self.y, out=tmp)
        new_x += tmp
        new_x += u
        np.multiply(M[1][0], self.x, out=new_y)
        np.multiply(M[1][1], self.y, out=tmp)
        new_y += tmp
        new_y += v
        self._scratch[:2] = self.x, self.y
        self.x, self.y = new_x, new_y


def check_step(delta):
    """Reject a step the exact sampler cannot take."""
    if not delta > 0:
        raise ValueError(f"step size must be positive, got {delta}")
    if delta < MIN_STEP:
        raise ValueError(
            f"step {delta} below {MIN_STEP}: noise covariance is numerically singular")


class ExactPaths(_Paths):
    """Exact trajectories (X, Y) of the oscillator for a block of paths,
    advanced in steps of size delta.

    Each step draws the Gaussian triple (dW, I1, I2) jointly from its exact
    3x3 covariance (symmetric square root factorization L), then applies
    (X, Y) <- R(delta) (X, Y) + alpha (I1, I2). The caller passes the
    standard normals; `msq` gives step k draws 3k, 3k+1 and 3k+2 of each
    path's stream (`rng.step_normals` with per_step 3), keyed by the global
    path index, so a path's draws depend neither on the block split nor on
    the step sizes that share them.
    """

    def __init__(self, params, delta, n, scratch=None):
        check_step(delta)
        super().__init__(params, n, scratch)
        self._L = _symmetric_sqrt(step_noise_covariance(delta))
        self._R = rotation(delta)
        self._alpha = float(params.alpha)

    def exact_step(self, draws, tri):
        """Advance one step on `draws`, three rows of standard normals, and
        return dW. tri is (3, n) scratch: dW is its row 0, and rows 1 and 2
        are free again once this returns."""
        np.matmul(self._L, draws, out=tri)
        np.multiply(self._alpha, tri[1], out=tri[1])
        np.multiply(self._alpha, tri[2], out=tri[2])
        self.step(self._R, tri[1], tri[2])
        return tri[0]


def _run_blocks(samples, task):
    """Call task(lo, hi) for every BLOCK-path range of 0..samples-1 on a
    thread pool of up to thread_count() workers, and yield the tasks'
    results in block order. At most WINDOW tasks per worker are submitted
    and not yet consumed, so the pool's bookkeeping does not grow with
    `samples`; a task's exception re-raises in the caller."""
    los = range(0, samples, BLOCK)
    workers = min(thread_count(), len(los))
    pending = deque()
    with ThreadPoolExecutor(workers) as pool:
        for lo in los:
            if len(pending) == WINDOW * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(task, lo, min(lo + BLOCK, samples)))
        while pending:
            yield pending.popleft().result()


@dataclass(frozen=True)
class SimResult:
    """One entry per path: the running position average and the terminal
    position divided by elapsed time."""

    mean_position: np.ndarray
    mean_velocity: np.ndarray
    summary: dict


def _run_block(config, A, b, lo, hi):
    """Run paths lo..hi-1 and return their two observables, the running
    position average and the terminal position divided by elapsed time.

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
    paths = _Paths(p, n)
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
            sum_x += paths.x
            paths.step(A, noise_x[k], noise_y[k])
    return sum_x / config.steps, paths.x / (config.steps * config.h)


def _block_moments(config, A, b, lo, hi):
    """The `_moments` of both observables of paths lo..hi-1."""
    return tuple(map(_moments, _run_block(config, A, b, lo, hi)))


def simulate_summary(config):
    """The summary of `simulate_paths(config)` without its per-path arrays:
    memory is O(threads x BLOCK x CHUNK_ROWS) whatever the step and sample
    counts."""
    A, b = evaluate(config.method, config.h)
    return _summary(_run_blocks(config.samples,
                                partial(_block_moments, config, A, b)))


def simulate_paths(config):
    """Run the method over `samples` independent paths; see SimResult."""
    A, b = evaluate(config.method, config.h)
    paths = np.empty((2, config.samples))
    moments = []
    blocks = _run_blocks(config.samples, partial(_run_block, config, A, b))
    for lo, block in zip(range(0, config.samples, BLOCK), blocks):
        paths[:, lo:lo + len(block[0])] = block
        moments.append(tuple(map(_moments, block)))
    return SimResult(*paths, _summary(moments))


def _moments(values):
    """(count, mean, M2, min, max) of a block of values; M2 is the sum of
    squared deviations from the mean, as np.var forms it."""
    mean = np.mean(values)
    return (len(values), float(mean), float(np.sum(np.square(values - mean))),
            float(np.min(values)), float(np.max(values)))


def _merge(a, b):
    """The `_moments` of two batches together, by the pairwise update of
    Chan, Golub and LeVeque (1979). A mean that is not finite merges as the
    float sum of the means, which is what a float mean of the values gives."""
    n_a, mean_a, m2_a, min_a, max_a = a
    n_b, mean_b, m2_b, min_b, max_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n) if math.isfinite(delta) \
        else mean_a + mean_b
    # np.minimum and np.maximum propagate nan, as np.min and np.max do
    return (n, mean, m2_a + m2_b + delta * delta * (n_a * n_b / n),
            float(np.minimum(min_a, min_b)), float(np.maximum(max_a, max_b)))


def _summary(blocks):
    """The summary dict from each block's pair of `_moments`, merged in block
    order, so it does not depend on the thread count."""
    position, velocity = reduce(
        lambda a, b: [_merge(x, y) for x, y in zip(a, b)], blocks)
    return {"samples": position[0], "position": _stats(position),
            "velocity": _stats(velocity)}


def _stats(moments):
    """The printed summary of one observable from its merged `_moments`."""
    n, mean, m2, low, high = moments
    return {"mean": mean, "variance": m2 / (n - 1) if n > 1 else 0.0,
            "min": low, "max": high}


@dataclass(frozen=True)
class MsqReport:
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
    step sizes run finest first, MSQ_PASS per pass of BLOCK-path tasks
    (`_run_blocks`); each task advances the exact and the method state of
    its paths at every step size of the pass together (`_msq_block`), so
    memory is O(threads x BLOCK x MSQ_PASS) whatever the step sizes and the
    sample count. The mean square error is the exact sum of the paths'
    worst squared errors divided by `samples`, rounded once.
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
    finest_first = runs[::-1]
    step_lock = threading.Lock()
    mean_squares = []
    for first in range(0, len(runs), MSQ_PASS):
        group = finest_first[first:first + MSQ_PASS]
        totals = [Fraction(0)] * len(group)
        for sums in _run_blocks(samples, partial(_msq_block, params, seed,
                                                 group, step_lock)):
            totals = list(map(_add_sums, totals, sums))
        mean_squares += [_mean(total, samples) for total in totals]
    errors = []
    for h, mean_sq in zip(hs, reversed(mean_squares)):
        if not math.isfinite(mean_sq):
            raise ValueError(f"{method.name}: the strong error at h = {h:g} "
                             "is not finite; the method diverges")
        if not mean_sq > 0.0:
            raise ValueError(f"zero strong error at h = {h:g}; nothing to fit")
        errors.append(math.sqrt(mean_sq))
    return MsqReport(hs, tuple(r[1] for r in runs), tuple(errors),
                     fit_loglog_slope(hs, errors))


def _msq_block(params, seed, runs, step_lock, lo, hi):
    """Run paths lo..hi-1 of the method at every step size of `runs`, tuples
    (h, steps, A, b) finest first, on the increments of their exact
    trajectories; return, per step size, the `_exact_sum` of each path's
    largest squared state error over the grid.

    One noise stream covers the finest step count, MSQ_CHUNK_STEPS steps per
    chunk, and each chunk feeds every step size whose step count reaches it.
    Each step size runs the same operations, in the same order, as it would
    alone. All paths share one step scratch and one (3, n) buffer, whose
    rows 1 and 2 carry the exact noise, then the method's noise, then the
    squared errors.

    The blocks of a pass step their chunks in turn, under `step_lock`, and
    draw the next chunk outside it. A step is many short numpy calls, each
    of which hands the interpreter lock back and forth when two blocks step
    at once; the draws are long calls that run in parallel with a step.
    """
    n = hi - lo
    # the draw buffers go first: allocated after the state arrays, they
    # raised the peak RSS of `msq`
    chunks = rng.step_normals(seed, lo, hi, runs[0][1], 3, 3 * MSQ_CHUNK_STEPS)
    tri = np.empty((3, n))
    u, v = tri[1], tri[2]
    scratch = [np.empty(n) for _ in range(3)]
    states = [(steps, ExactPaths(params, h, n, scratch),
               _Paths(params, n, scratch), A, params.alpha * float(b[0]),
               params.alpha * float(b[1]), np.zeros(n))
              for h, steps, A, b in runs]
    done = 0
    for draws in chunks:
        count = len(draws) // 3
        # a diverging method overflows to inf and nan, which msq_order names
        with step_lock, np.errstate(over="ignore", invalid="ignore"):
            for steps, exact, paths, A, nb1, nb2, worst in states:
                for j in range(0, 3 * min(count, steps - done), 3):
                    dw = exact.exact_step(draws[j:j + 3], tri)
                    np.multiply(nb1, dw, out=u)
                    np.multiply(nb2, dw, out=v)
                    paths.step(A, u, v)
                    np.subtract(paths.x, exact.x, out=u)
                    np.square(u, out=u)
                    np.subtract(paths.y, exact.y, out=v)
                    np.square(v, out=v)
                    u += v
                    np.maximum(worst, u, out=worst)
        done += count
    return [_exact_sum(state[-1]) for state in states]


def _exact_sum(values):
    """The sum of the float64 `values` as an exact Fraction, or their float
    sum (inf or nan) if one is not finite. Exact for fewer than 2**26 values.

    Each value is d 2**(e - 53) with d an integer, |d| < 2**53, and e >=
    -1073 (np.frexp). np.bincount sums the high and low halves of d (below
    2**27 and 2**26) per exponent, exactly in float64, and the per-exponent
    sums add up in Python integers, in units of 2**-1126.
    """
    if not np.isfinite(values).all():
        return float(np.sum(values))
    significand, exponent = np.frexp(values)
    digits = np.ldexp(significand, 53)
    high = np.floor(np.ldexp(digits, -26))
    low = digits - np.ldexp(high, 26)
    least = int(exponent.min())
    bins = exponent - least
    high_sums = np.bincount(bins, weights=high)
    low_sums = np.bincount(bins, weights=low)
    total = 0
    for i in np.flatnonzero((high_sums != 0) | (low_sums != 0)):
        total += ((int(high_sums[i]) << 26) + int(low_sums[i])) \
            << (least + int(i) + 1073)
    return Fraction(total, 1 << 1126)


def _add_sums(a, b):
    """a + b for two `_exact_sum`s: exact while both are Fractions, else the
    float sum of those that are not (inf or nan)."""
    nonfinite = [s for s in (a, b) if isinstance(s, float)]
    return sum(nonfinite) if nonfinite else a + b


def _mean(total, samples):
    """The mean of `samples` values from the `_add_sums` of their blocks'
    `_exact_sum`s, rounded once; inf or nan if the total is."""
    return total if isinstance(total, float) else float(total / samples)
