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

Each run (one `simulate_summary` or `simulate_paths` call, or one pass of
`msq_order`) has one lock, held in a `_Shared` with the buffers that only the
lock's holder touches: mix64's uint64 scratch for a chunk of draws, the step
scratch and the noise rows. The rule, kept in `rng` as well: the uniform
stage of each chunk's draws and every step of the chunk run under the lock,
and only scipy's ndtri runs outside it, one call per chunk. A step is many
short numpy calls, and two threads making such calls at once trade the
interpreter lock call by call; ndtri releases it for its whole call, so one
block's draws run beside another's steps. A running block keeps only what
outlives a chunk or is written outside the lock: its chunk, its state, its
running sums or worst errors, and its keys. The run's buffers are freed with
the run, and two runs on two threads neither share them nor wait for each
other. The streams are counter-based, so how the blocks interleave moves no
digit.

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
every step size whose step count reaches it. A given step h runs
round(T0/h) steps of T0/round(T0/h), so every step size ends at the horizon
T0. Each step size keeps its exact and method paths as one stack
(`ExactPaths`, which samples the exact one-step law of the oscillator).
Each block reduces its per-path worst squared errors to an exact sum
(`_exact_sum`), which the caller adds to running totals as the
blocks arrive. So `msq` memory grows neither with the sample count nor as h
shrinks, and its mean square error is the exact mean, rounded once, for any
block split or thread count.

No sampler reaches BLAS or LAPACK: the exact noise factor is a Jacobi
eigen-iteration in Python floats (`_symmetric_sqrt`), the noise and every
step are elementwise numpy calls, and the fit is a closed form summed by
math.fsum. So the printed digits rest on IEEE arithmetic and the C math
library alone, whatever BLAS kernel the CPU selects.

Only this module and `rng` import numpy, and `rng` imports scipy, so
importing this module is the one point where both load.
"""

import math
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial, reduce
from typing import NamedTuple

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

# most workers LDP_OSC_THREADS may ask for: each running block holds its
# chunk, state and sums (about 0.6 MiB for `simulate`), so the bound caps
# sampler memory
MAX_THREADS = 64

# Below this step the one-step noise covariance is numerically singular.
MIN_STEP = 1e-8

# most Jacobi sweeps of `_symmetric_sqrt`: on 600 step covariances from
# MIN_STEP to 1.9 its root stops changing after 2 or 3, and the cap bounds
# the loop should rounding keep a rotation alive
_JACOBI_SWEEPS = 16
_JACOBI_TOL = 2.0 ** -53

_DEFAULT_PARAMS = OscillatorParams()


def thread_count():
    """Worker count: LDP_OSC_THREADS if set, an integer from 1 to
    MAX_THREADS, else min(8, the number of CPUs this process may run on)."""
    env = os.environ.get("LDP_OSC_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if not 1 <= n <= MAX_THREADS:
            raise ValueError("LDP_OSC_THREADS must be an integer from 1 to "
                             f"{MAX_THREADS}, got {env!r}")
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
    and I2 = int cos(delta-s) dW are the exact noise contributions to (X, Y).

    No entry cancels: 1 - cos(delta) is 2 sin(delta/2)^2, and Var I1 =
    (2 delta - sin(2 delta)) / 4 takes the difference from its Taylor series
    below delta = 1 (`_minus_sine`), so each entry is within a few ulp at
    every step down to MIN_STEP.
    """
    s, half = math.sin(delta), math.sin(0.5 * delta)
    u = 2.0 * delta
    one_minus_cos = 2.0 * half * half
    return np.array([
        [delta, one_minus_cos, s],
        [one_minus_cos, 0.25 * _minus_sine(u), 0.5 * s * s],
        [s, 0.5 * s * s, 0.25 * (u + math.sin(u))],
    ])


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


def _symmetric_sqrt(C):
    """The symmetric square root V sqrt(max(w, 0)) V^T of a symmetric 3x3
    matrix C = V diag(w) V^T, as a list of rows of Python floats.

    The eigenvectors come from cyclic Jacobi rotations (Golub and Van Loan,
    Matrix Computations, section 8.5), which stop once every off-diagonal
    entry is below 2**-53 of the geometric mean of its two diagonal
    entries; each entry of the root is one math.fsum. So the factor is
    exactly symmetric and depends on no BLAS or LAPACK build. The symmetric
    root is the one positive semidefinite root of C, so C fixes each draw of
    the exact sampler up to rounding; a Cholesky factor would give another
    realization of the same law.
    """
    a = [[float(v) for v in row] for row in C]
    V = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p][q]
            if abs(apq) <= _JACOBI_TOL * math.sqrt(abs(a[p][p] * a[q][q])):
                continue
            rotated = True
            # the rotation (c, s) of Golub and Van Loan's symSchur2, which
            # zeroes a[p][q]; t = s / c is the smaller root of its quadratic
            tau = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            r = 3 - p - q
            g, h = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * g - s * h
            a[r][q] = a[q][r] = s * g + c * h
            for row in V:
                g, h = row[p], row[q]
                row[p] = c * g - s * h
                row[q] = s * g + c * h
        if not rotated:
            break
    root = [math.sqrt(max(a[k][k], 0.0)) for k in range(3)]
    L = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            L[i][j] = L[j][i] = math.fsum(V[i][k] * root[k] * V[j][k]
                                          for k in range(3))
    return L


def exact_factor(delta, alpha):
    """The noise factor of the exact sampler at step delta: the symmetric
    square root of `step_noise_covariance(delta)` with rows 1 and 2 scaled
    by alpha, as a 3x3 array, so that L d for standard normals d is
    (dW, alpha I1, alpha I2)."""
    check_step(delta)
    L = _symmetric_sqrt(step_noise_covariance(delta))
    return np.array([L[0], [alpha * v for v in L[1]],
                     [alpha * v for v in L[2]]])


class _Paths:
    """The state z = (x, y) of a block of paths, a (2, n) array, or a stack
    of such states, a (k, 2, n) array, with the matrix M of its linear step,
    2x2 or (k, 2, 2), and the scratch of z's shape that the step needs;
    paths that step in turn, as a run's blocks do under its lock, may share
    one scratch.
    """

    def __init__(self, params, M, n, scratch=None, stack=()):
        shape = stack + (2, n)
        self.z = np.full(shape, [[params.x0], [params.y0]], dtype=float)
        self._p = np.empty(shape) if scratch is None else scratch
        # the views a step reads, made once: making them at every step cost
        # about 5 us of an msq step of about 60 us over 4096 paths
        self._columns = M[..., :1], M[..., 0, 1:], M[..., 1, 1:]
        self._x_column = self.z[..., :1, :]
        self._rows = self.z[..., 0, :], self.z[..., 1, :]

    def step(self, noise):
        """z <- M z + noise, in place, for (2, n) noise, or layer by layer
        for a stack and (k, 2, n) noise.

        Row i is (M[i, 1] y + M[i, 0] x) + noise[i], which IEEE addition
        makes bit for bit the reference order (M[i, 0] x + M[i, 1] y) +
        noise[i] that every sampler's reproducibility rests on.
        """
        z, p = self.z, self._p
        x, y = self._rows
        first, m01, m11 = self._columns
        np.multiply(first, self._x_column, out=p)
        # x is read into p, so it may go; y is read before it goes
        np.multiply(m01, y, out=x)
        np.multiply(m11, y, out=y)
        z += p
        z += noise


def check_step(delta):
    """Reject a step the exact sampler cannot take."""
    if not delta > 0:
        raise ValueError(f"step size must be positive, got {delta}")
    if delta < MIN_STEP:
        raise ValueError(
            f"step {delta} below {MIN_STEP}: noise covariance is numerically singular")


class ExactPaths(_Paths):
    """Exact trajectories (X, Y) of the oscillator for a block of paths,
    advanced in steps of size delta, stacked with the paths of a one-step
    method (A, b) that runs on the same Brownian increments: z[0] is the
    exact state and z[1] the method's.

    Each step draws the Gaussian triple (dW, I1, I2) jointly from its exact
    3x3 covariance, as L d for the `exact_factor` L, and steps the stack at
    once with the matrices (R(delta), A): (X, Y) <- R(delta) (X, Y) + alpha
    (I1, I2), and the method's state <- A state + alpha b dW. The caller
    passes the standard normals; `msq` gives step k draws 3k, 3k+1 and 3k+2
    of each path's stream (`rng.step_normals` with per_step 3), keyed by the
    global path index, so a path's draws depend neither on the block split
    nor on the step sizes that share them.

    Paths that step in turn, as a run's blocks do under its lock, may share
    the (2, 2, n) step scratch, whose first three rows are also the scratch
    of L d, and the (5, n) noise buffer: dW, the exact noise and the
    method's noise.
    """

    def __init__(self, params, delta, factor, method, n, scratch=None,
                 noise=None):
        A, b = method
        super().__init__(params, np.array([rotation(delta), A]), n, scratch,
                         (2,))
        self._nb = params.alpha * np.array(b, dtype=float)[:, None]
        if noise is None:
            noise = np.empty((5, n))
        # the views a step reads, made once, as in `_Paths`
        self._L = factor[:, :1], factor[:, 1:2], factor[:, 2:]
        self._tmp = self._p.reshape(4, n)[:3]
        self._tri, self._dw = noise[:3], noise[0]
        self._stacked = noise[1:].reshape(2, 2, n)

    def exact_step(self, draws):
        """Advance both paths one step on `draws`, three rows of standard
        normals, and return dW, row 0 of the noise buffer, whose other rows
        are free again once this returns. Row i of L d is (L[i, 0] d0 +
        L[i, 1] d1) + L[i, 2] d2."""
        (L0, L1, L2), tri, tmp = self._L, self._tri, self._tmp
        d0, d1, d2 = draws
        np.multiply(L0, d0, out=tri)
        np.multiply(L1, d1, out=tmp)
        tri += tmp
        np.multiply(L2, d2, out=tmp)
        tri += tmp
        np.multiply(self._nb, self._dw, out=self._stacked[1])
        self.step(self._stacked)
        return self._dw


class _Shared:
    """The lock of one sampler run and the buffers that only its holder
    touches, which the run's blocks share: mix64's uint64 scratch of
    `chunk_rows` rows, the step scratch of shape step_shape + (n,) and
    `noise_rows` noise rows, for blocks of up to n paths.
    """

    def __init__(self, n, chunk_rows, step_shape, noise_rows):
        self.lock = threading.Lock()
        shapes = (chunk_rows,), step_shape, (noise_rows,)
        self._buffers = [(np.empty(math.prod(shape) * n, dtype), shape)
                         for shape, dtype in zip(shapes,
                                                 (np.uint64, float, float))]

    def buffers(self, n):
        """The mix64 scratch, step scratch and noise rows of a block of n
        paths: C-contiguous views, shaped for n, of the run's buffers."""
        return [flat[:math.prod(shape) * n].reshape(shape + (n,))
                for flat, shape in self._buffers]


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


class SimResult(NamedTuple):
    """One entry per path: the running position average and the terminal
    position divided by elapsed time."""

    mean_position: np.ndarray
    mean_velocity: np.ndarray
    summary: dict


def _simulate_shared(config):
    """The `_Shared` of a `simulate` run: mix64's scratch for a chunk of
    rng.CHUNK_ROWS steps, the (2, n) step scratch and the (2, n) noise
    pair."""
    return _Shared(min(BLOCK, config.samples),
                   min(rng.CHUNK_ROWS, config.steps), (2,), 2)


def _run_block(config, A, b, shared, lo, hi):
    """Run paths lo..hi-1 and return their two observables, the running
    position average and the terminal position divided by elapsed time.

    Noise comes from `rng.step_normals`, one draw per step, so each step
    reads one contiguous row of a chunk of rng.CHUNK_ROWS steps, and the
    block steps each chunk under the lock of `shared`, the run's `_Shared`,
    whose step scratch and noise pair it uses. The block's own buffers are
    allocated once, so memory is O(BLOCK x CHUNK_ROWS) whatever the step
    count. The arithmetic is the reference recursion's, operation for
    operation (`_Paths.step` adds each row's two products in the other
    order, which IEEE addition commutes): dw = sqrt(h) z, then (a00 x + a01
    y) + (alpha b1) dw; folding sqrt(h) into alpha b1 would change the
    rounding.
    """
    p = config.params
    n = hi - lo
    bits, scratch, noise = shared.buffers(n)
    chunks = rng.step_normals(config.seed, lo, hi, config.steps, 1,
                              shared.lock, bits)
    nb = p.alpha * np.array(b)[:, None]
    paths = _Paths(p, np.array(A), n, scratch)
    x = paths.z[0]
    sum_x = np.zeros(n)
    root_h = math.sqrt(config.h)
    for dw in chunks:
        with shared.lock:
            np.multiply(root_h, dw, out=dw)
            for row in dw:
                sum_x += x
                paths.step(np.multiply(nb, row, out=noise))
    return sum_x / config.steps, x / (config.steps * config.h)


def _block_moments(config, A, b, shared, lo, hi):
    """The `_moments` of both observables of paths lo..hi-1."""
    return tuple(map(_moments, _run_block(config, A, b, shared, lo, hi)))


def simulate_summary(config):
    """The summary of `simulate_paths(config)` without its per-path arrays:
    memory is O(threads x BLOCK x CHUNK_ROWS) whatever the step and sample
    counts."""
    A, b = evaluate(config.method, config.h)
    return _summary(_run_blocks(config.samples, partial(
        _block_moments, config, A, b, _simulate_shared(config))))


def simulate_paths(config):
    """Run the method over `samples` independent paths; see SimResult."""
    A, b = evaluate(config.method, config.h)
    paths = np.empty((2, config.samples))
    moments = []
    blocks = _run_blocks(config.samples, partial(_run_block, config, A, b,
                                                 _simulate_shared(config)))
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


def msq_order(method, h_values, T0=1.0, samples=10_000, seed=0,
              params=_DEFAULT_PARAMS):
    """Strong-error decay of the method against the exact solution.

    For each step size the method runs on the very Brownian increments that
    drove the exact sampler, the squared state error is maximized over the
    grid, averaged over paths, and the root is fitted log-log against h.
    Every step size h runs round(T0/h) steps of T0/round(T0/h), so all of
    them share the horizon T0; the report gives these steps, and two step
    sizes with the same step count are an error.

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
    runs = []
    given = decreasing_sweep(h_values)
    for i, h in enumerate(given):
        ratio = T0 / h
        if ratio > MAX_N:
            raise ValueError(f"T0/h = {ratio:g} steps at h = {h:g}; need at most "
                             f"{MAX_N:.0e}")
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
        check_step(step)
        runs.append((step, steps, evaluate(method, step),
                     exact_factor(step, float(params.alpha))))
    hs = tuple(run[0] for run in runs)
    finest_first = runs[::-1]
    mean_squares = []
    for first in range(0, len(runs), MSQ_PASS):
        group = finest_first[first:first + MSQ_PASS]
        shared = _Shared(min(BLOCK, samples),
                         3 * min(MSQ_CHUNK_STEPS, group[0][1]), (2, 2), 5)
        totals = [Fraction(0)] * len(group)
        for sums in _run_blocks(samples, partial(_msq_block, params, seed,
                                                 group, shared)):
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


def _msq_block(params, seed, runs, shared, lo, hi):
    """Per step size of `runs`, the `_exact_sum` of the `_msq_worst` errors
    of paths lo..hi-1; the sums run once the block's chunk and states are
    freed."""
    return [_exact_sum(worst)
            for worst in _msq_worst(params, seed, runs, shared, lo, hi)]


def _msq_worst(params, seed, runs, shared, lo, hi):
    """Run paths lo..hi-1 of the method at every step size of `runs`, tuples
    (h, steps, (A, b), L) finest first with L the `exact_factor`, on the
    increments of their exact trajectories; return, per step size, each
    path's largest squared state error over the grid.

    One noise stream covers the finest step count, MSQ_CHUNK_STEPS steps per
    chunk, and each chunk feeds every step size whose step count reaches it.
    Each step size holds its exact and its method paths as one stack
    (`ExactPaths`) and runs the same operations, in the same order, as it
    would alone. The block steps each chunk under the lock of `shared`, the
    pass's `_Shared`, whose buffers every step size of every block uses: the
    (2, 2, n) step scratch, whose first three rows are also the scratch of
    the exact noise, and the (5, n) noise buffer: dW, the exact noise and
    the method's noise, then the squared errors.
    """
    n = hi - lo
    bits, scratch, noise = shared.buffers(n)
    # the draw buffers go first: allocated after the state arrays, they
    # raised the peak RSS of `msq`
    chunks = rng.step_normals(seed, lo, hi, runs[0][1], 3, shared.lock, bits)
    pair = noise[1:3]
    first, second = pair
    states = []
    for h, steps, method, L in runs:
        paths = ExactPaths(params, h, L, method, n, scratch, noise)
        states.append((steps, paths, *paths.z, np.zeros(n)))
    done = 0
    for draws in chunks:
        count = len(draws) // 3
        # a diverging method overflows to inf and nan, which msq_order names
        with shared.lock, np.errstate(over="ignore", invalid="ignore"):
            for steps, paths, exact, approx, worst in states:
                for j in range(0, 3 * min(count, steps - done), 3):
                    paths.exact_step(draws[j:j + 3])
                    np.subtract(approx, exact, out=pair)
                    np.square(pair, out=pair)
                    np.add(first, second, out=first)
                    np.maximum(worst, first, out=worst)
        done += count
    return [state[-1] for state in states]


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
