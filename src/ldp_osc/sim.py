"""Monte Carlo simulation of one-step methods: `simulate`'s sampler.

Sampling is deterministic by construction: every block of BLOCK paths owns
one random stream, numpy's SFC64 generator keyed by (seed mod 2**64, the
block's first path index) through a SeedSequence, and draws its normals
from it with numpy's ziggurat sampler (`fill_normals`). Results are
bit-identical for any thread count and any chunk size, and depend on BLOCK,
which sets the keys. The block engine, `_run_blocks`, runs fixed-size blocks
of BLOCK paths on plain worker threads, one task per worker, and yields the
results in block order, with at most WINDOW blocks per worker submitted and
not yet consumed. Each worker's task owns its buffers, which the caller
allocates once per run and the worker reuses for every block it runs: its
draw buffer and its step scratch. A task keeps its paths in a `_Paths`,
whose `step` is the linear update, and works in buffers sized by the block,
never by the sample count. Validation stays in the calling thread.

Each run (one `simulate_summary` or `simulate_paths` call) has one lock,
and the rule is: steps under the run's lock, draws outside; no buffer is
shared. Every step of a chunk runs under the lock, and the chunk's draws
run outside it, into its worker's draw buffer, one `fill_normals` call per
chunk. A step is many short numpy calls, and two threads making such calls
at once trade the interpreter lock call by call; the ziggurat releases it
for its whole call, so one block's draws run beside another's steps. The
lock orders the steps and guards no data: a running block touches only its
generator, its worker's buffers, its state and its running sum. Two runs on
two threads neither share a buffer nor wait for each other. Each block
reads only its own stream, so how the blocks interleave moves no digit.

`simulate_summary` reduces each block's two observables to their count,
mean, sum of squared deviations from the mean (M2), min and max on the
worker (`_moments`), and merges these in block order in the calling thread
(`_merge`, the pairwise update of Chan, Golub and LeVeque 1979), so it keeps
no per-path array and prints the same digits at any thread count.
`simulate_paths` also returns the per-path arrays, for library callers, and
takes its summary from the same merge.

The sampler reaches no BLAS or LAPACK: the noise and every step are
elementwise numpy calls, so the printed digits rest on IEEE arithmetic and
numpy's generators alone, whatever BLAS kernel the CPU selects.

Only this module imports numpy at module level (the test reference
`laws.oracle_moments` imports it in its body), `numpy.random` with it, so
importing this module is the one point where a command loads numpy, and it
loads in the importing thread, not on a worker.
"""

import math
import os
import queue
import threading
from collections import deque
from functools import partial, reduce
from typing import NamedTuple

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .methods import evaluate

# paths per thread task
BLOCK = 4096

# blocks per worker that `_run_blocks` keeps submitted and not yet
# consumed: one running and one finished or queued, so no worker waits on
# the caller
WINDOW = 2

# steps per noise chunk: a worker's draw buffer is 8 x 4096 float64,
# 0.25 MiB
CHUNK_STEPS = 8

# most workers LDP_OSC_THREADS may ask for: each worker holds its draw
# buffer, its step scratch and its running block's state and sum (about
# 0.41 MiB), so the bound caps sampler memory
MAX_THREADS = 64

# seeds reduce mod 2**64: SeedSequence takes no negative entropy
_MASK = 0xFFFFFFFFFFFFFFFF


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


class _Paths:
    """The state z = (x, y) of a block of paths, a (2, n) array, with the
    2x2 matrix M of its linear step, its noise scale nb = alpha b as an
    array that broadcasts to (2, n), and the (2, n) scratch that the step
    writes.
    """

    def __init__(self, params, M, nb, scratch):
        self.z = np.full(scratch.shape, [[params.x0], [params.y0]],
                         dtype=float)
        self._p = scratch
        self._nb = nb
        # the views a step reads, made once, not at every step
        self._columns = M[:, :1], M[0, 1:], M[1, 1:]
        self._x_column = self.z[:1]
        self._rows = self.z[0], self.z[1]

    def step(self, row):
        """z <- M z + nb row, in place, for one row of n draws.

        Row i is (M[i, 1] y + M[i, 0] x) + nb[i] row, which IEEE addition
        makes bit for bit the reference order (M[i, 0] x + M[i, 1] y) +
        nb[i] row that the sampler's reproducibility rests on.
        """
        z, p = self.z, self._p
        x, y = self._rows
        first, m01, m11 = self._columns
        np.multiply(first, self._x_column, out=p)
        # x is read into p, so it may go; y is read before it goes
        np.multiply(m01, y, out=x)
        np.multiply(m11, y, out=y)
        z += p
        np.multiply(self._nb, row, out=p)
        z += p


def fill_normals(generator, out):
    """Fill `out`, a C-contiguous float64 array, in place with the next
    out.size standard normals of `generator`, in C order, and return it.

    This is numpy's ziggurat (`Generator.standard_normal`), which releases
    the interpreter lock for its whole call. Consecutive fills continue one
    stream, so they give the values one larger draw would.
    """
    return generator.standard_normal(out=out)


def step_normals(seed, lo, hi, steps, out):
    """Draws of the block of paths lo..hi-1 for `steps` steps, one draw per
    path per step, step-major, into `out`, a flat float64 buffer of the
    caller's with room for at least one step.

    The block's stream is numpy's SFC64 generator seeded by a SeedSequence
    of (seed mod 2**64, lo), so it depends on the block's first path index,
    and a path's draws on the block split. Makes the generator now and
    returns an iterator over the chunks. Each chunk is a (count, hi - lo)
    view of `out`, holding as many steps as `out` has room for, which
    `fill_normals` refills with the stream's next draws: row j holds the
    draw of the chunk's step j for every path, and the chunks laid end to
    end are the stream's first `steps` rows, whatever size `out` is. The
    caller may overwrite a chunk; the next one refills it.
    """
    generator = Generator(SFC64(SeedSequence((int(seed) & _MASK, lo))))
    n = hi - lo
    return _chunks(generator, out, n, steps, len(out) // n)


def _chunks(generator, out, n, steps, chunk):
    for done in range(0, steps, chunk):
        rows = min(chunk, steps - done)
        yield fill_normals(generator, out[:rows * n].reshape(rows, n))


def _run_blocks(samples, tasks):
    """Run every BLOCK-path range lo..hi-1 of 0..samples-1 on one plain
    thread per task, and yield the results in block order.

    Worker i calls tasks[i](lo, hi) on every block it takes from the one
    shared queue, so it reuses whatever that task holds, such as its
    buffers, for every block it runs. At most WINDOW blocks per worker are
    submitted and not yet consumed, so the queues do not grow with
    `samples`. A task's exception re-raises in the caller. Every worker is
    joined when the generator finishes, raises or is closed; blocks no
    worker has taken by then are dropped.
    """
    inbox = queue.SimpleQueue()
    workers = [threading.Thread(target=_work, args=(task, inbox))
               for task in tasks]
    for worker in workers:
        worker.start()
    pending = deque()
    try:
        for lo in range(0, samples, BLOCK):
            if len(pending) == WINDOW * len(workers):
                yield _result(pending.popleft())
            done = queue.SimpleQueue()
            inbox.put((lo, min(lo + BLOCK, samples), done))
            pending.append(done)
        while pending:
            yield _result(pending.popleft())
    finally:
        try:
            while True:
                inbox.get_nowait()
        except queue.Empty:
            pass
        for _ in workers:
            inbox.put(None)
        for worker in workers:
            worker.join()


def _work(task, inbox):
    """A worker of `_run_blocks`: run task on each (lo, hi, done) taken from
    inbox and put (True, its result) or (False, its exception) to done,
    until None arrives. Any exception is caught, so the caller waiting on
    done never hangs, and `_result` re-raises it in the caller."""
    for lo, hi, done in iter(inbox.get, None):
        try:
            done.put((True, task(lo, hi)))
        except BaseException as error:
            done.put((False, error))


def _result(done):
    """The result a worker put to done, or its exception raised."""
    ok, value = done.get()
    if not ok:
        raise value
    return value


class SimResult(NamedTuple):
    """One entry per path: the running position average and the terminal
    position divided by elapsed time."""

    mean_position: np.ndarray
    mean_velocity: np.ndarray
    summary: dict


def _simulate_tasks(config, block):
    """One task per worker of a `simulate` run, block(config, A, b, lock,
    draws, scratch, lo, hi): the method's (A, b) at config.h, the run's one
    lock, and the worker's own flat buffers of min(BLOCK, samples)-long
    rows, allocated here once per run: its draw buffer of CHUNK_STEPS rows
    and its step scratch of 2 rows. A run over `samples` paths has
    min(thread_count(), blocks) workers."""
    A, b = evaluate(config.method, config.h)
    lock = threading.Lock()
    n = min(BLOCK, config.samples)
    workers = min(thread_count(), -(-config.samples // BLOCK))
    return [partial(block, config, A, b, lock, np.empty(CHUNK_STEPS * n),
                    np.empty(2 * n))
            for _ in range(workers)]


def _run_block(config, A, b, lock, draws, scratch, lo, hi):
    """Run paths lo..hi-1 and return their two observables, the running
    position average and the terminal position divided by elapsed time.

    Noise comes from `step_normals`, one draw per step, so each step reads
    one contiguous row of a chunk of `draws`, the worker's draw buffer,
    drawn outside `lock`, the run's lock; the block steps each chunk under
    that lock, in the worker's step scratch. The block's own buffers are
    allocated once, so memory is O(BLOCK) beside the worker's buffers
    whatever the step count. The arithmetic is the reference recursion's,
    operation for operation (`_Paths.step` adds each row's two products in
    the other order, which IEEE addition commutes): dw = sqrt(h) z, then
    (a00 x + a01 y) + (alpha b1) dw; folding sqrt(h) into alpha b1 would
    change the rounding.
    """
    p = config.params
    n = hi - lo
    chunks = step_normals(config.seed, lo, hi, config.steps, draws)
    paths = _Paths(p, np.array(A), p.alpha * np.array(b)[:, None],
                   scratch[:2 * n].reshape(2, n))
    x = paths.z[0]
    sum_x = np.zeros(n)
    root_h = math.sqrt(config.h)
    for dw in chunks:
        # the chunk is the worker's own, so it scales outside the lock
        np.multiply(root_h, dw, out=dw)
        with lock:
            for row in dw:
                sum_x += x
                paths.step(row)
    return sum_x / config.steps, x / (config.steps * config.h)


def _block_moments(*block):
    """The `_moments` of both observables of `_run_block(*block)`."""
    return tuple(map(_moments, _run_block(*block)))


def simulate_summary(config):
    """The summary of `simulate_paths(config)` without its per-path arrays:
    memory is O(threads x BLOCK x CHUNK_STEPS) whatever the step and sample
    counts."""
    return _summary(_run_blocks(config.samples,
                                _simulate_tasks(config, _block_moments)))


def simulate_paths(config):
    """Run the method over `samples` independent paths; see SimResult."""
    paths = np.empty((2, config.samples))
    moments = []
    blocks = _run_blocks(config.samples, _simulate_tasks(config, _run_block))
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
