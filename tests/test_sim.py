"""Tests for the per-block random streams and the path simulator."""

import ast
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ldp_osc import cli, sim
from ldp_osc.ldp import observable_law
from ldp_osc.methods import evaluate, get_method
from ldp_osc.oscillator import MEAN_POSITION, MEAN_VELOCITY, OscillatorParams, \
    SimConfig
from ldp_osc.sim import CHUNK_STEPS, simulate_paths, step_normals, \
    thread_count
from ldp_osc.strong import rotation

PARAMS = OscillatorParams(alpha=1.0, x0=0.3, y0=-0.2)


def _draws(seed, lo, hi, steps, chunk=CHUNK_STEPS):
    # the chunks of step_normals laid end to end; each is copied as it
    # comes, since the next one refills the same buffer
    buffer = np.empty(chunk * (hi - lo))
    chunks = [c.copy() for c in step_normals(seed, lo, hi, steps, buffer)]
    assert all(len(c) <= chunk for c in chunks)
    return np.concatenate(chunks)


def test_stream_frozen_values():
    # the first draw of seed 0, block 0; numpy keeps SFC64 and SeedSequence
    # stable (NEP 19), and this pins Generator.standard_normal as well
    first = -0.5423652285985597
    assert _draws(0, 0, 1, 1)[0, 0] == first
    assert oracles.block_normals(0, 0, 1, 1)[0, 0] == first


@pytest.mark.parametrize("steps", [1, 4, 16, 37])
def test_step_normals_are_one_draw_of_the_block_stream(steps):
    # the chunks, laid end to end, are one step-major draw of the block's
    # stream, keyed by its first path index
    npt.assert_array_equal(_draws(9, 3, 10, steps),
                           oracles.block_normals(9, 3, 7, steps))


def test_step_normals_of_no_steps_draw_nothing():
    assert list(step_normals(0, 0, 1, 0, np.empty(1))) == []


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("chunk", [1, 2, 6, 32])
def test_draws_do_not_depend_on_chunk_size_or_thread_count(chunk, threads):
    # sequential fills continue one stream, so 6-row chunks give one 32-row
    # draw; blocks drawn on several workers at once, with a short switch
    # interval, give the draws of one worker
    samples = 3 * sim.BLOCK + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        blocks = list(sim._run_blocks(samples, [lambda lo, hi: _draws(
            7, lo, hi, 32, chunk=chunk)] * threads))
    finally:
        sys.setswitchinterval(interval)
    for lo, block in zip(range(0, samples, sim.BLOCK), blocks):
        npt.assert_array_equal(block, oracles.block_normals(
            7, lo, min(sim.BLOCK, samples - lo), 32))


def test_seeds_and_blocks_give_distinct_draws():
    a = _draws(5, 0, 4, 8)
    assert not np.isin(_draws(6, 0, 4, 8), a).any()
    assert not np.isin(_draws(5, sim.BLOCK, sim.BLOCK + 4, 8), a).any()
    assert len(np.unique(a)) == a.size
    # seeds reduce mod 2**64, as SeedSequence takes no negative entropy
    npt.assert_array_equal(_draws(-1, 0, 4, 8), _draws(2 ** 64 - 1, 0, 4, 8))
    npt.assert_array_equal(_draws(2 ** 64 + 5, 0, 4, 8), a)


@pytest.mark.parametrize("seed, reduced", [
    (-5, 2 ** 64 - 5),
    (-2 ** 64, 0),
    (-2 ** 64 - 1, 2 ** 64 - 1),
    (2 ** 70 + 3, 3),
    (2 ** 128 - 1, 2 ** 64 - 1),
])
def test_block_stream_is_keyed_by_the_seed_mod_2_64(seed, reduced):
    # any integer seed the CLI accepts keys the block's SeedSequence by its
    # residue, in a block past the first as well
    lo = sim.BLOCK
    npt.assert_array_equal(_draws(seed, lo, lo + 6, 5),
                           oracles.block_normals(reduced, lo, 6, 5))


@pytest.mark.parametrize("seed, lo", [
    (0, 0),
    (1, sim.BLOCK),
    (-1, 5 * sim.BLOCK),
    (2 ** 63, 0),
])
def test_block_stream_is_standard_normal(seed, lo):
    # a full block's draws: mean, variance, lag-one correlation between a
    # path's successive steps, and the Kolmogorov distance to the normal
    # law, each within a bound that a standard normal sample exceeds with
    # probability below ~1e-6
    z = _draws(seed, lo, lo + sim.BLOCK, 32)
    n = z.size
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    lag = (z[1:] * z[:-1]).mean()
    assert abs(lag) < 5.0 / math.sqrt(z[1:].size)
    x = np.sort(z, axis=None)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    ranks = np.arange(1, n + 1) / n
    distance = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    assert distance < 2.69 / math.sqrt(n)


def test_simulation_same_seed_reproduces():
    config = SimConfig(get_method("beta:0.5"), 0.1, 50, 3000, seed=5, params=PARAMS)
    r1 = simulate_paths(config)
    r2 = simulate_paths(config)
    npt.assert_array_equal(r1.mean_position, r2.mean_position)
    npt.assert_array_equal(r1.mean_velocity, r2.mean_velocity)

    other = simulate_paths(SimConfig(get_method("beta:0.5"), 0.1, 50, 3000,
                                     seed=6, params=PARAMS))
    assert not np.allclose(r1.mean_position, other.mean_position)


def test_simulation_thread_count_does_not_change_results(monkeypatch):
    config = SimConfig(get_method("beta:0.5"), 0.1, 100, 10_000, seed=3,
                       params=PARAMS)
    monkeypatch.setenv("LDP_OSC_THREADS", "1")
    assert thread_count() == 1
    serial = simulate_paths(config)
    monkeypatch.setenv("LDP_OSC_THREADS", "4")
    assert thread_count() == 4
    threaded = simulate_paths(config)
    npt.assert_array_equal(serial.mean_position, threaded.mean_position)
    npt.assert_array_equal(serial.mean_velocity, threaded.mean_velocity)


def test_simulation_moments_match_exact_law():
    samples = 40_000
    config = SimConfig(get_method("beta:0.5"), 0.1, 100, samples, seed=1,
                       params=PARAMS)
    result = simulate_paths(config)
    for observable, values in [(MEAN_POSITION, result.mean_position),
                               (MEAN_VELOCITY, result.mean_velocity)]:
        law = observable_law(config.method, observable, config.h, config.steps,
                             PARAMS)
        se_mean = law.sigma / math.sqrt(samples)
        assert abs(float(np.mean(values)) - law.mean) < 4.0 * se_mean
        se_var = law.variance * math.sqrt(2.0 / (samples - 1))
        assert abs(float(np.var(values, ddof=1)) - law.variance) < 4.0 * se_var


def test_simulation_interval_coverage():
    samples = 40_000
    config = SimConfig(get_method("beta:0.5"), 0.1, 100, samples, seed=2,
                       params=PARAMS)
    result = simulate_paths(config)
    law = observable_law(config.method, MEAN_POSITION, config.h, config.steps,
                         PARAMS)
    inside = np.mean(np.abs(result.mean_position - law.mean) <= law.sigma)
    p = 0.6826894921370859
    assert abs(float(inside) - p) < 4.0 * math.sqrt(p * (1 - p) / samples)


def test_sim_config_validation():
    method = get_method("ex")
    with pytest.raises(ValueError):
        SimConfig(method, 0.0, 10, 10)
    with pytest.raises(ValueError):
        SimConfig(method, 0.1, 0, 10)
    with pytest.raises(ValueError):
        SimConfig(method, 0.1, 10, 0)


def test_summary_shape():
    config = SimConfig(get_method("ex"), 0.2, 10, 500, seed=0, params=PARAMS)
    result = simulate_paths(config)
    assert result.summary["samples"] == 500
    for key in ("position", "velocity"):
        stats = result.summary[key]
        assert set(stats) == {"mean", "variance", "min", "max"}
        assert stats["min"] <= stats["mean"] <= stats["max"]


def test_library_summary_is_what_simulate_prints(capsys):
    # three blocks: the library and the CLI merge the same block moments,
    # and the merge agrees with numpy over the whole per-path arrays
    argv = ("simulate --method em --h 0.05 --N 37 --samples 9001 --seed 2 "
            "--x0 0.3 --y0 -0.2 --format json").split()
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    config = SimConfig(get_method("em"), 0.05, 37, 9001, seed=2, params=PARAMS)
    result = simulate_paths(config)
    assert sim.simulate_summary(config) == result.summary
    for row, key, values in zip(rows, ("position", "velocity"),
                                (result.mean_position, result.mean_velocity)):
        stats = result.summary[key]
        assert row["samples"] == result.summary["samples"] == 9001
        assert {k: row[k] for k in stats} == stats
        assert stats["mean"] == pytest.approx(np.mean(values), rel=1e-14)
        assert stats["variance"] == pytest.approx(np.var(values, ddof=1),
                                                  rel=1e-14)
        assert (stats["min"], stats["max"]) == (values.min(), values.max())


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_runs_every_range_once(threads):
    samples = 2 * sim.BLOCK + 1
    ran = []

    def task(lo, hi):
        ran.append((lo, hi))
        return lo, hi
    blocks = [(0, sim.BLOCK), (sim.BLOCK, 2 * sim.BLOCK),
              (2 * sim.BLOCK, samples)]
    assert list(sim._run_blocks(samples, [task] * threads)) == blocks
    assert sorted(ran) == blocks


@pytest.mark.parametrize("threads", [1, 2])
def test_run_blocks_reraises_a_task_error(threads):
    def task(lo, hi):
        if lo == sim.BLOCK:
            raise ArithmeticError(f"block {lo}:{hi}")
    with pytest.raises(ArithmeticError,
                       match=f"block {sim.BLOCK}:{2 * sim.BLOCK}"):
        list(sim._run_blocks(2 * sim.BLOCK + 1, [task] * threads))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_blocks_keeps_at_most_its_window_outstanding(threads):
    # a task counts itself as it starts and the caller counts each result it
    # takes, slowly enough that free workers would run ahead; a task can
    # start only once submitted, so started - taken bounds the tasks
    # submitted and not yet consumed
    lock = threading.Lock()
    started = taken = 0
    outstanding = []

    def task(lo, hi):
        nonlocal started
        with lock:
            started += 1
            outstanding.append(started - taken)
        return lo

    results = []
    for lo in sim._run_blocks(40 * sim.BLOCK, [task] * threads):
        time.sleep(1e-3)
        with lock:
            taken += 1
        results.append(lo)
    assert results == list(range(0, 40 * sim.BLOCK, sim.BLOCK))
    assert max(outstanding) <= 2 * threads


def _consume_all(blocks):
    list(blocks)


def _consume_until_an_error(blocks):
    with pytest.raises(ArithmeticError):
        list(blocks)


def _close_after_the_first(blocks):
    next(blocks)
    blocks.close()


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("consume", [
    _consume_all, _consume_until_an_error, _close_after_the_first],
    ids=["consumed", "raised", "closed"])
def test_run_blocks_leaves_no_worker_alive(threads, consume):
    # every worker is joined however the generator ends, even with blocks
    # still queued and a short switch interval
    def task(lo, hi):
        if lo == 3 * sim.BLOCK and consume is _consume_until_an_error:
            raise ArithmeticError(f"block {lo}:{hi}")
        return lo

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        consume(sim._run_blocks(20 * sim.BLOCK, [task] * threads))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


def test_importing_sim_loads_numpy_random_in_the_importing_thread():
    # numpy.random loads with sim, so no block pays for its import on a
    # worker, and importing starts no thread
    script = ("import sys, threading, ldp_osc.sim\n"
              "print('numpy.random' in sys.modules, threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "1"]


def test_sampler_step_counts_are_bounded_before_sampling():
    with pytest.raises(ValueError, match="need at most 1e[+]09 steps, got 1000000001"):
        SimConfig(get_method("beta:0.5"), 0.1, 10 ** 9 + 1, 10)
    assert SimConfig(get_method("beta:0.5"), 0.1, 10 ** 9, 10).steps == 10 ** 9


# edge values for the step: signed zeros, subnormals, infinities, values
# whose products or sums overflow, and ordinary ones
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
          math.inf, -math.inf, 1.7976931348623157e308, -1e308, 1.0, -0.7]


def _step_matrix(matrix):
    if matrix == "exact":
        return np.array(rotation(0.7))
    return np.array(evaluate(get_method(matrix), 0.1)[0])


@pytest.mark.parametrize("matrix", ["em", "beta:0.5", "exact"])
def test_step_is_the_two_row_recursion_bit_for_bit(matrix):
    # the one kernel reorders only the two products of each row's sum, which
    # IEEE addition commutes, and forms the noise nb * row in its scratch,
    # so every bit matches the two-row reference with u = nb0 row and
    # v = nb1 row; nan matches by position, as its payload may differ
    edges = np.array(_EDGES)
    grid = np.meshgrid(edges, edges, edges, edges, edges)
    noise = np.random.default_rng(3).standard_normal((5, 1000))
    x, y, row, nb0, nb1 = (np.concatenate([g.ravel(), r])
                           for g, r in zip(grid, noise))
    M = _step_matrix(matrix)
    paths = sim._Paths(PARAMS, M, np.array([nb0, nb1]),
                       np.empty((2, len(x))))
    paths.z[:] = x, y
    with np.errstate(all="ignore"):
        paths.step(row)
        u, v = np.multiply(nb0, row), np.multiply(nb1, row)
        for got_row, want in zip(paths.z, oracles.two_row_step(M, x, y, u, v)):
            nan = np.isnan(want)
            assert (np.isnan(got_row) == nan).all()
            npt.assert_array_equal(got_row[~nan].view(np.uint64),
                                   want[~nan].view(np.uint64))


def _cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.machine() == "x86_64"),
                    reason="OpenBLAS core types are named for x86-64 Linux")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_simulate_digits_do_not_depend_on_the_blas_kernel(coretype):
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS (numpy's wheels) run
    # another CPU's kernels; simulate calls none, so its stdout keeps its
    # digest
    if coretype == "Haswell" and not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("the Haswell kernels need avx2 and fma")
    command, digest = GOLDEN_STDOUT[0]
    assert command == ("simulate --method beta:0.5 --h 0.1 --N 300 "
                       "--samples 10000 --seed 5")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, LDP_OSC_THREADS="2")
    proc = subprocess.run([sys.executable, "-m", "ldp_osc.cli",
                           *command.split()], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# numpy names that reach BLAS or LAPACK
_BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum",
               "linalg", "polyfit", "lstsq", "cov", "corrcoef"}


def test_samplers_reach_no_blas():
    # the kernel test above runs only on x86-64 Linux; this holds everywhere
    with open(sim.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append(("@", node.lineno))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name is not None and _BLAS_NAMES & set(name.split(".")):
            found.append((name, node.lineno))
    assert found == []


# SHA-256 of the stdout of small simulate runs, recorded before the sampler
# moved to step-major buffers; the kernels must keep every printed digit.
# The first three were re-recorded when the laws' 3x3 products moved from
# numpy (BLAS) to Python floats: the law_mean and law_variance columns moved
# by 1-2 ulp, the Monte Carlo columns by none. The three marked runs were
# re-recorded when simulate's summary became a merge of per-block moments in
# block order (Chan, Golub and LeVeque) in place of numpy's mean and
# variance over the whole per-path arrays: means and variances moved by 1-2
# ulp, min and max and every per-path value by none; the one-path run has
# one block and did not move. Every run was re-recorded when the normals
# came from numpy's SFC64 generator, one stream per block of paths, and its
# ziggurat, in place of the splitmix64 counter stream and scipy's ndtri:
# every Monte Carlo digit moved, the law columns did not. The msq goldens
# live in test_strong.py since msq computes the exact law of its error.
GOLDEN_STDOUT = [
    # re-recorded: summary merged per block; numpy streams
    ("simulate --method beta:0.5 --h 0.1 --N 300 --samples 10000 --seed 5",
     "76182d12f9ad19dba509c8992e0b8ef6cf04f34befbd5026a2b71de9a6d4f683"),
    # re-recorded: summary merged per block; numpy streams
    ("simulate --method beta:0.5 --h 0.1 --N 300 --samples 10000 --seed 5 "
     "--format json",
     "8d4197e815ed6eba72264c8e43d421fce71b1608fe0aa21150132cbc80bec52b"),
    # re-recorded: summary merged per block; numpy streams
    ("simulate --method em --h 0.05 --N 37 --samples 5000 --seed 2 "
     "--x0 0.3 --y0 -0.2 --alpha 0.7 --format json",
     "4a5b0be3aeb27a1aa1321efef268e61442094aa0c8984c3d167ac842ff6089b2"),
    # re-recorded: numpy streams
    ("simulate --method m2 --h 0.2 --N 1 --samples 1 --seed 0 --format json",
     "b010c5b3b4cbc811d2d8f481508c61125fb672641a43b20061dd14d083befcf9"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command, digest", GOLDEN_STDOUT)
def test_sampler_stdout_matches_golden_digest(command, digest, threads,
                                              capsys, monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", threads)
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _OwnedLock:
    """A lock that knows which thread holds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._owner = None

    def __enter__(self):
        self._lock.acquire()
        self._owner = threading.get_ident()

    def __exit__(self, *exc):
        self._owner = None
        self._lock.release()

    def held(self):
        return self._owner == threading.get_ident()


_LOCKED_RUNS = {
    "simulate_summary": lambda: sim.simulate_summary(SimConfig(
        get_method("beta:0.5"), 0.1, 40, 3 * sim.BLOCK, seed=1,
        params=PARAMS)),
    "simulate_paths": lambda: simulate_paths(SimConfig(
        get_method("em"), 0.1, 20, 2 * sim.BLOCK + 5, seed=2, params=PARAMS)),
}


@pytest.mark.parametrize("run", _LOCKED_RUNS.values(), ids=_LOCKED_RUNS)
def test_samplers_keep_the_lock_rule(run, monkeypatch):
    # every step runs under the run's lock, and the draws outside it; each
    # block is handed the one _OwnedLock of its run's lock, so a thread
    # holding none of them holds no run's lock
    monkeypatch.setenv("LDP_OSC_THREADS", "2")
    owned = {}
    calls = {"draws": 0, "step": 0}
    run_block = sim._run_block

    def with_owned_lock(config, A, b, lock, *args):
        # setdefault is one dict operation, so two workers of a run get the
        # same _OwnedLock
        return run_block(config, A, b, owned.setdefault(lock, _OwnedLock()),
                         *args)

    def held():
        return any(lock.held() for lock in list(owned.values()))

    def checked(name, fn, locked):
        def check(*args, **kwargs):
            assert held() == locked, \
                f"{name} ran with the run lock {'free' if locked else 'held'}"
            calls[name] += 1
            return fn(*args, **kwargs)
        return check

    monkeypatch.setattr(sim, "_run_block", with_owned_lock)
    monkeypatch.setattr(sim, "fill_normals",
                        checked("draws", sim.fill_normals, False))
    monkeypatch.setattr(sim._Paths, "step",
                        checked("step", sim._Paths.step, True))
    run()
    assert len(owned) == 1 and min(calls.values()) > 0, (owned, calls)


# multi-block runs: more workers than cores and a short switch interval
# interleave the blocks as much as possible
_INTERLEAVED = [GOLDEN_STDOUT[0][0], GOLDEN_STDOUT[2][0]]


@pytest.mark.parametrize("command", _INTERLEAVED)
def test_interleaved_blocks_print_the_one_worker_bytes(command, capsys,
                                                       monkeypatch):
    # each block reads only its own stream and its worker's buffers, so no
    # interleaving of the blocks moves a byte
    def stdout(threads):
        monkeypatch.setenv("LDP_OSC_THREADS", threads)
        assert cli.main(command.split()) == 0
        return capsys.readouterr().out

    reference = stdout("1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert stdout("4") == reference
    finally:
        sys.setswitchinterval(interval)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_steps(monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", "1")

    def peak(steps):
        config = SimConfig(get_method("beta:0.5"), 0.1, steps, 1000, seed=1,
                           params=PARAMS)
        return _peak_bytes(lambda: simulate_paths(config))

    peak(50)  # warm caches outside the measurement
    assert peak(5000) - peak(50) <= 64 * 1024


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_memory_does_not_grow_with_samples(threads, capsys,
                                                    monkeypatch):
    # each block reduces its observables to moments on its worker, so 64
    # times the blocks hold no more at once than one block per worker
    def peak(samples, threads):
        monkeypatch.setenv("LDP_OSC_THREADS", threads)
        argv = ["simulate", "--method", "beta:0.5", "--h", "0.1", "--N", "2",
                "--samples", str(samples)]
        try:
            return _peak_bytes(lambda: cli.main(argv))
        finally:
            capsys.readouterr()

    peak(2 * sim.BLOCK, threads)  # warm caches outside the measurement
    # the big run may step one block per worker at once; a 2-block baseline
    # would hold one or two blocks' buffers as the scheduler pleases, so the
    # baseline is that many 1-block runs, each holding one
    baseline = int(threads) * peak(sim.BLOCK, "1")
    assert peak(128 * sim.BLOCK, threads) - baseline <= 64 * 1024


def test_step_normals_holds_one_chunk():
    # the generator fills the caller's buffer in place and keeps only its
    # own state
    paths = 4096
    buffer = np.empty(CHUNK_STEPS * paths)

    def run():
        for _ in step_normals(0, 0, paths, 64, buffer):
            pass

    run()  # warm caches outside the measurement
    assert _peak_bytes(run) <= 64 * 1024


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_holds_per_worker_a_chunk_a_scratch_and_a_few_rows(
        threads, monkeypatch):
    # the run shares no buffer: each worker holds its chunk, its step
    # scratch (2) and, for its running block, a few rows: the state (2) and
    # the running sum (1), with 4 to spare for its results and numpy's
    # temporaries. One block runs per worker
    monkeypatch.setenv("LDP_OSC_THREADS", threads)
    workers, row = int(threads), sim.BLOCK * 8
    config = SimConfig(get_method("beta:0.5"), 0.1, 64, workers * sim.BLOCK,
                       seed=1, params=PARAMS)

    def run():
        sim.simulate_summary(config)

    run()  # warm caches outside the measurement
    assert _peak_bytes(run) <= workers * (CHUNK_STEPS + 2 + 7) * row


def test_default_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("LDP_OSC_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert thread_count() == 1
