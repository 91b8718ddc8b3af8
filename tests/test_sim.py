"""Tests for the counter-based RNG, the path simulator, and strong-order fits."""

import hashlib
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ldp_osc import cli, rng, sim
from ldp_osc.ldp import observable_law
from ldp_osc.methods import get_method
from ldp_osc.oscillator import MEAN_POSITION, MEAN_VELOCITY, OscillatorParams, \
    SimConfig
from ldp_osc.rng import CHUNK_ROWS, _fill_uniforms, fill_normals, mix64, \
    step_normals, stream_keys
from ldp_osc.sim import (
    MsqReport,
    fit_loglog_slope,
    msq_order,
    simulate_paths,
    thread_count,
)

PARAMS = OscillatorParams(alpha=1.0, x0=0.3, y0=-0.2)


def _normals(seed, paths, start, count):
    keys = stream_keys(seed, np.asarray(paths))
    out = np.empty((count, len(keys)))
    return fill_normals(keys, start, out,
                        np.empty((2,) + out.shape, dtype=np.uint64))


def test_rng_frozen_values():
    # recomputed by hand from the splitmix64 recipe in the module docstring
    assert int(stream_keys(0, np.array([0]))[0]) == 16294208416658607535
    assert oracles.stream_key(0, 0) == 16294208416658607535
    first = _normals(0, [0], 0, 1)[0, 0]
    assert first == pytest.approx(0.3919393499913912, rel=1e-12)
    assert oracles.stream_normals(0, [0], 0, 1)[0, 0] \
        == pytest.approx(0.3919393499913912, rel=1e-12)


def test_fill_normals_is_step_major_normals():
    # row k, column p is draw start + k of path p, as the splitmix64 recipe
    # in Python integers gives it; the two inverse CDFs (scipy's ndtri,
    # statistics.NormalDist) agree to rounding
    paths = np.array([0, 1, 5, 4095, 123456])
    out = np.empty((6, 5))
    work = np.empty((2, 6, 5), dtype=np.uint64)
    assert fill_normals(stream_keys(7, paths), 11, out, work) is out
    npt.assert_allclose(out, oracles.stream_normals(7, paths, 11, 6),
                        rtol=1e-12, atol=1e-14)


def test_rng_partition_invariance():
    # draws depend only on (seed, path, index), not on how they are batched
    whole = _normals(7, np.arange(5), 0, 64)
    split = np.concatenate([_normals(7, np.arange(5), 0, 10),
                            _normals(7, np.arange(5), 10, 30),
                            _normals(7, np.arange(5), 40, 24)])
    npt.assert_array_equal(whole, split)
    npt.assert_array_equal(whole[:, 2], _normals(7, [2], 0, 64)[:, 0])


def test_rng_uniforms_land_in_open_interval():
    keys = stream_keys(3, np.arange(100))
    u = np.empty((50, 100))
    _fill_uniforms(keys, 0, u, np.empty((2, 50, 100), dtype=np.uint64))
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    # sane first and second moments for this sample size
    assert abs(float(np.mean(u)) - 0.5) < 0.01
    assert abs(float(np.var(u)) - 1.0 / 12.0) < 0.01


def test_rng_distinct_streams_and_seeds():
    a = _normals(0, np.arange(4), 0, 8)
    b = _normals(1, np.arange(4), 0, 8)
    assert not np.allclose(a, b)
    assert not np.allclose(a[:, 0], a[:, 1])


@pytest.mark.parametrize("per_step", [1, 3])
@pytest.mark.parametrize("steps", [1, 4, 16, 37])
def test_step_normals_chunks_are_the_stream(per_step, steps):
    # the chunks, laid end to end, are draws 0..per_step * steps - 1 of paths
    # lo..hi-1, and each is at most CHUNK_ROWS rows
    chunks = [c.copy() for c in step_normals(9, 3, 10, steps, per_step)]
    assert all(len(c) % per_step == 0 and len(c) <= CHUNK_ROWS
               for c in chunks)
    npt.assert_array_equal(np.concatenate(chunks),
                           _normals(9, np.arange(3, 10), 0, per_step * steps))


def test_mix64_is_deterministic_and_bijective_on_samples():
    values = np.arange(1, 1000, dtype=np.uint64)
    hashed = mix64(values)
    assert len(np.unique(hashed)) == len(values)
    npt.assert_array_equal(hashed, mix64(values.copy()))


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


def test_fit_loglog_slope_recovers_power():
    hs = [0.4, 0.2, 0.1, 0.05]
    errors = [3.0 * h ** 2 for h in hs]
    assert fit_loglog_slope(hs, errors) == pytest.approx(2.0, rel=1e-12)


def test_msq_order_first_order_methods():
    hs = [0.1 * 2.0 ** -k for k in range(4)]
    em = msq_order(get_method("em"), hs, T0=1.0, samples=2000, seed=0,
                   params=PARAMS)
    assert isinstance(em, MsqReport)
    assert 0.85 <= em.slope <= 1.6
    assert all(a > b for a, b in zip(em.errors, em.errors[1:]))

    ex = msq_order(get_method("ex"), hs, T0=1.0, samples=2000, seed=0,
                   params=PARAMS)
    assert ex.slope >= 0.85


def test_msq_order_warns_on_fractional_step_count():
    with pytest.warns(UserWarning, match="not an integer"):
        report = msq_order(get_method("ex"), [0.3, 0.15], T0=1.0, samples=50,
                           seed=0, params=PARAMS)
    # the step counts that ran: 1/0.3 rounds to 3, 1/0.15 to 7
    assert report.steps == (3, 7)


def test_msq_order_guards():
    with pytest.raises(ValueError):
        msq_order(get_method("ex"), [0.1], T0=1.0, samples=50)
    with pytest.raises(ValueError):
        msq_order(get_method("ex"), [0.1, 0.2], T0=1.0, samples=50)
    with pytest.raises(ValueError):
        msq_order(get_method("ex"), [3.0, 1.5], T0=1.0, samples=50)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_blocks_runs_every_range_once(threads, monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", threads)
    samples = 2 * sim.BLOCK + 1
    ran = []

    def task(lo, hi):
        ran.append((lo, hi))
        return lo, hi
    blocks = [(0, sim.BLOCK), (sim.BLOCK, 2 * sim.BLOCK),
              (2 * sim.BLOCK, samples)]
    assert list(sim._run_blocks(samples, task)) == blocks
    assert sorted(ran) == blocks


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_blocks_reraises_a_task_error(threads, monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", threads)

    def task(lo, hi):
        if lo == sim.BLOCK:
            raise ArithmeticError(f"block {lo}:{hi}")
    with pytest.raises(ArithmeticError,
                       match=f"block {sim.BLOCK}:{2 * sim.BLOCK}"):
        list(sim._run_blocks(2 * sim.BLOCK + 1, task))


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_run_blocks_keeps_at_most_its_window_outstanding(threads,
                                                         monkeypatch):
    # a task counts itself as it starts and the caller counts each result it
    # takes, slowly enough that free workers would run ahead; a task can
    # start only once submitted, so started - taken bounds the tasks
    # submitted and not yet consumed
    monkeypatch.setenv("LDP_OSC_THREADS", threads)
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
    for lo in sim._run_blocks(40 * sim.BLOCK, task):
        time.sleep(1e-3)
        with lock:
            taken += 1
        results.append(lo)
    assert results == list(range(0, 40 * sim.BLOCK, sim.BLOCK))
    assert max(outstanding) <= 2 * int(threads)


@pytest.mark.parametrize("samples", [0, -5])
def test_msq_order_rejects_bad_sample_counts_before_running(samples,
                                                            monkeypatch):
    def no_blocks(samples, task):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    with pytest.raises(ValueError,
                       match=f"need at least one sample, got {samples}"):
        msq_order(get_method("em"), [0.1, 0.05], samples=samples)


@pytest.mark.parametrize("T0", [math.inf, math.nan, 0.0, -1.0])
def test_msq_order_rejects_bad_horizons_before_running(T0, monkeypatch):
    def no_blocks(samples, task):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    with pytest.raises(ValueError, match="T0 must be a finite positive horizon"):
        msq_order(get_method("em"), [0.1, 0.05], T0=T0, samples=10)


def test_sampler_step_counts_are_bounded_before_sampling(monkeypatch):
    def no_blocks(samples, task):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    # 1e10 steps per path at h = 0.1
    with pytest.raises(ValueError, match="need at most 1e[+]09"):
        msq_order(get_method("em"), [0.1, 0.05], T0=1e9, samples=10)
    # the largest count is checked even when it comes from the finest step
    with pytest.raises(ValueError, match="at h = 0.05; need at most 1e[+]09"):
        msq_order(get_method("em"), [0.1, 0.05], T0=6e7, samples=10)
    with pytest.raises(ValueError, match="need at most 1e[+]09 steps, got 1000000001"):
        SimConfig(get_method("beta:0.5"), 0.1, 10 ** 9 + 1, 10)
    assert SimConfig(get_method("beta:0.5"), 0.1, 10 ** 9, 10).steps == 10 ** 9


# SHA-256 of the stdout of small simulate and msq runs, recorded before the
# samplers moved to step-major buffers and streamed exact steps (the two
# multi-block msq runs: before msq moved onto the block engine); the kernels
# must keep every printed digit. The first three were re-recorded when the
# laws' 3x3 products moved from numpy (BLAS) to Python floats: the law_mean
# and law_variance columns moved by 1-2 ulp, the Monte Carlo columns by none.
# The three marked msq runs were re-recorded when msq's mean square error
# became the exact mean of the per-path worst errors, rounded once, in place
# of numpy's pairwise mean: each moved one error by 1 ulp (and the sweep's
# slope in its last digits), while every per-path value stayed bit-identical.
# The three marked simulate runs were re-recorded when simulate's summary
# became a merge of per-block moments in block order (Chan, Golub and
# LeVeque) in place of numpy's mean and variance over the whole per-path
# arrays: means and variances moved by 1-2 ulp, min and max and every
# per-path value by none; the one-path run has one block and did not move
GOLDEN_STDOUT = [
    # re-recorded: summary merged per block
    ("simulate --method beta:0.5 --h 0.1 --N 300 --samples 10000 --seed 5",
     "752ab25e6c18f8b6de93227e96455b0031a41da8f47fbd69146328026bbb2ebb"),
    # re-recorded: summary merged per block
    ("simulate --method beta:0.5 --h 0.1 --N 300 --samples 10000 --seed 5 "
     "--format json",
     "5b464c7fc8bc9ffe293efa27595e0700af67da372f583a53a4b935fbcb655e92"),
    # re-recorded: summary merged per block
    ("simulate --method em --h 0.05 --N 37 --samples 5000 --seed 2 "
     "--x0 0.3 --y0 -0.2 --alpha 0.7 --format json",
     "7a5f85a45c361d37570e412250d15e4fa19c5aac9a1c34b505650f5ec45a59c0"),
    ("simulate --method m2 --h 0.2 --N 1 --samples 1 --seed 0 --format json",
     "2574cbbeb2eacd691e0974ffd8391e5902a3a00ff6c196facd7933dc857fcb54"),
    ("msq --method em --h 0.1 --samples 3000",
     "7f6ef315f2d6ed531668851573cb5dbb0cfc3d03363e9836b6a4c0482f835893"),
    # re-recorded: exact mean
    ("msq --method beta:0.5 --h 0.1 --samples 3000",
     "c0eeff46ce0bf1824187272d786e5a2ee69384b9d0710d8a4700b5bbc08f28ee"),
    # re-recorded: exact mean
    ("msq --method beta:0.5 --h 0.1 --samples 3000 --format json",
     "5f37dba0643e3afa62a130f9b8b4df0c7223006997e60bf1af51eb37a23f307a"),
    ("msq --method ex --h-sweep 0.02:0.2:4 --samples 500 --x0 0.3 --y0 -0.2 "
     "--alpha 0.7 --format json",
     "3e12384f381b66d698188dbc6091b0227040e9ecfed6e70c052e6669f0ce21e5"),
    # more than one BLOCK of paths, so two threads split the work
    ("msq --method em --h 0.1 --samples 9001 --seed 4",
     "8fec16a58d90e97c8b5347db77a1de38048895e020ee00e3a76bfbf1f415e1ab"),
    # re-recorded: exact mean
    ("msq --method beta:0.5 --h-sweep 0.02:0.2:4 --samples 8193 --x0 0.3 "
     "--y0 -0.2 --alpha 0.7 --format json",
     "8fe8e7ce57cb42720f9538ee53bbf79d7364864093e86619c2c0ab8d9b4fa381"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command, digest", GOLDEN_STDOUT)
def test_sampler_stdout_matches_golden_digest(command, digest, threads,
                                              capsys, monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", threads)
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    # times the blocks hold no more at once
    monkeypatch.setenv("LDP_OSC_THREADS", threads)

    def peak(samples):
        argv = ["simulate", "--method", "beta:0.5", "--h", "0.1", "--N", "2",
                "--samples", str(samples)]
        try:
            return _peak_bytes(lambda: cli.main(argv))
        finally:
            capsys.readouterr()

    peak(2 * sim.BLOCK)  # warm caches outside the measurement
    assert peak(128 * sim.BLOCK) - peak(2 * sim.BLOCK) <= 64 * 1024


def test_msq_memory_does_not_grow_with_step_count():
    def peak(hs):
        return _peak_bytes(lambda: msq_order(get_method("em"), hs, T0=1.0,
                                             samples=2000, seed=0,
                                             params=PARAMS))

    peak([0.2, 0.1])  # warm caches outside the measurement
    assert peak([0.01, 0.005]) - peak([0.2, 0.1]) <= 64 * 1024


@pytest.mark.parametrize("per_step, rows", [
    (1, CHUNK_ROWS), (3, CHUNK_ROWS), (3, 3 * sim.MSQ_CHUNK_STEPS)],
    ids=["1", "3", "3-msq"])
def test_step_normals_holds_a_chunk_and_one_scratch(per_step, rows):
    # mix64's second scratch is the chunk's own memory
    paths = 4096
    chunk_bytes = rows // per_step * per_step * paths * 8

    def run():
        for _ in step_normals(0, 0, paths, 64, per_step, rows):
            pass

    run()  # warm caches outside the measurement
    assert _peak_bytes(run) <= 2 * chunk_bytes + 64 * 1024


@pytest.mark.parametrize("threads", ["1", "2"])
def test_msq_memory_does_not_grow_with_samples(threads, monkeypatch):
    # each block reduces its paths' errors to exact sums, which add into
    # running totals as they arrive, so 32 times the blocks hold no more at
    # once
    monkeypatch.setenv("LDP_OSC_THREADS", threads)

    def peak(samples):
        return _peak_bytes(lambda: msq_order(get_method("em"), [0.2, 0.1],
                                             T0=1.0, samples=samples, seed=0,
                                             params=PARAMS))

    peak(2 * sim.BLOCK)  # warm caches outside the measurement
    assert peak(64 * sim.BLOCK) - peak(2 * sim.BLOCK) <= 64 * 1024


def test_msq_memory_does_not_grow_with_sweep_points(monkeypatch):
    # twelve step sizes run in three passes, one after the other
    monkeypatch.setenv("LDP_OSC_THREADS", "1")

    def peak(points):
        hs = [1.0 / steps for steps in range(2, 2 + points)]
        return _peak_bytes(lambda: msq_order(get_method("em"), hs, T0=1.0,
                                             samples=2000, seed=0,
                                             params=PARAMS))

    peak(5)  # warm caches outside the measurement
    assert peak(12) - peak(5) <= 64 * 1024


@pytest.mark.parametrize("block", [64, 1000])
def test_msq_errors_do_not_depend_on_block_size(block, monkeypatch):
    # more workers than cores and a short switch interval interleave the
    # tasks as much as possible; the exact sums of any block split add up to
    # the same total
    def errors():
        return msq_order(get_method("beta:0.5"), [0.2, 0.1], T0=1.0,
                         samples=5000, seed=1, params=PARAMS).errors

    monkeypatch.setenv("LDP_OSC_THREADS", "1")
    reference = errors()
    monkeypatch.setattr(sim, "BLOCK", block)
    monkeypatch.setenv("LDP_OSC_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert errors() == reference
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_msq_error_does_not_depend_on_the_sweep(threads, monkeypatch):
    # a step size shares its pass's noise stream and scratch with the other
    # step sizes, and must not feel them
    monkeypatch.setenv("LDP_OSC_THREADS", threads)

    def errors(hs):
        report = msq_order(get_method("beta:0.5"), hs, T0=1.0, samples=5000,
                           seed=2, params=PARAMS)
        return dict(zip(report.h_values, report.errors))

    whole = errors([0.2, 0.1, 0.05, 0.025])
    assert errors([0.2, 0.1]) == {h: whole[h] for h in (0.2, 0.1)}
    assert errors([0.05, 0.025]) == {h: whole[h] for h in (0.05, 0.025)}


def test_msq_sweep_of_two_passes_matches_shorter_sweeps(monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", "2")
    passes = []
    run_blocks = sim._run_blocks

    def counting(samples, task):
        passes.append(task)
        return run_blocks(samples, task)

    monkeypatch.setattr(sim, "_run_blocks", counting)

    def errors(hs):
        report = msq_order(get_method("em"), hs, T0=1.0, samples=4500,
                           seed=1, params=PARAMS)
        return dict(zip(report.h_values, report.errors))

    hs = [1.0 / steps for steps in (4, 5, 6, 8, 10, 12, 16)]
    whole = errors(hs)
    assert sim.MSQ_PASS == 5 and len(passes) == 2
    parts = {}
    for part in (hs[:2], hs[2:5], hs[5:]):
        parts.update(errors(part))
    assert parts == whole


def test_msq_draws_each_normal_once_per_pass(monkeypatch, capsys):
    # the default sweep runs 10, 20, 40, 80 and 160 steps in one pass, so
    # each path draws the 3 x 160 normals of the finest step size, not
    # 3 x (10 + 20 + 40 + 80 + 160)
    monkeypatch.setenv("LDP_OSC_THREADS", "1")
    draws = []
    fill_normals = rng.fill_normals

    def counting(keys, start, out, work):
        draws.append(out.size)
        return fill_normals(keys, start, out, work)

    monkeypatch.setattr(rng, "fill_normals", counting)
    samples = 5000
    assert cli.main(["msq", "--method", "em", "--h", "0.1", "--samples",
                     str(samples)]) == 0
    assert "\n0.00625,160," in capsys.readouterr().out
    assert sum(draws) == 3 * 160 * samples


def _fraction_sum(values):
    return sum(map(Fraction, values.tolist()), Fraction(0))


EXACT_SUM_CASES = {
    "zeros": np.zeros(4096),
    "subnormals": np.array([5e-324, 1e-320, 2.2e-308, 0.0, 1e-310, 5e-324]),
    "wide range": 10.0 ** np.random.default_rng(0).uniform(-300, 300, 4096),
    "signed wide range": np.random.default_rng(1).choice([-1.0, 1.0], 4096)
    * 10.0 ** np.random.default_rng(2).uniform(-300, 300, 4096),
    "1e+300 and 1e-300": np.array([1e300, 1e-300, 1e300, 3e-300] * 1024),
    "constant tenths": np.full(4096, 0.1),
    "constant huge": np.full(4096, 1.7e308),
    "constant least subnormal": np.full(4096, 5e-324),
    "one value": np.array([0.7]),
}


@pytest.mark.parametrize("values", EXACT_SUM_CASES.values(),
                         ids=EXACT_SUM_CASES.keys())
def test_exact_sum_is_the_fraction_sum(values):
    assert sim._exact_sum(values) == _fraction_sum(values)


def test_exact_sum_of_non_finite_values_is_their_float_sum():
    assert sim._exact_sum(np.array([1.0, math.inf, 2.0])) == math.inf
    assert math.isnan(sim._exact_sum(np.array([1.0, math.nan])))
    # a running total stays the float sum of the non-finite block sums, even
    # past an exact sum beyond the float range
    total = sim._add_sums(Fraction(10 ** 400), math.inf)
    assert sim._mean(sim._add_sums(total, Fraction(2)), 3) == math.inf
    assert math.isnan(sim._mean(sim._add_sums(total, -math.inf), 3))
    total = sim._add_sums(sim._add_sums(Fraction(1), math.nan), Fraction(2))
    assert math.isnan(sim._mean(total, 3))


def test_mean_is_the_exact_mean_rounded_once():
    # a pairwise float mean of these blocks is off by an ulp or more
    blocks = [np.full(4096, 0.1), 10.0 ** np.random.default_rng(3).uniform(
        -20, 0, 4096), np.array([1e-17] * 1000 + [1.0])]
    samples = sum(len(b) for b in blocks)
    exact = sum(_fraction_sum(b) for b in blocks) / samples
    total = Fraction(0)
    for b in blocks:
        total = sim._add_sums(total, sim._exact_sum(b))
    mean = sim._mean(total, samples)
    assert mean == float(exact)
    assert mean != float(np.mean(np.concatenate(blocks)))


def test_default_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("LDP_OSC_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert thread_count() == 1
