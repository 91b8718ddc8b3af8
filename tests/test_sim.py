"""Tests for the counter-based RNG, the path simulator, and strong-order fits."""

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ldp_osc import cli, sim
from ldp_osc.ldp import observable_law
from ldp_osc.methods import get_method
from ldp_osc.oscillator import MEAN_POSITION, MEAN_VELOCITY, OscillatorParams
from ldp_osc.rng import CHUNK_ROWS, _fill_uniforms, fill_normals, mix64, \
    step_normals, stream_keys
from ldp_osc.sim import (
    MsqReport,
    SimConfig,
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


@pytest.mark.parametrize("samples", [0, -5])
def test_msq_order_rejects_bad_sample_counts_before_running(samples,
                                                            monkeypatch):
    def no_blocks(count):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_block_runner", no_blocks)
    with pytest.raises(ValueError,
                       match=f"need at least one sample, got {samples}"):
        msq_order(get_method("em"), [0.1, 0.05], samples=samples)


@pytest.mark.parametrize("T0", [math.inf, math.nan, 0.0, -1.0])
def test_msq_order_rejects_bad_horizons_before_running(T0, monkeypatch):
    def no_blocks(count):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_block_runner", no_blocks)
    with pytest.raises(ValueError, match="T0 must be a finite positive horizon"):
        msq_order(get_method("em"), [0.1, 0.05], T0=T0, samples=10)


def test_sampler_step_counts_are_bounded_before_sampling(monkeypatch):
    def no_blocks(count):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_block_runner", no_blocks)
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
# and law_variance columns moved by 1-2 ulp, the Monte Carlo columns by none
GOLDEN_STDOUT = [
    ("simulate --method beta:0.5 --h 0.1 --N 300 --samples 10000 --seed 5",
     "7e65a523ce335a14c7b2e932eed27c8ec7f01101f9f6d8b898485c030625f6e9"),
    ("simulate --method beta:0.5 --h 0.1 --N 300 --samples 10000 --seed 5 "
     "--format json",
     "2c72a3260742b038639e4ebac64f40d26de5e8d7445aa5b3be5da11ca8707c03"),
    ("simulate --method em --h 0.05 --N 37 --samples 5000 --seed 2 "
     "--x0 0.3 --y0 -0.2 --alpha 0.7 --format json",
     "678e83b50c11c2d19745276d0ccfb7b27cac48ad635b0948f05b9a87f006af6a"),
    ("simulate --method m2 --h 0.2 --N 1 --samples 1 --seed 0 --format json",
     "2574cbbeb2eacd691e0974ffd8391e5902a3a00ff6c196facd7933dc857fcb54"),
    ("msq --method em --h 0.1 --samples 3000",
     "7f6ef315f2d6ed531668851573cb5dbb0cfc3d03363e9836b6a4c0482f835893"),
    ("msq --method beta:0.5 --h 0.1 --samples 3000",
     "2a4617ca89a540c03fb723176013193163e725266b5bde0b6fab90f67d77c891"),
    ("msq --method beta:0.5 --h 0.1 --samples 3000 --format json",
     "642412509f5882ae200d8a14da7d7592000a1bf7499098bae56329df67de5b03"),
    ("msq --method ex --h-sweep 0.02:0.2:4 --samples 500 --x0 0.3 --y0 -0.2 "
     "--alpha 0.7 --format json",
     "3e12384f381b66d698188dbc6091b0227040e9ecfed6e70c052e6669f0ce21e5"),
    # more than one BLOCK of paths, so two threads split the work
    ("msq --method em --h 0.1 --samples 9001 --seed 4",
     "8fec16a58d90e97c8b5347db77a1de38048895e020ee00e3a76bfbf1f415e1ab"),
    ("msq --method beta:0.5 --h-sweep 0.02:0.2:4 --samples 8193 --x0 0.3 "
     "--y0 -0.2 --alpha 0.7 --format json",
     "593b786528ec2afc4e4544cea174cec08d6718f4b68b3abafa1e12fa19389bc0"),
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


def test_msq_memory_does_not_grow_with_step_count():
    def peak(hs):
        return _peak_bytes(lambda: msq_order(get_method("em"), hs, T0=1.0,
                                             samples=2000, seed=0,
                                             params=PARAMS))

    peak([0.2, 0.1])  # warm caches outside the measurement
    assert peak([0.01, 0.005]) - peak([0.2, 0.1]) <= 64 * 1024


@pytest.mark.parametrize("threads", ["1", "2"])
def test_msq_memory_per_path_is_one_float(threads, monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", threads)

    def peak(samples):
        return _peak_bytes(lambda: msq_order(get_method("em"), [0.2, 0.1],
                                             T0=1.0, samples=samples, seed=0,
                                             params=PARAMS))

    peak(8192)  # warm caches outside the measurement
    assert peak(16384) - peak(8192) <= 8192 * 8 + 64 * 1024


@pytest.mark.parametrize("block", [64, 1000])
def test_msq_errors_do_not_depend_on_block_size(block, monkeypatch):
    # more workers than cores and a short switch interval interleave the
    # tasks' writes into the shared per-path array as much as possible
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
