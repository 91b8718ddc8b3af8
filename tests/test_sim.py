"""Tests for the counter-based RNG, the path simulator, and strong-order fits."""

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
from fractions import Fraction

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ldp_osc import cli, rng, sim
from ldp_osc.ldp import observable_law
from ldp_osc.methods import evaluate, get_method
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
    return fill_normals(keys, start, out, np.empty(out.shape, dtype=np.uint64),
                        threading.Lock())


def _step_normals(seed, lo, hi, steps, per_step, rows=CHUNK_ROWS):
    # step_normals with its own lock and a mix64 scratch for chunks of at
    # most `rows` rows
    bits = np.empty((rows // per_step * per_step, hi - lo), dtype=np.uint64)
    return step_normals(seed, lo, hi, steps, per_step, threading.Lock(), bits)


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
    bits = np.empty((6, 5), dtype=np.uint64)
    assert fill_normals(stream_keys(7, paths), 11, out, bits,
                        threading.Lock()) is out
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
    _fill_uniforms(keys, 0, u, np.empty((50, 100), dtype=np.uint64))
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
    chunks = [c.copy() for c in _step_normals(9, 3, 10, steps, per_step)]
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


def test_fit_loglog_slope_matches_a_50_digit_least_squares_fit():
    # the same float points, their logs and the normal-equation slope in
    # 50-digit arithmetic
    draw = np.random.default_rng(7)
    for _ in range(40):
        n = int(draw.integers(2, 13))
        hs = sorted(10.0 ** draw.uniform(-5.0, 0.5, n), reverse=True)
        order, scale = draw.uniform(0.5, 3.0), 10.0 ** draw.uniform(-3, 2)
        errors = [scale * h ** order * math.exp(0.3 * draw.standard_normal())
                  for h in hs]
        with mpmath.workdps(50):
            x = [mpmath.log(mpmath.mpf(h)) for h in hs]
            y = [mpmath.log(mpmath.mpf(e)) for e in errors]
            x_mean, y_mean = sum(x) / n, sum(y) / n
            slope = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) \
                / sum((a - x_mean) ** 2 for a in x)
        assert fit_loglog_slope(hs, errors) == pytest.approx(float(slope),
                                                             rel=1e-13)


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
    # the step counts that ran: 1/0.3 rounds to 3, 1/0.15 to 7, and the
    # steps that ran, which share the horizon 1
    assert report.steps == (3, 7)
    assert report.h_values == (1.0 / 3, 1.0 / 7)


def test_msq_order_runs_every_step_size_over_the_horizon():
    # 0.95/0.1 rounds to 9 steps and 0.95/0.05 to 19: each runs its steps of
    # 0.95/steps, the same steps a sweep given those steps runs
    with pytest.warns(UserWarning, match="comparing over 9 steps of 0.105556"):
        report = msq_order(get_method("beta:0.5"), [0.1, 0.05], T0=0.95,
                           samples=500, seed=3, params=PARAMS)
    assert report.steps == (9, 19)
    assert report.h_values == (0.95 / 9, 0.95 / 19)
    again = msq_order(get_method("beta:0.5"), report.h_values, T0=0.95,
                      samples=500, seed=3, params=PARAMS)
    assert again == report


def test_msq_order_rejects_step_sizes_with_one_step_count(monkeypatch):
    def no_blocks(samples, task):
        raise AssertionError("a block runner started")
    monkeypatch.setattr(sim, "_run_blocks", no_blocks)
    with pytest.raises(ValueError, match="h = 0.32 and h = 0.3 both give 3 "
                       "steps over T0 = 1"), pytest.warns(UserWarning):
        msq_order(get_method("em"), [0.32, 0.3, 0.1], samples=10)


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


# edge values for the step: signed zeros, subnormals, infinities, values
# whose products or sums overflow, and ordinary ones
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
          math.inf, -math.inf, 1.7976931348623157e308, -1e308, 1.0, -0.7]


def _step_matrix(matrix):
    if matrix == "exact":
        return sim.rotation(0.7)
    return np.array(evaluate(get_method(matrix), 0.1)[0])


@pytest.mark.parametrize("matrices", [("em",), ("beta:0.5",), ("exact",),
                                      ("exact", "beta:0.5")],
                         ids=["em", "beta:0.5", "exact", "stacked"])
def test_step_is_the_two_row_recursion_bit_for_bit(matrices):
    # the one kernel reorders only the two products of each row's sum, which
    # IEEE addition commutes, so every bit matches the two-row reference,
    # for one (2, n) state or layer by layer for a stack of them; nan
    # matches by position, as its payload may differ
    edges = np.array(_EDGES)
    x, y, u, v = (g.ravel() for g in np.meshgrid(edges, edges, edges, edges))
    noise = np.random.default_rng(3).standard_normal((4, 1000))
    x, y, u, v = (np.concatenate([e, r]) for e, r in zip((x, y, u, v), noise))
    n = len(x)
    # layer i steps the inputs rolled by i paths, so the layers differ
    layers = [(_step_matrix(m), *(np.roll(a, i) for a in (x, y, u, v)))
              for i, m in enumerate(matrices)]
    stack = () if len(layers) == 1 else (len(layers),)
    M = np.reshape([layer[0] for layer in layers], stack + (2, 2))
    paths = sim._Paths(PARAMS, M, n, stack=stack)
    paths.z[:] = np.reshape([layer[1:3] for layer in layers], paths.z.shape)
    with np.errstate(all="ignore"):
        paths.step(np.reshape([layer[3:] for layer in layers], paths.z.shape))
        for got, layer in zip(paths.z.reshape(-1, 2, n), layers):
            for got_row, want in zip(got, oracles.two_row_step(*layer)):
                nan = np.isnan(want)
                assert (np.isnan(got_row) == nan).all()
                npt.assert_array_equal(got_row[~nan].view(np.uint64),
                                       want[~nan].view(np.uint64))


def test_step_noise_covariance_is_within_a_few_ulp_of_50_digits():
    # no entry cancels at small steps: at MIN_STEP the direct forms of Var I1
    # and 1 - cos(delta) are 0.0; the steps around delta = 1 straddle the
    # switch from the series of 2 delta - sin(2 delta) to its direct form
    deltas = np.geomspace(sim.MIN_STEP, 1.9, 301).tolist() \
        + [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
    worst = 0.0
    with mpmath.workdps(50):
        for delta in deltas:
            d = mpmath.mpf(delta)
            s, c, s2 = mpmath.sin(d), mpmath.cos(d), mpmath.sin(2 * d)
            exact = [[d, 1 - c, s], [1 - c, d / 2 - s2 / 4, s * s / 2],
                     [s, s * s / 2, d / 2 + s2 / 4]]
            got = sim.step_noise_covariance(delta)
            for i in range(3):
                for j in range(3):
                    want = exact[i][j]
                    error = abs(mpmath.mpf(float(got[i, j])) - want)
                    worst = max(worst, float(error) / math.ulp(float(want)))
    assert worst <= 4


@pytest.mark.parametrize("delta", np.geomspace(sim.MIN_STEP, 1.9, 25).tolist())
def test_noise_factor_is_the_symmetric_square_root(delta):
    # against the 50-digit symmetric root of the same float covariance, with
    # negative eigenvalues clipped to 0 as the factor clips them. The square
    # root is operator monotone, |sqrt(A) - sqrt(B)| <= |A - B|^(1/2), so a
    # backward error of a few ulps of C bounds the factor's error by the root
    # of that; the residual L L - C is those ulps plus what the clip adds
    C = sim.step_noise_covariance(delta)
    L = sim.exact_factor(delta, 1.0)
    assert (L == L.T).all()
    ulp = 2.0 ** -53 * float(np.abs(C).max())
    with mpmath.workdps(50):
        exact = mpmath.matrix(C.tolist())
        eigenvalues, vectors = mpmath.eigsy(exact)
        root = vectors * mpmath.diag([mpmath.sqrt(max(e, 0))
                                      for e in eigenvalues]) * vectors.T
        factor = mpmath.matrix(L.tolist())
        error = mpmath.mnorm(factor - root, "inf")
        residual = mpmath.mnorm(factor * factor - exact, "inf")
        clipped = -min(min(eigenvalues), 0)
    assert error <= math.sqrt(32 * ulp)
    assert residual <= 3 * clipped + 32 * ulp


def test_noise_factor_folds_alpha_into_the_noise_rows():
    L = sim.exact_factor(0.3, 1.0)
    npt.assert_array_equal(sim.exact_factor(0.3, 0.7),
                           [L[0], 0.7 * L[1], 0.7 * L[2]])


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
def test_msq_digits_do_not_depend_on_the_blas_kernel(coretype):
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS (numpy's wheels) run
    # another CPU's kernels; msq calls none, so its stdout keeps its digest
    if coretype == "Haswell" and not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("the Haswell kernels need avx2 and fma")
    command, digest = GOLDEN_STDOUT[4]
    assert command == "msq --method em --h 0.1 --samples 3000"
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, LDP_OSC_THREADS="2")
    proc = subprocess.run([sys.executable, "-m", "ldp_osc.cli",
                           *command.split()], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# numpy names that reach BLAS or LAPACK
_BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum",
               "linalg", "polyfit", "lstsq", "cov", "corrcoef"}


@pytest.mark.parametrize("module", [sim, rng], ids=["sim", "rng"])
def test_samplers_reach_no_blas(module):
    # the kernel test above runs only on x86-64 Linux; this holds everywhere
    with open(module.__file__, encoding="utf-8") as source:
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
# per-path value by none; the one-path run has one block and did not move.
# Every msq run was re-recorded when msq stopped calling BLAS and LAPACK (a
# Jacobi noise factor in Python floats, the exact noise as elementwise
# products, the fit in closed form): errors moved from their 10th
# significant digit (finest step) to their 15th (coarsest), and the digest
# no longer depends on the BLAS kernel the CPU picks.
# The two marked sweeps were then re-recorded when every step size came to
# run T0/round(T0/h): their two middle step sizes, where T0/h is not an
# integer, moved to the common horizon T0, and the h column prints the step
# that ran.
# Every msq run was re-recorded when the step noise covariance stopped
# cancelling at small steps (1 - cos as 2 sin^2, Var I1 from a series): each
# exact factor moved by roundoff, and the errors from their 11th to 13th
# significant digit
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
    # re-recorded: no BLAS; covariance
    ("msq --method em --h 0.1 --samples 3000",
     "30395fa98216c475d0ae5a7cc2da09fdf62cce6394ff26ec5a4a495f9cd1bbe8"),
    # re-recorded: exact mean; no BLAS; covariance
    ("msq --method beta:0.5 --h 0.1 --samples 3000",
     "2e9d98f1d0bcb887ec831e61607021e2849ae92accfb80df14991f10ffb73da4"),
    # re-recorded: exact mean; no BLAS; covariance
    ("msq --method beta:0.5 --h 0.1 --samples 3000 --format json",
     "62fea06440fec7ae7a649348f0acd553f52a72ac890c1041c26bf705f5bc3542"),
    # re-recorded: no BLAS; common horizon; covariance
    ("msq --method ex --h-sweep 0.02:0.2:4 --samples 500 --x0 0.3 --y0 -0.2 "
     "--alpha 0.7 --format json",
     "c5672a5ef449687e4678d6539a6ebf3ec8ed782d61a1909d9a8875ae39ebaa0e"),
    # more than one BLOCK of paths, so two threads split the work;
    # re-recorded: no BLAS; covariance
    ("msq --method em --h 0.1 --samples 9001 --seed 4",
     "a0c01ce46f822643c60c2ad199f49eb6d3e3c3676e37664373fb4513e05ea795"),
    # re-recorded: exact mean; no BLAS; common horizon; covariance
    ("msq --method beta:0.5 --h-sweep 0.02:0.2:4 --samples 8193 --x0 0.3 "
     "--y0 -0.2 --alpha 0.7 --format json",
     "eeee210864d0de70e7650cefc3a077aef1270781d93bf380079f3848104aa531"),
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
    "msq_order": lambda: msq_order(get_method("beta:0.5"), [0.2, 0.1],
                                   samples=2 * sim.BLOCK + 5, seed=3,
                                   params=PARAMS),
}


@pytest.mark.parametrize("run", _LOCKED_RUNS.values(), ids=_LOCKED_RUNS)
def test_samplers_keep_the_lock_rule(run, monkeypatch):
    # the uniform stage and every step run under the run's lock, and ndtri
    # outside it; each lock is a run's, so a thread holding none of them
    # holds no run's lock
    monkeypatch.setenv("LDP_OSC_THREADS", "2")
    locks = []
    calls = {"uniforms": 0, "ndtri": 0, "step": 0}

    class Shared(sim._Shared):
        def __init__(self, *args):
            super().__init__(*args)
            self.lock = _OwnedLock()
            locks.append(self.lock)

    def held():
        return any(lock.held() for lock in locks)

    def checked(name, fn, locked):
        def check(*args, **kwargs):
            assert held() == locked, \
                f"{name} ran with the run lock {'free' if locked else 'held'}"
            calls[name] += 1
            return fn(*args, **kwargs)
        return check

    monkeypatch.setattr(sim, "_Shared", Shared)
    monkeypatch.setattr(rng, "_fill_uniforms",
                        checked("uniforms", rng._fill_uniforms, True))
    monkeypatch.setattr(rng, "ndtri", checked("ndtri", rng.ndtri, False))
    monkeypatch.setattr(sim._Paths, "step",
                        checked("step", sim._Paths.step, True))
    run()
    assert locks and min(calls.values()) > 0, calls


# multi-block runs: more workers than cores and a short switch interval
# interleave the blocks as much as possible
_INTERLEAVED = [GOLDEN_STDOUT[0][0], GOLDEN_STDOUT[8][0], GOLDEN_STDOUT[9][0]]


@pytest.mark.parametrize("command", _INTERLEAVED)
def test_interleaved_blocks_print_the_one_worker_bytes(command, capsys,
                                                       monkeypatch):
    # the run's shared buffers are touched only under its lock, so no
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
    # mix64's second scratch is the chunk's own memory, and its first is the
    # caller's
    paths = 4096
    chunk_bytes = rows // per_step * per_step * paths * 8

    def run():
        for _ in _step_normals(0, 0, paths, 64, per_step, rows):
            pass

    run()  # warm caches outside the measurement
    assert _peak_bytes(run) <= 2 * chunk_bytes + 64 * 1024


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_holds_one_shared_set_and_per_block_a_chunk_and_a_few_rows(
        threads, monkeypatch):
    # the run's blocks share one set of the buffers that only the lock's
    # holder touches: mix64's uint64 scratch for a chunk, the step scratch
    # (2) and the noise pair (2). Past that, a running block holds its chunk
    # and a few rows: the state (2), the running sum and the stream keys (2),
    # with 4 to spare for its results and numpy's temporaries. One block
    # runs per worker
    monkeypatch.setenv("LDP_OSC_THREADS", threads)
    workers, row = int(threads), sim.BLOCK * 8
    config = SimConfig(get_method("beta:0.5"), 0.1, 64, workers * sim.BLOCK,
                       seed=1, params=PARAMS)

    def run():
        sim.simulate_summary(config)

    run()  # warm caches outside the measurement
    shared = (CHUNK_ROWS + 4) * row
    assert _peak_bytes(run) <= shared + workers * (CHUNK_ROWS + 8) * row


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

    def counting(keys, start, out, bits, lock):
        draws.append(out.size)
        return fill_normals(keys, start, out, bits, lock)

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
