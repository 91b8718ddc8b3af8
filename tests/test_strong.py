"""Tests for the exact mean-square error law and the order fit of `msq`."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ldp_osc import cli, strong
from ldp_osc.methods import catalog, evaluate, get_method
from ldp_osc.oscillator import OscillatorParams
from ldp_osc.strong import (
    MIN_STEP,
    MsqReport,
    fit_loglog_slope,
    mean_square_errors,
    msq_order,
    rotation,
    step_noise_covariance,
)

PARAMS = OscillatorParams(alpha=1.0, x0=0.3, y0=-0.2)


def test_rotation_matrix():
    R = np.array(rotation(0.3))
    npt.assert_allclose(R @ R.T, np.eye(2), atol=1e-15)
    npt.assert_allclose(np.array(rotation(0.2)) @ np.array(rotation(0.1)), R,
                        atol=1e-15)


def test_step_noise_covariance_against_quadrature():
    # the kernels of dW, I1 and I2 - dW
    delta = 0.7
    s = np.linspace(0.0, delta, 200_001)
    kernels = np.vstack([np.ones_like(s), np.sin(delta - s),
                         np.cos(delta - s) - 1.0])
    expected = np.trapezoid(kernels[:, None, :] * kernels[None, :, :], s, axis=2)
    npt.assert_allclose(step_noise_covariance(delta), expected, atol=1e-10)


def test_step_noise_covariance_is_within_a_few_ulp_of_50_digits():
    # no entry cancels at small steps: at MIN_STEP the direct forms of Var I1,
    # Var (I2 - dW) and 1 - cos(delta) are 0.0; the steps around delta = 1
    # and 2 straddle the switches from the series to the direct forms
    deltas = np.geomspace(MIN_STEP, 3.0, 301).tolist() \
        + [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
           math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]
    worst = 0.0
    with mpmath.workdps(50):
        for delta in deltas:
            d = mpmath.mpf(delta)
            s, c, s2 = mpmath.sin(d), mpmath.cos(d), mpmath.sin(2 * d)
            exact = [[d, 1 - c, s - d],
                     [1 - c, d / 2 - s2 / 4, s * s / 2 - (1 - c)],
                     [s - d, s * s / 2 - (1 - c),
                      3 * d / 2 - 2 * s + s2 / 4]]
            got = step_noise_covariance(delta)
            for i in range(3):
                for j in range(3):
                    want = exact[i][j]
                    error = abs(mpmath.mpf(got[i][j]) - want)
                    worst = max(worst, float(error) / math.ulp(float(want)))
    assert worst <= 4


# (h, N) and the relative bound on every E|e_n|^2 against 50 digits
_PRECISION_POINTS = [(0.00625, 160, 1e-12), (1e-3, 1000, 1e-12),
                     (1e-4, 3000, 1e-12), (MIN_STEP, 100, 1e-12)]


@pytest.mark.parametrize("h, steps, bound", _PRECISION_POINTS)
@pytest.mark.parametrize("name", ["em", "beta:0.5", "ex"])
def test_error_law_is_within_its_budget_of_50_digits(name, h, steps, bound):
    # the reference steps (z, Z) in mpmath and shares no code with the law
    A, b = evaluate(get_method(name), h)
    got = list(mean_square_errors(A, b, h, steps, PARAMS))
    want = oracles.mean_square_errors_mp50(A, b, h, steps, PARAMS)
    assert len(got) == len(want) == steps
    worst = max(abs(float((mpmath.mpf(g) - w) / w)) for g, w in zip(got, want))
    assert worst <= bound


@pytest.mark.parametrize("h", np.geomspace(MIN_STEP, 1.9, 25).tolist())
def test_error_law_of_every_method_is_near_50_digits_at_each_step_size(h):
    # 100 steps of every catalog method admissible at h: the noise and
    # A - R keep their digits from MIN_STEP, where their direct forms
    # cancel to nothing, up to steps of order one, where the error grows
    # to thousands
    worst, names = 0.0, []
    for method in catalog():
        try:
            A, b = evaluate(method, h)
        except ValueError:
            continue
        names.append(method.name)
        got = mean_square_errors(A, b, h, 100, PARAMS)
        want = oracles.mean_square_errors_mp50(A, b, h, 100, PARAMS)
        worst = max(worst, *(abs(float((mpmath.mpf(g) - w) / w))
                             for g, w in zip(got, want)))
    assert {"beta:0.5", "ex", "opt"} <= set(names)
    assert worst <= 1e-13


def _hex_until_not_finite(values):
    """float.hex of each value up to the first one that is not finite, which
    ends the list as "not finite": msq reads inf and nan alike."""
    out = []
    for value in values:
        if not math.isfinite(value):
            return out + ["not finite"]
        out.append(value.hex())
    return out


@pytest.mark.parametrize("h", [0.5, 0.1, 1e-3, 1e-5, MIN_STEP])
def test_error_law_is_the_4x4_recursion_bit_for_bit(h):
    # the scalar step leaves out only the products by zero blocks, which add
    # nothing but signed zeros to a sum
    names = []
    for method in catalog():
        try:
            A, b = evaluate(method, h)
        except ValueError:
            continue
        names.append(method.name)
        got = [v.hex() for v in mean_square_errors(A, b, h, 200, PARAMS)]
        want = oracles.mean_square_errors_4x4(A, b, h, 200, PARAMS)
        assert got == [v.hex() for v in want], method.name
    assert {"em", "beta:0.5", "ex", "opt"} <= set(names)


_ENTRY = st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_ENTRY, min_size=6, max_size=6), st.floats(MIN_STEP, 2.5),
       st.floats(1e-150, 1e150), st.floats(-1e150, 1e150),
       st.floats(-1e150, 1e150))
def test_error_law_is_the_4x4_recursion_for_any_finite_inputs(entries, h,
                                                              alpha, x0, y0):
    A, b = (entries[0:2], entries[2:4]), entries[4:6]
    params = OscillatorParams(alpha=alpha, x0=x0, y0=y0)
    got = mean_square_errors(A, b, h, 60, params)
    want = oracles.mean_square_errors_4x4(A, b, h, 60, params)
    assert _hex_until_not_finite(got) == _hex_until_not_finite(want)


def test_a_diverging_law_is_the_4x4_recursion_until_it_overflows(monkeypatch):
    # det A = 1 + h^2 for em: the law overflows after about 3000 steps of 0.5
    A, b = evaluate(get_method("em"), 0.5)
    got = _hex_until_not_finite(mean_square_errors(A, b, 0.5, 4000, PARAMS))
    assert 1000 < len(got) < 4000 and got[-1] == "not finite"
    assert got == _hex_until_not_finite(
        oracles.mean_square_errors_4x4(A, b, 0.5, 4000, PARAMS))

    def refusal():
        with pytest.raises(ValueError) as info:
            msq_order(get_method("em"), [0.5, 0.25], T0=2000.0, params=PARAMS)
        return str(info.value)

    message = refusal()
    monkeypatch.setattr(strong, "mean_square_errors",
                        oracles.mean_square_errors_4x4)
    assert refusal() == message == ("em: the strong error at h = 0.5 is not "
                                    "finite; the method diverges")


def test_error_law_folds_alpha_into_the_noise_rows():
    # the mean of e does not depend on alpha and its covariance not on the
    # start, so E|e_n|^2 is a bias from (x0, y0) plus alpha^2 times a noise
    # term
    A, b = evaluate(get_method("beta:0.5"), 0.05)

    def law(alpha, x0=0.0, y0=0.0):
        return np.array(list(mean_square_errors(
            A, b, 0.05, 40, OscillatorParams(alpha=alpha, x0=x0, y0=y0))))

    noise = law(1.0)
    bias = law(1.0, 0.3, -0.2) - noise
    for alpha in (0.7, 2.0):
        npt.assert_allclose(law(alpha), alpha * alpha * noise, rtol=1e-14)
        npt.assert_allclose(law(alpha, 0.3, -0.2),
                            bias + alpha * alpha * noise, rtol=1e-14)


@pytest.mark.parametrize("h", [0.1, 0.025])
@pytest.mark.parametrize("name", ["em", "beta:0.5", "ex", "opt"])
def test_sampled_errors_match_the_law_at_every_grid_point(name, h):
    # the exact solution and the method sampled on one Brownian path: the
    # mean of |e_n|^2 over the paths is within 4 standard errors of the law
    steps = round(1.0 / h)
    A, b = evaluate(get_method(name), h)
    law = np.array(list(mean_square_errors(A, b, h, steps, PARAMS)))
    mean, error = oracles.sampled_mean_square_errors(A, b, h, steps, 40_000,
                                                     PARAMS, seed=0)
    assert (np.abs(mean - law) <= 4.0 * error).all(), \
        np.max(np.abs(mean - law) / error)


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
    em = msq_order(get_method("em"), hs, T0=1.0, params=PARAMS)
    assert isinstance(em, MsqReport)
    assert 0.85 <= em.slope <= 1.6
    assert all(a > b for a, b in zip(em.errors, em.errors[1:]))

    ex = msq_order(get_method("ex"), hs, T0=1.0, params=PARAMS)
    assert ex.slope >= 0.85


def test_msq_error_is_the_root_of_the_largest_grid_value():
    h = 0.05
    A, b = evaluate(get_method("beta:0.5"), h)
    report = msq_order(get_method("beta:0.5"), [0.1, h], params=PARAMS)
    assert report.errors[1] == math.sqrt(max(mean_square_errors(
        A, b, h, 20, PARAMS)))


def test_msq_order_warns_on_fractional_step_count():
    with pytest.warns(UserWarning, match="not an integer"):
        report = msq_order(get_method("ex"), [0.3, 0.15], T0=1.0,
                           params=PARAMS)
    # the step counts that ran: 1/0.3 rounds to 3, 1/0.15 to 7, and the
    # steps that ran, which share the horizon 1
    assert report.steps == (3, 7)
    assert report.h_values == (1.0 / 3, 1.0 / 7)


def test_msq_order_runs_every_step_size_over_the_horizon():
    # 0.95/0.1 rounds to 9 steps and 0.95/0.05 to 19: each runs its steps of
    # 0.95/steps, the same steps a sweep given those steps runs
    with pytest.warns(UserWarning, match="comparing over 9 steps of 0.105556"):
        report = msq_order(get_method("beta:0.5"), [0.1, 0.05], T0=0.95,
                           params=PARAMS)
    assert report.steps == (9, 19)
    assert report.h_values == (0.95 / 9, 0.95 / 19)
    again = msq_order(get_method("beta:0.5"), report.h_values, T0=0.95,
                      params=PARAMS)
    assert again == report


def _no_law(monkeypatch):
    def no_law(*args):
        raise AssertionError("an error law ran")
    monkeypatch.setattr(strong, "mean_square_errors", no_law)


def test_msq_order_rejects_step_sizes_with_one_step_count(monkeypatch):
    _no_law(monkeypatch)
    with pytest.raises(ValueError, match="h = 0.32 and h = 0.3 both give 3 "
                       "steps over T0 = 1"), pytest.warns(UserWarning):
        msq_order(get_method("em"), [0.32, 0.3, 0.1])


def test_msq_order_guards():
    with pytest.raises(ValueError):
        msq_order(get_method("ex"), [0.1], T0=1.0)
    with pytest.raises(ValueError):
        msq_order(get_method("ex"), [0.1, 0.2], T0=1.0)
    with pytest.raises(ValueError):
        msq_order(get_method("ex"), [3.0, 1.5], T0=1.0)
    with pytest.raises(ValueError, match="below 1e-08"):
        msq_order(get_method("em"), [2e-9, 1e-9], T0=1e-7)


@pytest.mark.parametrize("T0", [math.inf, math.nan, 0.0, -1.0])
def test_msq_order_rejects_bad_horizons_before_running(T0, monkeypatch):
    _no_law(monkeypatch)
    with pytest.raises(ValueError, match="T0 must be a finite positive horizon"):
        msq_order(get_method("em"), [0.1, 0.05], T0=T0)


def test_msq_step_counts_are_bounded_before_running(monkeypatch):
    _no_law(monkeypatch)
    # 1e10 + 2e10 steps at h = 0.1 and 0.05
    with pytest.raises(ValueError, match="the sweep needs 30000000000 steps "
                       "over T0 = 1e[+]09; msq takes at most 1e[+]07 in all"):
        msq_order(get_method("em"), [0.1, 0.05], T0=1e9)
    # the budget bounds the sum, even when each step size is within it
    with pytest.raises(ValueError, match="needs 12000000 steps over "
                       "T0 = 400000; msq takes at most 1e[+]07 in all"):
        msq_order(get_method("em"), [0.1, 0.05], T0=4e5)
    # a ratio that overflows is past the budget, not an OverflowError
    with pytest.raises(ValueError, match="needs inf steps"):
        msq_order(get_method("em"), [1e-100, 5e-101], T0=1e300)
    # 2e6 + 8e6 steps: the budget itself is accepted
    with pytest.raises(AssertionError, match="an error law ran"):
        msq_order(get_method("em"), [0.1, 0.025], T0=2e5)


def test_msq_names_an_error_that_overflows(monkeypatch):
    # each grid value is finite until one overflows to inf
    def overflowing(A, b, h, steps, params):
        yield 1.0
        yield math.inf
        yield math.nan

    monkeypatch.setattr(strong, "mean_square_errors", overflowing)
    with pytest.raises(ValueError, match="em: the strong error at h = 0.2 is "
                       "not finite; the method diverges"):
        msq_order(get_method("em"), [0.2, 0.1])


def test_msq_error_does_not_depend_on_the_sweep():
    def errors(hs):
        report = msq_order(get_method("beta:0.5"), hs, T0=1.0, params=PARAMS)
        return dict(zip(report.h_values, report.errors))

    whole = errors([0.2, 0.1, 0.05, 0.025])
    assert errors([0.2, 0.1]) == {h: whole[h] for h in (0.2, 0.1)}
    assert errors([0.05, 0.025]) == {h: whole[h] for h in (0.05, 0.025)}


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_msq_memory_does_not_grow_with_step_count():
    def peak(hs):
        return _peak_bytes(lambda: msq_order(get_method("em"), hs, T0=1.0,
                                             params=PARAMS))

    peak([0.2, 0.1])  # warm caches outside the measurement
    assert peak([0.001, 0.0005]) - peak([0.2, 0.1]) <= 16 * 1024


def test_msq_memory_does_not_grow_with_sweep_points():
    # each step size keeps its step, step count and error, and its law is
    # reduced to the largest grid value as it runs
    def peak(points):
        hs = [1.0 / steps for steps in range(2, 2 + points)]
        return _peak_bytes(lambda: msq_order(get_method("em"), hs, T0=1.0,
                                             params=PARAMS))

    peak(5)  # warm caches outside the measurement
    assert peak(12) - peak(5) <= 16 * 1024


def test_only_msq_loads_the_error_law():
    # prob, rates and simulate never load it, and msq loads no numpy and
    # nothing of the package but what it runs
    script = ("import json, sys, ldp_osc.cli\n"
              "seen = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    code = ldp_osc.cli.main(argv)\n"
              "    seen.append([code, 'ldp_osc.strong' in sys.modules,\n"
              "                 'numpy' in sys.modules])\n"
              "print(json.dumps(seen))\n")
    argvs = [["prob", "--method", "em", "--h", "0.1", "--N", "10",
              "--interval", "0.9:1.1"],
             ["rates", "--method", "beta:0.5", "--h", "0.5"],
             ["msq", "--method", "em", "--h", "0.1"],
             ["simulate", "--method", "em", "--h", "0.1", "--N", "10",
              "--samples", "10"]]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [0, False, False], [0, False, False], [0, True, False],
        [0, True, True]]
    proc = subprocess.run([sys.executable, "-c", script,
                           json.dumps([argvs[3]])],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False, True]]
    # msq compiles only what it runs: neither the laws nor ldp
    script = ("import json, sys, ldp_osc.cli\n"
              "code = ldp_osc.cli.main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.startswith('ldp_osc'))]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs[2])],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, [
        "ldp_osc", "ldp_osc.cli", "ldp_osc.methods", "ldp_osc.oscillator",
        "ldp_osc.strong"]]


@pytest.mark.parametrize("flags", [["--samples", "3000"], ["--seed", "4"],
                                   ["--samples", "0", "--seed", "-1"],
                                   ["--samples", "-5"]])
def test_msq_ignores_samples_and_seed_with_a_note(flags, capsys):
    # scripts may still pass them: stdout is the same bytes, and stderr
    # carries one note, which a run without them does not print
    argv = ["msq", "--method", "beta:0.5", "--h", "0.1"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert cli.main(argv + flags) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain.out
    assert flagged.err == ("note: msq computes the exact mean-square error "
                           "law; it ignores --samples and --seed\n")


# SHA-256 of the stdout of msq runs, recorded when msq came to compute the
# exact law of its error in place of a Monte Carlo estimate
GOLDEN_STDOUT = [
    ("msq --method em --h 0.1",
     "b40451f902e73d0fd3bb96e2c1396a78608b34c869c1286106c1dd26887f930a"),
    ("msq --method beta:0.5 --h 0.1",
     "1a68a3dced816c943e748548c2a4373dd30d906ce2b1596c30b21352f167162c"),
    ("msq --method beta:0.5 --h 0.1 --format json",
     "e2585149a33a80553e065349fec30673f4a9dca560549d853c0de4675db29929"),
    ("msq --method ex --h-sweep 0.02:0.2:4 --x0 0.3 --y0 -0.2 --alpha 0.7 "
     "--format json",
     "99041d4c6926c39b2a180ddd78bf76fe18f998af67e2139e2c9730bfc39216e4"),
    ("msq --method beta:0.5 --h-sweep 0.02:0.2:4 --x0 0.3 --y0 -0.2 "
     "--alpha 0.7 --format json",
     "937b83e87007d10b1dd1adbc0ee41a2b560484418bf4c52ce210b085be9b3d6a"),
]


@pytest.mark.parametrize("command, digest", GOLDEN_STDOUT)
def test_msq_stdout_matches_golden_digest(command, digest, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
