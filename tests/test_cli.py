"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldp_osc import cli
from oracles import parse_csv


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_all_methods(capsys):
    code, out, err = run_cli(["catalog"], capsys)
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert len(rows) == 16
    names = [row["name"] for row in rows]
    assert names[0] == "em"
    assert "beta:0.5" in names
    assert "m6" in names


def test_catalog_json_schema(capsys):
    code, out, _ = run_cli(["catalog", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "ldp-osc/1"
    assert payload["command"] == "catalog"
    assert len(payload["rows"]) == 16


def test_rates_midpoint_position(capsys):
    code, out, _ = run_cli(
        ["rates", "--method", "beta:0.5", "--observable", "mean-position",
         "--h", "0.5"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 7
    for row in rows:
        assert float(row["modified_coefficient"]) == pytest.approx(1.0 / 3.0,
                                                                   rel=1e-10)
        assert row["regime"] == "volume-preserving"
    assert "# verdict: ExactlyPreserves\n# proof: proved\n" in out


def test_rates_exact_velocity(capsys):
    code, out, _ = run_cli(
        ["rates", "--method", "ex", "--observable", "mean-velocity",
         "--h", "0.5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ExactlyPreserves"
    assert payload["symbolic"] is True
    assert payload["proof"] == "proved"
    for row in payload["rows"]:
        assert row["modified_coefficient"] == pytest.approx(1.0, rel=1e-10)


def test_rates_contractive_method_does_not_preserve(capsys):
    code, out, _ = run_cli(
        ["rates", "--method", "theta:1", "--observable", "mean-position",
         "--h", "0.5"], capsys)
    assert code == 0
    rows = parse_csv(out)
    for row in rows:
        assert float(row["modified_coefficient"]) == pytest.approx(0.5, rel=1e-10)
        assert row["regime"] == "contractive"
    assert "# verdict: DoesNotPreserve\n" in out
    assert "# proof:" not in out  # no proof is attempted for a nonzero gap


def test_rates_reports_a_declined_proof(tmp_path, capsys):
    path = tmp_path / "squared-argument.method"
    path.write_text(
        "a11 = cos(h)\na12 = sin(h)\na21 = -sin(h)\na22 = cos(h)\n"
        "b1 = 0\nb2 = cos(h^2)^2 + sin(h^2)^2\n", encoding="utf-8")
    argv = ["rates", "--method", str(path), "--observable", "mean-velocity",
            "--h", "0.5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert ("# verdict: ExactlyPreserves(numeric)\n# proof: declined: trig "
            "argument h**2 is not a rational multiple of h\n") in out
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["symbolic"] is False
    assert payload["proof"].startswith("declined: trig argument h**2")


def test_rates_refuted_identity_is_not_exact(tmp_path, capsys):
    # the gap is ~1e-12 on the sweep, below the exactness tolerance, but the
    # proof shows it is not zero, so the verdict comes from the sweep test;
    # which of the two inexact verdicts that test gives here rests on gaps
    # at roundoff level, so only the absence of an exact verdict is pinned
    path = tmp_path / "near-rotation.method"
    path.write_text(
        "a11 = cos(h)\na12 = sin(h)\na21 = -sin(h)\na22 = cos(h)\n"
        "b1 = 0\nb2 = 1 + 1e-12*h\n", encoding="utf-8")
    argv = ["rates", "--method", str(path), "--observable", "mean-velocity",
            "--h", "0.5", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["proof"] == "refuted"
    assert payload["symbolic"] is False
    assert payload["verdict"] in ("AsymptoticallyPreserves", "DoesNotPreserve")
    assert all(row["gap"] <= 1e-10 for row in payload["rows"])
    code, out, _ = run_cli(argv[:-2], capsys)
    assert f"# verdict: {payload['verdict']}\n# proof: refuted\n" in out


def test_rates_diverging_method_has_no_result(capsys):
    code, out, err = run_cli(
        ["rates", "--method", "em", "--observable", "mean-position",
         "--h", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert "no applicable result" in err


def test_prob_diverging_powers_have_no_result(capsys):
    # det(A) = 1.01: the moments overflow float64 between N = 1e4 and 1e5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["prob", "--method", "em", "--h", "0.1",
             "--N-sweep", "1000:1000000:4", "--interval", "0.9:1.1"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("no applicable result: moments overflow float64 at "
                   "N = 100000 with det(A) = 1.01: the matrix powers diverge\n")
    assert caught == []
    # before the powers overflow, the law is printed without a rate prediction
    code, out, err = run_cli(
        ["prob", "--method", "em", "--h", "0.1", "--N", "10",
         "--interval", "0.9:1.1"], capsys)
    assert (code, err) == (0, "")
    assert parse_csv(out)[0]["predicted"] == "nan"
    assert out.endswith("\n# no decay-rate prediction: em at h = 0.1: det = "
                        "1.01 > 1, powers of the update matrix diverge and no "
                        "exponential decay rate exists\n")


def test_usage_errors_exit_1(capsys):
    assert run_cli(["rates", "--method", "no-such", "--h", "0.5"], capsys)[0] == 1
    assert run_cli(["rates", "--h", "0.5"], capsys)[0] == 1
    assert run_cli(["rates", "--method", "ex", "--h-sweep", "1:0.1:5"],
                   capsys)[0] == 1
    assert run_cli(["prob", "--method", "ex", "--h", "0.5", "--N", "10",
                    "--interval", "2:1"], capsys)[0] == 1
    assert run_cli([], capsys)[0] == 1
    assert run_cli(["frobnicate"], capsys)[0] == 1
    prob = ["prob", "--method", "ex", "--h", "0.5"]
    for argv, message in [
        (["rates", "--method", "ex", "--h", "0"], "--h must be positive, got 0.0"),
        (["conditions", "--method", "ex", "--h", "0"],
         "--h must be positive, got 0.0"),
        (["msq", "--method", "ex", "--h", "0"], "--h must be positive, got 0.0"),
        (prob + ["--N", "0", "--interval", "0:1"], "--N must be >= 1, got 0"),
        (prob + ["--interval", "0:1"], "provide --N or --N-sweep"),
        (prob[:-1] + ["0", "--N", "10", "--interval", "0:1"],
         "provide a positive --h"),
        (prob + ["--N", "10", "--interval", "0:1:2"],
         "--interval must have 2 colon-separated fields, got '0:1:2'"),
        (prob + ["--N", "10", "--interval", "a:1"],
         "bad number in --interval 'a:1'"),
        (prob + ["--N", "10", "--interval", "-x:1"],
         "bad number in --interval '-x:1'"),
        (["rates", "--method", "beta:0.5"], "provide --h or --h-sweep"),
        (["rates", "--method", "ex", "--h-sweep", "0.1:1:2.9"],
         "--h-sweep needs 0 < lo < hi < inf and an integer 2 <= n <= 1000, "
         "got '0.1:1:2.9'"),
        (prob + ["--N-sweep", "10:100:2.5", "--interval", "0:1"],
         "--N-sweep needs 1 <= lo < hi < inf and an integer 2 <= n <= 1000, "
         "got '10:100:2.5'"),
        (["rates", "--method", "ex", "--h", "0.5", "--h-sweep", "0.1:1:3"],
         "give --h or --h-sweep, not both"),
        (["msq", "--method", "ex", "--h", "0.5", "--h-sweep", "0.1:1:3"],
         "give --h or --h-sweep, not both"),
        (prob + ["--N", "10", "--N-sweep", "10:100:3", "--interval", "0:1"],
         "give --N or --N-sweep, not both"),
    ]:
        assert run_cli(argv, capsys) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("interval", ["-inf:0", "-1.1:-0.9", "-0.5:0.5"])
def test_negative_interval_bound_after_a_space(interval, capsys):
    prob = ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "100"]
    spaced = run_cli(prob + ["--interval", interval], capsys)
    assert spaced == run_cli(prob + [f"--interval={interval}"], capsys)
    assert spaced[0] == 0


def test_prob_midpoint_rate_column(capsys):
    code, out, _ = run_cli(
        ["prob", "--method", "beta:0.5", "--observable", "mean-position",
         "--h", "0.1", "--N-sweep", "100:100000:4", "--interval", "0.9:1.1"],
        capsys)
    assert code == 0
    rows = parse_csv(out)
    rates = [float(row["rate"]) for row in rows]
    assert rates == pytest.approx([0.046635, 0.029764, 0.027410, 0.027056],
                                  rel=1e-4)
    for row in rows:
        assert float(row["predicted"]) == pytest.approx(0.027, rel=1e-3)


def test_prob_degenerate_velocity_rate(capsys):
    code, out, _ = run_cli(
        ["prob", "--method", "theta:1", "--observable", "mean-velocity",
         "--h", "0.5", "--N-sweep", "10:10000:4", "--interval", "0.5:inf"],
        capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [row["predicted"] for row in rows] == ["inf"] * 4
    rates = [float(row["rate"]) for row in rows]
    assert all(a < b for a, b in zip(rates, rates[1:]))

    code, out, _ = run_cli(
        ["prob", "--method", "theta:1", "--observable", "mean-velocity",
         "--h", "0.5", "--N", "100", "--interval", "0.5:inf",
         "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["rows"][0]["predicted"] == "inf"


def test_msq_reports_slope(capsys):
    code, out, _ = run_cli(
        ["msq", "--method", "em", "--h", "0.1", "--samples", "500"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    errors = [float(row["error"]) for row in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    slope_line = [line for line in out.splitlines()
                  if "mean-square order" in line]
    assert len(slope_line) == 1
    assert float(slope_line[0].rsplit(" ", 1)[1]) > 0.8


def test_msq_warnings_print_message_lines(capsys):
    code, out, err = run_cli(
        ["msq", "--method", "beta:0.5", "--h-sweep", "0.02:0.2:4",
         "--samples", "200"], capsys)
    assert code == 0
    assert len(parse_csv(out)) == 4
    assert err == (
        "warning: T0/h = 10.772173450159416 is not an integer; comparing over "
        "11 steps of 0.0909091\n"
        "warning: T0/h = 23.207944168063886 is not an integer; comparing over "
        "23 steps of 0.0434783\n")


def test_msq_warning_prints_the_ratio_that_was_rounded(capsys):
    # 0.95 / 0.1 is 9.499999999999998 in float64, so 9 steps run; six
    # significant digits would print 9.5
    code, out, err = run_cli(
        ["msq", "--method", "beta:0.5", "--h", "0.1", "--T0", "0.95",
         "--samples", "20"], capsys)
    assert code == 0
    assert err.startswith("warning: T0/h = 9.499999999999998 is not an "
                          "integer; comparing over 9 steps of 0.105556\n")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_msq_rejects_bad_sample_counts(samples, capsys):
    code, out, err = run_cli(
        ["msq", "--method", "em", "--h", "0.1", "--samples", samples], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: need at least one sample, got {samples}\n"


@pytest.mark.parametrize("T0", ["inf", "nan"])
def test_msq_rejects_bad_horizons(T0, capsys):
    code, out, err = run_cli(
        ["msq", "--method", "em", "--h", "0.1", "--T0", T0, "--samples", "10"],
        capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: T0 must be a finite positive horizon, got {T0}\n"


def test_msq_names_a_diverging_method(tmp_path, capsys):
    # powers of 1e100 overflow to inf within a few steps, then inf - inf is nan
    path = _method_path(tmp_path, "name = blowup\na11 = 1e100\na12 = 0\n"
                        "a21 = 0\na22 = 1e100\nb1 = 1\nb2 = 1\n")
    assert run_cli(["msq", "--method", path, "--h", "0.1", "--samples", "100"],
                   capsys) == (1, "", "error: blowup: the strong error at h = "
                               "0.1 is not finite; the method diverges\n")


@pytest.mark.parametrize("option,value", [("--alpha", "inf"), ("--x0", "nan"),
                                          ("--y0", "inf")])
def test_nonfinite_oscillator_parameters_are_input_errors(option, value,
                                                          capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise
        code, out, err = run_cli(
            ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "10",
             "--interval", "0.9:1.1", option, value], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {option[2:]} must be finite, got {value}\n"


@pytest.mark.parametrize("command", [
    ["rates", "--method", "beta:0.5", "--h", "0.1"],
    ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "10", "--interval",
     "0.9:1.1"],
])
@pytest.mark.parametrize("alpha", ["1e200", "1e-200"])
def test_alpha_beyond_the_float_range_is_an_input_error(command, alpha,
                                                        capsys):
    # alpha^2 would overflow, or 1/(3 alpha^2) would
    code, out, err = run_cli(command + ["--alpha", alpha], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: alpha^2 and 1/(3 alpha^2) must be finite normal "
                   f"floats, got alpha = {float(alpha)}\n")


@pytest.mark.parametrize("option", ["--x0", "--y0"])
def test_rates_take_no_initial_state(option, capsys):
    # decay rates and verdicts do not depend on where the paths start
    code, out, err = run_cli(["rates", "--method", "ex", "--h", "0.5", option,
                              "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: ldp-osc: unrecognized arguments: {option} 1\n"


def test_huge_initial_state_is_an_input_error(capsys):
    # the midpoint rule's powers stay bounded; the state itself overflows
    code, out, err = run_cli(
        ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "10",
         "--interval", "0.9:1.1", "--x0", "1e308"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: the mean overflows float64 at N = 10: the initial "
                   "state x0 = 1e+308, y0 = 0 is too large\n")


@pytest.mark.parametrize("command", ["conditions", "rates", "msq"])
@pytest.mark.parametrize("steps", [["--h", "1e-200"], ["--h", "5e-324"],
                                   ["--h-sweep", "1e-160:0.1:3"]])
def test_steps_whose_square_is_subnormal_are_input_errors(command, steps,
                                                          capsys):
    # conditions divides by h^2, and 5e-324 halves to 0: every command
    # refuses such a sweep with the same usage error
    code, out, err = run_cli([command, "--method", "ex", *steps], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the finest step ")
    assert err.endswith(" is too small: h^2 must be a normal float\n")


def test_h_sweep_is_numpy_geomspace_on_the_golden_sweeps():
    import numpy as np
    for sweep in ("0.5:4:5", "2:4:2", "0.02:0.2:4"):
        args = cli._build_parser().parse_args(
            ["rates", "--method", "ex", "--h-sweep", sweep])
        lo, hi, n = map(float, sweep.split(":"))
        expected = np.geomspace(hi, lo, int(n)).tolist()
        assert cli._h_values(args, cli.VERDICT_SWEEP_POINTS) == expected


def test_N_sweep_is_numpy_geomspace_rounded():
    # the last bit of numpy's vectorized log10 and power can differ from
    # libm's, so only the rounded step counts are compared
    import numpy as np
    grids = ["100:10000000:6", "10:10000:4", "1:1000000000:7", "10:1e30:3",
             *(f"{lo}:{hi}:{n}" for lo in (1, 3, 17, 100) for hi in
               (1000, 123456, 10 ** 9) for n in (2, 5, 9, 33, 1000))]
    for grid in grids:
        args = cli._build_parser().parse_args(
            ["prob", "--method", "ex", "--h", "0.5", "--interval", "0:1",
             "--N-sweep", grid])
        lo, hi, n = map(float, grid.split(":"))
        expected = sorted({round(float(v))
                           for v in np.geomspace(lo, hi, int(n))})
        assert cli._n_values(args) == expected, grid


def test_N_sweep_values_are_python_ints():
    args = cli._build_parser().parse_args(
        ["prob", "--method", "ex", "--h", "0.5", "--interval", "0:1",
         "--N-sweep", "10:1e30:3"])
    values = cli._n_values(args)
    assert [type(v) for v in values] == [int, int, int]
    # exact conversions of the float grid, where an int64 cast would wrap
    assert values == [10, 3162277660168380, int(1e30)]


def test_shared_parser_leaks_no_state(capsys, monkeypatch):
    session = [
        ["rates", "--h", "0.5"],  # usage error: --method is required
        ["rates", "--method", "m2", "--h", "0.5", "--format", "json"],
        ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "100",
         "--interval", "0.9:1.1"],
        ["search", "--observable", "mean-velocity"],
        ["catalog"],
        ["rates", "--h", "0.5"],
        ["rates", "--method", "m2", "--h", "0.5"],  # CSV after the JSON run
    ]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        alone = [run_cli(argv, capsys) for argv in session]
    assert alone[0][0] == 1 and alone[-1][1] != alone[1][1]

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.__wrapped__()
    per_build = len(built)
    assert per_build == 8  # the top-level parser and its 7 subcommands
    del built[:]
    cli._build_parser.cache_clear()
    assert [run_cli(argv, capsys) for argv in session] == alone
    assert len(built) == per_build


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import ldp_osc.cli\n"
        "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0"]


@pytest.mark.parametrize("steps", [["--N", "1000000000000000000"],
                                   ["--N-sweep", "10:1e30:3"]])
def test_N_beyond_the_law_limit_is_an_input_error(steps, capsys):
    code, out, err = run_cli(
        ["prob", "--method", "beta:0.5", "--h", "0.1", "--interval",
         "0.9:1.1"] + steps, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: running-sum law needs N <= 1e+09")
    assert "warning" not in err


@pytest.mark.parametrize("argv", [
    ["rates", "--method", "ex", "--h-sweep"],
    ["msq", "--method", "em", "--h-sweep"],
    ["prob", "--method", "ex", "--h", "0.5", "--interval", "0:1",
     "--N-sweep"],
])
@pytest.mark.parametrize("points", [cli.MAX_SWEEP_POINTS + 1, 1e9, "inf",
                                    "nan"])
def test_sweep_point_counts_are_capped(argv, points, capsys):
    grid = f"0.01:1:{points}" if argv[-1] == "--h-sweep" else f"1:10:{points}"
    code, out, err = run_cli(argv + [grid], capsys)
    assert code == 1
    assert out == ""
    assert f"2 <= n <= {cli.MAX_SWEEP_POINTS}" in err


def _out_under(argv, directory):
    """argv with the path after --out moved under directory."""
    at = argv.index("--out") + 1
    return argv[:at] + [str(directory / argv[at])] + argv[at + 1:]


def _readme_commands():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("ldp-osc ")]


def test_readme_lists_eight_cli_examples():
    assert [argv[0] for argv in _readme_commands()] == [
        "catalog", "conditions", "rates", "rates", "prob", "msq", "simulate",
        "search"]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, capsys):
    if "--out" in argv:
        argv = _out_under(argv, tmp_path)
    else:
        argv = argv + ["--out", str(tmp_path / "report")]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert any(tmp_path.iterdir())


def test_simulate_reports_law_columns(capsys):
    code, out, _ = run_cli(
        ["simulate", "--method", "beta:0.5", "--h", "0.1", "--N", "100",
         "--samples", "4000", "--seed", "1"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [row["observable"] for row in rows] == ["mean-position",
                                                   "mean-velocity"]
    for row in rows:
        law_mean = float(row["law_mean"])
        law_var = float(row["law_variance"])
        se = math.sqrt(law_var / 4000.0)
        assert abs(float(row["mean"]) - law_mean) < 5.0 * se
        assert float(row["variance"]) == pytest.approx(law_var, rel=0.2)


def test_simulate_deterministic_across_thread_env(capsys, monkeypatch):
    # three blocks, merged in block order whatever the thread count
    argv = ["simulate", "--method", "ex", "--h", "0.2", "--N", "50",
            "--samples", "9000", "--seed", "4"]
    outputs = set()
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("LDP_OSC_THREADS", threads)
        outputs.add(run_cli(argv, capsys))
    assert len(outputs) == 1


def test_search_position_writes_method_files(tmp_path, capsys):
    out_dir = tmp_path / "hits"
    code, out, _ = run_cli(
        ["search", "--observable", "mean-position", "--out", str(out_dir)],
        capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [row["name"] for row in rows] == ["m1", "m2", "m3"]
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["m1.method", "m2.method", "m3.method"]

    # the written file is a working method definition: feed it back in
    code, out, _ = run_cli(
        ["rates", "--method", str(out_dir / "m1.method"),
         "--observable", "mean-position", "--h", "0.5", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"].startswith("ExactlyPreserves")


# the bytes of each method file `search --out` writes
SEARCH_FILE_DIGESTS = {
    "m1.method": "73d45090d10383ea2309190e311f1b1b5d2e76c2abafbef1d13e1867a4fda9c8",
    "m2.method": "99bf11dbbd27a49452dfd08394fe9bbb75599ff347afd9138a4dc1d2ea8b9cbf",
    "m3.method": "ac797316ca7d50d447429f7240453eaf7ef9d65616aefea6c97d22d0fc3db49e",
    "m4.method": "9dcad8788a5b2b39817975c07bbd983780e6103df3e65d708f96419b25fa7ff2",
    "m5.method": "930078f98aa26b4165ca2a075b3a5e7067faa36fc9cca5b860173713c4371f7e",
    "m6.method": "f6b26b7cd69cec9e91058767e8f319c60589d20eeadf5012a7fc231dfaaae566",
}


@pytest.mark.parametrize("observable, count", [("mean-position", 3),
                                               ("mean-velocity", 6)])
def test_search_method_files_match_golden_digests(observable, count, tmp_path,
                                                  capsys):
    code, _, _ = run_cli(["search", "--observable", observable, "--out",
                          str(tmp_path)], capsys)
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == dict(list(SEARCH_FILE_DIGESTS.items())[:count])


def test_search_velocity_row_count(capsys):
    code, out, _ = run_cli(
        ["search", "--observable", "mean-velocity", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["name"] for row in payload["rows"]] == \
        ["m1", "m2", "m3", "m4", "m5", "m6"]


@pytest.mark.parametrize("value", ["abc", "0", "65"])
def test_bad_thread_count_is_an_input_error(value, capsys, monkeypatch):
    monkeypatch.setenv("LDP_OSC_THREADS", value)
    code, out, err = run_cli(["simulate", "--method", "ex", "--h", "0.2",
                              "--N", "5", "--samples", "10"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: LDP_OSC_THREADS ") and err.count("\n") == 1


def test_conditions_em(capsys):
    code, out, _ = run_cli(
        ["conditions", "--method", "em", "--h", "0.5"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 7
    assert all(row["excluded"] == "True" for row in rows)
    assert all(row["a2"] == "False" for row in rows)
    assert "# small-step consistency: B-consistent" in out


def test_method_file_argument(tmp_path, capsys):
    path = tmp_path / "custom.method"
    path.write_text(
        "a11 = cos(h)\na12 = sin(h)\na21 = -sin(h)\na22 = cos(h)\n"
        "b1 = 0\nb2 = 1\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["rates", "--method", str(path), "--observable", "mean-velocity",
         "--h", "0.5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "custom"
    assert payload["verdict"] == "ExactlyPreserves"


def test_non_finite_coefficient_rejected_at_evaluate(tmp_path, capsys):
    path = tmp_path / "overflow.method"
    path.write_text("a11 = 1e300*1e300 - 1e300*1e300\n"
                    "a12 = h\na21 = -h\na22 = 1\nb1 = 0\nb2 = 1\n")
    code, out, err = run_cli(
        ["prob", "--method", str(path), "--h", "0.1", "--N", "10",
         "--interval", "0:1"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: overflow: coefficient a11 = nan is not finite "
                   "at h = 0.1\n")


def test_out_file_written_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "catalog.csv"
    code, out, _ = run_cli(["catalog", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    rows = parse_csv(target.read_text(encoding="utf-8"))
    assert len(rows) == 16


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ldp_osc.cli", "catalog"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "beta:0.5" in proc.stdout


def test_sympy_never_loads():
    script = (
        "import sys, ldp_osc.cli\n"
        "run = ldp_osc.cli.main\n"
        "codes = [run(['rates', '--method', 'm2', '--h', '0.5']),\n"
        "         run(['search', '--observable', 'mean-position']),\n"
        "         run(['catalog']),\n"
        "         run(['conditions', '--method', 'beta:0.5', '--h', '0.5']),\n"
        "         run(['prob', '--method', 'em', '--h', '0.1', '--N', '10',\n"
        "              '--interval', '0.9:1.1'])]\n"
        "print(codes, 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"


def test_proofs_run_where_sympy_cannot_be_imported():
    script = (
        "import sys\n"
        "sys.modules['sympy'] = None  # any import of sympy raises\n"
        "import ldp_osc.cli\n"
        "code = ldp_osc.cli.main(['rates', '--method', 'm2', '--h', '0.5',"
        " '--format', 'json'])\n"
        "print(code)\n"
        "print(ldp_osc.cli.main(['search', '--observable', 'mean-position']))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[-1] == "0"
    end = lines.index("0")
    payload = json.loads("\n".join(lines[:end]))
    assert payload["verdict"] == "ExactlyPreserves"
    assert payload["symbolic"] is True
    assert payload["proof"] == "proved"


def test_scipy_loads_only_for_sampling():
    script = (
        "import sys, ldp_osc.cli\n"
        "print('scipy' in sys.modules)\n"
        "run = ldp_osc.cli.main\n"
        "codes = [run(['rates', '--method', 'm2', '--h', '0.5']),\n"
        "         run(['search', '--observable', 'mean-velocity']),\n"
        "         run(['prob', '--method', 'em', '--h', '0.1', '--N', '10',\n"
        "              '--interval', '0.9:1.1'])]\n"
        "print(codes, 'scipy' in sys.modules)\n"
        "code = run(['simulate', '--method', 'em', '--h', '0.1', '--N', '1',"
        " '--samples', '1'])\n"
        "print(code, 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert "[0, 0, 0] False" in lines
    assert lines[-1] == "0 True"


_SAMPLER_MODULES = ("numpy", "scipy", "concurrent.futures")


def _modules_after(argvs, modules=_SAMPLER_MODULES):
    """Exit codes of argvs run through cli.main in a fresh interpreter, and
    whether each of modules was imported afterwards."""
    script = ("import json, sys, ldp_osc.cli\n"
              "codes = [ldp_osc.cli.main(a) for a in json.loads(sys.argv[1])]\n"
              f"loaded = [m in sys.modules for m in {modules!r}]\n"
              "print(json.dumps([codes, loaded]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_the_samplers_import_numpy(tmp_path):
    readme = [_out_under(argv, tmp_path) if "--out" in argv else argv
              for argv in _readme_commands()]
    deterministic = [argv for argv in readme if argv[0] in
                     ("catalog", "conditions", "rates", "prob", "search")]
    assert len(deterministic) == 6
    assert _modules_after(deterministic) == [[0] * 6, [False] * 3]
    msq, = (argv for argv in readme if argv[0] == "msq")
    simulate = ["simulate", "--method", "beta:0.5", "--h", "0.1", "--N", "10",
                "--samples", "10"]
    for argv in (msq, simulate):
        assert _modules_after([argv]) == [[0], [True] * 3]
    # an unknown method is refused before the samplers load
    for argv in (["msq", "--method", "nope", "--h", "0.1"],
                 ["simulate", "--method", "nope", "--h", "0.1", "--N", "10"]):
        assert _modules_after([argv]) == [[1], [False] * 3]
    # and a law without result ends simulate before they load
    overflow = _method_path(tmp_path, _ROTATION_FILE.format("1e160")
                            .replace("b1 = 0", "b1 = 1e160"))
    assert _modules_after([["simulate", "--method", overflow, "--h", "0.5",
                            "--N", "200"]]) == [[2], [False] * 3]


def test_only_a_proof_or_the_search_loads_the_exact_arithmetic():
    exact = ("ldp_osc.exact", "fractions")
    # modules stay loaded, so one interpreter checks every command in turn
    deterministic = [
        ["catalog"],
        ["conditions", "--method", "beta:0.5", "--h", "0.5"],
        ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "100",
         "--interval", "0.9:1.1"],
        # not numerically exact, so no proof is attempted
        ["rates", "--method", "theta:1", "--h", "0.5"],
    ]
    assert _modules_after([], exact) == [[], [False, False]]
    assert _modules_after(deterministic, exact) == [[0] * 4, [False, False]]
    # the samplers sum their errors in fractions, without the proof engine
    samplers = [
        ["msq", "--method", "beta:0.5", "--h", "0.1", "--samples", "10"],
        ["simulate", "--method", "beta:0.5", "--h", "0.1", "--N", "10",
         "--samples", "10"],
    ]
    assert _modules_after(samplers, exact) == [[0, 0], [False, True]]
    for argv in (["rates", "--method", "beta:0.5", "--observable",
                  "mean-position", "--h", "0.5"], ["search"]):
        assert _modules_after([argv], exact) == [[0], [True, True]]


def test_only_json_output_loads_json_and_no_command_loads_dataclasses():
    # `_modules_after` loads json itself, so this script passes its commands
    # as Python literals and prints a Python literal
    prob = ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "100",
            "--interval", "0.9:1.1"]
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return [m in sys.modules for m in ('dataclasses', 'inspect', 'json')]\n"
        "import ldp_osc.cli\n"
        "seen = [loaded()]\n"
        f"for argv in {[prob, prob + ['--format', 'json']]!r}:\n"
        "    assert ldp_osc.cli.main(argv) == 0\n"
        "    seen.append(loaded())\n"
        "print(seen)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == [
        [False, False, False], [False, False, False], [False, False, True]]


def test_probabilities_run_where_scipy_cannot_be_imported():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy raises\n"
        "import ldp_osc.cli\n"
        "print(ldp_osc.cli.main(['prob', '--method', 'beta:0.5', '--h', '0.1',"
        " '--N-sweep', '100:100000:4', '--interval', '0.9:1.1']))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0"


# SHA-256 of the stdout of the deterministic verdict commands, recorded before
# sin and cos were written through exp(+-i r h) in the exact proof: a change
# to how the proof decides must not change a printed byte. The two method
# files hold an identity the proof declines (an h^2 argument) and one it
# proves (angles h/3 written as 1/3*h).
VERDICT_METHOD_FILES = {
    "squared-argument":
        "a11 = cos(h)\na12 = sin(h)\na21 = -sin(h)\na22 = cos(h)\n"
        "b1 = 0\nb2 = cos(h^2)^2 + sin(h^2)^2\n",
    "float-fractions":
        "h_range = 0:3\na11 = cos(h)\na12 = sin(h)\na21 = -sin(h)\n"
        "a22 = cos(h)\nb1 = 0\nb2 = 1 + sin(h) - 3*sin(1/3*h) + "
        "4*sin(1/3*h)^3 + sin(2/3*h) - 2*sin(1/3*h)*cos(1/3*h)\n",
}
_RATES = "rates --h 0.5 --format json --observable {} --method {}"
GOLDEN_VERDICTS = [
    (_RATES.format("mean-position", "em"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (_RATES.format("mean-velocity", "em"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (_RATES.format("mean-position", "beta:0"), 0,
     "5be3490b119fc430a0ec8250bc3b01c4abcda2c5fa352ccaeaa4ba0a55a35242"),
    (_RATES.format("mean-velocity", "beta:0"), 0,
     "22a3c5a8993d961e150bbe53765b6a37915d3805c6273034705180f899f0d1f2"),
    (_RATES.format("mean-position", "beta:0.5"), 0,
     "a6d85b10b7fa408fbbb0352afb0bafd64e327c196f54318b8b8ffc89ad13a93b"),
    (_RATES.format("mean-velocity", "beta:0.5"), 0,
     "5caefe2b0e021a50089bab4a6b6070a131c149d0fbbbfb3c4fec17d517c4573c"),
    (_RATES.format("mean-position", "beta:1"), 0,
     "ae4fe7f1fca9b6db4cd98c25e8dce42612756bc958a6a21de28970cca3ac100f"),
    (_RATES.format("mean-velocity", "beta:1"), 0,
     "b58a4a455e4792d39ef24346e5083a6e1aaa6953bf49627f051734872cee53f7"),
    (_RATES.format("mean-position", "ex"), 0,
     "c03ae47fc257aacb29c96d010e38f13aebbab684563e53d3e7a7b08de80bd46b"),
    (_RATES.format("mean-velocity", "ex"), 0,
     "b630a4bae64c4a3fcc67c63ffaa1a91a6c26a3f808c6efc53aa5edb0ada7ba43"),
    (_RATES.format("mean-position", "int"), 0,
     "f48e6ae373c25b029a8344d2171c0021919b566aefdf68b47c70db967992ca3d"),
    (_RATES.format("mean-velocity", "int"), 0,
     "d60b6f7c46d75e9f4db48869d422c532e3f40f6aa77a70c53ffeb88d3ecc7d70"),
    (_RATES.format("mean-position", "opt"), 0,
     "0f89b221392f17f66729f51036b0c06c33f18a44fa73e3753e3c342f05cace96"),
    (_RATES.format("mean-velocity", "opt"), 0,
     "0d7e8f8e7701dc6f84bc9ce26963cca4a6e91eb64bfd6d84d597e2d43f0c4c96"),
    (_RATES.format("mean-position", "theta:1"), 0,
     "33fdf8f9f88108c13af832307851eb7a46edf0a46a8d696c695b26e04f72dbe2"),
    (_RATES.format("mean-velocity", "theta:1"), 0,
     "7ce05b9d22e1833a7dcc42473db6ceac055679531c484a0222750aec9df7da79"),
    (_RATES.format("mean-position", "pc-pem-mr"), 0,
     "88b005f627d00fea6cfea8e421164c91fc1ef53f95ca38d37fc6be3fa109b3f9"),
    (_RATES.format("mean-velocity", "pc-pem-mr"), 0,
     "1f5445fae422d082c61dc3e7a2bfedfb32f3a78cd9988a786da8ae134ee5d678"),
    (_RATES.format("mean-position", "pc-em-bem"), 0,
     "e8ce904c85c7e21c22c71cedf05488cf1187547f98dc60ce72da62c8bcff4155"),
    (_RATES.format("mean-velocity", "pc-em-bem"), 0,
     "d13d8d298cc6b53f0611978df4a6d62823561e53b4f1f51d09439383d0c99f35"),
    (_RATES.format("mean-position", "m1"), 0,
     "3079db0723a9db0d6a4af1a3a55ab3a7354312987221a349a0da9c69fbccdeb0"),
    (_RATES.format("mean-velocity", "m1"), 0,
     "99b37be6e2dd9d9d304617f3ad8d006eda7e55244c4a05326b818a5739326b8b"),
    (_RATES.format("mean-position", "m2"), 0,
     "86e4cc8816c6b004458a2bf0a6c4095ee3022182ed27d6050da5bdc1afa906f5"),
    (_RATES.format("mean-velocity", "m2"), 0,
     "f9da4d44575c3d8e61e5d48115112f11a7076fba54684c8b370e3780c7dd08c9"),
    (_RATES.format("mean-position", "m3"), 0,
     "851055537b3b7e57e3f79b58df281ff38a389de6f90a5961c9b81ad7ac6413d1"),
    (_RATES.format("mean-velocity", "m3"), 0,
     "807059cb9c179418c4c90c557a0ca34a8a58f51090977b5a05fa94e6fe30c3ad"),
    (_RATES.format("mean-position", "m4"), 0,
     "18e2f2795699900b2aa48727355eeb3a475324cca29897ed18f4c0880f1cb69f"),
    (_RATES.format("mean-velocity", "m4"), 0,
     "af3f3dbc59966d16b833d0970015f9b8841e162105aaacf04cd86cb7ede67de3"),
    (_RATES.format("mean-position", "m5"), 0,
     "ef25fb0fd418475cc81b5ff7853f481ad9ee3c1400557e490912d8966f28e973"),
    (_RATES.format("mean-velocity", "m5"), 0,
     "d827a96c26546a897a6ec66f2cc563a7083c6023874a8f6ebf190d21fa0ba675"),
    (_RATES.format("mean-position", "m6"), 0,
     "a59320e4c7ed98e36ea997abc54a842f90cb67e605ef859a16e23a5d1f09388e"),
    (_RATES.format("mean-velocity", "m6"), 0,
     "000e9fb9c97fad5660c58c1b4dc8aa826fb0b26ed5be13406a97c14dbf0586b6"),
    ("search --observable mean-position", 0,
     "5d95dc8dc69a5fba2379ff7b4c979d7bd99710f10c62dfbb0b0148208cdb2419"),
    ("search --observable mean-velocity", 0,
     "1b4073770225a2324cc6e7df8f37323e5cb010487d67834cdf77291f1bdd59e9"),
    ("search --observable mean-position --format json", 0,
     "462484c88756eb3279f5b66f290ed621fca47cd7d6bd75d3391e7f1f07a7cabd"),
    ("search --observable mean-velocity --format json", 0,
     "95326ad49f4b5cf0c6324df569dd89e3964d4becb044d308e2abaa08970c6750"),
    (_RATES.format("mean-velocity", "{squared-argument}"), 0,
     "741f38492e4fde958e03abeb34d7c4ac3c36565c799eb06e567e3c4dd1da3833"),
    (_RATES.format("mean-velocity", "{float-fractions}"), 0,
     "224365c7a3e823e9e23e608fe222ad760ea1031f8920bbfb26b5c10899903209"),
    # steps outside ex's range are skipped; one admissible step gives no verdict
    ("rates --method ex --h-sweep 0.5:4:5", 0,
     "17cbaa7e4d5e4983a98bf4dd2a4f3f77700f065a7751ec68dc4be8624eae339d"),
    ("rates --method ex --h-sweep 2:4:2", 0,
     "9833c38752f1aeb32082649a5a38d68a8ad0208f0a2418ce86d1eade37c43a65"),
    # T0/h is not an integer, so the steps column is the rounded ratio and
    # the h column the step T0/steps that ran; re-recorded when msq's mean
    # became the exact mean rounded once (the h = 0.025 error moved by 1
    # ulp), when msq stopped calling BLAS and LAPACK (errors moved from
    # their 10th significant digit on), and when every step size came to run
    # T0/round(T0/h): h = 0.1 runs 9 steps of 0.95/9 in place of 9 steps of
    # 0.1, and the finer rows print their steps, 1 ulp below 0.05, 0.025,
    # 0.0125 and 0.00625; and when the step noise covariance stopped
    # cancelling at small steps (errors moved from their 11th significant
    # digit on)
    ("msq --method beta:0.5 --h 0.1 --T0 0.95 --samples 3000", 0,
     "4d9e66e94bfce58911cce312c0aa33e1845a8697838e623b2fc941125d1288d4"),
]
# `conditions --h 0.5` for each catalog method: the CSV and the JSON digest,
# recorded before the command printed `condition_b_diagnostics`' own reports;
# the JSON digests of beta:0.5, ex, int, opt and theta:1 were re-recorded when
# r3 came to be formed from det(I - A): their r3 lists moved by a few ulp,
# each closer to a 50-digit evaluation of the same float A
_CONDITIONS_DIGESTS = {
    "em": ("38d682a829e7a87d411fa304df09a1ddf3c20743329292c203ed3ad5a7f68334",
           "27f8fa39d30f8490c77cdc4c883024b294ec8bb2bf18224941b2a7dbba5c7901"),
    "beta:0": ("41ded8487ecf2aec6ef29eaa99080bff33196d13c6d95490c857055fab935a69",
               "3791dbf22545d105e242503ed9c73f2998f1fb17b58a9150c54fba4665047e27"),
    "beta:0.5": ("a4b213b800c1478c5e6b10fe58b8258eaf005e9a4dbc72effcee24e20addcc11",
                 "6c7954d8fd0758e335953912b2d33b5d7ca4b687ce173e44282b7ad61610cadc"),
    "beta:1": ("3aecb2cd7fa380fe5db1bb71d372be707750e8b1b001b7d446b18a884abda795",
               "069032f39594a25c2afb17bd40980de54bfa0b2f3fba6434c266529ae06ebed4"),
    "ex": ("aee295869a24787c5e7ab50d4e0c999f3272b0e377614fee29755046959566f0",
           "3e05d242610e81730aaa71e3fca9bd6e47df605464ab23ac3fce74698d47e709"),
    "int": ("67a01ea488b24999ff7fe1bf9245caabda742cc91321e973996d6585267f3192",
            "0490a3da332fc6add4a434880e2311a685bf479e4391567a26631bf6f6baf0f9"),
    "opt": ("0a924d870c11540fc9ff62711130540cad06e552a0d9afdb63588a5c41b1483a",
            "7f190b8b063626af1f2cafe43a7fbe6e9cdc0c39ae7465b266f4434cfad16a5b"),
    "theta:1": ("5c9119d82e8a693a9a470331393f9928382de0acd7dda0532af37ea082149712",
                "791a42dcbe59b41009a35c2d6bc58d67d04af3b6bb5d36b6a36ba7075b4e89f0"),
    "pc-pem-mr": ("f5863d346d7a53aa3bcdf68dea08ea1867f60ac46ee70c5e6fc4afedb8c5d408",
                  "fbe650cb77cf975dec1bbd3ceddffe3f5205b9338485a1d7b8bcc11c5ab65b23"),
    "pc-em-bem": ("150aa2e26c136d4c62a05e8fea4634a999ae2d84402e889b14d8068e6d242e25",
                  "78a19b83efcbd893d4a393cda9f56ae8da403554c791ff0fcb8df07487516e64"),
    "m1": ("a8eec01cad90fcc187d9637aacbefe51c64f01f2e44cdbf3e6fcc7be0bb6d97a",
           "2027f536927f3ae061d3aa5ef3120d98a67ef1afbd7397fb684935b186fbff92"),
    "m2": ("75eef9f9726f58c055f7cbb8c5fbb28521c65c56d46e6e2b005ab92bf2a71fd5",
           "96f323d2da32f592c75b11cee36bc1b74043bfc1fc3dd304bc39fab354f8bfc5"),
    "m3": ("0d56b468c8928776e7d55aa28eb33e4e77d24044ce935ab47616a8c1c120d174",
           "9e4b6c304aec4dcd844a0a67f418eb1d9198511692acd2649736c5f39ed8ef1d"),
    "m4": ("d850f3153dc79be062efdd257d13070f1101de4d21c59c42d81c107ada0e347b",
           "1099671e180188a56900ffc9b1174ddedbed4e861709e0aa4655216752a1c3eb"),
    "m5": ("a2926e2c73c726358e0cf638ff0a94857c2719f7e893fa25f570d12cc0a2efdd",
           "f0a8aabaf4c0cc48b27e53c03953c844c06e80845fd3b227e2d49936d4d87207"),
    "m6": ("1b6126dc9cebcd354803a32bb1f9f2311e2bd4bdb9fb5c7b6e4b90a5afb294a5",
           "c37485f4ced788344120ad650fb39a9776c40f979844ad8e75ef65fe1c3df377"),
}
GOLDEN_VERDICTS += [
    (f"conditions --h 0.5 --format {fmt} --method {name}", 0, digest)
    for name, pair in _CONDITIONS_DIGESTS.items()
    for fmt, digest in zip(("csv", "json"), pair)]
# the rate columns of `prob` and CSV `rates`, recorded while a degenerate
# rate was still a class of its own: a finite and an infinite `predicted`,
# the no-prediction footer, an infinite rate coefficient, skipped steps
_PROB = "prob --h {} --N-sweep {} --interval {} --observable {} --method {}"
_PROB_DIGESTS = {
    _PROB.format("0.1", "10:10000:4", "0.9:1.1", "mean-position", "beta:0.5"):
        ("55b11d11c533909f34216961e58f61a2d78560e7785ebf27cf26aaa85af71579",
         "2e478055b701e76afff5f8f9894c3f68b0337d603e2117d953c888ac8781c5f2"),
    _PROB.format("0.5", "10:10000:4", "0.5:inf", "mean-velocity", "theta:1"):
        ("ce30865857921663522a4c1dd5a3c572b3e675d4ea74d1ca6baded678945d2c7",
         "95fa1087f035c8f6d0dbb49dc674fef49cd1d0ae01c5a4ab6dbf653073857a45"),
    _PROB.format("0.1", "10:1000:3", "0.9:1.1", "mean-position", "em"):
        ("7fc9b26197020d778c59d92e2afb37c14a0ee75f3baf9b30b15828fbd029f89d",
         "0792e673b069da82cdd39466ad3190b2359c316bf7688d4d6440590c0cccf27f"),
}
GOLDEN_VERDICTS += [
    (f"{command} --format {fmt}", 0, digest)
    for command, pair in _PROB_DIGESTS.items()
    for fmt, digest in zip(("csv", "json"), pair)]
GOLDEN_VERDICTS += [
    ("rates --h 0.5 --observable mean-velocity --method theta:1", 0,
     "4749701314889932a1bf7c66c300cd99144c903817664623a1a5b15c2bc2e364"),
    ("rates --h 2 --observable mean-position --method pc-em-bem", 0,
     "618f0d9d66a859c105343335d2ee82c369061fdc8a8be33e9b89eb5bf56da980"),
]


@pytest.mark.parametrize("method, h", [("ex", "1e-7"), ("beta:0.5", "1e-9"),
                                       ("theta:1", "1e-7"), ("pc-em-bem", "1e-7")])
def test_conditions_consistent_at_small_steps(method, h, capsys):
    # r3 = det(I - A) / h^2; formed as 1 - tr + det, it cancelled to 0 here
    code, out, _ = run_cli(["conditions", "--method", method, "--h", h], capsys)
    assert code == 0
    assert "# small-step consistency: B-consistent (r3 -> 1, r4 -> 1)\n" in out


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN_VERDICTS)
def test_verdict_stdout_matches_golden_digest(command, exit_code, digest,
                                              tmp_path, capsys):
    argv = command.split()
    for i, arg in enumerate(argv):
        if arg.startswith("{"):
            path = tmp_path / f"{arg[1:-1]}.method"
            path.write_text(VERDICT_METHOD_FILES[arg[1:-1]], encoding="utf-8")
            argv[i] = str(path)
    code, out, _ = run_cli(argv, capsys)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the rotation step of `ex` with b2 written out at length or in depth
_ROTATION_FILE = ("name = rotation\nh_range = 0:3\na11 = cos(h)\na12 = sin(h)\n"
                  "a21 = -sin(h)\na22 = cos(h)\nb1 = 0\nb2 = {}\n")


# det = 1 within its tolerance, but tr = 2 + 2e-14 lies outside |tr| < 2
_NEAR_DEGENERATE_FILE = ("h_range = 0:2\na11 = 1 + 1e-14\na12 = h\n"
                         "a21 = -2e-13\na22 = 1 + 1e-14\nb1 = 1\nb2 = 1e-14/h\n")


def _method_path(tmp_path, text):
    path = tmp_path / "method.method"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rates_on(tmp_path, capsys, text, *extra):
    return run_cli(["rates", "--method", _method_path(tmp_path, text),
                    "--h", "0.5", *extra], capsys)


def test_a_5000_term_sum_is_the_same_method(tmp_path, capsys):
    velocity = ("--observable", "mean-velocity")
    long = _rates_on(tmp_path, capsys,
                     _ROTATION_FILE.format("1" + " + 0" * 4999), *velocity)
    assert long == _rates_on(tmp_path, capsys, _ROTATION_FILE.format("1"),
                             *velocity)
    assert long[0] == 0 and "# proof: proved\n" in long[1]


@pytest.mark.parametrize("b2", ["(" * 3000 + "1" + ")" * 3000,
                                "1" + "^1" * 3000], ids=["parens", "powers"])
def test_deep_method_expressions_are_input_errors(b2, tmp_path, capsys):
    code, out, err = _rates_on(tmp_path, capsys, _ROTATION_FILE.format(b2))
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 8, column ") and err.count("\n") == 1
    assert "nested deeper than" in err


def test_proof_declines_a_power_it_cannot_expand(tmp_path, capsys):
    # ((1 + h)/(1 + h))^k is 1 in floats, but Exact does not cancel, so the
    # proof would expand (1 + h)^k twice; it declines instead
    midpoint = ("a11 = (1 - h^2/4)/(1 + h^2/4)\na12 = h/(1 + h^2/4)\n"
                "a21 = -h/(1 + h^2/4)\na22 = (1 - h^2/4)/(1 + h^2/4)\n"
                "b1 = h/2/(1 + h^2/4) * ((1 + h)/(1 + h))^100000\n"
                "b2 = 1/(1 + h^2/4)\n")
    code, out, _ = _rates_on(tmp_path, capsys, midpoint)
    assert code == 0
    assert "# verdict: ExactlyPreserves(numeric)\n# proof: declined: a " \
        "product of 129 by 129 terms" in out


@pytest.mark.parametrize("command", [
    ["conditions"], ["rates"], ["prob", "--N", "10", "--interval", "0:1"],
    ["simulate", "--N", "10", "--samples", "10"]])
def test_coefficients_out_of_float_range_are_input_errors(command, capsys):
    # theta:1 admits every h > 0, but its h^2 overflows at h = 1e200
    code, out, err = run_cli([*command, "--method", "theta:1", "--h", "1e200"],
                             capsys)
    message = "theta:1: coefficients hit overflow at h = 1e+200\n"
    if command == ["rates"]:  # every step of the sweep is skipped
        assert (code, out) == (2, "")
        assert err == ("no applicable result: no admissible step size for "
                       f"theta:1: {message}")
    else:
        assert (code, out, err) == (1, "", f"error: {message}")


def test_coefficient_division_by_zero_is_an_input_error(tmp_path, capsys):
    path = _method_path(tmp_path, _ROTATION_FILE.format("1 + 0/(h - 0.5)"))
    message = "rotation: coefficients hit division by zero at h = 0.5"
    # conditions reaches h = 0.5 in its sweep from 1
    assert run_cli(["conditions", "--method", path, "--h", "1"], capsys) \
        == (1, "", f"error: {message}\n")
    assert run_cli(["prob", "--method", path, "--h", "0.5", "--N", "10",
                    "--interval", "0:1"], capsys) \
        == (1, "", f"error: {message}\n")
    # rates skips the step and judges the rest of the sweep
    code, out, err = run_cli(["rates", "--method", path, "--h", "0.5"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith(f"# skipped h = 0.5: {message}\n")
    assert len(parse_csv(out)) == 6


def test_complex_coefficients_are_input_errors(tmp_path, capsys):
    path = _method_path(tmp_path, _ROTATION_FILE.format("(h - 1)^0.5"))
    message = ("rotation: coefficients hit a value that is not a real number "
               "at h = 0.5")
    assert run_cli(["conditions", "--method", path, "--h", "0.5"], capsys) \
        == (1, "", f"error: {message}\n")
    assert run_cli(["rates", "--method", path, "--h", "0.5"], capsys) \
        == (2, "", "no applicable result: no admissible step size for "
                   f"rotation: {message}\n")


def test_literal_arithmetic_is_float64(tmp_path, capsys):
    # 0*10^400 is 0 in exact integers, but 10^400 overflows float64
    path = _method_path(tmp_path, _ROTATION_FILE.format("1 + 0*10^400"))
    message = "rotation: coefficients hit overflow at h = 0.5"
    assert run_cli(["conditions", "--method", path, "--h", "0.5"], capsys) \
        == (1, "", f"error: {message}\n")
    assert run_cli(["rates", "--method", path, "--h", "0.5"], capsys) \
        == (2, "", "no applicable result: no admissible step size for "
                   f"rotation: {message}\n")


def test_proof_names_a_literal_base_as_written(tmp_path, capsys):
    code, out, _ = _rates_on(tmp_path, capsys,
                             _ROTATION_FILE.format("1 + 2^h - 2^h"),
                             "--observable", "mean-velocity")
    assert code == 0
    assert out.endswith("\n# proof: declined: 2**h is not a rational function "
                        "of h, sin and cos\n")


def test_near_degenerate_volume_preserving_step_has_no_rate(tmp_path, capsys):
    # det = 1 within its tolerance while tr > 2, so S and T come out negative
    path = _method_path(tmp_path, _NEAR_DEGENERATE_FILE)
    for observable, numerator in (("mean-position", "position numerator S"),
                                  ("mean-velocity", "velocity numerator T")):
        code, out, err = run_cli(["rates", "--method", path, "--h", "0.5",
                                  "--observable", observable], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("no applicable result: no admissible step size "
                              f"for method: method at h = 0.5: {numerator} = ")
        assert err.endswith(" <= 0 at tr = 2.00000000000002 (S and T are "
                            "positive only for |tr| < 2), so no decay rate "
                            "exists\n")
    code, out, err = run_cli(["prob", "--method", path, "--h", "0.5", "--N",
                              "10", "--interval", "0.5:2"], capsys)
    assert (code, err) == (0, "")
    assert parse_csv(out)[0]["predicted"] == "nan"
    assert "\n# no decay-rate prediction: method at h = 0.5: position " \
        "numerator S = " in out


def test_noise_overflow_is_not_blamed_on_the_powers(tmp_path, capsys):
    # det(A) = 1, so the powers stay bounded; alpha^2 h b b^T overflows
    path = _method_path(tmp_path, _ROTATION_FILE.format("1e160")
                        .replace("b1 = 0", "b1 = 1e160"))
    assert run_cli(["prob", "--method", path, "--h", "0.5", "--N", "10",
                    "--interval", "0:1"], capsys) \
        == (2, "", "no applicable result: moments overflow float64 at N = 10 "
                   "with det(A) = 1: the noise covariance alpha^2 h b b^T is "
                   "too large\n")


def test_simulate_stops_on_a_law_without_result_before_sampling(
        tmp_path, capsys, monkeypatch):
    from ldp_osc import sim

    def no_sampling(config):
        raise AssertionError("sampled before the laws were computed")

    monkeypatch.setattr(sim, "simulate_summary", no_sampling)
    path = _method_path(tmp_path, _ROTATION_FILE.format("1e160")
                        .replace("b1 = 0", "b1 = 1e160"))
    assert run_cli(["simulate", "--method", path, "--h", "0.5", "--N", "200",
                    "--samples", "10"], capsys) \
        == (2, "", "no applicable result: moments overflow float64 at N = 200 "
                   "with det(A) = 1: the noise covariance alpha^2 h b b^T is "
                   "too large\n")


@pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")
def test_simulate_mean_of_overflowing_paths_is_infinite(tmp_path, capsys):
    # a11 = 1e308 overflows every path's velocity on its one step; the three
    # blocks' infinite means merge to inf, as a float mean of the paths gives
    path = _method_path(tmp_path, "name = huge\nh_range = 0:3\na11 = 1e308\n"
                        "a12 = 0\na21 = 0\na22 = 1\nb1 = 1\nb2 = 0\n")
    code, out, _ = run_cli(["simulate", "--method", path, "--h", "0.5",
                            "--N", "1", "--samples", "10000", "--x0", "3"],
                           capsys)
    assert code == 0
    position, velocity = ([row[k] for k in ("mean", "variance", "min", "max")]
                          for row in parse_csv(out))
    assert position == ["3.0", "0.0", "3.0", "3.0"]
    assert velocity == ["inf", "nan", "inf", "inf"]


def test_overflowing_log_mgf_coefficient_has_no_rate(tmp_path, capsys):
    overflow = ("rotation at h = 0.5: the log-MGF coefficient is out of the "
                "float64 range")
    huge = _method_path(tmp_path, _ROTATION_FILE.format("1e160"))
    assert run_cli(["rates", "--method", huge, "--h", "0.5"], capsys) \
        == (2, "", "no applicable result: no admissible step size for "
                   f"rotation: {overflow}\n")
    code, out, err = run_cli(["prob", "--method", huge, "--h", "0.5",
                              "--N", "10", "--interval", "0:1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("no applicable result: moments overflow float64")
    # S = (b1 + q)^2 (4 + tr) - ... overflows while the law at N = 2 does not
    large = _method_path(tmp_path, _ROTATION_FILE.format("1e154")
                         .replace("b1 = 0", "b1 = 1e154"))
    code, out, err = run_cli(["prob", "--method", large, "--h", "0.5",
                              "--N", "2", "--interval", "0:1"], capsys)
    assert (code, err) == (0, "")
    assert parse_csv(out)[0]["predicted"] == "nan"
    assert out.endswith(f"\n# no decay-rate prediction: {overflow}\n")


def test_conditions_reject_a_step_whose_square_overflows(tmp_path, capsys):
    constant = _method_path(tmp_path, "a11 = 1\na12 = 0.5\na21 = -0.5\n"
                                      "a22 = 1\nb1 = 0\nb2 = 1\n")
    assert run_cli(["conditions", "--method", constant, "--h", "1e200"],
                   capsys) == (1, "", "error: method: step 1e+200: r1 and r3 "
                                      "need h^2 to be a finite float\n")


_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5", "1e-12", "1e200"]),
    st.floats(min_value=0.0, max_value=1e200).map(repr))
# literals are float64, so power towers end at once, in overflow or not
_EXPONENTS = st.sampled_from(["0.5", "1.5", "(1/3)", "-0.5", "2", "3", "-1",
                              "2^2^2^2", "10^10^9", "0.5^10^3"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["sin", "cos"]), inner)
        .map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda e: f"-{e}"))


_EXPRESSIONS = st.recursive(st.one_of(st.just("h"), _LITERALS), _extend,
                            max_leaves=6)
# each coefficient is the rotation step's entry or a generated expression,
# so some files get past the admissibility checks
_ROTATION = {"a11": "cos(h)", "a12": "sin(h)", "a21": "-sin(h)",
             "a22": "cos(h)", "b1": "0", "b2": "1"}
_METHOD_TEXTS = st.tuples(*(st.one_of(st.just(entry), _EXPRESSIONS)
                            for entry in _ROTATION.values())).map(
    lambda exprs: "".join(f"{key} = {expr}\n"
                          for key, expr in zip(_ROTATION, exprs)))


# the slowest generated command took about 3 ms (2-core x86_64, Python
# 3.11); ten times that is below the 1 s resolution of signal.alarm, so each
# command gets 1 s
_COMMAND_SECONDS = 1


class _Stall(Exception):
    """A command ran past its time bound; no handler in the CLI catches it."""


@contextlib.contextmanager
def _time_bound(seconds):
    """Raise _Stall in the calling (main) thread after `seconds`. POSIX only:
    where there is no SIGALRM the command runs unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def stall(signum, frame):
        raise _Stall(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stall)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_METHOD_TEXTS, st.floats(min_value=1e-6, max_value=1e200),
       st.sampled_from(cli.OBSERVABLES))
# det = 1 + sin(h)^2 passes as 1 and tr = 2 exactly: c divides by 2 - tr
@example("a11 = 1\na12 = sin(h)\na21 = -sin(h)\na22 = 1\nb1 = h^0.5\n"
         "b2 = 1\n", 1e-6, "mean-position")
@example(_NEAR_DEGENERATE_FILE, 0.5, "mean-position")
def test_generated_method_files_never_raise(tmp_path_factory, text, h,
                                            observable):
    path = tmp_path_factory.mktemp("generated") / "generated.method"
    path.write_text(text, encoding="utf-8")
    common = ["--method", str(path), "--h", repr(h)]
    for argv in (["conditions", *common],
                 ["rates", *common, "--observable", observable],
                 ["prob", *common, "--observable", observable, "--N-sweep",
                  "2:1000:3", "--interval", "0.5:2"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                _time_bound(_COMMAND_SECONDS):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv[0], text, h, code)
