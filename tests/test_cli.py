"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

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


def test_usage_errors_exit_1(capsys):
    assert run_cli(["rates", "--method", "no-such", "--h", "0.5"], capsys)[0] == 1
    assert run_cli(["rates", "--h", "0.5"], capsys)[0] == 1
    assert run_cli(["rates", "--method", "ex", "--h-sweep", "1:0.1:5"],
                   capsys)[0] == 1
    assert run_cli(["prob", "--method", "ex", "--h", "0.5", "--N", "10",
                    "--interval", "2:1"], capsys)[0] == 1
    assert run_cli([], capsys)[0] == 1
    assert run_cli(["frobnicate"], capsys)[0] == 1


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
        "warning: T0/h = 10.7722 is not an integer; comparing over 11 steps\n"
        "warning: T0/h = 23.2079 is not an integer; comparing over 23 steps\n")


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


def test_huge_initial_state_is_an_input_error(capsys):
    # the midpoint rule's powers stay bounded; the state itself overflows
    code, out, err = run_cli(
        ["prob", "--method", "beta:0.5", "--h", "0.1", "--N", "10",
         "--interval", "0.9:1.1", "--x0", "1e308"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: the mean overflows float64 at N = 10: the initial "
                   "state x0 = 1e+308, y0 = 0 is too large\n")


def test_N_sweep_values_are_python_ints():
    args = cli._build_parser().parse_args(
        ["prob", "--method", "ex", "--h", "0.5", "--interval", "0:1",
         "--N-sweep", "10:1e30:3"])
    values = cli._n_values(args)
    assert [type(v) for v in values] == [int, int, int]
    # exact conversions of the float grid, where an int64 cast would wrap
    assert values == [10, 3162277660168380, int(1e30)]


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
        at = argv.index("--out") + 1
        argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1:]
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
    argv = ["simulate", "--method", "ex", "--h", "0.2", "--N", "50",
            "--samples", "9000", "--seed", "4"]
    monkeypatch.setenv("LDP_OSC_THREADS", "1")
    _, serial, _ = run_cli(argv, capsys)
    monkeypatch.setenv("LDP_OSC_THREADS", "4")
    _, threaded, _ = run_cli(argv, capsys)
    assert serial == threaded


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


@pytest.mark.parametrize("value", ["abc", "0"])
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
]


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
