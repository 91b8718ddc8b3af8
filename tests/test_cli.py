"""End-to-end tests of the command-line interface."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from ldp_osc import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_all_methods(capsys):
    code, out, err = run_cli(["catalog"], capsys)
    assert code == 0
    assert err == ""
    rows = cli.parse_csv(out)
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
    rows = cli.parse_csv(out)
    assert len(rows) == 7
    for row in rows:
        assert float(row["modified_coefficient"]) == pytest.approx(1.0 / 3.0,
                                                                   rel=1e-10)
        assert row["regime"] == "volume-preserving"
    assert "# verdict: ExactlyPreserves\n" in out


def test_rates_exact_velocity(capsys):
    code, out, _ = run_cli(
        ["rates", "--method", "ex", "--observable", "mean-velocity",
         "--h", "0.5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ExactlyPreserves"
    assert payload["symbolic"] is True
    for row in payload["rows"]:
        assert row["modified_coefficient"] == pytest.approx(1.0, rel=1e-10)


def test_rates_contractive_method_does_not_preserve(capsys):
    code, out, _ = run_cli(
        ["rates", "--method", "theta:1", "--observable", "mean-position",
         "--h", "0.5"], capsys)
    assert code == 0
    rows = cli.parse_csv(out)
    for row in rows:
        assert float(row["modified_coefficient"]) == pytest.approx(0.5, rel=1e-10)
        assert row["regime"] == "contractive"
    assert "# verdict: DoesNotPreserve\n" in out


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
    rows = cli.parse_csv(out)
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
    rows = cli.parse_csv(out)
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
    rows = cli.parse_csv(out)
    assert len(rows) == 5
    errors = [float(row["error"]) for row in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    slope_line = [line for line in out.splitlines()
                  if "mean-square order" in line]
    assert len(slope_line) == 1
    assert float(slope_line[0].rsplit(" ", 1)[1]) > 0.8


def test_simulate_reports_law_columns(capsys):
    code, out, _ = run_cli(
        ["simulate", "--method", "beta:0.5", "--h", "0.1", "--N", "100",
         "--samples", "4000", "--seed", "1"], capsys)
    assert code == 0
    rows = cli.parse_csv(out)
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
    rows = cli.parse_csv(out)
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


def test_search_velocity_row_count(capsys):
    code, out, _ = run_cli(
        ["search", "--observable", "mean-velocity", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["name"] for row in payload["rows"]] == \
        ["m1", "m2", "m3", "m4", "m5", "m6"]


def test_conditions_em(capsys):
    code, out, _ = run_cli(
        ["conditions", "--method", "em", "--h", "0.5"], capsys)
    assert code == 0
    rows = cli.parse_csv(out)
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


def test_out_file_written_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "catalog.csv"
    code, out, _ = run_cli(["catalog", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    rows = cli.parse_csv(target.read_text(encoding="utf-8"))
    assert len(rows) == 16


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ldp_osc.cli", "catalog"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "beta:0.5" in proc.stdout
