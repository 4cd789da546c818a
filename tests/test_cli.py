"""Command-line interface tests, mostly in-process through main()."""

import csv
import importlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import allopca
from allopca import LargePLargeN, Traditional, WeakIdentifiability
from allopca.cli import WORKERS_ENV, _read_matrix_csv, main, write_matrix_csv


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dataset_files(tmp_path, n=30, p=4, q=2, noise=0.3, seed=0):
    """Write y.csv/x.csv; noise along gamma1 only when `noise` is tiny."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, q))
    alpha = np.ones(q)
    gamma = np.arange(1.0, p + 1.0)
    gamma /= np.linalg.norm(gamma)
    xc = x - x.mean(axis=0)
    scores = xc @ alpha
    if noise < 1e-6:
        scores = scores + noise * rng.standard_normal(n)
        y = 5.0 + np.outer(scores, gamma)
    else:
        y = 5.0 + np.outer(scores, gamma) + noise * rng.standard_normal((n, p))
    ypath, xpath = tmp_path / "y.csv", tmp_path / "x.csv"
    write_matrix_csv(str(ypath), y)
    write_matrix_csv(str(xpath), x)
    return str(ypath), str(xpath), gamma


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_scenario(capsys):
    code, _, err = run_cli(["simulate"], capsys)
    assert code == 2
    assert "--scenario" in err


def test_unknown_scenario(capsys):
    code, _, err = run_cli(["simulate", "--scenario", "table9"], capsys)
    assert code == 2
    assert "table9" in err


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def test_simulate_table1_layout(capsys):
    code, out, err = run_cli(
        ["simulate", "--scenario", "table1", "--n", "10,12", "--reps", "3"], capsys)
    assert code == 0
    assert "scenario table1: replications=3 seed=0 workers=1" in err
    assert "n=10: p=" in err and "lambda1=" in err
    rows = parse_csv(out)
    assert rows[0] == ["estimator", "n=10", "n=12"]
    assert len(rows) == 1 + 11 + 2
    labels = [r[0] for r in rows[1:]]
    assert labels[0] == "total(w=0.5)"
    assert "plugin avg weight" in labels and "oracle avg weight" in labels


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--scenario", "table1", "--n", "10", "--reps", "4",
            "--seed", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"estimator")


def test_simulate_table2_requires_eta(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "table2", "--n", "20", "--reps", "2"], capsys)
    assert code == 2
    assert "--eta" in err


def test_simulate_table2_echoes_spike(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "table2", "--eta", "0.5", "--n", "50",
         "--reps", "2"], capsys)
    assert code == 0
    assert f"lambda1={1.0 + 50.0 ** -0.5:.6g}" in err


def test_simulate_table3b_echoes_n(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "table3b", "--p", "20", "--reps", "2"], capsys)
    assert code == 0
    assert "p=20" in err and " n=10 " in err


def test_simulate_custom_needs_growth_exponents(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "custom", "--p", "30", "--reps", "2"], capsys)
    assert code == 2
    assert "--delta" in err and "--beta" in err


def test_simulate_custom_runs(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scenario", "custom", "--p", "30", "--delta", "0.9",
         "--beta", "0.8", "--reps", "2"], capsys)
    assert code == 0
    assert parse_csv(out)[0] == ["estimator", "p=30"]


def test_simulate_custom_beta_above_one_exits_2(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "custom", "--p", "30", "--delta", "0.9",
         "--beta", "1.2", "--reps", "2"], capsys)
    assert code == 2
    assert "error:" in err and "beta" in err


def test_simulate_custom_second_spike_needs_positive_beta(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "custom", "--p", "30", "--delta", "0.9",
         "--beta", "0", "--beta2", "0.1", "--reps", "2"], capsys)
    assert code == 2
    assert "error:" in err and "beta2" in err


def test_simulate_keeps_grid_order(capsys):
    code, out, err = run_cli(
        ["simulate", "--scenario", "table3a", "--p", "30,20", "--reps", "2"], capsys)
    assert code == 0
    assert parse_csv(out)[0] == ["estimator", "p=30", "p=20"]
    assert err.index("p=30:") < err.index("p=20:")


@pytest.mark.parametrize("argv, axis, off_axis", [
    (["--scenario", "table3a", "--n", "20"], "p", "n"),
    (["--scenario", "custom", "--delta", "0.8", "--beta", "0.8", "--n", "20"], "p", "n"),
    (["--scenario", "table1", "--p", "50"], "n", "p"),
])
def test_simulate_refuses_off_axis_size(capsys, argv, axis, off_axis):
    code, out, err = run_cli(["simulate", *argv, "--reps", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"grows along `--{axis}`" in err and f"`--{off_axis}`" in err


@pytest.mark.parametrize("argv", [
    ["--scenario", "table1", "--n", "20"],
    ["--scenario", "table2", "--eta", "0.5", "--n", "50"],
    ["--scenario", "table3a", "--p", "30"],
    ["--scenario", "table3b", "--p", "30"],
])
def test_simulate_and_bound_build_the_same_model(argv, capsys, monkeypatch):
    built = []
    for kind in (Traditional, WeakIdentifiability, LargePLargeN):
        def recording(self, size, seed, _model_spec=kind.model_spec):
            spec = _model_spec(self, size, seed)
            built.append(spec)
            return spec
        monkeypatch.setattr(kind, "model_spec", recording)
    assert main(["simulate", *argv, "--seed", "4", "--reps", "1", "--workers", "1"]) == 0
    assert main(["bound", *argv, "--seed", "4"]) == 0
    capsys.readouterr()
    sim, bnd = built
    assert (sim.p, sim.q, sim.n, sim.master_seed) == (bnd.p, bnd.q, bnd.n, bnd.master_seed)
    assert sim.lambdas.tobytes() == bnd.lambdas.tobytes()
    assert sim.gamma_basis.tobytes() == bnd.gamma_basis.tobytes()


def test_simulate_markdown(capsys):
    code, out, _ = run_cli(
        ["simulate", "--scenario", "table1", "--n", "10", "--reps", "2",
         "--format", "markdown"], capsys)
    assert code == 0
    assert out.lstrip().startswith("|")


def test_simulate_infeasible_size_exits_2(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "table1", "--n", "6", "--reps", "2"], capsys)
    assert code == 2
    assert "error:" in err


def test_simulate_cost_limit_exits_2(capsys):
    code, _, err = run_cli(
        ["simulate", "--scenario", "table1", "--n", "500", "--reps", "100000",
         "--cost-limit", "1e-9"], capsys)
    assert code == 2
    assert "exceeds" in err


def test_workers_env_override(capsys, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    code, _, err = run_cli(
        ["simulate", "--scenario", "table1", "--n", "10", "--reps", "4"], capsys)
    assert code == 0
    assert "workers=2" in err
    monkeypatch.setenv(WORKERS_ENV, "lots")
    code, _, err = run_cli(
        ["simulate", "--scenario", "table1", "--n", "10", "--reps", "4"], capsys)
    assert code == 2
    assert WORKERS_ENV in err


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------


def test_estimate_report_layout(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path, n=66, p=10, q=5)
    code, out, err = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    assert "data: n=66 p=10 q=5" in err
    lines = out.splitlines()
    preamble = [ln for ln in lines if ln.startswith("#")]
    assert preamble[0] == "# n = 66, p = 10, q = 5"
    keys = [ln.split("=")[0].strip("# ") for ln in preamble[1:]]
    assert keys == ["lambda1_hat", "lambda2_hat", "contribution_ratio_1",
                    "contribution_ratio_2", "w_hat_raw", "w_hat"]
    rows = parse_csv("\n".join(ln for ln in lines if not ln.startswith("#")))
    assert rows[0] == ["coordinate", "total(w=0.5)", "residual(w=1)",
                       "regression(w=0)", "w=0.1", "w=0.2", "w=0.3", "w=0.4",
                       "w=0.6", "plugin"]
    assert len(rows) == 1 + 10


def test_estimate_noiseless_recovery(tmp_path, capsys):
    ypath, xpath, gamma = dataset_files(tmp_path, n=20, p=5, q=2, noise=1e-9)
    code, out, _ = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    rows = parse_csv("\n".join(
        ln for ln in out.splitlines() if not ln.startswith("#")))
    mat = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    for j in range(mat.shape[1]):
        vec = mat[:, j]
        assert 2.0 - 2.0 * abs(vec @ gamma) <= 1e-6


def test_estimate_row_mismatch_names_both_counts(tmp_path, capsys):
    long_dir, short_dir = tmp_path / "long", tmp_path / "short"
    long_dir.mkdir()
    short_dir.mkdir()
    ypath, _, _ = dataset_files(long_dir, n=66, p=4, q=2)
    _, xpath, _ = dataset_files(short_dir, n=60, p=4, q=2)
    code, _, err = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 2
    assert "66" in err and "60" in err


def test_estimate_requires_both_files(tmp_path, capsys):
    ypath, _, _ = dataset_files(tmp_path)
    code, _, err = run_cli(["estimate", "--y", ypath], capsys)
    assert code == 2
    assert "--x" in err


def test_estimate_one_response_column_exits_2(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path, n=20, p=1, q=2)
    code, _, err = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 2
    assert "error: need at least two response coordinates" in err


def test_estimate_custom_weight_grid(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path)
    code, out, _ = run_cli(
        ["estimate", "--y", ypath, "--x", xpath, "--weights", "0.25"], capsys)
    assert code == 0
    header = parse_csv("\n".join(
        ln for ln in out.splitlines() if not ln.startswith("#")))[0]
    assert header == ["coordinate", "total(w=0.5)", "residual(w=1)",
                      "regression(w=0)", "w=0.25", "plugin"]
    code, _, err = run_cli(
        ["estimate", "--y", ypath, "--x", xpath, "--weights", "1.5"], capsys)
    assert code == 2
    assert "[0, 1]" in err


def test_estimate_out_file_atomic(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path)
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["estimate", "--y", ypath, "--x", xpath, "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# n = 30")
    assert not list(tmp_path.glob("*.part"))


# --------------------------------------------------------------------------
# cv
# --------------------------------------------------------------------------


def test_cv_default_rows(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path, n=30, p=4, q=2)
    code, out, err = run_cli(["cv", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    assert "data: n=30" in err
    rows = parse_csv(out)
    assert rows[0] == ["rule", "mspe"]
    assert [r[0] for r in rows[1:]] == [
        "total(w=0.5)", "residual(w=1)", "regression(w=0)", "w=0.1", "w=0.2",
        "w=0.3", "w=0.4", "w=0.6", "plugin", "ols"]
    for r in rows[1:]:
        assert len(r[1].rsplit(".", 1)[1]) == 3  # three decimals


def test_cv_noiseless_everything_near_zero(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path, n=24, p=4, q=2, noise=1e-9)
    code, out, _ = run_cli(["cv", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    for r in parse_csv(out)[1:]:
        assert r[1] == "0.000"


def test_cv_more_responses_than_fold_rows_matches_refit(tmp_path, capsys, loo_refit):
    # p = 15 > n - 1 = 11: every fold's scatter matrices are rank deficient
    ypath, xpath, _ = dataset_files(tmp_path, n=12, p=15, q=2)
    code, out, _ = run_cli(["cv", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    y = _read_matrix_csv(ypath, "y")
    x = _read_matrix_csv(xpath, "x")
    data = allopca.Dataset(y, allopca.center_columns(x))
    rules = [allopca.FixedWeight(w) for w in (0.5, 1.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.6)]
    rules += [allopca.PluginRule(), allopca.OlsRule()]
    printed = [r[1] for r in parse_csv(out)[1:]]
    assert printed == [f"{loo_refit(data, rule):.3f}" for rule in rules]


def test_cv_degrees_of_freedom_exit(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path, n=5, p=3, q=2)
    code, _, err = run_cli(["cv", "--y", ypath, "--x", xpath], capsys)
    assert code == 2
    assert "fold" in err


# --------------------------------------------------------------------------
# bound
# --------------------------------------------------------------------------


def test_bound_c_zero_gives_half(capsys):
    code, out, _ = run_cli(
        ["bound", "--a", "5", "--b", "2", "--c", "0", "--d", "1",
         "--q", "2", "--n", "12"], capsys)
    assert code == 0
    rows = {r[0]: r[1] for r in parse_csv(out)[1:]}
    assert float(rows["w_star"]) == 0.5
    assert abs(float(rows["grid_argmin"]) - 0.5) <= 1e-4


def test_bound_unit_example(capsys):
    code, out, err = run_cli(
        ["bound", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
         "--q", "1", "--n", "100"], capsys)
    assert code == 0
    assert "params: a=1" in err
    rows = parse_csv(out)
    table = {r[0]: r[1] for r in rows[1:]}
    assert float(table["w_star"]) == pytest.approx(0.6, abs=1e-15)
    assert len(rows) == 1 + 3 + 11  # header, summary rows, bound grid
    assert "bound(w=0.0)" in table and "bound(w=1.0)" in table


def test_bound_missing_flags_are_named(capsys):
    code, _, err = run_cli(["bound", "--a", "1", "--b", "1", "--n", "12"], capsys)
    assert code == 2
    for flag in ("--c", "--d", "--q"):
        assert flag in err


def test_bound_invalid_params_exit_2(capsys):
    code, _, err = run_cli(
        ["bound", "--a", "1", "--b", "1", "--c", "1", "--d", "-1",
         "--q", "1", "--n", "12"], capsys)
    assert code == 2
    assert "error:" in err


def test_bound_refuses_custom_scenario(capsys):
    code, _, err = run_cli(["bound", "--scenario", "custom", "--p", "50"], capsys)
    assert code == 2
    assert "custom" in err


def test_bound_scenario_needs_a_single_size(capsys):
    code, _, err = run_cli(["bound", "--scenario", "table3b", "--p", "50,100"], capsys)
    assert code == 2
    assert "single `--p`" in err


@pytest.mark.parametrize("argv, axis, off_axis", [
    (["--scenario", "table1", "--n", "20", "--p", "50"], "n", "p"),
    (["--scenario", "table3b", "--p", "100", "--n", "20"], "p", "n"),
])
def test_bound_refuses_off_axis_size(capsys, argv, axis, off_axis):
    code, out, err = run_cli(["bound", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"grows along `--{axis}`" in err and f"`--{off_axis}`" in err


def test_bound_from_scenario(capsys):
    code, out, err = run_cli(
        ["bound", "--scenario", "table1", "--n", "20"], capsys)
    assert code == 0
    assert "params: a=" in err
    table = {r[0]: r[1] for r in parse_csv(out)[1:]}
    assert 0.0 < float(table["w_star"]) < 2.0 / 3.0


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------


def test_config_fills_missing_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nscenario = table1\nn = 10,12\nreps = 2\n")
    code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0
    assert parse_csv(out)[0] == ["estimator", "n=10", "n=12"]


def test_config_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = table1\nn = 10\nreps = 50\n")
    code, _, err = run_cli(
        ["simulate", "--config", str(cfg), "--reps", "2"], capsys)
    assert code == 0
    assert "replications=2" in err


@pytest.mark.parametrize("command, scenario, axis, off_axis", [
    ("simulate", "table3a", "p", "n"),
    ("bound", "table1", "n", "p"),
])
def test_config_off_axis_size_is_refused(tmp_path, capsys, command, scenario, axis, off_axis):
    cfg = tmp_path / "run.cfg"
    reps = "reps = 1\n" if command == "simulate" else ""  # `bound` takes no `reps`
    cfg.write_text(f"scenario = {scenario}\n{axis} = 50\n{off_axis} = 20\n{reps}")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"grows along `--{axis}`" in err and f"config key `{off_axis}`" in err


@pytest.mark.parametrize("argv, option", [
    (["simulate", "--scenario", "table1", "--n", "20", "--reps", "1", "--eta", "0.5"], "eta"),
    (["simulate", "--scenario", "table3b", "--p", "20", "--reps", "1",
      "--delta", "0.5", "--beta", "0.3"], "delta"),
    (["simulate", "--scenario", "table2", "--eta", "1", "--n", "20", "--reps", "1",
      "--beta2", "0.4"], "beta2"),
    (["bound", "--scenario", "table1", "--n", "20", "--eta", "3"], "eta"),
    (["bound", "--scenario", "table3b", "--p", "50", "--a", "1", "--b", "2", "--c", "3",
      "--d", "1", "--q", "2"], "a"),
    (["bound", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--q", "1", "--n", "12",
      "--eta", "3"], "eta"),
    (["bound", "--a", "1", "--b", "1", "--c", "1", "--d", "1", "--q", "1", "--n", "12",
      "--seed", "3"], "seed"),
])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_unread_scenario_option_is_refused(tmp_path, capsys, argv, option, source):
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key[2:]} = {val}\n" for key, val in zip(argv[1::2], argv[2::2])))
        argv = [argv[0], "--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"`--{option}` (config key `{option}`)" in err


def test_config_unknown_key_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("verbose = 1\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert f"{cfg}:1" in err and "verbose" in err


def test_config_malformed_line_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = table1\njust words\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert f"{cfg}:2" in err


def test_config_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("argv", [
    ["cv", "--workers", "0", "--format", "markdown"],
    ["cv", "--seed", "1"],
    ["estimate", "--format", "markdown"],
    ["estimate", "--workers", "2"],
    ["bound", "--format", "markdown"],
    ["bound", "--workers", "2"],
])
def test_subcommands_take_only_their_options(tmp_path, argv):
    ypath, xpath, _ = dataset_files(tmp_path)
    data = ["--y", ypath, "--x", xpath] if argv[0] != "bound" else ["--scenario", "table1", "--n", "20"]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *data, *argv[1:]])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, key", [
    ("estimate", "reps"), ("estimate", "scenario"), ("estimate", "cost_limit"),
    ("cv", "workers"), ("cv", "format"), ("bound", "format"), ("bound", "reps"),
])
def test_config_key_of_another_command_is_refused(tmp_path, capsys, command, key):
    ypath, xpath, _ = dataset_files(tmp_path)
    cfg = tmp_path / "run.cfg"
    base = f"y = {ypath}\nx = {xpath}\n" if command != "bound" else "scenario = table1\nn = 20\n"
    cfg.write_text(base + f"{key} = 3\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:3" in err and f"`{command}` takes no config key `{key}`" in err


@pytest.mark.parametrize("line, message", [
    ("format = latex", "choose from csv, markdown"),
    ("cost_limit = soon", "bad value for `cost_limit`"),
    ("workers = 1.5", "bad value for `workers`"),
])
def test_config_values_parse_like_their_flags(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = table1\nn = 10\nreps = 1\n{line}\n")
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:4" in err and message in err


@pytest.mark.parametrize("command", ["simulate", "bound"])
def test_empty_size_list_exits_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", "table1", "--n", ","])
    assert exc.value.code == 2
    assert "expected at least one integer" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = table1\nn = ,\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:2: bad value for `n`: expected at least one integer" in err


@pytest.mark.parametrize("command", ["estimate", "cv"])
@pytest.mark.parametrize("value", [",", "", " , "])
def test_empty_weight_list_exits_2(tmp_path, capsys, command, value):
    # an empty `--weights` list used to drop the whole fixed grid and exit 0
    ypath, xpath, _ = dataset_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--y", ypath, "--x", xpath, "--weights", value])
    assert exc.value.code == 2
    assert "expected at least one number" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"y = {ypath}\nx = {xpath}\nweights = {value}\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:3: bad value for `weights`: expected at least one number" in err


# --------------------------------------------------------------------------
# CSV interchange
# --------------------------------------------------------------------------


def test_matrix_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((7, 3)) * np.logspace(-8, 8, 3)
    path = tmp_path / "m.csv"
    write_matrix_csv(str(path), mat)
    assert np.array_equal(_read_matrix_csv(str(path), "--y"), mat)


def test_matrix_header_autodetect(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("height,width\n1.5,2.5\n3.5,4.5\n")
    mat = _read_matrix_csv(str(path), "--y")
    assert np.array_equal(mat, [[1.5, 2.5], [3.5, 4.5]])


def test_matrix_ragged_row_diagnostic(tmp_path, capsys):
    ypath = tmp_path / "y.csv"
    ypath.write_text("1.0,2.0\n3.0\n")
    xpath = tmp_path / "x.csv"
    xpath.write_text("0.1\n-0.1\n")
    code, _, err = run_cli(
        ["estimate", "--y", str(ypath), "--x", str(xpath)], capsys)
    assert code == 2
    assert "row 2" in err and "1 fields" in err and "expected 2" in err


def test_garbage_file_never_panics(tmp_path, capsys):
    ypath = tmp_path / "y.csv"
    ypath.write_text("alpha,beta\n1.0,2.0\nxyz,3.0\n")
    xpath = tmp_path / "x.csv"
    xpath.write_text("0.1\n-0.1\n0.2\n")
    code, _, err = run_cli(
        ["estimate", "--y", str(ypath), "--x", str(xpath)], capsys)
    assert code == 2
    assert "row 3" in err


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def check_entry_point(launcher, env=None):
    """Run `bound` and `--help` as separate processes through `launcher`."""
    proc = subprocess.run(
        launcher + ["bound", "--a", "1", "--b", "1", "--c", "1", "--d", "1",
                    "--q", "1", "--n", "100"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "w_star" in proc.stdout
    help_proc = subprocess.run(launcher + ["--help"], capture_output=True,
                               text=True, timeout=120, env=env)
    assert help_proc.returncode == 0
    assert "simulate" in help_proc.stdout


def test_entry_point_runs():
    # The child must import the package under test, whatever else is
    # installed and wherever pytest was started from.
    src = str(Path(allopca.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    check_entry_point([sys.executable, "-m", "allopca"], env=env)


@pytest.mark.skipif(shutil.which("allopca") is None,
                    reason="allopca console script not installed")
def test_console_script_runs():
    check_entry_point(["allopca"])


@pytest.mark.skipif(not PYPROJECT.is_file(),
                    reason="pyproject.toml not found (not a source checkout)")
def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["allopca"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
