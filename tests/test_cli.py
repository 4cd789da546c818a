"""Command-line interface tests, mostly in-process through main()."""

import argparse
import csv
import importlib
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import allopca
from allopca import LargePLargeN, Traditional, WeakIdentifiability, cli
from allopca.cli import _read_matrix_csv, build_parser, main


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
    np.savetxt(ypath, y, delimiter=",", fmt="%.17g")
    np.savetxt(xpath, x, delimiter=",", fmt="%.17g")
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
    assert "scenario table1: replications=3 seed=0\n" in err
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


@pytest.mark.parametrize("flags, name", [
    (["--delta", "inf", "--beta", "0.5"], "delta"),
    (["--delta", "nan", "--beta", "0.5"], "delta"),
    (["--delta", "400", "--beta", "0.5"], "delta"),  # 20^400 overflows a float
    (["--delta", "0.9", "--beta", "nan"], "beta"),
])
def test_simulate_custom_refuses_unusable_exponents(capsys, flags, name):
    code, out, err = run_cli(["simulate", "--scenario", "custom", *flags, "--p", "20",
                              "--reps", "1"], capsys)
    assert code == 2
    assert out == ""
    message = err.splitlines()[-1]
    assert message.startswith("error: ") and name in message


def test_simulate_refuses_a_point_too_large_to_draw(capsys):
    # n = 20^10 ~ 1.0e13 rows: refused before any draw, which no machine could allocate
    code, out, err = run_cli(["simulate", "--scenario", "custom", "--delta", "10",
                              "--beta", "0.5", "--p", "20"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith(
        "error: point 'p=20': one replication draws n * (p + q) = 256000000000000 floats")


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


def test_cost_guard(capsys, monkeypatch):
    # the command refuses a plan whose estimate exceeds the limit after printing
    # its points and before the first replication; a plan under the limit runs
    argv = ["simulate", "--scenario", "table1", "--n", "10,12", "--reps", "1000"]
    monkeypatch.setattr(cli, "run_experiment", lambda plan: pytest.fail("the plan ran"))
    code, out, err = run_cli([*argv, "--cost-limit", "1e-9"], capsys)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0] == "scenario table1: replications=1000 seed=0"
    assert [ln.split(":")[0] for ln in lines[1:3]] == ["  n=10", "  n=12"]
    assert re.fullmatch(r"error: estimated runtime \d+\.\ds exceeds the configured limit 0\.0s; "
                        r"reduce replications, grid or dimensions", lines[3])
    assert len(lines) == 4
    monkeypatch.undo()
    code, out, err = run_cli([*argv[:-1], "2", "--cost-limit", "1000"], capsys)
    assert code == 0, err
    assert out.startswith("estimator,n=10,n=12\n")


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_cost_limit_must_be_positive(tmp_path, capsys, value):
    argv = ["simulate", "--scenario", "table1", "--n", "10", "--reps", "1"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cost-limit", value])
    assert exc.value.code == 2
    assert f"expected a number > 0, got '{value}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cost_limit = {value}\n")
    code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {cfg}:1: bad value for `cost_limit`: "
                   f"expected a number > 0, got '{value}'\n")


def test_workers_accepts_only_one(tmp_path, capsys):
    # `--workers` stays parseable for existing command lines; replications
    # run in one process, so any count but 1 is refused
    argv = ["simulate", "--scenario", "table1", "--n", "10", "--reps", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "replications run in one process" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = table1\nn = 10\nreps = 2\nworkers = 2\n")
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:4: bad value for `workers`: replications run in one process" in err
    code, out, _ = run_cli([*argv, "--workers", "1"], capsys)
    assert code == 0
    assert out == run_cli(argv, capsys)[1]


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


def test_estimate_solves_every_column_in_one_eigensolve(tmp_path, capsys, monkeypatch):
    ypath, xpath, gamma = dataset_files(tmp_path)
    p = gamma.size
    calls = {"eigh": [], "eigvalsh": []}
    for name, seen in calls.items():
        def counted(a, *args, _orig=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(a.shape)
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    code, out, _ = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    header = next(ln for ln in out.splitlines() if not ln.startswith("#"))
    assert len(header.split(",")) == 1 + 9  # nine estimator columns
    # the fit check's eigenvalues of s_resid, then one stacked solve of the nine
    # blends by `eigvalsh` and inverse iteration, with no full `eigh`
    assert calls == {"eigh": [], "eigvalsh": [(1, 1, p, p), (9, p, p)]}


def _estimate_reference(ypath, xpath):
    """The `estimate` report through the one-fit library path, with all its checks."""
    data = allopca.Dataset(_read_matrix_csv(ypath, "--y"),
                           allopca.center_columns(_read_matrix_csv(xpath, "--x")))
    ss = allopca.sums_of_squares(data)
    pw = allopca.estimate_abcd(ss)
    tr_sig = float(np.trace(pw.sigma_hat))
    head = [f"# n = {data.n}, p = {data.p}, q = {data.q}",
            f"# lambda1_hat = {pw.lambda1_hat:.10g}", f"# lambda2_hat = {pw.lambda2_hat:.10g}",
            f"# contribution_ratio_1 = {pw.lambda1_hat / tr_sig:.10g}",
            f"# contribution_ratio_2 = {pw.lambda2_hat / tr_sig:.10g}",
            f"# w_hat_raw = {pw.w_hat_raw:.10g}", f"# w_hat = {pw.w_hat:.10g}",
            "coordinate,total(w=0.5),residual(w=1),regression(w=0),w=0.1,w=0.2,w=0.3,w=0.4,"
            "w=0.6,plugin"]
    weights = (0.5, 1.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.6, pw.w_hat)
    vectors = [allopca.gamma1_hat(ss, w).vector for w in weights]
    rows = [",".join([str(i + 1), *(f"{v[i]:.10g}" for v in vectors)]) for i in range(data.p)]
    return "\n".join(head + rows) + "\n"


@pytest.mark.parametrize("n, p, q", [(66, 10, 5), (30, 4, 2), (20, 12, 3)])
def test_estimate_computes_residual_eigenvalues_once(tmp_path, capsys, monkeypatch, n, p, q):
    ypath, xpath, _ = dataset_files(tmp_path, n=n, p=p, q=q)
    want = _estimate_reference(ypath, xpath)
    calls = []

    def counted(a, *args, _orig=np.linalg.eigvalsh, **kwargs):
        calls.append(a.shape)
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    code, out, _ = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    # the fit check's semidefiniteness test of s_resid, whose eigenvalues the
    # plug-in weight reuses (s_reg is a Gram, semidefinite by construction),
    # and the stacked solve of the nine blends
    assert calls == [(1, 1, p, p), (9, p, p)]
    assert out == want


def test_estimate_wide_fit_solves_in_sample_space(tmp_path, capsys, eig_sizes):
    # n - 1 = 11 < p = 40: no eigensolve sees a 40 x 40 matrix; one eigvalsh of
    # the 9 x 9 residual block (n - 1 - q), and every weight is solved at order 11
    ypath, xpath, _ = dataset_files(tmp_path, n=12, p=40, q=2)
    want = _estimate_reference(ypath, xpath)
    sizes = eig_sizes()
    code, out, _ = run_cli(["estimate", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    assert sizes.count(9) == 1 and set(sizes) == {9, 11}
    got, ref = (parse_csv("\n".join(ln for ln in text.splitlines() if not ln.startswith("#")))
                for text in (out, want))
    assert got[0] == ref[0]
    got = np.array([[float(c) for c in r[1:]] for r in got[1:]])
    ref = np.array([[float(c) for c in r[1:]] for r in ref[1:]])
    assert np.max(np.abs(got - ref)) <= 1e-9


def test_estimate_out_file_atomic(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path)
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["estimate", "--y", ypath, "--x", xpath, "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# n = 30")
    assert not list(tmp_path.glob("*.part"))


def test_estimate_without_residual_scatter_prints_nan_ratios(tmp_path, capsys):
    # constant responses: tr Sigma_hat = 0, so the contribution ratios are undefined
    _, xpath, _ = dataset_files(tmp_path, n=10, p=3, q=2)
    ypath = tmp_path / "zero.csv"
    np.savetxt(ypath, np.zeros((10, 3)), delimiter=",")
    code, out, err = run_cli(["estimate", "--y", str(ypath), "--x", xpath], capsys)
    assert code == 0, err
    preamble = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert preamble[1:] == ["# lambda1_hat = 0", "# lambda2_hat = 0",
                            "# contribution_ratio_1 = nan", "# contribution_ratio_2 = nan",
                            "# w_hat_raw = nan", "# w_hat = 0"]
    rows = parse_csv("\n".join(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert [r[1:] for r in rows[1:]] == [["0"] * 9, ["0"] * 9, ["1"] * 9]  # e_p, every column


@pytest.mark.parametrize("command", ["estimate", "cv"])
def test_gram_overflow_is_reported_without_a_warning(tmp_path, capsys, command):
    # a finite entry of 1e200 passes `Dataset` but overflows the scatter Grams
    ypath, xpath, _ = dataset_files(tmp_path, n=20, p=3, q=2)
    y = np.loadtxt(ypath, delimiter=",")
    y[2, 1] = 1e200
    np.savetxt(ypath, y, delimiter=",", fmt="%.17g")
    code, out, err = run_cli([command, "--y", ypath, "--x", xpath], capsys)
    assert code == 2
    assert out == ""
    assert "Warning" not in err
    assert re.fullmatch(r"error: `s_reg`( of a leave-one-out fold)? contains non-finite entries",
                        err.splitlines()[-1])


def test_huge_finite_response_is_reported_without_a_warning(tmp_path, capsys):
    # two entries of 1e308 in one column sum past the float range while centering
    _, xpath, _ = dataset_files(tmp_path, n=10, p=3, q=2)
    y = np.zeros((10, 3))
    y[2, 1] = y[5, 1] = 1e308
    ypath = tmp_path / "huge.csv"
    np.savetxt(ypath, y, delimiter=",", fmt="%.17g")
    code, out, err = run_cli(["estimate", "--y", str(ypath), "--x", xpath], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["data: n=10 p=3 q=2", "error: `s_reg` contains non-finite entries"]


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_out_into_a_missing_directory_is_refused_before_the_run(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.csv"
    if command == "simulate":
        argv = ["simulate", "--scenario", "table1", "--n", "20", "--reps", "2"]
    else:
        ypath, xpath, _ = dataset_files(tmp_path)
        argv = ["estimate", "--y", ypath, "--x", xpath]
    code, out, err = run_cli([*argv, "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write `--out` file {target}: its directory does not exist\n"
    assert not list(tmp_path.rglob("*.part"))


def test_out_write_failure_names_the_given_path(tmp_path, capsys):
    # the directory exists, so the command runs; the final rename onto a directory fails
    ypath, xpath, _ = dataset_files(tmp_path)
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = run_cli(["estimate", "--y", ypath, "--x", xpath, "--out", str(target)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: cannot write `--out` file {target}: ")
    assert ".part" not in err
    assert not list(tmp_path.rglob("*.part"))


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
        assert r[1] == f"{float(r[1]):.10g}"  # ten significant digits


def test_cv_noiseless_everything_near_zero(tmp_path, capsys):
    ypath, xpath, _ = dataset_files(tmp_path, n=24, p=4, q=2, noise=1e-9)
    code, out, _ = run_cli(["cv", "--y", ypath, "--x", xpath], capsys)
    assert code == 0
    for r in parse_csv(out)[1:]:
        assert 0.0 <= float(r[1]) < 5e-4  # "0.000" at three decimals


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
    printed = [float(r[1]) for r in parse_csv(out)[1:]]
    assert printed == pytest.approx([loo_refit(data, rule) for rule in rules], rel=1e-8)


def test_cv_scores_keep_their_ranking_at_any_scale(tmp_path, capsys):
    # y * 2^-180 printed every score as 0.000 at three decimals, and y * 2^170
    # printed 103 digits; at ten significant digits each scale ranks the rules alike
    ypath, xpath, _ = dataset_files(tmp_path, n=30, p=4, q=2, noise=0.5)
    y = np.loadtxt(ypath, delimiter=",")
    cells = {}
    for e in (0, -180, 170):
        scaled = tmp_path / f"y{e}.csv"
        np.savetxt(scaled, np.ldexp(y, e), delimiter=",", fmt="%.17g")
        code, out, err = run_cli(["cv", "--y", str(scaled), "--x", xpath], capsys)
        assert code == 0, err
        cells[e] = [r[1] for r in parse_csv(out)[1:]]
    ranking = sorted(range(len(cells[0])), key=lambda k: float(cells[0][k]))
    assert len(set(cells[0])) == len(cells[0])
    for e in (-180, 170):
        assert len(set(cells[e])) == len(cells[e])
        assert all(len(c) <= 16 for c in cells[e])
        assert sorted(range(len(cells[e])), key=lambda k: float(cells[e][k])) == ranking


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


def test_bound_refuses_a_step_below_one_millionth(capsys):
    code, out, err = run_cli(
        ["bound", "--a", "22", "--b", "6", "--c", "40", "--d", "1", "--q", "2", "--n", "50",
         "--step", "1e-300"], capsys)
    assert code == 2
    assert out == ""
    assert "error: `step` must lie in [1e-6, 0.01], got 1e-300" in err


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


def test_flag_equal_to_its_default_beats_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = table1\nn = 20\nreps = 2\nformat = markdown\nseed = 5\n")
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0 and out.startswith("| estimator") and "seed=5" in err
    code, out, err = run_cli(
        ["simulate", "--config", str(cfg), "--format", "csv", "--seed", "0"], capsys)
    assert code == 0 and parse_csv(out)[0] == ["estimator", "n=20"] and "seed=0" in err


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


def test_config_with_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark must not become part of the first key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text("reps = 2\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    argv = ["simulate", "--scenario", "table1", "--n", "20", "--config"]
    want = run_cli([*argv, str(plain)], capsys)
    assert want[0] == 0 and "replications=2" in want[2]
    assert run_cli([*argv, str(marked)], capsys) == want


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
    np.savetxt(path, mat, delimiter=",", fmt="%.17g")
    assert np.array_equal(_read_matrix_csv(str(path), "--y"), mat)


def test_matrix_header_autodetect(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("height,width\n1.5,2.5\n3.5,4.5\n")
    mat = _read_matrix_csv(str(path), "--y")
    assert np.array_equal(mat, [[1.5, 2.5], [3.5, 4.5]])


@pytest.mark.parametrize("command", ["estimate", "cv"])
def test_byte_order_mark_is_not_a_header(tmp_path, capsys, command):
    # a UTF-8 byte-order mark must not turn the first numeric row into a header
    ypath, xpath, _ = dataset_files(tmp_path, n=20, p=4, q=2)
    plain = run_cli([command, "--y", ypath, "--x", xpath], capsys)
    marked = []
    for path in (ypath, xpath):
        target = tmp_path / f"bom_{Path(path).name}"
        target.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        marked += [str(target)]
    assert _read_matrix_csv(marked[0], "--y").shape == (20, 4)
    assert run_cli([command, "--y", marked[0], "--x", marked[1]], capsys) == plain
    assert plain[0] == 0 and "data: n=20 " in plain[2]


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


def child_env():
    """Environment in which a child imports the package under test,
    whatever else is installed and wherever pytest was started from."""
    src = str(Path(allopca.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_entry_point_runs():
    check_entry_point([sys.executable, "-m", "allopca"], env=child_env())


def test_cli_import_loads_no_process_pool():
    # a process pool's imports cost startup time and memory on every command
    code = ("import sys, allopca.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent.futures'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_bits_do_not_depend_on_the_blas_thread_count():
    # the random basis of table3b at p = 100 was the first thing to move with
    # the thread count; the digests reach p = 200 (at p = 400 they still move
    # with it); only each child's environment sets it
    argv = ["simulate", "--scenario", "table3b", "--p", "20,50,100", "--reps", "20"]
    digests = ("import json; from allopca import STRONG_SPIKE, run_experiment, scenario_plan; "
               "print(json.dumps(run_experiment(scenario_plan(STRONG_SPIKE, [20, 50, 100, 200], "
               "20, 0)).metadata['digests']))")
    runs = []
    for threads in ("1", "2"):
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads}
        out = []
        for cmd in ([sys.executable, "-m", "allopca", *argv], [sys.executable, "-c", digests]):
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        runs.append(out)
    assert runs[0] == runs[1]


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.skipif(not README.is_file(), reason="README.md not found (not a source checkout)")
def test_readme_option_table_matches_parser():
    documented = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(\w+)` \| (`--.*) \|$", line)
        if row:
            documented[row[1]] = re.findall(r"`(--[\w-]+)`", row[2])
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actual = {name: [opt for a in sub._actions for opt in a.option_strings
                     if opt.startswith("--") and opt != "--help"]
              for name, sub in subparsers.choices.items()}
    assert documented == actual


@pytest.mark.skipif(not README.is_file(), reason="README.md not found (not a source checkout)")
def test_readme_command_lines_parse():
    commands = [shlex.split(line) for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("allopca ")]
    assert len(commands) >= 9
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_help_shows_each_declared_default():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    shown = 0
    for sub in subparsers.choices.values():
        text = " ".join(sub.format_help().split())
        for action in sub._actions:
            if action.option_strings and action.default not in (None, argparse.SUPPRESS):
                value = action.default
                value = ",".join(map(str, value)) if isinstance(value, tuple) else value
                assert f"(default {value})" in text, action.dest
                shown += 1
    assert shown == 6  # --reps, --format, --seed; --weights twice; --step


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


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_failed_eigendecomposition_check_exits_1(tmp_path, capsys, monkeypatch, command):
    # an eigensolver whose leading eigenvalue is off by 0.1% fails the internal checks,
    # which exit 1 ("numeric failure"), not 2 (usage or validation)
    def skewed(a, *args, _orig=np.linalg.eigvalsh, **kwargs):
        vals = _orig(a, *args, **kwargs)
        vals[..., -1] *= 1.001
        return vals

    if command == "simulate":
        argv = ["simulate", "--scenario", "table1", "--n", "20", "--reps", "2"]
    else:
        ypath, xpath, _ = dataset_files(tmp_path)
        argv = ["estimate", "--y", ypath, "--x", xpath]
    monkeypatch.setattr(np.linalg, "eigvalsh", skewed)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("numeric failure: ")
