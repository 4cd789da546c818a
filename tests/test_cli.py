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
from allopca import AbcdParams, cli, harness, simgen
from allopca.cli import CliError, _read_matrix_csv, build_parser, main
from allopca.errors import NumericFailure


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
    # bound reads the spectrum of the model that simulate builds, and draws no basis
    specs, params = [], []
    run = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda plan: specs.extend(plan.points) or run(plan))
    monkeypatch.setattr(cli, "w_star", lambda p, _w=cli.w_star: params.append(p) or _w(p))
    assert main(["simulate", *argv, "--seed", "4", "--reps", "1", "--workers", "1"]) == 0

    def refuse(*args):
        raise AssertionError("random_gamma called")

    monkeypatch.setattr(simgen, "random_gamma", refuse)
    assert main(["bound", *argv]) == 0
    capsys.readouterr()
    (spec,), (got,) = specs, params
    c = float(spec.alpha @ spec.alpha) * (spec.n - 1)
    assert got == AbcdParams.from_spectrum(spec.lambdas, c, spec.q, spec.n)


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


def _refuse_to_draw(*args):
    raise AssertionError("a basis was drawn")


def test_cost_guard(capsys, monkeypatch):
    # the command refuses a plan whose estimate exceeds the limit from its sizes,
    # before any line is printed and any basis drawn; a plan under the limit runs
    argv = ["simulate", "--scenario", "table1", "--n", "10,12", "--reps", "1000"]
    monkeypatch.setattr(simgen, "random_gamma", _refuse_to_draw)
    monkeypatch.setattr(cli, "run_experiment", lambda plan: pytest.fail("the plan ran"))
    code, out, err = run_cli([*argv, "--cost-limit", "1e-9"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: estimated runtime \d+\.\ds exceeds the configured limit 0\.0s; "
                        r"reduce replications, grid or dimensions\n", err)
    monkeypatch.undo()
    code, out, err = run_cli([*argv[:-1], "2", "--cost-limit", "1000"], capsys)
    assert code == 0, err
    assert out.startswith("estimator,n=10,n=12\n")


def test_cost_guard_prices_the_basis_before_drawing_it(capsys, monkeypatch):
    # table3b at p = 2400 spends about 18 s on its basis alone (a p x p `eigh`)
    monkeypatch.setattr(simgen, "random_gamma", _refuse_to_draw)
    code, out, err = run_cli(["simulate", "--scenario", "table3b", "--p", "2400", "--reps", "1",
                              "--cost-limit", "0.001"], capsys)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: estimated runtime (1[5-9]|2\d)\.\ds exceeds the configured "
                        r"limit 0\.0s; reduce replications, grid or dimensions\n", err)


def test_cost_guard_compares_the_scenarios_estimate(capsys, monkeypatch):
    # a limit equal to the scenario's estimate runs the plan, and the float just
    # below refuses it
    seconds = harness._scenario_seconds(allopca.STRONG_SPIKE, [20, 50], 2)
    argv = ["simulate", "--scenario", "table3b", "--p", "20,50", "--reps", "2"]
    ran = []

    def record(plan):
        ran.append(plan)
        raise NumericFailure("recorded")

    monkeypatch.setattr(cli, "run_experiment", record)
    assert run_cli([*argv, "--cost-limit", repr(seconds)], capsys)[0] == 1
    assert [spec.p for spec in ran[0].points] == [20, 50] and ran[0].replications == 2
    code, _, err = run_cli([*argv, "--cost-limit", repr(float(np.nextafter(seconds, 0.0)))],
                           capsys)
    assert code == 2 and err.startswith("error: estimated runtime ")


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
    # blends by `eigvalsh` and inverse iteration, with no full `eigh`; the
    # residual(w=1) blend is s_resid, whose spectrum the check has computed
    assert calls == {"eigh": [], "eigvalsh": [(1, p, p), (8, p, p)]}


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
    # plug-in weight and the w = 1 blend reuse (s_reg is a Gram, semidefinite
    # by construction), and the stacked solve of the other eight blends
    assert calls == [(1, p, p), (8, p, p)]
    assert out == want



def test_cv_decomposes_each_fold_spectrum_once(tmp_path, capsys, monkeypatch):
    # the bench's shape, n = 50, p = 10, q = 5: the full fit's check of s_resid,
    # one eigh of the full S(w) per distinct fixed weight (8), whose rank-two
    # updates give every fold's fixed-weight axes, then the semidefiniteness
    # check of the 50 folds' s_resid and the plug-in rule's 50 blends; no
    # (fold, fixed weight) matrix is decomposed
    ypath, xpath, _ = dataset_files(tmp_path, n=50, p=10, q=5)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, a.shape))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code, out, _ = run_cli(["cv", "--y", ypath, "--x", xpath], capsys)
    assert code == 0 and out.count("\n") == 1 + 10
    assert calls == [("eigvalsh", (1, 10, 10)), ("eigh", (8, 10, 10)),
                     ("eigvalsh", (50, 10, 10)), ("eigvalsh", (50, 10, 10))]

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


def test_estimate_and_cv_of_huge_data_warn_of_nothing(tmp_path, capsys):
    # at y * 2^300 the plug-in's tr(Sigma^2) and a_hat, of degree 4, pass the
    # float range; no command prints them, and they scale back with no warning
    ypath, xpath, _ = dataset_files(tmp_path)
    huge = str(tmp_path / "huge.csv")
    np.savetxt(huge, np.ldexp(np.loadtxt(ypath, delimiter=","), 300), delimiter=",", fmt="%.17g")
    outs = {}
    for path in (ypath, huge):
        for command in ("estimate", "cv"):
            code, out, err = run_cli([command, "--y", path, "--x", xpath], capsys)
            assert code == 0 and err == "data: n=30 p=4 q=2\n", err
            outs[path, command] = out
    base, scaled = ([ln for ln in outs[path, "estimate"].splitlines() if ln.startswith("# w_hat")]
                    for path in (ypath, huge))
    assert scaled == base and len(base) == 2
    base, scaled = (parse_csv(outs[path, "cv"]) for path in (ypath, huge))
    assert [r[0] for r in scaled] == [r[0] for r in base]
    assert ([float(r[1]) for r in scaled[1:]]
            == pytest.approx([float(r[1]) * 4.0 ** 300 for r in base[1:]], rel=1e-9))


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


@pytest.mark.parametrize("summaries", [["4e300", "2e150", "3e150", "1e150"],
                                       [str(np.ldexp(4.0, -1000)), *(str(np.ldexp(v, -500))
                                                                     for v in (2.0, 3.0, 1.0))]],
                         ids=["4e300", "2^-500"])
def test_bound_of_summaries_at_any_scale(capsys, summaries):
    # the weight and the bound are scale-free; at the ends of the float range the
    # plain formulas gave w = nan (exit 2) or divided by zero (exit 1)
    flags = ["--a", "--b", "--c", "--d"]
    tables = []
    for values in (["4", "2", "3", "1"], summaries):
        code, out, err = run_cli(["bound", *(t for pair in zip(flags, values) for t in pair),
                                  "--q", "1", "--n", "10"], capsys)
        assert code == 0, err
        assert err.startswith("params: ") and err.count("\n") == 1
        tables.append({r[0]: float(r[1]) for r in parse_csv(out)[1:]})
    assert tables[1]["w_star"] == tables[0]["w_star"] == 0.5
    assert tables[1] == pytest.approx(tables[0], rel=1e-14)


def test_bound_past_the_float_range_reads_inf(capsys):
    # bound(1) = 8 a (n - 1 - q) / (d (n - 1 - q))^2 is about 1e600 here
    code, out, err = run_cli(["bound", "--a", "1", "--b", "1", "--c", "1", "--d", "1e-300",
                              "--q", "1", "--n", "10"], capsys)
    assert code == 0
    assert err == "params: a=1 b=1 c=1 d=1e-300 q=1 n=10\n"
    table = {r[0]: r[1] for r in parse_csv(out)[1:]}
    assert table["bound(w=1.0)"] == "inf" and float(table["bound(w=0.0)"]) == pytest.approx(24.0)


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
      "--p", "30"], "p"),
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



def _exit_and_output(argv, capsys):
    """`main(argv)`'s exit code, stdout and stderr, through argparse's exits too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_main_prints_the_full_parsers_bytes(tmp_path, capsys, monkeypatch, columns):
    # `main` builds only the invoked subcommand's options; every help and usage
    # error is the full parser's, byte for byte, at any terminal width
    monkeypatch.setenv("COLUMNS", columns)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 2\n")  # a `simulate` key
    cases = [["--help"], ["-h"], ["-h", "cv"],
             *([name, "--help"] for name in ("simulate", "estimate", "cv", "bound")),
             [], ["frobnicate"], ["cv", "--bogus"], ["cv", "--config", str(cfg)],
             ["bound", "--reps", "2"], ["estimate", "--weights"],
             ["simulate", "--reps", "many"], ["cv", "stray"], ["simulate", "--format", "html"]]
    lazy = [_exit_and_output(argv, capsys) for argv in cases]
    monkeypatch.setattr(cli, "build_parser", lambda command=None, _full=build_parser: _full())
    full = [_exit_and_output(argv, capsys) for argv in cases]
    assert lazy == full
    assert [code for code, *_ in full] == [0] * 7 + [2] * 9
    assert full[2][1] == full[0][1] and "{simulate,estimate,cv,bound}" in full[0][1]
    assert full[7][2].endswith("error: the following arguments are required: command\n")
    assert "invalid choice: 'frobnicate'" in full[8][2]
    assert full[9][2].endswith("error: unrecognized arguments: --bogus\n")
    assert full[10][2] == f"error: {cfg}:1: `cv` takes no config key `reps`\n"
    # a bad value and a bad choice are the subcommand's errors; a stray positional is
    # the top level's, under a usage that lists every subcommand
    assert "argument --reps: invalid int value: 'many'" in full[13][2]
    assert full[14][2].startswith("usage: allopca [-h]")
    assert "{simulate,estimate,cv,bound}" in full[14][2]
    assert full[14][2].endswith("error: unrecognized arguments: stray\n")
    assert "argument --format: invalid choice: 'html'" in full[15][2]


def test_a_cv_call_builds_no_other_subcommands_options(tmp_path, capsys, monkeypatch):
    # a named command's parser holds that subcommand alone; `--help` builds all four
    ypath, xpath, _ = dataset_files(tmp_path)
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None, _real=build_parser: built.append(_real(command))
                        or built[-1])
    assert run_cli(["cv", "--y", ypath, "--x", xpath], capsys)[0] == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    options = []
    for parser in built:
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options.append({name: [a.dest for a in each._actions]
                        for name, each in subs.choices.items()})
    data = ["help", "y", "x", "weights", "config", "out"]
    assert options[0] == {"cv": data}
    assert options[1]["estimate"] == options[1]["cv"] == data
    assert len(options[1]["simulate"]) == 15 and len(options[1]["bound"]) == 13

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
    # the first row is a header only if none of its cells is a number
    path = tmp_path / "m.csv"
    data = b"1.5,2.5\n3.5,4.5\n"
    for head, rows in ((b"height,width\n", 2), (b"\xef\xbb\xbfheight,width\n", 2),
                       (b"\xef\xbb\xbf1.0,2.0\n", 3), (b"1.0,2.0\n", 3)):
        path.write_bytes(head + data)
        mat = _read_matrix_csv(str(path), "--y")
        assert mat.tolist() == [[1.0, 2.0], [1.5, 2.5], [3.5, 4.5]][3 - rows:]


def test_typo_in_the_first_row_is_reported_not_skipped(tmp_path, capsys):
    # `2.o` leaves the row's other cell a number, so the row is data, not a header
    path = tmp_path / "y.csv"
    path.write_text("1.0,2.o\n3.0,4.0\n5.0,6.5\n")
    want = f"`--y` file {path}: row 1: could not convert string to float: '2.o'"
    with pytest.raises(CliError) as exc:
        _read_matrix_csv(str(path), "--y")
    assert str(exc.value) == want
    xpath = tmp_path / "x.csv"
    xpath.write_text("0.1\n-0.2\n0.1\n")
    assert run_cli(["estimate", "--y", str(path), "--x", str(xpath)], capsys) == (
        2, "", f"error: {want}\n")


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


# file bytes -> the matrix read, or the error after "`--y` file PATH"
CSV_CASES = {
    "plain": (b"1.5,2.5\n3.5,4.5\n", [[1.5, 2.5], [3.5, 4.5]]),
    "crlf and cr line ends": (b"1.5,2.5\r\n3.5,4.5\r5,6", [[1.5, 2.5], [3.5, 4.5], [5.0, 6.0]]),
    "byte-order mark": (b"\xef\xbb\xbf1.5,2.5\n", [[1.5, 2.5]]),
    "header": (b"height,width\n1.5,2.5\n", [[1.5, 2.5]]),
    "mark and header": (b"\xef\xbb\xbfheight,width\n1.5,2.5\n", [[1.5, 2.5]]),
    "blank rows": (b"\n1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    "whitespace-only rows": (b" \t\n1,2\n   \n3,4\n\x0c\n", [[1.0, 2.0], [3.0, 4.0]]),
    "all-comma rows": (b",,\nh,w\n , \n1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "padded cells": (b" 1 ,\t2\n3,4 \n", [[1.0, 2.0], [3.0, 4.0]]),
    "one column": (b"1\n-2e-3\n", [[1.0], [-2e-3]]),
    "specials": (b"nan,inf,-0,1e999,-Infinity,1e-400\n",
                 [[np.nan, np.inf, -0.0, np.inf, -np.inf, 0.0]]),
    "quoted cells": (b'"1.5","2"\n3,"4"\n', [[1.5, 2.0], [3.0, 4.0]]),
    "quoted header": (b'"h","w"\n1,2\n', [[1.0, 2.0]]),
    "underscores": (b"1_000,2\n3,4_5.5\n", [[1000.0, 2.0], [3.0, 45.5]]),
    "non-ASCII digits": ("\u0661\u0662,\uff13\n4,5\n".encode(), [[12.0, 3.0], [4.0, 5.0]]),
    "comment mark": (b"1,2 # note\n3,4\n",
                     ": row 1: could not convert string to float: '2 # note'"),
    "hash only": (b"1,2\n#,4\n", ": row 2: could not convert string to float: '#'"),
    "trailing comma": (b"1,2,\n3,4,\n", ": row 1: could not convert string to float: ''"),
    "trailing comma in row 2": (b"1,2\n3,4,\n", ": row 2 has 3 fields, expected 2"),
    "ragged row": (b"1,2\n3\n", ": row 2 has 1 fields, expected 2"),
    "typo in row 1": (b"1.0,2.o\n3.0,4.0\n", ": row 1: could not convert string to float: '2.o'"),
    "typo past a header": (b"h,w\n1,2\nx,3\n", ": row 3: could not convert string to float: 'x'"),
    "hexadecimal": (b"0x10,2\n", ": row 1: could not convert string to float: '0x10'"),
    "quote never closed": (b'"h\n1,2\n3,4\n', " has a header but no data rows"),
    "empty file": (b"", " is empty"),
    "blank file": (b"\xef\xbb\xbf\n \n,,\n", " is empty"),
    "header only": (b"h,w\n", " has a header but no data rows"),
    "header and blank rows": (b"h,w\n\n,\n", " has a header but no data rows"),
}


def _read_or_message(path):
    try:
        return _read_matrix_csv(str(path), "--y")
    except CliError as exc:
        return str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_matrix_csv_cases(tmp_path, case):
    # one `np.loadtxt` reads the files it can; every file gives the values, bit
    # for bit, or the message of the cell-by-cell `csv` and `float` reader, and
    # no numpy warning
    data, want = CSV_CASES[case]
    path = tmp_path / "y.csv"
    path.write_bytes(data)
    got = _read_or_message(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            cell_by_cell = cli._parse_matrix_rows(fh.readlines(), str(path), "--y")
        except CliError as exc:
            cell_by_cell = str(exc)
    if isinstance(want, str):
        assert got == cell_by_cell == f"`--y` file {path}{want}"
    else:
        want = np.array(want, dtype=float)
        for mat in (got, cell_by_cell):
            assert mat.dtype == np.float64 and mat.flags.c_contiguous
            assert mat.shape == want.shape and mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["plain", "mark and header", "blank rows", "specials"])
def test_matrix_csv_is_parsed_in_one_pass(tmp_path, monkeypatch, case):
    # a file of plain numbers, past a header, never reaches the cell-by-cell reader
    path = tmp_path / "y.csv"
    path.write_bytes(CSV_CASES[case][0])
    monkeypatch.setattr(cli, "_parse_matrix_rows", lambda *a: pytest.fail("read cell by cell"))
    loads = []
    monkeypatch.setattr(np, "loadtxt", lambda *a, _real=np.loadtxt, **k: loads.append(a) or
                        _real(*a, **k))
    assert _read_matrix_csv(str(path), "--y").shape == np.array(CSV_CASES[case][1]).shape
    assert len(loads) == 1


def test_matrix_csv_cell_past_the_csv_field_limit(tmp_path):
    # `csv` refuses a cell longer than its field limit, which is a usage error
    # naming the file; a number that long with no quote is read as `float` reads it
    digits = "1." + "0" * 200_000
    path = tmp_path / "y.csv"
    path.write_text(f'"{digits}",2\n3,4\n')
    assert _read_or_message(path) == (f"`--y` file {path}: field larger than field limit "
                                       f"({csv.field_size_limit()})")
    path.write_text(f"{digits},2\n3,4\n")
    assert _read_or_message(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matrix_csv_read_error_is_the_decoders(tmp_path):
    # bytes that are not UTF-8 are reported as the decoder reports them,
    # at their position in the decoded chunk
    path = tmp_path / "y.csv"
    path.write_bytes(b"1,2\n" * 3000 + b"\xff,3\n")
    with pytest.raises(UnicodeDecodeError, match="in position 3808: invalid start byte"):
        _read_matrix_csv(str(path), "--y")


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


def test_parser_takes_one_terminal_width_and_wraps_help_at_it(monkeypatch):
    # argparse's default formatter would query the terminal for each argument;
    # the parser queries once, and its help is the default formatter's at COLUMNS
    queries = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: queries.append(a) or real(*a))
    build_parser()
    assert len(queries) == 1
    longest = {}
    for columns in (40, 80, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        parser = build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, each in (("allopca", parser), *subs.choices.items()):
            text = each.format_help()
            each.formatter_class = argparse.HelpFormatter
            assert text == each.format_help(), (columns, name)
            longest[columns, name] = max(map(len, text.splitlines()))
    assert longest[80, "simulate"] <= 78 < longest[200, "simulate"]


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
