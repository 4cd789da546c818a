"""One check per rule: every entry point reports a rule with the same message.

Each validation rule is one helper in `allopca.core`.  The table below
feeds every public entry point that enforces a rule an input that breaks
it, from the library and from the command line, and expects the rule's
one message pattern.  A source scan then pins each rule's message to a
single place in the package.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from allopca import (
    AbcdParams,
    Dataset,
    DegreesOfFreedomError,
    ExperimentPlan,
    FixedWeight,
    Gamma1Estimate,
    LargePLargeN,
    ModelSpec,
    PluginRule,
    PluginWeights,
    RankDeficiencyError,
    SumOfSquares,
    SymEig,
    Traditional,
    WeakIdentifiability,
    center_columns,
    estimate_abcd,
    gamma1_hat,
    gen_dataset,
    lemma1_fluctuation,
    loo_cv_scores,
    mse_up_to_sign,
    mse_upper_bound,
    random_gamma,
    reduced_rank_coefficients,
    run_experiment,
    substream,
    sums_of_squares,
    sym_eig,
)
from allopca.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "allopca"

# rule -> (exception type, message pattern)
RULES = {
    "weight": (ValueError, r"= .* outside \[0, 1\]"),
    "sizes": (ValueError, r"need q >= 1 and n > 1 \+ q; got n = "),
    "ints": (ValueError, r"`n` and `q` must be ints"),
    "plugin_dof": (DegreesOfFreedomError, r"the plug-in weight needs n > q \+ 2; got n = "),
    "dimension": (ValueError, r"need at least two response coordinates: `p` must be >= 2"),
    "index": (ValueError, r"must be >= 0, got -1$"),
    "unit": (ValueError, r"must be unit length, got norm"),
    "orthonormal": (ValueError, r"not orthonormal: max\|V'V - I\| = "),
    "square": (ValueError, r"must be a square matrix, got shape"),
    "finite": (ValueError, r"contains non-finite entries"),
    "symmetric": (ValueError, r"is not symmetric: max\|M - M'\| = .* exceeds relative tolerance"),
    "psd": (ValueError, r"is not positive semidefinite: min eigenvalue"),
    "conditioning": (RankDeficiencyError,
                     r"^cond\(X'X\) = .* exceeds 1e\+12; design columns are too collinear"),
    "eigengap": (ValueError, r"lambda_1 > lambda_2 >= 1"),
    "draw_size": (ValueError, r"one replication draws n \* \(p \+ q\) = \d+ floats, more than "),
}

# rule -> the one source fragment of its message
MESSAGE_SOURCES = {
    "weight": "outside [0, 1]\"",
    "sizes": "need q >= 1 and n > 1 + q",
    "ints": "`n` and `q` must be ints",
    "plugin_dof": "the plug-in weight needs n > q + 2",
    "dimension": "need at least two response coordinates",
    "index": "must be >= 0, got {value}",
    "unit": "must be unit length",
    "orthonormal": "not orthonormal",
    "square": "must be a square matrix",
    "finite": "contains non-finite entries",
    "symmetric": "is not symmetric",
    "psd": "is not positive semidefinite",
    "conditioning": "cond(X'X) = {",
    "eigengap": "need lambda_1 > lambda_2",
    "draw_size": "one replication draws n * (p + q)",
    # the row factors of every built fit, `sums_of_squares` too; `SumOfSquares`
    # forms its total from the two matrices given
    "additivity_fit": "complement of the constant and the design span by {",
    # eigenpairs are checked where they are read: the whole decomposition by
    # `sym_eig`, the leading pair and the spectrum by the commands' solver
    "reconstruct": "failed to reconstruct",
    "leading_pairs": "fails its residual check",
    "spectrum": "miss its trace or",
}


def _data(p=3, n=20, q=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, p)), center_columns(rng.standard_normal((n, q))))


def _collinear():
    rng = np.random.default_rng(1)
    base = center_columns(rng.standard_normal((15, 1)))
    return Dataset(rng.standard_normal((15, 3)), np.hstack([base, base]))


def _ss(**kw):
    return sums_of_squares(_data(**kw))


def _spec(**kw):
    args = dict(n=10, mu=np.zeros(3), alpha=np.ones(2),
                lambdas=np.array([2.0, 1.0, 1.0]), gamma_basis=np.eye(3), master_seed=0)
    args.update(kw)
    return ModelSpec(**args)


def _plan(spec):
    return ExperimentPlan(points=(spec,), point_labels=("n=7",),
                          estimators=(FixedWeight(0.5), PluginRule()),
                          estimator_labels=("w=0.5", "plugin"), replications=2)


def _scatter(m):
    return SumOfSquares(m, np.eye(2), 10, 2)


def _plugin_weights(sigma=np.eye(2), **fields):
    args = dict(lambda1_hat=1.0, lambda2_hat=1.0, tr_sigma2_hat=1.0, a_hat=1.0, b_hat=1.0,
                c_hat=1.0, d_hat=0.5, w_hat_raw=0.5, w_hat=0.5)
    return PluginWeights(sigma, **{**args, **fields})


NAN2 = np.array([[1.0, np.nan], [np.nan, 1.0]])
ASYM2 = np.array([[1.0, 0.5], [0.0, 1.0]])
PARAMS = AbcdParams(22.0, 6.0, 40.0, 1.0, 2, 50)

# (rule, entry point, call with an input that breaks the rule)
LIBRARY_CASES = [
    ("weight", "FixedWeight", lambda: FixedWeight(-0.1)),
    ("weight", "FixedWeight(nan)", lambda: FixedWeight(float("nan"))),
    ("weight", "lemma1_fluctuation", lambda: lemma1_fluctuation(10.0, 20.0, 2.0, 1.0, 50, 2, 1.5)),
    ("weight", "mse_upper_bound", lambda: mse_upper_bound(PARAMS, -0.5)),
    ("weight", "Gamma1Estimate", lambda: Gamma1Estimate(np.array([1.0, 0.0]), 1.5, 0.0, False)),
    ("weight", "gamma1_hat", lambda: gamma1_hat(_ss(), 2.0)),
    ("sizes", "Dataset", lambda: Dataset(np.ones((4, 2)), center_columns(np.eye(4)[:, :3]))),
    ("sizes", "SumOfSquares", lambda: SumOfSquares(np.eye(2), np.eye(2), 3, 2)),
    ("sizes", "AbcdParams", lambda: AbcdParams(22.0, 6.0, 40.0, 1.0, 0, 50)),
    ("sizes", "ModelSpec", lambda: _spec(n=3)),
    ("sizes", "lemma1_fluctuation", lambda: lemma1_fluctuation(10.0, 20.0, 2.0, 1.0, 3, 2, 0.5)),
    ("ints", "SumOfSquares", lambda: SumOfSquares(np.eye(2), np.eye(2), 10.0, 2)),
    ("ints", "AbcdParams", lambda: AbcdParams(22.0, 6.0, 40.0, 1.0, 2, 50.0)),
    ("ints", "lemma1_fluctuation(nan)",
     lambda: lemma1_fluctuation(10, 20, 2, 1, float("nan"), 2, 0.5)),
    ("ints", "lemma1_fluctuation(50.5)", lambda: lemma1_fluctuation(10, 20, 2, 1, 50.5, 2.5, 0.5)),
    ("plugin_dof", "estimate_abcd", lambda: estimate_abcd(_ss(n=4, q=2))),
    ("plugin_dof", "run_experiment",
     lambda: run_experiment(_plan(_spec(n=7, alpha=np.ones(5))))),
    ("plugin_dof", "Traditional.model_spec", lambda: Traditional().model_spec(7, 0)),
    ("plugin_dof", "LargePLargeN.model_spec", lambda: LargePLargeN(0.5, 0.5).model_spec(30, 0)),
    ("dimension", "gamma1_hat", lambda: gamma1_hat(_ss(p=1), 0.5)),
    ("dimension", "estimate_abcd", lambda: estimate_abcd(_ss(p=1))),
    ("dimension", "loo_cv_scores", lambda: loo_cv_scores(_data(p=1), (FixedWeight(0.5),))),
    ("dimension", "random_gamma", lambda: random_gamma(1, 0)),
    ("dimension", "LargePLargeN.model_spec", lambda: LargePLargeN(0.8, 0.5).model_spec(1, 0)),
    ("dimension", "ModelSpec", lambda: _spec(mu=np.zeros(1), lambdas=np.ones(1),
                                             gamma_basis=np.eye(1))),
    ("index", "substream", lambda: substream(-1)),
    ("index", "substream(path)", lambda: substream(0, 2, -1)),
    ("index", "ModelSpec", lambda: _spec(master_seed=-1)),
    ("index", "gen_dataset", lambda: gen_dataset(_spec(), -1)),
    ("unit", "Gamma1Estimate", lambda: Gamma1Estimate(np.array([1.0, 1e-4]), 0.5, 0.0, False)),
    ("unit", "Gamma1Estimate(nan)",
     lambda: Gamma1Estimate(np.array([np.nan, 0.0]), 0.5, 0.0, False)),
    ("unit", "mse_up_to_sign", lambda: mse_up_to_sign(np.array([1.0, 1.0]), np.array([1.0, 0.0]))),
    ("unit", "mse_up_to_sign(stack)", lambda: mse_up_to_sign(np.array([[1.0, 0.0], [0.0, 2.0]]),
                                                             np.array([1.0, 0.0]))),
    ("unit", "reduced_rank_coefficients",
     lambda: reduced_rank_coefficients(_data(), np.array([1.0, 1.0, 0.0]))),
    ("orthonormal", "SymEig", lambda: SymEig(np.array([2.0, 1.0]), 2.0 * np.eye(2))),
    ("orthonormal", "SymEig(nan)", lambda: SymEig(np.array([1.0, 0.0]), np.full((2, 2), np.nan))),
    ("orthonormal", "ModelSpec", lambda: _spec(gamma_basis=2.0 * np.eye(3))),
    ("square", "sym_eig", lambda: sym_eig(np.ones((2, 3)))),
    ("square", "SumOfSquares", lambda: SumOfSquares(*[np.ones((2, 3))] * 2, 10, 2)),
    ("square", "PluginWeights", lambda: _plugin_weights(np.ones((2, 3)))),
    ("finite", "Dataset",
     lambda: Dataset(np.full((10, 2), np.nan), center_columns(np.eye(10)[:, :2]))),
    ("finite", "sym_eig", lambda: sym_eig(NAN2)),
    ("finite", "SumOfSquares", lambda: _scatter(NAN2)),
    ("finite", "ModelSpec", lambda: _spec(mu=np.array([0.0, np.inf, 0.0]))),
    ("finite", "PluginWeights", lambda: _plugin_weights(NAN2)),
    ("finite", "PluginWeights(nan lambda1_hat)", lambda: _plugin_weights(lambda1_hat=np.nan)),
    ("finite", "PluginWeights(nan d_hat)", lambda: _plugin_weights(d_hat=np.nan)),
    ("finite", "SymEig(nan values)", lambda: SymEig(np.array([np.nan, 1.0]), np.eye(2))),
    ("finite", "SymEig(inf values)", lambda: SymEig(np.array([np.inf, 1.0]), np.eye(2))),
    ("finite", "Gamma1Estimate(nan gap)",
     lambda: Gamma1Estimate(np.array([1.0, 0.0]), 0.5, np.nan, False)),
    ("finite", "lemma1_fluctuation(nan sigma_tr)",
     lambda: lemma1_fluctuation(np.nan, 20.0, 2.0, 1.0, 50, 2, 0.5)),
    ("finite", "lemma1_fluctuation(inf sigma_tr)",
     lambda: lemma1_fluctuation(np.inf, 20.0, 2.0, 1.0, 50, 2, 0.5)),
    ("finite", "lemma1_fluctuation(nan sigma_tr2)",
     lambda: lemma1_fluctuation(1.0, np.nan, 0.5, 1.0, 50, 2, 0.5)),
    ("finite", "lemma1_fluctuation(nan c)",
     lambda: lemma1_fluctuation(10.0, 20.0, 2.0, np.nan, 50, 2, 0.5)),
    ("symmetric", "sym_eig", lambda: sym_eig(ASYM2)),
    ("symmetric", "SumOfSquares", lambda: _scatter(ASYM2)),
    ("symmetric", "PluginWeights", lambda: _plugin_weights(ASYM2)),
    ("psd", "SumOfSquares", lambda: _scatter(-np.eye(2))),
    ("psd", "PluginWeights", lambda: _plugin_weights(np.diag([1.0, -1.0]))),
    ("conditioning", "sums_of_squares", lambda: sums_of_squares(_collinear())),
    ("conditioning", "reduced_rank_coefficients",
     lambda: reduced_rank_coefficients(_collinear(), np.array([1.0, 0.0, 0.0]))),
    ("conditioning", "loo_cv_scores", lambda: loo_cv_scores(_collinear(), (PluginRule(),))),
    ("eigengap", "WeakIdentifiability.model_spec",
     lambda: WeakIdentifiability(6.0).model_spec(500, 0)),
    ("eigengap", "LargePLargeN.model_spec", lambda: LargePLargeN(0.9, -60.0).model_spec(100, 0)),
    # n = 20^10 ~ 1.0e13 rows, refused before any draw
    ("draw_size", "run_experiment",
     lambda: run_experiment(_plan(LargePLargeN(10.0, 0.5).model_spec(20, 0)))),
]


@pytest.mark.parametrize("rule, entry, call", LIBRARY_CASES,
                         ids=[f"{rule}-{entry}" for rule, entry, _ in LIBRARY_CASES])
def test_library_entry_points_report_the_rule(rule, entry, call):
    exc_type, pattern = RULES[rule]
    with pytest.raises(exc_type, match=pattern):
        call()


def _files(tmp_path, data):
    ypath, xpath = tmp_path / "y.csv", tmp_path / "x.csv"
    np.savetxt(ypath, data.y, delimiter=",", fmt="%.17g")
    np.savetxt(xpath, data.x, delimiter=",", fmt="%.17g")
    return ["--y", str(ypath), "--x", str(xpath)]


BOUND = ["bound", "--a", "22", "--b", "6", "--c", "40", "--d", "1"]

# (rule, argv; a dataset argument is written to CSV files)
CLI_CASES = [
    ("weight", ["estimate", _data, "--weights", "0.3,1.5"]),
    ("weight", ["cv", _data, "--weights", "-0.5"]),
    ("sizes", [*BOUND, "--q", "0", "--n", "50"]),
    ("sizes", [*BOUND, "--q", "2", "--n", "3"]),
    ("plugin_dof", ["simulate", "--scenario", "table1", "--n", "7", "--reps", "1"]),
    ("plugin_dof", ["bound", "--scenario", "table1", "--n", "7"]),
    ("plugin_dof", ["estimate", lambda: _data(n=4, q=2)]),
    ("dimension", ["estimate", lambda: _data(p=1)]),
    ("dimension", ["cv", lambda: _data(p=1)]),
    ("dimension", ["simulate", "--scenario", "table3a", "--p", "1", "--reps", "1"]),
    ("index", ["simulate", "--scenario", "table1", "--n", "20", "--seed", "-1", "--reps", "1"]),
    ("index", ["bound", "--scenario", "table1", "--n", "20", "--seed", "-1"]),
    ("conditioning", ["estimate", _collinear]),
    ("conditioning", ["cv", _collinear]),
    ("eigengap", ["simulate", "--scenario", "table2", "--eta", "6", "--reps", "1"]),
    ("eigengap", ["bound", "--scenario", "table2", "--eta", "6", "--n", "500"]),
]


@pytest.mark.parametrize("rule, argv", CLI_CASES,
                         ids=[f"{rule}-{argv[0]}-{k}" for k, (rule, argv) in enumerate(CLI_CASES)])
def test_cli_commands_report_the_rule(tmp_path, capsys, rule, argv):
    args = [a for arg in argv for a in (_files(tmp_path, arg()) if callable(arg) else [arg])]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert " n=" not in err.replace("data: n=", "")  # no point line precedes the refusal
    message = err.splitlines()[-1]
    assert message.startswith("error: ")
    assert re.search(RULES[rule][1], message.removeprefix("error: "))


def _package_source():
    return "".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))


@pytest.mark.parametrize("rule", sorted(MESSAGE_SOURCES))
def test_each_rule_message_is_written_once(rule):
    assert _package_source().count(MESSAGE_SOURCES[rule]) == 1


def test_singular_values_are_computed_only_by_the_conditioning_rule(monkeypatch):
    source = _package_source()
    assert source.count("np.linalg.svd") == 1
    core = (SRC / "core.py").read_text(encoding="utf-8")
    start = core.index("def _check_design_conditioning")
    assert "np.linalg.svd" in core[start:core.index("\ndef ", start + 1)]

    def no_svd(*args, **kwargs):
        raise AssertionError("Dataset must not compute singular values")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    _data()
    gen_dataset(_spec(), 0)
