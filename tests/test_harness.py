"""Monte Carlo driver tests: determinism, aggregation, sweeps, tables."""

import ast
import csv
import importlib
import io
from pathlib import Path

import numpy as np
import pytest

from allopca import (
    DegreesOfFreedomError,
    ExperimentPlan,
    FixedWeight,
    LargePLargeN,
    McResult,
    ModelSpec,
    OracleWeight,
    PluginRule,
    Traditional,
    WeakIdentifiability,
    consistency_sweep,
    emit_table,
    estimate_runtime_seconds,
    random_gamma,
    run_experiment,
    scenario_plan,
)
from allopca import RankDeficiencyError, core, estimators, harness
from allopca.harness import DEFAULT_ROWS, _replicate_block
from allopca.simgen import STRONG_SPIKE, gen_dataset

BASIC_ROWS = (
    ("total(w=0.5)", FixedWeight(0.5)),
    ("residual(w=1)", FixedWeight(1.0)),
    ("regression(w=0)", FixedWeight(0.0)),
    ("plugin", PluginRule()),
    ("oracle", OracleWeight()),
)


def tiny_plan(reps=5, ns=(10, 12), rows=BASIC_ROWS, seed=0):
    return scenario_plan(Traditional(), ns, replications=reps, seed=seed, rows=rows)


# --------------------------------------------------------------------------
# plan and result validation
# --------------------------------------------------------------------------


def test_default_rows_layout():
    labels = [label for label, _ in DEFAULT_ROWS]
    assert len(DEFAULT_ROWS) == 11
    assert labels[:3] == ["total(w=0.5)", "residual(w=1)", "regression(w=0)"]
    assert "plugin" in labels and "oracle" in labels
    assert len(set(labels)) == 11


def test_plan_validation():
    spec = scenario_plan(Traditional(), (10,), 5, 0).points[0]
    with pytest.raises(ValueError):
        ExperimentPlan(points=(), point_labels=(), estimators=(FixedWeight(0.5),),
                       estimator_labels=("w=0.5",), replications=5)
    with pytest.raises(ValueError, match="duplicate estimator labels"):
        ExperimentPlan(points=(spec,), point_labels=("n=10",),
                       estimators=(FixedWeight(0.3), FixedWeight(0.3)),
                       estimator_labels=("w=0.3", "w=0.3"), replications=5)
    with pytest.raises(ValueError, match="must match `estimators` in length"):
        ExperimentPlan(points=(spec,), point_labels=("n=10",),
                       estimators=(FixedWeight(0.3), FixedWeight(0.4)),
                       estimator_labels=("w=0.3",), replications=5)
    with pytest.raises(ValueError):
        ExperimentPlan(points=(spec,), point_labels=("n=10",),
                       estimators=(FixedWeight(0.3),), estimator_labels=("w=0.3",),
                       replications=0)
    with pytest.raises(ValueError):
        ExperimentPlan(points=(spec, spec), point_labels=("a", "a"),
                       estimators=(FixedWeight(0.3),), estimator_labels=("w=0.3",),
                       replications=1)
    # distinct labels allow duplicate specs
    plan = ExperimentPlan(points=(spec,), point_labels=("n=10",),
                          estimators=(FixedWeight(0.3), FixedWeight(0.3)),
                          estimator_labels=("first", "second"), replications=2)
    assert plan.estimator_labels == ("first", "second")


def test_mc_result_validation():
    ok = dict(point_labels=("a",), estimator_labels=("e1",),
              se_mse=np.zeros((1, 1)), avg_weight=np.full((1, 1), 0.5),
              weight_rows=(), metadata={})
    McResult(mean_mse=np.full((1, 1), 0.1), **ok)
    with pytest.raises(ValueError):
        McResult(mean_mse=np.full((1, 1), 2.5), **ok)
    with pytest.raises(ValueError):
        McResult(mean_mse=np.full((1, 2), 0.1), **ok)
    with pytest.raises(ValueError):
        McResult(mean_mse=np.full((1, 1), 0.1),
                 point_labels=("a",), estimator_labels=("e1",),
                 se_mse=np.full((1, 1), -0.5),
                 avg_weight=np.full((1, 1), 0.5), weight_rows=(), metadata={})


# --------------------------------------------------------------------------
# run_experiment
# --------------------------------------------------------------------------


def test_run_experiment_shapes_and_ranges():
    res = run_experiment(tiny_plan(reps=8))
    assert res.mean_mse.shape == (5, 2)
    assert np.all(res.mean_mse >= 0) and np.all(res.mean_mse <= 2)
    assert np.all(res.se_mse >= 0)
    assert np.all(res.avg_weight >= 0) and np.all(res.avg_weight <= 1)
    assert res.weight_rows == (3, 4)  # plugin and oracle
    for key in ("replications", "master_seed", "wall_seconds", "digests"):
        assert key in res.metadata
    assert set(res.metadata["digests"]) == {"n=10", "n=12"}


def test_run_experiment_single_replication_has_zero_se():
    res = run_experiment(tiny_plan(reps=1))
    assert np.all(res.se_mse == 0.0)


def test_run_experiment_deterministic():
    a = run_experiment(tiny_plan(reps=6))
    b = run_experiment(tiny_plan(reps=6))
    assert a.mean_mse.tobytes() == b.mean_mse.tobytes()
    assert a.se_mse.tobytes() == b.se_mse.tobytes()
    assert a.avg_weight.tobytes() == b.avg_weight.tobytes()
    assert a.metadata["digests"] == b.metadata["digests"]


def test_run_experiment_block_size_invariance(force_blocks):
    plan = tiny_plan(reps=16)
    whole = run_experiment(plan)
    for k in (1, 5):
        sizes = force_blocks(k)
        split = run_experiment(plan)
        assert sizes == [min(k, 16 - start) for start in range(0, 16, k)] * 2
        assert whole.mean_mse.tobytes() == split.mean_mse.tobytes()
        assert whole.se_mse.tobytes() == split.se_mse.tobytes()
        assert whole.metadata["digests"] == split.metadata["digests"]


def test_common_random_numbers_duplicate_weight_rows():
    rows = (("first", FixedWeight(0.4)), ("second", FixedWeight(0.4)),
            ("other", FixedWeight(0.1)))
    res = run_experiment(tiny_plan(reps=10, rows=rows))
    assert res.mean_mse[0].tobytes() == res.mean_mse[1].tobytes()
    assert res.mean_mse[0].tobytes() != res.mean_mse[2].tobytes()


def _table1_shaped_spec(p=10, alpha=0.0):
    # table1 shape (q = 5, lambdas 2, 1, ..., 1) at n = 20, so p > n - 1 = 19 is wide
    lam = np.ones(p)
    lam[0] = 2.0
    return ModelSpec(n=20, mu=np.zeros(p), alpha=np.full(5, alpha), lambdas=lam,
                     gamma_basis=random_gamma(p, 0), master_seed=5)


ORACLE_SPECS = {
    "table1": lambda: Traditional().model_spec(50, 3),
    "table3b": lambda: STRONG_SPIKE.model_spec(50, 3),
    "no-signal": _table1_shaped_spec,
    "table3b-p20": lambda: STRONG_SPIKE.model_spec(20, 3),
    "table3b-p100": lambda: STRONG_SPIKE.model_spec(100, 3),
    "table3b-p200": lambda: STRONG_SPIKE.model_spec(200, 3),
    **{f"crossover-p{p}": lambda p=p: _table1_shaped_spec(p, 1.0) for p in (19, 20, 21)},
    "no-signal-p40": lambda: _table1_shaped_spec(40),
}


@pytest.mark.parametrize("case, chunk", [
    ("table1", None), ("table3b", None), ("no-signal", None),
    ("table1", 3),  # a budget below one fit: one replication per block and solver call
    # solved in sample space (n - 1 < p), and the crossover n - 1 = 19 around p
    ("table3b-p20", None), ("table3b-p100", None), ("table3b-p200", None),
    ("no-signal-p40", None),
    ("crossover-p19", None), ("crossover-p20", None), ("crossover-p21", None),
])
def test_replication_matches_per_weight_oracle(case, chunk, replication_oracle, eig_sizes,
                                               monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(estimators, "_BLOCK_ENTRIES", chunk * 10 * 10)
    spec = ORACLE_SPECS[case]()
    rows = tuple(est for _, est in DEFAULT_ROWS)
    reps = np.arange(12)
    sizes = eig_sizes()
    mse, wts = _replicate_block(spec, rows, reps)
    monkeypatch.undo()
    want_mse, want_wts = replication_oracle(spec, rows, reps)
    # the oracle's full `eigh` of the p x p matrix, against inverse iteration on
    # the matrix solved here: equal up to roundoff
    assert np.max(np.abs(mse - want_mse)) <= 1e-12
    if spec.n - 1 < spec.p:
        # one `eigvalsh` of each fit's residual block, of order n - 1 - q, and
        # every weight solved at the reduced order n - 1
        assert sizes.count(spec.n - 1 - spec.q) == len(reps)
        assert set(sizes) == {spec.n - 1 - spec.q, spec.n - 1}
        assert np.max(np.abs(wts - want_wts)) <= 1e-12
    else:
        assert set(sizes) == {spec.p}
        assert wts.tobytes() == want_wts.tobytes()
    labels = [label for label, _ in DEFAULT_ROWS]
    # total(w=0.5) and w=0.5 share one axis
    assert np.array_equal(mse[:, labels.index("total(w=0.5)")], mse[:, labels.index("w=0.5")])
    if case.startswith("table3b") or case in ("crossover-p20", "crossover-p21"):
        assert spec.n - 1 < spec.p
    if case.startswith("no-signal"):
        # the plug-in fallback w_hat = 0 fires and shares the regression(w=0) axis
        fallback = wts[:, labels.index("plugin")] == 0.0
        assert np.any(fallback)
        assert np.array_equal(mse[fallback, labels.index("plugin")],
                              mse[fallback, labels.index("regression(w=0)")])


def _counting(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("reps_per_block", [None, 5])
def test_replication_block_is_one_stacked_fit(monkeypatch, force_blocks, reps_per_block):
    spec = Traditional().model_spec(50, 3)
    rows = tuple(est for _, est in DEFAULT_ROWS)
    if reps_per_block is not None:
        sizes = force_blocks(reps_per_block)
    blocks = 1 if reps_per_block is None else 3  # 12 replications
    calls = _counting(monkeypatch, ("qr", "eigvalsh", "eigh"))
    _replicate_block(spec, rows, np.arange(12))
    # per block, the fit check's semidefiniteness test of s_resid (the plug-in
    # weight reuses its eigenvalues; s_reg is a Gram, semidefinite by
    # construction) and the eigenvalues of every solved matrix; no full `eigh`
    assert calls == {"qr": blocks, "eigvalsh": 2 * blocks, "eigh": 0}
    if reps_per_block is not None:
        assert sizes == [5, 5, 2]


def test_wide_replications_stack_by_solved_size(monkeypatch):
    # table3b p = 50 (n = 22, q = 5) is solved at n - 1 = 21, not p, so a block
    # holds _BLOCK_ENTRIES // (22 * 55 + 21**2 * 11) replications
    spec = STRONG_SPIKE.model_spec(50, 3)
    assert (spec.n, spec.q) == (22, 5)
    rules = len(DEFAULT_ROWS)
    per_block = estimators._BLOCK_ENTRIES // estimators._fit_entries(22, 50, 5, rules)
    assert per_block == estimators._BLOCK_ENTRIES // (22 * 55 + 21 ** 2 * rules)
    assert per_block > max(1, estimators._BLOCK_ENTRIES // (22 * 55 + 50 ** 2 * rules))
    sizes = []

    def recording(y, x, _orig=harness._scatter_stack):
        sizes.append(len(y))
        return _orig(y, x)

    monkeypatch.setattr(harness, "_scatter_stack", recording)
    _replicate_block(spec, tuple(est for _, est in DEFAULT_ROWS), np.arange(per_block + 2))
    assert sizes == [per_block, 2]


def test_replication_block_bypasses_single_fit_functions(monkeypatch, replication_oracle):
    spec = Traditional().model_spec(50, 3)
    rows = tuple(est for _, est in DEFAULT_ROWS)
    want = replication_oracle(spec, rows, np.arange(12))

    def refuse(*args, **kwargs):
        raise AssertionError("single-fit path called")

    monkeypatch.setattr(core, "sums_of_squares", refuse)
    monkeypatch.setattr(estimators, "estimate_abcd", refuse)
    mse, wts = _replicate_block(spec, rows, np.arange(12))
    assert np.max(np.abs(mse - want[0])) <= 1e-12 and wts.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("case", ["table1", "table3b", "table3b-p100", "table3b-p200",
                                  "no-signal-p40"])
def test_replication_block_split_invariance(case, eig_sizes):
    spec = ORACLE_SPECS[case]()
    rows = tuple(est for _, est in DEFAULT_ROWS)
    sizes = eig_sizes()
    whole = _replicate_block(spec, rows, np.arange(12))
    # table1 solves p x p matrices, the wide points one residual block of order
    # n - 1 - q per replication and reduced ones of order n - 1
    wide = {spec.n - 1 - spec.q, spec.n - 1}
    assert set(sizes) == ({spec.p} if case == "table1" else wide)
    halves = [_replicate_block(spec, rows, r) for r in (np.arange(5), np.arange(5, 12))]
    singles = [_replicate_block(spec, rows, np.array([r])) for r in range(12)]
    for parts in (halves, singles):
        for k in range(2):
            assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes()


@pytest.mark.parametrize("case", ["table1", "table3b", "no-signal-p40"])
def test_solver_calls_hold_the_distinct_pairs_of_whole_fits(case, monkeypatch, force_blocks):
    # each call solves its fits by the distinct rules: DEFAULT_ROWS' two w = 0.5
    # rows once per fit, and at the no-signal point a plug-in fallback w_hat = 0
    # apart from regression(w=0)
    spec = ORACLE_SPECS[case]()
    rows = tuple(est for _, est in DEFAULT_ROWS)
    whole = _replicate_block(spec, rows, np.arange(7))
    blocks = force_blocks(3)
    calls = []

    def recording(m, known=None, _orig=estimators._leading_pair_stack):
        calls.append(len(m))
        return _orig(m, known)

    monkeypatch.setattr(estimators, "_leading_pair_stack", recording)
    mse, wts = _replicate_block(spec, rows, np.arange(7))
    r = len(set(rows))
    assert blocks == [3, 3, 1] and r < len(rows)
    assert calls == [3 * r, 3 * r, r]
    if case == "no-signal-p40":
        fell = wts[:, rows.index(PluginRule())] == 0.0
        assert 0 < fell.sum() < fell.size
    assert mse.tobytes() == whole[0].tobytes() and wts.tobytes() == whole[1].tobytes()


@pytest.mark.parametrize("case", ["table1", "table3b-p100"])
def test_one_solver_call_per_leading_axes_call_whatever_the_budget(case, monkeypatch):
    # the callers size the blocks; `_solve_axes` takes its stack whole, even
    # under a budget below one solved matrix: the 5 fits by the distinct rules.
    # The oracle weights repeat a fixed weight in two fits, whose bytes they
    # give, and lie off the grid in the others.
    spec = ORACLE_SPECS[case]()
    rules = [est for _, est in DEFAULT_ROWS]
    draws = [gen_dataset(spec, r) for r in range(5)]
    y = np.stack([d.y for d in draws])
    fits = core._scatter_stack(y - y.mean(axis=1, keepdims=True), np.stack([d.x for d in draws]))
    oracle = np.array([0.3, 0.25, 0.0, 0.65, 0.45])
    alone = [estimators._leading_axes(rules, *(f[i:i + 1] for f in fits), oracle[i:i + 1])[:4]
             for i in range(5)]
    monkeypatch.setattr(estimators, "_BLOCK_ENTRIES", 1)
    calls = []

    def recording(m, known=None, _orig=estimators._leading_pair_stack):
        calls.append(len(m))
        return _orig(m, known)

    monkeypatch.setattr(estimators, "_leading_pair_stack", recording)
    weights, *got = estimators._leading_axes(rules, *fits, oracle)[:4]
    assert calls == [5 * len(set(rules))] and len(set(rules)) < len(rules)  # w = 0.5 twice
    oracle_row = rules.index(OracleWeight())
    for i, w in ((0, 0.3), (2, 0.0)):
        fixed = rules.index(FixedWeight(w))
        for part in (weights, *got):
            assert part[i, oracle_row].tobytes() == part[i, fixed].tobytes()
    for i, one in enumerate(alone):
        for part, part_alone in zip((weights, *got), one):
            assert part[i].tobytes() == part_alone[0].tobytes()


def test_replication_block_checks_design_conditioning(monkeypatch):
    spec = Traditional().model_spec(50, 3)
    monkeypatch.setattr(core, "COND_LIMIT", 1.0)
    with pytest.raises(RankDeficiencyError, match=r"cond\(X'X\) = .* exceeds 1;"):
        _replicate_block(spec, (FixedWeight(0.5),), np.arange(3))


# The benchmark (bench/run.py) splits a simulate command into steps at each
# `gen_dataset` entry, and bench/tracing.py patches the callables it traces
# by (module, attribute); these tests pin what it relies on.


@pytest.mark.parametrize("reps_per_block", [None, 5])
def test_replication_block_draws_once_per_replication_in_order(monkeypatch, force_blocks,
                                                               reps_per_block):
    spec = Traditional().model_spec(50, 3)
    rows = tuple(est for _, est in DEFAULT_ROWS)
    if reps_per_block is not None:
        force_blocks(reps_per_block)
    drawn = []

    def recording(spec, replication=0, _orig=harness.gen_dataset):
        drawn.append(replication)
        return _orig(spec, replication)

    monkeypatch.setattr(harness, "gen_dataset", recording)
    reps = np.arange(3, 15)
    _replicate_block(spec, rows, reps)
    assert drawn == reps.tolist()


def test_bench_traced_names_resolve():
    source = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")
    for name, (module, attr) in traced.items():
        owner = np.linalg if module == "linalg" else importlib.import_module(module)
        assert callable(getattr(owner, attr, None)), name


def test_plan_master_seed_must_be_the_seed_of_its_points():
    seed0, seed5 = Traditional().model_spec(20, 0), Traditional().model_spec(30, 5)
    rows = dict(estimators=(FixedWeight(0.5),), estimator_labels=("w=0.5",), replications=2)
    with pytest.raises(ValueError, match=r"^the points of a plan share one seed; got seeds"
                                         r" \[0, 5\]$"):
        ExperimentPlan(points=(seed5, seed0), point_labels=("n=30", "n=20"), **rows)
    plan = ExperimentPlan(points=(seed5,), point_labels=("n=30",), **rows)
    assert plan.master_seed == 5
    assert run_experiment(plan).metadata["master_seed"] == 5
    with pytest.raises(AttributeError):
        plan.master_seed = 0
    assert scenario_plan(Traditional(), (20, 30), 2, 7).master_seed == 7


def test_plugin_degrees_of_freedom_checked_before_running():
    spec = ModelSpec(n=7, mu=np.zeros(3), alpha=np.ones(5),
                     lambdas=np.array([2.0, 1.0, 1.0]),
                     gamma_basis=random_gamma(3, 0), master_seed=0)
    plan = ExperimentPlan(points=(spec,), point_labels=("n=7",),
                          estimators=(FixedWeight(0.5), PluginRule()),
                          estimator_labels=("w=0.5", "plugin"), replications=3)
    with pytest.raises(DegreesOfFreedomError, match="n=7"):
        run_experiment(plan)
    # the same point is fine without the plug-in row
    fixed_only = ExperimentPlan(points=(spec,), point_labels=("n=7",),
                                estimators=(FixedWeight(0.5),), estimator_labels=("w=0.5",),
                                replications=3)
    res = run_experiment(fixed_only)
    assert res.mean_mse.shape == (1, 1)


def test_cost_model_charges_the_solved_size():
    # p = 100 > n - 1 = 38: each per-weight solve is charged at the solved
    # size 38, not 100
    plan = scenario_plan(STRONG_SPIKE, [100], replications=3, seed=0)
    n, p, q = 39, 100, 5
    assert (plan.points[0].n, plan.points[0].p, plan.points[0].q) == (n, p, q)
    rows = len(DEFAULT_ROWS)
    s = n - 1
    per_rep = (5e-8 * n * p + (rows + 4) * 6e-6
               + (rows + 5.0) * (3.2e-8 * s ** 2 + 1.6e-11 * s ** 3))
    assert estimate_runtime_seconds(plan) == 6.5e-4 + 3 * per_rep
    narrow = scenario_plan(Traditional(), [50], replications=3, seed=0)
    s = 10
    per_rep = (5e-8 * 50 * 10 + (rows + 4) * 6e-6
               + (rows + 5.0) * (3.2e-8 * s ** 2 + 1.6e-11 * s ** 3))
    assert estimate_runtime_seconds(narrow) == 6.5e-4 + 3 * per_rep


def test_scenario_estimate_adds_each_models_basis_to_the_run():
    # `simulate --cost-limit` reads the scenario's sizes alone: each point's
    # model at 1.3e-9 s p^3 and the run that `estimate_runtime_seconds` prices
    plan = scenario_plan(STRONG_SPIKE, [20, 100], replications=3, seed=0)
    seconds = harness._scenario_seconds(STRONG_SPIKE, [20, 100], 3)
    assert seconds == pytest.approx(estimate_runtime_seconds(plan) + 1.3e-9 * (20 ** 3 + 100 ** 3),
                                    rel=1e-14)
    assert harness._scenario_seconds(STRONG_SPIKE, [2400], 1) > 17.9


def test_scenario_estimate_prices_one_basis_per_distinct_p():
    # table1's points share p = 10: one basis draw (1.2e-9 s p^3), and each
    # point's spec (1e-10 s p^3) and run
    plan = scenario_plan(Traditional(), [20, 50, 100], replications=3, seed=0)
    seconds = harness._scenario_seconds(Traditional(), [20, 50, 100], 3)
    assert seconds == pytest.approx(estimate_runtime_seconds(plan) + 1.2e-9 * 10 ** 3
                                    + 3 * 1e-10 * 10 ** 3, rel=1e-14)

def test_result_records_the_cost_estimate():
    # the library runs any plan; `simulate --cost-limit` compares the estimate with its limit
    plan = tiny_plan(reps=2)
    res = run_experiment(plan)
    assert res.metadata["estimated_seconds"] == estimate_runtime_seconds(plan) > 0


def test_degenerate_model_is_uninformative():
    # flat spectrum and no signal: every weight performs equally poorly
    spec = ModelSpec(n=20, mu=np.zeros(10), alpha=np.zeros(5),
                     lambdas=np.ones(10), gamma_basis=random_gamma(10, 1),
                     master_seed=0)
    rows = (("total(w=0.5)", FixedWeight(0.5)), ("residual(w=1)", FixedWeight(1.0)),
            ("regression(w=0)", FixedWeight(0.0)), ("w=0.3", FixedWeight(0.3)),
            ("plugin", PluginRule()))
    plan = ExperimentPlan(points=(spec,), point_labels=("n=20",),
                          estimators=tuple(r for _, r in rows),
                          estimator_labels=tuple(lab for lab, _ in rows),
                          replications=200)
    res = run_experiment(plan)
    means = res.mean_mse[:, 0]
    assert np.all(means >= 1.0)
    assert means.max() - means.min() <= 0.25
    assert np.all(res.mean_mse <= 2.0)


def test_oracle_weight_never_loses_badly():
    res = run_experiment(scenario_plan(Traditional(), (500,), 500, 0, rows=BASIC_ROWS))
    labels = list(res.estimator_labels)
    oracle = res.mean_mse[labels.index("oracle"), 0]
    total = res.mean_mse[labels.index("total(w=0.5)"), 0]
    reg = res.mean_mse[labels.index("regression(w=0)"), 0]
    assert oracle <= 1.05 * total
    assert oracle <= 1.05 * reg


def test_standard_errors_shrink_like_root_replications():
    rows = BASIC_ROWS[:4]
    small = run_experiment(scenario_plan(Traditional(), (20, 50), 400, 0, rows=rows))
    large = run_experiment(scenario_plan(Traditional(), (20, 50), 800, 0, rows=rows))
    ratios = (large.se_mse / small.se_mse).ravel()
    assert 0.6 <= np.median(ratios) <= 0.82


# --------------------------------------------------------------------------
# consistency sweeps
# --------------------------------------------------------------------------


def test_sweep_requires_three_grid_points():
    with pytest.raises(ValueError, match="at least 3 strictly increasing sizes, got \\(20, 50\\)"):
        consistency_sweep(Traditional(), (20, 50), 5, 0)
    with pytest.raises(ValueError, match="at least 3 strictly increasing sizes"):
        consistency_sweep(Traditional(), (20, 60, 60), 5, 0)


def test_sweep_traditional_regime():
    result, verdicts = consistency_sweep(Traditional(), (20, 60, 180),
                                         replications=200, seed=0, rows=BASIC_ROWS)
    assert result.point_labels == ("n=20", "n=60", "n=180")
    assert verdicts["total(w=0.5)"] == "decreasing-to-zero"
    assert verdicts["regression(w=0)"] == "decreasing-to-zero"
    assert verdicts["plugin"] == "decreasing-to-zero"


def test_sweep_weak_identifiability_eta_one():
    result, verdicts = consistency_sweep(WeakIdentifiability(1.0), (20, 60, 180),
                                         replications=200, seed=0, rows=BASIC_ROWS)
    assert verdicts["residual(w=1)"] == "non-vanishing"
    assert verdicts["regression(w=0)"] == "decreasing-to-zero"
    means = result.mean_mse[1]  # residual row
    assert np.all(means > 1.0)


def test_sweep_weak_identifiability_eta_third():
    rows = (("w=0.2", FixedWeight(0.2)), ("residual(w=1)", FixedWeight(1.0)))
    _, verdicts = consistency_sweep(WeakIdentifiability(1.0 / 3.0), (20, 60, 180),
                                    replications=200, seed=0, rows=rows)
    assert verdicts["w=0.2"] == "decreasing-to-zero"


def test_sweep_strong_spike_regression_row_stalls():
    rows = BASIC_ROWS[:3]
    result, verdicts = consistency_sweep(LargePLargeN(0.8, 0.8, 0.4), (50, 100, 200),
                                         replications=200, seed=0, rows=rows)
    reg_means = result.mean_mse[2]
    assert verdicts["regression(w=0)"] != "decreasing-to-zero"
    assert reg_means[-1] >= reg_means[0]
    # the residual estimator keeps improving as p grows in this regime
    res_means = result.mean_mse[1]
    assert np.all(np.diff(res_means) < 0)


# --------------------------------------------------------------------------
# emit_table
# --------------------------------------------------------------------------


def manual_result():
    return McResult(
        point_labels=("n=20", "n=500"),
        estimator_labels=("alpha", "beta"),
        mean_mse=np.array([[0.123456, 0.2], [0.5, 0.987654321]]),
        se_mse=np.zeros((2, 2)),
        avg_weight=np.array([[0.5, 0.5], [0.137, 0.137]]),
        weight_rows=(1,),
        metadata={},
    )


def test_emit_table_csv_layout_and_rounding():
    text = emit_table(manual_result(), "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["estimator", "n=20", "n=500"]
    assert rows[1] == ["alpha", "0.12346", "0.20000"]
    assert rows[2] == ["beta", "0.50000", "0.98765"]
    assert rows[3] == ["beta avg weight", "(0.13700)", "(0.13700)"]


def test_emit_table_csv_round_trip():
    res = run_experiment(tiny_plan(reps=5))
    rows = list(csv.reader(io.StringIO(emit_table(res, "csv"))))
    body = [r for r in rows[1:] if not r[0].endswith("avg weight")]
    parsed = np.array([[float(c) for c in r[1:]] for r in body])
    assert np.allclose(parsed, np.round(res.mean_mse, 5), atol=1e-12)


def test_emit_table_markdown_layout():
    text = emit_table(manual_result(), "markdown")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0].startswith("|") and "estimator" in lines[0]
    data_lines = [ln for ln in lines[1:] if not set(ln) <= {"|", "-", " ", ":"}]
    assert len(data_lines) == 3  # two estimators + one weight row


def test_emit_table_default_rows_shape():
    res = run_experiment(scenario_plan(Traditional(), (10,), 3, 0))
    rows = list(csv.reader(io.StringIO(emit_table(res, "csv"))))
    assert len(rows) == 1 + 11 + 2  # header, estimators, weight rows
    with pytest.raises(ValueError):
        emit_table(res, "latex")
