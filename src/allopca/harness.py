"""Monte Carlo driver: replicated experiments, trend sweeps, table output.

A plan pairs a tuple of fully resolved models (one per scenario point)
with a tuple of estimator rows.  `scenario_plan` builds the plan of one
regime kind of `simgen` (the paper's tables, a consistency sweep or a CLI
scenario) over a list of sizes.  Within a replication every estimator row
sees the same draw and the same sum-of-squares matrices, so rows differ
only through their weights (common random numbers).  Replication r of a
point is keyed by (master_seed, r), which makes results independent of
how replications are scheduled across workers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import _check_index, _check_plugin_dof, _check_scatter_stack, _readonly, _scatter_stack
from .errors import CostLimitError
from .estimators import (
    _BLOCK_ENTRIES,
    AbcdParams,
    FixedWeight,
    PluginRule,
    _dots,
    _leading_axes,
    _plugin_weights,
    _w_star_terms,
    mse_up_to_sign,
)
from .simgen import (
    LargePLargeN,
    ModelSpec,
    RegimeSpec,
    Traditional,
    WeakIdentifiability,
    gen_dataset,
)


@dataclass(frozen=True)
class OracleWeight:
    """Use the closed-form optimal weight from the true model.

    The weight is recomputed each replication from the realized design
    (the signal energy ||X alpha||^2 varies with X).
    """


EstimatorSpec = FixedWeight | PluginRule | OracleWeight

# Rows mirroring the usual report layout: the three canonical estimators,
# a fixed-weight grid, the data-driven weight and the oracle weight.
DEFAULT_ROWS: tuple[tuple[str, EstimatorSpec], ...] = (
    ("total(w=0.5)", FixedWeight(0.5)),
    ("residual(w=1)", FixedWeight(1.0)),
    ("regression(w=0)", FixedWeight(0.0)),
    ("w=0.1", FixedWeight(0.1)),
    ("w=0.2", FixedWeight(0.2)),
    ("w=0.3", FixedWeight(0.3)),
    ("w=0.4", FixedWeight(0.4)),
    ("w=0.5", FixedWeight(0.5)),
    ("w=0.6", FixedWeight(0.6)),
    ("plugin", PluginRule()),
    ("oracle", OracleWeight()),
)


def default_label(spec: EstimatorSpec) -> str:
    if isinstance(spec, FixedWeight):
        return f"w={spec.w:g}"
    if isinstance(spec, PluginRule):
        return "plugin"
    if isinstance(spec, OracleWeight):
        return "oracle"
    raise ValueError(f"unknown estimator spec: {spec!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Scenario points x estimator rows x replication count.

    `estimator_labels` may be omitted, in which case labels are derived
    from the specs (and must come out unique).  `cost_limit_seconds`, when
    set, makes `run_experiment` refuse plans whose estimated runtime
    exceeds it.
    """

    points: tuple[ModelSpec, ...]
    point_labels: tuple[str, ...]
    estimators: tuple[EstimatorSpec, ...]
    replications: int
    master_seed: int
    estimator_labels: tuple[str, ...] | None = None
    cost_limit_seconds: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "point_labels", tuple(str(s) for s in self.point_labels))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.points:
            raise ValueError("`points` must be non-empty")
        if len(self.point_labels) != len(self.points):
            raise ValueError("`point_labels` must match `points` in length")
        if len(set(self.point_labels)) != len(self.point_labels):
            raise ValueError(f"duplicate point labels: {self.point_labels}")
        if not self.estimators:
            raise ValueError("`estimators` must be non-empty")
        for est in self.estimators:
            if not isinstance(est, (FixedWeight, PluginRule, OracleWeight)):
                raise ValueError(f"unknown estimator spec: {est!r}")
        if self.estimator_labels is None:
            labels = tuple(default_label(e) for e in self.estimators)
        else:
            labels = tuple(str(s) for s in self.estimator_labels)
        if len(labels) != len(self.estimators):
            raise ValueError("`estimator_labels` must match `estimators` in length")
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"estimator labels must be unique (pass explicit labels for "
                f"duplicate specs): {labels}"
            )
        object.__setattr__(self, "estimator_labels", labels)
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ValueError(f"`replications` must be a positive int, got {self.replications!r}")
        object.__setattr__(self, "replications", int(self.replications))
        seed = _check_index(int(self.master_seed), "`master_seed`")
        object.__setattr__(self, "master_seed", seed)
        if self.cost_limit_seconds is not None and not self.cost_limit_seconds > 0:
            raise ValueError(f"`cost_limit_seconds` must be > 0, got {self.cost_limit_seconds}")


@dataclass(frozen=True, eq=False)
class McResult:
    """Aggregated Monte Carlo output.

    Arrays are (estimators x points).  `avg_weight` holds the mean weight
    actually used by each row; `weight_rows` lists the row indices whose
    weights are data- or model-dependent and therefore worth printing.
    `metadata` records seeds, timing and one content digest per point.
    """

    point_labels: tuple[str, ...]
    estimator_labels: tuple[str, ...]
    mean_mse: np.ndarray
    se_mse: np.ndarray
    avg_weight: np.ndarray
    weight_rows: tuple[int, ...]
    metadata: dict = field(compare=False)

    def __post_init__(self):
        e, p = len(self.estimator_labels), len(self.point_labels)
        arrs = {}
        for name in ("mean_mse", "se_mse", "avg_weight"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (e, p):
                raise ValueError(f"`{name}` must have shape ({e}, {p}), got {a.shape}")
            arrs[name] = a
        if np.any(arrs["mean_mse"] < 0) or np.any(arrs["mean_mse"] > 2 + 1e-9):
            raise ValueError("mean errors must lie in [0, 2]")
        if np.any(arrs["se_mse"] < 0):
            raise ValueError("standard errors must be >= 0")
        if np.any(arrs["avg_weight"] < -1e-12) or np.any(arrs["avg_weight"] > 1 + 1e-12):
            raise ValueError("average weights must lie in [0, 1]")
        if any(not 0 <= i < e for i in self.weight_rows):
            raise ValueError(f"`weight_rows` out of range: {self.weight_rows}")
        for name, a in arrs.items():
            object.__setattr__(self, name, _readonly(a))
        object.__setattr__(self, "weight_rows", tuple(int(i) for i in self.weight_rows))


def estimate_runtime_seconds(plan: ExperimentPlan) -> float:
    """Crude wall-clock estimate used by the cost guard."""
    n_est = len(plan.estimators)
    seconds = 0.0
    for spec in plan.points:
        n, p, q = spec.n, spec.p, spec.q
        flops = 4.0 * n * p * (p + q) + (n_est + 5.0) * 10.0 * p ** 3
        seconds += plan.replications * (flops / 2e9 + (n_est + 4) * 5e-5)
    return seconds


def _replicate_block(
    spec: ModelSpec, estimators: tuple[EstimatorSpec, ...], reps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a block of replications; rows follow `reps` order.

    The draws (one `gen_dataset` call each) are stacked about
    `_BLOCK_ENTRIES` entries at a time and fit together: one scatter build
    and check (whose s_resid eigenvalues feed the plug-in weights), oracle
    weights from the model's (a, b, d) and the designs' c = ||X alpha||^2,
    one batched solve of the distinct (replication, weight) pairs and one
    `mse_up_to_sign` call.  Every replication is computed as if it were
    alone, so results do not depend on how `reps` is split.
    """
    n, p, q = spec.n, spec.p, spec.q
    mse = np.empty((reps.size, len(estimators)))
    wts = np.empty((reps.size, len(estimators)))
    fixed = [est.w if isinstance(est, FixedWeight) else np.nan for est in estimators]
    plugin = [k for k, est in enumerate(estimators) if isinstance(est, PluginRule)]
    oracle = [k for k, est in enumerate(estimators) if isinstance(est, OracleWeight)]
    if oracle:  # a flat spectrum has no oracle weight, and needs none without an oracle row
        model = AbcdParams.from_spectrum(spec.lambdas, 0.0, q, n)
    chunk = max(1, _BLOCK_ENTRIES // (n * (p + q) + p * p * len(estimators)))
    for start in range(0, reps.size, chunk):
        rows = np.arange(start, min(start + chunk, reps.size))
        draws = [gen_dataset(spec, int(r))[0] for r in reps[rows]]
        x = np.stack([d.x for d in draws])
        wts[rows] = fixed
        if oracle:
            xa = x @ spec.alpha
            num, den = _w_star_terms(model.a, model.b, _dots(xa, xa), model.d, q)
            wts[np.ix_(rows, oracle)] = (num / den)[:, None]
        s_reg, s_resid, s_total = _scatter_stack(np.stack([d.y for d in draws]), x)
        resid_evals = _check_scatter_stack(s_reg, s_resid, s_total)
        if plugin:
            wts[np.ix_(rows, plugin)] = _plugin_weights(
                s_reg, s_resid, resid_evals, n, q)["w_hat"][:, None]
        axes = _leading_axes(s_reg, s_resid, wts[rows].T)
        mse[rows] = mse_up_to_sign(axes, spec.gamma1).T
    return mse, wts


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> McResult:
    """Execute a plan and aggregate to means, standard errors and weights.

    Parameters
    ----------
    plan : ExperimentPlan
    workers : int
        Number of worker processes.  Results are bit-identical for any
        worker count: replications are keyed by index, gathered into
        index order, and only then aggregated.

    Raises
    ------
    CostLimitError
        If the plan declares a cost limit and the estimate exceeds it.
    """
    if workers < 1:
        raise ValueError(f"`workers` must be >= 1, got {workers}")
    if any(isinstance(est, PluginRule) for est in plan.estimators):
        for lab, spec in zip(plan.point_labels, plan.points):
            _check_plugin_dof(spec.n, spec.q, f"point {lab!r}: ")
    est_seconds = estimate_runtime_seconds(plan)
    limit = plan.cost_limit_seconds
    if limit is not None and est_seconds > limit:
        raise CostLimitError(
            f"estimated runtime {est_seconds:.1f}s exceeds the configured "
            f"limit {limit:.1f}s; reduce replications, grid or dimensions"
        )
    t0 = time.perf_counter()
    n_pts = len(plan.points)
    n_est = len(plan.estimators)
    reps = plan.replications
    mse = np.empty((n_pts, reps, n_est))
    wts = np.empty((n_pts, reps, n_est))
    if workers == 1:
        for i, spec in enumerate(plan.points):
            mse[i], wts[i] = _replicate_block(spec, plan.estimators, np.arange(reps))
    else:
        blocks = [b for b in np.array_split(np.arange(reps), workers) if b.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for i, spec in enumerate(plan.points):
                for b in blocks:
                    fut = pool.submit(_replicate_block, spec, plan.estimators, b)
                    futures[fut] = (i, b)
            for fut, (i, b) in futures.items():
                m, v = fut.result()
                mse[i, b[0]:b[-1] + 1] = m
                wts[i, b[0]:b[-1] + 1] = v
    digests = {}
    for i, lab in enumerate(plan.point_labels):
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(mse[i]).tobytes())
        h.update(np.ascontiguousarray(wts[i]).tobytes())
        digests[lab] = h.hexdigest()
    mean = mse.mean(axis=1).T
    if reps > 1:
        se = (mse.std(axis=1, ddof=1) / np.sqrt(reps)).T
    else:
        se = np.zeros_like(mean)
    avg_w = wts.mean(axis=1).T
    weight_rows = tuple(
        k for k, est in enumerate(plan.estimators)
        if isinstance(est, (PluginRule, OracleWeight))
    )
    meta = {
        "replications": reps,
        "master_seed": plan.master_seed,
        "workers": workers,
        "estimated_seconds": est_seconds,
        "wall_seconds": time.perf_counter() - t0,
        "digests": digests,
    }
    return McResult(
        point_labels=plan.point_labels,
        estimator_labels=plan.estimator_labels,
        mean_mse=mean,
        se_mse=se,
        avg_weight=avg_w,
        weight_rows=weight_rows,
        metadata=meta,
    )


# --------------------------------------------------------------------------
# plan builder
# --------------------------------------------------------------------------


def scenario_plan(kind: Traditional | WeakIdentifiability | LargePLargeN, sizes,
                  replications: int, seed: int, rows=DEFAULT_ROWS,
                  cost_limit_seconds: float | None = None) -> ExperimentPlan:
    """One regime kind at the given sizes, in the given order.

    `sizes` runs along `kind.axis` (sample sizes n or dimensions p); a
    single size is allowed.  `rows` is a sequence of (label, estimator).
    """
    labels, specs = zip(*rows)
    return ExperimentPlan(
        points=tuple(kind.model_spec(int(s), seed) for s in sizes),
        point_labels=tuple(f"{kind.axis}={int(s)}" for s in sizes),
        estimators=specs,
        estimator_labels=labels,
        replications=replications,
        master_seed=seed,
        cost_limit_seconds=cost_limit_seconds,
    )


# --------------------------------------------------------------------------
# consistency sweeps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Sweep output: the underlying result plus one verdict per row.

    Verdicts are "decreasing-to-zero" (strictly decreasing means with the
    last below a quarter of the first), "non-vanishing" (last mean above
    0.5), or "inconclusive".
    """

    result: McResult
    verdicts: dict


def consistency_sweep(
    regime: RegimeSpec,
    replications: int,
    seed: int,
    rows=DEFAULT_ROWS,
    workers: int = 1,
    cost_limit_seconds: float | None = None,
) -> SweepResult:
    """Run a regime's grid and classify each estimator's error trend."""
    if len(regime.grid) < 3:
        raise ValueError(
            f"trend classification needs at least 3 grid points, got {len(regime.grid)}"
        )
    plan = scenario_plan(regime.kind, regime.grid, replications, seed, rows, cost_limit_seconds)
    result = run_experiment(plan, workers=workers)
    verdicts = {}
    for i, lab in enumerate(result.estimator_labels):
        m = result.mean_mse[i]
        if np.all(np.diff(m) < 0) and m[-1] < m[0] / 4.0:
            verdicts[lab] = "decreasing-to-zero"
        elif m[-1] > 0.5:
            verdicts[lab] = "non-vanishing"
        else:
            verdicts[lab] = "inconclusive"
    return SweepResult(result=result, verdicts=verdicts)


# --------------------------------------------------------------------------
# table rendering
# --------------------------------------------------------------------------


def emit_table(result: McResult, fmt: str = "csv") -> str:
    """Render mean errors (5 decimals) as CSV or Markdown.

    Rows listed in `weight_rows` are followed by a companion row showing
    the average weight in parentheses.
    """
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"`fmt` must be 'csv' or 'markdown', got {fmt!r}")
    rows: list[list[str]] = [["estimator", *result.point_labels]]
    for i, lab in enumerate(result.estimator_labels):
        rows.append([lab, *(f"{v:.5f}" for v in result.mean_mse[i])])
        if i in result.weight_rows:
            rows.append(
                [f"{lab} avg weight", *(f"({v:.5f})" for v in result.avg_weight[i])]
            )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = []
    for k, r in enumerate(rows):
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
        if k == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
