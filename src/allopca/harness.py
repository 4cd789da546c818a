"""Monte Carlo driver: replicated experiments, trend sweeps, table output.

A plan pairs a tuple of fully resolved models (one per scenario point)
with a tuple of estimator rows.  `scenario_plan` builds the plan of one
regime kind of `simgen` (the paper's tables, a consistency sweep or a CLI
scenario) over a list of sizes.  Within a replication every estimator row
sees the same draw and the same sum-of-squares matrices, so rows differ
only through their weights (common random numbers).  Replication r of a
point is keyed by (master_seed, r), which makes results byte-identical
for any block split.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .core import _check_draw_size, _check_plugin_dof, _readonly, _scatter_stack
from .estimators import (
    AbcdParams,
    FixedWeight,
    OracleWeight,
    PluginRule,
    _blocks,
    _dots,
    _fit_entries,
    _leading_axes,
    _sign_free_errors,
    _solved_size,
    _w_star_terms,
)
from .simgen import (
    LargePLargeN,
    ModelSpec,
    Traditional,
    WeakIdentifiability,
    gen_dataset,
)


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


@dataclass(frozen=True)
class ExperimentPlan:
    """Scenario points x estimator rows x replication count.

    The points share one seed, the plan's `master_seed`.  Point and
    estimator labels must be unique.
    """

    points: tuple[ModelSpec, ...]
    point_labels: tuple[str, ...]
    estimators: tuple[EstimatorSpec, ...]
    estimator_labels: tuple[str, ...]
    replications: int

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
        labels = tuple(str(s) for s in self.estimator_labels)
        if len(labels) != len(self.estimators):
            raise ValueError("`estimator_labels` must match `estimators` in length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate estimator labels: {labels}")
        object.__setattr__(self, "estimator_labels", labels)
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ValueError(f"`replications` must be a positive int, got {self.replications!r}")
        object.__setattr__(self, "replications", int(self.replications))
        seeds = sorted({spec.master_seed for spec in self.points})
        if len(seeds) > 1:
            raise ValueError(f"the points of a plan share one seed; got seeds {seeds}")

    @property
    def master_seed(self) -> int:
        """The seed that every point shares."""
        return self.points[0].master_seed


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
    """Crude wall-clock estimate, checked by `simulate --cost-limit` and
    recorded as each result's `metadata["estimated_seconds"]`.

    Each point pays a fixed 6.5e-4 s for its blocks' set-up, and each
    replication 5e-8 s per drawn response entry (n p: the draw and the
    fit), 6e-6 s per estimator row, and 3.2e-8 s^2 + 1.6e-11 s^3 s for each
    per-weight solve of order s (`_solved_size`: p or, for a wide point, the
    reduced n - 1; the s^2 term forms, checks and lifts the matrix, the s^3
    term is LAPACK's).  Fitted, about 10% high, to best-of-3 per-point times
    of 1 to 200 replications on the default grids of tables 1 to 3b, table1
    at n = 5000 and table3b at p = 200 to 1600, on a 2-core x86-64 machine.
    """
    n_est = len(plan.estimators)
    seconds = 0.0
    for spec in plan.points:
        s = _solved_size(spec.n, spec.p)
        per_rep = (5e-8 * spec.n * spec.p + (n_est + 4) * 6e-6
                   + (n_est + 5.0) * (3.2e-8 * s ** 2 + 1.6e-11 * s ** 3))
        seconds += 6.5e-4 + plan.replications * per_rep
    return seconds


def _replicate_block(
    spec: ModelSpec, estimators: tuple[EstimatorSpec, ...], reps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a block of replications; rows follow `reps` order.

    The draws (one `gen_dataset` call each) are stacked per `_blocks` range,
    sized by `_fit_entries` at the solved size, and fit together: their
    responses centered, one `_scatter_stack` call for the row factors, oracle
    weights from the model's (a, b, d) and the designs' c = ||X alpha||^2,
    one `_leading_axes` call that checks the fits and resolves every row's
    weight and axis (in sample space when n - 1 < p: every weight at the
    reduced order n - 1), and one `_sign_free_errors` call, which scores the
    checked axes unchecked, fit-major as stored.  Every replication is
    computed as if alone, so results do not depend on how `reps` is split.
    """
    n, p, q = spec.n, spec.p, spec.q
    model = oracle = None
    if any(isinstance(est, OracleWeight) for est in estimators):
        # a flat spectrum has no oracle weight, and needs none without an oracle row
        model = AbcdParams.from_spectrum(spec.lambdas, 0.0, q, n)
    mse, wts = [], []
    for rows in _blocks(reps.size, _fit_entries(n, p, q, len(estimators))):
        draws = [gen_dataset(spec, int(r)) for r in reps[rows]]
        x = np.stack([d.x for d in draws])
        if model is not None:
            xa = x @ spec.alpha
            oracle = np.divide(*_w_star_terms(model.a, model.b, _dots(xa, xa), model.d, q))
        y = np.stack([d.y for d in draws])
        fits = _scatter_stack(y - y.mean(axis=1, keepdims=True), x)
        weights, axes, *_ = _leading_axes(estimators, *fits, oracle)
        wts.append(weights)
        mse.append(_sign_free_errors(axes, spec.gamma1))
    return np.concatenate(mse), np.concatenate(wts)


def run_experiment(plan: ExperimentPlan) -> McResult:
    """Execute a plan and aggregate to means, standard errors and weights.

    Replications run in this process: one `_replicate_block` call per
    point, over all of its replication indices.

    Raises
    ------
    DegreesOfFreedomError
        If the plan has a plug-in row and some point has n <= q + 2.
    ValueError
        If one replication of some point would draw more than
        `core.MAX_DRAW_ENTRIES` floats; every point is checked before any draw.
    """
    plugin = any(isinstance(est, PluginRule) for est in plan.estimators)
    for lab, spec in zip(plan.point_labels, plan.points):
        if plugin:
            _check_plugin_dof(spec.n, spec.q, f"point {lab!r}: ")
        n, p, q = spec.n, spec.p, spec.q
        _check_draw_size(n * (p + q), f"point {lab!r}: one replication draws n * (p + q)",
                         f"; got n = {n}, p = {p}, q = {q}")
    est_seconds = estimate_runtime_seconds(plan)
    t0 = time.perf_counter()
    n_pts = len(plan.points)
    n_est = len(plan.estimators)
    reps = plan.replications
    mse = np.empty((n_pts, reps, n_est))
    wts = np.empty((n_pts, reps, n_est))
    for i, spec in enumerate(plan.points):
        mse[i], wts[i] = _replicate_block(spec, plan.estimators, np.arange(reps))
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
    weight_rows = tuple(k for k, est in enumerate(plan.estimators)
                        if not isinstance(est, FixedWeight))
    meta = {
        "replications": reps,
        "master_seed": plan.master_seed,
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
                  replications: int, seed: int, rows=DEFAULT_ROWS) -> ExperimentPlan:
    """One regime kind at the given sizes, in the given order.

    `sizes` runs along `kind.axis` (sample sizes n or dimensions p); a
    single size is allowed.  `rows` is a sequence of (label, estimator).
    Every point is built with `seed`.
    """
    if not isinstance(kind, (Traditional, WeakIdentifiability, LargePLargeN)):
        raise ValueError(f"unknown regime kind: {kind!r}")
    labels, specs = zip(*rows)
    return ExperimentPlan(
        points=tuple(kind.model_spec(int(s), seed) for s in sizes),
        point_labels=tuple(f"{kind.axis}={int(s)}" for s in sizes),
        estimators=specs,
        estimator_labels=labels,
        replications=replications,
    )


# --------------------------------------------------------------------------
# consistency sweeps
# --------------------------------------------------------------------------


def consistency_sweep(kind: Traditional | WeakIdentifiability | LargePLargeN, grid,
                      replications: int, seed: int, rows=DEFAULT_ROWS) -> tuple[McResult, dict]:
    """Run a regime kind over a grid of sizes and classify each row's error trend.

    Takes `scenario_plan`'s inputs; `grid` must hold at least 3 strictly
    increasing sizes along `kind.axis`.  Returns the result and one verdict
    per estimator label: "decreasing-to-zero" (strictly decreasing means
    with the last below a quarter of the first), "non-vanishing" (last mean
    above 0.5), or "inconclusive".
    """
    grid = tuple(int(g) for g in grid)
    if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"trend classification needs at least 3 strictly increasing "
                         f"sizes, got {grid}")
    plan = scenario_plan(kind, grid, replications, seed, rows)
    result = run_experiment(plan)
    verdicts = {}
    for i, lab in enumerate(result.estimator_labels):
        m = result.mean_mse[i]
        if np.all(np.diff(m) < 0) and m[-1] < m[0] / 4.0:
            verdicts[lab] = "decreasing-to-zero"
        elif m[-1] > 0.5:
            verdicts[lab] = "non-vanishing"
        else:
            verdicts[lab] = "inconclusive"
    return result, verdicts


# --------------------------------------------------------------------------
# table rendering
# --------------------------------------------------------------------------


def _csv_text(rows) -> str:
    """Rows of cells as CSV text, one line per row; every CSV output of the package."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
        return _csv_text(rows)
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = []
    for k, r in enumerate(rows):
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
        if k == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
