"""Weighted sum-of-squares estimation of a shared principal axis.

The package implements a one-parameter family of estimators for the
leading eigenvector of the noise covariance in a rank-one multivariate
regression, together with the closed-form error bound that selects the
blend weight, plug-in weight estimation, simulation scenarios, a Monte
Carlo harness and a small CLI.
"""

from .bounds import grid_argmin_bound, lemma1_fluctuation, mse_upper_bound
from .core import (
    Dataset,
    SumOfSquares,
    SymEig,
    center_columns,
    sums_of_squares,
    sym_eig,
)
from .errors import CostLimitError, DegreesOfFreedomError, RankDeficiencyError
from .estimators import (
    AbcdParams,
    FixedWeight,
    Gamma1Estimate,
    OlsRule,
    OracleWeight,
    PluginRule,
    PluginWeights,
    estimate_abcd,
    gamma1_hat,
    loo_cv_mspe,
    loo_cv_scores,
    mse_up_to_sign,
    reduced_rank_coefficients,
    w_star,
)
from .harness import (
    DEFAULT_ROWS,
    ExperimentPlan,
    McResult,
    consistency_sweep,
    emit_table,
    estimate_runtime_seconds,
    run_experiment,
    scenario_plan,
)
from .simgen import (
    STRONG_SPIKE,
    WEAK_SPIKE,
    LargePLargeN,
    ModelSpec,
    Traditional,
    WeakIdentifiability,
    gen_dataset,
    random_gamma,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "AbcdParams",
    "CostLimitError",
    "DEFAULT_ROWS",
    "Dataset",
    "DegreesOfFreedomError",
    "ExperimentPlan",
    "FixedWeight",
    "Gamma1Estimate",
    "LargePLargeN",
    "McResult",
    "ModelSpec",
    "OlsRule",
    "OracleWeight",
    "PluginRule",
    "PluginWeights",
    "RankDeficiencyError",
    "STRONG_SPIKE",
    "SumOfSquares",
    "SymEig",
    "Traditional",
    "WEAK_SPIKE",
    "WeakIdentifiability",
    "center_columns",
    "consistency_sweep",
    "emit_table",
    "estimate_abcd",
    "estimate_runtime_seconds",
    "gamma1_hat",
    "gen_dataset",
    "grid_argmin_bound",
    "lemma1_fluctuation",
    "loo_cv_mspe",
    "loo_cv_scores",
    "mse_up_to_sign",
    "mse_upper_bound",
    "random_gamma",
    "reduced_rank_coefficients",
    "run_experiment",
    "scenario_plan",
    "substream",
    "sums_of_squares",
    "sym_eig",
    "w_star",
]
