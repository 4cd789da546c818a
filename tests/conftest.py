"""Shared test helpers: the brute-force leave-one-out oracle."""

import numpy as np
import pytest

from allopca import (
    Dataset,
    FixedWeight,
    OlsRule,
    estimate_abcd,
    gamma1_hat,
    reduced_rank_coefficients,
    sums_of_squares,
)
from allopca.estimators import _ols_fit


def refit_loo_mspe(data, rule):
    """Leave-one-out MSPE of one rule, refitting every fold from scratch.

    The reference for `loo_cv_scores`: each fold re-centers the remaining
    rows, builds a `Dataset`, and refits through `sums_of_squares`,
    `estimate_abcd`, `gamma1_hat` and the OLS fit, with all their checks.
    """
    x, y = data.x, data.y
    n = data.n
    sse = 0.0
    for i in range(n):
        mask = np.arange(n) != i
        x_tr = x[mask]
        fold_means = x_tr.mean(axis=0)
        fold = Dataset(y[mask], x_tr - fold_means)
        if isinstance(rule, OlsRule):
            coef, mu = _ols_fit(fold)
        else:
            ss = sums_of_squares(fold)
            w = rule.w if isinstance(rule, FixedWeight) else estimate_abcd(ss).w_hat
            g = gamma1_hat(ss, w).vector
            coef, mu = reduced_rank_coefficients(fold, g)
        resid = y[i] - (mu + (x[i] - fold_means) @ coef)
        sse += float(resid @ resid)
    return sse / n


@pytest.fixture
def loo_refit():
    return refit_loo_mspe
