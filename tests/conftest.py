"""Shared test helpers: the brute-force leave-one-out and replication oracles,
a forced replication block size, and a record of eigensolver sizes."""

import numpy as np
import pytest

from allopca import (
    AbcdParams,
    Dataset,
    FixedWeight,
    OlsRule,
    PluginRule,
    estimate_abcd,
    gen_dataset,
    mse_up_to_sign,
    sums_of_squares,
    w_star,
)
from allopca import estimators, harness


def _blend_axis(ss, w):
    """Leading eigenvector of S(w), blended here and solved by plain `np.linalg.eigh`,
    independently of every eigensolver of the package; the decomposition must
    reconstruct S(w)."""
    m = (1 - w) * ss.s_reg + w * ss.s_resid
    vals, vecs = np.linalg.eigh(m)
    assert np.linalg.norm(vecs * vals @ vecs.T - m) <= 1e-8 * max(np.linalg.norm(m), 1e-300)
    return vecs[:, -1]


def refit_loo_mspe(data, rule):
    """Leave-one-out MSPE of one rule, refitting every fold from scratch.

    The reference for `loo_cv_scores`: each fold re-centers the remaining
    rows, builds a `Dataset`, and refits through `sums_of_squares` (which
    refuses a rank-deficient fold for every rule), `estimate_abcd`,
    `_blend_axis` and an `np.linalg.lstsq` OLS fit projected onto the axis.
    """
    x, y = data.x, data.y
    n = data.n
    sse = 0.0
    for i in range(n):
        mask = np.arange(n) != i
        x_tr = x[mask]
        fold_means = x_tr.mean(axis=0)
        fold = Dataset(y[mask], x_tr - fold_means)
        ss = sums_of_squares(fold)
        mu = fold.y.mean(axis=0)
        coef = np.linalg.lstsq(fold.x, fold.y - mu, rcond=None)[0]
        if not isinstance(rule, OlsRule):
            w = rule.w if isinstance(rule, FixedWeight) else estimate_abcd(ss).w_hat
            g = _blend_axis(ss, w)
            coef = np.outer(coef @ g, g)
        resid = y[i] - (mu + (x[i] - fold_means) @ coef)
        sse += float(resid @ resid)
    return sse / n


@pytest.fixture
def loo_refit():
    return refit_loo_mspe


def per_weight_replication(spec, estimators, reps):
    """Errors and weights of replications `reps`, one eigensolve per distinct weight.

    The reference for `harness._replicate_block`: each replication resolves
    its row weights (fixed, plug-in from `estimate_abcd`, oracle from
    `w_star` on the realized design), calls `_blend_axis` once per distinct
    weight, and scores each row with `mse_up_to_sign`.  Returns (errors,
    weights), each (len(reps), len(estimators)).
    """
    mse = np.empty((len(reps), len(estimators)))
    wts = np.empty((len(reps), len(estimators)))
    for j, r in enumerate(reps):
        dataset = gen_dataset(spec, int(r))
        ss = sums_of_squares(dataset)
        cache = {}
        for k, est in enumerate(estimators):
            if isinstance(est, FixedWeight):
                w = est.w
            elif isinstance(est, PluginRule):
                w = estimate_abcd(ss).w_hat
            else:
                xa = dataset.x @ spec.alpha
                w = w_star(AbcdParams.from_spectrum(spec.lambdas, float(xa @ xa), spec.q, spec.n))
            if w not in cache:
                cache[w] = _blend_axis(ss, w)
            mse[j, k] = mse_up_to_sign(cache[w], spec.gamma1)
            wts[j, k] = w
    return mse, wts


@pytest.fixture
def replication_oracle():
    return per_weight_replication


@pytest.fixture
def force_blocks(monkeypatch):
    """`force_blocks(k)` makes `harness._replicate_block` fit `k` replications per block;
    it returns the list into which each fitted block's size goes.

    It sets `estimators._BLOCK_ENTRIES`, the one block size, to `k` times the entries
    of one replication's fit (`estimators._fit_entries`), by which `_replicate_block`
    sizes its blocks."""
    fit_entries, scatter = harness._fit_entries, harness._scatter_stack

    def force(k):
        sizes = []

        def k_per_block(n, p, q, rules):
            entries = fit_entries(n, p, q, rules)
            monkeypatch.setattr(estimators, "_BLOCK_ENTRIES", k * entries)
            return entries

        def recording(y, x):
            sizes.append(len(y))
            return scatter(y, x)

        monkeypatch.setattr(harness, "_fit_entries", k_per_block)
        monkeypatch.setattr(harness, "_scatter_stack", recording)
        return sizes

    return force


@pytest.fixture
def eig_sizes(monkeypatch):
    """`eig_sizes()` starts recording the order of every matrix that `np.linalg.eigh`
    and `eigvalsh` decompose, one entry per matrix of a stack, into the list it
    returns; `monkeypatch.undo()` stops it."""
    def record():
        sizes = []
        for name in ("eigh", "eigvalsh"):
            def recorded(a, *args, _orig=getattr(np.linalg, name), **kwargs):
                sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
                return _orig(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        return sizes

    return record
