"""The sample-space branch of `_leading_axes`: fits with a + b < p factor rows.

Wide folds are checked against the brute-force leave-one-out refit and a
wide fit against the one-fit library path (the replication cases against
`conftest.per_weight_replication` are in `test_harness.py`); each rule of
`_check_sample_stack` has a fault-injection test; axes are pinned bit for
bit under stacking and power-of-two rescaling.
"""

import numpy as np
import pytest

from allopca import (
    Dataset,
    FixedWeight,
    OlsRule,
    PluginRule,
    center_columns,
    estimate_abcd,
    gamma1_hat,
    loo_cv_scores,
    sums_of_squares,
)
from allopca import core, estimators
from allopca.core import _scatter_stack
from allopca.estimators import _fold_scatter, _leading_axes
from allopca.harness import DEFAULT_ROWS, _replicate_block
from allopca.simgen import STRONG_SPIKE

ROWS = tuple(est for _, est in DEFAULT_ROWS)
RULES = (FixedWeight(0.0), FixedWeight(0.3), FixedWeight(0.5), FixedWeight(1.0), PluginRule())


def _wide_fits(k=4, n=15, p=40, q=3, seed=1):
    """Row factors of `k` stacked wide fits (n + q < p) with a shared spike."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n, q))
    x -= x.mean(axis=1, keepdims=True)
    y = (rng.standard_normal((k, n, p))
         + 3.0 * (x @ np.ones(q))[:, :, None] * rng.standard_normal(p))
    return y, x, n, q


# --------------------------------------------------------------------------
# oracles (the replication oracle cases are in test_harness.py)
# --------------------------------------------------------------------------


def test_wide_leave_one_out_matches_refit(loo_refit, eig_sizes, monkeypatch):
    # n = 12, p = 30: every fold (2n = 24 factor rows) is solved in sample space
    rng = np.random.default_rng(7)
    n, p, q = 12, 30, 2
    x = center_columns(rng.standard_normal((n, q)))
    y = np.outer(x @ np.ones(q), np.linspace(1.0, 2.0, p)) + 0.5 * rng.standard_normal((n, p))
    data = Dataset(y, x)
    rules = (FixedWeight(0.5), FixedWeight(1.0), FixedWeight(0.0), PluginRule(), OlsRule())
    sizes = eig_sizes()
    scores = loo_cv_scores(data, rules)
    assert max(sizes) == 2 * n < p
    monkeypatch.undo()
    for score, rule in zip(scores, rules):
        assert score == pytest.approx(loo_refit(data, rule), rel=1e-10)


def test_wide_fit_matches_library_path():
    y, x, n, q = _wide_fits(k=1)
    weights, axes, plugin = _leading_axes(RULES, *_scatter_stack(y, x), n, q)
    ss = sums_of_squares(Dataset(y[0], x[0]))
    pw = estimate_abcd(ss)
    for name in ("lambda1_hat", "lambda2_hat", "a_hat", "b_hat", "c_hat", "d_hat", "w_hat"):
        assert plugin[name][0] == pytest.approx(getattr(pw, name), rel=1e-12), name
    for w, axis in zip(weights[:, 0], axes[:, 0]):
        assert 1.0 - abs(axis @ gamma1_hat(ss, w).vector) <= 1e-13
        assert axis[np.argmax(np.abs(axis))] > 0.0


# --------------------------------------------------------------------------
# bit identity
# --------------------------------------------------------------------------


def test_axes_bit_identical_under_power_of_two_rescaling():
    y, x, n, q = _wide_fits()
    base = _leading_axes(RULES, *_scatter_stack(y, x), n, q)
    for exponent in (-40, -3, 1, 7, 60):
        scaled = _leading_axes(RULES, *_scatter_stack(np.ldexp(y, exponent), x), n, q)
        assert scaled[0].tobytes() == base[0].tobytes()
        assert scaled[1].tobytes() == base[1].tobytes()


def test_axes_bit_identical_for_any_stack():
    y, x, n, q = _wide_fits(k=5)
    whole = _leading_axes(RULES, *_scatter_stack(y, x), n, q)[1]
    for i in range(5):
        alone = _leading_axes(RULES, *_scatter_stack(y[i:i + 1], x[i:i + 1]), n, q)[1]
        assert alone.tobytes() == whole[:, i:i + 1].tobytes()


# --------------------------------------------------------------------------
# sample-space checks: one fault per rule
# --------------------------------------------------------------------------


def test_corrupted_small_eigenpair_raises(monkeypatch):
    spec = STRONG_SPIKE.model_spec(50, 3)
    real = np.linalg.eigh

    def corrupted(a, *args, **kwargs):
        vals, vecs = real(a, *args, **kwargs)
        vals = vals.copy()
        vals[..., 0] += 1e-6 * np.abs(vals[..., -1])  # the smallest eigenvalue moves
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(ValueError, match="failed to reconstruct"):
        _replicate_block(spec, ROWS, np.arange(2))


def test_nan_response_raises():
    y, x, n, q = _wide_fits()
    y[2, 4, 7] = np.nan
    with pytest.raises(ValueError, match="`s_reg` contains non-finite entries"):
        _leading_axes(RULES, *_scatter_stack(y, x), n, q)


def test_non_psd_residual_gram_raises(monkeypatch):
    spec = STRONG_SPIKE.model_spec(50, 3)
    real = estimators._gram

    def dented(rows):
        g = real(rows)
        g[:, -1, -1] -= 10.0 * np.max(np.abs(g))  # the last residual row's Gram entry
        return g

    monkeypatch.setattr(estimators, "_gram", dented)
    with pytest.raises(ValueError, match="`s_resid` is not positive semidefinite"):
        _replicate_block(spec, ROWS, np.arange(2))


def test_non_orthonormal_design_basis_raises(monkeypatch):
    spec = STRONG_SPIKE.model_spec(50, 3)
    real = core._conditioned_qr
    monkeypatch.setattr(core, "_conditioned_qr",
                        lambda x, *args: (1.001 * real(x, *args)[0], None))
    with pytest.raises(ValueError, match=r"s_total != s_reg \+ s_resid: residual rows"):
        _replicate_block(spec, ROWS, np.arange(2))


def test_wrong_fold_residual_raises(monkeypatch):
    # the row form of the additivity rule: a fold's regression rows must be
    # the projection of its responses on the fold design
    rng = np.random.default_rng(3)
    n, p, q = 12, 30, 2
    data = Dataset(rng.standard_normal((n, p)), center_columns(rng.standard_normal((n, q))))

    def scaled_residual(*args):
        _, resid, t = _fold_scatter(*args)
        return t - 1.001 * resid, 1.001 * resid, t

    monkeypatch.setattr(estimators, "_fold_scatter", scaled_residual)
    with pytest.raises(ValueError, match=r"s_total != s_reg \+ s_resid of a leave-one-out fold"):
        loo_cv_scores(data, (FixedWeight(0.5),))
