"""Fluctuation formula and error-bound tests.

The fluctuation identity is checked against batched Monte Carlo with a
fixed design; the bound's closed-form minimizer against brute-force grid
search; and the bound's n-scaling against the advertised Theta(1/n) rate.
"""

import numpy as np
import pytest

from allopca import (
    AbcdParams,
    center_columns,
    grid_argmin_bound,
    lemma1_fluctuation,
    mse_upper_bound,
    w_star,
)


def spectrum_params(lam, c, q, n):
    return AbcdParams.from_spectrum(np.asarray(lam, dtype=float), c, q, n)


def random_valid_params(rng):
    p = int(rng.integers(2, 30))
    lam = np.sort(rng.lognormal(0.0, 1.5, size=p))[::-1]
    if lam[0] - lam[1] <= 0:
        lam[0] = lam[1] * (1.0 + rng.uniform(1e-6, 1.0))
    c = 0.0 if rng.uniform() < 0.1 else float(rng.lognormal(1.0, 2.5))
    q = int(rng.integers(1, 11))
    n = q + 2 + int(rng.integers(0, 1000))
    return AbcdParams.from_spectrum(lam, c, q, n)


def mc_fluctuation(lam, c, n, q, w, reps, seed):
    """Monte Carlo E||S(w) - E S(w)||_F^2 with a fixed centered design."""
    rng = np.random.default_rng(seed)
    p = len(lam)
    alpha = np.ones(q)
    x = center_columns(rng.standard_normal((n, q)))
    if c > 0:
        x *= np.sqrt(c) / np.linalg.norm(x @ alpha)
    else:
        alpha = np.zeros(q)
    gamma = np.zeros(p)
    gamma[0] = 1.0
    sigma = np.diag(np.asarray(lam, dtype=float))
    qmat = np.linalg.qr(x, mode="reduced")[0]
    mean_mat = (1.0 - w) * (q * sigma + c * np.outer(gamma, gamma)) \
        + w * (n - 1 - q) * sigma
    signal = np.outer(x @ alpha, gamma)
    e = rng.standard_normal((reps, n, p)) * np.sqrt(lam)
    y = signal + e
    yc = y - y.mean(axis=1, keepdims=True)
    proj = np.matmul(qmat.T, yc)
    s_reg = np.matmul(proj.transpose(0, 2, 1), proj)
    s_tot = np.matmul(yc.transpose(0, 2, 1), yc)
    s_w = (1.0 - w) * s_reg + w * (s_tot - s_reg)
    vals = np.sum((s_w - mean_mat) ** 2, axis=(1, 2))
    return vals.mean(), vals.std(ddof=1) / np.sqrt(reps)


# --------------------------------------------------------------------------
# lemma1_fluctuation
# --------------------------------------------------------------------------


def test_fluctuation_endpoint_w1():
    tr, tr2, lam1, c, n, q = 4.0, 6.0, 2.0, 4.0, 12, 2
    val = lemma1_fluctuation(tr, tr2, lam1, c, n, q, 1.0)
    assert val == pytest.approx((n - 1 - q) * (tr2 + tr ** 2), rel=1e-15)


def test_fluctuation_endpoint_w0_no_signal():
    tr, tr2, lam1, n, q = 4.0, 6.0, 2.0, 12, 2
    val = lemma1_fluctuation(tr, tr2, lam1, 0.0, n, q, 0.0)
    assert val == pytest.approx(q * (tr2 + tr ** 2), rel=1e-15)


def test_fluctuation_nonnegative_across_weights():
    for w in np.linspace(0.0, 1.0, 21):
        assert lemma1_fluctuation(4.0, 6.0, 2.0, 3.0, 9, 2, float(w)) >= 0.0


def test_fluctuation_validation():
    with pytest.raises(ValueError):
        lemma1_fluctuation(-1.0, 6.0, 2.0, 0.0, 12, 2, 0.5)
    with pytest.raises(ValueError):
        lemma1_fluctuation(4.0, 6.0, 5.0, 0.0, 12, 2, 0.5)  # lambda1 > trace
    with pytest.raises(ValueError):
        lemma1_fluctuation(4.0, 6.0, 2.0, -1.0, 12, 2, 0.5)
    with pytest.raises(ValueError):
        lemma1_fluctuation(4.0, 6.0, 2.0, 0.0, 3, 2, 0.5)
    with pytest.raises(ValueError):
        lemma1_fluctuation(4.0, 6.0, 2.0, 0.0, 12, 2, 1.5)


def test_fluctuation_matches_monte_carlo():
    lam = [2.0, 1.0, 1.0]
    tr, tr2, lam1 = 4.0, 6.0, 2.0
    for w, c, seed in ((0.3, 4.0, 40), (1.0, 0.0, 41)):
        closed = lemma1_fluctuation(tr, tr2, lam1, c, 12, 2, w)
        mean, se = mc_fluctuation(lam, c, 12, 2, w, reps=5000, seed=seed)
        assert abs(mean - closed) <= 4.0 * se


# --------------------------------------------------------------------------
# mse_upper_bound
# --------------------------------------------------------------------------


def test_bound_direct_substitution():
    params = AbcdParams(1.0, 1.0, 0.0, 1.0, 1, 11)
    # numerator 8*{1*(1-2) + 10} = 72, denominator {1 + 8}^2 = 81
    assert mse_upper_bound(params, 1.0) == pytest.approx(72.0 / 81.0, rel=1e-15)


def test_bound_alpha_null_reduction():
    # at c=0, w=0.5 the bound collapses to 8a / {(n-1) d^2}
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        lam = np.sort(rng.uniform(0.5, 4.0, size=5))[::-1]
        lam[0] += 0.5
        n = int(rng.integers(8, 200))
        params = spectrum_params(lam, 0.0, 2, n)
        expected = 8.0 * params.a / ((n - 1) * params.d ** 2)
        assert mse_upper_bound(params, 0.5) == pytest.approx(expected, rel=1e-12)


def test_bound_rejects_bad_weight():
    params = AbcdParams(1.0, 1.0, 0.0, 1.0, 1, 11)
    for w in (-0.1, 1.1):
        with pytest.raises(ValueError):
            mse_upper_bound(params, w)


def test_bound_finite_on_dense_grid():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(50):
        params = random_valid_params(rng)
        vals = np.array([mse_upper_bound(params, float(w)) for w in grid])
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)


def test_bound_minimal_at_w_star_on_grid():
    rng = np.random.default_rng(43)
    for _ in range(50):
        params = random_valid_params(rng)
        at_star = mse_upper_bound(params, w_star(params))
        vals = [mse_upper_bound(params, w / 1000.0) for w in range(1001)]
        assert at_star <= min(vals) * (1.0 + 1e-12)


def test_bound_unimodal():
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(50):
        params = random_valid_params(rng)
        vals = np.array([mse_upper_bound(params, float(w)) for w in grid])
        diffs = np.diff(vals)
        pivot = int(np.argmin(vals))
        tol = 1e-12 * vals.max()
        assert np.all(diffs[:pivot] <= tol)
        assert np.all(diffs[pivot:] >= -tol)


def test_bound_guarded_at_large_scale():
    params = AbcdParams(1e150, 1e70, 1e80, 1e75, 5, 10 ** 6)
    val = mse_upper_bound(params, 0.5)
    assert np.isfinite(val) and val > 0.0


@pytest.mark.parametrize("e", [-500, 500])
def test_weight_and_bound_ignore_power_of_two_scaling(e):
    # a has degree 2 and b, c, d degree 1, and both are scale-free: at 2^-500
    # every product of the plain formulas underflowed, at 2^500 overflowed
    rng = np.random.default_rng(47)
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(50):
        base = random_valid_params(rng)
        scaled = AbcdParams(np.ldexp(base.a, 2 * e), *np.ldexp([base.b, base.c, base.d], e),
                            base.q, base.n)
        assert w_star(scaled) == w_star(base)
        assert [mse_upper_bound(scaled, w) for w in grid] == [mse_upper_bound(base, w)
                                                               for w in grid]
    half = AbcdParams(np.ldexp(4.0, 2 * e), *np.ldexp([2.0, 3.0, 1.0], e), 1, 10)
    assert w_star(half) == 0.5 and grid_argmin_bound(half, 1e-3) == 0.5


def test_w_star_keeps_every_term_of_spread_summaries():
    # each term is scaled by the largest one, not by the largest summary, so a
    # signal 1e200 times the noise, or summaries 2^2000 apart, lose no term
    assert w_star(AbcdParams(1.0, 1.0, 1e200, 1.0, 1, 10)) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert w_star(AbcdParams(2.0 ** 1000, 2.0 ** -1000, 0.0, 2.0 ** -1000, 1, 10)) == 0.5


def test_bound_theta_one_over_n_scaling():
    # fluctuating-gap regime: c = n, d = n^(-1/3); bound(0.5) ~ 1/n
    lam = [2.0, 1.0, 1.0]
    base = spectrum_params(lam, 0.0, 5, 100)
    ratios = []
    for n in (100, 1000, 10_000, 100_000):
        params = AbcdParams(base.a, base.b, float(n), float(n) ** (-1.0 / 3.0), 5, n)
        ratios.append(mse_upper_bound(params, 0.5) * n)
    assert max(ratios) / min(ratios) <= 2.0


# --------------------------------------------------------------------------
# grid_argmin_bound
# --------------------------------------------------------------------------


def test_grid_argmin_zero_signal():
    params = spectrum_params([2.0, 1.0, 1.0], 0.0, 2, 12)
    assert grid_argmin_bound(params, 1e-4) == pytest.approx(0.5, abs=1e-4)


def test_grid_argmin_unit_example():
    params = AbcdParams(1.0, 1.0, 1.0, 1.0, 1, 100)
    assert grid_argmin_bound(params, 1e-6) == pytest.approx(0.6, abs=1e-5)


def test_grid_argmin_step_validation():
    params = AbcdParams(1.0, 1.0, 0.0, 1.0, 1, 11)
    for step in (0.0, -1e-3, 0.02, float("nan"), 1e-300, 9.99e-7):
        with pytest.raises(ValueError, match=r"`step` must lie in \[1e-6, 0.01\]"):
            grid_argmin_bound(params, step)
    for step in (1e-6, 0.01):
        assert 0.0 <= grid_argmin_bound(params, step) <= 1.0


def test_grid_argmin_matches_w_star():
    rng = np.random.default_rng(45)
    for _ in range(200):
        params = random_valid_params(rng)
        assert abs(grid_argmin_bound(params, 1e-3) - w_star(params)) <= 2e-3


def test_grid_argmin_fine_grid_tracks_w_star():
    rng = np.random.default_rng(46)
    for _ in range(5):
        params = random_valid_params(rng)
        assert abs(grid_argmin_bound(params, 1e-6) - w_star(params)) <= 1e-4
