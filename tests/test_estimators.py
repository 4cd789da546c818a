"""Estimator family, optimal weight, plug-in weight, and CV tests.

The closed-form weight is exercised against hand-computed values and a
spectrum-based random-parameter generator; the plug-in summaries against
direct substitution and small Monte Carlo unbiasedness checks.
"""

import inspect
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from allopca import (
    AbcdParams,
    Dataset,
    DegreesOfFreedomError,
    FixedWeight,
    OlsRule,
    PluginRule,
    SumOfSquares,
    Traditional,
    center_columns,
    estimate_abcd,
    gamma1_hat,
    gen_dataset,
    ModelSpec,
    RankDeficiencyError,
    loo_cv_mspe,
    loo_cv_scores,
    mse_up_to_sign,
    random_gamma,
    reduced_rank_coefficients,
    sums_of_squares,
    w_star,
)
import allopca
from allopca import core, estimators, harness
from allopca.cli import DEFAULT_WEIGHT_GRID, _fixed_rows, main
from allopca.core import _gram, _scatter_stack
from allopca.estimators import (WEIGHT_CAP, _fit_entries, _fold_rows, _leading_axes,
                                _plugin_weights)
from allopca.harness import DEFAULT_ROWS


def diag_ss(reg, resid, n=10, q=2):
    return SumOfSquares(np.diag(reg), np.diag(resid), n, q)


def random_valid_params(rng):
    """AbcdParams drawn through a covariance spectrum, hence realizable."""
    p = int(rng.integers(2, 30))
    lam = np.sort(rng.lognormal(0.0, 1.5, size=p))[::-1]
    if lam[0] - lam[1] <= 0:
        lam[0] = lam[1] * (1.0 + rng.uniform(1e-6, 1.0))
    c = 0.0 if rng.uniform() < 0.1 else float(rng.lognormal(1.0, 2.5))
    q = int(rng.integers(1, 11))
    n = q + 2 + int(rng.integers(0, 1000))
    return AbcdParams.from_spectrum(lam, c, q, n)


# --------------------------------------------------------------------------
# gamma1_hat
# --------------------------------------------------------------------------


def test_gamma1_hat_diagonal_endpoints():
    ss = diag_ss([3.0, 1.0], [1.0, 2.0])
    assert np.allclose(gamma1_hat(ss, 0.0).vector, [1.0, 0.0], atol=1e-14)
    assert np.allclose(gamma1_hat(ss, 1.0).vector, [0.0, 1.0], atol=1e-14)
    # S(0.5) = diag(2, 1.5): still the first axis
    mid = gamma1_hat(ss, 0.5)
    assert np.allclose(mid.vector, [1.0, 0.0], atol=1e-14)
    assert mid.weight_used == 0.5
    assert mid.leading_gap == pytest.approx(0.5)
    assert not mid.tie_flag


def test_gamma1_hat_tie_flag():
    ss = diag_ss([1.0, 1.0], [0.5, 0.5])
    est = gamma1_hat(ss, 0.3)
    assert est.tie_flag
    assert np.isclose(np.linalg.norm(est.vector), 1.0)


def test_commands_flag_ties_by_the_rule_of_gamma1_hat():
    # two Hadamard columns orthogonal to the design give S(w) = w diag(4, 4 s^2, 0, ...):
    # a tie for s = 1 (first fit), a gap of 12 w for s = 2 (second fit)
    h = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
    x = np.stack([h[:, 2:]] * 2)
    rules = (FixedWeight(0.5), FixedWeight(1.0))
    for p in (3, 40):  # the p x p solve, and the sample-space solve of n - 1 = 3 < p rows
        y = np.zeros((2, 4, p))
        y[:, :, :2] = h[:, :2]
        y[1, :, 1] *= 2.0
        fits = _scatter_stack(y, x)
        weights, axes, gaps, ties, _ = _leading_axes(rules, *fits)
        assert ties.tolist() == [[True, True], [False, False]]
        assert gaps[1] == pytest.approx(12.0 * weights[1], rel=1e-12)
        for i in range(2):
            ss = SumOfSquares(_gram(fits[0])[i], _gram(fits[1])[i], 4, 1)
            for r, rule in enumerate(rules):
                est = gamma1_hat(ss, rule.w)
                assert est.tie_flag == ties[i, r]
                assert est.leading_gap == pytest.approx(gaps[i, r], rel=1e-12, abs=1e-12)


def test_gamma1_hat_scaling_invariance_bit_identical():
    rng = np.random.default_rng(20)
    x = center_columns(rng.standard_normal((15, 3)))
    y = rng.standard_normal((15, 4))
    ss = sums_of_squares(Dataset(y, x))
    base = gamma1_hat(ss, 0.35).vector
    for s in (0.5, 4.0, 256.0):
        scaled = SumOfSquares(s * ss.s_reg, s * ss.s_resid, ss.n, ss.q)
        assert gamma1_hat(scaled, 0.35).vector.tobytes() == base.tobytes()


@pytest.mark.parametrize("gap", [0.0, 1e-13])
def test_gaps_and_ties_survive_power_of_two_rescaling(gap):
    # the tie rule compares the gap with TIE_TOL times the trace on one scale;
    # near-ties at 2^e keep the bits of their gaps (times 2^e) and their flags,
    # for a p x p fit (gamma1_hat) and for a wide fit (n - 1 = 3 < p = 40)
    h = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
    y = np.zeros((1, 4, 40))  # two columns orthogonal to the design: S(w) = w s_resid
    y[0, :, 0], y[0, :, 1] = h[:, 0], h[:, 1] * np.sqrt(1.0 - gap / 4.0)
    rules = (FixedWeight(1.0), FixedWeight(0.5))

    def solved(e):
        ss = SumOfSquares(np.ldexp(np.diag([1.0, 1.0, 2.0]), e),
                          np.ldexp(np.diag([3.0, 3.0 - gap, 1.0]), e), 10, 1)
        ests = [gamma1_hat(ss, rule.w) for rule in rules]
        wide = _leading_axes(rules, *_scatter_stack(np.ldexp(y, e // 2), h[None, :, 2:]))
        return (np.array([est.leading_gap for est in ests]),
                np.array([est.tie_flag for est in ests]), wide[2][0], wide[3][0])

    base = solved(0)
    assert base[1].all() and base[3].all()
    for e in (40, -40, 300, -300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps, ties, wide_gaps, wide_ties = solved(e)
        assert gaps.tobytes() == np.ldexp(base[0], e).tobytes()
        assert wide_gaps.tobytes() == np.ldexp(base[2], e).tobytes()
        assert ties.tolist() == base[1].tolist() and wide_ties.tolist() == base[3].tolist()


def test_gamma1_hat_weight_validation():
    ss = diag_ss([3.0, 1.0], [1.0, 2.0])
    for w in (1.5, -0.1, -0.01, 1.01, np.nan):
        with pytest.raises(ValueError, match="outside"):
            gamma1_hat(ss, w)


# --------------------------------------------------------------------------
# mse_up_to_sign
# --------------------------------------------------------------------------


def test_mse_identity_and_sign():
    g = np.array([0.6, 0.8])
    assert mse_up_to_sign(g, g) == 0.0
    assert mse_up_to_sign(-g, g) == 0.0


def test_mse_orthogonal():
    assert mse_up_to_sign(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0


def test_mse_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(200):
        g = rng.standard_normal(5)
        h = rng.standard_normal(5)
        g /= np.linalg.norm(g)
        h /= np.linalg.norm(h)
        brute = min(np.sum((t * g - h) ** 2) for t in (-1.0, 1.0))
        val = mse_up_to_sign(g, h)
        assert val == pytest.approx(brute, abs=1e-12)
        assert 0.0 <= val <= 2.0
        assert val == pytest.approx(mse_up_to_sign(h, g), abs=1e-12)
        assert val == pytest.approx(mse_up_to_sign(-g, h), abs=1e-12)


def test_mse_rejects_non_unit():
    with pytest.raises(ValueError):
        mse_up_to_sign(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        mse_up_to_sign(np.array([1.0, 0.0]), np.array([2.0, 0.0]))


# --------------------------------------------------------------------------
# w_star and AbcdParams
# --------------------------------------------------------------------------


def test_w_star_zero_signal_is_half():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        lam = np.sort(rng.uniform(0.5, 5.0, size=6))[::-1]
        lam[0] += 1.0
        params = AbcdParams.from_spectrum(lam, 0.0, 3, 40)
        assert w_star(params) == 0.5


def test_w_star_unit_example():
    assert w_star(AbcdParams(1.0, 1.0, 1.0, 1.0, 1, 100)) == 0.6


def test_w_star_hand_value():
    params = AbcdParams(10.0, 3.0, 2.0, 1.5, 5, 30)
    num = 10.0 * 1.5 * 5 + 2 * 3.0 * 2.0 * 1.5
    den = 2 * 10.0 * 1.5 * 5 + 2 * 3.0 * 2.0 * 1.5 + 10.0 * 2.0
    assert w_star(params) == pytest.approx(num / den, rel=1e-15)


def test_w_star_range_over_many_draws():
    rng = np.random.default_rng(22)
    for _ in range(100_000):
        params = random_valid_params(rng)
        w = w_star(params)
        assert 0.0 < w < 2.0 / 3.0


def test_abcd_from_spectrum():
    params = AbcdParams.from_spectrum([2.0, 1.0, 1.0], 4.0, 2, 12)
    assert params.a == pytest.approx(6.0 + 16.0)
    assert params.b == pytest.approx(6.0)
    assert params.c == 4.0
    assert params.d == pytest.approx(1.0)


def test_abcd_validation():
    with pytest.raises(ValueError):
        AbcdParams(-1.0, 1.0, 0.0, 0.5, 1, 10)
    with pytest.raises(ValueError):
        AbcdParams(1.0, 1.0, -0.1, 0.5, 1, 10)
    with pytest.raises(ValueError):
        AbcdParams(1.0, 1.0, 0.0, 0.0, 1, 10)
    with pytest.raises(ValueError):  # n too small
        AbcdParams(1.0, 1.0, 0.0, 0.5, 5, 6)
    with pytest.raises(ValueError):  # not realizable by a spectrum: b*d > a
        AbcdParams(1.0, 10.0, 1.0, 10.0, 1, 10)
    with pytest.raises(ValueError):
        AbcdParams.from_spectrum([1.0, 2.0], 0.0, 1, 10)


# --------------------------------------------------------------------------
# estimate_abcd
# --------------------------------------------------------------------------


def test_estimate_abcd_direct_substitution():
    n, q = 20, 5
    m = n - 1 - q
    s_resid = m * np.diag([2.0, 1.0, 1.0])
    s_reg = np.diag([1.0, 0.5, 0.25])
    ss = SumOfSquares(s_reg, s_resid, n, q)
    pw = estimate_abcd(ss)
    assert np.allclose(pw.sigma_hat, np.diag([2.0, 1.0, 1.0]), atol=1e-12)
    assert pw.lambda1_hat == pytest.approx(2.0)
    assert pw.lambda2_hat == pytest.approx(1.0)
    assert pw.d_hat == pytest.approx(1.0)
    assert pw.b_hat == pytest.approx(6.0)
    # unbiased tr(Sigma^2) estimate, by hand
    tr_se2 = (m ** 2) * 6.0
    tr_se = m * 4.0
    expected = (tr_se2 - tr_se ** 2 / m) / ((n + 1 - q) * (n - 2 - q))
    assert pw.tr_sigma2_hat == pytest.approx(expected, rel=1e-14)
    assert pw.a_hat == pytest.approx(expected + 16.0, rel=1e-14)
    assert pw.c_hat == pytest.approx(1.75 - q * 4.0, rel=1e-14)


def test_estimate_abcd_needs_degrees_of_freedom():
    ss = diag_ss([1.0, 0.5], [2.0, 1.0], n=7, q=5)
    with pytest.raises(DegreesOfFreedomError):
        estimate_abcd(ss)


def test_estimate_abcd_needs_two_responses():
    # lambda2_hat needs a second eigenvalue of Sigma_hat
    ss = SumOfSquares(np.diag([1.0]), np.diag([2.0]), n=20, q=2)
    with pytest.raises(ValueError, match="two response coordinates"):
        estimate_abcd(ss)


def test_estimate_abcd_degenerate_cases():
    # flat residual spectrum and c_hat exactly 0: raw weight undefined
    n, q = 20, 5
    m = n - 1 - q
    ss = SumOfSquares(np.diag([15.0, 0.0, 0.0]), m * np.eye(3), n, q)
    pw = estimate_abcd(ss)
    assert pw.d_hat == 0.0
    assert pw.c_hat == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(pw.w_hat_raw)
    assert pw.w_hat == 0.0
    # negative c_hat with flat spectrum: denominator < 0, weight pinned to 0
    ss = SumOfSquares(0.1 * np.eye(3), m * np.eye(3), n, q)
    pw = estimate_abcd(ss)
    assert pw.w_hat == 0.0


def test_plugin_weight_always_in_range():
    for seed in range(300):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(9, 40))
        q = int(rng.integers(1, 5))
        p = int(rng.integers(2, 7))
        if n <= 2 + q:
            continue
        x = center_columns(rng.standard_normal((n, q)))
        y = rng.standard_normal((n, p))
        pw = estimate_abcd(sums_of_squares(Dataset(y, x)))
        assert 0.0 <= pw.w_hat <= WEIGHT_CAP


def test_plugin_unbiasedness_small_mc():
    # Sigma = diag(2,1,1), p=3, q=2, n=30; E[sigma_hat] = Sigma and
    # E[tr_sigma2_hat] = tr(Sigma^2) = 6, both within 4 standard errors.
    reps, n, q = 5000, 30, 2
    rng = np.random.default_rng(23)
    root = np.sqrt([2.0, 1.0, 1.0])
    sig_draws = np.empty((reps, 3, 3))
    tr2_draws = np.empty(reps)
    for r in range(reps):
        x = center_columns(rng.standard_normal((n, q)))
        y = np.outer(x @ np.ones(q), [1.0, 0.0, 0.0]) + rng.standard_normal((n, 3)) * root
        pw = estimate_abcd(sums_of_squares(Dataset(y, x)))
        sig_draws[r] = pw.sigma_hat
        tr2_draws[r] = pw.tr_sigma2_hat
    mean = sig_draws.mean(axis=0)
    se = sig_draws.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - np.diag([2.0, 1.0, 1.0])) <= 4.0 * se)
    tr2_se = tr2_draws.std(ddof=1) / np.sqrt(reps)
    assert abs(tr2_draws.mean() - 6.0) <= 4.0 * tr2_se


def test_plugin_weight_approaches_oracle():
    # median |w_hat - w*| shrinks as n grows in the baseline scenario
    medians = []
    for n in (50, 200, 1000):
        spec = Traditional().model_spec(n, seed=0)
        gaps = []
        for rep in range(200):
            data = gen_dataset(spec, rep)
            ss = sums_of_squares(data)
            w_hat = estimate_abcd(ss).w_hat
            xa = data.x @ spec.alpha
            oracle = w_star(AbcdParams.from_spectrum(
                spec.lambdas, float(xa @ xa), spec.q, spec.n))
            gaps.append(abs(w_hat - oracle))
        medians.append(float(np.median(gaps)))
    assert medians[0] > medians[1] > medians[2]


# powers of two that rescale the plug-in example's data; the terms of the weight
# grow as y^6, so at -180 and 170 they left the float range before they were scaled,
# and at -250 and 250 LAPACK rescales an unscaled s_resid by a factor other than a
# power of two, so its plain `eigvalsh` moved lambda1_hat, d_hat and the weight
PLUGIN_SCALES = (-250, -180, -150, 0, 150, 170, 250)


def plugin_scale_data(k=0):
    """The plug-in example (n = 30, p = 4, q = 2), its responses times 2**k."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((30, 4))
    return Dataset(np.ldexp(y, k), center_columns(rng.standard_normal((30, 2))))


@pytest.mark.parametrize("k", PLUGIN_SCALES)
def test_plugin_weight_ignores_power_of_two_rescaling(k):
    base = estimate_abcd(sums_of_squares(plugin_scale_data()))
    rules = (PluginRule(), FixedWeight(0.5), FixedWeight(1.0), OlsRule())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pw = estimate_abcd(sums_of_squares(plugin_scale_data(k)))
        scores = loo_cv_scores(plugin_scale_data(k), rules)
    assert pw.w_hat == base.w_hat == 0.19455387524589607
    assert pw.w_hat_raw == base.w_hat_raw
    for name, power in (("lambda1_hat", 2), ("lambda2_hat", 2), ("tr_sigma2_hat", 4),
                        ("a_hat", 4), ("b_hat", 2), ("c_hat", 2), ("d_hat", 2)):
        assert getattr(pw, name) == np.ldexp(getattr(base, name), power * k), name
    assert [v / 4.0 ** k for v in scores] == list(loo_cv_scores(plugin_scale_data(), rules))


def _estimate_report(tmp_path, capsys, k):
    """`estimate`'s header values and vector rows on the plug-in example times 2**k."""
    data = plugin_scale_data(k)
    argv = ["estimate"]
    for flag, mat in (("--y", data.y), ("--x", data.x)):
        path = tmp_path / f"{k}{flag[2:]}.csv"
        np.savetxt(path, mat, delimiter=",", fmt="%.17g")
        argv += [flag, str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    head = dict(line[2:].split(" = ") for line in lines[1:] if line.startswith("# "))
    return head, [line for line in lines if not line.startswith("#")]


@pytest.mark.parametrize("k", PLUGIN_SCALES)
def test_estimate_report_ignores_power_of_two_rescaling(tmp_path, capsys, k):
    base_head, base_rows = _estimate_report(tmp_path, capsys, 0)
    head, rows = _estimate_report(tmp_path, capsys, k)
    assert head["w_hat"] == base_head["w_hat"] == "0.1945538752"
    for name in ("w_hat_raw", "contribution_ratio_1", "contribution_ratio_2"):
        assert head[name] == base_head[name], name
    for name in ("lambda1_hat", "lambda2_hat"):
        assert float(head[name]) == pytest.approx(float(base_head[name]) * 4.0 ** k, rel=1e-9)
    assert rows == base_rows


def test_plugin_summaries_of_degree_four_read_inf_past_the_float_range():
    # at y * 2^300 the Grams reach 2^600, so tr(Sigma^2) and a_hat scale back
    # past the float range: they read inf, with no warning, and the weight stays
    base = estimate_abcd(sums_of_squares(plugin_scale_data()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pw = estimate_abcd(sums_of_squares(plugin_scale_data(300)))
    assert pw.tr_sigma2_hat == pw.a_hat == np.inf
    assert pw.w_hat == base.w_hat and pw.w_hat_raw == base.w_hat_raw


def test_estimate_abcd_reads_the_fit_checks_spectrum(eig_sizes):
    # the eigenvalues of s_resid come from the `SumOfSquares` check, which
    # computed them; the result record re-checks nothing
    ss = sums_of_squares(plugin_scale_data())
    sizes = eig_sizes()
    pw = estimate_abcd(ss)
    assert sizes == []
    assert not pw.sigma_hat.flags.writeable
    assert all(type(getattr(pw, name)) is float
               for name in ("lambda1_hat", "a_hat", "d_hat", "w_hat_raw", "w_hat"))


def test_gamma1_hat_decomposes_only_a_matrix_off_weight_one(eig_sizes):
    # S(1) is s_resid, whose spectrum the `SumOfSquares` check computed
    ss = sums_of_squares(plugin_scale_data())
    sizes = eig_sizes()
    gamma1_hat(ss, 1.0)
    assert sizes == []
    gamma1_hat(ss, 0.3)
    assert sizes == [ss.p]


PARITY_RULES = tuple(FixedWeight(w) for w in (0.0, 0.3, 0.5, 1.0)) + (PluginRule(),)


def _parity_datasets(k):
    """p x p datasets with their responses times 2**k: four with a rank-one signal
    (n = 30, p = 6, q = 2) and eight with none (n = 20, p = 10, q = 5), some of
    whose plug-in weights fall back to 0."""
    rng = np.random.default_rng(29)
    sets = [_rank_one_data(60 + j, 30, 6, 2) for j in range(4)]
    sets += [(rng.standard_normal((20, 10)), center_columns(rng.standard_normal((20, 5))))
             for _ in range(8)]
    return [Dataset(np.ldexp(y, k), x) for y, x in sets]


@pytest.mark.parametrize("k", (-300, -250, 0, 250, 300))
def test_library_path_gives_the_commands_bits(k):
    # `estimate_abcd(sums_of_squares(d))` and `gamma1_hat` give every plug-in
    # field, vector, gap and tie flag that `_leading_axes` gives the command
    # that fits d, at every scale: one spectrum of s_resid on both paths
    fell = 0
    for data in _parity_datasets(k):
        ss = sums_of_squares(data)
        pw = estimate_abcd(ss)
        fit = _scatter_stack(center_columns(data.y)[None], data.x[None])
        weights, axes, gaps, ties, plugin = _leading_axes(PARITY_RULES, *fit)
        for name, want in plugin.items():
            if name != "tr_sigma_hat":
                assert np.float64(getattr(pw, name)).tobytes() == want[0].tobytes(), name
        assert weights[0, -1] == pw.w_hat
        fell += pw.w_hat == 0.0
        for j, w in enumerate(weights[0]):
            est = gamma1_hat(ss, float(w))
            assert est.vector.tobytes() == axes[0, j].tobytes(), w
            assert np.float64(est.leading_gap).tobytes() == gaps[0, j].tobytes(), w
            assert est.tie_flag == ties[0, j], w
    assert 0 < fell < 8


# --------------------------------------------------------------------------
# reduced-rank coefficients
# --------------------------------------------------------------------------


def ols_oracle(data):
    coef, *_ = np.linalg.lstsq(data.x, data.y - data.y.mean(axis=0), rcond=None)
    return coef


def test_reduced_rank_projection_fixes_own_range():
    rng = np.random.default_rng(24)
    x = center_columns(rng.standard_normal((20, 2)))
    b = np.zeros((2, 3))
    b[:, 0] = [1.5, -0.5]  # only the first response column is driven
    y = x @ b
    y += 0.3  # constant shift lands in the intercept
    data = Dataset(y, x)
    coef, mu = reduced_rank_coefficients(data, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(coef, b, atol=1e-12)
    assert np.allclose(mu, y.mean(axis=0))


def test_reduced_rank_annihilates_orthogonal_axis():
    rng = np.random.default_rng(25)
    x = center_columns(rng.standard_normal((20, 2)))
    b = np.zeros((2, 3))
    b[:, 0] = [1.5, -0.5]
    data = Dataset(x @ b, x)
    coef, _ = reduced_rank_coefficients(data, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(coef, 0.0, atol=1e-12)


def test_reduced_rank_zeroes_other_columns():
    rng = np.random.default_rng(26)
    x = center_columns(rng.standard_normal((20, 2)))
    y = rng.standard_normal((20, 3))
    data = Dataset(y, x)
    e1 = np.array([1.0, 0.0, 0.0])
    coef, _ = reduced_rank_coefficients(data, e1)
    b_ols = ols_oracle(data)
    expected = np.outer(b_ols @ e1, e1)
    assert np.allclose(coef, expected, atol=1e-12)
    assert np.allclose(coef[:, 1:], 0.0)


def test_reduced_rank_validates_axis():
    data = Dataset(*_simple_data(27))
    with pytest.raises(ValueError):
        reduced_rank_coefficients(data, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        reduced_rank_coefficients(data, np.array([1.0, 0.0]))


def test_reduced_rank_shares_the_conditioning_limit(monkeypatch):
    # the least-squares fit refuses exactly the designs the scatter fit refuses
    rng = np.random.default_rng(28)
    base = center_columns(rng.standard_normal((30, 1)))
    x = np.hstack([base, base + 1e-3 * center_columns(rng.standard_normal((30, 1)))])
    data = Dataset(rng.standard_normal((30, 3)), x)
    g = np.array([1.0, 0.0, 0.0])
    reduced_rank_coefficients(data, g)
    sums_of_squares(data)
    monkeypatch.setattr(core, "COND_LIMIT", 1e3)
    with pytest.raises(RankDeficiencyError, match=r"cond\(X'X\) = .* exceeds 1000"):
        reduced_rank_coefficients(data, g)
    with pytest.raises(RankDeficiencyError, match=r"cond\(X'X\) = .* exceeds 1000"):
        sums_of_squares(data)


def _simple_data(seed, n=20, p=3, q=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, p)), center_columns(rng.standard_normal((n, q)))


# --------------------------------------------------------------------------
# leave-one-out CV
# --------------------------------------------------------------------------


def test_loo_cv_noiseless_recovery():
    rng = np.random.default_rng(28)
    n, p, q = 12, 4, 2
    x = center_columns(rng.standard_normal((n, q)))
    gamma = rng.standard_normal(p)
    gamma /= np.linalg.norm(gamma)
    mu = rng.standard_normal(p)
    y = mu + np.outer(x @ np.array([1.0, -2.0]), gamma)
    data = Dataset(y, x)
    scale = float(np.mean(np.sum(y ** 2, axis=1)))
    assert loo_cv_mspe(data, FixedWeight(0.0)) <= 1e-16 * scale


def test_loo_cv_pure_noise_is_finite():
    rng = np.random.default_rng(29)
    n, p, q = 10, 3, 2
    data = Dataset(rng.standard_normal((n, p)),
                   center_columns(rng.standard_normal((n, q))))
    for rule in (OlsRule(), FixedWeight(0.5), FixedWeight(1.0), PluginRule()):
        mspe = loo_cv_mspe(data, rule)
        assert np.isfinite(mspe) and mspe >= 0.0


def test_loo_cv_degrees_of_freedom_boundary():
    rng = np.random.default_rng(30)
    q = 2
    n = q + 3
    data = Dataset(rng.standard_normal((n, 3)),
                   center_columns(rng.standard_normal((n, q))))
    with pytest.raises(DegreesOfFreedomError, match="fold"):
        loo_cv_mspe(data, FixedWeight(0.5))


def test_loo_cv_rejects_unknown_rule():
    data = Dataset(*_simple_data(31, n=15))
    with pytest.raises(ValueError):
        loo_cv_mspe(data, "plugin")


ALL_RULES = (FixedWeight(0.5), FixedWeight(1.0), FixedWeight(0.0), FixedWeight(0.1),
             FixedWeight(0.2), FixedWeight(0.3), FixedWeight(0.4), FixedWeight(0.6),
             PluginRule(), OlsRule())


def _rank_one_data(seed, n, p, q, signal=1.0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = center_columns(rng.standard_normal((n, q)))
    gamma = rng.standard_normal(p)
    gamma /= np.linalg.norm(gamma)
    y = rng.standard_normal(p) + signal * np.outer(x @ rng.standard_normal(q), gamma)
    return y + noise * rng.standard_normal((n, p)), x


def _no_signal_dataset(replication):
    # table1 shape (p = 10, q = 5, lambdas 2, 1, ..., 1) with alpha = 0, n = 20
    p, q = 10, 5
    lam = np.ones(p)
    lam[0] = 2.0
    spec = ModelSpec(n=20, mu=np.zeros(p), alpha=np.zeros(q), lambdas=lam,
                     gamma_basis=random_gamma(p, 0), master_seed=5)
    return gen_dataset(spec, replication)


def _assert_matches_refit(data, loo_refit, rules=ALL_RULES, floor=0.0):
    fast = loo_cv_scores(data, rules)
    for rule, got in zip(rules, fast):
        want = loo_refit(data, rule)
        assert abs(got - want) <= 1e-9 * max(want, floor), (rule, got, want)


@pytest.mark.parametrize("n, p, q", [(8, 2, 1), (12, 4, 2), (30, 10, 5), (40, 3, 4),
                                     (10, 15, 2), (9, 30, 3), (20, 19, 1)])
def test_loo_cv_scores_match_refit_shapes(loo_refit, n, p, q):
    # the last three shapes have p > n - 1 in every fold
    data = Dataset(*_rank_one_data(40 + n + p + q, n, p, q))
    _assert_matches_refit(data, loo_refit)


@pytest.mark.parametrize("exponent", range(-6, 7, 2))
def test_loo_cv_scores_match_refit_power_of_ten_scales(loo_refit, exponent):
    y, x = _rank_one_data(41, 15, 6, 2)
    _assert_matches_refit(Dataset(10.0 ** exponent * y, x), loo_refit)


def test_loo_cv_scores_match_refit_no_signal(loo_refit):
    for rep in range(3):
        _assert_matches_refit(_no_signal_dataset(rep), loo_refit)


def test_loo_cv_scores_match_refit_noiseless(loo_refit):
    # with no residual scatter the w = 1 axis is roundoff, so that rule is
    # left out; the others recover the signal to roundoff on either path
    y, x = _rank_one_data(42, 14, 5, 2, noise=0.0)
    scale = float(np.mean(np.sum(y ** 2, axis=1)))
    rules = tuple(r for r in ALL_RULES if r != FixedWeight(1.0))
    _assert_matches_refit(Dataset(y, x), loo_refit, rules, floor=1e-12 * scale)


def test_loo_cv_scores_order_and_single_rule():
    data = Dataset(*_rank_one_data(43, 16, 5, 2))
    scores = loo_cv_scores(data, ALL_RULES)
    assert np.allclose(scores, loo_cv_scores(data, ALL_RULES[::-1])[::-1], rtol=1e-14, atol=0)
    assert loo_cv_mspe(data, PluginRule()) == loo_cv_scores(data, (PluginRule(),))[0]
    assert loo_cv_scores(data, ()) == ()


def test_loo_cv_leverage_one_design_raises(loo_refit, tmp_path, capsys):
    # a dummy column that is nonzero in one row gives that row leverage 1:
    # leaving it out leaves the dummy column constant
    rng = np.random.default_rng(44)
    n = 15
    dummy = np.zeros((n, 1))
    dummy[6] = 1.0
    x = center_columns(np.hstack([rng.standard_normal((n, 2)), dummy]))
    data = Dataset(rng.standard_normal((n, 4)), x)
    message = r"^leaving out row 6: cond\(X'X\)"
    for rule in (OlsRule(), FixedWeight(0.5), PluginRule()):
        with pytest.raises(RankDeficiencyError, match=message):
            loo_cv_scores(data, (rule,))
        with pytest.raises(RankDeficiencyError):
            loo_refit(data, rule)
    ypath, xpath = tmp_path / "y.csv", tmp_path / "x.csv"
    np.savetxt(ypath, data.y, delimiter=",", fmt="%.17g")
    np.savetxt(xpath, data.x, delimiter=",", fmt="%.17g")
    assert main(["cv", "--y", str(ypath), "--x", str(xpath)]) == 2
    assert re.search(message, capsys.readouterr().err.splitlines()[-1].removeprefix("error: "))


def test_loo_cv_fold_conditioning_names_the_left_out_row(monkeypatch):
    # the folds share `core`'s cond(X'X) rule; the limit sits between the two
    # worst folds' conditioning, so exactly one fold fails and is named
    data = Dataset(*_simple_data(29))
    conds = []
    for i in range(data.n):
        x_tr = data.x[np.arange(data.n) != i]
        conds.append(np.linalg.cond(x_tr - x_tr.mean(axis=0)) ** 2)
    worst, second = np.argsort(conds)[::-1][:2]
    monkeypatch.setattr(core, "COND_LIMIT", (conds[worst] + conds[second]) / 2.0)
    with pytest.raises(RankDeficiencyError,
                       match=rf"^leaving out row {worst}: cond\(X'X\) = .* exceeds"):
        loo_cv_scores(data, ALL_RULES)


def test_fold_plugin_weights_match_estimate_abcd_with_fallback():
    fallbacks = 0
    for rep in range(6):
        data = _no_signal_dataset(rep)
        n, p, q = data.n, data.p, data.q
        folds = np.arange(n)
        rows = _fold_rows(np.concatenate((data.y, data.x), axis=1), folds)[0]
        reg, resid, _, _ = _scatter_stack(rows[:, :, :p], rows[:, :, p:])
        s_resid = _gram(resid)
        fast = _plugin_weights(_gram(reg), s_resid, np.linalg.eigvalsh(s_resid), n - 1, q)
        for i in folds:
            mask = folds != i
            x_tr = data.x[mask]
            pw = estimate_abcd(sums_of_squares(Dataset(data.y[mask], x_tr - x_tr.mean(axis=0))))
            den = (2.0 * pw.a_hat * pw.d_hat * q + 2.0 * pw.b_hat * pw.c_hat * pw.d_hat
                   + pw.a_hat * pw.c_hat)
            fallbacks += den <= 0.0
            assert abs(fast["w_hat"][i] - pw.w_hat) <= 1e-9, (rep, i, fast["w_hat"][i], pw.w_hat)
            for name in ("a_hat", "b_hat", "c_hat", "d_hat", "w_hat_raw"):
                got, want = fast[name][i], getattr(pw, name)
                assert (np.isnan(got) and np.isnan(want)) or abs(got - want) <= 1e-9, \
                    (rep, i, name, got, want)
    assert fallbacks > 0


@pytest.mark.parametrize("folds_per_block", [1, 3])
def test_loo_cv_scores_fold_blocks_agree(monkeypatch, loo_refit, folds_per_block):
    n, p, q = 11, 4, 2
    data = Dataset(*_rank_one_data(45, n, p, q))
    whole = loo_cv_scores(data, ALL_RULES)
    per_fold = _fit_entries(n - 1, p, q, len(ALL_RULES))
    monkeypatch.setattr(estimators, "_BLOCK_ENTRIES", folds_per_block * per_fold)
    blocked = loo_cv_scores(data, ALL_RULES)
    assert blocked == whole  # each fold's errors alone, summed once
    _assert_matches_refit(data, loo_refit)


def _outlier_data(scale):
    """The rank-one (15, 6, 2) example with row 4 of y times `scale`."""
    y, x = _rank_one_data(41, 15, 6, 2)
    y[4] *= scale
    return Dataset(y, x)


def _leverage_data(one_minus_h=1e-6):
    """n = 20, p = 5, q = 3 data whose row 6 has leverage 1 - `one_minus_h` (to 1%):
    the third design column is e_6 plus delta times noise, delta set by bisection."""
    rng = np.random.default_rng(3)
    n = 20
    base, noise = rng.standard_normal((n, 2)), rng.standard_normal(n)
    lo, hi = 1e-9, 1.0
    for _ in range(60):
        delta = np.sqrt(lo * hi)
        x = center_columns(np.column_stack([base, delta * noise + (np.arange(n) == 6)]))
        left = 1.0 - 1.0 / n - np.sum(np.linalg.qr(x)[0][6] ** 2)
        lo, hi = (lo, delta) if left > one_minus_h else (delta, hi)
    assert left == pytest.approx(one_minus_h, rel=1e-2)
    return Dataset(rng.standard_normal((n, 5)) + np.outer(x @ np.ones(3), np.ones(5)), x)


def _tied_data():
    """n = 16, p = 3, q = 1 dyadic data whose S(w) has an exact double leading
    eigenvalue 4w for w > 0.2: s_reg = diag(0, 0, 1) and s_resid = diag(4, 4, 0)."""
    x = np.tile([1.0, -1.0], 8)[:, None]
    y = np.zeros((16, 3))
    y[:4, 0] = y[4:8, 1] = [1.0, 1.0, -1.0, -1.0]
    y[:, 2] = x[:, 0] / 4.0
    return Dataset(y, x)


@pytest.fixture
def refit_folds(monkeypatch):
    """The folds `loo_cv_scores` refits from their own rows, in the order refit."""
    folds, refit = [], estimators._refit_fold_errors

    def recording(yx, p, which, rules):
        folds.extend(int(i) for i in which)
        return refit(yx, p, which, rules)

    monkeypatch.setattr(estimators, "_refit_fold_errors", recording)
    return folds


def test_loo_cv_p_by_p_folds_build_no_fold_rows(monkeypatch, loo_refit, refit_folds):
    # the bench's shape: every fold comes from the full fit, none from its rows
    data = Dataset(*_rank_one_data(46, 50, 10, 5))

    def refuse(*args):
        raise AssertionError("fold rows built")

    monkeypatch.setattr(estimators, "_fold_rows", refuse)
    scores = loo_cv_scores(data, ALL_RULES)
    monkeypatch.undo()
    assert refit_folds == []
    assert scores == loo_cv_scores(data, ALL_RULES)
    _assert_matches_refit(data, loo_refit)


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_loo_cv_scores_match_refit_with_an_outlying_row(loo_refit, refit_folds, scale):
    # leaving out the outlier subtracts most of each scatter, which would cancel
    # to about scale^2 eps; that fold alone is refit from its rows
    _assert_matches_refit(_outlier_data(scale), loo_refit)
    assert refit_folds == [4]


def test_loo_cv_scores_match_refit_at_leverage_near_one(loo_refit, refit_folds):
    # 1 - h_6 = 1e-6 would carry eps / 1e-6 into the PRESS residual; that fold is refit
    _assert_matches_refit(_leverage_data(), loo_refit)
    assert refit_folds == [6]


def test_loo_cv_scores_of_an_exact_tie_fall_back_to_the_refit(loo_refit, refit_folds):
    # for w > 0.2 the full S(w) has a double leading eigenvalue, which every
    # fold's update either keeps (the leading value on a pole) or splits with
    # a pole at the root: no pair is certified, and every fold is refit
    _assert_matches_refit(_tied_data(), loo_refit)
    assert refit_folds == list(range(16))


def test_loo_cv_scores_of_no_signal_data_refit_few_folds(loo_refit, refit_folds):
    # close leading eigenvalues: interlacing brackets most roots (of the 60
    # folds, 3 are left uncertified here), and those folds are refit
    for rep in range(3):
        _assert_matches_refit(_no_signal_dataset(rep), loo_refit)
    assert len(refit_folds) < 20


@pytest.mark.parametrize("n, p, q, refit", [(12, 10, 2, False), (11, 10, 2, True),
                                            (5, 2, 1, False), (6, 3, 1, False)])
def test_loo_cv_scores_at_the_solve_space_crossover(loo_refit, refit_folds, n, p, q, refit):
    # n - 2 = p folds are the smallest p x p ones, from the full fit; n - 2 = p - 1
    # folds are wide and all refit; p = 2 and q = 1 are the smallest shapes (at
    # n = 5 a row may carry most of a fold's scatter, and that fold is refit)
    data = Dataset(*_rank_one_data(47 + n + p, n, p, q))
    _assert_matches_refit(data, loo_refit)
    assert (refit_folds == list(range(n))) == refit


@pytest.mark.parametrize("folds_per_block", [1, 3])
@pytest.mark.parametrize("case", ["outlier", "tie", "wide"])
def test_loo_cv_scores_of_refit_folds_do_not_depend_on_blocks(monkeypatch, case,
                                                              folds_per_block):
    data = {"outlier": lambda: _outlier_data(1e4), "tie": _tied_data,
            "wide": lambda: Dataset(*_rank_one_data(48, 9, 12, 2))}[case]()
    whole = loo_cv_scores(data, ALL_RULES)
    per_fold = _fit_entries(data.n - 1, data.p, data.q, len(ALL_RULES))
    monkeypatch.setattr(estimators, "_BLOCK_ENTRIES", folds_per_block * per_fold)
    assert loo_cv_scores(data, ALL_RULES) == whole


def _null_fits(k, n, p, q, seed):
    """k built fits of n centered rows with no signal: p x p when n - 1 >= p, else wide."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n, q))
    y = rng.standard_normal((k, n, p))
    return _scatter_stack(y - y.mean(axis=1, keepdims=True), x - x.mean(axis=1, keepdims=True))


# five distinct rules, two of them repeated; the oracle weights of GRID_ORACLE
# equal a fixed weight in some fits
GRID_RULES = (FixedWeight(0.5), PluginRule(), FixedWeight(1.0), allopca.OracleWeight(),
              FixedWeight(0.5), FixedWeight(0.0), PluginRule())
GRID_ORACLE = np.array([0.5, 0.0, 0.3, 0.5, 1.0, 0.25])


@pytest.mark.parametrize("n, p", [(20, 10), (12, 30)])
def test_leading_axes_gives_each_rule_its_bytes_in_any_order(n, p):
    # a rule's weight, axis, gap and tie flag do not depend on the order of the
    # rules, on a repeat of one of them, or on the other rules in the call
    fits = _null_fits(GRID_ORACLE.size, n, p, 5, 28)
    rules = list(GRID_RULES)
    base = _leading_axes(rules, *fits, GRID_ORACLE)[:4]
    distinct = list(dict.fromkeys(rules))
    subsets = [[distinct[(start + j) % len(distinct)] for j in range(size)]
               for size in (1, 2, 3, 5) for start in range(len(distinct))]
    for order in (rules[::-1], [*rules, rules[1]], *subsets):
        got = _leading_axes(order, *fits, GRID_ORACLE)[:4]
        for part, want in zip(got, base):
            assert part.tobytes() == want[:, [rules.index(rule) for rule in order]].tobytes()
    for part in base:  # the repeated rules' columns
        assert part[:, 0].tobytes() == part[:, 4].tobytes()
        assert part[:, 1].tobytes() == part[:, 6].tobytes()


@pytest.mark.parametrize("n, p", [(20, 10), (12, 30)])
def test_plugin_fallback_to_zero_gives_the_w0_rows_bytes(n, p):
    # a plug-in weight that falls back to 0 is solved beside FixedWeight(0.0),
    # on a matrix of the same bytes, so the two rows agree bit for bit
    fits = _null_fits(20, n, p, 5, 26)
    weights, *parts = _leading_axes((FixedWeight(0.0), PluginRule()), *fits)[:4]
    fell = weights[:, 1] == 0.0
    assert 0 < fell.sum() < fell.size
    for part in parts:
        assert part[fell, 1].tobytes() == part[fell, 0].tobytes()



# a fit's weight-1 matrices: FixedWeight(1.0) in every fit, and the oracle
# weight where it is exactly 1
W1_RULES = (FixedWeight(1.0), FixedWeight(0.5), PluginRule(), allopca.OracleWeight(),
            FixedWeight(0.0))
W1_ORACLE = np.array([1.0, 0.3, 1.0, 0.0, 0.7, 1.0])


def _record_solves(monkeypatch, drop_known=False):
    """Record each `_leading_pair_stack` call's stack, as the solver sees it, and
    its `known` pair; with `drop_known` every spectrum comes from `eigvalsh`."""
    calls = []

    def record(m, known=None, _real=core._leading_pair_stack):
        calls.append((m.copy(), known))
        return _real(m, None if drop_known else known)

    monkeypatch.setattr(estimators, "_leading_pair_stack", record)
    return calls


def _w1_fits(case, e):
    """Centered p x p fits (n - 1 >= p) with their responses scaled by 2^e."""
    if case == "ties":  # S(1) = s_resid = diag(4, 4, 0) in each fit: a tie
        h = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
        y = np.zeros((6, 4, 3))
        y[:, :, :2] = h[:, :2]
        x = np.stack([h[:, 2:]] * 6)
    else:
        rng = np.random.default_rng(31)
        x = rng.standard_normal((6, 20, 3))
        y = rng.standard_normal((6, 20, 8)) * np.linspace(2.0, 0.5, 8)
        y, x = y - y.mean(axis=1, keepdims=True), x - x.mean(axis=1, keepdims=True)
    return _scatter_stack(np.ldexp(y, e), x)


@pytest.mark.parametrize("case", ["random", "ties"])
def test_w1_matrices_take_the_fit_checks_spectrum(monkeypatch, case):
    # a p x p fit's weight-1 matrix is its s_resid divided by the power of two of
    # the fit check, whose eigenvalues are those `eigvalsh` gives the scaled matrix
    # the solver sees, bit for bit (the oracle); weights, axes, gaps and ties are
    # those of a solve that decomposes every matrix, also for responses scaled by
    # 2^e, whose Grams are scaled by 2^2e, up to 2^+-900
    def solved(e, drop_known):
        calls = _record_solves(monkeypatch, drop_known)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _leading_axes(W1_RULES, *_w1_fits(case, e), W1_ORACLE)[:4]
        monkeypatch.undo()
        return got, calls

    base, _ = solved(0, True)
    if case == "ties":
        assert base[3][:, 0].all()
    for e in (0, 150, -150, 450, -450):
        (weights, axes, gaps, ties), calls = solved(e, False)
        [(m, (have, vals))] = calls
        assert have.tolist() == (weights == 1.0).ravel().tolist() and 6 < have.sum() < have.size
        assert vals.tobytes() == np.linalg.eigvalsh(m[have]).tobytes()
        assert weights.tobytes() == base[0].tobytes()
        assert axes.tobytes() == base[1].tobytes()
        assert gaps.tobytes() == np.ldexp(base[2], 2 * e).tobytes()
        assert ties.tobytes() == base[3].tobytes()


def test_wide_w1_matrices_solve_their_own_spectrum(monkeypatch, eig_sizes):
    # a wide fit's weight-1 matrix diag(0_q, g_resid) has the check's spectrum and
    # q zeros only in exact arithmetic, so it is decomposed with the other matrices:
    # n - 1 = 11 < p = 30, the check's g_resid of order n - 1 - q = 8
    fits = _null_fits(6, 12, 30, 3, 32)
    calls = _record_solves(monkeypatch)
    sizes = eig_sizes()
    weights = _leading_axes(W1_RULES, *fits, W1_ORACLE)[0]
    assert (weights == 1.0).sum() == 9
    assert [known for _, known in calls] == [None]
    assert sizes == [8] * 6 + [11] * 6 * len(W1_RULES)


def test_leading_axes_of_a_large_fit_holds_its_stack_about_twice():
    # one p x p fit with `estimate`'s rules: the blend holds its two terms, one
    # matrix per distinct rule each, and the solver and its check add no copy;
    # nor does a wide stack of two fits, whose grid is scaled with no reordering copy
    rng = np.random.default_rng(26)
    rules = [rule for _, rule in _fixed_rows(DEFAULT_WEIGHT_GRID)] + [PluginRule()]
    for k, n, p in ((1, 400, 300), (2, 200, 1000)):
        x = np.stack([center_columns(rng.standard_normal((n, 3))) for _ in range(k)])
        y = np.stack([center_columns(rng.standard_normal((n, p))) for _ in range(k)])
        fit = _scatter_stack(y, x)
        tracemalloc.start()
        try:
            _leading_axes(rules, *fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = k * len(set(rules)) * min(p, n - 1) ** 2 * 8
        assert peak <= 2.5 * stack, (k, n, p, peak / stack)


def test_loo_cv_scores_computes_plugin_weights_only_for_a_plugin_rule(monkeypatch):
    data = Dataset(*_rank_one_data(45, 11, 4, 2))
    rules = (FixedWeight(0.5), FixedWeight(1.0), OlsRule())
    want = loo_cv_scores(data, rules)

    def refuse(*args, **kwargs):
        raise AssertionError("plug-in weights computed")

    monkeypatch.setattr(estimators, "_plugin_weights", refuse)
    assert loo_cv_scores(data, rules) == want
    with pytest.raises(AssertionError, match="plug-in weights computed"):
        loo_cv_scores(data, (PluginRule(),))


SRC = Path(__file__).resolve().parents[1] / "src" / "allopca"


def test_block_size_and_weight_rules_are_defined_once():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sum(text.count("_BLOCK_ENTRIES //") for text in sources.values()) == 1
    for rule in ("FixedWeight", "PluginRule", "OlsRule", "OracleWeight"):
        defined = {name: len(re.findall(rf"^class {rule}\b", text, re.M))
                   for name, text in sources.items()}
        assert {name: k for name, k in defined.items() if k} == {"estimators.py": 1}, rule
    assert allopca.OracleWeight is harness.OracleWeight is estimators.OracleWeight


def test_blend_and_tie_rule_are_defined_once():
    # one p x p blend (1 - w) s_reg + w s_resid, summed in place, and one tie
    # comparison, in the shared solve, which reads weights, not rules: rules
    # become weights in one stack, in `_leading_axes`; gamma1_hat neither
    # blends nor calls sym_eig
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    one_line = [line for text in sources for line in text.splitlines()
                if re.search(r"\* s_reg\b.*\+.*\* s_resid\b", line)]
    blends = [found.group(0) for text in sources for found in re.finditer(
        r"(\w+) = s_reg\[.+?\] \* \(1\.0 - (\w+)\)\n\s+\1 \+= s_resid\[.+?\] \* \2\n",
        text)]
    assert not one_line and len(blends) == 1
    assert sum(text.count("<= TIE_TOL *") for text in sources) == 1
    solve = inspect.getsource(estimators._solve_axes)
    assert blends[0] in solve and "<= TIE_TOL *" in solve
    assert not re.search(r"FixedWeight|PluginRule|OracleWeight", solve)
    stack = "np.stack([np.full(k, rule.w) if isinstance(rule, FixedWeight)"
    assert sum(text.count(stack) for text in sources) == 1
    assert stack in inspect.getsource(estimators._leading_axes)
    library = inspect.getsource(estimators.gamma1_hat)
    assert "sym_eig(" not in library and "s_resid +" not in library and "_solve_axes(" in library
    assert not hasattr(estimators, "sym_eig") and not hasattr(estimators, "weighted_matrix")
    assert not hasattr(core, "weighted_matrix") and not hasattr(allopca, "weighted_matrix")
    # every spectrum the estimators read comes from core's checks and solver
    assert not re.search(r"linalg\.eig|\beig(?:h|vals|valsh)?\(",
                         (SRC / "estimators.py").read_text(encoding="utf-8"))
