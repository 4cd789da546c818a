"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line; `pytest -v` shows one verdict per
criterion. Numeric targets live next to the tolerances that admit them.
"""

import time

import numpy as np

from allopca import (
    STRONG_SPIKE,
    Dataset,
    FixedWeight,
    ModelSpec,
    PluginRule,
    SumOfSquares,
    Traditional,
    WeakIdentifiability,
    center_columns,
    estimate_abcd,
    gamma1_hat,
    gen_dataset,
    grid_argmin_bound,
    lemma1_fluctuation,
    loo_cv_scores,
    mse_up_to_sign,
    random_gamma,
    run_experiment,
    scenario_plan,
    sums_of_squares,
    w_star,
)
from allopca.core import _gram, _scatter_stack
from allopca.estimators import AbcdParams, _plugin_weights

SEED = 0


def row(result, label):
    return result.estimator_labels.index(label)


def test_criterion_1_small_dimension_tables():
    t0 = time.perf_counter()
    res = run_experiment(scenario_plan(Traditional(), (20, 500), 1000, SEED))
    wall = time.perf_counter() - t0
    targets = {
        ("total(w=0.5)", 0): 0.10517, ("total(w=0.5)", 1): 0.00349,
        ("residual(w=1)", 0): 0.90481, ("residual(w=1)", 1): 0.03515,
    }
    for (label, col), target in targets.items():
        got = res.mean_mse[row(res, label), col]
        tol = max(3.0 * res.se_mse[row(res, label), col], 0.10 * target)
        assert abs(got - target) <= tol, (label, col, got, target, tol)
    fixed = ["total(w=0.5)", "residual(w=1)", "regression(w=0)",
             "w=0.1", "w=0.2", "w=0.3", "w=0.4", "w=0.6"]
    for col in (0, 1):
        means = [res.mean_mse[row(res, lab), col] for lab in fixed]
        assert fixed[int(np.argmin(means))] == "w=0.3", (col, means)
    oracle_w = res.avg_weight[row(res, "oracle"), 1]
    assert abs(oracle_w - 0.16363) <= 0.01, oracle_w
    assert wall < 180.0, wall
    print(f"PASS criterion 1: small-dimension table reproduced in {wall:.1f}s")


def test_criterion_2_shrinking_gap_tables():
    res = run_experiment(scenario_plan(WeakIdentifiability(1.0), (20, 500), 1000, SEED))
    resid = res.mean_mse[row(res, "residual(w=1)")]
    reg = res.mean_mse[row(res, "regression(w=0)")]
    assert resid[0] > 1.0 and resid[1] > 1.0, resid
    assert reg[0] < 0.11 and reg[1] < 0.005, reg
    oracle_w = res.avg_weight[row(res, "oracle"), 1]
    assert abs(oracle_w - 0.00040) <= 0.0005, oracle_w
    print("PASS criterion 2: shrinking-gap regime reproduced")


def test_criterion_3_growing_dimension_spot_check():
    t0 = time.perf_counter()
    res = run_experiment(scenario_plan(STRONG_SPIKE, (50,), 1000, SEED))
    wall = time.perf_counter() - t0
    total = res.mean_mse[row(res, "total(w=0.5)"), 0]
    reg = res.mean_mse[row(res, "regression(w=0)"), 0]
    assert abs(total - 0.10300) <= 0.15 * 0.10300, total
    assert abs(reg - 0.29513) <= 0.15 * 0.29513, reg
    plug_w = res.avg_weight[row(res, "plugin"), 0]
    assert abs(plug_w - 0.43157) <= 0.02, plug_w
    assert wall < 300.0, wall
    print(f"PASS criterion 3: p=50 strong-spike point reproduced in {wall:.1f}s")


def test_criterion_4_weighted_matrix_fluctuation_formula():
    t0 = time.perf_counter()
    n, q, p, reps = 12, 2, 3, 50000
    lam = np.array([4.0, 2.0, 1.0])
    gamma = np.array([1.0, 0.0, 0.0])
    points = [(0.0, 0.0), (0.0, 4.0), (0.3, 4.0), (0.5, 0.0), (0.5, 4.0),
              (1.0, 0.0)]
    rng = np.random.default_rng(SEED)
    x = center_columns(rng.standard_normal((n, q)))
    for c in (0.0, 4.0):
        alpha = np.ones(q)
        if c > 0:
            xc = x * np.sqrt(c / float((x @ alpha) @ (x @ alpha)))
        else:
            xc, alpha = x, np.zeros(q)
        qmat = np.linalg.qr(xc, mode="reduced")[0]
        noise = rng.standard_normal((reps, n, p)) * np.sqrt(lam)
        y = np.outer(xc @ alpha, gamma) + noise
        yc = y - y.mean(axis=1, keepdims=True)
        proj = np.matmul(qmat.T, yc)
        s_reg = np.matmul(proj.transpose(0, 2, 1), proj)
        s_tot = np.matmul(yc.transpose(0, 2, 1), yc)
        s_resid = s_tot - s_reg
        for w, c_point in points:
            if c_point != c:
                continue
            smat = (1.0 - w) * s_reg + w * s_resid
            expected = ((1.0 - w) * (q * np.diag(lam) + c * np.outer(gamma, gamma))
                        + w * (n - 1 - q) * np.diag(lam))
            dev = smat - expected
            fro2 = (dev * dev).sum(axis=(1, 2))
            target = lemma1_fluctuation(lam.sum(), (lam ** 2).sum(), lam[0],
                                        c, n, q, w)
            se = fro2.std(ddof=1) / np.sqrt(reps)
            assert abs(fro2.mean() - target) <= 3.0 * se, (w, c, fro2.mean(), target)
    wall = time.perf_counter() - t0
    assert wall < 60.0, wall
    print(f"PASS criterion 4: fluctuation formula verified at 6 points in {wall:.1f}s")


def random_params(rng):
    p = int(rng.integers(2, 30))
    lam = np.sort(rng.lognormal(0.0, 1.5, size=p))[::-1]
    if lam[0] - lam[1] <= 1e-9 * lam[0]:
        lam[0] *= 1.0 + rng.uniform(0.1, 1.0)
    c = 0.0 if rng.uniform() < 0.1 else float(rng.lognormal(1.0, 2.5))
    q = int(rng.integers(1, 11))
    n = q + 2 + int(rng.integers(0, 1000))
    return AbcdParams.from_spectrum(lam, c, q, n)


def test_criterion_5_closed_form_optimum_matches_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10000):
        params = random_params(rng)
        ws = w_star(params)
        assert 0.0 <= ws < 2.0 / 3.0, params
        worst = max(worst, abs(ws - grid_argmin_bound(params, 1e-5)))
    assert worst <= 2e-5, worst
    wall = time.perf_counter() - t0
    assert wall < 60.0, wall
    print(f"PASS criterion 5: 10^4 optima matched (worst gap {worst:.2e}) in {wall:.1f}s")


def test_criterion_6_plugin_moments_unbiased():
    reps, p, q, n = 20000, 3, 2, 30
    spec = ModelSpec(n=n, mu=np.zeros(p), alpha=np.array([1.0, 0.5]),
                     lambdas=np.array([4.0, 2.0, 1.0]),
                     gamma_basis=random_gamma(p, 7), master_seed=SEED)
    sigma = spec.sigma()
    # the draws are fit as one stack; the public path is pinned on the first 200
    draws = [gen_dataset(spec, rep) for rep in range(reps)]
    y = np.stack([d.y for d in draws])
    reg, resid, _, _ = _scatter_stack(y - y.mean(axis=1, keepdims=True),
                                      np.stack([d.x for d in draws]))
    s_reg, s_resid = _gram(reg), _gram(resid)
    fields = _plugin_weights(s_reg, s_resid, np.linalg.eigvalsh(s_resid), n, q)
    sig_hats = s_resid / (n - 1 - q)
    tr2_hats = fields["tr_sigma2_hat"]
    for rep, data in enumerate(draws[:200]):
        pw = estimate_abcd(sums_of_squares(data))
        assert pw.sigma_hat.tobytes() == sig_hats[rep].tobytes()
        assert np.float64(pw.tr_sigma2_hat).tobytes() == tr2_hats[rep].tobytes()
    sig_se = sig_hats.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(sig_hats.mean(axis=0) - sigma) <= 4.0 * sig_se)
    tr2_se = tr2_hats.std(ddof=1) / np.sqrt(reps)
    target = float(np.trace(sigma @ sigma))
    assert abs(tr2_hats.mean() - target) <= 3.0 * tr2_se
    print("PASS criterion 6: covariance and squared-trace estimates unbiased")


def test_criterion_7_projection_cross_moment_vanishes():
    reps, p, q, n = 20000, 3, 2, 10
    rng = np.random.default_rng(SEED)
    x = center_columns(rng.standard_normal((n, q)))
    qmat = np.linalg.qr(x, mode="reduced")[0]
    proj = qmat @ qmat.T
    noise = rng.standard_normal((reps, n, p)) * np.sqrt([2.0, 1.0, 0.5])
    noise_t = noise.transpose(0, 2, 1)
    quad = np.matmul(noise_t, np.matmul(proj, noise))
    cross = np.matmul(noise_t, x)
    prod = np.matmul(quad, cross)
    se = prod.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(prod.mean(axis=0)) <= 4.0 * se)
    print("PASS criterion 7: projection cross moment centered at zero")


def test_criterion_8_algebraic_properties(force_blocks):
    failures = []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = 8 + int(rng.integers(0, 33))
        q = 1 + int(rng.integers(0, 4))
        p = 2 + int(rng.integers(0, 7))
        x = center_columns(rng.standard_normal((n, q)))
        direction = rng.standard_normal(p)
        direction /= np.linalg.norm(direction)
        y = np.outer(x @ rng.standard_normal(q), direction) \
            + rng.standard_normal((n, p))
        ss = sums_of_squares(Dataset(y, x))
        yc = y - y.mean(axis=0)  # s_total is formed as s_reg + s_resid: compare with Yc'Yc
        add_err = np.linalg.norm(yc.T @ yc - ss.s_total)
        if add_err > 1e-9 * max(1.0, np.linalg.norm(ss.s_total)):
            failures.append((seed, "additivity"))
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        g = rng.standard_normal(p)
        g /= np.linalg.norm(g)
        brute = min(float((v - g) @ (v - g)), float((v + g) @ (v + g)))
        if abs(mse_up_to_sign(v, g) - brute) > 1e-12:
            failures.append((seed, "mse"))
        w = float(rng.uniform())
        scale = float(np.exp(rng.uniform(-6.0, 6.0)))
        base = gamma1_hat(ss, w).vector
        scaled_ss = SumOfSquares(scale * ss.s_reg, scale * ss.s_resid, ss.n, ss.q)
        if abs(gamma1_hat(scaled_ss, w).vector @ base) < 1.0 - 1e-10:
            failures.append((seed, "scaling"))
    assert failures == [], failures[:5]
    plan = scenario_plan(Traditional(), (10, 12), 32, SEED)
    whole = run_experiment(plan)
    for k in (1, 5):
        sizes = force_blocks(k)
        split = run_experiment(plan)
        assert max(sizes) == k and sum(sizes) == 2 * 32
        assert whole.mean_mse.tobytes() == split.mean_mse.tobytes()
        assert whole.metadata["digests"] == split.metadata["digests"]
    print("PASS criterion 8: algebraic identities hold on 1000 cases; "
          "results invariant to the replication block size")


def test_criterion_9_data_driven_weight_cv_tournament():
    p, q, n = 10, 5, 66
    lam = np.array([4.0, 2.0] + [1.0] * (p - 2))
    fixed_grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0)
    plugin_scores = []
    fixed_scores = {w: [] for w in fixed_grid}
    for seed in range(50):
        spec = ModelSpec(n=n, mu=np.zeros(p),
                         alpha=np.full(q, 1.0 / np.sqrt(q)), lambdas=lam,
                         gamma_basis=random_gamma(p, 11), master_seed=seed)
        data = gen_dataset(spec, 0)
        plugin, *fixed = loo_cv_scores(data, (PluginRule(), *map(FixedWeight, fixed_grid)))
        plugin_scores.append(plugin)
        for w, score in zip(fixed_grid, fixed):
            fixed_scores[w].append(score)
    best_fixed = min(np.median(vals) for vals in fixed_scores.values())
    plugin_median = float(np.median(plugin_scores))
    assert plugin_median <= 1.02 * best_fixed, (plugin_median, best_fixed)
    print(f"PASS criterion 9: plugin median {plugin_median:.4f} vs best fixed "
          f"{best_fixed:.4f}")
