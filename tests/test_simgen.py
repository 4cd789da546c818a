"""Generator determinism, distributional checks, and scenario parameters."""

import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from allopca import (
    STRONG_SPIKE,
    WEAK_SPIKE,
    Dataset,
    DegreesOfFreedomError,
    LargePLargeN,
    ModelSpec,
    Traditional,
    WeakIdentifiability,
    consistency_sweep,
    gen_dataset,
    random_gamma,
    scenario_plan,
    substream,
    sums_of_squares,
)
from allopca import simgen
from allopca.core import _gram, _scatter_stack


def small_spec(seed=0, p=3, q=2, n=15, alpha=None, lambdas=(2.0, 1.0, 0.5)):
    if alpha is None:
        alpha = np.ones(q)
    return ModelSpec(
        n=n, mu=np.zeros(p), alpha=np.asarray(alpha, dtype=float),
        lambdas=np.asarray(lambdas, dtype=float),
        gamma_basis=random_gamma(p, seed),
        master_seed=seed,
    )


# --------------------------------------------------------------------------
# substreams and random_gamma
# --------------------------------------------------------------------------


def test_substream_determinism_and_independence():
    a = substream(7, 3, 0).standard_normal(8)
    b = substream(7, 3, 0).standard_normal(8)
    c = substream(7, 3, 1).standard_normal(8)
    d = substream(8, 3, 0).standard_normal(8)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert a.tobytes() != d.tobytes()
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(1, -2)


def test_random_gamma_orthonormal_and_deterministic():
    for p in (2, 5, 10):
        g = random_gamma(p, 123)
        assert np.abs(g.T @ g - np.eye(p)).max() <= 1e-8
        assert g.tobytes() == random_gamma(p, 123).tobytes()
    assert random_gamma(4, 1).tobytes() != random_gamma(4, 2).tobytes()
    with pytest.raises(ValueError):
        random_gamma(1, 0)


def test_random_gamma_angles_cover_the_circle():
    # leading-eigenvector angles mod pi should be uniform across seeds
    angles = np.empty(1000)
    for seed in range(1000):
        v = random_gamma(2, seed)[:, 0]
        angles[seed] = np.arctan2(v[1], v[0]) % np.pi
    counts = np.bincount((angles / np.pi * 8).astype(int), minlength=8)
    expected = 1000 / 8.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2.sf(stat, df=7) > 0.001


# --------------------------------------------------------------------------
# ModelSpec
# --------------------------------------------------------------------------


def test_model_spec_validation():
    with pytest.raises(ValueError):  # increasing lambdas
        small_spec(lambdas=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):  # nonpositive lambda
        small_spec(lambdas=(2.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="`alpha` must be 1-D"):  # q is alpha's length
        small_spec(alpha=np.ones((2, 1)))
    with pytest.raises(ValueError, match="`lambdas` must be 1-D"):  # p is lambdas' length
        small_spec(lambdas=np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"`mu` must have shape \(3,\)"):
        ModelSpec(n=15, mu=np.zeros(2), alpha=np.ones(2), lambdas=np.array([2.0, 1.0, 0.5]),
                  gamma_basis=np.eye(3), master_seed=0)
    with pytest.raises(ValueError):  # n too small
        small_spec(n=3)
    with pytest.raises(ValueError):  # basis not orthonormal
        ModelSpec(n=10, mu=np.zeros(2), alpha=np.ones(1),
                  lambdas=np.array([2.0, 1.0]), gamma_basis=np.ones((2, 2)),
                  master_seed=0)


def test_model_spec_sigma_and_properties():
    spec = small_spec(seed=3)
    sigma = spec.sigma()
    assert np.allclose(sigma, sigma.T)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sigma)), np.sort(spec.lambdas))
    assert spec.lambda1 == 2.0 and spec.lambda2 == 1.0
    assert np.allclose(spec.gamma_basis[:, 0], spec.gamma1)
    # p and q are read from `lambdas` and `alpha`, never given
    assert (spec.n, spec.p, spec.q) == (15, 3, 2)
    assert small_spec(q=4).q == 4
    with pytest.raises(TypeError):
        ModelSpec(p=3, q=2, n=15, mu=np.zeros(3), alpha=np.ones(2), lambdas=spec.lambdas,
                  gamma_basis=spec.gamma_basis, master_seed=0)


def test_sigma_formed_once_and_read_only():
    spec = small_spec(seed=5, n=12)
    sigma = spec.sigma()
    gamma = spec.gamma_basis
    assert np.allclose(sigma, gamma @ np.diag(spec.lambdas) @ gamma.T, rtol=0, atol=1e-12)
    assert not sigma.flags.writeable
    with pytest.raises(ValueError):
        sigma[0, 0] = 0.0
    assert spec.sigma() is sigma


def test_noise_root_formed_once_and_read_only():
    # `gen_dataset` reads the spec's root Gamma diag(lambdas)^1/2, and draws the
    # bits it drew when it formed the root on every call
    for spec in (small_spec(seed=8, n=12), STRONG_SPIKE.model_spec(100, 3)):
        root = spec._root
        assert not root.flags.writeable
        assert root.tobytes() == (spec.gamma_basis * np.sqrt(spec.lambdas)).tobytes()
        for r in (0, 5):
            x = substream(spec.master_seed, r, 0).standard_normal((spec.n, spec.q))
            x -= x.mean(axis=0)
            z = substream(spec.master_seed, r, 1).standard_normal((spec.n, spec.p))
            e = z @ (spec.gamma_basis * np.sqrt(spec.lambdas)).T
            y = spec.mu + np.outer(x @ spec.alpha, spec.gamma1) + e
            data = gen_dataset(spec, r)
            assert data.x.tobytes() == x.tobytes() and data.y.tobytes() == y.tobytes()
        assert spec._root is root


# --------------------------------------------------------------------------
# gen_dataset
# --------------------------------------------------------------------------


def test_gen_dataset_shapes_and_centering():
    spec = small_spec(seed=4, n=25)
    data = gen_dataset(spec, 0)
    assert data.y.shape == (25, 3) and data.x.shape == (25, 2)
    assert np.abs(data.x.sum(axis=0)).max() <= 1e-9 * 25 * np.abs(data.x).max()


@pytest.mark.parametrize("spec", [
    Traditional().model_spec(20, 0),
    WeakIdentifiability(0.5).model_spec(50, 1),
    WEAK_SPIKE.model_spec(20, 2),
    STRONG_SPIKE.model_spec(50, 3),
    ModelSpec(n=12, mu=np.array([3.0, -1e3, 0.25, 7.0]), alpha=np.array([2.0, -0.5, 1e-3]),
              lambdas=np.array([4.0, 2.0, 0.5, 1e-4]), gamma_basis=random_gamma(4, 6),
              master_seed=9),
], ids=["table1", "table2", "table3a", "table3b", "custom-mu"])
def test_a_draw_passes_every_dataset_check_and_is_read_only(spec):
    # a draw skips `Dataset`'s checks; the checked constructor accepts it as it is
    for r in range(5):
        data = gen_dataset(spec, r)
        checked = Dataset(data.y, data.x)
        assert checked.y.tobytes() == data.y.tobytes() and checked.x.tobytes() == data.x.tobytes()
        assert (data.n, data.p, data.q) == (spec.n, spec.p, spec.q)
        for a in (data.y, data.x):
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0


def test_an_overflowing_draw_is_refused_by_the_finite_rule():
    # the one property a draw can lose: alpha entries of 1e308 overflow the signal
    spec = small_spec(seed=2, q=2, alpha=[1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        with pytest.raises(ValueError, match="^`y` contains non-finite entries$"):
            gen_dataset(spec, 0)


def test_gen_dataset_deterministic_per_replication():
    spec = small_spec(seed=5)
    d1 = gen_dataset(spec, 3)
    d2 = gen_dataset(spec, 3)
    d3 = gen_dataset(spec, 4)
    assert d1.y.tobytes() == d2.y.tobytes()
    assert d1.x.tobytes() == d2.x.tobytes()
    assert d1.y.tobytes() != d3.y.tobytes()
    with pytest.raises(ValueError):
        gen_dataset(spec, -1)


def test_gen_dataset_noise_covariance():
    spec = small_spec(seed=6, n=5000)
    data, sigma = gen_dataset(spec, 0), spec.sigma()
    e = data.y - spec.mu - np.outer(data.x @ spec.alpha, spec.gamma1)
    n = e.shape[0]
    cov = e.T @ e / n
    var = np.outer(np.diag(sigma), np.diag(sigma)) + sigma ** 2
    se = np.sqrt(var / n)
    assert np.all(np.abs(cov - sigma) <= 5.0 * se)


def test_gen_dataset_regression_scatter_moment():
    # with alpha = 0 the regression scatter is central Wishart: E[S_R] = q Sigma
    spec = small_spec(seed=7, q=2, n=15, alpha=np.zeros(2))
    sigma = spec.sigma()
    reps = 20000
    # the draws are fit as one stack; the public path is pinned on the first 200
    data = [gen_dataset(spec, r) for r in range(reps)]
    y = np.stack([d.y for d in data])
    reg = _scatter_stack(y - y.mean(axis=1, keepdims=True), np.stack([d.x for d in data]))[0]
    draws = _gram(reg)
    for r, d in enumerate(data[:200]):
        assert sums_of_squares(d).s_reg.tobytes() == draws[r].tobytes()
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - 2.0 * sigma) <= 4.0 * se)


def test_gen_dataset_noiseless_limit():
    spec = small_spec(seed=8, n=30, lambdas=(1e-12, 1e-12, 1e-12))
    data = gen_dataset(spec, 0)
    ss = sums_of_squares(data)
    c = float(np.sum((data.x @ spec.alpha) ** 2))
    target = c * np.outer(spec.gamma1, spec.gamma1)
    err = np.linalg.norm(ss.s_total - target)
    assert err <= 1e-6 * np.linalg.norm(target)


# --------------------------------------------------------------------------
# named scenarios
# --------------------------------------------------------------------------


def test_scenario_table1_settings():
    spec = Traditional().model_spec(20, seed=0)
    assert (spec.p, spec.q, spec.n) == (10, 5, 20)
    assert spec.lambda1 - spec.lambda2 == 1.0
    assert np.all(spec.lambdas[1:] == 1.0)
    assert np.all(spec.alpha == 1.0)
    assert np.all(spec.mu == 0.0)
    again = Traditional().model_spec(20, seed=0)
    assert spec.gamma_basis.tobytes() == again.gamma_basis.tobytes()
    with pytest.raises(DegreesOfFreedomError):
        Traditional().model_spec(7, seed=0)


def test_scenario_table2_settings():
    assert WeakIdentifiability(1.0).model_spec(100, 0).lambda1 == pytest.approx(1.01)
    assert WeakIdentifiability(0.5).model_spec(20, 0).lambda1 == pytest.approx(1.0 + 20 ** -0.5)
    # continuity with the baseline scenario as eta -> 0
    assert WeakIdentifiability(1e-9).model_spec(100, 0).lambda1 == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        WeakIdentifiability(0.0).model_spec(100, 0)
    with pytest.raises(DegreesOfFreedomError):
        WeakIdentifiability(1.0).model_spec(6, 0)


def test_scenario_table3_settings():
    spec = WEAK_SPIKE.model_spec(20, 0)
    assert spec.n == 10 and spec.q == 5 and spec.p == 20
    strong = STRONG_SPIKE.model_spec(100, 0)
    assert strong.lambda1 == pytest.approx(100 ** 0.8)
    assert strong.lambda2 == pytest.approx(100 ** 0.4)
    weak = WEAK_SPIKE.model_spec(500, 0)
    assert weak.lambda1 == pytest.approx(500 ** 0.25)
    assert weak.lambda2 == 1.0
    with pytest.raises(ValueError):
        WEAK_SPIKE.model_spec(10, 0)
    with pytest.raises(DegreesOfFreedomError):
        WEAK_SPIKE.model_spec(11, 0)


@pytest.mark.parametrize("kind, sizes, drawn", [
    (Traditional(), (20, 50, 100, 200, 500), [10]),
    (WeakIdentifiability(0.5), (20, 50, 100, 200, 500), [10]),
    (STRONG_SPIKE, (20, 50, 100), [20, 50, 100]),
], ids=["table1", "table2", "table3b"])
def test_a_plan_draws_one_basis_per_distinct_p(kind, sizes, drawn, monkeypatch):
    # every point of one p is built on one `random_gamma(p, seed)`, as `model_spec` builds it
    expected = [kind.model_spec(s, 4) for s in sizes]
    calls = []
    draw = simgen.random_gamma
    monkeypatch.setattr(simgen, "random_gamma", lambda p, seed: calls.append(p) or draw(p, seed))
    plan = scenario_plan(kind, sizes, 1, 4)
    assert calls == drawn
    monkeypatch.undo()
    for spec, alone in zip(plan.points, expected):
        assert spec.gamma_basis.tobytes() == random_gamma(spec.p, 4).tobytes()
        for name in ("n", "p", "q", "master_seed"):
            assert getattr(spec, name) == getattr(alone, name)
        for name in ("mu", "alpha", "lambdas", "gamma_basis", "_sigma", "_root"):
            assert getattr(spec, name).tobytes() == getattr(alone, name).tobytes()


def test_scenario_grids_all_valid():
    for n in (20, 50, 100, 200, 500):
        Traditional().model_spec(n, 0)
        for eta in (1.0 / 3.0, 0.5, 1.0):
            WeakIdentifiability(eta).model_spec(n, 0)
    for p in (20, 50, 100):
        WEAK_SPIKE.model_spec(p, 0)
        STRONG_SPIKE.model_spec(p, 0)


def test_scenario_large_p_custom():
    spec = LargePLargeN(0.9, -0.5, 0.0).model_spec(40, 0)
    assert spec.n == int(40 ** 0.9)
    assert spec.lambda1 == pytest.approx(1.0 + 40 ** -0.5)
    with pytest.raises(ValueError):
        LargePLargeN(0.9, 0.3, 0.5).model_spec(40, 0)  # beta2 >= beta


# --------------------------------------------------------------------------
# regimes
# --------------------------------------------------------------------------


def test_regime_validation():
    with pytest.raises(ValueError):
        WeakIdentifiability(0.0)
    with pytest.raises(ValueError):
        LargePLargeN(0.0, 0.5)
    with pytest.raises(ValueError):
        LargePLargeN(0.8, 1.5)
    for delta, beta, message in ((float("inf"), 0.5, "`delta` must be finite and > 0, got inf"),
                                 (float("nan"), 0.5, "`delta` must be finite and > 0, got nan"),
                                 (0.8, float("nan"), "`beta` must be <= 1, got nan")):
        with pytest.raises(ValueError) as exc:
            LargePLargeN(delta, beta)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="unknown regime kind: 'traditional'"):
        scenario_plan("traditional", (20, 50), 1, 0)
    # a sweep needs at least 3 strictly increasing sizes; it refuses before any run
    for grid in ((20, 50), (20, 50, 50), (50, 20, 100)):
        with pytest.raises(ValueError, match="at least 3 strictly increasing sizes"):
            consistency_sweep(Traditional(), grid, 1, 0)


def test_large_p_refuses_an_overflowing_sample_size():
    # 20^400 overflows a float; n = floor(p^delta) cannot be formed
    with pytest.raises(ValueError, match=r"n = p\^delta overflows at p = 20, delta = 400"):
        LargePLargeN(400.0, 0.5).model_spec(20, 0)
    assert LargePLargeN(2.0, 0.5).model_spec(20, 0).n == 400


def test_regime_kind_axes_and_table3_cases():
    assert Traditional.axis == WeakIdentifiability.axis == "n"
    assert LargePLargeN.axis == "p"
    assert WEAK_SPIKE == LargePLargeN(0.8, 0.25, 0.0)
    assert STRONG_SPIKE == LargePLargeN(0.8, 0.8, 0.4)
    for p in (-5, 1):
        with pytest.raises(ValueError, match="`p` must be >= 2"):
            WEAK_SPIKE.model_spec(p, 0)
    # 1 + 100^-60 rounds to 1 = lambda_2: no eigengap left
    with pytest.raises(ValueError, match="lambda_1 > lambda_2"):
        LargePLargeN(0.9, -60.0).model_spec(100, 0)


def test_regime_dispatch():
    trad = Traditional()
    assert scenario_plan(trad, (20,), 1, 0).point_labels == ("n=20",)
    assert trad.model_spec(20, 0).lambda1 == 2.0

    assert WeakIdentifiability(1.0).model_spec(100, 0).lambda1 == pytest.approx(1.01)

    large = LargePLargeN(0.8, 0.8, 0.4)
    assert scenario_plan(large, (20,), 1, 0).point_labels == ("p=20",)
    spec = large.model_spec(50, 0)
    assert spec.n == int(50 ** 0.8)
    assert spec.lambda1 == pytest.approx(50 ** 0.8)
