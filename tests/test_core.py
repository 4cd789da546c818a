"""Sum-of-squares decomposition and eigensolver contract tests.

The regression scatter is cross-checked against a literal dense
implementation with an explicit normal-equations inverse, and the residual
cross-moment E'P E E'X is checked against zero by Monte Carlo.
"""

import numpy as np
import pytest

from allopca import (
    Dataset,
    FixedWeight,
    OlsRule,
    PluginRule,
    RankDeficiencyError,
    SumOfSquares,
    center_columns,
    loo_cv_scores,
    reduced_rank_coefficients,
    sums_of_squares,
    sym_eig,
    weighted_matrix,
)
from allopca.cli import main, write_matrix_csv
from allopca.core import _check_scatter_stack


def rand_dataset(seed, n=20, p=6, q=3, signal=1.0):
    """A generic seeded dataset with a rank-one mean component."""
    rng = np.random.default_rng(seed)
    x = center_columns(rng.standard_normal((n, q)))
    g = rng.standard_normal(p)
    g /= np.linalg.norm(g)
    y = signal * np.outer(x @ rng.standard_normal(q), g)
    y += rng.standard_normal((n, p))
    return Dataset(y, x)


def dense_oracle(y, x):
    """Literal textbook formulas with an explicit inverse; test-only."""
    n = y.shape[0]
    p_hat = x @ np.linalg.inv(x.T @ x) @ x.T
    c = np.eye(n) - np.ones((n, n)) / n
    return y.T @ p_hat @ y, y.T @ (c - p_hat) @ y, y.T @ c @ y


# --------------------------------------------------------------------------
# center_columns
# --------------------------------------------------------------------------


def test_center_columns_simple():
    out = center_columns(np.array([[1.0], [2.0], [3.0]]))
    assert np.array_equal(out, np.array([[-1.0], [0.0], [1.0]]))


def test_center_columns_already_centered():
    x = np.array([[0.0, -1.0], [0.0, 1.0]])
    assert np.array_equal(center_columns(x), x)


def test_center_columns_constant_column():
    out = center_columns(np.array([[5.0], [5.0]]))
    assert np.array_equal(out, np.zeros((2, 1)))


def test_center_columns_rejects_bad_shapes():
    with pytest.raises(ValueError):
        center_columns(np.ones(3))
    with pytest.raises(ValueError):
        center_columns(np.ones((0, 2)))


# --------------------------------------------------------------------------
# Dataset validation
# --------------------------------------------------------------------------


def test_dataset_requires_centered_design():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 2)) + 5.0
    y = rng.standard_normal((12, 3))
    with pytest.raises(ValueError, match="centered"):
        Dataset(y, x)
    Dataset(y, center_columns(x))


def test_dataset_requires_full_rank(tmp_path, capsys):
    # `Dataset` accepts an exactly collinear design; every fit refuses it,
    # from the R factor of its thin QR, as a design problem
    rng = np.random.default_rng(1)
    base = center_columns(rng.standard_normal((15, 1)))
    x = np.hstack([base, base])  # exactly collinear
    data = Dataset(rng.standard_normal((15, 2)), x)
    pattern = r"^cond\(X'X\) = .* exceeds 1e\+12; design columns are too collinear"
    with pytest.raises(RankDeficiencyError, match=pattern):
        sums_of_squares(data)
    with pytest.raises(RankDeficiencyError, match=pattern):
        reduced_rank_coefficients(data, np.array([1.0, 0.0]))
    with pytest.raises(RankDeficiencyError, match=pattern):
        loo_cv_scores(data, (FixedWeight(0.5), PluginRule(), OlsRule()))
    ypath, xpath = tmp_path / "y.csv", tmp_path / "x.csv"
    write_matrix_csv(str(ypath), data.y)
    write_matrix_csv(str(xpath), x)
    for command in ("estimate", "cv"):
        assert main([command, "--y", str(ypath), "--x", str(xpath)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: cond(X'X) = " in err and "design columns are too collinear" in err


def test_dataset_requires_enough_rows():
    rng = np.random.default_rng(2)
    x = center_columns(rng.standard_normal((4, 3)))
    with pytest.raises(ValueError, match="n > 1 \\+ q"):
        Dataset(rng.standard_normal((4, 2)), x)


def test_dataset_rejects_row_mismatch_and_nonfinite():
    rng = np.random.default_rng(3)
    x = center_columns(rng.standard_normal((10, 2)))
    with pytest.raises(ValueError):
        Dataset(rng.standard_normal((9, 3)), x)
    y = rng.standard_normal((10, 3))
    y[0, 0] = np.nan
    with pytest.raises(ValueError):
        Dataset(y, x)


def test_dataset_is_immutable():
    data = rand_dataset(4)
    assert not data.y.flags.writeable
    assert not data.x.flags.writeable
    assert (data.n, data.p, data.q) == (20, 6, 3)


# --------------------------------------------------------------------------
# sums_of_squares
# --------------------------------------------------------------------------


def test_self_regression_has_zero_residual():
    rng = np.random.default_rng(5)
    x = center_columns(rng.standard_normal((12, 3)))
    ss = sums_of_squares(Dataset(x, x))
    scale = np.abs(ss.s_total).max()
    assert np.abs(ss.s_resid).max() <= 1e-12 * scale
    assert np.allclose(ss.s_reg, x.T @ x, rtol=0, atol=1e-12 * scale)
    assert np.allclose(ss.s_total, x.T @ x, rtol=0, atol=1e-12 * scale)


def test_additivity_tiny_univariate_design():
    rng = np.random.default_rng(6)
    x = (np.array([[-3.0], [-1.0], [1.0], [3.0]]) / np.sqrt(20.0)) * 1.7
    y = rng.standard_normal((4, 2))
    ss = sums_of_squares(Dataset(y, x))
    gap = np.abs(ss.s_total - ss.s_reg - ss.s_resid).max()
    assert gap <= 1e-9 * np.abs(ss.s_total).max()


def test_matches_dense_oracle():
    rng = np.random.default_rng(7)
    x = center_columns(rng.standard_normal((6, 2)))
    y = rng.standard_normal((6, 3))
    ss = sums_of_squares(Dataset(y, x))
    s_reg, s_resid, s_total = dense_oracle(y, x)
    scale = np.abs(s_total).max()
    assert np.abs(ss.s_reg - s_reg).max() <= 1e-10 * scale
    assert np.abs(ss.s_resid - s_resid).max() <= 1e-10 * scale
    assert np.abs(ss.s_total - s_total).max() <= 1e-10 * scale


def test_matches_dense_oracle_many_shapes():
    for seed, (n, p, q) in enumerate([(8, 2, 1), (25, 4, 3), (40, 7, 5)]):
        data = rand_dataset(100 + seed, n=n, p=p, q=q)
        ss = sums_of_squares(data)
        s_reg, _, s_total = dense_oracle(data.y, data.x)
        assert np.abs(ss.s_reg - s_reg).max() <= 1e-10 * np.abs(s_total).max()


def test_additivity_and_psd_over_seeded_datasets():
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        q = int(rng.integers(1, 4))
        p = int(rng.integers(2, 7))
        x = center_columns(rng.standard_normal((n, q)))
        y = rng.standard_normal((n, p))
        ss = sums_of_squares(Dataset(y, x))
        fro = np.linalg.norm(ss.s_total - ss.s_reg - ss.s_resid)
        assert fro <= 1e-9 * np.linalg.norm(ss.s_total)
        for m in (ss.s_reg, ss.s_resid):
            assert np.linalg.eigvalsh(m)[0] >= -1e-8 * np.trace(m)


def test_rejects_ill_conditioned_design():
    rng = np.random.default_rng(8)
    base = center_columns(rng.standard_normal((30, 1)))
    # collinear at the 1e-8 level: `Dataset` accepts it (it checks no
    # rank), and the fit refuses it because cond(X'X) ~ 1e16 exceeds 1e12
    x = np.hstack([base, base + 1e-8 * center_columns(rng.standard_normal((30, 1)))])
    data = Dataset(rng.standard_normal((30, 4)), x)
    with pytest.raises(RankDeficiencyError, match="cond"):
        sums_of_squares(data)


def test_sum_of_squares_type_validation():
    ss = sums_of_squares(rand_dataset(9))
    rebuilt = SumOfSquares.from_parts(ss.s_reg, ss.s_resid, ss.n, ss.q)
    assert np.allclose(rebuilt.s_total, ss.s_total)
    with pytest.raises(ValueError):
        SumOfSquares(ss.s_reg, ss.s_resid, 2.0 * ss.s_total, ss.n, ss.q)
    bad = np.array(ss.s_reg)
    bad[0, 1] += 10.0 * np.abs(bad).max()
    with pytest.raises(ValueError):
        SumOfSquares.from_parts(bad, ss.s_resid, ss.n, ss.q)
    with pytest.raises(ValueError):
        SumOfSquares.from_parts(ss.s_reg, ss.s_resid, ss.q + 1, ss.q)


def test_sum_of_squares_names_the_failing_matrix():
    ss = sums_of_squares(rand_dataset(9))
    v = np.ones(ss.p) / np.sqrt(ss.p)
    s_resid = ss.s_resid - 10.0 * np.abs(ss.s_resid).max() * np.outer(v, v)
    with pytest.raises(ValueError, match="`s_resid`.*positive semidefinite") as exc:
        SumOfSquares.from_parts(ss.s_reg, s_resid, ss.n, ss.q)
    assert "fold" not in str(exc.value)
    stack = [m[None] for m in (ss.s_reg, s_resid, ss.s_reg + s_resid)]
    with pytest.raises(ValueError, match="`s_resid` of a leave-one-out fold is not positive"):
        _check_scatter_stack(*stack, " of a leave-one-out fold")


# --------------------------------------------------------------------------
# weighted_matrix
# --------------------------------------------------------------------------


def test_weighted_matrix_endpoints_exact():
    ss = sums_of_squares(rand_dataset(10))
    assert np.array_equal(weighted_matrix(ss, 0.0), ss.s_reg)
    assert np.array_equal(weighted_matrix(ss, 1.0), ss.s_resid)


def test_weighted_matrix_midpoint_is_half_total():
    ss = sums_of_squares(rand_dataset(11))
    half = weighted_matrix(ss, 0.5)
    assert np.allclose(half, 0.5 * ss.s_total, rtol=0,
                       atol=1e-12 * np.abs(ss.s_total).max())


def test_weighted_matrix_rejects_out_of_range():
    ss = sums_of_squares(rand_dataset(12))
    for w in (-0.01, 1.01, np.nan):
        with pytest.raises(ValueError):
            weighted_matrix(ss, w)


def test_midpoint_eigenvector_matches_total_scatter():
    for seed in range(20):
        ss = sums_of_squares(rand_dataset(200 + seed, signal=2.0))
        v_half = sym_eig(weighted_matrix(ss, 0.5)).vectors[:, 0]
        v_total = sym_eig(ss.s_total).vectors[:, 0]
        assert abs(v_half @ v_total) >= 1.0 - 1e-10


# --------------------------------------------------------------------------
# sym_eig
# --------------------------------------------------------------------------


def test_sym_eig_diagonal():
    eig = sym_eig(np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(eig.values, [2.0, 1.0, 1.0], rtol=0, atol=1e-14)
    assert np.allclose(eig.vectors[:, 0], [1.0, 0.0, 0.0], rtol=0, atol=1e-14)
    assert eig.vectors[0, 0] > 0


def test_sym_eig_identity():
    eig = sym_eig(np.eye(4))
    assert np.allclose(eig.values, 1.0, rtol=0, atol=1e-14)
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(4)).max() <= 1e-8
    peaks = np.argmax(np.abs(eig.vectors), axis=0)
    assert np.all(eig.vectors[peaks, np.arange(4)] > 0)


def test_sym_eig_reconstruction_and_order():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 5))
    m = (m + m.T) / 2.0
    eig = sym_eig(m)
    assert np.all(np.diff(eig.values) <= 0)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)


def test_sym_eig_deterministic():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((6, 6))
    m = m @ m.T
    a, b = sym_eig(m), sym_eig(m.copy())
    assert a.values.tobytes() == b.values.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_sym_eig_power_of_two_scaling_bit_identical():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((5, 5))
    m = m @ m.T
    base = sym_eig(m)
    for factor in (0.25, 2.0, 1024.0):
        scaled = sym_eig(factor * m)
        assert scaled.vectors.tobytes() == base.vectors.tobytes()
        assert np.array_equal(scaled.values, factor * base.values)


def test_sym_eig_general_scaling_stable():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((4, 4))
    m = m @ m.T + np.diag([3.0, 2.0, 1.0, 0.5])
    base = sym_eig(m)
    for factor in (0.3, 7.77, 113.0):
        scaled = sym_eig(factor * m)
        dots = np.abs(np.sum(scaled.vectors * base.vectors, axis=0))
        assert np.all(dots >= 1.0 - 1e-10)


def test_sym_eig_sign_convention():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.standard_normal((4, 4))
        eig = sym_eig(m @ m.T)
        peaks = np.argmax(np.abs(eig.vectors), axis=0)
        assert np.all(eig.vectors[peaks, np.arange(4)] > 0)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eig(np.arange(6.0).reshape(2, 3))
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(bad)
    with pytest.raises(ValueError):
        sym_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_sym_eig_zero_matrix():
    eig = sym_eig(np.zeros((3, 3)))
    assert np.array_equal(eig.values, np.zeros(3))


# --------------------------------------------------------------------------
# zero cross-moment of projected noise (Monte Carlo)
# --------------------------------------------------------------------------


def test_projected_noise_cross_moment_vanishes():
    # E' P E E' X has expectation zero when the rows of E are centered
    # normal and X is a fixed centered design; p=3, q=2, n=10.
    n, p, q, reps = 10, 3, 2, 20000
    rng = np.random.default_rng(18)
    x = center_columns(rng.standard_normal((n, q)))
    qmat = np.linalg.qr(x, mode="reduced")[0]
    root = np.diag(np.sqrt([2.0, 1.0, 0.5]))
    e = rng.standard_normal((reps, n, p)) @ root
    qte = np.matmul(qmat.T, e)                        # (reps, q, p)
    epe = np.matmul(qte.transpose(0, 2, 1), qte)      # (reps, p, p)
    etx = np.matmul(e.transpose(0, 2, 1), x)          # (reps, p, q)
    stat = np.matmul(epe, etx)                        # (reps, p, q)
    mean = stat.mean(axis=0)
    se = stat.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean) <= 4.0 * se)
