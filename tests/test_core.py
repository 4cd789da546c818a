"""Sum-of-squares decomposition and eigensolver contract tests.

The regression scatter is cross-checked against a literal dense
implementation with an explicit normal-equations inverse, and the residual
cross-moment E'P E E'X is checked against zero by Monte Carlo.
"""

import warnings

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
    gamma1_hat,
    loo_cv_scores,
    reduced_rank_coefficients,
    sums_of_squares,
    sym_eig,
)
from allopca.cli import main
from allopca.core import _check_leading_pairs, _leading_pair_stack, _peaks, _pow2_scale
from allopca.estimators import _solve_axes


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
    np.savetxt(ypath, data.y, delimiter=",", fmt="%.17g")
    np.savetxt(xpath, x, delimiter=",", fmt="%.17g")
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
    # s_total is formed as s_reg + s_resid, so it is compared with the dense Yc'Yc
    rng = np.random.default_rng(6)
    x = (np.array([[-3.0], [-1.0], [1.0], [3.0]]) / np.sqrt(20.0)) * 1.7
    y = rng.standard_normal((4, 2))
    ss = sums_of_squares(Dataset(y, x))
    yc = y - y.mean(axis=0)
    gap = np.abs(ss.s_total - yc.T @ yc).max()
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
        yc = y - y.mean(axis=0)
        fro = np.linalg.norm(ss.s_total - yc.T @ yc)
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


@pytest.mark.parametrize("entry", [1e160, 1e250, 1e300])
def test_gram_overflow_is_reported_by_the_finite_rule(entry):
    # a finite response entry whose square overflows: `Dataset` accepts it, and
    # each fit reports the overflow by the finite rule, with no numpy warning
    # (the suite turns warnings into errors)
    base = rand_dataset(10)
    y = np.array(base.y)
    y[3, 2] = entry
    data = Dataset(y, base.x)
    with pytest.raises(ValueError, match="^`s_reg` contains non-finite entries$"):
        sums_of_squares(data)
    for rules in ((OlsRule(),), (PluginRule(),)):
        with pytest.raises(ValueError, match="^`s_reg` of a leave-one-out fold contains "
                                             "non-finite entries$"):
            loo_cv_scores(data, rules)


def _huge_column(n=10, p=3):
    """Zeros but for two entries of 1e308 in column 1, which sum past the float range."""
    y = np.zeros((n, p))
    y[2, 1] = y[5, 1] = 1e308
    return y


def test_center_columns_of_a_column_summing_past_the_float_range():
    # no numpy warning (the suite turns warnings into errors), and the exact means
    yc = center_columns(_huge_column())
    assert np.array_equal(yc[:, 1], np.where(np.isin(np.arange(10), (2, 5)), 8e307, -2e307))
    assert np.array_equal(yc[:, [0, 2]], np.zeros((10, 2)))


def test_sums_of_squares_reports_a_huge_finite_column_by_the_finite_rule():
    data = Dataset(_huge_column(), rand_dataset(0, n=10, q=2).x)
    with pytest.raises(ValueError, match="^`s_reg` contains non-finite entries$"):
        sums_of_squares(data)


def test_sums_of_squares_decomposes_each_gram_once(eig_sizes):
    # `SumOfSquares` checks each Gram once, as any pair a user gives, and the
    # fit's own check is additivity alone
    data = rand_dataset(0)
    sizes = eig_sizes()
    sums_of_squares(data)
    assert sizes == [data.p, data.p]


def test_dataset_accepts_a_centered_column_of_huge_entries():
    # +1e308 twice and -1e308 twice sum past the float range in any order but one
    x = np.array([[1e308, 0.5], [1e308, -0.5], [-1e308, 1.0], [-1e308, -1.0], [0.0, 0.0]])
    assert Dataset(np.ones((5, 2)), x).q == 2
    x[4, 0] = 1e308
    with pytest.raises(ValueError, match="^`x` is not column-centered: column 0 sums to 1.000e"):
        Dataset(np.ones((5, 2)), x)


def test_center_columns_gives_the_bits_of_the_plain_mean():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n, p = rng.integers(1, 30), rng.integers(1, 6)
        x = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-200, 200, size=p)
        x += rng.standard_normal(p) * 10.0 ** rng.uniform(-200, 200, size=p)
        assert np.array_equal(center_columns(x), x - x.mean(axis=0))


def test_sum_of_squares_type_validation():
    ss = sums_of_squares(rand_dataset(9))
    rebuilt = SumOfSquares(ss.s_reg, ss.s_resid, ss.n, ss.q)
    assert rebuilt.s_total.tobytes() == (ss.s_reg + ss.s_resid).tobytes()
    assert not rebuilt.s_total.flags.writeable
    with pytest.raises(TypeError):  # the total is formed, never given
        SumOfSquares(ss.s_reg, ss.s_resid, ss.s_total, ss.n, ss.q)
    with pytest.raises(ValueError, match="matrix shapes disagree"):
        SumOfSquares(ss.s_reg, ss.s_resid[:-1, :-1], ss.n, ss.q)
    bad = np.array(ss.s_reg)
    bad[0, 1] += 10.0 * np.abs(bad).max()
    with pytest.raises(ValueError):
        SumOfSquares(bad, ss.s_resid, ss.n, ss.q)
    with pytest.raises(ValueError):
        SumOfSquares(ss.s_reg, ss.s_resid, ss.q + 1, ss.q)


def test_sum_of_squares_names_the_failing_matrix():
    ss = sums_of_squares(rand_dataset(9))
    v = np.ones(ss.p) / np.sqrt(ss.p)
    s_resid = ss.s_resid - 10.0 * np.abs(ss.s_resid).max() * np.outer(v, v)
    with pytest.raises(ValueError, match="`s_resid`.*positive semidefinite") as exc:
        SumOfSquares(ss.s_reg, s_resid, ss.n, ss.q)
    assert "fold" not in str(exc.value)


def test_sum_of_squares_stores_exactly_symmetric_matrices():
    # a user-given matrix asymmetric within SYM_STORED_TOL is stored as (M + M') / 2,
    # so the blend the eigensolver reads is exactly symmetric
    ss = sums_of_squares(rand_dataset(13))
    bump = np.zeros_like(ss.s_reg)
    bump[0, 1] = 1e-12 * np.abs(ss.s_reg).max()
    given = ss.s_reg + bump
    user = SumOfSquares(given, ss.s_resid, ss.n, ss.q)
    assert np.array_equal(user.s_reg, (given + given.T) / 2.0)
    for m in (user.s_reg, user.s_resid, user.s_total):
        assert np.array_equal(m, m.T)
    for w in (0.0, 0.35, 1.0):
        reference = sym_eig((1 - w) * user.s_reg + w * user.s_resid).vectors[:, 0]
        assert np.max(np.abs(gamma1_hat(user, w).vector - reference)) <= 1e-14
    # exactly symmetric matrices are stored unchanged
    again = SumOfSquares(ss.s_reg, ss.s_resid, ss.n, ss.q)
    for name in ("s_reg", "s_resid", "s_total"):
        assert getattr(again, name).tobytes() == getattr(ss, name).tobytes()


# --------------------------------------------------------------------------
# the blend S(w) = (1 - w) s_reg + w s_resid, through gamma1_hat
# --------------------------------------------------------------------------


def test_gamma1_hat_endpoints_are_the_scatter_axes():
    ss = sums_of_squares(rand_dataset(10))
    for w, m in ((0.0, ss.s_reg), (1.0, ss.s_resid)):
        eig, est = sym_eig(m), gamma1_hat(ss, w)
        assert np.max(np.abs(est.vector - eig.vectors[:, 0])) <= 1e-14
        assert abs(est.leading_gap - (eig.values[0] - eig.values[1])) <= 1e-14 * eig.values[0]


def test_gamma1_hat_midpoint_has_half_the_total_gap():
    # S(0.5) is half the total scatter
    ss = sums_of_squares(rand_dataset(11))
    total = sym_eig(ss.s_total)
    assert gamma1_hat(ss, 0.5).leading_gap == pytest.approx(
        0.5 * (total.values[0] - total.values[1]), rel=1e-12)


def test_weighted_matrix_rejects_out_of_range():
    # the blend S(w) is defined for w in [0, 1] only
    ss = sums_of_squares(rand_dataset(12))
    for w in (-0.01, 1.01, np.nan):
        with pytest.raises(ValueError, match="outside"):
            gamma1_hat(ss, w)


def test_midpoint_eigenvector_matches_total_scatter():
    for seed in range(20):
        ss = sums_of_squares(rand_dataset(200 + seed, signal=2.0))
        v_half = gamma1_hat(ss, 0.5).vector
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
# the commands' solver: every eigenvalue and the leading vector
# --------------------------------------------------------------------------

SQRT_HALF, SQRT_SIXTH = np.sqrt(0.5), np.sqrt(1.0 / 6.0)

# (matrix, pinned leading vector) of matrices with a clear gap (> 1e-8 lambda_1)
LEADING_CASES = {
    # leading vectors orthogonal to the ones vector
    "two-by-two": (np.array([[2.0, -1.0], [-1.0, 2.0]]), [SQRT_HALF, -SQRT_HALF]),
    "rank-one": (np.outer([1.0, -2.0, 1.0], [1.0, -2.0, 1.0]),
                 [-SQRT_SIXTH, 2.0 * SQRT_SIXTH, -SQRT_SIXTH]),
    # leading vectors orthogonal to every other coordinate vector
    **{f"diagonal-top-{j}": (np.diag(np.roll([3.0, 2.0, 1.0, 0.5], j)), np.eye(4)[j])
       for j in range(4)},
}


def _scaled(m):
    """A stack (k, s, s) with each matrix divided by `_pow2_scale` of its peak, as
    `_solve_axes` hands it to the solver, and those scales (k,)."""
    scale = _pow2_scale(_peaks(m))
    return m / scale[:, None, None], scale


def _leading(m):
    """`_leading_pair_stack` of one matrix, scaled and checked: (values, vector)."""
    a, scale = _scaled(m[None])
    vals, vecs = _leading_pair_stack(a)
    _check_leading_pairs(a, vals, vecs)
    return vals[0] * scale[0], vecs[0]


@pytest.mark.parametrize("case", sorted(LEADING_CASES))
def test_leading_pair_of_edge_matrices(case):
    m, want = LEADING_CASES[case]
    vals, vec = _leading(m)
    eig = sym_eig(m)
    assert eig.values[0] - eig.values[1] > 1e-8 * eig.values[0]
    assert np.max(np.abs(vec - want)) <= 1e-14
    assert np.max(np.abs(vec - eig.vectors[:, 0])) <= 1e-14
    assert np.max(np.abs(vals - eig.values)) <= 1e-14 * eig.values[0]


@pytest.mark.parametrize("gap", [0.0, 1e-13])
def test_leading_pair_of_a_tie_lies_in_the_tied_plane(gap):
    s_resid = np.diag([3.0, 3.0 - gap, 1.0])
    axes, gaps, ties = _solve_axes(np.ones((1, 1)), np.zeros((1, 3, 3)), s_resid[None])
    assert ties[0, 0] and gaps[0, 0] <= 1e-12
    assert abs(axes[0, 0, 2]) <= 1e-14
    assert np.linalg.norm(axes[0, 0]) == pytest.approx(1.0, abs=1e-15)
    _leading(s_resid)


@pytest.mark.parametrize("m", [np.zeros((3, 3)), 5.0 * np.eye(3)], ids=["zero", "scalar"])
def test_leading_vector_of_one_eigenvalue_is_the_last_axis(m):
    vals, vec = _leading(m)
    assert vec.tobytes() == np.eye(3)[-1].tobytes()
    assert np.array_equal(vals, np.diag(m))


def _solver_stack():
    """Order-3 matrices with and without gaps, the near-tie taking extra solves."""
    rng = np.random.default_rng(18)
    b = rng.standard_normal((4, 5, 3))
    random = np.swapaxes(b, 1, 2) @ b
    edge = [LEADING_CASES["rank-one"][0], np.diag([3.0, 3.0, 1.0]),
            np.diag([3.0, 3.0 - 1e-13, 1.0]), np.zeros((3, 3)), 5.0 * np.eye(3)]
    return np.concatenate([(random + np.swapaxes(random, 1, 2)) / 2.0, edge])


def test_solved_pairs_bit_identical_under_power_of_two_rescaling():
    # `_solve_axes` divides each solved matrix by its power of two before the
    # solver and its check read it; w = 1 solves each matrix as it is given
    m = _solver_stack()
    zero, w = np.zeros_like(m), np.ones((len(m), 1))
    axes, gaps, ties = _solve_axes(w, zero, m)
    assert ties[:, 0].tolist() == [False] * 5 + [True] * 4
    for exponent in (-900, 900):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_axes, got_gaps, got_ties = _solve_axes(w, zero, np.ldexp(m, exponent))
        assert got_axes.tobytes() == axes.tobytes()
        assert got_gaps.tobytes() == np.ldexp(gaps, exponent).tobytes()
        assert got_ties.tobytes() == ties.tobytes()


def test_leading_pair_bit_identical_for_any_stack():
    m = _scaled(_solver_stack())[0]
    vals, vecs = _leading_pair_stack(m)
    for order in (np.arange(len(m))[::-1], np.roll(np.arange(len(m)), 3)):
        got = _leading_pair_stack(m[order])
        assert got[0].tobytes() == vals[order].tobytes()
        assert got[1].tobytes() == vecs[order].tobytes()
    for i in range(len(m)):
        alone = _leading_pair_stack(m[i:i + 1])
        assert alone[0].tobytes() == vals[i:i + 1].tobytes()
        assert alone[1].tobytes() == vecs[i:i + 1].tobytes()


def test_leading_pair_leaves_its_stack_as_it_was():
    # the solves read sigma I - a, formed inside the stack and turned back into a
    # (negation is exact, and the saved diagonal is written back), when some, all
    # or none of the matrices take another solve; a -0.0 keeps its sign
    a = _scaled(_solver_stack())[0]
    signed_zero = np.where(np.eye(3) > 0.0, np.diag([1.5, 1.0, 0.5]), -0.0)
    for stack in (np.concatenate([a, signed_zero[None]]), a[5:7], a[4:5]):
        before = stack.tobytes()
        _leading_pair_stack(stack)
        assert stack.tobytes() == before


def test_gamma1_hat_of_huge_data_warns_of_nothing():
    # the leading-pair check runs on the scaled matrix, so its norms cannot overflow
    data = rand_dataset(19)
    huge = Dataset(1e120 * data.y, data.x)
    base = gamma1_hat(sums_of_squares(data), 0.35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = gamma1_hat(sums_of_squares(huge), 0.35)
    assert np.max(np.abs(est.vector - base.vector)) <= 1e-12


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
