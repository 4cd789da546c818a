"""The sample-space branch of `_leading_axes`, and the one fit check.

Replications, `estimate` and leave-one-out folds build their fits with one
builder (`core._scatter_stack`), and `core._check_fit_stack` checks each
fit once, in the space it is solved in: the p x p matrices, or the Gram
blocks of the n - 1 reduced rows [reg; Qc'resid] of a wide fit of n
observations (n - 1 < p), with one `eigvalsh` of the residual block in
either space.  A leave-one-out fold is the n - 1 rows that it keeps,
centered on their own means.  Wide folds are checked against the
brute-force leave-one-out refit and a wide fit against the one-fit library
path (the replication cases against `conftest.per_weight_replication` are
in `test_harness.py`); each rule of the fit check, and the leading-pair
check of every solved matrix, has a fault-injection test on a p x p point,
a sample-space point and a leave-one-out fold; axes are pinned bit for bit
under stacking and power-of-two rescaling, and a zero S(w) gives the axis
e_p in both spaces."""

import inspect
import re

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
    sym_eig,
)
from allopca import core, estimators, harness
from allopca.cli import main
from allopca.core import _scatter_stack
from allopca.errors import NumericFailure
from allopca.estimators import _leading_axes
from allopca.harness import DEFAULT_ROWS, _replicate_block
from allopca.simgen import STRONG_SPIKE, Traditional

ROWS = tuple(est for _, est in DEFAULT_ROWS)
RULES = (FixedWeight(0.0), FixedWeight(0.3), FixedWeight(0.5), FixedWeight(1.0), PluginRule())


def _wide_fits(k=4, n=15, p=40, q=3, seed=1):
    """Centered responses and designs of `k` stacked wide fits (n - 1 < p) with a shared spike."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n, q))
    x -= x.mean(axis=1, keepdims=True)
    y = (rng.standard_normal((k, n, p))
         + 3.0 * (x @ np.ones(q))[:, :, None] * rng.standard_normal(p))
    return y - y.mean(axis=1, keepdims=True), x, n, q


# --------------------------------------------------------------------------
# oracles (the replication oracle cases are in test_harness.py)
# --------------------------------------------------------------------------


def test_wide_leave_one_out_matches_refit(loo_refit, eig_sizes, monkeypatch):
    # n = 12, p = 30, q = 2: every fold (11 observations) is solved in sample space,
    # with one eigvalsh of its residual block, of order 11 - 1 - 2 = 8, and every
    # weight at the reduced order 11 - 1 = 10
    rng = np.random.default_rng(7)
    n, p, q = 12, 30, 2
    x = center_columns(rng.standard_normal((n, q)))
    y = np.outer(x @ np.ones(q), np.linspace(1.0, 2.0, p)) + 0.5 * rng.standard_normal((n, p))
    data = Dataset(y, x)
    rules = (FixedWeight(0.5), FixedWeight(1.0), FixedWeight(0.0), PluginRule(), OlsRule())
    sizes = eig_sizes()
    scores = loo_cv_scores(data, rules)
    assert sizes.count(n - 2 - q) == n and set(sizes) == {n - 2 - q, n - 2}
    monkeypatch.undo()
    for score, rule in zip(scores, rules):
        assert score == pytest.approx(loo_refit(data, rule), rel=1e-10)


@pytest.mark.parametrize("amp", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_folds_of_a_loosely_centered_design_match_refit(loo_refit, seed, amp):
    # a design centered only to `Dataset`'s tolerance: each fold centers its own
    # rows, so its residual rows are orthogonal to the constant, and a strong
    # signal along a badly scaled design leaves the wide folds exact
    rng = np.random.default_rng(seed)
    n, p, q = 30, 80, 2
    x = center_columns(rng.standard_normal((n, q))) * [1.0, 0.03]
    x += 0.9e-9 * np.max(np.abs(x))
    g = rng.standard_normal(p)
    y = amp * np.outer(x @ np.ones(q), g / np.linalg.norm(g)) + rng.standard_normal((n, p))
    data = Dataset(y, x)
    rules = (FixedWeight(0.5), PluginRule(), OlsRule())
    for score, rule in zip(loo_cv_scores(data, rules), rules):
        assert score == pytest.approx(loo_refit(data, rule), rel=1e-10), rule


def test_wide_fit_matches_library_path():
    y, x, n, q = _wide_fits(k=1)
    weights, axes, gaps, ties, plugin = _leading_axes(RULES, *_scatter_stack(y, x))
    ss = sums_of_squares(Dataset(y[0], x[0]))
    pw = estimate_abcd(ss)
    for name in ("lambda1_hat", "lambda2_hat", "a_hat", "b_hat", "c_hat", "d_hat", "w_hat"):
        assert plugin[name][0] == pytest.approx(getattr(pw, name), rel=1e-12), name
    for w, axis, gap, tie in zip(weights[0], axes[0], gaps[0], ties[0]):
        est = gamma1_hat(ss, w)
        assert 1.0 - abs(axis @ est.vector) <= 1e-13
        assert axis[np.argmax(np.abs(axis))] > 0.0
        lambda1 = sym_eig((1 - w) * ss.s_reg + w * ss.s_resid).values[0]
        assert abs(gap - est.leading_gap) <= 1e-12 * lambda1
        assert tie == est.tie_flag


def _zero_regression_fit(p):
    """A 4-row fit whose regression rows are exactly zero: two Hadamard columns,
    scaled by 2 and 1, orthogonal to the one-column design; the other p - 2
    responses are zero."""
    h = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    y = np.zeros((4, p))
    y[:, :2] = h[:, 2:] * [2.0, 1.0]
    return y, h[:, 1:2]


@pytest.mark.parametrize("p", [3, 40])
def test_zero_blend_gives_the_last_axis_in_both_spaces(p):
    # S(0) = s_reg = 0: p = 3 is solved p x p (eigh of a zero matrix gives e_p),
    # p = 40 in sample space (n - 1 = 3 < p), whose lift W' D^1/2 u is 0
    y, x = _zero_regression_fit(p)
    rules = (FixedWeight(0.0), FixedWeight(0.5))
    weights, axes, gaps, ties, _ = _leading_axes(rules, *_scatter_stack(y[None], x[None]))
    assert axes[0, 0].tobytes() == np.eye(p)[-1].tobytes()
    assert gaps[0, 0] == 0.0 and ties[0, 0]
    assert not ties[0, 1]
    est = gamma1_hat(sums_of_squares(Dataset(y, x)), 0.0)
    assert est.vector.tobytes() == axes[0, 0].tobytes() and est.tie_flag


def test_zero_blend_estimate_prints_no_nan(tmp_path, capsys):
    y, x = _zero_regression_fit(40)
    argv = ["estimate"]
    for flag, mat in (("--y", y), ("--x", x)):
        path = tmp_path / f"{flag[2:]}.csv"
        np.savetxt(path, mat, delimiter=",", fmt="%.17g")
        argv += [flag, str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    rows = [line.split(",") for line in out.splitlines() if line[0].isdigit()]
    assert [row[3] for row in rows] == ["0"] * 39 + ["1"]  # regression(w=0) is e_p


# --------------------------------------------------------------------------
# bit identity
# --------------------------------------------------------------------------


def test_axes_bit_identical_under_power_of_two_rescaling():
    y, x, n, q = _wide_fits()
    base = _leading_axes(RULES, *_scatter_stack(y, x))
    for exponent in (-40, -3, 1, 7, 60):
        scaled = _leading_axes(RULES, *_scatter_stack(np.ldexp(y, exponent), x))
        assert scaled[0].tobytes() == base[0].tobytes()
        assert scaled[1].tobytes() == base[1].tobytes()


def test_axes_bit_identical_for_any_stack():
    y, x, n, q = _wide_fits(k=5)
    whole = _leading_axes(RULES, *_scatter_stack(y, x))[1]
    for i in range(5):
        alone = _leading_axes(RULES, *_scatter_stack(y[i:i + 1], x[i:i + 1]))[1]
        assert alone.tobytes() == whole[i:i + 1].tobytes()


# --------------------------------------------------------------------------
# the fit check: one fault per rule
# --------------------------------------------------------------------------


def test_nan_response_raises():
    y, x, n, q = _wide_fits()
    y[2, 4, 7] = np.nan
    with pytest.raises(ValueError, match="`s_reg` contains non-finite entries"):
        _leading_axes(RULES, *_scatter_stack(y, x))


def _fold_data():
    """Data (n = 12, p = 30, q = 2) whose leave-one-out folds are wide."""
    rng = np.random.default_rng(3)
    return Dataset(rng.standard_normal((12, 30)), center_columns(rng.standard_normal((12, 2))))


def _fault_cases():
    """(run, q, where) of a p x p point (table1), a sample-space point (table3b),
    wide leave-one-out folds and the one-fit library path (`gamma1_hat` of
    `sums_of_squares`); `where` names the fit in error messages."""
    data = _fold_data()
    table1, table3b = (kind.model_spec(50, 3) for kind in (Traditional(), STRONG_SPIKE))
    return [(lambda: _replicate_block(table1, ROWS, np.arange(2)), table1.q, ""),
            (lambda: _replicate_block(table3b, ROWS, np.arange(2)), table3b.q, ""),
            (lambda: loo_cv_scores(data, (FixedWeight(0.5),)), data.q,
             " of a leave-one-out fold"),
            (lambda: gamma1_hat(sums_of_squares(data), 0.3).vector, data.q, "")]


def _corrupt(vals, vecs, part):
    """Copies of ascending `eigh` output (..., s), (..., s, s) with its smallest pair moved."""
    vals, vecs = vals.copy(), vecs.copy()
    if part == "smallest":
        vals[..., 0] += 1e-6 * np.abs(vals[..., -1])
    else:  # "smallest vector", turned 1e-4 toward the leading pair's vector
        vecs[..., 0] = np.cos(1e-4) * vecs[..., 0] + np.sin(1e-4) * vecs[..., -1]
    return vals, vecs


def _corrupt_leading(vals, vecs, part):
    """Copies of `core._leading_pair_stack` output, descending values (k, s) and
    leading vectors (k, s), with one quantity moved."""
    vals, vecs = vals.copy(), vecs.copy()
    top = np.abs(vals[:, 0])
    if part == "lambda1":
        vals[:, 0] += 1e-6 * top
    elif part == "lambda2":
        vals[:, 1] -= 1e-6 * top
    elif part == "rotated vector":  # turned 1e-4 toward a unit vector orthogonal to it
        off = np.eye(vecs.shape[1])[-1] - vecs[:, -1:] * vecs
        off /= np.linalg.norm(off, axis=1, keepdims=True)
        vecs = np.cos(1e-4) * vecs + np.sin(1e-4) * off
    else:  # "scaled vector"
        vecs *= 1.0 + 1e-6
    return vals, vecs


@pytest.mark.parametrize("part, message", [
    ("lambda1", "eigenpair 1 of solved matrix 0 fails its residual check"),
    ("lambda2", "the eigenvalues of solved matrix 0 miss its trace or Frobenius norm"),
    ("rotated vector", "eigenpair 1 of solved matrix 0 fails its residual check"),
    ("scaled vector", r"leading eigenvector\[0\] must be unit length"),
], ids=["lambda1", "lambda2", "rotated_vector", "scaled_vector"])
def test_corrupted_leading_eigenpair_raises(monkeypatch, part, message):
    # a p x p block, a sample-space block and a block of leave-one-out folds
    real = core._leading_pair_stack
    cases = _fault_cases()
    monkeypatch.setattr(estimators, "_leading_pair_stack",
                        lambda m, known=None: _corrupt_leading(*real(m, known), part))
    for run, _, _ in cases:
        with pytest.raises(NumericFailure, match=message):
            run()


def test_residual_mass_outside_the_kept_pairs_raises(monkeypatch):
    # residual rows shifted by a constant stay orthogonal to the centered design
    # but put mass along the constant, which a wide fit's reduced rows Qc'resid
    # would not keep: the additivity rule refuses it in every space
    def shifted(*args, _orig=core._scatter_stack):
        reg, resid, total, qmat = _orig(*args)
        return reg, resid + 0.1 * np.max(np.abs(resid)), total, qmat

    for module in (harness, estimators, core):
        monkeypatch.setattr(module, "_scatter_stack", shifted)
    for run, _, where in _fault_cases():
        with pytest.raises(ValueError, match=rf"s_total != s_reg \+ s_resid{where}: residual "
                                             r"rows leave the complement of the constant"):
            run()


def test_sums_of_squares_checks_its_fit_like_every_built_fit(monkeypatch):
    # the library's one-fit path gets the fit check's additivity rule on its
    # row factors, not a comparison of Grams
    real = core._conditioned_qr
    monkeypatch.setattr(core, "_conditioned_qr", lambda x, *args: 1.001 * real(x, *args))
    with pytest.raises(ValueError, match=r"^s_total != s_reg \+ s_resid: residual rows leave "
                                         r"the complement of the constant and the design span"):
        sums_of_squares(_fold_data())


def test_corrupted_smallest_eigenvalue_fails_only_sym_eig(monkeypatch):
    # only `sym_eig` reads the whole eigenbasis, so only it checks the whole
    # decomposition; the commands solve for the leading vector alone, with no `eigh`
    real = np.linalg.eigh
    cases = _fault_cases()
    want = [run() for run, _, _ in cases]
    a = np.random.default_rng(0).standard_normal((6, 6))
    m = a @ a.T
    for part in ("smallest", "smallest vector"):
        monkeypatch.setattr(np.linalg, "eigh", lambda a, part=part: _corrupt(*real(a), part))
        with pytest.raises(ValueError, match="eigendecomposition failed to reconstruct the input"):
            sym_eig(m)
        for (run, _, _), out in zip(cases, want):
            _assert_same(run(), out)


def _assert_same(got, want):
    if isinstance(want, tuple):
        for a, b in zip(got, want):
            _assert_same(a, b)
    else:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_commands_check_the_leading_pairs_of_every_solve(monkeypatch):
    # the stacked solvers check nothing; every matrix solved for a command gets
    # the leading-pair check, and none the full orthonormality check
    for solver in (core._sym_eig_stack, core._leading_pair_stack):
        body = inspect.getsource(solver).split('"""')[-1]  # past the docstring
        assert not re.search(r"raise|_check", body)
    cases = _fault_cases()
    solved, checked = [], []
    real_solve, real_check = estimators._leading_pair_stack, estimators._check_leading_pairs

    def solve(m, known=None):
        solved.append(m.copy())
        return real_solve(m, known)

    def check(m, *args):
        checked.append(m.copy())
        real_check(m, *args)

    def refuse(*args):
        raise AssertionError("full orthonormality check")

    monkeypatch.setattr(estimators, "_leading_pair_stack", solve)
    monkeypatch.setattr(estimators, "_check_leading_pairs", check)
    monkeypatch.setattr(core, "_check_orthonormal", refuse)
    for run, _, _ in cases:
        run()
    assert len(solved) >= 3
    assert [m.tobytes() for m in checked] == [m.tobytes() for m in solved]


def test_non_psd_residual_gram_raises(monkeypatch):
    real = estimators._gram
    for run, q, where in _fault_cases():
        def dented(rows, q=q):
            g = real(rows)
            if rows.shape[1] != q:  # not the p x p regression Gram of q factor rows
                g[:, -1, -1] -= 10.0 * np.max(np.abs(g))  # the last residual row's entry
            return g

        for module in (estimators, core):  # the fit check's Grams, and `sums_of_squares`'
            monkeypatch.setattr(module, "_gram", dented)
        with pytest.raises(ValueError, match=f"`s_resid`{where} is not positive semidefinite"):
            run()
        monkeypatch.undo()


def test_non_orthonormal_design_basis_raises(monkeypatch):
    # the additivity rule, max|Q'resid|, which also covers each fold's residual
    # rows, and the folds of an OLS-only scoring, whose predictions read Q and reg
    real = core._conditioned_qr
    cases = _fault_cases()
    cases.append((lambda: loo_cv_scores(_fold_data(), (OlsRule(),)), 2,
                  " of a leave-one-out fold"))
    monkeypatch.setattr(core, "_conditioned_qr", lambda x, *args: 1.001 * real(x, *args))
    for run, _, where in cases:
        with pytest.raises(ValueError,
                           match=rf"s_total != s_reg \+ s_resid{where}: residual rows"):
            run()
