"""Leading-axis estimators built from weighted sum-of-squares matrices.

The estimator family indexes a one-parameter blend of the regression and
residual scatter,

    S(w) = (1 - w) s_reg + w s_resid,      w in [0, 1],

and takes the leading eigenvector of S(w) as the estimate of the principal
axis.  w = 0.5 reproduces the ordinary PCA direction of the total scatter,
w = 1 uses the residual scatter alone, and w = 0 the regression scatter
alone.  The mean-squared-error-optimal weight has a closed form in the
scalar summaries

    a = tr(Sigma^2) + (tr Sigma)^2,
    b = lambda_1 + tr Sigma,
    c = ||X alpha||^2           (signal energy through the design),
    d = lambda_1 - lambda_2     (eigengap),

and each of those summaries has a natural plug-in estimate from the data,
leading to a fully data-driven weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    SumOfSquares,
    _check_design_conditioning,
    _check_dimension,
    _check_plugin_dof,
    _check_scatter_stack,
    _check_sizes,
    _check_symmetric,
    _check_unit,
    _check_weight,
    _conditioned_qr,
    _gram,
    _readonly,
    _sym_eig_stack,
    sym_eig,
    weighted_matrix,
)
from .errors import DegreesOfFreedomError, RankDeficiencyError

# An eigenvalue tie is declared when the top gap is this small relative to
# the trace of the blended matrix.
TIE_TOL = 1e-12

# Data-driven weights are clamped into [0, WEIGHT_CAP]; the optimal weight
# always lies strictly below 2/3 whenever a >= b * d, which holds for
# summaries derived from a common covariance spectrum.
WEIGHT_CAP = 2.0 / 3.0


@dataclass(frozen=True)
class AbcdParams:
    """Scalar model summaries (a, b, c, d) with the sample dimensions.

    Requires a, b, d > 0, c >= 0, q >= 1, n > 1 + q, and a >= b * d.  The
    last condition is automatic when a, b and d come from one covariance
    spectrum (lambda_1^2 <= tr(Sigma^2) and lambda_1 <= tr Sigma) and is
    what keeps the optimal weight below 2/3.
    """

    a: float
    b: float
    c: float
    d: float
    q: int
    n: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        n, q = _check_sizes(self.n, self.q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        vals = (self.a, self.b, self.c, self.d)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"parameters must be finite, got {vals}")
        if self.a <= 0 or self.b <= 0 or self.d <= 0:
            raise ValueError(f"need a, b, d > 0; got a={self.a}, b={self.b}, d={self.d}")
        if self.c < 0:
            raise ValueError(f"need c >= 0, got c={self.c}")
        if self.b * self.d > self.a * (1.0 + 1e-12):
            raise ValueError(
                f"need a >= b * d (true for any covariance spectrum); "
                f"got a={self.a}, b*d={self.b * self.d}"
            )

    @classmethod
    def from_spectrum(cls, lambdas, c: float, q: int, n: int) -> "AbcdParams":
        """Summaries of a covariance with eigenvalues `lambdas` (descending)."""
        lam = np.asarray(lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("`lambdas` must be 1-D with at least two entries")
        if np.any(lam < 0) or np.any(np.diff(lam) > 0):
            raise ValueError("`lambdas` must be non-negative and non-increasing")
        tr = float(lam.sum())
        a = float((lam ** 2).sum()) + tr * tr
        b = float(lam[0]) + tr
        d = float(lam[0] - lam[1])
        return cls(a, b, float(c), d, q, n)


def w_star(params: AbcdParams) -> float:
    """The weight minimizing the estimation-error bound, in closed form.

    Equals (a d q + 2 b c d) / (2 a d q + 2 b c d + a c).  Always lies in
    (0, 2/3), and equals exactly 0.5 when c = 0 (no signal through the
    design, so the blend should fall back to total-scatter PCA).
    """
    num, den = _w_star_terms(params.a, params.b, params.c, params.d, params.q)
    return num / den


def _w_star_terms(a, b, c, d, q):
    """Numerator and denominator of `w_star`, broadcast over array summaries."""
    return a * d * q + 2.0 * b * c * d, 2.0 * a * d * q + 2.0 * b * c * d + a * c


@dataclass(frozen=True, eq=False)
class Gamma1Estimate:
    """Leading-axis estimate: unit vector, the weight used, and tie info.

    `leading_gap` is the gap between the two largest eigenvalues of the
    blended matrix; `tie_flag` marks a numerically degenerate gap, in which
    case the returned direction is arbitrary within the tied eigenspace.
    """

    vector: np.ndarray
    weight_used: float
    leading_gap: float
    tie_flag: bool

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"`vector` must be 1-D, got shape {v.shape}")
        _check_unit(v, "`vector`", 1e-10)
        _check_weight(self.weight_used, "`weight_used`")
        if self.leading_gap < 0.0:
            raise ValueError(f"`leading_gap` must be >= 0, got {self.leading_gap!r}")
        object.__setattr__(self, "vector", _readonly(v))
        object.__setattr__(self, "weight_used", float(self.weight_used))
        object.__setattr__(self, "leading_gap", float(self.leading_gap))
        object.__setattr__(self, "tie_flag", bool(self.tie_flag))


def gamma1_hat(ss: SumOfSquares, w: float) -> Gamma1Estimate:
    """Leading eigenvector of the blended scatter S(w).

    Parameters
    ----------
    ss : SumOfSquares
    w : float
        Blend weight in [0, 1].

    Returns
    -------
    Gamma1Estimate
        Unit-norm estimate under the package sign convention.  The result
        is invariant (bit-identical) under positive power-of-two rescaling
        of both scatter matrices, and stable up to roundoff under any other
        positive rescaling.
    """
    _check_dimension(ss.p)
    m = weighted_matrix(ss, w)
    eig = sym_eig(m)
    gap = float(eig.values[0] - eig.values[1])
    trace = float(np.trace(m))
    tie = gap <= TIE_TOL * trace
    return Gamma1Estimate(eig.vectors[:, 0], float(w), gap, tie)


def mse_up_to_sign(g_hat: np.ndarray, g_true: np.ndarray) -> float | np.ndarray:
    """Squared error between unit vectors, minimized over the sign of g_hat.

    Returns min over s in {-1, +1} of ||s * g_hat - g_true||^2, which for
    unit vectors equals 2 - 2 |<g_hat, g_true>| and lies in [0, 2]: a float
    for one vector `g_hat`, an array (...) for a stack (..., p), whose rows
    score the bytes they score alone.

    Raises
    ------
    ValueError
        If the shapes disagree, or some input is not unit length within 1e-8.
    """
    g_hat = np.asarray(g_hat, dtype=float)
    g_true = np.asarray(g_true, dtype=float)
    if g_true.ndim != 1 or g_hat.ndim < 1 or g_hat.shape[-1] != g_true.size:
        raise ValueError(f"inputs must be (..., p) and (p,), got {g_hat.shape} and {g_true.shape}")
    _check_unit(g_hat, "`g_hat`")
    _check_unit(g_true, "`g_true`")
    err = np.maximum(0.0, 2.0 - 2.0 * np.abs(_dots(g_hat, g_true)))
    return float(err) if g_hat.ndim == 1 else err


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner products of stacked vectors (..., m), each bit for bit its pair's `np.dot`."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class PluginWeights:
    """Plug-in model summaries and the data-driven weight they produce.

    `w_hat_raw` is the closed-form weight evaluated at the plug-in
    summaries (NaN when its denominator vanishes); `w_hat` is the usable
    version, set to 0 when the denominator is non-positive and clamped
    into [0, 2/3] otherwise.
    """

    sigma_hat: np.ndarray
    lambda1_hat: float
    lambda2_hat: float
    tr_sigma2_hat: float
    a_hat: float
    b_hat: float
    c_hat: float
    d_hat: float
    w_hat_raw: float
    w_hat: float

    def __post_init__(self):
        s = np.asarray(self.sigma_hat, dtype=float)
        _check_symmetric(s[None, None], ("`sigma_hat`",))
        if self.d_hat < 0.0:
            raise ValueError(f"`d_hat` must be >= 0, got {self.d_hat!r}")
        if not 0.0 <= self.w_hat <= WEIGHT_CAP:
            raise ValueError(f"`w_hat` outside [0, 2/3]: {self.w_hat!r}")
        object.__setattr__(self, "sigma_hat", _readonly(s))
        for name in ("lambda1_hat", "lambda2_hat", "tr_sigma2_hat", "a_hat",
                     "b_hat", "c_hat", "d_hat", "w_hat_raw", "w_hat"):
            object.__setattr__(self, name, float(getattr(self, name)))


def estimate_abcd(ss: SumOfSquares) -> PluginWeights:
    """Plug-in estimates of (a, b, c, d) and the data-driven weight.

    With m = n - 1 - q residual degrees of freedom:

    - Sigma_hat = s_resid / m;
    - tr(Sigma^2) is estimated unbiasedly by
      {tr(s_resid^2) - (tr s_resid)^2 / m} / {(n + 1 - q)(n - 2 - q)};
    - a_hat = that estimate + (tr Sigma_hat)^2;
    - b_hat = lambda1_hat + tr Sigma_hat, with lambda1_hat, lambda2_hat the
      two largest eigenvalues of Sigma_hat;
    - c_hat = tr(s_reg) - q tr(Sigma_hat);
    - d_hat = lambda1_hat - lambda2_hat.

    Requires p >= 2 (lambda2_hat needs a second eigenvalue) and n > 2 + q
    so the variance-correction factor is positive.

    Raises
    ------
    ValueError
        If p < 2.
    DegreesOfFreedomError
        If n <= 2 + q.
    """
    n, q = ss.n, ss.q
    _check_dimension(ss.p)
    _check_plugin_dof(n, q)
    fields = _plugin_weights(ss.s_reg[None], ss.s_resid[None],
                             np.linalg.eigvalsh(ss.s_resid)[None], n, q)
    return PluginWeights(sigma_hat=ss.s_resid / (n - 1 - q),
                         **{name: v[0] for name, v in fields.items()})


def _plugin_weights(s_reg, s_resid, resid_evals, n: int, q: int) -> dict:
    """Plug-in summaries and weight of stacked fits (k, p, p) with n rows each.

    `resid_evals` are the ascending eigenvalues (k, p) of `s_resid`.  With
    m = n - 1 - q, lambda1_hat and lambda2_hat are the two largest of them
    over m and tr Sigma_hat = tr(s_resid) / m; the rest follows
    `estimate_abcd`.  Returns the `PluginWeights` fields other than
    `sigma_hat`, each a (k,) array, with w_hat = 0 where the weight's
    denominator is <= 0 (w_hat_raw NaN where it is 0) and w_hat clamped
    into [0, 2/3] elsewhere.
    """
    m = n - 1 - q
    lam = resid_evals[:, ::-1] / m
    tr_se = np.trace(s_resid, axis1=1, axis2=2)
    tr_sig = tr_se / m
    tr_sigma2_hat = ((np.sum(s_resid * s_resid, axis=(1, 2)) - tr_se ** 2 / m)
                     / ((n + 1 - q) * (n - 2 - q)))
    a_hat = tr_sigma2_hat + tr_sig ** 2
    b_hat = lam[:, 0] + tr_sig
    c_hat = np.trace(s_reg, axis1=1, axis2=2) - q * tr_sig
    d_hat = np.maximum(lam[:, 0] - lam[:, 1], 0.0)
    num, den = _w_star_terms(a_hat, b_hat, c_hat, d_hat, q)
    w_raw = np.divide(num, den, out=np.full(den.shape, np.nan), where=den != 0.0)
    w_hat = np.where(den <= 0.0, 0.0, np.minimum(np.maximum(w_raw, 0.0), WEIGHT_CAP))
    return dict(lambda1_hat=lam[:, 0], lambda2_hat=lam[:, 1], tr_sigma2_hat=tr_sigma2_hat,
                a_hat=a_hat, b_hat=b_hat, c_hat=c_hat, d_hat=d_hat, w_hat_raw=w_raw,
                w_hat=w_hat)


# --------------------------------------------------------------------------
# rank-one regression fits and leave-one-out evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedWeight:
    """Use a fixed blend weight."""

    w: float

    def __post_init__(self):
        object.__setattr__(self, "w", _check_weight(float(self.w)))


@dataclass(frozen=True)
class PluginRule:
    """Use the data-driven weight from `estimate_abcd`."""


@dataclass(frozen=True)
class OlsRule:
    """Unrestricted least-squares fit (no rank-one projection)."""


def _ols_fit(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients (q x p) and intercept for centered x."""
    x, y = data.x, data.y
    qmat, rmat = _conditioned_qr(x[None])
    coef = np.linalg.solve(rmat[0], qmat[0].T @ y)
    mu = y.mean(axis=0)
    return coef, mu


def reduced_rank_coefficients(
    data: Dataset, g_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one coefficient matrix obtained by projecting the OLS fit.

    Projects each response's least-squares coefficient vector onto the
    estimated axis: B = B_ols g g'.  Returns (B, mu) with B of shape
    (q, p) and mu the intercept (column means of y, exact because x is
    centered).

    Raises
    ------
    ValueError
        If `g_hat` is not a unit vector of length p.
    RankDeficiencyError
        If the design is too ill-conditioned.
    """
    g = np.asarray(g_hat, dtype=float)
    if g.ndim != 1 or g.size != data.p:
        raise ValueError(f"`g_hat` must have shape ({data.p},), got {g.shape}")
    _check_unit(g, "`g_hat`")
    coef, mu = _ols_fit(data)
    return np.outer(coef @ g, g), mu


# Stacked arrays hold about this many entries, so their temporaries stay
# near a megabyte for any n and p: leave-one-out folds and Monte Carlo
# replications (`harness._replicate_block`) are fit in blocks of that size
# (three fold blocks at n = 50, p = 10 and ten rules), and the batched
# eigensolves of `_leading_axes` run in chunks of that size.
_BLOCK_ENTRIES = 1 << 15


def _fold_rows(rows: np.ndarray, folds: np.ndarray) -> np.ndarray:
    """Re-centered rows (folds, n, m) of the folds that leave out rows `folds`.

    Leaving out row i re-centers the others to r_j + r_i / (n - 1); row i is
    zeroed, so Grams and singular values are those of the n - 1 fold rows.
    """
    out = rows + rows[folds, None, :] / (rows.shape[0] - 1)
    out[np.arange(folds.size), folds] = 0.0
    return out


def _loo_fit(data: Dataset):
    """One thin-QR fit of the full data, from which every fold follows.

    Returns (Q, centered responses, residual rows, leverages), where the
    leverage h_i = 1/n + ||Q_i||^2 includes the intercept.
    """
    x, y = data.x, data.y
    qmat = _conditioned_qr(x[None])[0][0]
    centered = y - y.mean(axis=0)
    resid = centered - qmat @ (qmat.T @ centered)
    lev = 1.0 / data.n + np.sum(qmat * qmat, axis=1)
    if np.any(lev >= 1.0):
        raise RankDeficiencyError(
            f"row {int(np.argmax(lev >= 1.0))} has leverage 1, so the fold that "
            f"leaves it out has a rank-deficient design"
        )
    return qmat, centered, resid, lev


def _fold_scatter(qmat, centered, resid, lev, folds):
    """Checked scatter matrices of the folds that leave out rows `folds`.

    Each fold's matrices are Grams of corrected full-data rows, so they are
    semidefinite by construction: residual rows e_j + H_ji e_i / (1 - h_i),
    re-centered responses d_j + d_i / (n - 1), and fitted rows as their
    difference, with row i zeroed in fold i.  (The rank-one downdate
    s_resid - e_i e_i' / (1 - h_i) is equal in exact arithmetic but can
    lose semidefiniteness to roundoff, as on noiseless data.)  Returns
    (s_reg, s_resid, resid_evals), stacked over folds, where resid_evals
    are the ascending eigenvalues of s_resid.
    """
    n = lev.size
    rows = np.arange(folds.size)
    hat = 1.0 / n + qmat[folds] @ qmat.T
    r = resid + (hat / (1.0 - lev[folds, None]))[:, :, None] * resid[folds, None, :]
    r[rows, folds] = 0.0
    t = _fold_rows(centered, folds)
    s_reg, s_resid = _gram(t - r), _gram(r)
    return s_reg, s_resid, _check_scatter_stack(s_reg, s_resid, _gram(t),
                                                " of a leave-one-out fold")


def _leading_axes(s_reg: np.ndarray, s_resid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Leading axes (rules, k, p) of S(w) for stacked fits (k, p, p) and (rule x fit) weights.

    Solves each distinct (fit, weight) pair once, in one `_sym_eig_stack` call
    per `_BLOCK_ENTRIES` matrix entries (one call unless p is large).
    """
    fit_of = np.broadcast_to(np.arange(weights.shape[1]), weights.shape)
    pairs, which = np.unique(np.stack([fit_of.ravel(), weights.ravel()], axis=1),
                             axis=0, return_inverse=True)
    pf, pw = pairs[:, 0].astype(int), pairs[:, 1, None, None]
    chunk = max(1, _BLOCK_ENTRIES // s_reg[0].size)
    axes = [_sym_eig_stack((1.0 - pw[i:i + chunk]) * s_reg[pf[i:i + chunk]]
                           + pw[i:i + chunk] * s_resid[pf[i:i + chunk]])[1][:, :, 0]
            for i in range(0, len(pf), chunk)]
    return np.concatenate(axes)[which.reshape(weights.shape)]


def loo_cv_scores(data: Dataset, rules) -> tuple[float, ...]:
    """Leave-one-out mean squared prediction error of several weight rules.

    Each fold leaves out one observation, refits the model on the other
    n - 1 rows (re-centered) under each rule, and predicts the left-out
    response; the score of a rule is the average of ||y_i - yhat_i||^2
    over the n folds.  Nothing is refit: every fold comes from one thin QR
    factorization X = QR of the full data through the deletion identities
    of regression diagnostics (Belsley, Kuh & Welsch 1980; Cook &
    Weisberg 1982).  With leverages h_i = 1/n + ||Q_i||^2, hat matrix
    H = 11'/n + QQ', residual rows e_i and centered responses d_i:

    - the fold OLS prediction is y_i - e_i / (1 - h_i);
    - the fold residual of row j is e_j + H_ji e_i / (1 - h_i), and the
      fold's re-centered response is d_j + d_i / (n - 1), so the fold
      scatter matrices are Grams of those rows (and of their difference)
      and need no refit;
    - a rank-one rule with fold axis g predicts
      mu_i + ((yhat_ols_i - mu_i) . g) g, where mu_i = (n ybar - y_i)/(n - 1)
      is the fold mean.

    The fold scatter matrices are shared by all rules.  Plug-in weights
    for all folds come from one batched eigenvalue solve, and the axes of
    all distinct (weight, fold) pairs from one batched eigensolve.  Every
    check of a refit is applied to each fold: design conditioning, and the
    symmetry, semidefiniteness and additivity of its scatter matrices.

    Parameters
    ----------
    data : Dataset
    rules : iterable of FixedWeight | PluginRule | OlsRule

    Returns
    -------
    tuple of float
        One mean squared prediction error per rule, in order.

    Raises
    ------
    ValueError
        If a rule is of an unknown type.
    DegreesOfFreedomError
        If n <= q + 3, so some fold could not support every rule.
    RankDeficiencyError
        If some fold's design is too ill-conditioned, for example because
        a row has leverage 1.
    """
    rules = tuple(rules)
    for rule in rules:
        if not isinstance(rule, (FixedWeight, PluginRule, OlsRule)):
            raise ValueError(f"unknown rule: {rule!r}")
    x, y = data.x, data.y
    n, p, q = data.n, data.p, data.q
    if n <= q + 3:
        raise DegreesOfFreedomError(
            f"leave-one-out folds have {n - 1} training rows but need more "
            f"than {q + 2} (n > q + 3); got n = {n}, q = {q}"
        )
    projected = [k for k, rule in enumerate(rules) if not isinstance(rule, OlsRule)]
    if projected:
        _check_dimension(p)
    fit = _loo_fit(data)
    _, _, resid, lev = fit
    y_ols = y - resid / (1.0 - lev)[:, None]
    mu = (n * y.mean(axis=0) - y) / (n - 1)
    sse = np.zeros(len(rules))
    ols = [k for k in range(len(rules)) if k not in projected]
    block = max(1, _BLOCK_ENTRIES // (n * (p + q) + p * p * len(rules)))
    for start in range(0, n, block):
        folds = np.arange(start, min(start + block, n))
        _check_design_conditioning(_fold_rows(x, folds), folds)
        err = y[folds] - y_ols[folds]
        sse[ols] += float(np.sum(err * err))
        if not projected:
            continue
        s_reg, s_resid, resid_evals = _fold_scatter(*fit, folds)
        w_hat = _plugin_weights(s_reg, s_resid, resid_evals, n - 1, q)["w_hat"]
        weights = np.stack([w_hat if isinstance(rules[k], PluginRule)
                            else np.full(folds.size, rules[k].w) for k in projected])
        g = _leading_axes(s_reg, s_resid, weights)
        base = mu[folds]
        pred = base + np.sum((y_ols[folds] - base) * g, axis=-1, keepdims=True) * g
        err = y[folds] - pred
        sse[projected] += np.sum(err * err, axis=(1, 2))
    return tuple(float(v) / n for v in sse)


def loo_cv_mspe(data: Dataset, rule) -> float:
    """Leave-one-out mean squared prediction error of one weight rule.

    Equal to ``loo_cv_scores(data, (rule,))[0]``; see `loo_cv_scores` for
    the closed-form fold identities (Belsley, Kuh & Welsch 1980; Cook &
    Weisberg 1982), which replace a refit per fold.  Scoring several
    rules in one `loo_cv_scores` call shares the fold scatter matrices.

    Parameters
    ----------
    data : Dataset
    rule : FixedWeight | PluginRule | OlsRule

    Raises
    ------
    ValueError
        If `rule` is of an unknown type.
    DegreesOfFreedomError
        If n <= q + 3, so some fold could not support every rule.
    RankDeficiencyError
        If some fold's design is too ill-conditioned.
    """
    return loo_cv_scores(data, (rule,))[0]
