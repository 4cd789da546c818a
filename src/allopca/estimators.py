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

Every command solves through `_leading_axes`, which takes stacked fits as
the row factors of `core._scatter_stack`, checks them once and turns the
weight rules into one weight table (fits by distinct rules) for
`_solve_axes`: one batched leading-pair solve per block of whole fits
(`core._leading_pair_stack`).  A fit of n observations is solved p x p when
n - 1 >= p, and otherwise on its n - 1 reduced rows [reg; Qc'resid] (Qc an
orthonormal basis of the complement of the constant and the design span),
each (fit, rule) axis lifted alone.  A p x p leave-one-out fold
(`loo_cv_scores`) comes from the full fit by case deletion, its fixed-weight
axes from one eigendecomposition of the full S(w) per weight and a
certified rank-two update per fold (`core._leading_pair_update`); a wide
fold, or one the update cannot certify, is an ordinary fit of the n - 1 rows
that it keeps, centered on their means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    SumOfSquares,
    _check_design_conditioning,
    _check_dimension,
    _check_eigenbases,
    _check_finite,
    _check_fit_stack,
    _check_leading_pairs,
    _check_plugin_dof,
    _check_psd,
    _check_sizes,
    _check_unit,
    _check_weight,
    _fix_signs,
    _gram,
    _leading_pair_stack,
    _leading_pair_update,
    _max_abs,
    _peaks,
    _pow2_scale,
    _readonly,
    _scatter_stack,
    _sym_eig_stack,
    center_columns,
)
from .errors import DegreesOfFreedomError

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
        for name, value in zip(("n", "q"), _check_sizes(self.n, self.q)):
            object.__setattr__(self, name, value)
        _check_finite(np.array([self.a, self.b, self.c, self.d]), "(a, b, c, d)")
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
        with np.errstate(over="ignore"):  # a sum past the float range is refused below
            tr, tr2 = float(lam.sum()), float((lam ** 2).sum())
        return cls(tr2 + tr * tr, float(lam[0]) + tr, float(c), float(lam[0] - lam[1]), q, n)


def w_star(params: AbcdParams) -> float:
    """The weight minimizing the estimation-error bound, in closed form.

    Equals (a d q + 2 b c d) / (2 a d q + 2 b c d + a c).  Always lies in
    (0, 2/3), and equals exactly 0.5 when c = 0 (no signal through the
    design, so the blend should fall back to total-scatter PCA).
    """
    return float(np.divide(*_w_star_terms(params.a, params.b, params.c, params.d, params.q)))


def _w_star_terms(a, b, c, d, q):
    """Numerator and denominator of `w_star`, broadcast over array summaries, each
    term formed from `frexp` mantissas and scaled by the largest nonzero term, so
    finite summaries of any spread give the weight, and ordinary ones its bits."""
    (ma, ea), (mb, eb), (mc, ec), (md, ed) = map(np.frexp, (a, b, c, d))
    terms = ((ma * md * q, ea + ed), (2.0 * mb * mc * md, eb + ec + ed), (ma * mc, ea + ec))
    e1, e2, e3 = (np.where(m != 0.0, e, -4096) for m, e in terms)  # a zero term sets no scale
    top = np.maximum(np.maximum(e1, e2), e3)
    t1, t2, t3 = (np.ldexp(m, e - top) for m, e in terms)
    return t1 + t2, 2.0 * t1 + t2 + t3


@dataclass(frozen=True, eq=False)
class Gamma1Estimate:
    """Leading-axis estimate: unit vector, the weight used, and tie info.

    `leading_gap` is the gap between the two largest eigenvalues of the
    blended matrix; `tie_flag` marks a numerically degenerate gap, in which
    case the returned direction is arbitrary within the tied eigenspace.
    Made by `gamma1_hat`, whose solver and `FixedWeight` check each field.
    """

    vector: np.ndarray
    weight_used: float
    leading_gap: float
    tie_flag: bool


def gamma1_hat(ss: SumOfSquares, w: float) -> Gamma1Estimate:
    """Leading eigenvector of the blended scatter S(w).

    One fit and the weight of `FixedWeight(w)`, a 1 x 1 weight table, through
    `_solve_axes`, the commands' solver, which gives the gap and the tie flag.
    At w = 1 the solved matrix is s_resid, whose spectrum the `SumOfSquares`
    check computed, so it is not decomposed again; any other w takes one
    `eigvalsh`.

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
    w = FixedWeight(w).w
    axes, gaps, ties = _solve_axes(np.full((1, 1), w), ss.s_reg[None], ss.s_resid[None],
                                   resid_vals=ss._resid_spectrum[0][None])
    return Gamma1Estimate(_readonly(axes[0, 0]), w, float(gaps[0, 0]), bool(ties[0, 0]))


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
    err = _sign_free_errors(g_hat, g_true)
    return float(err) if g_hat.ndim == 1 else err


def _sign_free_errors(g_hat: np.ndarray, g_true: np.ndarray) -> np.ndarray:
    """`mse_up_to_sign` of trusted unit vectors (..., p) and (p,), unchecked."""
    return np.maximum(0.0, 2.0 - 2.0 * np.abs(_dots(g_hat, g_true)))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inner products of stacked vectors (..., m), each bit for bit its pair's `np.dot`."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class PluginWeights:
    """Plug-in model summaries and the data-driven weight they produce.

    `w_hat_raw` is the closed-form weight evaluated at the plug-in
    summaries (NaN when its denominator vanishes); `w_hat` is the usable
    version, set to 0 when the denominator is non-positive and clamped
    into [0, 2/3] otherwise.  Made by `estimate_abcd` and not re-checked;
    `tr_sigma2_hat` and `a_hat`, of degree 4, read inf past the float range.
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
    so the variance-correction factor is positive.  The eigenvalues are
    those the `SumOfSquares` check computed for s_resid, so no matrix is
    decomposed here, and the summaries are the `estimate` command's, bit for
    bit.

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
    vals, scale = ss._resid_spectrum
    fields = _plugin_weights(ss.s_reg[None], ss.s_resid[None], (vals * scale)[None], n, q)
    return PluginWeights(sigma_hat=_readonly(ss.s_resid / (n - 1 - q)),
                         **{k: float(v[0]) for k, v in fields.items() if k != "tr_sigma_hat"})


def _plugin_weights(s_reg, s_resid, resid_evals, n: int, q: int) -> dict:
    """Plug-in summaries and weight of stacked fits with n rows each.

    `s_reg` and `s_resid` are the p x p scatter matrices (k, p, p) or, for
    row factors reg and resid, their sample-space Grams reg reg' and
    resid resid': only traces, the Frobenius norm of `s_resid` and the two
    largest eigenvalues of `s_resid` enter, and those agree.
    `resid_evals` are the ascending eigenvalues of `s_resid`.  With
    m = n - 1 - q, lambda1_hat and lambda2_hat are the two largest of them
    over m and tr Sigma_hat = tr(s_resid) / m; the rest follows
    `estimate_abcd`.  Returns the `PluginWeights` fields other than
    `sigma_hat`, and `tr_sigma_hat`, each a (k,) array, with w_hat = 0
    where the weight's denominator is <= 0 (w_hat_raw NaN where it is 0)
    and w_hat clamped into [0, 2/3] elsewhere.

    The weight is scale-free, but its terms grow as the sixth power of the
    data, so each fit's summaries are formed on its Grams divided by
    `_pow2_scale` of their peak entry and scaled back exactly: data
    rescaled by a power of two give the same weight, and ordinary data the
    same bits.
    """
    m = n - 1 - q
    t = _pow2_scale(np.maximum(_peaks(s_reg), _peaks(s_resid)))
    s_reg, s_resid = s_reg / t[:, None, None], s_resid / t[:, None, None]
    lam = resid_evals[:, ::-1] / t[:, None] / m
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
    with np.errstate(over="ignore"):  # a summary past the float range reads inf
        return dict(lambda1_hat=lam[:, 0] * t, lambda2_hat=lam[:, 1] * t,
                    tr_sigma2_hat=tr_sigma2_hat * t * t, a_hat=a_hat * t * t, b_hat=b_hat * t,
                    c_hat=c_hat * t, d_hat=d_hat * t, w_hat_raw=w_raw, w_hat=w_hat,
                    tr_sigma_hat=tr_sig * t)


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


@dataclass(frozen=True)
class OracleWeight:
    """Use the closed-form optimal weight from the true model.

    The weight is recomputed each replication from the realized design
    (the signal energy ||X alpha||^2 varies with X).
    """


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
    reg, _, _, qmat = _scatter_stack(center_columns(data.y)[None], data.x[None])
    coef = _ols_coefficients(data.x[None], reg, qmat)[0]
    return np.outer(coef @ g, g), data.y.mean(axis=0)


def _ols_coefficients(x: np.ndarray, reg: np.ndarray, qmat: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (k, q, p) of stacked fits built by `_scatter_stack`
    from designs `x` (k, n, q): R^-1 reg, with R = Q'X from the fit's basis `qmat`."""
    return np.linalg.solve(np.swapaxes(qmat, 1, 2) @ x, reg)


# Stacked arrays hold about this many entries, so their temporaries stay
# near a megabyte each: `_blocks` splits the Monte Carlo replications
# (`harness._replicate_block`), and the leave-one-out folds and fixed weights
# of `loo_cv_scores`, into ranges of that size, and `_solve_axes` solves each
# range whole, in one call.  A fit counts its rows and one solved matrix per
# rule (`_fit_entries`), so the default points each fit in one block: up to 15
# replications at table1's n = 500, 6 at table3b's p = 100 and 21 at its
# p = 50.  A p x p fold taken from the full fit builds no rows and solves only
# the plug-in rule, so that count bounds it from above: at n = 50, p = 10 and
# ten rules all 50 folds form one block, and all eight fixed weights one
# `_leading_pair_update` call.  A range holds at least one item, so a fit above
# the budget holds one solved matrix per distinct rule in its solver call (9 of
# order 1000, 72 MB, for `estimate` at p = 1000), and 2.2 times that at peak.
_BLOCK_ENTRIES = 1 << 17


def _blocks(count: int, entries: int):
    """Index ranges over `count` items of `entries` entries, about `_BLOCK_ENTRIES` per range."""
    size = max(1, _BLOCK_ENTRIES // entries)
    return (np.arange(start, min(start + size, count)) for start in range(0, count, size))


def _solved_size(n: int, p: int) -> int:
    """Order of the matrices `_leading_axes` solves per weight for a fit of n
    observations and p responses: p, or the n - 1 reduced rows of a wide fit."""
    return min(p, n - 1)


def _fit_entries(n: int, p: int, q: int, rules: int) -> int:
    """Entries one fit holds in a block: its n rows of responses and design, and
    one solved matrix for each of `rules` weight rules."""
    return n * (p + q) + _solved_size(n, p) ** 2 * rules


def _fold_rows(rows: np.ndarray, folds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leave-one-out folds of `rows` (n, m) that leave out rows `folds`: each
    fold's n - 1 rows (folds, n - 1, m), centered on their own column means, and
    those means (folds, 1, m)."""
    keep = np.arange(rows.shape[0] - 1)
    kept = rows[keep + (keep >= folds[:, None])]
    means = (np.full(keep.size, 1.0 / keep.size) @ kept)[:, None, :]
    return kept - means, means


def _leading_axes(rules, reg, resid, total, basis, oracle=None, where=""):
    """Weights, leading axes, gaps and tie flags of S(w) for stacked built fits.

    The fits are the `_scatter_stack` row factors `reg` (k, q, p) and
    `resid` (k, n, p), with s_reg = reg'reg and s_resid = resid'resid, of
    centered response rows `total` (k, n, p) on the orthonormal basis
    `basis` (k, n, q) of each design span: k fits of n observations and q
    design columns each.  The fits are solved in the smaller space
    (`_solved_size`):

    - n - 1 >= p: the p x p matrices S(w) = (1 - w) s_reg + w s_resid;
    - n - 1 < p: the residual rows are orthogonal to the constant and to
      the design span (`_check_fit_stack`), so with Qc the last n - 1 - q
      columns of a complete QR of [1/sqrt(n), Q], an orthonormal basis of
      that complement, the reduced rows W = [reg; Qc'resid] give
      s_resid = (Qc'resid)'(Qc'resid) whole.  Each weight solves the
      (n - 1) x (n - 1) matrix D^1/2 W W' D^1/2, D = diag(1 - w, ..., w, ...),
      whose leading eigenvector u lifts to the axis W' D^1/2 u / ||.|| (the
      snapshot method, Sirovich 1987: S(w) = W' D W has the same nonzero
      spectrum).

    `_check_fit_stack` checks every fit once, on the Grams of the solved
    space, and the plug-in weights come from those Grams (computed only for
    a `PluginRule`).  Here, and only here, rules become weights: a
    `FixedWeight` gives its w, a `PluginRule` the plug-in `w_hat` and an
    `OracleWeight` the `oracle` weights (k,), one column of the (k, r) weight
    table per distinct rule, which `_solve_axes` solves whole; the caller
    sizes the stack (a `_blocks` range of whole fits).  With no rules, the
    fits are only checked.  `where` follows the matrix names in error
    messages.  Returns weights, axes, gaps and ties, fit-major (k, rules, ...),
    and the plug-in fields or None.
    """
    k, q, p = reg.shape
    n = total.shape[1]
    if _solved_size(n, p) < p:
        span = np.concatenate((np.full((k, n, 1), 1.0 / np.sqrt(n)), basis), axis=2)
        complement = np.linalg.qr(span, mode="complete")[0][:, :, q + 1:]
        rows = np.concatenate((reg, np.swapaxes(complement, 1, 2) @ resid), axis=1)
        gram = _gram(np.swapaxes(rows, 1, 2))
        s_reg, s_resid = gram[:, :q, :q], gram[:, q:, q:]
    else:
        rows = gram = None
        s_reg, s_resid = _gram(reg), _gram(resid)
    resid_evals, resid_scale = _check_fit_stack(s_reg, s_resid, resid, total, basis, where)
    if not rules:
        return (None,) * 5
    plugin = (_plugin_weights(s_reg, s_resid, resid_evals * resid_scale[:, None], n, q)
              if any(isinstance(rule, PluginRule) for rule in rules) else None)
    distinct = list(dict.fromkeys(rules))
    w = np.stack([np.full(k, rule.w) if isinstance(rule, FixedWeight)
                  else plugin["w_hat"] if isinstance(rule, PluginRule) else oracle
                  for rule in distinct], axis=1)  # C-ordered (k, r)
    cols = [distinct.index(rule) for rule in rules]
    solved = _solve_axes(w, s_reg, s_resid, rows, gram, None if gram is not None else resid_evals)
    return (*(part[:, cols] for part in (w, *solved)), plugin)


def _blend(w, s_reg, s_resid):
    """S(w) = (1 - w) s_reg + w s_resid (k, r, p, p) of k p x p fits at the weights
    of the C-ordered (k, r) table `w`, summed in place, so the stack is C-ordered too."""
    wm = w[:, :, None, None]
    m = s_reg[:, None] * (1.0 - wm)
    m += s_resid[:, None] * wm
    return m


def _solve_axes(w, s_reg, s_resid, rows=None, gram=None, resid_vals=None):
    """Axes (k, r, p), gaps and tie flags (k, r) of checked fits, solved at the
    weights of the C-ordered (k, r) table `w`, r per fit, in the order solved.

    `s_reg` and `s_resid` are k trusted p x p Grams, or, for wide fits, the
    blocks of the (n - 1) x (n - 1) Grams `gram` of the reduced rows `rows`,
    whose leading q x q block is `s_reg` (see `_leading_axes`).  The k r
    matrices, blended (`_blend`) or scaled by D^1/2, and divided by their powers
    of two in place, are solved and checked (leading pair and spectrum, all that
    is read) in one `_leading_pair_stack` call, which the caller sizes.  A p x p
    matrix of weight exactly 1 is s_resid, bit for bit, divided by the same
    power of two as in the fit check, so `resid_vals`, the check's ascending
    eigenvalues of each scaled s_resid (`_check_fit_stack` for the commands,
    `SumOfSquares` for `gamma1_hat`), are its spectrum and only the other
    matrices go to `eigvalsh`.  A wide fit's weight-1 matrix, diag(0, g_resid),
    is solved like the others: its spectrum is the check's and q zeros only in
    exact arithmetic.  A wide fit lifts each of its vectors with one
    vector-matrix product (D^1/2 u)' W, so an axis's bytes depend on its fit
    and weight alone.  A gap is lambda_1 - lambda_2 of the solved matrix, whose
    trace and nonzero spectrum are S(w)'s, and a tie a gap of at most TIE_TOL
    times that trace (scaled).
    """
    q = s_reg.shape[1]
    if gram is None:
        m = _blend(w, s_reg, s_resid)
    else:
        root = np.sqrt(np.where(np.arange(gram.shape[1]) < q, 1.0 - w[..., None], w[..., None]))
        m = gram[:, None] * root[..., None]  # (k, r, s, s), scaled with no further temporary
        m *= root[..., None, :]
    m = m.reshape(-1, *m.shape[2:])
    scale = _pow2_scale(_peaks(m))
    m /= scale[:, None, None]  # exact
    one = w == 1.0
    known = None
    if resid_vals is not None and one.any():
        known = one.ravel(), resid_vals[one.nonzero()[0]]
    vals, axes = _leading_pair_stack(m, known)
    _check_leading_pairs(m, vals, axes)
    if gram is not None:  # lift each u to the unit axis W' D^1/2 u / ||.||, (k r, p, 1)
        u = root * axes.reshape(root.shape)
        v = (u[:, :, None, :] @ rows[:, None]).reshape(-1, rows.shape[2], 1)
        nrm = np.linalg.norm(v, axis=1, keepdims=True)  # sqrt(lambda_1), 0 when S(w) = 0,
        e_p = np.arange(v.shape[1])[:, None] == v.shape[1] - 1  # whose p x p axis is e_p
        axes = _fix_signs(np.where(nrm > 0.0, v, e_p) / np.where(nrm > 0.0, nrm, 1.0))[:, :, 0]
    gaps = vals[:, 0] - vals[:, 1]  # both sides of the tie rule on the scaled matrix
    ties = gaps <= TIE_TOL * np.trace(m, axis1=1, axis2=2)
    return tuple(part.reshape(*w.shape, *part.shape[1:]) for part in (axes, gaps * scale, ties))


def loo_cv_scores(data: Dataset, rules) -> tuple[float, ...]:
    """Leave-one-out mean squared prediction error of several weight rules.

    Each fold leaves out one observation, refits the model on the other
    n - 1 rows (re-centered) under each rule, and predicts the left-out
    response; the score of a rule is the average of ||y_i - yhat_i||^2
    over the n folds.  With mu_i and x-bar_i the fold's response and design
    means and x~_i = x_i - x-bar_i,

    - the OLS prediction is mu_i + x~_i' B, with the fold's least-squares
      coefficients B;
    - a rank-one rule with fold axis g predicts
      mu_i + ((yhat_ols_i - mu_i) . g) g.

    A p x p fold (n - 2 >= p) comes from the full fit by case deletion
    (`_update_fold_errors`); a wide fold (n - 2 < p), or one the update
    cannot certify, is refit from its own rows (`_refit_fold_errors`).  Each
    fold gets the checks of what it reads: design conditioning (naming the
    left-out row), finite and semidefinite scatter, and the leading pair of
    each axis.  The squared errors are summed once, fold by fold, so the
    scores do not depend on how the folds are blocked; p x p responses are
    first divided by a power of two of their peak, so data rescaled by 2^k
    score 4^k times as much, bit for bit.

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
        If the design, or some fold's design, is too ill-conditioned.
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
    if any(not isinstance(rule, OlsRule) for rule in rules):
        _check_dimension(p)
    err, refit, power = np.empty((n, len(rules))), np.arange(n), 0  # errors fold by rule
    if n - 2 >= p:  # the full fit checks the design's conditioning
        y = center_columns(y)
        power = int(np.frexp(_max_abs(y))[1])
        y = np.ldexp(y, -power)  # exact: peak in [1/2, 1)
        err, refit = _update_fold_errors(y, center_columns(x), rules, 2 * power)
    else:
        _check_design_conditioning(x[None])
    yx = np.concatenate((y, x), axis=1)
    for folds in _blocks(refit.size, _fit_entries(n - 1, p, q, len(rules))):
        err[refit[folds]] = _refit_fold_errors(yx, p, refit[folds], rules)
    with np.errstate(over="ignore"):  # a score past the float range reads inf
        return tuple(float(v) for v in np.ldexp(np.sum(err, axis=0) / n, 2 * power))


_FOLD = " of a leave-one-out fold"


def _refit_fold_errors(yx: np.ndarray, p: int, folds: np.ndarray, rules) -> np.ndarray:
    """Squared prediction errors (folds, rules) of the leave-one-out folds that
    leave out rows `folds` of [y, x] (`yx`, y of p columns), each refit from
    its own rows.

    `_fold_rows` gathers the n - 1 rows a fold keeps and centers them on
    their own means; `_scatter_stack` fits the folds in one batched thin QR
    (naming the left-out row of an ill-conditioned fold design), and
    `_leading_axes` checks every fold fit, whatever the rules, and resolves
    each projected rule's weight and axis, in sample space when the folds
    are wide.  The OLS shift yhat_ols_i - mu_i is x~_i' B, with the fold's
    coefficients B = R^-1 Q'y (`_ols_coefficients`).
    """
    projected = [k for k, rule in enumerate(rules) if not isinstance(rule, OlsRule)]
    ols = [k for k in range(len(rules)) if k not in projected]
    rows, means = _fold_rows(yx, folds)
    fold_x = rows[:, :, p:]
    fits = _scatter_stack(rows[:, :, :p], fold_x, folds)
    g = _leading_axes([rules[k] for k in projected], *fits, where=_FOLD)[1]
    left = yx[folds, p:] - means[:, 0, p:]  # x~_i; shift is yhat_ols_i - mu_i
    shift = (left[:, None, :] @ _ols_coefficients(fold_x, fits[0], fits[3]))[:, 0]
    miss = yx[folds, :p] - means[:, 0, :p]  # y_i - mu_i
    out = np.empty((folds.size, len(rules)))
    out[:, ols] = np.sum((miss - shift) ** 2, axis=1)[:, None]
    if projected:
        out[:, projected] = _rank_one_errors(miss[:, None], shift[:, None], g)
    return out


def _rank_one_errors(miss: np.ndarray, shift: np.ndarray, g: np.ndarray) -> np.ndarray:
    """||miss - (shift . g) g||^2 of stacked misses y_i - mu_i, OLS shifts
    yhat_ols_i - mu_i and unit axes g (..., p), all in one orthonormal basis."""
    err = miss - _dots(shift, g)[..., None] * g
    return np.sum(err * err, axis=-1)


def _update_fold_errors(y: np.ndarray, x: np.ndarray, rules, power: int):
    """Squared prediction errors (n, rules) of the p x p leave-one-out folds of
    centered responses `y` and centered design `x`, from the full fit by case
    deletion, and the folds whose rows are left to fill, by a refit.

    With d_i = y_i, e_i the full fit's residual row, h_i its leverage
    1/n + ||Q_i||^2 and c = n / (n - 1) (Belsley, Kuh & Welsch 1980):

    - S_T(-i) = S_T - c d_i d_i' and S_E(-i) = S_E - e_i e_i' / (1 - h_i),
      so S_(-i)(w) = S(w) - (1 - w) c d_i d_i' - (2w - 1) e_i e_i' / (1 - h_i);
    - the fold's design Gram is X'X - c x_i x_i' = F_i'F_i, with
      F_i = (I - gamma_i Q_i Q_i') R and gamma_i = c / (1 + sqrt(1 - c ||Q_i||^2)),
      whose conditioning names the left-out row;
    - the fold's OLS error is the PRESS residual e_i / (1 - h_i) (Allen
      1974), and a rank-one rule with fold axis g misses by
      c d_i - (s_i . g) g, with shift s_i = c d_i - e_i / (1 - h_i).

    The full fit is checked once (`_check_fit_stack`), and every fold's Gram
    diagonals are checked finite in the data's units (times 2^`power`).  A
    fold is refit when its case deletion could lose more than the solver's
    rounding target, 8 p eps (`_leading_pair_stack`), to cancellation: when
    the traces of the terms a downdate of S_X sums, plus sqrt(tr S_T tr S_X)
    for the rounding its rows carry, pass 8 p times the trace it leaves, or
    when 1 - c ||Q_i||^2 < 1 / (8 p).  Only a left-out row that carries most
    of a scatter, a leverage near 1 or a scatter at the rounding level of the
    responses does that.

    Each distinct fixed weight takes one `eigh` of the full S(w) = V diag(lam) V', the
    commands' blend (`_blend`) of the full fit's s_reg and s_resid, checked whole
    (`_check_eigenbases`).  Each fold's leading pair is that of diag(lam) + U C U',
    U = V'[d_i e_i] and C = diag(-(1 - w) c, -(2w - 1) / (1 - h_i)), from
    `_leading_pair_update`, and its misses are read in V's coordinates; a fold with an
    uncertified pair is refit.  The folds kept form S_E(-i) and S_R(-i) in blocks:
    S_E(-i) is checked semidefinite (`_check_psd`), and a plug-in rule reads its
    eigenvalues (`_plugin_weights`) and is solved by `_solve_axes`.
    """
    n, p = y.shape
    q = x.shape[1]
    c = n / (n - 1)
    reg, resid, total, basis = _scatter_stack(y[None], x[None])
    s_reg, s_resid = _gram(reg), _gram(resid)
    _check_fit_stack(s_reg, s_resid, resid, total, basis)
    e, basis, s_reg, s_resid = resid[0], basis[0], s_reg[0], s_resid[0]
    spread = np.maximum(1.0 - c * np.sum(basis * basis, axis=1), 0.0)  # c (1 - h_i)
    gamma = c / (1.0 + np.sqrt(spread))
    fold_r = basis.T @ x - gamma[:, None, None] * basis[:, :, None] * x[:, None, :]  # F_i
    _check_design_conditioning(fold_r, np.arange(n))
    drop = c / spread  # 1 / (1 - h_i)
    with np.errstate(over="ignore"):  # in the data's units a Gram may pass the float range
        _check_finite(np.ldexp(np.diagonal(s_reg) - c * y * y + drop[:, None] * e * e, power),
                      f"`s_reg`{_FOLD}")
        _check_finite(np.ldexp(np.diagonal(s_resid) - drop[:, None] * e * e, power),
                      f"`s_resid`{_FOLD}")
    cut_d, cut_e = c * np.einsum("ij,ij->i", y, y), drop * np.einsum("ij,ij->i", e, e)
    tr_reg, tr_resid = np.trace(s_reg), np.trace(s_resid)
    tr_total = tr_reg + tr_resid
    keep = ((tr_reg + cut_d + cut_e + np.sqrt(tr_total * tr_reg)
             <= 8 * p * (tr_reg - cut_d + cut_e))
            & (tr_resid + cut_e + np.sqrt(tr_total * tr_resid) <= 8 * p * (tr_resid - cut_e))
            & (1.0 <= 8 * p * spread))
    err = np.empty((n, len(rules)))
    err[:, [isinstance(rule, OlsRule) for rule in rules]] = (cut_e * drop)[:, None]
    weights = list(dict.fromkeys(rule.w for rule in rules if isinstance(rule, FixedWeight)))
    fixed = np.empty((len(weights), n))
    # a weight holds S(w) and its eigendecomposition, and its updates: about
    # 16 (n, p) arrays in all, inside `_leading_pair_update`
    for ws in _blocks(len(weights), 4 * p * p + 16 * n * p):
        w = np.array(weights)[ws]
        full = _blend(w[None], s_reg[None], s_resid[None])[0]
        lam, vecs = _sym_eig_stack(full)
        _check_eigenbases(full, lam, vecs)
        # (2, p, ws, n): each V'd_i and V'e_i, one product each per weight
        u = np.stack((np.swapaxes(vecs, 1, 2) @ y.T, np.swapaxes(vecs, 1, 2) @ e.T), axis=1)
        u = u.transpose(1, 2, 0, 3)
        del full, vecs
        coef = np.stack(np.broadcast_arrays((w[:, None] - 1.0) * c,
                                            (1.0 - 2.0 * w[:, None]) * drop))
        axes, ok = _leading_pair_update(lam.T[:, :, None], u, coef)[1:]
        keep &= np.all(ok, axis=0)
        miss = c * u[0]
        fixed[ws] = _rank_one_errors(miss.T, (miss - drop * u[1]).T, axes.T).T
    for k, rule in enumerate(rules):
        if isinstance(rule, FixedWeight):
            err[:, k] = fixed[weights.index(rule.w)]
    plugin = [k for k, rule in enumerate(rules) if isinstance(rule, PluginRule)]
    update = np.flatnonzero(keep)
    for block in _blocks(update.size, _fit_entries(n - 1, p, q, len(rules))):
        i = update[block]
        cut = drop[i, None, None] * (e[i, :, None] * e[i, None, :])
        fold_resid = s_resid - cut
        vals, scale = _check_psd(fold_resid, f"`s_resid`{_FOLD}")
        if plugin:
            fold_reg = s_reg - c * (y[i, :, None] * y[i, None, :]) + cut
            w_hat = _plugin_weights(fold_reg, fold_resid, vals * scale[:, None], n - 1, q)["w_hat"]
            g = _solve_axes(w_hat[:, None], fold_reg, fold_resid)[0][:, 0]
            miss = c * y[i]
            err[i[:, None], plugin] = _rank_one_errors(miss, miss - drop[i, None] * e[i],
                                                       g)[:, None]
    return err, np.flatnonzero(~keep)


def loo_cv_mspe(data: Dataset, rule) -> float:
    """Leave-one-out mean squared prediction error of one weight rule:
    ``loo_cv_scores(data, (rule,))[0]``, with its checks and exceptions.
    Scoring several rules in one `loo_cv_scores` call shares the fold fits."""
    return loo_cv_scores(data, (rule,))[0]
