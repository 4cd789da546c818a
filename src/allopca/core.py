"""Sum-of-squares decompositions and symmetric eigendecomposition.

Data layout conventions used throughout the package:

- observations are rows: the response matrix ``Y`` is ``(n, p)`` and the
  design matrix ``X`` is ``(n, q)``;
- ``X`` is column-centered, so the intercept is handled separately;
- eigenpairs come back in descending eigenvalue order, and each
  eigenvector is sign-fixed so its largest-magnitude entry is positive.

The central objects are the regression, residual and total sum-of-squares
matrices of a multivariate linear fit,

    S_reg   = Y' P Y,            P = X (X'X)^{-1} X',
    S_resid = Y' (C - P) Y,      C = I - (1/n) 1 1',
    S_total = Y' C Y,

which satisfy S_total = S_reg + S_resid because the column span of a
centered X lies inside the range of C.  All three are computed from a thin
QR factorization of X; the explicit normal-equations inverse is never
formed.

`_scatter_stack` is the one scatter builder (`sums_of_squares` is a stack
of one), `_sym_eig_stack` the one symmetric eigensolver (`sym_eig` is a
stack of one), `_check_scatter_stack` the one set of scatter-matrix
checks and `_check_design_conditioning` the one cond(X'X) rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError

# Relative tolerances for validity checks.  "Relative" is always with
# respect to the max-abs entry (or the trace, for semidefiniteness) of the
# matrix being checked.
CENTER_TOL = 1e-9
SYM_INPUT_TOL = 1e-8   # asymmetry allowed in sym_eig input
SYM_STORED_TOL = 1e-10  # asymmetry allowed in stored S matrices
PSD_TOL = 1e-8          # min eigenvalue >= -PSD_TOL * trace
ADDITIVITY_TOL = 1e-9   # |S_total - S_reg - S_resid| entrywise
COND_LIMIT = 1e12       # condition-number cap for X'X

_SCATTER_NAMES = ("s_reg", "s_resid", "s_total")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _check_symmetric(m: np.ndarray, rtol: float, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"`{name}` must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"`{name}` contains non-finite entries")
    asym = _max_abs(m - m.T)
    if asym > rtol * max(_max_abs(m), 1e-300):
        raise ValueError(
            f"`{name}` is not symmetric: max|M - M'| = {asym:.3e} exceeds "
            f"relative tolerance {rtol:g}"
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """A response matrix paired with a column-centered design matrix.

    Parameters
    ----------
    y : ndarray of shape (n, p)
        Responses, one observation per row.
    x : ndarray of shape (n, q)
        Explanatory variables.  Must already be column-centered and of
        full column rank, with n > 1 + q.

    Raises
    ------
    ValueError
        If shapes are inconsistent, n <= 1 + q, or `x` is not centered.
    RankDeficiencyError
        If `x` has (numerically) deficient column rank.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 2:
            raise ValueError(f"`y` must be 2-D, got shape {y.shape}")
        if x.ndim != 2:
            raise ValueError(f"`x` must be 2-D, got shape {x.shape}")
        if y.shape[0] != x.shape[0]:
            raise ValueError(
                f"`y` has {y.shape[0]} rows but `x` has {x.shape[0]}"
            )
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("`y` and `x` must be finite")
        n, q = x.shape
        if n <= 1 + q:
            raise ValueError(
                f"need n > 1 + q for the residual fit to have positive "
                f"degrees of freedom; got n = {n}, q = {q}"
            )
        col_sums = np.abs(x.sum(axis=0))
        limit = CENTER_TOL * n * max(_max_abs(x), 1e-300)
        if np.any(col_sums > limit):
            j = int(np.argmax(col_sums))
            raise ValueError(
                f"`x` is not column-centered: column {j} sums to "
                f"{x[:, j].sum():.3e}"
            )
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise RankDeficiencyError(
                f"`x` is rank deficient: singular values range from "
                f"{sv[-1]:.3e} to {sv[0]:.3e}"
            )
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "x", _readonly(x))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @property
    def q(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class SumOfSquares:
    """Regression, residual and total sum-of-squares matrices.

    All three are p x p, symmetric and positive semidefinite, and satisfy
    ``s_total = s_reg + s_resid`` up to roundoff.  `n` and `q` record the
    sample size and design rank they came from; the residual degrees of
    freedom are ``n - 1 - q``.
    """

    s_reg: np.ndarray
    s_resid: np.ndarray
    s_total: np.ndarray
    n: int
    q: int

    def __post_init__(self):
        mats = {}
        for name in _SCATTER_NAMES:
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"`{name}` must be a square matrix, got shape {m.shape}")
            mats[name] = m
        shapes = {m.shape for m in mats.values()}
        if len(shapes) != 1:
            raise ValueError(f"matrix shapes disagree: {sorted(shapes)}")
        if not (isinstance(self.n, (int, np.integer)) and isinstance(self.q, (int, np.integer))):
            raise ValueError("`n` and `q` must be ints")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "q", int(self.q))
        if self.q < 1 or self.n <= 1 + self.q:
            raise ValueError(f"need q >= 1 and n > 1 + q; got n = {self.n}, q = {self.q}")
        _check_scatter_stack(*(m[None] for m in mats.values()))
        for name, m in mats.items():
            object.__setattr__(self, name, _readonly(m))

    @classmethod
    def from_parts(cls, s_reg, s_resid, n: int, q: int) -> "SumOfSquares":
        """Build from the two components, deriving the total."""
        s_reg = np.asarray(s_reg, dtype=float)
        s_resid = np.asarray(s_resid, dtype=float)
        return cls(s_reg, s_resid, s_reg + s_resid, n, q)

    @property
    def p(self) -> int:
        return self.s_reg.shape[0]


@dataclass(frozen=True, eq=False)
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``vectors[:, j]`` is the unit eigenvector for ``values[j]``, sign-fixed
    so that its largest-magnitude entry is positive (ties broken toward the
    lowest index).
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vecs = np.asarray(self.vectors, dtype=float)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape != (vals.size, vals.size):
            raise ValueError(
                f"inconsistent shapes: values {vals.shape}, vectors {vecs.shape}"
            )
        if np.any(np.diff(vals) > 0):
            raise ValueError("`values` must be non-increasing")
        gram_err = _max_abs(vecs.T @ vecs - np.eye(vals.size))
        if gram_err > 1e-8:
            raise ValueError(f"`vectors` not orthonormal: max|V'V - I| = {gram_err:.3e}")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "vectors", _readonly(vecs))


def sym_eig(m: np.ndarray) -> SymEig:
    """Eigendecompose a symmetric matrix deterministically.

    The input is symmetrized as (M + M') / 2 and passed to `_sym_eig_stack`
    as a stack of one, so positive power-of-two rescalings of M produce
    bit-identical eigenvectors.  Eigenvalues are returned in descending
    order under the package sign convention.

    Parameters
    ----------
    m : ndarray of shape (p, p)
        Symmetric matrix; asymmetry up to 1e-8 relative is tolerated.

    Returns
    -------
    SymEig

    Raises
    ------
    ValueError
        If `m` is not square or is asymmetric beyond tolerance.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m, SYM_INPUT_TOL, "m")
    vals, vecs = _sym_eig_stack(((m + m.T) / 2.0)[None])
    out = object.__new__(SymEig)  # `_sym_eig_stack` checked order and orthonormality
    vars(out).update(values=_readonly(vals[0]), vectors=_readonly(vecs[0]))
    return out


def _sym_eig_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose each exactly symmetric matrix of a stack (k, p, p) in one LAPACK call.

    Each matrix is divided by the largest power of two not above its peak
    entry (exact, from `frexp`), so power-of-two rescalings give
    bit-identical eigenvectors.  Eigenvalues come back descending, and each
    eigenvector with its largest-magnitude entry positive (ties toward the
    lowest index); each decomposition must reconstruct its matrix and have
    orthonormal eigenvectors.  Returns (values (k, p), vectors (k, p, p)).

    Raises
    ------
    ValueError
        If some decomposition fails its reconstruction or orthonormality check.
    """
    peak = np.max(np.abs(m), axis=(1, 2))
    scale = np.where(peak > 0.0, np.ldexp(1.0, np.frexp(peak)[1] - 1), 1.0)
    vals, vecs = np.linalg.eigh(m / scale[:, None, None])
    vals = vals[:, ::-1] * scale[:, None]
    vecs = vecs[:, :, ::-1]
    lead = np.argmax(np.abs(vecs), axis=1)[:, None, :]
    vecs = np.where(np.take_along_axis(vecs, lead, axis=1) < 0.0, -vecs, vecs)
    vecs_t = np.swapaxes(vecs, 1, 2)
    # eigh should hand back an exact reconstruction up to roundoff; a large
    # residual here means the input was numerically pathological.
    resid = np.linalg.norm(vecs @ (vals[:, :, None] * vecs_t) - m, axis=(1, 2))
    if np.any(resid > 1e-8 * np.maximum(np.linalg.norm(m, axis=(1, 2)), 1e-300)):
        raise ValueError("eigendecomposition failed to reconstruct the input")
    gram_err = np.max(np.abs(vecs_t @ vecs - np.eye(m.shape[-1])))
    if gram_err > 1e-8:
        raise ValueError(f"`vectors` not orthonormal: max|V'V - I| = {gram_err:.3e}")
    return vals, vecs


def _check_scatter_stack(s_reg: np.ndarray, s_resid: np.ndarray, s_total: np.ndarray,
                         where: str = "") -> np.ndarray:
    """The `SumOfSquares` checks, applied to each triple of stacked (k, p, p) matrices.

    Each matrix must be finite, symmetric and positive semidefinite, and
    each triple additive, within the module tolerances.  `where` follows the
    matrix name in error messages (" of a leave-one-out fold"; empty for a
    single fit).  Returns the ascending eigenvalues of `s_resid`, (k, p).

    Raises
    ------
    ValueError
        If some matrix or triple fails a check.
    """
    mats = np.stack((s_reg, s_resid, s_total))
    finite = np.all(np.isfinite(mats), axis=(1, 2, 3))
    if not np.all(finite):
        raise ValueError(f"`{_SCATTER_NAMES[int(np.argmin(finite))]}`{where} "
                         f"contains non-finite entries")
    peak = np.maximum(np.max(np.abs(mats), axis=(2, 3)), 1e-300)
    asym = np.max(np.abs(mats - np.swapaxes(mats, 2, 3)), axis=(2, 3))
    bad = np.any(asym > SYM_STORED_TOL * peak, axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"`{_SCATTER_NAMES[i]}`{where} is not symmetric: max|M - M'| = "
            f"{np.max(asym[i]):.3e} exceeds relative tolerance {SYM_STORED_TOL:g}"
        )
    evals = np.linalg.eigvalsh(mats)
    lo = evals[:, :, 0]
    bad = np.any(lo < -PSD_TOL * np.maximum(np.trace(mats, axis1=2, axis2=3), 0.0), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"`{_SCATTER_NAMES[i]}`{where} is not positive semidefinite: "
            f"min eigenvalue {np.min(lo[i]):.3e}"
        )
    gap = np.max(np.abs(s_total - s_reg - s_resid), axis=(1, 2))
    if np.any(gap > ADDITIVITY_TOL * peak[2]):
        raise ValueError(f"s_total != s_reg + s_resid{where}: max entry gap {np.max(gap):.3e}")
    return evals[1]


def center_columns(x: np.ndarray) -> np.ndarray:
    """Subtract the column means from a 2-D array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"`x` must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("`x` must have at least one row")
    return x - x.mean(axis=0)


def _conditioned_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factors (Q, R) of stacked designs (k, n, q), each well conditioned.

    The q x q factor R has the singular values of X, so the check runs on R.
    """
    qmat, rmat = np.linalg.qr(x, mode="reduced")
    _check_design_conditioning(rmat)
    return qmat, rmat


def _check_design_conditioning(x: np.ndarray, left_out: np.ndarray | None = None) -> None:
    """Raise `RankDeficiencyError` unless cond(X'X) <= COND_LIMIT for each X of a stack.

    cond(X'X) = (sv_max / sv_min)^2 over the singular values of X; NaN or
    inf fails.  `left_out` names each leave-one-out fold's left-out row.
    """
    sv = np.linalg.svd(x, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = (sv[:, 0] / sv[:, -1]) ** 2
    bad = ~(cond <= COND_LIMIT)
    if np.any(bad):
        k = int(np.argmax(bad))
        where = "" if left_out is None else f"leaving out row {int(left_out[k])}: "
        raise RankDeficiencyError(f"{where}cond(X'X) = {cond[k]:.3e} exceeds {COND_LIMIT:g}; "
                                  f"design columns are too collinear")


def _gram(rows: np.ndarray) -> np.ndarray:
    """Symmetrized Gram matrices rows' rows of stacked (..., m, p) rows."""
    g = np.swapaxes(rows, -2, -1) @ rows
    return (g + np.swapaxes(g, -2, -1)) / 2.0


def _scatter_stack(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unchecked (s_reg, s_resid, s_total) of stacked fits, each (k, p, p).

    `y` is (k, n, p) and `x` (k, n, q), each design column-centered.  With Q
    the thin-QR basis of a design's span and Yc the column-centered
    response,

        s_reg   = (Q'Yc)' (Q'Yc),
        s_resid = R'R for R = Yc - Q Q'Yc,
        s_total = Yc'Yc,

    each formed as a Gram matrix so positive semidefiniteness holds by
    construction.  Centering Yc leaves s_reg unchanged because the centered
    design span is orthogonal to the constant vector.  Every slice is
    computed as if it were alone, so a fit gives the same bytes in any
    stack.

    Raises
    ------
    RankDeficiencyError
        If some design has cond(X'X) > COND_LIMIT.
    """
    qmat = _conditioned_qr(x)[0]
    yc = y - y.mean(axis=1, keepdims=True)
    proj = np.swapaxes(qmat, 1, 2) @ yc
    return _gram(proj), _gram(yc - qmat @ proj), _gram(yc)


def sums_of_squares(data: Dataset) -> SumOfSquares:
    """Decompose the centered response scatter along and off the design span.

    The checked slice of `_scatter_stack` for a stack of one fit.

    Raises
    ------
    RankDeficiencyError
        If cond(X'X) exceeds COND_LIMIT (1e12).
    """
    s_reg, s_resid, s_total = _scatter_stack(data.y[None], data.x[None])
    return SumOfSquares(s_reg[0], s_resid[0], s_total[0], data.n, data.q)


def weighted_matrix(ss: SumOfSquares, w: float) -> np.ndarray:
    """Blend the regression and residual scatter: (1 - w) s_reg + w s_resid.

    w = 0 keeps only the regression scatter, w = 1 only the residual
    scatter, and w = 0.5 is half the total scatter (same eigenvectors).

    Raises
    ------
    ValueError
        If `w` is outside [0, 1].
    """
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight w = {w!r} outside [0, 1]")
    return (1.0 - w) * ss.s_reg + w * ss.s_resid
