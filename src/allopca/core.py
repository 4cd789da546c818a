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
stack of one) and `_check_scatter_stack` the one set of scatter-matrix
checks.

Each validation rule of the package is one helper here, which takes the
name to report: `_check_weight` (w in [0, 1]), `_check_sizes` (q >= 1,
n > 1 + q), `_check_plugin_dof` (n > q + 2), `_check_dimension` (p >= 2),
`_check_index` (seeds and indices >= 0), `_check_unit`,
`_check_orthonormal`, `_check_finite`, `_check_symmetric` (square, finite,
symmetric and positive semidefinite matrices) and
`_check_design_conditioning` (cond(X'X) <= COND_LIMIT, read off the R
factor of each fit's thin QR; `Dataset` checks no rank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreesOfFreedomError, RankDeficiencyError

# Relative tolerances for validity checks.  "Relative" is always with
# respect to the max-abs entry (or the trace, for semidefiniteness) of the
# matrix being checked.
CENTER_TOL = 1e-9
SYM_INPUT_TOL = 1e-8   # asymmetry allowed in sym_eig input
SYM_STORED_TOL = 1e-10  # asymmetry allowed in stored S matrices
PSD_TOL = 1e-8          # min eigenvalue >= -PSD_TOL * trace
ADDITIVITY_TOL = 1e-9   # |S_total - S_reg - S_resid| entrywise
COND_LIMIT = 1e12       # condition-number cap for X'X
UNIT_TOL = 1e-8         # |norm - 1| allowed in a unit vector, and max|V'V - I|

_SCATTER_NAMES = ("s_reg", "s_resid", "s_total")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _check_weight(w, name: str = "weight w"):
    """Return blend weight `w` if it lies in [0, 1] (NaN fails)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"{name} = {w!r} outside [0, 1]")
    return w


def _check_sizes(n, q, ints: bool = True) -> tuple:
    """Return (n, q) if q >= 1 and n > 1 + q; with `ints`, both must be (and return as) ints."""
    if ints and not (isinstance(n, (int, np.integer)) and isinstance(q, (int, np.integer))):
        raise ValueError("`n` and `q` must be ints")
    if q < 1 or n <= 1 + q:
        raise ValueError(f"need q >= 1 and n > 1 + q; got n = {n}, q = {q}")
    return (int(n), int(q)) if ints else (n, q)


def _check_plugin_dof(n, q, where: str = "") -> None:
    """Raise `DegreesOfFreedomError` unless n > q + 2; `where` prefixes the message."""
    if n <= 2 + q:
        raise DegreesOfFreedomError(
            f"{where}the plug-in weight needs n > q + 2; got n = {n}, q = {q}")


def _check_dimension(p) -> None:
    """Raise unless there are p >= 2 response coordinates."""
    if p < 2:
        raise ValueError(f"need at least two response coordinates: `p` must be >= 2, got {p}")


def _check_index(value, name: str):
    """Return seed or index `value` if it is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _check_unit(v: np.ndarray, name: str, tol: float = UNIT_TOL) -> None:
    """Raise unless each vector of a stack (..., p) has |norm - 1| <= tol (NaN fails)."""
    nrm = np.linalg.norm(v, axis=-1)
    bad = ~(np.abs(nrm - 1.0) <= tol)
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"{name}{list(at) if at else ''} must be unit length, "
                         f"got norm {float(nrm[at])!r}")


def _check_orthonormal(v: np.ndarray, name: str) -> None:
    """Raise unless max|V'V - I| <= UNIT_TOL over a matrix or stack (..., p, p)."""
    err = _max_abs(np.swapaxes(v, -2, -1) @ v - np.eye(v.shape[-1]))
    if err > UNIT_TOL:
        raise ValueError(f"{name} not orthonormal: max|V'V - I| = {err:.3e}")


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def _check_symmetric(mats: np.ndarray, names, rtol: float = SYM_STORED_TOL,
                     psd: bool = True) -> np.ndarray | None:
    """Check stacks of matrices `mats` (len(names), k, p, p); `names[i]` names stack i.

    Each matrix must be square, finite, symmetric (max|M - M'| <= rtol
    times its peak entry) and, if `psd`, positive semidefinite (min
    eigenvalue >= -PSD_TOL * trace).  Returns the ascending eigenvalues
    (len(names), k, p) when `psd`.
    """
    if mats.ndim != 4 or mats.shape[2] != mats.shape[3]:
        raise ValueError(f"{names[0]} must be a square matrix, got shape {mats.shape[2:]}")
    for name, m in zip(names, mats):
        _check_finite(m, name)
    peak = np.maximum(np.max(np.abs(mats), axis=(2, 3)), 1e-300)
    asym = np.max(np.abs(mats - np.swapaxes(mats, 2, 3)), axis=(2, 3))
    bad = np.any(asym > rtol * peak, axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"{names[i]} is not symmetric: max|M - M'| = {np.max(asym[i]):.3e} "
                         f"exceeds relative tolerance {rtol:g}")
    if not psd:
        return None
    evals = np.linalg.eigvalsh(mats)
    lo = evals[:, :, 0]
    bad = np.any(lo < -PSD_TOL * np.maximum(np.trace(mats, axis1=2, axis2=3), 0.0), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"{names[i]} is not positive semidefinite: "
                         f"min eigenvalue {np.min(lo[i]):.3e}")
    return evals


@dataclass(frozen=True, eq=False)
class Dataset:
    """A response matrix paired with a column-centered design matrix.

    Parameters
    ----------
    y : ndarray of shape (n, p)
        Responses, one observation per row.
    x : ndarray of shape (n, q)
        Explanatory variables.  Must already be column-centered, with
        n > 1 + q.  Rank is not checked here: each fit checks
        cond(X'X) <= COND_LIMIT (1e12) from the R factor of its thin QR and
        raises `RankDeficiencyError` ("cond(X'X) = ... exceeds 1e+12;
        design columns are too collinear") for a collinear `x`.

    Raises
    ------
    ValueError
        If shapes are inconsistent, n <= 1 + q, or `x` is not centered.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        for name, a in (("y", y), ("x", x)):
            if a.ndim != 2:
                raise ValueError(f"`{name}` must be 2-D, got shape {a.shape}")
            _check_finite(a, f"`{name}`")
        if y.shape[0] != x.shape[0]:
            raise ValueError(f"`y` has {y.shape[0]} rows but `x` has {x.shape[0]}")
        n, q = _check_sizes(*x.shape)
        col_sums = np.abs(x.sum(axis=0))
        limit = CENTER_TOL * n * max(_max_abs(x), 1e-300)
        if np.any(col_sums > limit):
            j = int(np.argmax(col_sums))
            raise ValueError(
                f"`x` is not column-centered: column {j} sums to "
                f"{x[:, j].sum():.3e}"
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
        mats = {name: np.asarray(getattr(self, name), dtype=float) for name in _SCATTER_NAMES}
        shapes = {m.shape for m in mats.values()}
        if len(shapes) != 1:
            raise ValueError(f"matrix shapes disagree: {sorted(shapes)}")
        n, q = _check_sizes(self.n, self.q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
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
        _check_orthonormal(vecs, "`vectors`")
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
    _check_symmetric(m[None, None], ("`m`",), SYM_INPUT_TOL, psd=False)
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
    _check_orthonormal(vecs, "`vectors`")
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
    evals = _check_symmetric(np.stack((s_reg, s_resid, s_total)),
                             [f"`{name}`{where}" for name in _SCATTER_NAMES])
    gap = np.max(np.abs(s_total - s_reg - s_resid), axis=(1, 2))
    if np.any(gap > ADDITIVITY_TOL * np.maximum(np.max(np.abs(s_total), axis=(1, 2)), 1e-300)):
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
    w = _check_weight(float(w))
    return (1.0 - w) * ss.s_reg + w * ss.s_resid
