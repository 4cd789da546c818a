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

`_scatter_stack` is the one fit builder, which returns each fit of a stack
as row factors.  Two symmetric eigensolvers check nothing: `_sym_eig_stack`,
a full `eigh`, for the callers that read whole bases (`sym_eig`, a stack of
one, checks the whole decomposition, and `simgen.random_gamma`), and
`_leading_pair_stack`, every eigenvalue from `eigvalsh` and the leading
vector by inverse iteration, for the commands, which read only the leading
vector and the gap (`_check_leading_pairs` checks the leading pair and the
spectrum).  `_check_fit_stack` is the one check of a built fit: finite Grams
in the space the fit is solved in (p x p, or the Gram blocks of a wide
fit's reduced rows), one `eigvalsh` of the residual block, and additivity
on the factors.  `SumOfSquares` checks the two matrices given by a user or
by `sums_of_squares`, keeps its check's spectrum of S_resid, and forms
S_total = S_reg + S_resid from them.  Each fact is checked where it is
first computed, and not again downstream.

Each validation rule of the package is one helper here, which takes the
name to report: `_check_weight` (w in [0, 1]), `_check_sizes` (int q >= 1,
int n > 1 + q), `_check_plugin_dof` (n > q + 2), `_check_draw_size` (an
array drawn or filled holds at most MAX_DRAW_ENTRIES floats), `_check_dimension` (p >= 2),
`_check_index` (seeds and indices >= 0), `_check_unit`,
`_check_orthonormal`, `_check_finite`, `_check_symmetric` (a square, finite,
symmetric matrix a user gives), `_check_psd` (semidefiniteness of any
stack), `_check_additivity` (the residual rows of a built fit),
`_check_leading_pairs` and `_check_design_conditioning` (cond(X'X) <=
COND_LIMIT, read off the R factor of each fit's thin QR; `Dataset` checks
no rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreesOfFreedomError, NumericFailure, RankDeficiencyError

# Relative tolerances for validity checks.  "Relative" is always with
# respect to the max-abs entry (or the trace, for semidefiniteness) of the
# matrix being checked.
CENTER_TOL = 1e-9
SYM_INPUT_TOL = 1e-8   # asymmetry allowed in sym_eig input
SYM_STORED_TOL = 1e-10  # asymmetry allowed in given S matrices
PSD_TOL = 1e-8          # min eigenvalue >= -PSD_TOL * trace
ADDITIVITY_TOL = 1e-9   # max|[1/sqrt(n), Q]'resid|, relative to max|Yc|
COND_LIMIT = 1e12       # condition-number cap for X'X
UNIT_TOL = 1e-8         # |norm - 1| allowed in a unit vector, and max|V'V - I|
MAX_DRAW_ENTRIES = 1 << 28  # floats in one array drawn or filled: 2 GiB


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _pow2_scale(peak: np.ndarray) -> np.ndarray:
    """The largest power of two not above each positive `peak` (1 where it is 0).

    Dividing by it, and multiplying back, is exact short of underflow, so a
    sum of the scaled entries cannot overflow where the plain sum would.
    """
    return np.where(peak > 0.0, np.ldexp(1.0, np.frexp(peak)[1] - 1), 1.0)


def _check_weight(w, name: str = "weight w"):
    """Return blend weight `w` if it lies in [0, 1] (NaN fails)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"{name} = {w!r} outside [0, 1]")
    return w


def _check_sizes(n, q) -> tuple:
    """Return (n, q) as ints if both are ints with q >= 1 and n > 1 + q."""
    if not (isinstance(n, (int, np.integer)) and isinstance(q, (int, np.integer))):
        raise ValueError("`n` and `q` must be ints")
    if q < 1 or n <= 1 + q:
        raise ValueError(f"need q >= 1 and n > 1 + q; got n = {n}, q = {q}")
    return int(n), int(q)


def _check_plugin_dof(n, q, where: str = "") -> None:
    """Raise `DegreesOfFreedomError` unless n > q + 2; `where` prefixes the message."""
    if n <= 2 + q:
        raise DegreesOfFreedomError(
            f"{where}the plug-in weight needs n > q + 2; got n = {n}, q = {q}")


def _check_draw_size(entries: int, what: str, got: str = "") -> None:
    """Raise, before it is allocated, unless `what`, an array drawn or filled,
    holds at most MAX_DRAW_ENTRIES floats, `entries`; `got` ends the message."""
    if entries > MAX_DRAW_ENTRIES:
        raise ValueError(f"{what} = {entries} floats, more than {MAX_DRAW_ENTRIES}{got}")


def _check_dimension(p) -> None:
    """Raise unless there are p >= 2 response coordinates."""
    if p < 2:
        raise ValueError(f"need at least two response coordinates: `p` must be >= 2, got {p}")


def _check_index(value, name: str):
    """Return seed or index `value` if it is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _check_unit(v: np.ndarray, name: str) -> None:
    """Raise unless each vector of a stack (..., p) has |norm - 1| <= UNIT_TOL (NaN fails)."""
    nrm = np.linalg.norm(v, axis=-1)
    bad = ~(np.abs(nrm - 1.0) <= UNIT_TOL)
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"{name}{list(map(int, at)) if at else ''} must be unit length, "
                         f"got norm {float(nrm[at])!r}")


def _check_orthonormal(v: np.ndarray, name: str) -> None:
    """Raise unless max|V'V - I| <= UNIT_TOL over a matrix or stack (..., p, p) (NaN fails)."""
    err = _max_abs(np.swapaxes(v, -2, -1) @ v - np.eye(v.shape[-1]))
    if not err <= UNIT_TOL:
        raise ValueError(f"{name} not orthonormal: max|V'V - I| = {err:.3e}")


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def _check_symmetric(m: np.ndarray, name: str, rtol: float = SYM_STORED_TOL) -> None:
    """Raise unless a given `m` is square, finite and symmetric, max|M - M'| <= rtol max|M|."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    _check_finite(m, name)
    asym = _max_abs(m - m.T)
    if asym > rtol * max(_max_abs(m), 1e-300):
        raise ValueError(f"{name} is not symmetric: max|M - M'| = {asym:.3e} "
                         f"exceeds relative tolerance {rtol:g}")


def _check_psd(m: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless each matrix of a symmetric stack (..., p, p) has every eigenvalue
    >= -PSD_TOL * trace.

    The one `eigvalsh` runs on each matrix divided by `_pow2_scale` of its
    peak entry (exact), so no trace overflows and power-of-two rescalings
    give the same values.  Where the peak entry lies between about 2^-405
    and 2^485, the values times their scales are the plain matrix's, bit for
    bit; outside that range LAPACK rescales a plain matrix by a factor that
    is not a power of two, and its values move in the last bits.  Returns
    those ascending values (..., p) of the scaled matrices, and the scales
    (...), which `SumOfSquares` and `_check_fit_stack` pass on.
    """
    scale = _pow2_scale(_peaks(m))
    a = m / scale[..., None, None]
    evals = np.linalg.eigvalsh(a)
    bad = evals[..., 0] < -PSD_TOL * np.maximum(np.trace(a, axis1=-2, axis2=-1), 0.0)
    if np.any(bad):
        raise ValueError(f"{name} is not positive semidefinite: "
                         f"min eigenvalue {np.min((evals[..., 0] * scale)[bad]):.3e}")
    return evals, scale


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
        peak = np.max(np.abs(x), axis=0)
        scale = _pow2_scale(peak)
        with np.errstate(over="ignore"):  # a sum past the float range is not centered
            col_sums = (x / scale).sum(axis=0) * scale
        limit = CENTER_TOL * n * max(float(peak.max()), 1e-300)
        if np.any(np.abs(col_sums) > limit):
            j = int(np.argmax(np.abs(col_sums)))
            raise ValueError(
                f"`x` is not column-centered: column {j} sums to "
                f"{col_sums[j]:.3e}"
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

    `s_reg` and `s_resid` must be p x p, finite, symmetric and positive
    semidefinite; each is stored exactly symmetric, as (M + M') / 2, for the
    eigensolver.  The total ``s_total = s_reg + s_resid`` is formed from the
    stored pair, not given.  `n` and `q` record the sample size and design
    rank they came from; the residual degrees of freedom are ``n - 1 - q``.

    The semidefiniteness check of s_resid (`_check_psd`) is its one
    eigendecomposition: `_resid_spectrum` keeps the pair it returns, the
    ascending eigenvalues of s_resid divided by `_pow2_scale` of its peak
    entry and that scale, which `estimate_abcd` and `gamma1_hat` at w = 1
    read, as the commands read `_check_fit_stack`'s.
    """

    s_reg: np.ndarray
    s_resid: np.ndarray
    n: int
    q: int
    s_total: np.ndarray = field(init=False)
    _resid_spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        s_reg = np.asarray(self.s_reg, dtype=float)
        s_resid = np.asarray(self.s_resid, dtype=float)
        if s_reg.shape != s_resid.shape:
            raise ValueError(f"matrix shapes disagree: {s_reg.shape} and {s_resid.shape}")
        n, q = _check_sizes(self.n, self.q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        for name, m in (("s_reg", s_reg), ("s_resid", s_resid)):
            _check_symmetric(m, f"`{name}`")
            m = (m + m.T) / 2.0
            evals, scale = _check_psd(m, f"`{name}`")
            object.__setattr__(self, name, _readonly(m))
        # the loop ends on s_resid
        object.__setattr__(self, "_resid_spectrum", (_readonly(evals), float(scale)))
        object.__setattr__(self, "s_total", _readonly(self.s_reg + self.s_resid))

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
        _check_finite(vals, "`values`")
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
    order under the package sign convention.  V diag(values) V' must
    reconstruct the input, and `SymEig` checks order and orthonormality.

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
        If `m` is not square or is asymmetric beyond tolerance, or if the
        decomposition fails a check (`NumericFailure` for the
        reconstruction).
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m, "`m`", SYM_INPUT_TOL)
    m = (m + m.T) / 2.0
    vals, vecs = _sym_eig_stack(m[None])
    resid = np.linalg.norm(vecs[0] @ (vals[0, :, None] * vecs[0].T) - m)
    if not resid <= 1e-8 * max(np.linalg.norm(m), 1e-300):  # a numerically pathological m
        raise NumericFailure("eigendecomposition failed to reconstruct the input")
    return SymEig(vals[0], vecs[0])


def _sym_eig_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose each exactly symmetric matrix of a stack (k, p, p) in one LAPACK call.

    Each matrix is divided by the largest power of two not above its peak
    entry (exact, from `frexp`), so power-of-two rescalings give
    bit-identical eigenvectors.  Eigenvalues come back descending, and each
    eigenvector under `_fix_signs`; callers check what they read.  Returns
    (values (k, p), vectors (k, p, p)).
    """
    scale = _pow2_scale(np.max(np.abs(m), axis=(1, 2)))
    vals, vecs = np.linalg.eigh(m / scale[:, None, None])
    return vals[:, ::-1] * scale[:, None], _fix_signs(vecs[:, :, ::-1])


def _leading_pair_stack(a: np.ndarray, known=None) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue and the leading eigenvector of each exactly symmetric
    matrix of a stack (k, s, s), each divided by `_pow2_scale` of its peak entry.

    The caller divides (`estimators._solve_axes`), so power-of-two rescalings
    of a matrix give the same scaled matrix and bit-identical vectors, and no
    norm overflows.  The eigenvalues come from one batched `eigvalsh` of the
    matrices whose values the caller does not pass in `known`, a pair (mask
    (k,), ascending `eigvalsh` values of the masked matrices), and the
    leading vector from inverse iteration (Parlett 1980, ch. 4; Ipsen 1997)
    with the shift sigma = lambda_1 + delta, delta = 4 s eps max|lambda|: one
    power step a g from a fixed generic unit vector g, then one LU solve per
    matrix.  Up to two more solves go to the matrices whose residual
    ||a v - lambda_1 v|| is not yet at rounding level (8 s eps ||a||_F), or
    whose gap lambda_1 - lambda_2 is too small for the solves so far to have
    shrunk the other components below 1e-13.  The solves read sigma I - a,
    formed in place and turned back into `a`, byte for byte, before returning
    (negation is exact, and the diagonal is saved), with a gather only of a
    strict subset.  A matrix with a single distinct eigenvalue (zero or
    scalar) gives e_s, as `eigh` does.  Each matrix is solved as if it were
    alone, so it gives the same bytes in any stack; callers check what they
    read (`_check_leading_pairs`).  Returns (values (k, s) descending, of the
    scaled matrices, and vectors (k, s) under `_fix_signs`).
    """
    k, s = a.shape[:2]
    if known is None:
        vals = np.linalg.eigvalsh(a)
    else:
        have, vals = known[0], np.empty((k, s))
        vals[have] = known[1]
        if not np.all(have):
            vals[~have] = np.linalg.eigvalsh(a[~have])
    vals = vals[:, ::-1]
    eps = np.finfo(float).eps
    # the scaled matrix has max|lambda| >= its peak entry >= 1 unless it is zero
    sigma = vals[:, 0] + 4.0 * s * eps * np.maximum(np.maximum(vals[:, 0], -vals[:, -1]), 1.0)
    above = sigma - vals[:, 0]  # exact
    flat = vals[:, 0] == vals[:, -1]
    # a solve scales each component off the leading vector, relative to the
    # leading one, by at most (sigma - lambda_1) / (sigma - lambda_2); a
    # matrix with one eigenvalue needs no vector
    shrink = np.where(flat, 0.0, above / (sigma - vals[:, 1]))
    left = np.ones(k)
    tol = 8.0 * s * eps * _frobenius(a)
    # neither the ones vector nor a coordinate vector, which are orthogonal to
    # the leading vectors of [[2, -1], [-1, 2]] and of most diagonal matrices
    g = np.sqrt(np.arange(s) + 2.0)
    g /= np.linalg.norm(g)
    v = a @ g
    nrm = np.linalg.norm(v, axis=1, keepdims=True)
    v = np.where(nrm > 0.0, v / np.where(nrm > 0.0, nrm, 1.0), g)
    diag = np.arange(s)
    saved = a[:, diag, diag]
    np.negative(a, out=a)  # sigma I - a, in place of a
    a[:, diag, diag] += sigma[:, None]
    todo = np.arange(k)  # every matrix, then those that need another solve
    for _ in range(3):
        shifted = a if todo.size == k else a[todo]
        x = np.linalg.solve(shifted, v[todo, :, None])[:, :, 0]
        v[todo] = x / np.linalg.norm(x, axis=1, keepdims=True)
        left[todo] *= shrink[todo]
        # a v - lambda_1 v = (sigma - lambda_1) v - (sigma I - a) v
        resid = np.linalg.norm(above[todo, None] * v[todo]
                               - (shifted @ v[todo, :, None])[:, :, 0], axis=1)
        todo = todo[(resid > tol[todo]) | (left[todo] > 1e-13)]
        if not todo.size:
            break
    np.negative(a, out=a)
    a[:, diag, diag] = saved
    v[flat] = diag == s - 1
    return vals, _fix_signs(v[:, :, None])[:, :, 0]


def _peaks(m: np.ndarray) -> np.ndarray:
    """max|M| of each matrix of a stack (..., s, s), with no temporary the size of the stack."""
    return np.maximum(np.max(m, axis=(-2, -1)), -np.min(m, axis=(-2, -1)))


def _frobenius(m: np.ndarray) -> np.ndarray:
    """||M||_F of each matrix of a stack (k, s, s), with no temporary the size of the stack."""
    return np.sqrt(np.einsum("kij,kij->k", m, m))


def _check_leading_pairs(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Raise `NumericFailure` unless each matrix A of a stack (k, s, s) has a sound
    spectrum and leading pair.

    (vals, vecs) is `_leading_pair_stack(a)`, of the same stack, each matrix
    divided by `_pow2_scale` of its peak entry, so no norm overflows:

    - the leading pair needs ||A v - lambda_1 v|| <= 1e-8 ||A||_F and v unit
      norm (NaN fails); with the gap, these bound the axis error (Parlett
      1980; Davis & Kahan 1970);
    - the eigenvalues need |sum lambda - tr A| <= 1e-8 ||A||_F and
      |sqrt(sum lambda^2) - ||A||_F| <= 1e-8 ||A||_F, which hold for the
      spectrum of A and check lambda_2, read only through the gap.
    """
    frob = _frobenius(a)
    err = np.linalg.norm((a @ vecs[:, :, None])[:, :, 0] - vals[:, :1] * vecs, axis=1)
    bad = ~(err <= 1e-8 * frob)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericFailure(f"eigenpair 1 of solved matrix {k} "
                             f"fails its residual check: ||M v - lambda v|| = {err[k]:.3e}")
    try:
        _check_unit(vecs, "leading eigenvector")
    except ValueError as exc:
        raise NumericFailure(str(exc)) from None
    off = np.maximum(np.abs(np.sum(vals, axis=1) - np.trace(a, axis1=1, axis2=2)),
                     np.abs(np.linalg.norm(vals, axis=1) - frob))
    bad = ~(off <= 1e-8 * frob)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericFailure(f"the eigenvalues of solved matrix {k} miss its trace or "
                             f"Frobenius norm by {off[k]:.3e}")


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Column vectors of a stack (k, p, c), each negated if needed so that its
    largest-magnitude entry is positive (ties toward the lowest index)."""
    lead = np.argmax(np.abs(vecs), axis=1)[:, None, :]
    return np.where(np.take_along_axis(vecs, lead, axis=1) < 0.0, -vecs, vecs)


def _check_fit_stack(g_reg: np.ndarray, g_resid: np.ndarray, resid: np.ndarray,
                     total: np.ndarray, basis: np.ndarray,
                     where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """The one check of stacked fits built by `_scatter_stack`, in either solve space.

    A fit of n observations has row factors reg = Q'total and
    resid = total - Q reg (k, n, p), with s_reg = reg'reg and
    s_resid = resid'resid, centered response rows `total` (k, n, p) and the
    orthonormal basis Q (`basis`, (k, n, q)) of its design span.  `g_reg`
    and `g_resid` are the `_gram` outputs of the space the fit is solved in:
    the p x p s_reg and s_resid, or the q x q and (n - 1 - q) x (n - 1 - q)
    blocks of the Gram of a wide fit's reduced rows
    (`estimators._leading_axes`), which have the same nonzero eigenvalues.

    It checks that g_reg and g_resid are finite (a Gram is finite exactly
    when its factor is, short of overflow), that g_resid is semidefinite
    (`_gram` makes g_reg so), from its one `eigvalsh` (`_check_psd`), whose
    values the plug-in and the solver read, and `_check_additivity`.
    s_total is semidefinite when s_reg and s_resid are and the gap is small.
    `where` follows the names in error messages.  Returns the ascending
    eigenvalues of g_resid divided by `_pow2_scale` of its peak entry,
    (k, p) or (k, n - 1 - q), and those scales (k,).

    Raises
    ------
    ValueError
        If some Gram or fit fails a check.
    """
    _check_finite(g_reg, f"`s_reg`{where}")
    _check_finite(g_resid, f"`s_resid`{where}")
    # no symmetry test: `_gram`'s (G + G')/2 is bitwise symmetric, as IEEE addition commutes
    evals = _check_psd(g_resid, f"`s_resid`{where}")
    _check_additivity(resid, total, basis, where)
    return evals


def _check_additivity(resid: np.ndarray, total: np.ndarray, basis: np.ndarray,
                      where: str = "") -> None:
    """Raise unless the residual rows of `_scatter_stack` fits (arguments as in
    `_check_fit_stack`) are orthogonal to the constant and to the design span,
    max|[1/sqrt(n), Q]'resid| <= ADDITIVITY_TOL max|total|.  s_total - s_reg -
    s_resid is reg'(Q'resid) plus its transpose, and a residual computed as
    total - Q(Q'total) can go wrong only through Q, which Q'resid catches;
    orthogonality to the constant as well makes the reduced rows of a wide
    fit carry s_resid whole."""
    n = resid.shape[1]
    off_span = np.max(np.abs(np.swapaxes(basis, 1, 2) @ resid), axis=(1, 2))
    off_constant = np.max(np.abs(np.full(n, 1.0 / np.sqrt(n)) @ resid), axis=1)
    gap = np.maximum(off_span, off_constant)
    if np.any(gap > ADDITIVITY_TOL * np.maximum(np.max(np.abs(total), axis=(1, 2)), 1e-300)):
        raise ValueError(f"s_total != s_reg + s_resid{where}: residual rows leave the "
                         f"complement of the constant and the design span by {np.max(gap):.3e}")


def center_columns(x: np.ndarray) -> np.ndarray:
    """Subtract the column means from a 2-D array.

    Each mean is taken over the column divided by `_pow2_scale` of its peak,
    so a finite column whose sum would overflow still centers.  Any other
    column gives the bits of the plain mean, unless it holds entries below
    2^-1022 times its peak, which the scaling flushes toward zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"`x` must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("`x` must have at least one row")
    scale = _pow2_scale(np.max(np.abs(x), axis=0))
    return x - (x / scale).mean(axis=0) * scale


def _conditioned_qr(x: np.ndarray, left_out: np.ndarray | None = None) -> np.ndarray:
    """Thin-QR bases Q (k, n, q) of stacked designs (k, n, q), each well conditioned.

    The q x q factor R has the singular values of X, so the check runs on R;
    `left_out` is passed on to `_check_design_conditioning`.
    """
    qmat, rmat = np.linalg.qr(x, mode="reduced")
    _check_design_conditioning(rmat, left_out)
    return qmat


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
    """Symmetrized Gram matrices rows' rows of stacked (..., m, p) rows; an overflow
    is left to the fit check's finite rule to report, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.swapaxes(rows, -2, -1) @ rows
        return (g + np.swapaxes(g, -2, -1)) / 2.0


def _scatter_stack(y: np.ndarray, x: np.ndarray, left_out: np.ndarray | None = None):
    """Unchecked row factors (reg, resid, total, qmat) of stacked fits.

    `y` (k, n, p) holds the column-centered responses and `x` (k, n, q) the
    column-centered designs of k fits of n observations each (a
    leave-one-out fold is the n - 1 rows that it keeps, centered on their
    own means); `left_out` is passed on to `_conditioned_qr`.  With Q
    (`qmat`, (k, n, q)) the thin-QR basis of a design's span,

        reg   = Q'y            (k, q, p),   s_reg   = reg'reg,
        resid = y - Q reg      (k, n, p),   s_resid = resid'resid,
        total = y              (k, n, p),   s_total = y'y,

    so each scatter matrix is a Gram matrix (`_gram`) and semidefinite by
    construction.  Replications, the `estimate` command and leave-one-out
    folds all build their fits here, and `_check_fit_stack` checks them.
    The p x p matrices are formed only where they are the cheaper space to
    solve in: `estimators._leading_axes` forms them when n - 1 >= p, and
    otherwise solves every weight from the (n - 1) x (n - 1) Gram of the
    reduced rows [reg; Qc'resid], with Qc an orthonormal basis of the
    complement of the constant and the design span (the snapshot method of
    Sirovich 1987).  Every slice is computed as if it were alone, so a fit
    gives the same bytes in any stack.

    Raises
    ------
    RankDeficiencyError
        If some design has cond(X'X) > COND_LIMIT.
    """
    qmat = _conditioned_qr(x, left_out)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the fit check's finite rule
        proj = np.swapaxes(qmat, 1, 2) @ y
        return proj, y - qmat @ proj, y, qmat


def sums_of_squares(data: Dataset) -> SumOfSquares:
    """Decompose the centered response scatter along and off the design span.

    The p x p Grams of the `_scatter_stack` factors of a stack of one fit,
    checked by `SumOfSquares` like any given pair, and its additivity.

    Raises
    ------
    RankDeficiencyError
        If cond(X'X) exceeds COND_LIMIT (1e12).
    ValueError
        If a Gram fails a `SumOfSquares` rule, or the fit `_check_additivity`.
    """
    reg, resid, yc, basis = _scatter_stack(center_columns(data.y)[None], data.x[None])
    ss = SumOfSquares(_gram(reg)[0], _gram(resid)[0], data.n, data.q)
    _check_additivity(resid, yc, basis)
    return ss
