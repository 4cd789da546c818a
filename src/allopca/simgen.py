"""Synthetic data generation for the rank-one regression model.

Data are drawn from

    Y = 1 mu' + X alpha gamma_1' + E,    rows of E ~ N_p(0, Sigma) iid,

with Sigma = Gamma diag(lambdas) Gamma' and gamma_1 the first column of
the orthonormal basis Gamma.  The design X is standard normal, column-
centered, and redrawn every replication.

Randomness is counter-based (Philox) and fully keyed: replication r of a
model draws its design from the stream (master_seed, r, 0) and its noise
from (master_seed, r, 1), so any subset of replications can be generated
independently, in any order and in any block split, with identical
results.  The orthonormal basis uses the one-element key (2,) and so never
collides with a replication stream.

The simulated models are defined by three regime kinds, one per model
family of the paper: `Traditional` (fixed dimension, table 1),
`WeakIdentifiability(eta)` (shrinking eigengap, table 2) and
`LargePLargeN(delta, beta, beta2)` (growing dimension with a spiked
spectrum; `WEAK_SPIKE` and `STRONG_SPIKE` are tables 3a and 3b).  Each
kind names the size it grows along (`axis`, "n" or "p"), gives the
spectrum at one size, (n, lambdas), with `spectrum(size)`, and builds the
model on it with `model_spec(size, seed)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    _check_dimension,
    _check_draw_size,
    _check_finite,
    _check_index,
    _check_orthonormal,
    _check_plugin_dof,
    _check_sizes,
    _drawn_dataset,
    _readonly,
    _sym_eig_stack,
    _symmetric_part,
)

_STREAM_X = 0
_STREAM_E = 1
_STREAM_GAMMA = 2

# The design coefficients of every regime kind's model: q = 5 columns, each 1.
DESIGN_ALPHA = (1.0, 1.0, 1.0, 1.0, 1.0)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """A counter-based generator keyed by (master_seed, *path).

    Distinct paths give statistically independent streams, and the mapping
    is stable across processes and platforms.
    """
    _check_index(master_seed, "`master_seed`")
    for k in path:
        _check_index(k, "stream path entry")
    return _stream(master_seed, *path)


def _stream(master_seed: int, *path: int) -> np.random.Generator:
    """`substream` of a key the caller has checked."""
    seq = np.random.SeedSequence(master_seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(seq))


def random_gamma(p: int, seed: int) -> np.ndarray:
    """A seeded random orthonormal basis of R^p.

    Draws 2p standard normal vectors, forms their sample covariance, and
    returns its eigenvector basis (descending eigenvalues, package sign
    convention).  The basis is exactly reproducible from `seed`.  The
    covariance is summed by `einsum`, not a BLAS `matmul`, whose bits
    depend on the BLAS thread count; it comes out exactly symmetric.
    `ModelSpec` checks the basis for orthonormality.
    """
    _check_dimension(p)
    _check_draw_size(2 * p * p, "the random basis draws 2p * p", f"; got p = {p}")
    rng = substream(seed, _STREAM_GAMMA)
    z = rng.standard_normal((2 * p, p))
    zc = z - z.mean(axis=0)
    s = np.einsum("ki,kj->ij", zc, zc) / (2 * p - 1)
    return _sym_eig_stack(s[None])[1][0]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Complete description of one simulation model.

    Parameters
    ----------
    n : int
        Sample size (> 1 + q).
    mu : ndarray of shape (p,)
        Intercept.
    alpha : ndarray of shape (q,)
        Design coefficients of the rank-one signal; its length is the
        design rank q >= 1.
    lambdas : ndarray of shape (p,)
        Covariance eigenvalues, positive and non-increasing; its length is
        the response dimension p >= 2.
    gamma_basis : ndarray of shape (p, p)
        Orthonormal eigenvector basis; the first column is the signal axis.
    master_seed : int
        Root of the replication stream tree.
    """

    n: int
    mu: np.ndarray
    alpha: np.ndarray
    lambdas: np.ndarray
    gamma_basis: np.ndarray
    master_seed: int
    p: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        gamma = np.asarray(self.gamma_basis, dtype=float)
        for name, arr in (("alpha", alpha), ("lambdas", lam)):
            if arr.ndim != 1:
                raise ValueError(f"`{name}` must be 1-D, got shape {arr.shape}")
        p = lam.size
        _check_dimension(p)
        n, q = _check_sizes(int(self.n), alpha.size)
        if mu.shape != (p,):
            raise ValueError(f"`mu` must have shape ({p},), got {mu.shape}")
        if gamma.shape != (p, p):
            raise ValueError(f"`gamma_basis` must have shape ({p}, {p}), got {gamma.shape}")
        for name, arr in (("mu", mu), ("alpha", alpha), ("lambdas", lam), ("gamma_basis", gamma)):
            _check_finite(arr, f"`{name}`")
        if np.any(lam <= 0) or np.any(np.diff(lam) > 0):
            raise ValueError("`lambdas` must be positive and non-increasing")
        _check_orthonormal(gamma, "`gamma_basis`")
        seed = _check_index(int(self.master_seed), "`master_seed`")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "master_seed", seed)
        # `gen_dataset` draws the noise as z @ root', with root = Gamma diag(lambdas)^1/2
        for name, arr in (("mu", mu), ("alpha", alpha), ("lambdas", lam), ("gamma_basis", gamma),
                          ("_sigma", np.multiply(*_symmetric_part((gamma * lam) @ gamma.T))),
                          ("_root", gamma * np.sqrt(lam))):
            object.__setattr__(self, name, _readonly(arr))

    @property
    def gamma1(self) -> np.ndarray:
        """The signal axis (first basis column)."""
        return self.gamma_basis[:, 0]

    @property
    def lambda1(self) -> float:
        return float(self.lambdas[0])

    @property
    def lambda2(self) -> float:
        return float(self.lambdas[1])

    def sigma(self) -> np.ndarray:
        """The noise covariance Gamma diag(lambdas) Gamma' (read-only).

        Formed once, when the spec is built, and shared by every call.
        """
        return self._sigma


def gen_dataset(spec: ModelSpec, replication: int = 0) -> Dataset:
    """Draw one replication of the model.

    Parameters
    ----------
    spec : ModelSpec
    replication : int
        Replication index; selects the (X, E) substreams.

    Returns
    -------
    Dataset
        The drawn data, read-only; the ground truth is `spec.gamma1` and
        `spec.sigma()`.  The draw holds `Dataset`'s properties by
        construction: `x` is centered as it is drawn, the shapes are the
        spec's (n, p) and (n, q), and n > 1 + q is the validated spec's.  So
        it skips `Dataset`'s checks but one: a `y` that overflows, from
        extreme spec values, is refused by the finite rule (`ValueError`
        naming `y`).  The points of a `harness.scenario_plan` with the same p
        are built on one basis draw.

    Raises
    ------
    ValueError
        If `replication` < 0, or if `y` is not finite.
    """
    _check_index(replication, "`replication`")
    n, p, q = spec.n, spec.p, spec.q
    x = _stream(spec.master_seed, replication, _STREAM_X).standard_normal((n, q))
    x -= x.sum(axis=0) / n  # `x.mean(axis=0)`, bit for bit
    e = _stream(spec.master_seed, replication, _STREAM_E).standard_normal((n, p)) @ spec._root.T
    y = (x @ spec.alpha)[:, None] * spec.gamma1  # the signal; then (mu + signal) + e
    y += spec.mu
    y += e
    _check_finite(y, "`y`")
    x.flags.writeable = y.flags.writeable = False
    return _drawn_dataset(y, x)


# --------------------------------------------------------------------------
# regime kinds: the simulated models
# --------------------------------------------------------------------------


def _spiked_spectrum(p: int, n: int, lambda1: float, lambda2: float) -> tuple[int, np.ndarray]:
    """The spectrum shared by every regime kind: (n, lambdas), with lambdas =
    (lambda1, lambda2, 1, ..., 1) of length p.

    Requires n > 2 + q, q = 5 design columns (`DESIGN_ALPHA`), so that the
    plug-in weight is defined, and lambda1 > lambda2 >= 1, so that the
    signal axis is identified (for every regime kind: 1 + n^(-eta) rounds
    to 1 at large n).
    """
    _check_plugin_dof(n, len(DESIGN_ALPHA), f"model with p = {p}: ")
    if not lambda1 > lambda2 >= 1.0:
        raise ValueError(f"model with p = {p}, n = {n} has lambda_1 = {lambda1}, "
                         f"lambda_2 = {lambda2}; need lambda_1 > lambda_2 >= 1")
    _check_draw_size(p, f"model with p = {p}: its spectrum holds p")
    return n, np.concatenate(([lambda1, lambda2], np.ones(p - 2)))


class _RegimeKind:
    """The model recipe shared by every regime kind, built on its `spectrum`."""

    def model_spec(self, size: int, seed: int) -> ModelSpec:
        """`spectrum(size)` with mu = 0, `DESIGN_ALPHA` and the basis `random_gamma(p, seed)`."""
        return self._model_specs((size,), seed)[0]

    def _model_specs(self, sizes, seed: int) -> tuple[ModelSpec, ...]:
        """`model_spec(size, seed)` at each size, in order, with one `random_gamma(p, seed)`
        drawn per distinct p and read by every model of that p."""
        bases = {}
        specs = []
        for size in sizes:
            n, lam = self.spectrum(size)
            p = lam.size
            if p not in bases:
                bases[p] = random_gamma(p, seed)
            specs.append(ModelSpec(n=n, mu=np.zeros(p), alpha=np.array(DESIGN_ALPHA), lambdas=lam,
                                   gamma_basis=bases[p], master_seed=int(seed)))
        return tuple(specs)


@dataclass(frozen=True)
class Traditional(_RegimeKind):
    """Fixed model (table 1): p = 10, lambdas = (2, 1, ..., 1); n grows."""

    axis = "n"

    def spectrum(self, n: int) -> tuple[int, np.ndarray]:
        return _spiked_spectrum(10, int(n), 2.0, 1.0)


@dataclass(frozen=True)
class WeakIdentifiability(_RegimeKind):
    """Eigengap shrinks with n (table 2): p = 10, lambda_1 = 1 + n^(-eta)."""

    eta: float
    axis = "n"

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"`eta` must be > 0, got {self.eta}")
        object.__setattr__(self, "eta", float(self.eta))

    def spectrum(self, n: int) -> tuple[int, np.ndarray]:
        return _spiked_spectrum(10, int(n), 1.0 + float(n) ** (-self.eta), 1.0)


@dataclass(frozen=True)
class LargePLargeN(_RegimeKind):
    """Dimension grows with n = floor(p^delta); spikes are powers of p.

    lambda_1 = p^beta (or 1 + p^beta when beta <= 0, keeping the spectrum
    ordered), lambda_2 = p^beta2, the rest 1.  Accepts finite delta > 0 and
    beta <= 1, with 0 <= beta2 < beta when beta > 0 and beta2 = 0 otherwise.
    """

    delta: float
    beta: float
    beta2: float = 0.0
    axis = "p"

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"`delta` must be finite and > 0, got {self.delta}")
        if not self.beta <= 1:
            raise ValueError(f"`beta` must be <= 1, got {self.beta}")
        if self.beta > 0:
            if not 0.0 <= self.beta2 < self.beta:
                raise ValueError(
                    f"need 0 <= beta2 < beta; got beta = {self.beta}, beta2 = {self.beta2}"
                )
        elif self.beta2 != 0.0:
            raise ValueError("`beta2` must be 0 when beta <= 0")
        for name in ("delta", "beta", "beta2"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def spectrum(self, p: int) -> tuple[int, np.ndarray]:
        p = int(p)
        _check_dimension(p)
        lam1 = float(p) ** self.beta if self.beta > 0 else 1.0 + float(p) ** self.beta
        lam2 = float(p) ** self.beta2
        try:
            n = math.floor(float(p) ** self.delta)
        except OverflowError:
            raise ValueError(f"n = p^delta overflows at p = {p}, delta = {self.delta}") from None
        return _spiked_spectrum(p, n, lam1, lam2)


# The growing-dimension cases of tables 3a and 3b: n = floor(p^0.8) with a
# weak spike (lambda_1 = p^0.25) or a strong one (p^0.8, lambda_2 = p^0.4).
WEAK_SPIKE = LargePLargeN(0.8, 0.25, 0.0)
STRONG_SPIKE = LargePLargeN(0.8, 0.8, 0.4)
