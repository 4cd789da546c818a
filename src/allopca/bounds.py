"""Finite-sample fluctuation and error bounds for the blended scatter.

Two closed forms drive everything here.  First, the expected squared
Frobenius fluctuation of S(w) about its mean,

    E ||S(w) - E S(w)||_F^2
        = {q (1 - 2w) + (n - 1) w^2} {tr(Sigma^2) + (tr Sigma)^2}
          + 2 (1 - w)^2 (lambda_1 + tr Sigma) ||X alpha||^2,

valid for any w (the leading brace equals q (1-w)^2 + (n-1-q) w^2, so it
is never negative).  Second, the sign-invariant error bound for the
leading eigenvector of S(w),

    bound(w) = [8 a {q (1 - 2w) + (n - 1) w^2} + 16 b c (1 - w)^2]
               / [d {q + (n - 1 - 2q) w} + c (1 - w)]^2,

in the scalar summaries a, b, c, d of `AbcdParams`.  bound(w) is strictly
decreasing up to the closed-form optimum `w_star` and strictly increasing
after it, so no grid point's bound lies below bound(w_star): a cheap
independent check of the closed form, up to the evaluation's rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _check_finite, _check_sizes, _check_weight
from .estimators import AbcdParams


def lemma1_fluctuation(
    sigma_tr: float,
    sigma_tr2: float,
    lambda1: float,
    c: float,
    n: int,
    q: int,
    w: float,
) -> float:
    """Expected squared Frobenius fluctuation of S(w) about its mean.

    Parameters
    ----------
    sigma_tr : float
        tr Sigma, finite and > 0.
    sigma_tr2 : float
        tr(Sigma^2), finite and > 0.
    lambda1 : float
        Largest eigenvalue of Sigma, in (0, sigma_tr].
    c : float
        Signal energy ||X alpha||^2, finite and >= 0.
    n, q : int
        Sample size and design rank, with n > 1 + q >= 2.
    w : float
        Blend weight in [0, 1].

    Returns
    -------
    float
        The expected squared fluctuation; always >= 0, inf past the float range.
    """
    # Python floats, whose products read inf past the float range with no warning
    sigma_tr, sigma_tr2, lambda1, c = map(float, (sigma_tr, sigma_tr2, lambda1, c))
    _check_finite(np.array([sigma_tr, sigma_tr2, lambda1, c]), "(sigma_tr, sigma_tr2, lambda1, c)")
    if sigma_tr <= 0 or sigma_tr2 <= 0:
        raise ValueError(f"traces must be positive, got {sigma_tr}, {sigma_tr2}")
    if not 0.0 < lambda1 <= sigma_tr * (1.0 + 1e-12):
        raise ValueError(f"`lambda1` must lie in (0, tr Sigma], got {lambda1}")
    if c < 0:
        raise ValueError(f"`c` must be >= 0, got {c}")
    n, q = _check_sizes(n, q)
    w = _check_weight(float(w))
    lead = q * (1.0 - 2.0 * w) + (n - 1.0) * w * w
    # a zero signal term is left out, so that no inf meets it
    signal = 2.0 * (1.0 - w) * (1.0 - w) * (lambda1 + sigma_tr) * c if c and w < 1.0 else 0.0
    return lead * (sigma_tr2 + sigma_tr * sigma_tr) + signal


def _bound_values(params: AbcdParams, w: np.ndarray) -> np.ndarray:
    """Vectorized bound(w) at an array `w` of weights in [0, 1].

    It is scale-free, so each term is formed from the `frexp` mantissas of its
    summaries, as in `w_star`, and the numerator and the denominator are each
    scaled by the power of two of their largest summary: with c, except at
    w = 1, where the c-terms vanish and are left out, so neither c nor its
    scale can hide or overflow the a- and d-terms.  Summaries of any spread
    keep every term that shows, and ordinary ones give the plain formula's
    bits.
    """
    (ma, ea), (mb, eb), (mc, ec), (md, ed) = map(math.frexp, (params.a, params.b,
                                                            params.c, params.d))
    q, n = params.q, params.n

    def scaled(w, top_num, top_den, with_c):
        num = 8.0 * math.ldexp(ma, ea - top_num) * (q * (1.0 - 2.0 * w) + (n - 1.0) * w * w)
        den = math.ldexp(md, ed - top_den) * (q + (n - 1.0 - 2.0 * q) * w)
        if with_c:
            num = num + 16.0 * math.ldexp(mb * mc, eb + ec - top_num) * (1.0 - w) ** 2
            den = den + math.ldexp(mc, ec - top_den) * (1.0 - w)
        # normalize by n before squaring so huge n cannot overflow the square
        den_n = den / n
        with np.errstate(over="ignore", divide="ignore"):  # a bound past the float range reads inf
            return np.ldexp((num / n) / (den_n * den_n) / n, top_num - 2 * top_den)

    if not mc:
        return scaled(w, ea, ed, False)
    with np.errstate(invalid="ignore"):  # a 0 / 0 at w = 1 is replaced below
        out = scaled(w, max(ea, eb + ec), max(ed, ec), True)
    ends = w == 1.0
    out[ends] = scaled(w[ends], ea, ed, False)
    return out


def mse_upper_bound(params: AbcdParams, w: float) -> float:
    """Finite-sample upper bound on the sign-invariant squared error.

    Evaluates the closed-form bound at a single weight.  The denominator
    is strictly positive on [0, 1]: the factor q + (n - 1 - 2q) w is
    linear in w and positive at both endpoints (q and n - 1 - q), and the
    c-term is nonnegative.

    Parameters
    ----------
    params : AbcdParams
    w : float
        Weight in [0, 1].

    Returns
    -------
    float
        The bound; nonnegative, and finite for valid parameters.
    """
    w = _check_weight(float(w))
    return float(_bound_values(params, np.array([w]))[0])


def grid_argmin_bound(params: AbcdParams, step: float) -> float:
    """Brute-force minimizer of the bound over a uniform grid on [0, 1].

    The grid is {0, step, 2 step, ...} capped at 1, with 1 appended when
    step does not divide it; ties resolve to the smallest weight.  The bound
    is strictly unimodal, so in exact arithmetic the result is within one step
    of the closed-form optimum; where it is flat to rounding, it is not.

    Parameters
    ----------
    params : AbcdParams
    step : float
        Grid spacing in [1e-6, 0.01], so the grid has at most a million points.

    Returns
    -------
    float
        The grid point with the smallest bound value.
    """
    step = float(step)
    if not 1e-6 <= step <= 0.01:
        raise ValueError(f"`step` must lie in [1e-6, 0.01], got {step!r}")
    count = round(1.0 / step)
    if abs(count * step - 1.0) < 1e-12:
        grid = np.linspace(0.0, 1.0, count + 1)
    else:
        grid = np.append(np.arange(0.0, 1.0, step), 1.0)
    values = _bound_values(params, grid)
    return float(grid[int(np.argmin(values))])
