"""Plain-numpy references that every benchmark output is checked against.

Nothing here imports `allopca`. The simulate reference re-draws the same
Philox substreams the package documents (design from key (seed, r, 0),
noise from (seed, r, 1), basis from (seed, 2)) and recomputes each table
cell with the normal equations and a batched `eigh`; it also recomputes
the paper's target cells at the acceptance criteria's 1000 replications.
The cv reference is a brute-force refit of every leave-one-out fold.

Run as a script it writes the reference (and, for cv, the input CSVs) so
that the process timing the CLI never loads numpy, whose pages would
otherwise count towards the peak RSS of every child it starts:

    python bench/oracle.py simulate <scenario> <reps> <seed> <out.json>
    python bench/oracle.py cv <seed> <n> <y.csv> <x.csv> <out.json>
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from checks import CV_RULES, PAPER_REPS, SIM_ROWS, paper_columns

WEIGHT_CAP = 2.0 / 3.0
Q = 5


def _philox(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def random_basis(p: int, seed: int) -> np.ndarray:
    """Eigenbasis (descending, peak entry positive) of a seeded 2p-sample covariance."""
    z = _philox(seed, 2).standard_normal((2 * p, p))
    zc = z - z.mean(axis=0)
    s = zc.T @ zc / (2 * p - 1)
    s = (s + s.T) / 2.0
    scale = 2.0 ** math.floor(math.log2(float(np.max(np.abs(s)))))
    vecs = np.linalg.eigh(s / scale)[1][:, ::-1]
    lead = np.argmax(np.abs(vecs), axis=0)
    return vecs * np.where(vecs[lead, np.arange(p)] < 0.0, -1.0, 1.0)


def scenario_points(scenario: str) -> list[tuple[str, int, int, np.ndarray]]:
    """(column label, p, n, eigenvalues) for the CLI's default grid."""
    points = []
    if scenario == "table1":
        for n in (20, 50, 100, 200, 500):
            lam = np.ones(10)
            lam[0] = 2.0
            points.append((f"n={n}", 10, n, lam))
    elif scenario == "table3b":
        for p in (20, 50, 100):
            lam = np.ones(p)
            lam[0], lam[1] = float(p) ** 0.8, float(p) ** 0.4
            points.append((f"p={p}", p, int(math.floor(float(p) ** 0.8)), lam))
    else:
        raise ValueError(f"no reference for scenario {scenario!r}")
    return points


def _plugin_weight(s_reg, s_resid, n: int, q: int) -> np.ndarray:
    """Data-driven weight for a stack of scatter pairs (leading axes batch)."""
    m = n - 1 - q
    ev = np.linalg.eigvalsh(s_resid / m)
    lam1, lam2 = ev[..., -1], ev[..., -2]
    tr_se = np.trace(s_resid, axis1=-2, axis2=-1)
    tr_sig = tr_se / m
    tr_sigma2 = ((s_resid * s_resid).sum(axis=(-2, -1)) - tr_se ** 2 / m) / ((n + 1 - q) * (n - 2 - q))
    a = tr_sigma2 + tr_sig ** 2
    b = lam1 + tr_sig
    c = np.trace(s_reg, axis1=-2, axis2=-1) - q * tr_sig
    d = np.maximum(lam1 - lam2, 0.0)
    num = a * d * q + 2.0 * b * c * d
    den = 2.0 * a * d * q + 2.0 * b * c * d + a * c
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.clip(num / den, 0.0, WEIGHT_CAP)
    return np.where(den > 0.0, w, 0.0)


def _leading(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(m)[1][..., :, -1]


def _scatter(x: np.ndarray, yc: np.ndarray):
    """Regression and residual scatter of centered y on centered x (normal equations)."""
    xt = np.swapaxes(x, -1, -2)
    coef = np.linalg.solve(xt @ x, xt @ yc)
    fit = x @ coef
    resid = yc - fit
    s_reg = np.swapaxes(fit, -1, -2) @ fit
    s_resid = np.swapaxes(resid, -1, -2) @ resid
    return (s_reg + np.swapaxes(s_reg, -1, -2)) / 2.0, (s_resid + np.swapaxes(s_resid, -1, -2)) / 2.0, coef


def simulate_reference(scenario: str, reps: int, seed: int, columns=None) -> dict:
    """Per cell: [mean error, its standard error, mean weight, its standard error].

    `columns` restricts the table to those scenario points.
    """
    out = {"columns": [], "cells": {label: {} for label, _ in SIM_ROWS}}
    for col, p, n, lam in scenario_points(scenario):
        if columns is not None and col not in columns:
            continue
        basis = random_basis(p, seed)
        g1 = basis[:, 0]
        root = basis * np.sqrt(lam)
        alpha = np.ones(Q)
        xs = np.empty((reps, n, Q))
        ys = np.empty((reps, n, p))
        for r in range(reps):
            x = _philox(seed, r, 0).standard_normal((n, Q))
            x -= x.mean(axis=0)
            z = _philox(seed, r, 1).standard_normal((n, p))
            xs[r] = x
            ys[r] = np.outer(x @ alpha, g1) + z @ root.T
        s_reg, s_resid, _ = _scatter(xs, ys - ys.mean(axis=1, keepdims=True))
        xa = xs @ alpha
        c = (xa * xa).sum(axis=1)
        tr = lam.sum()
        a, b, d = (lam ** 2).sum() + tr * tr, lam[0] + tr, lam[0] - lam[1]
        oracle_w = (a * d * Q + 2.0 * b * c * d) / (2.0 * a * d * Q + 2.0 * b * c * d + a * c)
        plugin_w = _plugin_weight(s_reg, s_resid, n, Q)
        out["columns"].append(col)
        for label, fixed in SIM_ROWS:
            w = {"plugin": plugin_w, "oracle": oracle_w}.get(label, np.full(reps, fixed))
            vec = _leading((1.0 - w)[:, None, None] * s_reg + w[:, None, None] * s_resid)
            mse = np.maximum(0.0, 2.0 - 2.0 * np.abs(vec @ g1))
            out["cells"][label][col] = [float(v) for v in (
                mse.mean(), mse.std(ddof=1) / math.sqrt(reps), w.mean(), w.std(ddof=1) / math.sqrt(reps))]
    return out


# --------------------------------------------------------------------------
# leave-one-out cross-validation
# --------------------------------------------------------------------------


def cv_dataset(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one data: y = (x alpha) gamma1' + noise with spectrum (4, 2, 1, ...).

    p = 10 keeps every matrix below the size at which OpenBLAS starts a
    second thread, so the cv workload runs on one core like table1.
    """
    p, q = 10, Q
    rng = np.random.Generator(np.random.PCG64(seed))
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam = np.ones(p)
    lam[0], lam[1] = 4.0, 2.0
    x = rng.standard_normal((n, q))
    alpha = np.full(q, 1.0 / math.sqrt(q))
    noise = rng.standard_normal((n, p)) * np.sqrt(lam) @ basis.T
    y = np.outer((x - x.mean(axis=0)) @ alpha, basis[:, 0]) + noise
    return y, x


def write_csv(path: str, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cv_reference(y: np.ndarray, x_raw: np.ndarray) -> dict:
    """Leave-one-out MSPE per rule, refitting every fold from scratch."""
    x = x_raw - x_raw.mean(axis=0)
    n, q = x.shape
    sse = dict.fromkeys((label for label, _ in CV_RULES), 0.0)
    for i in range(n):
        keep = np.arange(n) != i
        means = x[keep].mean(axis=0)
        xtr = x[keep] - means
        mu = y[keep].mean(axis=0)
        s_reg, s_resid, coef = _scatter(xtr, y[keep] - mu)
        xi = x[i] - means
        for label, fixed in CV_RULES:
            if label == "ols":
                pred = mu + xi @ coef
            else:
                w = float(_plugin_weight(s_reg, s_resid, n - 1, q)) if fixed is None else fixed
                g = _leading((1.0 - w) * s_reg + w * s_resid)
                pred = mu + xi @ np.outer(coef @ g, g)
            resid = y[i] - pred
            sse[label] += float(resid @ resid)
    return {label: total / n for label, total in sse.items()}


def environment() -> dict:
    """The numpy this interpreter loads, as the CLI run by it does."""
    return {"numpy": np.__version__, "numpy_build": np.show_config(mode="dicts")["Build Dependencies"]}


def main(argv: list[str]) -> int:
    if argv[0] == "simulate":
        scenario, reps, seed, out = argv[1], int(argv[2]), int(argv[3]), argv[4]
        ref = simulate_reference(scenario, reps, seed)
        ref["paper"] = simulate_reference(scenario, PAPER_REPS, seed, paper_columns(scenario))
    else:
        seed, n, ypath, xpath, out = int(argv[1]), int(argv[2]), argv[3], argv[4], argv[5]
        y, x = cv_dataset(seed, n)
        write_csv(ypath, y)
        write_csv(xpath, x)
        ref = {"mspe": cv_reference(y, x)}
    ref["environment"] = environment()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
