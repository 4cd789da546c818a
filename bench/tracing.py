"""Outside-in tracing of `allopca` from the benchmark's own files.

`Tracer.installed()` replaces each traced callable with a wrapper in every
`allopca` module that refers to it (and `numpy.linalg` for the raw LAPACK
calls), records one span per call (name, start, end, parent span, op id)
in memory, and restores the originals on exit. The program is not edited.

An "op" is the unit the per-op counts divide by: one Monte Carlo
replication (entry of `gen_dataset` directly under `run_experiment`, up to
the next such entry) or one leave-one-out fold fit (entry of `Dataset`
directly under `loo_cv_mspe`). Calls made by forked worker processes are
not traced: the wrappers pass straight through in any child process.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

# span name -> (module, attribute); "linalg" is numpy.linalg.
TRACED = {
    "simgen.gen_dataset": ("allopca.simgen", "gen_dataset"),
    "simgen.substream": ("allopca.simgen", "substream"),
    "simgen.random_gamma": ("allopca.simgen", "random_gamma"),
    "core.Dataset": ("allopca.core", "Dataset"),
    "core.sums_of_squares": ("allopca.core", "sums_of_squares"),
    "core.sym_eig": ("allopca.core", "sym_eig"),
    "estimators.gamma1_hat": ("allopca.estimators", "gamma1_hat"),
    "estimators.estimate_abcd": ("allopca.estimators", "estimate_abcd"),
    "estimators.mse_up_to_sign": ("allopca.estimators", "mse_up_to_sign"),
    "estimators.loo_cv_mspe": ("allopca.estimators", "loo_cv_mspe"),
    "estimators.reduced_rank_coefficients": ("allopca.estimators", "reduced_rank_coefficients"),
    "harness.run_experiment": ("allopca.harness", "run_experiment"),
    "cli.main": ("allopca.cli", "main"),
    "linalg.eigh": ("linalg", "eigh"),
    "linalg.eigvalsh": ("linalg", "eigvalsh"),
    "linalg.svd": ("linalg", "svd"),
    "linalg.qr": ("linalg", "qr"),
}
# (op-starting span, the span it must be directly under)
OP_RULES = (("simgen.gen_dataset", "harness.run_experiment"),
            ("core.Dataset", "estimators.loo_cv_mspe"))
OP_PARENTS = {parent for _, parent in OP_RULES}

START, END, PARENT, OP = 1, 2, 3, 4


class Tracer:
    """Span recorder. With `record=False` it only keeps `run_experiment` results."""

    def __init__(self, record: bool = True):
        self.record = record
        self.spans: list[list] = []   # [name, start, end, parent id, op id]
        self.ops: list[tuple[float, int]] = []  # (start, id of the enclosing span)
        self.experiments: list = []   # run_experiment return values
        self._stack: list[int] = []
        self._op: int | None = None
        self._active = True
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self):
        self._active = False

    def call(self, name, fn, args, kwargs):
        if not self._active:
            return fn(*args, **kwargs)
        if not self.record:
            result = fn(*args, **kwargs)
            if name == "harness.run_experiment":
                self.experiments.append(result)
            return result
        parent = self._stack[-1] if self._stack else None
        if parent is not None and (name, self.spans[parent][0]) in OP_RULES:
            self._op = len(self.ops)
            self.ops.append((time.perf_counter(), parent))
        sid = len(self.spans)
        span = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(span)
        self._stack.append(sid)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            if name in OP_PARENTS:
                self._op = None
        if name == "harness.run_experiment":
            self.experiments.append(result)
        return result

    @contextlib.contextmanager
    def installed(self, names=tuple(TRACED)):
        """Patch the named callables for the duration of the block."""
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "allopca" or key.startswith("allopca."))]
        try:
            for name in names:
                owner_name, attr = TRACED[name]
                owner = np.linalg if owner_name == "linalg" else sys.modules[owner_name]
                original = getattr(owner, attr)
                if isinstance(original, type):
                    init = original.__init__
                    undo.append((original, "__init__", init))
                    original.__init__ = self._wrap(name, init)
                    continue
                wrapper = self._wrap(name, original)
                for target in [owner, *modules]:
                    if getattr(target, attr, None) is original:
                        undo.append((target, attr, original))
                        setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced


class StepClock(Tracer):
    """Reads the wall and CPU clocks at each entry of one traced callable.

    Used in untraced runs: the entries split a CLI command into steps (one
    replication, or one fold fit) without recording spans.
    """

    def __init__(self, cpu_clock):
        super().__init__(record=False)
        self.cpu_clock = cpu_clock
        self.marks: list[tuple[float, float]] = []

    def call(self, name, fn, args, kwargs):
        if self._active:
            self.marks.append((time.perf_counter(), self.cpu_clock()))
        return fn(*args, **kwargs)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (all traced runs pooled)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    stats = {name: [0, 0, 0.0, 0.0] for name in TRACED}  # calls, calls in ops, total, self
    for sid, s in enumerate(spans):
        st = stats[s[0]]
        dur = s[END] - s[START]
        st[0] += 1
        st[1] += s[OP] is not None
        st[2] += dur
        st[3] += dur - child[sid]
    n_ops = len(tracer.ops)
    wall = stats["cli.main"][2]

    def per_op(name):
        return stats[name][1] / n_ops if n_ops else 0.0

    def per_call(name, scale):
        calls, _, total, _ = stats[name]
        return total / calls * scale if calls else 0.0

    def share(name):
        return stats[name][3] / wall if wall else 0.0

    out = {}
    for name in ("simgen.gen_dataset", "simgen.substream", "core.Dataset", "core.sums_of_squares",
                 "core.sym_eig", "linalg.eigh", "linalg.eigvalsh", "linalg.svd", "linalg.qr",
                 "estimators.gamma1_hat", "estimators.mse_up_to_sign",
                 "estimators.reduced_rank_coefficients"):
        out[f"{name}.calls_per_op"] = per_op(name)
    for name in ("simgen.gen_dataset", "simgen.substream", "simgen.random_gamma", "core.Dataset",
                 "core.sums_of_squares", "core.sym_eig", "linalg.eigh", "linalg.eigvalsh",
                 "linalg.svd", "linalg.qr", "estimators.gamma1_hat", "estimators.estimate_abcd",
                 "estimators.mse_up_to_sign"):
        out[f"{name}.us_per_call"] = per_call(name, 1e6)
    out["estimators.loo_cv_mspe.s_per_call"] = per_call("estimators.loo_cv_mspe", 1.0)
    for name in ("simgen.gen_dataset", "core.sums_of_squares", "core.sym_eig",
                 "estimators.gamma1_hat", "harness.run_experiment", "cli.main"):
        out[f"{name}.self_share"] = share(name)
    out["linalg.self_share"] = sum(share(n) for n in TRACED if n.startswith("linalg."))
    rep_ms = op_durations_ms(tracer)
    out["harness.rep_ms_p50"] = float(np.percentile(rep_ms, 50)) if rep_ms else 0.0
    out["harness.rep_ms_p99"] = float(np.percentile(rep_ms, 99)) if rep_ms else 0.0
    return out


def op_durations_ms(tracer: Tracer, parent_name: str = "harness.run_experiment") -> list[float]:
    """Replication times: each op under `parent_name` lasts until the next op
    under the same span, or until that span ends."""
    ops = tracer.ops
    out = []
    for k, (start, parent) in enumerate(ops):
        if tracer.spans[parent][0] != parent_name:
            continue
        if k + 1 < len(ops) and ops[k + 1][1] == parent:
            end = ops[k + 1][0]
        else:
            end = tracer.spans[parent][END]
        out.append((end - start) * 1e3)
    return out
