"""Output checks for the CLI tables, in plain Python (no numpy).

Each check compares a printed table with a reference written by
`oracle.py` and returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import csv
import io

# Table rows in print order: (label, fixed weight or None for plugin/oracle).
SIM_ROWS = (
    ("total(w=0.5)", 0.5), ("residual(w=1)", 1.0), ("regression(w=0)", 0.0),
    ("w=0.1", 0.1), ("w=0.2", 0.2), ("w=0.3", 0.3), ("w=0.4", 0.4),
    ("w=0.5", 0.5), ("w=0.6", 0.6), ("plugin", None), ("oracle", None),
)
CV_RULES = (
    ("total(w=0.5)", 0.5), ("residual(w=1)", 1.0), ("regression(w=0)", 0.0),
    ("w=0.1", 0.1), ("w=0.2", 0.2), ("w=0.3", 0.3), ("w=0.4", 0.4),
    ("w=0.6", 0.6), ("plugin", None), ("ols", None),
)

# A printed cell has 5 decimals (simulate) or 3 (cv), so a correct value
# lies within half a unit in the last place of the reference; these
# tolerances add headroom for roundoff between the two computations.
SIM_TOL = 1e-5
CV_TOL = 1e-3

# Paper targets of acceptance criteria 1 and 3, checked as those criteria
# do: at 1000 replications, each mean error within a relative tolerance or
# 3 standard errors, each average weight within an absolute tolerance.
# At the workloads' own replication counts a bimodal cell (the residual
# estimator at n=20 flips between axes) can sit 4 standard errors off.
PAPER_REPS = 1000
PAPER_TARGETS = {
    "table1": (("total(w=0.5)", "n=20", 0.10517, 0.10), ("total(w=0.5)", "n=500", 0.00349, 0.10),
               ("residual(w=1)", "n=20", 0.90481, 0.10), ("residual(w=1)", "n=500", 0.03515, 0.10)),
    "table3b": (("total(w=0.5)", "p=50", 0.10300, 0.15), ("regression(w=0)", "p=50", 0.29513, 0.15)),
}
WEIGHT_TARGETS = {
    "table1": (("oracle", "n=500", 0.16363, 0.01),),
    "table3b": (("plugin", "p=50", 0.43157, 0.02),),
}


def paper_columns(scenario: str) -> list[str]:
    return sorted({col for _, col, _, _ in PAPER_TARGETS[scenario] + WEIGHT_TARGETS[scenario]})


def check_reference(scenario: str, ref: dict) -> list[str]:
    """The reference recomputed at 1000 replications must sit on the paper's numbers."""
    cells = ref["paper"]["cells"]
    problems = []
    for label, col, target, rel in PAPER_TARGETS[scenario]:
        mean, se, _, _ = cells[label][col]
        if abs(mean - target) > max(3.0 * se, rel * target):
            problems.append(f"{label} {col}: {mean:.5f} is off the paper target {target}")
    for label, col, target, tol in WEIGHT_TARGETS[scenario]:
        weight = cells[label][col][2]
        if abs(weight - target) > tol:
            problems.append(f"{label} avg weight {col}: {weight:.5f} is off the paper target {target}")
    return problems


def check_simulate(text: str, ref: dict) -> list[str]:
    """Every cell of a printed simulate table against the reference."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["estimator", *ref["columns"]]
    if not rows or rows[0] != header:
        return [f"header {rows[0] if rows else None!r} != {header!r}"]
    want = []
    for label, fixed in SIM_ROWS:
        want.append(label)
        if fixed is None:
            want.append(f"{label} avg weight")
    if [r[0] for r in rows[1:]] != want:
        return [f"row labels {[r[0] for r in rows[1:]]!r} != {want!r}"]
    if any(len(r) != len(header) for r in rows):
        return ["ragged table"]
    problems = []
    for row in rows[1:]:
        label = row[0]
        is_weight = label.endswith(" avg weight")
        cells = ref["cells"][label.removesuffix(" avg weight")]
        for col, cell in zip(ref["columns"], row[1:]):
            expect = cells[col][2] if is_weight else cells[col][0]
            if abs(float(cell.strip("()") if is_weight else cell) - expect) > SIM_TOL:
                problems.append(f"{label} {col}: printed {cell}, reference {expect:.8f}")
    return problems


def check_cv(text: str, ref: dict) -> list[str]:
    """Every MSPE of a printed cv table against the brute-force refit."""
    mspe = ref["mspe"]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["rule", "mspe"]] or [r[0] for r in rows[1:]] != list(mspe) \
            or any(len(r) != 2 for r in rows):
        return [f"cv table {rows!r} does not list the rules {list(mspe)!r}"]
    problems = []
    for label, cell in rows[1:]:
        if abs(float(cell) - mspe[label]) > CV_TOL:
            problems.append(f"{label}: printed {cell}, brute-force refit {mspe[label]:.6f}")
    return problems
