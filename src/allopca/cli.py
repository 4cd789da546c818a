"""Command-line interface.

Four subcommands:

- ``simulate``: run a named (or custom) Monte Carlo scenario and print the
  mean-error table;
- ``estimate``: fit the weighted estimators to response/design CSV files;
- ``cv``: leave-one-out prediction-error comparison of weight rules;
- ``bound``: evaluate the closed-form error bound and cross-check its
  minimizer against a grid search.

Exit codes: 0 on success, 2 for usage or validation problems (bad flags,
malformed files, infeasible sizes), 1 for internal numeric failures.
Each subcommand takes only the options it reads.  They may also be
supplied via ``--config FILE`` holding flat ``key = value`` lines, whose
keys are the subcommand's option names (``cost_limit`` for
``--cost-limit``) parsed as the flags are; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import tempfile

import numpy as np

from .bounds import grid_argmin_bound, mse_upper_bound
from .core import Dataset, _check_weight, center_columns, sums_of_squares
from .errors import CostLimitError, DegreesOfFreedomError, RankDeficiencyError
from .estimators import (
    AbcdParams,
    FixedWeight,
    OlsRule,
    PluginRule,
    estimate_abcd,
    gamma1_hat,
    loo_cv_scores,
    w_star,
)
from .harness import DEFAULT_ROWS, emit_table, run_experiment, scenario_plan
from .simgen import (
    STRONG_SPIKE,
    WEAK_SPIKE,
    LargePLargeN,
    Traditional,
    WeakIdentifiability,
)

WORKERS_ENV = "ALLOPCA_WORKERS"

DEFAULT_N_GRID = (20, 50, 100, 200, 500)
DEFAULT_P_GRID = (20, 50, 100)
DEFAULT_WEIGHT_GRID = (0.1, 0.2, 0.3, 0.4, 0.6)
_SCENARIO_NAMES = "table1, table2, table3a, table3b, custom"
# Options a scenario reads (or, for `bound`, derives); `_scenario_kind`
# refuses each one that the named scenario leaves unread.
_SCENARIO_OPTIONS = ("n", "p", "eta", "delta", "beta", "beta2", "a", "b", "c", "d", "q")


class CliError(Exception):
    """Usage or validation problem; maps to exit code 2."""


class NumericFailure(Exception):
    """Internal numeric self-check failed; maps to exit code 1."""


def _number_list(text: str, parse, noun: str) -> tuple:
    """The comma-separated values of a list flag or config key; an empty list is refused."""
    try:
        values = tuple(parse(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one {noun}, got {text!r}")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    return _number_list(text, int, "integer")


def _float_list(text: str) -> tuple[float, ...]:
    return _number_list(text, float, "number")


def _load_config(path: str, command: str, actions) -> dict:
    """Read `key = value` lines; each key is an option of `command`, parsed as its flag."""
    options = {a.dest: a for a in actions if a.option_strings and a.dest not in ("help", "config")}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected `key = value`, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        action = options.get(key)
        if action is None:
            raise CliError(f"{path}:{lineno}: `{command}` takes no config key `{key}`")
        try:
            values[key] = (action.type or str)(raw.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CliError(f"{path}:{lineno}: bad value for `{key}`: {exc}")
        if action.choices is not None and values[key] not in action.choices:
            raise CliError(f"{path}:{lineno}: bad value for `{key}`: choose from "
                           f"{', '.join(action.choices)}")
    return values


def _merge_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    values = _load_config(args.config, args.command, args.actions)
    for key, val in values.items():
        if getattr(args, key) is None:
            setattr(args, key, val)


def _resolve_workers(args: argparse.Namespace) -> int:
    workers = args.workers
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is not None:
            try:
                workers = int(raw)
            except ValueError:
                raise CliError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
        else:
            workers = 1
    if workers < 1:
        raise CliError(f"worker count must be >= 1, got {workers}")
    return workers


def _read_matrix_csv(path: str, flag: str) -> np.ndarray:
    """Read a numeric CSV matrix, skipping one header row if present."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw_rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise CliError(f"cannot read `{flag}` file: {exc}")
    if not raw_rows:
        raise CliError(f"`{flag}` file {path} is empty")

    def _parse(row):
        return [float(cell) for cell in row]

    start = 0
    try:
        _parse(raw_rows[0])
    except ValueError:
        start = 1  # header row
    if start == len(raw_rows):
        raise CliError(f"`{flag}` file {path} has a header but no data rows")
    width = len(raw_rows[start])
    data = []
    for i, row in enumerate(raw_rows[start:], start=start + 1):
        if len(row) != width:
            raise CliError(
                f"`{flag}` file {path}: row {i} has {len(row)} fields, expected {width}"
            )
        try:
            data.append(_parse(row))
        except ValueError as exc:
            raise CliError(f"`{flag}` file {path}: row {i}: {exc}")
    return np.asarray(data, dtype=float)


def write_matrix_csv(path: str, matrix: np.ndarray, header: list[str] | None = None) -> None:
    """Write a matrix at full double precision (17 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    for row in np.atleast_2d(matrix):
        writer.writerow([f"{v:.17g}" for v in row])
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _deliver(args: argparse.Namespace, text: str) -> None:
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _load_dataset(args: argparse.Namespace) -> Dataset:
    if not args.y or not args.x:
        raise CliError("both `--y` and `--x` CSV files are required")
    ymat = _read_matrix_csv(args.y, "--y")
    xmat = _read_matrix_csv(args.x, "--x")
    if ymat.shape[0] != xmat.shape[0]:
        raise CliError(
            f"`--y` has {ymat.shape[0]} rows but `--x` has {xmat.shape[0]}; "
            f"observations must match"
        )
    return Dataset(ymat, center_columns(xmat))


def _fixed_rows(weights) -> list[tuple[str, FixedWeight]]:
    rows = list(DEFAULT_ROWS[:3])  # total, residual and regression
    for w in weights:
        rows.append((f"w={w:g}", FixedWeight(_check_weight(w, "`--weights` entry"))))
    return rows


def _scenario_kind(args: argparse.Namespace, custom_ok: bool = True):
    """The regime kind named by `--scenario` (and `--eta`/`--delta`/`--beta`/`--beta2`).

    `custom` needs the growth exponents, which only `simulate` takes; the
    `bound` command passes `custom_ok=False` to refuse it.  A scenario
    option the kind does not read (a size off its axis, another
    scenario's exponent, or a bound summary the scenario derives), from a
    flag or a config file, is refused, not ignored.
    """
    scenario = args.scenario
    if scenario is None:
        raise CliError(f"`--scenario` is required; choose from {_SCENARIO_NAMES}")
    params = ()
    if scenario == "table1":
        kind = Traditional()
    elif scenario == "table2":
        if args.eta is None:
            raise CliError("`--eta` is required for scenario table2")
        kind = WeakIdentifiability(args.eta)
        params = ("eta",)
    elif scenario == "table3a":
        kind = WEAK_SPIKE
    elif scenario == "table3b":
        kind = STRONG_SPIKE
    elif scenario == "custom":
        if not custom_ok:
            raise CliError("scenario 'custom' cannot parameterize the bound")
        if args.delta is None or args.beta is None:
            raise CliError("custom scenario needs `--delta` and `--beta`")
        kind = LargePLargeN(args.delta, args.beta, args.beta2 if args.beta2 is not None else 0.0)
        params = ("delta", "beta", "beta2")
    else:
        raise CliError(f"unknown `--scenario` value {scenario!r}; choose from {_SCENARIO_NAMES}")
    for name in _SCENARIO_OPTIONS:
        if name not in (kind.axis, *params) and getattr(args, name, None) is not None:
            raise CliError(f"scenario {scenario} grows along `--{kind.axis}`; "
                           f"`--{name}` (config key `{name}`) does not apply")
    return kind


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    kind = _scenario_kind(args)
    reps = args.reps if args.reps is not None else 200
    seed = args.seed if args.seed is not None else 0
    fmt = args.format if args.format is not None else "csv"
    workers = _resolve_workers(args)
    sizes = getattr(args, kind.axis) or (DEFAULT_N_GRID if kind.axis == "n" else DEFAULT_P_GRID)
    plan = scenario_plan(kind, sizes, reps, seed, cost_limit_seconds=args.cost_limit)

    print(f"scenario {args.scenario}: replications={plan.replications} "
          f"seed={plan.master_seed} workers={workers}", file=sys.stderr)
    for label, spec in zip(plan.point_labels, plan.points):
        print(
            f"  {label}: p={spec.p} q={spec.q} n={spec.n} "
            f"lambda1={spec.lambda1:.6g} lambda2={spec.lambda2:.6g}",
            file=sys.stderr,
        )
    result = run_experiment(plan, workers=workers)
    _deliver(args, emit_table(result, fmt))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    print(f"data: n={data.n} p={data.p} q={data.q}", file=sys.stderr)
    ss = sums_of_squares(data)
    plugin = estimate_abcd(ss)
    weights = args.weights if args.weights is not None else DEFAULT_WEIGHT_GRID
    columns = [(label, rule.w) for label, rule in _fixed_rows(weights)]
    columns.append(("plugin", plugin.w_hat))
    vectors = [gamma1_hat(ss, w).vector for _, w in columns]
    tr_sig = float(np.trace(plugin.sigma_hat))
    buf = io.StringIO()
    buf.write(f"# n = {data.n}, p = {data.p}, q = {data.q}\n")
    buf.write(f"# lambda1_hat = {plugin.lambda1_hat:.10g}\n")
    buf.write(f"# lambda2_hat = {plugin.lambda2_hat:.10g}\n")
    buf.write(f"# contribution_ratio_1 = {plugin.lambda1_hat / tr_sig:.10g}\n")
    buf.write(f"# contribution_ratio_2 = {plugin.lambda2_hat / tr_sig:.10g}\n")
    buf.write(f"# w_hat_raw = {plugin.w_hat_raw:.10g}\n")
    buf.write(f"# w_hat = {plugin.w_hat:.10g}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["coordinate", *(label for label, _ in columns)])
    for i in range(data.p):
        writer.writerow([i + 1, *(f"{vec[i]:.10g}" for vec in vectors)])
    _deliver(args, buf.getvalue())
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    print(f"data: n={data.n} p={data.p} q={data.q}", file=sys.stderr)
    weights = args.weights if args.weights is not None else DEFAULT_WEIGHT_GRID
    rules = [(label, rule) for label, rule in _fixed_rows(weights)]
    rules.append(("plugin", PluginRule()))
    rules.append(("ols", OlsRule()))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rule", "mspe"])
    scores = loo_cv_scores(data, [rule for _, rule in rules])
    for (label, _), mspe in zip(rules, scores):
        writer.writerow([label, f"{mspe:.3f}"])
    _deliver(args, buf.getvalue())
    return 0


def _derive_bound_params(args: argparse.Namespace) -> AbcdParams:
    if args.scenario is not None:
        kind = _scenario_kind(args, custom_ok=False)
        sizes = getattr(args, kind.axis)
        if not sizes or len(sizes) != 1:
            raise CliError(f"scenario {args.scenario} needs a single `--{kind.axis}` value")
        spec = kind.model_spec(sizes[0], args.seed if args.seed is not None else 0)
        # expected signal energy for a centered standard-normal design
        c = float(spec.alpha @ spec.alpha) * (spec.n - 1)
        return AbcdParams.from_spectrum(spec.lambdas, c, spec.q, spec.n)
    for name in ("p", "eta", "seed"):
        if getattr(args, name) is not None:
            raise CliError(f"`--{name}` (config key `{name}`) needs `--scenario`")
    missing = [f"--{k}" for k in ("a", "b", "c", "d", "q") if getattr(args, k) is None]
    if not args.n or len(args.n) != 1:
        missing.append("--n")
    if missing:
        raise CliError(
            f"bound needs {', '.join(missing)} (or `--scenario` to derive them)"
        )
    return AbcdParams(args.a, args.b, args.c, args.d, args.q, args.n[0])


def _cmd_bound(args: argparse.Namespace) -> int:
    params = _derive_bound_params(args)
    step = args.step if args.step is not None else 1e-4
    ws = w_star(params)
    argmin = grid_argmin_bound(params, step)
    if abs(argmin - ws) > 2.0 * step:
        raise NumericFailure(
            f"bound grid argmin {argmin:.6g} disagrees with the closed-form "
            f"optimum {ws:.6g} beyond 2 * step"
        )
    print(
        f"params: a={params.a:.6g} b={params.b:.6g} c={params.c:.6g} "
        f"d={params.d:.6g} q={params.q} n={params.n}",
        file=sys.stderr,
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "value"])
    writer.writerow(["w_star", f"{ws:.17g}"])
    writer.writerow(["grid_argmin", f"{argmin:.17g}"])
    writer.writerow(["bound_at_w_star", f"{mse_upper_bound(params, ws):.17g}"])
    for w in np.linspace(0.0, 1.0, 11):
        writer.writerow([f"bound(w={w:.1f})", f"{mse_upper_bound(params, float(w)):.17g}"])
    _deliver(args, buf.getvalue())
    return 0


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, func) -> None:
    sub.add_argument("--config", help="flat key = value file of this command's options; flags win")
    sub.add_argument("--out", help="output path (atomic write); default stdout")
    sub.set_defaults(func=func, actions=sub._actions)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allopca",
        description="Weighted sum-of-squares estimators of a shared principal axis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run a Monte Carlo scenario")
    sim.add_argument("--scenario", help=f"one of {_SCENARIO_NAMES}")
    sim.add_argument("--n", type=_int_list, help="comma-separated sample sizes")
    sim.add_argument("--p", type=_int_list, help="comma-separated dimensions")
    sim.add_argument("--eta", type=float, help="eigengap exponent (table2)")
    sim.add_argument("--delta", type=float, help="n = floor(p^delta) (custom)")
    sim.add_argument("--beta", type=float, help="leading spike exponent (custom)")
    sim.add_argument("--beta2", type=float, help="second spike exponent (custom)")
    sim.add_argument("--reps", type=int, help="replications per point (default 200)")
    sim.add_argument("--cost-limit", dest="cost_limit", type=float,
                     help="refuse plans estimated to exceed this many seconds")
    sim.add_argument("--format", choices=("csv", "markdown"), help="table format")
    sim.add_argument("--seed", type=int, help="master seed (default 0)")
    sim.add_argument("--workers", type=int,
                     help=f"worker processes (default ${WORKERS_ENV} or 1)")
    _add_common(sim, _cmd_simulate)

    est = subs.add_parser("estimate", help="fit estimators to CSV data")
    est.add_argument("--y", help="response matrix CSV (n rows, p columns)")
    est.add_argument("--x", help="design matrix CSV (n rows, q columns)")
    est.add_argument("--weights", type=_float_list,
                     help="fixed weight grid (default 0.1,0.2,0.3,0.4,0.6)")
    _add_common(est, _cmd_estimate)

    cv = subs.add_parser("cv", help="leave-one-out comparison of weight rules")
    cv.add_argument("--y", help="response matrix CSV")
    cv.add_argument("--x", help="design matrix CSV")
    cv.add_argument("--weights", type=_float_list,
                    help="fixed weight grid (default 0.1,0.2,0.3,0.4,0.6)")
    _add_common(cv, _cmd_cv)

    bnd = subs.add_parser("bound", help="closed-form error bound and its optimum")
    bnd.add_argument("--a", type=float, help="tr(Sigma^2) + (tr Sigma)^2")
    bnd.add_argument("--b", type=float, help="lambda1 + tr Sigma")
    bnd.add_argument("--c", type=float, help="signal energy ||X alpha||^2")
    bnd.add_argument("--d", type=float, help="eigengap lambda1 - lambda2")
    bnd.add_argument("--q", type=int, help="design rank")
    bnd.add_argument("--n", type=_int_list, help="sample size")
    bnd.add_argument("--p", type=_int_list, help="dimension (table3 scenarios)")
    bnd.add_argument("--eta", type=float, help="eigengap exponent (table2)")
    bnd.add_argument("--scenario", help="derive parameters from a scenario")
    bnd.add_argument("--step", type=float, help="grid spacing (default 1e-4)")
    bnd.add_argument("--seed", type=int, help="basis seed of a scenario (default 0)")
    _add_common(bnd, _cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DegreesOfFreedomError, RankDeficiencyError,
            CostLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
