"""Command-line interface.

Four subcommands:

- ``simulate``: run a named (or custom) Monte Carlo scenario and print the
  mean-error table;
- ``estimate``: fit the weighted estimators to response/design CSV files;
- ``cv``: leave-one-out prediction-error comparison of weight rules;
- ``bound``: evaluate the closed-form error bound and cross-check its
  minimum, bound(w_star), against a grid search.

Exit codes: 0 on success, 2 for usage or validation problems (bad flags,
malformed files, infeasible sizes), 1 for internal numeric failures.
Each subcommand takes only the options it reads.  They may also be
supplied via ``--config FILE`` holding flat ``key = value`` lines, whose
keys are the subcommand's option names (``cost_limit`` for
``--cost-limit``) parsed as the flags are.  A config file's values become
the subcommand's defaults, so explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from .bounds import grid_argmin_bound, mse_upper_bound
from .core import (
    Dataset,
    _check_dimension,
    _check_plugin_dof,
    _check_weight,
    _scatter_stack,
    center_columns,
)
from .errors import NumericFailure
from .estimators import (
    AbcdParams,
    FixedWeight,
    OlsRule,
    PluginRule,
    _leading_axes,
    loo_cv_scores,
    w_star,
)
from .harness import (
    DEFAULT_ROWS,
    _csv_text,
    _scenario_seconds,
    emit_table,
    run_experiment,
    scenario_plan,
)
from .simgen import (
    DESIGN_ALPHA,
    STRONG_SPIKE,
    WEAK_SPIKE,
    LargePLargeN,
    Traditional,
    WeakIdentifiability,
)

DEFAULT_N_GRID = (20, 50, 100, 200, 500)
DEFAULT_P_GRID = (20, 50, 100)
DEFAULT_WEIGHT_GRID = (0.1, 0.2, 0.3, 0.4, 0.6)
_SCENARIO_NAMES = "table1, table2, table3a, table3b, custom"
# Options a scenario reads (or, for `bound`, derives); `_scenario_kind`
# refuses each one that the named scenario leaves unread.
_SCENARIO_OPTIONS = ("n", "p", "eta", "delta", "beta", "beta2", "a", "b", "c", "d", "q")


class CliError(Exception):
    """Usage or validation problem; maps to exit code 2."""


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


def _positive_float(text: str) -> float:
    """A number > 0, such as the `--cost-limit` in seconds; NaN is refused."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _one_worker(text: str) -> int:
    """`--workers` is kept so that existing command lines parse; only 1 is accepted."""
    if text.strip() != "1":
        raise argparse.ArgumentTypeError(
            f"replications run in one process; `--workers` accepts only 1, got {text!r}")
    return 1


def _load_config(path: str, command: str, actions) -> dict:
    """Read `key = value` lines; each key is an option of `command`, parsed as its flag."""
    options = {a.dest: a for a in actions if a.option_strings and a.dest not in ("help", "config")}
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_matrix_csv(path: str, flag: str) -> np.ndarray:
    """Read a numeric CSV matrix, skipping a UTF-8 byte-order mark and one header row if present:
    a first row none of whose cells is a number, so that a typo in a data row is reported.

    The file is read once, and one `np.loadtxt` converts its non-blank rows
    past a header.  It parses a cell as `float` does, or refuses it (a quoted
    cell, `1_000`, a non-ASCII digit, an empty cell, a ragged row); then the
    lines are read cell by cell through `csv` and `float`
    (`_parse_matrix_rows`), which gives the values or the error that names
    the row.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read `{flag}` file: {exc}")
    # without a quote, a line's `csv` cells are its text split at the commas, so
    # these are the rows that `csv` finds not blank; a quote fails `np.loadtxt`
    rows = [line for line in lines if line.replace(",", "").strip()]
    if rows and '"' not in rows[0]:
        start = 0 if any(map(_is_number, rows[0].rstrip("\r\n").split(","))) else 1
        if start < len(rows):
            try:
                return np.loadtxt(rows[start:], delimiter=",", ndmin=2, comments=None)
            except ValueError:
                pass
    return _parse_matrix_rows(lines, path, flag)


def _parse_matrix_rows(lines: list[str], path: str, flag: str) -> np.ndarray:
    """`_read_matrix_csv` of the lines of a file, cell by cell through `csv` and `float`."""
    try:
        raw_rows = [row for row in csv.reader(lines) if row and any(c.strip() for c in row)]
    except csv.Error as exc:  # such as a cell longer than `csv.field_size_limit()`
        raise CliError(f"`{flag}` file {path}: {exc}")
    if not raw_rows:
        raise CliError(f"`{flag}` file {path} is empty")
    start = 0 if any(map(_is_number, raw_rows[0])) else 1  # skip a header row
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
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise CliError(f"`{flag}` file {path}: row {i}: {exc}")
    return np.asarray(data, dtype=float)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file beside `path`; a failure names `path`."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write `--out` file {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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
    return [*DEFAULT_ROWS[:3],  # total, residual and regression
            *((f"w={w:g}", FixedWeight(_check_weight(w, "`--weights` entry"))) for w in weights)]


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
    sizes = getattr(args, kind.axis) or (DEFAULT_N_GRID if kind.axis == "n" else DEFAULT_P_GRID)
    if args.cost_limit is not None:
        seconds = _scenario_seconds(kind, sizes, args.reps)
        if seconds > args.cost_limit:
            raise CliError(f"estimated runtime {seconds:.1f}s exceeds the configured limit "
                           f"{args.cost_limit:.1f}s; reduce replications, grid or dimensions")
    plan = scenario_plan(kind, sizes, args.reps, args.seed)

    print(f"scenario {args.scenario}: replications={plan.replications} "
          f"seed={plan.master_seed}", file=sys.stderr)
    for label, spec in zip(plan.point_labels, plan.points):
        print(
            f"  {label}: p={spec.p} q={spec.q} n={spec.n} "
            f"lambda1={spec.lambda1:.6g} lambda2={spec.lambda2:.6g}",
            file=sys.stderr,
        )
    result = run_experiment(plan)
    _deliver(args, emit_table(result, args.format))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    print(f"data: n={data.n} p={data.p} q={data.q}", file=sys.stderr)
    fit = _scatter_stack(center_columns(data.y)[None], data.x[None])
    _check_dimension(data.p)
    _check_plugin_dof(data.n, data.q)
    labels, rules = zip(*_fixed_rows(args.weights), ("plugin", PluginRule()))
    _, vectors, _, _, plugin = _leading_axes(rules, *fit)
    vectors = vectors[0]
    lam1, lam2, tr_sig = (float(plugin[name][0])
                          for name in ("lambda1_hat", "lambda2_hat", "tr_sigma_hat"))
    # with no residual scatter (tr Sigma_hat = 0) the ratios are undefined, like w_hat_raw
    ratio1, ratio2 = (lam1 / tr_sig, lam2 / tr_sig) if tr_sig != 0.0 else (math.nan, math.nan)
    preamble = (f"# n = {data.n}, p = {data.p}, q = {data.q}\n"
                f"# lambda1_hat = {lam1:.10g}\n"
                f"# lambda2_hat = {lam2:.10g}\n"
                f"# contribution_ratio_1 = {ratio1:.10g}\n"
                f"# contribution_ratio_2 = {ratio2:.10g}\n"
                f"# w_hat_raw = {float(plugin['w_hat_raw'][0]):.10g}\n"
                f"# w_hat = {float(plugin['w_hat'][0]):.10g}\n")
    table = [["coordinate", *labels],
             *([i + 1, *(f"{vec[i]:.10g}" for vec in vectors)] for i in range(data.p))]
    _deliver(args, preamble + _csv_text(table))
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    data = _load_dataset(args)
    print(f"data: n={data.n} p={data.p} q={data.q}", file=sys.stderr)
    rules = [*_fixed_rows(args.weights), ("plugin", PluginRule()), ("ols", OlsRule())]
    scores = loo_cv_scores(data, [rule for _, rule in rules])
    table = [["rule", "mspe"], *([lab, f"{mspe:.10g}"] for (lab, _), mspe in zip(rules, scores))]
    _deliver(args, _csv_text(table))
    return 0


def _derive_bound_params(args: argparse.Namespace) -> AbcdParams:
    if args.scenario is not None:
        kind = _scenario_kind(args, custom_ok=False)
        sizes = getattr(args, kind.axis)
        if not sizes or len(sizes) != 1:
            raise CliError(f"scenario {args.scenario} needs a single `--{kind.axis}` value")
        n, lambdas = kind.spectrum(sizes[0])
        # expected signal energy ||X alpha||^2 for a centered standard-normal design
        c = sum(a * a for a in DESIGN_ALPHA) * (n - 1)
        return AbcdParams.from_spectrum(lambdas, c, len(DESIGN_ALPHA), n)
    for name in ("p", "eta"):
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
    ws = w_star(params)
    at_star = mse_upper_bound(params, ws)
    argmin = grid_argmin_bound(params, args.step)
    # no grid point's bound may fall below bound(w*) beyond the evaluation's rounding (where
    # c >> a, d the bound is flat to double precision near w*, and the argmin is noise)
    low = mse_upper_bound(params, argmin)
    if low < at_star * (1.0 - 64.0 * np.finfo(float).eps):
        raise NumericFailure(f"bound grid minimum {low:.6g} at w = {argmin:.6g} falls below "
                             f"bound(w_star = {ws:.6g}) = {at_star:.6g} beyond rounding")
    print(
        f"params: a={params.a:.6g} b={params.b:.6g} c={params.c:.6g} "
        f"d={params.d:.6g} q={params.q} n={params.n}",
        file=sys.stderr,
    )
    _deliver(args, _csv_text([
        ["quantity", "value"],
        ["w_star", f"{ws:.17g}"],
        ["grid_argmin", f"{argmin:.17g}"],
        ["bound_at_w_star", f"{at_star:.17g}"],
        *([f"bound(w={w:.1f})", f"{mse_upper_bound(params, float(w)):.17g}"]
          for w in np.linspace(0.0, 1.0, 11)),
    ]))
    return 0


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, func) -> None:
    sub.add_argument("--config", help="flat key = value file of this command's options; flags win")
    sub.add_argument("--out", help="output path (atomic write); default stdout")
    sub.set_defaults(func=func, parser=sub)


def _add_simulate(sim: argparse.ArgumentParser) -> None:
    sim.add_argument("--scenario", help=f"one of {_SCENARIO_NAMES}")
    sim.add_argument("--n", type=_int_list, help="comma-separated sample sizes")
    sim.add_argument("--p", type=_int_list, help="comma-separated dimensions")
    sim.add_argument("--eta", type=float, help="eigengap exponent (table2)")
    sim.add_argument("--delta", type=float, help="n = floor(p^delta) (custom)")
    sim.add_argument("--beta", type=float, help="leading spike exponent (custom)")
    sim.add_argument("--beta2", type=float, help="second spike exponent (custom)")
    sim.add_argument("--reps", type=int, default=200,
                     help="replications per point (default %(default)s)")
    sim.add_argument("--cost-limit", dest="cost_limit", type=_positive_float,
                     help="refuse plans estimated to exceed this many seconds (> 0)")
    sim.add_argument("--format", choices=("csv", "markdown"), default="csv",
                     help="table format (default %(default)s)")
    sim.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    sim.add_argument("--workers", type=_one_worker,
                     help="accepts only 1: replications run in one process")


def _add_data(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--y", help="response matrix CSV (n rows, p columns)")
    sub.add_argument("--x", help="design matrix CSV (n rows, q columns)")
    sub.add_argument("--weights", type=_float_list, default=DEFAULT_WEIGHT_GRID,
                     help=f"fixed weight grid (default {','.join(map(str, DEFAULT_WEIGHT_GRID))})")


def _add_bound(bnd: argparse.ArgumentParser) -> None:
    bnd.add_argument("--a", type=float, help="tr(Sigma^2) + (tr Sigma)^2")
    bnd.add_argument("--b", type=float, help="lambda1 + tr Sigma")
    bnd.add_argument("--c", type=float, help="signal energy ||X alpha||^2")
    bnd.add_argument("--d", type=float, help="eigengap lambda1 - lambda2")
    bnd.add_argument("--q", type=int, help="design rank")
    bnd.add_argument("--n", type=_int_list, help="sample size")
    bnd.add_argument("--p", type=_int_list, help="dimension (table3 scenarios)")
    bnd.add_argument("--eta", type=float, help="eigengap exponent (table2)")
    bnd.add_argument("--scenario", help="derive parameters from a scenario")
    bnd.add_argument("--step", type=float, default=1e-4,
                     help="grid spacing (default %(default)s)")


# each subcommand: name, help line, the function adding its own options, and its command
_COMMANDS = (
    ("simulate", "run a Monte Carlo scenario", _add_simulate, _cmd_simulate),
    ("estimate", "fit estimators to CSV data", _add_data, _cmd_estimate),
    ("cv", "leave-one-out comparison of weight rules", _add_data, _cmd_cv),
    ("bound", "closed-form error bound and its optimum", _add_bound, _cmd_bound),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser: `main` turns a config file's values into its subcommand's defaults.

    When `command` (`main` passes its first argument) names a subcommand,
    only that one is built: an argument list that starts with it reads no
    other, and the subcommands' metavar lists all four, so usage and error
    text are the full parser's byte for byte.  Otherwise every subcommand is
    built, and the help lists them.
    """
    # one help width for every parser: argparse queries the terminal once, not per argument
    new_parser = functools.partial(argparse.ArgumentParser, formatter_class=functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2))
    parser = new_parser(
        prog="allopca",
        description="Weighted sum-of-squares estimators of a shared principal axis",
    )
    named = [entry for entry in _COMMANDS if entry[0] == command]
    # a parser of one subcommand shows the full parser's choices through a metavar; the
    # full parser sets none, as argparse would put it in place of `command` in its errors
    metavar = {"metavar": "{" + ",".join(name for name, *_ in _COMMANDS) + "}"} if named else {}
    subs = parser.add_subparsers(dest="command", required=True, parser_class=new_parser, **metavar)
    for name, text, add_options, func in named or _COMMANDS:
        sub = subs.add_parser(name, help=text)
        add_options(sub)
        _add_common(sub, func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's values become the subcommand's defaults, so flags win
            values = _load_config(args.config, args.command, args.parser._actions)
            args.parser.set_defaults(**values)
            args = parser.parse_args(argv)
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise CliError(f"cannot write `--out` file {args.out}: its directory does not exist")
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
