"""Benchmark of the `allopca` command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload table1-serial --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

`--trace 0` first runs `python -m allopca.cli` (with PYTHONPATH=src) a
few times as a user would, for the peak RSS of the process tree, and
times fresh interpreters that import the package and build the
workload's inputs without running it (`setup_s`). It then imports the
CLI and calls `allopca.cli.main` with the same arguments back to back
for `--seconds`. Each call is split into steps (one replication, or one
fold fit) at the entries of one function, and the metrics are the sums,
over the steps, of the fastest wall and CPU time each step took. `--trace 1` alternates untraced and traced calls and
reports the per-layer numbers from `tracing.py`. Every output is checked
against the plain-numpy references that `oracle.py` writes, by
`checks.py`; a parallel workload must also print exactly the bytes of
its serial counterpart. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Nothing here sets BLAS or
OpenMP thread variables: they are recorded as found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (command, scenario, replications or cv sample size, workers).
# Each size makes one in-process command take 0.1-0.3 s, so that a run
# repeats each of its steps a hundred times or more.
WORKLOADS = {
    "table1-serial": ("simulate", "table1", 10, 1),
    "table3b-serial": ("simulate", "table3b", 4, 1),
    "cv-loo": ("cv", None, 50, None),
    # The parallel workloads are not in BENCHMARK.json: on a shared 2-core
    # machine their run-to-run spread exceeds any bound the format allows
    # (see README.md). Run them by hand.
    "table1-par2": ("simulate", "table1", 10, 2),
    "table3b-par2": ("simulate", "table3b", 4, 2),
}
# Each entry of this traced callable starts a new step of a command: one
# replication (simulate) or one fold fit or data load (cv).
STEP_MARK = {"simulate": "simgen.gen_dataset", "cv": "core.Dataset"}
SETUP_PROBES = 15
CLI_RUNS = 3
MIN_CALLS = 20
CLI_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "ALLOPCA_WORKERS")


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    err: str


class Checker:
    """Counts attempted and failed program runs and keeps the first problems."""

    def __init__(self, check, same_bytes: bool = True):
        self.check = check
        self.same_bytes = same_bytes
        self.expected: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def verify(self, code: int, text: str, what: str) -> None:
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            try:
                problems = self.check(text)
            except ValueError as exc:
                problems = [f"unparsable output: {exc}"]
        if not problems and self.expected is not None and text != self.expected:
            problems = ["output bytes differ from the reference run"]
        if self.same_bytes and self.expected is None and not problems:
            self.expected = text
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_process(cmd: list[str], env: dict, root: str, work: str) -> Run:
    """Run to completion; CPU and peak RSS cover the whole reaped process tree."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=root,
                                start_new_session=True)
        timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, out.read().decode(), err.read().decode())


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def provenance(root: str, args, cli_argv: list[str], environment: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.blake2b(digest_size=16)
    src = os.path.join(root, "src", "allopca")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cli_argv": cli_argv,
        "git_commit": commit, "src_digest": digest.hexdigest(),
        "python": sys.version, **environment,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def cli_processes(cmd, env, root, work, checker) -> tuple[dict, dict]:
    """A few CLI runs as a user makes them: checked output and peak RSS."""
    runs = [run_process(cmd, env, root, work) for _ in range(CLI_RUNS)]
    for k, run in enumerate(runs):
        checker.verify(run.code, run.out, f"CLI process {k}")
    metrics = {"peak_rss_mb": statistics.median(r.rss_mb for r in runs)}
    detail = {"process_samples": [[r.wall, r.cpu, r.rss_mb, r.code] for r in runs]}
    return metrics, detail


def load_cli(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import allopca.cli as cli
    return cli


def call_main(cli, argv: list[str], checker, what: str, clock=None) -> list[tuple[float, float]]:
    """One in-process CLI command, output checked: wall and CPU seconds of each step.

    Without a `tracing.StepClock` the command is one step. With one, the
    steps run from the call to the first mark, from mark to mark, and from
    the last mark to the return.
    """
    marks = clock.marks if clock is not None else []
    marks.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = (time.perf_counter(), cpu_seconds())
        code = cli.main(list(argv))
        end = (time.perf_counter(), cpu_seconds())
    checker.verify(code, out.getvalue(), what)
    points = [start, *marks, end]
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:])]


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def timed_calls(cli, argv, kind, checker, seconds, probe) -> tuple[dict, dict]:
    """In-process CLI commands back to back for `seconds`; the fastest of each step.

    Every command does the same work, split into the same steps. For each
    step the fastest time over the run's commands is kept, and the metrics
    are the sums of those: a command's time on an unloaded host. The
    SETUP_PROBES set-up probes are spread evenly over the same window, so
    that their median covers the host's speed swings as the calls do.
    """
    import tracing

    clock = tracing.StepClock(cpu_seconds)
    commands: list[list[tuple[float, float]]] = []
    walls: list[float] = []
    with clock.installed((STEP_MARK[kind],)):
        call_main(cli, argv, checker, "in-process warm-up call", clock)
        probes = 0
        t0 = time.perf_counter()
        while len(walls) < MIN_CALLS or (
                time.perf_counter() - t0 + statistics.median(walls) <= seconds):
            if probes < SETUP_PROBES and time.perf_counter() - t0 >= seconds * probes / SETUP_PROBES:
                probe()
                probes += 1
            commands.append(call_main(cli, argv, checker, f"in-process call {len(walls)}", clock))
            walls.append(sum(w for w, _ in commands[-1]))
    for _ in range(probes, SETUP_PROBES):
        probe()
    cpus = [sum(u for _, u in c) for c in commands]
    shapes = {len(c) for c in commands}
    if len(shapes) != 1:
        checker.failed += 1
        checker.problems.append(f"commands split into different step counts {sorted(shapes)}")
        commands = [[(w, u)] for w, u in zip(walls, cpus)]
    steps = list(zip(*commands))
    metrics = {"run_floor_ms": 1e3 * sum(min(w for w, _ in step) for step in steps),
               "cpu_floor_ms": 1e3 * sum(min(u for _, u in step) for step in steps)}
    q1, q3 = quartiles(walls)
    detail = {"calls": len(walls), "steps_per_call": len(steps),
              "run_ms_median": 1e3 * statistics.median(walls),
              "run_ms_q1": 1e3 * q1, "run_ms_q3": 1e3 * q3,
              "run_ms_p90": 1e3 * statistics.quantiles(walls, n=10)[-1],
              "run_ms_min": 1e3 * min(walls), "cpu_ms_median": 1e3 * statistics.median(cpus),
              "samples": [[w, c] for w, c in zip(walls, cpus)]}
    return metrics, detail


def traced(cli, cli_argv, checker, seconds, trace_path) -> tuple[dict, dict]:
    """In-process runs, alternating untraced and traced, for `seconds`."""
    import tracing

    plain, spans = tracing.Tracer(record=False), tracing.Tracer()
    call_main(cli, cli_argv, checker, "in-process warm-up call")  # first-call costs stay out
    walls: dict[bool, list[float]] = {False: [], True: []}
    t0 = time.perf_counter()
    while not walls[True] or (
            time.perf_counter() - t0 + walls[False][-1] + walls[True][-1] <= seconds):
        for tracer, names in ((plain, ("harness.run_experiment",)), (spans, tuple(tracing.TRACED))):
            with tracer.installed(names):
                what = f"{'traced' if tracer is spans else 'untraced'} in-process call"
                walls[tracer is spans].append(call_main(cli, cli_argv, checker, what)[0][0])
    metrics = tracing.layer_metrics(spans)
    ratios = [r.metadata["estimated_seconds"] / r.metadata["wall_seconds"]
              for r in plain.experiments]
    metrics["harness.cost_estimate_ratio"] = statistics.median(ratios) if ratios else 0.0
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans.spans,
                   "ops": spans.ops}, fh)
    detail = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
              "ops": len(spans.ops), "spans": len(spans.spans), "span_file": trace_path,
              "note": "spans come from this process only; worker processes are not traced"}
    return metrics, detail


def run_workload(args, root: str, spec: dict) -> int:
    kind, scenario, reps, workers = WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    python = sys.executable
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # Inputs and the reference they must reproduce, both made from the seed.
    ref_path = os.path.join(work, f"reference-{tag}.json")
    if kind == "cv":
        ypath, xpath = (os.path.join(work, f"cv-seed{args.seed}-{v}.csv") for v in ("y", "x"))
        oracle_argv = ["cv", str(args.seed), str(reps), ypath, xpath, ref_path]
        cli_argv = ["cv", "--y", ypath, "--x", xpath]
        probe_argv = ["cv", ypath, xpath]
        ref_cmd = None
    else:
        base = ["simulate", "--scenario", scenario, "--reps", str(reps), "--seed", str(args.seed)]
        oracle_argv = ["simulate", scenario, str(reps), str(args.seed), ref_path]
        cli_argv = [*base, "--workers", str(workers)]
        probe_argv = ["simulate", scenario, str(reps), str(args.seed), str(workers)]
        ref_cmd = [python, "-m", "allopca.cli", *base, "--workers", "1"] if workers > 1 else None
    subprocess.run([python, os.path.join(HERE, "oracle.py"), *oracle_argv], check=True)
    with open(ref_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if kind == "cv":
        checker = Checker(lambda text: checks.check_cv(text, ref))
    else:
        paper = checks.check_reference(scenario, ref)
        checker = Checker(lambda text: checks.check_simulate(text, ref) + paper)

    # Set-up: fresh interpreters that import the CLI and build the inputs.
    probe_checker = Checker(lambda text: [] if "import_s" in json.loads(text) else ["no timings"],
                            same_bytes=False)
    probes: list[Run] = []

    def probe() -> None:
        run = run_process([python, os.path.join(HERE, "probe.py"), *probe_argv], env, root, work)
        probe_checker.verify(run.code, run.out, f"setup probe {len(probes)}: "
                                                f"{run.err.strip()[-200:]}")
        probes.append(run)

    # Program runs as subprocesses come first: once this process has loaded
    # numpy, a child it starts inherits its peak RSS.
    if ref_cmd is not None:
        run = run_process(ref_cmd, env, root, work)
        checker.verify(run.code, run.out, "serial reference run")
    if not args.trace:
        metrics, detail = cli_processes([python, "-m", "allopca.cli", *cli_argv],
                                        env, root, work, checker)
    cli = load_cli(root)
    if args.trace:
        for _ in range(SETUP_PROBES):
            probe()
        trace_path = os.path.join(work, f"spans-{tag}.json")
        metrics, detail = traced(cli, cli_argv, checker, args.seconds, trace_path)
        imports = [json.loads(r.out)["import_s"] for r in probes if r.code == 0]
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        wanted = spec["per_layer"]
    else:
        calls, calls_detail = timed_calls(cli, cli_argv, kind, checker, args.seconds, probe)
        metrics.update(calls, setup_s=statistics.median(r.wall for r in probes))
        detail.update(calls_detail)
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")

    attempted = checker.attempted + probe_checker.attempted
    failed = checker.failed + probe_checker.failed
    prov = provenance(root, args, cli_argv, ref["environment"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(work, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail, "setup_samples_s": [r.wall for r in probes],
                   "problems": checker.problems + probe_checker.problems, "provenance": prov},
                  fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} program runs checked")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        walls = [sample[0] for sample in detail["process_samples"]]
        print(f"  in-process call: median {detail['run_ms_median']:.2f} ms, quartiles "
              f"{detail['run_ms_q1']:.2f} / {detail['run_ms_q3']:.2f} ms, p90 "
              f"{detail['run_ms_p90']:.2f} ms, fastest {detail['run_ms_min']:.2f} ms over "
              f"{detail['calls']} calls of {detail['steps_per_call']} steps")
        print(f"  CLI process wall: median {statistics.median(walls):.4f} s over {CLI_RUNS} "
              f"processes; setup_s over {SETUP_PROBES} probes")
    else:
        print(f"  {detail['ops']} ops, {detail['spans']} spans written to {trace_path}; "
              f"worker processes are not traced")
    print(f"  failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for problem in (checker.problems + probe_checker.problems)[:10]:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every BENCHMARK.json workload in turn, each in its own interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("provenance ")))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, val in res["metrics"].items():
            total["metrics"][f"{wl['name']}/{name}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "allopca", "cli.py"))
            and os.path.isfile(spec_path)):
        print("error: run from the repository root (needs src/allopca and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
