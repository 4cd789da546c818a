"""Set-up probe: import the CLI and build one workload's inputs, then exit.

Run in a fresh interpreter with `src` on PYTHONPATH:

    python bench/probe.py simulate <scenario> <reps> <seed> <workers>
    python bench/probe.py cv <y.csv> <x.csv>

A simulate plan (including its random bases) is built through the CLI
itself with a cost limit no plan can meet, so the run is refused before
the first replication. A cv probe reads the two CSV files into a
`Dataset` the way `allopca cv` does. Prints one JSON line with the import
and build times; exits non-zero if the probe did not do what it should.
"""

import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import allopca.cli as cli
    t1 = time.perf_counter()
    if argv[0] == "simulate":
        scenario, reps, seed, workers = argv[1:]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--scenario", scenario, "--reps", reps, "--seed", seed,
                             "--workers", workers, "--cost-limit", "1e-9"])
        if code != 2 or "exceeds the configured limit" not in err.getvalue():
            print(f"plan probe did not stop at the cost limit: exit {code}: {err.getvalue()}",
                  file=sys.stderr)
            return 1
    else:
        args = cli.build_parser().parse_args(["cv", "--y", argv[1], "--x", argv[2]])
        cli._load_dataset(args)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
