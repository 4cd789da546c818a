"""Run-to-run spread of the end-to-end metrics, one workload over several seeds.

Run from the repository root:

    python3 bench/spread.py --workload table1-serial --seeds 400-409 --seconds 30

Runs `run.py` once per seed, one after the other, and prints for each
metric the median over the runs, the quartiles (`statistics.quantiles`,
n=4) and the distance between them as a share of the median, next to the
metric's bound in BENCHMARK.json. A benchmark is steady when every such
share stays well inside its bound. The last stdout line is one JSON
object with the per-run values and the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("400-404"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
             "--workload", args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"], capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "iqr_over_median": (q3 - q1) / median, "bound": bounds[name]}
        print(f"  {name:<14} median {median:.6g}  quartiles {q1:.6g} / {q3:.6g}  "
              f"iqr/median {(q3 - q1) / median:.3f}  bound {bounds[name]}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "values": values,
                      "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
