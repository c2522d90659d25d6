"""Steadiness driver: run one workload N times and print each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--same-seed]

Each run is a separate `perfbench/run.py` process (so every op stream starts
in fresh interpreters), with seeds first-seed, first-seed+1, ... unless
--same-seed is given. For every metric it prints the median, the quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median, and for
end-to-end metrics the bound from BENCHMARK.json with a mark when the spread
is above a third of it.

Host noise seen while sizing the benchmark (2 vCPUs, Python 3.11.7): the same
certify_interval(20, 3, 4) call repeated 15 times in one process took 0.53 to
0.80 s, and wall and CPU time moved together, so the noise comes from the
host and not from scheduling. 2-second throughput buckets of one loop varied
by 14% (quartile spread), which is why every run measures many ops.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one workload N times")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for run in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else run)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"run {run} (seed {seed}) failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        summary = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            if name in bounds:
                summary.append(f"{name}={metric['value']:.4g}")
        print(f"# run {run} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(summary), flush=True)

    print(f"{'metric':44} {'unit':>9} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and not spread < bound / 3:
            mark = "  above bound/3"
        print(f"{name:44} {units[name]:>9} {median:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{spread:7.3f} {bound if bound is not None else '':>6}{mark}")
    print(f"# failed ops over all runs: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
