"""nefcert benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh interpreters
(perfbench/worker.py), one op at a time, from one process and one thread.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh interpreters going from start to the first op), throughput, median
and tail op latency, and peak resident memory, measured for S seconds.
--trace 1 runs a fixed prefix of the op stream with spans and counters
around nefcert's public functions, then the same prefix untraced, and
reports the per-layer metrics.

Every op's output is checked; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The lines before it name
every metric with its unit and record the interpreter, nproc, commit and
seed; a copy of the record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads  # stdlib only; sits next to this file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7
PROBE_SAMPLES = 11
WORKER_TIMEOUT = 170
# rounds in the traced prefix: enough for every layer the workload maps to
TRACE_ROUNDS = {"certify-wide": 3, "certify-deep": 2, "families": 10, "cli": 1}


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest-ranked latency that still
    has at least ten ops above it (the lowest one when there are fewer)."""
    return max(count - 11, 0)


def tail_percentile(count: int) -> float:
    return 100.0 * tail_index(count) / count if count else 0.0


def _worker(workload: str, seed: int, mode: str, *extra: str):
    """Start a worker, wait for READY; return (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--mode", mode, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} did not start")
    return proc, setup


def _finish(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh set-up-only workers. One unmeasured worker goes
    first, so that compiling the byte code of a fresh checkout is not counted."""
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        proc, seconds = _worker(workload, seed, "setup")
        proc.communicate(timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError("set-up worker failed")
        if index:
            samples.append(seconds)
    return samples


def _probe_ms(codes: list[str]) -> list[float]:
    """Median wall time, in ms, of fresh interpreters running each of `codes`.
    The codes alternate, so drift in host speed affects them alike."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times: list[list[float]] = [[] for _ in codes]
    for _ in range(PROBE_SAMPLES):
        for code, samples in zip(codes, times):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            samples.append((time.perf_counter() - start) * 1000)
    return [statistics.median(samples) for samples in times]


def timed_run(workload: str, seed: int, seconds: float):
    setups = setup_seconds(workload, seed)
    proc, seconds_to_ready = _worker(workload, seed, "run", "--seconds", str(seconds))
    result = _finish(proc)
    setups.append(seconds_to_ready)
    latencies = sorted(result["latencies_ms"])
    count = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (count / (sum(latencies) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (latencies[tail_index(count)], "ms"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }
    notes = [f"ops N={count}, op_tail_ms is p{tail_percentile(count):.2f} "
             f"({count - tail_index(count) - 1} ops above it)",
             f"error_rate {result['failed'] / count:.6g} ratio "
             f"({result['failed']} of {count} ops failed)"]
    return result, metrics, notes


def trace_run(workload: str, seed: int):
    prefix = str(TRACE_ROUNDS[workload] * workloads.ROUND_OPS[workload])
    proc, _ = _worker(workload, seed, "trace", "--ops", prefix)
    traced = _finish(proc)
    proc, _ = _worker(workload, seed, "replay", "--ops", prefix)
    untraced = _finish(proc)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    startup = import_ms = work = 0.0
    if workload == "cli":
        startup, imported = _probe_ms(["pass", "import nefcert.cli"])
        import_ms = imported - startup
        work = statistics.median(untraced["latencies_ms"]) - startup - import_ms
    metrics["cli.startup_ms"] = (startup, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.work_ms"] = (work, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(traced["latencies_ms"]) / sum(untraced["latencies_ms"]), "ratio")
    result = {"attempted": traced["attempted"] + untraced["attempted"],
              "failed": traced["failed"] + untraced["failed"],
              "problems": traced["problems"] + untraced["problems"]}
    notes = [f"traced prefix of {prefix} ops; spans in perfbench/out/"
             f"spans-{workload}-{seed}.json"]
    return result, metrics, notes


def run_record(workload: str, seed: int, trace: int) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                text=True, capture_output=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    source = hashlib.sha256()
    package = os.path.join(ROOT, "src", "nefcert")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": source.hexdigest()[:16],
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nefcert benchmark, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nefcert", "__init__.py")):
        print("error: src/nefcert not found; run from the root of a nefcert checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    record = run_record(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            result, metrics, notes = trace_run(args.workload, args.seed)
        else:
            result, metrics, notes = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print("# " + " ".join(f"{key}={value}" for key, value in record.items()))
    for note in notes:
        print("# " + note)
    for problem in result["problems"]:
        print("# failed: " + problem)
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"record": record, "notes": notes, **summary}, handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
