"""One benchmark process: imports nefcert, builds one workload's inputs, and
runs its ops one at a time.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [...]

Modes:
  setup    build the inputs, print READY and exit (a set-up time sample)
  run      after READY, run whole rounds of ops until --seconds have passed
           since the first op
  trace    run the first --ops ops with the tracer installed
  replay   run the first --ops ops untraced (the tracing-overhead baseline)
  goldens  run the first --ops ops of the default seed and store their digests

After READY the process prints one JSON line with its results. The check
against the goldens applies to the default seed only; the invariants in
``workloads.check_op`` apply to every seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import tempfile
import time

import workloads  # stdlib only; sits next to this file
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens")

def golden_path(workload: str) -> str:
    return os.path.join(GOLDENS, f"{workload}.json")


def load_goldens(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED or not os.path.exists(golden_path(workload)):
        return None
    with open(golden_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


def inputs_digest(workload: str, seed: int, how_many: int) -> str:
    return workloads.digest(workloads.build_ops(workload, seed, how_many))


class OpStream:
    """A workload's op stream with its run context, as built during set-up.

    Ops are generated as they are needed and not kept, so memory does not
    grow with the number of ops a run completes."""

    def __init__(self, workload: str, seed: int, workdir: str | None):
        # the cli workload only needs the command layer importable
        importlib.import_module("nefcert.cli" if workload == "cli" else "nefcert")
        self.nefcert = sys.modules["nefcert"]
        self.cli = workloads.CliContext(ROOT, workdir) if workload == "cli" else None
        self._generator = workloads.GENERATORS[workload](seed)
        # set-up builds the first round; later ops are generated between ops,
        # outside op time
        self.round_ops = workloads.ROUND_OPS[workload]
        self._ready = [self._next() for _ in range(self.round_ops)]

    def _next(self) -> dict:
        op = next(self._generator)
        if self.cli is not None:
            self.cli.write_family(op)
        return op

    def ops(self):
        ready, self._ready = self._ready, []
        yield from ready
        while True:
            yield self._next()


def run_ops(stream: OpStream, limit: int | None, seconds: float | None,
            goldens=None, tracer=None, digests: list | None = None) -> dict:
    """Run ops in order: `limit` ops, or whole rounds until `seconds` have
    passed since the first op. Output digests are appended to `digests` when
    it is given."""
    latencies, problems = [], []
    failed = 0
    deadline = None
    index = 0
    ops = stream.ops()
    while (limit is None or index < limit) and (
            deadline is None or index % stream.round_ops
            or time.perf_counter() < deadline):
        op = next(ops)
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        if deadline is None and seconds is not None:
            deadline = start + seconds
        try:
            result = workloads.run_op(stream.nefcert, op, stream.cli)
            error = None
        except Exception as err:  # a raising op is a failed op, not a crash
            error = f"op {index}: {type(err).__name__}: {err}"
        latencies.append((time.perf_counter() - start) * 1000)
        if tracer is not None:
            tracer.end_op()
        if error is None:
            out_digest, found = workloads.check_op(op, result)
            if goldens and index < len(goldens["outputs"]) \
                    and goldens["outputs"][index] != out_digest:
                found = found + [f"output digest {out_digest} != golden "
                                 f"{goldens['outputs'][index]}"]
            if digests is not None:
                digests.append(out_digest)
            error = f"op {index}: " + "; ".join(found) if found else None
        if error is not None:
            failed += 1
            problems.append(error)
        index += 1
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if stream.cli
                               else resource.RUSAGE_SELF)
    return {"latencies_ms": latencies, "attempted": index, "failed": failed,
            "problems": problems[:10],
            "rss_mb": usage.ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "replay", "goldens"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        stream = OpStream(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = _dispatch(args, stream)
    print(json.dumps(result), flush=True)
    return 0


def _dispatch(args, stream: OpStream) -> dict:
    workload, seed = args.workload, args.seed
    if args.mode == "run":
        goldens = load_goldens(workload, seed)
        result = run_ops(stream, None, args.seconds, goldens)
        if goldens and inputs_digest(workload, seed, goldens["ops"]) != goldens["inputs"]:
            result["failed"] = result["attempted"]
            result["problems"].insert(0, "generated inputs differ from the goldens'")
        return result
    if args.mode == "goldens":
        digests: list[str] = []
        result = run_ops(stream, args.ops, None, digests=digests)
        if result["failed"]:
            raise SystemExit(f"not storing goldens: {result['problems']}")
        os.makedirs(GOLDENS, exist_ok=True)
        with open(golden_path(workload), "w", encoding="utf-8") as handle:
            json.dump({"seed": seed, "ops": args.ops,
                       "inputs": inputs_digest(workload, seed, args.ops),
                       "outputs": digests}, handle, indent=0)
            handle.write("\n")
        return {"attempted": result["attempted"], "failed": 0}
    goldens = load_goldens(workload, seed)
    if args.mode == "replay":
        result = run_ops(stream, args.ops, None, goldens)
    else:
        spans = Tracer().install()
        try:
            result = run_ops(stream, args.ops, None, goldens, spans)
        finally:
            spans.uninstall()
        result["layers"] = spans.layer_metrics()
        spans.write(os.path.join(OUT, f"spans-{workload}-{seed}.json"))
    return result


if __name__ == "__main__":
    sys.exit(main())
