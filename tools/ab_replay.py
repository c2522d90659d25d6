"""Replay one benchmark op stream through two nefcert trees, alternating per op.

Usage: python3 tools/ab_replay.py SRC_A SRC_B [--workload W] [--seed S] [--ops N]

SRC_A and SRC_B are directories that hold a `nefcert` package (a checkout's
`src`, or the checkout itself). Each tree is imported under its own module
name, so both live in one process with their own memos. The first N ops of
`perfbench/workloads`' stream for W and S (default certify-wide, seed 1,
5000 ops) run through both trees: op i runs on A first when i is even and on
B first when it is odd, so a drift of the host's speed falls on both sides
alike. Every op's two results must have the same repr, trace included; the
first difference stops the replay with exit code 1. A tree whose certificates
derive their trace when read rebuilds its legs for that repr, through its own
leg memo, between ops: it can evict legs the next op reads, so that side's op
time reads high against a benchmark run, which takes no repr.

Prints, per side, the op time of each op class, the median op and the
11th-largest op (the benchmark's op_tail_ms), each beside the same figure
for the op followed by the benchmark's output check (`workloads.check_op`,
which reads every certificate field `certify --json` prints and is not op
time in a benchmark run): work that a change moves from an op into a field
derived when read shows in the second. certify ops fall in three
classes: eps (a perturbed run), cold (the first op of its weight vector) and
repeat; other ops are classed by their kind. The cli workload, whose ops are
subprocesses of one checkout, is not supported.

Reads perfbench/workloads.py and writes nothing. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (stdlib only)


def load_tree(source: str, name: str):
    """The nefcert package under source (or source/src), imported as name."""
    for root in (Path(source), Path(source) / "src"):
        init = root / "nefcert" / "__init__.py"
        if init.is_file():
            break
    else:
        sys.exit(f"error: no nefcert package under {source}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # relative imports inside the package resolve to name
    spec.loader.exec_module(module)
    return module


def op_class(op: dict, seen: set) -> str:
    if op["kind"] != "certify":
        return op["kind"]
    if op.get("eps"):
        return "eps"
    vector = (op["n"], op["m"], op["k"])
    if vector in seen:
        return "repeat"
    seen.add(vector)
    return "cold"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", default="certify-wide",
                        choices=[w for w in workloads.WORKLOADS if w != "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=5000)
    args = parser.parse_args(argv)

    trees = [load_tree(args.src_a, "nefcert_a"), load_tree(args.src_b, "nefcert_b")]
    # per side, op alone then op and check: class -> seconds, and op latencies
    times = [defaultdict(float) for _ in range(4)]
    counts: dict[str, int] = defaultdict(int)
    latencies: list[list[float]] = [[], [], [], []]
    seen: set = set()
    for index, op in enumerate(workloads.build_ops(args.workload, args.seed, args.ops)):
        kind = op_class(op, seen)
        counts[kind] += 1
        results, elapsed = [None, None], [0.0, 0.0]
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for side in order:
            start = time.perf_counter()
            results[side] = workloads.run_op(trees[side], op, None)
            elapsed[side] = time.perf_counter() - start
        if repr(results[0]) != repr(results[1]):
            print(f"op {index} differs: {op}", file=sys.stderr)
            return 1
        for side in order:
            start = time.perf_counter()
            workloads.check_op(op, results[side])
            checked = elapsed[side] + time.perf_counter() - start
            for column, seconds in ((side, elapsed[side]), (side + 2, checked)):
                times[column][kind] += seconds
                latencies[column].append(seconds * 1000)

    print(f"{args.workload} seed {args.seed}: {index + 1} ops, every repr equal")
    columns = range(4)
    print(f"{'':12}" + "".join(f"{name:>14}" for name in ("A", "B", "A+check", "B+check")))
    for kind in sorted(counts):
        print(f"{kind:>6} {counts[kind]:>5}" + "".join(
            f"{times[column][kind]:>12.3f} s" for column in columns))
    print(f"{'total':>12}" + "".join(f"{sum(times[column].values()):>12.3f} s"
                                     for column in columns))
    print(f"{'p50':>12}" + "".join(f"{statistics.median(latencies[column]):>11.2f} ms"
                                   for column in columns))
    tail = [sorted(column)[max(len(column) - 11, 0)] for column in latencies]
    print(f"{'11th op':>12}" + "".join(f"{value:>11.2f} ms" for value in tail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
