"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SIZES = {"certify-wide": 40, "certify-deep": 40, "families": 500, "cli": 45}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    size = SIZES[name]
    first = workloads.build_ops(name, 3, size)
    assert first == workloads.build_ops(name, 3, size)
    assert first != workloads.build_ops(name, 4, size)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rounds_repeat_their_shape(name):
    size = workloads.ROUND_OPS[name]
    ops = workloads.build_ops(name, 3, 4 * size)
    shape = [op.get("kind") or op["argv"][:2] for op in ops]
    if name == "families":  # the long-chain slot alternates g_series, f_values
        shape = ["long" if kind in ("gseries", "fvalues") else kind for kind in shape]
    assert shape[:size] * 4 == shape


def test_deep_vectors_never_repeat_and_wide_mostly_repeat():
    deep = [(op["n"], op["m"], op["k"]) for op in workloads.build_ops("certify-deep", 5, 400)]
    assert len(set(deep)) == len(deep)
    assert all(8 <= k <= workloads.DEEP_K_LIMIT for _, _, k in deep)
    seen, repeats = set(), 0
    wide = workloads.build_ops("certify-wide", 5, 110)
    for op in wide:
        vector = (op["n"], op["m"], op["k"])
        repeats += vector in seen
        seen.add(vector)
    assert 0.75 <= repeats / len(wide) <= 0.85


def test_eps_keys_are_canonical_and_admissible():
    for op in workloads.build_ops("certify-wide", 7, 200):
        for i, j, _ in op.get("eps", ()):
            n, m, k = op["n"], op["m"], op["k"]
            assert (i, j) in workloads.canonical_keys(n, m, k)


def test_tail_has_at_least_ten_ops_beyond():
    for count in range(1, 400):
        index = run.tail_index(count)
        above = count - 1 - index  # latencies are ranks 0..count-1
        if count >= 11:
            assert above == 10, count  # the highest such rank: one up has nine
        else:
            assert index == 0, count


def test_self_time_of_nested_calls():
    # a(0..10) holds b(1..4) and c(5..9); c holds d(6..8)
    spans = [("a", 0.0, 10.0, None), ("b", 1.0, 4.0, 0),
             ("c", 5.0, 9.0, 0), ("d", 6.0, 8.0, 2), ("b", 10.5, 11.0, None)]
    totals = tracer.self_times(spans)
    assert totals["a"] == (1, 3.0)
    assert totals["b"] == (2, 3.5)
    assert totals["c"] == (1, 2.0)
    assert totals["d"] == (1, 2.0)


def _traced_counts(name: str, ops: int) -> dict:
    stream = worker.OpStream(name, 2, None)
    spans = tracer.Tracer().install()
    try:
        result = worker.run_ops(stream, ops, None, None, spans)
    finally:
        spans.uninstall()
    assert result["failed"] == 0, result["problems"]
    return {key: value for key, (value, unit) in spans.layer_metrics().items()
            if unit == "count"}


@pytest.mark.parametrize("name,ops", [("families", 240), ("certify-deep", 2)])
def test_counts_repeat_exactly_across_traced_runs(name, ops):
    first = _traced_counts(name, ops)
    assert first == _traced_counts(name, ops)
    assert any(first.values())


def test_uninstall_restores_every_namespace():
    import nefcert
    import nefcert.positivity
    before = nefcert.positivity.reachable_strata
    spans = tracer.Tracer().install()
    assert nefcert.reachable_strata is nefcert.positivity.reachable_strata is not before
    spans.uninstall()
    assert nefcert.reachable_strata is nefcert.positivity.reachable_strata is before


def test_checks_flag_wrong_outputs():
    op = {"kind": "certify", "n": 7, "m": 0, "k": 2, "role": "lo", "c": "2/3"}
    import nefcert
    cert = nefcert.certify_interval(7, 0, 2, "7/10")
    _, problems = workloads.check_op(op, cert)
    assert problems  # a strictly positive verdict claimed at the lower endpoint
    op = {"kind": "gseries"}
    assert workloads.check_op(op, [1, 0])[1] == []
    assert workloads.check_op(op, [0, 1])[1]
