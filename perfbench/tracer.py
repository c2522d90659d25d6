"""In-memory spans and counters around nefcert's public functions.

The tracer replaces each listed function in every nefcert module namespace
that holds it, so calls made inside the package (positivity calling its own
``reachable_strata``, or ``pullback_reduction`` imported from morphisms) are
caught as well as calls from the benchmark. Functions called tens of
thousands of times per op (``drop_value``, ``make_weights``) are counted
only, so their time stays in their caller's self time.

A span is (name, start, end, parent span index, op index, level k). Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _k_third(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("k")


def _ambient_first(args, kwargs):
    return args[0].ambient.k


def _weights_first(args, kwargs):
    return args[0].k


def _weights_second(args, kwargs):
    return args[1].k


def _family_first(args, kwargs):
    return args[0].weights.k


def _family_second(args, kwargs):
    return args[1].weights.k


def _none(args, kwargs):
    return None


# module -> function -> reader of the weight level k from the call's arguments
SPANNED = {
    "positivity": {
        "certify_interval": _k_third, "perturbed_certify": _k_third,
        "reachable_strata": _k_third, "certify_generic": _k_third,
        "admissible_pairs": _k_third, "g_series": _family_first,
    },
    "morphisms": {
        "pullback_reduction": _ambient_first, "pullback_replacement": _ambient_first,
        "pushforward_reduction": _weights_second,
        "derive_pushforward_constants": _none, "derive_pullback_constant": _k_third,
    },
    "divisors": {
        "dk_class": _weights_first, "class_to_record": _ambient_first,
        "class_from_record": _weights_second,
    },
    "families": {
        "family_from_json": _none, "validate_family": _family_first,
        "intersection_numbers": _family_first, "evaluate_class": _family_second,
        "family_to_json": _family_first, "f_values": _family_first,
        "level_matrix": _family_first,
    },
}
COUNTED = {"positivity": ("drop_value",), "divisors": ("make_weights",)}

# per-layer counters that are not call counts, with their units
EXTRA_UNITS = {
    "positivity.reachable_strata.strata": "count",
    "positivity.admissible_pairs.pairs": "count",
    "families.level_matrix.entry_updates": "count",
}


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time in seconds).

    Spans are (name, start, end, parent, ...) with parent the index of the
    enclosing span or None; nested calls in one thread never overlap, so the
    time children cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, *_) in enumerate(spans):
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + (end - start) - covered[index])
    return totals


class Tracer:
    """Installs the wrappers, collects spans and counts, and removes them again."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.op: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._suffix: dict[int, tuple[object, list[int]]] = {}
        self._op_start = 0.0

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "nefcert" or name.startswith("nefcert.")]
        for home, functions in SPANNED.items():
            for fn_name, k_of in functions.items():
                self._replace(modules, home, fn_name,
                              lambda fn, name: self._spanned(fn, name, k_of))
        for home, functions in COUNTED.items():
            for fn_name in functions:
                self._replace(modules, home, fn_name, self._counted)
        return self

    def _replace(self, modules, home, fn_name, make):
        original = getattr(sys.modules[f"nefcert.{home}"], fn_name)
        wrapper = make(original, f"{home}.{fn_name}")
        for module in modules:
            if getattr(module, fn_name, None) is original:
                self._patched.append((module, fn_name, original))
                setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    # -- wrappers --------------------------------------------------------------

    def _counted(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, name, k_of):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, k_of(args, kwargs))
            self._extra(name, args, result)
            return result
        return wrapper

    def _extra(self, name, args, result):
        counts = self.counts
        if name == "positivity.reachable_strata":
            counts[name + ".strata"] = counts.get(name + ".strata", 0) + len(result)
        elif name == "positivity.admissible_pairs":
            counts[name + ".pairs"] = counts.get(name + ".pairs", 0) + len(result)
        elif name == "families.level_matrix":
            # computed here, not counted by the program: sum of |members|^2
            # over steps[level:], the entry updates one call performs
            family, level = args[0], args[1]
            key = name + ".entry_updates"
            counts[key] = counts.get(key, 0) + self._suffix_updates(family)[level]

    def _suffix_updates(self, family) -> list[int]:
        cached = self._suffix.get(id(family))
        if cached is None or cached[0] is not family:
            suffix = [0] * (family.n_steps + 1)
            for level in range(family.n_steps - 1, -1, -1):
                step = family.steps[level]
                size = len(step.sigma or ()) + len(step.tau or ())
                suffix[level] = suffix[level + 1] + size * size
            cached = (family, suffix)  # the reference keeps id() unique
            self._suffix[id(family)] = cached
        return cached[1]

    # -- ops and results -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        index = self.stack.pop()
        self.spans[index] = ("op", self._op_start, end, None, self.op, None)
        self.stack.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this tracer can fill, with its unit."""
        totals = self_times(self.spans)
        metrics: dict[str, tuple[float, str]] = {}
        for home, functions in SPANNED.items():
            for fn_name in functions:
                name = f"{home}.{fn_name}"
                calls, seconds = totals.get(name, (0, 0.0))
                metrics[name + ".calls"] = (calls, "count")
                metrics[name + ".self_s"] = (seconds, "s")
        for home, functions in COUNTED.items():
            for fn_name in functions:
                key = f"{home}.{fn_name}.calls"
                metrics[key] = (self.counts.get(key, 0), "count")
        for key, unit in EXTRA_UNITS.items():
            metrics[key] = (self.counts.get(key, 0), unit)
        legs = metrics["positivity.certify_generic.calls"][0]
        cells = metrics["positivity.drop_value.calls"][0]
        metrics["positivity.cells_per_leg"] = (cells / legs if legs else 0.0, "cells/leg")
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "k"],
                       "spans": self.spans}, handle, separators=(",", ":"))
