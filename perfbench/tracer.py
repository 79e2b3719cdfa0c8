"""Spans around the calls into each lqu layer, recorded from outside the package.

Tracer.install() replaces every public lqu function under each name a traced
module binds it to (lqu.cli.lqu_all, lqu.cli.validate, lqu.core.kron, ...)
with a wrapper that appends one span to an in-memory list. A span is
(name, start_ns, end_ns, parent_index, op_index); name is the defining layer
plus the function name, e.g. "linalg.kron", whichever module the call came
from. numpy.linalg.eigh and eigvalsh are wrapped to count the calls on
2^N x 2^N matrices. Names a later version of the package no longer has are
simply not wrapped, so their counts read 0.

layer_sums() turns the spans of one traced round into the raw sums the
per-layer metrics are made of; per_layer_metrics() divides them out.
"""

from __future__ import annotations

import time
import types

import numpy as np

LAYERS = ("states", "linalg", "core", "analytic", "cli")

PARSE = {"states.load_density_matrix", "states.density_matrix_from_json"}
SERIALIZE = {"states.save_density_matrix", "states.density_matrix_to_json"}
VALIDATE = {"states.validate"}
BUILD = {"states.build_state", "states.random_pure", "states.mix_white_noise"}
SQRT = {"linalg.matrix_sqrt_psd"}
LQU_ALL = {"core.lqu_all"}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "states.parse_s": "s/state",
    "states.parse_mb_per_s": "MB/s",
    "states.serialize_s": "s/state",
    "states.serialize_mb_per_s": "MB/s",
    "states.validate_s": "s/state",
    "states.build_s": "s/state",
    "linalg.sqrt_s": "s/state",
    "linalg.sqrt_calls": "1/state",
    "linalg.dense_eig_per_state": "1/state",
    "linalg.kron_calls": "1/state",
    "linalg.trace_product_calls": "1/state",
    "core.lqu_all_s": "s/state",
    "core.correlation_self_s": "s/state",
    "core.correlation_self_s_per_qubit": "s/bipartition",
    "analytic.closed_form_s": "s/state",
    "cli.self_s": "s/state",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules  # layer name -> module
        self.spans: list = []
        self.op = 0
        self.dense_eigs = 0
        self._stack: list[int] = []
        self._wrappers: dict = {}  # original function -> wrapper
        self._saved: list = []  # (namespace, name, original)

    def install(self) -> None:
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                if self._traceable(name, obj):
                    self._patch(module, name, self._wrapper(obj))
        for name in ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self._eig_counter(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        self._saved.clear()

    def _traceable(self, name: str, obj) -> bool:
        return (
            isinstance(obj, types.FunctionType)
            and not name.startswith("_")
            and (obj.__module__ or "").removeprefix("lqu.") in self.modules
        )

    def _patch(self, namespace, name: str, replacement) -> None:
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, replacement)

    def _wrapper(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        span_name = f"{fn.__module__.removeprefix('lqu.')}.{fn.__name__}"
        spans, stack, wrappers = self.spans, self._stack, self._wrappers
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op)
            # closed_form_for hands out lqu functions from a table; hand out
            # their wrappers so the formula calls are traced too.
            if type(result) is types.FunctionType:
                result = wrappers.get(result, result)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers[fn] = wrapper
        return wrapper

    def _eig_counter(self, fn):
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) == 2 and shape[0] == shape[1] and shape[0] >= 2 \
                    and shape[0] & (shape[0] - 1) == 0:
                self.dense_eigs += 1
            return fn(a, *args, **kwargs)

        return wrapper


def _inside(spans, member) -> list[bool]:
    """For each span, whether one of its ancestors satisfies member(name).

    A parent is always recorded before its children, so one pass suffices.
    """
    inside = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or member(spans[parent][0])
    return inside


def _outer_time(spans, names: set) -> tuple[float, set]:
    """Seconds in spans named in names, not counting nested ones twice; and
    the set of op indices that had such a span."""
    inside = _inside(spans, names.__contains__)
    total, ops = 0, set()
    for (name, start, end, _, op), nested in zip(spans, inside):
        if name in names and not nested:
            total += end - start
            ops.add(op)
    return total * 1e-9, ops


def layer_sums(spans, ops: list[dict], dense_eigs: int) -> dict:
    """Raw per-layer sums for one traced round.

    ops is the round's plan; each op carries its state count, its qubit count
    and, in "bytes", the size of the JSON file it reads or writes.
    """
    sums = {"states": sum(op["states"] for op in ops), "dense_eigs": dense_eigs}
    for key, names in (("parse", PARSE), ("serialize", SERIALIZE),
                       ("validate", VALIDATE), ("build", BUILD),
                       ("sqrt", SQRT), ("lqu_all", LQU_ALL)):
        sums[key], touched = _outer_time(spans, names)
        if key in ("parse", "serialize"):
            sums[key + "_bytes"] = sum(ops[i]["bytes"] or 0 for i in touched)
    sums["analytic"], _ = _outer_time(
        spans, {s[0] for s in spans if s[0].startswith("analytic.")})

    counts: dict[str, int] = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    sums["sqrt_calls"] = counts.get("linalg.matrix_sqrt_psd", 0)
    sums["kron_calls"] = counts.get("linalg.kron", 0)
    sums["trace_product_calls"] = counts.get("linalg.trace_product", 0)

    # Self time of every span: its duration minus its direct children's.
    self_ns = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    sums["cli_self"] = 1e-9 * sum(
        t for span, t in zip(spans, self_ns) if span[0].startswith("cli."))

    # Correlation self time: each lqu_all span minus the outermost linalg
    # spans inside it.
    is_linalg = [s[0].startswith("linalg.") for s in spans]
    in_linalg = _inside(spans, lambda name: name.startswith("linalg."))
    owner = [-1] * len(spans)  # nearest enclosing lqu_all span
    correlation = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if parent >= 0:
            owner[i] = parent if spans[parent][0] in LQU_ALL else owner[parent]
        if name in LQU_ALL:
            correlation[i] = end - start
        elif is_linalg[i] and not in_linalg[i] and owner[i] >= 0:
            correlation[owner[i]] -= end - start
    sums["correlation_self"] = 1e-9 * sum(correlation.values())
    sums["bipartitions"] = sum(ops[spans[i][4]]["qubits"] for i in correlation)
    return sums


def add_sums(total: dict, sums: dict) -> dict:
    return {key: total.get(key, 0) + value for key, value in sums.items()}


def per_layer_metrics(sums: dict, traced_wall: float, untraced_wall: float) -> dict:
    states = sums["states"]

    def rate(nbytes, seconds):
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    values = {
        "states.parse_s": sums["parse"] / states,
        "states.parse_mb_per_s": rate(sums["parse_bytes"], sums["parse"]),
        "states.serialize_s": sums["serialize"] / states,
        "states.serialize_mb_per_s": rate(sums["serialize_bytes"], sums["serialize"]),
        "states.validate_s": sums["validate"] / states,
        "states.build_s": sums["build"] / states,
        "linalg.sqrt_s": sums["sqrt"] / states,
        "linalg.sqrt_calls": sums["sqrt_calls"] / states,
        "linalg.dense_eig_per_state": sums["dense_eigs"] / states,
        "linalg.kron_calls": sums["kron_calls"] / states,
        "linalg.trace_product_calls": sums["trace_product_calls"] / states,
        "core.lqu_all_s": sums["lqu_all"] / states,
        "core.correlation_self_s": sums["correlation_self"] / states,
        "core.correlation_self_s_per_qubit":
            sums["correlation_self"] / sums["bipartitions"] if sums["bipartitions"] else 0.0,
        "analytic.closed_form_s": sums["analytic"] / states,
        "cli.self_s": sums["cli_self"] / states,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
