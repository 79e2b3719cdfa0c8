"""Drive lqu.cli.main in-process over a plan of operations.

Usage: python3 worker.py PLAN.json RESULTS.json

The plan holds the checkout's src directory, one round of operations (each a
list of argv lists for lqu.cli.main), the time budget and the trace flag.

Untraced, the worker cycles through the round until the budget is spent.
Traced, it runs pairs of rounds, the first untraced and the second traced,
while another pair still fits in the budget (at least one pair); the ratio of
their wall times is the tracing overhead. The spans of the last traced round
are written out when the run ends.

Every call's exit code, wall time and captured stdout/stderr go to the
results file, with the latest calibration time at the end of the operation
(see Speedometer), the process's peak resident memory and the machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from calibration import Speedometer
from tracer import LAYERS, Tracer, add_sums, layer_sums, per_layer_metrics


def run_op(main, op: dict, index: int, speed: Speedometer, traced: bool = False) -> dict:
    if op["read"] and os.path.exists(op["read"]):
        os.remove(op["read"])  # a failed call must not leave an old file to check
    calls = []
    for argv in op["calls"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        calls.append({"code": code, "wall": wall,
                      "out": out.getvalue(), "err": err.getvalue()})
    text = None
    if op["read"] and os.path.exists(op["read"]):
        with open(op["read"], encoding="utf-8") as fh:
            text = fh.read()
    size = os.path.getsize(op["size"]) if op["size"] and os.path.exists(op["size"]) else None
    return {"op": index, "traced": traced, "calls": calls, "text": text, "bytes": size,
            "calibration_s": speed.latest()}


def round_wall(records: list[dict]) -> float:
    return sum(call["wall"] for rec in records for call in rec["calls"])


def machine() -> dict:
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by numpy version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def main() -> int:
    plan_path, results_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import lqu.analytic
    import lqu.cli
    import lqu.core
    import lqu.linalg
    import lqu.states

    source = os.path.realpath(lqu.cli.__file__)
    if not source.startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"worker: lqu imported from {source}, not from {plan['src']}",
              file=sys.stderr)
        return 2
    modules = {layer: sys.modules[f"lqu.{layer}"] for layer in LAYERS}

    ops, budget = plan["ops"], plan["seconds"]
    records: list[dict] = []
    results: dict = {}
    speed = Speedometer()
    run_op(lqu.cli.main, ops[0], 0, speed)  # warm-up: lazy imports, BLAS threads, page cache
    begin = time.perf_counter()
    if not plan["trace"]:
        i = 0
        while True:
            records.append(run_op(lqu.cli.main, ops[i % len(ops)], i % len(ops), speed))
            i += 1
            if time.perf_counter() - begin >= budget:
                break
    else:
        sums: dict = {}
        walls = {"traced": 0.0, "untraced": 0.0}
        while True:
            pair_start = time.perf_counter()
            untraced = [run_op(lqu.cli.main, op, i, speed) for i, op in enumerate(ops)]
            tracer = Tracer(modules)
            tracer.install()
            traced = []
            try:
                for i, op in enumerate(ops):
                    tracer.op = i
                    traced.append(run_op(lqu.cli.main, op, i, speed, traced=True))
            finally:
                tracer.uninstall()
            pair = time.perf_counter() - pair_start
            records += untraced + traced
            walls["untraced"] += round_wall(untraced)
            walls["traced"] += round_wall(traced)
            round_ops = [dict(op, bytes=rec["bytes"]) for op, rec in zip(ops, traced)]
            sums = add_sums(sums, layer_sums(tracer.spans, round_ops, tracer.dense_eigs))
            if time.perf_counter() - begin + pair > budget:
                break
        results["per_layer"] = per_layer_metrics(sums, walls["traced"], walls["untraced"])
        names = sorted({span[0] for span in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]] for s in tracer.spans]}, fh)

    results["records"] = records
    results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results["machine"] = machine()
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
