#!/usr/bin/env python3
"""The lqu benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Set-up writes the workload's inputs for the seed under perfbench/work/, computes
the references outside any timing, and times fresh interpreters importing
lqu.cli (setup_s). A worker process then drives lqu.cli.main in-process for
--seconds (see worker.py); its peak resident memory is peak_rss_mb. Every
operation's output is checked, and a mismatch or a nonzero exit counts as a
failed operation.

The machine's speed drifts by up to half from one half-minute to the next on
shared cores, so the worker times a fixed lqu-independent calibration kernel
between operations. On curves, where the kernel tracks the program's speed,
the reported call times are scaled to the kernel's reference time, and the
unscaled figures are printed as raw_*.

With --trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The lines before the last describe the
machine, the workload and each metric; the last line is the JSON result.
The run record (machine, workload, metrics) is also written to
perfbench/work/last-<workload>-trace<0|1>.json, and a traced run's spans to
perfbench/work/spans-<workload>.json. README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_S
from workloads import WORKLOADS, failure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RUN_LIMIT_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_SAMPLES = 7

END_TO_END = ("setup_s", "states_per_s", "compute_s_p50", "peak_rss_mb")


def blas_threads() -> int:
    # Fixed rather than left to the BLAS, so that runs on machines with more
    # cores compare with the 2-core figures; never more than the cores we have.
    return min(len(os.sched_getaffinity(0)), 2)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing lqu.cli; the first run,
    which also writes the bytecode cache, is not counted.

    No timeout here: with one, subprocess polls for the child's exit at up
    to 50 ms intervals, which would quantize the times it measures."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lqu.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
    return times[1:]


def tail(values: list[float]) -> str:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) >= 1000:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return f", p{pct} {cut:.4f}"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "lqu", "cli.py")):
        print(f"error: no lqu sources at {SRC}", file=sys.stderr)
        return 2

    rundir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        workload = WORKLOADS[args.workload](rundir, args.seed)
        env = child_env()
        setup = measure_setup(env)
        plan_path = os.path.join(rundir, "plan.json")
        results_path = os.path.join(rundir, "results.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "seconds": args.seconds, "trace": args.trace,
                       "ops": [op.plan() for op in workload.ops],
                       "spans": os.path.join(WORK, f"spans-{args.workload}.json")}, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        plan_path, results_path], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL,
                       timeout=RUN_LIMIT_S - (time.perf_counter() - began))
        with open(results_path, encoding="utf-8") as fh:
            results = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    records = results["records"]
    failures = [reason for rec in records if (reason := failure(workload, rec))]
    for reason in failures[:5]:
        print(f"FAILED: {reason}")
    attempted, failed = len(records), len(failures)
    info = dict(workload.info)
    info.setdefault("json_bytes", sorted({rec["bytes"] for rec in records}))

    print("machine " + json.dumps(results["machine"]))
    print(f"workload {args.workload} seed {args.seed} " + json.dumps(info))
    report = end_to_end(workload, [rec for rec in records if not rec["traced"]],
                        setup, results["peak_rss_mb"])
    for name, (value, unit, note) in report.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if args.trace:
        metrics = results["per_layer"]
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in report.items() if name in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORK, f"last-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": results["machine"], "workload": args.workload,
                   "seed": args.seed, "info": info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def end_to_end(workload, records: list[dict], setup: list[float],
               peak_rss_mb: float) -> dict:
    """name -> (value, unit, note) from the untraced operations.

    On a calibrated workload each operation's call times are scaled by
    REFERENCE_S over the machine's calibration time at that moment
    (calibration.Speedometer), and the unscaled figures are added as raw_*.
    Besides the END_TO_END metrics this gives points_per_s on curves and
    dump_s_p50 where there is a dump call; they are printed, not returned in
    the result, because they are not defined on every workload.
    """
    report = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters importing lqu.cli"),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident memory of the worker process"),
    }
    command = workload.ops[0].calls[workload.compute_call][0]
    scalings = [("", lambda rec: 1.0)]
    if workload.calibrated:
        scalings = [("", lambda rec: REFERENCE_S / rec["calibration_s"]),
                    ("raw_", lambda rec: 1.0)]
    for prefix, scale in scalings:
        def walls(call: int) -> list[float]:
            return [rec["calls"][call]["wall"] * scale(rec) for rec in records]

        # Throughput of one round of the workload with each operation at its
        # median time, so that a stall in one call does not move it.
        op_walls: dict[int, list[float]] = {}
        for rec in records:
            op_walls.setdefault(rec["op"], []).append(
                scale(rec) * sum(c["wall"] for c in rec["calls"]))
        states = sum(workload.ops[i].states for i in op_walls)
        round_s = sum(statistics.median(w) for w in op_walls.values())
        compute = walls(workload.compute_call)
        report[prefix + "states_per_s"] = (
            states / round_s, "1/s",
            f"{states} states per round, {round_s:.3f} s at median operation "
            f"times; {len(records)} operations")
        report[prefix + "compute_s_p50"] = (
            statistics.median(compute), "s",
            f"median of {len(compute)} `{command}` calls{tail(compute)}")
        if command == "sweep":
            report[prefix + "points_per_s"] = (states / round_s, "1/s",
                                               "sweep grid points per second")
        if workload.dump_call is not None:
            dump = walls(workload.dump_call)
            report[prefix + "dump_s_p50"] = (
                statistics.median(dump), "s",
                f"median of {len(dump)} `random --dump` calls{tail(dump)}")
    calibration = [rec["calibration_s"] for rec in records]
    report["calibration_s"] = (
        statistics.median(calibration), "s",
        f"median over {len(calibration)} operations; reference {REFERENCE_S} s"
        + ("" if workload.calibrated else "; not applied on this workload"))
    return report


if __name__ == "__main__":
    sys.exit(main())
