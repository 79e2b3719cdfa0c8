"""Workload inputs, reference values and output checks.

Each workload function writes its inputs for one seed into the run
directory and returns one round of operations. An operation is a list of lqu
command lines that the worker runs in order through lqu.cli.main; the
checker then judges the operation from the calls' exit codes and outputs.
The program only ever sees the generated argv and files. The same seed gives
the same inputs.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# scripts/make_curve_data.py's sweeps: family, from, to, steps, qubits
CURVE_SWEEPS = [
    ("ghz3", "0", "1", 101, 3),
    ("w3", "0", "1", 101, 3),
    ("kay", "2", "10", 81, 3),
    ("ghz4", "0", "1", 101, 4),
    ("w4", "0", "1", 101, 4),
    ("dicke24", "0", "1", 101, 4),
    ("singlet4", "0", "1", 101, 4),
    ("cluster4", "0", "1", 101, 4),
    ("chi4", "0", "1", 101, 4),
]
CURVE_TOL = 1e-9  # |mean - analytic| allowed per CSV row

DENSE_QUBITS = 9
DENSE_RANKS = (1, 8, 512)
DENSE_TOL = 1e-9  # |reported - reference| allowed per value

ROUNDTRIP_QUBITS = 8
PURE_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.0)

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass
class Op:
    calls: list[list[str]]
    states: int  # states evaluated: sweep grid points, or density matrices
    qubits: int
    read: str | None = None  # file whose text the checker needs
    size: str | None = None  # JSON file the operation reads or writes
    expect: object = None  # reference the checker compares with

    def plan(self) -> dict:
        return {"calls": self.calls, "states": self.states, "qubits": self.qubits,
                "read": self.read, "size": self.size}


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[Op, dict], str | None]  # failure reason, or None
    compute_call: int  # index of the call compute_s_p50 times
    dump_call: int | None = None  # index of the call dump_s_p50 times
    # Whether call times are scaled by the calibration kernel (run.py). Only
    # curves, bound by per-point interpreter overhead like the kernel, came
    # out steadier calibrated; on the other two the raw figures were as
    # steady or steadier.
    calibrated: bool = False
    info: dict = field(default_factory=dict)


def _exit_codes(op: Op, record: dict) -> str | None:
    for argv, call in zip(op.calls, record["calls"]):
        if call["code"] != 0:
            return f"lqu {' '.join(argv)} exited {call['code']}: {call['err'].strip()}"
    return None


# --- curves ----------------------------------------------------------------


def curves(rundir: str, seed: int) -> Workload:
    """The paper's curve sweeps, in an order drawn from the seed."""
    order = np.random.default_rng(seed).permutation(len(CURVE_SWEEPS))
    ops = []
    for i in order:
        family, lo, hi, steps, qubits = CURVE_SWEEPS[i]
        out = os.path.join(rundir, f"{family}.csv")
        argv = ["sweep", "--family", family, "--from", lo, "--to", hi,
                "--steps", str(steps), "--out", out]
        ops.append(Op([argv], steps, qubits, read=out))
    return Workload(ops, check_curve, compute_call=0, calibrated=True,
                    info={"N": [3, 4], "d": [8, 16], "json_bytes": 0})


def check_curve(op: Op, record: dict) -> str | None:
    if record["text"] is None:
        return "no CSV written"
    rows = list(csv.reader(io.StringIO(record["text"])))
    header, body = rows[0], rows[1:]
    if len(body) != op.states:
        return f"{len(body)} CSV rows, expected {op.states}"
    mean, analytic = header.index("mean"), header.index("analytic")
    for row in body:
        if not abs(float(row[mean]) - float(row[analytic])) <= CURVE_TOL:
            return f"param {row[0]}: mean {row[mean]} vs analytic {row[analytic]}"
    return None


# --- dense-file ------------------------------------------------------------


def dense_file(rundir: str, seed: int) -> Workload:
    """Generic mixed N=9 states G G^dagger / Tr, one file per rank."""
    rng = np.random.default_rng(seed)
    n, dim = DENSE_QUBITS, 2**DENSE_QUBITS
    ops, sizes = [], []
    for rank in DENSE_RANKS:
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        m = g @ g.conj().T
        m = (m + m.conj().T) / 2
        m /= np.trace(m).real
        path = os.path.join(rundir, f"dense-r{rank}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n_qubits": n,
                       "matrix": np.stack([m.real, m.imag], axis=-1).tolist()}, fh)
        sizes.append(os.path.getsize(path))
        ops.append(Op([["compute", path]], 1, n, size=path,
                      expect=reference_lqu(m, n)))
    return Workload(ops, check_dense, compute_call=0,
                    info={"N": n, "d": dim, "ranks": list(DENSE_RANKS),
                          "json_bytes": sizes})


def reference_lqu(m: np.ndarray, n: int) -> list[float]:
    """Per-qubit LQU and their mean, from numpy's eigh and a partial trace.

    With S = sqrt(rho) written as S[a,p,b,c,q,d] (qubit k is p and q),
    m_ij = sum sigma_i[q,r] sigma_j[s,p] G[p,q,r,s], where G is the block
    Gram G[p,q,r,s] = sum_abcd S[a,p,b,c,q,d] S[c,r,d,a,s,b].
    """
    w, v = np.linalg.eigh(m)
    # The null space of a rank-deficient state comes back as O(eps) noise,
    # whose square root would be O(1e-8): treat it as zero.
    w = np.where(w > len(w) * np.finfo(float).eps * np.abs(w).max(), w, 0.0)
    s = (v * np.sqrt(w)) @ v.conj().T
    values = []
    for k in range(n):
        t = s.reshape(2**k, 2, 2 ** (n - k - 1), 2**k, 2, 2 ** (n - k - 1))
        gram = np.einsum("apbcqd,crdasb->pqrs", t, t, optimize=True)
        corr = np.einsum("iqr,jsp,pqrs->ij", PAULIS, PAULIS, gram).real
        values.append(1.0 - np.linalg.eigvalsh(corr)[-1])
    return values + [sum(values) / n]


def check_dense(op: Op, record: dict) -> str | None:
    lines = record["calls"][0]["out"].splitlines()
    n = op.qubits
    labels = [f"q{k}" for k in range(n)] + ["mean"]
    if len(lines) != n + 1:
        return f"{len(lines)} report lines, expected {n + 1}"
    for line, label, want in zip(lines, labels, op.expect):
        name, _, value = line.partition(" ")
        if name != label or not abs(float(value) - want) <= DENSE_TOL:
            return f"{line!r}, reference {label} {want!r}"
    return None


# --- random-roundtrip ------------------------------------------------------


def random_roundtrip(rundir: str, seed: int) -> Workload:
    """random --dump then compute of the dump, one state seed per fraction."""
    state_seeds = np.random.default_rng(seed).integers(0, 2**31, len(PURE_FRACTIONS))
    n = ROUNDTRIP_QUBITS
    ops = []
    for i, (fraction, state_seed) in enumerate(zip(PURE_FRACTIONS, state_seeds)):
        path = os.path.join(rundir, f"roundtrip-{i}.json")
        ops.append(Op([["random", "--qubits", str(n), "--seed", str(state_seed),
                        "--pure-fraction", repr(fraction), "--dump", path],
                       ["compute", path]], 1, n, size=path))
    return Workload(ops, check_roundtrip, compute_call=1, dump_call=0,
                    info={"N": n, "d": 2**n, "pure_fractions": list(PURE_FRACTIONS)})


def check_roundtrip(op: Op, record: dict) -> str | None:
    written, recomputed = (call["out"] for call in record["calls"])
    if len(written.splitlines()) != op.qubits + 1:
        return f"random printed {len(written.splitlines())} lines, expected {op.qubits + 1}"
    if recomputed != written:
        return f"compute printed {recomputed!r}, random printed {written!r}"
    return None


WORKLOADS = {
    "curves": curves,
    "dense-file": dense_file,
    "random-roundtrip": random_roundtrip,
}


def failure(workload: Workload, record: dict) -> str | None:
    """Why one executed operation failed, or None when it passed."""
    op = workload.ops[record["op"]]
    return _exit_codes(op, record) or workload.check(op, record)
