"""Machine speed, measured by a fixed kernel that never touches lqu.

On shared cores the machine's speed changes from one half-minute to the
next. calibrate() times a fixed piece of interpreter-bound work (small numpy
calls from a Python loop and some JSON parsing), so that interpreter-bound
timings taken at the same moment can be scaled to a reference speed.
"""

from __future__ import annotations

import json
import time

import numpy as np

# About the median of calibrate() on the reference machine: 2 shared vCPUs
# (Intel Xeon), Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31. Only the scale
# of the calibrated times depends on it.
REFERENCE_S = 0.004

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n)) for n in (2, 8)]
_DOC = json.dumps(_rng.standard_normal((24, 24, 2)).tolist())


def _calibration_kernel() -> float:
    acc = 0.0
    a, b = _SMALL
    for i in range(60):
        k = np.kron(a, b)
        acc += float((k @ k).trace().real)
        acc += float(np.linalg.eigvalsh(np.eye(3) * (i + 1.0))[-1])
        acc += len(format(acc, ".12g"))
    return acc + len(json.loads(_DOC))


def calibrate(repeats: int = 5) -> float:
    """Seconds for a fixed piece of work that never touches lqu: small numpy
    calls from a Python loop and some JSON parsing. The fastest of a few
    repeats discards momentary stalls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Speedometer:
    """How fast the machine is now: the latest calibration time, refreshed
    between operations once EVERY_S has passed since the last one."""

    EVERY_S = 1.0
    # OpenBLAS helper threads spin for about 0.1 s after a threaded call;
    # calibrating while one spins on a sibling hyperthread reads slow.
    SETTLE_S = 0.15

    def __init__(self):
        self._refresh()

    def _refresh(self) -> None:
        time.sleep(self.SETTLE_S)
        self.value = calibrate()
        self.at = time.perf_counter()

    def latest(self) -> float:
        if time.perf_counter() - self.at >= self.EVERY_S:
            self._refresh()
        return self.value
