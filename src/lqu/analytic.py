"""Closed-form local quantum uncertainty for the built-in state families.

These are the reference values the numeric pipeline is checked against: the
noisy GHZ/W families for three and four qubits, the Kay family, and the
four-qubit class (GHZ4, Dicke, four-qubit singlet, cluster, chi) that shares
a single expression.
"""

from __future__ import annotations

import math
from typing import Callable


class ParamOutOfRange(ValueError):
    """Parameter outside the family's valid domain."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfRange(msg)


def lqu_ghz3(alpha: float) -> float:
    """Noisy three-qubit GHZ family: 1 at alpha=0, 0 at alpha=1."""
    _require(0.0 <= alpha <= 1.0, f"alpha = {alpha} outside [0, 1]")
    return 1.0 - (3.0 * alpha + math.sqrt(alpha * (8.0 - 7.0 * alpha))) / 4.0


def w3_correlation_eigenvalues(beta: float) -> tuple[float, float, float]:
    """Eigenvalue triple (w1, w2, w3) of the noisy-W3 correlation matrix.

    The two smaller eigenvalues coincide; the third dominates everywhere on
    [0, 1) and meets them only at beta = 1.
    """
    _require(0.0 <= beta <= 1.0, f"beta = {beta} outside [0, 1]")
    s = math.sqrt(beta * (8.0 - 7.0 * beta))
    w1 = (3.0 * beta + s) / 4.0
    w3 = (1.0 + 6.0 * beta + 2.0 * s) / 9.0
    return (w1, w1, w3)


def lqu_w3(beta: float) -> float:
    """Noisy three-qubit W family: 8/9 at beta=0, 0 at beta=1.

    Computed as one minus the largest of the eigenvalue triple rather than
    assuming which eigenvalue dominates.
    """
    w1, _, w3 = w3_correlation_eigenvalues(beta)
    return 1.0 - max(w1, w3)


def lqu_kay(gamma: float) -> float:
    """Kay family, gamma >= 2 (the expression is complex below that).

    The paper's (2 + g - sqrt((g - 2)(g + 6))) / (4 (1 + g)), rationalised:
    that numerator cancels to about 2/g and keeps no correct digit by
    g ~ 1e9.
    """
    _require(gamma >= 2.0, f"gamma = {gamma} below 2")
    root = math.sqrt(gamma - 2.0) * math.sqrt(gamma + 6.0)
    return 4.0 / ((1.0 + gamma) * (2.0 + gamma + root))


def lqu_ghz4_class(eta: float) -> float:
    """Shared expression for noisy GHZ4, Dicke(2,4), four-qubit singlet,
    cluster and chi states: 1 at eta=0, 0 at eta=1."""
    _require(0.0 <= eta <= 1.0, f"eta = {eta} outside [0, 1]")
    return 1.0 - (7.0 * eta + math.sqrt(eta * (16.0 - 15.0 * eta))) / 8.0


def lqu_w4(eta: float) -> float:
    """Noisy four-qubit W family: 3/4 at eta=0, 0 at eta=1."""
    _require(0.0 <= eta <= 1.0, f"eta = {eta} outside [0, 1]")
    return 1.0 - (
        8.0 + 21.0 * eta + 3.0 * math.sqrt(eta * (16.0 - 15.0 * eta))
    ) / 32.0


# state family -> closed form in the family's own parameter
CLOSED_FORMS: dict[str, Callable[[float], float]] = {
    "ghz3": lqu_ghz3,
    "w3": lqu_w3,
    "kay": lqu_kay,
    "ghz4": lqu_ghz4_class,
    "dicke24": lqu_ghz4_class,
    "singlet4": lqu_ghz4_class,
    "cluster4": lqu_ghz4_class,
    "chi4": lqu_ghz4_class,
    "w4": lqu_w4,
}


def closed_form_for(family: str) -> Callable[[float], float] | None:
    """Closed form for a state family, or None when none exists (random)."""
    return CLOSED_FORMS.get(family)
