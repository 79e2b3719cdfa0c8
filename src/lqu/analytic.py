"""Closed-form local quantum uncertainty for the built-in state families.

These are the reference values the numeric pipeline is checked against: the
noisy GHZ/W families for three and four qubits, the Kay family, and the
four-qubit class (GHZ4, Dicke, four-qubit singlet, cluster, chi) that shares
a single expression. The family registry, lqu.states.FAMILIES, pairs each
family with its formula.

Each parameter range is stated once, here: check_noise for a white-noise
fraction and check_gamma for the Kay gamma. Every closed form applies its
family's rule, and so do lqu.states and the command line.
"""

from __future__ import annotations

import math
import sys


class ParamOutOfRange(ValueError):
    """Parameter outside the family's valid domain."""


class NoiseOutOfRange(ParamOutOfRange):
    """White-noise fraction outside [0, 1]."""


class GammaOutOfRange(ParamOutOfRange):
    """Kay-family parameter outside [2, GAMMA_MAX]."""


# Largest Kay gamma: 8 * GAMMA_MAX is the float maximum, so the normalisation
# 8 + 8 gamma is finite up to here and overflows beyond it.
GAMMA_MAX = sys.float_info.max / 8


def check_noise(noise: float, name: str = "noise fraction") -> None:
    """The rule for a white-noise fraction, checked before anything is built
    or opened: it lies in [0, 1]. NaN and +-inf fail it. name is how the
    message names the value."""
    if not 0.0 <= noise <= 1.0:
        raise NoiseOutOfRange(f"{name} {noise} outside [0, 1]")


def check_gamma(gamma: float) -> None:
    """The rule for the Kay gamma, checked before anything is built or
    opened: it lies in [2, GAMMA_MAX]. NaN and +-inf fail it."""
    if not 2.0 <= gamma <= GAMMA_MAX:
        raise GammaOutOfRange(
            f"gamma = {gamma} outside [2, {GAMMA_MAX!r}]: below 2 the state is "
            f"not PSD, and above it the trace normalisation 8 + 8 gamma overflows"
        )


def lqu_ghz3(alpha: float) -> float:
    """Noisy three-qubit GHZ family: 1 at alpha=0, 0 at alpha=1."""
    check_noise(alpha)
    return 1.0 - (3.0 * alpha + math.sqrt(alpha * (8.0 - 7.0 * alpha))) / 4.0


def w3_correlation_eigenvalues(beta: float) -> tuple[float, float, float]:
    """Eigenvalue triple (w1, w2, w3) of the noisy-W3 correlation matrix.

    The two smaller eigenvalues coincide; the third dominates everywhere on
    [0, 1) and meets them only at beta = 1.
    """
    check_noise(beta)
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
    """Kay family, 2 <= gamma <= GAMMA_MAX (the expression is complex below 2).

    The paper's (2 + g - sqrt((g - 2)(g + 6))) / (4 (1 + g)), rationalised:
    that numerator cancels to about 2/g and keeps no correct digit by
    g ~ 1e9.
    """
    gamma = float(gamma)  # numpy scalar arithmetic would warn on overflow near GAMMA_MAX
    check_gamma(gamma)
    root = math.sqrt(gamma - 2.0) * math.sqrt(gamma + 6.0)
    return 4.0 / ((1.0 + gamma) * (2.0 + gamma + root))


def lqu_ghz4_class(eta: float) -> float:
    """Shared expression for noisy GHZ4, Dicke(2,4), four-qubit singlet,
    cluster and chi states: 1 at eta=0, 0 at eta=1."""
    check_noise(eta)
    return 1.0 - (7.0 * eta + math.sqrt(eta * (16.0 - 15.0 * eta))) / 8.0


def lqu_w4(eta: float) -> float:
    """Noisy four-qubit W family: 3/4 at eta=0, 0 at eta=1."""
    check_noise(eta)
    return 1.0 - (
        8.0 + 21.0 * eta + 3.0 * math.sqrt(eta * (16.0 - 15.0 * eta))
    ) / 32.0
