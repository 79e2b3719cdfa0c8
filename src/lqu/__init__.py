"""Local quantum uncertainty for N-qubit density matrices.

LQU is the minimum skew information over observables on the measured
qubit. The package needs no search over them: each per-bipartition value is
one minus the largest eigenvalue of a 3x3 Pauli correlation matrix. It also
gives their arithmetic mean, built-in state families and closed-form
references. The sampling minimisation of skew information is kept in the
test suite, as an independent oracle for this route.
"""

from .analytic import (
    GammaOutOfRange,
    NoiseOutOfRange,
    ParamOutOfRange,
    lqu_ghz3,
    lqu_ghz4_class,
    lqu_kay,
    lqu_w3,
    lqu_w4,
)
from .core import (
    IndexOutOfRange,
    LquReport,
    NumericalContractViolation,
    correlation_matrix,
    lqu_all,
    lqu_bipartition,
)
from .linalg import NoConvergence
from .states import (
    FAMILY_NAMES,
    DensityMatrix,
    DensityMatrixFormatError,
    InvalidDensityMatrix,
    UnknownFamily,
    Violation,
    build_state,
    closed_form_for,
    density_matrix_from_json,
    density_matrix_to_json,
    kay_state,
    load_density_matrix,
    mix_white_noise,
    pure_state,
    random_pure,
    save_density_matrix,
    validate,
)

__all__ = [
    "DensityMatrix",
    "DensityMatrixFormatError",
    "FAMILY_NAMES",
    "GammaOutOfRange",
    "IndexOutOfRange",
    "InvalidDensityMatrix",
    "LquReport",
    "NoConvergence",
    "NoiseOutOfRange",
    "NumericalContractViolation",
    "ParamOutOfRange",
    "UnknownFamily",
    "Violation",
    "build_state",
    "closed_form_for",
    "correlation_matrix",
    "density_matrix_from_json",
    "density_matrix_to_json",
    "kay_state",
    "load_density_matrix",
    "lqu_all",
    "lqu_bipartition",
    "lqu_ghz3",
    "lqu_ghz4_class",
    "lqu_kay",
    "lqu_w3",
    "lqu_w4",
    "mix_white_noise",
    "pure_state",
    "random_pure",
    "save_density_matrix",
    "validate",
]
