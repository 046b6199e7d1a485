"""Hardy-type nonlocality witnesses for three-qubit pure states.

The package classifies canonical-form three-qubit states, constructs
per-class measurement settings that realize (or, for maximally entangled
pairs, provably violate without realizing) the Hardy conditions, evaluates
the associated five-term Bell expression against its local-realism bound,
and computes threshold visibilities under white noise.
"""

__version__ = "0.1.0"

from .bell import (
    BELL_TERMS,
    BellReport,
    LhvAssignment,
    SampleStatistics,
    WHITE_NOISE_BELL_VALUE,
    bell_value,
    hardy_probabilities,
    lhv_hardy_pattern_assignments,
    lhv_minimum,
    sample_statistics,
)
from .errors import (
    ClassificationOverlapError,
    ConstructionFailureError,
    DimensionError,
    Hardy3QError,
    NormalizationError,
    NoWitnessError,
    VisibilityUndefinedError,
    WindowViolationError,
)
from .hardy import (
    HardyCertificate,
    WitnessConstruction,
    build_witness,
    pair_hardy_probability,
    search_hardy_observables,
    verify_hardy,
)
from .linalg import SchmidtDecomposition, schmidt_decompose
from .observables import MeasurementSettings, settings_from_plus_kets
from .states import (
    CanonicalState,
    StateClass,
    classify,
    classify_batch,
    normalized_canonical,
    sample_class,
    to_ket,
)
from .visibility import OptimizationResult, minimize_bell, threshold_visibility

__all__ = [
    "BELL_TERMS",
    "BellReport",
    "CanonicalState",
    "ClassificationOverlapError",
    "ConstructionFailureError",
    "DimensionError",
    "Hardy3QError",
    "HardyCertificate",
    "LhvAssignment",
    "MeasurementSettings",
    "NoWitnessError",
    "NormalizationError",
    "OptimizationResult",
    "SampleStatistics",
    "SchmidtDecomposition",
    "StateClass",
    "VisibilityUndefinedError",
    "WHITE_NOISE_BELL_VALUE",
    "WindowViolationError",
    "WitnessConstruction",
    "bell_value",
    "build_witness",
    "classify",
    "classify_batch",
    "hardy_probabilities",
    "lhv_hardy_pattern_assignments",
    "lhv_minimum",
    "minimize_bell",
    "normalized_canonical",
    "pair_hardy_probability",
    "sample_class",
    "sample_statistics",
    "schmidt_decompose",
    "search_hardy_observables",
    "settings_from_plus_kets",
    "threshold_visibility",
    "to_ket",
    "verify_hardy",
]
