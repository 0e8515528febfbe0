"""Bounded-rank quantum state tomography with few random orthonormal bases.

Measurement design (global or local Haar-random bases), noiseless and
finite-shot measurement simulation, kernel/completeness diagnostics, and
PSD-cone convex estimation (least squares, trace minimization, maximum
likelihood, feasibility), plus seeded Monte-Carlo experiment drivers.
"""

__version__ = "0.1.0"

from .errors import (
    BadRank,
    DimensionMismatch,
    Infeasible,
    NotHermitian,
    NotPure,
    StrictQstError,
)
from .estimators import (
    EstimateResult,
    EstimatorSpec,
    estimate_least_squares,
    estimate_max_likelihood,
    estimate_trace_min,
    feasibility,
)
from .experiments import (
    NoisyProtocolConfig,
    NoisyProtocolResult,
    RobustnessScan,
    SweepConfig,
    SweepResult,
    run_completeness_sweep,
    run_noisy_protocol,
    run_robustness_scan,
)
from .measurement import (
    BasisSet,
    KernelReport,
    MeasurementRecord,
    PovmMap,
    kernel_analysis,
    noiseless_record,
    povm_from_bases,
    sample_record,
)
from .quantum import (
    QuantumState,
    StateModel,
    fidelity,
    global_random_bases,
    haar_random_unitary,
    infidelity,
    local_random_bases,
    random_full_rank_state,
    random_pure_state,
    random_rank_r_state,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "__version__",
    "BadRank",
    "BasisSet",
    "DEFAULT",
    "DimensionMismatch",
    "EstimateResult",
    "EstimatorSpec",
    "Infeasible",
    "KernelReport",
    "MeasurementRecord",
    "NoisyProtocolConfig",
    "NoisyProtocolResult",
    "NotHermitian",
    "NotPure",
    "PovmMap",
    "QuantumState",
    "RobustnessScan",
    "StateModel",
    "StrictQstError",
    "SweepConfig",
    "SweepResult",
    "Tolerances",
    "estimate_least_squares",
    "estimate_max_likelihood",
    "estimate_trace_min",
    "feasibility",
    "fidelity",
    "global_random_bases",
    "haar_random_unitary",
    "infidelity",
    "kernel_analysis",
    "local_random_bases",
    "noiseless_record",
    "povm_from_bases",
    "random_full_rank_state",
    "random_pure_state",
    "random_rank_r_state",
    "run_completeness_sweep",
    "run_noisy_protocol",
    "run_robustness_scan",
    "sample_record",
]
