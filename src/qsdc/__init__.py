"""Deterministic simulator of memory-assisted secure direct communication.

The package is organized by pipeline stage:

* :mod:`qsdc.core` — exact two-qubit states, local unitaries, fidelity.
* :mod:`qsdc.noise` — channels, memory models, calibration.
* :mod:`qsdc.measurement` — local measurements and Bell-state analysis.
* :mod:`qsdc.tomography` — nine-setting state tomography with error bars.
* :mod:`qsdc.protocol` — full communication sessions with security checks.
* :mod:`qsdc.config` / :mod:`qsdc.cli` — config files and the ``qsdc`` tool.
"""

from .core import (
    BELL_ORDER,
    BELL_TO_CODE,
    CODE_TO_BELL,
    BellLabel,
    PhysicalityReport,
    TwoBitCode,
    apply_local,
    bell_density,
    bell_state,
    density_from_csv,
    density_to_csv,
    encode_unitary,
    fidelity,
    hwp_unitary,
    pure_density,
    reduced_density,
    validate_physical,
)
from .errors import (
    CapacityError,
    ConfigParseError,
    QsdcError,
    TimingError,
    ValidationError,
)
from .measurement import (
    ERASURE,
    BsmMode,
    LocalBasis,
    basis_kets,
    bell_overlaps,
    outcome_probs,
    resolve_bsm,
    resolve_outcomes,
    sample_counts,
)
from .noise import (
    ChannelSpec,
    MemorySpec,
    NoiseKind,
    apply_channel,
    calibrate_noise,
)
from .protocol import (
    AbortStage,
    BasisPolicy,
    EncodedMessage,
    EveKind,
    EveStrategy,
    PairStates,
    SessionConfig,
    SessionResult,
    TimingPlan,
    encode_message,
    intercept_resend,
    plan_timing,
    result_csv_header,
    result_csv_row,
    run_session,
)
from .rng import derive_seed, random_bits, stream_rng
from .tomography import (
    FidelityReport,
    TomoDataset,
    dataset_from_csv,
    dataset_to_csv,
    exact_tomography,
    fidelity_with_error,
    linear_inversion,
    project_physical,
    simulate_tomography,
)

__version__ = "0.1.0"
