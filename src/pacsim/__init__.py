"""Cascaded parametric-amplifier simulation in truncated Fock space.

Builds photon-added coherent states by conditioning on single-photon
detection in the idler channels of a chain of two-mode squeezers, and
extracts the N-mode single-excitation (W) state heralded by identifying the
one-photon-added signal.
"""

from .analysis import (
    PhotonStatistics,
    ScalingFit,
    WignerGrid,
    WStateResult,
    extract_w_state,
    fit_power_law,
    photon_statistics,
    w_state_reference,
    wigner,
)
from .detection import (
    IMPOSSIBLE_PROBABILITY,
    ClickPattern,
    ConditionalState,
    DetectorModel,
    PatternOutcome,
    ProjectionResult,
    condition_on_pattern,
    conditional_density,
    enumerate_patterns,
    orthogonalized_reference,
    outcome_probability,
    project_signal,
)
from .dynamics import (
    DEFAULT_AMPLITUDE_BUDGET,
    ChainConfig,
    StageParams,
    herald_idlers,
    herald_summary,
    run_chain_full,
    run_chain_sequential,
    stage_kraus,
    stage_unitary,
    walk_patterns,
)
from .errors import (
    DimensionBudgetError,
    ScenarioError,
    StrongCouplingWarning,
    TruncationError,
    TruncationWarning,
)
from .fock import (
    ModeSpec,
    MultiMode,
    PureState,
    WeightedEnsemble,
    coherent_state,
    default_signal_dim,
    fidelity_ensemble,
    fidelity_pure,
    fock_state,
    mean_photon_number,
    pacs_state,
    partial_trace_to_marginal,
    single_mode,
)

__version__ = "0.1.0"
