"""Cascaded parametric-amplifier simulation in truncated Fock space.

Builds photon-added coherent states by conditioning on single-photon
detection in the idler channels of a chain of two-mode squeezers, and
extracts the N-mode single-excitation (W) state heralded by identifying the
one-photon-added signal. Every answer is a probability and a conditional
signal state, reached through per-stage Kraus operators on the signal.
"""

from .analysis import (
    PhotonStatistics,
    ScalingFit,
    WignerGrid,
    WStateResult,
    extract_w_state,
    fit_power_law,
    photon_statistics,
    wigner,
)
from .detection import (
    ClickPattern,
    DetectorModel,
    orthogonalized_reference,
    outcome_probability,
)
from .dynamics import (
    IMPOSSIBLE_PROBABILITY,
    ChainConfig,
    StageParams,
    herald_summary,
    stage_kraus,
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
    PureState,
    coherent_state,
    default_signal_dim,
    fidelity_pure,
    fock_state,
    mean_photon_number,
    pacs_state,
)

__version__ = "0.1.0"
