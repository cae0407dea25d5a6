"""Cascaded parametric-amplifier simulation in truncated Fock space.

Builds photon-added coherent states by conditioning on single-photon
detection in the idler channels of a chain of two-mode squeezers, and
extracts the N-mode single-excitation (W) state heralded by identifying the
one-photon-added signal. Every answer is a probability and a conditional
signal state, reached through per-stage Kraus operators on the signal.
"""

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
    WStateResult,
    extract_w_state,
    herald_summary,
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
    fock_state,
    pacs_state,
)

__version__ = "0.1.0"

#: names of pacsim.analysis that ``pacsim`` exports; the module is imported
#: on first use (PEP 562), so that starting the CLI does not compile it
_ANALYSIS_NAMES = ("ScalingFit", "WignerGrid", "fit_power_law", "wigner")


def __getattr__(name: str):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ANALYSIS_NAMES})
