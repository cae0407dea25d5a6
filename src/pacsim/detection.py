"""Click/no-click detector models and measurement conditioning.

Single-photon detectors are modeled by the standard on/off POVM, diagonal in
photon number: P(click | n) = 1 - (1 - dark_prob) (1 - eta)^n. Conditioning a
joint chain output on a click pattern yields the pattern probability and the
unnormalized conditional signal density matrix (conditional_density): the
same pair that dynamics.walk_patterns yields from the signal alone, and
the dense cross-check of it. condition_on_pattern turns it into a weighted
ensemble, the eigendecomposition of that matrix, so at most one branch per
signal level however many idler photon-number records stay unresolved.
outcome_probability is the one rule for which click outcomes are impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .fock import MultiMode, PureState, WeightedEnsemble, mean_photon_number

#: Heralding probabilities below this are reported as impossible outcomes: a
#: projection's probability comes out of cancellation, so a value this small
#: is rounding. Click probabilities are not held to it (see
#: conditional_from_density).
IMPOSSIBLE_PROBABILITY = 1e-30


@dataclass(frozen=True)
class DetectorModel:
    """On/off detector: quantum efficiency and per-gate dark-count probability."""

    eta: float = 1.0
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError(f"dark_prob must lie in [0, 1), got {self.dark_prob}")

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(eta=1.0, dark_prob=0.0)

    def click_probability(self, n) -> np.ndarray | float:
        """P(click | n photons arrive) = 1 - (1 - dark)(1 - eta)^n.

        Evaluated as dark + (1 - dark)(1 - (1 - eta)^n), which is the same
        polynomial but returns dark_prob bit-exactly at n = 0. Accepts
        scalars or arrays.
        """
        miss = (1.0 - self.eta) ** np.asarray(n)
        return self.dark_prob + (1.0 - self.dark_prob) * (1.0 - miss)


@dataclass(frozen=True)
class ClickPattern:
    """One binary outcome per idler detector, in stage order."""

    clicks: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "clicks", tuple(bool(c) for c in self.clicks))

    @classmethod
    def all(cls, n_detectors: int) -> list["ClickPattern"]:
        """All 2^n patterns, in lexicographic order with no-click first."""
        return [cls(bits) for bits in product((False, True), repeat=n_detectors)]

    @classmethod
    def from_string(cls, text: str) -> "ClickPattern":
        """Parse a pattern like "010" (1 = click)."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"pattern must be a nonempty string of 0/1, got {text!r}")
        return cls(tuple(c == "1" for c in text))

    def __len__(self) -> int:
        return len(self.clicks)

    def __str__(self) -> str:
        return "".join("1" if c else "0" for c in self.clicks)

    @property
    def n_clicks(self) -> int:
        return sum(self.clicks)


@dataclass(frozen=True)
class ConditionalState:
    """Outcome probability plus the conditional signal ensemble.

    ``ensemble`` is None for impossible outcomes (probability zero, or
    subnormal; see conditional_from_density).
    """

    probability: float
    ensemble: WeightedEnsemble | None

    @property
    def impossible(self) -> bool:
        return self.ensemble is None


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome probability plus the conditional idler state (None if impossible)."""

    probability: float
    state: PureState | None

    @property
    def impossible(self) -> bool:
        return self.state is None


@dataclass(frozen=True)
class PatternOutcome:
    """One row of a pattern enumeration: outcome, weight and signal summary."""

    pattern: ClickPattern
    probability: float
    ensemble: WeightedEnsemble | None
    mean_signal_photons: float | None


def _signal_space(joint: PureState) -> MultiMode:
    return MultiMode(joint.space.modes[:1])


def _idler_povm_weights(
    joint: PureState, pattern: ClickPattern, detector: DetectorModel
) -> np.ndarray:
    """POVM weight for every idler photon-number record, flattened."""
    idler_dims = joint.space.dims[1:]
    weights = np.ones(1)
    for clicked, d in zip(pattern.clicks, idler_dims):
        p_click = detector.click_probability(np.arange(d))
        factor = p_click if clicked else 1.0 - p_click
        weights = np.multiply.outer(weights, factor)
    return weights.reshape(-1)


def conditional_density(
    joint: PureState, pattern: ClickPattern, detector: DetectorModel
) -> tuple[float, np.ndarray]:
    """Pattern probability and unnormalized conditional signal density matrix.

    Applies the product on/off POVM over the idlers of a joint (signal +
    idlers) state and traces them out: rho = sum_r POVM(r) |col_r><col_r|
    over the idler records r, where col_r is the signal amplitude column of
    record r. Impossible outcomes are left to the caller (see
    outcome_probability).
    """
    n_idlers = joint.space.n_modes - 1
    if len(pattern) != n_idlers:
        raise ValueError(
            f"pattern has {len(pattern)} outcomes for {n_idlers} idler modes"
        )
    ds = joint.space.dims[0]
    columns = joint.amplitudes.reshape(ds, -1)
    mass = np.sum(np.abs(columns) ** 2, axis=0)
    # divide out the (unit, up to roundoff) total so outcome probabilities
    # honor the normalized-state contract exactly; the probability is this
    # sum rather than the trace of rho, which keeps the dark-count floor
    # bit-exact at zero coupling
    total = mass.sum()
    povm = _idler_povm_weights(joint, pattern, detector)
    probability = float(((mass / total) * povm).sum())
    return probability, (columns * (povm / total)) @ columns.conj().T


def condition_on_pattern(
    joint: PureState, pattern: ClickPattern, detector: DetectorModel
) -> ConditionalState:
    """Condition a joint (signal + idlers) state on one click pattern.

    Returns the pattern probability together with the normalized conditional
    signal ensemble of conditional_density's density matrix.
    """
    probability, rho = conditional_density(joint, pattern, detector)
    return conditional_from_density(rho, probability, _signal_space(joint))


def outcome_probability(probability: float) -> float:
    """``probability`` of a click outcome, or 0.0 where the outcome is impossible.

    A click probability is a sum of nonnegative terms, with nothing to
    cancel, so however small it is it is no rounding artifact. An outcome is
    impossible only when its probability is zero (as at zero coupling) or
    subnormal, below 2.2e-308, where the conditional density matrix has lost
    its precision and rho / probability overflows.
    """
    return 0.0 if probability < np.finfo(float).tiny else probability


def conditional_from_density(
    rho: np.ndarray, probability: float, space: MultiMode
) -> ConditionalState:
    """ConditionalState from an unnormalized conditional signal density matrix.

    The ensemble is the eigendecomposition of rho / probability. Eigenvalues
    below the rounding level of the largest one are dropped and the rest
    renormalized, so a pure conditional state yields one branch. Impossible
    outcomes (see outcome_probability) have probability 0.0 and no ensemble.
    """
    if outcome_probability(probability) == 0.0:
        return ConditionalState(probability=0.0, ensemble=None)
    weights, vectors = np.linalg.eigh(rho / probability)
    keep = np.nonzero(weights > weights[-1] * weights.size * np.finfo(float).eps)[0][::-1]
    weights = weights[keep] / weights[keep].sum()
    branches = tuple(
        (float(w), PureState.from_amplitudes(space, vectors[:, k]))
        for w, k in zip(weights, keep)
    )
    return ConditionalState(
        probability=probability, ensemble=WeightedEnsemble(space, branches)
    )


def orthogonalized_reference(
    reference: PureState, orthogonal_to: Sequence[PureState]
) -> PureState:
    """Unit component of ``reference`` orthogonal to span(orthogonal_to)."""
    vec = reference.amplitudes.astype(np.complex128)
    basis: list[np.ndarray] = []
    for other in orthogonal_to:
        if other.space.dims != reference.space.dims:
            raise ValueError("orthogonal_to states must share the reference space")
        w = other.amplitudes.astype(np.complex128)
        for b in basis:
            w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            basis.append(w / norm)
    for b in basis:
        vec = vec - np.vdot(b, vec) * b
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("reference lies in the span of orthogonal_to")
    return PureState(reference.space, vec / norm)


def project_signal(
    joint: PureState,
    reference: PureState,
    orthogonal_to: Sequence[PureState] = (),
) -> ProjectionResult:
    """Project the signal mode onto a reference state, keeping the idlers.

    With ``orthogonal_to`` empty this is the bare projector |ref><ref| on the
    signal. Passing states there projects instead onto the component of the
    reference orthogonal to their span; that models an ideal identification
    of the reference among a set of non-orthogonal alternatives (the relevant
    case when heralding on a photon-added state, whose coherent background
    would otherwise dominate the projection).
    """
    if reference.space.dims != joint.space.dims[:1]:
        raise ValueError(
            f"reference dim {reference.space.dims} does not match signal dim "
            f"({joint.space.dims[0]},)"
        )
    if orthogonal_to:
        reference = orthogonalized_reference(reference, orthogonal_to)
    ds = joint.space.dims[0]
    idler_vec = reference.amplitudes.conj() @ joint.amplitudes.reshape(ds, -1)
    return projection_result(idler_vec, MultiMode(joint.space.modes[1:]))


def projection_result(idler_vec: np.ndarray, idler_space: MultiMode) -> ProjectionResult:
    """ProjectionResult from the unnormalized heralded idler amplitudes."""
    probability = float(np.vdot(idler_vec, idler_vec).real)
    if probability < IMPOSSIBLE_PROBABILITY:
        return ProjectionResult(probability=0.0, state=None)
    state = PureState(idler_space, idler_vec / math.sqrt(probability))
    return ProjectionResult(probability=probability, state=state)


def pattern_outcome(pattern: ClickPattern, cond: ConditionalState) -> PatternOutcome:
    """Table row for one conditioned pattern; the mean is over the ensemble."""
    mean_n = None
    if cond.ensemble is not None:
        mean_n = float(sum(w * mean_photon_number(s) for w, s in cond.ensemble.branches))
    return PatternOutcome(
        pattern=pattern,
        probability=cond.probability,
        ensemble=cond.ensemble,
        mean_signal_photons=mean_n,
    )


def enumerate_patterns(joint: PureState, detector: DetectorModel) -> list[PatternOutcome]:
    """All 2^N click patterns with probabilities and signal summaries.

    Probabilities sum to 1 (POVM completeness). Patterns are listed in
    lexicographic order with no-click first, i.e. "00..", "00..1", ...
    """
    patterns = ClickPattern.all(joint.space.n_modes - 1)
    return [pattern_outcome(p, condition_on_pattern(joint, p, detector)) for p in patterns]
