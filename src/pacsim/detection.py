"""Click/no-click detector models, the impossibility rule and heralding references.

Single-photon detectors are modeled by the standard on/off POVM, diagonal in
photon number: P(click | n) = 1 - (1 - dark_prob) (1 - eta)^n. A click
pattern is one outcome per idler detector; dynamics.walk_patterns folds
each pattern's POVM into the signal's density matrix and yields its
probability P and unnormalized conditional signal rho, the one form in
which the package reports a conditional state. outcome_probability is the
one rule for which click outcomes are impossible, and
orthogonalized_reference builds the identification direction that
dynamics.herald_summary projects the signal onto.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import FieldError
from .fock import PureState
from .records import Record

_TINY = np.finfo(float).tiny


class DetectorModel(Record):
    """On/off detector: quantum efficiency and per-gate dark-count probability."""

    __slots__ = ("eta", "dark_prob")

    def __init__(self, eta: float = 1.0, dark_prob: float = 0.0):
        if not 0.0 <= eta <= 1.0:
            raise FieldError("eta", f"eta must lie in [0, 1], got {eta}")
        if not 0.0 <= dark_prob < 1.0:
            raise FieldError("dark_prob", f"dark_prob must lie in [0, 1), got {dark_prob}")
        super().__init__(eta, dark_prob)

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


class ClickPattern(Record):
    """One binary outcome per idler detector, in stage order."""

    __slots__ = ("clicks",)

    def __init__(self, clicks: tuple[bool, ...]):
        super().__init__(tuple(bool(c) for c in clicks))

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


def outcome_probability(probability: float) -> float:
    """``probability`` of a click outcome, or 0.0 where the outcome is impossible.

    A click probability is a sum of nonnegative terms, with nothing to
    cancel, so however small it is it is no rounding artifact. An outcome is
    impossible only when its probability is zero (as at zero coupling) or
    subnormal, below 2.2e-308, where the conditional density matrix has lost
    its precision and rho / probability overflows.
    """
    return 0.0 if probability < _TINY else probability


def orthogonalized_reference(
    reference: PureState, orthogonal_to: Sequence[PureState]
) -> PureState:
    """Unit component of ``reference`` orthogonal to span(orthogonal_to).

    The reference is projected out twice: one pass over a nearly collinear
    photon-added ladder leaves an overlap of order eps times its condition
    number, which heralding at zero coupling reads as a probability of 1e-24.
    """
    vec = reference.amplitudes.astype(np.complex128)
    basis: list[np.ndarray] = []
    for other in orthogonal_to:
        if other.dim != reference.dim:
            raise ValueError("orthogonal_to states must share the reference cutoff")
        w = other.amplitudes.astype(np.complex128)
        for b in basis:
            w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm > 1e-12:
            basis.append(w / norm)
    for b in basis * 2:
        vec = vec - np.vdot(b, vec) * b
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("reference lies in the span of orthogonal_to")
    return PureState(vec / norm)
