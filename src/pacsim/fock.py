"""Truncated Fock-space states of the signal mode and their constructors.

The signal lives in a finite window |0>..|dim-1>, and a PureState holds its
normalized amplitudes there. Every state the package builds is a signal
state: the idlers are detected as they leave, so a conditional state is a
probability and a signal density matrix (dynamics.walk_patterns), and no
joint signal-idler or idler state is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import TruncationError

#: Largest probability mass allowed outside the truncation window.
TAIL_MASS_LIMIT = 1e-12
#: Stored states must be normalized within this tolerance.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitudes of one mode on the levels 0..dim-1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError(
                f"amplitudes must be a vector of two or more levels, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state must be normalized, got norm {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, raw: np.ndarray) -> "PureState":
        """Build a state from an unnormalized vector, dividing out its norm."""
        raw = np.asarray(raw, dtype=np.complex128)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(raw / norm)

    @property
    def dim(self) -> int:
        """The Fock cutoff: the number of levels in the window."""
        return self.amplitudes.size


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def default_signal_dim(alpha: complex, added_photons: int = 0) -> int:
    """Smallest cutoff, from _signal_dim_floor up, that holds a+^m |alpha>.

    ``added_photons`` is m; the cutoff passes the tail check pacs_state (or,
    at m = 0, coherent_state) applies. Where the coherent amplitudes
    underflow no cutoff does, and the floor is returned for the constructors
    to reject.
    """
    floor = _signal_dim_floor(alpha, added_photons)
    found = _smallest_window(alpha, added_photons, floor)
    return floor if found is None else found


def _signal_dim_floor(alpha: complex, added_photons: int = 0) -> int:
    """Rule-of-thumb cutoff |alpha|^2 + 6|alpha| + 10 + m, at least 16.

    A lower bound of default_signal_dim that costs nothing to evaluate, so a
    caller can refuse an oversized state before any amplitude is formed.
    """
    a = abs(alpha)
    return max(16, math.ceil(a * a + 6.0 * a + 10.0) + added_photons)


def _smallest_window(alpha: complex, m: int, start: int) -> int | None:
    """Smallest dim >= start at which a+^m |alpha> passes its tail check.

    None where no window does: the coherent amplitudes underflow from
    |alpha| ~ 38.6 on, and a window twice the floor past ``start`` that still
    fails is taken as the same case.
    """
    if math.exp(-abs(alpha) ** 2 / 2.0) == 0.0:
        return None
    stop = start + 2 * _signal_dim_floor(alpha, m)
    return next((d for d in range(start, stop) if _photon_added(alpha, m, d)[1] is None), None)


def tail_mass(alpha: complex, added_photons: int, dim: int) -> float:
    """Probability mass of a+^m |alpha> (normalized) on the levels >= ``dim``.

    This is the mass pacs_state(alpha, m, dim) (coherent_state at m = 0)
    drops, and 1 - |<psi|phi>|^2 for the exact state psi and the stored one
    phi: a+ only raises levels, so the constructor's truncated raises give
    exactly the window's part of a+^m |alpha>, renormalized. With
    |<j+m|a+^m|alpha>|^2 proportional to (j+m)!/j!^2 |alpha|^(2j), the mass is
    a ratio of two sums of positive terms, so nothing cancels.

    pacs_state checks another quantity, the summed top-level probability of
    each renormalized raise. That sum is no bound on this mass: raise j + 1
    weights the top level by dim / (<n>_j + 1) and scales the mass already
    above the window by (<n>_above + 1) / (<n>_j + 1), both above 1. At
    default cutoffs the mass came out 2 to 10 times the checked sum, and
    above TAIL_MASS_LIMIT for some states (1.3e-12 for m = 1, alpha = 2 at
    its default dim 27).
    """
    m = added_photons
    if alpha == 0:
        return 0.0
    a2 = abs(alpha) ** 2
    # from j = 4 (|alpha|^2 + m) the term ratio |alpha|^2 (j+m+1)/(j+1)^2 is
    # below 1/3, so 200 more terms leave nothing a float can hold
    j = np.arange(max(dim - m, math.ceil(4 * (a2 + m))) + 200)
    log_terms = np.concatenate(
        ([0.0], np.cumsum(math.log(a2) + np.log((j[:-1] + m + 1) / (j[:-1] + 1) ** 2)))
    )
    terms = np.exp(log_terms - log_terms.max())
    return float(terms[max(dim - m, 0):].sum() / terms.sum())


def coherent_state(alpha: complex, dim: int) -> PureState:
    """Coherent state |alpha> truncated at ``dim``, renormalized.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!). Raises
    TruncationError when the truncated tail mass exceeds 1e-12.
    """
    amps, problem = _coherent_amplitudes(alpha, dim)
    if problem is not None:
        start = max(dim + 1, _signal_dim_floor(alpha))
        raise TruncationError(problem, suggested_dim=_smallest_window(alpha, 0, start))
    return PureState.from_amplitudes(amps)


def _coherent_amplitudes(alpha: complex, dim: int) -> tuple[np.ndarray, str | None]:
    """Truncated coherent amplitudes, and why ``dim`` is too small (or None)."""
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail > TAIL_MASS_LIMIT:
        return amps, (
            f"coherent state with |alpha|={abs(alpha):.4g} has tail mass "
            f"{tail:.3e} beyond dim {dim}"
        )
    return amps, None


def fock_state(n: int, dim: int) -> PureState:
    """Number state |n>."""
    if not 0 <= n < dim:
        raise ValueError(f"photon number {n} outside the window [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return PureState(amps)


def pacs_state(alpha: complex, m: int, dim: int) -> PureState:
    """Photon-added coherent state: m creation operators on |alpha>, normalized.

    The squared norm removed by normalization equals m! L_m(-|alpha|^2);
    reduces to the coherent state at m=0 and to |m> at alpha=0.
    """
    if m < 0:
        raise ValueError(f"photon-addition order must be nonnegative, got {m}")
    if m == 0:
        return coherent_state(alpha, dim)
    if alpha == 0:
        return fock_state(m, dim)
    raw, problem = _photon_added(alpha, m, dim)
    if problem is not None:
        raise TruncationError(problem, suggested_dim=_smallest_window(alpha, m, dim + 1))
    return PureState.from_amplitudes(raw)


def _photon_added(alpha: complex, m: int, dim: int) -> tuple[np.ndarray, str | None]:
    """Unnormalized a+^m |alpha> on the window, and why ``dim`` is too small.

    Renormalizes before each raise and sums the mass each raise pushes past
    the top level.
    """
    amps, problem = _coherent_amplitudes(alpha, dim)
    if problem is not None:
        return amps, problem
    raw = amps / np.linalg.norm(amps)
    factors = np.sqrt(np.arange(1, dim))
    leak_total = 0.0
    for _ in range(m):
        unit = raw / np.linalg.norm(raw)
        leak_total += float(abs(unit[-1]) ** 2)
        raw = np.zeros_like(unit)
        raw[1:] = factors * unit[:-1]
    if leak_total > TAIL_MASS_LIMIT:
        return raw, (
            f"adding {m} photons to |alpha|={abs(alpha):.4g} leaks mass "
            f"{leak_total:.3e} past dim {dim}"
        )
    return raw, None


# ---------------------------------------------------------------------------
# Fidelity and moments
# ---------------------------------------------------------------------------

def fidelity_pure(a: PureState, b: PureState) -> float:
    """Overlap fidelity |<a|b>|^2."""
    if a.dim != b.dim:
        raise ValueError(f"incompatible cutoffs {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def mean_photon_number(state: PureState) -> float:
    """<n> of a state."""
    probs = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(probs.size), probs))
