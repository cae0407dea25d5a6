"""Truncated Fock-space states of the signal mode and their constructors.

The signal lives in a finite window |0>..|dim-1>, and a PureState holds its
normalized amplitudes there. Every state the package builds is a signal
state: the idlers are detected as they leave, so a conditional state is a
probability and a signal density matrix (dynamics.walk_patterns), and no
joint signal-idler or idler state is formed. pacs_ladder alone raises a
coherent state and checks its window; coherent_state and pacs_state are its
rungs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TruncationError
from .records import Record

#: Largest probability mass allowed outside the truncation window.
TAIL_MASS_LIMIT = 1e-12
#: Stored states must be normalized within this tolerance.
NORM_TOL = 1e-12


class PureState(Record):
    """Normalized complex amplitudes of one mode on the levels 0..dim-1.

    Every construction runs ``__post_init__``, looked up on the class, which
    validates the amplitudes and stores them read-only.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray):
        super().__init__(amplitudes)
        self.__post_init__()

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError(
                f"amplitudes must be a vector of two or more levels, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # refuses nan too
            raise ValueError(f"state must be normalized, got norm {float(norm)!r}")
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

    ``added_photons`` is m; the cutoff passes pacs_ladder's window check for
    rung m (see _photon_added). Where the coherent amplitudes underflow no
    cutoff does, and the floor is returned for the constructors to reject.
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

    The rungs on window d are the exact rungs cut at d, so a raise leaks at
    least 1/d below its rung's mode and only less past it: once a window
    passes, every larger one does. So the windows start + 0, 1, 3, 7, .. are
    tried until one passes, and the gap after the last failure is bisected.
    """
    if math.exp(-abs(alpha) ** 2 / 2.0) == 0.0:
        return None

    def passes(d: int) -> bool:
        return _photon_added(alpha, m, d)[1] is None

    last = start + 2 * _signal_dim_floor(alpha, m) - 1
    # in d <= m levels rung d - 1, raised once more, lies wholly on the top level
    failed, tried, step = None, max(start, m + 1), 1
    while not passes(tried):
        if tried == last:
            return None
        failed, tried, step = tried, min(last, tried + step), 2 * step
    while failed is not None and tried - failed > 1:
        middle = (failed + tried) // 2
        failed, tried = (failed, middle) if passes(middle) else (middle, tried)
    return tried


def tail_mass(alpha: complex, added_photons: int, dim: int) -> float:
    """Probability mass of a+^m |alpha> (normalized) on the levels >= ``dim``.

    This is the mass rung m of pacs_ladder(alpha, m, dim) drops, and
    1 - |<psi|phi>|^2 for the exact state psi and the stored one phi: a+ only
    raises levels, so the ladder's truncated raises give exactly the
    window's part of a+^m |alpha>, renormalized. With
    |<j+m|a+^m|alpha>|^2 proportional to (j+m)!/j!^2 |alpha|^(2j), the mass is
    a ratio of two sums of positive terms, so nothing cancels.

    At m >= 1 the ladder checks another quantity, the summed top-level
    probability of each renormalized raise. That sum is no bound on this
    mass: raise j + 1 weights the top level by dim / (<n>_j + 1) and scales
    the mass already above the window by (<n>_above + 1) / (<n>_j + 1), both
    above 1. At default cutoffs the mass came out 2 to 10 times the checked
    sum, and above TAIL_MASS_LIMIT for some states (1.3e-12 for m = 1,
    alpha = 2 at its default dim 27).
    """
    m = added_photons
    a2 = abs(alpha) ** 2
    if a2 == 0.0:  # alpha 0, or |alpha|^2 below the smallest float
        return 0.0
    # from j = 4 (|alpha|^2 + m) the term ratio |alpha|^2 (j+m+1)/(j+1)^2 is
    # below 1/3, so 200 more terms leave nothing a float can hold
    j = np.arange(max(dim - m, math.ceil(4 * (a2 + m))) + 200)
    log_terms = np.concatenate(
        ([0.0], np.cumsum(math.log(a2) + np.log((j[:-1] + m + 1) / (j[:-1] + 1) ** 2)))
    )
    terms = np.exp(log_terms - log_terms.max())
    return float(terms[max(dim - m, 0):].sum() / terms.sum())


def coherent_state(alpha: complex, dim: int) -> PureState:
    """Coherent state |alpha> truncated at ``dim``, renormalized: rung 0 of
    pacs_ladder, c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!). Raises
    TruncationError when the truncated tail mass exceeds 1e-12."""
    return pacs_ladder(alpha, 0, dim)[0]


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
    reduces to the coherent state at m=0 and to |m> at alpha=0. Rung m of
    pacs_ladder.
    """
    if m < 0:
        raise ValueError(f"photon-addition order must be nonnegative, got {m}")
    if alpha == 0:  # named |m>, where the ladder would name its first rung past dim
        return fock_state(m, dim)
    return pacs_ladder(alpha, m, dim)[m]


def pacs_ladder(alpha: complex, m_max: int, dim: int) -> list[PureState]:
    """a+^m |alpha>, normalized, for m = 0..m_max, from one run of raises.

    Raises TruncationError where the top rung leaks: the summed leak only
    grows with m, so its suggested cutoff holds every rung, where the first
    leaking rung's may not.
    """
    # at alpha = 0 the rungs are |m>, built directly where the window holds
    # them; the raise chain's check refuses a window that does not
    if alpha == 0 and m_max < dim:
        return [fock_state(m, dim) for m in range(m_max + 1)]
    rungs, problem = _photon_added(alpha, m_max, dim)
    if problem is not None:
        # the coherent state's search starts at the rule-of-thumb floor and
        # a raised one's just past dim; one start would change suggestions
        # (17 -> 15 for coherent_state(1, 5))
        start = dim + 1 if m_max else max(dim + 1, _signal_dim_floor(alpha))
        raise TruncationError(problem, suggested_dim=_smallest_window(alpha, m_max, start))
    return [PureState.from_amplitudes(raw) for raw in rungs]


def _photon_added(alpha: complex, m: int, dim: int) -> tuple[list[np.ndarray], str | None]:
    """Unnormalized a+^j |alpha> on the window for j = 0..m, and why ``dim``
    is too small for a+^m |alpha> (or None): the coherent amplitudes' tail
    mass, or else the summed mass the raises, each on the renormalized rung
    below, push past the top level, above TAIL_MASS_LIMIT."""
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    tail, size = 1.0 - float(np.sum(np.abs(amps) ** 2)), f"|alpha|={abs(alpha):.4g}"
    if tail > TAIL_MASS_LIMIT:
        return [amps], f"coherent state with {size} has tail mass {tail:.3e} beyond dim {dim}"
    rungs, raw, leak = [amps], amps / np.linalg.norm(amps), 0.0
    factors = np.sqrt(np.arange(1, dim))
    for _ in range(m):
        # a rung raised wholly past the top level is zero, and stays so
        norm = np.linalg.norm(raw)
        unit = raw / norm if norm else raw
        leak += float(abs(unit[-1]) ** 2)
        raw = np.zeros_like(unit)
        raw[1:] = factors * unit[:-1]
        rungs.append(raw)
    if leak > TAIL_MASS_LIMIT:
        return rungs, f"adding {m} photons to {size} leaks mass {leak:.3e} past dim {dim}"
    return rungs, None
