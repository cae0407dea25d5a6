"""Two-mode squeezing stages and the chain's answers on the signal alone.

Each amplifier stage couples the travelling signal mode to a fresh idler
vacuum through U = exp[lam (a_s+ a_i+ - a_s a_i)]. The dimensionless strength
``lam`` bundles pump amplitude, mode coupling and crystal transit time; only
their product matters here. Because every idler enters in vacuum, meets the
signal once and is then detected, a stage is fully described by its Kraus
operators K_k = <k|U|0> acting on the signal (the sequential-ancilla picture
of Schoen, Solano, Verstraete, Cirac and Wolf, PRL 95, 110503 (2005)), and
every answer is a probability P and a conditional signal reached through
them. stage_kraus builds them from the vacuum-idler columns of U's blocks,
without forming U. walk_patterns folds the signal's density matrix through
them depth first over the click prefixes and yields every pattern's
(P, rho), so every pattern of a table shares its prefixes' folds;
herald_summary contracts them into the heralding probability and W
fidelity. Neither forms the joint signal-idler state or any array indexed
by idler records.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .detection import ClickPattern, DetectorModel, orthogonalized_reference
from .errors import StrongCouplingWarning
from .fock import PureState, coherent_state, default_signal_dim

#: Weak-coupling regime bound; beyond it leading-order scaling claims degrade.
WEAK_COUPLING_LIMIT = 0.3
#: Heralding probabilities below this are reported as impossible outcomes: a
#: projection's probability comes out of cancellation, so a value this small
#: is rounding. Click probabilities are not held to it (see
#: detection.outcome_probability).
IMPOSSIBLE_PROBABILITY = 1e-30


@dataclass(frozen=True)
class StageParams:
    """One amplifier stage: effective interaction strength and idler cutoff."""

    lam: float
    idler_dim: int = 4

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.idler_dim < 2:
            raise ValueError(f"idler_dim must be >= 2, got {self.idler_dim}")
        if self.lam > WEAK_COUPLING_LIMIT:
            warnings.warn(
                f"lam={self.lam} is outside the weak-coupling regime "
                f"(> {WEAK_COUPLING_LIMIT}); exact evolution remains valid",
                StrongCouplingWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class ChainConfig:
    """Seed coherent amplitude plus the ordered amplifier stages."""

    alpha: complex
    stages: tuple[StageParams, ...]
    signal_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("chain needs at least one stage")
        if self.signal_dim is None:
            object.__setattr__(
                self, "signal_dim", default_signal_dim(self.alpha, len(self.stages))
            )
        elif self.signal_dim < 2:
            raise ValueError(f"signal_dim must be >= 2, got {self.signal_dim}")

    @classmethod
    def uniform(
        cls,
        alpha: complex,
        lam: float,
        n_stages: int,
        idler_dim: int = 4,
        signal_dim: int | None = None,
    ) -> "ChainConfig":
        """Chain of ``n_stages`` identical stages."""
        return cls(alpha, tuple(StageParams(lam, idler_dim) for _ in range(n_stages)),
                   signal_dim)

    @property
    def n_stages(self) -> int:
        return len(self.stages)


def _expm_antisymmetric(gens: np.ndarray) -> np.ndarray:
    """exp of a stack of real antisymmetric matrices, by scaling and squaring.

    The k-th power of a tridiagonal generator is the leading term on its k-th
    off-diagonal, so a Taylor series keeps entries of order lam^k accurate
    relative to their size at weak coupling, where an eigendecomposition
    loses them to cancellation. The series runs past the matrix size, so
    every off-diagonal gets its leading term, and scaling keeps the norm at
    most 1/2, so the terms left out are below rounding.
    """
    n = gens.shape[-1]
    norm = float(np.abs(gens).sum(axis=-2).max())
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    scaled = gens / 2.0**squarings
    result = term = np.broadcast_to(np.eye(n), gens.shape)
    for j in range(1, n + 18):
        term = term @ scaled / j
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


@functools.lru_cache(maxsize=32)
def stage_kraus(lam: float, signal_dim: int, idler_dim: int) -> np.ndarray:
    """Kraus operators K_k = <k|U|0> of one stage on the signal, stacked.

    Returns a real, read-only (idler_dim, signal_dim, signal_dim) array: the
    stage maps a signal state psi to sum_k K_k psi (x) |k>. The generator
    conserves n = n_s - n_i, and a vacuum idler enters each block n >= 0 at
    |n, 0>, so with G_n the tridiagonal block on the states |n + k, k>,
    K_k[n + k, n] = exp(G_n)[k, 0]: K_k is nonzero only on its k-th
    subdiagonal, and U itself is never formed. Blocks of equal size are
    exponentiated together. sum_k K_k^T K_k = I because these are
    orthonormal columns of U. Results are memoized, so every runner,
    pattern and CLI thread shares one stack per distinct stage.
    """
    kraus = np.zeros((idler_dim, signal_dim, signal_dim))
    blocks: dict[int, list[int]] = {}
    for n in range(signal_dim):
        blocks.setdefault(min(idler_dim, signal_dim - n), []).append(n)
    for size, members in blocks.items():
        ns = np.array(members)[:, None]
        ks = np.arange(size)
        gens = np.zeros((ns.size, size, size))
        rows = np.arange(size - 1)
        gens[:, rows + 1, rows] = lam * np.sqrt((ns + ks[:-1] + 1.0) * (ks[:-1] + 1.0))
        gens[:, rows, rows + 1] = -gens[:, rows + 1, rows]
        kraus[ks, ns + ks, ns] = _expm_antisymmetric(gens)[:, :, 0]
    kraus.setflags(write=False)
    return kraus


def _chain_kraus(config: ChainConfig) -> list[np.ndarray]:
    return [stage_kraus(s.lam, config.signal_dim, s.idler_dim) for s in config.stages]


def walk_patterns(
    config: ChainConfig, detector: DetectorModel, pattern: ClickPattern | None = None
) -> Iterator[tuple[ClickPattern, float, np.ndarray]]:
    """Every click pattern's probability and conditional signal density matrix.

    Idlers never interact again once their stage has fired, so the chain
    acts on the signal's density matrix alone: each stage applies
    rho -> sum_k POVM(k) K_k rho K_k^T with the detector POVM of that stage's
    click outcome. The walk runs depth first over the click prefixes: each
    prefix's rho is folded once and shared by every pattern that extends
    it, and the products K_k rho of a node serve both its children. So a
    table of all 2^N patterns costs 2^(N+1) - 2 folds, not N 2^N.

    Yields (pattern, P, rho) per leaf, with rho unnormalized and
    P = tr rho, in lexicographic order with no-click first ("00..",
    "00..1", ...). Given ``pattern``, walks only its prefix path (N folds)
    and yields its one leaf. Impossible outcomes are left to the caller
    (see detection.outcome_probability).
    """
    if pattern is not None and len(pattern) != config.n_stages:
        raise ValueError(
            f"pattern has {len(pattern)} outcomes for {config.n_stages} stages"
        )
    ds = config.signal_dim
    stages = []
    for kraus in _chain_kraus(config):
        p_click = detector.click_probability(np.arange(kraus.shape[0]))
        # [povm(k) K_k^T] stacked over k, for no click and for a click
        stages.append((kraus, [
            (povm[:, None, None] * kraus).transpose(0, 2, 1).reshape(-1, ds)
            for povm in (1.0 - p_click, p_click)
        ]))
    # every K_k is real and raises the level by k, so the fold commutes with
    # rho -> D rho D^+, D = diag(e^{in arg alpha}): the walk runs in real
    # arithmetic from |abs(alpha)> and puts the phases back at the leaves
    phase = np.exp(1j * np.angle(config.alpha) * np.arange(ds))
    rotation = np.outer(phase, phase.conj())
    psi = coherent_state(abs(config.alpha), ds).amplitudes.real

    def descend(rho: np.ndarray, clicks: tuple[bool, ...]):
        depth = len(clicks)
        if depth == len(stages):
            yield ClickPattern(clicks), float(np.trace(rho)), rho * rotation
            return
        kraus, weighted = stages[depth]
        kraus_rho = kraus @ rho
        for clicked in (False, True) if pattern is None else (pattern.clicks[depth],):
            yield from descend(_fold(kraus_rho, weighted[clicked]), clicks + (clicked,))

    return descend(np.outer(psi, psi), ())


def _fold(kraus_rho: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """sum_k POVM(k) K_k rho K_k^T from the products K_k rho, as one matrix product.

    ``weighted`` stacks the POVM(k) K_k^T over k.
    """
    ds = kraus_rho.shape[-1]
    return kraus_rho.transpose(1, 0, 2).reshape(ds, -1) @ weighted


def _heralding_reference(
    config: ChainConfig, reference: PureState, orthogonal_to: Sequence[PureState]
) -> np.ndarray:
    """Amplitudes of the reference, orthogonalized against ``orthogonal_to``."""
    ds = config.signal_dim
    if reference.dim != ds:
        raise ValueError(f"reference dim {reference.dim} does not match signal dim {ds}")
    if orthogonal_to:
        reference = orthogonalized_reference(reference, orthogonal_to)
    return reference.amplitudes


def herald_summary(
    config: ChainConfig,
    reference: PureState,
    orthogonal_to: Sequence[PureState] = (),
) -> tuple[float, float | None]:
    """Heralding probability and W-state fidelity, without the idler state.

    For the heralded idler amplitudes c[k1..kN] = <r|K_kN .. K_k1|alpha>,
    r the reference orthogonalized against ``orthogonal_to``, returns
    P = sum |c|^2 and F_W = |<W|c>|^2 / P, the fidelity of the heralded
    idler state c / sqrt(P) with the N-mode W state. F_W is None when the
    idler dims differ, and an impossible outcome (P below
    IMPOSSIBLE_PROBABILITY) gives (0.0, None). Nothing indexed by idler
    records is formed: memory is O(S ds^2) and time O(N S di ds^3), with
    S <= min(N (di - 1) + 1, ds) sectors.

    P = sum_K ||A_K^T r||^2 with A_K A_K^T = sum psi psi^T over the records
    psi = K_kj .. K_k1|alpha> of total idler excitation K. A stage maps A_K
    to [K_0 A_K | K_1 A_(K-1) | ..], and a factor wider than its rank bound
    is cut back by the R factor of a QR. K_k raises the signal level by k,
    so A_K lives on levels >= K, has rank <= ds - K and is stored from
    level K on; sectors K >= ds are empty. The factors are graded by K
    because P is far smaller than the records' norms at weak coupling: one
    density matrix rho <- sum_k K_k rho K_k^T with P = <r|rho|r> squares the
    amplitudes before they cancel against r and loses P to rounding (it
    even turns negative at lam = 1e-6 with a two-photon reference), while
    each graded factor is rounded relative to its own sector's size. The W
    overlap sum_j c[e_j] is <r|u> from the two-vector recursion
    u <- K_0 u + K_1 v, v <- K_0 v.
    """
    ds = config.signal_dim
    ref = _heralding_reference(config, reference, orthogonal_to)
    # every K_k is real and raises the level by k, so level n of a record
    # with excitation K has the phase e^{i(n - K) arg alpha}; e^{-iK arg alpha}
    # drops out of |<r|psi>|, and moving e^{in arg alpha} onto the bra leaves
    # every factor real
    bra = ref * np.exp(-1j * np.angle(config.alpha) * np.arange(ds))
    bra = np.stack([bra.real, bra.imag], axis=1)
    seed = coherent_state(abs(config.alpha), ds).amplitudes.real
    # factors[K] is A_K^T restricted to levels K..ds-1: (width, ds - K)
    factors = [seed[None, :]]
    u, v = np.zeros(ds), seed
    for stack in _chain_kraus(config):
        # the only nonzero entries of K_k: subs[k][b] = <b + k|K_k|b>
        subs = [np.diagonal(op, -k) for k, op in enumerate(stack[:ds])]
        grown = []
        for total in range(min(len(factors) + len(subs) - 1, ds)):
            ks = range(max(0, total - len(factors) + 1), min(total, len(subs) - 1) + 1)
            block = np.concatenate(
                [factors[total - k][:, : ds - total] * subs[k][total - k :] for k in ks]
            )
            if block.shape[0] > block.shape[1]:
                block = np.linalg.qr(block, mode="r")
            grown.append(block)
        factors = grown
        u = subs[0] * u
        u[1:] += subs[1] * v[:-1]
        v = subs[0] * v
    probability = sum(float(np.sum((f @ bra[k:]) ** 2)) for k, f in enumerate(factors))
    if probability < IMPOSSIBLE_PROBABILITY:
        return 0.0, None
    if len({s.idler_dim for s in config.stages}) > 1:
        return probability, None
    return probability, float(np.sum((u @ bra) ** 2)) / (config.n_stages * probability)
