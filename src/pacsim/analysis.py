"""Derived quantities: scaling fits, photon statistics, Wigner grids, W states.

Wigner grids come straight from the density matrix: each two-mode photon
sector of rho is turned by a 50:50 beam splitter into the coefficients of W
on products of Hermite functions, and two matrix products evaluate the grid.

Every input is a single-mode state or density matrix: a photon-added
reference, or a click pattern's conditional signal rho / P from
dynamics.walk_patterns. W-state extraction reports the heralding
probability and the idlers' W fidelity from dynamics.herald_summary, a
contraction over the per-stage Kraus operators that never forms the idler
state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import ChainConfig, herald_summary
from .errors import TruncationWarning
from .fock import PureState, pacs_state


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit p = prefactor * lam^exponent from log-log least squares."""

    exponent: float
    prefactor: float
    r_squared: float
    samples: tuple[tuple[float, float], ...]


def fit_power_law(samples: Sequence[tuple[float, float]]) -> ScalingFit:
    """Fit log p against log lam by unweighted least squares.

    Probabilities span decades, so the relative-error (log-space) model is the
    appropriate one. Requires at least three samples with distinct positive
    lam and positive p.
    """
    samples = tuple((float(l), float(p)) for l, p in samples)
    lams = np.array([s[0] for s in samples])
    ps = np.array([s[1] for s in samples])
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    if len(set(lams.tolist())) != len(samples):
        raise ValueError("lam values must be distinct")
    if np.any(lams <= 0) or np.any(ps <= 0):
        raise ValueError("power-law fit needs lam > 0 and p > 0")
    x = np.log(lams)
    y = np.log(ps)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        r_squared=min(max(r_squared, 0.0), 1.0),
        samples=samples,
    )


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number distribution of one mode with mean and Mandel Q.

    Q = (<n^2> - <n>^2)/<n> - 1: zero for coherent light, -1 for a number
    state; values in between witness the coherent-to-Fock transition.
    """

    distribution: np.ndarray
    mean: float
    mandel_q: float


def photon_statistics(state: PureState) -> PhotonStatistics:
    dist = np.abs(state.amplitudes) ** 2
    n = np.arange(dist.size)
    mean = float(np.dot(n, dist))
    if mean == 0.0:
        q = 0.0
    else:
        var = float(np.dot(n**2, dist)) - mean**2
        q = var / mean - 1.0
    return PhotonStatistics(distribution=dist, mean=mean, mandel_q=q)


@dataclass(frozen=True)
class WignerGrid:
    """W(x, p) sampled on a uniform grid; values[i, j] = W(x_axis[i], p_axis[j])."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def integral(self) -> float:
        dx = float(self.x_axis[1] - self.x_axis[0])
        dp = float(self.p_axis[1] - self.p_axis[0])
        return float(self.values.sum()) * dx * dp

    def minimum(self) -> float:
        return float(self.values.min())


def wigner(rho: np.ndarray, extent: float | None = None, step: float = 0.1) -> WignerGrid:
    """Wigner function of a single-mode density matrix on a uniform grid.

    ``rho`` is normalized (a pure state psi passes psi psi^+), and the
    default ``extent`` is sqrt(<n>) + 4.

    With u = sqrt2 x and v = sqrt2 p, the Wigner function of |m><n| is an
    eigenfunction of the 2-D oscillator in (u, v) with s = m + n quanta, so
    W = sum_ab G[a, b] phi_a(u) phi_b(v) with phi the orthonormal Hermite
    functions and G nonzero only on the antidiagonals a + b = s < 2m - 1,
    m being the highest occupied level plus one. The map from rho to G is a
    45-degree rotation (a 50:50 beam splitter) of each two-mode s-photon
    sector; see _beam_splitter_sectors. It costs O(m^3), and two
    products give the whole grid, values = Phi_x^T G Phi_p. Every step is
    orthogonal or a bounded Hermite recurrence, so nothing cancels: against
    the closed forms on a +-12 grid the error is 1e-14 for |60> and 5e-14
    for |171> and |200>, and 7e-13 for a coherent state with alpha = 3 + 4j
    on a +-14 grid. No level limit applies; the cost grows as m^3.
    Conventions give integral W dx dp = 1 and W_vacuum(0, 0) = 1/pi.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"wigner expects a square density matrix, got shape {rho.shape}")
    if not np.any(rho):
        raise ValueError("rho has no occupied level: every entry is zero")
    occupations = np.diagonal(rho).real
    if occupations[-1] > 1e-8:
        warnings.warn(
            f"top Fock level holds mass {occupations[-1]:.2e}; the stored state may "
            "not represent the intended one well enough for 1e-8 accuracy",
            TruncationWarning,
            stacklevel=2,
        )
    if extent is None:
        extent = math.sqrt(float(np.arange(occupations.size) @ occupations)) + 4.0
    x_axis = np.arange(-extent, extent + step / 2, step)
    p_axis = x_axis.copy()

    # levels above the highest occupied one add nothing
    m_dim = int(np.nonzero(np.any(rho != 0, axis=0))[0][-1]) + 1
    coeffs = _sector_coefficients(rho[:m_dim, :m_dim])
    # p_axis equals x_axis, so one basis matrix serves both Phi_x and Phi_p
    basis = _hermite_functions(math.sqrt(2.0) * x_axis, coeffs.shape[0])
    values = basis.T @ coeffs @ basis
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values)


def _sector_coefficients(rho: np.ndarray) -> np.ndarray:
    """Hermite coefficients G of W for an m x m density matrix, K = 2m - 1.

    G[a, s-a] = pi^{-1/2} Re[(-i)^{s-a} sum_k R_s[a, k] rho[k, s-k]] with
    R_s the beam splitter on the s-photon sector (_beam_splitter_sectors).
    """
    m_dim = rho.shape[0]
    n_basis = 2 * m_dim - 1
    phase = np.array([1.0, -1j, -1.0, 1j])
    coeffs = np.zeros((n_basis, n_basis))
    for s, ks, rot in _beam_splitter_sectors(m_dim):
        a = np.arange(s + 1)
        coeffs[a, s - a] = (phase[(s - a) % 4] * (rot @ rho[ks, s - ks])).real
    return coeffs / math.sqrt(math.pi)


def _beam_splitter_sectors(m_dim: int):
    """Yield (s, ks, R_s[:, ks]) for every sector s < 2 m_dim - 1.

    R_s[a, k] = <a, s-a| R |k, s-k> is the 50:50 beam splitter on the
    two-mode s-photon sector: |k, l> in the output modes u, v with
    a_u^+ = (a_x^+ + a_y^+)/sqrt2 and a_v^+ = (a_x^+ - a_y^+)/sqrt2, written
    in the Fock basis of x and y. R_s follows from R_{s-1} by
    |k, l> = (sqrt k a_u^+ |k-1, l> + sqrt l a_v^+ |k, l-1>) / s, which
    averages two bounded terms; the one-term form a_u^+ |k-1, l> / sqrt k
    amplifies rounding. Only the columns ks that meet an m_dim x m_dim
    density matrix (k < m_dim and s - k < m_dim) are kept; they need no
    others from sector s - 1, so a sector holds at most m_dim columns.
    """
    root = np.sqrt(np.arange(2 * m_dim))
    ks, rot = np.zeros(1, dtype=int), np.ones((1, 1))
    yield 0, ks, rot
    for s in range(1, 2 * m_dim - 1):
        # a zero column either side stands for k outside the kept window
        padded = np.zeros((s, ks.size + 2))
        padded[:, 1:-1] = rot
        # row a of <a, s-a| a_x^+ and of <a, s-a| a_y^+ on sector s - 1
        raise_x = np.zeros((s + 1, ks.size + 2))
        raise_y = np.zeros_like(raise_x)
        raise_x[1:] = root[1 : s + 1, None] * padded
        raise_y[:-1] = root[s:0:-1, None] * padded
        new_ks = np.arange(max(0, s - m_dim + 1), min(s, m_dim - 1) + 1)
        at = new_ks - ks[0]
        rot = (
            root[new_ks] * (raise_x + raise_y)[:, at]
            + root[s - new_ks] * (raise_x - raise_y)[:, at + 1]
        ) / (s * math.sqrt(2.0))
        ks = new_ks
        yield s, ks, rot


def _hermite_functions(u: np.ndarray, n_basis: int) -> np.ndarray:
    """phi_a(u) for a < n_basis as rows, by the orthonormal three-term recurrence.

    phi_0 = pi^{-1/4} e^{-u^2/2}, phi_1 = sqrt2 u phi_0 and
    phi_{a+1} = sqrt(2/(a+1)) u phi_a - sqrt(a/(a+1)) phi_{a-1}, which stays
    bounded by pi^{-1/4} where the monomial form of H_a overflows.
    """
    phi = np.empty((n_basis, u.size))
    phi[0] = math.pi ** -0.25 * np.exp(-(u**2) / 2.0)
    if n_basis > 1:
        phi[1] = math.sqrt(2.0) * u * phi[0]
    for a in range(1, n_basis - 1):
        phi[a + 1] = math.sqrt(2.0 / (a + 1)) * u * phi[a] - math.sqrt(a / (a + 1)) * phi[a - 1]
    return phi


@dataclass(frozen=True)
class WStateResult:
    """Heralding on one added photon: probability and idlers' W fidelity."""

    probability: float
    w_fidelity: float | None

    @property
    def impossible(self) -> bool:
        return self.probability == 0.0


def extract_w_state(config: ChainConfig, ladder_max: int | None = None) -> WStateResult:
    """Run the chain and herald on the single-photon-added signal state.

    The signal is projected onto the component of |alpha, 1> orthogonal to
    the other photon-added states |alpha, m> (m = 0, 2, .., ladder_max),
    modeling an ideal identification of the one-photon-added state among the
    non-orthogonal ladder of possible signal outputs. The conditional idler
    state then carries one excitation spread over all stages: the N-mode W
    state, up to weak-coupling corrections. Runs on herald_summary, which
    contracts the chain's Kraus operators without forming the idler state.
    """
    if ladder_max is None:
        ladder_max = config.n_stages
    probability, w_fidelity = _herald_on_ladder(config, 1, ladder_max, plain=False)
    return WStateResult(probability=probability, w_fidelity=w_fidelity)


def _herald_on_ladder(
    config: ChainConfig, m: int, ladder_max: int, plain: bool
) -> tuple[float, float | None]:
    """herald_summary on |alpha, m>, orthogonalized against the other
    photon-added states |alpha, k> (k <= ladder_max) unless ``plain``."""
    ds = config.signal_dim
    others = () if plain else tuple(
        pacs_state(config.alpha, k, ds) for k in range(ladder_max + 1) if k != m
    )
    return herald_summary(config, pacs_state(config.alpha, m, ds), orthogonal_to=others)
