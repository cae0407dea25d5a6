"""Derived quantities: scaling fits, photon statistics, Wigner grids, W states."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import DEFAULT_AMPLITUDE_BUDGET, ChainConfig, herald_idlers
from .errors import TruncationWarning
from .fock import (
    ModeSpec,
    MultiMode,
    PureState,
    fidelity_pure,
    mean_photon_number,
    pacs_state,
    partial_trace_to_marginal,
)


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


def photon_statistics(state: PureState, mode: int = 0) -> PhotonStatistics:
    dist = partial_trace_to_marginal(state, [mode])
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


def wigner(state: PureState, extent: float | None = None, step: float = 0.1) -> WignerGrid:
    """Wigner function of a single-mode state via the displaced-parity form.

    W(x, p) = (1/pi) <psi| D(2 beta) Pi |psi> with beta = (x + i p)/sqrt(2)
    and Pi the photon-number parity. Expanding D in normal order turns the
    expectation into a finite double sum over the state's ladder moments
    <a^j psi | a^k Pi psi> / (j! k!), which is evaluated exactly on the
    truncation window; there is no quadrature or parity-tail error beyond the
    stored state itself. Conventions give integral W dx dp = 1 and
    W_vacuum(0, 0) = 1/pi.
    """
    if state.space.n_modes != 1:
        raise ValueError("wigner expects a single-mode state")
    amps = state.amplitudes
    dim = amps.size
    top_mass = float(abs(amps[-1]) ** 2)
    if top_mass > 1e-8:
        warnings.warn(
            f"top Fock level holds mass {top_mass:.2e}; the stored state may "
            "not represent the intended one well enough for 1e-8 accuracy",
            TruncationWarning,
            stacklevel=2,
        )
    if extent is None:
        extent = math.sqrt(mean_photon_number(state)) + 4.0
    x_axis = np.arange(-extent, extent + step / 2, step)
    p_axis = x_axis.copy()

    # ladder moments M[j, k] = <a^j psi | a^k (parity psi)> / (j! k!);
    # a^j psi vanishes beyond the highest occupied level, so the sums stay
    # small even when the window is generous
    n_top = int(np.nonzero(np.abs(amps) > 0.0)[0][-1])
    m_dim = n_top + 1
    parity = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    down = np.zeros((m_dim, dim), dtype=np.complex128)
    down_p = np.zeros((m_dim, dim), dtype=np.complex128)
    down[0] = amps
    down_p[0] = parity * amps
    root_n = np.sqrt(np.arange(dim))
    for j in range(1, m_dim):
        down[j, : dim - 1] = root_n[1:] * down[j - 1, 1:]
        down_p[j, : dim - 1] = root_n[1:] * down_p[j - 1, 1:]
    inv_fact = np.array([1.0 / math.factorial(j) for j in range(m_dim)])
    moments = (down.conj() @ down_p.T) * np.outer(inv_fact, inv_fact)

    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    gamma = np.sqrt(2.0) * (xg + 1j * pg)  # 2 beta
    neg_conj = -np.conj(gamma)
    # Horner evaluation of sum_{j,k} M[j,k] gamma^j (-conj gamma)^k
    acc = np.zeros_like(gamma)
    for j in range(m_dim - 1, -1, -1):
        inner = np.zeros_like(gamma)
        row = moments[j]
        for k in range(m_dim - 1, -1, -1):
            inner = inner * neg_conj + row[k]
        acc = acc * gamma + inner
    values = (np.exp(-np.abs(gamma) ** 2 / 2.0) * acc).real / math.pi
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values)


def w_state_reference(n_modes: int, dim: int = 2) -> PureState:
    """Equal superposition of the single-excitation states over n_modes modes."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    space = MultiMode(
        tuple(ModeSpec(dim, f"idler-{j + 1}") for j in range(n_modes))
    )
    amps = np.zeros(dim**n_modes, dtype=np.complex128)
    for j in range(n_modes):
        flat = dim ** (n_modes - 1 - j)
        amps[flat] = 1.0 / math.sqrt(n_modes)
    return PureState(space, amps)


@dataclass(frozen=True)
class WStateResult:
    """Heralded idler state from identifying one added photon on the signal."""

    probability: float
    idler_state: PureState | None
    w_fidelity: float | None

    @property
    def impossible(self) -> bool:
        return self.idler_state is None


def w_state_fidelity(idler_state: PureState) -> float | None:
    """|<W|idlers>|^2 against the W state, or None when idler dims differ."""
    dims = idler_state.space.dims
    if any(d != dims[0] for d in dims):
        return None
    return fidelity_pure(idler_state, w_state_reference(len(dims), dim=dims[0]))


def extract_w_state(
    config: ChainConfig,
    ladder_max: int | None = None,
    budget: int = DEFAULT_AMPLITUDE_BUDGET,
) -> WStateResult:
    """Run the chain and herald on the single-photon-added signal state.

    The signal is projected onto the component of |alpha, 1> orthogonal to
    the other photon-added states |alpha, m> (m = 0, 2, .., ladder_max),
    modeling an ideal identification of the one-photon-added state among the
    non-orthogonal ladder of possible signal outputs. The conditional idler
    state then carries one excitation spread over all stages: the N-mode W
    state, up to weak-coupling corrections. Runs on herald_idlers, so
    ``budget`` caps its largest intermediate array, signal_dim times the
    idler dims of stages 2..N, and the joint state is never built.
    """
    if ladder_max is None:
        ladder_max = config.n_stages
    ds = config.signal_dim
    reference = pacs_state(config.alpha, 1, ds)
    others = [
        pacs_state(config.alpha, m, ds)
        for m in range(ladder_max + 1)
        if m != 1
    ]
    proj = herald_idlers(config, reference, orthogonal_to=others, budget=budget)
    if proj.state is None:
        return WStateResult(probability=proj.probability, idler_state=None, w_fidelity=None)
    return WStateResult(
        probability=proj.probability,
        idler_state=proj.state,
        w_fidelity=w_state_fidelity(proj.state),
    )
