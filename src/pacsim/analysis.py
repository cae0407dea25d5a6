"""Derived quantities: scaling fits, photon statistics, Wigner grids, W states."""

from __future__ import annotations

import functools
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
    <a^j psi | a^k Pi psi> / (j! k!), j, k < m with m the highest occupied
    level plus one. So W(x, p) e^{x^2 + p^2} is a polynomial of degree
    <= 2(m - 1) in each of x and p, and W lies exactly in the span of
    phi_a(sqrt2 x) phi_b(sqrt2 p), a, b < K = 2m - 1, phi being the
    orthonormal Hermite functions. The moment sum runs only on the K x K
    Gauss-Hermite nodes, which integrate the projection onto that basis with
    no quadrature error; one product gives the K x K coefficient matrix G
    and two more the whole grid, values = Phi_x^T G Phi_p. An n x n grid
    costs O(K^2 m^2 + n K (n + K)) instead of the O(n^2 m^2) of summing at
    every point, and the result is still exact on the truncation window up
    to rounding: there is no quadrature or parity-tail error beyond the
    stored state itself. The moment sum cancels terms far larger than W, so
    its rounding grows with the occupied levels: about 4e-13 for |10>, and
    it swamps W for a coherent state with |alpha| = 5. Conventions give
    integral W dx dp = 1 and W_vacuum(0, 0) = 1/pi.
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

    n_basis = 2 * m_dim - 1
    nodes, projector = _gauss_hermite_projector(n_basis)
    # node (u_i, u_j) is the phase-space point (x, p) = (u_i, u_j)/sqrt(2)
    at_nodes = _displaced_parity_sum(moments, nodes[:, None] + 1j * nodes[None, :])
    coeffs = projector @ at_nodes @ projector.T
    # p_axis equals x_axis, so one basis matrix serves both Phi_x and Phi_p
    basis = _hermite_functions(math.sqrt(2.0) * x_axis, n_basis)
    values = basis.T @ coeffs @ basis
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values)


def _displaced_parity_sum(moments: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """W at the points gamma = 2 beta, by a Horner sum over the ladder moments.

    Evaluates (1/pi) e^{-|gamma|^2/2} sum_{j,k} M[j,k] gamma^j (-conj gamma)^k.
    """
    neg_conj = -np.conj(gamma)
    acc = np.zeros_like(gamma)
    for row in moments[::-1]:
        inner = np.zeros_like(gamma)
        for m_jk in row[::-1]:
            inner = inner * neg_conj + m_jk
        acc = acc * gamma + inner
    return (np.exp(-np.abs(gamma) ** 2 / 2.0) * acc).real / math.pi


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


@functools.lru_cache(maxsize=16)
def _gauss_hermite_projector(n_basis: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes u_i and the matrix phi_a(u_i) w_i e^{u_i^2}.

    With n_basis nodes, sum_i w_i e^{u_i^2} phi_a(u_i) f(u_i) is exactly
    integral phi_a f du whenever f e^{u^2/2} is a polynomial of degree
    <= n_basis - 1. The weight factor is the Christoffel number
    w_i e^{u_i^2} = 1 / sum_a phi_a(u_i)^2, so neither the tiny outer
    weights nor e^{u^2} is ever formed: hermgauss's own weights overflow to
    nan from about 370 nodes. numpy.polynomial is imported here so that
    importing pacsim does not load it; results are memoized and read-only,
    shared by every caller and CLI thread.
    """
    from numpy.polynomial.hermite import hermgauss

    nodes = hermgauss(n_basis)[0]
    phi = _hermite_functions(nodes, n_basis)
    projector = phi / np.sum(phi**2, axis=0)
    nodes.setflags(write=False)
    projector.setflags(write=False)
    return nodes, projector


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
