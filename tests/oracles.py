"""Reference implementations that only the tests use.

Each one builds its result the literal way (a dense generator, a Kronecker
product, a scalar formula), so the tests can hold the package's faster paths
against it.
"""

import math

import numpy as np

from pacsim import (
    DetectorModel,
    ModeSpec,
    MultiMode,
    PureState,
    WignerGrid,
    coherent_state,
    default_signal_dim,
)


def lowering_matrix(dim: int) -> np.ndarray:
    """Dense annihilation operator: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim))
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def stage_generator(lam: float, signal_dim: int, idler_dim: int) -> np.ndarray:
    """Generator G = lam (a_s+ a_i+ - a_s a_i) on the signal (x) idler space.

    Real and antisymmetric in the Fock basis; exp(G) is therefore exactly
    orthogonal on the truncated space.
    """
    a_s = lowering_matrix(signal_dim)
    a_i = lowering_matrix(idler_dim)
    return lam * (np.kron(a_s.T, a_i.T) - np.kron(a_s, a_i))


def orthogonality_defect(u: np.ndarray) -> float:
    """max |U^T U - I|, the full-space unitarity defect."""
    g = u.T @ u
    g[np.diag_indices_from(g)] -= 1.0
    return float(np.max(np.abs(g)))


def perturbative_output(
    alpha: complex,
    lam: float,
    order: int,
    signal_dim: int | None = None,
    idler_dim: int = 4,
) -> PureState:
    """Taylor expansion of the stage output through ``order`` in lam.

    Expands exp(G)|alpha>|0> literally as (I + G + G^2/2 + ...)|alpha>|0> and
    renormalizes. Valid as a weak-coupling approximation; at order 1 the idler
    single-photon weight obeys P(1)/P(0) = lam^2 (1 + |alpha|^2).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if signal_dim is None:
        signal_dim = default_signal_dim(alpha, order)
    g = stage_generator(lam, signal_dim, idler_dim)
    signal = coherent_state(alpha, signal_dim)
    vac = np.zeros(idler_dim, dtype=np.complex128)
    vac[0] = 1.0
    psi = np.kron(signal.amplitudes, vac)
    term = psi.copy()
    for k in range(1, order + 1):
        term = (g @ term) / k
        psi = psi + term
    space = MultiMode((ModeSpec(signal_dim, "signal"), ModeSpec(idler_dim, "idler-1")))
    return PureState.from_amplitudes(space, psi)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker composition; modes of ``a`` come first (and vary slowest)."""
    space = MultiMode(a.space.modes + b.space.modes)
    return PureState(space, np.kron(a.amplitudes, b.amplitudes))


def click_probability_given_n(detector: DetectorModel, n: int) -> float:
    if n < 0:
        raise ValueError(f"photon count must be nonnegative, got {n}")
    return float(detector.click_probability(n))


def _ladder_moments(amps: np.ndarray) -> np.ndarray:
    """M[j, k] = <a^j psi | a^k (parity psi)> / (j! k!), j, k < m."""
    dim = amps.size
    m_dim = int(np.nonzero(np.abs(amps) > 0.0)[0][-1]) + 1
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
    return (down.conj() @ down_p.T) * np.outer(inv_fact, inv_fact)


def _grid_gamma(extent: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The wigner grid axis and 2 beta = sqrt(2) (x + i p) at every point."""
    axis = np.arange(-extent, extent + step / 2, step)
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    return axis, np.sqrt(2.0) * (xg + 1j * pg)


def wigner_dense(state: PureState, extent: float, step: float) -> WignerGrid:
    """W(x, p) by the displaced-parity Horner sum at every grid point.

    The same ladder-moment sum as ``pacsim.wigner``, evaluated directly on
    the full grid instead of on Gauss-Hermite nodes: O(n^2 m^2) for an n x n
    grid and m occupied levels.
    """
    moments = _ladder_moments(state.amplitudes)
    axis, gamma = _grid_gamma(extent, step)
    neg_conj = -np.conj(gamma)
    acc = np.zeros_like(gamma)
    for j in range(moments.shape[0] - 1, -1, -1):
        inner = np.zeros_like(gamma)
        row = moments[j]
        for k in range(moments.shape[1] - 1, -1, -1):
            inner = inner * neg_conj + row[k]
        acc = acc * gamma + inner
    values = (np.exp(-np.abs(gamma) ** 2 / 2.0) * acc).real / math.pi
    return WignerGrid(x_axis=axis, p_axis=axis.copy(), values=values)


def horner_magnitude(state: PureState, extent: float, step: float) -> float:
    """max over the grid of e^{-|gamma|^2/2}/pi sum_{j,k} |M[j,k]| |gamma|^{j+k}.

    The magnitude of the terms the ladder-moment sum adds up; eps times this
    bounds the rounding error of that sum, which grows quickly with the
    occupied levels (about 1.6e-12 for |11> on a 4 x 4 window).
    """
    magnitudes = np.abs(_ladder_moments(state.amplitudes))
    radius = np.abs(_grid_gamma(extent, step)[1]).ravel()
    powers = radius[:, None] ** np.arange(magnitudes.shape[0])
    terms = np.einsum("jk,pj,pk->p", magnitudes, powers, powers)
    return float(np.max(np.exp(-(radius**2) / 2.0) * terms)) / math.pi
