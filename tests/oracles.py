"""Reference implementations that only the tests use.

Each one builds its result the literal way (a dense generator, a Kronecker
product, a scalar formula), so the tests can hold the package's faster paths
against it.
"""

import numpy as np

from pacsim import (
    DetectorModel,
    ModeSpec,
    MultiMode,
    PureState,
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
