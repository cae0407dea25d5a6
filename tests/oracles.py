"""Reference implementations that only the tests use.

Each one builds its result the literal way (a dense generator or stage
unitary, a Kronecker product, a scalar formula, the joint signal-idler
state on its own multimode type), so the tests can hold the package's
faster paths against it.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Literal, NamedTuple, Sequence

import numpy as np

from pacsim import (
    IMPOSSIBLE_PROBABILITY,
    ChainConfig,
    ClickPattern,
    DetectorModel,
    PureState,
    TruncationWarning,
    WignerGrid,
    coherent_state,
    default_signal_dim,
    orthogonalized_reference,
)
from pacsim import cli
from pacsim.dynamics import _expm_antisymmetric, stage_subdiagonals
from pacsim.fock import _photon_added, _signal_dim_floor

#: Ladder leakage above this triggers a TruncationWarning.
LEAKAGE_WARN_LIMIT = 1e-10

_LAGUERRE_SERIES_MAX = 12
_LAGUERRE_ORDER_GUARD = 170


@dataclass(frozen=True)
class MultiModeState:
    """Normalized amplitudes over several modes with cutoffs ``dims``.

    The package's PureState holds one mode; the joint signal-idler state and
    the heralded idler states of the references live here. Amplitudes are
    flattened row-major, the first mode varying slowest, so tensor_view()
    is indexed by occupation numbers.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (math.prod(self.dims),):
            raise ValueError(f"amplitudes of shape {amps.shape} for modes {self.dims}")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            raise ValueError(f"state must be normalized, got norm {np.linalg.norm(amps)!r}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, dims: Sequence[int], raw: np.ndarray) -> "MultiModeState":
        return cls(tuple(dims), raw / np.linalg.norm(raw))

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


def mode_dims(state: PureState | MultiModeState) -> tuple[int, ...]:
    """The cutoff of each mode: one for a package PureState."""
    return state.dims if isinstance(state, MultiModeState) else (state.dim,)


def overlap_fidelity(
    a: PureState | MultiModeState, b: PureState | MultiModeState
) -> float:
    """|<a|b>|^2 of two states on the same modes."""
    if mode_dims(a) != mode_dims(b):
        raise ValueError(f"incompatible modes {mode_dims(a)} vs {mode_dims(b)}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def mean_photon_number(state: PureState) -> float:
    """<n> of a state."""
    probs = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(probs.size), probs))


class PhotonStatistics(NamedTuple):
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


class LadderResult(NamedTuple):
    """Unnormalized result of a ladder operator, with norm and leakage.

    ``leakage`` is the input probability mass sitting at the top Fock level
    of the raised mode, i.e. the mass whose image falls outside the window.
    """

    amplitudes: np.ndarray
    norm: float
    leakage: float


def ladder_apply(
    state: PureState | MultiModeState, mode: int, kind: Literal["raise", "lower"]
) -> LadderResult:
    """Apply a creation or annihilation operator to one mode.

    Raising drops the amplitude that leaves the window; the input mass at the
    top level is reported as ``leakage`` and warned about above 1e-10.
    """
    dims = mode_dims(state)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode index {mode} outside 0..{len(dims) - 1}")
    if kind not in ("raise", "lower"):
        raise ValueError(f"kind must be 'raise' or 'lower', got {kind!r}")
    d = dims[mode]
    tensor = np.moveaxis(state.amplitudes.reshape(dims).copy(), mode, 0)
    out = np.zeros_like(tensor)
    factors = np.sqrt(np.arange(1, d))
    leakage = 0.0
    if kind == "raise":
        leakage = float(np.sum(np.abs(tensor[d - 1]) ** 2))
        out[1:] = factors.reshape((-1,) + (1,) * (tensor.ndim - 1)) * tensor[:-1]
        if leakage > LEAKAGE_WARN_LIMIT:
            warnings.warn(
                f"raising mode {mode} leaks mass {leakage:.3e} past its window",
                TruncationWarning,
                stacklevel=2,
            )
    else:
        out[:-1] = factors.reshape((-1,) + (1,) * (tensor.ndim - 1)) * tensor[1:]
    result = np.moveaxis(out, 0, mode).reshape(-1)
    return LadderResult(result, float(np.linalg.norm(result)), leakage)


def laguerre_series(m: int, x: float) -> float:
    """L_m(x) by the defining series sum_n (-1)^n x^n m! / ((n!)^2 (m-n)!).

    The alternating terms cancel catastrophically in floats for x > 0 and
    large m, so the sum runs in exact rational arithmetic (a float argument
    is an exact rational) and is rounded once at the end.
    """
    xr = Fraction(x)
    total = Fraction(0)
    m_fact = math.factorial(m)
    for n in range(m + 1):
        coeff = Fraction(m_fact, math.factorial(n) ** 2 * math.factorial(m - n))
        total += (-1) ** n * xr**n * coeff
    return float(total)


def laguerre_recurrence(m: int, x: float) -> float:
    """L_m(x) by the stable three-term recurrence."""
    if m == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def laguerre(m: int, x: float) -> float:
    """Laguerre polynomial L_m(x); series for small m, recurrence above.

    For x <= 0 all series terms are nonnegative, so L_m(x) >= 1.
    """
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    if m > _LAGUERRE_ORDER_GUARD:
        raise ValueError(
            f"order {m} exceeds the factorial overflow guard ({_LAGUERRE_ORDER_GUARD})"
        )
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    if m <= _LAGUERRE_SERIES_MAX:
        return laguerre_series(m, x)
    return laguerre_recurrence(m, x)


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


def stage_kraus(lam: float, signal_dim: int, idler_dim: int) -> np.ndarray:
    """Kraus operators K_k = <k|U|0> of one stage on the signal, stacked.

    A real (idler_dim, signal_dim, signal_dim) array, the dense view of
    dynamics.stage_subdiagonals: K_k holds row k of the entries on its k-th
    subdiagonal and is 0 from k = signal_dim on. The stage maps a signal
    state psi to sum_k K_k psi (x) |k>.
    """
    subs = stage_subdiagonals([lam], signal_dim, idler_dim)[0]
    kraus = np.zeros((idler_dim, signal_dim, signal_dim))
    for k in range(min(idler_dim, signal_dim)):
        kraus[k] = np.diag(subs[k, : signal_dim - k], -k)
    return kraus


def stage_unitary(lam: float, signal_dim: int, idler_dim: int) -> np.ndarray:
    """Exact stage unitary exp(G) as a dense real-orthogonal matrix.

    G conserves the photon-number difference n_s - n_i, so the exponential is
    assembled from one small tridiagonal block per difference value instead of
    exponentiating the full (signal x idler)-sized generator; blocks of equal
    size are exponentiated together. The result is identical to the
    exponential of the full generator lam (a_s+ a_i+ - a_s a_i) up to
    roundoff but stays cheap at large cutoffs.
    """
    u = np.zeros((signal_dim * idler_dim, signal_dim * idler_dim))
    blocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for delta in range(-(idler_dim - 1), signal_dim):
        ks = np.arange(max(0, -delta), min(idler_dim, signal_dim - delta))
        couplings = lam * np.sqrt((delta + ks[:-1] + 1.0) * (ks[:-1] + 1.0))
        blocks.setdefault(ks.size, []).append(((delta + ks) * idler_dim + ks, couplings))
    for size, members in blocks.items():
        idx = np.array([i for i, _ in members])
        gens = np.zeros((len(members), size, size))
        rows = np.arange(size - 1)
        gens[:, rows + 1, rows] = [couplings for _, couplings in members]
        gens[:, rows, rows + 1] = -gens[:, rows + 1, rows]
        u[idx[:, :, None], idx[:, None, :]] = _expm_antisymmetric(gens[None])[0]
    return u


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
) -> MultiModeState:
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
    return MultiModeState.normalized((signal_dim, idler_dim), psi)


def tensor(a: PureState | MultiModeState, b: PureState | MultiModeState) -> MultiModeState:
    """Kronecker composition; modes of ``a`` come first (and vary slowest)."""
    return MultiModeState(mode_dims(a) + mode_dims(b), np.kron(a.amplitudes, b.amplitudes))


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
    """The wigner grid axis and 2 beta = sqrt(2) (x + i p) at every point.

    The axis has the n points of np.arange(-extent, extent + step / 2, step);
    where they span [-extent, extent] to rounding it is (k - (n - 1) / 2) step.
    """
    axis = np.arange(-extent, extent + step / 2, step)
    n = axis.size
    if n > 1 and math.isclose((n - 1) * step, 2 * extent, rel_tol=1e-12):
        axis = (np.arange(n) - (n - 1) / 2) * step
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    return axis, np.sqrt(2.0) * (xg + 1j * pg)


def wigner_dense(state: PureState, extent: float, step: float) -> WignerGrid:
    """W(x, p) by the displaced-parity Horner sum at every grid point.

    W(x, p) = (1/pi) <psi| D(2 beta) Pi |psi> with beta = (x + i p)/sqrt(2),
    expanded in normal order into a double sum over the ladder moments:
    O(n^2 m^2) for an n x n grid and m occupied levels, and a route to W
    that shares nothing with ``pacsim.wigner``'s beam-splitter sectors. The
    sum cancels terms up to horner_magnitude in size, so it suits states
    with few photons only.
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


def beam_splitter_sectors_reference(m_dim: int):
    """analysis._beam_splitter_sectors as first written: every sector's
    padded and raised arrays are fresh, its columns picked by index arrays.
    The package builds the same R_s, element for element, in reused buffers."""
    root = np.sqrt(np.arange(2 * m_dim))
    ks, rot = np.zeros(1, dtype=int), np.ones((1, 1))
    yield 0, ks, rot
    for s in range(1, 2 * m_dim - 1):
        padded = np.zeros((s, ks.size + 2))
        padded[:, 1:-1] = rot
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


def sector_coefficients_reference(rho: np.ndarray) -> np.ndarray:
    """analysis._sector_coefficients as first written, one index-array
    scatter per sector, on beam_splitter_sectors_reference."""
    m_dim = rho.shape[0]
    n_basis = 2 * m_dim - 1
    phase = np.array([1.0, -1j, -1.0, 1j])
    coeffs = np.zeros((n_basis, n_basis))
    for s, ks, rot in beam_splitter_sectors_reference(m_dim):
        a = np.arange(s + 1)
        coeffs[a, s - a] = (phase[(s - a) % 4] * (rot @ rho[ks, s - ks])).real
    return coeffs / math.sqrt(math.pi)


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


def _propagate(config: ChainConfig, n_stages: int) -> np.ndarray:
    """The seed pushed through the first ``n_stages`` stages, every idler record kept.

    One row per idler record (k1, .., kj), kj varying fastest, and one
    column per signal level: each stage is one product with
    [K_0^T | K_1^T | ..], whose rows a reshape splits per record.
    """
    ds = config.signal_dim
    state = coherent_state(config.alpha, ds).amplitudes[None, :]
    for stage in config.stages[:n_stages]:
        kraus = stage_kraus(stage.lam, ds, stage.idler_dim)
        state = (state @ kraus.transpose(2, 0, 1).reshape(ds, -1)).reshape(-1, ds)
    return state


def _idler_dims(config: ChainConfig) -> tuple[int, ...]:
    return tuple(s.idler_dim for s in config.stages)


def joint_state(config: ChainConfig) -> MultiModeState:
    """The chain's output on the joint space, modes signal, idler 1 .. idler N."""
    amplitudes = _propagate(config, config.n_stages).T.reshape(-1)
    return MultiModeState.normalized((config.signal_dim,) + _idler_dims(config), amplitudes)


def conditional_density(
    joint: MultiModeState, pattern: ClickPattern, detector: DetectorModel
) -> tuple[float, np.ndarray]:
    """Pattern probability and unnormalized conditional signal density matrix.

    rho = sum_r POVM(r) |col_r><col_r| over the idler records r, col_r being
    the signal column of record r, with the product on/off POVM over the
    idlers. P is the POVM-weighted column mass over the total mass, not
    tr rho, which keeps the dark-count floor bit-exact at zero coupling.
    """
    ds = joint.dims[0]
    povm = np.ones(1)
    for clicked, dim in zip(pattern.clicks, joint.dims[1:], strict=True):
        p_click = detector.click_probability(np.arange(dim))
        povm = np.multiply.outer(povm, p_click if clicked else 1.0 - p_click).reshape(-1)
    columns = joint.amplitudes.reshape(ds, -1)
    mass = np.sum(np.abs(columns) ** 2, axis=0)
    total = mass.sum()
    probability = float(((mass / total) * povm).sum())
    return probability, (columns * (povm / total)) @ columns.conj().T


def herald_idlers(
    config: ChainConfig, reference: PureState, orthogonal_to: Sequence[PureState] = ()
) -> tuple[float, MultiModeState | None]:
    """Heralding probability and idler state, c[k1..kN] = <r|K_kN .. K_k1|alpha>.

    r is the reference orthogonalized against ``orthogonal_to``. The seed
    goes through stages 1..N-1 and is contracted with <r|K_k of the last.
    The state is None where P is below IMPOSSIBLE_PROBABILITY.
    """
    if orthogonal_to:
        reference = orthogonalized_reference(reference, orthogonal_to)
    last = config.stages[-1]
    bras = reference.amplitudes.conj() @ stage_kraus(last.lam, config.signal_dim, last.idler_dim)
    amps = (_propagate(config, config.n_stages - 1) @ bras.T).reshape(-1)
    probability = float(np.vdot(amps, amps).real)
    if probability < IMPOSSIBLE_PROBABILITY:
        return 0.0, None
    return probability, MultiModeState(_idler_dims(config), amps / math.sqrt(probability))


def herald_summary_all_sectors(
    config: ChainConfig,
    reference: PureState,
    orthogonal_to: Sequence[PureState] = (),
) -> tuple[float, float | None]:
    """dynamics.herald_summary with every excitation sector built, stage by stage.

    Each stage maps every sector's QR-compressed factor A_K (A_K A_K^T = sum
    psi psi^T over the records of total idler excitation K) to
    [K_0 A_K | K_1 A_(K-1) | ..], and P = sum_K ||A_K^T r||^2 over all of
    them, none skipped. The W overlap comes from the same two-vector
    recursion. The package builds the same blocks sector by sector and
    stops once the sectors left cannot change P.
    """
    ds = config.signal_dim
    if reference.dim != ds:
        raise ValueError(f"reference dim {reference.dim} does not match signal dim {ds}")
    if orthogonal_to:
        reference = orthogonalized_reference(reference, orthogonal_to)
    # every K_k is real and raises the level by k, so level n of a record
    # with excitation K has the phase e^{i(n - K) arg alpha}; e^{-iK arg alpha}
    # drops out of |<r|psi>|, and moving e^{in arg alpha} onto the bra leaves
    # every factor real
    bra = reference.amplitudes * np.exp(-1j * np.angle(config.alpha) * np.arange(ds))
    bra = np.stack([bra.real, bra.imag], axis=1)
    seed = coherent_state(abs(config.alpha), ds).amplitudes.real
    # factors[K] is A_K^T restricted to levels K..ds-1: (width, ds - K)
    factors = [seed[None, :]]
    u, v = np.zeros(ds), seed
    for stack in (stage_kraus(s.lam, ds, s.idler_dim) for s in config.stages):
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


def w_state_reference(n_modes: int, dim: int = 2) -> MultiModeState:
    """Equal superposition of the single-excitation states over n_modes modes."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    amps = np.zeros(dim**n_modes)
    amps[[dim**j for j in range(n_modes)]] = 1.0 / math.sqrt(n_modes)
    return MultiModeState((dim,) * n_modes, amps)


def density(state: PureState | MultiModeState) -> np.ndarray:
    """psi psi^+ of a state's amplitudes."""
    return np.outer(state.amplitudes, state.amplitudes.conj())


def fidelity(probability: float, rho: np.ndarray, ref: PureState) -> float:
    """<ref|rho|ref> / P, the fidelity of a conditional signal (P, rho) with ref."""
    return float((ref.amplitudes.conj() @ rho @ ref.amplitudes).real) / probability


def emit_wigner(grid: WignerGrid, path: str | Path) -> None:
    """Write ``grid`` to ``path`` through the CLI's one writer."""
    cli._write_outputs({path: grid}, {path: "path"})


def load_wigner(path: str | Path) -> WignerGrid:
    """Inverse of emit_wigner: every value read back exactly, -0.0 included."""
    x_axis = p_axis = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# x:"):
            x_axis = np.array(line[4:].split(), dtype=float)
        elif line.startswith("# p:"):
            p_axis = np.array(line[4:].split(), dtype=float)
        elif line.startswith("#") or not line.strip():
            continue
        else:
            rows.append(np.array(line.split(), dtype=float))
    if x_axis is None or p_axis is None:
        raise ValueError(f"{path}: missing axis headers")
    widths = {row.size for row in rows}
    if len(rows) != x_axis.size or widths - {p_axis.size}:
        raise ValueError(
            f"{path}: {len(rows)} rows of {sorted(widths)} values do not match axes "
            f"({x_axis.size}, {p_axis.size})"
        )
    values = np.array(rows).reshape(x_axis.size, p_axis.size)
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values)


def smallest_window_scan(alpha: complex, m: int, start: int) -> int | None:
    """fock._smallest_window by trying every window in turn: the first from
    max(start, m + 1) at which a+^m |alpha> passes pacs_ladder's check, or
    None where none does within twice the floor past ``start``."""
    if math.exp(-abs(alpha) ** 2 / 2.0) == 0.0:
        return None
    windows = range(max(start, m + 1), start + 2 * _signal_dim_floor(alpha, m))
    return next((d for d in windows if _photon_added(alpha, m, d)[1] is None), None)
