"""Two-mode squeezing stages and the chain's answers on the signal alone.

Each amplifier stage couples the travelling signal mode to a fresh idler
vacuum through U = exp[lam (a_s+ a_i+ - a_s a_i)]. The dimensionless strength
``lam`` bundles pump amplitude, mode coupling and crystal transit time; only
their product matters here. Because every idler enters in vacuum, meets the
signal once and is then detected, a stage is fully described by its Kraus
operators K_k = <k|U|0> acting on the signal (the sequential-ancilla picture
of Schoen, Solano, Verstraete, Cirac and Wolf, PRL 95, 110503 (2005)), and
every answer is a probability P and a conditional signal reached through
them. K_k is nonzero only on its k-th subdiagonal: stage_subdiagonals
computes those entries from the vacuum-idler columns of U's blocks, for a
batch of lam in one stacked exponential per block size and without forming
U, and every runner below gets its chain's stages from _stage_entries, one
such call per (signal_dim, idler_dim), and its seed from _seed, the real
amplitudes of |abs(alpha)> and the level phases of alpha. walk_patterns
builds the dense K_k from the entries and folds the signal's density matrix
through those level by level over the click prefixes, a depth's prefixes in
stacked products, and yields every pattern's (P, rho), so every pattern of
a table shares its prefixes' folds; pattern_table reads a table's columns
off those leaves (P, the fidelity to the photon-added state of the
pattern's click count and the mean photon number). A probability alone
needs only the signal's populations: lift_populations carries them through
one stage, and pattern_probabilities reads one pattern's P on a batch of
chains (a sweep's values) through it, from the squared entries.
herald_summary contracts the entries into the heralding probability and W
fidelity, with lift_populations bounding the excitation sectors it can
skip; extract_w_state reports them for a reference from the photon-added
ladder. None of them forms the joint signal-idler state or any array
indexed by idler records.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .detection import ClickPattern, DetectorModel, orthogonalized_reference, outcome_probability
from .errors import FieldError, StrongCouplingWarning
from .fock import PureState, coherent_state, default_signal_dim, pacs_ladder
from .records import Record

#: Weak-coupling regime bound; beyond it leading-order scaling claims degrade.
WEAK_COUPLING_LIMIT = 0.3
#: Largest lam a stage accepts. The rounding of stage_subdiagonals grows
#: about linearly with lam: max |sum_k K_k^T K_k - I| is 5e-13 at lam = 100
#: for cutoffs (19, 4) and below 5e-12 up to (100, 20), but 4e-5 at 1e10 and
#: of order 1 at 1e14, and from about 1e18 the entries are nan.
MAX_LAM = 100.0
#: Idler cutoff of a stage that names none: a rule of thumb for weak coupling.
DEFAULT_IDLER_DIM = 4
#: Heralding probabilities below this are reported as impossible outcomes: a
#: projection's probability comes out of cancellation, so a value this small
#: is rounding. Click probabilities are not held to it (see
#: detection.outcome_probability).
IMPOSSIBLE_PROBABILITY = 1e-30


class StageParams(Record):
    """One amplifier stage: effective interaction strength and idler cutoff."""

    __slots__ = ("lam", "idler_dim")

    def __init__(self, lam: float, idler_dim: int = DEFAULT_IDLER_DIM):
        if not math.isfinite(lam):
            raise FieldError("lam", f"lam must be finite, got {lam}")
        if lam < 0:
            raise FieldError("lam", f"lam must be nonnegative, got {lam}")
        if lam > MAX_LAM:
            raise FieldError("lam", f"lam must be at most {MAX_LAM}, got {lam}")
        if idler_dim < 2:
            raise FieldError("idler_dim", f"idler_dim must be >= 2, got {idler_dim}")
        if lam > WEAK_COUPLING_LIMIT:
            # from any signal state the idler number of one stage is at least
            # as spread as its geometric law from vacuum, P(k >= K) = tanh^2K
            warnings.warn(
                f"lam={lam} is outside the weak-coupling regime (> {WEAK_COUPLING_LIMIT}); "
                f"one exact stage puts at least tanh(lam)^(2 idler_dim) = "
                f"{math.tanh(lam) ** (2 * idler_dim):.3g} of the probability on idler "
                f"numbers that idler_dim={idler_dim} does not hold",
                StrongCouplingWarning,
                stacklevel=2,
            )
        super().__init__(lam, idler_dim)


class ChainConfig(Record):
    """Seed coherent amplitude plus the ordered amplifier stages."""

    __slots__ = ("alpha", "stages", "signal_dim")

    def __init__(
        self, alpha: complex, stages: tuple[StageParams, ...], signal_dim: int | None = None
    ):
        stages = tuple(stages)
        if not stages:
            raise ValueError("chain needs at least one stage")
        if signal_dim is None:
            signal_dim = default_signal_dim(alpha, len(stages))
        elif signal_dim < 2:
            raise ValueError(f"signal_dim must be >= 2, got {signal_dim}")
        super().__init__(alpha, stages, signal_dim)

    @classmethod
    def uniform(
        cls,
        alpha: complex,
        lam: float,
        n_stages: int,
        idler_dim: int = DEFAULT_IDLER_DIM,
        signal_dim: int | None = None,
    ) -> "ChainConfig":
        """Chain of ``n_stages`` identical stages."""
        return cls(alpha, tuple(StageParams(lam, idler_dim) for _ in range(n_stages)),
                   signal_dim)

    @property
    def n_stages(self) -> int:
        return len(self.stages)


def _expm_antisymmetric(gens: np.ndarray) -> np.ndarray:
    """exp of real antisymmetric matrices, (L, B, n, n), by scaling and squaring.

    The k-th power of a tridiagonal generator is the leading term on its k-th
    off-diagonal, so a Taylor series keeps entries of order lam^k accurate
    relative to their size at weak coupling, where an eigendecomposition
    loses them to cancellation. The series runs past the matrix size, so
    every off-diagonal gets its leading term, and scaling keeps the norm at
    most 1/2, so the terms left out are below rounding. Each of the L
    stacks of B matrices is scaled and squared by its own largest norm, so
    its exponentials are bit for bit those of the stack alone.
    """
    stacks, n = gens.shape[:2], gens.shape[-1]
    norms = np.abs(gens).sum(axis=-2).max(axis=(-2, -1)).tolist()
    squarings = [max(0, math.ceil(math.log2(x)) + 1) if x > 0.0 else 0 for x in norms]
    scales = np.repeat([2.0**s for s in squarings], stacks[1])[:, None, None]
    scaled = gens.reshape(-1, n, n) / scales  # past the scaling, each matrix is on its own
    result, term, buf = np.eye(n) + scaled, scaled.copy(), np.empty_like(scaled)
    for j in range(2, n + 18 if max(norms) > 0.0 else 0):  # in place; exp(0) = I
        np.divide(np.matmul(term, scaled, out=buf), j, out=term)
        result += term
    for i in range(max(squarings)):
        live = np.repeat([s > i for s in squarings], stacks[1])
        result[live] = result[live] @ result[live]
    return result.reshape(*stacks, n, n)


def stage_subdiagonals(lams: Sequence[float], signal_dim: int, idler_dim: int) -> np.ndarray:
    """<b + k|K_k|b>, the only nonzero entries of a stage's K_k, for a batch of lam.

    Returns a real (len(lams), idler_dim, signal_dim) array, 0 where
    b + k >= signal_dim. The generator conserves n = n_s - n_i, and a vacuum
    idler enters each block n >= 0 at |n, 0>, so with G_n the tridiagonal
    block on the states |n + k, k>, <n + k|K_k|n> = exp(G_n)[k, 0], and U
    itself is never formed. The blocks of one size are exponentiated in one
    stack for every lam, each lam scaled on its own (_expm_antisymmetric),
    so a lam's entries are bit for bit those it gets alone.
    """
    lams = np.asarray(lams, dtype=float)
    subs = np.zeros((lams.size, idler_dim, signal_dim))
    blocks: dict[int, list[int]] = {}
    for n in range(signal_dim):
        blocks.setdefault(min(idler_dim, signal_dim - n), []).append(n)
    for size, members in blocks.items():
        ns = np.array(members)[:, None]
        if size == 1:  # exp(0) = 1
            subs[:, 0, ns[:, 0]] = 1.0
            continue
        ks = np.arange(size)
        gens = np.zeros((lams.size, ns.size, size, size))
        rows = np.arange(size - 1)
        couplings = np.sqrt((ns + ks[:-1] + 1.0) * (ks[:-1] + 1.0))
        gens[:, :, rows + 1, rows] = lams[:, None, None] * couplings
        gens[:, :, rows, rows + 1] = -gens[:, :, rows + 1, rows]
        subs[:, ks, ns] = _expm_antisymmetric(gens)[..., 0]
    return subs


def _stage_entries(chains: Iterable[ChainConfig]) -> dict[tuple[float, int, int], np.ndarray]:
    """stage_subdiagonals of every distinct stage of ``chains``, keyed (lam,
    signal_dim, idler_dim), from one call per (signal_dim, idler_dim): the
    one way a runner gets its stages, so equal stages share one array."""
    lams: dict[tuple[int, int], dict[float, None]] = {}
    for chain in chains:
        for stage in chain.stages:
            lams.setdefault((chain.signal_dim, stage.idler_dim), {})[stage.lam] = None
    return {(lam, *dims): sub for dims, batch in lams.items()
            for lam, sub in zip(batch, stage_subdiagonals(list(batch), *dims))}


def _seed(alpha: complex, signal_dim: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The seed |alpha> as the real amplitudes of |abs(alpha)> on the window,
    and its level phases e^{in arg alpha}: None for real alpha >= 0, exactly
    (-1)^n for real alpha < 0 and complex otherwise. Every K_k is real and
    raises the level by k, so a record of excitation K from |alpha> is its
    record from |abs(alpha)> times those phases and e^{-iK arg alpha}: the
    runners work in real arithmetic and put the phases back where they read."""
    levels = np.arange(signal_dim)
    if alpha.imag != 0.0:
        phases = np.exp(1j * np.angle(alpha) * levels)
    else:
        phases = None if alpha.real >= 0.0 else (-1.0) ** levels
    return coherent_state(abs(alpha), signal_dim).amplitudes.real, phases


def walk_patterns(
    config: ChainConfig, detector: DetectorModel, pattern: ClickPattern | None = None
) -> Iterator[tuple[ClickPattern, float, np.ndarray]]:
    """Every click pattern's probability and conditional signal density matrix.

    Idlers never interact again once their stage has fired, so the chain
    acts on the signal's density matrix alone: each stage applies
    rho -> sum_k POVM(k) K_k rho K_k^T with the detector POVM of that stage's
    click outcome. The walk goes level by level over the click prefixes:
    each prefix's rho is folded once and shared by every pattern that
    extends it, the products K_k rho of a prefix serve both its children,
    and a depth's prefixes are folded together, in stacks of bounded size.
    So a table of all 2^N patterns costs 2^(N+1) - 2 prefix folds, not N 2^N.

    Yields (pattern, P, rho) per leaf, with rho unnormalized and
    P = tr rho, in lexicographic order with no-click first ("00..",
    "00..1", ...); rho is float64 where alpha is real, and complex
    otherwise. Given ``pattern``, walks only its prefix path (N folds)
    and yields its one leaf. Impossible outcomes are left to the caller
    (see detection.outcome_probability).
    """
    if pattern is not None and len(pattern) != config.n_stages:
        raise ValueError(f"pattern has {len(pattern)} outcomes for {config.n_stages} stages")
    return ((p, float(probability), rho) for batch in _walk_batches(config, detector, pattern)
            for p, probability, rho in zip(*batch))


def pattern_table(
    config: ChainConfig, detector: DetectorModel, pattern: ClickPattern | None = None
) -> Iterator[tuple[ClickPattern, float, float | None, float | None]]:
    """walk_patterns' leaves, in its order, as a table reads them (_readings),
    against one fock.pacs_ladder for each ladder top."""
    ladder = functools.cache(lambda top: pacs_ladder(config.alpha, top, config.signal_dim))
    for batch in _walk_batches(config, detector, pattern):
        yield from _readings(*batch, ladder)


def _readings(
    patterns: list[ClickPattern], probabilities: Iterable[float], rhos: np.ndarray,
    ladder: Callable[[int], list[PureState]],
) -> list[tuple[ClickPattern, float, float | None, float | None]]:
    """(pattern, P, <r|rho|r> / P, sum_n n rho_nn / P) of a run of leaves, read
    straight from their stacked unnormalized signals rho; r is rung m of
    ``ladder(top)``, the m-photon-added states for m = 0..top, m the
    pattern's clicks. An impossible outcome (detection.outcome_probability)
    reads P = 0.0 with None for the other two. Each leaf is reduced on its
    own, so its values do not depend on the run it comes in."""
    probabilities = [outcome_probability(float(p)) for p in probabilities]
    live = [i for i, p in enumerate(probabilities) if p > 0.0]
    fid = mean_n = {}
    if live:
        clicks = [patterns[i].n_clicks for i in live]
        rungs = ladder(max(clicks))
        refs = np.array([rungs[m].amplitudes for m in clicks])
        rho, live_p = rhos[live], np.take(probabilities, live)
        f = (refs.conj() * (rho @ refs[:, :, None])[:, :, 0]).sum(axis=-1).real / live_p
        n = (np.diagonal(rho, 0, 1, 2).real * np.arange(rho.shape[-1])).sum(axis=-1) / live_p
        fid, mean_n = dict(zip(live, f.tolist())), dict(zip(live, n.tolist()))
    return [(pattern, p, fid.get(i), mean_n.get(i))
            for i, (pattern, p) in enumerate(zip(patterns, probabilities))]


#: Most K_k rho entries (float64, 2 MB) a fold of the walk stacks: a stack of
#: prefixes whose last fold would pass it is split in halves, walked in turn,
#: so the walk's memory stays within a few times this whatever N is.
_WALK_ENTRIES = 2**18


def _walk_batches(
    config: ChainConfig, detector: DetectorModel, pattern: ClickPattern | None = None
) -> Iterator[tuple[list[ClickPattern], np.ndarray, np.ndarray]]:
    """walk_patterns' leaves in lexicographic runs, (patterns, P, rho) stacked, each
    bit for bit as walked alone; ``pattern``, if given, has one outcome per stage."""
    ds, n = config.signal_dim, config.n_stages
    entries, stacks, stages = _stage_entries([config]), {}, []
    for depth, stage in enumerate(config.stages):
        di = stage.idler_dim
        if (stage.lam, di) not in stacks:  # equal stages share one stack
            # K_k stacked over k: the flat index of <b + k|K_k|b> is k ds + b (ds + 1)
            kraus = np.zeros((di, ds, ds))
            flat, subs = kraus.reshape(di, -1), entries[stage.lam, ds, di]
            for k in range(min(di, ds)):
                flat[k, k * ds :: ds + 1] = subs[k, : ds - k]
            p_click = detector.click_probability(np.arange(di))
            # [povm(k) K_k^T] stacked over k, for no click and for a click
            stacks[stage.lam, di] = kraus, np.stack([
                (povm[:, None, None] * kraus).transpose(0, 2, 1).reshape(-1, ds)
                for povm in (1.0 - p_click, p_click)
            ])
        kraus, weighted = stacks[stage.lam, di]
        # an integer index: [True] would be a boolean mask
        outcomes = slice(None) if pattern is None else [int(pattern.clicks[depth])]
        stages.append((kraus, weighted[outcomes]))
    most = max(1, _WALK_ENTRIES // max(kraus.size for kraus, _ in stages))
    psi, phases = _seed(config.alpha, ds)
    rotation = None if phases is None else np.outer(phases, phases.conj())
    # (depth, index of the stack's first prefix among its depth's, rho
    # stack); the last is walked next, so the leaves come out in order
    todo = [(0, 0, np.outer(psi, psi)[None])]
    while todo:
        depth, first, rhos = todo.pop()
        if depth == n:
            bits = (np.arange(first, first + len(rhos))[:, None] >> np.arange(n)[::-1]) & 1
            patterns = [ClickPattern(b) for b in bits.tolist()] if pattern is None else [pattern]
            leaves = rhos if rotation is None else rhos * rotation
            yield patterns, np.trace(rhos, axis1=1, axis2=2), leaves
        elif len(rhos) > 1 and len(rhos) << (n - 1 - depth) > most:
            half = len(rhos) // 2
            todo += [(depth, first + half, rhos[half:]), (depth, first, rhos[:half])]
        else:
            kraus, weighted = stages[depth]
            children = _fold(kraus[None] @ rhos[:, None], weighted)
            todo.append((depth + 1, first * len(weighted), children))


def _fold(kraus_rhos: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """sum_k POVM(k) K_k rho K_k^T of every prefix and outcome, as one stacked product:
    the products K_k rho of B prefixes, (B, di, ds, ds), and the POVM(k) K_k^T
    stacked over k per outcome, (outcomes, di ds, ds), give the children
    (B outcomes, ds, ds), prefix-major."""
    b, di, ds, _ = kraus_rhos.shape
    flat = kraus_rhos.transpose(0, 2, 1, 3).reshape(b, 1, ds, di * ds)
    return (flat @ weighted).reshape(-1, ds, ds)


def lift_populations(pops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One stage on the signal's populations, kept apart by idler excitation.

    pops[K][b] is the population of signal level b in the records of total
    idler excitation K, and weights[k][b] the share of it that K_k lifts to
    b + k: <b + k|K_k|b>^2, times the detector's POVM(k) for one outcome. K_k
    maps b to b + k alone and every POVM is diagonal in k, so populations
    need no coherence: returns pops'[K + k][b + k] = sum_k weights[k][b]
    pops[K][b], with min(len(pops) + di - 1, ds) sectors (sector K lives on
    levels >= K). weights is (di, ds) and must be 0 where b + k >= ds; its
    rows from k = ds on are dropped, as K_k vanishes on the window. Flat,
    the lift of K and b by k is a shift by k (ds + 1): row k of the products
    starts that far into row k of the terms summed, so a stage is one
    product and one sum, and its terms are added in k order.
    """
    ds = pops.shape[1]
    weights = weights[:ds]
    di = len(weights)
    flat = np.zeros(di * ((ds + di) * ds + 1))
    lifts = flat.reshape(di, -1)[:, : len(pops) * ds].reshape(di, len(pops), ds)
    np.multiply(pops, weights[:, None], out=lifts)
    terms = flat[: di * (ds + di - 1) * ds].reshape(di, -1, ds)
    return terms[:, : min(len(pops) + di - 1, ds)].sum(axis=0)


def pattern_probabilities(
    chains: Sequence[ChainConfig], detector: DetectorModel, pattern: ClickPattern
) -> list[float]:
    """P of one click pattern on each chain, from the signal's populations alone.

    Each chain's P is its seed's populations carried through its stages by
    lift_populations, weighted by POVM(k) <b + k|K_k|b>^2 for the pattern's
    outcome at that stage, and summed: no density matrix is formed. The
    stages of every chain are built together, one stage_subdiagonals call
    per (signal_dim, idler_dim), so the values of a lam sweep share one
    stacked exponential per block size. Agrees with walk_patterns' P to
    rounding; impossible outcomes are left to the caller
    (detection.outcome_probability).
    """
    for chain in chains:
        if len(pattern) != chain.n_stages:
            raise ValueError(f"pattern has {len(pattern)} outcomes for {chain.n_stages} stages")
    squares = {key: np.square(sub) for key, sub in _stage_entries(chains).items()}
    seeds, povms, probabilities = {}, {}, []
    for chain in chains:
        ds = chain.signal_dim
        if (abs(chain.alpha), ds) not in seeds:
            seeds[abs(chain.alpha), ds] = np.square(_seed(chain.alpha, ds)[0])[None]
        pops = seeds[abs(chain.alpha), ds]
        for stage, click in zip(chain.stages, pattern.clicks):
            if (stage.idler_dim, click) not in povms:
                p_click = detector.click_probability(np.arange(stage.idler_dim))
                povms[stage.idler_dim, click] = (p_click if click else 1.0 - p_click)[:, None]
            weights = povms[stage.idler_dim, click] * squares[stage.lam, ds, stage.idler_dim]
            pops = lift_populations(pops, weights)
        probabilities.append(float(pops.sum()))
    return probabilities


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
    idler dims differ, and an impossible outcome (P below IMPOSSIBLE_PROBABILITY)
    gives (0.0, None). Nothing indexed by idler records is formed.

    P = sum_K ||A_K^T r||^2 with A_K A_K^T = sum psi psi^T over the records
    psi = K_kj .. K_k1|alpha> of total idler excitation K. A stage maps A_K
    to [K_0 A_K | K_1 A_(K-1) | ..], cut back to its rank bound by the R of
    a QR. K_k raises the signal level by k, so A_K lives on levels >= K,
    has rank <= ds - K and is stored from level K on. Graded by K, each
    factor is rounded relative to its own sector, where one density matrix
    would lose the small P of weak coupling to rounding. Sector K of a stage
    reads only sectors K - di + 1..K of the one before, so the sectors are
    built in order K = 0, 1, .. through every stage, each stage keeping its
    last di. Sector k adds at most m_k ||r[k:]||^2 to P, m_k its records'
    squared norms summed, which lift_populations gives first in
    O(N di ds^2). The loop stops after sector K once the sectors left can
    add sum_(k>K) m_k ||r[k:]||^2 <= 2^-56 P_(<=K), under a quarter of half
    an ulp of the sum so far, so P is the all-sector sum bit for bit. Time is
    at most that sum's, O(N S di ds^3) with S <= min(N (di - 1) + 1, ds), and
    memory O(N di ds^2). F_W's sum_j c[e_j] is <r|u>: u <- K_0 u + K_1 v, v <- K_0 v.
    """
    ds = config.signal_dim
    if reference.dim != ds:
        raise ValueError(f"reference dim {reference.dim} does not match signal dim {ds}")
    if orthogonal_to:
        reference = orthogonalized_reference(reference, orthogonal_to)
    # e^{-iK arg alpha} drops out of |<r|psi>|, and the level phases go onto the bra
    seed, phases = _seed(config.alpha, ds)
    bra = reference.amplitudes if phases is None else reference.amplitudes * phases.conj()
    bra = np.stack([bra.real, bra.imag], axis=1)
    entries = _stage_entries([config])
    stages = [entries[s.lam, ds, s.idler_dim] for s in config.stages]
    # subs[j][k][b] = <b + k|K_k|b>, the only nonzero entries of stage j's K_k
    subs = [[row[: ds - k] for k, row in enumerate(stage[:ds])] for stage in stages]
    # pops[K][b] = sum psi_b^2 over sector K's records, counts[j] sectors after j
    # stages (lift_populations), weighted by ||K_k|b>||^2 (0 off the window)
    keep, counts, u, v, pops = max(map(len, subs)), [1], np.zeros(ds), seed, (seed**2)[None]
    for stage, sub in zip(stages, subs):
        pops = lift_populations(pops, np.square(stage))
        counts.append(len(pops))
        u = sub[0] * u
        u[1:] += sub[1] * v[:-1]
        v = sub[0] * v
    # beyond[K] bounds what the sectors after K add: sum_k>K m_k ||r[k:]||^2
    bound = pops.sum(axis=1) * np.cumsum(np.sum(bra**2, axis=1)[::-1])[::-1][: len(pops)]
    beyond = np.cumsum(bound[:0:-1])[::-1].tolist() + [0.0]
    # factors[j][K] is stage j's A_K^T restricted to levels K..ds-1: (width, ds - K)
    factors, probability = [{0: seed[None, :]}] + [{} for _ in subs], 0.0
    for total in range(counts[-1]):
        for j, sub in enumerate(subs):
            if total < counts[j + 1]:
                ks = range(max(0, total - counts[j] + 1), min(total, len(sub) - 1) + 1)
                block = np.concatenate(
                    [factors[j][total - k][:, : ds - total] * sub[k][total - k :] for k in ks]
                )
                if block.shape[0] > block.shape[1]:
                    block = np.linalg.qr(block, mode="r")
                factors[j + 1][total] = block
                factors[j].pop(total + 1 - keep, None)
        probability += float(np.sum((factors[-1].pop(total) @ bra[total:]) ** 2))
        if beyond[total] <= 2.0**-56 * probability:
            break
    if probability < IMPOSSIBLE_PROBABILITY:
        return 0.0, None
    if len({s.idler_dim for s in config.stages}) > 1:
        return probability, None
    return probability, float(np.sum((u @ bra) ** 2)) / (config.n_stages * probability)


class WStateResult(Record):
    """Heralding on m added photons: probability and, at m = 1, the W fidelity."""

    __slots__ = ("probability", "w_fidelity")

    def __init__(self, probability: float, w_fidelity: float | None):
        super().__init__(probability, w_fidelity)

    @property
    def impossible(self) -> bool:
        return self.probability == 0.0


def extract_w_state(
    config: ChainConfig, ladder_max: int | None = None, reference_m: int = 1, plain: bool = False
) -> WStateResult:
    """Run the chain and herald on the ``reference_m``-photon-added signal state.

    The signal is projected onto the component of |alpha, m> (m =
    ``reference_m``) orthogonal to the other photon-added states |alpha, k>
    (k = 0..ladder_max, ladder_max defaulting to the stage count), modeling
    an ideal identification of the m-photon-added state among the
    non-orthogonal ladder of possible signal outputs; ``plain`` projects
    onto |alpha, m> itself. At m = 1 the conditional idler state carries one
    excitation spread over all stages: the N-mode W state, up to
    weak-coupling corrections, and its fidelity is reported; at any other m
    ``w_fidelity`` is None. Runs on herald_summary, which contracts the
    chain's Kraus operators without forming the idler state.
    """
    if ladder_max is None:
        ladder_max = config.n_stages
    m = reference_m
    ladder = pacs_ladder(config.alpha, m if plain else max(m, ladder_max), config.signal_dim)
    others = () if plain else tuple(s for k, s in enumerate(ladder[:ladder_max + 1]) if k != m)
    probability, w_fidelity = herald_summary(config, ladder[m], orthogonal_to=others)
    return WStateResult(probability=probability, w_fidelity=w_fidelity if m == 1 else None)
