"""The per-stage Kraus core: sequential conditioning and signal heralding."""

import cmath
import json
import math
import types
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pacsim
from pacsim import (
    IMPOSSIBLE_PROBABILITY,
    ChainConfig,
    DetectorModel,
    StageParams,
    StrongCouplingWarning,
    TruncationError,
    extract_w_state,
    herald_summary,
    orthogonalized_reference,
    outcome_probability,
    pacs_state,
    walk_patterns,
)
from pacsim import dynamics
from pacsim.cli import main
from pacsim.dynamics import stage_subdiagonals
from pacsim.fock import pacs_ladder

from oracles import (
    MultiModeState,
    conditional_density,
    fidelity,
    herald_idlers,
    herald_summary_all_sectors,
    joint_state,
    overlap_fidelity,
    stage_generator,
    stage_kraus,
    stage_unitary,
    w_state_reference,
)


class TestStageKraus:
    @pytest.mark.parametrize(
        "lam, ds, di", [(0.05, 8, 4), (0.3, 6, 5), (1.0, 7, 3), (0.3, 3, 5)]
    )
    def test_columns_of_stage_unitary(self, lam, ds, di):
        """K_k[a, b] = <a, k| U |b, 0>, bit for bit where di <= ds.

        Where di > ds the unitary's batches also hold blocks n_s - n_i < 0,
        which no vacuum idler reaches; they can change the scaling of a
        batch's exponential, and with it the last bits.
        """
        kraus = stage_kraus(lam, ds, di)
        u = stage_unitary(lam, ds, di)
        assert kraus.shape == (di, ds, ds)
        tol = 2e-15 if di > ds else 0.0
        for k in range(di):
            for a in range(ds):
                for b in range(ds):
                    assert abs(kraus[k, a, b] - u[a * di + k, b * di]) <= tol

    def test_kth_subdiagonal(self):
        """n_s - n_i is conserved, so K_k only maps |b> to |b + k>."""
        kraus = stage_kraus(0.2, 10, 5)
        for k in range(5):
            a, b = np.nonzero(kraus[k])
            assert np.all(a - b == k)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.3])
    def test_entries_accurate_relative_to_their_size(self, lam):
        """Entries of order lam^k match a 40-digit exponential to 1e-14 relative.

        An eigendecomposition of each block gets only their absolute size
        right: at lam = 1e-6 it is off by 2e-4 relative on K_2 and K_3.
        """
        mpmath = pytest.importorskip("mpmath")
        ds, di = 6, 4
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(stage_generator(lam, ds, di).tolist()))
            exact = np.array(exact.tolist(), dtype=float)
        # the vacuum-idler columns: exact_kraus[k, a, b] = <a, k| U |b, 0>
        exact_kraus = exact[:, ::di].reshape(ds, di, ds).transpose(1, 0, 2)
        kraus = stage_kraus(lam, ds, di)
        assert np.array_equal(kraus != 0.0, exact_kraus != 0.0)
        nonzero = exact_kraus != 0.0
        assert np.max(np.abs(kraus[nonzero] / exact_kraus[nonzero] - 1.0)) < 1e-14

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5])
    def test_completeness(self, lam):
        kraus = stage_kraus(lam, 12, 6)
        total = np.einsum("kab,kac->bc", kraus, kraus)
        assert np.max(np.abs(total - np.eye(12))) < 1e-12


def _run_scenario(tmp_path, text):
    config = tmp_path / "scenario.yaml"
    config.write_text(f"version: 1\n{text}", encoding="utf-8")
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0


STAGED = ChainConfig(1.0, (StageParams(0.05, 4), StageParams(0.1, 3), StageParams(0.05, 4),
                           StageParams(0.1, 4)))

#: each case's stage builds, (number of lam, idler_dim) per call
BUILDS = {
    "uniform-table": (lambda tmp_path: _run_scenario(
        tmp_path, "chain: {alpha: 1.0, lam: 0.05, n_stages: 3}\nmode: sequential\n"
        "tasks:\n  - {type: patterns, output: p.csv}\n"), [(1, 4)]),
    "staged-table": (lambda tmp_path: list(walk_patterns(STAGED, DetectorModel(eta=0.6))),
                     [(1, 3), (2, 4)]),
    "w-heralding": (lambda tmp_path: extract_w_state(ChainConfig.uniform(1.0, 0.05, 3)),
                    [(1, 4)]),
    "lam-sweep": (lambda tmp_path: _run_scenario(
        tmp_path, "chain: {alpha: 1.0, lam: 0.05, n_stages: 2}\ntasks:\n"
        "  - {type: sweep, values: [0.01, 0.02, 0.04, 0.02], pattern: '10', output: s.csv}\n"),
        [(3, 4)]),
}


@pytest.mark.parametrize("case", BUILDS)
def test_one_stage_build_per_cutoff_pair(case, tmp_path, monkeypatch):
    """Every runner builds a chain's stages in one stage_subdiagonals call
    per distinct (signal_dim, idler_dim), each distinct lam once: a table, a
    staged chain with a repeated lam and two idler cutoffs, a W heralding
    and a lam sweep."""
    run, expected = BUILDS[case]
    calls = []

    def counting(lams, signal_dim, idler_dim):
        calls.append((len(lams), signal_dim, idler_dim))
        return stage_subdiagonals(lams, signal_dim, idler_dim)

    monkeypatch.setattr(dynamics, "stage_subdiagonals", counting)
    run(tmp_path)
    assert sorted((n, di) for n, _, di in calls) == expected
    assert len({(ds, di) for _, ds, di in calls}) == len(calls)


@st.composite
def chains(draw):
    n_stages = draw(st.integers(1, 3))
    stages = tuple(
        StageParams(draw(st.floats(0.0, 0.3)), draw(st.integers(2, 5)))
        for _ in range(n_stages)
    )
    detector = DetectorModel(
        eta=draw(st.floats(0.0, 1.0, exclude_min=True)),
        dark_prob=draw(st.floats(0.0, 0.05)),
    )
    return ChainConfig(draw(st.floats(0.0, 1.5)), stages), detector


@settings(max_examples=60, deadline=None)
@given(chains())
def test_sequential_matches_full_on_random_chains(chain):
    """Criterion 7's tolerances, POVM completeness and Hermitian, trace-P rho."""
    config, detector = chain
    joint = joint_state(config)
    total_seq = total_full = 0.0
    for pattern, p_seq, rho_seq in walk_patterns(config, detector):
        p_full, rho_full = conditional_density(joint, pattern, detector)
        total_seq += p_seq
        total_full += p_full
        if outcome_probability(p_seq) == 0.0 or outcome_probability(p_full) == 0.0:
            # both sit at the impossibility floor, up to criterion 7's 1e-8
            assert max(p_seq, p_full) < 1e-30 * (1 + 1e-8)
            continue
        assert abs(p_seq - p_full) <= 1e-8 * p_full
        for p, rho in ((p_seq, rho_seq), (p_full, rho_full)):
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12 * p
            assert abs(np.trace(rho).real - p) <= 1e-12 * p
        for ref_m in (0, pattern.n_clicks):
            ref = pacs_state(config.alpha, ref_m, config.signal_dim)
            assert abs(fidelity(p_seq, rho_seq, ref) - fidelity(p_full, rho_full, ref)) <= 1e-8
    assert abs(total_seq - 1.0) <= 1e-12
    assert abs(total_full - 1.0) <= 1e-12


def ladder(config, m, ladder_max):
    ds = config.signal_dim
    return [pacs_state(config.alpha, k, ds) for k in range(ladder_max + 1) if k != m]


HERALD_CHAINS = [
    ChainConfig.uniform(1.0, 0.05, n) for n in range(1, 6)
] + [
    ChainConfig(0.7 + 0.4j, (StageParams(0.05, 3), StageParams(0.1, 5), StageParams(0.07, 4))),
]


def project_signal(config, reference, orthogonal_to):
    """P and heralded idler state of the joint state projected onto r."""
    ref = orthogonalized_reference(reference, orthogonal_to) if orthogonal_to else reference
    joint = joint_state(config)
    amps = ref.amplitudes.conj() @ joint.amplitudes.reshape(config.signal_dim, -1)
    probability = float(np.vdot(amps, amps).real)
    return probability, MultiModeState(joint.dims[1:], amps / np.sqrt(probability))


class TestHeraldIdlers:
    @pytest.mark.parametrize(
        "config, m, plain",
        [
            (config, m, plain)
            for config in HERALD_CHAINS
            for m, plain in ((1, False), (1, True), (0, True), (2, False))
            if m <= config.n_stages
        ],
    )
    def test_matches_joint_state_projection(self, config, m, plain):
        """Same P, W fidelity and idler amplitudes as projecting the joint state."""
        reference = pacs_state(config.alpha, m, config.signal_dim)
        others = () if plain else ladder(config, m, config.n_stages)
        probability, state = herald_idlers(config, reference, others)
        old_probability, old_state = project_signal(config, reference, others)
        assert probability == pytest.approx(old_probability, rel=1e-10)
        assert state.dims == old_state.dims
        assert np.max(np.abs(state.amplitudes - old_state.amplitudes)) <= 1e-10
        dims = state.dims
        if len(set(dims)) == 1:
            w_ref = w_state_reference(len(dims), dims[0])
            old_fidelity = overlap_fidelity(old_state, w_ref)
            assert abs(overlap_fidelity(state, w_ref) - old_fidelity) <= 1e-10

    def test_reference_dim_mismatch(self):
        config = ChainConfig.uniform(1.0, 0.05, 2)
        with pytest.raises(ValueError):
            herald_idlers(config, pacs_state(1.0, 1, config.signal_dim + 1))


def dense_w_fidelity(state):
    """F_W of a heralded idler state, or None where herald_summary gives None."""
    dims = state.dims
    if len(set(dims)) > 1:
        return None
    return overlap_fidelity(state, w_state_reference(len(dims), dims[0]))


class TestHeraldSummary:
    @pytest.mark.parametrize(
        "config, m, plain",
        [
            (config, m, plain)
            for config in HERALD_CHAINS + [ChainConfig.uniform(1.0, 0.05, 7, signal_dim=26)]
            for m, plain in ((1, False), (1, True), (0, True), (2, False))
            if m <= config.n_stages
        ],
    )
    def test_matches_joint_state_projection(self, config, m, plain):
        """P and F_W of the projected joint state to 1e-10, up to N = 7."""
        reference = pacs_state(config.alpha, m, config.signal_dim)
        others = () if plain else ladder(config, m, config.n_stages)
        probability, w_fidelity = herald_summary(config, reference, others)
        old_probability, old_state = project_signal(config, reference, others)
        assert probability == pytest.approx(old_probability, rel=1e-10)
        if w_fidelity is None:
            assert dense_w_fidelity(old_state) is None
        else:
            assert abs(w_fidelity - dense_w_fidelity(old_state)) <= 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("lam", [0.05, 1e-3, 1e-6])
    def test_weak_coupling_matches_the_idler_state(self, lam, m):
        """A density-matrix fold loses this grid to rounding; the graded form does not.

        At (1e-6, 2) P is 2e-24 and both paths sit about 5e-8 from a
        40-digit evaluation of the same truncated model, hence 1e-7 there.
        """
        config = ChainConfig.uniform(1.0, lam, 3, signal_dim=20)
        reference = pacs_state(1.0, m, 20)
        others = ladder(config, m, 3)
        probability, w_fidelity = herald_summary(config, reference, others)
        dense_probability, dense_state = herald_idlers(config, reference, others)
        rel = 1e-7 if (lam, m) == (1e-6, 2) else 1e-10
        assert probability == pytest.approx(dense_probability, rel=rel)
        assert abs(w_fidelity - dense_w_fidelity(dense_state)) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sectors_stop_at_the_signal_cutoff(self, m):
        """N (di - 1) + 1 = 17 excitation sectors, of which only K < ds = 4 exist.

        A vacuum seed heralded on |m> puts all of P in sector m, the top one
        at m = 3.
        """
        config = ChainConfig.uniform(0.0, 0.3, 4, idler_dim=5, signal_dim=4)
        reference = pacs_state(0.0, m, 4)
        probability, w_fidelity = herald_summary(config, reference)
        dense_probability, dense_state = herald_idlers(config, reference)
        assert probability == pytest.approx(dense_probability, rel=1e-10)
        assert abs(w_fidelity - dense_w_fidelity(dense_state)) <= 1e-10

    def test_zero_coupling_is_impossible(self):
        config = ChainConfig.uniform(1.0, 0.0, 3)
        reference = pacs_state(1.0, 1, config.signal_dim)
        assert herald_summary(config, reference, ladder(config, 1, 3)) == (0.0, None)

    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 1.53 + 1.29j, 2.1 + 2.8j,
                                       -1.0, -3.5, -5.5, -6.0])
    def test_zero_coupling_is_impossible_for_bright_seeds(self, capsys, alpha, n):
        """At lam = 0 the signal stays |alpha>, which the reference is
        orthogonal to: what P reads is rounding, below the 1e-30 floor. One
        projection of the reference out of the nearly collinear ladder left
        up to 1.5e-24 at |alpha| = 3.5, N = 9. A real alpha < 0 has the level
        phases (-1)^n exactly, so its bra is |abs(alpha)>'s; phases e^{in pi}
        left imaginary parts n 1.2e-16 in it, and P = 2.3e-30 at alpha = -6,
        N = 1."""
        config = ChainConfig.uniform(alpha, 0.0, n)
        reference = pacs_state(alpha, 1, config.signal_dim)
        assert herald_summary(config, reference, ladder(config, 1, n)) == (0.0, None)
        assert main(["wstate", "--alpha", str(alpha).strip("()"), "--lam", "0", "--n", str(n)]) == 0
        assert capsys.readouterr().out == "heralding probability = 0.0\nimpossible outcome\n"

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.5, 1.53 + 1.29j, 2.1 + 2.8j])
    @pytest.mark.parametrize("lam", [1e-9, 1e-6])
    def test_tiny_coupling_matches_the_idler_state(self, lam, alpha, n):
        """Just above zero coupling P is real signal, which the floor keeps."""
        config = ChainConfig.uniform(alpha, lam, n)
        reference = pacs_state(alpha, 1, config.signal_dim)
        others = ladder(config, 1, n)
        probability, w_fidelity = herald_summary(config, reference, others)
        dense_probability, dense_state = herald_idlers(config, reference, others)
        assert probability == pytest.approx(dense_probability, rel=1e-10)
        assert abs(w_fidelity - dense_w_fidelity(dense_state)) <= 1e-10

    def test_tiny_coupling_heralds_a_negative_seed(self, capsys):
        """lam = 1e-9 at alpha = -1 still heralds, with |alpha>'s own P and F_W."""
        config = ChainConfig.uniform(-1.0, 1e-9, 5)
        result = extract_w_state(config)
        assert result == extract_w_state(ChainConfig.uniform(1.0, 1e-9, 5))
        assert result.probability == pytest.approx(9.3e-19, rel=1e-3)
        assert main(["wstate", "--alpha=-1", "--lam", "1e-9", "--n", "5"]) == 0
        assert "fidelity vs 5-mode W state" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "alpha, lam, n, probability, w_fidelity",
        [(-1.3, 0.05, 3, 0.000858312633695699, 0.9968402521358913),
         (-2.0, 0.01, 5, 3.87493511175457e-06, 0.9995002532051107)],
    )
    def test_negative_seed_heralds_as_its_magnitude(self, alpha, lam, n, probability, w_fidelity):
        """At lam > 0 a real alpha < 0 heralds with P and F_W bit for bit those of
        -alpha, and those of the e^{in pi} phases before them (pinned)."""
        result = extract_w_state(ChainConfig.uniform(alpha, lam, n))
        assert result == extract_w_state(ChainConfig.uniform(-alpha, lam, n))
        assert result.probability == pytest.approx(probability, rel=1e-12)
        assert result.w_fidelity == pytest.approx(w_fidelity, rel=1e-12)

    def test_reference_dim_mismatch(self):
        config = ChainConfig.uniform(1.0, 0.05, 2)
        with pytest.raises(ValueError):
            herald_summary(config, pacs_state(1.0, 1, config.signal_dim + 1))


@st.composite
def herald_cases(draw):
    n_stages = draw(st.integers(1, 4))
    dims = st.integers(2, 5)
    shared = draw(dims) if draw(st.booleans()) else None
    stages = tuple(
        StageParams(draw(st.floats(1e-4, 0.3)), shared or draw(dims))
        for _ in range(n_stages)
    )
    alpha = draw(st.floats(0.0, 1.5)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    m = draw(st.integers(0, n_stages))
    # the default cutoff is too small for up to four added photons at |alpha| = 1.5
    return ChainConfig(alpha, stages, signal_dim=30), m, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(herald_cases())
def test_herald_summary_matches_herald_idlers(case):
    """Random chains, mixed idler dims, plain or ladder projectors, complex alpha."""
    config, m, plain = case
    reference = pacs_state(config.alpha, m, config.signal_dim)
    others = () if plain else ladder(config, m, config.n_stages)
    probability, w_fidelity = herald_summary(config, reference, others)
    dense_probability, dense_state = herald_idlers(config, reference, others)
    if probability == 0.0 or dense_state is None:
        # both sit at the impossibility floor, up to the 1e-10 tolerance
        assert max(probability, dense_probability) < IMPOSSIBLE_PROBABILITY * (1 + 1e-10)
        return
    assert probability == pytest.approx(dense_probability, rel=1e-10)
    expected = dense_w_fidelity(dense_state)
    if expected is None:
        assert w_fidelity is None
    else:
        assert abs(w_fidelity - expected) <= 1e-10


@st.composite
def sector_cases(draw):
    n_stages = draw(st.integers(1, 9))
    dims = st.integers(2, 5)
    shared = draw(dims) if draw(st.booleans()) else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StrongCouplingWarning)  # lam up to 1
        stages = tuple(
            StageParams(10.0 ** draw(st.floats(-6.0, 0.0)), shared or draw(dims))
            for _ in range(n_stages)
        )
    alpha = draw(st.floats(0.0, 1.5)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    config = ChainConfig(alpha, stages, signal_dim=draw(st.integers(8, 34)))
    m = draw(st.integers(0, min(n_stages, 3)))
    plain = draw(st.booleans())
    try:
        rungs = pacs_ladder(alpha, m if plain else max(m, n_stages), config.signal_dim)
    except TruncationError:
        assume(False)  # the window cannot hold the reference ladder
    return config, rungs[m], () if plain else tuple(r for k, r in enumerate(rungs) if k != m)


@settings(max_examples=80, deadline=None)
@given(sector_cases())
def test_herald_summary_matches_every_sector(case):
    """P and F_W within 1 ulp of the all-sector sum over random chains.

    herald_summary builds the same sector blocks and stops once the sectors
    left add at most 2^-56 of the partial sum, less than half an ulp of P,
    so adding them would not change P: lam from 1e-6 to 1, up to 9 stages,
    mixed idler dims, complex alpha, plain and ladder references.
    """
    config, reference, others = case
    probability, w_fidelity = herald_summary(config, reference, others)
    expected, expected_w = herald_summary_all_sectors(config, reference, others)
    assert probability == pytest.approx(expected, rel=2**-52, abs=0.0)
    if expected_w is None:
        assert w_fidelity is None
    else:
        assert w_fidelity == pytest.approx(expected_w, rel=2**-52, abs=0.0)


class TestSectorWork:
    """The sectors that cannot change P are not built (QRs counted, not timed)."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        return calls

    @staticmethod
    def all_sectors(config):
        """extract_w_state's P and F_W with every sector built."""
        rungs = pacs_ladder(config.alpha, config.n_stages, config.signal_dim)
        return herald_summary_all_sectors(config, rungs[1], rungs[:1] + rungs[2:])

    def test_thirty_stages_build_no_wide_sector(self, qr_calls):
        """Every sector but the first few is below an ulp of P: 1,060 QRs otherwise."""
        config = ChainConfig.uniform(1.0, 0.05, 30)
        result = extract_w_state(config)
        built = len(qr_calls)
        expected = self.all_sectors(config)
        assert built < 30
        assert len(qr_calls) - built == 1060
        assert result.probability == pytest.approx(expected[0], rel=2**-52, abs=0.0)
        assert result.w_fidelity == pytest.approx(expected[1], rel=2**-52, abs=0.0)

    def test_nine_stages_build_at_most_half(self, qr_calls):
        """The wstate_n9 benchmark chain: at most half of the 93 QRs of every sector."""
        config = ChainConfig.uniform(1.0, 0.05, 9, signal_dim=30)
        result = extract_w_state(config)
        built = len(qr_calls)
        expected = self.all_sectors(config)
        assert built <= 93 // 2
        assert len(qr_calls) - built == 93
        assert result.probability == pytest.approx(expected[0], rel=2**-52, abs=0.0)


def test_w_heralding_keeps_no_idler_records(signal_states_only, tmp_path, capsys):
    """extract_w_state, pacsim wstate and every project variant contract instead."""
    assert extract_w_state(ChainConfig.uniform(1.0, 0.05, 3)).w_fidelity >= 0.995
    assert main(["wstate", "--alpha", "1", "--lam", "0.05", "--n", "3"]) == 0
    assert "fidelity vs 3-mode W state" in capsys.readouterr().out
    extras = ["", "reference_m: 0", "reference_m: 2", "plain: true", "ladder_max: 0"]
    for mode, extra in product(["full", "sequential"], extras):
        config = tmp_path / "scenario.yaml"
        config.write_text(
            f"version: 1\nchain: {{alpha: 1.0, lam: 0.05, n_stages: 3}}\nmode: {mode}\n"
            f"tasks:\n  - type: project\n    output: p.json\n    {extra}\n",
            encoding="utf-8",
        )
        out = tmp_path / f"{mode}-{len(extra)}-{extra[:3]}"
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        assert json.loads((out / "p.json").read_text())["probability"] > 0.0


def test_twelve_stages_need_no_budget(tmp_path, capsys):
    """ds * di^(N-1) = 167,772,160 amplitudes at N = 12 would exceed any budget."""
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 12, signal_dim: 40}\n"
        "tasks:\n  - {type: project, output: p.json}\n",
        encoding="utf-8",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "p.json").read_text())
    assert payload["w_fidelity"] > 0.99
    assert main(["wstate", "--alpha", "1", "--lam", "0.05", "--n", "12", "--signal-dim", "40"]) == 0
    assert f"heralding probability = {payload['probability']!r}" in capsys.readouterr().out


def test_extract_w_state_never_builds_the_joint_state(signal_states_only):
    result = extract_w_state(ChainConfig.uniform(1.0, 0.05, 3))
    assert result.w_fidelity >= 0.995


@pytest.mark.parametrize("mode", ["full", "sequential"])
@pytest.mark.parametrize("extra", ["", "reference_m: 2", "plain: true"])
def test_project_task_never_builds_the_joint_state(signal_states_only, tmp_path, mode, extra):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        f"version: 1\nchain: {{alpha: 1.0, lam: 0.05, n_stages: 3}}\nmode: {mode}\n"
        f"tasks:\n  - type: project\n    output: p.json\n    {extra}\n",
        encoding="utf-8",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "p.json").read_text())
    assert payload["probability"] > 0.0


def test_import_does_not_load_scipy(run_python):
    """The test references (scipy, mpmath, hypothesis) stay out of the runtime."""
    code = (
        "import sys, pacsim.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'mpmath', 'hypothesis')))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


PUBLIC_NAMES = {
    # analysis, imported on first use
    "ScalingFit", "WignerGrid", "fit_power_law", "wigner",
    # detection
    "ClickPattern", "DetectorModel", "orthogonalized_reference", "outcome_probability",
    # dynamics
    "IMPOSSIBLE_PROBABILITY", "ChainConfig", "StageParams", "WStateResult", "extract_w_state",
    "herald_summary", "walk_patterns",
    # errors
    "DimensionBudgetError", "ScenarioError", "StrongCouplingWarning", "TruncationError",
    "TruncationWarning",
    # fock
    "PureState", "coherent_state", "default_signal_dim", "fock_state", "pacs_state",
}


def test_public_surface():
    """The names pacsim exports, exactly: the joint-state path, the multimode
    types, the ensemble types and the dense Kraus stacks (stage_kraus, now
    the tests' reference in oracles) it once exported stay out."""
    exported = {
        name for name in dir(pacsim)
        if not name.startswith("_") and not isinstance(getattr(pacsim, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
