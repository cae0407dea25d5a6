"""The per-stage Kraus core: sequential conditioning and signal heralding."""

import cmath
import json
import math
import types
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacsim
from pacsim import (
    IMPOSSIBLE_PROBABILITY,
    ChainConfig,
    DetectorModel,
    StageParams,
    extract_w_state,
    herald_summary,
    orthogonalized_reference,
    outcome_probability,
    pacs_state,
    stage_kraus,
    walk_patterns,
)
from pacsim.cli import main

from oracles import (
    MultiModeState,
    conditional_density,
    fidelity,
    herald_idlers,
    joint_state,
    overlap_fidelity,
    stage_generator,
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

    def test_memoized_and_read_only(self):
        """Runners and CLI threads share one stack, so nobody may write to it."""
        kraus = stage_kraus(0.05, 8, 4)
        assert stage_kraus(0.05, 8, 4) is kraus
        assert not kraus.flags.writeable
        with pytest.raises(ValueError):
            kraus[0, 0, 0] = 1.0

    def test_sequential_table_builds_the_stage_once(self, tmp_path):
        """A 3-stage sequential table conditions 8 patterns on one Kraus stack."""
        stage_kraus.cache_clear()
        config = tmp_path / "scenario.yaml"
        config.write_text(
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 3}\nmode: sequential\n"
            "tasks:\n  - type: patterns\n    output: p.csv\n",
            encoding="utf-8",
        )
        assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
        assert stage_kraus.cache_info().misses == 1

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
    # analysis
    "PhotonStatistics", "ScalingFit", "WStateResult", "WignerGrid", "extract_w_state",
    "fit_power_law", "photon_statistics", "wigner",
    # detection
    "ClickPattern", "DetectorModel", "orthogonalized_reference", "outcome_probability",
    # dynamics
    "IMPOSSIBLE_PROBABILITY", "ChainConfig", "StageParams", "herald_summary", "stage_kraus",
    "walk_patterns",
    # errors
    "DimensionBudgetError", "ScenarioError", "StrongCouplingWarning", "TruncationError",
    "TruncationWarning",
    # fock
    "PureState", "coherent_state", "default_signal_dim", "fidelity_pure", "fock_state",
    "mean_photon_number", "pacs_state",
}


def test_public_surface():
    """The names pacsim exports, exactly: the joint-state path, the multimode
    types and the ensemble types it once exported stay out."""
    exported = {
        name for name, value in vars(pacsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
