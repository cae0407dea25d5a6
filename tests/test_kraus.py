"""The per-stage Kraus core: sequential conditioning and signal heralding."""

import cmath
import json
import math
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacsim
from pacsim import (
    IMPOSSIBLE_PROBABILITY,
    ChainConfig,
    ClickPattern,
    DetectorModel,
    DimensionBudgetError,
    StageParams,
    condition_on_pattern,
    extract_w_state,
    fidelity_ensemble,
    fidelity_pure,
    herald_idlers,
    herald_summary,
    pacs_state,
    project_signal,
    run_chain_full,
    run_chain_sequential,
    stage_kraus,
    stage_unitary,
    w_state_reference,
)
from pacsim.cli import main

from oracles import stage_generator


class TestStageKraus:
    @pytest.mark.parametrize("lam, ds, di", [(0.05, 8, 4), (0.3, 6, 5), (1.0, 7, 3)])
    def test_columns_of_stage_unitary(self, lam, ds, di):
        """K_k[a, b] = <a, k| U |b, 0>."""
        kraus = stage_kraus(lam, ds, di)
        u = stage_unitary(lam, ds, di)
        assert kraus.shape == (di, ds, ds)
        for k in range(di):
            for a in range(ds):
                for b in range(ds):
                    assert kraus[k, a, b] == u[a * di + k, b * di]

    def test_memoized_and_read_only(self):
        """Runners and CLI threads share one stack, so nobody may write to it."""
        kraus = stage_kraus(0.05, 8, 4)
        assert stage_kraus(0.05, 8, 4) is kraus
        assert not kraus.flags.writeable
        with pytest.raises(ValueError):
            kraus[0, 0, 0] = 1.0

    def test_sequential_table_builds_the_stage_once(self, monkeypatch, tmp_path):
        """A 3-stage sequential table conditions 8 patterns on one stage unitary."""
        calls = []
        original = pacsim.dynamics.stage_unitary

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pacsim.dynamics, "stage_unitary", counting)
        stage_kraus.cache_clear()
        config = tmp_path / "scenario.yaml"
        config.write_text(
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 3}\nmode: sequential\n"
            "tasks:\n  - type: patterns\n    output: p.csv\n",
            encoding="utf-8",
        )
        assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

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
        u = stage_unitary(lam, ds, di)
        assert np.array_equal(u != 0.0, exact != 0.0)
        nonzero = exact != 0.0
        assert np.max(np.abs(u[nonzero] / exact[nonzero] - 1.0)) < 1e-14

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
    """Criterion 7's tolerances, POVM completeness and the ensemble rank bound."""
    config, detector = chain
    joint = run_chain_full(config)
    total_seq = total_full = 0.0
    for bits in product((False, True), repeat=config.n_stages):
        pattern = ClickPattern(bits)
        seq = run_chain_sequential(config, detector, pattern)
        full = condition_on_pattern(joint, pattern, detector)
        total_seq += seq.probability
        total_full += full.probability
        if seq.impossible or full.impossible:
            # both sit at the impossibility floor, up to criterion 7's 1e-8
            assert max(seq.probability, full.probability) < 1e-30 * (1 + 1e-8)
            continue
        assert abs(seq.probability - full.probability) <= 1e-8 * full.probability
        for cond in (seq, full):
            assert len(cond.ensemble.branches) <= config.signal_dim
        for ref_m in (0, pattern.n_clicks):
            ref = pacs_state(config.alpha, ref_m, config.signal_dim)
            assert abs(
                fidelity_ensemble(seq.ensemble, ref) - fidelity_ensemble(full.ensemble, ref)
            ) <= 1e-8
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
        """Same P, W fidelity and idler amplitudes as run_chain_full + project_signal."""
        reference = pacs_state(config.alpha, m, config.signal_dim)
        others = () if plain else ladder(config, m, config.n_stages)
        new = herald_idlers(config, reference, others)
        old = project_signal(run_chain_full(config), reference, others)
        assert new.probability == pytest.approx(old.probability, rel=1e-10)
        assert new.state.space == old.state.space
        assert np.max(np.abs(new.state.amplitudes - old.state.amplitudes)) <= 1e-10
        dims = new.state.space.dims
        if len(set(dims)) == 1:
            w_ref = w_state_reference(len(dims), dims[0])
            assert abs(
                fidelity_pure(new.state, w_ref) - fidelity_pure(old.state, w_ref)
            ) <= 1e-10

    def test_reference_dim_mismatch(self):
        config = ChainConfig.uniform(1.0, 0.05, 2)
        with pytest.raises(ValueError):
            herald_idlers(config, pacs_state(1.0, 1, config.signal_dim + 1))

    def test_budget_binds_on_all_but_the_last_idler(self):
        """The peak is ds times the idler dims of stages 1..N-1, not 2..N."""
        config = ChainConfig(1.0, (StageParams(0.05, 2), StageParams(0.05, 6)), signal_dim=24)
        reference = pacs_state(1.0, 1, 24)
        budget = 100  # ds * 2 = 48 < budget < ds * 6 = 144
        assert herald_idlers(config, reference, budget=budget).probability > 0.0
        with pytest.raises(DimensionBudgetError):
            herald_idlers(config, reference, budget=47)

    def test_budget_caps_the_largest_intermediate(self):
        """A budget between ds di^(N-1) and ds di^N stops only the joint state."""
        config = ChainConfig.uniform(1.0, 0.05, 5, signal_dim=24)
        budget = 12_000  # ds di^4 = 6144 < budget < ds di^5 = 24576
        with pytest.raises(DimensionBudgetError):
            run_chain_full(config, budget)
        reference, others = pacs_state(1.0, 1, 24), ladder(config, 1, config.n_stages)
        result = herald_idlers(config, reference, others, budget=budget)
        assert fidelity_pure(result.state, w_state_reference(5, 4)) > 0.99
        with pytest.raises(DimensionBudgetError):
            herald_idlers(config, reference, others, budget=6_143)


def dense_w_fidelity(proj):
    """F_W of herald_idlers' state, or None where herald_summary gives None."""
    dims = proj.state.space.dims
    if len(set(dims)) > 1:
        return None
    return fidelity_pure(proj.state, w_state_reference(len(dims), dims[0]))


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
        """P and F_W of run_chain_full + project_signal to 1e-10, up to N = 7."""
        reference = pacs_state(config.alpha, m, config.signal_dim)
        others = () if plain else ladder(config, m, config.n_stages)
        probability, w_fidelity = herald_summary(config, reference, others)
        old = project_signal(run_chain_full(config), reference, others)
        assert probability == pytest.approx(old.probability, rel=1e-10)
        if w_fidelity is None:
            assert dense_w_fidelity(old) is None
        else:
            assert abs(w_fidelity - dense_w_fidelity(old)) <= 1e-10

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
        dense = herald_idlers(config, reference, others)
        rel = 1e-7 if (lam, m) == (1e-6, 2) else 1e-10
        assert probability == pytest.approx(dense.probability, rel=rel)
        assert abs(w_fidelity - dense_w_fidelity(dense)) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sectors_stop_at_the_signal_cutoff(self, m):
        """N (di - 1) + 1 = 17 excitation sectors, of which only K < ds = 4 exist.

        A vacuum seed heralded on |m> puts all of P in sector m, the top one
        at m = 3.
        """
        config = ChainConfig.uniform(0.0, 0.3, 4, idler_dim=5, signal_dim=4)
        reference = pacs_state(0.0, m, 4)
        probability, w_fidelity = herald_summary(config, reference)
        dense = herald_idlers(config, reference)
        assert probability == pytest.approx(dense.probability, rel=1e-10)
        assert abs(w_fidelity - dense_w_fidelity(dense)) <= 1e-10

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
    dense = herald_idlers(config, reference, others)
    if probability == 0.0 or dense.impossible:
        # both sit at the impossibility floor, up to the 1e-10 tolerance
        assert max(probability, dense.probability) < IMPOSSIBLE_PROBABILITY * (1 + 1e-10)
        return
    assert probability == pytest.approx(dense.probability, rel=1e-10)
    expected = dense_w_fidelity(dense)
    if expected is None:
        assert w_fidelity is None
    else:
        assert abs(w_fidelity - expected) <= 1e-10


@pytest.fixture
def no_idler_records(monkeypatch):
    """Make the propagation that keeps every idler record raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("_propagate was called")

    monkeypatch.setattr(pacsim.dynamics, "_propagate", forbidden)


def test_w_heralding_keeps_no_idler_records(no_idler_records, tmp_path, capsys):
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


@pytest.fixture
def no_joint_state(monkeypatch):
    """Make every binding of run_chain_full raise."""
    original = pacsim.dynamics.run_chain_full

    def forbidden(*args, **kwargs):
        raise AssertionError("run_chain_full was called")

    for name, module in list(sys.modules.items()):
        if name == "pacsim" or name.startswith("pacsim."):
            if getattr(module, "run_chain_full", None) is original:
                monkeypatch.setattr(module, "run_chain_full", forbidden)
    assert pacsim.dynamics.run_chain_full is forbidden


def test_extract_w_state_never_builds_the_joint_state(no_joint_state):
    result = extract_w_state(ChainConfig.uniform(1.0, 0.05, 3))
    assert result.w_fidelity >= 0.995


@pytest.mark.parametrize("mode", ["full", "sequential"])
@pytest.mark.parametrize("extra", ["", "reference_m: 2", "plain: true"])
def test_project_task_never_builds_the_joint_state(no_joint_state, tmp_path, mode, extra):
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
    code = "import sys, pacsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
