"""Stage unitaries (the reference), perturbative expansion and chain composition."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    StageParams,
    StrongCouplingWarning,
    coherent_state,
    fock_state,
    outcome_probability,
    pacs_state,
    walk_patterns,
)
from pacsim.dynamics import MAX_LAM

from oracles import (
    conditional_density,
    fidelity,
    joint_state,
    orthogonality_defect,
    perturbative_output,
    stage_generator,
    stage_kraus,
    stage_unitary,
)


def leaf(cfg, pattern, detector):
    """(P, rho) of one pattern, from the walk."""
    _, probability, rho = next(walk_patterns(cfg, detector, pattern))
    return probability, rho


def tmsv_amplitudes(lam: float, dim: int) -> np.ndarray:
    """Analytic two-mode squeezed vacuum: c_k = tanh(lam)^k / cosh(lam) on |k,k>."""
    k = np.arange(dim)
    diag = np.tanh(lam) ** k / np.cosh(lam)
    amps = np.zeros((dim, dim))
    amps[k, k] = diag
    return amps


class TestStageGenerator:
    def test_zero_coupling(self):
        g = stage_generator(0.0, 5, 4)
        assert np.all(g == 0.0)

    def test_pair_creation_element(self):
        lam, ds, di = 0.17, 5, 4
        g = stage_generator(lam, ds, di)
        # <1,1| G |0,0> = lam * sqrt(1) * sqrt(1)
        assert g[1 * di + 1, 0] == pytest.approx(lam)

    def test_antisymmetry(self):
        g = stage_generator(0.3, 6, 5)
        assert np.max(np.abs(g + g.T)) == 0.0

    def test_real(self):
        g = stage_generator(0.3, 6, 5)
        assert g.dtype == np.float64


class TestStageUnitary:
    def test_zero_coupling_is_identity(self):
        u = stage_unitary(0.0, 5, 4)
        assert np.array_equal(u, np.eye(20))

    @pytest.mark.parametrize(
        "lam, ds, di", [(0.05, 8, 4), (0.3, 6, 5), (0.7, 5, 7), (1.0, 8, 8)]
    )
    def test_matches_dense_matrix_exponential(self, lam, ds, di):
        """Blockwise assembly equals expm of the full generator."""
        u = stage_unitary(lam, ds, di)
        reference = expm(stage_generator(lam, ds, di))
        assert np.max(np.abs(u - reference)) < 1e-12

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.5, 1.0])
    def test_orthogonality(self, lam):
        u = stage_unitary(lam, 12, 6)
        assert orthogonality_defect(u) < 1e-10
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-10)

    def test_low_occupancy_block_unitarity(self):
        """U+U = I restricted to rows/cols with n_s + n_i <= signal_dim / 2."""
        ds, di = 12, 6
        u = stage_unitary(0.2, ds, di)
        g = u.T @ u - np.eye(ds * di)
        idx = [
            s * di + i for s in range(ds) for i in range(di) if s + i <= ds // 2
        ]
        assert np.max(np.abs(g[np.ix_(idx, idx)])) < 1e-10

    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_two_mode_squeezed_vacuum(self, lam):
        """Action on |0,0> matches the analytic tanh/cosh amplitudes."""
        dim = 30
        u = stage_unitary(lam, dim, dim)
        amps = u[:, 0].reshape(dim, dim)
        assert np.max(np.abs(amps - tmsv_amplitudes(lam, dim))) < 1e-9


class TestPerturbativeOutput:
    def test_zero_coupling(self):
        out = perturbative_output(1.0, 0.0, 1, signal_dim=20, idler_dim=4)
        expected = np.kron(coherent_state(1.0, 20).amplitudes, np.eye(4)[0])
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_first_order_click_weight(self, alpha):
        """Idler marginal obeys P(1)/P(0) = lam^2 (1 + |alpha|^2) at order 1."""
        lam = 0.05
        out = perturbative_output(alpha, lam, 1)
        probs = np.abs(out.tensor_view()) ** 2
        p_by_idler = probs.sum(axis=0)
        ratio = p_by_idler[1] / p_by_idler[0]
        assert ratio == pytest.approx(lam**2 * (1 + abs(alpha) ** 2), rel=1e-10)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            perturbative_output(1.0, 0.05, 3)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_second_order_remainder_is_cubic(self, alpha):
        """||exact - order2|| scales as lam^3, with a lam-stable constant."""
        errs = {}
        for lam in (0.01, 0.02, 0.04):
            approx = perturbative_output(alpha, lam, 2)
            ds, di = approx.dims
            u = stage_unitary(lam, ds, di)
            vac = np.zeros(di)
            vac[0] = 1.0
            exact = u @ np.kron(coherent_state(alpha, ds).amplitudes, vac)
            errs[lam] = float(np.linalg.norm(exact - approx.amplitudes))
        assert 6.0 < errs[0.02] / errs[0.01] < 10.0
        assert 6.0 < errs[0.04] / errs[0.02] < 10.0
        constants = [errs[lam] / lam**3 for lam in errs]
        assert max(constants) / min(constants) < 1.05


class TestRunChainFull:
    def test_single_stage_reduces_to_stage_unitary(self):
        cfg = ChainConfig.uniform(1.0, 0.08, 1)
        joint = joint_state(cfg)
        ds, di = cfg.signal_dim, cfg.stages[0].idler_dim
        u = stage_unitary(0.08, ds, di)
        vac = np.zeros(di)
        vac[0] = 1.0
        expected = u @ np.kron(coherent_state(1.0, ds).amplitudes, vac)
        assert np.max(np.abs(joint.amplitudes - expected)) < 1e-12

    def test_mode_layout(self):
        cfg = ChainConfig.uniform(0.5, 0.02, 3)
        joint = joint_state(cfg)
        assert joint.dims == (cfg.signal_dim, 4, 4, 4)

    def test_two_stage_amplitude_pattern(self):
        """Output follows 1 : lam sqrt(1!L_1) : lam^2 sqrt(2!L_2) on the
        photon-added ladder, term by term to O(lam^3)."""
        alpha, lam = 1.0, 0.05
        cfg = ChainConfig.uniform(alpha, lam, 2)
        view = joint_state(cfg).tensor_view()
        ds = cfg.signal_dim
        coh = coherent_state(alpha, ds).amplitudes
        p1 = pacs_state(alpha, 1, ds).amplitudes
        p2 = pacs_state(alpha, 2, ds).amplitudes
        a00 = np.vdot(coh, view[:, 0, 0])
        tol = 10 * lam**3
        assert abs(np.vdot(p1, view[:, 1, 0]) / a00 - lam * math.sqrt(2.0)) < tol
        assert abs(np.vdot(p1, view[:, 0, 1]) / a00 - lam * math.sqrt(2.0)) < tol
        assert abs(np.vdot(p2, view[:, 1, 1]) / a00 - lam**2 * math.sqrt(7.0)) < tol

    def test_three_stage_amplitude_pattern(self):
        """Three stages populate the single, double and triple patterns with
        lam^m sqrt(m! L_m) weights to O(lam^4)."""
        alpha, lam = 1.0, 0.05
        cfg = ChainConfig.uniform(alpha, lam, 3)
        view = joint_state(cfg).tensor_view()
        ds = cfg.signal_dim
        coh = coherent_state(alpha, ds).amplitudes
        p1 = pacs_state(alpha, 1, ds).amplitudes
        p2 = pacs_state(alpha, 2, ds).amplitudes
        p3 = pacs_state(alpha, 3, ds).amplitudes
        a0 = np.vdot(coh, view[:, 0, 0, 0])
        tol = 10 * lam**4
        single = lam * math.sqrt(2.0)
        assert abs(np.vdot(p1, view[:, 1, 0, 0]) / a0 - single) < 10 * lam**3
        assert abs(np.vdot(p1, view[:, 0, 1, 0]) / a0 - single) < 10 * lam**3
        assert abs(np.vdot(p1, view[:, 0, 0, 1]) / a0 - single) < 10 * lam**3
        double = lam**2 * math.sqrt(7.0)
        for idx in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
            assert abs(np.vdot(p2, view[(slice(None), *idx)]) / a0 - double) < tol
        triple = lam**3 * math.sqrt(34.0)
        assert abs(np.vdot(p3, view[:, 1, 1, 1]) / a0 - triple) < tol

    def test_norm_preserved_through_stages(self):
        """Dense stage unitaries composed on the joint tensor keep the norm at 1.

        The composition applies each (signal, idler_j) unitary to the
        pre-expanded vacuum idlers, outside the Kraus propagation, and gives
        the joint-state oracle's amplitudes on uniform and mixed-dims chains.
        """
        chains = [
            ChainConfig.uniform(1.0, 0.2, 2, signal_dim=24),
            ChainConfig.uniform(1.0, 0.2, 4, signal_dim=24),
            ChainConfig(
                0.7 + 0.4j, (StageParams(0.05, 3), StageParams(0.1, 5), StageParams(0.07, 4))
            ),
        ]
        for cfg in chains:
            ds = cfg.signal_dim
            dims = (ds, *(s.idler_dim for s in cfg.stages))
            psi = np.zeros(dims, dtype=complex)
            psi[(slice(None),) + (0,) * cfg.n_stages] = coherent_state(cfg.alpha, ds).amplitudes
            for j, stage in enumerate(cfg.stages):
                u = stage_unitary(stage.lam, ds, stage.idler_dim)
                t = np.moveaxis(psi, j + 1, 1)
                pair = (u @ t.reshape(ds * stage.idler_dim, -1)).reshape(t.shape)
                psi = np.moveaxis(pair, 1, j + 1)
            psi = psi.reshape(-1)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(psi - joint_state(cfg).amplitudes)) <= 1e-12

    def test_first_order_stage_permutation_symmetry(self):
        """P(click at a given stage) is order-independent up to O(lam^4)."""
        la, lb = 0.05, 0.08
        det = DetectorModel.ideal()
        cfg_ab = ChainConfig(1.0, (StageParams(la), StageParams(lb)))
        cfg_ba = ChainConfig(1.0, (StageParams(lb), StageParams(la)))
        p_first, _ = leaf(cfg_ab, ClickPattern((True, False)), det)
        p_second, _ = leaf(cfg_ba, ClickPattern((False, True)), det)
        assert abs(p_first - p_second) / p_first < 5 * (la**2 + lb**2)


class TestConservation:
    @pytest.mark.parametrize("n0", [0, 1, 2])
    def test_photon_number_difference_conserved(self, n0):
        """A Fock seed |n0>|0> only reaches states with n_s - n_i = n0."""
        ds, di, lam = 12, 6, 0.1
        u = stage_unitary(lam, ds, di)
        vac = np.zeros(di)
        vac[0] = 1.0
        out = (u @ np.kron(fock_state(n0, ds).amplitudes.real, vac)).reshape(ds, di)
        off_mass = 0.0
        for ns in range(ds):
            for ni in range(di):
                if ns - ni != n0:
                    off_mass += abs(out[ns, ni]) ** 2
        assert off_mass <= 1e-12


class TestRunChainSequential:
    """One pattern's (P, rho) from the walk's prefix path, against the joint state."""

    def test_all_no_click_at_zero_coupling(self):
        cfg = ChainConfig.uniform(1.0, 0.0, 2)
        p, rho = leaf(cfg, ClickPattern((False, False)), DetectorModel.ideal())
        assert p == pytest.approx(1.0, abs=1e-14)
        # pure: tr rho^2 / P^2 = 1
        assert np.sum(np.abs(rho) ** 2) / p**2 == pytest.approx(1.0, abs=1e-14)
        assert fidelity(p, rho, coherent_state(1.0, cfg.signal_dim)) == (
            pytest.approx(1.0, abs=1e-14)
        )

    @pytest.mark.parametrize("pattern", ["0", "1"])
    def test_single_stage_matches_full_conditioning(self, pattern):
        cfg = ChainConfig.uniform(1.0, 0.05, 1)
        det = DetectorModel.ideal()
        click = ClickPattern.from_string(pattern)
        seq = leaf(cfg, click, det)
        full = conditional_density(joint_state(cfg), click, det)
        assert seq[0] == pytest.approx(full[0], rel=1e-10)
        ref = pacs_state(1.0, click.n_clicks, cfg.signal_dim)
        assert fidelity(*seq, ref) == pytest.approx(fidelity(*full, ref), abs=1e-10)

    def test_long_chain_beyond_full_budget(self):
        """N=10 runs on the signal alone; the joint state would hold 4^10 ds amplitudes."""
        cfg = ChainConfig.uniform(1.0, 0.05, 10)
        pattern = ClickPattern.from_string("1000000000")
        p, rho = leaf(cfg, pattern, DetectorModel.ideal())
        assert 0.0 < p < 1.0
        ref = pacs_state(1.0, 1, cfg.signal_dim)
        assert fidelity(p, rho, ref) > 0.99

    def test_tiny_click_probability_is_an_outcome(self):
        """P = 6.2e-34 is a sum of nonnegative terms, not rounding: no floor applies."""
        cfg = ChainConfig.uniform(1.0, 1e-3, 6)
        det = DetectorModel(0.6, 0.0)
        pattern = ClickPattern.from_string("111111")
        seq = leaf(cfg, pattern, det)
        full = conditional_density(joint_state(cfg), pattern, det)
        assert 1e-34 < outcome_probability(seq[0]) < 1e-33
        assert seq[0] == pytest.approx(full[0], rel=1e-12)
        ref = pacs_state(1.0, 6, cfg.signal_dim)
        assert fidelity(*seq, ref) == pytest.approx(fidelity(*full, ref), abs=1e-10)

    def test_zero_coupling_clicks_stay_impossible(self):
        """At lam = 0 with no dark counts a click has probability exactly 0."""
        cfg = ChainConfig.uniform(1.0, 0.0, 3)
        det = DetectorModel(0.6, 0.0)
        pattern = ClickPattern.from_string("111")
        seq = leaf(cfg, pattern, det)
        full = conditional_density(joint_state(cfg), pattern, det)
        for probability, _ in (seq, full):
            assert probability == 0.0
            assert outcome_probability(probability) == 0.0

    def test_subnormal_click_probability_is_impossible(self):
        """Below 2.2e-308 rho / P overflows, so the outcome is reported impossible."""
        cfg = ChainConfig(0.0, (StageParams(0.0, 2), StageParams(0.25, 2)), 16)
        det = DetectorModel(1.0, np.finfo(float).tiny)
        pattern = ClickPattern.from_string("11")
        seq = leaf(cfg, pattern, det)
        full = conditional_density(joint_state(cfg), pattern, det)
        for probability, _ in (seq, full):
            assert 0.0 < probability < np.finfo(float).tiny
            assert outcome_probability(probability) == 0.0

    def test_impossible_pattern(self):
        cfg = ChainConfig.uniform(1.0, 0.0, 2)
        p, rho = leaf(cfg, ClickPattern((True, False)), DetectorModel.ideal())
        assert p == 0.0
        assert outcome_probability(p) == 0.0
        assert not np.any(rho)

    def test_pattern_length_mismatch(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 2)
        with pytest.raises(ValueError):
            leaf(cfg, ClickPattern.from_string("1"), DetectorModel.ideal())


class TestConfigValidation:
    def test_strong_coupling_warns(self):
        with pytest.warns(StrongCouplingWarning):
            StageParams(0.5)

    def test_strong_coupling_warning_states_the_idler_tail(self):
        """At lam = 1 one stage from vacuum puts tanh(1)^8 = 0.113 of its
        probability on idler numbers 4 and up, which idler_dim 4 drops."""
        with pytest.warns(StrongCouplingWarning, match=(
            r"lam=1\.0 .* at least tanh\(lam\)\^\(2 idler_dim\) = 0\.113 of the "
            r"probability on idler numbers that idler_dim=4 does not hold"
        )):
            StageParams(1.0)

    def test_weak_coupling_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            StageParams(0.25)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            StageParams(-0.1)

    def test_small_idler_rejected(self):
        with pytest.raises(ValueError):
            StageParams(0.1, idler_dim=1)

    def test_lam_bound(self):
        """At MAX_LAM a stage's Kraus stack is still complete to rounding; a
        larger lam is refused, where the stacks drift and then turn nan."""
        kraus = stage_kraus(MAX_LAM, 19, 4)
        completeness = np.einsum("kij,kil->jl", kraus, kraus)
        assert np.abs(completeness - np.eye(19)).max() < 1e-11
        with pytest.warns(StrongCouplingWarning):
            assert StageParams(MAX_LAM).lam == 100.0
        for lam in (math.nextafter(MAX_LAM, math.inf), 1e300):
            with pytest.raises(ValueError, match="lam must be at most 100.0, got "):
                StageParams(lam)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainConfig(1.0, ())

    def test_default_signal_dim_covers_all_additions(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 3)
        assert cfg.signal_dim >= 20

    def test_uniform_builder(self):
        cfg = ChainConfig.uniform(0.5, 0.1, 4, idler_dim=3)
        assert cfg.n_stages == 4
        assert all(s.lam == 0.1 and s.idler_dim == 3 for s in cfg.stages)
