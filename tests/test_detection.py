"""Detector POVM, click-pattern conditioning and signal projection."""

import numpy as np
import pytest

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    coherent_state,
    fidelity_pure,
    herald_summary,
    orthogonalized_reference,
    pacs_state,
    walk_patterns,
)

from oracles import (
    click_probability_given_n,
    conditional_density,
    fidelity,
    herald_idlers,
    joint_state,
    w_state_reference,
)

DETECTORS = [
    DetectorModel.ideal(),
    DetectorModel(eta=0.6, dark_prob=1e-4),
    DetectorModel(eta=0.3, dark_prob=0.01),
]


class TestDetectorModel:
    def test_ideal(self):
        det = DetectorModel.ideal()
        assert det.eta == 1.0 and det.dark_prob == 0.0
        assert click_probability_given_n(det, 0) == 0.0
        assert click_probability_given_n(det, 1) == 1.0
        assert click_probability_given_n(det, 5) == 1.0

    def test_sixty_percent_efficiency(self):
        det = DetectorModel(eta=0.6)
        assert click_probability_given_n(det, 1) == pytest.approx(0.6, abs=1e-15)

    def test_dark_count_floor_exact(self):
        det = DetectorModel(eta=0.6, dark_prob=0.01)
        assert click_probability_given_n(det, 0) == 0.01

    def test_monotonicity(self):
        for eta, dark in [(0.2, 0.0), (0.5, 0.01), (0.9, 0.1)]:
            det = DetectorModel(eta=eta, dark_prob=dark)
            probs = [click_probability_given_n(det, n) for n in range(6)]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert all(b >= a for a, b in zip(probs, probs[1:]))
        # monotone in eta and dark as well
        assert click_probability_given_n(
            DetectorModel(eta=0.7), 2
        ) >= click_probability_given_n(DetectorModel(eta=0.5), 2)
        assert click_probability_given_n(
            DetectorModel(eta=0.5, dark_prob=0.05), 2
        ) >= click_probability_given_n(DetectorModel(eta=0.5), 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(eta=1.2)
        with pytest.raises(ValueError):
            DetectorModel(eta=0.5, dark_prob=1.0)
        with pytest.raises(ValueError):
            click_probability_given_n(DetectorModel.ideal(), -1)


class TestClickPattern:
    def test_from_string(self):
        pattern = ClickPattern.from_string("101")
        assert pattern.clicks == (True, False, True)
        assert pattern.n_clicks == 2
        assert str(pattern) == "101"
        assert len(pattern) == 3

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            ClickPattern.from_string("")
        with pytest.raises(ValueError):
            ClickPattern.from_string("1x0")


def leaf(cfg, pattern, detector):
    """(P, rho) of one pattern, from the walk."""
    _, probability, rho = next(walk_patterns(cfg, detector, pattern))
    return probability, rho


def mean_photons(probability, rho):
    """sum_n n rho_nn / P."""
    return float(np.arange(rho.shape[0]) @ np.diagonal(rho).real) / probability


class TestConditionOnPattern:
    def test_single_click_heralds_one_added_photon(self):
        """N=2 ideal (click, no-click) leaves the one-photon-added state."""
        cfg = ChainConfig.uniform(1.0, 0.05, 2)
        p, rho = leaf(cfg, ClickPattern((True, False)), DetectorModel.ideal())
        ref = pacs_state(1.0, 1, cfg.signal_dim)
        assert fidelity(p, rho, ref) >= 0.995

    def test_double_click_heralds_two_added_photons(self):
        """N=2 (click, click): fidelity >= 0.99 and P close to 2! L_2(-1) lam^4."""
        alpha, lam = 1.0, 0.05
        cfg = ChainConfig.uniform(alpha, lam, 2)
        p, rho = leaf(cfg, ClickPattern((True, True)), DetectorModel.ideal())
        ref = pacs_state(alpha, 2, cfg.signal_dim)
        assert fidelity(p, rho, ref) >= 0.99
        expected = lam**4 * 2.0 * 3.5  # 2! L_2(-1) = 7
        assert p == pytest.approx(expected, rel=0.10)

    def test_all_no_click_keeps_coherent_seed(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 2)
        p, rho = leaf(cfg, ClickPattern((False, False)), DetectorModel.ideal())
        ref = coherent_state(1.0, cfg.signal_dim)
        assert fidelity(p, rho, ref) >= 0.999

    def test_impossible_outcome(self):
        cfg = ChainConfig.uniform(1.0, 0.0, 1)
        p, rho = leaf(cfg, ClickPattern((True,)), DetectorModel.ideal())
        assert p == 0.0
        assert not np.any(rho)

    def test_pattern_length_mismatch(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 2)
        with pytest.raises(ValueError):
            leaf(cfg, ClickPattern((True,)), DetectorModel.ideal())

    @pytest.mark.parametrize("detector", DETECTORS)
    @pytest.mark.parametrize("n_stages, lam", [(1, 0.05), (2, 0.05), (3, 0.2)])
    def test_povm_completeness(self, detector, n_stages, lam):
        """Pattern probabilities sum to one for any detector model."""
        cfg = ChainConfig.uniform(1.0, lam, n_stages)
        total = sum(p for _, p, _ in walk_patterns(cfg, detector))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_single_click_scaling_constant(self, alpha):
        """P(exactly one click) / [lam^2 (1+|alpha|^2)] approaches N."""
        n_stages, lam = 2, 0.01
        cfg = ChainConfig.uniform(alpha, lam, n_stages)
        det = DetectorModel.ideal()
        p_one = sum(p for pattern, p, _ in walk_patterns(cfg, det) if pattern.n_clicks == 1)
        constant = p_one / (lam**2 * (1 + abs(alpha) ** 2))
        assert constant == pytest.approx(n_stages, rel=0.02)

    def test_efficiency_linearity(self):
        """P_click(eta) / P_click(1) -> eta in the single-photon regime."""
        cfg = ChainConfig.uniform(1.0, 0.01, 1)
        click = ClickPattern((True,))
        p_eta, _ = leaf(cfg, click, DetectorModel(eta=0.6))
        p_unit, _ = leaf(cfg, click, DetectorModel.ideal())
        assert p_eta / p_unit == pytest.approx(0.6, abs=0.02)

    def test_dark_count_floor_on_chain(self):
        """At lam=0 each detector clicks with exactly its dark probability."""
        dark = 0.01
        cfg = ChainConfig.uniform(1.0, 0.0, 1)
        det = DetectorModel(eta=0.6, dark_prob=dark)
        assert leaf(cfg, ClickPattern((True,)), det)[0] == dark
        assert conditional_density(joint_state(cfg), ClickPattern((True,)), det)[0] == dark

    @pytest.mark.parametrize("detector", DETECTORS)
    @pytest.mark.parametrize("lam", [0.05, 0.2])
    def test_sequential_full_equivalence(self, detector, lam):
        """The walk and the conditioned joint state give the same physics (N=2)."""
        cfg = ChainConfig.uniform(1.0, lam, 2)
        joint = joint_state(cfg)
        for pattern, p_seq, rho_seq in walk_patterns(cfg, detector):
            p_full, rho_full = conditional_density(joint, pattern, detector)
            assert p_seq == pytest.approx(p_full, rel=1e-8)
            ref = pacs_state(1.0, pattern.n_clicks, cfg.signal_dim)
            assert fidelity(p_seq, rho_seq, ref) == pytest.approx(
                fidelity(p_full, rho_full, ref), abs=1e-8
            )


def project_signal(joint, reference):
    """Heralded idler amplitudes <ref|joint> and their probability."""
    amps = reference.amplitudes.conj() @ joint.amplitudes.reshape(reference.amplitudes.size, -1)
    return float(np.vdot(amps, amps).real), amps


class TestProjectSignal:
    def test_coherent_reference_at_zero_coupling(self):
        cfg = ChainConfig.uniform(1.0, 0.0, 2)
        ref = coherent_state(1.0, cfg.signal_dim)
        probability, state = herald_idlers(cfg, ref)
        assert probability == pytest.approx(1.0, abs=1e-12)
        idler_probs = np.abs(state.amplitudes) ** 2
        assert idler_probs[0] == pytest.approx(1.0, abs=1e-12)
        assert herald_summary(cfg, ref)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_is_explicit(self):
        """Projecting onto a direction orthogonal to the output is impossible."""
        cfg = ChainConfig.uniform(1.0, 0.0, 1)
        ds = cfg.signal_dim
        ref = orthogonalized_reference(
            pacs_state(1.0, 1, ds), [coherent_state(1.0, ds)]
        )
        assert herald_summary(cfg, ref) == (0.0, None)
        assert herald_idlers(cfg, ref) == (0.0, None)

    def test_w_state_heralding_three_stages(self):
        """Identifying the one-photon-added signal leaves the idler W state."""
        cfg = ChainConfig.uniform(1.0, 0.05, 3)
        ds = cfg.signal_dim
        others = [pacs_state(1.0, m, ds) for m in (0, 2, 3)]
        _, state = herald_idlers(cfg, pacs_state(1.0, 1, ds), orthogonal_to=others)
        w_ref = w_state_reference(3, dim=4)
        assert fidelity_pure(state, w_ref) >= 0.995
        _, w_fidelity = herald_summary(cfg, pacs_state(1.0, 1, ds), orthogonal_to=others)
        assert w_fidelity >= 0.995

    def test_plain_projection_is_coherent_dominated(self):
        """Without orthogonalization the no-click background swamps the herald;
        the conditional idlers stay close to vacuum."""
        cfg = ChainConfig.uniform(1.0, 0.05, 3)
        probability, amps = project_signal(joint_state(cfg), pacs_state(1.0, 1, cfg.signal_dim))
        assert probability > 0.4
        vacuum_weight = abs(amps[0]) ** 2 / probability
        assert vacuum_weight > 0.9

    def test_reference_dim_mismatch(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 1)
        ds = cfg.signal_dim
        with pytest.raises(ValueError):
            herald_summary(cfg, coherent_state(1.0, ds + 1))
        with pytest.raises(ValueError):
            herald_summary(cfg, pacs_state(1.0, 1, ds), [coherent_state(1.0, ds + 1)])

    def test_reference_inside_span_rejected(self):
        ds = 20
        ref = coherent_state(1.0, ds)
        with pytest.raises(ValueError):
            orthogonalized_reference(ref, [ref])


class TestEnumeratePatterns:
    def test_single_stage_rows(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 1)
        rows = list(walk_patterns(cfg, DetectorModel.ideal()))
        assert [str(pattern) for pattern, _, _ in rows] == ["0", "1"]
        assert sum(p for _, p, _ in rows) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_concentrates_on_no_click(self):
        cfg = ChainConfig.uniform(1.0, 0.0, 2)
        by_pattern = {str(pattern): (p, rho) for pattern, p, rho in
                      walk_patterns(cfg, DetectorModel.ideal())}
        assert by_pattern["00"][0] == pytest.approx(1.0, abs=1e-14)
        assert by_pattern["11"][0] == 0.0
        assert not np.any(by_pattern["11"][1])

    def test_equal_lam_single_click_symmetry(self):
        """Equal-strength stages give near-equal single-click rows."""
        lam = 0.05
        cfg = ChainConfig.uniform(1.0, lam, 3)
        singles = [p for pattern, p, _ in walk_patterns(cfg, DetectorModel.ideal())
                   if pattern.n_clicks == 1]
        assert len(singles) == 3
        spread = (max(singles) - min(singles)) / max(singles)
        assert spread < 4 * lam**2 * (1 + 1.0)

    def test_mean_signal_photons_column(self):
        cfg = ChainConfig.uniform(1.0, 0.05, 1)
        by_pattern = {str(pattern): mean_photons(p, rho) for pattern, p, rho in
                      walk_patterns(cfg, DetectorModel.ideal())}
        # a heralded click adds at least one photon to the seed
        assert by_pattern["1"] > 2.0
        assert by_pattern["0"] == pytest.approx(1.0, abs=0.01)
