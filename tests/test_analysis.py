"""Scaling fits, photon statistics, Wigner grids and W-state references."""

import math
from itertools import product

import numpy as np
import pytest

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    TruncationWarning,
    coherent_state,
    condition_on_pattern,
    extract_w_state,
    fit_power_law,
    fock_state,
    pacs_state,
    photon_statistics,
    run_chain_full,
    w_state_reference,
    wigner,
)

from oracles import tensor


def exact_click_probability(alpha, lam, n_stages, n_clicks):
    """Brute-force oracle: sum of all n_clicks-click pattern probabilities."""
    cfg = ChainConfig.uniform(alpha, lam, n_stages)
    joint = run_chain_full(cfg)
    det = DetectorModel.ideal()
    return sum(
        condition_on_pattern(joint, ClickPattern(bits), det).probability
        for bits in product((False, True), repeat=n_stages)
        if sum(bits) == n_clicks
    )


class TestFitPowerLaw:
    def test_synthetic_square_law(self):
        samples = [(lam, lam**2) for lam in (0.01, 0.02, 0.04, 0.08)]
        fit = fit_power_law(samples)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.prefactor == pytest.approx(1.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_single_click_scaling(self):
        """One-stage single-click probability scales as lam^2 (1 + |alpha|^2)."""
        alpha = 1.0
        samples = [
            (lam, exact_click_probability(alpha, lam, 1, 1))
            for lam in (0.01, 0.02, 0.04)
        ]
        fit = fit_power_law(samples)
        assert fit.exponent == pytest.approx(2.0, abs=0.05)
        assert fit.prefactor / (1 + abs(alpha) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_triple_click_scaling(self):
        """Three simultaneous clicks: exponent 6, prefactor near 3! L_3(-1)."""
        samples = [
            (lam, exact_click_probability(1.0, lam, 3, 3))
            for lam in (0.01, 0.02, 0.04, 0.08)
        ]
        fit = fit_power_law(samples)
        assert fit.exponent == pytest.approx(6.0, abs=0.2)
        assert fit.prefactor == pytest.approx(34.0, rel=0.15)  # 3! L_3(-1) = 34

    def test_degenerate_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.01, 1e-4), (0.02, 4e-4)])
        with pytest.raises(ValueError):
            fit_power_law([(0.01, 1e-4), (0.01, 1e-4), (0.02, 4e-4)])
        with pytest.raises(ValueError):
            fit_power_law([(0.01, 1e-4), (0.02, 0.0), (0.04, 1e-3)])
        with pytest.raises(ValueError):
            fit_power_law([(-0.01, 1e-4), (0.02, 4e-4), (0.04, 1e-3)])


class TestPhotonStatistics:
    def test_coherent_is_poissonian(self):
        stats = photon_statistics(coherent_state(1.0, 24))
        assert stats.mandel_q == pytest.approx(0.0, abs=1e-8)
        assert stats.mean == pytest.approx(1.0, abs=1e-10)
        assert stats.distribution.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fock_state_is_sub_poissonian_limit(self):
        stats = photon_statistics(fock_state(1, 8))
        assert stats.mandel_q == -1.0
        assert stats.mean == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_single_addition_is_intermediate(self, alpha):
        """One added photon sits strictly between coherent and Fock."""
        from pacsim import default_signal_dim

        stats = photon_statistics(pacs_state(alpha, 1, default_signal_dim(alpha, 1)))
        assert -1.0 < stats.mandel_q < 0.0

    def test_vacuum(self):
        stats = photon_statistics(fock_state(0, 4))
        assert stats.mean == 0.0
        assert stats.mandel_q == 0.0

    def test_mode_selection(self):
        joint = tensor(coherent_state(1.0, 20, "signal"), fock_state(2, 4, "idler-1"))
        stats = photon_statistics(joint, mode=1)
        assert stats.mean == pytest.approx(2.0)
        assert stats.mandel_q == -1.0


class TestWigner:
    def test_vacuum_at_origin(self):
        grid = wigner(fock_state(0, 12), extent=4.0, step=0.1)
        i = np.argmin(np.abs(grid.x_axis))
        j = np.argmin(np.abs(grid.p_axis))
        assert grid.values[i, j] == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_single_photon_at_origin(self):
        grid = wigner(fock_state(1, 12), extent=4.0, step=0.1)
        i = np.argmin(np.abs(grid.x_axis))
        j = np.argmin(np.abs(grid.p_axis))
        assert grid.values[i, j] == pytest.approx(-1.0 / math.pi, abs=1e-9)

    def test_added_photon_is_nonclassical(self):
        grid = wigner(pacs_state(1.0, 1, 24), extent=5.0, step=0.1)
        assert grid.minimum() < 0.0

    def test_coherent_is_nonnegative(self):
        grid = wigner(coherent_state(1.0, 24), extent=5.0, step=0.1)
        assert grid.minimum() >= -1e-9

    @pytest.mark.parametrize(
        "state, extent",
        [
            (fock_state(0, 12), 4.0),
            (fock_state(2, 12), 4.0),
            (coherent_state(1.0, 24), 5.0),
            (pacs_state(1.0, 1, 24), 5.0),
        ],
    )
    def test_normalization(self, state, extent):
        grid = wigner(state, extent=extent, step=0.1)
        assert 0.98 <= grid.integral() <= 1.02

    def test_coherent_peak_location(self):
        """|alpha> peaks at (x, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha)."""
        grid = wigner(coherent_state(1.0, 24), extent=5.0, step=0.05)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.x_axis[i] == pytest.approx(math.sqrt(2.0), abs=0.05)
        assert grid.p_axis[j] == pytest.approx(0.0, abs=0.05)
        # peak value 1/pi, sampled up to half a grid step off the maximum
        assert grid.values[i, j] == pytest.approx(1.0 / math.pi, abs=1e-3)
        assert grid.values[i, j] <= 1.0 / math.pi + 1e-12

    def test_default_extent_covers_support(self):
        grid = wigner(coherent_state(1.0, 24))
        assert grid.x_axis[-1] >= abs(1.0) + 4.0 - 0.2
        assert 0.98 <= grid.integral() <= 1.02

    def test_multimode_rejected(self):
        joint = tensor(fock_state(0, 4, "signal"), fock_state(0, 4, "idler-1"))
        with pytest.raises(ValueError):
            wigner(joint, extent=4.0)

    def test_top_level_occupancy_warns(self):
        with pytest.warns(TruncationWarning):
            wigner(fock_state(3, 4), extent=4.0, step=0.5)


class TestWStateReference:
    def test_single_mode(self):
        ref = w_state_reference(1)
        assert np.array_equal(ref.amplitudes, np.array([0.0, 1.0]))

    def test_three_modes(self):
        ref = w_state_reference(3)
        nonzero = np.nonzero(ref.amplitudes)[0]
        assert len(nonzero) == 3
        assert np.allclose(ref.amplitudes[nonzero], 1.0 / math.sqrt(3.0))

    def test_four_modes_amplitudes(self):
        ref = w_state_reference(4)
        nonzero = np.nonzero(ref.amplitudes)[0]
        assert len(nonzero) == 4
        assert np.allclose(ref.amplitudes[nonzero], 0.5)

    def test_permutation_symmetry(self):
        ref = w_state_reference(4, dim=3)
        view = ref.tensor_view()
        for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)):
            assert np.array_equal(view, np.transpose(view, perm))

    def test_norm(self):
        for n in (1, 2, 5):
            assert np.linalg.norm(w_state_reference(n).amplitudes) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_invalid(self):
        with pytest.raises(ValueError):
            w_state_reference(0)


class TestExtractWState:
    def test_two_stage_extraction(self):
        result = extract_w_state(ChainConfig.uniform(1.0, 0.05, 2))
        assert result.w_fidelity > 0.99
        assert 0.0 < result.probability < 1.0

    def test_zero_coupling_is_impossible(self):
        result = extract_w_state(ChainConfig.uniform(1.0, 0.0, 2))
        assert result.impossible
        assert result.probability == 0.0

    def test_idler_state_space(self):
        result = extract_w_state(ChainConfig.uniform(1.0, 0.05, 3))
        assert result.idler_state.space.labels == ("idler-1", "idler-2", "idler-3")
