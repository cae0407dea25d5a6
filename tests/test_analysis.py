"""Scaling fits, photon statistics, Wigner grids and W-state references."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.laguerre import lagval

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    PureState,
    TruncationWarning,
    coherent_state,
    default_signal_dim,
    fit_power_law,
    fock_state,
    herald_summary,
    pacs_state,
    walk_patterns,
    wigner,
)
from pacsim.analysis import (_beam_splitter_sectors, _hermite_functions, _sector_coefficients,
                             axis_points, coefficient_count)
from pacsim.dynamics import extract_w_state

from oracles import (
    beam_splitter_sectors_reference,
    conditional_density,
    density,
    herald_idlers,
    horner_magnitude,
    joint_state,
    photon_statistics,
    sector_coefficients_reference,
    tensor,
    w_state_reference,
    wigner_dense,
)


def exact_click_probability(alpha, lam, n_stages, n_clicks):
    """Brute-force oracle: sum of all n_clicks-click pattern probabilities."""
    cfg = ChainConfig.uniform(alpha, lam, n_stages)
    joint = joint_state(cfg)
    det = DetectorModel.ideal()
    return sum(
        conditional_density(joint, ClickPattern(bits), det)[0]
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
        """A state has one mode to read: a joint state's tensor is refused, not flattened."""
        joint = tensor(coherent_state(1.0, 20), fock_state(2, 4))
        with pytest.raises(ValueError, match="must be a vector"):
            PureState(joint.tensor_view())


class TestWigner:
    def test_vacuum_at_origin(self):
        grid = wigner(density(fock_state(0, 12)), extent=4.0, step=0.1)
        i = np.argmin(np.abs(grid.x_axis))
        j = np.argmin(np.abs(grid.p_axis))
        assert grid.values[i, j] == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_single_photon_at_origin(self):
        grid = wigner(density(fock_state(1, 12)), extent=4.0, step=0.1)
        i = np.argmin(np.abs(grid.x_axis))
        j = np.argmin(np.abs(grid.p_axis))
        assert grid.values[i, j] == pytest.approx(-1.0 / math.pi, abs=1e-9)

    def test_added_photon_is_nonclassical(self):
        grid = wigner(density(pacs_state(1.0, 1, 24)), extent=5.0, step=0.1)
        assert grid.minimum() < 0.0

    def test_coherent_is_nonnegative(self):
        grid = wigner(density(coherent_state(1.0, 24)), extent=5.0, step=0.1)
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
        grid = wigner(density(state), extent=extent, step=0.1)
        assert 0.98 <= grid.integral() <= 1.02

    def test_coherent_peak_location(self):
        """|alpha> peaks at (x, p) = (sqrt(2) Re alpha, sqrt(2) Im alpha)."""
        grid = wigner(density(coherent_state(1.0, 24)), extent=5.0, step=0.05)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.x_axis[i] == pytest.approx(math.sqrt(2.0), abs=0.05)
        assert grid.p_axis[j] == pytest.approx(0.0, abs=0.05)
        # peak value 1/pi, sampled up to half a grid step off the maximum
        assert grid.values[i, j] == pytest.approx(1.0 / math.pi, abs=1e-3)
        assert grid.values[i, j] <= 1.0 / math.pi + 1e-12

    def test_default_extent_covers_support(self):
        grid = wigner(density(coherent_state(1.0, 24)))
        assert grid.x_axis[-1] >= abs(1.0) + 4.0 - 0.2
        assert 0.98 <= grid.integral() <= 1.02

    def test_multimode_rejected(self):
        """wigner takes a square density matrix, not amplitudes or a joint state."""
        joint = tensor(fock_state(0, 4), fock_state(0, 4))
        for bad in (joint.amplitudes, density(joint)[:4], np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="square density matrix"):
                wigner(bad, extent=4.0)

    def test_zero_rho_rejected(self):
        """The rho of an impossible outcome is all zero: a named error, not an IndexError."""
        with pytest.raises(ValueError, match="rho has no occupied level"):
            wigner(np.zeros((4, 4)), extent=2.0)

    def test_top_level_occupancy_warns(self):
        with pytest.warns(TruncationWarning):
            wigner(density(fock_state(3, 4)), extent=4.0, step=0.5)


@pytest.mark.filterwarnings("ignore::pacsim.TruncationWarning")
def test_lossy_pattern_grid_is_its_eigenstates_mixture():
    """A mixed conditional signal's grid is the weighted sum of its branches'.

    rho / P of a two-click leaf under an imperfect detector has full rank;
    W is linear in rho, so its grid equals the eigenvalue-weighted sum of the
    eigenvectors' grids, and it integrates to 1.
    """
    config = ChainConfig.uniform(1.0 + 0.5j, 0.1, 2)
    detector = DetectorModel(eta=0.6, dark_prob=1e-3)
    _, probability, rho = next(walk_patterns(config, detector, ClickPattern((True, True))))
    weights, vectors = np.linalg.eigh(rho / probability)
    assert np.sum(weights > 1e-3) >= 2
    grid = wigner(rho / probability, extent=7.0, step=0.1)
    mixed = sum(
        w * wigner(np.outer(v, v.conj()), extent=7.0, step=0.1).values
        for w, v in zip(weights, vectors.T)
    )
    assert np.max(np.abs(grid.values - mixed)) <= 1e-12
    assert grid.integral() == pytest.approx(1.0, abs=1e-9)


def direct_evaluation(rho: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi^T G Phi on every point of ``axis`` in x and p, no mirror, and a
    bound on each value's rounding: 4 K eps times the sum of |terms|."""
    levels = int(np.nonzero(np.any(rho != 0, axis=0))[0][-1]) + 1
    coeffs = _sector_coefficients(rho[:levels, :levels])
    basis = _hermite_functions(math.sqrt(2.0) * axis, coeffs.shape[0])
    magnitude = np.abs(basis).T @ np.abs(coeffs) @ np.abs(basis)
    return basis.T @ coeffs @ basis, 4 * coeffs.shape[0] * np.finfo(float).eps * magnitude


def real_mixed_rho() -> np.ndarray:
    """rho / P of a two-click leaf under an imperfect detector, real alpha."""
    config = ChainConfig.uniform(1.0, 0.1, 2)
    detector = DetectorModel(eta=0.6, dark_prob=1e-3)
    _, probability, rho = next(walk_patterns(config, detector, ClickPattern((True, True))))
    return rho / probability


class TestWignerCentredAxis:
    """A grid whose axis spans [-extent, extent] is centred, and a real rho's
    grid on it is evaluated for p >= 0 and mirrored."""

    @pytest.mark.parametrize("extent, step", [(10.0, 0.05), (8.0, 0.04), (5.0, 0.1), (1.0, 0.4)])
    def test_axis_is_exactly_antisymmetric(self, extent, step):
        axis = wigner(density(fock_state(0, 2)), extent, step).x_axis
        assert axis.size == axis_points(extent, step)
        assert np.array_equal(axis, -axis[::-1])
        assert axis[-1] == pytest.approx(extent, rel=1e-15)
        assert np.max(np.abs(np.diff(axis) - step)) <= 4 * np.finfo(float).eps * extent

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 60), st.floats(1e-3, 10.0), st.integers(-4, 4))
    def test_spanning_axes_are_centred(self, points, step, ulps):
        """extent = (points - 1) step / 2, a few ulps either way: the axis has
        axis_points points and is exactly antisymmetric."""
        extent = (points - 1) * step / 2
        for _ in range(abs(ulps)):
            extent = math.nextafter(extent, math.inf if ulps > 0 else 0.0)
        axis = wigner(np.diag([1.0, 0.0]), extent, step).x_axis
        assert axis.size == axis_points(extent, step) == points
        assert np.array_equal(axis, -axis[::-1])

    def test_benchmark_axes_end_at_the_extent(self):
        """The arange axis ended at 10.000000000000284 with 1.4e-13 at its centre."""
        axis = wigner(density(fock_state(0, 2)), 10.0, 0.05).x_axis
        assert (axis[0], axis[200], axis[-1]) == (-10.0, 0.0, 10.0)
        assert math.copysign(1.0, axis[200]) == 1.0

    @pytest.mark.filterwarnings("ignore::pacsim.TruncationWarning")
    @pytest.mark.parametrize(
        "rho, extent, step",
        [
            (density(pacs_state(2.0, 1, default_signal_dim(2.0, 1))), 10.0, 0.05),
            (density(pacs_state(1.0, 2, default_signal_dim(1.0, 2))), 8.0, 0.04),
            (density(fock_state(2, 4)), 5.0, 0.1),
            (density(fock_state(60, 62)), 12.0, 0.1),
            (density(fock_state(1, 3)), 1.0, 0.4),  # even point count, no centre
            (real_mixed_rho(), 7.0, 0.1),
        ],
        ids=["pacs:2,1", "pacs:1,2", "fock:2", "fock:60", "fock:1-even", "mixed"],
    )
    def test_mirrored_grid_is_the_direct_evaluation(self, rho, extent, step):
        assert not np.any(rho.imag)
        grid = wigner(rho, extent, step)
        assert np.array_equal(grid.values.view(np.uint64), grid.values.view(np.uint64)[:, ::-1])
        values, bound = direct_evaluation(rho, grid.x_axis)
        assert np.all(np.abs(grid.values - values) <= bound)

    def test_complex_alpha_takes_the_general_path(self):
        """W(x, -p) != W(x, p) once alpha has an imaginary part."""
        rho = density(pacs_state(1.0 + 0.5j, 1, 24))
        grid = wigner(rho, 6.0, 0.1)
        assert not np.allclose(grid.values, grid.values[:, ::-1])
        values, bound = direct_evaluation(rho, grid.x_axis)
        assert np.all(np.abs(grid.values - values) <= bound)

    @pytest.mark.parametrize("extent, step", [(5.0, 0.3), (4.0, 0.7)])
    def test_non_spanning_grid_keeps_the_arange_axis(self, extent, step):
        """An axis that stops short of +extent is np.arange's, byte for byte,
        and its grid the direct evaluation's, bit for bit."""
        rho = density(pacs_state(2.0, 1, default_signal_dim(2.0, 1)))
        grid = wigner(rho, extent, step)
        arange = np.arange(-extent, extent + step / 2, step)
        assert grid.x_axis.tobytes() == grid.p_axis.tobytes() == arange.tobytes()
        assert np.array_equal(grid.values, direct_evaluation(rho, arange)[0])


class TestWignerClosedForms:
    @pytest.mark.parametrize("n", range(11))
    def test_fock_state_is_a_laguerre_ring(self, n):
        """W_n = (-1)^n / pi L_n(2 r^2) e^{-r^2} with r^2 = x^2 + p^2."""
        grid = wigner(density(fock_state(n, n + 2)), extent=5.0, step=0.1)
        r2 = grid.x_axis[:, None] ** 2 + grid.p_axis[None, :] ** 2
        exact = (-1) ** n / math.pi * lagval(2.0 * r2, [0.0] * n + [1.0]) * np.exp(-r2)
        assert np.max(np.abs(grid.values - exact)) <= 1e-12

    @pytest.mark.parametrize("n", [60, 171, 200])
    def test_many_photon_fock_state_is_a_laguerre_ring(self, n):
        """No level limit: |171> and |200> too, on a +-12 window, to 1e-12."""
        grid = wigner(density(fock_state(n, n + 2)), extent=12.0, step=0.1)
        r2 = grid.x_axis[:, None] ** 2 + grid.p_axis[None, :] ** 2
        exact = (-1) ** n / math.pi * lagval(2.0 * r2, [0.0] * n + [1.0]) * np.exp(-r2)
        assert np.max(np.abs(grid.values - exact)) <= 1e-12

    def test_bright_coherent_state_is_a_displaced_gaussian(self):
        """alpha = 3 + 4j occupies 90 levels; W stays within 1e-12 of its Gaussian."""
        alpha = 3 + 4j
        grid = wigner(density(coherent_state(alpha, 90)), extent=14.0, step=0.1)
        dx = grid.x_axis[:, None] - math.sqrt(2.0) * alpha.real
        dp = grid.p_axis[None, :] - math.sqrt(2.0) * alpha.imag
        exact = np.exp(-(dx**2) - dp**2) / math.pi
        assert np.max(np.abs(grid.values - exact)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1 + 1j, 0.5 - 1.2j])
    def test_coherent_state_is_a_displaced_gaussian(self, alpha):
        """values[i, j] = W(x_i, p_j), centred on sqrt2 (Re alpha, Im alpha)."""
        grid = wigner(density(coherent_state(alpha, 30)), extent=5.0, step=0.1)
        dx = grid.x_axis[:, None] - math.sqrt(2.0) * alpha.real
        dp = grid.p_axis[None, :] - math.sqrt(2.0) * alpha.imag
        exact = np.exp(-(dx**2) - dp**2) / math.pi
        assert np.max(np.abs(grid.values - exact)) <= 1e-12


class TestWignerMatchesDenseSum:
    """The separable evaluation against the Horner sum at every grid point."""

    @pytest.mark.parametrize(
        "alpha, m, extent, step", [(2.0, 1, 10.0, 0.05), (1.0, 2, 8.0, 0.04)]
    )
    def test_phase_space_benchmark_grids(self, alpha, m, extent, step):
        state = pacs_state(alpha, m, default_signal_dim(alpha, m))
        fast = wigner(density(state), extent, step)
        dense = wigner_dense(state, extent, step)
        assert fast.values.shape == (401, 401)
        assert np.array_equal(fast.x_axis, dense.x_axis)
        assert np.array_equal(fast.p_axis, dense.p_axis)
        assert np.max(np.abs(fast.values - dense.values)) <= 1e-12

    def test_many_occupied_levels(self):
        state = pacs_state(1.0, 1, 64)
        assert np.nonzero(state.amplitudes)[0][-1] + 1 >= 60
        fast = wigner(density(state), extent=6.0, step=0.1)
        dense = wigner_dense(state, extent=6.0, step=0.1)
        assert np.max(np.abs(fast.values - dense.values)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=12,
        ).filter(lambda a: np.linalg.norm(a) > 1e-3),
        st.floats(0.5, 8.0),
        st.floats(0.05, 1.0),
    )
    @pytest.mark.filterwarnings("ignore::pacsim.TruncationWarning")
    def test_random_states_and_grids(self, amps, extent, step):
        """Agreement to 1e-12 relative, plus the dense sum's own rounding.

        The ladder-moment sum cancels terms up to horner_magnitude in size,
        so its rounding error alone reaches 1.2e-12 for |11> (dim 12) against
        the closed form; that part is allowed at 4 eps per unit of it.
        """
        state = PureState.from_amplitudes(np.array(amps))
        fast = wigner(density(state), extent, step)
        dense = wigner_dense(state, extent, step)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(dense.values))))
        tol += 4 * np.finfo(float).eps * horner_magnitude(state, extent, step)
        assert np.max(np.abs(fast.values - dense.values)) <= tol


class TestBeamSplitterSectors:
    """The sector rotations R_s that map rho to the Hermite coefficients."""

    def test_orthogonal_up_to_400_photons(self):
        for s, ks, rot in _beam_splitter_sectors(401):
            if s > 400:
                break
            assert np.array_equal(ks, np.arange(s + 1))
            assert np.max(np.abs(rot.T @ rot - np.eye(s + 1))) <= 1e-13

    @pytest.mark.parametrize("m_dim", [1, 2, 53, 171])
    def test_kept_columns_are_orthonormal(self, m_dim):
        """Every sector s < 2 m_dim - 1 keeps the columns k < m_dim, s - k < m_dim.

        171 levels (|170>, 341 Hermite functions) was the largest state the
        Gauss-Hermite projector could serve; the windowed sectors above
        s = m_dim - 1 must stay orthonormal columns of R_s as well.
        """
        sectors = list(_beam_splitter_sectors(m_dim))
        assert [s for s, _, _ in sectors] == list(range(2 * m_dim - 1))
        for s, ks, rot in sectors:
            window = np.arange(max(0, s - m_dim + 1), min(s, m_dim - 1) + 1)
            assert np.array_equal(ks, window)
            assert rot.shape == (s + 1, ks.size)
            assert np.max(np.abs(rot.T @ rot - np.eye(ks.size))) <= 1e-13

    @pytest.mark.parametrize("m_dim", [1, 2, 3, 19, 27, 60])
    def test_reused_buffers_give_the_first_written_sectors_bit_for_bit(self, m_dim):
        """The sectors, and the coefficients of a complex and of a real
        density matrix, equal those of the per-sector arrays first written
        (tests/oracles.py), to the bit and the sign of zero."""
        for ours, theirs in zip(_beam_splitter_sectors(m_dim),
                                beam_splitter_sectors_reference(m_dim), strict=True):
            assert ours[0] == theirs[0] and np.array_equal(ours[1], theirs[1])
            assert ours[2].tobytes() == theirs[2].tobytes()
        rng = np.random.default_rng(m_dim)
        amplitudes = rng.normal(size=(2, m_dim, m_dim))
        for root in (amplitudes[0] + 1j * amplitudes[1], amplitudes[0]):
            rho = root @ root.conj().T
            ours, theirs = _sector_coefficients(rho), sector_coefficients_reference(rho)
            assert ours.tobytes() == theirs.tobytes()

    def test_last_row_is_the_binomial_amplitude(self):
        """<s, 0| R |k, s-k> = sqrt(C(s, k) / 2^s)."""
        for s, ks, rot in _beam_splitter_sectors(401):
            if s > 400:
                break
            expected = np.sqrt([math.comb(s, int(k)) / 2**s for k in ks])
            assert np.max(np.abs(rot[-1] - expected)) <= 1e-13


@st.composite
def near_integer_spans(draw):
    """An (extent, step) whose span (extent + step / 2 + extent) / step lies
    within a few ulps of an integer number of points, where a count rounded
    otherwise than numpy's would be off by one."""
    points, step = draw(st.integers(2, 60)), draw(st.floats(1e-3, 10.0))
    extent = (points - 0.5) * step / 2
    ulps = draw(st.integers(-4, 4))
    for _ in range(abs(ulps)):
        extent = math.nextafter(extent, math.inf if ulps > 0 else 0.0)
    return extent, step


class TestGridSizes:
    """The sizes of a Wigner grid that the CLI budgets, as analysis states them."""

    @settings(max_examples=300, deadline=None)
    @given(near_integer_spans())
    def test_axis_points_is_the_axis_length(self, grid):
        extent, step = grid
        built = wigner(np.diag([1.0, 0.0]), extent, step)
        assert axis_points(extent, step) == built.x_axis.size == built.p_axis.size

    @pytest.mark.parametrize("extent, points", [(2235.75, 4472), (2236.0, 4473)])
    def test_axis_points_at_the_budget_edge(self, extent, points):
        """The CLI's 20M-point budget edge at step 1: counted, not built."""
        assert axis_points(extent, 1.0) == points == np.arange(-extent, extent + 0.5, 1.0).size

    def test_axis_points_of_an_overflowing_span(self):
        assert axis_points(1e308, 1e-300) == math.inf

    @pytest.mark.parametrize("levels", [1, 2, 7, 30])
    def test_coefficient_count_is_the_coefficient_matrix(self, levels):
        rng = np.random.default_rng(levels)
        a = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert np.linalg.matrix_rank(rho) == levels
        assert coefficient_count(levels) == _sector_coefficients(rho).shape[0] ** 2


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

    @pytest.mark.parametrize("n_stages", [7, 9])
    def test_long_chain_at_default_cutoff(self, n_stages):
        """The default cutoff holds a+^N |alpha> (25 and 28 levels here)."""
        result = extract_w_state(ChainConfig.uniform(1.0, 0.05, n_stages))
        assert result.w_fidelity > 0.99
        assert 0.0 < result.probability < 1.0

    @pytest.mark.parametrize("m, plain, probability", [
        (2, False, 1.3894721987382919e-05),
        (2, True, 0.14819748034048513),
        (0, False, 0.37219918294226095),
    ])
    def test_other_references_report_no_w_fidelity(self, m, plain, probability):
        """Heralding on m != 1 added photons gives the probability a project
        task with that reference_m and plain wrote before extract_w_state
        took them, and no W fidelity."""
        config = ChainConfig.uniform(1.0, 0.05, 3)
        result = extract_w_state(config, reference_m=m, plain=plain)
        assert result.w_fidelity is None
        assert result.probability == pytest.approx(probability, rel=1e-12)
        ladder = [pacs_state(1.0, k, config.signal_dim) for k in range(4)]
        others = [] if plain else [s for k, s in enumerate(ladder) if k != m]
        assert result.probability == herald_summary(config, ladder[m], others)[0]

    def test_zero_coupling_is_impossible(self):
        result = extract_w_state(ChainConfig.uniform(1.0, 0.0, 2))
        assert result.impossible
        assert result.probability == 0.0

    def test_idler_state_space(self):
        config = ChainConfig.uniform(1.0, 0.05, 3)
        _, state = herald_idlers(config, pacs_state(1.0, 1, config.signal_dim))
        assert state.dims == (4, 4, 4)


def test_import_does_not_load_numpy_polynomial(run_python):
    """Neither importing pacsim nor evaluating a Wigner grid loads numpy.polynomial."""
    code = (
        "import sys, pacsim, pacsim.cli; "
        "psi = pacsim.pacs_state(1.0, 2, 24).amplitudes; "
        "pacsim.wigner(psi[:, None] * psi.conj(), extent=3.0, step=0.5); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
