"""Fock-core tests: constructors, ladder algebra, composition, fidelities."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pacsim import (
    ClickPattern,
    PureState,
    TruncationError,
    TruncationWarning,
    coherent_state,
    default_signal_dim,
    fidelity_pure,
    fock_state,
    mean_photon_number,
    pacs_state,
)
from pacsim.cli import _pattern_row
from pacsim.fock import _coherent_amplitudes, tail_mass

from oracles import (
    MultiModeState,
    ladder_apply,
    laguerre,
    laguerre_recurrence,
    laguerre_series,
    tensor,
)

# Exact L_m(-|alpha|^2) values, computed independently with exact rational
# arithmetic and frozen here; keys are |alpha|^2.
LAGUERRE_TABLE = {
    0.0: [Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
    0.25: [
        Fraction(1),
        Fraction(5, 4),
        Fraction(49, 32),
        Fraction(709, 384),
        Fraction(13505, 6144),
    ],
    1.0: [
        Fraction(1),
        Fraction(2),
        Fraction(7, 2),
        Fraction(17, 3),
        Fraction(209, 24),
    ],
    4.0: [
        Fraction(1),
        Fraction(5),
        Fraction(17),
        Fraction(143, 3),
        Fraction(355, 3),
    ],
}


def added_photon_norm_sq(alpha: complex, m: int, dim: int) -> float:
    """|| a+^m |alpha> ||^2 via repeated ladder application."""
    state = coherent_state(alpha, dim)
    total = 1.0
    for _ in range(m):
        result = ladder_apply(state, 0, "raise")
        total *= result.norm**2
        state = PureState.from_amplitudes(result.amplitudes)
    return total


def raised(state: PureState, m: int) -> PureState:
    """a+^m state, renormalized, by ladder raises that drop what leaves the window."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for _ in range(m):
            state = PureState.from_amplitudes(ladder_apply(state, 0, "raise").amplitudes)
    return state


def mixture(*branches):
    """sum_j w_j |s_j><s_j| over (w_j, s_j) branches."""
    return sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in branches)


def row_readings(rho, ref, probability=0.3):
    """Fidelity with ``ref`` and mean photon number that a pattern-table row
    reads off the unnormalized (P, P rho)."""
    row = _pattern_row(ClickPattern((True,)), probability, probability * rho,
                       lambda m: ref.amplitudes)
    return float(row[3]), float(row[4])


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert laguerre(0, 3.7) == 1.0

    def test_defining_series_values(self):
        assert laguerre(1, -1.0) == pytest.approx(2.0, abs=1e-12)
        assert laguerre(2, -1.0) == pytest.approx(3.5, abs=1e-12)

    @pytest.mark.parametrize(
        "m, x, expected",
        [
            (7, 3.5, -1.4558485243055554),
            (12, -2.0, 1097.253463737908),
            (20, 5.0, 2.0202257444769134),
            (30, -25.0, 1.1552084974853652e18),
        ],
    )
    def test_frozen_reference_values(self, m, x, expected):
        assert laguerre(m, x) == pytest.approx(expected, rel=1e-12)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            laguerre(171, 1.0)
        with pytest.raises(ValueError):
            laguerre(-1, 1.0)
        with pytest.raises(ValueError):
            laguerre(3, float("inf"))

    def test_nonpositive_argument_lower_bound(self):
        for m in range(8):
            for x in (-10.0, -1.0, -0.25, 0.0):
                assert laguerre(m, x) >= 1.0

    def test_series_matches_recurrence(self):
        """Series and recurrence agree to 1e-10 for m <= 30, |x| <= 25."""
        for m in range(31):
            for x in np.linspace(-25.0, 25.0, 21):
                s = laguerre_series(m, float(x))
                r = laguerre_recurrence(m, float(x))
                assert abs(s - r) <= 1e-10 * max(1.0, abs(s), abs(r))


class TestCoherentState:
    def test_vacuum(self):
        state = coherent_state(0, 8)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_mean_photon_number(self):
        state = coherent_state(1.0, 32)
        assert mean_photon_number(state) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 1.0 + 0.5j])
    def test_mean_matches_alpha_squared(self, alpha):
        dim = default_signal_dim(alpha)
        state = coherent_state(alpha, dim)
        assert mean_photon_number(state) == pytest.approx(abs(alpha) ** 2, abs=1e-9)

    def test_truncation_error_with_suggestion(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(2.0, 4)
        assert err.value.suggested_dim == default_signal_dim(2.0)

    def test_norm_is_one(self):
        state = coherent_state(1.5, 32)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)


class TestFockState:
    @pytest.mark.parametrize("n", [0, 1])
    def test_basis_vector(self, n):
        state = fock_state(n, 2)
        expected = np.zeros(2)
        expected[n] = 1.0
        assert np.array_equal(state.amplitudes, expected)

    def test_out_of_window(self):
        with pytest.raises(ValueError):
            fock_state(3, 2)
        with pytest.raises(ValueError):
            fock_state(-1, 4)


class TestPacsState:
    def test_m_zero_reduces_to_coherent(self):
        a = pacs_state(1.3, 0, 32)
        b = coherent_state(1.3, 32)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_alpha_zero_reduces_to_fock(self, m):
        a = pacs_state(0, m, 8)
        b = fock_state(m, 8)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_single_addition_norm(self):
        """|| a+ |alpha=1> ||^2 = 1! L_1(-1) = 2."""
        assert added_photon_norm_sq(1.0, 1, 32) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("a2", sorted(LAGUERRE_TABLE))
    @pytest.mark.parametrize("m", range(5))
    def test_addition_norm_matches_laguerre(self, a2, m):
        """|| a+^m |alpha> ||^2 = m! L_m(-|alpha|^2) on the truncated window."""
        alpha = math.sqrt(a2)
        dim = default_signal_dim(alpha, m)
        expected = math.factorial(m) * float(LAGUERRE_TABLE[a2][m])
        got = added_photon_norm_sq(alpha, m, dim)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            pacs_state(1.0, 3, 6)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            pacs_state(1.0, -1, 16)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_suggested_dim_is_the_smallest_that_works(self, alpha, m):
        for dim in range(2, default_signal_dim(alpha, m) + 4):
            try:
                pacs_state(alpha, m, dim)
            except TruncationError as err:
                suggested = err.suggested_dim
                assert suggested > dim
                pacs_state(alpha, m, suggested)
                if suggested - 1 > dim:
                    with pytest.raises(TruncationError):
                        pacs_state(alpha, m, suggested - 1)

    @pytest.mark.parametrize(
        "alpha, m, dim",
        [(3.0, 0, 30), (2.0, 1, 21), (1 + 1j, 2, 14), (1.0, 5, 16), (0.5, 8, 12), (2.5, 3, 20)],
    )
    def test_tail_mass_is_what_the_cutoff_drops(self, alpha, m, dim):
        """tail_mass = 1 - |<psi|phi>|^2 for a+^m |alpha> raised on a 120-level
        window (psi) and raised from the coherent amplitudes cut at dim (phi)."""
        psi = raised(coherent_state(alpha, 120), m)
        cut, _ = _coherent_amplitudes(alpha, dim)
        phi = raised(PureState.from_amplitudes(cut), m)
        overlap = np.vdot(psi.amplitudes[:dim], phi.amplitudes)
        assert tail_mass(alpha, m, dim) == pytest.approx(1.0 - abs(overlap) ** 2, rel=1e-6)

    @pytest.mark.parametrize("alpha, m", [(3.0, 0), (2.0, 1), (1.0, 5), (4.0, 3)])
    def test_tail_mass_at_the_default_cutoff(self, alpha, m):
        dim = default_signal_dim(alpha, m)
        psi = raised(coherent_state(alpha, 120), m)
        overlap = np.vdot(psi.amplitudes[:dim], pacs_state(alpha, m, dim).amplitudes)
        assert tail_mass(alpha, m, dim) == pytest.approx(1.0 - abs(overlap) ** 2, abs=1e-14)

    def test_tail_mass_edge_cases(self):
        assert tail_mass(0, 3, 8) == 0.0
        assert tail_mass(1.0, 3, 3) == 1.0


class TestLadderApply:
    def test_raise_vacuum(self):
        result = ladder_apply(fock_state(0, 4), 0, "raise")
        assert result.norm == pytest.approx(1.0)
        assert result.leakage == 0.0
        assert result.amplitudes[1] == pytest.approx(1.0)

    def test_lower_vacuum_annihilates(self):
        result = ladder_apply(fock_state(0, 4), 0, "lower")
        assert result.norm == 0.0
        assert np.all(result.amplitudes == 0.0)

    def test_raise_top_level_leaks(self):
        with pytest.warns(TruncationWarning):
            result = ladder_apply(fock_state(3, 4), 0, "raise")
        assert result.norm == 0.0
        assert result.leakage == pytest.approx(1.0)

    def test_lower_matches_sqrt_n(self):
        result = ladder_apply(fock_state(2, 4), 0, "lower")
        assert result.norm == pytest.approx(math.sqrt(2.0))

    def test_invalid_arguments(self):
        state = fock_state(0, 4)
        with pytest.raises(ValueError):
            ladder_apply(state, 2, "raise")
        with pytest.raises(ValueError):
            ladder_apply(state, 0, "up")

    @pytest.mark.parametrize("alpha, dim", [(0.5, 16), (1.0, 24), (2.0, 40)])
    def test_commutator_expectation(self, alpha, dim):
        """<[a, a+]> = 1 for states with negligible top-level occupancy."""
        state = coherent_state(alpha, dim)
        assert abs(state.amplitudes[-1]) < 1e-10
        up = ladder_apply(state, 0, "raise")
        down = ladder_apply(state, 0, "lower")
        assert up.norm**2 - down.norm**2 == pytest.approx(1.0, abs=1e-12)


class TestTensorAndMarginal:
    def test_vacuum_tensor_vacuum(self):
        joint = tensor(fock_state(0, 3), fock_state(0, 2))
        assert joint.dims == (3, 2)
        assert joint.amplitudes[0] == 1.0
        assert np.all(joint.amplitudes[1:] == 0.0)

    def test_tensor_with_basis_vector_permutes(self):
        a = coherent_state(0.8, 16)
        b = fock_state(1, 3)
        joint = tensor(a, b)
        view = joint.tensor_view()
        assert np.allclose(view[:, 1], a.amplitudes)
        assert np.all(view[:, 0] == 0.0)
        assert np.all(view[:, 2] == 0.0)

    def test_norm_preserved(self):
        a = coherent_state(1.0, 20)
        b = coherent_state(0.5, 12)
        joint = tensor(a, b)
        assert np.linalg.norm(joint.amplitudes) == pytest.approx(1.0, abs=1e-14)

    def test_marginal_of_product_factorizes(self):
        a = coherent_state(1.0, 16)
        b = coherent_state(0.5, 12)
        marg = (np.abs(tensor(a, b).tensor_view()) ** 2).sum(axis=1)
        assert np.allclose(marg, np.abs(a.amplitudes) ** 2, atol=1e-14)

    def test_keep_all_returns_probabilities(self):
        """The joint distribution of a product is the product of the marginals."""
        a, b = fock_state(1, 3), coherent_state(0.3, 10)
        probs = np.abs(tensor(a, b).tensor_view()) ** 2
        assert np.allclose(probs, np.outer(np.abs(a.amplitudes) ** 2, np.abs(b.amplitudes) ** 2))

    def test_two_mode_squeezed_marginal_is_thermal(self):
        """Marginal of sum_k c_k |k,k> is |c_k|^2, cross-checked by brute force."""
        lam = 0.4
        dim = 12
        k = np.arange(dim)
        c = np.tanh(lam) ** k / np.cosh(lam)
        c /= np.linalg.norm(c)
        amps = np.zeros(dim * dim, dtype=complex)
        amps[k * dim + k] = c
        state = MultiModeState((dim, dim), amps)
        marg = (np.abs(state.tensor_view()) ** 2).sum(axis=0)
        brute = np.zeros(dim)
        for ns in range(dim):
            for ni in range(dim):
                brute[ni] += abs(amps[ns * dim + ni]) ** 2
        assert np.allclose(marg, brute, atol=1e-15)
        assert marg.sum() == pytest.approx(1.0, abs=1e-12)
        ratio = marg[1:6] / marg[0:5]
        assert np.allclose(ratio, np.tanh(lam) ** 2, atol=1e-12)

class TestFidelity:
    def test_self_fidelity(self):
        s = coherent_state(1.0, 24)
        assert fidelity_pure(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_fock_states(self):
        assert fidelity_pure(fock_state(0, 4), fock_state(1, 4)) == 0.0

    def test_pacs_vs_fock_frozen_value(self):
        """|<1|alpha=1, m=1>|^2 = e^-1 / 2, from the brute-force overlap."""
        got = fidelity_pure(pacs_state(1.0, 1, 32), fock_state(1, 32))
        assert got == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-10)

    def test_incompatible_spaces(self):
        with pytest.raises(ValueError):
            fidelity_pure(fock_state(0, 4), fock_state(0, 5))

    def test_single_branch_reduces_to_pure(self):
        s = pacs_state(1.0, 1, 24)
        ref = coherent_state(1.0, 24)
        fid, _ = row_readings(mixture((1.0, s)), ref)
        assert fid == pytest.approx(fidelity_pure(s, ref))

    def test_equal_mixture_with_orthogonal_state(self):
        ref = fock_state(0, 4)
        fid, mean = row_readings(mixture((0.5, ref), (0.5, fock_state(2, 4))), ref)
        assert fid == pytest.approx(0.5, abs=1e-14)
        assert mean == pytest.approx(1.0, abs=1e-14)

    def test_against_dense_density_matrix(self):
        """<ref|rho|ref> / P read off rho equals the branch-weighted pure fidelities."""
        branches = ((0.5, coherent_state(0.7, 14)), (0.3, coherent_state(0.7j, 14)),
                    (0.2, fock_state(2, 14)))
        ref = coherent_state(0.5, 14)
        fid, _ = row_readings(mixture(*branches), ref)
        oracle = sum(w * fidelity_pure(s, ref) for w, s in branches)
        assert fid == pytest.approx(oracle, abs=1e-14)


class TestInvariantsAndValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            PureState.from_amplitudes(np.zeros(4))

    def test_mode_dim_guard(self):
        """A state needs two or more levels."""
        with pytest.raises(ValueError):
            PureState(np.ones(1))
        with pytest.raises(ValueError):
            fock_state(0, 1)
        assert PureState(np.eye(3)[1]).dim == 3

    def test_amplitudes_read_only(self):
        s = fock_state(0, 4)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_default_signal_dim_policy(self):
        assert default_signal_dim(0) == 16
        assert default_signal_dim(2.0) == 26
        # the rule of thumb's 29 leaks 4.7e-12 when three photons are added
        assert default_signal_dim(2.0, 3) == 30


@pytest.mark.parametrize("m", range(9))
def test_default_cutoff_holds_the_state(m):
    """a+^m |alpha> builds at default_signal_dim for |alpha| = 0.1 .. 11.9.

    The cutoff is the rule of thumb max(16, ceil(a^2 + 6a + 10) + m) wherever
    that holds the state, and otherwise the smallest larger one that does.
    """
    for i in range(1, 120):
        alpha = i / 10
        dim = default_signal_dim(alpha, m)
        pacs_state(alpha, m, dim)
        rule = max(16, math.ceil(alpha * alpha + 6.0 * alpha + 10.0) + m)
        assert dim >= rule
        if dim > rule:
            for smaller in (rule, dim - 1):
                with pytest.raises(TruncationError):
                    pacs_state(alpha, m, smaller)
