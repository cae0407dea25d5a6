"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Expected constants (Laguerre values, squeezed-vacuum amplitudes)
come from independently frozen oracles, not from the code under test.
"""

import math
from fractions import Fraction

import numpy as np

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    PureState,
    coherent_state,
    default_signal_dim,
    extract_w_state,
    fit_power_law,
    fock_state,
    outcome_probability,
    pacs_state,
    walk_patterns,
    wigner,
)

from oracles import (
    click_probability_given_n,
    conditional_density,
    density,
    fidelity,
    joint_state,
    ladder_apply,
    overlap_fidelity,
    stage_kraus,
)

# m! L_m(-|alpha|^2) for |alpha|^2 in {0, 1/4, 1, 4}, m in 0..4, frozen from
# exact rational arithmetic.
FACT_LAGUERRE = {
    0.0: [1, 1, 2, 6, 24],
    0.25: [
        Fraction(1),
        Fraction(5, 4),
        Fraction(49, 16),
        Fraction(709, 64),
        Fraction(13505, 256),
    ],
    1.0: [1, 2, 7, 34, 209],
    4.0: [1, 5, 34, 286, 2840],
}

DETECTORS = [
    DetectorModel.ideal(),
    DetectorModel(eta=0.6, dark_prob=1e-4),
    DetectorModel(eta=0.3, dark_prob=0.01),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def added_photon_norm_sq(alpha: complex, m: int, dim: int) -> float:
    state = coherent_state(alpha, dim)
    total = 1.0
    for _ in range(m):
        result = ladder_apply(state, 0, "raise")
        total *= result.norm**2
        state = PureState.from_amplitudes(result.amplitudes)
    return total


def test_criterion_1_pacs_normalization():
    """|| a+^m |alpha> ||^2 = m! L_m(-|alpha|^2) to 1e-8 relative."""
    worst = 0.0
    for a2, row in FACT_LAGUERRE.items():
        alpha = math.sqrt(a2)
        dim = default_signal_dim(alpha, 4)
        for m in range(5):
            got = added_photon_norm_sq(alpha, m, dim)
            expected = float(row[m])
            worst = max(worst, abs(got - expected) / expected)
    ok = worst <= 1e-8
    report(1, ok, f"photon-added norms match m! L_m, worst rel err {worst:.2e}")
    assert ok


def test_criterion_2_reduction_limits():
    """pacs(alpha, 0) is the coherent state; pacs(0, m) is |m> exactly."""
    worst_coh = 0.0
    for alpha in (0.5, 1.0, 2.0):
        dim = default_signal_dim(alpha)
        fid = overlap_fidelity(pacs_state(alpha, 0, dim), coherent_state(alpha, dim))
        worst_coh = max(worst_coh, abs(fid - 1.0))
    fock_exact = all(
        overlap_fidelity(pacs_state(0, m, 8), fock_state(m, 8)) == 1.0
        for m in range(1, 5)
    )
    ok = worst_coh <= 1e-12 and fock_exact
    report(
        2,
        ok,
        f"m=0 reduction off by {worst_coh:.2e}; alpha=0 reduction exact: {fock_exact}",
    )
    assert ok


def test_criterion_3_spacs_heralding():
    """A single ideal click at N=1, alpha=1, lam=0.05 heralds the SPACS."""
    alpha, lam = 1.0, 0.05
    cfg = ChainConfig.uniform(alpha, lam, 1)
    _, p, rho = next(walk_patterns(cfg, DetectorModel.ideal(), ClickPattern((True,))))
    fid = fidelity(p, rho, pacs_state(alpha, 1, cfg.signal_dim))
    expected_p = lam**2 * (1 + abs(alpha) ** 2)
    p_ok = abs(p - expected_p) / expected_p <= 0.05
    f_ok = fid >= 0.995
    report(
        3,
        p_ok and f_ok,
        f"P={p:.6f} (vs {expected_p:.6f}), fidelity={fid:.6f}",
    )
    assert p_ok and f_ok


def test_criterion_4_scaling_exponents():
    """m-click probabilities scale as lam^(2m) with binomial-counted prefactors.

    The per-pattern prefactor is m! L_m(-|alpha|^2); summing exactly-m-click
    patterns multiplies it by C(N, m) (the pattern count), not by N.
    """
    alpha, n_stages = 1.0, 3
    lams = (0.01, 0.02, 0.04, 0.08)
    det = DetectorModel.ideal()
    tables = {}
    for lam in lams:
        tables[lam] = list(walk_patterns(ChainConfig.uniform(alpha, lam, n_stages), det))
    ok = True
    details = []
    for m in (1, 2, 3):
        samples = []
        for lam in lams:
            p_m = sum(p for pattern, p, _ in tables[lam] if pattern.n_clicks == m)
            samples.append((lam, p_m))
        fit = fit_power_law(samples)
        expected_prefactor = math.comb(n_stages, m) * float(FACT_LAGUERRE[1.0][m])
        exp_ok = abs(fit.exponent - 2 * m) <= 0.2
        pre_ok = abs(fit.prefactor - expected_prefactor) / expected_prefactor <= 0.15
        ok = ok and exp_ok and pre_ok
        details.append(
            f"m={m}: exp {fit.exponent:.3f}, pref {fit.prefactor:.2f}"
            f" (vs C(3,{m})*m!L_m={expected_prefactor:.0f})"
        )
    report(4, ok, "; ".join(details))
    assert ok


def brute_force_heralding(cfg: ChainConfig) -> float:
    """Independent oracle for the W heralding probability.

    Builds the identification direction with a QR factorization (reference
    column last) and sums |<e, idler basis|psi>|^2 by explicit index loops.
    """
    ds = cfg.signal_dim
    n = cfg.n_stages
    columns = [pacs_state(cfg.alpha, m, ds).amplitudes for m in range(n + 1) if m != 1]
    columns.append(pacs_state(cfg.alpha, 1, ds).amplitudes)
    q, _ = np.linalg.qr(np.column_stack(columns))
    e = q[:, -1]
    psi = joint_state(cfg).amplitudes
    n_idler = psi.size // ds
    total = 0.0
    for idx in range(n_idler):
        amp = 0.0 + 0.0j
        for s in range(ds):
            amp += np.conj(e[s]) * psi[s * n_idler + idx]
        total += abs(amp) ** 2
    return total


def test_criterion_5_w_state_extraction():
    """Heralding one added photon leaves the N-mode W state in the idlers."""
    ok = True
    details = []
    for n_stages in (3, 5):
        cfg = ChainConfig.uniform(1.0, 0.05, n_stages)
        result = extract_w_state(cfg)
        oracle_p = brute_force_heralding(cfg)
        f_ok = result.w_fidelity is not None and result.w_fidelity >= 0.995
        p_ok = abs(result.probability - oracle_p) / oracle_p <= 0.05
        ok = ok and f_ok and p_ok
        details.append(
            f"N={n_stages}: F_W={result.w_fidelity:.5f},"
            f" P={result.probability:.5e} (oracle {oracle_p:.5e})"
        )
    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_conservation_law():
    """A Fock seed reaches only states with n_s - n_i = n_seed."""
    worst = 0.0
    for n0 in (0, 1, 2, 3):
        ds, di, lam = 14, 6, 0.1
        # out[n_s, n_i] = <n_s, n_i| U |n0, 0> = <n_s| K_(n_i) |n0>
        out = (stage_kraus(lam, ds, di) @ fock_state(n0, ds).amplitudes.real).T
        mask = np.fromfunction(lambda s, i: s - i != n0, (ds, di))
        worst = max(worst, float(np.sum(np.abs(out[mask]) ** 2)))
    ok = worst <= 1e-12
    report(6, ok, f"off-conservation mass {worst:.2e}")
    assert ok


def test_criterion_7_oracle_equivalence():
    """The signal-side walk and full-space conditioning agree on every pattern."""
    alpha = 1.0
    worst_p, worst_f = 0.0, 0.0
    detectors = [DetectorModel.ideal(), DetectorModel(eta=0.6, dark_prob=1e-4)]
    for n_stages in (1, 2, 3):
        for lam in (0.05, 0.2):
            cfg = ChainConfig.uniform(alpha, lam, n_stages)
            joint = joint_state(cfg)
            for det in detectors:
                for pattern, p_seq, rho_seq in walk_patterns(cfg, det):
                    p_full, rho_full = conditional_density(joint, pattern, det)
                    impossible = outcome_probability(p_full) == 0.0
                    assert (outcome_probability(p_seq) == 0.0) == impossible
                    if impossible:
                        continue
                    worst_p = max(worst_p, abs(p_seq - p_full) / p_full)
                    for ref_m in (0, pattern.n_clicks):
                        ref = pacs_state(alpha, ref_m, cfg.signal_dim)
                        worst_f = max(
                            worst_f,
                            abs(fidelity(p_seq, rho_seq, ref) - fidelity(p_full, rho_full, ref)),
                        )
    ok = worst_p <= 1e-8 and worst_f <= 1e-8
    report(7, ok, f"worst rel dP {worst_p:.2e}, worst |dF| {worst_f:.2e}")
    assert ok


def test_criterion_8_two_mode_squeezed_vacuum():
    """The exact stage's Kraus operators reproduce tanh/cosh amplitudes beyond weak coupling."""
    ok = True
    details = []
    for lam, dim in ((0.1, 16), (0.5, 30), (1.0, 78)):
        # amps[n_s, n_i] = <n_s, n_i| U |0, 0> = <n_s| K_(n_i) |0>
        amps = stage_kraus(lam, dim, dim)[:, :, 0].T
        k = np.arange(dim)
        expected = np.zeros((dim, dim))
        expected[k, k] = np.tanh(lam) ** k / np.cosh(lam)
        err = float(np.max(np.abs(amps - expected)))
        ok = ok and err <= 1e-9
        details.append(f"lam={lam}: max err {err:.2e} (dim {dim})")
    report(8, ok, "; ".join(details))
    assert ok


def test_criterion_9_detector_model():
    """Dark floor is exact at lam=0; click rate is linear in the efficiency."""
    dark = 0.01
    click = ClickPattern((True,))

    def probability(cfg, det):
        return next(walk_patterns(cfg, det, click))[1]

    p_dark = probability(ChainConfig.uniform(1.0, 0.0, 1), DetectorModel(eta=0.6, dark_prob=dark))
    exact_ok = p_dark == dark and click_probability_given_n(
        DetectorModel(eta=0.6, dark_prob=dark), 0
    ) == dark

    cfg = ChainConfig.uniform(1.0, 0.01, 1)
    ratio = probability(cfg, DetectorModel(eta=0.6)) / probability(cfg, DetectorModel.ideal())
    ratio_ok = abs(ratio - 0.6) <= 0.02
    ok = exact_ok and ratio_ok
    report(9, ok, f"P(click|lam=0)={p_dark!r} (= dark: {exact_ok}), eta ratio {ratio:.4f}")
    assert ok


def test_criterion_10_wigner_checks():
    """Known Wigner values and the nonclassicality of the added-photon state."""
    grid_vac = wigner(density(fock_state(0, 12)), extent=4.0, step=0.1)
    grid_one = wigner(density(fock_state(1, 12)), extent=4.0, step=0.1)
    i0 = np.argmin(np.abs(grid_vac.x_axis))
    j0 = np.argmin(np.abs(grid_vac.p_axis))
    vac_err = abs(grid_vac.values[i0, j0] - 1.0 / math.pi)
    one_err = abs(grid_one.values[i0, j0] + 1.0 / math.pi)

    extent = abs(1.0) + 4.0
    grid_pacs = wigner(density(pacs_state(1.0, 1, 24)), extent=extent, step=0.1)
    grid_coh = wigner(density(coherent_state(1.0, 24)), extent=extent, step=0.1)
    ok = (
        vac_err <= 1e-9
        and one_err <= 1e-9
        and grid_pacs.minimum() < 0.0
        and grid_coh.minimum() >= -1e-9
    )
    report(
        10,
        ok,
        f"W_vac err {vac_err:.1e}, W_|1> err {one_err:.1e}, "
        f"min W_pacs {grid_pacs.minimum():.4f} < 0, min W_coh {grid_coh.minimum():.1e}",
    )
    assert ok


def test_criterion_11_povm_completeness():
    """Pattern probabilities sum to one for every tested chain and detector."""
    worst = 0.0
    for n_stages in (1, 2, 3):
        for lam in (0.05, 0.2):
            cfg = ChainConfig.uniform(1.0, lam, n_stages)
            for det in DETECTORS:
                total = sum(p for _, p, _ in walk_patterns(cfg, det))
                worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    report(11, ok, f"worst |sum - 1| = {worst:.2e}")
    assert ok
