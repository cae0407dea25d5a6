"""The level-by-level click-prefix walk and the pattern table read from its leaves."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacsim.dynamics as dynamics
from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    StageParams,
    outcome_probability,
    pacs_state,
    walk_patterns,
)
from pacsim.cli import Scenario, _run_patterns_task, main
from pacsim.errors import StrongCouplingWarning

from oracles import conditional_density, joint_state

TINY = np.finfo(float).tiny


def all_patterns(n_stages):
    """Every pattern in lexicographic order, no-click first."""
    return [ClickPattern(bits) for bits in product((False, True), repeat=n_stages)]


def table(config, detector, pattern=None):
    """The rows of the CLI's pattern table, read from the walk's leaves."""
    task = {"type": "patterns", "pattern": pattern, "output": "t.csv"}
    return _run_patterns_task(task, Scenario(config, detector, (task,)), "tasks[0]")["t.csv"].rows


def dense_table(config, detector, pattern=None):
    """The same rows read from the conditioned joint state: the dense oracle's
    leaves, read by the table's own readings.

    Its references are built one pacs_state at a time, not from the ladder."""
    joint = joint_state(config)
    patterns = all_patterns(config.n_stages) if pattern is None else [pattern]
    leaves = [conditional_density(joint, p, detector) for p in patterns]
    readings = dynamics._readings(
        patterns,
        [probability for probability, _ in leaves],
        np.stack([rho for _, rho in leaves]),
        lambda top: [pacs_state(config.alpha, m, config.signal_dim) for m in range(top + 1)],
    )
    return [[str(p), p.n_clicks, *values] for p, *values in readings]


def close(got: float, want: float, tol: float) -> bool:
    """Within ``tol`` relative to max(|want|, 1).

    A fidelity is at most 1 and read from a unit-trace state, so its
    rounding is absolute: a fidelity far below 1 is a cancellation
    against the reference and only its distance from 1 is resolved.
    """
    return abs(got - want) <= tol * max(abs(want), 1.0)


@st.composite
def walk_chains(draw):
    n_stages = draw(st.integers(1, 7))
    # keep the dense oracle of the seven-stage chains small
    max_idler = 4 if n_stages <= 5 else 3
    stages = tuple(
        StageParams(draw(st.floats(0.0, 0.3)), draw(st.integers(2, max_idler)))
        for _ in range(n_stages)
    )
    detector = DetectorModel(
        eta=draw(st.floats(0.0, 1.0)), dark_prob=draw(st.floats(0.0, 0.05))
    )
    alpha = draw(
        st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    )
    return ChainConfig(alpha, stages), detector


@settings(max_examples=40, deadline=None)
@given(walk_chains())
def test_walk_rows_match_the_ensemble_and_the_dense_oracle(chain):
    """Rows read from rho agree with rho's eigen-ensemble (1e-12) and with the
    rows of the conditioned joint state (1e-10)."""
    config, detector = chain
    seq = table(config, detector)
    full = dense_table(config, detector)
    leaves = list(walk_patterns(config, detector))
    patterns = all_patterns(config.n_stages)
    assert [r[0] for r in seq] == [r[0] for r in full] == [str(p) for p in patterns]
    for row, (pattern, probability, rho) in zip(seq, leaves):
        if outcome_probability(probability) == 0.0:
            assert row[2:] == [0.0, None, None]
            continue
        # the branches of the eigendecomposition, weighted sums over them
        weights, vectors = np.linalg.eigh(rho / probability)
        ref = pacs_state(config.alpha, pattern.n_clicks, config.signal_dim).amplitudes
        levels = np.arange(config.signal_dim)
        fid = sum(w * abs(np.vdot(ref, v)) ** 2 for w, v in zip(weights, vectors.T))
        mean = sum(w * levels @ np.abs(v) ** 2 for w, v in zip(weights, vectors.T))
        assert row[2] == probability
        assert close(row[3], fid, 1e-12)
        assert close(row[4], mean, 1e-12)
    for s, f in zip(seq, full):
        if None in (s[3], f[3]):
            # impossible on one path: both sit at the subnormal boundary
            assert max(s[2], f[2]) <= TINY * (1 + 1e-10)
            continue
        assert abs(s[2] - f[2]) <= 1e-10 * f[2]
        assert close(s[3], f[3], 1e-10)
        assert close(s[4], f[4], 1e-10)


@pytest.fixture
def fold_counter(monkeypatch):
    """The prefixes folded: for each _fold call, its stack's prefixes times
    its outcomes, one entry per call."""
    folded = []
    fold = dynamics._fold

    def counting(kraus_rhos, weighted):
        folded.append(len(kraus_rhos) * len(weighted))
        return fold(kraus_rhos, weighted)

    monkeypatch.setattr(dynamics, "_fold", counting)
    return folded


@pytest.mark.parametrize("n_stages", [1, 2, 5, 8])
def test_walk_folds_each_prefix_once(fold_counter, n_stages):
    """2^(N+1) - 2 prefix folds for the table, N for one pattern."""
    config = ChainConfig.uniform(1.0, 0.05, n_stages)
    detector = DetectorModel(0.6, 1e-4)
    leaves = list(walk_patterns(config, detector))
    assert sum(fold_counter) == 2 ** (n_stages + 1) - 2
    assert [p for p, _, _ in leaves] == all_patterns(n_stages)
    fold_counter.clear()
    pattern = all_patterns(n_stages)[-1]
    assert len(list(walk_patterns(config, detector, pattern))) == 1
    assert sum(fold_counter) == n_stages


@pytest.mark.parametrize("batch", [1, 3])
def test_split_walk_is_the_unsplit_walk(fold_counter, monkeypatch, batch):
    """With the stack limit at ``batch`` prefixes the walk splits its stacks
    (at every depth past the first for batch 1); the leaves and the table
    keep every bit, in order, and each prefix is still folded once."""
    config = ChainConfig((0.8 + 0.3j), (StageParams(0.1, 3), StageParams(0.05, 4),
                                        StageParams(0.2, 2), StageParams(0.1, 4)))
    detector = DetectorModel(0.4, 1e-3)
    whole = list(walk_patterns(config, detector))
    rows = table(config, detector)
    fold_counter.clear()
    widest = 4 * config.signal_dim**2
    monkeypatch.setattr(dynamics, "_WALK_ENTRIES", batch * widest)
    split = list(walk_patterns(config, detector))
    assert sum(fold_counter) == 2**5 - 2
    assert max(fold_counter) <= 2 * batch and len(fold_counter) > 4
    assert [p for p, _, _ in split] == [p for p, _, _ in whole] == all_patterns(4)
    for (_, p_split, rho_split), (_, p_whole, rho_whole) in zip(split, whole):
        assert p_split == p_whole and rho_split.tobytes() == rho_whole.tobytes()
    # repr, so that -0.0 and 0.0 differ
    assert repr(table(config, detector)) == repr(rows)


def test_walk_memory_is_bounded_by_the_stack_limit():
    """The 2^14 leaves of an N = 14 table at the default cutoff (signal_dim
    34) are walked in under four stack limits of float64: the K_k rho stack,
    its reshaped copy, the children and the halves still to walk. The whole
    last depth at once would take 2^14 * 4 * 34^2 * 8 B = 606 MB. So are
    the 2^10 leaves of N = 10 at idler_dim 2, whose leaf runs, twice the
    largest stack there, stay float64 for a real alpha."""
    for n, idler_dim, signal_dim in ((14, 4, 34), (10, 2, 29)):
        config = ChainConfig.uniform(1.0, 0.05, n, idler_dim=idler_dim)
        assert config.signal_dim == signal_dim
        tracemalloc.start()
        try:
            leaves = sum(1 for _ in walk_patterns(config, DetectorModel(0.6, 1e-4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leaves == 2**n
        assert peak < 4 * 8 * dynamics._WALK_ENTRIES


def test_negative_seed_leaves_are_real():
    """At alpha = -1.3 the leaves stay float64: bit for bit the alpha = +1.3
    leaves times the exact level phases (-1)^(m+n), with the same P."""
    detector = DetectorModel(0.6, 1e-4)
    levels = np.arange(ChainConfig.uniform(1.3, 0.05, 3).signal_dim)
    signs = (-1.0) ** np.add.outer(levels, levels)
    negative = list(walk_patterns(ChainConfig.uniform(-1.3, 0.05, 3), detector))
    positive = list(walk_patterns(ChainConfig.uniform(1.3, 0.05, 3), detector))
    assert len(negative) == len(positive) == 8
    for (p_neg, prob_neg, rho_neg), (p_pos, prob_pos, rho_pos) in zip(negative, positive):
        assert p_neg == p_pos and prob_neg == prob_pos
        assert rho_neg.dtype == np.float64
        assert rho_neg.tobytes() == (rho_pos * signs).tobytes()


@pytest.mark.parametrize("mode", ["sequential", "full"])
def test_filtered_task_is_the_same_row(tmp_path, fold_counter, mode):
    """A `pattern:` task gives the unfiltered table's row, from one path's work."""
    patterns = all_patterns(3)
    tasks = "".join(
        f"  - {{type: patterns, pattern: '{p}', output: p{p}.csv}}\n" for p in patterns
    )
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "version: 1\nchain: {alpha: '0.8+0.3j', lam: 0.1, n_stages: 3}\n"
        f"detector: {{eta: 0.4, dark_prob: 1.0e-3}}\nmode: {mode}\n"
        "tasks:\n  - {type: patterns, output: all.csv}\n" + tasks,
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--outdir", str(out)]) == 0
    lines = (out / "all.csv").read_text(encoding="utf-8").splitlines()
    for p, line in zip(patterns, lines[1:]):
        assert (out / f"p{p}.csv").read_text(encoding="utf-8").splitlines() == [
            lines[0], line
        ]
    # either mode: 14 prefix folds for the table, 3 for each of the 8 single patterns
    assert sum(fold_counter) == 14 + 8 * 3


@pytest.mark.parametrize("rows_of", [table, dense_table], ids=["sequential", "full"])
def test_impossible_rows(rows_of):
    """P = 0 at lam = 0, and a subnormal P, both read 0.0 with no fidelity or mean,
    in the walk's rows and in the dense oracle's."""
    rows = rows_of(ChainConfig.uniform(1.0, 0.0, 3), DetectorModel(0.6, 0.0))
    assert rows[0][2] == 1.0 and None not in rows[0]
    for row in rows[1:]:
        assert row[2:] == [0.0, None, None]
    subnormal = ChainConfig(0.0, (StageParams(0.0, 2), StageParams(0.25, 2)), 16)
    rows = rows_of(subnormal, DetectorModel(1.0, TINY), ClickPattern.from_string("11"))
    assert rows == [["11", 2, 0.0, None, None]]


CLICK_TASKS = """\
tasks:
  - {type: patterns, output: all.csv}
  - {type: patterns, pattern: '101', output: one.csv}
  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '110', output: lam.csv,
     fit_output: fit.json}
  - {type: sweep, param: alpha, values: [0.5, 1.5], pattern: '011', output: alpha.csv}
"""


def test_click_answers_come_from_the_walk_alone(signal_states_only, tmp_path, capsys):
    """Both modes write the same bytes with no multimode state formed, and the
    quick-look sweep and pacs commands need one no more than the tables do."""
    outputs = {}
    for mode in ("full", "sequential"):
        config = tmp_path / f"{mode}.yaml"
        config.write_text(
            "version: 1\nchain: {alpha: '0.8+0.3j', lam: 0.1, n_stages: 3}\n"
            f"detector: {{eta: 0.4, dark_prob: 1.0e-3}}\nmode: {mode}\n" + CLICK_TASKS,
            encoding="utf-8",
        )
        out = tmp_path / mode
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        outputs[mode] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert list(outputs["full"]) == ["all.csv", "alpha.csv", "fit.json", "lam.csv", "one.csv"]
    assert outputs["full"] == outputs["sequential"]
    flags = ["--alpha", "0.8+0.3j", "--lam", "0.1", "--eta", "0.4", "--dark-prob", "1e-3"]
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--pattern", "110", "--values", "0.01,0.02,0.04",
                 "--out", str(sweep)]) == 0
    assert sweep.read_bytes() == outputs["full"]["lam.csv"]
    capsys.readouterr()
    assert main(["pacs", *flags, "--pattern", "101"]) == 0
    row = outputs["full"]["one.csv"].decode().splitlines()[1].split(",")
    assert capsys.readouterr().out == (
        f"pattern 101: probability = {row[2]}\n"
        f"fidelity vs 2-photon-added state = {row[3]}\n"
    )


def test_pacs_command_reads_the_table_row(capsys):
    """`pacsim pacs` prints the probability and fidelity of the sequential row."""
    args = ["--alpha", "1+0.5j", "--lam", "0.1", "--eta", "0.5", "--dark-prob", "1e-3"]
    assert main(["pacs", *args, "--pattern", "101"]) == 0
    out = capsys.readouterr().out
    probability = float(out.split("probability = ")[1].split("\n")[0])
    fidelity = float(out.rsplit("= ", 1)[1])
    config = ChainConfig.uniform(1 + 0.5j, 0.1, 3)
    row = table(config, DetectorModel(0.5, 1e-3))[5]
    assert row[0] == "101"
    assert (probability, fidelity) == (row[2], row[3])


def test_wigner_help_states_the_cost(capsys):
    with pytest.raises(SystemExit):
        main(["wigner", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "cube" in text and "fock:1000" in text


def test_one_stage_click_probability_at_strong_coupling():
    """At lam = 2 one stage clicks with 1 - e^{-|a|^2} sum_n |a|^{2n}/n! cosh^{-2(n+1)} lam
    (0.972106 at alpha = 1); the walk meets it once the idler holds 48 levels and
    the signal 120. The default idler cutoff 4 gives 0.624, with no dropped mass
    reported, only a StrongCouplingWarning."""
    alpha, lam = 1.0, 2.0
    exact = 1.0 - math.exp(-alpha**2) * math.fsum(
        alpha ** (2 * n) / math.factorial(n) * math.cosh(lam) ** (-2 * (n + 1))
        for n in range(100)
    )
    with pytest.warns(StrongCouplingWarning):
        config = ChainConfig(alpha, (StageParams(lam, 48),), 120)
    _, probability, _ = next(
        walk_patterns(config, DetectorModel.ideal(), ClickPattern.from_string("1"))
    )
    assert probability == pytest.approx(exact, rel=0, abs=1e-9)
