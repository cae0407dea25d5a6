"""The depth-first click-prefix walk and the pattern table read from its leaves."""

import functools
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
from pacsim.cli import _pattern_row, _pattern_rows, main

from oracles import conditional_density, joint_state

TINY = np.finfo(float).tiny


def all_patterns(n_stages):
    """Every pattern in lexicographic order, no-click first."""
    return [ClickPattern(bits) for bits in product((False, True), repeat=n_stages)]


def table(config, detector, pattern=None):
    """The CLI's rows, read from the walk's leaves."""
    return _pattern_rows(config, detector, pattern)


def dense_table(config, detector, pattern=None):
    """The same rows read from the conditioned joint state: the dense oracle."""
    joint = joint_state(config)
    reference = functools.cache(
        lambda m: pacs_state(config.alpha, m, config.signal_dim).amplitudes
    )
    patterns = all_patterns(config.n_stages) if pattern is None else [pattern]
    return [
        _pattern_row(p, *conditional_density(joint, p, detector), reference)
        for p in patterns
    ]


def close(got: str, want: float, tol: float) -> bool:
    """Within ``tol`` relative to max(|want|, 1).

    A fidelity is at most 1 and read from a unit-trace state, so its
    rounding is absolute: a fidelity far below 1 is a cancellation
    against the reference and only its distance from 1 is resolved.
    """
    return abs(float(got) - want) <= tol * max(abs(want), 1.0)


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
            assert row[2:] == ["0.0", "", ""]
            continue
        # the branches of the eigendecomposition, weighted sums over them
        weights, vectors = np.linalg.eigh(rho / probability)
        ref = pacs_state(config.alpha, pattern.n_clicks, config.signal_dim).amplitudes
        levels = np.arange(config.signal_dim)
        fid = sum(w * abs(np.vdot(ref, v)) ** 2 for w, v in zip(weights, vectors.T))
        mean = sum(w * levels @ np.abs(v) ** 2 for w, v in zip(weights, vectors.T))
        assert float(row[2]) == probability
        assert close(row[3], fid, 1e-12)
        assert close(row[4], mean, 1e-12)
    for s, f in zip(seq, full):
        if "" in (s[3], f[3]):
            # impossible on one path: both sit at the subnormal boundary
            assert max(float(s[2]), float(f[2])) <= TINY * (1 + 1e-10)
            continue
        assert abs(float(s[2]) - float(f[2])) <= 1e-10 * float(f[2])
        assert close(s[3], float(f[3]), 1e-10)
        assert close(s[4], float(f[4]), 1e-10)


@pytest.fixture
def fold_counter(monkeypatch):
    calls = []
    fold = dynamics._fold

    def counting(*args):
        calls.append(1)
        return fold(*args)

    monkeypatch.setattr(dynamics, "_fold", counting)
    return calls


@pytest.mark.parametrize("n_stages", [1, 2, 5, 8])
def test_walk_folds_each_prefix_once(fold_counter, n_stages):
    """2^(N+1) - 2 folds for the table, N for one pattern."""
    config = ChainConfig.uniform(1.0, 0.05, n_stages)
    detector = DetectorModel(0.6, 1e-4)
    leaves = list(walk_patterns(config, detector))
    assert len(fold_counter) == 2 ** (n_stages + 1) - 2
    assert [p for p, _, _ in leaves] == all_patterns(n_stages)
    fold_counter.clear()
    pattern = all_patterns(n_stages)[-1]
    assert len(list(walk_patterns(config, detector, pattern))) == 1
    assert len(fold_counter) == n_stages


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
    # either mode: 14 folds for the table, 3 for each of the 8 single patterns
    assert len(fold_counter) == 14 + 8 * 3


@pytest.mark.parametrize("rows_of", [table, dense_table], ids=["sequential", "full"])
def test_impossible_rows(rows_of):
    """P = 0 at lam = 0, and a subnormal P, both read 0.0 with no fidelity or mean,
    in the walk's rows and in the dense oracle's."""
    rows = rows_of(ChainConfig.uniform(1.0, 0.0, 3), DetectorModel(0.6, 0.0))
    assert rows[0][2] == "1.0" and rows[0][3] and rows[0][4]
    for row in rows[1:]:
        assert row[2:] == ["0.0", "", ""]
    subnormal = ChainConfig(0.0, (StageParams(0.0, 2), StageParams(0.25, 2)), 16)
    rows = rows_of(subnormal, DetectorModel(1.0, TINY), ClickPattern.from_string("11"))
    assert rows == [["11", "2", "0.0", "", ""]]


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
    assert (probability, fidelity) == (float(row[2]), float(row[3]))


def test_wigner_help_states_the_cost(capsys):
    with pytest.raises(SystemExit):
        main(["wigner", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "cube" in text and "fock:1000" in text
