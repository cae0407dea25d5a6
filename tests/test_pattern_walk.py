"""The depth-first click-prefix walk and the pattern table read from its leaves."""

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
    fidelity_ensemble,
    mean_photon_number,
    pacs_state,
    run_chain_sequential,
    walk_patterns,
)
from pacsim.cli import Scenario, _pattern_rows, main

TINY = np.finfo(float).tiny


def table(config, detector, mode, pattern=None):
    return _pattern_rows(Scenario(config, detector, mode, ()), pattern)


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
    """Rows read from rho agree with run_chain_sequential's eigen-ensemble (1e-12)
    and with the full-mode table (1e-10)."""
    config, detector = chain
    seq = table(config, detector, "sequential")
    full = table(config, detector, "full")
    patterns = ClickPattern.all(config.n_stages)
    assert [r[0] for r in seq] == [r[0] for r in full] == [str(p) for p in patterns]
    for row, pattern in zip(seq, patterns):
        cond = run_chain_sequential(config, detector, pattern)
        if cond.impossible:
            assert row[2:] == ["0.0", "", ""]
            continue
        ref = pacs_state(config.alpha, pattern.n_clicks, config.signal_dim)
        mean = sum(w * mean_photon_number(s) for w, s in cond.ensemble.branches)
        assert float(row[2]) == cond.probability
        assert close(row[3], fidelity_ensemble(cond.ensemble, ref), 1e-12)
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
    assert [p for p, _, _ in leaves] == ClickPattern.all(n_stages)
    fold_counter.clear()
    pattern = ClickPattern.all(n_stages)[-1]
    assert len(list(walk_patterns(config, detector, pattern))) == 1
    assert len(fold_counter) == n_stages


@pytest.mark.parametrize("mode", ["sequential", "full"])
def test_filtered_task_is_the_same_row(tmp_path, fold_counter, mode):
    """A `pattern:` task gives the unfiltered table's row, from one path's work."""
    patterns = ClickPattern.all(3)
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
    if mode == "sequential":
        # 14 folds for the table, 3 for each of the 8 single patterns
        assert len(fold_counter) == 14 + 8 * 3


@pytest.mark.parametrize("mode", ["sequential", "full"])
def test_impossible_rows(mode):
    """P = 0 at lam = 0, and a subnormal P, both read 0.0 with no fidelity or mean."""
    rows = table(ChainConfig.uniform(1.0, 0.0, 3), DetectorModel(0.6, 0.0), mode)
    assert rows[0][2] == "1.0" and rows[0][3] and rows[0][4]
    for row in rows[1:]:
        assert row[2:] == ["0.0", "", ""]
    subnormal = ChainConfig(0.0, (StageParams(0.0, 2), StageParams(0.25, 2)), 16)
    rows = table(subnormal, DetectorModel(1.0, TINY), mode, ClickPattern.from_string("11"))
    assert rows == [["11", "2", "0.0", "", ""]]


def test_pacs_command_reads_the_table_row(capsys):
    """`pacsim pacs` prints the probability and fidelity of the sequential row."""
    args = ["--alpha", "1+0.5j", "--lam", "0.1", "--eta", "0.5", "--dark-prob", "1e-3"]
    assert main(["pacs", *args, "--pattern", "101"]) == 0
    out = capsys.readouterr().out
    probability = float(out.split("probability = ")[1].split("\n")[0])
    fidelity = float(out.rsplit("= ", 1)[1])
    config = ChainConfig.uniform(1 + 0.5j, 0.1, 3)
    row = table(config, DetectorModel(0.5, 1e-3), "sequential")[5]
    assert row[0] == "101"
    assert (probability, fidelity) == (float(row[2]), float(row[3]))


def test_wigner_help_states_the_cost(capsys):
    with pytest.raises(SystemExit):
        main(["wigner", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "cube" in text and "fock:1000" in text
