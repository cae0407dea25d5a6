"""Scenario runner, file formats and quick-look subcommands."""

import csv
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    WignerGrid,
    default_signal_dim,
    extract_w_state,
    fock_state,
    outcome_probability,
    pacs_state,
    stage_kraus,
    walk_patterns,
    wigner,
)
from pacsim import cli, dynamics
from pacsim.cli import (
    DEFAULT_AMPLITUDE_BUDGET,
    emit_wigner,
    load_wigner,
    main,
    run_scenario,
    wigner_grid_lines,
)
from pacsim.errors import DimensionBudgetError

from oracles import conditional_density, density, fidelity, joint_state

MINIMAL_SCENARIO = """\
version: 1
chain:
  alpha: 1.0
  lam: 0.05
  n_stages: 1
detector:
  eta: 1.0
  dark_prob: 0.0
mode: full
tasks:
  - type: patterns
    output: patterns.csv
"""


def write_scenario(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _no_grid(*args, **kwargs):
    raise AssertionError("a Wigner grid was formed")


class TestRunScenario:
    def test_minimal_pattern_task(self, tmp_path):
        """The emitted CSV reproduces the exact simulation values: the walk's
        probabilities, and the dense oracle's fidelities."""
        config = write_scenario(tmp_path, MINIMAL_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        rows = read_csv(out / "patterns.csv")
        assert [r["pattern"] for r in rows] == ["0", "1"]
        cfg = ChainConfig.uniform(1.0, 0.05, 1)
        joint = joint_state(cfg)
        det = DetectorModel.ideal()
        leaves = walk_patterns(cfg, det)
        total = 0.0
        for row, (pattern, probability, _) in zip(rows, leaves, strict=True):
            assert row["pattern"] == str(pattern)
            assert float(row["probability"]) == outcome_probability(probability)
            ref = pacs_state(1.0, int(row["n_clicks"]), cfg.signal_dim)
            assert float(row["fidelity_vs_pacs_m"]) == pytest.approx(
                fidelity(*conditional_density(joint, pattern, det), ref), abs=1e-15
            )
            total += float(row["probability"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_scenario(
            tmp_path,
            MINIMAL_SCENARIO
            + """\
  - type: sweep
    values: [0.01, 0.02, 0.04]
    pattern: "1"
    output: sweep.csv
    fit_output: fit.json
  - type: wigner
    state: "pacs:1,1"
    extent: 3.0
    step: 0.5
    output: wig.txt
  - type: project
    output: project.json
""",
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config), "--outdir", str(out1)]) == 0
        assert main(["run", str(config), "--outdir", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["fit.json", "patterns.csv", "project.json", "sweep.csv", "wig.txt"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sweep_fit_consumable(self, tmp_path):
        config = write_scenario(
            tmp_path,
            """\
version: 1
chain: {alpha: 1.0, lam: 0.05, n_stages: 1}
tasks:
  - type: sweep
    values: [0.01, 0.02, 0.04]
    pattern: "1"
    output: sweep.csv
    fit_output: fit.json
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["exponent"] == pytest.approx(2.0, abs=0.05)
        assert fit["prefactor"] == pytest.approx(2.0, rel=0.05)
        rows = read_csv(out / "sweep.csv")
        assert [float(r["lam"]) for r in rows] == [0.01, 0.02, 0.04]

    def test_sequential_mode(self, tmp_path):
        config = write_scenario(
            tmp_path,
            """\
version: 1
chain: {alpha: 1.0, lam: 0.05, n_stages: 2}
detector: {eta: 0.6, dark_prob: 0.0001}
mode: sequential
tasks:
  - type: patterns
    output: patterns.csv
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        rows = read_csv(out / "patterns.csv")
        assert len(rows) == 4
        assert sum(float(r["probability"]) for r in rows) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_project_task_values(self, tmp_path):
        config = write_scenario(
            tmp_path,
            """\
version: 1
chain: {alpha: 1.0, lam: 0.05, n_stages: 3}
tasks:
  - type: project
    output: project.json
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        payload = json.loads((out / "project.json").read_text())
        assert payload["w_fidelity"] >= 0.995
        assert 0.0 < payload["probability"] < 0.01

    def test_worker_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        config = write_scenario(tmp_path, MINIMAL_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config), "--outdir", str(out1)]) == 0
        monkeypatch.setenv("PACSIM_MAX_WORKERS", "3")
        assert main(["run", str(config), "--outdir", str(out2)]) == 0
        assert (out1 / "patterns.csv").read_bytes() == (out2 / "patterns.csv").read_bytes()


def test_wigner_task_beyond_level_170(tmp_path):
    """A scenario's fock:200 grid runs: W_200(0, 0) = (-1)^200 / pi."""
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
        "  - {type: wigner, state: 'fock:200', extent: 1.0, step: 0.5, output: w.txt}\n",
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--outdir", str(out)]) == 0
    grid = load_wigner(out / "w.txt")
    assert grid.values[2, 2] == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_streamed_grid_peaks_below_its_file_size(tmp_path):
    """The benchmark's 401x401 pacs:2,1 grid is formatted one row at a time
    as it is written, so tracing run_scenario peaks below the file's size."""
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
        "  - {type: wigner, state: 'pacs:2,1', extent: 10.0, step: 0.05, output: w.txt}\n",
    )
    tracemalloc.start()
    try:
        assert run_scenario(config, tmp_path / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "w.txt").stat().st_size
    assert size > 3_400_000
    assert peak < size


class TestValidationFailures:
    def run_expecting_error(self, tmp_path, text, fragment, capsys):
        config = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        code = main(["run", str(config), "--outdir", str(out)])
        assert code == 1
        assert not out.exists()
        assert fragment in capsys.readouterr().err

    def test_yaml_syntax_error_has_line_context(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path, "version: 1\nchain: [unclosed\n", "line", capsys
        )

    def test_version_mismatch(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path, MINIMAL_SCENARIO.replace("version: 1", "version: 9"),
            "version", capsys,
        )

    def test_unknown_field_named(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path, MINIMAL_SCENARIO + "typo_field: 3\n", "typo_field", capsys
        )

    def test_missing_alpha_named(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {lam: 0.05, n_stages: 1}\ntasks:\n"
            "  - {type: patterns, output: p.csv}\n",
            "'alpha'",
            capsys,
        )

    def test_pattern_length_mismatch_named(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 2}\ntasks:\n"
            "  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '1',"
            " output: s.csv}\n",
            "tasks[0].pattern",
            capsys,
        )

    def test_duplicate_output_rejected(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path,
            MINIMAL_SCENARIO + "  - type: patterns\n    output: patterns.csv\n",
            "duplicate",
            capsys,
        )

    @pytest.mark.parametrize(
        "tasks, field",
        [
            ("  - {type: patterns, output: a.csv}\n  - {type: patterns, output: ./a.csv}\n",
             "tasks[1].output"),
            ("  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '1', output: s.csv,"
             " fit_output: out/../s.csv}\n", "tasks[0].fit_output"),
        ],
        ids=["dot-slash", "parent-dir"],
    )
    def test_duplicate_output_spellings_rejected(self, tmp_path, capsys, tasks, field):
        """Paths that differ only in spelling name one file: the later one is refused."""
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n" + tasks,
            f"error: {field}: duplicate output path",
            capsys,
        )

    def test_unknown_task_type(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path,
            MINIMAL_SCENARIO.replace("type: patterns", "type: telepathy"),
            "type",
            capsys,
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ladder_max", "-1"),
            ("ladder_max", "'3'"),
            ("ladder_max", "true"),
            ("ladder_max", "null"),
            ("reference_m", "true"),
            ("plain", "'yes'"),
        ],
    )
    def test_project_field_rejected(self, tmp_path, capsys, field, value):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 2}\ntasks:\n"
            f"  - {{type: project, output: p.json, {field}: {value}}}\n",
            f"tasks[0].{field}",
            capsys,
        )

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("n_stages: 1", "n_stages: true", "chain.n_stages"),
            ("n_stages: 1", "n_stages: 1\n  signal_dim: true", "chain.signal_dim"),
            ("lam: 0.05", "lam: true", "chain.lam"),
            ("alpha: 1.0", "alpha: true", "chain.alpha"),
            ("alpha: 1.0", "alpha: .inf", "chain.alpha"),
            ("alpha: 1.0", "alpha: 1.0e+200", "chain.alpha"),
            ("alpha: 1.0", "alpha: 1.0e+200\n  signal_dim: 30", "chain.alpha"),
            ("n_stages: 1", "n_stages: 1\n  idler_dim: 3.9", "chain.idler_dim"),
            ("lam: 0.05\n  n_stages: 1", "stages: [{lam: 0.05}, {lam: true}]",
             "chain.stages[1].lam"),
            ("lam: 0.05\n  n_stages: 1", "stages: [{lam: 0.05, idler_dim: 3.9}]",
             "chain.stages[0].idler_dim"),
            ("eta: 1.0", "eta: true", "detector.eta"),
            ("dark_prob: 0.0", "dark_prob: '0'", "detector.dark_prob"),
        ],
        ids=["n_stages", "signal_dim", "lam", "alpha", "alpha-inf", "alpha-square-overflows",
             "alpha-square-overflows-signal_dim", "idler_dim", "stages-lam",
             "stages-idler_dim", "eta", "dark_prob"],
    )
    def test_boolean_chain_size_rejected(self, tmp_path, capsys, old, new, field):
        """Chain and detector numbers are type-checked, not coerced by float() or int()."""
        self.run_expecting_error(
            tmp_path, MINIMAL_SCENARIO.replace(old, new), f"{field}: expected", capsys
        )

    def test_truncation_names_signal_dim(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 7, signal_dim: 24}\n"
            "tasks:\n  - {type: project, output: p.json}\n",
            "chain.signal_dim",
            capsys,
        )

    @pytest.mark.parametrize(
        "task, field",
        [
            ("{type: patterns, output: p.csv, patern: '1'}", "patern"),
            ("{type: project, output: p.json, ladder: 1}", "ladder"),
            ("{type: sweep, values: [0.01, 0.02, 0.04], pattern: '1', output: s.csv,"
             " fit: f.json}", "fit"),
            ("{type: wigner, state: 'fock:1', output: w.txt, stepp: 0.01}", "stepp"),
        ],
        ids=["patterns", "project", "sweep", "wigner"],
    )
    def test_unknown_task_field_named(self, tmp_path, capsys, task, field):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
            "  - {type: patterns, output: ok.csv}\n"
            f"  - {task}\n",
            f"tasks[1]: unknown field {field!r}",
            capsys,
        )

    @pytest.mark.parametrize(
        "chain, detector, message",
        [
            ("{alpha: 1.0, lam: 0.05, n_stages: 1, idlr_dim: 6}", "{}",
             "chain: unknown field 'idlr_dim'"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}", "{dark: 0.1}",
             "detector: unknown field 'dark'"),
            ("{alpha: 1.0, stages: [{lam: 0.05, idler: 6}]}", "{}",
             "chain.stages[0]: unknown field 'idler'"),
            ("{alpha: 1.0, n_stages: 3, stages: [{lam: 0.05}]}", "{}", "chain.n_stages: "),
            ("{alpha: 1.0, lam: 0.05, stages: [{lam: 0.05}]}", "{}", "chain.lam: "),
            ("{alpha: 1.0, idler_dim: 6, stages: [{lam: 0.05}]}", "{}", "chain.idler_dim: "),
        ],
        ids=["chain", "detector", "stage", "stages-n_stages", "stages-lam", "stages-idler_dim"],
    )
    def test_unknown_chain_field_named(self, tmp_path, capsys, chain, detector, message):
        """chain, its stages and detector drop no field, and stages sets every stage."""
        self.run_expecting_error(
            tmp_path,
            f"version: 1\nchain: {chain}\ndetector: {detector}\ntasks:\n"
            "  - {type: patterns, output: p.csv}\n",
            message,
            capsys,
        )

    @pytest.mark.parametrize(
        "task, field",
        [
            ("{type: sweep, values: [true, 0.02, 0.04], pattern: '1', output: s.csv}",
             "values"),
            ("{type: sweep, values: [0.01, .nan], pattern: '1', output: s.csv}", "values"),
            ("{type: sweep, param: alpha, values: [1, 1.0e+200], pattern: '1', output: s.csv}",
             "values"),
            ("{type: wigner, state: 'fock:1', output: w.txt, extent: true}", "extent"),
            ("{type: wigner, state: 'fock:1', output: w.txt, step: .inf}", "step"),
            ("{type: wigner, state: 'fock:1', output: w.txt, extent: 0.01}", "extent"),
        ],
        ids=["sweep-bool", "sweep-nan", "sweep-alpha-square-overflows", "wigner-bool",
             "wigner-inf", "wigner-one-point"],
    )
    def test_task_number_rejected(self, tmp_path, capsys, task, field):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
            f"  - {task}\n",
            f"tasks[0].{field}: ",
            capsys,
        )

    @pytest.mark.parametrize(
        "chain, field",
        [
            ("{alpha: 1.0, lam: .nan, n_stages: 1}", "chain.lam: "),
            ("{alpha: 1.0, stages: [{lam: 0.05}, {lam: .inf}]}", "chain.stages[1].lam: "),
        ],
        ids=["nan", "inf"],
    )
    def test_non_finite_lam_rejected(self, tmp_path, capsys, chain, field):
        self.run_expecting_error(
            tmp_path,
            f"version: 1\nchain: {chain}\ntasks:\n  - {{type: project, output: p.json}}\n",
            field + "lam must be finite",
            capsys,
        )

    @pytest.mark.parametrize(
        "spec", ["fock:1000000000000", "coherent:1e6", "pacs:1,10000000"]
    )
    def test_oversized_wigner_state_refused(self, tmp_path, capsys, spec):
        """Refused by the amplitude budget (exit 2) before any amplitude is formed."""
        config = write_scenario(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
            "  - {type: patterns, output: p.csv}\n"
            f"  - {{type: wigner, state: '{spec}', output: w.txt}}\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: tasks[1].state: '{spec}' needs")

    def test_oversized_wigner_grid_refused(self, tmp_path, capsys, monkeypatch):
        """More grid points than DEFAULT_AMPLITUDE_BUDGET exit 2 naming the
        task's extent and step, before any grid is formed."""
        monkeypatch.setattr(cli, "wigner", _no_grid)
        config = write_scenario(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
            "  - {type: patterns, output: p.csv}\n"
            "  - {type: wigner, state: 'fock:1', extent: 100.0, step: 0.001, output: w.txt}\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: tasks[1].extent: 100.0 at tasks[1].step 0.001 gives ")
        assert "above the budget of 20000000" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.yaml")])
        assert code == 1
        assert "no such file" in capsys.readouterr().err


def test_ladder_max_zero_means_zero(tmp_path):
    """ladder_max: 0 identifies against the coherent seed alone."""
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 3}\ntasks:\n"
        "  - {type: project, output: p.json, ladder_max: 0}\n",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "p.json").read_text())
    cfg = ChainConfig.uniform(1.0, 0.05, 3)
    assert payload["probability"] == extract_w_state(cfg, ladder_max=0).probability
    assert payload["probability"] != extract_w_state(cfg).probability


def test_twelve_stage_table_and_sweep_exit_0(tmp_path, monkeypatch):
    """The walk needs no joint state, so a 12-stage table and sweep run."""
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 12}\ntasks:\n"
        "  - {type: patterns, output: patterns.csv}\n",
    )
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config), "--outdir", "out"]) == 0
    rows = read_csv(tmp_path / "out" / "patterns.csv")
    assert len(rows) == 4096
    assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert main(["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1" * 12,
                 "--values", "0.01,0.02,0.04", "--out", "s.csv"]) == 0
    assert len(read_csv(tmp_path / "s.csv")) == 3


GOLDEN_GRID = WignerGrid(
    x_axis=np.array([-1.0, 0.0, 1.0]),
    p_axis=np.array([-0.5, 0.0, 0.5]),
    values=np.array(
        [[1 / np.pi, -0.0, 2.5e-17], [0.1, -1 / 3, 1e16], [5e-324, -7.0, 0.2 + 0.1]]
    ),
)
GOLDEN_TEXT = (
    "# wigner grid\n"
    "# x: -1.0 0.0 1.0\n"
    "# p: -0.5 0.0 0.5\n"
    "0.3183098861837907 -0.0 2.5e-17\n"
    "0.1 -0.3333333333333333 1e+16\n"
    "5e-324 -7.0 0.30000000000000004\n"
)


class TestWignerFiles:
    def test_golden_grid_text(self, tmp_path):
        """The file format to the byte: headers, then every value's repr."""
        path = tmp_path / "golden.txt"
        emit_wigner(GOLDEN_GRID, path)
        assert path.read_bytes() == GOLDEN_TEXT.encode()
        assert "".join(wigner_grid_lines(GOLDEN_GRID)) == GOLDEN_TEXT

    def test_every_command_writes_the_same_bytes(self, tmp_path):
        """A scenario task, `pacsim wigner --out` into a new directory and
        emit_wigner write one spec's grid identically."""
        alpha, m = 1 + 0.5j, 2
        config = write_scenario(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
            "  - {type: wigner, state: 'pacs:1+0.5j,2', extent: 3.0, step: 0.25, output: w.txt}\n",
        )
        assert main(["run", str(config), "--outdir", str(tmp_path / "run")]) == 0
        quick = tmp_path / "new" / "w.txt"
        assert main(["wigner", "--state", "pacs:1+0.5j,2", "--range", "3", "--step", "0.25",
                     "--out", str(quick)]) == 0
        state = pacs_state(alpha, m, default_signal_dim(alpha, m))
        emit_wigner(wigner(density(state), 3.0, 0.25), tmp_path / "emit.txt")
        expected = (tmp_path / "emit.txt").read_bytes()
        assert (tmp_path / "run" / "w.txt").read_bytes() == expected
        assert quick.read_bytes() == expected

    def test_round_trip_identity(self, tmp_path):
        grid = wigner(density(fock_state(1, 12)), extent=3.0, step=0.5)
        path = tmp_path / "wig.txt"
        emit_wigner(grid, path)
        back = load_wigner(path)
        assert np.array_equal(back.x_axis, grid.x_axis)
        assert np.array_equal(back.p_axis, grid.p_axis)
        assert np.array_equal(back.values, grid.values)

        # random bit patterns: every exponent, subnormals and both zeros
        bits = np.random.default_rng(7).integers(0, 2**64, size=64 * 48, dtype=np.uint64)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = 1.5
        values[:6] = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
        odd = WignerGrid(x_axis=values[:64], p_axis=values[64:112],
                         values=values.reshape(64, 48))
        emit_wigner(odd, path)
        back = load_wigner(path)
        for got, want in zip((back.x_axis, back.p_axis, back.values),
                             (odd.x_axis, odd.p_axis, odd.values)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_header_fields(self, tmp_path):
        grid = wigner(density(fock_state(0, 8)), extent=2.0, step=1.0)
        text = "".join(wigner_grid_lines(grid))
        lines = text.splitlines()
        assert lines[0] == "# wigner grid"
        assert lines[1].startswith("# x: ")
        assert lines[2].startswith("# p: ")
        assert len(lines[1].split()) == 2 + grid.x_axis.size
        assert len(lines[2].split()) == 2 + grid.p_axis.size

    def test_grid_dimensions_match(self, tmp_path):
        grid = wigner(density(fock_state(0, 8)), extent=2.0, step=0.5)
        path = tmp_path / "wig.txt"
        emit_wigner(grid, path)
        back = load_wigner(path)
        assert back.values.shape == (grid.x_axis.size, grid.p_axis.size)

    def test_loadable_by_numpy(self, tmp_path):
        grid = wigner(density(fock_state(0, 8)), extent=2.0, step=0.5)
        path = tmp_path / "wig.txt"
        emit_wigner(grid, path)
        data = np.loadtxt(path)
        assert np.array_equal(data, grid.values)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# wigner grid\n# x: 0.0 1.0\n1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_wigner(path)


class TestQuickCommands:
    def test_pacs_command(self, capsys):
        assert main(["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1"]) == 0
        out = capsys.readouterr().out
        assert "probability" in out
        assert "fidelity" in out

    def test_wstate_command(self, capsys):
        assert main(["wstate", "--alpha", "1", "--lam", "0.05", "--n", "3"]) == 0
        out = capsys.readouterr().out
        fidelity = float(out.rsplit("=", 1)[1])
        assert fidelity >= 0.995

    def test_wigner_command(self, tmp_path, capsys):
        target = tmp_path / "w.txt"
        assert (
            main(
                ["wigner", "--state", "fock:1", "--range", "3", "--step", "0.5",
                 "--out", str(target)]
            )
            == 0
        )
        grid = load_wigner(target)
        assert grid.minimum() < 0.0

    def test_wigner_state_beyond_level_170(self, tmp_path, capsys):
        """No level limit: W_200(0, 0) = (-1)^200 / pi."""
        target = tmp_path / "w.txt"
        args = ["wigner", "--state", "fock:200", "--range", "1", "--step", "0.5"]
        assert main([*args, "--out", str(target)]) == 0
        grid = load_wigner(target)
        assert grid.values[2, 2] == pytest.approx(1.0 / np.pi, abs=1e-12)

    def test_wigner_report_of_a_60_photon_state(self, tmp_path, capsys):
        """|W| <= 1/pi and the grid integrates to 1 for |60>, whose ring reaches r ~ 11."""
        target = tmp_path / "w.txt"
        args = ["wigner", "--state", "fock:60", "--range", "16", "--step", "0.1"]
        assert main([*args, "--out", str(target)]) == 0
        report = capsys.readouterr().out
        minimum = float(report.split("min = ")[1].split(",")[0])
        integral = float(report.split("integral = ")[1].splitlines()[0])
        assert minimum >= -1.0 / np.pi - 1e-12
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_wigner_truncation_bound_covers_a_coherent_grid(self, tmp_path, capsys):
        """coherent:3 has W > 0 everywhere; its grid dips to -6.5e-8 at the
        default cutoff, inside the printed bound, as is every value's distance
        from the closed form exp(-(x - 3 sqrt2)^2 - p^2) / pi."""
        target = tmp_path / "w.txt"
        args = ["wigner", "--state", "coherent:3", "--range", "3", "--step", "0.5"]
        assert main([*args, "--out", str(target)]) == 0
        report = capsys.readouterr().out.splitlines()
        minimum = float(report[0].split("min = ")[1].split(",")[0])
        bound = float(report[1].split("<= ")[1].split()[0])
        assert minimum < 0.0
        assert abs(minimum) < bound < 6.4e-7
        grid = load_wigner(target)
        x, p = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
        exact = np.exp(-((x - 3 * np.sqrt(2)) ** 2) - p**2) / np.pi
        assert np.max(np.abs(grid.values - exact)) < bound

    @pytest.mark.parametrize("spec", ["coherent:3", "pacs:3,1", "coherent:11.9"])
    def test_wigner_bright_state_at_default_cutoff(self, tmp_path, spec):
        """The default cutoff holds every coherent and photon-added state."""
        assert main(["wigner", "--state", spec, "--range", "2", "--step", "1",
                     "--out", str(tmp_path / "w.txt")]) == 0

    @pytest.mark.parametrize(
        "spec", ["fock:1000000000000", "coherent:1e6", "pacs:1,10000000"]
    )
    def test_wigner_oversized_state_exits_2(self, tmp_path, capsys, spec):
        target = tmp_path / "w.txt"
        assert main(["wigner", "--state", spec, "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --state: '{spec}' needs")
        assert not target.exists()

    @pytest.mark.parametrize("extent, step", [(100.0, 0.001), (1e308, 1e-300)])
    def test_wigner_oversized_grid_exits_2(self, tmp_path, capsys, monkeypatch, extent, step):
        monkeypatch.setattr(cli, "wigner", _no_grid)
        target = tmp_path / "w.txt"
        args = ["--range", repr(extent), "--step", repr(step), "--out", str(target)]
        assert main(["wigner", "--state", "fock:1", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --range: {extent!r} at --step {step!r} gives ")
        assert "use a smaller --range or a larger --step" in err
        assert not target.exists()

    def test_wigner_grid_budget_edge(self):
        """4472 points a side fit the 20M-point budget and 4473 do not; both
        counts are analysis.wigner's axis length."""
        assert math.isqrt(DEFAULT_AMPLITUDE_BUDGET) == 4472
        for extent, points in ((2235.75, 4472), (2236.0, 4473)):
            assert np.arange(-extent, extent + 0.5, 1.0).size == points
        cli._check_grid(2235.75, 1.0, "--range", "--step")
        with pytest.raises(DimensionBudgetError, match="4473 x 4473 = 20007729 grid points"):
            cli._check_grid(2236.0, 1.0, "--range", "--step")

    def test_wigner_bad_state_spec(self, capsys):
        assert main(["wigner", "--state", "cat:1"]) == 1
        assert "state" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1",
             "--values", "0.01,0.02,0.04", "--out", "s.csv", "--fit-out", "f.json"]
        )
        assert code == 0
        fit = json.loads(Path("f.json").read_text())
        assert fit["exponent"] == pytest.approx(2.0, abs=0.05)

    def test_sweep_command_matches_scenario_task(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        flags = ["--alpha", "1", "--lam", "0.05", "--pattern", "11", "--eta", "0.6",
                 "--dark-prob", "1e-4", "--values", "0.01,0.02,0.04"]
        assert main(["sweep", *flags, "--out", "s.csv", "--fit-out", "f.json"]) == 0
        config = write_scenario(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 2}\n"
            "detector: {eta: 0.6, dark_prob: 1.0e-4}\ntasks:\n"
            "  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '11',"
            " output: s.csv, fit_output: f.json}\n",
        )
        assert main(["run", str(config), "--outdir", "out"]) == 0
        for name in ("s.csv", "f.json"):
            assert (tmp_path / "out" / name).read_bytes() == Path(name).read_bytes()

    def test_wstate_offers_no_detector_flags(self, capsys):
        """W heralding uses no idler detector, so wstate has no --eta/--dark-prob."""
        for command, listed in (("wstate", False), ("pacs", True), ("sweep", True)):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert ("--eta" in out, "--dark-prob" in out) == (listed, listed)
        with pytest.raises(SystemExit) as exc:
            main(["wstate", "--alpha", "1", "--lam", "0.05", "--n", "3", "--eta", "0.3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eta 0.3" in capsys.readouterr().err


def _no_stage(*args, **kwargs):
    raise AssertionError("a stage's Kraus stack was built")


def _forbid_stages(monkeypatch) -> None:
    """Make building a stage's Kraus stack raise.

    The memoized stacks are dropped first, so an empty cache afterwards also
    shows that no stack was built through another name.
    """
    stage_kraus.cache_clear()
    monkeypatch.setattr(dynamics, "stage_kraus", _no_stage)


@pytest.fixture
def no_stage(monkeypatch):
    _forbid_stages(monkeypatch)
    yield
    assert stage_kraus.cache_info().currsize == 0


@pytest.mark.usefixtures("no_stage")
class TestOversizedChain:
    """A chain whose (signal_dim idler_dim)^2 would exceed
    DEFAULT_AMPLITUDE_BUDGET exits 2 naming its field, before any stage is
    built and before anything is written."""

    @pytest.mark.parametrize(
        "args, field",
        [
            (["pacs", "--pattern", "1", "--signal-dim", "20000"], "--signal-dim"),
            (["pacs", "--pattern", "1", "--idler-dim", "5000"], "--idler-dim"),
            (["pacs", "--pattern", "1", "--alpha", "100"], "--alpha"),
            (["wstate", "--n", "3", "--alpha", "100"], "--alpha"),
            (["sweep", "--pattern", "1", "--param", "alpha", "--values", "1,100"], "--values"),
        ],
        ids=["signal-dim", "idler-dim", "pacs-alpha", "wstate-alpha", "sweep-values"],
    )
    def test_quick_look_flags(self, tmp_path, monkeypatch, capsys, args, field):
        monkeypatch.chdir(tmp_path)
        defaults = ["--alpha", "1"] if "--alpha" not in args else []
        assert main([*args, *defaults, "--lam", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: a signal cutoff of ")
        assert "above the budget of 20000000" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "chain, task, field",
        [
            ("{alpha: 1.0, lam: 0.05, n_stages: 1, signal_dim: 20000}", "", "chain.signal_dim"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1, idler_dim: 5000}", "", "chain.idler_dim"),
            ("{alpha: 1.0, stages: [{lam: 0.05}, {lam: 0.05, idler_dim: 5000}]}", "",
             "chain.stages[1].idler_dim"),
            ("{alpha: 100, lam: 0.05, n_stages: 1}", "", "chain.alpha"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}",
             "  - {type: sweep, param: alpha, values: [1, 100], pattern: '1', output: s.csv}\n",
             "tasks[1].values"),
        ],
        ids=["signal_dim", "idler_dim", "stages", "alpha", "values"],
    )
    def test_scenario_fields(self, tmp_path, capsys, chain, task, field):
        config = write_scenario(
            tmp_path,
            f"version: 1\nchain: {chain}\ntasks:\n  - {{type: patterns, output: p.csv}}\n{task}",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: a signal cutoff of ")
        assert not out.exists()

    def test_huge_alpha_refused_before_its_cutoff_is_searched(self, monkeypatch, capsys):
        """The floor |alpha|^2 + 6|alpha| + 10 + N alone rules alpha = 100 out."""
        monkeypatch.setattr(cli, "default_signal_dim", _no_stage)
        assert main(["pacs", "--alpha", "100", "--lam", "0.05", "--pattern", "1"]) == 2
        assert "a signal cutoff of 10611 " in capsys.readouterr().err

    def test_budget_edge(self):
        """signal_dim * idler_dim = 4472 fits the 20M-entry budget and 4473 does not;
        the larger cutoff names the field."""
        cli._check_chain_size(1.0, 1, 4, 1118, "signal", "idler")
        with pytest.raises(DimensionBudgetError, match="^signal: .* 20007729 entries"):
            cli._check_chain_size(1.0, 1, 3, 1491, "signal", "idler")
        with pytest.raises(DimensionBudgetError, match="^idler: "):
            cli._check_chain_size(1.0, 1, 1491, 3, "signal", "idler")


def test_oversized_wigner_grid_exits_2_without_traceback(run_python):
    result = run_python(
        "-m", "pacsim.cli", "wigner", "--state", "fock:1", "--range", "100", "--step", "0.001"
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: --range: 100.0 at --step 0.001 gives ")


@pytest.mark.parametrize(
    "args",
    [
        ["pacs", "--pattern", "111111", "--signal-dim", "23"],
        ["wstate", "--n", "7", "--signal-dim", "24"],
    ],
    ids=["pacs", "wstate"],
)
def test_truncation_exits_1_without_traceback(run_python, args):
    """A cutoff too small for the added photons is a named error, not a crash."""
    result = run_python("-m", "pacsim.cli", *args, "--alpha", "1", "--lam", "0.05")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: --signal-dim: ")
    assert "suggested dim" in result.stderr


@pytest.mark.parametrize(
    "args, flag",
    [
        (["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "012"], "--pattern"),
        (["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "11", "--eta", "2"], "--eta"),
        (["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "11", "--dark-prob", "1"],
         "--dark-prob"),
        (["pacs", "--alpha", "1", "--lam", "-0.1", "--pattern", "11"], "--lam"),
        (["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "11", "--idler-dim", "1"],
         "--idler-dim"),
        (["wstate", "--alpha", "1", "--lam", "0.05", "--n", "0"], "--n"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", "0.01,0.02",
          "--signal-dim", "1"], "--signal-dim"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", "a,b"],
         "--values"),
        (["wigner", "--state", "pacs:1,1", "--step", "0"], "--step"),
        (["wigner", "--state", "pacs:1,1", "--range", "-1"], "--range"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", ","],
         "--values"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values",
          "0.01,-0.02"], "--values"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values",
          "0.01,0.02", "--fit-out", "f.json"], "--values"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--param", "alpha",
          "--values", "0.5,1,2", "--fit-out", "f.json"], "--fit-out"),
        (["wigner", "--state", "pacs:1,1", "--range", "inf"], "--range"),
        (["pacs", "--alpha", "1", "--lam", "nan", "--pattern", "1"], "--lam"),
        (["pacs", "--alpha", "1", "--lam", "inf", "--pattern", "1"], "--lam"),
        (["wigner", "--state", "coherent:1e300"], "--state"),
        (["wigner", "--state", "fock:1", "--range", "0.01", "--step", "0.1"], "--range"),
        (["pacs", "--alpha", "nan", "--lam", "0.05", "--pattern", "1"], "--alpha"),
        (["pacs", "--alpha", "1e200", "--lam", "0.05", "--pattern", "1"], "--alpha"),
        (["pacs", "--alpha", "1e200", "--lam", "0.05", "--pattern", "1", "--signal-dim", "30"],
         "--alpha"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--param", "alpha",
          "--values", "1,1e200"], "--values"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_bad_flag_exits_1_naming_it(run_python, args, flag):
    """A flag value the library rejects is a named error, not a crash."""
    result = run_python("-m", "pacsim.cli", *args)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {flag}: ")


def _no_search(*args, **kwargs):
    raise AssertionError("the default signal cutoff was searched")


def test_chain_flags_set_the_cutoff_and_name_its_larger_part(tmp_path, monkeypatch, capsys):
    """--signal-dim is the cutoff, so none is searched; without it, a chain
    whose default cutoff's floor |alpha|^2 + 6|alpha| + 10 + N is too large
    names N when N is its larger part (and alpha otherwise, TestOversizedChain)."""
    monkeypatch.setattr(dynamics, "default_signal_dim", _no_search)
    monkeypatch.setattr(cli, "default_signal_dim", _no_search)
    chain = ["--alpha", "1", "--lam", "0.05"]
    for args in (["wstate", "--n", "3"], ["pacs", "--pattern", "101"]):
        assert main([*args, *chain, "--signal-dim", "30"]) == 0
    capsys.readouterr()
    _forbid_stages(monkeypatch)
    assert main(["wstate", "--n", "100000", *chain]) == 2
    assert capsys.readouterr().err.startswith("error: --n: a signal cutoff of 100017 ")
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 100000}\n"
        "tasks:\n  - {type: project, output: p.json}\n",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: chain.n_stages: a signal cutoff of ")
    assert stage_kraus.cache_info().currsize == 0


def test_alpha_sweep_keeps_a_given_cutoff(tmp_path, monkeypatch, capsys):
    """A given signal_dim is the cutoff of every chain of an alpha sweep:
    none is searched, and a value it cannot hold exits 1 naming it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dynamics, "default_signal_dim", _no_search)
    monkeypatch.setattr(cli, "default_signal_dim", _no_search)
    flags = ["--alpha", "1", "--lam", "0.05", "--pattern", "11", "--param", "alpha"]
    assert main(["sweep", *flags, "--signal-dim", "40", "--values", "0.5,2",
                 "--out", "s.csv"]) == 0
    for row in read_csv(Path("s.csv")):
        config = ChainConfig.uniform(float(row["alpha"]), 0.05, 2, signal_dim=40)
        pattern = ClickPattern.from_string("11")
        _, probability, _ = next(walk_patterns(config, DetectorModel.ideal(), pattern))
        assert row["probability"] == repr(probability)
    capsys.readouterr()
    assert main(["sweep", *flags, "--signal-dim", "20", "--values", "0.5,5",
                 "--out", "t.csv"]) == 1
    flag_err = capsys.readouterr().err
    assert flag_err.startswith("error: --signal-dim: coherent state with |alpha|=5 ")
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 2, signal_dim: 20}\ntasks:\n"
        "  - {type: sweep, param: alpha, values: [0.5, 5.0], pattern: '11', output: t.csv}\n",
    )
    assert main(["run", str(config), "--outdir", "out"]) == 1
    assert capsys.readouterr().err == flag_err.replace("--signal-dim", "chain.signal_dim")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "scenario.yaml"]


# (field, flag) -> a quick-look command with one bad value, and the chain,
# detector and task of the one-task scenario that gives that value
_BAD_FIELD_CASES = {
    ("chain.alpha", "--alpha"): (
        ["pacs", "--alpha", "1e200", "--lam", "0.05", "--pattern", "1"],
        "{alpha: '1e200', lam: 0.05, n_stages: 1}", None, "{type: patterns, pattern: '1'}"),
    ("chain.lam", "--lam"): (
        ["pacs", "--alpha", "1", "--lam", "nan", "--pattern", "1"],
        "{alpha: '1', lam: .nan, n_stages: 1}", None, "{type: patterns, pattern: '1'}"),
    ("chain.idler_dim", "--idler-dim"): (
        ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--idler-dim", "1"],
        "{alpha: '1', lam: 0.05, n_stages: 1, idler_dim: 1}", None,
        "{type: patterns, pattern: '1'}"),
    ("chain.signal_dim", "--signal-dim"): (
        ["wstate", "--alpha", "1", "--lam", "0.05", "--n", "7", "--signal-dim", "24"],
        "{alpha: '1', lam: 0.05, n_stages: 7, signal_dim: 24}", None,
        "{type: project, reference_m: 1}"),
    ("chain.n_stages", "--n"): (
        ["wstate", "--alpha", "1", "--lam", "0.05", "--n", "0"],
        "{alpha: '1', lam: 0.05, n_stages: 0}", None, "{type: project, reference_m: 1}"),
    ("chain.n_stages", "--pattern"): (
        ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1" * 5000],
        "{alpha: '1', lam: 0.05, n_stages: 5000}", None,
        "{type: patterns, pattern: '" + "1" * 5000 + "'}"),
    ("detector.eta", "--eta"): (
        ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--eta", "2"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", "{eta: 2.0}", "{type: patterns, pattern: '1'}"),
    ("detector.dark_prob", "--dark-prob"): (
        ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--dark-prob", "1"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", "{dark_prob: 1.0}",
        "{type: patterns, pattern: '1'}"),
    ("tasks[0].pattern", "--pattern"): (
        ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "012"],
        "{alpha: '1', lam: 0.05, n_stages: 3}", None, "{type: patterns, pattern: '012'}"),
    ("tasks[0].values", "--values"): (
        ["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", "0.01,a"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", None,
        "{type: sweep, values: [0.01, a], pattern: '1'}"),
    ("tasks[0].output", "--out"): (
        ["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", "0.01",
         "--out", ""],
        "{alpha: '1', lam: 0.05, n_stages: 1}", None,
        "{type: sweep, values: [0.01], pattern: '1', output: ''}"),
    ("tasks[0].fit_output", "--fit-out"): (
        ["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--param", "alpha",
         "--values", "0.5,1,2", "--fit-out", "f.json"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", None,
        "{type: sweep, param: alpha, values: [0.5, 1.0, 2.0], pattern: '1',"
        " fit_output: f.json}"),
    ("tasks[0].state", "--state"): (
        ["wigner", "--state", "coherent:1e6"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", None, "{type: wigner, state: 'coherent:1e6'}"),
    ("tasks[0].extent", "--range"): (
        ["wigner", "--state", "fock:1", "--range", "-1"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", None,
        "{type: wigner, state: 'fock:1', extent: -1.0}"),
    ("tasks[0].step", "--step"): (
        ["wigner", "--state", "fock:1", "--step", "0"],
        "{alpha: '1', lam: 0.05, n_stages: 1}", None,
        "{type: wigner, state: 'fock:1', step: 0.0}"),
}


def test_bad_field_cases_cover_the_flag_table():
    flag_table = set(cli._FIELD_FLAGS.items()) | {("chain.n_stages", "--pattern")}
    assert set(_BAD_FIELD_CASES) == flag_table


@pytest.mark.parametrize("field, flag", _BAD_FIELD_CASES, ids=lambda v: v)
def test_flag_and_scenario_give_the_same_error(tmp_path, monkeypatch, capsys, no_stage,
                                               field, flag):
    """A quick-look command is its one-task scenario: one bad value gives the
    same exit code and message either way, the field renamed to its flag."""
    args, chain, detector, task = _BAD_FIELD_CASES[field, flag]
    monkeypatch.chdir(tmp_path)
    code = main(args)
    flag_err = capsys.readouterr().err
    if not re.search(r"\boutput:", task):
        task = task[:-1] + ", output: task.out}"
    config = write_scenario(
        tmp_path,
        f"version: 1\nchain: {chain}\n"
        + (f"detector: {detector}\n" if detector else "")
        + f"tasks:\n  - {task}\n",
    )
    assert main(["run", str(config), "--outdir", "out"]) == code
    scenario_err = capsys.readouterr().err
    assert code in (1, 2)
    assert scenario_err.startswith(f"error: {field}: ")
    assert flag_err == scenario_err.replace(field, flag)
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


def test_fit_output_must_be_a_path(tmp_path, capsys):
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
        "  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '1', output: s.csv,"
        " fit_output: 3}\n",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: tasks[0].fit_output: expected a file path\n"
