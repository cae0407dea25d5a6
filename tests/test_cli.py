"""Scenario runner, file formats and quick-look subcommands."""

import csv
import errno
import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    StageParams,
    WignerGrid,
    default_signal_dim,
    extract_w_state,
    fock_state,
    outcome_probability,
    pacs_state,
    walk_patterns,
    wigner,
)
from pacsim import analysis, cli, dynamics, fock, quicklook
from pacsim.analysis import truncation_bound
from pacsim.cli import (
    DEFAULT_AMPLITUDE_BUDGET,
    main,
    run_scenario,
    wigner_grid_lines,
)
from pacsim.errors import (
    DimensionBudgetError,
    FieldError,
    ScenarioError,
    StrongCouplingWarning,
)
from pacsim.fock import tail_mass

from oracles import (conditional_density, density, emit_wigner, fidelity, joint_state,
                     load_wigner)

ROOT = Path(__file__).resolve().parents[1]

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
#: a quick-look lam sweep that a fit can take
SWEEP_FLAGS = ["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1",
               "--values", "0.01,0.02,0.04"]


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

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_lowest_failing_task_reported(self, tmp_path, monkeypatch, capsys, failing):
        """tasks[1] .. tasks[failing] would fail; tasks[1]'s error is printed,
        the tasks after it never run, and no task's file is written."""
        config = write_scenario(
            tmp_path,
            MINIMAL_SCENARIO + "".join(
                f"  - {{type: project, output: t{i}.json}}\n"
                for i in range(1, failing + 1)
            ),
        )
        ran = []

        def fail(task, scenario, where):
            ran.append(where)
            raise ScenarioError(f"{task['output']}: failed")

        monkeypatch.setitem(cli._TASK_RUNNERS, "project", fail)
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 1
        assert capsys.readouterr().err == "error: t1.json: failed\n"
        assert ran == ["tasks[1]"]
        assert not out.exists()


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
    """The benchmark's 401x401 pacs:2,1 grid is formatted a block of about
    cli._BLOCK_VALUES values at a time as it is written, so tracing
    run_scenario peaks below the file's size."""
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
            ("version: 1", "version: true", "version"),
            ("version: 1", "version: 1.0", "version"),
        ],
        ids=["n_stages", "signal_dim", "lam", "alpha", "alpha-inf", "alpha-square-overflows",
             "alpha-square-overflows-signal_dim", "idler_dim", "stages-lam",
             "stages-idler_dim", "eta", "dark_prob", "version-bool", "version-float"],
    )
    def test_boolean_chain_size_rejected(self, tmp_path, capsys, old, new, field):
        """Chain and detector numbers are type-checked, not coerced by float() or int()."""
        self.run_expecting_error(
            tmp_path, MINIMAL_SCENARIO.replace(old, new), f"{field}: expected", capsys
        )

    @pytest.mark.parametrize("value", ["[]", "0", "''", "false"])
    def test_falsy_detector_is_not_a_mapping(self, tmp_path, capsys, value):
        """A detector that is empty or false but not null is refused, not taken as ideal."""
        self.run_expecting_error(
            tmp_path,
            MINIMAL_SCENARIO.replace("detector:\n  eta: 1.0\n  dark_prob: 0.0",
                                     f"detector: {value}"),
            "error: detector: expected a mapping\n",
            capsys,
        )

    @pytest.mark.parametrize(
        "chain, task, field",
        [
            ("{alpha: 1.0, lam: 100.5, n_stages: 1}", "{type: patterns, output: p.csv}",
             "chain.lam"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}",
             "{type: sweep, values: [0.01, 100.5], pattern: '1', output: s.csv}",
             "tasks[0].values"),
        ],
        ids=["chain", "sweep"],
    )
    def test_lam_above_its_bound_rejected(self, tmp_path, capsys, chain, task, field):
        self.run_expecting_error(
            tmp_path,
            f"version: 1\nchain: {chain}\ntasks:\n  - {task}\n",
            f"error: {field}: lam must be at most 100.0, got 100.5\n",
            capsys,
        )

    @pytest.mark.parametrize(
        "chain, task, field",
        [
            ("{alpha: 1.0, lam: 101, n_stages: 1}", "{type: patterns, output: p.csv}",
             "chain.lam"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}",
             "{type: sweep, values: [0.01, 101], pattern: '1', output: s.csv}",
             "tasks[0].values"),
        ],
        ids=["chain", "sweep"],
    )
    def test_integer_lam_above_its_bound_rejected(self, tmp_path, capsys, chain, task, field):
        """StageParams alone refuses the value, as the float it holds."""
        self.run_expecting_error(
            tmp_path,
            f"version: 1\nchain: {chain}\ntasks:\n  - {task}\n",
            f"error: {field}: lam must be at most 100.0, got 101.0\n",
            capsys,
        )

    @pytest.mark.parametrize(
        "chain, task, message",
        [
            ("{alpha: 1.0, lam: %s, n_stages: 1}", "{type: patterns, output: p.csv}",
             "chain.lam: expected a number"),
            ("{alpha: %s, lam: 0.05, n_stages: 1}", "{type: patterns, output: p.csv}",
             "chain.alpha: expected a number or complex string"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}",
             "{type: sweep, values: [0.01, %s], pattern: '1', output: s.csv}",
             "tasks[0].values: expected positive numbers"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}",
             "{type: sweep, param: alpha, values: [%s], pattern: '1', output: s.csv}",
             "tasks[0].values: expected positive numbers"),
            ("{alpha: 1.0, lam: 0.05, n_stages: 1}",
             "{type: wigner, state: 'fock:1', extent: %s, output: w.txt}",
             "tasks[0].extent: expected a positive number"),
        ],
        ids=["chain-lam", "chain-alpha", "lam-sweep", "alpha-sweep", "wigner-extent"],
    )
    def test_integer_beyond_a_float_rejected(self, tmp_path, capsys, chain, task, message):
        """An integer no float holds is refused naming its field, not converted
        into an OverflowError."""
        big = "1" + "0" * 400
        self.run_expecting_error(
            tmp_path,
            f"version: 1\nchain: {chain}\ntasks:\n  - {task}\n".replace("%s", big),
            f"error: {message}, got {big}\n",
            capsys,
        )

    def test_ladder_truncation_suggests_a_cutoff_for_every_rung(self, tmp_path, capsys):
        """References up to m = 3 that leak at signal_dim 16 suggest m = 3's
        cutoff, 19, not that of m = 2, the first rung that leaks (18)."""
        text = ("version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 3, signal_dim: %d}\n"
                "tasks:\n  - {type: project, output: p.json, reference_m: 3, plain: true}\n")
        self.run_expecting_error(tmp_path, text % 16, "(suggested dim: 19)\n", capsys)
        config = write_scenario(tmp_path, text % 19)
        assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0

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
        monkeypatch.setattr(analysis, "wigner", _no_grid)
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
        assert capsys.readouterr().err == f"error: {tmp_path / 'nope.yaml'}: no such file\n"

    def test_directory_for_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(tmp_path), "--outdir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
        assert not out.exists()

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "scenario.yaml"
        config.write_bytes(b"\xff\xfe" + MINIMAL_SCENARIO.encode("utf-16-le"))
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )
        assert not out.exists()


class TestUnwritableOutputs:
    """A path that cannot be written exits 1 naming the field that set it and
    the system's reason, with the outputs before it written."""

    def test_outdir_names_a_file(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL_SCENARIO)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(config), "--outdir", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --outdir: {taken}: {os.strerror(errno.EEXIST)}\n"

    def test_task_output_names_a_directory(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL_SCENARIO + "  - {type: patterns, output: sub}\n")
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        assert main(["run", str(config), "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: tasks[1].output: {str(out / 'sub')!r}: {os.strerror(errno.EISDIR)}\n"
        assert read_csv(out / "patterns.csv")

    def test_wigner_out_names_a_directory(self, tmp_path, capsys):
        code = main(["wigner", "--state", "fock:1", "--range", "1", "--step", "0.5",
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --out: {str(tmp_path)!r}: {os.strerror(errno.EISDIR)}\n"
        assert captured.out == ""

    def test_out_path_keeps_the_field_names_it_holds(self, tmp_path, monkeypatch, capsys):
        """The path is quoted, so a field name inside it is not renamed to a flag."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").write_text("")
        code = main([*SWEEP_FLAGS, "--out", "f/a chain.lam b.csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --out: 'f/a chain.lam b.csv': {os.strerror(errno.EEXIST)}\n"
        )


def test_null_detector_is_ideal(tmp_path):
    out = tmp_path / "out"
    ideal = MINIMAL_SCENARIO.replace("patterns.csv", "ideal.csv")
    null = ideal.replace("detector:\n  eta: 1.0\n  dark_prob: 0.0", "detector: null")
    assert null != ideal
    for name, text in (("ideal", ideal), ("null", null)):
        config = tmp_path / f"{name}.yaml"
        config.write_text(text.replace("ideal.csv", f"{name}.csv"), encoding="utf-8")
        assert main(["run", str(config), "--outdir", str(out)]) == 0
    assert (out / "null.csv").read_bytes() == (out / "ideal.csv").read_bytes()


def test_lam_at_its_bound_runs(tmp_path, monkeypatch):
    """lam = MAX_LAM is accepted in a chain and in a lam sweep."""
    monkeypatch.chdir(tmp_path)
    with pytest.warns(StrongCouplingWarning):
        assert main(["pacs", "--alpha", "1", "--lam", "100", "--pattern", "1"]) == 0
        assert main(["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1",
                     "--values", "0.05,100", "--out", "s.csv"]) == 0
    assert [row["lam"] for row in read_csv(tmp_path / "s.csv")] == ["0.05", "100.0"]


@pytest.mark.parametrize("argv, chain", [
    (["pacs", "--alpha", "1", "--lam", "1", "--idler-dim", "8", "--pattern", "1"], None),
    (["run", "scenario.yaml"], "{alpha: 1.0, lam: 1.0, idler_dim: 8, n_stages: 1}"),
    (["run", "scenario.yaml"], "{alpha: 1.0, stages: [{lam: 1.0, idler_dim: 8}]}"),
], ids=["pacs", "chain", "stages"])
def test_strong_coupling_warns_once_for_the_idler_dim_given(tmp_path, monkeypatch, argv, chain):
    """A stage is built once, from every field given, so the one warning
    names idler_dim 8 and its bound, not the default idler_dim 4's 0.113."""
    monkeypatch.chdir(tmp_path)
    if chain:
        write_scenario(tmp_path, MINIMAL_SCENARIO.replace(
            "chain:\n  alpha: 1.0\n  lam: 0.05\n  n_stages: 1", f"chain: {chain}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    [warning] = [w for w in caught if w.category is StrongCouplingWarning]
    assert "idler_dim=8 does not hold" in str(warning.message)
    assert "= 0.0128 of the probability" in str(warning.message)


def test_a_rejected_stage_warns_nothing(capsys):
    """The fields of a stage that fails are rebuilt to name the field, with
    no warning about the lam-only prefix and the default idler_dim."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pacs", "--alpha", "1", "--lam", "1", "--idler-dim", "1", "--pattern", "1"]) == 1
    assert not caught
    assert capsys.readouterr().err == "error: --idler-dim: idler_dim must be >= 2, got 1\n"


@pytest.mark.parametrize("flag, text, build", [
    ("--lam", "nan", lambda v: StageParams(float(v))),
    ("--lam", "-1", lambda v: StageParams(float(v))),
    ("--lam", "101", lambda v: StageParams(float(v))),
    ("--idler-dim", "1", lambda v: StageParams(0.05, int(v))),
    ("--eta", "1.5", lambda v: DetectorModel(eta=float(v))),
    ("--dark-prob", "1", lambda v: DetectorModel(dark_prob=float(v))),
])
def test_each_refusal_carries_the_field_the_cli_names(capsys, flag, text, build):
    """Every refusal branch of StageParams and DetectorModel raises a
    FieldError whose field is the one the CLI's message names, with the
    refusal's own text after it."""
    with pytest.raises(FieldError) as err:
        build(text)
    assert quicklook._FLAGS[flag][0].endswith(f".{err.value.field}")
    args = ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1", flag, text]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {flag}: {err.value}\n"


def test_a_sweep_refused_whole_builds_no_strong_stage(tmp_path, monkeypatch, capsys):
    """A lam sweep's chains are built once the task has validated: a refused
    pattern leaves its strong values unbuilt and unwarned, and the same
    sweep with a valid pattern warns for each."""
    monkeypatch.chdir(tmp_path)
    sweep = ["sweep", "--alpha", "1", "--lam", "0.05", "--values", "0.5,1", "--out", "s.csv"]
    for pattern, code, warned in (("1x", 1, 0), ("1", 0, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*sweep, "--pattern", pattern]) == code
        assert sum(w.category is StrongCouplingWarning for w in caught) == warned
    assert capsys.readouterr().err.startswith("error: --pattern: ")


@pytest.mark.parametrize("args", [
    ["pacs", "--alpha", "1e-7", "--dark-prob", "0.1", "--pattern", "111"],
    ["pacs", "--alpha", "0", "--dark-prob", "0.1", "--pattern", "111"],
    ["wstate", "--alpha", "0", "--n", "3"],
], ids=["pacs-tiny-alpha", "pacs-alpha-0", "wstate-alpha-0"])
def test_three_added_photons_in_two_levels_name_the_cutoff(tmp_path, capsys, args):
    """Two levels cannot hold the three-photon-added reference of a tiny or
    zero alpha: exit 1 naming the cutoff, with one that holds it."""
    assert main([*args, "--lam", "0.05", "--signal-dim", "2"]) == 1
    flag_err = capsys.readouterr().err
    assert flag_err.startswith("error: --signal-dim: adding 3 photons to |alpha|=")
    assert flag_err.endswith(" past dim 2 (suggested dim: 4)\n")
    if args[0] == "wstate":
        detector, task = "", "{type: project, output: w.json}"
    else:
        detector = "detector: {dark_prob: 0.1}\n"
        task = "{type: patterns, pattern: '111', output: p.csv}"
    config = write_scenario(
        tmp_path,
        f"version: 1\nchain: {{alpha: {args[2]}, lam: 0.05, n_stages: 3, signal_dim: 2}}\n"
        f"{detector}tasks:\n  - {task}\n",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == flag_err.replace("--signal-dim", "chain.signal_dim")


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_wigner_task_builds_its_state_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, cli, "_parse_state_spec")
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
        "  - {type: wigner, state: 'pacs:1,1', extent: 1.0, step: 0.5, output: w.txt}\n",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
    assert calls == [("pacs:1,1", "tasks[0].state")]


def test_pacs_parses_its_pattern_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ClickPattern, "from_string")
    assert main(["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "10"]) == 0
    assert calls == [("10",)]
    assert capsys.readouterr().out.startswith("pattern 10: probability = ")


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

    @pytest.mark.parametrize("args, out", [
        (["pacs", "--alpha", "1", "--lam", "0", "--pattern", "1"],
         "pattern 1: probability = 0.0\nimpossible outcome\n"),
        (["wstate", "--alpha", "1", "--lam", "0", "--n", "3"],
         "heralding probability = 0.0\nimpossible outcome\n"),
    ], ids=["pacs", "wstate"])
    def test_impossible_outcome(self, capsys, args, out):
        """At lam = 0 no idler photon is made: the summary says so, with no fidelity."""
        assert main(args) == 0
        assert capsys.readouterr().out == out

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

    @pytest.mark.parametrize("spec", ["coherent:1e-200", "coherent:1e-300j", "pacs:1e-170,1"])
    def test_wigner_state_whose_alpha_squared_underflows(self, tmp_path, capsys, spec):
        """|alpha|^2 below the smallest float: the cutoff drops no mass."""
        assert main(["wigner", "--state", spec, "--out", str(tmp_path / "w.txt")]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "truncation bound: |W - W_exact| <= 0.0 (cutoff dropped mass 0.0)"
        )

    def test_wigner_truncation_bound_of_a_photon_added_state(self, tmp_path, capsys):
        """pacs:2,1 drops 1.3e-12 at its default cutoff (27), and the line
        prints analysis.truncation_bound of that mass."""
        args = ["wigner", "--state", "pacs:2,1", "--range", "2", "--step", "1"]
        assert main([*args, "--out", str(tmp_path / "w.txt")]) == 0
        dropped = tail_mass(2.0, 1, default_signal_dim(2.0, 1))
        assert dropped == pytest.approx(1.30e-12, rel=1e-2)
        # (2 / pi) sqrt(1.30e-12)
        assert truncation_bound(dropped) == pytest.approx(7.26e-7, rel=1e-2)
        assert capsys.readouterr().out.splitlines()[1] == (
            f"truncation bound: |W - W_exact| <= {truncation_bound(dropped)!r} "
            f"(cutoff dropped mass {dropped!r})"
        )

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
        monkeypatch.setattr(analysis, "wigner", _no_grid)
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
    raise AssertionError("a stage was built")


def _forbid_stages(monkeypatch) -> None:
    """Make building a stage raise: every runner gets its stages from
    dynamics.stage_subdiagonals alone."""
    monkeypatch.setattr(dynamics, "stage_subdiagonals", _no_stage)


@pytest.fixture
def no_stage(monkeypatch):
    _forbid_stages(monkeypatch)


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
        monkeypatch.setattr(dynamics, "default_signal_dim", _no_stage)
        assert main(["pacs", "--alpha", "100", "--lam", "0.05", "--pattern", "1"]) == 2
        assert "a signal cutoff of 10611 " in capsys.readouterr().err

    def test_budget_edge(self):
        """signal_dim * idler_dim = 4472 fits the 20M-entry budget and 4473 does not;
        the larger cutoff names the field."""
        def stage(idler_dim):
            return (StageParams(0.05, idler_dim),)

        assert cli._build_chain(1.0, stage(4), 1118, "signal", "idler").signal_dim == 1118
        with pytest.raises(DimensionBudgetError, match="^signal: .* 20007729 entries"):
            cli._build_chain(1.0, stage(3), 1491, "signal", "idler")
        with pytest.raises(DimensionBudgetError, match="^idler: "):
            cli._build_chain(1.0, stage(1491), 3, "signal", "idler")


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
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", "1e308"],
         "--values"),
        (["pacs", "--alpha", "1", "--lam", "1e300", "--pattern", "1"], "--lam"),
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
        [probability] = dynamics.pattern_probabilities([config], DetectorModel.ideal(), pattern)
        assert row["probability"] == repr(probability)
        _, walked, _ = next(walk_patterns(config, DetectorModel.ideal(), pattern))
        assert probability == pytest.approx(walked, rel=1e-13, abs=0.0)
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
    """Each flag whose value reaches a validator has a case: argparse itself
    refuses a --param outside its choices."""
    flag_table = {(field, flag) for flag, (field, options) in quicklook._FLAGS.items()
                  if "choices" not in options} | {("chain.n_stages", "--pattern")}
    assert set(_BAD_FIELD_CASES) == flag_table
    assert len(flag_table) == 15


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


@pytest.mark.parametrize(
    "args, err",
    [
        (["wigner", "--state", "chain.alpha"],
         "--state: unknown state kind 'chain.alpha' (use coherent:A, fock:N or pacs:A,M)"),
        (["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values",
          "0.01,0.02,0.04", "--out", "tasks[0].output.csv", "--fit-out", "tasks[0].output.csv"],
         "--fit-out: duplicate output path 'tasks[0].output.csv'"),
        (["pacs", "--alpha", "chain.alpha", "--lam", "0.05", "--pattern", "1"],
         "--alpha: cannot parse 'chain.alpha' as a complex number"),
        (["pacs", "--alpha", "it's chain.alpha", "--lam", "0.05", "--pattern", "1"],
         "--alpha: cannot parse \"it's chain.alpha\" as a complex number"),
    ],
    ids=["other-command-field", "own-field", "own-field-first", "double-quoted"],
)
def test_error_names_flags_but_keeps_the_users_values(tmp_path, monkeypatch, capsys, args, err):
    """Only the command's own fields are renamed, and never inside a quoted value."""
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not list(tmp_path.iterdir())


def _subparsers(command: str | None = None):
    """The subcommand action of ``quicklook.build_parser(command)``."""
    [subparsers] = quicklook.build_parser(command)._subparsers._group_actions
    return subparsers


def _subparser(command: str):
    return _subparsers().choices[command]


@pytest.mark.parametrize("command", quicklook._COMMANDS)
def test_quick_look_parser_is_the_flag_table(command):
    """Each option of a quick-look is its flag's row: spellings, required-ness
    and help; its dest is the name argparse derives from the flag."""
    flags = quicklook._COMMANDS[command][2]
    actions = [a for a in _subparser(command)._actions if "--help" not in a.option_strings]
    assert [action.option_strings[0] for action in actions] == list(flags)
    for flag, action in zip(flags, actions):
        options = quicklook._FLAGS[flag][1]
        assert action.option_strings == [flag, *options.get("aliases", ())]
        assert action.required == options.get("required", False)
        assert action.help == options.get("help")
        assert action.dest == flag[2:].replace("-", "_")


COMMANDS = ["run", *quicklook._COMMANDS]


def _action_fields(parser) -> list[dict]:
    """Each action's settings, without the parser that holds it."""
    return [{k: v for k, v in vars(a).items() if k != "container"} for a in parser._actions]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_alone_gets_the_full_parsers_subparser(command):
    """The subparser built alone is the one the full parser holds, and the
    top-level usage, which an unrecognized argument prints, is the same."""
    full, alone = _subparsers(), _subparsers(command)
    assert list(full.choices) == COMMANDS
    assert list(alone.choices) == [command]
    ours, theirs = alone.choices[command], full.choices[command]
    assert _action_fields(ours) == _action_fields(theirs)
    assert ours.format_usage() == theirs.format_usage()
    assert ours.format_help() == theirs.format_help()
    usage = quicklook.build_parser().format_usage()
    assert quicklook.build_parser(command).format_usage() == usage


@pytest.mark.parametrize("word", [None, "-h", "--help", "bogus", "ru", "--outdir"])
def test_other_first_words_get_every_command(word):
    """No metavar: "required: command" and "invalid choice" keep their words."""
    subparsers = _subparsers(word)
    assert list(subparsers.choices) == COMMANDS
    assert subparsers.metavar is None


#: argv whose help, usage or argparse error is printed before any task runs
PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["ru"], ["--bogus", "run", "x.yaml"],
    ["run", "-h"], ["pacs", "-h"], ["wstate", "--help"], ["wigner", "-h"], ["sweep", "-h"],
    ["run"], ["run", "--outdir"], ["run", "x.yaml", "--bogus"], ["run", "x.yaml", "y.yaml"],
    ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "extra"],
    ["pacs", "--alpha", "1"], ["pacs", "--alpha", "1", "--lam", "x", "--pattern", "1"],
    ["wstate", "--eta", "0.5"], ["wigner", "--state"],
    [*SWEEP_FLAGS, "--param", "beta"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_parser_prints_what_the_full_parser_prints(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)

    def outcome() -> tuple:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    built = outcome()
    full = quicklook.build_parser
    monkeypatch.setattr(quicklook, "build_parser", lambda command=None: full())
    assert outcome() == built
    assert list(tmp_path.iterdir()) == []


#: ``run FILE [--outdir DIR]``, which main runs without building a parser
PLAIN_RUNS = [
    ["run", "s.yaml"], ["run", "s.yaml", "--outdir", "out"], ["run", "s.yaml", "--outdir", ""],
    ["run", "", "--outdir", "out"], ["run", "missing.yaml"], ["run", "missing.yaml", "--outdir", "out"],
]
#: spellings near the plain form that argparse alone parses
NEAR_PLAIN_RUNS = [
    ["run", "s.yaml", "--outdir=out"], ["run", "s.yaml", "--out", "out"],
    ["run", "--outdir", "out", "s.yaml"], ["run", "--", "s.yaml"], ["run", "s.yaml", "-x"],
    ["run", "s.yaml", "--outdir", "-1"], ["run", "s.yaml", "--outdir", "out", "--outdir", "o2"],
    ["run", "s.yaml", "s.yaml"], ["run", "-s.yaml"], ["run", "s.yaml", "--outdir"],
    ["run", "s.yaml", "--outdir", "out", "extra"], ["pacs", "s.yaml"],
]


@pytest.mark.parametrize("argv", PLAIN_RUNS + NEAR_PLAIN_RUNS, ids=" ".join)
def test_run_gives_what_argparse_gives(tmp_path, monkeypatch, capsys, argv):
    """main's outcome (exit code, stdout, stderr and files) is the one it has
    when argparse parses every argv; a plain run is parsed to argparse's
    namespace, and every other argv is left to argparse."""

    def outcome(side: str) -> tuple:
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        Path("s.yaml").write_text(MINIMAL_SCENARIO, encoding="utf-8")
        Path("-s.yaml").write_text(MINIMAL_SCENARIO, encoding="utf-8")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()}
        return code, *capsys.readouterr(), files

    plain = cli._plain_run(argv)
    assert (plain is not None) == (argv in PLAIN_RUNS)
    if plain is not None:
        assert vars(plain) == vars(quicklook.build_parser().parse_args(argv))
    built = outcome("plain")
    monkeypatch.setattr(cli, "_plain_run", lambda argv: None)
    assert outcome("argparse") == built
    if argv[1] == "missing.yaml":
        assert built[:3] == (1, "", "error: missing.yaml: no such file\n")
    elif argv in PLAIN_RUNS[:3]:
        assert built[0] == 0 and len(built[3]) == 3


def test_module_run_reads_its_arguments(run_python, tmp_path):
    """``python -m pacsim.cli run``, whose main reads sys.argv, writes what
    main(argv) writes."""
    scenario = str(ROOT / "bench" / "scenarios" / "patterns_seq.yaml")
    result = run_python("-m", "pacsim.cli", "run", scenario, "--outdir", str(tmp_path / "a"))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert main(["run", scenario, "--outdir", str(tmp_path / "b")]) == 0
    written = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    assert written and written == {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}


def test_default_cutoff_is_searched_once_per_chain(monkeypatch):
    """The cutoff the size check searched is the chain's."""
    calls = []
    search = fock._smallest_window
    monkeypatch.setattr(fock, "_smallest_window", lambda *a: calls.append(a) or search(*a))
    path = ROOT / "bench" / "scenarios" / "patterns_full.yaml"
    scenario = cli.parse_scenario(cli._load_yaml(path.read_text(encoding="utf-8"), path))
    assert calls == [(1 + 0j, 5, 22)]
    assert scenario.chain.signal_dim == default_signal_dim(1.0, 5)


def test_fit_output_must_be_a_path(tmp_path, capsys):
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
        "  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '1', output: s.csv,"
        " fit_output: 3}\n",
    )
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: tasks[0].fit_output: expected a file path\n"


def test_alpha_sweep_runs_at_the_cutoffs_its_parse_searched(tmp_path, monkeypatch):
    """One search for the chain's cutoff and one per alpha value, all at
    parse; the sweep's chains run at the cutoffs found."""
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 2}\ntasks:\n"
        "  - {type: sweep, param: alpha, values: [0.5, 2.0], pattern: '11', output: s.csv}\n",
    )
    calls = []
    search = fock._smallest_window
    monkeypatch.setattr(fock, "_smallest_window", lambda *a: calls.append(a) or search(*a))
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0
    assert len(calls) == 3


def test_fit_over_a_zero_probability_is_refused(tmp_path, capsys):
    config = write_scenario(
        tmp_path,
        "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ndetector: {eta: 0.0}\n"
        "tasks:\n  - {type: patterns, output: p.csv}\n"
        "  - {type: sweep, values: [0.01, 0.02, 0.04], pattern: '1', output: s.csv,"
        " fit_output: f.json}\n",
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: tasks[1].fit_output: a power-law fit needs every probability > 0, "
        "got 0.0 at lam 0.01\n"
    )
    assert not out.exists()


def test_fit_out_over_a_zero_probability_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*SWEEP_FLAGS, "--fit-out", "f.json", "--eta", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: --fit-out: a power-law fit needs every probability > 0, got 0.0 at lam 0.01\n"
    )
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
