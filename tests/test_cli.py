"""Scenario runner, file formats and quick-look subcommands."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from pacsim import (
    ChainConfig,
    ClickPattern,
    DetectorModel,
    condition_on_pattern,
    extract_w_state,
    fidelity_ensemble,
    fock_state,
    pacs_state,
    run_chain_full,
    wigner,
)
from pacsim.cli import emit_wigner, load_wigner, main, wigner_grid_text

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


class TestRunScenario:
    def test_minimal_pattern_task(self, tmp_path):
        """The emitted CSV reproduces the exact simulation values."""
        config = write_scenario(tmp_path, MINIMAL_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 0
        rows = read_csv(out / "patterns.csv")
        assert [r["pattern"] for r in rows] == ["0", "1"]
        cfg = ChainConfig.uniform(1.0, 0.05, 1)
        joint = run_chain_full(cfg)
        det = DetectorModel.ideal()
        total = 0.0
        for row in rows:
            cond = condition_on_pattern(
                joint, ClickPattern.from_string(row["pattern"]), det
            )
            assert float(row["probability"]) == cond.probability
            ref = pacs_state(1.0, int(row["n_clicks"]), cfg.signal_dim)
            assert float(row["fidelity_vs_pacs_m"]) == pytest.approx(
                fidelity_ensemble(cond.ensemble, ref), abs=1e-15
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

    def test_unknown_task_type(self, tmp_path, capsys):
        self.run_expecting_error(
            tmp_path,
            MINIMAL_SCENARIO.replace("type: patterns", "type: telepathy"),
            "type",
            capsys,
        )

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        config = write_scenario(
            tmp_path,
            """\
version: 1
chain: {alpha: 1.0, lam: 0.05, n_stages: 12}
tasks:
  - type: patterns
    output: patterns.csv
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--outdir", str(out)]) == 2
        assert not out.exists()
        assert "sequential" in capsys.readouterr().err

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

    @pytest.mark.parametrize("field", ["n_stages", "signal_dim"])
    def test_boolean_chain_size_rejected(self, tmp_path, capsys, field):
        text = MINIMAL_SCENARIO.replace("n_stages: 1", "n_stages: 1\n  signal_dim: 24")
        self.run_expecting_error(
            tmp_path, text.replace(f"{field}: ", f"{field}: true #"), f"chain.{field}", capsys
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
        "task, field",
        [
            ("{type: sweep, values: [true, 0.02, 0.04], pattern: '1', output: s.csv}",
             "values"),
            ("{type: sweep, values: [0.01, .nan], pattern: '1', output: s.csv}", "values"),
            ("{type: wigner, state: 'fock:1', output: w.txt, extent: true}", "extent"),
            ("{type: wigner, state: 'fock:1', output: w.txt, step: .inf}", "step"),
        ],
        ids=["sweep-bool", "sweep-nan", "wigner-bool", "wigner-inf"],
    )
    def test_task_number_rejected(self, tmp_path, capsys, task, field):
        self.run_expecting_error(
            tmp_path,
            "version: 1\nchain: {alpha: 1.0, lam: 0.05, n_stages: 1}\ntasks:\n"
            f"  - {task}\n",
            f"tasks[0].{field}: ",
            capsys,
        )

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


class TestWignerFiles:
    def test_round_trip_identity(self, tmp_path):
        grid = wigner(fock_state(1, 12), extent=3.0, step=0.5)
        path = tmp_path / "wig.txt"
        emit_wigner(grid, path)
        back = load_wigner(path)
        assert np.array_equal(back.x_axis, grid.x_axis)
        assert np.array_equal(back.p_axis, grid.p_axis)
        assert np.array_equal(back.values, grid.values)

    def test_header_fields(self, tmp_path):
        grid = wigner(fock_state(0, 8), extent=2.0, step=1.0)
        text = wigner_grid_text(grid)
        lines = text.splitlines()
        assert lines[0] == "# wigner grid"
        assert lines[1].startswith("# x: ")
        assert lines[2].startswith("# p: ")
        assert len(lines[1].split()) == 2 + grid.x_axis.size
        assert len(lines[2].split()) == 2 + grid.p_axis.size

    def test_grid_dimensions_match(self, tmp_path):
        grid = wigner(fock_state(0, 8), extent=2.0, step=0.5)
        path = tmp_path / "wig.txt"
        emit_wigner(grid, path)
        back = load_wigner(path)
        assert back.values.shape == (grid.x_axis.size, grid.p_axis.size)

    def test_loadable_by_numpy(self, tmp_path):
        grid = wigner(fock_state(0, 8), extent=2.0, step=0.5)
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
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_bad_flag_exits_1_naming_it(run_python, args, flag):
    """A flag value the library rejects is a named error, not a crash."""
    result = run_python("-m", "pacsim.cli", *args)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {flag}: ")
