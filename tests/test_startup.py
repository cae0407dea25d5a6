"""What starting the CLI costs: the modules it loads, its records and its YAML parser."""

import copy
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import pacsim
from pacsim import cli
from pacsim.cli import Scenario, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SCENARIOS = {
    **{f"bench/{p.name}": p.read_text(encoding="utf-8")
       for p in sorted((ROOT / "bench" / "scenarios").glob("*.yaml"))},
    **{f"README[{i}]": block
       for i, block in enumerate(re.findall(r"```yaml\n(.*?)```", README, re.DOTALL))},
}


def test_import_loads_no_pool_or_dataclass_machinery(run_python):
    """concurrent.futures (with the logging and queue it pulls in),
    dataclasses and csv cost milliseconds on every start; the CLI needs none."""
    code = (
        "import sys, pacsim.cli; print(sorted(m for m in sys.modules if m in "
        "('concurrent.futures', 'dataclasses', 'logging', 'queue', 'csv')))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_commands_that_write_no_grid_do_not_load_floattext(run_python, tmp_path):
    """A table, a W-state summary and a sweep are written by repr: the grid
    formatter, which costs milliseconds to load, stays out of their start."""
    scenario = ROOT / "bench" / "scenarios" / "patterns_full.yaml"
    flags = ["--alpha", "1", "--lam", "0.05"]
    commands = [
        ["run", str(scenario), "--outdir", str(tmp_path)],
        ["pacs", *flags, "--pattern", "10"],
        ["wstate", *flags, "--n", "3"],
        ["sweep", *flags, "--pattern", "1", "--values", "0.01,0.02,0.04",
         "--out", str(tmp_path / "s.csv"), "--fit-out", str(tmp_path / "f.json")],
    ]
    code = (
        "import sys; from pacsim import cli\n"
        f"for argv in {commands!r}:\n    assert cli.main(argv) == 0\n"
        "print('pacsim.floattext' in sys.modules)"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "patterns.csv").is_file() and (tmp_path / "f.json").is_file()


CHAIN = pacsim.ChainConfig.uniform(1.0, 0.05, 2)
STAGE_REPR = "StageParams(lam=0.05, idler_dim=4)"
CHAIN_REPR = f"ChainConfig(alpha=1.0, stages=({STAGE_REPR}, {STAGE_REPR}), signal_dim=19)"
#: one record of each type and its repr, the one a frozen dataclass showed;
#: the first six hold hashable fields only, so they are values
RECORDS = [
    (pacsim.StageParams(0.05), STAGE_REPR),
    (CHAIN, CHAIN_REPR),
    (pacsim.DetectorModel(0.5), "DetectorModel(eta=0.5, dark_prob=0.0)"),
    (pacsim.ClickPattern.from_string("10"), "ClickPattern(clicks=(True, False))"),
    (pacsim.WStateResult(0.1, None), "WStateResult(probability=0.1, w_fidelity=None)"),
    (pacsim.ScalingFit(2.0, 1.0, 1.0, ((0.1, 0.2),)),
     "ScalingFit(exponent=2.0, prefactor=1.0, r_squared=1.0, samples=((0.1, 0.2),))"),
    (Scenario(CHAIN, pacsim.DetectorModel(), ({"type": "project"},)),
     f"Scenario(chain={CHAIN_REPR}, detector=DetectorModel(eta=1.0, dark_prob=0.0), "
     "tasks=({'type': 'project'},))"),
    (pacsim.PureState(np.array([1.0, 0.0])), "PureState(amplitudes=array([1.+0.j, 0.+0.j]))"),
    (cli.Table(("n", "p"), [[0, 1.0], [1, None]]),
     "Table(header=('n', 'p'), rows=[[0, 1.0], [1, None]])"),
    (pacsim.WignerGrid(np.zeros(1), np.zeros(1), np.zeros((1, 1))),
     "WignerGrid(x_axis=array([0.]), p_axis=array([0.]), values=array([[0.]]))"),
]


RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, shown", RECORDS, ids=RECORD_IDS)
def test_record_is_frozen_and_shows_its_fields(record, shown):
    assert repr(record) == shown
    name = shown[shown.index("(") + 1:shown.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = None


@pytest.mark.parametrize("record, _", RECORDS[:6], ids=RECORD_IDS[:6])
def test_value_record_compares_and_hashes_by_fields(record, _):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)


def test_records_differ_by_field_and_class():
    assert pacsim.StageParams(0.05) != pacsim.StageParams(0.05, 5)
    assert CHAIN != pacsim.ChainConfig.uniform(1.0, 0.05, 2, signal_dim=20)
    assert pacsim.DetectorModel(0.25) != pacsim.StageParams(0.25)


def _parse_both_ways(monkeypatch, parse):
    """``parse()`` with PyYAML's libyaml loader, then with it absent."""
    fast = parse()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return fast, parse()


@pytest.mark.parametrize("text", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_yaml_parsers_give_the_same_mapping(monkeypatch, text):
    fast, pure = _parse_both_ways(monkeypatch, lambda: cli._load_yaml(text))
    assert fast == pure == yaml.safe_load(text)
    assert isinstance(fast, dict)


@pytest.mark.parametrize("text", [
    "version: 1\nchain: [unclosed\n",
    "version: 1\nchain:\n\talpha: 1.0\n",
    "version: 1\n  chain: {alpha: 1}\n",
    "version: 1\nchain: {alpha: 1, alpha: *missing}\n",
    "version: 1\nchain: !!python/object:os.system {}\n",
    "version: 1\ntasks: [{a: 1}, {b: 2}\n",
])
def test_malformed_yaml_gives_the_same_error(tmp_path, monkeypatch, capsys, text):
    config = tmp_path / "scenario.yaml"
    config.write_text(text, encoding="utf-8")

    def stderr_of_run() -> str:
        assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
        return capsys.readouterr().err

    fast, pure = _parse_both_ways(monkeypatch, stderr_of_run)
    assert fast == pure
    assert fast.startswith(f"error: {config}: YAML parse error")
    assert not (tmp_path / "out").exists()


def test_plain_run_loads_no_argparse_or_locale(run_python, tmp_path):
    """``run FILE --outdir DIR`` builds no parser, so neither argparse nor the
    gettext and locale its first message loads are imported; any other argv
    still goes to argparse, whose usage line lists every command."""
    scenario = str(ROOT / "bench" / "scenarios" / "patterns_full.yaml")
    code = (
        "import sys; from pacsim import cli\n"
        f"assert cli.main(['run', {scenario!r}, '--outdir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        "try:\n    cli.main(['run', 'x.yaml', '--bogus'])\n"
        "except SystemExit as exc:\n    print(exc.code)\n"
    )
    out = run_python("-c", code)
    assert out.stdout.splitlines() == ["[]", "2"], out.stderr
    assert out.stderr.startswith("usage: pacsim [-h] {run,pacs,wstate,wigner,sweep} ...\n")
    assert out.stderr.endswith("error: unrecognized arguments: --bogus\n")
    assert (tmp_path / "patterns.csv").is_file()
