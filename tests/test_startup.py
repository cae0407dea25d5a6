"""What starting the CLI costs: the modules it loads, its records and its YAML reader."""

import copy
import datetime
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dataclasses, csv and PyYAML cost milliseconds on every start; the CLI
    needs none of them to start."""
    code = (
        "import sys, pacsim.cli; print(sorted(m for m in sys.modules if m in "
        "('concurrent.futures', 'dataclasses', 'logging', 'queue', 'csv', 'yaml')))"
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


#: the modules ``import pacsim.cli`` loads: the engine every run uses, and
#: no more (each one is compiled on every start where no .pyc is kept)
ENGINE = ["pacsim", "pacsim.cli", "pacsim.detection", "pacsim.dynamics", "pacsim.errors",
          "pacsim.fock", "pacsim.records"]
#: print the pacsim modules that importing pacsim.cli loads, then those that
#: main(argv) adds, argv being the JSON of the first argument
_LOADED = (
    "import json, sys, pacsim.cli\n"
    "def loaded():\n    return {m for m in sys.modules if m.split('.')[0] == 'pacsim'}\n"
    "before = loaded()\n"
    "code = pacsim.cli.main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, sorted(before), sorted(loaded() - before)]))"
)
_SWEEP = ("version: 1\nchain:\n  alpha: 1.0\n  lam: 0.05\n  n_stages: 2\ntasks:\n"
          "  - type: sweep\n    values: [0.01, 0.02, 0.04]\n    pattern: '11'\n"
          "    output: sweep.csv\n")
_WIGNER = ("version: 1\nchain:\n  alpha: 1.0\n  lam: 0.05\n  n_stages: 1\ntasks:\n"
           "  - type: wigner\n    state: pacs:1,1\n    extent: 2.0\n    step: 0.5\n"
           "    output: w.txt\n")
_FLAGS = ["--alpha", "1", "--lam", "0.05"]
_SWEEP_FLAGS = ["sweep", *_FLAGS, "--pattern", "1", "--values", "0.01,0.02,0.04", "--out", "s.csv"]
#: a bench scenario's name, a scenario's text or a quick-look's argv; main's
#: exit code; the pacsim modules main adds to ENGINE
ENTRY_MODULES = [
    pytest.param("patterns_full.yaml", 0, [], id="run patterns_full"),
    pytest.param("patterns_seq.yaml", 0, [], id="run patterns_seq"),
    pytest.param("wstate_n9.yaml", 0, [], id="run wstate_n9"),
    pytest.param(_SWEEP, 0, [], id="run sweep"),
    pytest.param(_SWEEP + "    fit_output: fit.json\n", 0, ["pacsim.analysis"], id="run sweep fit"),
    pytest.param(_WIGNER, 0, ["pacsim.analysis", "pacsim.floattext"], id="run wigner"),
    pytest.param("phase_space.yaml", 0, ["pacsim.analysis", "pacsim.floattext"],
                 id="run phase_space"),
    pytest.param(["pacs", *_FLAGS, "--pattern", "10"], 0, ["pacsim.quicklook"], id="pacs"),
    pytest.param(["pacs", *_FLAGS, "--pattern", "1", "--eta", "2"], 1, ["pacsim.quicklook"],
                 id="pacs refused"),
    pytest.param(["wstate", *_FLAGS, "--n", "3"], 0, ["pacsim.quicklook"], id="wstate"),
    pytest.param(_SWEEP_FLAGS, 0, ["pacsim.quicklook"], id="sweep"),
    pytest.param([*_SWEEP_FLAGS, "--fit-out", "f.json"], 0,
                 ["pacsim.analysis", "pacsim.quicklook"], id="sweep fit"),
    pytest.param(["wigner", "--state", "pacs:1,1", "--range", "2", "--step", "0.5", "--out",
                  "w.txt"], 0, ["pacsim.analysis", "pacsim.floattext", "pacsim.quicklook"],
                 id="wigner"),
]


@pytest.mark.parametrize("entry, code, added", ENTRY_MODULES)
def test_each_entry_loads_exactly_its_modules(run_python, tmp_path, entry, code, added):
    """``import pacsim.cli`` compiles the engine alone; a table or a W state
    adds no module, a Wigner grid or a fit adds analysis (a grid floattext
    too), and a quick-look its front end, quicklook."""
    if isinstance(entry, list):  # its files go to tmp_path
        argv = [str(tmp_path / arg) if flag in ("--out", "--fit-out") else arg
                for flag, arg in zip(["", *entry], entry)]
    else:
        config = ROOT / "bench" / "scenarios" / entry
        if "\n" in entry:
            config = tmp_path / "scenario.yaml"
            config.write_text(entry, encoding="utf-8")
        argv = ["run", str(config), "--outdir", str(tmp_path / "out")]
    out = run_python("-c", _LOADED, json.dumps(argv))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [code, ENGINE, added], out.stderr


def test_module_run_compiles_the_cli_once(run_python):
    """Under ``python -m pacsim.cli`` a quick-look's front end imports the
    running module itself, not a second pacsim.cli."""
    out = run_python("-X", "importtime", "-m", "pacsim.cli", "wstate", *_FLAGS, "--n", "3")
    assert out.returncode == 0, out.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "pacsim.quicklook" in imported and "pacsim.cli" not in imported


def test_package_exports_the_analysis_names_on_first_use(run_python):
    """``from pacsim import wigner`` (and WignerGrid, fit_power_law,
    ScalingFit) imports pacsim.analysis then, and gives its own objects."""
    code = (
        "import sys, pacsim\n"
        "print('pacsim.analysis' in sys.modules)\n"
        "from pacsim import ScalingFit, WignerGrid, fit_power_law, wigner\n"
        "from pacsim import analysis\n"
        "print([x is getattr(analysis, x.__name__) for x in "
        "(ScalingFit, WignerGrid, fit_power_law, wigner)])\n"
        "print(pacsim.wigner is analysis.wigner, hasattr(pacsim, 'no_such_name'))"
    )
    out = run_python("-c", code)
    shown = ["False", "[True, True, True, True]", "True False"]
    assert out.stdout.splitlines() == shown, out.stderr


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


def _read_or_none(text: str):
    """What the strict reader reads from ``text``, or None where it leaves
    ``text`` to PyYAML (it reads no text whose value is None)."""
    try:
        return cli._read_yaml_subset(text)
    except ValueError:
        return None


@pytest.mark.parametrize("text", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_yaml_parsers_give_the_same_mapping(text):
    read = cli._read_yaml_subset(text)
    pure = yaml.load(text, Loader=yaml.SafeLoader)
    assert read == pure == cli._load_yaml(text, "s.yaml")
    assert repr(read) == repr(pure)
    assert isinstance(pure, dict)


#: what the random edits put in: YAML's indicators, quotes, digits, the
#: letters of its bool and null words, a tab, and the line breaks, indents
#: and dashes of block structure; "" deletes
EDITS = [*" :-#[]{},'\".0123456789eE+_~!&*|>?%@yYnNoOtTxab\t/", "", "  ", "- ", ": ",
         "\n", "\n  ", "\n- "]


@st.composite
def edited(draw, text: str) -> str:
    """``text`` after one to four random insertions, replacements or deletions."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(EDITS)) + text[at + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", SCENARIOS)
def test_reader_reads_edited_scenarios_as_pyyaml_does(name, data):
    """Every edit of a scenario either goes to PyYAML or is read exactly as
    SafeLoader reads it, so True, 1 and 1.0 cannot stand in for one another."""
    text = data.draw(edited(SCENARIOS[name]))
    read = _read_or_none(text)
    if read is not None:
        pure = yaml.load(text, Loader=yaml.SafeLoader)
        assert read == pure
        assert repr(read) == repr(pure)


@pytest.mark.parametrize("text, value, read", [
    ("a: 1.\n", {"a": 1.0}, True),
    ("a: 1.0e-4\n", {"a": 1.0e-4}, True),
    ("a: -0.0\n", {"a": -0.0}, True),
    ("a: 1.0e4\n", {"a": "1.0e4"}, False),
    ("a: 1e-4\n", {"a": "1e-4"}, False),
    ("a: -.5\n", {"a": "-.5"}, False),
    ("a: 0o7\n", {"a": "0o7"}, False),
    ("a: 010\n", {"a": 8}, False),
    ("a: 1_000\n", {"a": 1000}, False),
    ("a: 1:20\n", {"a": 80}, False),
    ("a: 2001-01-01\n", {"a": datetime.date(2001, 1, 1)}, False),
    ("a: Yes\n", {"a": True}, True),
    ("a: ON\n", {"a": True}, True),
    ("a: y\n", {"a": "y"}, True),
    ("a: n\n", {"a": "n"}, True),
    ("a: ~\n", {"a": None}, True),
    ("a:\n", {"a": None}, True),
    ("a: '1'\n", {"a": "1"}, True),
    ("on: 1\n", {True: 1}, False),
    ("1: 2\n", {1: 2}, False),
])
def test_yaml_1_1_scalars_read_as_pyyaml_reads_them(text, value, read):
    """Where YAML 1.1's resolver reads a scalar or key as few would guess,
    the strict reader reads it as PyYAML 6 does or leaves it to PyYAML."""
    assert repr(yaml.load(text, Loader=yaml.SafeLoader)) == repr(value)
    assert repr(cli._load_yaml(text, "s.yaml")) == repr(value)
    assert repr(_read_or_none(text)) == repr(value if read else None)


@pytest.mark.parametrize("text", [
    "a: &x 1\nb: *x\n", "a: !!str 1\n", "a: |\n  x\n", "a: x\n  y\n", "a: 'x\n  y'\n",
    "a:\t1\n", "a: 1\r\n", "a: \u00e9\n", "\ufeffa: 1\n", "---\na: 1\n", "a: 1\n...\n",
    "a: 1\na: 2\n", '"a": 1\n', "a: 'x''y'\n", 'a: "x\\ty"\n', "", "# a comment\n",
    "a: b:\n", "a: x#y\n", "a: b c\n", "a: [1, ]\n", "a: [1,\n  2]\n", "a:\n- 1\n",
    "a: 1\n b: 2\n", "- - 1\n",
])
def test_text_outside_the_subset_is_left_to_pyyaml(text):
    """Anchors, tags, block and multi-line scalars, escapes, tabs, CR,
    non-ASCII text, document markers, repeated keys, empty and malformed
    texts: the strict reader reads none of them."""
    assert _read_or_none(text) is None


@pytest.mark.parametrize("text", [
    "version: 1\nchain: [unclosed\n",
    "version: 1\nchain:\n\talpha: 1.0\n",
    "version: 1\n  chain: {alpha: 1}\n",
    "version: 1\nchain: {alpha: 1, alpha: *missing}\n",
    "version: 1\nchain: !!python/object:os.system {}\n",
    "version: 1\ntasks: [{a: 1}, {b: 2}\n",
])
def test_malformed_yaml_gives_the_same_error(tmp_path, capsys, text):
    """A YAML error exits 1 with SafeLoader's message, line and column."""
    config = tmp_path / "scenario.yaml"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(yaml.YAMLError) as parsed:
        yaml.load(text, Loader=yaml.SafeLoader)
    mark = parsed.value.problem_mark
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {config}: YAML parse error at line "
                                       f"{mark.line + 1}, column {mark.column + 1}: {parsed.value}\n")
    assert not (tmp_path / "out").exists()


SMALL = ("version: 1\nchain:\n  alpha: 1.0\n  lam: 0.05\n  n_stages: 2\n"
         "tasks:\n  - type: patterns\n    output: p.csv\n")


@pytest.mark.parametrize("text, code", [
    (SMALL.replace("alpha: 1.0", "alpha:\t1.0"), 1),
    (SMALL.replace("- type: patterns\n    output: p.csv", "- {type: patterns, output: p?q.csv}"), 1),
    (SMALL + "mode: >#\n  full\n", 1),
    (SMALL.replace("tasks:", "\ufefftasks:"), 1),
    (SMALL.replace("n_stages: 2", "n_stages: 2\n  signal_dim: !"), 0),
], ids=["tab-after-key", "question-mark-in-flow-word", "hash-after-block-indicator",
        "bom-starting-a-line", "empty-tagged-value"])
def test_reading_does_not_depend_on_libyaml(tmp_path, monkeypatch, capsys, text, code):
    """The forms that PyYAML's libyaml loader reads otherwise than SafeLoader
    lie outside the subset and go to SafeLoader alone, so a file reads, or
    fails, the same whether or not PyYAML was built with libyaml."""
    assert _read_or_none(text) is None
    config = tmp_path / "scenario.yaml"
    config.write_text(text, encoding="utf-8")

    def outcome() -> tuple[int, str]:
        try:
            read = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            with pytest.raises(cli.ScenarioError) as error:
                cli._load_yaml(text, config)
            assert str(error.value).endswith(f": {exc}")
        else:
            assert repr(cli._load_yaml(text, config)) == repr(read)
        return main(["run", str(config), "--outdir", str(tmp_path / "out")]), capsys.readouterr().err

    with_libyaml = outcome()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert outcome() == with_libyaml
    assert with_libyaml[0] == code


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


def test_runs_and_quick_looks_load_no_yaml(run_python, tmp_path):
    """A plain ``run`` of each benchmark scenario and each quick-look reads
    no YAML through PyYAML, so none imports it."""
    commands = [
        *(["run", str(path), "--outdir", str(tmp_path / path.stem)]
          for path in sorted((ROOT / "bench" / "scenarios").glob("*.yaml"))),
        ["pacs", "--alpha", "1", "--lam", "0.05", "--pattern", "10"],
        ["wstate", "--alpha", "1", "--lam", "0.05", "--n", "3"],
        ["wigner", "--state", "pacs:1,1", "--range", "2", "--step", "0.5",
         "--out", str(tmp_path / "w.txt")],
        ["sweep", "--alpha", "1", "--lam", "0.05", "--pattern", "1", "--values", "0.01,0.02",
         "--out", str(tmp_path / "s.csv")],
    ]
    code = (
        "import sys; from pacsim import cli\n"
        f"for argv in {commands!r}:\n    assert cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', '_yaml')))"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "phase_space" / "fit.json").is_file() and (tmp_path / "w.txt").is_file()


def test_flow_scenario_with_an_anchor_loads_yaml_and_writes_the_same_bytes(run_python, tmp_path):
    """A flow-style scenario with an anchor is PyYAML's to read: it loads
    yaml and writes the bytes that its block-style twin writes."""
    block = ROOT / "bench" / "scenarios" / "patterns_full.yaml"
    flow = tmp_path / "flow.yaml"
    flow.write_text(
        "version: 1\n"
        "chain: &chain {alpha: 1.0, lam: 0.05, n_stages: 5}\n"
        "detector: {eta: 0.6, dark_prob: 1.0e-4}\n"
        "mode: full\n"
        "tasks: [{type: patterns, output: patterns.csv}]\n",
        encoding="utf-8",
    )
    code = (
        "import sys; from pacsim import cli\n"
        f"for config, outdir in [({str(block)!r}, 'block'), ({str(flow)!r}, 'flow')]:\n"
        f"    assert cli.main(['run', config, '--outdir', {str(tmp_path)!r} + '/' + outdir]) == 0\n"
        "    print('yaml' in sys.modules)\n"
    )
    out = run_python("-c", code)
    assert out.stdout.splitlines() == ["False", "True"], out.stderr
    assert (tmp_path / "flow" / "patterns.csv").read_bytes() == (
        tmp_path / "block" / "patterns.csv").read_bytes()
