"""The README's code blocks run as written."""

import re
import shlex
from pathlib import Path

import pytest

from pacsim import cli, quicklook
from pacsim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, language: str, level: str = "##") -> str:
    """The first ``language`` fenced block after the ``<level> heading`` line."""
    section = README.split(f"\n{level} {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


QUICK_LOOKS = [
    shlex.split(line)
    for line in code_block("CLI", "sh").replace("\\\n", " ").splitlines()
    if line.startswith("pacsim ") and not line.startswith("pacsim run ")
]


def test_library_quickstart_runs(capsys):
    exec(compile(code_block("Library quickstart", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_block_holds_the_four_quick_looks():
    assert [args[1] for args in QUICK_LOOKS] == ["pacs", "wstate", "wigner", "sweep"]


@pytest.mark.parametrize("args", QUICK_LOOKS, ids=lambda args: args[1])
def test_cli_quick_look_runs(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert main(args[1:]) == 0


def test_flag_table_is_the_parsers():
    """The README's flag -> field table lists each (field, flag) pair that the
    quick-looks' flag table gives, the length of --pattern among them."""
    section = README.split("| flag | scenario field |\n| --- | --- |\n", 1)[1]
    shown = set()
    for row in section.split("\n\n", 1)[0].splitlines():
        flags, field = row.strip("| ").split(" | ")
        shown |= {(field.strip("`"), flag) for flag in re.findall(r"`(--[\w-]+)`", flags)}
    table = {(field, flag) for flag, (field, _) in quicklook._FLAGS.items()}
    assert shown == table | {("chain.n_stages", "--pattern")}


SCHEMA = code_block("Scenario schema (version 1)", "yaml", level="###")


def test_scenario_schema_block_runs(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCHEMA, encoding="utf-8")
    assert main(["run", str(config), "--outdir", str(tmp_path / "out")]) == 0


def test_scenario_schema_block_shows_every_field():
    """Each field of the validators' tables, and each task type, is in the block."""
    tables = [cli._SCENARIO, cli._UNIFORM_CHAIN, cli._STAGED_CHAIN, cli._STAGE,
              cli._DETECTOR, cli._TASK, *cli._TASK_TYPES.values()]
    shown = [f"{field}:" for table in tables for field in table]
    shown += [f"type: {name}" for name in cli._TASK_TYPES]
    assert [text for text in shown if not re.search(rf"\b{re.escape(text)}", SCHEMA)] == []
