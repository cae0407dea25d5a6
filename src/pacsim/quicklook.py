"""Quick-look commands: ``pacsim pacs``, ``wstate``, ``wigner`` and ``sweep``.

Each quick-look is a one-task scenario: it builds the mapping a scenario
file would hold from the flags it was given, checks it with the scenario
validators of pacsim.cli and runs the same task code as ``pacsim run``.
Each flag is declared once, in _FLAGS (the field it sets and its argparse
options), and each command once, in _COMMANDS (its task, flags and
handler); the subparsers, a command's one-task scenario and the flag that
an error names for a field are all built from these two tables.

cli.main imports this module only for an argv that is not a plain
``run FILE [--outdir DIR]``, and to name a quick-look's error by its flags,
so that a plain run compiles none of it.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING

from .cli import (SCHEMA_VERSION, _TASK_RUNNERS, _output_fields, _parse_task, _run,
                  _write_outputs, parse_scenario)

if TYPE_CHECKING:
    import argparse

    from .cli import Result


def _cmd_pacs(task: dict, results: dict[str, Result]) -> None:
    [[pattern, n_clicks, probability, fid, _]] = results[task["output"]].rows
    print(f"pattern {pattern}: probability = {probability!r}")
    if fid is not None:
        print(f"fidelity vs {n_clicks}-photon-added state = {fid!r}")
    else:
        print("impossible outcome")


def _cmd_wstate(task: dict, results: dict[str, Result]) -> None:
    payload = results[task["output"]]
    print(f"heralding probability = {payload['probability']!r}")
    if payload["probability"] == 0.0:
        print("impossible outcome")
    else:
        print(f"fidelity vs {payload['n_stages']}-mode W state = {payload['w_fidelity']!r}")


def _cmd_wigner(task: dict, results: dict[str, Result]) -> None:
    from .analysis import truncation_bound

    grid, (_, dropped) = results[task["output"]], task["state"]
    print(
        f"wrote {task['output']}: {grid.values.shape[0]}x{grid.values.shape[1]} grid, "
        f"min = {grid.minimum()!r}, integral = {grid.integral()!r}"
    )
    print(f"truncation bound: |W - W_exact| <= {truncation_bound(dropped)!r} "
          f"(cutoff dropped mass {dropped!r})")


def _cmd_sweep(task: dict, results: dict[str, Result]) -> None:
    for rel_path in results:
        print(f"wrote {rel_path}")


def _flag_number(text: str) -> float | str:
    """``text`` as a float, or as itself for the validators to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def _flag_values(text: str) -> list[float | str]:
    """The comma-separated values of ``text``, each through _flag_number."""
    return [_flag_number(v) for v in text.split(",") if v.strip()]


#: quick-look flag -> (the scenario field it sets, its add_argument keywords,
#: with "aliases" its other spellings). A flag left unset leaves its field
#: out, so that the field takes its scenario default.
_FLAGS = {
    "--alpha": ("chain.alpha", {"required": True, "help": "seed coherent amplitude"}),
    "--lam": ("chain.lam", {"aliases": ("--lambda",), "type": float, "required": True,
                            "help": "effective interaction strength per stage"}),
    "--idler-dim": ("chain.idler_dim", {"type": int}),
    "--signal-dim": ("chain.signal_dim", {"type": int}),
    "--n": ("chain.n_stages", {"type": int, "required": True, "help": "number of stages"}),
    "--eta": ("detector.eta", {"type": float, "help": "detector efficiency"}),
    "--dark-prob": ("detector.dark_prob", {"type": float}),
    "--state": ("tasks[0].state", {"required": True,
                                   "help": "state spec: coherent:A | fock:N | pacs:A,M"}),
    "--range": ("tasks[0].extent", {"type": float, "help": "grid half-width in x and p"}),
    "--step": ("tasks[0].step", {"type": float}),
    "--param": ("tasks[0].param", {"choices": ("lam", "alpha")}),
    "--values": ("tasks[0].values", {"type": _flag_values, "required": True,
                                     "help": "comma-separated values"}),
    # pacs and sweep also set chain.n_stages by its length, so an error in
    # chain.n_stages names --pattern there
    "--pattern": ("tasks[0].pattern", {"required": True, "help": "click pattern, e.g. 10"}),
    "--out": ("tasks[0].output", {}),
    "--fit-out": ("tasks[0].fit_output", {}),
}
_CHAIN_FLAGS = ("--alpha", "--lam", "--idler-dim", "--signal-dim")
_DETECTOR_FLAGS = ("--eta", "--dark-prob")

#: quick-look command -> (its add_parser keywords, the fields of its one task
#: that no flag gives, its flags in --help order, its handler, which prints
#: from the task and its results). pacs and wstate have no --out and print
#: their answer, so their output path ("-") is never written.
_COMMANDS = {
    "pacs": ({"help": "condition a chain on a click pattern"},
             {"type": "patterns", "output": "-"},
             (*_CHAIN_FLAGS, *_DETECTOR_FLAGS, "--pattern"), _cmd_pacs),
    "wstate": ({"help": "extract the N-mode W state"}, {"type": "project", "output": "-"},
               (*_CHAIN_FLAGS, "--n"), _cmd_wstate),
    "wigner": ({"help": "write a Wigner grid to a text file", "description": (
        "Write the Wigner grid of a named state to a text file. The time grows "
        "as the cube of the state's Fock cutoff: fock:500 takes about 3 s and "
        "fock:1000 about 26 s on one core. A spec whose (2 dim - 1)^2 Wigner "
        "coefficients exceed 20M exits 2; that bounds memory, not time: "
        "fock:2235, just inside it, would run for about 5 min by the cube law. "
        "A --range and --step whose grid has more than 20M points (x points "
        "times p points) also exit 2, before any array is formed.")},
               {"type": "wigner", "output": "wigner.txt"},
               ("--state", "--range", "--step", "--out"), _cmd_wigner),
    "sweep": ({"help": "sweep a parameter and fit the scaling"},
              {"type": "sweep", "output": "sweep.csv"},
              (*_CHAIN_FLAGS, *_DETECTOR_FLAGS, "--param", "--values", "--pattern", "--out",
               "--fit-out"), _cmd_sweep),
}


def _quick_look(command: str, args) -> int:
    """Run the one-task scenario a quick-look command stands for, validated
    as ``pacsim run`` validates a file (a wigner task alone, with no chain)
    and run by the task runner of ``pacsim run``; then write its files and
    print its summary."""
    _, task, flags, handler = _COMMANDS[command]
    sections = {"tasks[0]": dict(task)}
    for flag in flags:
        section, _, key = _FLAGS[flag][0].rpartition(".")
        fields = sections.setdefault(section, {})
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            fields[key] = value
    task = sections.pop("tasks[0]")
    if "chain" in sections:
        if "--pattern" in flags:  # an empty pattern gets one stage for the pattern check
            sections["chain"]["n_stages"] = max(1, len(args.pattern))
        scenario = parse_scenario({"version": SCHEMA_VERSION, **sections, "tasks": [task]})
        task = scenario.tasks[0]
    else:
        scenario, task = None, _parse_task(task, None, "tasks[0]", set())
    results = _TASK_RUNNERS[task["type"]](task, scenario, "tasks[0]")
    if "--out" in flags:
        _write_outputs(results, _output_fields(task, "tasks[0]"))
    handler(task, results)
    return 0


def _name_flags(message: str, command: str) -> str:
    """``message`` with each field that ``command``'s flags set renamed to its
    flag, where the field leads the message before a colon or stands as a
    word of its own; a quoted value (a repr of what the user gave) is kept."""
    flags = _COMMANDS[command][2]
    names = {_FLAGS[flag][0]: flag for flag in flags}
    if "--pattern" in flags:
        names["chain.n_stages"] = "--pattern"
    fields = "|".join(map(re.escape, names))
    quoted = r"'(?:[^'\\\n]|\\.)*'|\"(?:[^\"\\\n]|\\.)*\""
    token = re.compile(rf"{quoted}|^(?:{fields})(?=:)|(?<= )(?:{fields})(?= |$)")
    return token.sub(lambda match: names.get(match[0], match[0]), message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``pacsim`` parser. Where ``command`` names a command it holds that
    subparser alone, the one its parse reads (the others cost about 1 ms a
    start), and the usage line an error prints still lists every command. The
    full parser sets no metavar, which would rename its "required: command".
    argparse is imported here, so a plain ``run`` (see cli.main) never loads
    it."""
    import argparse

    parser = argparse.ArgumentParser(prog="pacsim",
                                     description="cascaded parametric-amplifier simulator")
    names = ("run", *_COMMANDS)
    metavar = "{" + ",".join(names) + "}" if command in names else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names if metavar is None else (command,):
        if name == "run":
            p = sub.add_parser("run", help="execute a YAML scenario file")
            p.add_argument("config", help="path to the scenario file")
            p.add_argument("--outdir", help="directory for output files")
            p.set_defaults(func=_run)
            continue
        keywords, _, flags, _ = _COMMANDS[name]
        p = sub.add_parser(name, **keywords)
        for flag in flags:
            options = dict(_FLAGS[flag][1])
            p.add_argument(flag, *options.pop("aliases", ()), **options)
        p.set_defaults(func=functools.partial(_quick_look, name))
    return parser
