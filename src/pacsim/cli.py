"""Scenario runner: ``pacsim run`` and the command line's entry point.

Subcommands:
  run      execute a YAML scenario file (tables, fit summaries, Wigner grids)
  pacs     one-off chain query: pattern probability and heralded-state fidelity
  wstate   W-state extraction for an N-stage chain
  wigner   Wigner grid of a named state, written as a plain-text matrix
  sweep    pattern probability across parameter values, with power-law fit

A scenario file is read by _read_yaml_subset where it keeps to the YAML
subset that scenario files use, and otherwise by PyYAML, which only then is
imported (_load_yaml).

Each section of a scenario is checked against one table of its fields and
their defaults (_SCENARIO, _UNIFORM_CHAIN or _STAGED_CHAIN, _STAGE,
_DETECTOR, _TASK and _TASK_TYPES), and a validated task holds every field
of its type, defaults filled in and values parsed, so the task code parses
nothing again. The CLI checks types, names fields, runs tasks and writes
results; the rules on values are the library's (a record names the field it
refuses, ChainConfig searches a default cutoff, dynamics.pattern_table
reads a table's rows, analysis sizes a Wigner grid and bounds its
truncation error, dynamics.extract_w_state heralds a project task).
_build_chain builds and budgets every chain. Each quick-look command (pacs,
wstate, wigner, sweep) is a one-task scenario that pacsim.quicklook builds
from its flags and runs through the task code of ``run``. ``main`` runs
``run FILE [--outdir DIR]`` (neither led by "-") without a parser, so that
plain form loads neither argparse nor pacsim.quicklook; any other argv goes
to argparse, in a parser (quicklook.build_parser) that holds the invoked
command's subparser alone. pacsim.analysis, like the grid formatter
floattext, is imported where a Wigner grid or a fit first needs it, so a
table or a W-state summary never compiles it.

All outputs are deterministic: identical configs produce byte-identical
files at a fixed BLAS thread count (a Wigner grid's last digits may follow
the thread count). A table's click probabilities and conditional signals
come from one walk over the click prefixes (dynamics.pattern_table); a
sweep's probabilities, which need no conditional signal, come from the
signal's populations (dynamics.pattern_probabilities), its values' stages
built in one stacked exponential per block size. ``run`` runs its
tasks in file order on the calling thread and stops at the first that
fails. Task runners return values, output path -> a Table, a JSON payload
or a WignerGrid; one writer (_write_outputs) writes them for ``run``, only
after every task has returned, and for the quick-looks, which then print
from the same values. _result_text alone turns a result into text, a
grid's in blocks of about _BLOCK_VALUES (16384) values, each formatted by
floattext.rows_text as the file is written, so a grid needs about one block
of text and its temporaries (below 90 bytes a value, 1.5 MB a block) beyond
its array.
Exit codes: 0 success, 1 validation error, a signal cutoff too small for a
state a task builds (a TruncationError, named chain.signal_dim), an output
path that cannot be written or a power-law fit over a zero probability (the
message names the field to change), 2 an oversized chain, Wigner spec or
grid (a chain's (signal_dim idler_dim)^2, a state's Wigner coefficients, or
a grid's points beyond DEFAULT_AMPLITUDE_BUDGET), refused before any stage,
amplitude or grid is formed.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from .detection import ClickPattern, DetectorModel, outcome_probability
from .dynamics import (DEFAULT_IDLER_DIM, ChainConfig, StageParams, extract_w_state,
                       pattern_probabilities, pattern_table)
from .errors import DimensionBudgetError, FieldError, ScenarioError, TruncationError
from .fock import (
    PureState,
    _signal_dim_floor,
    default_signal_dim,
    fock_state,
    pacs_state,
    tail_mass,
)
from .records import Record

SCHEMA_VERSION = 1
#: Largest size a command may reach, in elements: a chain's
#: (signal_dim idler_dim)^2, a Wigner state's coefficients or a grid's points
DEFAULT_AMPLITUDE_BUDGET = 20_000_000
#: values per chunk of a Wigner grid's text: floattext.rows_text's
#: temporaries stay below 90 bytes a value (80 on the benchmark grids), so
#: a chunk needs at most 1.5 MB; chunks of 12k to 32k values format equally fast
_BLOCK_VALUES = 16384

# Each section of a scenario is one table, field -> default or _REQUIRED;
# _fields fills the defaults in, so each is written here and nowhere else.
_REQUIRED = object()
#: the default of a project task's ladder_max: the chain's stage count
_N_STAGES = object()
_SCENARIO = {
    "version": _REQUIRED, "chain": _REQUIRED, "detector": None, "mode": "full",
    "tasks": _REQUIRED,
}
_STAGE = {"lam": _REQUIRED, "idler_dim": DEFAULT_IDLER_DIM}
# a chain either sets every stage alike or lists them
_UNIFORM_CHAIN = {"alpha": _REQUIRED, **_STAGE, "n_stages": _REQUIRED, "signal_dim": None}
_STAGED_CHAIN = {"alpha": _REQUIRED, "stages": _REQUIRED, "signal_dim": None}
_DETECTOR = {"eta": 1.0, "dark_prob": 0.0}
_TASK = {"type": _REQUIRED, "output": _REQUIRED}
#: task type -> its fields besides those of _TASK
_TASK_TYPES = {
    "patterns": {"pattern": None},
    "project": {"reference_m": 1, "ladder_max": _N_STAGES, "plain": False},
    "sweep": {"param": "lam", "values": _REQUIRED, "pattern": _REQUIRED, "fit_output": None},
    "wigner": {"state": _REQUIRED, "extent": 5.0, "step": 0.1},
}


# ---------------------------------------------------------------------------
# scenario parsing and validation
# ---------------------------------------------------------------------------

def _fields(raw: Any, table: dict[str, Any], where: str) -> dict[str, Any]:
    """Each field of ``table`` -> its value in the mapping ``raw``, or its
    default where ``raw`` leaves it out.

    A ScenarioError names ``where`` for a ``raw`` that is not a mapping, a
    required field it leaves out or a field ``table`` does not have.
    """
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    for key, default in table.items():
        if default is _REQUIRED and key not in raw:
            raise ScenarioError(f"{where}: missing required field {key!r}")
    for key in raw:
        if key not in table:
            raise ScenarioError(f"{where}: unknown field {key!r}")
    return {key: raw.get(key, default) for key, default in table.items()}


def _parse_alpha(value: Any, where: str) -> complex:
    if _is_number(value):
        alpha = complex(value)
    elif isinstance(value, str):
        try:
            alpha = complex(value.replace(" ", ""))
        except ValueError:
            raise ScenarioError(f"{where}: cannot parse {value!r} as a complex number")
    else:
        raise ScenarioError(f"{where}: expected a number or complex string, got {value!r}")
    # |alpha|^2 sets the default cutoff (fock._signal_dim_floor)
    if not math.isfinite(abs(alpha) * abs(alpha)):
        raise ScenarioError(f"{where}: expected an amplitude with finite |alpha|^2, got {value!r}")
    return alpha


def _is_int(value: Any) -> bool:
    """True for YAML integers; YAML booleans are ints to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """True for YAML floats and for the integers a float holds."""
    return _is_int(value) and abs(value) <= sys.float_info.max or isinstance(value, float)


def _is_positive(value: Any) -> bool:
    return _is_number(value) and 0 < value < math.inf


def _typed(value: Any, is_valid: Callable[[Any], bool], where: str, expected: str) -> Any:
    """``value``, or a ScenarioError naming ``where`` unless ``is_valid(value)``."""
    if not is_valid(value):
        raise ScenarioError(f"{where}: expected {expected}, got {value!r}")
    return value


def _construct(cls, where: str, **fields):
    """``cls(**fields)``; a field it refuses is named ``where.<field>``."""
    try:
        return cls(**fields)
    except FieldError as exc:
        raise ScenarioError(f"{where}.{exc.field}: {exc}") from None


def _parse_stage(fields: dict, where: str) -> StageParams:
    """The ``lam`` and ``idler_dim`` of one stage entry, or of a uniform chain."""
    lam = _typed(fields["lam"], _is_number, f"{where}.lam", "a number")
    idler_dim = _typed(fields["idler_dim"], _is_int, f"{where}.idler_dim", "an integer")
    return _construct(StageParams, where, lam=float(lam), idler_dim=idler_dim)


def _parse_chain(raw: Any) -> tuple[ChainConfig, int | None]:
    """The chain, and its given signal_dim or None."""
    staged = isinstance(raw, dict) and "stages" in raw
    if staged:
        for key in raw:
            if key in _UNIFORM_CHAIN and key not in _STAGED_CHAIN:
                raise ScenarioError(
                    f"chain.{key}: not allowed next to chain.stages, which sets every stage"
                )
    fields = _fields(raw, _STAGED_CHAIN if staged else _UNIFORM_CHAIN, "chain")
    alpha = _parse_alpha(fields["alpha"], "chain.alpha")
    signal_dim = _typed(fields["signal_dim"], lambda v: v is None or _is_int(v) and v >= 2,
                        "chain.signal_dim", "an integer >= 2")
    if staged:
        if not isinstance(fields["stages"], list) or not fields["stages"]:
            raise ScenarioError("chain.stages: expected a nonempty list")
        stages = [
            _parse_stage(_fields(entry, _STAGE, f"chain.stages[{i}]"), f"chain.stages[{i}]")
            for i, entry in enumerate(fields["stages"])
        ]
        widest = max(range(len(stages)), key=lambda i: stages[i].idler_dim)
        idler_field = f"chain.stages[{widest}].idler_dim"
    else:
        stage = _parse_stage(fields, "chain")
        n_stages = _typed(fields["n_stages"], lambda v: _is_int(v) and v >= 1,
                          "chain.n_stages", "a positive integer")
        stages = [stage] * n_stages
        idler_field = "chain.idler_dim"
    if signal_dim is not None:
        signal_field = "chain.signal_dim"
    elif len(stages) > _signal_dim_floor(alpha):
        # N is the larger part of the default cutoff's floor
        signal_field = "chain.stages" if staged else "chain.n_stages"
    else:
        signal_field = "chain.alpha"
    return _build_chain(alpha, tuple(stages), signal_dim, signal_field, idler_field), signal_dim


def _build_chain(alpha: complex, stages: tuple[StageParams, ...], signal_dim: int | None,
                 signal_field: str, idler_field: str) -> ChainConfig:
    """``ChainConfig(alpha, stages, signal_dim)``, which searches the default
    cutoff where ``signal_dim`` is None, refused with DimensionBudgetError
    where its (signal_dim idler_dim)^2 exceeds DEFAULT_AMPLITUDE_BUDGET.

    The largest arrays a chain forms are the walk's dense Kraus stacks
    (dynamics._walk_batches), idler_dim signal_dim^2 doubles each, and the
    walk's stacked products K_k rho, up to dynamics._WALK_ENTRIES doubles or
    one such stack; the bound stays on (signal_dim idler_dim)^2 so that the
    same chains are refused. No stage is built here. With no ``signal_dim``
    the default cutoff's floor (fock._signal_dim_floor) is checked before
    the cutoff is searched, then the cutoff itself. ``idler_dim`` is the
    widest idler's cutoff; the message names ``idler_field`` when it is the
    larger one, and ``signal_field`` otherwise.
    """
    idler_dim = max(s.idler_dim for s in stages)

    def check_size(dim: int) -> None:
        entries = (dim * idler_dim) ** 2
        if entries > DEFAULT_AMPLITUDE_BUDGET:
            field = idler_field if idler_dim > dim else signal_field
            raise DimensionBudgetError(
                f"{field}: a signal cutoff of {dim} and an idler cutoff of {idler_dim} "
                f"give (signal_dim idler_dim)^2 = {entries} entries, above the budget of "
                f"{DEFAULT_AMPLITUDE_BUDGET}"
            )

    check_size(_signal_dim_floor(alpha, len(stages)) if signal_dim is None else signal_dim)
    chain = ChainConfig(alpha, stages, signal_dim)
    check_size(chain.signal_dim)
    return chain


def _parse_detector(raw: Any) -> DetectorModel:
    if raw is None:
        return DetectorModel.ideal()
    return _construct(DetectorModel, "detector", **{
        key: float(_typed(value, _is_number, f"detector.{key}", "a number"))
        for key, value in _fields(raw, _DETECTOR, "detector").items()
    })


def _parse_pattern(text: Any, n_stages: int, where: str) -> ClickPattern:
    if not isinstance(text, str):
        raise ScenarioError(f"{where}: expected a 0/1 string, got {text!r}")
    try:
        pattern = ClickPattern.from_string(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}")
    if len(pattern) != n_stages:
        raise ScenarioError(
            f"{where}: pattern {text!r} has {len(pattern)} outcomes for a "
            f"{n_stages}-stage chain"
        )
    return pattern


class Scenario(Record):
    """Validated scenario: chain, detector and task list.

    Each task is a dict with every field of its type, defaults filled in,
    and every value parsed: ``pattern`` a ClickPattern (or None for a whole
    table), ``values``, ``extent`` and ``step`` floats, ``ladder_max`` an
    integer, ``state`` the (PureState, dropped mass) pair of
    _parse_state_spec. A sweep task also holds ``chains``, the ChainConfig
    of each value, built once the rest of the task has validated.
    """

    __slots__ = ("chain", "detector", "tasks")

    def __init__(self, chain: ChainConfig, detector: DetectorModel, tasks: tuple[dict, ...]):
        super().__init__(chain, detector, tasks)


def parse_scenario(raw: Any) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: expected a mapping at the top level")
    fields = _fields(raw, _SCENARIO, "scenario")
    _typed(fields["version"], lambda v: _is_int(v) and v == SCHEMA_VERSION,
           "version", str(SCHEMA_VERSION))
    chain, signal_dim = _parse_chain(fields["chain"])
    detector = _parse_detector(fields["detector"])
    # schema 1 names an evolution mode; both give the same click statistics,
    # so it is checked and selects nothing: every table comes from one walk
    _typed(fields["mode"], ("full", "sequential").__contains__, "mode", "'full' or 'sequential'")
    if not isinstance(fields["tasks"], list) or not fields["tasks"]:
        raise ScenarioError("tasks: expected a nonempty list")
    seen_outputs: set[str] = set()
    tasks = tuple(
        _parse_task(entry, chain, f"tasks[{i}]", seen_outputs, signal_dim)
        for i, entry in enumerate(fields["tasks"])
    )
    return Scenario(chain=chain, detector=detector, tasks=tasks)


def _parse_task(
    entry: Any,
    chain: ChainConfig | None,
    where: str,
    seen_outputs: set[str],
    signal_dim: int | None = None,
) -> dict:
    """One task entry, checked and parsed (see Scenario); only a wigner task
    may have no chain. Its normalized output paths join ``seen_outputs``, and
    ``signal_dim`` is the given chain.signal_dim, or None for default cutoffs."""
    types = tuple(_TASK_TYPES)
    ttype = entry.get("type") if isinstance(entry, dict) else None
    if isinstance(entry, dict) and "type" in entry:
        _typed(ttype, types.__contains__, f"{where}.type", f"one of {types}")
    task = _fields(entry, {**_TASK, **_TASK_TYPES.get(ttype, {})}, where)
    for path_field in ("output", "fit_output"):
        p = task.get(path_field)
        if p is None and path_field == "fit_output":
            continue
        if not isinstance(p, str) or not p:
            raise ScenarioError(f"{where}.{path_field}: expected a file path")
        # "a.csv" and "./a.csv" name one file
        path = os.path.normpath(p)
        if path in seen_outputs:
            raise ScenarioError(f"{where}.{path_field}: duplicate output path {p!r}")
        seen_outputs.add(path)
    if ttype == "patterns" and task["pattern"] is not None:
        task["pattern"] = _parse_pattern(task["pattern"], chain.n_stages, f"{where}.pattern")
    elif ttype == "project":
        n = chain.n_stages
        _typed(task["reference_m"], lambda v: _is_int(v) and 0 <= v <= n,
               f"{where}.reference_m", f"an integer in 0..{n}")
        if task["ladder_max"] is _N_STAGES:
            task["ladder_max"] = n
        _typed(task["ladder_max"], lambda v: _is_int(v) and v >= 0,
               f"{where}.ladder_max", "an integer >= 0")
        _typed(task["plain"], lambda v: isinstance(v, bool), f"{where}.plain", "true or false")
    elif ttype == "sweep":
        param = _typed(task["param"], ("lam", "alpha").__contains__,
                       f"{where}.param", "'lam' or 'alpha'")
        fit = task["fit_output"] is not None
        if fit and param != "lam":
            raise ScenarioError(f"{where}.fit_output: fits are only defined for lam sweeps")
        values, field = task["values"], f"{where}.values"
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"{field}: expected a nonempty list")
        for v in values:
            _typed(v, _is_positive, field, "positive numbers")
        if fit and (len(values) < 3 or len(set(values)) != len(values)):
            raise ScenarioError(f"{field}: a fit needs >= 3 distinct values")
        task["values"] = [float(v) for v in values]
        task["pattern"] = _parse_pattern(task["pattern"], chain.n_stages, f"{where}.pattern")
        # each chain, at the given cutoff or else at its default, must fit the budget
        try:
            task["chains"] = [
                _build_chain(_parse_alpha(v, field), chain.stages, signal_dim, field, field)
                if param == "alpha" else _build_chain(
                    chain.alpha, tuple(StageParams(float(v), s.idler_dim) for s in chain.stages),
                    chain.signal_dim, field, field)
                for v in values
            ]
        except FieldError as exc:  # a lam that StageParams refuses
            raise ScenarioError(f"{field}: {exc}") from None
    elif ttype == "wigner":
        task["state"] = _parse_state_spec(str(task["state"]), f"{where}.state")
        for field in ("extent", "step"):
            _typed(task[field], _is_positive, f"{where}.{field}", "a positive number")
        _check_grid(task["extent"], task["step"], f"{where}.extent", f"{where}.step")
        task["extent"], task["step"] = float(task["extent"]), float(task["step"])
    return task


def _check_grid(extent: float, step: float, extent_field: str, step_field: str) -> None:
    """Refuse a Wigner grid before any array is formed.

    ScenarioError for one point per axis; DimensionBudgetError for more than
    DEFAULT_AMPLITUDE_BUDGET points over x and p (analysis.axis_points
    each), whose values alone would take 8 bytes each.
    """
    from .analysis import axis_points

    n = axis_points(extent, step)
    if n <= 1:
        raise ScenarioError(
            f"{extent_field}: {extent!r} at step {step!r} gives one grid point per axis; "
            "a grid needs two or more"
        )
    side = math.isqrt(DEFAULT_AMPLITUDE_BUDGET)
    if n > side:
        size = f"{n} x {n} = {n * n}" if math.isfinite(n) else f"more than {side} x {side}"
        raise DimensionBudgetError(
            f"{extent_field}: {extent!r} at {step_field} {step!r} gives {size} grid "
            f"points, above the budget of {DEFAULT_AMPLITUDE_BUDGET}; use a smaller "
            f"{extent_field} or a larger {step_field}"
        )


def _parse_state_spec(spec: str, where: str = "state") -> tuple[PureState, float]:
    """Build a single-mode state from 'coherent:A', 'fock:N' or 'pacs:A,M'.

    Returns the state and the probability mass its Fock cutoff dropped
    (fock.tail_mass).

    The state is for a Wigner grid, whose coefficient matrix has
    analysis.coefficient_count(dim) entries. A spec that puts this above
    DEFAULT_AMPLITUDE_BUDGET is refused with DimensionBudgetError, first on
    the cutoff's floor, before any amplitude is formed or searched, then on
    the cutoff the state was built with.
    """
    from .analysis import coefficient_count

    kind, _, arg = spec.partition(":")

    def check_size(dim: int) -> None:
        count = coefficient_count(dim)
        if count > DEFAULT_AMPLITUDE_BUDGET:
            raise DimensionBudgetError(
                f"{where}: {spec!r} needs a Fock cutoff of at least {dim}, so {count} "
                f"Wigner coefficients, above the budget of {DEFAULT_AMPLITUDE_BUDGET}"
            )

    try:
        if kind == "fock":
            n = int(arg)
            dim = max(n + 2, 8)
            check_size(dim)
            return fock_state(n, dim), 0.0
        if kind == "coherent":
            alpha, m = _parse_alpha(arg, where), 0
        elif kind == "pacs":
            alpha_text, _, m_text = arg.partition(",")
            alpha, m = _parse_alpha(alpha_text, where), int(m_text)
        else:
            raise ScenarioError(
                f"{where}: unknown state kind {kind!r} (use coherent:A, fock:N or pacs:A,M)"
            )
        check_size(_signal_dim_floor(alpha, m))
        dim = default_signal_dim(alpha, m)
        state = pacs_state(alpha, m, dim)
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: cannot parse state spec {spec!r} ({exc})")
    check_size(dim)
    return state, tail_mass(alpha, m, dim)


# ---------------------------------------------------------------------------
# task results and their text
# ---------------------------------------------------------------------------

class Table(Record):
    """A CSV table's values: its header and its rows of str, int, float or None."""

    __slots__ = ("header", "rows")

    def __init__(self, header: tuple[str, ...], rows: list[list]):
        super().__init__(header, rows)


if TYPE_CHECKING:
    from .analysis import WignerGrid

    #: what a task writes to one path: a CSV table, a JSON payload or a Wigner grid
    Result = Table | dict | WignerGrid


def _field_text(value: str | int | float | None) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return "" if value is None else repr(float(value))


def _result_text(result: Result) -> Iterable[str]:
    """The text of ``result``'s file, in chunks: a table's CSV with each
    float by repr and None as an empty field, a payload's sorted JSON, or a
    grid's lines (wigner_grid_lines)."""
    if isinstance(result, Table):
        # no field needs quoting: 0/1 patterns, integers, float reprs, "" and
        # header names, two or more to a row
        return ["".join(",".join(map(_field_text, row)) + "\n"
                        for row in [result.header, *result.rows])]
    if isinstance(result, dict):
        return [json.dumps(result, indent=2, sort_keys=True) + "\n"]
    return wigner_grid_lines(result)


def wigner_grid_lines(grid: WignerGrid) -> Iterator[str]:
    """The grid's text file in chunks: axis headers, then one row per x.

    Rows follow x and columns p, every value in full repr precision
    (floattext.rows_text). The rows are cut into blocks of equal size, to
    within one row, of at most _BLOCK_VALUES values (or one row, where a row
    is wider), each formatted only when the consumer asks for it. The p
    header reuses the x header's text where the axes are equal bit for bit,
    as every analysis.wigner grid's are.
    """
    # imported on first use, so commands that write no grid do not load it:
    # compiling it takes about 3 ms where no bytecode cache is kept
    from .floattext import rows_text

    yield "# wigner grid\n"
    x_axis, p_axis = (np.asarray(a, dtype=np.float64) for a in (grid.x_axis, grid.p_axis))
    x_text = rows_text(x_axis[None, :])
    same = x_axis.shape == p_axis.shape and x_axis.tobytes() == p_axis.tobytes()
    yield "# x: " + x_text
    yield "# p: " + (x_text if same else rows_text(p_axis[None, :]))
    values = grid.values
    n_rows = values.shape[0]
    blocks = -(-n_rows // max(1, _BLOCK_VALUES // max(1, values.shape[1])))
    for i in range(blocks):
        yield rows_text(values[i * n_rows // blocks:(i + 1) * n_rows // blocks])


def _output_fields(task: dict, where: str) -> dict[str, str]:
    """Each output path of a task -> the field that set it."""
    return {task[key]: f"{where}.{key}" for key in ("output", "fit_output") if task.get(key)}


def _write_outputs(results: dict[str, Result], fields: dict[str, str],
                   outdir: Path | None = None) -> None:
    """Write each result's text (_result_text) to its path, in order, under
    ``outdir`` when given. A path that cannot be written raises ScenarioError
    naming the field that set it, ``--outdir`` or ``fields[path]``; the
    results before it are written by then."""
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"--outdir: {outdir}: {exc.strerror or exc}") from None
    for rel_path, result in results.items():
        target = Path(outdir or "", rel_path)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "w", encoding="utf-8") as fh:
                fh.writelines(_result_text(result))
        except OSError as exc:
            raise ScenarioError(
                f"{fields[rel_path]}: {str(target)!r}: {exc.strerror or exc}"
            ) from None


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def _run_patterns_task(task: dict, scenario: Scenario, where: str) -> dict[str, Table]:
    """Rows of every click pattern in lexicographic order, or of the task's
    pattern alone, from dynamics.pattern_table."""
    rows = [[str(p), p.n_clicks, *readings]
            for p, *readings in pattern_table(scenario.chain, scenario.detector, task["pattern"])]
    header = ("pattern", "n_clicks", "probability", "fidelity_vs_pacs_m", "mean_signal_photons")
    return {task["output"]: Table(header, rows)}


def _run_project_task(task: dict, scenario: Scenario, where: str) -> dict[str, dict]:
    """Signal-side heralding by dynamics.extract_w_state: no joint or idler
    state, no budget."""
    chain, m, plain = scenario.chain, task["reference_m"], task["plain"]
    result = extract_w_state(chain, task["ladder_max"], m, plain)
    return {task["output"]: {
        "n_stages": chain.n_stages,
        "reference_m": m,
        "plain_projector": plain,
        "probability": result.probability,
        "w_fidelity": result.w_fidelity,
    }}


def _run_sweep_task(task: dict, scenario: Scenario, where: str) -> dict[str, Result]:
    """The pattern's probability with ``param`` set to each value, every
    value's chain read at once by dynamics.pattern_probabilities, and its
    fit; a zero probability, which has no logarithm, refuses the fit."""
    # a given cutoff holds every alpha or raises TruncationError here
    probabilities = pattern_probabilities(task["chains"], scenario.detector, task["pattern"])
    samples = [[value, outcome_probability(p)] for value, p in zip(task["values"], probabilities)]
    results = {task["output"]: Table((task["param"], "probability"), samples)}
    if task["fit_output"]:
        for value, p in samples:
            if p == 0.0:
                raise ScenarioError(
                    f"{where}.fit_output: a power-law fit needs every probability > 0, "
                    f"got {p!r} at lam {value!r}"
                )
        from .analysis import fit_power_law

        fit = fit_power_law(samples)
        results[task["fit_output"]] = {
            "exponent": fit.exponent,
            "prefactor": fit.prefactor,
            "r_squared": fit.r_squared,
            "samples": [[l, p] for l, p in fit.samples],
        }
    return results


def _run_wigner_task(task: dict, scenario: Scenario | None, where: str) -> dict[str, WignerGrid]:
    from .analysis import wigner

    psi = task["state"][0].amplitudes
    return {task["output"]: wigner(np.outer(psi, psi.conj()), task["extent"], task["step"])}


#: task type -> its runner(task, scenario, where); ``where`` is the task's
#: place in the file, tasks[i], which the runner's errors name
_TASK_RUNNERS = {
    "patterns": _run_patterns_task,
    "project": _run_project_task,
    "sweep": _run_sweep_task,
    "wigner": _run_wigner_task,
}


#: PyYAML's plain words that read as no string: YAML 1.1's bool and null
#: words (``y`` and ``n`` are strings to PyYAML)
_YAML_WORDS = {
    **dict.fromkeys("yes Yes YES true True TRUE on On ON".split(), True),
    **dict.fromkeys("no No NO false False FALSE off Off OFF".split(), False),
    **dict.fromkeys("~ null Null NULL".split(), None),
}


def _scalar_pattern(word: str, end: str) -> re.Pattern:
    """A scalar whose reading PyYAML's resolver leaves in no doubt, then ``end``:
    an int with no leading zero, base prefix or ``_``, a float with a dot and
    an optional signed exponent, a quoted string without escapes, or a word
    (``~`` or a letter, then ``word``) that is a string unless _YAML_WORDS
    holds it."""
    number = r"[-+]?(?:0|[1-9][0-9]*)"
    return re.compile(
        rf"(?:(?P<float>{number}\.[0-9]*(?:[eE][-+][0-9]+)?)|(?P<int>{number})"
        rf"|\"(?P<dq>[^\"\\]*)\"|'(?P<sq>[^']*)'|(?P<word>~|[A-Za-z]{word})){end}", re.ASCII)


#: in block context a word may hold ":" (not last) and ","; the scalar runs to
#: the end of its line or to a comment
_BLOCK_SCALAR = _scalar_pattern(r"[\w.+/:,-]*(?<!:)", r"(?: +#.*| *)$")
#: in flow context a word holds neither, and a "," or closing bracket follows
_FLOW_SCALAR = _scalar_pattern(r"[\w.+/-]*", r" *(?=[],}])")
_KEY = re.compile(r"([A-Za-z]\w*):(?: +|$)", re.ASCII)
_SPACES = re.compile(r" *")
_LINE_END = re.compile(r"(?: +#.*| *)$")
#: a tab, a CR, a control character or any text beyond ASCII
_OUTSIDE_SUBSET = re.compile(r"[^\n -~]")


def _scalar(match: re.Match) -> Any:
    kind, text = match.lastgroup, match[match.lastgroup]
    if kind == "float":
        return float(text)
    if kind == "int":
        return int(text)
    return _YAML_WORDS.get(text, text) if kind == "word" else text


def _read_flow(text: str, pos: int) -> tuple[list | dict, int]:
    """The flow list or mapping that opens at ``text[pos]`` and closes on the
    same line, and the index after it. Mapping keys are words, not repeated."""
    close = "]" if text[pos] == "[" else "}"
    items: list | dict = [] if close == "]" else {}
    pos = _SPACES.match(text, pos + 1).end()
    if text.startswith(close, pos):
        return items, pos + 1
    while True:
        if close == "}":
            key = _KEY.match(text, pos)
            if not key or key[1] in items or key[1] in _YAML_WORDS:
                raise ValueError(text)
            pos = key.end()
        if text.startswith(("[", "{"), pos):
            value, pos = _read_flow(text, pos)
            pos = _SPACES.match(text, pos).end()
        else:
            scalar = _FLOW_SCALAR.match(text, pos)
            if not scalar:
                raise ValueError(text)
            value, pos = _scalar(scalar), scalar.end()
        if close == "]":
            items.append(value)
        else:
            items[key[1]] = value
        if not text.startswith(",", pos):
            break
        pos = _SPACES.match(text, pos + 1).end()
    if not text.startswith(close, pos):
        raise ValueError(text)
    return items, pos + 1


def _read_value(text: str) -> Any:
    """The value that fills the rest of a line: a scalar or a flow collection."""
    if text.startswith(("[", "{")):
        value, end = _read_flow(text, 0)
        if not _LINE_END.match(text, end):
            raise ValueError(text)
        return value
    scalar = _BLOCK_SCALAR.match(text)
    if not scalar:
        raise ValueError(text)
    return _scalar(scalar)


def _read_block(lines: list[tuple[int, str]], i: int) -> tuple[list | dict, int]:
    """The block sequence or mapping whose first line is ``lines[i]`` (its
    indent and its text), and the index of the line after it. Each entry
    takes one line, or a key alone and the more indented block below it."""
    indent = lines[i][0]
    sequence = lines[i][1].startswith("- ")
    block: list | dict = [] if sequence else {}
    while i < len(lines) and lines[i][0] >= indent:
        line_indent, text = lines[i]
        if line_indent > indent or text.startswith("- ") != sequence:
            raise ValueError(text)
        if sequence:
            rest = text[2:].lstrip(" ")
            if _KEY.match(rest):  # "- key: ...": a mapping at the key's column
                lines[i] = (indent + len(text) - len(rest), rest)
                value, i = _read_block(lines, i)
            else:
                value, i = _read_value(rest), i + 1
            block.append(value)
            continue
        key = _KEY.match(text)
        if not key or key[1] in block or key[1] in _YAML_WORDS:
            raise ValueError(text)
        rest, i = text[key.end():], i + 1
        if rest and rest[0] != "#":
            block[key[1]] = _read_value(rest)
        elif i < len(lines) and lines[i][0] > indent:
            block[key[1]], i = _read_block(lines, i)
        else:
            block[key[1]] = None
    return block, i


def _read_yaml_subset(text: str) -> list | dict:
    """What PyYAML reads from ``text``, if ``text`` keeps to the YAML that
    scenario files use; a ValueError otherwise.

    The subset: block mappings and sequences (``- key: value`` entries
    included) with ``#`` comments, one-line flow lists and mappings, and the
    scalars of _scalar_pattern. Keys are words that read as strings and none
    repeats. Anything else (anchors, tags, block or multi-line scalars,
    escapes, tabs, CR, non-ASCII text, document markers, an empty file and
    every malformed file) is a ValueError: _load_yaml leaves it to PyYAML,
    which is only imported then.
    """
    if _OUTSIDE_SUBSET.search(text):
        raise ValueError("outside the subset")
    lines = [(len(line) - len(content), content) for line in text.split("\n")
             if (content := line.lstrip(" ")) and content[0] != "#"]
    if not lines:
        raise ValueError("no content")
    value, end = _read_block(lines, 0)
    if end < len(lines):
        raise ValueError(lines[end][1])
    return value


def _load_yaml(text: str, source: str | Path) -> Any:
    """``yaml.safe_load(text)``; a YAML error is a ScenarioError naming ``source``.

    _read_yaml_subset reads a text that keeps to the subset scenario files
    use; every other text goes to PyYAML's SafeLoader, imported only then,
    so a file reads the same whether or not PyYAML was built with libyaml.
    """
    try:
        return _read_yaml_subset(text)
    except (ValueError, RecursionError):
        pass
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{source}: YAML parse error{loc}: {exc}")


def run_scenario(config_path: str | Path, outdir: str | Path | None = None) -> int:
    """Execute a scenario file; writes nothing unless every task succeeds."""
    config_path = Path(config_path)
    outdir = Path.cwd() if outdir is None else Path(outdir)
    try:
        text = config_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"{config_path}: no such file")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ScenarioError(f"{config_path}: {getattr(exc, 'strerror', None) or exc}") from None
    scenario = parse_scenario(_load_yaml(text, config_path))
    # in file order; the first task that fails raises, and the rest never run
    results = [
        _TASK_RUNNERS[task["type"]](task, scenario, f"tasks[{i}]")
        for i, task in enumerate(scenario.tasks)
    ]

    # all tasks succeeded; only now format and write (grids row by row)
    for i, (task, task_results) in enumerate(zip(scenario.tasks, results)):
        _write_outputs(task_results, _output_fields(task, f"tasks[{i}]"), outdir)
    return 0


def _run(args) -> int:
    return run_scenario(args.config, args.outdir)


def _plain_run(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``run FILE`` or ``run FILE --outdir DIR``
    where neither FILE nor DIR starts with "-", or None for any other argv,
    which argparse alone parses (other spellings, help and every error)."""
    if len(argv) == 2 or len(argv) == 4 and argv[2] == "--outdir":
        if argv[0] == "run" and not any(arg.startswith("-") for arg in argv[1::2]):
            return SimpleNamespace(command="run", config=argv[1],
                                   outdir=argv[3] if len(argv) == 4 else None, func=_run)
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_run(argv)
    if args is None:
        from .quicklook import build_parser

        args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TruncationError, DimensionBudgetError) as exc:
        message = str(exc)
        if isinstance(exc, TruncationError):
            message = f"chain.signal_dim: {message}"
        if args.command != "run":  # a quick-look names each field by its flag
            from .quicklook import _name_flags

            message = _name_flags(message, args.command)
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, DimensionBudgetError) else 1


if __name__ == "__main__":
    # pacsim.quicklook imports this module by name; under ``python -m`` it
    # finds this run of it instead of compiling the file a second time
    sys.modules.setdefault("pacsim.cli", sys.modules[__name__])
    raise SystemExit(main())
