"""Scenario runner and quick-look commands.

Subcommands:
  run      execute a YAML scenario file (tables, fit summaries, Wigner grids)
  pacs     one-off chain query: pattern probability and heralded-state fidelity
  wstate   W-state extraction for an N-stage chain
  wigner   Wigner grid of a named state, written as a plain-text matrix
  sweep    pattern probability across parameter values, with power-law fit

Each quick-look command (pacs, wstate, wigner, sweep) is a one-task
scenario: it builds the mapping a scenario file would hold, checks it with
the scenario validators and runs the same task code as ``run``. An error
names the flag that set the field, by one table (_FIELD_FLAGS).

All outputs are deterministic: identical configs produce byte-identical
files. Every click probability and conditional signal comes from one
walk over the click prefixes (dynamics.walk_patterns). Task runners return
each output path's text as an iterable of chunks, and one writer
(_write_outputs) writes them for every command, only after every task has
returned; a Wigner grid's chunks are blocks of about _BLOCK_VALUES values,
each formatted by floattext.rows_text as the file is written, so a grid
needs about one block of text and its temporaries beyond its array. Exit
codes: 0 success, 1 validation or truncation error (the message names the
field to change), 2 an oversized chain, Wigner spec or grid (a chain's
(signal_dim idler_dim)^2, a state's Wigner coefficients, or a grid's points
beyond DEFAULT_AMPLITUDE_BUDGET), refused before any stage, amplitude or
grid is formed. The environment variable PACSIM_MAX_WORKERS caps task
parallelism.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import yaml

from .analysis import WignerGrid, _herald_on_ladder, fit_power_law, wigner
from .detection import ClickPattern, DetectorModel, outcome_probability
from .dynamics import ChainConfig, StageParams, walk_patterns
from .errors import DimensionBudgetError, ScenarioError, TruncationError
from .fock import (
    PureState,
    _signal_dim_floor,
    default_signal_dim,
    fock_state,
    pacs_state,
    tail_mass,
)

SCHEMA_VERSION = 1
#: Largest size a command may reach, in elements: a chain's
#: (signal_dim idler_dim)^2, a Wigner state's coefficients or a grid's points
DEFAULT_AMPLITUDE_BUDGET = 20_000_000
# the fields each task type accepts besides "type" and "output"
_TASK_FIELDS = {
    "patterns": {"pattern"},
    "project": {"reference_m", "ladder_max", "plain"},
    "sweep": {"param", "values", "pattern", "fit_output"},
    "wigner": {"state", "extent", "step"},
}
_TASK_TYPES = tuple(_TASK_FIELDS)
#: output path -> the file's text as chunks, written in order
Outputs = dict[str, Iterable[str]]
#: values per chunk of a Wigner grid's text; floattext.rows_text's
#: temporaries peak at about 170 bytes a value, so about 0.7 MB a chunk
_BLOCK_VALUES = 4096


# ---------------------------------------------------------------------------
# scenario parsing and validation
# ---------------------------------------------------------------------------

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
    return _is_int(value) or isinstance(value, float)


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _typed(value: Any, is_valid: Callable[[Any], bool], where: str, expected: str) -> Any:
    """``value``, or a ScenarioError naming ``where`` unless ``is_valid(value)``."""
    if not is_valid(value):
        raise ScenarioError(f"{where}: expected {expected}, got {value!r}")
    return value


def _check_fields(mapping: dict, known: set[str], where: str) -> None:
    for key in mapping:
        if key not in known:
            raise ScenarioError(f"{where}: unknown field {key!r}")


def _construct(cls, where: str, **fields):
    """``cls(**fields)``, built one field at a time, so that a ValueError
    names the field ``where.<name>`` that the constructor rejected."""
    given = {}
    for name, value in fields.items():
        given[name] = value
        try:
            built = cls(**given)
        except ValueError as exc:
            raise ScenarioError(f"{where}.{name}: {exc}") from None
    return built


def _parse_stage(raw: dict, where: str) -> StageParams:
    """The ``lam`` and ``idler_dim`` of one stage entry, or of a uniform chain."""
    lam = _typed(_require(raw, "lam", where), _is_number, f"{where}.lam", "a number")
    idler_dim = _typed(raw.get("idler_dim", 4), _is_int, f"{where}.idler_dim", "an integer")
    return _construct(StageParams, where, lam=float(lam), idler_dim=idler_dim)


def _parse_chain(raw: Any) -> ChainConfig:
    if not isinstance(raw, dict):
        raise ScenarioError("chain: expected a mapping")
    uniform = ("lam", "n_stages", "idler_dim")
    _check_fields(raw, {"alpha", "signal_dim", "stages", *uniform}, "chain")
    alpha = _parse_alpha(_require(raw, "alpha", "chain"), "chain.alpha")
    signal_dim = raw.get("signal_dim")
    if signal_dim is not None and (not _is_int(signal_dim) or signal_dim < 2):
        raise ScenarioError(f"chain.signal_dim: expected an integer >= 2, got {signal_dim!r}")
    if "stages" in raw:
        for key in uniform:
            if key in raw:
                raise ScenarioError(
                    f"chain.{key}: not allowed next to chain.stages, which sets every stage"
                )
        if not isinstance(raw["stages"], list) or not raw["stages"]:
            raise ScenarioError("chain.stages: expected a nonempty list")
        stages = []
        for i, entry in enumerate(raw["stages"]):
            where = f"chain.stages[{i}]"
            if not isinstance(entry, dict):
                raise ScenarioError(f"{where}: expected a mapping")
            _check_fields(entry, {"lam", "idler_dim"}, where)
            stages.append(_parse_stage(entry, where))
        widest = max(range(len(stages)), key=lambda i: stages[i].idler_dim)
        idler_field = f"chain.stages[{widest}].idler_dim"
    else:
        stage = _parse_stage(raw, "chain")
        n_stages = _require(raw, "n_stages", "chain")
        if not _is_int(n_stages) or n_stages < 1:
            raise ScenarioError(f"chain.n_stages: expected a positive integer, got {n_stages!r}")
        stages = [stage] * n_stages
        idler_field = "chain.idler_dim"
    if signal_dim is not None:
        signal_field = "chain.signal_dim"
    elif len(stages) > _signal_dim_floor(alpha):
        # N is the larger part of the default cutoff's floor
        signal_field = "chain.stages" if "stages" in raw else "chain.n_stages"
    else:
        signal_field = "chain.alpha"
    idler_dim = max(s.idler_dim for s in stages)
    _check_chain_size(alpha, len(stages), idler_dim, signal_dim, signal_field, idler_field)
    try:
        return ChainConfig(alpha, tuple(stages), signal_dim)
    except ValueError as exc:
        raise ScenarioError(f"chain: {exc}")


def _check_chain_size(
    alpha: complex,
    n_stages: int,
    idler_dim: int,
    signal_dim: int | None,
    signal_field: str,
    idler_field: str,
) -> None:
    """Refuse a chain whose (signal_dim idler_dim)^2 exceeds DEFAULT_AMPLITUDE_BUDGET.

    The largest arrays a chain forms are its Kraus stacks
    (dynamics.stage_kraus) and the walk's products K_k rho, idler_dim
    signal_dim^2 doubles each, so the bound on (signal_dim idler_dim)^2
    covers them with a factor idler_dim to spare; it stays on that square
    so that the same chains are refused. The chain is refused with
    DimensionBudgetError before any stage is built. With no ``signal_dim``
    the default cutoff's floor (fock._signal_dim_floor) is checked before
    the cutoff is searched, then the cutoff itself. ``idler_dim`` is the
    widest idler's cutoff; the message names ``idler_field`` when it is the
    larger one, and ``signal_field`` otherwise.
    """
    if signal_dim is None:
        dims = (cutoff(alpha, n_stages) for cutoff in (_signal_dim_floor, default_signal_dim))
    else:
        dims = (signal_dim,)
    for dim in dims:
        entries = (dim * idler_dim) ** 2
        if entries > DEFAULT_AMPLITUDE_BUDGET:
            field = idler_field if idler_dim > dim else signal_field
            raise DimensionBudgetError(
                f"{field}: a signal cutoff of {dim} and an idler cutoff of {idler_dim} "
                f"give (signal_dim idler_dim)^2 = {entries} entries, above the budget of "
                f"{DEFAULT_AMPLITUDE_BUDGET}"
            )


def _parse_detector(raw: Any) -> DetectorModel:
    if raw is None:
        return DetectorModel.ideal()
    if not isinstance(raw, dict):
        raise ScenarioError("detector: expected a mapping")
    _check_fields(raw, {"eta", "dark_prob"}, "detector")
    return _construct(DetectorModel, "detector", **{
        key: float(_typed(raw.get(key, default), _is_number, f"detector.{key}", "a number"))
        for key, default in (("eta", 1.0), ("dark_prob", 0.0))
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


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: chain, detector and task list.

    ``signal_dim`` is the given chain.signal_dim, the cutoff of every chain
    the scenario runs, or None where each takes its default cutoff.
    """

    chain: ChainConfig
    detector: DetectorModel
    tasks: tuple[dict, ...]
    signal_dim: int | None


def parse_scenario(raw: Any) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: expected a mapping at the top level")
    version = _require(raw, "version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"version: expected {SCHEMA_VERSION}, got {version!r}")
    _check_fields(raw, {"version", "chain", "detector", "mode", "tasks"}, "scenario")
    raw_chain = _require(raw, "chain", "scenario")
    chain = _parse_chain(raw_chain)
    detector = _parse_detector(raw.get("detector"))
    # schema 1 names an evolution mode; both give the same click statistics,
    # so it is checked and selects nothing: every table comes from one walk
    mode = raw.get("mode", "full")
    if mode not in ("full", "sequential"):
        raise ScenarioError(f"mode: expected 'full' or 'sequential', got {mode!r}")
    rawtasks = _require(raw, "tasks", "scenario")
    if not isinstance(rawtasks, list) or not rawtasks:
        raise ScenarioError("tasks: expected a nonempty list")
    signal_dim = raw_chain.get("signal_dim")
    seen_outputs: set[str] = set()
    tasks = tuple(
        _parse_task(entry, chain, f"tasks[{i}]", seen_outputs, signal_dim)
        for i, entry in enumerate(rawtasks)
    )
    return Scenario(chain=chain, detector=detector, tasks=tasks, signal_dim=signal_dim)


def _parse_task(
    entry: Any,
    chain: ChainConfig | None,
    where: str,
    seen_outputs: set[str],
    signal_dim: int | None = None,
) -> dict:
    """One validated task entry; its normalized output paths join ``seen_outputs``."""
    if not isinstance(entry, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    ttype = _require(entry, "type", where)
    if ttype not in _TASK_TYPES:
        raise ScenarioError(f"{where}.type: expected one of {_TASK_TYPES}, got {ttype!r}")
    _check_fields(entry, _TASK_FIELDS[ttype] | {"type", "output"}, where)
    _require(entry, "output", where)
    for path_field in ("output", "fit_output"):
        p = entry.get(path_field)
        if p is None and path_field == "fit_output":
            continue
        if not isinstance(p, str) or not p:
            raise ScenarioError(f"{where}.{path_field}: expected a file path")
        # "a.csv" and "./a.csv" name one file
        path = os.path.normpath(p)
        if path in seen_outputs:
            raise ScenarioError(f"{where}.{path_field}: duplicate output path {p!r}")
        seen_outputs.add(path)
    task = dict(entry)
    _validate_task(task, chain, where, signal_dim)
    return task


def _validate_task(
    task: dict, chain: ChainConfig | None, where: str, signal_dim: int | None
) -> None:
    """Check a task's own fields; only a wigner task may have no chain.

    ``signal_dim`` is the given cutoff (Scenario.signal_dim).
    """
    ttype = task["type"]
    if ttype == "patterns":
        if "pattern" in task and task["pattern"] is not None:
            _parse_pattern(task["pattern"], chain.n_stages, f"{where}.pattern")
    elif ttype == "project":
        m = task.get("reference_m", 1)
        if not _is_int(m) or m < 0 or m > chain.n_stages:
            raise ScenarioError(
                f"{where}.reference_m: expected an integer in 0..{chain.n_stages}, got {m!r}"
            )
        ladder_max = task.get("ladder_max", chain.n_stages)
        if not _is_int(ladder_max) or ladder_max < 0:
            raise ScenarioError(
                f"{where}.ladder_max: expected an integer >= 0, got {ladder_max!r}"
            )
        if not isinstance(task.get("plain", False), bool):
            raise ScenarioError(f"{where}.plain: expected true or false, got {task['plain']!r}")
    elif ttype == "sweep":
        param = task.get("param", "lam")
        if param not in ("lam", "alpha"):
            raise ScenarioError(f"{where}.param: expected 'lam' or 'alpha', got {param!r}")
        fit = task.get("fit_output") is not None
        if fit and param != "lam":
            raise ScenarioError(f"{where}.fit_output: fits are only defined for lam sweeps")
        values, field = _require(task, "values", where), f"{where}.values"
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"{field}: expected a nonempty list")
        for v in values:
            if not _is_number(v) or not 0 < v < math.inf:
                raise ScenarioError(f"{field}: expected positive numbers, got {v!r}")
        if fit and (len(values) < 3 or len(set(values)) != len(values)):
            raise ScenarioError(f"{field}: a fit needs >= 3 distinct values")
        if param == "alpha":
            # every chain of the sweep, at the given cutoff or else at its
            # default, must fit the budget
            idler_dim = max(s.idler_dim for s in chain.stages)
            for v in values:
                alpha = _parse_alpha(v, field)
                _check_chain_size(alpha, chain.n_stages, idler_dim, signal_dim, field, field)
        _parse_pattern(_require(task, "pattern", where), chain.n_stages, f"{where}.pattern")
    elif ttype == "wigner":
        _parse_state_spec(str(_require(task, "state", where)), f"{where}.state")
        for field, default in (("extent", 5.0), ("step", 0.1)):
            v = task.get(field, default)
            if not _is_number(v) or not 0 < v < math.inf:
                raise ScenarioError(f"{where}.{field}: expected a positive number, got {v!r}")
        _check_grid(
            task.get("extent", 5.0), task.get("step", 0.1), f"{where}.extent", f"{where}.step"
        )


def _check_grid(extent: float, step: float, extent_field: str, step_field: str) -> None:
    """Refuse a Wigner grid before any array is formed.

    ScenarioError for one point per axis; DimensionBudgetError for more than
    DEFAULT_AMPLITUDE_BUDGET points over x and p, whose values alone would
    take 8 bytes each.
    """
    # analysis.wigner's axis, np.arange(-extent, extent + step / 2, step), has
    # ceil(span) points, for x and for p alike; span may overflow to inf
    span = (extent + step / 2 + extent) / step
    if span <= 1:
        raise ScenarioError(
            f"{extent_field}: {extent!r} at step {step!r} gives one grid point per axis; "
            "a grid needs two or more"
        )
    side = math.isqrt(DEFAULT_AMPLITUDE_BUDGET)
    if span > side:
        size = f"more than {side} x {side}"
        if math.isfinite(span):
            n = math.ceil(span)
            size = f"{n} x {n} = {n * n}"
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
    (2 dim - 1)^2 entries. A spec that puts this above
    DEFAULT_AMPLITUDE_BUDGET is refused with DimensionBudgetError, first on
    the cutoff's floor, before any amplitude is formed or searched, then on
    the cutoff the state was built with.
    """
    kind, _, arg = spec.partition(":")

    def check_size(dim: int) -> None:
        if (2 * dim - 1) ** 2 > DEFAULT_AMPLITUDE_BUDGET:
            raise DimensionBudgetError(
                f"{where}: {spec!r} needs a Fock cutoff of at least {dim}, so "
                f"{(2 * dim - 1) ** 2} Wigner coefficients, above the budget "
                f"of {DEFAULT_AMPLITUDE_BUDGET}"
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
# formatting helpers
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def wigner_grid_lines(grid: WignerGrid) -> Iterator[str]:
    """The grid's text file in chunks: axis headers, then one row per x.

    Rows follow x and columns p, every value in full repr precision
    (floattext.rows_text). Each block of rows, about _BLOCK_VALUES values,
    is formatted only when the consumer asks for it.
    """
    # imported on first use, so commands that write no grid do not load it:
    # compiling it takes about 3 ms where no bytecode cache is kept
    from .floattext import rows_text

    yield "# wigner grid\n"
    yield "# x: " + rows_text(grid.x_axis[None, :])
    yield "# p: " + rows_text(grid.p_axis[None, :])
    values = grid.values
    rows = max(1, _BLOCK_VALUES // max(1, values.shape[1]))
    for start in range(0, values.shape[0], rows):
        yield rows_text(values[start:start + rows])


def emit_wigner(grid: WignerGrid, path: str | Path) -> None:
    _write_outputs({path: wigner_grid_lines(grid)})


def _write_outputs(outputs: Outputs, outdir: Path | None = None) -> None:
    """Write each output's chunks to its path, under ``outdir`` when given."""
    for rel_path, chunks in outputs.items():
        target = Path(outdir or "", rel_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def load_wigner(path: str | Path) -> WignerGrid:
    """Inverse of emit_wigner: every value read back exactly, -0.0 included."""
    x_axis = p_axis = None
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# x:"):
            x_axis = np.array(line[4:].split(), dtype=float)
        elif line.startswith("# p:"):
            p_axis = np.array(line[4:].split(), dtype=float)
        elif line.startswith("#") or not line.strip():
            continue
        else:
            rows.append(np.array(line.split(), dtype=float))
    if x_axis is None or p_axis is None:
        raise ValueError(f"{path}: missing axis headers")
    widths = {row.size for row in rows}
    if len(rows) != x_axis.size or widths - {p_axis.size}:
        raise ValueError(
            f"{path}: {len(rows)} rows of {sorted(widths)} values do not match axes "
            f"({x_axis.size}, {p_axis.size})"
        )
    values = np.array(rows).reshape(x_axis.size, p_axis.size)
    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values=values)


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def _pattern_row(
    pattern: ClickPattern,
    probability: float,
    rho: np.ndarray,
    reference: Callable[[int], np.ndarray],
) -> list[str]:
    """CSV row of one pattern, read straight from its conditional signal rho.

    ``reference(m)`` gives the amplitudes of the m-photon-added state. An
    impossible outcome reads "0.0" with no fidelity or mean.
    """
    probability = outcome_probability(probability)
    fid = mean_n = None
    if probability > 0.0:
        ref = reference(pattern.n_clicks)
        fid = float((ref.conj() @ rho @ ref).real) / probability
        mean_n = float(np.arange(rho.shape[0]) @ np.diagonal(rho).real) / probability
    return [
        str(pattern), str(pattern.n_clicks), _fmt(probability), _fmt(fid), _fmt(mean_n)
    ]


def _pattern_rows(
    chain: ChainConfig, detector: DetectorModel, pattern: ClickPattern | None = None
) -> list[list[str]]:
    """Rows of every click pattern in lexicographic order, or of ``pattern`` alone."""
    reference = functools.cache(
        lambda m: pacs_state(chain.alpha, m, chain.signal_dim).amplitudes
    )
    return [
        _pattern_row(p, probability, rho, reference)
        for p, probability, rho in walk_patterns(chain, detector, pattern)
    ]


def _run_patterns_task(task: dict, scenario: Scenario) -> Outputs:
    pattern = task.get("pattern")
    if pattern is not None:
        pattern = ClickPattern.from_string(pattern)
    rows = _pattern_rows(scenario.chain, scenario.detector, pattern)
    header = ["pattern", "n_clicks", "probability", "fidelity_vs_pacs_m", "mean_signal_photons"]
    return {task["output"]: [_csv_text(header, rows)]}


def _project_payload(task: dict, scenario: Scenario) -> dict[str, Any]:
    """Signal-side heralding by herald_summary: no joint or idler state, no budget."""
    chain = scenario.chain
    m = task.get("reference_m", 1)
    plain = task.get("plain", False)
    probability, w_fid = _herald_on_ladder(
        chain, m, task.get("ladder_max", chain.n_stages), plain
    )
    return {
        "n_stages": chain.n_stages,
        "reference_m": m,
        "plain_projector": plain,
        "probability": probability,
        "w_fidelity": w_fid if m == 1 else None,
    }


def _run_project_task(task: dict, scenario: Scenario) -> Outputs:
    return {task["output"]: [_json_text(_project_payload(task, scenario))]}


def _run_sweep_task(task: dict, scenario: Scenario) -> Outputs:
    """The pattern's probability with ``param`` set to each value, and its fit."""
    chain, param = scenario.chain, task.get("param", "lam")
    pattern = ClickPattern.from_string(task["pattern"])
    samples = []
    for value in (float(v) for v in task["values"]):
        if param == "lam":
            cfg = ChainConfig(
                chain.alpha,
                tuple(StageParams(value, s.idler_dim) for s in chain.stages),
                chain.signal_dim,
            )
        else:
            # a given cutoff holds every value or raises TruncationError
            cfg = ChainConfig(complex(value), chain.stages, scenario.signal_dim)
        _, probability, _ = next(walk_patterns(cfg, scenario.detector, pattern))
        samples.append((value, outcome_probability(probability)))
    rows = [[_fmt(v), _fmt(p)] for v, p in samples]
    outputs = {task["output"]: [_csv_text([param, "probability"], rows)]}
    if task.get("fit_output"):
        fit = fit_power_law(samples)
        outputs[task["fit_output"]] = [_json_text(
            {
                "exponent": fit.exponent,
                "prefactor": fit.prefactor,
                "r_squared": fit.r_squared,
                "samples": [[l, p] for l, p in fit.samples],
            }
        )]
    return outputs


def _wigner_grid(task: dict) -> tuple[WignerGrid, float]:
    """The task's grid and the probability mass its state's cutoff dropped."""
    state, dropped = _parse_state_spec(str(task["state"]))
    psi = state.amplitudes
    grid = wigner(
        np.outer(psi, psi.conj()), float(task.get("extent", 5.0)), float(task.get("step", 0.1))
    )
    return grid, dropped


def _run_wigner_task(task: dict, scenario: Scenario) -> Outputs:
    return {task["output"]: wigner_grid_lines(_wigner_grid(task)[0])}


_TASK_RUNNERS = {
    "patterns": _run_patterns_task,
    "project": _run_project_task,
    "sweep": _run_sweep_task,
    "wigner": _run_wigner_task,
}


def _max_workers(n_tasks: int) -> int:
    env = os.environ.get("PACSIM_MAX_WORKERS", "")
    cap = min(4, os.cpu_count() or 1)
    if env.strip():
        try:
            cap = max(1, int(env))
        except ValueError:
            raise ScenarioError(f"PACSIM_MAX_WORKERS: expected an integer, got {env!r}")
    return max(1, min(cap, n_tasks))


def run_scenario(config_path: str | Path, outdir: str | Path | None = None) -> int:
    """Execute a scenario file; writes nothing unless every task succeeds."""
    config_path = Path(config_path)
    if outdir is None:
        outdir = Path.cwd()
    outdir = Path(outdir)
    try:
        raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"{config_path}: no such file")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{config_path}: YAML parse error{loc}: {exc}")
    scenario = parse_scenario(raw)

    def run_one(task: dict) -> Outputs:
        return _TASK_RUNNERS[task["type"]](task, scenario)

    workers = _max_workers(len(scenario.tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, scenario.tasks))
    else:
        results = [run_one(task) for task in scenario.tasks]

    # all tasks succeeded; only now format and write (grids row by row)
    for outputs in results:
        _write_outputs(outputs, outdir)
    return 0


# ---------------------------------------------------------------------------
# quick-look subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    return run_scenario(args.config, args.outdir)


#: scenario field -> the quick-look flag that sets it. The pattern
#: commands (pacs, sweep) set chain.n_stages by the length of --pattern.
_FIELD_FLAGS = {
    "chain.alpha": "--alpha",
    "chain.lam": "--lam",
    "chain.idler_dim": "--idler-dim",
    "chain.signal_dim": "--signal-dim",
    "chain.n_stages": "--n",
    "detector.eta": "--eta",
    "detector.dark_prob": "--dark-prob",
    "tasks[0].pattern": "--pattern",
    "tasks[0].values": "--values",
    "tasks[0].output": "--out",
    "tasks[0].fit_output": "--fit-out",
    "tasks[0].state": "--state",
    "tasks[0].extent": "--range",
    "tasks[0].step": "--step",
}


def _one_task_scenario(args, task: dict, n_stages: int) -> Scenario:
    """The one-task scenario a quick-look command stands for, validated by
    parse_scenario; main names each field in an error by its flag."""
    chain = {"alpha": args.alpha, "lam": args.lam, "n_stages": n_stages,
             "idler_dim": args.idler_dim, "signal_dim": args.signal_dim}
    raw = {"version": SCHEMA_VERSION, "chain": chain, "tasks": [task]}
    if hasattr(args, "eta"):  # wstate has no detector flags
        raw["detector"] = {"eta": args.eta, "dark_prob": args.dark_prob}
    return parse_scenario(raw)


def _cmd_pacs(args) -> int:
    # pacs and wstate print their answer, so their output path ("-") is
    # never written; an empty pattern gets one stage for the pattern check
    scenario = _one_task_scenario(
        args, {"type": "patterns", "pattern": args.pattern, "output": "-"},
        max(1, len(args.pattern)),
    )
    pattern = ClickPattern.from_string(args.pattern)
    [[_, n_clicks, probability, fid, _]] = _pattern_rows(
        scenario.chain, scenario.detector, pattern
    )
    print(f"pattern {pattern}: probability = {probability}")
    if fid:
        print(f"fidelity vs {n_clicks}-photon-added state = {fid}")
    else:
        print("impossible outcome")
    return 0


def _cmd_wstate(args) -> int:
    task = {"type": "project", "reference_m": 1, "output": "-"}
    payload = _project_payload(task, _one_task_scenario(args, task, args.n))
    print(f"heralding probability = {payload['probability']!r}")
    if payload["probability"] == 0.0:
        print("impossible outcome")
    else:
        print(f"fidelity vs {args.n}-mode W state = {payload['w_fidelity']!r}")
    return 0


def _cmd_wigner(args) -> int:
    task = {"type": "wigner", "state": args.state, "extent": args.range, "step": args.step,
            "output": args.out}
    _parse_task(task, None, "tasks[0]", set())
    grid, dropped = _wigner_grid(task)
    emit_wigner(grid, args.out)
    print(
        f"wrote {args.out}: {grid.values.shape[0]}x{grid.values.shape[1]} grid, "
        f"min = {grid.minimum()!r}, integral = {grid.integral()!r}"
    )
    # W = tr[rho D Pi D^+] / pi with D Pi D^+ unitary, so the cutoff moves W by
    # at most |psi psi^+ - phi phi^+|_1 / pi = (2 / pi) sqrt(1 - |<psi|phi>|^2)
    bound = 2.0 / math.pi * math.sqrt(dropped)
    print(f"truncation bound: |W - W_exact| <= {bound!r} (cutoff dropped mass {dropped!r})")
    return 0


def _flag_number(text: str) -> float | str:
    """``text`` as a float, or as itself for the validators to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def _cmd_sweep(args) -> int:
    task = {
        "type": "sweep",
        "param": args.param,
        "values": [_flag_number(v) for v in args.values.split(",") if v.strip()],
        "pattern": args.pattern,
        "output": args.out,
        "fit_output": args.fit_out,
    }
    scenario = _one_task_scenario(args, task, max(1, len(args.pattern)))
    outputs = _run_sweep_task(task, scenario)
    _write_outputs(outputs)
    for rel_path in outputs:
        print(f"wrote {rel_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacsim",
        description="cascaded parametric-amplifier simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a YAML scenario file")
    p_run.add_argument("config", help="path to the scenario file")
    p_run.add_argument("--outdir", default=None, help="directory for output files")
    p_run.set_defaults(func=_cmd_run)

    pattern_flags = {**_FIELD_FLAGS, "chain.n_stages": "--pattern"}

    def add_chain_args(p):
        p.add_argument("--alpha", required=True, help="seed coherent amplitude")
        p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True,
                       help="effective interaction strength per stage")
        p.add_argument("--idler-dim", type=int, default=4, dest="idler_dim")
        p.add_argument("--signal-dim", type=int, default=None, dest="signal_dim")

    def add_detector_args(p):
        p.add_argument("--eta", type=float, default=1.0, help="detector efficiency")
        p.add_argument("--dark-prob", type=float, default=0.0, dest="dark_prob")

    p_pacs = sub.add_parser("pacs", help="condition a chain on a click pattern")
    add_chain_args(p_pacs)
    add_detector_args(p_pacs)
    p_pacs.add_argument("--pattern", required=True, help="click pattern, e.g. 10")
    p_pacs.set_defaults(func=_cmd_pacs, flags=pattern_flags)

    p_w = sub.add_parser("wstate", help="extract the N-mode W state")
    add_chain_args(p_w)
    p_w.add_argument("--n", type=int, required=True, help="number of stages")
    p_w.set_defaults(func=_cmd_wstate, flags=_FIELD_FLAGS)

    p_wig = sub.add_parser(
        "wigner",
        help="write a Wigner grid to a text file",
        description=(
            "Write the Wigner grid of a named state to a text file. The time grows "
            "as the cube of the state's Fock cutoff: fock:500 takes about 3 s and "
            "fock:1000 about 26 s on one core. A spec whose (2 dim - 1)^2 Wigner "
            "coefficients exceed 20M exits 2; that bounds memory, not time: "
            "fock:2235, just inside it, would run for about 5 min by the cube law. "
            "A --range and --step whose grid has more than 20M points (x points "
            "times p points) also exit 2, before any array is formed."
        ),
    )
    p_wig.add_argument("--state", required=True,
                       help="state spec: coherent:A | fock:N | pacs:A,M")
    p_wig.add_argument("--range", type=float, default=5.0,
                       help="grid half-width in x and p")
    p_wig.add_argument("--step", type=float, default=0.1)
    p_wig.add_argument("--out", default="wigner.txt")
    p_wig.set_defaults(func=_cmd_wigner, flags=_FIELD_FLAGS)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter and fit the scaling")
    add_chain_args(p_sweep)
    add_detector_args(p_sweep)
    p_sweep.add_argument("--param", choices=("lam", "alpha"), default="lam")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--pattern", required=True)
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.add_argument("--fit-out", default=None, dest="fit_out")
    p_sweep.set_defaults(func=_cmd_sweep, flags=pattern_flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TruncationError, DimensionBudgetError) as exc:
        message = str(exc)
        if isinstance(exc, TruncationError):
            message = f"chain.signal_dim: {message}"
        # a quick-look command names each field by the flag that set it
        for field, flag in getattr(args, "flags", {}).items():
            message = message.replace(field, flag)
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, DimensionBudgetError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
