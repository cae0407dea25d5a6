"""Compare a scenario's output directory with its frozen reference.

References are compared numerically, not by digest: a legitimate reordering
of floating-point arithmetic changes the last bits of a result.

- CSV and JSON outputs: text fields must be equal; numbers must agree to
  ``REL_TOL`` relative (probabilities, fidelities, mean photon numbers and
  fit values; acceptance criteria 7 and 10 of the test suite).
- Wigner grids (stored as ``<output>.npz``): axes and values must agree to
  ``WIGNER_ABS_TOL`` absolute. Grid values are stored as integer multiples
  of ``WIGNER_QUANTUM``, far below the tolerance, which keeps the files small.

The output directory must hold exactly the files the reference names.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-8
WIGNER_ABS_TOL = 1e-9
WIGNER_QUANTUM = 1e-12
GRID_SUFFIX = ".npz"


def read_wigner(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes and values of a grid written by ``pacsim run`` (``# x:``/``# p:`` headers)."""
    x_axis = p_axis = None
    body = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# x:"):
            x_axis = np.array(line[4:].split(), dtype=float)
        elif line.startswith("# p:"):
            p_axis = np.array(line[4:].split(), dtype=float)
        elif line and not line.startswith("#"):
            body.append(line)
    if x_axis is None or p_axis is None:
        raise ValueError("missing axis header")
    values = np.array(" ".join(body).split(), dtype=float)
    return x_axis, p_axis, values.reshape(x_axis.size, p_axis.size)


def save_wigner_reference(output: Path, reference: Path) -> None:
    x_axis, p_axis, values = read_wigner(output)
    quantized = np.rint(values / WIGNER_QUANTUM).astype(np.int64)
    np.savez_compressed(reference, x=x_axis, p=p_axis, values=quantized)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(got: Path, want: Path) -> list[str]:
    got_rows = list(csv.reader(got.read_text(encoding="utf-8").splitlines()))
    want_rows = list(csv.reader(want.read_text(encoding="utf-8").splitlines()))
    if len(got_rows) != len(want_rows):
        return [f"{got.name}: {len(got_rows)} rows, reference has {len(want_rows)}"]
    problems = []
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        if len(g_row) != len(w_row):
            problems.append(f"{got.name} row {i}: {len(g_row)} fields, reference has {len(w_row)}")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if g == w:
                continue
            g_num, w_num = _number(g), _number(w)
            if g_num is None or w_num is None or not _close(g_num, w_num):
                problems.append(f"{got.name} row {i} field {j}: {g!r}, reference {w!r}")
    return problems


def _compare_json(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ from the reference"]
        return [p for k in sorted(want) for p in _compare_json(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: list differs in length from the reference"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare_json(g, w, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(want, numeric) and not isinstance(want, bool)
            and isinstance(got, numeric) and not isinstance(got, bool)):
        return [] if _close(float(got), float(want)) else [f"{where}: {got!r}, reference {want!r}"]
    return [] if got == want else [f"{where}: {got!r}, reference {want!r}"]


def _compare_wigner(got: Path, want: Path) -> list[str]:
    x_axis, p_axis, values = read_wigner(got)
    with np.load(want) as ref:
        expected = (ref["x"], ref["p"], ref["values"] * WIGNER_QUANTUM)
    problems = []
    for label, g, w in zip(("x axis", "p axis", "values"), (x_axis, p_axis, values), expected):
        if g.shape != w.shape:
            problems.append(f"{got.name}: {label} shape {g.shape}, reference {w.shape}")
            continue
        worst = float(np.max(np.abs(g - w)))
        if not worst <= WIGNER_ABS_TOL:
            problems.append(f"{got.name}: {label} differ from the reference by {worst!r}")
    return problems


def compare_outputs(outdir: Path, refdir: Path) -> list[str]:
    """Every difference between ``outdir`` and ``refdir``; empty when they agree."""
    expected = {p.name.removesuffix(GRID_SUFFIX): p for p in refdir.iterdir()}
    produced = {p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file()}
    problems = [f"unexpected output {name}" for name in sorted(produced - set(expected))]
    problems += [f"missing output {name}" for name in sorted(set(expected) - produced)]
    for name in sorted(produced & set(expected)):
        got, want = outdir / name, expected[name]
        try:
            if want.suffix == GRID_SUFFIX:
                problems += _compare_wigner(got, want)
            elif want.suffix == ".csv":
                problems += _compare_csv(got, want)
            else:
                problems += _compare_json(
                    json.loads(got.read_text(encoding="utf-8")),
                    json.loads(want.read_text(encoding="utf-8")),
                    name,
                )
        except (ValueError, OSError, csv.Error) as exc:
            problems.append(f"{name}: unreadable ({exc})")
    return problems
