"""End-to-end and per-layer benchmark of ``pacsim run``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload patterns_full --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 120 --trace 0

Every measured run is a fresh interpreter (``probe.py``) that imports
``pacsim.cli`` from ``src`` and calls ``pacsim.cli.main(["run", SCENARIO,
"--outdir", DIR])`` on one of the committed scenarios in ``scenarios/``, as a
CLI user pays. Every run's outputs are compared with the frozen references
in ``reference/`` (see ``check.py``).

``--trace 0`` reports the end-to-end metrics of the runs. ``--trace 1``
alternates untraced runs with traced ones (``tracer.py``) and reports the
per-layer metrics of the fastest traced run, plus the tracing overhead.

Each end-to-end figure is the median over the invocation's runs. On a
shared machine, other tenants slow a run by up to a factor of two, in wall
and CPU time alike, for stretches of seconds to minutes. So the three times
are calibrated: each run's time is multiplied by
``(CAL_REF_S / cal_s) ** sensitivity``, where ``cal_s`` is the time the same
process took for a fixed calibration workload right before and after the
call (``probe.calibrate``) and the sensitivity is the workload's (see
``WORKLOADS``), or ``SETUP_SENSITIVITY`` for ``setup_s``. They read as seconds on a machine that runs the calibration
in ``CAL_REF_S``. The raw medians and minimums are printed in
the table for people (README.md has the measurements).

Each round of runs holds one run per workload and, with ``--trace 1``, one
traced run per workload. ``--seed`` sets the order of the runs in every
round (with ``--workload all`` or ``--trace 1``), so drift on the machine
falls on all of them alike; the program itself only ever sees the committed
scenarios. Rounds continue until ``--seconds`` is spent, at least
``MIN_BLOCKS`` of them.

The metric names and units come from BENCHMARK.json at the root. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
for people and the environment record. Exit code 0 means the benchmark ran;
whether the program was right is in ``correct``. A fault of the benchmark
itself, such as a counter that differs between runs of the same code, exits
with code 3 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: workload -> (scenario file, reference set, host sensitivity); patterns_full
#: and patterns_seq share one reference table, so every run checks that both
#: paths agree. The sensitivity is the exponent of the calibration (see
#: ``calibrated``): how strongly a busy host slows the workload compared with
#: the calibration. The interpreter-bound pattern runs slow down as much as
#: the calibration does; the array-bound wstate_n9 and phase_space runs about
#: half as much on a log scale (README.md has the fits).
WORKLOADS = {
    "patterns_full": ("patterns_full.yaml", "patterns", 1.0),
    "patterns_seq": ("patterns_seq.yaml", "patterns", 1.0),
    "wstate_n9": ("wstate_n9.yaml", "wstate_n9", 0.5),
    "phase_space": ("phase_space.yaml", "phase_space", 0.5),
}

#: Settings every measured process runs with: one BLAS thread and at most two
#: CLI task threads, so a run never has more compute threads than the two
#: cores it was sized on.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PACSIM_MAX_WORKERS": "2",
}
MIN_BLOCKS = 2
#: Calibration time (both passes) that calibrated times are scaled to: about
#: the fastest the calibration ran on a two-core Xeon (Sapphire Rapids) VM.
CAL_REF_S = 0.46
#: Host sensitivity of the import that ``setup_s`` times; reading files and
#: running module bodies slows down about three quarters as much as the
#: calibration on a log scale (README.md has the fit).
SETUP_SENSITIVITY = 0.75
CHILD_TIMEOUT_S = 150
#: Units of metrics that must repeat exactly across runs of the same code.
EXACT_UNITS = ("count", "bytes")
#: Per-layer metrics printed in the table but not declared in BENCHMARK.json:
#: the sequential path runs only on patterns_seq, which does not gate, and the
#: last two describe the tracer rather than a cost of the program.
TABLE_ONLY = {
    "dynamics.run_chain_sequential.calls": "count",
    "dynamics.run_chain_sequential.s": "s",
    "dynamics.run_chain_sequential.self_s": "s",
    "dynamics.run_chain_sequential.branches": "count",
    "cli.threads": "count",
    "trace.spans": "count",
}


class HarnessError(Exception):
    """A fault of the benchmark, not of the program under test."""


@dataclass
class Run:
    kind: str  # "run", "trace" or "probe" (import only, before measuring)
    workload: str | None
    record: dict | None = None
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0
    layers: dict | None = None


class Runner:
    """Starts measured processes one at a time and checks what they wrote."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.env = dict(os.environ, **CHILD_ENV)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def __call__(self, kind: str, workload: str | None = None) -> Run:
        self.count += 1
        rundir = self.work / str(self.count)
        outdir = rundir / "out"
        spans = rundir / "spans.json"
        rundir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH_DIR / "probe.py")]
        if kind == "probe":
            cmd.append("--import-only")
        else:
            scenario = BENCH_DIR / "scenarios" / WORKLOADS[workload][0]
            cmd += ["--scenario", str(scenario), "--outdir", str(outdir)]
        if kind == "trace":
            cmd += ["--spans", str(spans)]
        run = Run(kind, workload)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            run.problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
            shutil.rmtree(rundir, ignore_errors=True)
            return run
        lines = proc.stdout.strip().splitlines()
        try:
            run.record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            run.record = None
            run.problems.append("no measurement printed")
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            run.problems.append(f"exit code {proc.returncode}: {tail}")
        if kind != "probe":
            refdir = BENCH_DIR / "reference" / WORKLOADS[workload][1]
            outdir.mkdir(exist_ok=True)
            run.problems += check.compare_outputs(outdir, refdir)
            run.output_bytes = sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        if kind == "trace" and spans.is_file():
            data = json.loads(spans.read_text(encoding="utf-8"))
            try:
                run.layers = tracer.layer_metrics(data["spans"], data["counters"])
            except ValueError as exc:
                raise HarnessError(f"trace of {workload}: {exc}") from exc
        shutil.rmtree(rundir, ignore_errors=True)
        return run


def _schedule(workloads: list[str], trace: bool, rng: random.Random):
    """Endless rounds in seeded order (see the module docstring)."""
    kinds = ("run", "trace") if trace else ("run",)
    while True:
        block = [(kind, w) for w in workloads for kind in kinds]
        rng.shuffle(block)
        yield block


def measure(workloads: list[str], trace: bool, seed: int, seconds: float,
            runner: Runner) -> list[Run]:
    """Run rounds until the next one would likely end after ``seconds``."""
    runs = []
    start = time.monotonic()
    for n, block in enumerate(_schedule(workloads, trace, random.Random(seed))):
        elapsed = time.monotonic() - start
        if n >= MIN_BLOCKS and elapsed + elapsed / n > seconds:
            break
        runs += [runner(kind, workload) for kind, workload in block]
    return runs


def _median(values):
    return statistics.median(values) if values else None


def _exact(name: str, values: list, workload: str):
    if len(set(values)) > 1:
        raise HarnessError(f"{workload}: counter {name} differs between runs: {sorted(set(values))}")
    return values[0] if values else None


def samples(runs: list[Run], workload: str, kind: str = "run") -> dict[str, list[float]]:
    """Each end-to-end quantity over the workload's good runs of ``kind``.

    A run that failed is counted in ``failed``, never timed: a run that stops
    early would otherwise pass for a fast one.
    """
    timed = [r.record for r in runs
             if r.kind == kind and r.workload == workload and r.record and not r.problems]
    names = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "cal_s")
    return {name: [rec[name] for rec in timed] for name in names}


def calibrated(values: dict[str, list[float]], name: str, sensitivity: float) -> list[float]:
    """Each run's ``name`` scaled to the reference calibration time."""
    return [v * (CAL_REF_S / cal) ** sensitivity
            for v, cal in zip(values[name], values["cal_s"])]


def end_to_end(runs: list[Run], workload: str) -> dict[str, float | None]:
    values = samples(runs, workload)
    sensitivity = WORKLOADS[workload][2]
    return {
        "wall_s": _median(calibrated(values, "wall_s", sensitivity)),
        "cpu_s": _median(calibrated(values, "cpu_s", sensitivity)),
        "setup_s": _median(calibrated(values, "setup_s", SETUP_SENSITIVITY)),
        "peak_rss_mb": _median(values["peak_rss_mb"]),
    }


def per_layer(runs: list[Run], workload: str, units: dict[str, str]) -> dict[str, float | None]:
    """Metrics of the fastest good traced run; counters checked over all good runs."""
    mine = [r for r in runs if r.workload == workload and not r.problems]
    traced = [r.layers for r in mine if r.kind == "trace" and r.layers is not None]
    if not traced:
        return {}
    fastest = min(traced, key=lambda layers: layers["trace.wall_s"])
    metrics = {}
    for name, unit in units.items():
        if unit in EXACT_UNITS:
            metrics[name] = _exact(name, [layers.get(name, 0) for layers in traced], workload)
        else:
            metrics[name] = fastest.get(name, 0.0)
    metrics["cli.output_bytes"] = _exact(
        "cli.output_bytes", [r.output_bytes for r in mine], workload
    )
    sensitivity = WORKLOADS[workload][2]
    untraced = calibrated(samples(runs, workload), "wall_s", sensitivity)
    traced_walls = calibrated(samples(runs, workload, "trace"), "wall_s", sensitivity)
    if untraced and traced_walls:
        metrics["trace.overhead_s"] = _median(traced_walls) - _median(untraced)
    return metrics


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pacsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(runs: list[Run], args) -> dict:
    record = next((r.record for r in runs if r.record and "numpy" in r.record), {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": record.get("python"),
        "numpy": record.get("numpy"),
        "scipy": record.get("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "openblas_threads": record.get("openblas_threads"),
        "cli_max_workers": int(CHILD_ENV["PACSIM_MAX_WORKERS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{value:.0f}"
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of pacsim run")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pacsim" / "cli.py").is_file():
        print(f"error: no pacsim sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in declared}
    shown = {**units, **TABLE_ONLY} if args.trace else units
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    runner = Runner(work)
    try:
        warmup = runner("probe")  # compiles bytecode and warms the page cache
        if warmup.problems:
            print("error: cannot import pacsim.cli: " + "; ".join(warmup.problems),
                  file=sys.stderr)
            return 2
        runs = measure(workloads, bool(args.trace), args.seed, args.seconds, runner)
        per_workload = {
            w: per_layer(runs, w, shown) if args.trace else end_to_end(runs, w)
            for w in workloads
        }
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [r for r in runs if r.problems]
    for w in workloads:
        mine = [r for r in runs if r.workload == w]
        bad = [r for r in mine if r.problems]
        print(f"{w}: {len(mine)} runs, {len(bad)} failed "
              f"(failed_frac {len(bad) / len(mine):.3g})")
        spread = samples(runs, w) if not args.trace else {}
        for name, unit in shown.items():
            line = f"  {name:42s} {_fmt(per_workload[w].get(name)):>14s} {unit:6s}"
            if spread.get(name):
                values = spread[name]
                line += (f" (raw median {_fmt(_median(values))}, min {_fmt(min(values))}, "
                         f"max {_fmt(max(values))}, {len(values)} runs)")
            print(line)
        if spread.get("cal_s"):
            print(f"  {'calibration (cal_s, raw)':42s} {_fmt(_median(spread['cal_s'])):>14s} s      "
                  f"(min {_fmt(min(spread['cal_s']))}, max {_fmt(max(spread['cal_s']))})")
    for r in failed:
        print(f"FAILED {r.kind} {r.workload}: " + "; ".join(r.problems[:5]))
    print("env " + json.dumps(environment(runs, args), sort_keys=True))

    metrics = {}
    for w in workloads:
        for name, unit in units.items():
            key = name if args.workload != "all" else f"{w}/{name}"
            value = per_workload[w].get(name)
            metrics[key] = {"value": 0 if value is None else value, "unit": unit}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
