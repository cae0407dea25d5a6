"""The benchmark's scenarios reproduce its frozen references in tier-1.

Each scenario of bench/scenarios runs through cli.run_scenario into a
temporary directory, and bench/check.compare_outputs compares the files
with bench/reference at the benchmark's own tolerances. The bench files are
read, never written, so a change that moves a benchmark answer fails here
and not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pacsim.cli import run_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    """bench/<name>.py, imported with bench/ on the path as run.py expects."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


check = _bench_module("check")
WORKLOADS = _bench_module("run").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_scenario_reproduces_its_reference(tmp_path, capsys, workload):
    scenario, reference, _ = WORKLOADS[workload]
    out = tmp_path / workload
    assert run_scenario(BENCH / "scenarios" / scenario, out) == 0
    capsys.readouterr()
    assert check.compare_outputs(out, BENCH / "reference" / reference) == []
