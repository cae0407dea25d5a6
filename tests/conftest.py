"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pacsim


@pytest.fixture
def run_python():
    """Run ``python *args`` in a fresh interpreter that imports this pacsim."""
    src = str(Path(pacsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True
        )

    return run


@pytest.fixture
def no_joint_state(monkeypatch):
    """Make every binding of run_chain_full raise."""
    original = pacsim.dynamics.run_chain_full

    def forbidden(*args, **kwargs):
        raise AssertionError("run_chain_full was called")

    for name, module in list(sys.modules.items()):
        if name == "pacsim" or name.startswith("pacsim."):
            if getattr(module, "run_chain_full", None) is original:
                monkeypatch.setattr(module, "run_chain_full", forbidden)
    assert pacsim.dynamics.run_chain_full is forbidden
