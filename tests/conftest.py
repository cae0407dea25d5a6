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
def no_multimode_state(monkeypatch):
    """Make building any multimode PureState raise.

    No package path forms the joint signal-idler state or an idler state:
    every answer is read off the signal.
    """
    post_init = pacsim.PureState.__post_init__

    def single_mode_only(state):
        if state.space.n_modes > 1:
            raise AssertionError(f"a multimode state was built: {state.space.labels}")
        post_init(state)

    monkeypatch.setattr(pacsim.PureState, "__post_init__", single_mode_only)
