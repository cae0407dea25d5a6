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


#: More levels than any signal cutoff of the chains the guarded tests run
#: (at most 25 there), and fewer than the flattened idler state of a
#: three-stage chain (4^3 = 64) or its joint signal-idler state (ds 4^3).
SIGNAL_LEVELS_MAX = 32


@pytest.fixture
def signal_states_only(monkeypatch):
    """Make building any PureState of more than SIGNAL_LEVELS_MAX levels raise.

    No package path forms the joint signal-idler state or an idler state:
    every answer is read off the signal, and a PureState holds one mode, so
    such a state could only be smuggled in as a long flattened vector.
    """
    post_init = pacsim.PureState.__post_init__

    def signal_sized(state):
        post_init(state)
        if state.dim > SIGNAL_LEVELS_MAX:
            raise AssertionError(f"a state of {state.dim} levels was built")

    monkeypatch.setattr(pacsim.PureState, "__post_init__", signal_sized)
