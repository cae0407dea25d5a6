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
