"""Regenerate the frozen references in ``reference/`` from the current code.

    python3 bench/make_reference.py

Runs each reference set's scenario once through ``pacsim run`` (with the
benchmark's thread settings) and stores its outputs: CSV and JSON files as
written, Wigner grids as compressed ``.npz`` (see ``check.py``). The
references were made from the code the benchmark was first committed with;
rerun this only when a change of results is intended and reviewed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import check
from run import BENCH_DIR, CHILD_ENV, ROOT, WORKLOADS


def main() -> int:
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    made = set()
    for scenario, refset in WORKLOADS.values():
        if refset in made:
            continue
        made.add(refset)
        refdir = BENCH_DIR / "reference" / refset
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            subprocess.run(
                [sys.executable, "-m", "pacsim.cli", "run",
                 str(BENCH_DIR / "scenarios" / scenario), "--outdir", tmp],
                env=env, check=True,
            )
            shutil.rmtree(refdir, ignore_errors=True)
            refdir.mkdir(parents=True)
            for output in sorted(Path(tmp).iterdir()):
                if output.read_text(encoding="utf-8").startswith("# wigner grid"):
                    check.save_wigner_reference(output, refdir / (output.name + check.GRID_SUFFIX))
                else:
                    shutil.copyfile(output, refdir / output.name)
                print(f"{refset}: {output.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
