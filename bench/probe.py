"""One benchmark measurement in a fresh interpreter.

Times the import of ``pacsim.cli`` (the set-up a CLI user pays on every
invocation), then, unless ``--import-only`` is given, one
``pacsim.cli.main(["run", SCENARIO, "--outdir", OUTDIR])`` call. Prints one
JSON line with the measurements and exits with the CLI's exit code.

Right before and right after the call, the process times a fixed calibration
workload (``calibrate``) that uses no ``pacsim`` code. ``run.py`` scales the
times by it (``run.calibrated``), which takes out most of the slowdown other
tenants of a shared machine cause, since it slows the calibration too.

With ``--spans FILE`` the call runs under the span recorder of
``tracer.py`` and the spans are written to FILE after the call returns.

Run by ``run.py`` with ``src`` on PYTHONPATH; not meant to be run by hand.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy operations.

    The mix resembles the program's: Python-level loops and dictionaries,
    operations on 22-element arrays, and passes over a 2 MB array. It
    allocates little, so it does not raise the process's peak memory.
    """
    import numpy

    start = time.perf_counter()
    vector = numpy.arange(22, dtype=complex)
    table = {}
    total = 0.0
    for i in range(60000):
        total += numpy.vdot(vector, vector * 1.5).real
        for j in range(20):
            table[j] = (i, j)
    block = numpy.ones(131072, dtype=complex)
    for _ in range(64):
        block *= 1.0000001
    return time.perf_counter() - start


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario")
    parser.add_argument("--outdir")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    t_import = time.perf_counter()
    import pacsim.cli

    setup_s = time.perf_counter() - t_import
    record = {"setup_s": setup_s}
    if args.import_only:
        print(json.dumps(record))
        return 0

    recorder = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        recorder = tracer.Recorder()
        recorder.install()

    argv = ["run", args.scenario, "--outdir", args.outdir]
    cal_s = calibrate()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if recorder is None:
        code = pacsim.cli.main(argv)
    else:
        code = recorder.call("cli.main", None, pacsim.cli.main, argv)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_s += calibrate()

    if recorder is not None:
        recorder.dump(args.spans)

    import numpy
    import scipy

    record.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        cal_s=cal_s,
        exit_code=code,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        openblas_threads=_openblas_threads(),
    )
    print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
