"""Span recording for the traced benchmark run, and the per-layer split.

``Recorder.install`` wraps the pacsim functions listed in ``TRACED``. The
package imports by name (``from .dynamics import run_chain_full``), so every
attribute of a loaded ``pacsim`` module that holds the original function is
replaced by the same wrapper, whichever module the caller bound it from.
Each call records a span ``(id, parent, name, thread, start, end)`` in memory;
a per-thread stack supplies the parent. Tasks that the CLI hands to its
thread pool get a ``cli.task`` span whose parent is the span that submitted
them, so work on worker threads links back to ``cli.run_scenario``.

``layer_metrics`` turns the spans into the per-layer numbers. A span's self
time is the wall time during which it is the innermost open span on its
thread, divided by the number of threads doing such work at that instant. A
span waiting for its tasks on other threads is not doing work, so the CLI's
pool wait is reported apart. With these rules the layer self times add up to
the traced wall time even when the CLI runs tasks on several threads.

This module must not import pacsim or numpy at module level: ``run.py``
imports it to analyse spans without loading the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: Functions wrapped in the traced run, by defining module. The layer of a
#: span is the last component of the module name.
TRACED = {
    "pacsim.cli": ("parse_scenario", "run_scenario", "wigner_grid_text"),
    "pacsim.analysis": ("wigner", "extract_w_state", "fit_power_law"),
    "pacsim.detection": ("enumerate_patterns", "condition_on_pattern", "project_signal"),
    "pacsim.dynamics": ("run_chain_full", "run_chain_sequential", "stage_unitary"),
    "pacsim.fock": ("mean_photon_number", "fidelity_ensemble", "pacs_state"),
}
LAYERS = ("cli", "analysis", "detection", "dynamics", "fock")


def _branches(conditional) -> int:
    return 0 if conditional.ensemble is None else len(conditional.ensemble.branches)


#: Problem-size counters read off return values: span name -> (counter, size).
RESULT_COUNTERS = {
    "detection.enumerate_patterns": ("detection.patterns", len),
    "detection.condition_on_pattern": ("detection.branches", _branches),
    "dynamics.run_chain_sequential": ("dynamics.run_chain_sequential.branches", _branches),
    "dynamics.run_chain_full": ("dynamics.joint_amplitudes", lambda joint: joint.amplitudes.size),
    "analysis.wigner": ("analysis.wigner.points", lambda grid: grid.values.size),
}


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.index = next(self._thread_ids)
        return local

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def call(self, name, parent, fn, *args, **kwargs):
        """Call ``fn`` inside a span; a ``parent`` of None means this thread's open span."""
        state = self._thread_state()
        stack = state.stack
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, state.index, start, end))

    def current(self):
        stack = self._thread_state().stack
        return stack[-1] if stack else None

    def wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, None, fn, *args, **kwargs)
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the TRACED functions, count PureState constructions and link pool tasks."""
        modules = [m for n, m in sys.modules.items() if n == "pacsim" or n.startswith("pacsim.")]
        for module_name, names in TRACED.items():
            module = sys.modules.get(module_name)
            layer = module_name.rsplit(".", 1)[1]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        setattr(m, attr, wrapper)

        pure_state = sys.modules["pacsim.fock"].PureState
        post_init = pure_state.__post_init__

        def counted_post_init(state):
            self.count("fock.pure_states")
            post_init(state)

        pure_state.__post_init__ = counted_post_init

        cli = sys.modules["pacsim.cli"]
        executor = getattr(cli, "ThreadPoolExecutor", None)
        if executor is not None:
            recorder = self

            class TracedExecutor(executor):
                def submit(self, fn, /, *args, **kwargs):
                    return super().submit(
                        recorder.call, "cli.task", recorder.current(), fn, *args, **kwargs
                    )

            cli.ThreadPoolExecutor = TracedExecutor

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


# ---------------------------------------------------------------------------
# analysis (runs in run.py, outside the measured process)
# ---------------------------------------------------------------------------

def _merge(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _subtract(start, end, holes):
    """Pieces of [start, end) outside the merged, sorted ``holes``."""
    pieces = []
    for h_start, h_end in holes:
        if h_end <= start or h_start >= end:
            continue
        if h_start > start:
            pieces.append((start, h_start))
        start = max(start, h_end)
    if end > start:
        pieces.append((start, end))
    return pieces


def _innermost_segments(spans):
    """(start, end, span_id) pieces during which each span is innermost on its thread."""
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span[3]].append(span)
    segments = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s[4], -s[5]))
        stack = []
        cursor = None
        for span in thread_spans:
            while stack and stack[-1][5] <= span[4]:
                top = stack.pop()
                segments.append((cursor, top[5], top[0]))
                cursor = top[5]
            if stack:
                segments.append((cursor, span[4], stack[-1][0]))
            stack.append(span)
            cursor = span[4]
        while stack:
            top = stack.pop()
            segments.append((cursor, top[5], top[0]))
            cursor = top[5]
    return [s for s in segments if s[1] > s[0]]


def self_times(spans):
    """Per-span self time shared among busy threads, plus the total pool wait."""
    by_id = {s[0]: s for s in spans}
    waits = defaultdict(list)
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None and parent[3] != span[3]:
            waits[parent[0]].append((span[4], span[5]))
    waits = {k: _merge(v) for k, v in waits.items()}

    pieces = []
    waited = 0.0
    for start, end, span_id in _innermost_segments(spans):
        if span_id in waits:
            kept = _subtract(start, end, waits[span_id])
            waited += (end - start) - sum(b - a for a, b in kept)
            pieces.extend((a, b, span_id) for a, b in kept)
        else:
            pieces.append((start, end, span_id))

    # sweep: between consecutive boundaries, split the interval evenly among
    # the pieces open across it (one per busy thread)
    events = sorted(
        [(a, 1, i) for i, (a, _, _) in enumerate(pieces)]
        + [(b, 0, i) for i, (_, b, _) in enumerate(pieces)]
    )
    own = defaultdict(float)
    open_pieces = set()
    last = None
    for t, kind, i in events:
        if open_pieces and t > last:
            share = (t - last) / len(open_pieces)
            for j in open_pieces:
                own[pieces[j][2]] += share
        last = t
        if kind:
            open_pieces.add(i)
        else:
            open_pieces.discard(i)
    return own, waited


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer numbers of one traced run.

    For every span name N: ``N.calls``, ``N.s`` (inclusive seconds) and
    ``N.self_s``; for every layer L: ``L.self_s``; plus ``cli.pool_wait_s``,
    ``cli.threads``, ``trace.wall_s``, ``trace.spans`` and the counters.
    Raises ValueError when the layer self times do not add up to the traced
    wall time, which would be a fault of this module.
    """
    spans = [tuple(s) for s in spans]
    own, waited = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    metrics.update({f"{name}.calls": n for name, n in Counter(s[2] for s in spans).items()})
    for span_id, _, name, _, start, end in spans:
        metrics[f"{name}.s"] += end - start
        metrics[f"{name}.self_s"] += own.get(span_id, 0.0)
        metrics[f"{name.split('.')[0]}.self_s"] += own.get(span_id, 0.0)
    metrics.update(counters)
    roots = [s for s in spans if s[2] == "cli.main"]
    if len(roots) != 1:
        raise ValueError(f"expected one cli.main span, found {len(roots)}")
    wall = roots[0][5] - roots[0][4]
    accounted = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(accounted - wall) > 1e-6 * wall + 1e-6:
        raise ValueError(f"layer self times add up to {accounted!r} s, traced wall is {wall!r} s")
    metrics["cli.pool_wait_s"] = waited
    metrics["cli.threads"] = len({s[3] for s in spans})
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(spans)
    return dict(metrics)
