"""Outside-in tracing of wbgame's layers for the benchmark's traced run.

Each traced function is replaced, in every ``wbgame`` module namespace that
bound it (``analysis.solve``, ``solver.validate_tree``, the package root, ...),
by a wrapper that records a span: identifier, parent, name, start and end.
Every thread keeps its own span stack and span list, so the sweep's thread
pool never interleaves stacks and no lock is taken per call. A span opened on
a pool thread with an empty stack takes as parent the innermost span open on
the client thread, which sits blocked inside the call that started the pool;
that is how ``analysis.sweep``'s self time comes to be the pool and row
overhead alone. ``solver.risk_transform`` runs about forty times per solve, so
it is counted, not timed.

Spans stay in memory while ops run. :meth:`Tracer.summary` reduces them after
the run and :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: module -> functions recorded as spans
SPANNED = {
    "scenario": ("load_scenario",),
    "model": ("build_game", "validate_parameters"),
    "tree": ("validate_tree", "terminal_reach_probabilities", "check_profile"),
    "solver": ("solve",),
    "analysis": (
        "class_distribution", "sweep", "find_threshold", "grid_scan_flip",
        "lever_report", "simulate",
    ),
    "oracle": ("brute_force_spe",),
}
#: module -> functions counted without timing
COUNTED = {"solver": ("risk_transform",)}

#: counter of ``validate_parameters`` calls that found no problem
VALIDATE_PASSED = "model.validate_parameters.passed"


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[int] = []
        #: (span id, parent id or 0, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    self_ns: int
    total_ns: int


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    """Span recorder for the functions in SPANNED and COUNTED.

    Create it after ``wbgame`` is imported. Wrappers are patched in only
    inside :meth:`active`, so code outside that block runs untouched.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._client: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "wbgame" or k.startswith("wbgame.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod_name, fn_names in table.items():
                home = sys.modules[f"wbgame.{mod_name}"]
                for fn_name in fn_names:
                    orig = getattr(home, fn_name)
                    wrapper = make(f"{mod_name}.{fn_name}", orig)
                    for mod in modules:
                        if vars(mod).get(fn_name) is orig:
                            self._patches.append((mod, fn_name, orig, wrapper))

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def _span(self, name: str, fn):
        ids, clock, client = self._ids, time.perf_counter_ns, self._client
        passed = name == "model.validate_parameters"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = client[-1]
                except IndexError:
                    parent = 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.spans.append((sid, parent, name, start, end))
            if passed and not result:
                state.counts[VALIDATE_PASSED] += 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def active(self):
        """Trace calls made inside the block; the calling thread is the client."""
        # pool threads read the client's live stack through this shared list
        self._state().stack = self._client
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig, _ in self._patches:
                setattr(mod, attr, orig)

    def _all_spans(self):
        return [span for state in self._threads for span in state.spans]

    def summary(self) -> tuple[dict[str, LayerTotals], Counter[str]]:
        """Per-function calls, self time and total time, plus the counters.

        Self time is a span's duration minus the union of its children's
        intervals, children on pool threads included.
        """
        spans = self._all_spans()
        children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, start, end in spans:
            if parent:
                children[parent].append((start, end))
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        for sid, _, name, start, end in spans:
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - _covered(children.get(sid, []), start, end)
        counts: Counter[str] = Counter()
        for state in self._threads:
            counts.update(state.counts)
        totals = {name: LayerTotals(calls[name], self_ns[name], total_ns[name]) for name in calls}
        return totals, counts

    def calls_within(self, name: str, ancestors: set[str]) -> int:
        """Spans named ``name`` that have an ancestor named in ``ancestors``."""
        spans = self._all_spans()
        info = {sid: (parent, span_name) for sid, parent, span_name, _, _ in spans}
        found = 0
        for _, parent, span_name, _, _ in spans:
            if span_name != name:
                continue
            node = parent
            while node:
                node, node_name = info[node]
                if node_name in ancestors:
                    found += 1
                    break
        return found

    def write(self, path) -> int:
        """Dump every span as one JSON line ``[thread, id, parent, name, start_ns, end_ns]``."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for thread, state in enumerate(self._threads):
                for span in state.spans:
                    fh.write(json.dumps((thread, *span), separators=(",", ":")))
                    fh.write("\n")
                    written += 1
        return written
