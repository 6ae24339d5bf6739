"""In-memory span tracer for the benchmark's traced run.

The tracer wraps named functions of the ``distparse`` modules from the
outside: the wrapper is installed in every loaded ``distparse`` module
namespace that bound the function, so a call made through an imported
name (``metrics`` binds ``leaves`` with ``from .treebank import ...``)
is recorded as well.  Each recorded call is a span: name, thread, start,
end and the span that caused it.

Self time is a span's duration minus the durations of its direct child
spans on the same thread.  A function already open on the current
thread's stack is called straight through, so a recursive function
(``leaves``, ``binarize``) gives one span for its outermost call only.
Spans opened on worker threads (the ``parse --jobs`` pool) have no
parent, so the span that waits on the pool keeps the wait in its own
self time.

Spans stay in memory until :meth:`Tracer.write_spans`; aggregates are
kept per thread and merged on demand, so recording takes no lock.  The
only lock guards the CPU-over-wall accounting of ``predictor`` spans,
which measures process CPU time over the union of the intervals in
which any thread has such a span open.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

MAX_SPANS = 200_000      # spans kept in memory per thread
CPU_PREFIX = "predictor."  # spans whose CPU over wall time is accounted


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack = []      # open frames: [name, span id, child seconds]
        self.open = {}       # name -> open count on this thread
        self.stats = {}      # name -> [calls, self seconds]
        self.spans = []      # (id, parent id, thread, name, start, end)


class Tracer:
    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.enabled = False
        self.keep_spans = True
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count()
        self._installed = []  # (namespace, attribute, original)
        self._cpu_lock = threading.Lock()
        self._cpu_open = 0
        self._cpu_start = (0.0, 0.0)
        self.cpu_wall_s = 0.0
        self.cpu_s = 0.0

    # -- installation --------------------------------------------------

    def install(self, module, names, package: str = "distparse") -> None:
        """Wrap ``module.<name>`` for each name, in every loaded module of
        ``package`` whose namespace holds the same function object."""
        short = module.__name__.rsplit(".", 1)[-1]
        spaces = [m for key, m in sorted(sys.modules.items())
                  if m is not None and (key == package
                                        or key.startswith(package + "."))]
        for name in names:
            original = getattr(module, name)
            wrapper = self._wrap(f"{short}.{name}", original)
            for ns in spaces:
                if ns.__dict__.get(name) is original:
                    setattr(ns, name, wrapper)
                    self._installed.append((ns, name, original))

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._installed):
            setattr(ns, name, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            if state.open.get(name):
                return fn(*args, **kwargs)
            with tracer._open(state, name):
                return fn(*args, **kwargs)

        return wrapper

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._states_lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code."""
        if not self.enabled:
            yield
            return
        with self._open(self._state(), name):
            yield

    @contextmanager
    def _open(self, state: _ThreadState, name: str):
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        frame = [name, span_id, 0.0]
        state.stack.append(frame)
        state.open[name] = state.open.get(name, 0) + 1
        timed_cpu = name.startswith(CPU_PREFIX)
        if timed_cpu:
            self._cpu_enter()
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            if timed_cpu:
                self._cpu_exit()
            state.stack.pop()
            state.open[name] -= 1
            duration = end - start
            entry = state.stats.get(name)
            if entry is None:
                entry = state.stats[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if self.keep_spans and len(state.spans) < MAX_SPANS:
                state.spans.append((span_id, parent[1] if parent else None,
                                    state.index, name, start, end))

    def _cpu_enter(self) -> None:
        with self._cpu_lock:
            if self._cpu_open == 0:
                self._cpu_start = (self._clock(), self._cpu_clock())
            self._cpu_open += 1

    def _cpu_exit(self) -> None:
        with self._cpu_lock:
            self._cpu_open -= 1
            if self._cpu_open == 0:
                wall0, cpu0 = self._cpu_start
                self.cpu_wall_s += self._clock() - wall0
                self.cpu_s += self._cpu_clock() - cpu0

    # -- results -------------------------------------------------------

    def stats(self) -> dict:
        """name -> (calls, self seconds), merged over threads."""
        merged = {}
        for state in self._states:
            for name, (calls, self_s) in list(state.stats.items()):
                c, s = merged.get(name, (0, 0.0))
                merged[name] = (c + calls, s + self_s)
        return merged

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._states)

    def reset(self) -> None:
        """Drop recorded aggregates, spans and CPU accounting."""
        for state in self._states:
            state.stats.clear()
            state.spans.clear()
        self.cpu_wall_s = self.cpu_s = 0.0

    def write_spans(self, path) -> int:
        """Write every kept span as one JSON object per line."""
        spans = sorted(s for state in self._states for s in state.spans)
        with open(path, "w") as fh:
            for span_id, parent, thread, name, start, end in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "thread": thread, "name": name,
                                     "start": start, "end": end}) + "\n")
        return len(spans)
