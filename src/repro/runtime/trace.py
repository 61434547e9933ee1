"""APEX-style task tracing with Chrome trace-event export.

"HPX provides a performance counter and adaptive tuning framework that
allows users to access performance data [...]; these diagnostic tools were
instrumental in scaling Octo-Tiger to the full machine" (Sec. 4.1).  The
counter half of that framework lives in :mod:`repro.runtime.counters`;
this module is the *tracing* half: low-overhead span recording (begin/end
wall time, thread id, category, free-form args) for every task the runtime
executes, exported in the Chrome trace-event JSON format so a recording
can be dropped straight into ``chrome://tracing`` / Perfetto / Speedscope.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Tracing is off by default and every
   instrumentation point in the runtime guards on the module-level
   :data:`TRACING` flag (a plain attribute load + truth test) before doing
   any work.  Enabling is global (:func:`enable` / :func:`disable`).
2. **No cross-thread contention when enabled.**  Each thread appends to
   its own event buffer (registered once per thread under a lock);
   recording an event is a ``list.append`` of a tuple.
3. **Export, don't stream.**  Buffers are merged and converted to JSON
   only on :func:`export_chrome` / :meth:`TraceRecorder.events`.

Typical use::

    from repro.runtime import trace

    trace.enable()
    ...  # run the instrumented runtime
    trace.export_chrome("trace.json")
    trace.disable()

Instrumentation points use either the :func:`span` context manager (cool
paths) or the ``begin()``/``complete()`` pair (hot paths, avoids the
context-manager machinery)::

    if trace.TRACING:
        t0 = trace.begin()
    work()
    if trace.TRACING:
        trace.complete("work", "category", t0, worker=3)
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

__all__ = [
    "TRACING", "TraceRecorder", "enable", "disable",
    "default_recorder", "span", "instant", "begin", "complete",
    "export_chrome", "clear",
]

#: Global fast-path flag.  Instrumentation points test this before paying
#: any tracing cost; flip it through :func:`enable` / :func:`disable`.
TRACING = False

# event kinds (Chrome trace-event "ph" phases)
_COMPLETE = "X"
_INSTANT = "i"


class TraceRecorder:
    """Collects trace events into per-thread buffers.

    Raw events are stored as tuples
    ``(phase, name, category, start_s, dur_s, tid, args)`` with times in
    :func:`time.perf_counter` seconds; conversion to Chrome's
    microsecond-resolution dicts happens at export time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        self._thread_names: dict[int, str] = {}
        self._local = threading.local()
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> list[tuple]:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = []
            self._local.buf = buf
            cur = threading.current_thread()
            with self._lock:
                self._buffers.append(buf)
                self._thread_names[cur.ident or 0] = cur.name
        return buf

    def complete(self, name: str, category: str, start_s: float,
                 end_s: float, **args: Any) -> None:
        """Record a finished span (Chrome 'X' complete event)."""
        self._buffer().append(
            (_COMPLETE, name, category, start_s, end_s - start_s,
             threading.get_ident(), args or None))

    def instant(self, name: str, category: str = "", **args: Any) -> None:
        """Record a zero-duration marker (Chrome 'i' instant event)."""
        self._buffer().append(
            (_INSTANT, name, category, time.perf_counter(), 0.0,
             threading.get_ident(), args or None))

    # -- export ------------------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        """All recorded events as Chrome trace-event dicts, time-sorted."""
        with self._lock:
            raw = [ev for buf in self._buffers for ev in list(buf)]
            names = dict(self._thread_names)
        raw.sort(key=lambda ev: ev[3])
        pid = os.getpid()
        out: list[dict[str, Any]] = []
        for tid, tname in names.items():
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": tid, "args": {"name": tname}})
        for phase, name, cat, start, dur, tid, args in raw:
            ev: dict[str, Any] = {
                "ph": phase, "name": name, "cat": cat or "runtime",
                "ts": (start - self._t0) * 1e6, "pid": pid, "tid": tid,
            }
            if phase == _COMPLETE:
                ev["dur"] = dur * 1e6
            else:
                ev["s"] = "t"  # thread-scoped instant
            if args:
                ev["args"] = args
            out.append(ev)
        return out

    def export_chrome(self, path: str) -> int:
        """Write a ``chrome://tracing``-loadable JSON file; returns #events."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      fh, default=str)
        return len(events)

    def clear(self) -> None:
        with self._lock:
            for buf in self._buffers:
                buf.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers)


_recorder = TraceRecorder()


def default_recorder() -> TraceRecorder:
    return _recorder


def enable() -> None:
    """Turn tracing on globally (all instrumented runtime components)."""
    global TRACING
    TRACING = True


def disable() -> None:
    global TRACING
    TRACING = False


# -- convenience recording into the default recorder -----------------------

def begin() -> float:
    """Start-of-span timestamp (pair with :func:`complete`)."""
    return time.perf_counter()


def complete(name: str, category: str, start_s: float, **args: Any) -> None:
    """Record a span that started at ``start_s`` and ends now."""
    _recorder.complete(name, category, start_s, time.perf_counter(), **args)


def instant(name: str, category: str = "", **args: Any) -> None:
    if TRACING:
        _recorder.instant(name, category, **args)


def export_chrome(path: str) -> int:
    return _recorder.export_chrome(path)


def clear() -> None:
    _recorder.clear()


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "category", "args", "_start")

    def __init__(self, name: str, category: str, args: dict[str, Any]):
        self.name = name
        self.category = category
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        if TRACING:
            _recorder.complete(self.name, self.category, self._start,
                               time.perf_counter(), **self.args)
        return False


def span(name: str, category: str = "", **args: Any):
    """Context manager recording a span; a shared no-op when disabled."""
    if not TRACING:
        return _NULL_SPAN
    return _Span(name, category, args)
