"""Span recorder for the ledger's traced pass.

Layers are measured from outside: :meth:`SpanRecorder.install` rebinds the
public callables listed in :data:`TARGETS` (module globals and class
attributes of ``repro``) to timing wrappers, and :meth:`restore` puts the
originals back.  Nothing under ``src/`` is edited and end-to-end numbers
never come from a traced run.

A span is ``[name, start, end, parent, step]``: ``parent`` is the index of
the enclosing span *on the same thread* (-1 for none) and ``step`` is the
value of :attr:`SpanRecorder.step` when the span opened (-1 during set-up
and warm-up, the mesh step index during the timed region).  Spans live in
per-thread lists in memory; :meth:`export_chrome` writes them out at the
end.  A span's self time is its duration minus its same-thread children.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
import weakref

__all__ = ["SpanRecorder", "TARGETS"]

#: (module, owner class or None, attribute, span name) — the ``repro``
#: public names the ledger binds to.  ``mesh.compute_rhs`` etc. are the
#: names ``repro.core.mesh`` imported, which is what ``BlockMesh`` calls.
TARGETS = (
    ("repro.core.gravity.fmm", "FmmSolver", "solve", "gravity.solve"),
    ("repro.core.gravity.fmm", "FmmSolver", "from_uniform", "gravity.build"),
    ("repro.core.gravity.fmm", "FmmSolver", "set_leaf_density",
     "gravity.density_io"),
    ("repro.core.gravity.fmm", "FmmSolver", "uniform_field",
     "gravity.density_io"),
    ("repro.core.gravity.fmm", None, "p2p_pair", "gravity.kernel_p2p"),
    ("repro.core.gravity.fmm", None, "p2p_pair_staged", "gravity.kernel_p2p"),
    ("repro.core.gravity.fmm", None, "m2l_pair", "gravity.kernel_m2l"),
    ("repro.core.mesh", None, "compute_rhs", "hydro.rhs"),
    ("repro.core.mesh", None, "cfl_dt", "hydro.cfl"),
    ("repro.core.mesh", None, "apply_floors", "hydro.floors"),
    ("repro.core.mesh", "BlockMesh", "step", "mesh.step"),
    ("repro.core.scenario", None, "scf_binary", "scf.solve"),
    ("repro.core.exec", "ExecutionEngine", "map", "exec.map"),
    ("repro.network.transport", "HaloTransport", "send", "network.send"),
    ("repro.network.transport", "HaloTransport", "flush", "network.send"),
    ("repro.resilience.checkpoint", "CheckpointManager", "save",
     "resilience.ckpt_save"),
    ("repro.resilience.durability", "BuddyReplicatedStore", "replicate",
     "resilience.replicate"),
    ("repro.resilience.durability", "RecoveryCoordinator", "recover",
     "resilience.recover_call"),
)

#: the first ``solve`` of a solver records its interaction lists; it is
#: booked under this name so ``gravity.build_s`` can separate it
FIRST_SOLVE = "gravity.first_solve"


class _ThreadBuffer:
    __slots__ = ("tid", "thread_name", "spans", "stack")

    def __init__(self) -> None:
        t = threading.current_thread()
        self.tid = t.ident
        self.thread_name = t.name
        self.spans: list[list] = []
        self.stack: list[int] = []


class SpanRecorder:
    """In-memory span store plus the install/restore of the wrappers."""

    def __init__(self) -> None:
        self.step = -1
        self.halo_msgs = 0
        self.halo_bytes = 0
        self._tls = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._solved = weakref.WeakSet()

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._tls.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            buf = self._buffer()
            span = [name, time.perf_counter(), 0.0,
                    buf.stack[-1] if buf.stack else -1, self.step]
            buf.stack.append(len(buf.spans))
            buf.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                buf.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_solve(self, fn):
        """``FmmSolver.solve``: a solver's first call goes to a span of its
        own name, every later one to ``gravity.solve``."""
        first, replay = self._wrap(FIRST_SOLVE, fn), self._wrap(
            "gravity.solve", fn)

        def traced(solver, *args, **kwargs):
            if solver in self._solved:
                return replay(solver, *args, **kwargs)
            self._solved.add(solver)
            return first(solver, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _count_halo(self, fn):
        """Count-only wrapper for ``Channel.set`` (too frequent and too
        short to be worth a span): messages and payload bytes of the timed
        region."""

        def counted(channel, value, generation=None):
            if self.step >= 0:
                self.halo_msgs += 1
                self.halo_bytes += int(getattr(value, "nbytes", 0))
            return fn(channel, value, generation)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore --------------------------------------------------

    def _rebind(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Rebind every target; call before the mesh is built."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for module, cls, attr, name in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self._rebind(owner, attr, self._wrap_solve if attr == "solve"
                         else lambda fn, n=name: self._wrap(n, fn))
        channel = importlib.import_module("repro.runtime.channel").Channel
        self._rebind(channel, "set", self._count_halo)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reading ------------------------------------------------------------

    def totals(self) -> dict[tuple[str, bool], list[float]]:
        """``{(name, timed): [duration, self time, calls]}`` summed over all
        threads; ``timed`` is False for set-up/warm-up spans (step < 0)."""
        out: dict[tuple[str, bool], list[float]] = {}
        for buf in list(self._buffers):
            child = [0.0] * len(buf.spans)
            for name, start, end, parent, _ in buf.spans:
                if parent >= 0:
                    child[parent] += end - start
            for (name, start, end, _, step), kids in zip(buf.spans, child):
                acc = out.setdefault((name, step >= 0), [0.0, 0.0, 0])
                acc[0] += end - start
                acc[1] += end - start - kids
                acc[2] += 1
        return out

    def export_chrome(self, path: str) -> int:
        """Write a Perfetto-loadable Chrome trace; returns the span count."""
        events = []
        for buf in list(self._buffers):
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": buf.tid,
                           "args": {"name": buf.thread_name}})
            for i, (name, start, end, parent, step) in enumerate(buf.spans):
                events.append({
                    "ph": "X", "name": name, "cat": name.split(".")[0],
                    "pid": 1, "tid": buf.tid,
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "args": {"id": i, "parent": parent, "step": step}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return sum(len(b.spans) for b in self._buffers)
