"""Lockdep-style lock-order checking for the AMT runtime.

Linux lockdep's key idea, transplanted: order violations are detected on
*lock classes*, not lock instances, so one observed ``A -> B`` nesting
plus one observed ``B -> A`` nesting anywhere in the process is flagged —
even if the two nestings never ran concurrently and no deadlock actually
happened.  That turns a probabilistic hang into a deterministic report.

Every runtime lock is created through :func:`make_lock` with a class name
(``"future.Future"``, ``"scheduler.idle"``, ``"cuda.stream"`` ...).  When
the sanitizers are enabled at creation time the returned object is a
:class:`TrackedLock`: each successful acquisition pushes onto a
thread-local held stack, inserts acquired-before edges from every held
class to the new class, and searches the class graph for a cycle.  Three
finding kinds come out of this module:

* ``lock-order`` — the new edge closes a cycle in the acquired-before
  graph (classic ABBA inversion); the finding carries the sites of both
  conflicting acquisitions.
* ``lock-recursion`` — a thread re-acquires the *same non-reentrant
  instance* it already holds: a guaranteed self-deadlock, reported just
  before the thread hangs.
* ``callback-under-lock`` (recorded via :func:`check_no_locks_held`) —
  user callbacks invoked while a tracked lock is held, the hazard class
  behind the scheduler-shutdown and stream-pool races of earlier PRs.

Same-class nesting (two ``Future`` locks held together) is recorded as an
ordinary self-edge but never reported as a cycle on its own: the runtime
legitimately nests instances of one class in creation order, and class
granularity cannot tell those apart (lockdep's "nesting annotation"
problem — documented limitation).
"""

from __future__ import annotations

import threading
from typing import Any

from . import state

__all__ = ["TrackedLock", "make_lock", "make_condition", "held_classes",
           "check_no_locks_held", "reset", "acquired_before_edges"]

_graph_lock = threading.Lock()
#: acquired-before edges: class -> {later class: site of first observation}
_edges: dict[str, dict[str, str]] = {}
_tls = threading.local()


def _held() -> list[tuple[str, int, str]]:
    """This thread's stack of (class, instance id, acquire site)."""
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = []
    return held


def held_classes() -> list[str]:
    """Lock classes the calling thread currently holds (outermost first)."""
    return [cls for cls, _id, _site in _held()]


def check_no_locks_held(context: str) -> None:
    """Record ``callback-under-lock`` if the calling thread holds any.

    The runtime calls this at the instant it is about to run user code
    (future continuations); holding a runtime lock there inverts against
    whatever locks the callback takes and can deadlock the dispatcher.
    """
    held = _held()
    if held:
        cls, _id, site = held[-1]
        state.record(
            "callback-under-lock",
            f"user callback invoked in {context} while holding lock "
            f"{cls!r} (acquired at {site})",
            dedupe_key=("callback-under-lock", context, cls),
            lock_class=cls, acquire_site=site, context=context)


def _reachable(src: str, dst: str) -> list[str] | None:
    """Path ``src -> ... -> dst`` in the class graph, or None (caller locks)."""
    stack = [(src, [src])]
    seen = {src}
    while stack:
        node, path = stack.pop()
        for nxt in _edges.get(node, ()):
            if nxt == node:
                continue  # self-edges never participate in reported cycles
            if nxt == dst:
                return path + [dst]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return None


def _note_acquired(cls: str, instance_id: int) -> None:
    """Edge insertion + cycle check after a successful acquire.

    Cycles can only appear when a *new* edge enters the class graph, so
    the reachability search runs once per novel (held, acquired) class
    pair — steady-state nested acquisitions cost two dict lookups.
    """
    held = _held()
    if not held:
        held.append((cls, instance_id, ""))
        return
    # Push *before* analysing: if edge analysis itself acquires a tracked
    # lock (it should not, but defence in depth), the held stack already
    # reflects reality and the recursion check cannot be blind-sided.
    site = state.call_site()
    held.append((cls, instance_id, site))
    for held_cls, _held_id, held_site in held[:-1]:
        if held_cls == cls:
            continue  # class-granularity: skip self-edges for cycles
        path = None
        with _graph_lock:
            existing = _edges.setdefault(held_cls, {})
            if cls in existing:
                continue  # edge known; cycle was checked at first insertion
            existing[cls] = site
            # inversion: can we already get from `cls` back to `held_cls`?
            path = _reachable(cls, held_cls)
            if path is not None:
                first_leg = _edges.get(cls, {}).get(
                    path[1] if len(path) > 1 else held_cls, "<unknown>")
        if path is not None:
            state.record(
                "lock-order",
                f"lock-order inversion: acquiring {cls!r} while holding "
                f"{held_cls!r}, but {' -> '.join(path)} was already "
                f"observed (first at {first_leg})",
                site=site,
                dedupe_key=("lock-order", held_cls, cls),
                cycle=path + [cls],
                held_site=held_site or "<outermost>",
                acquire_site=site, first_edge_site=first_leg)


def _note_released(cls: str, instance_id: int) -> None:
    held = _held()
    for i in range(len(held) - 1, -1, -1):
        if held[i][1] == instance_id:
            del held[i]
            return


class TrackedLock:
    """A ``threading.Lock`` wrapper feeding the acquired-before graph.

    Duck-compatible with the stdlib lock protocol (``acquire``/
    ``release``/context manager/``locked``), including use as the
    underlying lock of a ``threading.Condition`` — the condition's
    ``wait`` releases and re-acquires through these methods, so the held
    stack stays truthful across waits.
    """

    __slots__ = ("_lock", "lock_class")

    def __init__(self, lock_class: str):
        self._lock = threading.Lock()
        self.lock_class = lock_class

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if blocking and any(_id == id(self) for _c, _id, _s in _held()):
            state.record(
                "lock-recursion",
                f"thread {me} re-acquiring non-reentrant lock "
                f"{self.lock_class!r} it already holds (self-deadlock)",
                dedupe_key=None,
                lock_class=self.lock_class)
            # a blocking re-acquire would hang this thread forever; fail
            # fast so the run (and its report) survive the finding
            raise RuntimeError(
                f"lockdep: self-deadlock on {self.lock_class!r} "
                "(blocking re-acquire of a held non-reentrant lock)")
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            _note_acquired(self.lock_class, id(self))
        return ok

    def release(self) -> None:
        _note_released(self.lock_class, id(self))
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TrackedLock {self.lock_class!r} {self._lock!r}>"


def make_lock(lock_class: str):
    """A lock for ``lock_class``: tracked when sanitizers are active.

    The decision is taken at creation time, so a disabled sanitizer adds
    zero overhead to the hot paths (a plain ``threading.Lock`` is
    returned); objects built after :func:`repro.sanitize.enable` — or any
    time under ``REPRO_SANITIZE=1`` — get the instrumented lock.
    """
    if state.ACTIVE:
        return TrackedLock(lock_class)
    return threading.Lock()


def make_condition(lock_class: str) -> threading.Condition:
    """A condition variable over a (possibly tracked) class lock."""
    return threading.Condition(make_lock(lock_class))


def acquired_before_edges() -> dict[str, dict[str, str]]:
    """Snapshot of the acquired-before graph (class -> class -> site)."""
    with _graph_lock:
        return {a: dict(bs) for a, bs in _edges.items()}


def reset() -> None:
    """Forget all observed edges (test isolation)."""
    with _graph_lock:
        _edges.clear()
