"""Work-stealing lightweight task scheduler.

Models the HPX thread-scheduling subsystem the paper leans on (Sec. 4.1:
"a work-stealing lightweight task scheduler that enables finer-grained
parallelization and synchronization and automatic load balancing across all
local compute resources").

Each worker owns a deque; it pushes and pops tasks LIFO at its own end
(cache-friendly depth-first descent of the task tree) and steals FIFO from
the opposite end of a victim's deque (breadth-first steal of large work
items) — the classic Blumofe–Leiserson discipline HPX implements.

The scheduler doubles as a *future executor*: pass ``scheduler.post`` as the
``executor`` argument of the :mod:`repro.runtime.future` combinators and
continuations become ordinary stealable tasks.

Idle workers block on ``_idle_cond`` until :meth:`WorkStealingScheduler.post`
signals new work; a generation counter (``_wake_seq``, bumped under the
condition for every enqueue) closes the scan-then-sleep race without the
1 ms polling loop earlier revisions used.  Shutdown is two-phase: the
``_shutdown`` flag flips under ``_idle_cond`` (atomically with respect to
``post``, which rejects from then on), pending work drains, and only then
are the ``_SHUTDOWN`` sentinels enqueued — so an accepted task can never
land behind a sentinel and be silently dropped.
"""

from __future__ import annotations

import collections
import random
import sys
import threading
import time
from typing import Any, Callable

from . import trace
from ..sanitize import lockdep as _sanitize_lockdep
from ..sanitize import racecheck as _racecheck
from ..sanitize import schedules as _schedules
from ..sanitize import state as _sanitize_state
from .counters import CounterRegistry, default_registry
from .future import _TLS, Future, async_execute

__all__ = ["WorkStealingScheduler", "TaskStats"]

#: safety-net wait timeout for idle workers; wakeups are signalled, the
#: timeout only guards against an (unexpected) lost notify
_IDLE_FALLBACK_S = 0.5


class TaskStats:
    """Counters mirroring HPX/APEX scheduler diagnostics."""

    __slots__ = ("executed", "stolen", "posted", "rejected", "idle_sleeps",
                 "per_worker")

    def __init__(self, n_workers: int):
        self.executed = 0
        self.stolen = 0
        self.posted = 0
        self.rejected = 0
        self.idle_sleeps = 0
        self.per_worker = [0] * n_workers

    def snapshot(self) -> dict[str, Any]:
        return {
            "executed": self.executed,
            "stolen": self.stolen,
            "posted": self.posted,
            "rejected": self.rejected,
            "idle_sleeps": self.idle_sleeps,
            "per_worker": list(self.per_worker),
        }


class _Worker(threading.Thread):
    def __init__(self, sched: "WorkStealingScheduler", index: int):
        super().__init__(name=f"repro-worker-{index}", daemon=True)
        self.sched = sched
        self.index = index
        self.deque: collections.deque = collections.deque()
        self.rng = random.Random(0xC0FFEE ^ index)

    def run(self) -> None:
        _TLS.worker = self
        sched = self.sched
        while True:
            # Snapshot the wake generation *before* scanning: any post that
            # lands after this read bumps the counter under _idle_cond, so
            # the equality check below refuses to sleep through it.
            seq = sched._wake_seq
            task = self._next_task()
            if task is _SHUTDOWN:
                return
            if task is not None:
                self._execute(task)
                continue
            with sched._idle_cond:
                sched._idle_workers += 1
                # (wait_idle waiters are signalled by _execute when
                # _pending hits zero; notifying here would wake the other
                # idle workers and ping-pong them forever)
                if sched._wake_seq == seq:
                    with sched._stats_lock:
                        sched.stats.idle_sleeps += 1
                    if trace.TRACING:
                        t0 = trace.begin()
                        sched._idle_cond.wait(timeout=_IDLE_FALLBACK_S)
                        trace.complete("idle", "scheduler", t0,
                                       worker=self.index)
                    else:
                        sched._idle_cond.wait(timeout=_IDLE_FALLBACK_S)
                sched._idle_workers -= 1

    def _next_task(self) -> Any:
        # Own deque first (LIFO), then the shared inbox, then steal (FIFO).
        try:
            return self.deque.pop()
        except IndexError:
            pass
        try:
            return self.sched._inbox.popleft()
        except IndexError:
            pass
        return self._steal()

    def _steal(self) -> Any:
        workers = self.sched._workers
        n = len(workers)
        exp = _schedules.EXPLORER
        if exp is not None:
            start = exp.pick("steal", n)  # seeded victim-scan steering
        else:
            start = self.rng.randrange(n)
        for k in range(n):
            victim = workers[(start + k) % n]
            if victim is self:
                continue
            try:
                task = victim.deque.popleft()
            except IndexError:
                continue
            with self.sched._stats_lock:
                self.sched.stats.stolen += 1
            if trace.TRACING:
                trace.instant("steal", "scheduler",
                              thief=self.index, victim=victim.index)
            return task
        return None

    def _execute(self, task: Callable[[], None]) -> None:
        sched = self.sched
        exp = _schedules.EXPLORER
        if exp is not None:
            exp.pause("task-begin")  # PCT-style churn: perturb who runs next
        t0 = time.perf_counter() if trace.TRACING else 0.0
        if _sanitize_state.ACTIVE:
            # a worker must enter user code lock-free: anything it still
            # held here would be pinned for the whole task body
            _sanitize_lockdep.check_no_locks_held("scheduler task body")
        try:
            task()
        except BaseException:
            # tasks must not kill workers; submit() and ExecutionEngine.map
            # deliver a task's failure through its future, so what lands
            # here is a bare post() that raised: report it, as an uncaught
            # exception in a thread would be
            sys.excepthook(*sys.exc_info())
        finally:
            if trace.TRACING:
                trace.default_recorder().complete(
                    getattr(task, "__name__", "task"), "task",
                    t0, time.perf_counter(), worker=self.index)
            with sched._stats_lock:
                sched.stats.executed += 1
                sched.stats.per_worker[self.index] += 1
            with sched._idle_cond:
                sched._pending -= 1
                if sched._pending == 0:
                    sched._idle_cond.notify_all()


_SHUTDOWN = object()


class WorkStealingScheduler:
    """A pool of work-stealing workers executing fire-and-forget tasks.

    Usage::

        with WorkStealingScheduler(4) as sched:
            fut = sched.submit(expensive, arg)
            value = fut.get()

    ``post`` schedules a bare thunk (used as a future executor); ``submit``
    wraps the callable in a :class:`Future`.
    """

    def __init__(self, n_workers: int = 4):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self._inbox: collections.deque = collections.deque()
        self._workers = [_Worker(self, i) for i in range(n_workers)]
        self._stats_lock = _sanitize_lockdep.make_lock("scheduler.stats")
        self.stats = TaskStats(n_workers)
        self._idle_cond = _sanitize_lockdep.make_condition("scheduler.idle")
        self._idle_workers = 0
        self._pending = 0
        self._wake_seq = 0
        self._shutdown = False   # post() rejects from here on
        self._stopped = False    # sentinels enqueued, workers exiting
        for w in self._workers:
            w.start()

    # -- scheduling --------------------------------------------------------

    def post(self, task: Callable[[], None]) -> None:
        """Fire-and-forget a thunk. Current-worker tasks go on the local deque.

        The shutdown check happens under ``_idle_cond`` — atomically with
        :meth:`shutdown` flipping the flag — so a post either lands before
        the drain (and is guaranteed to execute) or raises ``RuntimeError``.
        Tasks posted *by a worker of this scheduler* while the drain is in
        progress are still accepted (continuations spawned by draining
        tasks must be allowed to run).
        """
        if _sanitize_state.ACTIVE:
            # poster -> task edge now; task end -> wait_idle drain edge
            task = _racecheck.wrap_callback(
                None, task, drain_key=("sched-drain", id(self)))
        exp = _schedules.EXPLORER
        if exp is not None:
            exp.pause("sched-post")
        worker = getattr(_TLS, "worker", None)
        local = worker is not None and worker.sched is self
        with self._idle_cond:
            if self._shutdown and not (local and not self._stopped):
                with self._stats_lock:
                    self.stats.rejected += 1
                raise RuntimeError("scheduler is shut down")
            self._pending += 1
            self._wake_seq += 1
            if local:
                worker.deque.append(task)
            else:
                self._inbox.append(task)
            self._idle_cond.notify()
        with self._stats_lock:
            self.stats.posted += 1

    def post_batch(self, tasks) -> None:
        """Fire-and-forget many thunks under one lock acquisition.

        The fan-out primitive of the futurized execution engine
        (:mod:`repro.core.exec`): posting a solve's worth of kernel
        batches one ``post`` at a time would take and drop ``_idle_cond``
        per task.  Called from a worker the batch lands on its local
        deque, where idle workers steal from the opposite end — the
        Blumofe–Leiserson fan-out that spreads a task tree breadth-first.
        """
        tasks = list(tasks)
        if not tasks:
            return
        if _sanitize_state.ACTIVE:
            drain = ("sched-drain", id(self))
            tasks = [_racecheck.wrap_callback(None, t, drain_key=drain)
                     for t in tasks]
        exp = _schedules.EXPLORER
        if exp is not None:
            # a fan-out batch carries no mutual ordering guarantee —
            # permuting it is a legal schedule the OS could produce
            tasks = exp.permute("sched-batch", tasks)
            exp.pause("sched-post")
        worker = getattr(_TLS, "worker", None)
        local = worker is not None and worker.sched is self
        with self._idle_cond:
            if self._shutdown and not (local and not self._stopped):
                with self._stats_lock:
                    self.stats.rejected += len(tasks)
                raise RuntimeError("scheduler is shut down")
            self._pending += len(tasks)
            self._wake_seq += 1
            if local:
                worker.deque.extend(tasks)
            else:
                self._inbox.extend(tasks)
            self._idle_cond.notify_all()
        with self._stats_lock:
            self.stats.posted += len(tasks)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Schedule ``fn(*args)``; returns a future for its result."""
        return async_execute(fn, *args, executor=self.post)

    # -- lifecycle -----------------------------------------------------------

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no task is queued or running."""
        with self._idle_cond:
            idle = self._idle_cond.wait_for(lambda: self._pending == 0,
                                            timeout)
        if idle and _sanitize_state.ACTIVE:
            # acquire edge from every drained task's end-of-body release
            _racecheck.recv(("sched-drain", id(self)))
        return idle

    def shutdown(self) -> None:
        with self._idle_cond:
            already = self._shutdown
            self._shutdown = True
        if not already:
            # drain everything accepted before the flag flipped (plus any
            # continuations draining tasks post), then stop the workers
            self.wait_idle()
            with self._idle_cond:
                self._stopped = True
                for _ in self._workers:
                    self._inbox.append(_SHUTDOWN)
                self._wake_seq += 1
                self._idle_cond.notify_all()
        for w in self._workers:
            # _SHUTDOWN sentinels are consumed via the shared inbox
            w.join(timeout=5.0)

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # -- diagnostics -------------------------------------------------------

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        """Publish ``/threads/...`` gauges (APEX-style) into ``registry``.

        Idempotent (gauges, not increments), so it may be called at any
        cadence; ``ExecutionEngine.publish_counters`` calls it once after
        a run.
        """
        registry = registry or default_registry()
        with self._stats_lock:
            snap = self.stats.snapshot()
        registry.set_gauge("/threads/executed", float(snap["executed"]))
        registry.set_gauge("/threads/posted", float(snap["posted"]))
        registry.set_gauge("/threads/stolen", float(snap["stolen"]))
        registry.set_gauge("/threads/rejected", float(snap["rejected"]))
        registry.set_gauge("/threads/idle-sleeps", float(snap["idle_sleeps"]))
        denom = snap["executed"] + snap["idle_sleeps"]
        registry.set_gauge("/threads/idle-rate",
                           snap["idle_sleeps"] / denom if denom else 0.0)
        registry.set_gauge("/threads/steal-rate",
                           snap["stolen"] / snap["executed"]
                           if snap["executed"] else 0.0)
        for i, n in enumerate(snap["per_worker"]):
            registry.set_gauge(f"/threads/worker/{i}/executed", float(n))

    def __enter__(self) -> "WorkStealingScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
