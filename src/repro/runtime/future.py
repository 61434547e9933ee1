"""HPX-style futures with continuation chaining.

This module reproduces the semantics of ``hpx::future`` / ``hpx::promise``
that Octo-Tiger relies on for *futurization* (Sec. 4.1 of the paper):

* a :class:`Future` represents a value that may not exist yet;
* ``then`` attaches a continuation that is scheduled when the value becomes
  ready (continuation-passing style — the paper's "dataflow execution
  trees");
* :func:`when_all` composes futures;
* :func:`dataflow` schedules a callable once all of its future arguments
  are ready, passing the *unwrapped* values.

Unlike ``concurrent.futures``, continuations here are scheduled through a
pluggable executor (by default the calling thread, in tests and in the
scheduler a work-stealing pool), which mirrors HPX's behaviour of running
continuations as ordinary tasks rather than on a dedicated callback thread.

When :mod:`repro.sanitize` is enabled at creation time, every future is
registered with the future-graph watcher (creation site, dependency
edges through ``then``/``when_all``/``dataflow``/unwrapping, resolution
and error-consumption events) and every lock is order-checked by the
lockdep layer; disabled, the hooks reduce to one module-attribute read.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Sequence

from . import trace
from ..sanitize import futuregraph as _sanitize_graph
from ..sanitize import lockdep as _sanitize_lockdep
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state

__all__ = [
    "Future",
    "Promise",
    "FutureError",
    "FutureTimeout",
    "make_ready_future",
    "make_exceptional_future",
    "when_all",
    "dataflow",
    "async_execute",
    "continuations_dispatched",
    "publish_counters",
]

# Continuation-dispatch tally for the /futures/... counters.  This lock
# guards *only* the integer bump in _dispatch — it must never be held
# while a callback/thunk runs (audited; the sanitizer's
# callback-under-lock checker enforces it at runtime when enabled, and
# tests/runtime/test_future_dispatch_lock.py regresses it).
_dispatch_lock = _sanitize_lockdep.make_lock("future.dispatch-tally")
_dispatched = 0

#: ``.worker`` is the calling thread's scheduler worker, set by
#: :mod:`repro.runtime.scheduler` (and read by ``get``'s stall detector)
_TLS = threading.local()


def continuations_dispatched() -> int:
    """Total continuations dispatched through any future so far."""
    with _dispatch_lock:
        return _dispatched


def publish_counters(registry=None) -> None:
    """Publish ``/futures/...`` gauges into ``registry`` (default global)."""
    from .counters import default_registry
    registry = registry or default_registry()
    registry.set_gauge("/futures/continuations-dispatched",
                       float(continuations_dispatched()))


class FutureError(RuntimeError):
    """Raised on invalid future usage (double-set, get-before-ready, ...)."""


class FutureTimeout(FutureError):
    """``get`` gave up waiting after its explicit timeout.

    Distinct from a *stored* exception: a :class:`FutureTimeout` raised by
    ``get`` means the future is still pending — the resilience layers use
    the type (never message sniffing) to classify the outcome as
    transient and retry.
    """


_PENDING = "pending"
_READY = "ready"
_EXCEPTIONAL = "exceptional"


class Future:
    """A single-assignment container for an eventual value.

    Futures are created either ready (:func:`make_ready_future`), through a
    :class:`Promise`, or as the result of ``then``/``when_all``/``dataflow``.
    """

    __slots__ = ("_lock", "_cond", "_state", "_value", "_exception",
                 "_callbacks", "_executor", "_san_seq", "__weakref__")

    def __init__(self, executor: Callable[[Callable[[], None]], None] | None = None):
        self._lock = _sanitize_lockdep.make_lock("future.Future")
        self._cond = threading.Condition(self._lock)
        self._state = _PENDING
        self._value: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[[Future], None]] = []
        self._executor = executor
        self._san_seq: int | None = None
        if _sanitize_state.ACTIVE:
            _sanitize_graph.register_future(self)

    # -- state inspection -------------------------------------------------

    def is_ready(self) -> bool:
        """True when a value or exception has been stored."""
        with self._lock:
            return self._state != _PENDING

    def has_exception(self) -> bool:
        with self._lock:
            return self._state == _EXCEPTIONAL

    # -- completion (used by Promise and combinators) ----------------------

    def _set_value(self, value: Any) -> None:
        with self._cond:
            if self._state != _PENDING:
                raise FutureError("future already satisfied")
            if self._san_seq is not None:
                # release edge: everything the producer did happens-before
                # any consumer that observes readiness (get/wait/callbacks)
                # — published before the state turns, since a woken
                # consumer may return before this thread runs another line
                _racecheck.send(("fut", self._san_seq))
            self._value = value
            self._state = _READY
            callbacks, self._callbacks = self._callbacks, []
            self._cond.notify_all()
        if self._san_seq is not None:
            _sanitize_graph.on_resolved(self)
        self._run_callbacks(callbacks)

    def _set_exception(self, exc: BaseException) -> None:
        with self._cond:
            if self._state != _PENDING:
                raise FutureError("future already satisfied")
            if self._san_seq is not None:
                _racecheck.send(("fut", self._san_seq))
            self._exception = exc
            self._state = _EXCEPTIONAL
            callbacks, self._callbacks = self._callbacks, []
            self._cond.notify_all()
        if self._san_seq is not None:
            _sanitize_graph.on_resolved(self, exc)
        self._run_callbacks(callbacks)

    def _run_callbacks(self, callbacks: Sequence[Callable[[Future], None]]) -> None:
        # INVARIANT (enforced by the sanitizer's callback-under-lock
        # checker): every caller releases this future's lock *and* any
        # module lock before invoking callbacks — a continuation may
        # complete other futures, post to the scheduler, or touch
        # channels, and doing that under a runtime lock inverts against
        # every lock those subsystems take.
        for cb in callbacks:
            self._dispatch(lambda cb=cb: cb(self))

    def _dispatch(self, thunk: Callable[[], None]) -> None:
        global _dispatched
        with _dispatch_lock:
            # tally only — never widen this critical section around the
            # thunk below: a synchronous thunk runs arbitrary user code
            _dispatched += 1
        if _sanitize_state.ACTIVE and self._executor is None:
            # the thunk will run user code on *this* thread, right now
            _sanitize_lockdep.check_no_locks_held("future callback dispatch")
        if trace.TRACING:
            inner = thunk

            def thunk() -> None:
                t0 = time.perf_counter()
                try:
                    inner()
                finally:
                    trace.default_recorder().complete(
                        "continuation", "future", t0, time.perf_counter())
        if self._executor is not None:
            self._executor(thunk)
        else:
            thunk()

    # -- retrieval ---------------------------------------------------------

    def get(self, timeout: float | None = None) -> Any:
        """Block until ready; return the value or raise the stored exception.

        Raises :class:`FutureTimeout` when ``timeout`` expires first — the
        future itself stays pending.
        """
        with self._cond:
            if self._state == _PENDING:
                if (_sanitize_state.ACTIVE and timeout is None
                        and getattr(_TLS, "worker", None) is not None):
                    # stall detector: an *unbounded* wait parks this
                    # scheduler worker until some other task resolves the
                    # future — give it a grace period, then report
                    stall = _sanitize_state.config.stall_timeout
                    if not self._cond.wait_for(
                            lambda: self._state != _PENDING, stall):
                        _sanitize_graph.record_blocked_worker(self, stall)
                if not self._cond.wait_for(
                        lambda: self._state != _PENDING, timeout):
                    raise FutureTimeout(
                        f"timed out waiting for future after {timeout}s")
            if self._state == _EXCEPTIONAL:
                assert self._exception is not None
                if _sanitize_state.ACTIVE and self._san_seq is not None:
                    _sanitize_graph.mark_error_consumed(self)
                    _racecheck.recv(("fut", self._san_seq))
                raise self._exception
            value = self._value
        # acquire edge: the producer's writes happen-before this return
        if _sanitize_state.ACTIVE and self._san_seq is not None:
            _racecheck.recv(("fut", self._san_seq))
        return value

    def wait(self, timeout: float | None = None) -> bool:
        """Block until ready without consuming the value. Returns readiness."""
        with self._cond:
            ready = self._cond.wait_for(lambda: self._state != _PENDING, timeout)
        if ready and _sanitize_state.ACTIVE and self._san_seq is not None:
            _racecheck.recv(("fut", self._san_seq))
        return ready

    # -- composition ---------------------------------------------------------

    def then(self, fn: Callable[["Future"], Any],
             executor: Callable[[Callable[[], None]], None] | None = None) -> "Future":
        """Attach a continuation receiving *this future* once it is ready.

        Returns a new future holding ``fn``'s result.  If ``fn`` returns a
        future itself the result is unwrapped (monadic bind), matching
        ``hpx::future::then`` + automatic unwrapping.
        """
        result = Future(executor=executor or self._executor)
        if _sanitize_state.ACTIVE:
            _sanitize_graph.add_dependency(result, self)

        def run(fut: "Future") -> None:
            try:
                out = fn(fut)
            except BaseException as exc:  # propagate into the result future
                result._set_exception(exc)
                return
            if isinstance(out, Future):
                # monadic unwrap: the result now waits on the returned
                # future — the one edge wired at *run* time, so a callback
                # returning its own result (or an ancestor of it) closes a
                # wait-for cycle the sanitizer can flag
                if _sanitize_state.ACTIVE:
                    _sanitize_graph.add_dependency(result, out)
                out.then(lambda f: _forward(f, result))
            else:
                result._set_value(out)

        self._on_ready(run)
        return result

    def _on_ready(self, cb: Callable[["Future"], None]) -> None:
        if _sanitize_state.ACTIVE and self._san_seq is not None:
            # registrar -> callback and resolver -> callback edges
            cb = _racecheck.wrap_callback(("fut", self._san_seq), cb)
        with self._lock:
            if self._state == _PENDING:
                self._callbacks.append(cb)
                return
        self._dispatch(lambda: cb(self))


def _forward(src: Future, dst: Future) -> None:
    """Copy the outcome of ``src`` into ``dst``."""
    if src.has_exception():
        try:
            src.get()
        except BaseException as exc:
            dst._set_exception(exc)
    else:
        dst._set_value(src.get())


class Promise:
    """The producing side of a :class:`Future` (``hpx::promise``)."""

    __slots__ = ("_future",)

    def __init__(self) -> None:
        self._future = Future()

    def get_future(self) -> Future:
        return self._future

    def set_value(self, value: Any = None) -> None:
        self._future._set_value(value)

    def set_exception(self, exc: BaseException) -> None:
        self._future._set_exception(exc)


def make_ready_future(value: Any = None) -> Future:
    """A future that is already satisfied with ``value``."""
    f = Future()
    f._set_value(value)
    return f


def make_exceptional_future(exc: BaseException) -> Future:
    f = Future()
    f._set_exception(exc)
    return f


def when_all(futures: Iterable[Future]) -> Future:
    """Future of the list of input futures, ready when all inputs are.

    Mirrors ``hpx::when_all``: the result holds the (now ready) futures
    themselves so exceptional inputs do not short-circuit composition.
    """
    futs = list(futures)
    result = Future()
    if _sanitize_state.ACTIVE:
        for f in futs:
            _sanitize_graph.add_dependency(result, f)
    if not futs:
        result._set_value([])
        return result
    remaining = [len(futs)]
    lock = threading.Lock()
    # the counter lock is the real barrier join: every done() below is
    # ordered by it, so publishing clocks under it (send) and joining
    # them in the firing thread (recv) makes the firing thread inherit
    # happens-before from *all* inputs, not just the last to resolve
    wa_key = _racecheck.new_token() if _sanitize_state.ACTIVE else None

    def arm(f: Future) -> None:
        def done(_: Future) -> None:
            with lock:
                remaining[0] -= 1
                fire = remaining[0] == 0
                if wa_key is not None:
                    _racecheck.send(wa_key)
            if fire:
                if wa_key is not None:
                    _racecheck.recv(wa_key)
                result._set_value(futs)
        f._on_ready(done)

    for f in futs:
        arm(f)
    return result


def dataflow(fn: Callable[..., Any], *args: Any,
             executor: Callable[[Callable[[], None]], None] | None = None) -> Future:
    """Run ``fn`` once every future among ``args`` is ready.

    Future arguments are replaced by their values; plain arguments pass
    through.  An exceptional input propagates to the result without calling
    ``fn`` — HPX ``dataflow`` semantics, the building block of Octo-Tiger's
    solver coupling (Sec. 2: "HPX's futurization technique makes this
    coupling straightforward").
    """
    fut_args = [a for a in args if isinstance(a, Future)]
    result = Future(executor=executor)
    if _sanitize_state.ACTIVE:
        for a in fut_args:
            _sanitize_graph.add_dependency(result, a)

    def fire(_: Future) -> None:
        try:
            values = [a.get() if isinstance(a, Future) else a for a in args]
            out = fn(*values)
        except BaseException as exc:
            result._set_exception(exc)
            return
        if isinstance(out, Future):
            if _sanitize_state.ACTIVE:
                _sanitize_graph.add_dependency(result, out)
            out.then(lambda f: _forward(f, result))
        else:
            result._set_value(out)

    when_all(fut_args)._on_ready(fire)
    return result


def async_execute(fn: Callable[..., Any], *args: Any,
                  executor: Callable[[Callable[[], None]], None] | None = None) -> Future:
    """Schedule ``fn(*args)`` through ``executor`` and return its future.

    With no executor the call runs synchronously (``hpx::launch::sync``).
    """
    result = Future(executor=executor)

    def run() -> None:
        try:
            out = fn(*args)
        except BaseException as exc:
            result._set_exception(exc)
            return
        if isinstance(out, Future):
            if _sanitize_state.ACTIVE:
                _sanitize_graph.add_dependency(result, out)
            out.then(lambda f: _forward(f, result))
        else:
            result._set_value(out)

    if executor is None:
        run()
    else:
        if _sanitize_state.ACTIVE:
            # submitter -> task edge for non-scheduler executors
            run = _racecheck.wrap_callback(None, run)
        executor(run)
    return result
