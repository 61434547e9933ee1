"""Simulated CUDA device, streams, and stream-event futures.

The paper's GPU integration (Sec. 5.1) has three ingredients we reproduce:

1. **Streams with futures** — "For any CUDA stream event we create an HPX
   future that becomes ready once operations in the stream (up to the point
   of the event/future's creation) are finished."  Here
   :meth:`CudaStream.enqueue` returns a future per operation and
   :meth:`CudaStream.record_event` returns a future for the stream frontier.

2. **The launch rule** — "Each CPU thread manages a certain number of
   CUDA streams.  When launching a kernel, a thread first checks whether all
   of the CUDA streams it manages are busy.  If not, the kernel will be
   launched on the GPU using an idle stream.  Otherwise, the kernel will be
   executed on the CPU by the current CPU worker thread."  This module
   supplies the mechanism — :meth:`StreamPool.acquire` hands out an idle
   stream as a :class:`StreamLease`, or ``None`` — and the rule itself is
   written once, in :class:`repro.runtime.aggregate.AggregationRegion`
   (one slot = the paper's one-kernel rule), whose gpu/cpu placement
   counters reproduce the 97.4995 % / 99.9997 % / 99.5207 % statistics of
   Sec. 6.1.2 (see ``repro.simulator.scaling``).

3. **Asynchronous execution** — operations run on device worker threads
   while the submitting CPU worker continues; per-stream FIFO order is
   preserved, different streams overlap (the 128-concurrent-kernels model).

No actual GPU is involved (the repro=2 substitution): a "kernel" is any
Python callable, typically the same vectorized NumPy kernel the CPU path
uses — mirroring the paper's trick of instantiating the identical cell-to-
cell function template for both targets.

**Stream health (supervision layer).**  A real production run cannot keep
re-using a stream whose kernels keep failing (a sick SM, a poisoned
context): after ``quarantine_threshold`` *consecutive* kernel faults a
stream is **quarantined** — :meth:`CudaStream._try_reserve` stops handing
it out, so the launch rule transparently overflows its work to healthy
streams or the CPU.  After ``quarantine_period`` seconds the stream is
re-admitted **on probation**: one more fault re-quarantines it
immediately, one success clears the probation.  Quarantines are counted
under ``/cuda/quarantined`` (re-admissions under ``/cuda/readmitted``)
and per-device gauges; :meth:`CudaStream.poison` is the matching
adversary hook used by the chaos tests.

**Work aggregation.**  :meth:`CudaStream.enqueue_aggregated` (and the
lease equivalent) submits a whole slot buffer of kernels as *one*
:class:`AggregatedOp` — one queue entry, one dispatch, one launch future
— following the Octo-Tiger aggregated-kernel design (Daiß et al., arXiv
2210.06438).  Poison draws and fault-streak accounting remain per slot,
so quarantine behaviour is indistinguishable from unaggregated launches;
the buffering/flush policy lives in :mod:`repro.runtime.aggregate`.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Callable

from . import trace
from ..sanitize import lockdep as _sanitize_lockdep
from ..sanitize import protocol as _sanitize_protocol
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .counters import CounterRegistry, default_registry
from .faults import TransientActionFault
from .future import Future, Promise

__all__ = ["CudaDevice", "CudaStream", "StreamPool", "StreamLease",
           "AggregatedOp", "DEFAULT_STREAMS_PER_GPU",
           "DEFAULT_LEASE_TIMEOUT_S", "DEFAULT_QUARANTINE_THRESHOLD",
           "DEFAULT_QUARANTINE_PERIOD_S"]

#: "usually 128 per GPU" (Sec. 5.1)
DEFAULT_STREAMS_PER_GPU = 128

#: reservation leases older than this are considered leaked (the holder
#: acquired a stream but never enqueued, e.g. it raised in between) and
#: may be reclaimed by the next acquirer
DEFAULT_LEASE_TIMEOUT_S = 5.0

#: consecutive kernel faults on one stream before it is quarantined
DEFAULT_QUARANTINE_THRESHOLD = 3

#: seconds a quarantined stream sits out before probationary re-admission
DEFAULT_QUARANTINE_PERIOD_S = 1.0


class AggregatedOp:
    """A filled slot buffer executed as **one** stream operation.

    The device-side half of work aggregation (Daiß et al., arXiv
    2210.06438; see :mod:`repro.runtime.aggregate`): many buffered
    ``(fn, args)`` kernels occupy one queue slot, one dispatch, and one
    launch future — amortizing the per-launch overhead the aggregation
    paper targets.

    Stream-health semantics stay per *kernel*, not per launch: every slot
    goes through :meth:`CudaStream._run_kernel` — its own poison draw and
    fault-streak outcome (a sick stream faulting mid-buffer quarantines
    exactly as it would under one-kernel-per-launch) — and a slot raising
    never takes its neighbours down.  The launch future resolves with
    ``[(ok, value_or_exception), ...]`` in slot order;
    :func:`repro.runtime.aggregate._scatter` forwards these to the
    per-kernel futures.
    """

    __slots__ = ("items",)

    #: trace label (the worker loop reads ``__name__`` off the op)
    __name__ = "aggregated-op"

    def __init__(self, items: list[tuple[Callable[..., Any], tuple]]):
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def run(self, stream: "CudaStream") -> list[tuple[bool, Any]]:
        """Execute every slot on ``stream``; called by the device worker."""
        return [stream._run_kernel(fn, args) for fn, args in self.items]


class CudaStream:
    """A FIFO of asynchronous operations on a :class:`CudaDevice`."""

    def __init__(self, device: "CudaDevice", index: int):
        self.device = device
        self.index = index
        self._lock = _sanitize_lockdep.make_lock("cuda.stream")
        self._queue: collections.deque = collections.deque()
        self._in_flight = False
        self._reserved = False
        self._lease_token = 0
        self._lease_deadline = 0.0
        self._last_future: Future | None = None
        # stream-health state: consecutive-fault streak, quarantine expiry
        # (0.0 = healthy), probation flag, and the poison adversary hook
        self._fault_streak = 0
        self._quarantined_until = 0.0
        self._probation = False
        self._poison_left: int | None = 0  # None = poisoned forever
        self._poison_exc: Callable[[], BaseException] | None = None

    def enqueue(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit ``fn(*args)`` to the device; returns its future.

        Enqueueing consumes any outstanding :meth:`StreamPool.acquire`
        reservation on this stream (the acquired-for kernel is now queued,
        so ``busy()`` keeps reporting True through ``_in_flight`` instead).
        A device that is shut down refuses *before* anything is queued
        (the reservation is spent all the same): the stream stays idle
        and ``synchronize()`` still returns.
        """
        promise = Promise()
        fut = promise.get_future()
        dev = self.device
        # device lock outside the stream lock: acceptance and the hand-off
        # to the workers are one step against a concurrent shutdown()
        with dev._cond, self._lock:
            self._reserved = False
            if dev._shutdown:
                raise RuntimeError(f"device {dev.name} is shut down")
            if _sanitize_state.ACTIVE:
                # submitter -> device-worker edge (per-stream FIFO, so one
                # cumulative key per stream is exact for the head op)
                _racecheck.send(("stream-op", id(self)))
            self._queue.append((fn, args, promise))
            self._last_future = fut
            if not self._in_flight:
                self._in_flight = True
                dev._dispatch(self)
        return fut

    def enqueue_aggregated(self, items: list[tuple[Callable[..., Any], tuple]]
                           ) -> Future:
        """Submit a slot buffer as one aggregated launch (one queue op).

        The returned future resolves with per-slot ``(ok, value_or_exc)``
        outcomes in slot order; see :class:`AggregatedOp` for the
        stream-health semantics.
        """
        return self.enqueue(AggregatedOp(items))

    def record_event(self) -> Future:
        """Future ready when everything enqueued so far has completed."""
        with self._lock:
            last = self._last_future
        if last is None:
            from .future import make_ready_future
            return make_ready_future(None)
        return last.then(lambda _f: None)

    def busy(self) -> bool:
        with self._lock:
            return self._in_flight or self._reserved or bool(self._queue)

    def _try_reserve(self, timeout: float = DEFAULT_LEASE_TIMEOUT_S
                     ) -> int | None:
        """Atomically claim this stream if it is idle (pool-internal).

        Returns a lease token, or ``None`` when the stream is busy.  A
        reservation whose lease deadline has passed was leaked by its
        holder (acquired, never enqueued) and is reclaimed here, counted
        under ``/cuda/leases-reclaimed``.
        """
        readmitted = False
        with self._lock:
            if self._in_flight or self._queue:
                return None
            now = time.monotonic()
            if self._quarantined_until > 0.0:
                if now < self._quarantined_until:
                    return None
                # quarantine served: re-admit on probation (one more fault
                # sends the stream straight back)
                self._quarantined_until = 0.0
                self._probation = True
                readmitted = True
            if self._reserved:
                if now < self._lease_deadline:
                    return None
                default_registry().increment("/cuda/leases-reclaimed")
                if _sanitize_state.ACTIVE:
                    _sanitize_protocol.lease_reclaimed()
            self._reserved = True
            self._lease_token += 1
            self._lease_deadline = now + timeout
            token = self._lease_token
            if _sanitize_state.ACTIVE:
                # acquire edge from the previous holder's release (or the
                # device worker finishing the previous kernel), so writes
                # made under successive leases of one stream are ordered
                _racecheck.recv(("stream", id(self)))
        if readmitted:
            default_registry().increment("/cuda/readmitted")
            if trace.TRACING:
                trace.instant("stream-readmitted", "cuda",
                              device=self.device.name, stream=self.index)
        return token

    def release(self, token: int) -> None:
        """Give back a reservation without enqueueing a kernel.

        A no-op unless ``token`` (from :meth:`_try_reserve`, carried by
        the :class:`StreamLease`) still owns the reservation, so a late
        release can never clobber a newer holder's claim.
        """
        with self._lock:
            if self._reserved and self._lease_token == token:
                self._reserved = False
                if _sanitize_state.ACTIVE:
                    # lease handoff: the holder's writes happen-before
                    # whoever reserves this stream next
                    _racecheck.send(("stream", id(self)))

    # -- stream health -------------------------------------------------------

    def poison(self, count: int | None = None,
               exc_factory: Callable[[], BaseException] | None = None) -> None:
        """Make the next ``count`` kernels on this stream fail (adversary).

        ``count=None`` poisons the stream permanently.  Failures surface
        through the kernel futures as transient faults (default:
        :class:`repro.runtime.faults.TransientActionFault`), exactly
        like a sick SM would — the supervision layer must retry the work
        elsewhere and the health machinery must quarantine the stream.
        """
        with self._lock:
            self._poison_left = count
            self._poison_exc = exc_factory

    def quarantined(self) -> bool:
        """True while the stream is sitting out a quarantine."""
        with self._lock:
            return (self._quarantined_until > 0.0
                    and time.monotonic() < self._quarantined_until)

    def _consume_poison(self) -> BaseException | None:
        """One poison draw (device-worker side); returns the fault or None."""
        with self._lock:
            if self._poison_left == 0:
                return None
            if self._poison_left is not None:
                self._poison_left -= 1
            factory = self._poison_exc
        if factory is not None:
            return factory()
        return TransientActionFault(
            f"poisoned stream {self.index} on {self.device.name}")

    def _run_kernel(self, fn: Callable[..., Any], args: tuple
                    ) -> tuple[bool, Any]:
        """One kernel on this stream (device-worker side): poison draw,
        run, health outcome; returns ``(ok, value_or_exception)``."""
        exc = self._consume_poison()
        value = None
        if exc is None:
            try:
                value = fn(*args)
            except BaseException as caught:
                exc = caught
        self._record_kernel_outcome(ok=exc is None)
        return (True, value) if exc is None else (False, exc)

    def _record_kernel_outcome(self, ok: bool) -> None:
        """Track the consecutive-fault streak; quarantine past threshold."""
        dev = self.device
        if dev.quarantine_threshold is None:
            return
        quarantined = False
        with self._lock:
            if ok:
                self._fault_streak = 0
                self._probation = False
                return
            self._fault_streak += 1
            threshold = 1 if self._probation else dev.quarantine_threshold
            if self._fault_streak >= threshold:
                self._quarantined_until = (time.monotonic()
                                           + dev.quarantine_period)
                self._fault_streak = 0
                self._probation = False
                quarantined = True
        if quarantined:
            default_registry().increment("/cuda/quarantined")
            if trace.TRACING:
                trace.instant("stream-quarantined", "cuda",
                              device=dev.name, stream=self.index)

    # -- device side ---------------------------------------------------------

    def _pop(self) -> tuple | None:
        with self._lock:
            if not self._queue:
                self._in_flight = False
                return None
            return self._queue.popleft()


class CudaDevice:
    """A simulated GPU: a stream set serviced by device worker threads.

    Parameters
    ----------
    n_streams:
        Streams available (128 on the paper's P100/V100 setup).
    n_workers:
        Simulated concurrency of the device (number of host threads
        standing in for streaming multiprocessors).
    quarantine_threshold / quarantine_period:
        Consecutive kernel faults that quarantine a stream, and how long
        it sits out before probationary re-admission.  ``threshold=None``
        disables stream-health tracking entirely.
    """

    def __init__(self, n_streams: int = DEFAULT_STREAMS_PER_GPU,
                 n_workers: int = 4, name: str = "sim-gpu",
                 quarantine_threshold: int | None =
                 DEFAULT_QUARANTINE_THRESHOLD,
                 quarantine_period: float = DEFAULT_QUARANTINE_PERIOD_S):
        if n_streams < 1 or n_workers < 1:
            raise ValueError("need at least one stream and one worker")
        if quarantine_threshold is not None and quarantine_threshold < 1:
            raise ValueError("quarantine threshold must be >= 1 (or None)")
        if quarantine_period <= 0:
            raise ValueError("quarantine period must be positive")
        self.name = name
        self.quarantine_threshold = quarantine_threshold
        self.quarantine_period = quarantine_period
        self.streams = [CudaStream(self, i) for i in range(n_streams)]
        self._work: collections.deque = collections.deque()
        self._cond = _sanitize_lockdep.make_condition("cuda.device")
        self._shutdown = False
        self.kernels_executed = 0
        self._stats_lock = _sanitize_lockdep.make_lock("cuda.device-stats")
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"{name}-sm-{i}", daemon=True)
            for i in range(n_workers)
        ]
        for t in self._threads:
            t.start()

    def _dispatch(self, stream: CudaStream) -> None:
        """Hand a stream with queued ops to the workers (``_cond`` held).

        No shutdown check here: :meth:`CudaStream.enqueue` refuses new
        work on a shut-down device, and whatever was accepted before
        drains — workers exit only once ``_work`` is empty.
        """
        self._work.append(stream)
        self._cond.notify()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._work and not self._shutdown:
                    self._cond.wait()
                if self._shutdown and not self._work:
                    return
                stream = self._work.popleft()
            item = stream._pop()
            if item is None:
                continue
            fn, args, promise = item
            if _sanitize_state.ACTIVE:
                _racecheck.recv(("stream-op", id(stream)))
            t0 = time.perf_counter() if trace.TRACING else 0.0
            if isinstance(fn, AggregatedOp):
                # one queue op, one launch future, per-slot outcomes
                executed = len(fn)
                promise.set_value(fn.run(stream))
            else:
                executed = 1
                ok, value = stream._run_kernel(fn, args)
                if ok:
                    promise.set_value(value)
                else:
                    promise.set_exception(value)
            if trace.TRACING:
                trace.default_recorder().complete(
                    getattr(fn, "__name__", "kernel"), "cuda",
                    t0, time.perf_counter(),
                    device=self.name, stream=stream.index)
            with self._stats_lock:
                self.kernels_executed += executed
            # keep per-stream FIFO: only after completion may the next op run
            with stream._lock:
                more = bool(stream._queue)
                if not more:
                    stream._in_flight = False
                if _sanitize_state.ACTIVE:
                    # kernel completion happens-before the next reserve
                    _racecheck.send(("stream", id(stream)))
            if more:
                with self._cond:
                    self._dispatch(stream)

    def synchronize(self) -> None:
        """Block until every stream has drained (cudaDeviceSynchronize)."""
        for s in self.streams:
            s.record_event().get()

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        """Publish ``/cuda/<device>/...`` gauges into ``registry``."""
        registry = registry or default_registry()
        with self._stats_lock:
            executed = self.kernels_executed
        registry.set_gauge(f"/cuda/{self.name}/kernels-executed",
                           float(executed))
        registry.set_gauge(f"/cuda/{self.name}/streams",
                           float(len(self.streams)))
        registry.set_gauge(f"/cuda/{self.name}/streams-busy",
                           float(sum(s.busy() for s in self.streams)))
        registry.set_gauge(f"/cuda/{self.name}/streams-quarantined",
                           float(sum(s.quarantined() for s in self.streams)))

    def shutdown(self) -> None:
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "CudaDevice":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


class StreamLease:
    """A held stream reservation that cannot leak.

    Returned by :meth:`StreamPool.acquire`.  Use as a context manager (or
    call :meth:`release` explicitly): if the holder exits without having
    enqueued a kernel — e.g. an exception between acquire and launch —
    the reservation is given back immediately instead of pinning the
    stream until the lease timeout reclaims it.
    """

    __slots__ = ("stream", "_token", "_consumed", "_san_seq", "__weakref__")

    def __init__(self, stream: CudaStream, token: int):
        self.stream = stream
        self._token = token
        self._consumed = False
        if _sanitize_state.ACTIVE:
            _sanitize_protocol.lease_created(self)

    def enqueue(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Launch a kernel on the leased stream, consuming the lease."""
        if _sanitize_state.ACTIVE:
            _sanitize_protocol.lease_consumed(self)
        self._consumed = True
        return self.stream.enqueue(fn, *args)

    def enqueue_aggregated(self, items: list[tuple[Callable[..., Any], tuple]]
                           ) -> Future:
        """Launch a slot buffer as one aggregated op, consuming the lease."""
        if _sanitize_state.ACTIVE:
            _sanitize_protocol.lease_consumed(self)
        self._consumed = True
        return self.stream.enqueue_aggregated(items)

    def release(self) -> None:
        """Return the reservation unless a kernel was already enqueued."""
        if not self._consumed:
            if _sanitize_state.ACTIVE:
                _sanitize_protocol.lease_released(self)
            self._consumed = True
            self.stream.release(self._token)

    def __enter__(self) -> "StreamLease":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class StreamPool:
    """Non-blocking allocator of idle streams across one or more devices.

    Reservations are leases: they expire after ``lease_timeout`` seconds
    if the holder never enqueues, so a crashed caller cannot permanently
    remove a stream from circulation (reclaims are counted under
    ``/cuda/leases-reclaimed``).
    """

    def __init__(self, devices: list[CudaDevice],
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT_S):
        if not devices:
            raise ValueError("need at least one device")
        if lease_timeout <= 0:
            raise ValueError("lease timeout must be positive")
        self.devices = devices
        self.lease_timeout = lease_timeout
        self._lock = _sanitize_lockdep.make_lock("cuda.pool")
        self._rr = 0

    def acquire(self) -> StreamLease | None:
        """Reserve an idle stream; returns a lease, or ``None`` if busy.

        The leased stream is *reserved* (its ``busy()`` reports True) so
        concurrent acquirers can never be handed the same stream before
        either has enqueued anything; the reservation is consumed by
        :meth:`StreamLease.enqueue` or returned by
        :meth:`StreamLease.release` / lease expiry.

        Round-robins across devices so multi-GPU nodes (the 2×V100 rows of
        Table 2) share load.
        """
        with self._lock:
            all_streams = [s for d in self.devices for s in d.streams]
            n = len(all_streams)
            for k in range(n):
                s = all_streams[(self._rr + k) % n]
                token = s._try_reserve(self.lease_timeout)
                if token is not None:
                    self._rr = (self._rr + k + 1) % n
                    return StreamLease(s, token)
        return None

    @property
    def n_streams(self) -> int:
        return sum(len(d.streams) for d in self.devices)

