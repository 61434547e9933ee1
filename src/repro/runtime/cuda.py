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
   supplies the mechanism — :meth:`StreamPool.launch` puts a slot buffer
   on an idle stream in one step and returns its future, or returns
   ``None`` — and the rule itself is written once, in
   :class:`repro.runtime.aggregate.AggregationRegion` (one slot = the
   paper's one-kernel rule), whose gpu/cpu placement counters reproduce
   the 97.4995 % / 99.9997 % / 99.5207 % statistics of Sec. 6.1.2 (see
   ``repro.simulator.scaling``).

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
stream is **quarantined** — :meth:`StreamPool.launch` skips it, so the
launch rule transparently overflows its work to healthy streams or the
CPU.  After ``quarantine_period`` seconds the stream is re-admitted **on
probation**: one more fault re-quarantines it immediately, one success
clears the probation.  Quarantines are counted under
``/cuda/quarantined`` (re-admissions under ``/cuda/readmitted``) and
per-device gauges; :meth:`CudaStream.poison` is the matching adversary
hook used by the chaos tests.

**Work aggregation.**  Every stream operation is a slot buffer: a list
of ``(fn, args)`` kernels that takes one queue entry, one dispatch and
one launch future, following the Octo-Tiger aggregated-kernel design
(Daiß et al., arXiv 2210.06438); a one-kernel launch is a one-slot
buffer.  Poison draws and fault-streak accounting remain per slot, so
quarantine behaviour does not depend on how kernels were buffered; the
buffering/flush policy lives in :mod:`repro.runtime.aggregate`.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Callable

from . import trace
from ..sanitize import lockdep as _sanitize_lockdep
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .counters import CounterRegistry, default_registry
from .faults import TransientActionFault
from .future import Future, Promise, make_ready_future

__all__ = ["CudaDevice", "CudaStream", "StreamPool",
           "DEFAULT_STREAMS_PER_GPU", "DEFAULT_QUARANTINE_THRESHOLD",
           "DEFAULT_QUARANTINE_PERIOD_S"]

#: "usually 128 per GPU" (Sec. 5.1)
DEFAULT_STREAMS_PER_GPU = 128

#: consecutive kernel faults on one stream before it is quarantined
DEFAULT_QUARANTINE_THRESHOLD = 3

#: seconds a quarantined stream sits out before probationary re-admission
DEFAULT_QUARANTINE_PERIOD_S = 1.0


class CudaStream:
    """A FIFO of asynchronous slot-buffer launches on a :class:`CudaDevice`."""

    def __init__(self, device: "CudaDevice", index: int):
        self.device = device
        self.index = index
        self._lock = _sanitize_lockdep.make_lock("cuda.stream")
        self._queue: collections.deque = collections.deque()
        self._in_flight = False
        self._last_future: Future | None = None
        # stream-health state: consecutive-fault streak, quarantine expiry
        # (0.0 = healthy), probation flag, and the poison adversary hook
        self._fault_streak = 0
        self._quarantined_until = 0.0
        self._probation = False
        self._poison_left: int | None = 0  # None = poisoned forever
        self._poison_exc: Callable[[], BaseException] | None = None

    def enqueue(self, items: list[tuple[Callable[..., Any], tuple]]
                ) -> Future:
        """Queue a slot buffer behind whatever this stream already holds.

        ``items`` are ``(fn, args)`` kernels run in slot order as *one*
        stream operation; the returned launch future resolves with their
        ``(ok, value_or_exception)`` outcomes in slot order, and a slot
        raising never takes its neighbours down.  A device that is shut
        down refuses *before* anything is queued: the stream stays idle
        and ``synchronize()`` still returns.  The launch rule never queues
        behind work — :meth:`StreamPool.launch` only picks idle streams.
        """
        dev = self.device
        # device lock outside the stream lock: acceptance and the hand-off
        # to the workers are one step against a concurrent shutdown()
        with dev._cond, self._lock:
            if dev._shutdown:
                raise RuntimeError(f"device {dev.name} is shut down")
            return self._put(items)

    def _launch_if_idle(self, items: list[tuple[Callable[..., Any], tuple]]
                        ) -> Future | None:
        """Launch ``items`` here if the stream can take them (pool-internal).

        Returns ``None`` when the device is shut down, the stream is busy
        or it is sitting out a quarantine.  The check and the hand-off are
        one step under the device and stream locks, so no second caller
        can slip in between.  A served quarantine is re-admitted here, on
        probation, and counted under ``/cuda/readmitted``.
        """
        dev = self.device
        readmitted = False
        with dev._cond, self._lock:
            if dev._shutdown or self._in_flight or self._queue:
                return None
            if self._quarantined_until > 0.0:
                if time.monotonic() < self._quarantined_until:
                    return None
                # quarantine served: re-admit on probation (one more fault
                # sends the stream straight back)
                self._quarantined_until = 0.0
                self._probation = True
                readmitted = True
            if _sanitize_state.ACTIVE:
                # acquire edge from the device worker that finished this
                # stream's previous launch, so kernels of successive
                # launches on one stream are ordered
                _racecheck.recv(("stream", id(self)))
            fut = self._put(items)
        if readmitted:
            default_registry().increment("/cuda/readmitted")
            if trace.TRACING:
                trace.instant("stream-readmitted", "cuda",
                              device=dev.name, stream=self.index)
        return fut

    def _put(self, items: list[tuple[Callable[..., Any], tuple]]) -> Future:
        """Queue ``items`` as one op (device and stream locks held)."""
        promise = Promise()
        fut = promise.get_future()
        if _sanitize_state.ACTIVE:
            # submitter -> device-worker edge (per-stream FIFO, so one
            # cumulative key per stream is exact for the head op)
            _racecheck.send(("stream-op", id(self)))
        self._queue.append((items, promise))
        self._last_future = fut
        if not self._in_flight:
            self._in_flight = True
            self.device._dispatch(self)
        return fut

    def record_event(self) -> Future:
        """Future ready when everything enqueued so far has completed."""
        with self._lock:
            last = self._last_future
        if last is None:
            return make_ready_future(None)
        return last.then(lambda _f: None)

    def busy(self) -> bool:
        with self._lock:
            return self._in_flight or bool(self._queue)

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
        """One slot on this stream (device-worker side): poison draw,
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
        Consecutive kernel faults (at least one) that quarantine a
        stream, and how long it sits out before probationary
        re-admission.
    """

    def __init__(self, n_streams: int = DEFAULT_STREAMS_PER_GPU,
                 n_workers: int = 4, name: str = "sim-gpu",
                 quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
                 quarantine_period: float = DEFAULT_QUARANTINE_PERIOD_S):
        if n_streams < 1 or n_workers < 1:
            raise ValueError("need at least one stream and one worker")
        if quarantine_threshold < 1:
            raise ValueError("quarantine threshold must be >= 1")
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

        No shutdown check here: nothing is queued on a shut-down device,
        and whatever was accepted before drains — workers exit only once
        ``_work`` is empty.
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
            items, promise = item
            if _sanitize_state.ACTIVE:
                _racecheck.recv(("stream-op", id(stream)))
            t0 = time.perf_counter() if trace.TRACING else 0.0
            # one queue op, one launch future, per-slot outcomes
            promise.set_value([stream._run_kernel(fn, args)
                               for fn, args in items])
            if trace.TRACING:
                trace.complete(getattr(items[0][0], "__name__", "kernel"),
                               "cuda", t0, device=self.name,
                               stream=stream.index, slots=len(items))
            with self._stats_lock:
                self.kernels_executed += len(items)
            # keep per-stream FIFO: only after completion may the next op run
            with stream._lock:
                more = bool(stream._queue)
                if not more:
                    stream._in_flight = False
                if _sanitize_state.ACTIVE:
                    # kernel completion happens-before the next launch
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


class StreamPool:
    """The launch rule's mechanism: a slot buffer onto an idle stream.

    Round-robins across devices so multi-GPU nodes (the 2×V100 rows of
    Table 2) share load.
    """

    def __init__(self, devices: list[CudaDevice]):
        if not devices:
            raise ValueError("need at least one device")
        self._streams = [s for d in devices for s in d.streams]
        self._lock = _sanitize_lockdep.make_lock("cuda.pool")
        self._rr = 0

    def launch(self, items: list[tuple[Callable[..., Any], tuple]]
               ) -> Future | None:
        """Put ``items`` on an idle stream; its launch future, or ``None``.

        Visits the streams round-robin and launches on the first one that
        is idle, not quarantined and whose device is not shut down — the
        check and the launch are one step under that stream's device and
        stream locks, so concurrent callers are never handed the same
        stream.  ``None`` means no stream can take the buffer: the caller
        runs it on the CPU (Sec. 5.1).
        """
        with self._lock:
            n = len(self._streams)
            for k in range(n):
                fut = self._streams[(self._rr + k) % n]._launch_if_idle(items)
                if fut is not None:
                    self._rr = (self._rr + k + 1) % n
                    return fut
        return None
