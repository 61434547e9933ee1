"""GPU work aggregation: slot buffers coalescing kernels into one launch.

The AMT runtime produces thousands of tiny per-subgrid kernels (one per
recorded M2L/P2P batch, one per sub-grid RHS); launching each as its own
stream operation pays the per-launch and per-lease overhead thousands of
times per step.  The Octo-Tiger work-aggregation line (Daiß et al.,
"From Task-Based GPU Work Aggregation to Stellar Mergers: Turning Fine-
Grained CPU Tasks into Portable GPU Kernels", arXiv 2210.06438) fixes
this with *aggregation regions*: work destined for the device is staged
into a fixed number of **slots**; when the buffer fills — or the region
ends — the whole slot buffer goes to the GPU as **one** aggregated
launch.

:class:`AggregationRegion` is that mechanism for our simulated CUDA
layer.  Kernels are pushed into the region's slot buffer and flushed as
a single :class:`~repro.runtime.cuda.AggregatedOp` on one leased stream:

* **flush triggers** — buffer full (``slots`` pending), explicit
  :meth:`flush`, :meth:`synchronize`, or region exit (context manager);
* **placement** — :meth:`AggregationRegion._flush` is the one place in
  ``src/`` that decides GPU-or-CPU and the one caller of
  :meth:`~repro.runtime.cuda.StreamPool.acquire`: it takes a stream
  lease from the pool and enqueues the aggregated op; if no idle stream
  exists (or the enqueue itself fails, e.g. a device shutting down
  mid-flush) the buffered kernels run inline on the calling CPU worker
  — the paper's Sec. 5.1 GPU-else-CPU rule at aggregated granularity,
  and exactly that rule, one kernel per launch, at ``slots=1``; an
  overflowed buffer leaves one ``cuda`` trace span with
  ``device="cpu-fallback"``;
* **accounting** — placements are reported through ``on_flush(gpu, n)``
  only *after* a successful enqueue (or, for the CPU path, around the
  inline execution), so a faulting enqueue can never inflate the GPU
  launch statistics;
* **identity** — each buffered kernel keeps its own promise; the
  aggregated launch future scatters per-slot ``(ok, value-or-exception)``
  outcomes back to them, so callers are oblivious to the coalescing and
  recorded-order accumulation replay (the FMM bit-identity contract)
  is untouched.

A region buffers work for **one task** and is deliberately not
thread-safe — the execution engine opens one region per chunk task,
mirroring the per-executor-thread slot buffers of the aggregation paper.

Counters (all under ``/cuda``): ``agg-launches`` (aggregated GPU
launches), ``agg-tasks`` (kernels they carried), ``agg-flush/<reason>``
(flush trigger histogram), ``agg-enqueue-failed`` (enqueues that threw
and fell back to the CPU).  The tasks-per-launch ratio is published by
:meth:`repro.core.exec.ExecutionEngine.publish_counters` as
``/cuda/aggregated-per-launch``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from . import trace
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .counters import CounterRegistry, default_registry
from .cuda import StreamPool
from .future import Future, Promise

__all__ = ["AggregationRegion", "DEFAULT_AGG_SLOTS"]

#: default slot-buffer capacity of an aggregation region (kernels per
#: aggregated launch); the benchmark config fills several buffers per
#: FMM solve, giving a tasks-per-launch ratio well above 1
DEFAULT_AGG_SLOTS = 16


def _scatter(launch_fut: Future, promises: list[Promise]) -> None:
    """Distribute an aggregated launch's per-slot outcomes to promises.

    The launch future resolves with a list of ``(ok, value_or_exc)``
    pairs in slot order (see :class:`~repro.runtime.cuda.AggregatedOp`);
    a launch-level exception (the whole op failed to run) is forwarded
    to every slot.
    """
    if launch_fut.has_exception():
        try:
            launch_fut.get(timeout=0.0)
        except BaseException as exc:
            for promise in promises:
                promise.set_exception(exc)
        return
    for (ok, value), promise in zip(launch_fut.get(timeout=0.0), promises):
        if ok:
            promise.set_value(value)
        else:
            promise.set_exception(value)


class AggregationRegion:
    """A slot buffer coalescing kernel submissions into aggregated launches.

    Parameters
    ----------
    pool:
        :class:`~repro.runtime.cuda.StreamPool` to lease streams from;
        ``None`` pins the region to the CPU (every flush runs inline).
    slots:
        Slot-buffer capacity; a push that fills the buffer triggers an
        automatic flush (the paper's buffer-full launch trigger).
    registry:
        Counter registry for the ``/cuda/agg-*`` statistics.
    on_flush:
        Optional callback ``on_flush(gpu: bool, n: int)`` reporting each
        flushed placement — invoked only after a successful aggregated
        enqueue (GPU) or around the inline execution (CPU), so launch
        accounting cannot run ahead of the launch itself.

    Use as a context manager; exit flushes the remaining slots::

        with AggregationRegion(pool, slots=16) as region:
            futs = [region.submit(kernel, batch) for batch in batches]
        values = [f.get() for f in futs]
    """

    def __init__(self, pool: StreamPool | None,
                 slots: int = DEFAULT_AGG_SLOTS,
                 registry: CounterRegistry | None = None,
                 on_flush: Callable[[bool, int], None] | None = None):
        if slots < 1:
            raise ValueError("need at least one slot")
        self.pool = pool
        self.slots = slots
        self.registry = registry or default_registry()
        self._on_flush = on_flush
        self._pending: list[tuple[Callable[..., Any], tuple, Promise]] = []
        self._launch_futures: list[Future] = []
        self.launches = 0        # aggregated GPU launches
        self.gpu_tasks = 0       # kernels carried by them
        self.cpu_tasks = 0       # kernels that ran inline (overflow)

    # -- submission --------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Buffer ``fn(*args)`` into the next free slot; returns its future."""
        promise = Promise()
        self.push(fn, args, promise)
        return promise.get_future()

    def push(self, fn: Callable[..., Any], args: tuple,
             promise: Promise) -> None:
        """Buffer a kernel whose outcome feeds an existing promise.

        This is the execution-engine entry point (the engine creates the
        promises up front so callers get futures in input order before
        any flush happens).
        """
        if _sanitize_state.ACTIVE:
            # slot-fill edge: whatever the pusher wrote into the slot's
            # arguments happens-before the flush that launches them
            _racecheck.send(("agg", id(self)))
        self._pending.append((fn, tuple(args), promise))
        if len(self._pending) >= self.slots:
            self._flush("full")

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Launch whatever is buffered now, without waiting for it."""
        self._flush("explicit")

    def synchronize(self, timeout: float | None = None) -> None:
        """Flush, then block until every aggregated launch has completed.

        Slot-level outcomes (including exceptions) stay on the per-kernel
        futures; this only waits for the launches to drain.
        """
        self._flush("sync")
        futures, self._launch_futures = self._launch_futures, []
        for fut in futures:
            fut.wait(timeout)

    def _flush(self, reason: str) -> None:
        pending, self._pending = self._pending, []
        if not pending:
            return
        if _sanitize_state.ACTIVE:
            _racecheck.recv(("agg", id(self)))
        n = len(pending)
        lease = self.pool.acquire() if self.pool is not None else None
        if lease is not None:
            launch_fut = None
            try:
                with lease:
                    launch_fut = lease.enqueue_aggregated(
                        [(fn, args) for fn, args, _ in pending])
            except BaseException:
                # the enqueue itself failed (device shut down, stream
                # revoked): nothing was launched, nothing may be counted
                # as a GPU placement — overflow the buffer to the CPU
                self.registry.increment("/cuda/agg-enqueue-failed")
            if launch_fut is not None:
                self.launches += 1
                self.gpu_tasks += n
                self.registry.increment("/cuda/agg-launches")
                self.registry.increment("/cuda/agg-tasks", float(n))
                self.registry.increment(f"/cuda/agg-flush/{reason}")
                if self._on_flush is not None:
                    self._on_flush(True, n)
                promises = [promise for _, _, promise in pending]
                launch_fut.then(lambda f: _scatter(f, promises))
                self._launch_futures.append(launch_fut)
                return
        # CPU overflow: run the whole buffer inline, one slot at a time,
        # with per-slot exception isolation (same contract as the device)
        self.cpu_tasks += n
        if self._on_flush is not None:
            self._on_flush(False, n)
        # a region with a pool got here by overflow: keep it on the timeline
        traced = trace.TRACING and self.pool is not None
        t0 = time.perf_counter() if traced else 0.0
        for fn, args, promise in pending:
            try:
                promise.set_value(fn(*args))
            except BaseException as exc:
                promise.set_exception(exc)
        if traced:
            trace.complete(getattr(pending[0][0], "__name__", "kernel"),
                           "cuda", t0, device="cpu-fallback", slots=n)

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "AggregationRegion":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._flush("exit")
