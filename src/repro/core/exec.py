"""Futurized execution engine: the gravity+hydro hot-path dispatcher.

The paper's node-level execution model (Sec. 5.1) couples three pieces:
per-subgrid kernels are wrapped in HPX tasks on a work-stealing
scheduler; each CPU worker, when it reaches a kernel launch, first tries
to grab an idle CUDA stream (the kernel then runs on the GPU and its
completion is a future); if every stream it can see is busy the kernel
overflows onto the CPU worker itself.  The :class:`ExecutionEngine`
reproduces exactly that routing for *real* solver work —
:meth:`repro.core.gravity.fmm.FmmSolver.solve` hands it the recorded
M2L/P2P interaction batches, :class:`repro.core.mesh.BlockMesh` hands it
the hydro right-hand side of one x-slab of its box per task (whole block
layers, about ``agg_slots`` sub-grids, one ``compute_rhs`` call), the
sharded mesh one aggregation chunk of ``agg_slots`` blocks per task —
instead of only for the synthetic kernels of the simulator.

The engine owns the *distribution* (chunks to workers) and the
*accounting*; the GPU-or-CPU decision itself is made in exactly one
place, :meth:`repro.runtime.aggregate.AggregationRegion._flush` (Daiß et
al., arXiv 2210.06438): :meth:`map` splits a batch into
slot-buffer-sized chunks, and each chunk task opens a region that
coalesces its kernels into a single aggregated stream launch.  Callers
are oblivious — they still get one future per kernel, in input order —
but the device sees one launch per filled slot buffer instead of one per
kernel; ``agg_slots=1`` is the paper's one-kernel-per-launch rule.

Placement accounting: every task placement is counted, GPU placements
under ``/cuda/launched/gpu`` and CPU placements (stream-less engines and
``use_device=False`` included) under ``/cuda/launched/cpu``, so
``/exec/launched/gpu + /exec/launched/cpu == /exec/tasks`` always
reconciles.  GPU placements are recorded once the slot buffer is on a
stream; a buffer no stream can take (all busy or quarantined, or the
device shut down) runs on the CPU and is counted there — keeping the
Sec. 6.1.2 launch-ratio statistic honest.
:meth:`publish_counters` also publishes ``/cuda/aggregated-per-launch``
(kernels carried per aggregated GPU launch) and republishes the
scheduler's ``/threads/...`` gauges so one call snapshots the whole hot
path.

Every combination of resources degrades gracefully:

========== ========= ==================================================
scheduler  device(s)  behaviour
========== ========= ==================================================
yes        yes        chunk tasks fan out to workers; each chunk's region
                      launches one aggregated op on an idle stream,
                      overflowing to its own worker (the paper's rule)
yes        no         plain work-stealing CPU execution
no         yes        calling thread fills one region over the whole
                      batch; buffer-full flushes launch on streams
no         no         synchronous execution (serial reference)
========== ========= ==================================================
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import numpy as np

from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from ..runtime.aggregate import AggregationRegion, DEFAULT_AGG_SLOTS
from ..runtime.counters import CounterRegistry, default_registry
from ..runtime.cuda import CudaDevice, StreamPool
from ..runtime.future import Future, Promise
from ..runtime.scheduler import WorkStealingScheduler

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Routes batches of kernel work to scheduler workers and GPU streams.

    Parameters
    ----------
    scheduler:
        Optional :class:`~repro.runtime.scheduler.WorkStealingScheduler`;
        when present, submitted work becomes stealable chunk tasks.
    devices:
        Optional :class:`~repro.runtime.cuda.CudaDevice` list; when
        present, chunk regions launch on an idle stream of a shared
        :class:`~repro.runtime.cuda.StreamPool` or overflow to the CPU —
        the paper's launch rule.
    registry:
        Counter registry for ``/cuda/launched/*``, ``/cuda/agg-*`` and
        ``/exec/*`` (default: the global registry).
    agg_slots:
        Work aggregation: kernels are coalesced into aggregated launches
        of up to ``agg_slots`` slots (1 = one launch per kernel, same
        rule and accounting).
    """

    def __init__(self, scheduler: WorkStealingScheduler | None = None,
                 devices: Sequence[CudaDevice] | None = None,
                 registry: CounterRegistry | None = None,
                 agg_slots: int = DEFAULT_AGG_SLOTS):
        if agg_slots < 1:
            raise ValueError("need at least one aggregation slot")
        self.scheduler = scheduler
        self.devices = list(devices or ())
        self.pool = StreamPool(self.devices) if self.devices else None
        self.registry = registry or default_registry()
        self.agg_slots = agg_slots
        self._lock = threading.Lock()
        self.gpu_launches = 0    # kernels placed on GPU streams
        self.cpu_launches = 0    # kernels placed on CPU workers
        self.agg_launches = 0    # aggregated GPU launches carrying them
        self.agg_tasks = 0       # kernels carried by aggregated launches

    # -- placement ---------------------------------------------------------

    def _count_flush(self, gpu: bool, n: int) -> None:
        """Region flush callback: count ``n`` placed kernels.

        Called by :class:`AggregationRegion` once a slot buffer is on a
        stream (GPU) or for the inline overflow run (CPU), so the launch
        gauges always reconcile with ``/exec/tasks``.
        """
        with self._lock:
            if gpu:
                self.gpu_launches += n
                self.agg_launches += 1
                self.agg_tasks += n
            else:
                self.cpu_launches += n
        self.registry.increment(
            "/cuda/launched/gpu" if gpu else "/cuda/launched/cpu", float(n))

    def _open_region(self, use_device: bool) -> AggregationRegion:
        pool = self.pool if use_device else None
        return AggregationRegion(pool, slots=self.agg_slots,
                                 registry=self.registry,
                                 on_flush=self._count_flush)

    def _run_chunk(self, fn: Callable[..., Any],
                   argtuples: Sequence[tuple],
                   promises: Sequence[Promise], use_device: bool) -> None:
        """One chunk task: an aggregation region over its slot buffer."""
        with self._open_region(use_device) as region:
            for args, promise in zip(argtuples, promises):
                region.push(fn, args, promise)

    # -- public API --------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any,
               use_device: bool = True) -> Future:
        """Run ``fn(*args)`` under the engine's routing; returns a future."""
        return self.map(fn, [args], use_device=use_device)[0]

    def map(self, fn: Callable[..., Any], argtuples: Sequence[tuple],
            use_device: bool = True) -> list[Future]:
        """Dispatch ``fn(*args)`` for every tuple; futures in input order.

        With a scheduler, the batch is split into slot-buffer-sized
        chunks and posted as stealable tasks (``/threads/stolen``) — the
        paper's breadth-first distribution, at aggregated granularity; a
        single-chunk batch (``submit`` in particular) is posted directly,
        skipping the fan-out double-hop.  Without a scheduler, the
        calling thread fills one region over the whole batch, so
        buffer-full flushes still overlap device work with the dispatch
        loop.
        """
        argtuples = [tuple(args) for args in argtuples]
        promises = [Promise() for _ in argtuples]
        if _sanitize_state.ACTIVE:
            # declare every ndarray argument (and every ndarray of a
            # list argument: a batched kernel's blocks) as read at
            # dispatch: the post/future edges order these against the
            # kernels, so an unsynchronized mutation of a buffer already
            # handed to the engine surfaces as a two-access report
            label = f"exec:{getattr(fn, '__name__', 'kernel')}"
            for args in argtuples:
                for arg in args:
                    for a in (arg if isinstance(arg, (list, tuple))
                              else (arg,)):
                        if isinstance(a, np.ndarray):
                            _racecheck.access(a, "r", owner=label)
        self.registry.increment("/exec/batches")
        self.registry.increment("/exec/tasks", float(len(argtuples)))
        if self.scheduler is None:
            if argtuples:
                self._run_chunk(fn, argtuples, promises, use_device)
        else:
            size = self.agg_slots
            tasks = [
                (lambda a=argtuples[lo:lo + size], p=promises[lo:lo + size]:
                 self._run_chunk(fn, a, p, use_device))
                for lo in range(0, len(argtuples), size)
            ]
            if len(tasks) == 1:
                # single-task fast path: no fan-out hop for one chunk
                self.scheduler.post(tasks[0])
            elif tasks:

                def fan_out() -> None:
                    self.scheduler.post_batch(tasks)

                self.scheduler.post(fan_out)
        return [p.get_future() for p in promises]

    def synchronize(self) -> None:
        """Drain the scheduler and every device (barrier for diagnostics)."""
        if self.scheduler is not None:
            self.scheduler.wait_idle()
        for dev in self.devices:
            dev.synchronize()

    # -- diagnostics -------------------------------------------------------

    @property
    def gpu_fraction(self) -> float:
        """Fraction of placed kernels that ran on a GPU stream."""
        with self._lock:
            total = self.gpu_launches + self.cpu_launches
            return self.gpu_launches / total if total else 0.0

    @property
    def aggregated_per_launch(self) -> float:
        """Kernels carried per aggregated GPU launch (the coalescing win)."""
        with self._lock:
            return (self.agg_tasks / self.agg_launches
                    if self.agg_launches else 0.0)

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        """Snapshot engine + scheduler + device gauges into ``registry``."""
        registry = registry or self.registry
        with self._lock:
            gpu, cpu = self.gpu_launches, self.cpu_launches
            agg_launches, agg_tasks = self.agg_launches, self.agg_tasks
        total = gpu + cpu
        registry.set_gauge("/exec/launched/gpu", float(gpu))
        registry.set_gauge("/exec/launched/cpu", float(cpu))
        registry.set_gauge("/exec/gpu-fraction",
                           gpu / total if total else 0.0)
        registry.set_gauge("/cuda/aggregated-per-launch",
                           agg_tasks / agg_launches if agg_launches else 0.0)
        if self.scheduler is not None:
            self.scheduler.publish_counters(registry)
        for dev in self.devices:
            dev.publish_counters(registry)
