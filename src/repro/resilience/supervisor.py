"""Supervised task execution: bounded re-execution of transient faults.

The retry layer (:mod:`repro.resilience.retry`) makes *parcel delivery*
reliable; this module does the same for the *compute* hot path.  A
:class:`SupervisedEngine` wraps an
:class:`~repro.core.exec.ExecutionEngine` and re-executes any task whose
future resolves with a transient fault — an injected
:class:`~repro.runtime.faults.TransientActionFault` (e.g. from a
poisoned CUDA stream) or a :class:`~repro.runtime.future.FutureTimeout` —
up to ``max_retries`` times before surfacing the failure.

The supervisor preserves the bitwise-replay property the acceptance tests
rely on: a retried task *recomputes into fresh buffers* (the kernel
function is pure — same args in, new output array out), and callers such
as :meth:`repro.core.gravity.fmm.FmmSolver.solve` accumulate results by
calling ``fut.get()`` in plan order; a batched hydro RHS task
(``repro.core.mesh.BlockMesh._rhs``) fully overwrites the chunk
output it was handed, so re-running it is idempotent.  A task that
failed twice and succeeded on the third attempt therefore contributes
exactly the bytes it would have contributed in a fault-free run — the
accumulation order never depends on *when* futures completed.

Supervision is fully asynchronous: retries are chained through future
callbacks (never a blocking wait inside the engine), so a retry posted
from a worker thread is just another task for the scheduler.  Placement
is re-decided per attempt — a task whose stream was quarantined after its
failure overflows to the CPU or another stream on retry, which is how
stream quarantine and task re-execution compose in the chaos run.

An optional :class:`~repro.resilience.faults.FaultInjector` makes the
supervisor its own adversary: each attempt first consults
``injector.maybe_action_fault()``, modelling transient failures *inside*
task execution (distinct from the receive-side faults the parcel layer
injects).  With a finite ``max_action_faults`` budget every injected
fault is transient by construction.

Re-execution is the *local* recovery tier.  A failure the supervisor
cannot retry away — a non-transient exception such as a
:class:`~repro.runtime.agas.LocalityFailed` from a dead node, or a
transient one whose retries ran out — is **escalated**: counted once
under ``/resilience/tasks/escalated`` and surfaced through the task's
future with its original exception, where the caller (the merger's kill
handler, a :class:`~repro.resilience.durability.RecoveryCoordinator`)
decides whether the run needs a global rollback.

Counters: ``/resilience/tasks/submitted``, ``/resilience/tasks/retried``,
``/resilience/tasks/recovered`` (tasks that ultimately succeeded after at
least one retry), ``/resilience/tasks/gave-up`` and
``/resilience/tasks/escalated``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core.exec import ExecutionEngine
from ..runtime import trace
from ..runtime.counters import CounterRegistry
from ..runtime.faults import TransientActionFault
from ..runtime.future import Future, FutureTimeout, Promise
from .faults import FaultInjector

__all__ = ["SupervisedEngine", "DEFAULT_TASK_RETRIES"]

#: re-execution budget per task (attempts = 1 + retries)
DEFAULT_TASK_RETRIES = 3

#: exception types worth re-executing; anything else (application errors,
#: failed localities) surfaces on the first attempt
TRANSIENT = (TransientActionFault, FutureTimeout)


class SupervisedEngine:
    """An :class:`~repro.core.exec.ExecutionEngine` with task supervision.

    Drop-in for the engine everywhere one is accepted (``BlockMesh``,
    ``FmmSolver.solve``): exposes the same ``submit`` /
    ``map`` / ``synchronize`` / ``publish_counters`` surface and the same
    ``agg_slots``.

    Parameters
    ----------
    engine:
        The engine to wrap.
    injector:
        Optional fault injector consulted once per *attempt* (transient
        execution faults, budget-bounded).
    max_retries:
        Re-executions allowed per task after the first attempt.
    """

    def __init__(self, engine: ExecutionEngine, *,
                 injector: FaultInjector | None = None,
                 max_retries: int = DEFAULT_TASK_RETRIES,
                 registry: CounterRegistry | None = None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.engine = engine
        self.injector = injector
        self.max_retries = max_retries
        self.registry = registry or engine.registry

    # -- engine surface ------------------------------------------------------

    @property
    def agg_slots(self) -> int:
        return self.engine.agg_slots

    def synchronize(self) -> None:
        self.engine.synchronize()

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        self.engine.publish_counters(registry)

    # -- supervised dispatch -------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any,
               use_device: bool = True) -> Future:
        """Run ``fn(*args)`` with supervision; returns a future."""
        return self.map(fn, [args], use_device=use_device)[0]

    def map(self, fn: Callable[..., Any], argtuples: Sequence[tuple],
            use_device: bool = True) -> list[Future]:
        """Dispatch every tuple through the wrapped engine; futures in
        input order.  The first attempt keeps the engine's batched fan-out
        (one scheduler post for the whole batch); retries are resubmitted
        individually as they fail."""
        argtuples = [tuple(a) for a in argtuples]
        run = fn if self.injector is None \
            else (lambda *a: self._run_injected(fn, a))
        self.registry.increment("/resilience/tasks/submitted",
                                float(len(argtuples)))
        promises = [Promise() for _ in argtuples]
        inner = self.engine.map(run, argtuples, use_device=use_device)
        for args, pr, fut in zip(argtuples, promises, inner):
            self._supervise(run, args, use_device, pr, fut, attempt=1)
        return [p.get_future() for p in promises]

    def _run_injected(self, fn: Callable[..., Any], args: tuple) -> Any:
        exc = self.injector.maybe_action_fault()
        if exc is not None:
            raise exc
        return fn(*args)

    def _supervise(self, run, args, use_device, promise: Promise,
                   fut: Future, attempt: int) -> None:
        fut.then(lambda f: self._on_done(f, run, args, use_device,
                                         promise, attempt))

    def _on_done(self, fut: Future, run, args, use_device,
                 promise: Promise, attempt: int) -> None:
        r = self.registry
        if not fut.has_exception():
            if attempt > 1:
                r.increment("/resilience/tasks/recovered")
            promise.set_value(fut.get())
            return
        try:
            fut.get(timeout=0.0)
            exc: BaseException = RuntimeError("unreachable")
        except BaseException as caught:
            exc = caught
        if isinstance(exc, TRANSIENT) and attempt <= self.max_retries:
            r.increment("/resilience/tasks/retried")
            if trace.TRACING:
                trace.instant("task-retry", "resilience", attempt=attempt)
            # fresh buffers: the task recomputes from its original args;
            # placement is re-decided (a quarantined stream is skipped)
            refut = self.engine.map(run, [args], use_device=use_device)[0]
            self._supervise(run, args, use_device, promise, refut,
                            attempt + 1)
            return
        if isinstance(exc, TRANSIENT):
            r.increment("/resilience/tasks/gave-up")
            if trace.TRACING:
                trace.instant("task-gave-up", "resilience", attempt=attempt)
        r.increment("/resilience/tasks/escalated")
        if trace.TRACING:
            trace.instant("task-escalated", "resilience",
                          attempt=attempt, exc=type(exc).__name__)
        promise.set_exception(exc)
