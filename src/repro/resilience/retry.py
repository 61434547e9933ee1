"""Reliable parcel delivery: ack/timeout/retry with exponential backoff.

The HPX parcel layer of the paper assumes a lossless interconnect; this
module wraps delivery so the runtime survives the faults
:class:`~repro.resilience.faults.FaultInjector` injects.  The model is the
classic acknowledged-datagram one:

* each send attempt either produces an *ack* (the action's future becomes
  ready within ``ack_timeout``), is *dropped* (injected loss — no ack), or
  is *delayed* past the ack timeout (indistinguishable from loss, so it is
  retried — delivery is at-least-once, like HPX parcel resends);
* between attempts the sender backs off exponentially
  (``base_backoff * backoff_factor**(attempt-1)``, capped at
  ``max_backoff``) — a pure function of the attempt number, so a seeded
  fault schedule fixes the whole send schedule;
* a :class:`~repro.runtime.faults.TransientActionFault` surfaced by the
  action's future also counts as a failed attempt and is retried;
* when the attempt budget is exhausted the caller gets an **exceptional
  future** carrying :class:`RetryBudgetExhausted` — never a hang, and
  never a synchronous raise (the Sec. 4.1 local/remote equivalence).

Non-transient action errors (application exceptions,
:class:`~repro.runtime.agas.LocalityFailed`, unknown GIDs) are *not*
retried: they propagate through the returned future untouched, because no
number of resends will fix them.

All activity is tallied under ``/resilience/parcels/...`` and, when
tracing is enabled, each send is recorded as a ``resilient-send`` span
with the attempt count.
"""

from __future__ import annotations

import time
from typing import Callable

from ..network.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..runtime import trace
from ..runtime.counters import CounterRegistry, default_registry
from ..runtime.faults import TransientActionFault
from ..runtime.future import Future, FutureTimeout, make_exceptional_future
from ..runtime.parcel import Parcel, ParcelHandler
from .faults import FaultInjector

__all__ = ["RetryBudgetExhausted", "ResilientParcelSender"]


class RetryBudgetExhausted(RuntimeError):
    """Every send attempt for a parcel failed; delivery gave up."""


class ResilientParcelSender:
    """Wraps a :class:`ParcelHandler` with ack/timeout/retry delivery.

    Parameters
    ----------
    handler:
        Destination parcel handler (its AGAS executes the actions).
    injector:
        Optional :class:`FaultInjector` supplying loss/delay on the send
        path.
    policy:
        Attempt budget and backoff schedule.
    sleep:
        Clock used for backoff/delay waits; tests pass a no-op or virtual
        clock.  Defaults to :func:`time.sleep`.
    """

    def __init__(self, handler: ParcelHandler,
                 injector: FaultInjector | None = None,
                 policy: RetryPolicy = DEFAULT_RETRY_POLICY,
                 registry: CounterRegistry | None = None,
                 sleep: Callable[[float], None] | None = None):
        self.handler = handler
        self.injector = injector
        self.policy = policy
        self.registry = registry or default_registry()
        self._sleep = time.sleep if sleep is None else sleep

    # -- delivery -----------------------------------------------------------

    def send(self, parcel: Parcel) -> Future:
        """Deliver ``parcel``, retrying on loss/timeout/transient fault.

        Returns the action's future on success; an exceptional future with
        :class:`RetryBudgetExhausted` when every attempt fails.  Never
        raises synchronously and never blocks longer than the backoff
        schedule plus ``max_attempts`` ack timeouts.
        """
        r = self.registry
        policy = self.policy
        r.increment("/resilience/parcels/sent")
        t0 = trace.begin() if trace.TRACING else 0.0
        last_failure = "loss"
        for attempt in range(1, policy.max_attempts + 1):
            r.increment("/resilience/parcels/attempts")
            fut = self._attempt(parcel)
            if fut is not None:
                if not fut.wait(policy.ack_timeout):
                    # action still running past the ack window: treat like a
                    # lost ack and resend (at-least-once delivery)
                    last_failure = "ack-timeout"
                    r.increment("/resilience/parcels/ack-timeouts")
                elif fut.has_exception() and self._is_transient(fut):
                    last_failure = "action-fault"
                    r.increment("/resilience/parcels/action-faults")
                else:
                    r.increment("/resilience/parcels/acked")
                    if attempt > 1:
                        r.increment("/resilience/parcels/recovered")
                    if trace.TRACING:
                        trace.complete("resilient-send", "resilience", t0,
                                       action=parcel.action, attempts=attempt)
                    return fut
            if attempt < policy.max_attempts:
                wait = policy.backoff(attempt)
                r.increment("/resilience/parcels/retries")
                r.increment("/resilience/backoff-seconds", wait)
                if trace.TRACING:
                    trace.instant("parcel-retry", "resilience",
                                  seq=parcel.seq, attempt=attempt)
                self._sleep(wait)
        r.increment("/resilience/parcels/exhausted")
        if trace.TRACING:
            trace.complete("resilient-send", "resilience", t0,
                           action=parcel.action, exhausted=True)
        return make_exceptional_future(RetryBudgetExhausted(
            f"parcel #{parcel.seq} ({parcel.action!r} -> "
            f"{parcel.destination}) undelivered after "
            f"{policy.max_attempts} attempts (last failure: {last_failure})"))

    def _attempt(self, parcel: Parcel) -> Future | None:
        """One send attempt; ``None`` means the message was dropped."""
        inj = self.injector
        if inj is not None:
            if inj.drop_message():
                self.registry.increment("/resilience/parcels/dropped")
                return None
            delay = inj.message_delay()
            if delay > 0.0:
                self.registry.increment("/resilience/parcels/delayed")
                if delay > self.policy.ack_timeout:
                    # the ack would arrive after the sender gave up; model
                    # it as loss (the duplicate-delivery case of real nets)
                    return None
                self._sleep(delay)
        return self.handler.deliver(parcel)

    @staticmethod
    def _is_transient(fut: Future) -> bool:
        """Typed transient-fault classification (never message sniffing):
        injected transient action faults and future timeouts are worth a
        resend; everything else (application errors, failed localities,
        unknown GIDs) is permanent."""
        try:
            fut.get(timeout=0.0)
        except (TransientActionFault, FutureTimeout):
            return True
        except BaseException:
            return False
        return False
