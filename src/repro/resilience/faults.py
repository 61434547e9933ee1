"""Deterministic fault injection for the runtime and network model.

The paper's production runs (Sec. 6.2/6.3, up to 5400 Piz Daint nodes)
assume a fault-free machine; the follow-up AMT survey (arXiv:2412.15518)
names fault tolerance as the open challenge for scaling AMR astrophysics
codes to exascale.  This module is the *adversary* half of the resilience
story: a :class:`FaultInjector` that, driven by a seeded RNG, injects

* **message loss** — a parcel send that never produces an ack
  (:meth:`FaultInjector.drop_message`);
* **message delay / reorder** — an ack that arrives late; delays past the
  retry policy's ack timeout are indistinguishable from loss, shorter
  delays let later parcels overtake the slow one
  (:meth:`FaultInjector.message_delay`);
* **transient action exceptions** — a task that fails once and would
  succeed on retry (:meth:`FaultInjector.maybe_action_fault`, consulted by
  :class:`repro.resilience.supervisor.SupervisedEngine`);
* **step faults** — a failure in the middle of a timestep loop, recovered
  from checkpoint by :func:`repro.core.stepper.evolve`
  (:meth:`FaultInjector.maybe_step_fault`);
* **torn checkpoint writes** — a checkpoint save that stages only part of
  its block records and never commits its manifest, as a crash mid-write
  leaves on a real filesystem (:meth:`FaultInjector.torn_write_due`,
  consulted by :class:`repro.resilience.checkpoint.CheckpointManager`);
* **checkpoint corruption** — a committed checkpoint record whose payload
  bytes are silently damaged after the fact (bit rot, a bad DMA):
  detectable only because records carry content checksums
  (:meth:`FaultInjector.checkpoint_corruption_due`).

A fault on the timestep or checkpoint-store path is *scheduled data*
(``fail_at_steps``, ``corrupt_at_steps``, ``*_at_saves``: each entry fires
once); only the per-message and per-task classes are Bernoulli rates.
Every draw comes from one ``random.Random(seed)`` stream behind a lock, so
a fixed seed reproduces the exact same fault schedule — the property the
deterministic regression tests and the "drift identical to the fault-free
run" acceptance check rely on.  Optional budgets (``max_losses``,
``max_action_faults``) make the rate-driven faults *transient*: once a
budget is exhausted the injector stops firing that fault class, so a
retry loop with a finite budget is guaranteed to make progress.

All injected faults are tallied under ``/resilience/injected/...`` in the
counter registry.
"""

from __future__ import annotations

import math
import random
import threading

from ..runtime.counters import CounterRegistry, default_registry
from ..runtime.faults import SimulationFault, TransientActionFault
from ..util import is_integer

__all__ = ["FaultInjector"]


class FaultInjector:
    """Seeded source of message loss, delays, action and step faults.

    Parameters
    ----------
    seed:
        RNG seed; the full fault schedule is a pure function of it.
    loss_rate:
        Probability that a parcel send is dropped (no ack).
    delay_rate / max_delay:
        Probability that a delivered parcel is delayed, and the maximum
        injected delay in seconds (uniform on ``[0, max_delay]``).
    action_fault_rate:
        Probability that a supervised task raises
        :class:`TransientActionFault` instead of running.
    fail_at_steps:
        Step numbers at which :meth:`maybe_step_fault` raises (each
        fires once).
    corrupt_at_steps:
        Step numbers at which :meth:`corruption_due` answers True (each
        fires once): silent data corruption for the post-step check of
        :class:`repro.core.stepper.Recovery` to catch.  Unlike a
        step fault, nothing raises — the run only survives if somebody
        *checks* the state.
    torn_write_at_saves:
        Checkpoint save indices (0-based, each fires once) at which the
        write is torn — partial records staged, manifest never committed.
    corrupt_ckpt_at_saves:
        Checkpoint save indices at which the committed record's payload is
        silently damaged after the write.
    max_losses / max_action_faults:
        Budgets after which that fault class stops firing (``None`` means
        unlimited).  Finite budgets make faults transient by construction.
    """

    def __init__(self, seed: int = 0, *,
                 loss_rate: float = 0.0,
                 delay_rate: float = 0.0,
                 max_delay: float = 0.0,
                 action_fault_rate: float = 0.0,
                 fail_at_steps: tuple[int, ...] = (),
                 corrupt_at_steps: tuple[int, ...] = (),
                 torn_write_at_saves: tuple[int, ...] = (),
                 corrupt_ckpt_at_saves: tuple[int, ...] = (),
                 max_losses: int | None = None,
                 max_action_faults: int | None = None,
                 registry: CounterRegistry | None = None):
        for name, rate in (("loss_rate", loss_rate),
                           ("delay_rate", delay_rate),
                           ("action_fault_rate", action_fault_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not (math.isfinite(max_delay) and max_delay >= 0.0):
            raise ValueError(f"max_delay must be finite and >= 0, got "
                             f"{max_delay!r}")
        for name, budget in (("max_losses", max_losses),
                             ("max_action_faults", max_action_faults)):
            if budget is not None and not (is_integer(budget) and budget >= 0):
                raise ValueError(f"{name} must be None or an integer >= 0, "
                                 f"got {budget!r}")
        self.loss_rate = loss_rate
        self.delay_rate = delay_rate
        self.max_delay = max_delay
        self.action_fault_rate = action_fault_rate
        self._fail_at_steps = set(fail_at_steps)
        self._corrupt_at_steps = set(corrupt_at_steps)
        self._torn_write_at_saves = set(torn_write_at_saves)
        self._corrupt_ckpt_at_saves = set(corrupt_ckpt_at_saves)
        #: checkpoint saves observed so far (indexes the *_at_saves sets)
        self._saves_seen = 0
        self._budgets = {"loss": max_losses, "action": max_action_faults}
        self.registry = registry or default_registry()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.injected = {"loss": 0, "delay": 0, "action": 0, "step": 0,
                         "corruption": 0, "torn-write": 0,
                         "ckpt-corruption": 0}

    # -- internals ----------------------------------------------------------

    def _fire(self, kind: str, rate: float) -> bool:
        """One Bernoulli draw for ``kind``, respecting its budget."""
        budget = self._budgets.get(kind)
        if budget is not None and self.injected[kind] >= budget:
            return False
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.injected[kind] += 1
        self.registry.increment(f"/resilience/injected/{kind}")
        return True

    def _scheduled(self, kind: str, schedule: set[int], index: int) -> bool:
        """True, once, when ``index`` is on ``kind``'s schedule."""
        if index not in schedule:
            return False
        schedule.discard(index)
        self.injected[kind] += 1
        self.registry.increment(f"/resilience/injected/{kind}")
        return True

    # -- message path -------------------------------------------------------

    def drop_message(self) -> bool:
        """True when the current parcel send should be lost (no ack)."""
        with self._lock:
            return self._fire("loss", self.loss_rate)

    def message_delay(self) -> float:
        """Injected delivery delay in seconds for the current send (0 = none)."""
        with self._lock:
            if not self._fire("delay", self.delay_rate):
                return 0.0
            return self._rng.random() * self.max_delay

    def maybe_action_fault(self) -> TransientActionFault | None:
        """A transient exception for the next task, or ``None``.

        Consulted by
        :class:`~repro.resilience.supervisor.SupervisedEngine` before each
        task attempt; the engine re-executes the task.
        """
        with self._lock:
            if not self._fire("action", self.action_fault_rate):
                return None
        return TransientActionFault("injected transient fault in action")

    # -- timestep path ------------------------------------------------------

    def maybe_step_fault(self, step: int) -> None:
        """Raise :class:`SimulationFault` if a fault is due at ``step``."""
        with self._lock:
            due = self._scheduled("step", self._fail_at_steps, step)
        if due:
            raise SimulationFault(f"injected failure at step {step}")

    def corruption_due(self, step: int) -> bool:
        """True when step ``step``'s result should be silently corrupted.

        Fires at most once per listed step; the caller
        (:class:`repro.core.stepper.Recovery`) applies the actual
        state damage, so the injector stays physics-agnostic.
        """
        with self._lock:
            return self._scheduled("corruption", self._corrupt_at_steps, step)

    # -- checkpoint-store path ----------------------------------------------

    def torn_write_due(self) -> bool:
        """True when the current checkpoint save should be torn.

        A torn save stages only part of its block records and never
        commits its manifest — the caller
        (:class:`repro.resilience.checkpoint.CheckpointManager` or the
        buddy-replicated store) applies the actual truncation, so the
        injector stays store-agnostic.  Each call consumes one save index
        for the ``*_at_saves`` schedules.
        """
        with self._lock:
            due = self._scheduled("torn-write", self._torn_write_at_saves,
                                  self._saves_seen)
            if due:
                # a torn save is *also* this save for scheduling purposes
                self._saves_seen += 1
            return due

    def checkpoint_corruption_due(self) -> bool:
        """True when the just-committed checkpoint record should rot.

        Fired once per save (after :meth:`torn_write_due` answered False);
        the store damages the stored payload bytes so only a content
        checksum can tell.
        """
        with self._lock:
            index = self._saves_seen
            self._saves_seen += 1
            return self._scheduled("ckpt-corruption",
                                   self._corrupt_ckpt_at_saves, index)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self.injected)
