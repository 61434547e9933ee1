"""Guarded stepping: the drive loop of :mod:`repro.core.stepper` under a
:class:`~repro.core.stepper.Recovery` policy that also *validates* every
step's result and rolls back what fails."""

from __future__ import annotations

import numpy as np

from ..core.grid import RHO
from ..core.mesh import interior
from ..core.stepper import ConservationMonitor, Recovery, drive
from ..runtime import trace
from ..runtime.counters import default_registry
from .checkpoint import CheckpointManager

__all__ = ["GuardViolation", "GuardedStepper"]


class GuardViolation(RuntimeError):
    """A post-stage guard rejected a step and recovery is impossible
    (no checkpoint manager, or the halving/restore budget ran out)."""


class GuardedStepper(Recovery):
    """Checkpointed evolution with post-stage state validation.

    After every step the state — the interior of every block of
    ``mesh.blocks``, what a checkpoint stores; ghost shells are scratch the
    next fill rewrites, so a stale one cannot trip the guard — is checked
    for NaN/Inf and negative density.  A violation *rejects* the step:
    the mesh rolls back to the latest
    :class:`~repro.resilience.checkpoint.CheckpointManager` snapshot and
    replays.  The first retry of a step runs at the same dt
    (transient causes — injected corruption with a consumed budget, a
    once-off bad kernel — will not recur, and the replay stays
    byte-identical to the fault-free run); a second rejection of the
    *same* step halves its dt, up to ``max_halvings`` times, after which
    :class:`GuardViolation` is raised.  Announced
    :class:`~repro.runtime.faults.InjectedFault` step faults are
    recovered exactly as in :func:`~repro.core.stepper.evolve`, sharing
    the restore budget.

    With a ``fault_injector`` whose ``corrupt_at_steps`` is set, the
    stepper is its own adversary: after the listed step completes, one
    interior density value is overwritten with NaN — silent data
    corruption that only the guards can catch.

    Counters: ``/resilience/steps/guard-checks``,
    ``/resilience/steps/rejected``, ``/resilience/steps/dt-halvings``,
    ``/resilience/steps/restores``.
    """

    def __init__(self, mesh, *, checkpoints=None, checkpoint_interval=5,
                 monitor: ConservationMonitor | None = None,
                 fault_injector=None, max_restores: int = 16,
                 max_halvings: int = 4, registry=None):
        if max_halvings < 0:
            raise ValueError("max_halvings must be >= 0")
        self.registry = registry or default_registry()
        if checkpoints is None:
            # the injector is threaded into the store too: torn-write and
            # checkpoint-corruption faults strike the very snapshots the
            # guards roll back to, so restores exercise verified fallback
            checkpoints = CheckpointManager(interval=checkpoint_interval,
                                            registry=self.registry,
                                            injector=fault_injector)
        super().__init__(mesh, checkpoints, monitor or ConservationMonitor(),
                         fault_injector, max_restores)
        self.max_halvings = max_halvings
        self.rejected = 0
        self.halvings = 0
        # which step the guard last rejected, and how many times its dt
        # has been halved so far (reset when the step finally passes)
        self._reject_step: int | None = None
        self._step_halvings = 0

    # -- guards --------------------------------------------------------------

    def violation(self) -> str | None:
        """Why the current state is unacceptable, or ``None`` if it is fine."""
        self.registry.increment("/resilience/steps/guard-checks")
        for blk in self.mesh.blocks.values():
            state = interior(blk)
            if not np.all(np.isfinite(state)):
                return "non-finite state"
            if float(state[RHO].min()) < 0.0:
                return "negative density"
        return None

    def _corrupt(self) -> None:
        """Deterministic silent damage: NaN one interior density value."""
        state = interior(next(iter(self.mesh.blocks.values())))
        c = state.shape[1] // 2
        state[RHO, c, c, c] = np.nan
        trace.instant("state-corrupted", "resilience", step=self.mesh.steps)

    # -- recovery policy -----------------------------------------------------

    def rollback(self, why: str) -> None:
        super().rollback(why)
        self.registry.increment("/resilience/steps/restores")

    def _reject(self, why: str, step: int) -> None:
        self.rejected += 1
        self.registry.increment("/resilience/steps/rejected")
        trace.instant("step-rejected", "resilience", step=step, cause=why)
        if self._reject_step == step:
            # same step failed again after a clean replay: transiency is
            # ruled out, so shrink the step
            if self._step_halvings >= self.max_halvings:
                raise GuardViolation(
                    f"step {step} still rejected ({why}) after "
                    f"{self.max_halvings} dt halvings")
            self._step_halvings += 1
            self.halvings += 1
            self.registry.increment("/resilience/steps/dt-halvings")
        else:
            self._reject_step = step
            self._step_halvings = 0
        self.rollback(why)

    def adjust_dt(self, step: int, dt: float) -> float:
        if self._reject_step == step and self._step_halvings:
            dt *= 0.5 ** self._step_halvings
        return dt

    def accept(self, step: int) -> bool:
        if self.injector is not None and self.injector.corruption_due(step):
            self._corrupt()
        why = self.violation()
        if why is not None:
            self._reject(why, step)
            return False
        if self._reject_step == step:
            # the problem step finally passed
            self._reject_step = None
            self._step_halvings = 0
        return True

    # -- driving -------------------------------------------------------------

    def evolve(self, t_end: float, max_steps: int = 10_000,
               callback=None) -> ConservationMonitor:
        """Advance to ``t_end`` under guard supervision; see class docs."""
        return drive(self, t_end, max_steps, callback)
