"""Coupled evolution driver with conservation monitoring.

Runs a mesh forward in time (gravity + hydro, as ``step`` couples them)
and records the conserved quantities the paper cares about — mass,
linear momentum, angular momentum (orbital plus Despres-Labourasse spin)
and total energy (gas + potential) — so examples and tests can
assert/report drifts.

Any object exposing ``compute_dt() -> float``, ``step(dt)``,
``conserved_totals()``, ``time``, ``steps`` and ``blocks`` — ``{key:
ghosted block}`` — can be driven: :class:`~repro.core.mesh.BlockMesh` in
any tiling (whose futurized scheduler/GPU execution is thereby exercised
end to end), its distributed subclass and :class:`~repro.core.amr.AmrMesh`.
The block *interiors* are the state: ``step`` refills every ghost shell
before reading it, so the post-step check and a rollback look at
interiors only and leave the shells to that fill.

There is one drive loop, :func:`drive`, and one policy for what it does
after a step, :class:`Recovery`: check the state, and roll a bad step or
an announced :class:`~repro.runtime.faults.InjectedFault` back to the
newest checkpoint and replay it.  :func:`evolve` is the drive loop under
that policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime import trace
from ..runtime.counters import default_registry
from ..runtime.faults import InjectedFault
from .grid import RHO
from .mesh import interior

__all__ = ["ConservationRecord", "ConservationMonitor", "evolve", "drive",
           "Recovery", "FaultRecoveryExhausted", "GuardViolation"]

MAX_RESTORES = 16   # checkpoint restores per run, whatever their cause
MAX_HALVINGS = 4    # dt halvings of one persistently rejected step


class FaultRecoveryExhausted(RuntimeError):
    """Checkpoint restores exceeded :data:`MAX_RESTORES` during :func:`drive`."""


class GuardViolation(RuntimeError):
    """The post-step check rejected a step and recovery is impossible: no
    checkpoint manager, or :data:`MAX_HALVINGS` dt halvings did not help."""


@dataclass(frozen=True)
class ConservationRecord:
    time: float
    step: int
    mass: float
    momentum: np.ndarray
    angular_momentum: np.ndarray
    egas: float
    etot: float | None


@dataclass
class ConservationMonitor:
    """Accumulates conservation records and reports relative drifts."""

    records: list[ConservationRecord] = field(default_factory=list)

    def sample(self, mesh) -> ConservationRecord:
        tot = mesh.conserved_totals()
        rec = ConservationRecord(
            time=mesh.time, step=mesh.steps, mass=tot["mass"],
            momentum=tot["momentum"],
            angular_momentum=tot["angular_momentum"],
            egas=tot["egas"], etot=tot.get("etot"))
        self.records.append(rec)
        return rec

    def drift(self, attr: str) -> float:
        """Relative drift of a scalar quantity since the first record."""
        if len(self.records) < 2:
            return 0.0
        first = getattr(self.records[0], attr)
        last = getattr(self.records[-1], attr)
        if first is None or last is None:
            return np.nan
        scale = abs(first) if abs(first) > 0 else 1.0
        return abs(last - first) / scale

    def vector_drift(self, attr: str, scale: float | None = None) -> float:
        first = getattr(self.records[0], attr)
        last = getattr(self.records[-1], attr)
        s = scale if scale is not None else max(np.abs(first).max(), 1e-30)
        return float(np.abs(last - first).max() / s)

    def report(self) -> dict[str, float]:
        """Relative drifts; vector quantities are normalized by the total
        mass (a momentum scale), which stays meaningful when the initial
        momentum/angular momentum is zero."""
        if not self.records:
            raise ValueError("no conservation records to report on: "
                             "sample the mesh first")
        mass_scale = max(abs(self.records[0].mass), 1e-30)
        return {
            "mass": self.drift("mass"),
            "momentum": self.vector_drift("momentum", scale=mass_scale),
            "angular_momentum": self.vector_drift("angular_momentum",
                                                  scale=mass_scale),
            "egas": self.drift("egas"),
        }


class Recovery:
    """What :func:`drive` does after every step: the one recovery policy.

    The state — the interior of every block of ``mesh.blocks``, what a
    checkpoint stores; a stale ghost shell cannot trip it — is checked for
    NaN/Inf and negative density.  A violation *rejects* the step: mesh
    and monitor roll back to the newest verified checkpoint of
    ``checkpoints`` and the step replays at the same dt (a transient cause
    — injected corruption, a once-off bad kernel — does not recur, and the
    replay stays byte-identical to the fault-free run).  A second
    rejection of the *same* step halves its dt, at most
    :data:`MAX_HALVINGS` times; then, or at once without a checkpoint
    manager, :class:`GuardViolation` is raised.  An announced
    :class:`~repro.runtime.faults.InjectedFault` rolls back the same way.
    All rollbacks share :data:`MAX_RESTORES` — a stuck run fails loudly
    with :class:`FaultRecoveryExhausted` rather than looping forever.

    With a ``fault_injector`` whose ``corrupt_at_steps`` is set, the
    policy is its own adversary: after a listed step completes, one
    interior density value becomes NaN — silent corruption only the
    check can catch.

    Counters: ``/resilience/steps/guard-checks``,
    ``/resilience/steps/rejected``, ``/resilience/steps/dt-halvings``,
    ``/resilience/steps/restores``.
    """

    def __init__(self, mesh, checkpoints, monitor: ConservationMonitor,
                 fault_injector=None, registry=None):
        self.mesh = mesh
        self.checkpoints = checkpoints
        self.monitor = monitor
        self.injector = fault_injector
        self.registry = registry or default_registry()
        self.restores = self.rejected = self.halvings = 0
        # which step was last rejected, and how many times its dt has been
        # halved so far (reset when the step finally passes)
        self._reject_step: int | None = None
        self._step_halvings = 0

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

    def rollback(self, why: str) -> None:
        self.restores += 1
        if self.restores > MAX_RESTORES:
            raise FaultRecoveryExhausted(
                f"gave up after {MAX_RESTORES} checkpoint restores "
                f"(last cause: {why})")
        self.checkpoints.restore_latest(self.mesh, self.monitor)
        self.registry.increment("/resilience/steps/restores")

    def adjust_dt(self, step: int, dt: float) -> float:
        """The dt step ``step`` is attempted with, given the CFL ``dt``."""
        if self._reject_step == step:
            dt *= 0.5 ** self._step_halvings
        return dt

    def accept(self, step: int) -> bool:
        """Judge the state after step ``step`` completed; returning False
        means the policy already rolled it back."""
        if self.injector is not None and self.injector.corruption_due(step):
            state = interior(next(iter(self.mesh.blocks.values())))
            c = state.shape[1] // 2
            state[RHO, c, c, c] = np.nan
            trace.instant("state-corrupted", "resilience", step=step)
        why = self.violation()
        if why is None:
            if self._reject_step == step:
                self._reject_step, self._step_halvings = None, 0
            return True
        self.rejected += 1
        self.registry.increment("/resilience/steps/rejected")
        trace.instant("step-rejected", "resilience", step=step, cause=why)
        if self.checkpoints is None:
            raise GuardViolation(f"step {step} rejected ({why}) with no "
                                 "checkpoint to roll back to")
        if self._reject_step != step:
            self._reject_step, self._step_halvings = step, 0
        else:
            # the same step failed again after a clean replay: transiency
            # is ruled out, so shrink the step
            if self._step_halvings >= MAX_HALVINGS:
                raise GuardViolation(
                    f"step {step} still rejected ({why}) after "
                    f"{MAX_HALVINGS} dt halvings")
            self._step_halvings += 1
            self.halvings += 1
            self.registry.increment("/resilience/steps/dt-halvings")
        self.rollback(why)
        return False


def drive(recovery: Recovery, t_end: float, max_steps: int,
          callback=None) -> ConservationMonitor:
    """The one drive loop: advance ``recovery.mesh`` to ``t_end`` with
    CFL-limited steps, at most ``max_steps`` of them.  After each step
    ``recovery.accept`` checks the state.  An
    :class:`~repro.runtime.faults.InjectedFault` — from the injector or
    from within the step itself — goes to ``recovery.rollback`` and the
    step is replayed; without a checkpoint manager it propagates."""
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    mesh, monitor = recovery.mesh, recovery.monitor
    manager, injector = recovery.checkpoints, recovery.injector
    if not monitor.records:
        monitor.sample(mesh)
    if manager is not None:
        manager.save(mesh, monitor)
    while mesh.time < t_end and mesh.steps < max_steps:
        step = mesh.steps
        try:
            if injector is not None:
                injector.maybe_step_fault(step)
            dt = min(mesh.compute_dt(), t_end - mesh.time)
            if not np.isfinite(dt) or dt <= 0:
                raise RuntimeError(f"invalid timestep {dt}")
            mesh.step(recovery.adjust_dt(step, dt))
        except InjectedFault:
            if manager is None:
                raise
            recovery.rollback("injected step fault")
            continue
        if not recovery.accept(step):
            continue
        monitor.sample(mesh)
        if callback is not None:
            callback(mesh)
        if manager is not None:
            manager.maybe_save(mesh, monitor)
    return monitor


def evolve(mesh, t_end: float, max_steps: int = 10_000,
           monitor: ConservationMonitor | None = None,
           callback=None, checkpoints=None,
           fault_injector=None) -> ConservationMonitor:
    """Advance ``mesh`` to ``t_end`` with CFL-limited steps.

    With a ``checkpoints`` manager
    (:class:`repro.resilience.checkpoint.CheckpointManager`), the mesh
    state is snapshotted periodically, and a step whose result fails the
    :class:`Recovery` check or that raises an
    :class:`~repro.runtime.faults.InjectedFault` — by
    ``fault_injector.maybe_step_fault`` or from within the step itself —
    rolls back to the last checkpoint and replays.  Restores are
    bit-exact, so a faulty run reproduces the fault-free conservation
    drifts (Sec. 4.2/4.3) step for step.  Without a manager a rejected
    step raises :class:`GuardViolation`.
    """
    return drive(Recovery(mesh, checkpoints, monitor or ConservationMonitor(),
                          fault_injector),
                 t_end, max_steps, callback)
