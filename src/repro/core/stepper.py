"""Coupled evolution driver with conservation monitoring.

Runs a mesh forward in time (gravity + hydro, as ``step`` couples them)
and records the conserved quantities the paper cares about — mass,
linear momentum, angular momentum (orbital plus Despres-Labourasse spin)
and total energy (gas + potential) — so examples and tests can
assert/report drifts.

Any object exposing ``compute_dt() -> float``, ``step(dt)``,
``conserved_totals()``, ``time`` and ``steps`` can be driven:
:class:`~repro.core.mesh.BlockMesh` in any tiling (whose futurized
scheduler/GPU execution is thereby exercised end to end), its
distributed subclass and :class:`~repro.core.amr.AmrMesh`.
Checkpoint/rollback additionally reads ``blocks`` — ``{key: ghosted
block}``, which all of them expose — and treats
the block *interiors* as the state: ``step`` refills every ghost shell
before reading it, so a rollback restores interiors and leaves the shells
to that fill.

There is one drive loop, :func:`drive`; what it does about a failed step
is a :class:`Recovery` policy.  :func:`evolve` runs the plain one (an
*announced* :class:`~repro.runtime.faults.InjectedFault` rolls back to the
newest checkpoint and replays);
:class:`repro.resilience.guard.GuardedStepper` extends it to *validate*
each step's result and to halve the dt of a step that keeps failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.faults import InjectedFault

__all__ = ["ConservationRecord", "ConservationMonitor", "evolve", "drive",
           "Recovery", "FaultRecoveryExhausted"]


class FaultRecoveryExhausted(RuntimeError):
    """Checkpoint restores exceeded ``max_restores`` during :func:`evolve`."""


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
        mass_scale = max(abs(self.records[0].mass), 1e-30)
        return {
            "mass": self.drift("mass"),
            "momentum": self.vector_drift("momentum", scale=mass_scale),
            "angular_momentum": self.vector_drift("angular_momentum",
                                                  scale=mass_scale),
            "egas": self.drift("egas"),
        }


class Recovery:
    """What :func:`drive` does about a step that failed.  The plain
    policy: roll mesh and monitor back to the newest verified checkpoint,
    at most ``max_restores`` times — a stuck run fails loudly with
    :class:`FaultRecoveryExhausted` rather than looping forever."""

    def __init__(self, mesh, checkpoints, monitor: ConservationMonitor,
                 fault_injector=None, max_restores: int = 8):
        self.mesh = mesh
        self.checkpoints = checkpoints
        self.monitor = monitor
        self.injector = fault_injector
        self.max_restores = max_restores
        self.restores = 0

    def rollback(self, why: str) -> None:
        self.restores += 1
        if self.restores > self.max_restores:
            raise FaultRecoveryExhausted(
                f"gave up after {self.max_restores} checkpoint restores "
                f"(last cause: {why})")
        self.checkpoints.restore_latest(self.mesh, self.monitor)

    def adjust_dt(self, step: int, dt: float) -> float:
        """The dt step ``step`` is attempted with, given the CFL ``dt``."""
        return dt

    def accept(self, step: int) -> bool:
        """Judge the state after step ``step`` completed; returning False
        means the policy already rolled it back."""
        return True


def drive(recovery: Recovery, t_end: float, max_steps: int,
          callback=None) -> ConservationMonitor:
    """The one drive loop: advance ``recovery.mesh`` to ``t_end`` with
    CFL-limited steps.  An :class:`~repro.runtime.faults.InjectedFault` —
    from the injector or from within the step itself — goes to
    ``recovery.rollback`` and the step is replayed; without a checkpoint
    manager it propagates."""
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
           callback=None, checkpoints=None, fault_injector=None,
           max_restores: int = 8) -> ConservationMonitor:
    """Advance ``mesh`` to ``t_end`` with CFL-limited steps.

    With a ``checkpoints`` manager
    (:class:`repro.resilience.checkpoint.CheckpointManager`), the mesh
    state is snapshotted periodically and any
    :class:`~repro.runtime.faults.InjectedFault` raised mid-step — by
    ``fault_injector.maybe_step_fault`` or from within the step itself —
    rolls back to the last checkpoint and replays.  Restores are
    bit-exact, so a faulty run reproduces the fault-free conservation
    drifts (Sec. 4.2/4.3) step for step.  More than ``max_restores``
    rollbacks raises :class:`FaultRecoveryExhausted`.
    """
    return drive(Recovery(mesh, checkpoints, monitor or ConservationMonitor(),
                          fault_injector, max_restores),
                 t_end, max_steps, callback)
