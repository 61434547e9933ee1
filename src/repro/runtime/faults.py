"""Exception types of injected failures.  They live in the runtime layer
because the code that raises and routes them (a poisoned CUDA stream, the
drive loop of :mod:`repro.core.stepper`) sits below the adversary that
injects them, :class:`repro.resilience.faults.FaultInjector`."""

from __future__ import annotations

__all__ = ["InjectedFault", "TransientActionFault", "SimulationFault"]


class InjectedFault(RuntimeError):
    """Base class for all injected failures (catch this to recover)."""


class TransientActionFault(InjectedFault):
    """A remotely-invoked action failed transiently; a retry may succeed."""


class SimulationFault(InjectedFault):
    """A failure mid-timestep; recoverable from the last checkpoint."""
