"""Fault injection and recovery for the AMT runtime (see DESIGN.md).

The paper's runs assume a fault-free Piz Daint; the AMT follow-up survey
(arXiv:2412.15518) calls fault tolerance *the* open challenge for exascale
AMR astrophysics.  This package supplies both halves of the story:

* the adversary — :class:`FaultInjector`, a seeded source of message
  loss/delay, transient action exceptions, step faults, silent state
  corruption and scheduled locality failures;
* the defence — :class:`ResilientParcelSender` (ack/timeout/retry with
  exponential backoff over the parcel layer), :class:`SupervisedEngine`
  (bounded re-execution of transiently failing compute tasks),
  :class:`FailureDetector` (phi-accrual heartbeat detection of silent
  localities with automatic AGAS evacuation),
  :meth:`repro.runtime.agas.AgasRuntime.fail_locality` (component
  migration / invalidation on node death), :class:`CheckpointManager`
  (periodic verified snapshots of the block interiors, which the one
  recovery policy :class:`repro.core.stepper.Recovery` rolls back to) and
  stream quarantine in :mod:`repro.runtime.cuda`.

Everything publishes ``/resilience/...`` counters into the registry from
:mod:`repro.runtime.counters` and emits trace spans when tracing is on.
"""

from .faults import FaultInjector
from .retry import ResilientParcelSender, RetryBudgetExhausted
from .checkpoint import (BuddyReplicatedStore, CheckpointError,
                         CheckpointManager, ManifestRecord, MeshCheckpoint,
                         block_checksum)
from .durability import RecoveryCoordinator, RecoveryReport
from .supervisor import DEFAULT_TASK_RETRIES, SupervisedEngine
from .health import (DEFAULT_HEARTBEAT_INTERVAL_S, DEFAULT_PHI_THRESHOLD,
                     FailureDetector)
from .merger import (CHAOS, DUAL_KILL_CORRUPT, LOCALITY_KILL, FaultPlan,
                     MergerResult, Topology, kill_and_recover, run_merger,
                     run_reference)

__all__ = [
    "FaultInjector", "RetryBudgetExhausted", "ResilientParcelSender",
    "CheckpointError", "CheckpointManager", "ManifestRecord",
    "MeshCheckpoint", "block_checksum",
    "BuddyReplicatedStore",
    "RecoveryCoordinator", "RecoveryReport",
    "SupervisedEngine", "DEFAULT_TASK_RETRIES",
    "FailureDetector", "DEFAULT_PHI_THRESHOLD",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "Topology", "FaultPlan", "MergerResult", "run_reference", "run_merger",
    "kill_and_recover",
    "CHAOS", "LOCALITY_KILL", "DUAL_KILL_CORRUPT",
]
