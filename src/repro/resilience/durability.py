"""Durable recovery: global rollback and elastic restart.

A :class:`~repro.resilience.checkpoint.CheckpointManager` protects a run
against *state* loss — rollback past a bad step.  A correlated
multi-locality failure (the full-job interruptions the Fugaku port, arXiv
2304.11002, reports, and the gating concern of the exascale AMT survey,
arXiv 2412.15518) takes blocks down with their nodes, and with them every
record kept only there.  :class:`RecoveryCoordinator` closes that gap
over a :class:`~repro.core.distmesh.DistBlockMesh`:

* construction binds the manager's one store,
  :class:`~repro.resilience.checkpoint.BuddyReplicatedStore`, to its
  owner-plus-buddy case: each committed block payload (a block's
  *interior*) lives on its owner and on the next live locality, the copy
  charged to the halo parcelport, and the header on every live locality.
  One copy survives any single loss; the store reads liveness from AGAS,
  so a record never lands on a locality that is already dead.

* :meth:`RecoveryCoordinator.recover` is the global rollback.  When
  concurrent failures exceed evacuation capacity, or a block's last live
  copy died with its node, local evacuation cannot help: the coordinator
  remaps block ownership over the *remaining* localities through
  :func:`~repro.core.distmesh.box_partition` (one box per survivor),
  restores the newest **globally consistent** generation through the
  store (its one scan, one fetch charged holder -> new owner, and
  :func:`~repro.resilience.checkpoint.restore_state`), resurrects lost
  GIDs via :meth:`~repro.runtime.agas.AgasRuntime.restore_component` and
  re-seeds the store at the restored state — an **elastic restart** on
  fewer localities that, by the partition-independence contract of
  :class:`~repro.core.distmesh.DistBlockMesh`, finishes byte-identical to
  a clean run.

Recovery activity is tallied under ``/recovery/...``; the scan shares the
``/resilience/ckpt/{verified,corrupt,fallback}`` counters with every
other restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.distmesh import box_partition
from ..runtime import trace
from ..runtime.counters import CounterRegistry
from .checkpoint import (BuddyReplicatedStore, CheckpointError,
                         CheckpointManager)

__all__ = ["RecoveryCoordinator", "RecoveryReport"]

EVACUATION_CAPACITY = 1   # concurrent deaths AGAS evacuation absorbs


@dataclass
class RecoveryReport:
    """What one global rollback + elastic restart actually did."""

    generation: int
    step: int
    time: float
    survivors: list[int]
    blocks_fetched: int
    components_migrated: int
    components_restored: int
    new_owner: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (f"rolled back to generation {self.generation} "
                f"(step {self.step}) on {len(self.survivors)} survivors "
                f"{self.survivors}: {self.blocks_fetched} blocks fetched, "
                f"{self.components_migrated} components migrated, "
                f"{self.components_restored} GIDs resurrected")


class RecoveryCoordinator:
    """Global rollback + elastic restart of a distributed mesh.

    Construction binds ``manager``'s store to the owner-plus-buddy case
    over ``mesh`` (before the first save), so every committed record is
    durable from then on.  The coordinator is consulted when localities
    fail: :meth:`needs_global_recovery` decides whether local evacuation
    suffices (at most :data:`EVACUATION_CAPACITY` concurrent failures *and*
    no block's last copy destroyed) or the run must roll back globally;
    :meth:`recover` performs the rollback.
    """

    def __init__(self, mesh, manager: CheckpointManager, *,
                 registry: CounterRegistry | None = None):
        self.mesh = mesh
        self.manager = manager
        self.registry = registry or manager.registry
        self.store = manager.store = BuddyReplicatedStore(
            mesh, keep=manager.keep, registry=self.registry)
        self.rollbacks = 0

    # -- policy -------------------------------------------------------------

    def lost_blocks(self) -> list:
        """Blocks whose GID currently resolves to a dead locality."""
        return sorted(self.mesh.lost_blocks)

    def needs_global_recovery(self, concurrent_failures: int = 0) -> bool:
        """Evacuation cannot mask this event: roll back globally?

        True when more localities failed at once than evacuation can
        absorb, or when some block's last live copy is already gone.
        """
        return (concurrent_failures > EVACUATION_CAPACITY
                or bool(self.lost_blocks()))

    # -- recovery -----------------------------------------------------------

    def recover(self, monitor=None) -> RecoveryReport:
        """Roll every survivor back to the newest consistent generation
        and restart elastically on the remaining locality count.

        Steps: partition the lattice over the survivors with
        ``box_partition``; restore through the store (the scan prefers
        each block's copy at its new owner; the fetch is charged holder ->
        new owner; newer generations are dropped); apply the new
        ownership (migrating live components, resurrecting lost GIDs);
        re-seed the store with a fresh checkpoint of the restored state.
        """
        mesh = self.mesh
        survivors = sorted(set(range(mesh.n_localities))
                           - mesh.agas.failed_localities)
        if not survivors:
            raise CheckpointError("no locality survives; nothing to restart")
        new_owner = {ip: survivors[k] for ip, k in
                     box_partition(mesh.lattice, len(survivors)).items()}
        cp = self.store.restore(mesh, new_owner, monitor)
        moves = mesh.apply_ownership(new_owner)
        self.rollbacks += 1
        r = self.registry
        r.increment("/recovery/global-rollbacks")
        r.increment("/recovery/elastic-restarts")
        r.increment("/recovery/components-migrated",
                    float(moves["migrated"]))
        r.increment("/recovery/components-restored",
                    float(moves["restored"]))
        r.set_gauge("/recovery/generation", float(cp.generation))
        r.set_gauge("/recovery/localities-remaining", float(len(survivors)))
        trace.instant("global-rollback", "resilience",
                      generation=cp.generation, step=cp.step,
                      survivors=len(survivors))
        # re-seed durability at the restored state, laid out over the
        # survivors, so the next failure need not reach back past it
        self.manager.save(mesh, monitor)
        return RecoveryReport(
            generation=cp.generation, step=cp.step,
            time=cp.header.time, survivors=survivors,
            blocks_fetched=len(cp.blocks),
            components_migrated=moves["migrated"],
            components_restored=moves["restored"],
            new_owner=new_owner)
