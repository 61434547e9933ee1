"""Durable recovery: buddy-replicated checkpoints and elastic restart.

:class:`~repro.resilience.checkpoint.CheckpointManager` protects a run
against *state* loss — rollback past a bad step — but its records live in
the memory of the run they protect.  A correlated multi-locality failure
(the full-job interruptions the Fugaku port, arXiv 2304.11002, reports,
and the gating concern of the exascale AMT survey, arXiv 2412.15518)
takes the checkpoints down with the blocks.  This module supplies the
two missing layers:

* :class:`BuddyReplicatedStore` — a write-through replica store wired to
  the manager's commit hook.  Each committed block payload (a block's
  *interior*: ghost shells are scratch the next fill rewrites, so they
  are neither stored, replicated nor fetched) is kept on the block's
  *owner* locality and copied to a **buddy** (the next surviving
  locality, cyclically), with the copy charged to the mesh's halo
  parcelport via one-sided puts — replication is honest traffic, not
  free magic, and the ``/parcels/*`` reconciliation still holds.  The
  record's header (:class:`~repro.resilience.checkpoint.ManifestRecord`:
  metadata + the per-block checksum stamps) is stored as is on every
  survivor, so any survivor can validate any generation.  Losing a
  locality wipes its shard; one replica survives any single loss, and
  the pair survives one of the two.

* :class:`RecoveryCoordinator` — the global-rollback driver.  When
  concurrent failures exceed evacuation capacity, or a block's last live
  copy died with its node, local evacuation cannot help: the coordinator
  finds the newest generation that is **globally consistent** (manifest
  survives, every block has a verified copy on a survivor), remaps block
  ownership over the *remaining* localities through
  :func:`~repro.core.distmesh.box_partition` (one box per survivor),
  resurrects lost GIDs via
  :meth:`~repro.runtime.agas.AgasRuntime.restore_component`, fetches the
  payloads from whichever shard holds a good copy (charged
  holder→new-owner), and rolls the whole run back through the one
  restore routine,
  :func:`~repro.resilience.checkpoint.restore_state` — an **elastic
  restart** on fewer localities that, by the partition-independence
  contract of :class:`~repro.core.distmesh.DistBlockMesh`, finishes
  byte-identical to a clean run.

Recovery activity is tallied under ``/recovery/...``; store verification
shares the ``/resilience/ckpt/{verified,corrupt,fallback}`` counters with
the local manager's restore path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.distmesh import box_partition
from ..runtime import trace
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import lockdep as _sanitize_lockdep
from .checkpoint import (CheckpointError, CheckpointManager, ManifestRecord,
                         MeshCheckpoint, block_checksum, restore_state)

__all__ = ["BlockRecord", "BuddyReplicatedStore", "RecoveryCoordinator",
           "RecoveryReport"]


@dataclass(frozen=True)
class BlockRecord:
    """One replicated block payload: a copy of the block's interior, its
    stamp, its generation."""

    generation: int
    key: object
    payload: np.ndarray
    checksum: int

    def verify(self) -> bool:
        return block_checksum(self.payload) == self.checksum


class BuddyReplicatedStore:
    """Per-locality checkpoint shards with buddy replication.

    Wire it to a manager with ``manager.on_commit = store.replicate`` (or
    let :class:`RecoveryCoordinator` do so): every committed checkpoint
    is split into per-block records, each stored on its block's owner
    locality and copied to the next surviving locality; its header is
    stored unchanged on every survivor.  The copies are
    independent arrays — damaging one replica (bit rot on one node) does
    not touch the other, which is the whole point.

    The store's notion of *alive* starts from the mesh's AGAS and shrinks
    through :meth:`locality_lost`; a dead locality's shard and manifests
    vanish with it, exactly like the memory of a dead node.
    """

    def __init__(self, mesh, *, keep: int = 4,
                 registry: CounterRegistry | None = None):
        if keep < 1:
            raise ValueError("must keep at least one generation")
        self.mesh = mesh
        self.keep = keep
        self.registry = registry or default_registry()
        self._lock = _sanitize_lockdep.make_lock("durability.store")
        n = mesh.n_localities
        self._alive: set[int] = (set(range(n))
                                 - mesh.agas.failed_localities)
        #: locality -> {(generation, key) -> BlockRecord}
        self._shards: dict[int, dict[tuple, BlockRecord]] = {
            loc: {} for loc in range(n)}
        #: locality -> {generation -> ManifestRecord}
        self._manifests: dict[int, dict[int, ManifestRecord]] = {
            loc: {} for loc in range(n)}
        self.replicated = 0

    # -- write path ---------------------------------------------------------

    @staticmethod
    def _buddy_of(owner: int, alive: list[int]) -> int | None:
        """Next surviving locality after ``owner``, cyclically."""
        if len(alive) < 2:
            return None
        after = [loc for loc in alive if loc > owner]
        return after[0] if after else alive[0]

    def replicate(self, cp: MeshCheckpoint) -> None:
        """Write-through one committed checkpoint into the shards.

        Primary copy on each block's owner, buddy copy on the next
        survivor (charged as a one-sided put over the halo parcelport);
        the manifest broadcast to every survivor.  Torn records never get
        here — the manager's commit hook only fires for committed saves.
        """
        if not cp.committed:
            return
        transport = self.mesh.transport
        owners = self.mesh.owners()
        r = self.registry
        with self._lock:
            alive = sorted(self._alive)
            if not alive:
                return
            for key, arr in cp.blocks.items():
                owner = owners[key]
                if owner not in self._alive:
                    owner = alive[0]
                crc = cp.header.checksums[key]
                self._shards[owner][(cp.generation, key)] = BlockRecord(
                    cp.generation, key, arr.copy(), crc)
                buddy = self._buddy_of(owner, alive)
                if buddy is not None:
                    self._shards[buddy][(cp.generation, key)] = BlockRecord(
                        cp.generation, key, arr.copy(), crc)
                    transport.charge_onesided(arr.nbytes, owner, buddy)
                    r.increment("/resilience/ckpt/replicas")
                    r.increment("/resilience/ckpt/replica-bytes",
                                float(arr.nbytes))
            origin = alive[0]
            for loc in alive:
                self._manifests[loc][cp.generation] = cp.header
                transport.charge_onesided(cp.header.nbytes, origin, loc)
            self.replicated += 1
            self._prune(alive)
        trace.instant("checkpoint-replicated", "resilience",
                      generation=cp.generation, step=cp.step)

    def _prune(self, alive: list[int]) -> None:
        """Retain the ``keep`` newest generations (caller holds the lock)."""
        gens = sorted({g for loc in alive for g in self._manifests[loc]})
        if len(gens) <= self.keep:
            return
        cutoff = gens[-self.keep]
        for loc in alive:
            self._manifests[loc] = {g: m
                                    for g, m in self._manifests[loc].items()
                                    if g >= cutoff}
            self._shards[loc] = {gk: rec
                                 for gk, rec in self._shards[loc].items()
                                 if gk[0] >= cutoff}

    # -- failure ------------------------------------------------------------

    def locality_lost(self, locality: int) -> int:
        """A locality died: its shard and manifests die with it.

        Idempotent; returns the number of block records wiped.
        """
        with self._lock:
            if locality not in self._alive:
                return 0
            self._alive.discard(locality)
            dropped = len(self._shards[locality])
            self._shards[locality] = {}
            self._manifests[locality] = {}
        if dropped:
            self.registry.increment("/resilience/ckpt/replicas-lost",
                                    float(dropped))
        return dropped

    @property
    def alive(self) -> set[int]:
        with self._lock:
            return set(self._alive)

    # -- recovery planning --------------------------------------------------

    def recovery_plan(self) -> tuple[ManifestRecord, dict]:
        """Newest globally-consistent verified generation, or raise.

        Scans generations newest-to-oldest: a candidate qualifies when its
        manifest survives (and verifies) on some live locality *and* every
        block named by the manifest has at least one surviving replica
        whose content matches its stamp.  Returns the manifest and a
        ``key -> holder locality`` map; raises
        :class:`~repro.resilience.checkpoint.CheckpointError` when no
        generation qualifies.
        """
        r = self.registry
        with self._lock:
            alive = sorted(self._alive)
            gens = sorted({g for loc in alive
                           for g in self._manifests[loc]}, reverse=True)
            for gen in gens:
                man = next((self._manifests[loc][gen] for loc in alive
                            if gen in self._manifests[loc]), None)
                if man is None or not man.verify():
                    r.increment("/resilience/ckpt/fallback")
                    continue
                holders: dict = {}
                saw_corrupt = False
                for key, crc in man.checksums.items():
                    holder = None
                    for loc in alive:
                        rec = self._shards[loc].get((gen, key))
                        if rec is None:
                            continue
                        if rec.checksum == crc and rec.verify():
                            holder = loc
                            break
                        saw_corrupt = True
                    if holder is None:
                        break
                    holders[key] = holder
                if len(holders) == len(man.checksums):
                    r.increment("/resilience/ckpt/verified")
                    return man, holders
                if saw_corrupt:
                    r.increment("/resilience/ckpt/corrupt")
                r.increment("/resilience/ckpt/fallback")
                trace.instant("generation-fallback", "resilience",
                              generation=gen)
        raise CheckpointError(
            "no globally-consistent verified generation survives the "
            "failures (manifest or last replica lost for every generation)")

    def fetch(self, manifest: ManifestRecord, holders: dict,
              destination: dict) -> dict:
        """Pull every block of a generation to its post-recovery owner.

        ``holders`` comes from :meth:`recovery_plan`; ``destination`` maps
        each key to the locality that will own it after the restart.
        Cross-locality pulls are charged holder→destination like any other
        one-sided transfer.  Returns ``key -> payload copy``.
        """
        out: dict = {}
        nbytes = 0
        transport = self.mesh.transport
        with self._lock:
            for key, holder in sorted(holders.items(),
                                      key=lambda kv: repr(kv[0])):
                rec = self._shards[holder][(manifest.generation, key)]
                dst = destination.get(key, holder)
                transport.charge_onesided(rec.payload.nbytes, holder, dst)
                out[key] = rec.payload.copy()
                nbytes += rec.payload.nbytes
        r = self.registry
        r.increment("/recovery/blocks-fetched", float(len(out)))
        r.increment("/recovery/bytes-fetched", float(nbytes))
        return out


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
    """Global rollback + elastic restart over a :class:`BuddyReplicatedStore`.

    Construction wires the manager's commit hook to the store, so every
    committed checkpoint is durable from then on.  The coordinator is
    consulted when localities fail: :meth:`needs_global_recovery` decides
    whether local evacuation suffices (at most ``evacuation_capacity``
    concurrent failures *and* no block's last copy destroyed) or the run
    must roll back globally; :meth:`recover` performs the rollback.
    """

    def __init__(self, mesh, manager: CheckpointManager, *,
                 evacuation_capacity: int = 1,
                 registry: CounterRegistry | None = None):
        self.mesh = mesh
        self.manager = manager
        self.registry = registry or manager.registry
        self.store = BuddyReplicatedStore(
            mesh, keep=manager.keep, registry=self.registry)
        self.evacuation_capacity = evacuation_capacity
        self.rollbacks = 0
        manager.on_commit = self.store.replicate

    # -- policy -------------------------------------------------------------

    def lost_blocks(self) -> list:
        """Blocks whose GID currently resolves to a dead locality."""
        return sorted(self.mesh.lost_blocks)

    def needs_global_recovery(self, concurrent_failures: int = 0) -> bool:
        """Evacuation cannot mask this event: roll back globally?

        True when more localities failed at once than evacuation can
        absorb, or when some block's last live copy is already gone.
        """
        return (concurrent_failures > self.evacuation_capacity
                or bool(self.lost_blocks()))

    # -- recovery -----------------------------------------------------------

    def recover(self, monitor=None) -> RecoveryReport:
        """Roll every survivor back to the newest consistent generation
        and restart elastically on the remaining locality count.

        Steps: drop the dead localities' shards; plan (newest verified
        globally-consistent generation); remap ownership over the
        survivors via ``box_partition`` (migrating live components,
        resurrecting lost GIDs); fetch payloads from surviving replicas;
        restore mesh state/time/step and truncate the monitor; reset the
        local manager (its records described a dead timeline) and re-seed
        durability with a fresh checkpoint of the restored state.
        """
        mesh = self.mesh
        failed = mesh.agas.failed_localities
        for loc in sorted(failed):
            self.store.locality_lost(loc)
        survivors = sorted(set(range(mesh.n_localities)) - failed)
        if not survivors:
            raise CheckpointError("no locality survives; nothing to restart")

        manifest, holders = self.store.recovery_plan()
        new_owner = {ip: survivors[k] for ip, k in
                     box_partition(mesh.lattice, len(survivors)).items()}
        moves = mesh.apply_ownership(new_owner)
        payloads = self.store.fetch(manifest, holders, new_owner)
        restore_state(mesh, manifest, payloads, monitor)

        # the local manager's records describe the abandoned timeline —
        # and possibly memory that died with the failed localities
        self.manager.reset()
        self.rollbacks += 1
        r = self.registry
        r.increment("/recovery/global-rollbacks")
        r.increment("/recovery/elastic-restarts")
        r.increment("/recovery/components-migrated",
                    float(moves["migrated"]))
        r.increment("/recovery/components-restored",
                    float(moves["restored"]))
        r.set_gauge("/recovery/generation", float(manifest.generation))
        r.set_gauge("/recovery/localities-remaining", float(len(survivors)))
        trace.instant("global-rollback", "resilience",
                      generation=manifest.generation, step=manifest.step,
                      survivors=len(survivors))
        # re-seed durability at the restored state so the next failure
        # does not have to reach back past this recovery point
        self.manager.save(mesh, monitor)
        return RecoveryReport(
            generation=manifest.generation, step=manifest.step,
            time=manifest.time, survivors=survivors,
            blocks_fetched=len(payloads),
            components_migrated=moves["migrated"],
            components_restored=moves["restored"],
            new_owner=new_owner)
