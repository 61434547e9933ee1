"""Distributed block mesh: AGAS-sharded sub-grids with parcelport halos.

The node-level :class:`~repro.core.mesh.BlockMesh` fills every ghost
shell by reading the neighbour block's memory directly — all its blocks
share one address space and no halo ever crosses a locality.
:class:`DistBlockMesh` closes ROADMAP item 2's first gap: each block
becomes an AGAS-registered, migratable
:class:`~repro.runtime.agas.Component` homed on one of ``n_localities``
simulated localities, and the route of every halo is decided from the
current owners of its two blocks, each time it is exchanged:

* a **same-locality** pair is the node-level direct slab copy, tallied
  by the :class:`~repro.network.transport.HaloTransport` (Octo-Tiger's
  local-communication optimisation: no channel, no charge);
* a **cross-locality** pair speaks the paper's protocol — one
  generation-matched channel per neighbour direction per sub-grid
  (Sec. 5.2) — with the send routed through the transport, which charges
  it to the parcelport cost model (eager vs rendezvous vs RMA by
  ``EAGER_BYTES``) and may deliver it out of order; the generation
  matching of the channel protocol is what keeps the physics
  byte-identical anyway.

The two routes write the same bytes into the same ghost cells (Sec. 4.1:
"semantic and syntactic equivalence of local and remote operations" — of
the results, not of the road taken).

Contracts this class maintains (asserted by the distributed tests):

* a distributed step is **byte-identical** to the node-level
  ``BlockMesh`` step on the same initial data, for any partition, any
  parcelport, and any delivery order;
* killing a locality (via :meth:`fail_locality` or the phi-accrual
  detector) evacuates its block components through AGAS — the blocks'
  GIDs stay valid, ownership moves, and subsequent halo traffic takes
  (and is charged along) the new local/remote split with no plan rebuild;
* every cross-locality halo is charged to the parcelport and every
  same-locality one tallied: the ``/distmesh/*`` and
  ``/parcels/halo:<port>/*`` counters reconcile exactly (halo sets ==
  halo gets; transport tallies == port tallies).

Direct ``Channel.set`` calls, and block-to-block ghost writes in a
function that books nothing with the transport, are banned here by lint
rule REPRO007 — the accounting above cannot silently rot.
"""

from __future__ import annotations

from typing import Callable

from ..network.transport import HaloTransport
from ..runtime.agas import AgasRuntime, Component, Gid, LocalityFailed
from ..runtime.channel import Channel
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .mesh import BlockMesh

__all__ = ["DistBlockMesh", "BlockComponent", "slab_partition"]


def slab_partition(index: int, n_blocks: int, n_localities: int) -> int:
    """Contiguous slabs of the block index space (the default layout)."""
    return index * n_localities // n_blocks


class BlockComponent(Component):
    """The AGAS face of one sub-grid block.

    Holds no state of its own — the block array stays in the mesh, as the
    paper's grid cells stay in the octree — but its GID is the name the
    runtime migrates, and :meth:`on_migrate` is where the mesh learns
    that a block changed locality (evacuation or load balancing alike).
    """

    def __init__(self, mesh: "DistBlockMesh",
                 ip: tuple[int, int, int]) -> None:
        super().__init__()
        self._mesh = mesh
        self.ip = ip

    def on_migrate(self, old_locality: int, new_locality: int) -> None:
        self._mesh._block_moved(self.ip, old_locality, new_locality)


class DistBlockMesh(BlockMesh):
    """A :class:`BlockMesh` whose blocks are sharded across localities.

    Parameters (beyond :class:`BlockMesh`'s)
    ----------------------------------------
    n_localities:
        Simulated compute nodes to shard over (ignored when ``agas`` is
        supplied — its locality count wins).
    agas:
        An existing :class:`AgasRuntime` to register blocks with; by
        default a fresh one is created, so a failure detector can be
        pointed at ``mesh.agas``.
    transport / port / reorder_seed:
        Either a ready :class:`HaloTransport`, or the parcelport (name or
        instance) to build one around; ``reorder_seed`` enables seeded
        out-of-order delivery of remote halos.
    partition:
        ``partition(index, n_blocks, n_localities) -> locality`` over the
        sorted block index; default :func:`slab_partition`.
    """

    def __init__(self, blocks_per_edge: int, *, n_localities: int = 2,
                 agas: AgasRuntime | None = None,
                 transport: HaloTransport | None = None,
                 port: str = "libfabric",
                 reorder_seed: int | None = None,
                 partition: Callable[[int, int, int], int] | None = None,
                 registry: CounterRegistry | None = None,
                 **mesh_kwargs):
        super().__init__(blocks_per_edge, **mesh_kwargs)
        self.registry = registry or default_registry()
        if agas is None:
            if n_localities < 1:
                raise ValueError("need at least one locality")
            agas = AgasRuntime(n_localities, registry=self.registry)
        self.agas = agas
        self.n_localities = agas.n_localities
        self.transport = transport or HaloTransport(
            port, reorder_seed=reorder_seed)
        partition = partition or slab_partition
        ips = sorted(self.blocks)
        self._owner: dict[tuple[int, int, int], int] = {}
        self._components: dict[tuple[int, int, int], BlockComponent] = {}
        self.gids: dict[tuple[int, int, int], Gid] = {}
        self.block_migrations = 0
        for index, ip in enumerate(ips):
            loc = partition(index, len(ips), self.n_localities)
            if not 0 <= loc < self.n_localities:
                raise ValueError(
                    f"partition put block {ip} on locality {loc}, outside "
                    f"[0, {self.n_localities})")
            comp = BlockComponent(self, ip)
            self.gids[ip] = self.agas.register(comp, loc)
            self._components[ip] = comp
            self._owner[ip] = loc
        #: blocks whose last live copy died with a locality (their GIDs
        #: resolve to LocalityFailed until apply_ownership restores them)
        self._lost_blocks: set[tuple[int, int, int]] = set()
        #: (src block, dst block) -> channel, created the first time the
        #: pair's halo crosses a locality
        self.channels: dict[tuple, Channel] = {}

    # -- ownership ------------------------------------------------------------

    def owners(self) -> dict[tuple[int, int, int], int]:
        """Current block -> locality map (a copy)."""
        return dict(self._owner)

    def locality_blocks(self) -> dict[int, int]:
        """Blocks hosted per locality (every locality listed, even empty)."""
        counts = {loc: 0 for loc in range(self.n_localities)}
        for loc in self._owner.values():
            counts[loc] += 1
        return counts

    def _block_moved(self, ip: tuple[int, int, int], old: int,
                     new: int) -> None:
        """AGAS moved a block component (evacuation or load balancing)."""
        self._owner[ip] = new
        self.block_migrations += 1
        self.registry.increment("/distmesh/migrations")

    def fail_locality(self, locality: int,
                      evacuate: bool = True) -> dict[str, list[Gid]]:
        """Kill a locality; AGAS evacuates its blocks (GIDs stay valid).

        With ``evacuate=False`` — or when the failure outruns evacuation
        (correlated multi-node loss) — the locality's blocks are *lost*:
        their GIDs invalidate and only :meth:`apply_ownership`, fed from a
        replicated checkpoint, can bring them back.
        """
        result = self.agas.fail_locality(locality, evacuate=evacuate)
        by_gid = {gid: ip for ip, gid in self.gids.items()}
        self._lost_blocks.update(by_gid[g] for g in result["lost"])
        self.registry.increment("/distmesh/localities-failed")
        return result

    @property
    def lost_blocks(self) -> set[tuple[int, int, int]]:
        """Blocks whose only live copy died with a failed locality."""
        return set(self._lost_blocks)

    def apply_ownership(self, new_owner: dict[tuple[int, int, int], int]
                        ) -> dict[str, int]:
        """Remap block ownership for an elastic restart.

        ``new_owner`` maps every block to its post-recovery locality
        (typically ``slab_partition`` re-evaluated over the surviving
        locality count).  Blocks whose components are still live are
        migrated through AGAS as usual; blocks whose GIDs were *lost* with
        their node are resurrected via
        :meth:`~repro.runtime.agas.AgasRuntime.restore_component` — the
        same GID, a fresh :class:`BlockComponent`, a surviving home.  The
        block *data* is the recovery coordinator's problem (it restores
        payloads from the replicated store); this method only fixes the
        name service and the owner map the halo accounting charges
        against.
        """
        migrated = restored = 0
        for ip in sorted(new_owner):
            loc = new_owner[ip]
            gid = self.gids[ip]
            try:
                _, current = self.agas.resolve(gid)
            except LocalityFailed:
                comp = BlockComponent(self, ip)
                self.agas.restore_component(comp, gid, loc)
                self._components[ip] = comp
                self._owner[ip] = loc
                self._lost_blocks.discard(ip)
                restored += 1
                self.registry.increment("/distmesh/restorations")
                continue
            if current != loc:
                self.agas.migrate(gid, loc)
                migrated += 1
        return {"migrated": migrated, "restored": restored}

    # -- halo exchange --------------------------------------------------------

    def _halo_exchange(self, blocks: dict, generation: int) -> None:
        """One stage of halos, each routed by who owns its two blocks now
        (so a migration flips a pair between routes by itself).

        Cross-locality pairs keep the channel protocol — receives posted
        first, sends second (each charged by the transport), buffered
        deliveries flushed in the transport's possibly shuffled order,
        futures drained into the ghost slabs.  Same-locality pairs are the
        node-level direct copies, tallied.  Periodic wraps read the
        wrapped block's interior directly whoever owns it — a one-sided
        get, charged when it crosses a locality.  Same data into the same
        cells as the node-level fill: bitwise identity is untouched.
        """
        owner = self._owner
        transport = self.transport
        plan = self._fill_plan
        local, remote = [], []
        for halo in plan.pairs:
            dst, _, src, _, _ = halo
            (local if owner[dst] == owner[src] else remote).append(halo)
        channels = [self._channel(src, dst) for dst, _, src, _, _ in remote]
        pending = [ch.get(generation) for ch in channels]
        sanitize = _sanitize_state.ACTIVE
        for (dst, _, src, layer, _), ch in zip(remote, channels):
            if sanitize:
                _racecheck.access(blocks[src], "r", owner="halo/src-block")
            transport.send(ch, blocks[src][layer].copy(), generation,
                           owner[src], owner[dst])
        transport.flush()
        self._copy_halos(blocks, local)
        transport.tally_local(len(local),
                              sum(nbytes for *_, nbytes in local))
        self.registry.increment("/distmesh/halo/sets",
                                len(local) + len(remote))
        for (dst, ghost, _, _, _), fut in zip(remote, pending):
            data = fut.get()
            if sanitize:
                _racecheck.access(data, "r", owner="halo/payload")
                _racecheck.access(blocks[dst], "w", owner="halo/dst-block")
            blocks[dst][ghost] = data
        self.registry.increment("/distmesh/halo/gets",
                                len(local) + len(pending))
        for dst, _, src, _, nbytes in plan.wraps:
            transport.charge_onesided(nbytes, owner[src], owner[dst])
        self._copy_halos(blocks, plan.wraps)
        self._fill_walls(blocks)

    def _channel(self, src: tuple[int, int, int],
                 dst: tuple[int, int, int]) -> Channel:
        ch = self.channels.get((src, dst))
        if ch is None:
            ch = self.channels[src, dst] = Channel(name=f"{src}->{dst}")
        return ch

    # -- rollback -------------------------------------------------------------

    def on_restore(self) -> None:
        """Rollback hook: halo generations are derived from the step
        counter, so the replayed steps would collide with consumed
        generations unless every channel forgets its history; halos
        buffered for reordered delivery belong to the timeline being
        discarded and are dropped too."""
        super().on_restore()
        for ch in self.channels.values():
            ch.reset()
        self.transport.discard_pending()

    # -- counters -------------------------------------------------------------

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        """Publish ``/distmesh/...`` gauges (and the halo port's
        ``/parcels/halo:<name>/...``) into ``registry``."""
        from ..network import parcelport
        registry = registry or self.registry
        for loc, count in self.locality_blocks().items():
            registry.set_gauge(f"/distmesh/blocks/loc{loc}", float(count))
        registry.set_gauge("/distmesh/localities", float(self.n_localities))
        registry.set_gauge("/distmesh/block-migrations",
                           float(self.block_migrations))
        for key, value in self.transport.stats.snapshot().items():
            registry.set_gauge(f"/distmesh/halo/{key.replace('_', '-')}",
                               float(value))
        parcelport.publish_counters(registry)
