"""Distributed block mesh: AGAS-sharded sub-grids with parcelport halos.

The node-level :class:`~repro.core.mesh.BlockMesh` already speaks the
paper's protocol — one generation-matched channel per neighbour direction
per sub-grid (Sec. 5.2) — but every block lives in one address space and
no halo ever crosses a locality.  :class:`DistBlockMesh` closes ROADMAP
item 2's first gap: each block becomes an AGAS-registered, migratable
:class:`~repro.runtime.agas.Component` homed on one of ``n_localities``
simulated localities, and every halo send is routed through a
:class:`~repro.network.transport.HaloTransport` that charges
cross-locality traffic to the parcelport cost model (eager vs rendezvous
vs RMA by ``EAGER_BYTES``) and may deliver it out of order — the
generation matching of the channel protocol is what keeps the physics
byte-identical anyway (Sec. 4.1: "semantic and syntactic equivalence of
local and remote operations").

Contracts this class maintains (asserted by the distributed tests):

* a distributed step is **byte-identical** to the node-level
  ``BlockMesh`` step on the same initial data, for any partition, any
  parcelport, and any delivery order;
* killing a locality (via :meth:`fail_locality` or the phi-accrual
  detector) evacuates its block components through AGAS — the blocks'
  GIDs stay valid, ownership moves, and subsequent halo traffic is
  re-charged along the new local/remote split;
* every cross-locality halo is charged to the parcelport: the
  ``/distmesh/*`` and ``/parcels/halo:<port>/*`` counters reconcile
  exactly (halo sets == halo gets; transport tallies == port tallies).

Direct ``Channel.set`` calls are banned here by lint rule REPRO007 —
every send must go through the transport so the accounting above cannot
silently rot.
"""

from __future__ import annotations

from typing import Callable

from ..network.transport import HaloTransport
from ..runtime.agas import AgasRuntime, Component, Gid, LocalityFailed
from ..runtime.counters import CounterRegistry, default_registry
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
        """One stage of halos, with cross-locality sends charged.

        Same structure as the node-level exchange — receives posted
        first, sends second, futures drained, physical boundaries last —
        but every send goes through the transport (local fast path or
        parcelport charge), and buffered remote deliveries are flushed in
        the transport's (possibly shuffled) order before the drain.
        """
        recv, send = self._halo_plan
        owner = self._owner
        transport = self.transport
        pending = [(ip, off, ch.get(generation)) for ip, off, ch in recv]
        for ip, off, ch in send:
            nb = (ip[0] + off[0], ip[1] + off[1], ip[2] + off[2])
            transport.send(ch, self._extract_halo(blocks[ip], off),
                           generation, owner[ip], owner[nb])
        transport.flush()
        self.registry.increment("/distmesh/halo/sets", len(send))
        for ip, off, fut in pending:
            self._insert_halo(blocks[ip], off, fut.get())
        self.registry.increment("/distmesh/halo/gets", len(pending))
        for ip in blocks:
            self._physical_boundary(blocks, ip)

    def _physical_boundary(self, blocks: dict, ip) -> None:
        """Domain BC, with cross-locality periodic wraps charged.

        A periodic wrap reads the wrapped block's interior directly —
        a one-sided get when that block lives elsewhere, so its bytes
        are booked through the transport (same data, same insertion as
        the node-level path: bitwise identity is untouched).
        """
        if self.bc != "periodic":
            super()._physical_boundary(blocks, ip)
            return
        owner = self._owner
        dst = owner[ip]
        for off, src_ip in self._periodic_wraps(ip):
            mirror = (-off[0], -off[1], -off[2])
            data = self._extract_halo(blocks[src_ip], mirror)
            self.transport.charge_onesided(data.nbytes, owner[src_ip], dst)
            self._insert_halo(blocks[ip], off, data)

    # -- rollback -------------------------------------------------------------

    def on_restore(self) -> None:
        """Rollback hook: also drop halos buffered for reordered delivery
        (they belong to the timeline being discarded)."""
        super().on_restore()
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
