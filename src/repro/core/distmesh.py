"""Distributed block mesh: AGAS-sharded sub-grids, one ghosted box per locality.

:class:`~repro.core.mesh.BlockMesh` already stores its blocks as a
*layout*: boxes covering each locality's blocks, every block a view of its
box, and a box-to-box ghost fill plan of copy entries and domain walls.
The node-level mesh homes every block on one locality, so its layout is
one box.  :class:`DistBlockMesh` is the same layout over real homes:
every block is an AGAS-registered :class:`~repro.runtime.agas.Component`
homed on one of ``n_localities`` simulated localities, and AGAS's home
table is the one record of which locality owns which block (the mesh
keeps no copy of it and is never told of a move).  No two localities
share an array, so a dead locality's memory can be clobbered without
touching a survivor's; the default :func:`box_partition` gives every
locality exactly one box.

What this module adds is the homes, the routes and the transport.  Each
copy entry's route follows the homes of its two boxes:

* a **same-locality** entry is the base mesh's direct copy, tallied by
  the :class:`~repro.network.transport.HaloTransport` (Octo-Tiger's
  local-communication optimisation: no channel, no charge);
* the **cross-locality** entries of one directed (source locality,
  destination locality) pair travel together, HPX-style one parcel per
  destination locality: every rectangle of the route is packed into one
  contiguous payload at its planned offset, the payload is one send
  through the transport — one charge to the parcelport cost model
  (eager vs rendezvous vs RMA by ``EAGER_BYTES``), one delivery that may
  arrive out of order — into the route's generation-matched channel
  (the paper's Sec. 5.2 protocol, per locality pair instead of per
  neighbour direction per sub-grid), and the receiver unpacks it by the
  same plan; generation matching is what keeps the physics
  byte-identical under any delivery order.

The domain walls, the right-hand side and the CFL reduction are the base
mesh's, per box.  A layout is frozen for one homes map:
:meth:`DistBlockMesh.step` rebuilds it when AGAS reports different homes
— a migration, an evacuation, a recovery — and carries every block's
interior over.

Contracts this class maintains (asserted by the distributed tests):

* a distributed step is **byte-identical** to the node-level
  ``BlockMesh`` step on the same initial data, for any owner map, any
  parcelport, any delivery order and any history of moves;
* killing a locality (the phi-accrual detector calls
  ``agas.fail_locality``) evacuates its block components through AGAS —
  the blocks' GIDs stay valid, their homes move, and the next step lays
  the storage out for the new homes: subsequent halo traffic takes (and
  is charged along) the new local/remote split by itself;
* every cross-locality halo byte is charged to the parcelport and every
  same-locality one tallied: the ``/distmesh/*`` and
  ``/parcels/halo:<port>/*`` counters reconcile exactly (halo sets ==
  halo gets; transport tallies == port tallies; remote messages ==
  routes, remote + local bytes == the plan's).

Direct ``Channel.set`` calls, box-to-box ghost writes in a function that
books nothing with the transport, payloads packed but never handed to
``transport.send`` and unpacks outside the function that drains the
route's future are banned here by lint rule REPRO007 — the accounting
above cannot silently rot.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ..network import parcelport
from ..network.transport import HaloTransport
from ..runtime.agas import AgasRuntime, Component, Gid
from ..runtime.channel import Channel
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .grid import NF
from .mesh import Block, BlockMesh

__all__ = ["DistBlockMesh", "box_partition"]


def box_partition(lattice: tuple[int, int, int], n_localities: int
                  ) -> dict[Block, int]:
    """``{block: locality}`` giving every locality one box of the block
    lattice.

    The lattice is cut recursively: a box holding ``k`` localities is
    split at the plane (axis and position, the first on a tie) whose two
    parts, given localities in proportion to their blocks, have the
    smaller worst blocks-per-locality; the low part takes the low
    locality numbers.  Every locality gets a box when there are at least
    as many blocks as localities (the surplus localities get nothing
    otherwise), and no share exceeds twice ``ceil(blocks / localities)``:
    3^3 blocks go 9/18 on two localities and 9/6/6/6 on four.
    """
    owner: dict[Block, int] = {}

    def split(lo, hi, first, k):
        n = math.prod(h - l for l, h in zip(lo, hi))
        if k == 1:
            for ip in itertools.product(*map(range, lo, hi)):
                owner[ip] = first
            return
        best = None
        for axis in range(3):
            length = hi[axis] - lo[axis]
            for cut in range(1, length):
                n1 = n // length * cut
                k1 = min(max(round(k * n1 / n), 1, k - (n - n1)), k - 1, n1)
                worst = max(n1 / k1, (n - n1) / (k - k1))
                if best is None or worst < best[0]:
                    best = (worst, axis, cut, k1)
        _, axis, cut, k1 = best
        mid = list(hi)
        mid[axis] = lo[axis] + cut
        split(lo, tuple(mid), first, k1)
        mid = list(lo)
        mid[axis] += cut
        split(tuple(mid), hi, first + k1, k - k1)

    split((0, 0, 0), tuple(lattice), 0,
          max(1, min(n_localities, math.prod(lattice))))
    return owner


class _Route(NamedTuple):
    """The halos of one directed locality pair, one parcel per stage.
    ``slabs`` holds ``(dst box, ghost slab, src box, interior slab, lo,
    hi, shape)``: a copy entry plus the ``payload[lo:hi]`` elements (of
    ``size``) that carry it."""

    src: int
    dst: int
    channel: Channel
    slabs: tuple
    size: int


class DistBlockMesh(BlockMesh):
    """A :class:`BlockMesh` whose blocks are sharded across localities.

    Parameters (beyond :class:`BlockMesh`'s)
    ----------------------------------------
    n_localities:
        Simulated compute nodes to shard over; the mesh creates its own
        :class:`AgasRuntime` over them, so a failure detector is pointed
        at ``mesh.agas``.
    port / reorder_seed:
        The parcelport (name or instance) the mesh's
        :class:`HaloTransport` charges; ``reorder_seed`` enables seeded
        out-of-order delivery of remote halos.
    partition:
        ``{block: locality}`` for every block, localities integers of the
        live set; default :func:`box_partition` (one box per locality).

    Storage, walls, RHS and CFL are :class:`BlockMesh`'s, per box of its
    layout; this class homes the blocks through AGAS (the :meth:`_place`
    hook) and carries the cross-locality copy entries on routes
    (:meth:`_routes`, :meth:`_halo_exchange`).
    """

    def __init__(self, blocks, *, n_localities: int = 2,
                 port: str = "libfabric",
                 reorder_seed: int | None = None,
                 partition: dict[Block, int] | None = None,
                 registry: CounterRegistry | None = None,
                 **mesh_kwargs):
        self.registry = registry or default_registry()
        self.agas = AgasRuntime(n_localities, registry=self.registry)
        self.n_localities = n_localities
        self.transport = HaloTransport(port, reorder_seed=reorder_seed)
        #: (src locality, dst locality) -> channel of that route; exactly
        #: the routes of the current layout
        self.channels: dict[tuple[int, int], Channel] = {}
        self._partition = partition
        super().__init__(blocks, **mesh_kwargs)

    def _check_owner_map(self, owner: dict[Block, int]) -> None:
        """Reject an owner map that misses or invents a block or names a
        locality that is not an integer, lies outside the mesh or has
        failed."""
        if set(owner) != set(np.ndindex(*self.lattice)):
            raise ValueError(
                f"an owner map must name every block of the "
                f"{self.lattice} lattice exactly once")
        dead = self.agas.failed_localities
        bad = {ip: loc for ip, loc in sorted(owner.items())
               if not isinstance(loc, (int, np.integer))
               or isinstance(loc, bool)
               or not 0 <= loc < self.n_localities or loc in dead}
        if bad:
            raise ValueError(
                f"owner map puts blocks on localities outside the live "
                f"integers of [0, {self.n_localities}) (failed: "
                f"{sorted(dead)}): {bad}")

    # -- ownership ------------------------------------------------------------

    def owners(self) -> dict[Block, int]:
        """Current block -> locality map, as AGAS records it (a lost
        block's home is the locality it died with)."""
        homes = self.agas.homes(list(self.gids.values()))
        return dict(zip(self.gids, homes))

    def locality_blocks(self) -> dict[int, int]:
        """Blocks hosted per locality (every locality listed, even empty)."""
        counts = {loc: 0 for loc in range(self.n_localities)}
        for loc in self.owners().values():
            counts[loc] += 1
        return counts

    @property
    def lost_blocks(self) -> set[Block]:
        """Blocks whose only live copy died with a failed locality: AGAS
        lost their GID in ``agas.fail_locality`` (a correlated multi-node
        loss that outran evacuation) and homes it on the dead locality
        until :meth:`apply_ownership` restores it.  A live GID is never
        homed on a failed locality."""
        dead = self.agas.failed_localities
        return {ip for ip, loc in self.owners().items() if loc in dead}

    def apply_ownership(self, new_owner: dict[Block, int]) -> dict[str, int]:
        """Remap block ownership for an elastic restart.

        ``new_owner`` maps every block to its post-recovery locality
        (typically :func:`box_partition` over the survivors).  The whole
        map is checked first — every block named once, every locality in
        range and alive — and a bad one raises ``ValueError`` with no
        home moved.  Blocks whose components are still live are then
        migrated through AGAS as usual; blocks whose GIDs were *lost* with
        their node are resurrected via
        :meth:`~repro.runtime.agas.AgasRuntime.restore_component` — the
        same GID, a fresh :class:`~repro.runtime.agas.Component`, a
        surviving home.  The block *data* is the recovery coordinator's
        problem (it restores payloads from the replicated store); this
        method only fixes the name service the layout is read from.
        """
        self._check_owner_map(new_owner)
        migrated = restored = 0
        lost, homes = self.lost_blocks, self.owners()
        for ip in sorted(new_owner):
            loc, gid = new_owner[ip], self.gids[ip]
            if ip in lost:
                self.agas.restore_component(Component(), gid, loc)
                restored += 1
                self.registry.increment("/distmesh/restorations")
            elif homes[ip] != loc:
                self.agas.migrate(gid, loc)
                migrated += 1
        return {"migrated": migrated, "restored": restored}

    # -- the layout's two hooks -----------------------------------------------

    def _place(self) -> dict[Block, int]:
        """Register every block with AGAS on its ``partition`` locality
        (default :func:`box_partition`); the first layout follows the
        homes AGAS then reports."""
        partition = self._partition
        if partition is None:
            partition = box_partition(self.lattice, self.n_localities)
        self._check_owner_map(partition)
        self.gids: dict[Block, Gid] = {
            ip: self.agas.register(Component(), partition[ip])
            for ip in np.ndindex(*self.lattice)}
        return self.owners()

    def _routes(self, by_route: dict) -> tuple:
        """One :class:`_Route` per directed locality pair of the new
        layout: its channel (kept while the pair still shares halos; a
        route that no longer exists takes its channel with it) and every
        entry's offsets in the route's payload."""
        self.channels = {
            pair: self.channels.get(pair) or Channel(
                name=f"loc{pair[0]}->loc{pair[1]}") for pair in by_route}
        routes = []
        for pair, entries in by_route.items():
            slabs, lo = [], 0
            for dst, ghost, src, layer, _ in entries:
                shape = (NF,) + tuple(sl.stop - sl.start for sl in layer[1:])
                slabs.append((dst, ghost, src, layer, lo,
                              lo + math.prod(shape), shape))
                lo += math.prod(shape)
            routes.append(_Route(*pair, self.channels[pair], tuple(slabs),
                                 lo))
        self.registry.increment("/distmesh/plan-rebuilds")
        return tuple(routes)

    # -- halo exchange --------------------------------------------------------

    def _halo_exchange(self, boxes: dict, generation: int) -> None:
        """One stage of halos into ``boxes`` ({box index: array}) along
        the frozen layout.

        One receive is posted per route, then every route packs its
        rectangles into one payload and makes one send (charged by the
        transport), buffered deliveries are flushed in the transport's
        possibly shuffled order, the same-locality entries are copied
        directly and tallied, and one future per route is drained and
        unpacked into the ghost shells; the domain walls come last.  Same
        data into the same cells as the node-level fill: bitwise identity
        is untouched.
        """
        layout = self._layout
        transport = self.transport
        sanitize = _sanitize_state.ACTIVE
        pending = [route.channel.get(generation) for route in layout.routes]
        for route in layout.routes:
            if sanitize:
                for src in {src for _, _, src, *_ in route.slabs}:
                    _racecheck.access(boxes[src], "r", owner="halo/src-box")
            payload = np.empty(route.size)
            for _, _, src, layer, lo, hi, shape in route.slabs:
                payload[lo:hi].reshape(shape)[...] = boxes[src][layer]
            transport.send(route.channel, payload, generation, route.src,
                           route.dst)
        transport.flush()
        self._copy_halos(boxes, layout.local)
        transport.tally_local(len(layout.local), layout.local_bytes)
        self.registry.increment("/distmesh/halo/sets", layout.n_halos)
        for route, fut in zip(layout.routes, pending):
            payload = fut.get()
            if sanitize:
                _racecheck.access(payload, "r", owner="halo/payload")
                for dst in {dst for dst, *_ in route.slabs}:
                    _racecheck.access(boxes[dst], "w", owner="halo/dst-box")
            for dst, ghost, _, _, lo, hi, shape in route.slabs:
                boxes[dst][ghost] = payload[lo:hi].reshape(shape)
        self.registry.increment("/distmesh/halo/gets", layout.n_halos)
        self._fill_walls(boxes)

    # -- stepping -------------------------------------------------------------

    def step(self, dt: float | None = None) -> float:
        """One SSP-RK2 step; first lays the storage out again if AGAS
        reports other homes than the layout was frozen for (a change to
        the home table that moved none of these blocks rebuilds
        nothing)."""
        homes = self.owners()
        if homes != self._layout.homes:
            self._relayout(homes)
        return super().step(dt)

    def _fill(self, boxes: dict, stage: int) -> None:
        # one halo generation per RK stage of every step
        self._halo_exchange(boxes, 2 * self.steps + stage)

    # -- rollback -------------------------------------------------------------

    def on_restore(self) -> None:
        """Rollback hook: halo generations are derived from the step
        counter, so the replayed steps would collide with consumed
        generations unless every route's channel forgets its history;
        route payloads buffered for reordered delivery belong to the
        timeline being discarded and are dropped too."""
        super().on_restore()
        for ch in self.channels.values():
            ch.reset()
        self.transport.discard_pending()

    # -- counters -------------------------------------------------------------

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        """Publish ``/distmesh/...`` gauges (and the halo port's
        ``/parcels/halo:<name>/...``) into ``registry``."""
        registry = registry or self.registry
        for loc, count in self.locality_blocks().items():
            registry.set_gauge(f"/distmesh/blocks/loc{loc}", float(count))
        registry.set_gauge("/distmesh/localities", float(self.n_localities))
        for key, value in self.transport.stats.snapshot().items():
            registry.set_gauge(f"/distmesh/halo/{key.replace('_', '-')}",
                               float(value))
        parcelport.publish_counters(registry)
