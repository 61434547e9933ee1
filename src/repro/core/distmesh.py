"""Distributed block mesh: AGAS-sharded sub-grids, one ghosted box per locality.

The node-level :class:`~repro.core.mesh.BlockMesh` keeps its blocks as
views of one ghosted box — all of them share one address space, so a
block's ghost layers simply *are* its neighbours' interiors.
:class:`DistBlockMesh` is the sharded case: every block is an
AGAS-registered :class:`~repro.runtime.agas.Component` homed on one of
``n_localities`` simulated localities, and AGAS's home table is the one
record of which locality owns which block (the mesh keeps no copy of it
and is never told of a move).

Storage follows the homes.  A *layout* covers each locality's blocks
with a few boxes (:func:`_box_cover`; the default
:func:`box_partition` gives every locality exactly one), and each box
owns one ghosted state array (plus a predictor array, made on the first
step): the blocks of one box are overlapping views of it, as in
``BlockMesh``, and no two localities share an array — a dead locality's
memory can be clobbered without touching a survivor's.  Cells inside a
box copy nothing.  The rest of the ghost fill is a box-to-box plan: for
each destination box, source box and periodic image, the destination's
ghost shell meets the source's interior in one rectangle, and that
rectangle is one copy entry.  Its route follows the homes of the two
boxes:

* a **same-locality** entry is a direct copy, tallied by the
  :class:`~repro.network.transport.HaloTransport` (Octo-Tiger's
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

The domain walls come last, per box face on the domain boundary.  The
right-hand side and the CFL reduction run per box too: boxes of one
shape batch into one ``compute_rhs`` call of at most ``agg_slots``
sub-grids (a larger box runs alone), and ``cfl_dt`` visits each box
once.  A layout is frozen for one homes map: :meth:`DistBlockMesh.step`
rebuilds it when AGAS reports different homes — a migration, an
evacuation, a recovery — and carries every block's interior over.

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

from ..network.transport import HaloTransport
from ..runtime.aggregate import DEFAULT_AGG_SLOTS
from ..runtime.agas import AgasRuntime, Component, Gid
from ..runtime.channel import Channel
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .grid import NF, NGHOST
from .mesh import BlockMesh, fill_wall, interior, min_cfl_dt

__all__ = ["DistBlockMesh", "box_partition"]

Block = tuple[int, int, int]


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


def _box_cover(owner: dict[Block, int]) -> list[tuple[int, Block, Block]]:
    """Greedy box cover of every locality's blocks: ``(locality, first
    block, past the last block)`` boxes.  From each block not yet covered
    (in sorted order) a box grows along z, then y, then x while every
    block it would take is uncovered and homed on the same locality — so
    a locality whose blocks form a box gets exactly that box."""
    free = set(owner)
    boxes = []
    for ip in sorted(owner):
        if ip not in free:
            continue
        loc, lo, hi = owner[ip], ip, [c + 1 for c in ip]
        for axis in (2, 1, 0):
            while True:
                face = list(zip(lo, hi))
                face[axis] = (hi[axis], hi[axis] + 1)
                grow = list(itertools.product(*(range(*f) for f in face)))
                if not all(b in free and owner[b] == loc for b in grow):
                    break
                hi[axis] += 1
        boxes.append((loc, lo, tuple(hi)))
        free -= set(itertools.product(*map(range, lo, hi)))
    return boxes


class _Box(NamedTuple):
    """One storage box: its locality, its window of the cell space and
    the blocks it holds."""

    locality: int
    cells: tuple
    n_blocks: int


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


class _Layout(NamedTuple):
    """The storage and ghost fill frozen for one homes map.

    ``boxes`` are the cover's boxes; ``views`` maps a block to ``(box,
    ghosted view, interior window)`` slices of that box's arrays;
    ``local`` holds the same-locality ``(dst box, ghost slab, src box,
    interior slab, nbytes)`` copy entries (``local_bytes`` in all),
    ``routes`` the cross-locality ones; ``walls`` holds ``(box, axis,
    side)`` domain faces for :func:`~repro.core.mesh.fill_wall`."""

    homes: dict
    boxes: tuple
    views: dict
    local: tuple
    local_bytes: int
    routes: tuple
    walls: tuple

    @property
    def n_halos(self) -> int:
        return len(self.local) + sum(len(r.slabs) for r in self.routes)


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
        ``{block: locality}`` for every block; default
        :func:`box_partition` (one box per locality).

    Storage, fill, RHS and CFL are per box: each box of the layout is one
    ghosted array (its blocks are views of it), its shell is filled along
    the layout's box-to-box plan, its RHS runs in a batched call with the
    boxes of its shape and the CFL reduction visits it once.
    """

    def __init__(self, blocks, *, n_localities: int = 2,
                 port: str = "libfabric",
                 reorder_seed: int | None = None,
                 partition: dict[Block, int] | None = None,
                 registry: CounterRegistry | None = None,
                 **mesh_kwargs):
        super().__init__(blocks, **mesh_kwargs)
        self.registry = registry or default_registry()
        self.agas = AgasRuntime(n_localities, registry=self.registry)
        self.n_localities = n_localities
        self.transport = HaloTransport(port, reorder_seed=reorder_seed)
        if partition is None:
            partition = box_partition(self.lattice, n_localities)
        self._check_owner_map(partition)
        self.gids: dict[Block, Gid] = {
            ip: self.agas.register(Component(), partition[ip])
            for ip in np.ndindex(*self.lattice)}
        #: (src locality, dst locality) -> channel of that route; exactly
        #: the routes of the current layout
        self.channels: dict[tuple[int, int], Channel] = {}
        self._relayout(self.owners())

    def _check_owner_map(self, owner: dict[Block, int]) -> None:
        """Reject an owner map that misses or invents a block or names a
        locality outside the mesh or a failed one."""
        if set(owner) != set(np.ndindex(*self.lattice)):
            raise ValueError(
                f"an owner map must name every block of the "
                f"{self.lattice} lattice exactly once")
        dead = self.agas.failed_localities
        bad = {ip: loc for ip, loc in sorted(owner.items())
               if not 0 <= loc < self.n_localities or loc in dead}
        if bad:
            raise ValueError(
                f"owner map puts blocks on localities outside the live set "
                f"of [0, {self.n_localities}) (failed: {sorted(dead)}): "
                f"{bad}")

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

    # -- per-box storage and the frozen layout --------------------------------

    def _allocate(self) -> dict:
        """No storage before the homes are known: the constructor lays
        the blocks out once AGAS has placed them."""
        self._arrays: list[list[np.ndarray]] = []
        return {}

    def _predictors(self) -> dict:
        """One uninitialised predictor array per box, and its views."""
        self._arrays[1:] = [[np.empty_like(a) for a in self._arrays[0]]]
        return self._views(self._arrays[1])

    def _views(self, arrays: list[np.ndarray]) -> dict:
        return {ip: arrays[box][view]
                for ip, (box, view, _) in self._layout.views.items()}

    def _relayout(self, homes: dict[Block, int]) -> None:
        """Freeze storage and ghost fill for ``homes``: the box cover,
        one zeroed ghosted array per box with every block's interior
        copied over from its previous view, the copy entries and their
        routes (a route that no longer exists takes its channel with it),
        and the domain walls.  The predictors follow on the next step."""
        g, tile = NGHOST, self.tile
        boxes, views = [], {}
        for loc, lo, hi in _box_cover(homes):
            boxes.append(_Box(loc, tuple(
                slice(l * s, h * s) for l, h, s in zip(lo, hi, tile)),
                math.prod(h - l for l, h in zip(lo, hi))))
            for ip in itertools.product(*map(range, lo, hi)):
                at = [(c - l) * s for c, l, s in zip(ip, lo, tile)]
                views[ip] = (len(boxes) - 1, (slice(None),) + tuple(
                    slice(a, a + s + 2 * g) for a, s in zip(at, tile)),
                    (slice(None),) + tuple(
                        slice(a, a + s) for a, s in zip(at, tile)))
        old = self.blocks
        local, by_route, walls = self._halo_entries(boxes)
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
        self._layout = _Layout(
            dict(homes), tuple(boxes), views, tuple(local),
            sum(nbytes for *_, nbytes in local), tuple(routes), tuple(walls))
        self._arrays = [[np.zeros((NF,) + tuple(
            sl.stop - sl.start + 2 * g for sl in box.cells))
            for box in boxes]]
        self.blocks = self._views(self._arrays[0])
        for ip, blk in old.items():
            np.copyto(interior(self.blocks[ip]), interior(blk))
        self._stage = {}
        self._rhs_out = {}
        self.registry.increment("/distmesh/plan-rebuilds")

    def _halo_entries(self, boxes: list[_Box]) -> tuple[list, dict, list]:
        """The box-to-box ghost fill: one copy entry per (dst box, src
        box, periodic image) whose ghost shell and interior meet — split
        into same-locality entries and per-route ones — and, for the
        non-periodic boundary conditions, one wall per box face on the
        domain boundary.  A box's own cells copy nothing; under periodic
        boundaries its image across the seam is one more source (a
        one-box mesh wraps onto itself)."""
        g, shape = NGHOST, self.shape
        periodic = self.bc == "periodic"
        local, by_route, walls = [], {}, []
        for d, dst in enumerate(boxes):
            origin = [sl.start - g for sl in dst.cells]
            end = [sl.stop + g for sl in dst.cells]
            # a source image shifted by a whole domain matters only where
            # the ghosted box reaches past that side of the domain
            images = itertools.product(*(
                [0] + ([-n] if o < 0 else []) + ([n] if e > n else [])
                if periodic else [0]
                for o, e, n in zip(origin, end, shape)))
            for shift in images:
                for s, src in enumerate(boxes):
                    if s == d and not any(shift):
                        continue
                    lo = [max(o, sl.start + t) for o, sl, t in
                          zip(origin, src.cells, shift)]
                    hi = [min(e, sl.stop + t) for e, sl, t in
                          zip(end, src.cells, shift)]
                    if any(a >= b for a, b in zip(lo, hi)):
                        continue
                    ghost = (slice(None),) + tuple(
                        slice(a - o, b - o) for a, b, o in zip(lo, hi, origin))
                    layer = (slice(None),) + tuple(
                        slice(a - t - sl.start + g, b - t - sl.start + g)
                        for a, b, t, sl in zip(lo, hi, shift, src.cells))
                    entry = (d, ghost, s, layer,
                             8 * NF * math.prod(b - a for a, b in zip(lo, hi)))
                    if src.locality == dst.locality:
                        local.append(entry)
                    else:
                        by_route.setdefault((src.locality, dst.locality),
                                            []).append(entry)
            if not periodic:
                walls.extend(
                    (d, axis, side) for axis in range(3) for side in (-1, 1)
                    if (dst.cells[axis].start == 0 if side < 0
                        else dst.cells[axis].stop == shape[axis]))
        return local, by_route, walls

    @staticmethod
    def _copy_halos(boxes: list, halos) -> None:
        """``dst[ghost] = src[layer]`` for every entry: a strided copy
        straight out of the source box's interior.  The caller books the
        copies with the transport (lint rule REPRO007)."""
        sanitize = _sanitize_state.ACTIVE
        for dst, ghost, src, layer, _ in halos:
            if sanitize:
                _racecheck.access(boxes[src], "r", owner="halo/src-box")
                _racecheck.access(boxes[dst], "w", owner="halo/dst-box")
            boxes[dst][ghost] = boxes[src][layer]

    def _fill_walls(self, boxes: list) -> None:
        """Domain walls, after the copies: a wall slab spans the
        transverse ghosts the neighbours just filled."""
        sanitize = _sanitize_state.ACTIVE
        for box, axis, side in self._layout.walls:
            if sanitize:
                _racecheck.access(boxes[box], "w", owner="halo/dst-box")
            fill_wall(boxes[box], axis, side, self.bc)

    # -- halo exchange --------------------------------------------------------

    def _halo_exchange(self, boxes: list, generation: int) -> None:
        """One stage of halos into ``boxes`` (one array per layout box)
        along the frozen layout.

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

    # -- per-box stepping -----------------------------------------------------

    def step(self, dt: float | None = None) -> float:
        """One SSP-RK2 step; first lays the storage out again if AGAS
        reports other homes than the layout was frozen for (a change to
        the home table that moved none of these blocks rebuilds
        nothing)."""
        homes = self.owners()
        if homes != self._layout.homes:
            self._relayout(homes)
        return super().step(dt)

    def _fill(self, blocks: dict, stage: int) -> None:
        # one halo generation per RK stage of every step
        self._halo_exchange(self._arrays[stage], 2 * self.steps + stage)

    def compute_dt(self) -> float:
        """CFL reduction: one :func:`cfl_dt` per box."""
        return min_cfl_dt(((a, self.dx) for a in self._arrays[0]),
                          self.options, ws=self._ws)

    def _rhs(self, blocks: dict, acc: np.ndarray | None, stage: int) -> dict:
        """The hydro RHS of every box of ``stage``: boxes of one shape
        batch into one :func:`~repro.core.hydro.solver.compute_rhs` call
        of at most ``engine.agg_slots`` sub-grids
        (:data:`DEFAULT_AGG_SLOTS` without an engine; a larger box runs
        alone) — run in turn on the calling thread, or each posted as one
        engine task.  Centres and accelerations are box windows.
        ``k[key]`` are views of the per-call ``(NF, b, *box)`` outputs;
        each stage owns its own, allocated once (again if the batching
        changes)."""
        engine = self.engine
        slots = engine.agg_slots if engine is not None else DEFAULT_AGG_SLOTS
        boxes, arrays = self._layout.boxes, self._arrays[stage]
        by_shape = {}
        for b, box in enumerate(boxes):
            by_shape.setdefault(arrays[b].shape, []).append(b)
        batches = []
        for members in by_shape.values():
            per_call = max(1, slots // boxes[members[0]].n_blocks)
            batches.extend(members[i:i + per_call]
                           for i in range(0, len(members), per_call))
        outs = self._rhs_out.get(stage)
        if outs is None or [o.shape[1] for o in outs] != [
                len(batch) for batch in batches]:
            outs = self._rhs_out[stage] = [
                np.empty((NF, len(batch)) + tuple(
                    sl.stop - sl.start for sl in boxes[batch[0]].cells))
                for batch in batches]
        box_rhs, calls = {}, []
        for batch, out in zip(batches, outs):
            windows = [boxes[b].cells for b in batch]
            calls.append((
                [arrays[b] for b in batch], self.dx, self.options,
                None if acc is None else [
                    acc[(slice(None),) + w] for w in windows],
                False, out, self._ws,
                [tuple(c[sl] for c, sl in zip(self._centers, w))
                 for w in windows]))
            box_rhs.update((b, out[:, i]) for i, b in enumerate(batch))
        self._run_rhs(calls)
        return {ip: box_rhs[box][window]
                for ip, (box, _, window) in self._layout.views.items()}

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
        from ..network import parcelport
        registry = registry or self.registry
        for loc, count in self.locality_blocks().items():
            registry.set_gauge(f"/distmesh/blocks/loc{loc}", float(count))
        registry.set_gauge("/distmesh/localities", float(self.n_localities))
        for key, value in self.transport.stats.snapshot().items():
            registry.set_gauge(f"/distmesh/halo/{key.replace('_', '-')}",
                               float(value))
        parcelport.publish_counters(registry)
