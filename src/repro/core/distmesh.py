"""Distributed block mesh: AGAS-sharded sub-grids with parcelport halos.

The node-level :class:`~repro.core.mesh.BlockMesh` keeps its blocks as
views of one ghosted box — all of them share one address space, so a
block's ghost layers simply *are* its neighbours' interiors and no halo
ever moves.  :class:`DistBlockMesh` is the sharded case, and the only
user of per-block halos: each block is an array of its own (a killed
locality's memory can be clobbered without touching a survivor's) and
an AGAS-registered :class:`~repro.runtime.agas.Component` homed on one
of ``n_localities`` simulated localities.  AGAS's home table is the one
record of which locality owns which block: the mesh keeps no copy of it
and is never told of a move.  Its ghost fill is frozen once in a
:class:`_FillPlan` (one copy entry per block and neighbour direction —
the periodic image across a seam is one more neighbour — and the domain
walls), and the route of every halo is decided from the homes of its
two blocks — once per *AGAS generation*, frozen in a
:class:`_RoutePlan`:

* a **same-locality** pair is a direct slab copy, tallied by the
  :class:`~repro.network.transport.HaloTransport` (Octo-Tiger's
  local-communication optimisation: no channel, no charge);
* the **cross-locality** pairs of one directed (source locality,
  destination locality) travel together, HPX-style one parcel per
  destination locality: every slab of the route is packed into one
  contiguous payload at its planned offset, the payload is one send
  through the transport — one charge to the parcelport cost model
  (eager vs rendezvous vs RMA by ``EAGER_BYTES``), one delivery that may
  arrive out of order — into the route's generation-matched channel
  (the paper's Sec. 5.2 protocol, per locality pair instead of per
  neighbour direction per sub-grid), and the receiver unpacks it by the
  same plan; generation matching is what keeps the physics
  byte-identical under any delivery order.

The two routes write the same bytes into the same ghost cells (Sec. 4.1:
"semantic and syntactic equivalence of local and remote operations" — of
the results, not of the road taken).  The right-hand side runs per block
too: balanced aggregation chunks of at most ``agg_slots`` blocks, one
batched ``compute_rhs`` task each.

Contracts this class maintains (asserted by the distributed tests):

* a distributed step is **byte-identical** to the node-level
  ``BlockMesh`` step (the box path) on the same initial data, for any
  partition, any parcelport, and any delivery order;
* killing a locality (the phi-accrual detector calls
  ``agas.fail_locality``) evacuates its block components through AGAS —
  the blocks' GIDs stay valid, their homes move, the AGAS generation goes
  up, and the next exchange rebuilds the route plan: subsequent halo
  traffic takes (and is charged along) the new local/remote split by
  itself;
* every cross-locality halo byte is charged to the parcelport and every
  same-locality one tallied: the ``/distmesh/*`` and
  ``/parcels/halo:<port>/*`` counters reconcile exactly (halo sets ==
  halo gets; transport tallies == port tallies; remote messages ==
  routes, remote + local bytes == the ``_FillPlan``'s).

Direct ``Channel.set`` calls, block-to-block ghost writes in a function
that books nothing with the transport, payloads packed but never handed
to ``transport.send`` and unpacks outside the function that drains the
route's future are banned here by lint rule REPRO007 — the accounting
above cannot silently rot.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from ..network.transport import HaloTransport
from ..runtime.aggregate import DEFAULT_AGG_SLOTS
from ..runtime.agas import AgasRuntime, Component, Gid
from ..runtime.channel import Channel
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .grid import NF, NGHOST
from .mesh import BlockMesh, fill_wall, min_cfl_dt

__all__ = ["DistBlockMesh", "slab_partition"]


def slab_partition(index: int, n_blocks: int, n_localities: int) -> int:
    """Contiguous slabs of the block index space (the default layout)."""
    return index * n_localities // n_blocks


def _balanced_chunks(keys: list, slots: int) -> list[list]:
    """``keys`` cut into ``ceil(len / slots)`` near-equal runs (sizes
    differ by at most one).  Every :func:`compute_rhs` call carries ~1.6 ms
    of fixed ufunc dispatch whatever its batch, so 27 sub-grids run as
    14 + 13, never as 16 + 11 or 8 + 8 + 8 + 3.  Without an engine the
    engine's default slot count applies."""
    n_chunks = -(-len(keys) // slots)
    base, extra = divmod(len(keys), n_chunks)
    bounds = [i * base + min(i, extra) for i in range(n_chunks + 1)]
    return [keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class _FillPlan(NamedTuple):
    """The frozen ghost fill of a :class:`DistBlockMesh`.  ``pairs``
    holds ``(dst block, ghost slab, src block, interior-layer slab,
    nbytes)`` copy entries, one per block and neighbour direction — the
    periodic image across a seam included; ``walls`` holds ``(block,
    axis, side)`` domain faces for :func:`~repro.core.mesh.fill_wall`."""

    pairs: tuple
    walls: tuple


class _Route(NamedTuple):
    """The halos of one directed locality pair, one parcel per stage.
    ``slabs`` holds ``(dst block, ghost slab, src block, interior-layer
    slab, lo, hi, shape)``: a ``_FillPlan`` pair entry plus the
    ``payload[lo:hi]`` elements (of ``size``) that carry it."""

    src: int
    dst: int
    channel: Channel
    slabs: tuple
    size: int


class _RoutePlan(NamedTuple):
    """The ``_FillPlan`` pairs split by the block homes of one AGAS
    generation: ``local`` entries are direct copies (``local_bytes`` in
    all), every other pair sits in the :class:`_Route` of its locality
    pair."""

    generation: int
    local: tuple
    local_bytes: int
    routes: tuple


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
        ``partition(index, n_blocks, n_localities) -> locality`` over the
        sorted block index; default :func:`slab_partition`.

    Storage, fill, RHS and CFL are per block here, where the node-level
    mesh works on its box: every block is a separate ghosted array, its
    shell is filled along the frozen fill and route plans, its RHS runs
    in a batched chunk of blocks and the CFL reduction visits it alone.
    """

    def __init__(self, blocks, *, n_localities: int = 2,
                 port: str = "libfabric",
                 reorder_seed: int | None = None,
                 partition: Callable[[int, int, int], int] | None = None,
                 registry: CounterRegistry | None = None,
                 **mesh_kwargs):
        super().__init__(blocks, **mesh_kwargs)
        self._fill_plan = self._build_fill_plan()
        self.registry = registry or default_registry()
        self.agas = AgasRuntime(n_localities, registry=self.registry)
        self.n_localities = n_localities
        self.transport = HaloTransport(port, reorder_seed=reorder_seed)
        partition = partition or slab_partition
        ips = sorted(self.blocks)
        self.gids: dict[tuple[int, int, int], Gid] = {}
        for index, ip in enumerate(ips):
            loc = partition(index, len(ips), self.n_localities)
            if not 0 <= loc < self.n_localities:
                raise ValueError(
                    f"partition put block {ip} on locality {loc}, outside "
                    f"[0, {self.n_localities})")
            self.gids[ip] = self.agas.register(Component(), loc)
        #: (src locality, dst locality) -> channel of that route; exactly
        #: the routes of the current plan
        self.channels: dict[tuple[int, int], Channel] = {}
        self._route_plan: _RoutePlan | None = None

    # -- ownership ------------------------------------------------------------

    def _homes(self) -> tuple[int, dict[tuple[int, int, int], int]]:
        """One AGAS read: the home-table generation and every block's
        home (a lost block's is the locality it died with)."""
        generation, homes = self.agas.homes(list(self.gids.values()))
        return generation, dict(zip(self.gids, homes))

    def owners(self) -> dict[tuple[int, int, int], int]:
        """Current block -> locality map, as AGAS records it."""
        return self._homes()[1]

    def locality_blocks(self) -> dict[int, int]:
        """Blocks hosted per locality (every locality listed, even empty)."""
        counts = {loc: 0 for loc in range(self.n_localities)}
        for loc in self.owners().values():
            counts[loc] += 1
        return counts

    @property
    def lost_blocks(self) -> set[tuple[int, int, int]]:
        """Blocks whose only live copy died with a failed locality: AGAS
        lost their GID in ``agas.fail_locality`` (a correlated multi-node
        loss that outran evacuation) and homes it on the dead locality
        until :meth:`apply_ownership` restores it.  A live GID is never
        homed on a failed locality."""
        dead = self.agas.failed_localities
        return {ip for ip, loc in self.owners().items() if loc in dead}

    def apply_ownership(self, new_owner: dict[tuple[int, int, int], int]
                        ) -> dict[str, int]:
        """Remap block ownership for an elastic restart.

        ``new_owner`` maps every block to its post-recovery locality
        (typically ``slab_partition`` re-evaluated over the surviving
        locality count).  Blocks whose components are still live are
        migrated through AGAS as usual; blocks whose GIDs were *lost* with
        their node are resurrected via
        :meth:`~repro.runtime.agas.AgasRuntime.restore_component` — the
        same GID, a fresh :class:`~repro.runtime.agas.Component`, a
        surviving home.  The block *data* is the recovery coordinator's
        problem (it restores payloads from the replicated store); this
        method only fixes the name service the halo routes are read from.
        """
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

    # -- per-block storage and the frozen fill plan ---------------------------

    def _allocate(self) -> dict:
        """One ghosted array per block: a dead locality's blocks can be
        clobbered without touching a survivor's interior, and every halo
        is a copy the transport books."""
        dims = (NF,) + tuple(s + 2 * NGHOST for s in self.tile)
        return {ip: np.zeros(dims) for ip in np.ndindex(*self.lattice)}

    def _predictors(self) -> dict:
        """One uninitialised predictor array per block."""
        return {ip: np.empty_like(blk) for ip, blk in self.blocks.items()}

    def _build_fill_plan(self) -> _FillPlan:
        """Freeze the ghost fill.  The topology is fixed, so every slice
        is derived once: one copy ``pair`` per (source block, offset) of
        the 26 directions whose destination is a block — under periodic
        boundaries the destination is wrapped coordinate-wise (faces,
        edges *and* corners; a one-block mesh wraps onto itself), so
        every block gets all 26 — and, for the other boundary conditions,
        one wall entry per block face on the domain boundary.  Pairs are
        listed source-major, the order a sender publishes in."""
        g = NGHOST
        offsets = [o for o in itertools.product((-1, 0, 1), repeat=3)
                   if o != (0, 0, 0)]

        def slabs(pick):
            """``{offset: slab}``; ``pick(s)`` gives the low / middle /
            high slices along an axis whose tile edge is ``s``."""
            axes = [pick(s) for s in self.tile]
            return {off: (slice(None),) + tuple(
                axes[d][o + 1] for d, o in enumerate(off)) for off in offsets}

        # the interior layer a block shows its neighbour at ``off`` and
        # the ghost slab that receives what the neighbour at ``off`` shows
        layer = slabs(lambda s: (slice(g, 2 * g), slice(g, g + s),
                                 slice(s, g + s)))
        ghost = slabs(lambda s: (slice(0, g), slice(g, g + s),
                                 slice(g + s, 2 * g + s)))
        nbytes = {off: self.blocks[0, 0, 0][layer[off]].nbytes
                  for off in offsets}
        periodic = self.bc == "periodic"
        pairs, walls = [], []
        for ip in self.blocks:
            for off in offsets:
                nb = tuple(c + o for c, o in zip(ip, off))
                if periodic:
                    nb = tuple(c % b for c, b in zip(nb, self.lattice))
                if nb in self.blocks:
                    pairs.append((nb, ghost[tuple(-o for o in off)], ip,
                                  layer[off], nbytes[off]))
            if not periodic:
                walls.extend((ip, axis, side) for axis in range(3)
                             for side in (-1, 1)
                             if not 0 <= ip[axis] + side < self.lattice[axis])
        return _FillPlan(tuple(pairs), tuple(walls))

    @staticmethod
    def _copy_halos(blocks: dict, halos) -> None:
        """``dst[ghost] = src[layer]`` for every entry: a strided copy
        straight out of the source block's interior.  The caller books
        the copies with the transport (lint rule REPRO007)."""
        sanitize = _sanitize_state.ACTIVE
        for dst, ghost, src, layer, _ in halos:
            if sanitize:
                _racecheck.access(blocks[src], "r", owner="halo/src-block")
                _racecheck.access(blocks[dst], "w", owner="halo/dst-block")
            blocks[dst][ghost] = blocks[src][layer]

    def _fill_walls(self, blocks: dict) -> None:
        """Domain walls, after the copies: a wall slab spans the
        transverse ghosts the neighbours just filled."""
        for ip, axis, side in self._fill_plan.walls:
            fill_wall(blocks[ip], axis, side, self.bc)

    # -- halo exchange --------------------------------------------------------

    def _routes(self) -> _RoutePlan:
        """The route plan of the current AGAS generation, rebuilt when
        the home table changed since it was frozen.  The generation and
        the homes come from one AGAS read, so a move after it shows as a
        newer generation at the next exchange.  Routes that no longer
        exist — their pairs went local, or their locality died and its
        blocks were re-homed — take their channels with them."""
        generation, owner = self._homes()
        plan = self._route_plan
        if plan is not None and plan.generation == generation:
            return plan
        local, by_route = [], {}
        for halo in self._fill_plan.pairs:
            dst, _, src, _, _ = halo
            if owner[dst] == owner[src]:
                local.append(halo)
            else:
                by_route.setdefault((owner[src], owner[dst]), []).append(halo)
        self.channels = {
            pair: self.channels.get(pair) or Channel(
                name=f"loc{pair[0]}->loc{pair[1]}") for pair in by_route}
        routes = []
        for pair, halos in by_route.items():
            slabs, lo = [], 0
            for dst, ghost, src, layer, _ in halos:
                slab = self.blocks[src][layer]
                slabs.append((dst, ghost, src, layer, lo, lo + slab.size,
                              slab.shape))
                lo += slab.size
            routes.append(_Route(*pair, self.channels[pair], tuple(slabs),
                                 lo))
        plan = self._route_plan = _RoutePlan(
            generation, tuple(local), sum(nbytes for *_, nbytes in local),
            tuple(routes))
        self.registry.increment("/distmesh/plan-rebuilds")
        return plan

    def _halo_exchange(self, blocks: dict, generation: int) -> None:
        """One stage of halos along the frozen route plan.

        One receive is posted per route, then every route packs its
        slabs into one payload and makes one send (charged by the
        transport), buffered deliveries are flushed in the transport's
        possibly shuffled order, the same-locality pairs are copied
        directly and tallied, and one future per route is drained and
        unpacked into the ghost slabs; the domain walls come last.  Same
        data into the same cells as the node-level fill: bitwise identity
        is untouched.
        """
        plan = self._routes()
        n_halos = len(self._fill_plan.pairs)
        transport = self.transport
        sanitize = _sanitize_state.ACTIVE
        pending = [route.channel.get(generation) for route in plan.routes]
        for route in plan.routes:
            if sanitize:
                for src in {src for _, _, src, *_ in route.slabs}:
                    _racecheck.access(blocks[src], "r",
                                      owner="halo/src-block")
            payload = np.empty(route.size)
            for _, _, src, layer, lo, hi, shape in route.slabs:
                payload[lo:hi].reshape(shape)[...] = blocks[src][layer]
            transport.send(route.channel, payload, generation, route.src,
                           route.dst)
        transport.flush()
        self._copy_halos(blocks, plan.local)
        transport.tally_local(len(plan.local), plan.local_bytes)
        self.registry.increment("/distmesh/halo/sets", n_halos)
        for route, fut in zip(plan.routes, pending):
            payload = fut.get()
            if sanitize:
                _racecheck.access(payload, "r", owner="halo/payload")
                for dst in {dst for dst, *_ in route.slabs}:
                    _racecheck.access(blocks[dst], "w",
                                      owner="halo/dst-block")
            for dst, ghost, _, _, lo, hi, shape in route.slabs:
                blocks[dst][ghost] = payload[lo:hi].reshape(shape)
        self.registry.increment("/distmesh/halo/gets", n_halos)
        self._fill_walls(blocks)

    # -- per-block stepping ---------------------------------------------------

    def _fill(self, blocks: dict, stage: int) -> None:
        # one halo generation per RK stage of every step
        self._halo_exchange(blocks, 2 * self.steps + stage)

    def compute_dt(self) -> float:
        """CFL reduction over the blocks one by one."""
        return min_cfl_dt(((blk, self.dx) for blk in self.blocks.values()),
                          self.options, ws=self._ws)

    def _rhs(self, blocks: dict, acc: np.ndarray | None, stage: int) -> dict:
        """Batched :func:`~repro.core.hydro.solver.compute_rhs` per block:
        the blocks are cut into balanced chunks of at most
        ``engine.agg_slots`` (:data:`DEFAULT_AGG_SLOTS` without an
        engine) and every chunk is one call — run in turn on the calling
        thread, or each posted as one engine task.  ``k[key]`` are views
        of the per-chunk ``(NF, b, *tile)`` outputs; each stage owns its
        own, allocated once (again if the chunking changes)."""
        engine = self.engine
        chunks = _balanced_chunks(
            list(blocks), engine.agg_slots if engine is not None
            else DEFAULT_AGG_SLOTS)
        outs = self._rhs_out.get(stage)
        if outs is None or [o.shape[1] for o in outs] != [
                len(chunk) for chunk in chunks]:
            outs = self._rhs_out[stage] = [
                np.empty((NF, len(chunk)) + self.tile) for chunk in chunks]
        calls = []
        for chunk, out in zip(chunks, outs):
            windows = [self._window(ip) for ip in chunk]
            chunk_acc = None if acc is None else [acc[w] for w in windows]
            centers = [tuple(c[sl] for c, sl in zip(self._centers, w[1:]))
                       for w in windows]
            calls.append(([blocks[ip] for ip in chunk], self.dx,
                          self.options, chunk_acc, False, out, self._ws,
                          centers))
        self._run_rhs(calls)
        return {ip: out[:, b] for chunk, out in zip(chunks, outs)
                for b, ip in enumerate(chunk)}

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
