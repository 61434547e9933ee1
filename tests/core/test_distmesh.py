"""DistBlockMesh: AGAS-sharded blocks, parcelport halos, bitwise physics.

The distribution contract: a distributed step is byte-identical to the
node-level ``BlockMesh`` step for any partition, parcelport and delivery
order; block components migrate through AGAS, whose home table is the
only record of ownership; every cross-locality halo — periodic images
included — travels a route and the counters reconcile exactly.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NF, SUBGRID_N, BlockMesh, DistBlockMesh, IdealGas
from repro.core.distmesh import slab_partition
from repro.core.hydro.solver import HydroOptions, compute_rhs
from repro.core.mesh import apply_boundary
from repro.runtime.counters import CounterRegistry


def _initial_data(rng, n):
    full = np.zeros((NF, n, n, n))
    full[0] = 1.0 + 0.2 * rng.random((n, n, n))
    full[1:4] = 0.1 * rng.standard_normal((3, n, n, n))
    full[4] = 1.5 + 0.2 * rng.random((n, n, n))
    full[5] = 0.5 * full[4]
    return full


def _pair(rng, bc="outflow", n_localities=3, reorder_seed=42, bpe=2,
          registry=None, **kwargs):
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    ref = BlockMesh(bpe, domain=1.0, options=opts, bc=bc, **kwargs)
    dist = DistBlockMesh(bpe, n_localities=n_localities, port="mpi",
                         reorder_seed=reorder_seed,
                         registry=registry or CounterRegistry(),
                         domain=1.0, options=opts, bc=bc, **kwargs)
    full = _initial_data(rng, bpe * SUBGRID_N)
    ref.load_interior(full)
    dist.load_interior(full)
    return ref, dist


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("bc", ["outflow", "periodic", "reflect"])
    def test_matches_node_level_blockmesh(self, rng, bc):
        ref, dist = _pair(rng, bc=bc)
        for _ in range(3):
            assert ref.step() == dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())

    def test_delivery_order_does_not_matter(self, rng):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        full = _initial_data(rng, 2 * SUBGRID_N)
        states = []
        for seed in (None, 1, 2, 31337):
            dist = DistBlockMesh(2, n_localities=4, port="libfabric",
                                 reorder_seed=seed,
                                 registry=CounterRegistry(),
                                 domain=1.0, options=opts, bc="periodic")
            dist.load_interior(full)
            for _ in range(2):
                dist.step()
            states.append(dist.gather_interior())
        for other in states[1:]:
            np.testing.assert_array_equal(states[0], other)

    def test_single_locality_degenerates_to_node_level(self, rng):
        ref, dist = _pair(rng, n_localities=1, reorder_seed=None)
        for _ in range(2):
            ref.step()
            dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert dist.transport.stats.remote_msgs == 0
        assert dist.transport.stats.local_msgs > 0

    @pytest.mark.parametrize("n_localities", [1, 2, 3])
    def test_periodic_images_travel_the_routes(self, rng, n_localities):
        """A periodic image is an ordinary neighbour: it is a direct copy
        or a slab of its locality pair's payload, never a one-sided
        charge, and the state is the node-level one to the byte."""
        ref, dist = _pair(rng, bc="periodic", n_localities=n_localities,
                          reorder_seed=11)
        for _ in range(3):
            assert ref.step() == dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        st = dist.transport.stats
        assert st.onesided_msgs == 0
        assert st.local_bytes + st.remote_bytes == 2 * dist.steps * sum(
            nbytes for *_, nbytes in dist._fill_plan.pairs)
        assert dist.transport.reconciles()

    def test_self_gravity_distributed(self, rng):
        ref, dist = _pair(rng, n_localities=4, self_gravity=True)
        for _ in range(2):
            assert ref.step() == dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())


_STEPS = 2


@pytest.fixture(scope="module")
def node_level():
    """Per boundary condition: the initial data and the state ``_STEPS``
    steps later — stepped on a 2^3-block ``BlockMesh`` and on the
    one-block tiling of the same box, which must already agree."""
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    n = 2 * SUBGRID_N
    full = _initial_data(np.random.default_rng(0xBEEF), n)
    runs = {}
    for bc in ("outflow", "reflect", "periodic"):
        single = BlockMesh(1, n=n, domain=1.0, options=opts, bc=bc)
        single.interior[...] = full
        blocks = BlockMesh(2, domain=1.0, options=opts, bc=bc)
        blocks.load_interior(full)
        dts = [blocks.step() for _ in range(_STEPS)]
        assert [single.step() for _ in range(_STEPS)] == dts
        np.testing.assert_array_equal(blocks.gather_interior(),
                                      single.interior)
        runs[bc] = (opts, full, dts, single.interior.copy())
    return runs


class TestAnyRouteSplit:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(owners=st.lists(st.integers(0, 3), min_size=8, max_size=8),
           reorder_seed=st.one_of(st.none(), st.integers(0, 2 ** 16)),
           bc=st.sampled_from(["outflow", "reflect", "periodic"]))
    def test_any_partition_and_delivery_order_is_byte_identical(
            self, node_level, owners, reorder_seed, bc):
        """Whatever mix of direct copies and route parcels a partition
        produces, and in whatever order the parcels arrive, the step is
        the node-level one — every halo byte is counted on exactly one
        route and every directed locality pair sends one message a
        stage."""
        opts, full, dts, expected = node_level[bc]
        reg = CounterRegistry()
        dist = DistBlockMesh(2, n_localities=4, port="libfabric",
                             reorder_seed=reorder_seed, registry=reg,
                             partition=lambda i, n, k: owners[i],
                             domain=1.0, options=opts, bc=bc)
        dist.load_interior(full)
        assert [dist.step() for _ in range(_STEPS)] == dts
        np.testing.assert_array_equal(dist.gather_interior(), expected)
        pairs = dist._fill_plan.pairs
        where = dist.owners()
        n_local = sum(where[dst] == where[src]
                      for dst, _, src, _, _ in pairs)
        routes = {(where[src], where[dst]) for dst, _, src, _, _ in pairs
                  if where[dst] != where[src]}
        stats = dist.transport.stats
        stages = 2 * _STEPS
        assert stats.local_msgs == n_local * stages
        assert stats.remote_msgs == len(routes) * stages
        assert stats.local_bytes == stages * sum(
            nbytes for dst, _, src, _, nbytes in pairs
            if where[dst] == where[src])
        assert stats.local_bytes + stats.remote_bytes == stages * sum(
            nbytes for *_, nbytes in pairs)
        assert set(dist.channels) == routes
        snap = reg.snapshot()
        assert snap["/distmesh/plan-rebuilds"] == 1
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"] \
            == len(pairs) * stages
        assert dist.transport.reconciles()


_EVENT_STEPS = 4


@pytest.fixture(scope="module")
def periodic_reference():
    """Initial data and the node-level ``(dt, state)`` after each of
    ``_EVENT_STEPS`` periodic steps."""
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    full = _initial_data(np.random.default_rng(0xCAFE), 2 * SUBGRID_N)
    ref = BlockMesh(2, domain=1.0, options=opts, bc="periodic")
    ref.load_interior(full)
    after = [(ref.step(), ref.gather_interior()) for _ in range(_EVENT_STEPS)]
    return opts, full, after


_EVENTS = st.lists(st.one_of(
    st.tuples(st.just("migrate"), st.integers(0, 7), st.integers(0, 3)),
    st.tuples(st.just("evacuate"), st.integers(0, 3)),
    st.tuples(st.just("lose"), st.integers(0, 3)),
    st.tuples(st.just("remap"))), min_size=1, max_size=_EVENT_STEPS)


class TestOwnershipEvents:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(events=_EVENTS, reorder_seed=st.integers(0, 2 ** 16))
    def test_any_ownership_history_is_byte_identical(
            self, periodic_reference, events, reorder_seed):
        """Between steps: migrate one block, evacuate a locality, lose
        one and re-home its blocks over the survivors, or remap to the
        same owners.  The mesh reads every placement from AGAS, so after
        each event its owners are AGAS's homes, the route plan is rebuilt
        exactly when an exchange sees a new generation, the state is the
        node-level one to the byte and the counters reconcile."""
        opts, full, after = periodic_reference
        reg = CounterRegistry()
        dist = DistBlockMesh(2, n_localities=4, port="libfabric",
                             reorder_seed=reorder_seed, registry=reg,
                             domain=1.0, options=opts, bc="periodic")
        dist.load_interior(full)
        ips = sorted(dist.blocks)
        agas, seen, rebuilds = dist.agas, None, 0
        for step, event in enumerate(events):
            alive = [loc for loc in range(dist.n_localities)
                     if loc not in agas.failed_localities]
            kind = event[0]
            if kind == "migrate":
                agas.migrate(dist.gids[ips[event[1]]],
                             alive[event[2] % len(alive)])
            elif kind in ("evacuate", "lose") and len(alive) > 1:
                victim = alive[event[1] % len(alive)]
                doomed = {ip for ip, loc in dist.owners().items()
                          if loc == victim}
                agas.fail_locality(victim, evacuate=kind == "evacuate")
                if kind == "lose":
                    assert dist.lost_blocks == doomed
                    survivors = [loc for loc in alive if loc != victim]
                    moves = dist.apply_ownership({
                        ip: survivors[slab_partition(i, len(ips),
                                                     len(survivors))]
                        for i, ip in enumerate(ips)})
                    assert moves["restored"] == len(doomed)
                assert dist.lost_blocks == set()
            elif kind == "remap":
                assert dist.apply_ownership(dist.owners()) == {
                    "migrated": 0, "restored": 0}
            generation = agas.homes([])[0]
            rebuilds += generation != seen
            seen = generation
            stats = dist.transport.stats
            sent = stats.local_msgs, stats.remote_msgs
            dt, state = after[step]
            assert dist.step() == dt
            np.testing.assert_array_equal(dist.gather_interior(), state)
            where = dist.owners()
            assert where == {
                ip: agas.resolve(gid)[1] for ip, gid in dist.gids.items()}
            # both stages took the routes these homes call for
            pairs = [(src, dst) for dst, _, src, _, _ in dist._fill_plan.pairs]
            routes = {(where[a], where[b]) for a, b in pairs
                      if where[a] != where[b]}
            assert stats.local_msgs - sent[0] == 2 * sum(
                where[a] == where[b] for a, b in pairs)
            assert stats.remote_msgs - sent[1] == 2 * len(routes)
            assert reg.snapshot()["/distmesh/plan-rebuilds"] == rebuilds
            assert dist.transport.reconciles()
        assert dist.transport.stats.onesided_msgs == 0


class TestOwnership:
    def test_slab_partition_covers_all_localities(self):
        locs = [slab_partition(i, 8, 3) for i in range(8)]
        assert locs == sorted(locs)
        assert set(locs) == {0, 1, 2}

    def test_blocks_registered_and_counted(self):
        reg = CounterRegistry()
        dist = DistBlockMesh(2, n_localities=3, registry=reg)
        assert len(dist.gids) == 8
        counts = dist.locality_blocks()
        assert sum(counts.values()) == 8
        assert set(counts) == {0, 1, 2}
        for ip, gid in dist.gids.items():
            assert dist.agas.resolve(gid)[1] == dist.owners()[ip]

    def test_partition_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            DistBlockMesh(2, n_localities=2, registry=CounterRegistry(),
                          partition=lambda i, n, k: 5)

    def test_migration_updates_owner_and_counters(self, rng):
        """Ownership lives in AGAS alone: a move made behind the mesh's
        back shows in ``owners()`` and reroutes the next exchange."""
        reg = CounterRegistry()
        ref, dist = _pair(rng, registry=reg)
        ref.step()
        dist.step()
        ip = next(iter(dist.blocks))
        old = dist.owners()[ip]
        new = (old + 1) % dist.n_localities
        generation = dist.agas.homes([])[0]
        dist.agas.migrate(dist.gids[ip], new)
        assert dist.owners()[ip] == new
        assert dist.agas.homes([])[0] > generation
        assert reg.snapshot()["/resilience/agas/components-migrated"] == 1
        # physics is unaffected by where blocks live
        for _ in range(2):
            ref.step()
            dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert reg.snapshot()["/distmesh/plan-rebuilds"] == 2
        assert dist._route_plan.generation == dist.agas.homes([])[0]

    def test_fail_locality_evacuates_and_physics_survives(self, rng):
        reg = CounterRegistry()
        ref, dist = _pair(rng, registry=reg)
        victim = 0
        doomed = [ip for ip, loc in dist.owners().items() if loc == victim]
        assert doomed
        result = dist.agas.fail_locality(victim)
        assert len(result["migrated"]) == len(doomed)
        assert not result["lost"]
        owners = dist.owners()
        assert all(owners[ip] != victim for ip in doomed)
        assert dist.locality_blocks()[victim] == 0
        for _ in range(2):
            ref.step()
            dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert reg.snapshot()["/resilience/agas/localities-failed"] == 1


    def test_ownership_flips_switch_routes_mid_run(self, rng):
        """Evacuation makes remote pairs local, an ownership remap makes
        some of them remote again: the route plan is rebuilt once per
        AGAS generation (never in a steady run), a route that no longer
        exists takes its channel with it, nothing is left posted on the
        ones that remain, and neither the counters nor the physics
        notice."""
        reg = CounterRegistry()
        ref, dist = _pair(rng, registry=reg)
        pairs = [(src, dst) for dst, _, src, _, _ in dist._fill_plan.pairs]
        expected = {"local": 0, "remote": 0}

        def remote_pairs():
            where = dist.owners()
            return {p for p in pairs if where[p[0]] != where[p[1]]}

        def routes():
            where = dist.owners()
            return {(where[src], where[dst]) for src, dst in remote_pairs()}

        def step(rebuilds):
            assert ref.step() == dist.step()
            np.testing.assert_array_equal(dist.gather_interior(),
                                          ref.gather_interior())
            assert set(dist.channels) == routes()
            for ch in dist.channels.values():
                assert not ch._promises          # no get left pending
                assert not ch._ready             # no value left buffered
            expected["remote"] += 2 * len(routes())
            expected["local"] += 2 * (len(pairs) - len(remote_pairs()))
            stats = dist.transport.stats
            assert stats.local_msgs == expected["local"]
            assert stats.remote_msgs == expected["remote"]
            assert reg.snapshot()["/distmesh/plan-rebuilds"] == rebuilds

        start, start_routes = remote_pairs(), routes()
        step(rebuilds=1)
        step(rebuilds=1)                          # steady: plan stays frozen
        dist.agas.fail_locality(0, evacuate=True)   # many blocks, one read
        went_local = start - remote_pairs()
        assert went_local
        assert start_routes - routes()            # the dead locality's routes
        step(rebuilds=2)
        ips = sorted(dist.blocks)
        dist.apply_ownership({ip: 1 + i % 2 for i, ip in enumerate(ips)})
        assert went_local & remote_pairs()        # ... and back
        step(rebuilds=3)
        step(rebuilds=3)
        snap = reg.snapshot()
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"] \
            == len(pairs) * 2 * dist.steps
        assert dist.transport.reconciles()


class TestCounters:
    def test_sets_equal_gets_and_transport_reconciles(self, rng):
        reg = CounterRegistry()
        _ref, dist = _pair(rng, bc="periodic", registry=reg)
        for _ in range(3):
            dist.step()
        snap = reg.snapshot()
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"]
        assert snap["/distmesh/halo/sets"] > 0
        assert dist.transport.reconciles()
        st = dist.transport.stats
        # every halo went one way or the other, none both
        pairs = dist._fill_plan.pairs
        stages = 2 * dist.steps
        assert snap["/distmesh/halo/sets"] == len(pairs) * stages
        assert st.local_bytes + st.remote_bytes == stages * sum(
            nbytes for *_, nbytes in pairs)
        assert st.remote_msgs == len(dist.channels) * stages
        # periodic images crossed localities along the routes: nothing
        # was charged one-sided
        assert st.onesided_msgs == 0

    def test_publish_counters_gauges(self, rng):
        reg = CounterRegistry()
        _ref, dist = _pair(rng, registry=reg)
        dist.step()
        dist.publish_counters()
        snap = reg.snapshot()
        assert snap["/distmesh/localities"] == 3
        total = sum(snap[f"/distmesh/blocks/loc{i}"] for i in range(3))
        assert total == 8
        assert snap["/distmesh/halo/remote-msgs"] == \
            dist.transport.stats.remote_msgs
        assert any(k.startswith("/parcels/halo:mpi/") for k in snap)

    def test_restore_resets_channels_and_pending(self, rng):
        """Checkpoint rollback: replayed generations are accepted and the
        replayed trajectory matches the uninterrupted one bit for bit."""
        from repro.resilience.checkpoint import CheckpointManager

        ref, dist = _pair(rng)
        manager = CheckpointManager(interval=1, registry=CounterRegistry())
        ref.step()
        dist.step()
        manager.save(dist)
        dist.step()                    # the step about to be discarded
        # ... which took both routes: direct copies and channel halos
        stats = dist.transport.stats
        assert stats.local_msgs > 0 and stats.remote_msgs > 0
        consumed = [ch for ch in dist.channels.values()
                    if ch._consumed_floor > 0]
        assert consumed
        manager.restore_latest(dist)   # back to step 1, channels reset
        assert not any(ch._consumed_floor for ch in consumed)
        dist.step()                    # replay must re-use the generations
        ref.step()
        assert ref.steps == dist.steps == 2
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert dist.transport.reconciles()

    def test_kill_while_a_route_payload_is_pending(self, rng):
        """A stage dies between the sends and the flush: every route's
        coalesced payload sits in the reorder buffer and every route's
        receive is posted.  The rollback drops both, and the replay is
        byte-identical."""
        from repro.resilience.checkpoint import CheckpointManager
        from repro.runtime.channel import ChannelReset

        ref, dist = _pair(rng, reorder_seed=9)
        manager = CheckpointManager(interval=1, registry=CounterRegistry())
        ref.step()
        dist.step()
        manager.save(dist)
        transport = dist.transport
        flush, calls = transport.flush, []

        def dying_flush():
            calls.append(len(transport._pending))
            raise RuntimeError("locality died mid-stage")

        transport.flush = dying_flush
        with pytest.raises(RuntimeError, match="mid-stage"):
            dist.step()
        transport.flush = flush
        assert calls == [len(dist.channels)] and calls[0] > 0
        posted = [ch.get(2 * dist.steps) for ch in dist.channels.values()]
        manager.restore_latest(dist)   # on_restore: reset + discard_pending
        assert transport._pending == []
        for fut in posted:
            with pytest.raises(ChannelReset):
                fut.get(timeout=1.0)
        for ch in dist.channels.values():
            assert not ch._promises          # no get left pending
            assert not ch._ready             # no value left buffered
        for _ in range(2):
            ref.step()
            dist.step()
        assert ref.steps == dist.steps == 3
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert transport.reconciles()


class TestRaceDeclarations:
    def test_direct_copy_into_a_block_an_rhs_task_reads_is_reported(
            self, san):
        """Planted race: the direct route writes a neighbour's layer into
        a block's ghost shell while an un-awaited RHS task still reads
        that block.  The channel route had a future to order the two; the
        direct copy has only its access declarations."""
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        dist = DistBlockMesh(2, n_localities=1, registry=CounterRegistry(),
                             domain=1.0, options=opts)
        dist.load_interior(_initial_data(np.random.default_rng(3),
                                         2 * SUBGRID_N))
        for blk in dist.blocks.values():
            apply_boundary(blk, "outflow")      # valid ghosts, undeclared
        victim = dist.blocks[0, 0, 0]
        task = threading.Thread(
            target=compute_rhs, args=(victim, dist.dx, opts),
            name="rhs-task")
        with san.scope() as caught:
            task.start()
            task.join()     # serialized in time; NOT a happens-before edge
            # BUG: the task's future was never awaited before the refill
            dist._halo_exchange(dist.blocks, 0)
        assert [f.kind for f in caught] == ["data-race"]
        f = caught[0]
        assert f.details["buffer"] == "halo/dst-block"
        assert "write" in f.details["current_access"]
        assert "read" in f.details["prior_access"]
        assert "rhs-task" in f.details["prior_access"]
