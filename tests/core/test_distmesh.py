"""DistBlockMesh: AGAS-sharded blocks in per-locality boxes, parcelport
halos, bitwise physics.

The distribution contract: a distributed step is byte-identical to the
node-level ``BlockMesh`` step for any owner map, parcelport and delivery
order; block components migrate through AGAS, whose home table is the
only record of ownership, and the storage follows it (one ghosted box
per locality under the default partition); every cross-locality halo —
periodic images included — travels a route and the counters reconcile
exactly.
"""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (NF, NGHOST, SUBGRID_N, BlockMesh, DistBlockMesh,
                        IdealGas)
from repro.core.distmesh import box_partition
from repro.core.mesh import _box_cover
from repro.core.hydro.solver import HydroOptions, compute_rhs
from repro.runtime.agas import Component
from repro.runtime.counters import CounterRegistry
from repro.validation.reference import apply_boundary

#: the 26 neighbour directions of a block
OFFSETS = [o for o in itertools.product((-1, 0, 1), repeat=3)
           if o != (0, 0, 0)]


def _initial_data(rng, n):
    full = np.zeros((NF, n, n, n))
    full[0] = 1.0 + 0.2 * rng.random((n, n, n))
    full[1:4] = 0.1 * rng.standard_normal((3, n, n, n))
    full[4] = 1.5 + 0.2 * rng.random((n, n, n))
    full[5] = 0.5 * full[4]
    return full


def _pair(rng, bc="outflow", n_localities=3, reorder_seed=42, bpe=2,
          registry=None, partition=None, **kwargs):
    opts = HydroOptions(eos=IdealGas(gamma=1.4))
    ref = BlockMesh(bpe, domain=1.0, options=opts, bc=bc, **kwargs)
    dist = DistBlockMesh(bpe, n_localities=n_localities, port="mpi",
                         reorder_seed=reorder_seed,
                         registry=registry or CounterRegistry(),
                         partition=partition,
                         domain=1.0, options=opts, bc=bc, **kwargs)
    full = _initial_data(rng, bpe * SUBGRID_N)
    ref.load_interior(full)
    dist.load_interior(full)
    return ref, dist


def _seams(dist):
    """Directed ``(src, dst)`` locality pairs whose blocks touch — as
    26-neighbours, across the periodic seam too: the routes a stage must
    send, one message each, derived from the homes alone."""
    where = dist.owners()
    seams = set()
    for ip in where:
        for off in OFFSETS:
            nb = tuple(c + o for c, o in zip(ip, off))
            if dist.bc == "periodic":
                nb = tuple(c % b for c, b in zip(nb, dist.lattice))
            if nb in where and where[nb] != where[ip]:
                seams.add((where[nb], where[ip]))
    return seams


def _shell_bytes(dist):
    """Bytes one stage must copy: every ghost cell of every box that lies
    in the domain (all of them under periodic boundaries) — each is some
    other box's interior, or an image of one, exactly once."""
    g, cells = NGHOST, 0
    for box in dist._layout.boxes:
        inner = [sl.stop - sl.start for sl in box.cells]
        ghosted = [sl.stop - sl.start + 2 * g if dist.bc == "periodic"
                   else min(sl.stop + g, n) - max(sl.start - g, 0)
                   for sl, n in zip(box.cells, dist.shape)]
        cells += math.prod(ghosted) - math.prod(inner)
    return cells * NF * 8


def _assert_layout_follows_the_homes(dist):
    """One state array per box of the greedy cover of AGAS's homes, every
    block a view of its box, no array shared between localities."""
    where = dist.owners()
    assert dist._layout.homes == where
    cover = _box_cover(where)
    assert len(dist._boxes) == len(cover)
    for ip, blk in dist.blocks.items():
        box = dist._layout.views[ip][0]
        assert blk.base is dist._boxes[box]
        assert dist._layout.boxes[box].locality == where[ip]


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
        # one box: its own cells copy nothing, the walls do the rest
        assert len(dist._boxes) == 1
        assert dist.transport.stats.remote_msgs == 0
        assert dist.transport.stats.local_msgs == 0

    @pytest.mark.parametrize("n_localities", [1, 2, 3])
    def test_periodic_images_travel_the_routes(self, rng, n_localities):
        """A periodic image is an ordinary source box: it is a direct
        copy (a one-box mesh wraps onto itself) or a rectangle of its
        locality pair's payload, never a one-sided charge, and the state
        is the node-level one to the byte."""
        ref, dist = _pair(rng, bc="periodic", n_localities=n_localities,
                          reorder_seed=11)
        for _ in range(3):
            assert ref.step() == dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        st = dist.transport.stats
        assert st.onesided_msgs == 0
        assert st.local_bytes + st.remote_bytes == 2 * dist.steps * \
            _shell_bytes(dist)
        assert st.remote_msgs == 2 * dist.steps * len(_seams(dist))
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
        """Whatever boxes an owner map makes, whatever mix of direct
        copies and route parcels they exchange, and in whatever order the
        parcels arrive, the step is the node-level one — every halo byte
        is counted on exactly one route and every directed locality pair
        that shares a seam sends one message a stage."""
        opts, full, dts, expected = node_level[bc]
        reg = CounterRegistry()
        partition = {ip: owners[i]
                     for i, ip in enumerate(np.ndindex(2, 2, 2))}
        dist = DistBlockMesh(2, n_localities=4, port="libfabric",
                             reorder_seed=reorder_seed, registry=reg,
                             partition=partition,
                             domain=1.0, options=opts, bc=bc)
        dist.load_interior(full)
        assert [dist.step() for _ in range(_STEPS)] == dts
        np.testing.assert_array_equal(dist.gather_interior(), expected)
        _assert_layout_follows_the_homes(dist)
        layout = dist._layout
        stats = dist.transport.stats
        stages = 2 * _STEPS
        assert stats.local_msgs == len(layout.local) * stages
        assert stats.remote_msgs == len(_seams(dist)) * stages
        assert stats.local_bytes == stages * layout.local_bytes
        assert stats.local_bytes + stats.remote_bytes == stages * \
            _shell_bytes(dist)
        assert set(dist.channels) == _seams(dist)
        snap = reg.snapshot()
        assert snap["/distmesh/plan-rebuilds"] == 1
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"] \
            == layout.n_halos * stages
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
        each event its owners are AGAS's homes, the layout is rebuilt
        exactly when a step sees other homes (a migration onto the same
        locality rebuilds nothing), the state is
        the node-level one to the byte and the counters reconcile."""
        opts, full, after = periodic_reference
        reg = CounterRegistry()
        dist = DistBlockMesh(2, n_localities=4, port="libfabric",
                             reorder_seed=reorder_seed, registry=reg,
                             domain=1.0, options=opts, bc="periodic")
        dist.load_interior(full)
        ips = sorted(dist.blocks)
        agas, seen, rebuilds = dist.agas, dist.owners(), 1
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
                        ip: survivors[k] for ip, k in box_partition(
                            dist.lattice, len(survivors)).items()})
                    assert moves["restored"] == len(doomed)
                assert dist.lost_blocks == set()
            elif kind == "remap":
                assert dist.apply_ownership(dist.owners()) == {
                    "migrated": 0, "restored": 0}
            where = dist.owners()
            rebuilds += where != seen
            seen = where
            stats = dist.transport.stats
            sent = stats.local_msgs, stats.remote_msgs
            dt, state = after[step]
            assert dist.step() == dt
            np.testing.assert_array_equal(dist.gather_interior(), state)
            assert where == {
                ip: agas.resolve(gid)[1] for ip, gid in dist.gids.items()}
            _assert_layout_follows_the_homes(dist)
            # both stages took the routes these homes call for
            assert stats.local_msgs - sent[0] == 2 * len(dist._layout.local)
            assert stats.remote_msgs - sent[1] == 2 * len(_seams(dist))
            assert reg.snapshot()["/distmesh/plan-rebuilds"] == rebuilds
            assert dist.transport.reconciles()
        assert dist.transport.stats.onesided_msgs == 0


class TestBoxPartition:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lattice=st.tuples(*[st.integers(1, 5)] * 3),
           n_localities=st.integers(1, 12))
    def test_one_box_per_locality_within_the_share_bound(
            self, lattice, n_localities):
        """Every block is owned once, every locality that owns blocks
        owns one box of them (all of them do when there are at least as
        many blocks), no share exceeds twice ``ceil(blocks /
        localities)``, and the same input gives the same map."""
        owner = box_partition(lattice, n_localities)
        n_blocks = math.prod(lattice)
        assert set(owner) == set(np.ndindex(*lattice))
        assert set(owner.values()) <= set(range(n_localities))
        assert owner == box_partition(lattice, n_localities)
        users = set(owner.values())
        if n_blocks >= n_localities:
            assert users == set(range(n_localities))
        cover = _box_cover(owner)
        assert sorted(loc for loc, _, _ in cover) == sorted(users)
        for loc, lo, hi in cover:
            assert math.prod(h - l for l, h in zip(lo, hi)) == sum(
                v == loc for v in owner.values())
        shares = [sum(v == loc for v in owner.values()) for loc in users]
        assert max(shares) <= 2 * -(-n_blocks // n_localities)

    def test_the_ledger_lattice(self):
        """3^3 sub-grids: a 9-block slab beside an 18-block one on two
        localities, the slab and three 6-block bars on four."""
        for k, shares in ((2, [9, 18]), (4, [9, 6, 6, 6])):
            owner = box_partition((3, 3, 3), k)
            assert [sum(v == loc for v in owner.values())
                    for loc in range(k)] == shares

    def test_greedy_cover_of_other_owner_maps(self):
        """A scattered map needs more boxes; one locality per block is
        one box per block — the layout of one array per block."""
        ips = list(np.ndindex(3, 3, 3))
        assert len(_box_cover({ip: 0 for ip in ips})) == 1
        assert len(_box_cover({ip: i for i, ip in enumerate(ips)})) == 27
        checker = {ip: sum(ip) % 2 for ip in ips}
        assert len(_box_cover(checker)) == 27
        slabs = {ip: ip[0] % 2 for ip in ips}      # x = 0, 2 vs x = 1
        assert sorted(_box_cover(slabs)) == [
            (0, (0, 0, 0), (1, 3, 3)), (0, (2, 0, 0), (3, 3, 3)),
            (1, (1, 0, 0), (2, 3, 3))]


class TestLayout:
    def test_default_partition_is_one_box_per_locality(self, rng):
        """Every locality holds one state and one predictor array and its
        blocks are views of them; a stage copies nothing between blocks
        of one box and sends one payload per directed locality pair that
        shares a seam."""
        reg = CounterRegistry()
        ref, dist = _pair(rng, bpe=3, n_localities=4, registry=reg)
        assert ref.step() == dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        where = dist.owners()
        bases = {}
        for ip, blk in dist.blocks.items():
            bases.setdefault(where[ip], set()).add(id(blk.base))
        assert all(len(ids) == 1 for ids in bases.values())
        assert len(bases) == 4
        # the predictors are rk2_step's, one per box
        assert len(dist._boxes) == len(dist._stage) == 4
        assert all(dist._stage[b].shape == box.shape
                   for b, box in dist._boxes.items())
        stats = dist.transport.stats
        assert stats.local_msgs == 0            # outflow: no self-images
        assert stats.remote_msgs == 2 * len(_seams(dist))
        assert set(dist.channels) == _seams(dist)
        assert stats.remote_bytes == 2 * _shell_bytes(dist)
        assert reg.snapshot()["/distmesh/plan-rebuilds"] == 1

    def test_a_home_table_change_that_moves_nothing_rebuilds_nothing(
            self, rng):
        """Registering an unrelated component (or migrating a block onto
        its own home) changes the AGAS home table without moving a home
        of the mesh: the layout, its arrays and its channels stay."""
        reg = CounterRegistry()
        ref, dist = _pair(rng, registry=reg)
        ref.step()
        dist.step()
        arrays, channels = dist._boxes, dict(dist.channels)
        homes = dist.owners()
        other = dist.agas.register(Component(), 1)
        ip = (1, 1, 1)
        dist.agas.migrate(dist.gids[ip], homes[ip])
        assert dist.agas.homes([other]) == [1]
        assert dist.owners() == homes
        for _ in range(2):
            assert ref.step() == dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert dist._boxes is arrays and dist.channels == channels
        assert reg.snapshot()["/distmesh/plan-rebuilds"] == 1

    def test_a_rebuild_carries_interiors_written_between_steps(self, rng):
        """A restore (or any interior write) lands in the views of the
        layout in place; the next step's rebuild copies every block's
        interior into the new boxes."""
        ref, dist = _pair(rng, n_localities=4)
        ref.step()
        dist.step()
        state = ref.gather_interior()
        dist.load_interior(np.full_like(state, 7.0))
        dist.agas.migrate(dist.gids[0, 0, 0], 3)
        dist.load_interior(state)                # into the old layout
        old = dist._boxes
        assert ref.step() == dist.step()
        assert dist._boxes is not old
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())


class TestOwnership:
    def test_box_partition_is_the_default(self):
        dist = DistBlockMesh(3, n_localities=4, registry=CounterRegistry())
        assert dist.owners() == box_partition((3, 3, 3), 4)
        assert sorted(dist.locality_blocks().values()) == [6, 6, 6, 9]

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
        ips = list(np.ndindex(2, 2, 2))
        with pytest.raises(ValueError, match="outside"):
            DistBlockMesh(2, n_localities=2, registry=CounterRegistry(),
                          partition={ip: 5 for ip in ips})
        with pytest.raises(ValueError, match="every block"):
            DistBlockMesh(2, n_localities=2, registry=CounterRegistry(),
                          partition={ip: 0 for ip in ips[1:]})

    def test_apply_ownership_rejects_a_bad_map_and_moves_nothing(self):
        """Regression: a map whose last block names a locality outside
        the mesh, or a map onto a failed locality, used to migrate the
        blocks before the bad one and only then raise; a locality that is
        no integer (``1.5``, ``0.0``, ``True``) used to pass the range
        check.  The whole map is checked first; the homes do not move."""
        reg = CounterRegistry()
        dist = DistBlockMesh(2, n_localities=4, registry=reg)
        ips = sorted(dist.blocks)
        bad_tail = {ip: 0 for ip in ips}
        bad_tail[ips[-1]] = 7
        dist.agas.fail_locality(2, evacuate=False)
        before = dist.owners()
        onto_dead = {ip: i % 4 for i, ip in enumerate(ips)}
        missing = {ip: 0 for ip in ips[:-1]}
        # all on locality 0 would be a good map
        not_integers = [{**dict.fromkeys(ips, 0), ips[0]: value}
                        for value in (1.5, 0.0, True)]
        for bad in (bad_tail, onto_dead, missing, *not_integers):
            with pytest.raises(ValueError):
                dist.apply_ownership(bad)
            assert dist.owners() == before
        assert reg.value("/resilience/agas/components-migrated") == 0

    def test_migration_updates_owner_and_counters(self, rng):
        """Ownership lives in AGAS alone: a move made behind the mesh's
        back shows in ``owners()`` and lays the next step out again."""
        reg = CounterRegistry()
        ref, dist = _pair(rng, registry=reg)
        ref.step()
        dist.step()
        ip = next(iter(dist.blocks))
        old = dist.owners()[ip]
        new = (old + 1) % dist.n_localities
        dist.agas.migrate(dist.gids[ip], new)
        assert dist.owners()[ip] == new
        assert dist.agas.homes([dist.gids[ip]]) == [new]
        assert reg.snapshot()["/distmesh/plan-rebuilds"] == 1
        assert reg.snapshot()["/resilience/agas/components-migrated"] == 1
        # physics is unaffected by where blocks live
        for _ in range(2):
            ref.step()
            dist.step()
        np.testing.assert_array_equal(dist.gather_interior(),
                                      ref.gather_interior())
        assert reg.snapshot()["/distmesh/plan-rebuilds"] == 2
        _assert_layout_follows_the_homes(dist)

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
        _assert_layout_follows_the_homes(dist)

    def test_ownership_flips_switch_routes_mid_run(self, rng):
        """Evacuation re-homes a locality's blocks, an ownership remap
        moves some of them again: the layout is rebuilt once per change
        of homes (never in a steady run), a route that no longer exists
        takes its channel with it, nothing is left posted on the ones
        that remain, and neither the counters nor the physics notice."""
        reg = CounterRegistry()
        ref, dist = _pair(rng, registry=reg)
        expected = {"local": 0, "remote": 0, "halos": 0}

        def step(rebuilds):
            assert ref.step() == dist.step()
            np.testing.assert_array_equal(dist.gather_interior(),
                                          ref.gather_interior())
            _assert_layout_follows_the_homes(dist)
            assert set(dist.channels) == _seams(dist)
            for ch in dist.channels.values():
                assert not ch._promises          # no get left pending
                assert not ch._ready             # no value left buffered
            expected["remote"] += 2 * len(_seams(dist))
            expected["local"] += 2 * len(dist._layout.local)
            expected["halos"] += 2 * dist._layout.n_halos
            stats = dist.transport.stats
            assert stats.local_msgs == expected["local"]
            assert stats.remote_msgs == expected["remote"]
            assert reg.snapshot()["/distmesh/plan-rebuilds"] == rebuilds

        start_routes = _seams(dist)
        step(rebuilds=1)
        step(rebuilds=1)                          # steady: layout frozen
        dist.agas.fail_locality(0, evacuate=True)   # many blocks, one read
        assert start_routes - _seams(dist)        # the dead locality's routes
        step(rebuilds=2)
        ips = sorted(dist.blocks)
        dist.apply_ownership({ip: 1 + i % 2 for i, ip in enumerate(ips)})
        step(rebuilds=3)
        step(rebuilds=3)
        snap = reg.snapshot()
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"] \
            == expected["halos"]
        assert dist.transport.reconciles()

    def test_a_dead_localitys_memory_is_its_own(self, rng):
        """Migrate one block, a dual kill and a global recovery, then an
        evacuation: every step stays the node-level one, and at the kill
        the victims' blocks share no memory with any survivor's, so their
        NaN clobber touches nothing that lives on."""
        from repro.resilience import CheckpointManager, RecoveryCoordinator

        reg = CounterRegistry()
        ref, dist = _pair(rng, bpe=3, n_localities=4, registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        coord = RecoveryCoordinator(dist, mgr, registry=reg)

        def agree():
            assert ref.step() == dist.step()
            np.testing.assert_array_equal(dist.gather_interior(),
                                          ref.gather_interior())
            _assert_layout_follows_the_homes(dist)

        agree()
        dist.agas.migrate(dist.gids[1, 1, 1], 0)
        agree()
        mgr.save(dist)
        saved, saved_steps = ref.gather_interior(), ref.steps
        agree()
        for victim in (1, 3):
            dist.agas.fail_locality(victim, evacuate=False)
        where = dist.owners()
        dead = [b for ip, b in dist.blocks.items() if where[ip] in (1, 3)]
        live = [b for ip, b in dist.blocks.items() if where[ip] in (0, 2)]
        assert dead and live
        assert not any(np.shares_memory(d, v) for d in dead for v in live)
        for blk in dead:
            blk[...] = np.nan
        assert coord.recover().survivors == [0, 2]
        np.testing.assert_array_equal(dist.gather_interior(), saved)
        ref = BlockMesh(3, domain=1.0, options=dist.options, bc=dist.bc)
        ref.load_interior(saved)
        ref.steps = saved_steps
        agree()
        assert sorted(dist.locality_blocks().values()) == [0, 0, 9, 18]
        dist.agas.fail_locality(2, evacuate=True)
        agree()
        assert len(dist._boxes) == 1
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
        stages = 2 * dist.steps
        assert snap["/distmesh/halo/sets"] == dist._layout.n_halos * stages
        assert st.local_bytes + st.remote_bytes == stages * \
            _shell_bytes(dist)
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

        # locality 1's two blocks touch along an edge only: two boxes
        ref, dist = _pair(rng, partition={
            ip: ip[0] + ip[1] for ip in np.ndindex(2, 2, 2)})
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
        """Planted race: the direct route writes a periodic image into a
        box's ghost shell while an un-awaited RHS task still reads a
        block of that box.  The channel route had a future to order the
        two; the direct copy has only its access declarations."""
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        dist = DistBlockMesh(2, n_localities=1, registry=CounterRegistry(),
                             domain=1.0, options=opts, bc="periodic")
        dist.load_interior(_initial_data(np.random.default_rng(3),
                                         2 * SUBGRID_N))
        apply_boundary(dist._boxes[0], "periodic")  # undeclared
        assert dist._layout.local and not dist._layout.routes
        victim = dist.blocks[0, 0, 0]
        task = threading.Thread(
            target=compute_rhs, args=([victim], dist.dx, opts),
            name="rhs-task")
        with san.scope() as caught:
            task.start()
            task.join()     # serialized in time; NOT a happens-before edge
            # BUG: the task's future was never awaited before the refill
            dist._fill(dist._boxes, 0)
        assert [f.kind for f in caught] == ["data-race"]
        f = caught[0]
        assert f.details["buffer"] == "halo/dst-box"
        assert "write" in f.details["current_access"]
        assert "read" in f.details["prior_access"]
        assert "rhs-task" in f.details["prior_access"]
