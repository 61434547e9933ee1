"""Durable recovery: buddy-replicated shards, global rollback, elastic
restart — and every checkpoint-store fault class aimed at the manager."""

import numpy as np
import pytest

from repro.core import (BlockMesh, ConservationMonitor, DistBlockMesh,
                        box_partition, equilibrium_star, interior,
                        sedov_blast)
from repro.resilience import (BuddyReplicatedStore, CheckpointError,
                              CheckpointManager, FailureDetector,
                              FaultInjector, RecoveryCoordinator)
from repro.runtime import CounterRegistry
from repro.simulator.events import EventQueue


def star_interior():
    return equilibrium_star(n=16, domain=4.0)


def dist_mesh(n_localities=4, registry=None):
    star = star_interior()
    mesh = DistBlockMesh(2, n_localities=n_localities, port="libfabric",
                         domain=star.domain, origin=star.origin,
                         options=star.options, bc=star.bc,
                         self_gravity=True,
                         registry=registry or CounterRegistry())
    mesh.load_interior(star.interior.copy())
    return mesh


def holdings(store, locality):
    """The ``(generation, key)`` records a locality's shard holds."""
    return set(store._shards.get(locality, {}))


def damage_copy(store, generation, key, locality):
    """Flip one byte of a single replica (per-node bit rot; the buddy's
    copy is untouched, so recovery should route around it)."""
    payload = store._shards[locality][(generation, key)]
    payload.view(np.uint8).reshape(-1)[0] ^= 0xFF


def wired(mesh, reg, **mgr_kwargs):
    """Manager whose store a coordinator bound to ``mesh``: the
    owner-plus-buddy case."""
    mgr_kwargs.setdefault("keep", 4)
    mgr = CheckpointManager(interval=1, registry=reg, **mgr_kwargs)
    return mgr, RecoveryCoordinator(mesh, mgr, registry=reg).store


def spy_fetch(store):
    """Record the ``holders`` map of every fetch the store serves."""
    calls, fetch = [], store.fetch

    def spy(manifest, holders, destination):
        calls.append(dict(holders))
        return fetch(manifest, holders, destination)

    store.fetch = spy
    return calls


class TestBuddyReplicatedStore:
    def test_every_block_lands_on_owner_and_buddy(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        cp = mgr.save(mesh)
        owners = mesh.owners()
        live = list(range(mesh.n_localities))
        for ip in mesh.blocks:
            owner = owners[ip]
            buddy = store._buddy_of(owner, live)
            assert (cp.generation, ip) in holdings(store, owner)
            assert (cp.generation, ip) in holdings(store, buddy)
        n = len(mesh.blocks)
        assert reg.value("/resilience/ckpt/replicas") == n
        assert reg.value("/resilience/ckpt/replica-bytes") == cp.nbytes

    def test_replication_is_charged_like_halo_traffic(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        before = mesh.transport.stats.onesided_msgs
        mgr.save(mesh)
        st = mesh.transport.stats
        # one buddy put per block plus the manifest broadcast (the
        # origin's own manifest copy is a local fast path — uncharged)
        assert st.onesided_msgs == before + len(mesh.blocks) \
            + mesh.n_localities - 1
        assert mesh.transport.reconciles()

    def test_torn_saves_are_never_replicated(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        inj = FaultInjector(seed=7, torn_write_at_saves=(0,), registry=reg)
        mgr, store = wired(mesh, reg, injector=inj)
        mgr.save(mesh)
        assert store.replicated == 0
        mgr.save(mesh)
        assert store.replicated == 1

    def test_replicas_are_independent_copies(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        cp = mgr.save(mesh)
        ip = sorted(mesh.blocks)[0]
        owner = mesh.owners()[ip]
        damage_copy(store, cp.generation, ip, owner)
        man, holders = store.recovery_plan(mesh.owners())
        # the plan routes around the rotten replica to the buddy's copy
        assert man.generation == cp.generation
        assert holders[ip] != owner
        # the generation still qualified: no corrupt-generation tally
        assert reg.snapshot().get("/resilience/ckpt/corrupt", 0.0) == 0.0
        assert reg.value("/resilience/ckpt/verified") == 1.0

    def test_locality_loss_wipes_the_shard_idempotently(self):
        """The store reads liveness from AGAS: the scan after a failure
        drops the dead locality's shard, once, and no later write lands
        there."""
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        mgr.save(mesh)
        dropped = len(holdings(store, 1))
        assert dropped > 0
        mesh.agas.fail_locality(1)
        store.recovery_plan(mesh.owners())
        assert holdings(store, 1) == set() and store._manifests[1] == {}
        mesh.agas.fail_locality(1)  # idempotent
        mgr.save(mesh)
        assert holdings(store, 1) == set() and store._manifests[1] == {}
        assert reg.value("/resilience/ckpt/replicas-lost") == dropped

    def test_plan_falls_back_past_a_fully_damaged_generation(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        good = mgr.save(mesh)
        bad = mgr.save(mesh)
        owners = mesh.owners()
        live = list(range(mesh.n_localities))
        for ip in mesh.blocks:  # both copies of every newest-gen block rot
            owner = owners[ip]
            damage_copy(store, bad.generation, ip, owner)
            damage_copy(store, bad.generation, ip,
                        store._buddy_of(owner, live))
        man, holders = store.recovery_plan(owners)
        assert man.generation == good.generation
        assert reg.value("/resilience/ckpt/fallback") == 1.0
        assert reg.value("/resilience/ckpt/corrupt") == 1.0
        assert reg.value("/resilience/ckpt/verified") == 1.0

    def test_plan_raises_when_no_generation_survives(self):
        reg = CounterRegistry()
        mesh = dist_mesh(n_localities=2, registry=reg)
        mgr, store = wired(mesh, reg)
        mgr.save(mesh)
        mesh.agas.fail_locality(0, evacuate=False)
        mesh.agas.fail_locality(1, evacuate=False)
        with pytest.raises(CheckpointError, match="no globally-consistent"):
            store.recovery_plan(mesh.owners())

    def test_prune_retains_only_keep_generations(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg, keep=2)
        cps = [mgr.save(mesh) for _ in range(4)]
        gens = {gk[0] for loc in range(mesh.n_localities)
                for gk in holdings(store, loc)}
        assert gens == {cps[-2].generation, cps[-1].generation}
        assert len(mgr) == 2

    def test_two_payload_arrays_per_block_per_generation(self):
        """The snapshot array is the owner's copy: a retained generation
        holds each block twice on a distributed mesh (owner and buddy),
        once on a node-level one — and the manager holds none itself."""
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg, keep=2)
        cps = [mgr.save(mesh) for _ in range(3)]
        node = TestCheckpointStoreFaults().small_mesh()
        node_mgr = CheckpointManager(interval=1, keep=2, registry=reg)
        node_cps = [node_mgr.save(node) for _ in range(3)]
        for m, saved, copies in ((mgr, cps, 2), (node_mgr, node_cps, 1)):
            held: dict = {}
            for shard in m.store._shards.values():
                for gen_key, payload in shard.items():
                    held.setdefault(gen_key, []).append(payload)
            assert {gk[0] for gk in held} == {cp.generation
                                             for cp in saved[-2:]}
            for (gen, key), payloads in held.items():
                assert len({id(p) for p in payloads}) == copies
                cp = next(c for c in saved if c.generation == gen)
                assert any(p is cp.blocks[key] for p in payloads)
            assert not any(isinstance(v, (list, dict, set))
                           for v in vars(m).values())


class TestRecoveryCoordinator:
    def test_construction_wires_the_commit_hook(self):
        """Construction binds the manager's one store to the mesh: the
        owner-plus-buddy case replaces the one-locality store."""
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        assert mgr.store.mesh is None
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        assert mgr.store is coord.store and coord.store.mesh is mesh
        mgr.save(mesh)
        assert coord.store.replicated == 1

    def test_policy_thresholds(self):
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        assert not coord.needs_global_recovery(0)
        assert not coord.needs_global_recovery(1)  # evacuation absorbs one
        assert coord.needs_global_recovery(2)      # ...but not two at once
        # a lost last-copy forces global recovery regardless of the count
        on_victim = sorted(ip for ip, loc in mesh.owners().items()
                           if loc == 1)
        mesh.agas.fail_locality(1, evacuate=False)
        assert coord.lost_blocks() == on_victim
        assert coord.needs_global_recovery(0)

    def test_lost_blocks_follow_a_detector_kill(self):
        """The mesh never hears ``fail_locality`` in a real run: the
        phi-accrual detector calls AGAS directly.  Lost is whatever
        resolves to LocalityFailed, whoever declared the failure."""
        reg = CounterRegistry()
        mesh = dist_mesh(n_localities=4, registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        mgr.save(mesh)
        victims = {ip for ip, loc in mesh.owners().items() if loc in (1, 3)}
        events = EventQueue()
        detector = FailureDetector(mesh.agas, events, heartbeat_interval=0.25,
                                   phi_threshold=3.0, evacuate=False,
                                   registry=reg)
        detector.start()
        events.run(until=2.0)
        assert mesh.lost_blocks == set()
        for victim in (1, 3):
            detector.silence(victim)
        events.run(until=20.0)
        assert detector.declared_failed == {1, 3}
        assert mesh.lost_blocks == victims and len(victims) == 4
        assert coord.lost_blocks() == sorted(victims)
        coord.recover()
        assert mesh.lost_blocks == set()

    def test_recover_restores_byte_identical_state_on_survivors(self):
        reg = CounterRegistry()
        mesh = dist_mesh(n_localities=4, registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        mon = ConservationMonitor()
        mon.sample(mesh)
        cp = mgr.save(mesh, mon)
        saved = {ip: interior(blk).copy() for ip, blk in mesh.blocks.items()}
        saved_t, saved_steps = mesh.time, mesh.steps
        for _ in range(2):
            mesh.step()
            mon.sample(mesh)

        # correlated, non-adjacent dual kill: GIDs lost with the memory
        for victim in (1, 3):
            mesh.agas.fail_locality(victim, evacuate=False)
        for ip in mesh.lost_blocks:
            mesh.blocks[ip][...] = np.nan
        assert coord.needs_global_recovery(2)

        report = coord.recover(mon)
        assert report.generation == cp.generation
        assert report.survivors == [0, 2]
        assert report.blocks_fetched == len(mesh.blocks)
        # the victims' 4 blocks are resurrected; the survivors' blocks
        # already sit where the 2-locality box partition puts them
        assert report.components_restored == 4
        assert report.components_migrated == 0
        for ip, state in saved.items():
            assert np.array_equal(interior(mesh.blocks[ip]), state)
        assert mesh.time == saved_t and mesh.steps == saved_steps
        assert len(mon.records) == cp.monitor_len
        assert mesh.lost_blocks == set()
        # ownership remapped over the survivors only
        assert mesh.owners() == {
            ip: [0, 2][k] for ip, k in box_partition((2, 2, 2), 2).items()}
        # the restored generation stays, durability is re-seeded next to it
        assert len(mgr) == 2
        assert mgr.latest_verified.generation == cp.generation + 1
        assert mgr.latest_verified.step == saved_steps
        assert reg.value("/recovery/global-rollbacks") == 1.0
        assert reg.value("/recovery/elastic-restarts") == 1.0
        assert reg.value("/recovery/blocks-fetched") == len(mesh.blocks)
        assert reg.value("/recovery/localities-remaining") == 2.0
        assert mesh.transport.reconciles()

    def test_recover_then_replay_matches_a_straight_run(self):
        """The elastic restart finishes byte-identical: replaying on two
        survivors reproduces a 4-locality run that never failed (the
        partition-independence contract)."""
        straight = dist_mesh(n_localities=4)
        for _ in range(3):
            straight.step()

        reg = CounterRegistry()
        mesh = dist_mesh(n_localities=4, registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        mesh.step()
        mgr.save(mesh)
        for _ in range(2):
            mesh.step()
        for victim in (1, 3):
            mesh.agas.fail_locality(victim, evacuate=False)
        for ip in mesh.lost_blocks:
            mesh.blocks[ip][...] = np.nan
        report = coord.recover()
        assert mesh.steps == 1 and report.components_restored > 0
        for _ in range(2):
            mesh.step()
        assert mesh.steps == straight.steps
        # interiors: a ghost layer is a neighbour's interior inside a box
        # and a filled shell cell at its edge, so it follows the layout
        for ip in straight.blocks:
            assert np.array_equal(interior(straight.blocks[ip]),
                                  interior(mesh.blocks[ip]))
        assert mesh.time == straight.time

    def test_recover_raises_when_no_locality_survives(self):
        reg = CounterRegistry()
        mesh = dist_mesh(n_localities=2, registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        mgr.save(mesh)
        mesh.agas.fail_locality(0, evacuate=False)
        mesh.agas.fail_locality(1, evacuate=False)
        with pytest.raises(CheckpointError, match="no locality survives"):
            coord.recover()


class TestCheckpointStoreFaults:
    """Every FaultInjector checkpoint-fault class aimed at the manager:
    ``restore_latest`` always lands on the newest *verified* generation,
    and :class:`CheckpointError` fires only when none survives."""

    def small_mesh(self):
        star = star_interior()
        mesh = BlockMesh(2, domain=star.domain, origin=star.origin,
                         options=star.options, bc=star.bc,
                         self_gravity=True)
        mesh.load_interior(star.interior.copy())
        return mesh

    def saves_and_steps(self, mgr, mesh, n):
        """n saves at distinct steps; returns the state at each save and
        keeps the last saved record in ``self.newest``."""
        states = []
        for _ in range(n):
            states.append(({ip: interior(b).copy()
                            for ip, b in mesh.blocks.items()}, mesh.steps))
            self.newest = mgr.save(mesh)
            mesh.step()
        return states

    def assert_restored(self, mesh, state):
        interiors, steps = state
        for ip, saved in interiors.items():
            assert np.array_equal(interior(mesh.blocks[ip]), saved)
        assert mesh.steps == steps

    def test_scheduled_torn_write_falls_back_one_generation(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=3, torn_write_at_saves=(1,), registry=reg)
        mgr = CheckpointManager(interval=1, keep=3, registry=reg,
                                injector=inj)
        mesh = self.small_mesh()
        states = self.saves_and_steps(mgr, mesh, 2)
        assert inj.stats()["torn-write"] == 1
        assert not self.newest.committed
        mgr.restore_latest(mesh)
        self.assert_restored(mesh, states[0])  # save #1 was torn
        assert reg.value("/resilience/ckpt/torn") == 1.0
        assert reg.value("/resilience/ckpt/fallback") == 1.0
        assert reg.value("/resilience/ckpt/verified") == 1.0

    def test_scheduled_corruption_falls_back_one_generation(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=3, corrupt_ckpt_at_saves=(1,),
                            registry=reg)
        mgr = CheckpointManager(interval=1, keep=3, registry=reg,
                                injector=inj)
        mesh = self.small_mesh()
        states = self.saves_and_steps(mgr, mesh, 2)
        assert inj.stats()["ckpt-corruption"] == 1
        assert self.newest.committed         # the save looked successful...
        assert not self.newest.verify()      # ...but the content rotted
        mgr.restore_latest(mesh)
        self.assert_restored(mesh, states[0])
        assert reg.value("/resilience/ckpt/corrupt") == 1.0
        assert reg.value("/resilience/ckpt/verified") == 1.0

    def test_restore_lands_on_newest_verified(self):
        reg = CounterRegistry()
        inj = FaultInjector(torn_write_at_saves=(1, 4),
                            corrupt_ckpt_at_saves=(2, 5), registry=reg)
        mgr = CheckpointManager(interval=1, keep=6, registry=reg,
                                injector=inj)
        mesh = self.small_mesh()
        states = self.saves_and_steps(mgr, mesh, 6)
        expected = mgr.latest_verified
        assert expected is not None and expected.step == 3
        restored = mgr.restore_latest(mesh)
        assert restored.generation == expected.generation
        self.assert_restored(mesh, states[3])
        # everything newer than the restored record (#4 torn, #5 corrupt)
        # failed verification and was dropped on the way down
        assert reg.value("/resilience/ckpt/fallback") == 2.0
        assert len(mgr) == 4

    def test_mixed_schedule_skips_both_fault_kinds(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=9, torn_write_at_saves=(2,),
                            corrupt_ckpt_at_saves=(1,), registry=reg)
        mgr = CheckpointManager(interval=1, keep=4, registry=reg,
                                injector=inj)
        mesh = self.small_mesh()
        states = self.saves_and_steps(mgr, mesh, 3)
        mgr.restore_latest(mesh)
        self.assert_restored(mesh, states[0])  # #1 corrupt, #2 torn
        assert reg.value("/resilience/ckpt/fallback") == 2.0

    def test_error_only_when_no_verified_generation_survives(self):
        reg = CounterRegistry()
        inj = FaultInjector(seed=1, corrupt_ckpt_at_saves=(0, 1),
                            torn_write_at_saves=(2,), registry=reg)
        mgr = CheckpointManager(interval=1, keep=3, registry=reg,
                                injector=inj)
        mesh = self.small_mesh()
        self.saves_and_steps(mgr, mesh, 3)
        assert mgr.latest_verified is None
        with pytest.raises(CheckpointError, match="no verified checkpoint"):
            mgr.restore_latest(mesh)
        assert reg.value("/resilience/ckpt/fallback") == 3.0
        # a later good save makes restore work again
        good = mgr.save(mesh)
        assert mgr.restore_latest(mesh).generation == good.generation

    def test_wiring_the_injector_does_not_perturb_other_schedules(self):
        """rate=0 checkpoint checks must not consume RNG draws — the
        pre-existing seeded step/loss schedules stay byte-identical."""
        a = FaultInjector(seed=42, loss_rate=0.5,
                          registry=CounterRegistry())
        b = FaultInjector(seed=42, loss_rate=0.5,
                          registry=CounterRegistry())
        for _ in range(12):
            b.torn_write_due()           # the manager asks every save...
            b.checkpoint_corruption_due()  # ...rate 0 => no RNG draw
            assert a.drop_message() == b.drop_message()


class TestLivenessFromAgas:
    """The store reads liveness from AGAS at every write and scan, and
    every restore reads the copy already at each block's destination
    first."""

    def test_evacuate_then_lose_recovers_the_newest_generation(self):
        """An evacuated locality stays dead to the store: the saves after
        it put nothing there, so losing another locality later still
        leaves a live copy of every block of the newest generation."""
        reg = CounterRegistry()
        mesh = DistBlockMesh.retile(sedov_blast(n=24), n_localities=4,
                                    port="libfabric", registry=reg)
        mgr = CheckpointManager(interval=1, keep=4, registry=reg)
        coord = RecoveryCoordinator(mesh, mgr, registry=reg)
        store = coord.store
        mgr.save(mesh)
        mesh.agas.fail_locality(1)
        puts = []
        charge = mesh.transport.charge_onesided

        def spy(nbytes, src, dst):
            puts.append((src, dst))
            charge(nbytes, src, dst)

        mesh.transport.charge_onesided = spy
        landed = []  # what locality 1 holds after each save
        for _ in range(2):
            mesh.step()
            mgr.save(mesh)
            landed += [*holdings(store, 1), *store._manifests[1]]

        mesh.agas.fail_locality(0, evacuate=False)
        report = coord.recover()
        assert landed == []
        assert puts and all(1 not in pair for pair in puts)
        assert (report.generation, report.step) == (2, 2)
        assert report.survivors == [2, 3]
        clean = BlockMesh.retile(sedov_blast(n=24))
        for _ in range(2):
            clean.step()
        assert mesh.steps == clean.steps and mesh.time == clean.time
        assert np.array_equal(mesh.gather_interior(),
                              clean.gather_interior())
        assert mesh.transport.reconciles()

    def test_step_fault_rollback_reads_owner_copies_for_free(self):
        """No locality died: every block comes back from its owner's
        copy, so the restore charges no one-sided byte."""
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        mgr.save(mesh)
        saved = {ip: interior(b).copy() for ip, b in mesh.blocks.items()}
        mesh.step()
        fetched = spy_fetch(store)
        before = mesh.transport.stats.onesided_bytes
        mgr.restore_latest(mesh)
        assert fetched == [mesh.owners()]
        assert mesh.transport.stats.onesided_bytes == before
        for ip, state in saved.items():
            assert np.array_equal(interior(mesh.blocks[ip]), state)
        assert mesh.transport.reconciles()

    def test_evacuated_blocks_come_back_from_buddy_copies(self):
        """An evacuated victim's shard is gone: its blocks come from their
        buddy copies, charged buddy -> new home, and the replay still
        matches a run that never failed."""
        straight = dist_mesh()
        for _ in range(2):
            straight.step()
        reg = CounterRegistry()
        mesh = dist_mesh(registry=reg)
        mgr, store = wired(mesh, reg)
        mesh.step()
        owners = mesh.owners()
        mgr.save(mesh)
        mesh.step()
        victim = 2
        mesh.agas.fail_locality(victim)
        for ip, loc in owners.items():
            if loc == victim:
                mesh.blocks[ip][...] = np.nan
        fetched = spy_fetch(store)
        mgr.restore_latest(mesh)
        buddy = BuddyReplicatedStore._buddy_of(victim, [0, 1, 2, 3])
        (holders,) = fetched
        assert holders == {ip: buddy if loc == victim else loc
                           for ip, loc in owners.items()}
        mesh.step()
        for ip in straight.blocks:
            assert np.array_equal(interior(straight.blocks[ip]),
                                  interior(mesh.blocks[ip]))
        assert mesh.transport.reconciles()
