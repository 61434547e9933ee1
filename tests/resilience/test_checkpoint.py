"""Checkpoint/restore of mesh state and fault-tolerant evolve()."""

import random
import threading
import zlib

import numpy as np
import pytest

from repro.core import (EGAS, NF, RHO, SUBGRID_N, TAU, AmrMesh, BlockMesh,
                        ConservationMonitor, DistBlockMesh,
                        FaultRecoveryExhausted, HydroOptions, IdealGas,
                        Octree, equilibrium_star, evolve, interior,
                        sedov_blast, stepper)
from repro.resilience import (CheckpointError, CheckpointManager,
                              FaultInjector, RecoveryCoordinator,
                              block_checksum)
from repro.runtime import CounterRegistry
from repro.runtime.faults import SimulationFault


def small_mesh():
    return sedov_blast(n=16)


def small_blockmesh():
    return BlockMesh.retile(equilibrium_star(n=16, domain=4.0))


def small_distmesh(n_localities=4, registry=None):
    return DistBlockMesh.retile(
        equilibrium_star(n=16, domain=4.0), n_localities=n_localities,
        port="libfabric", registry=registry or CounterRegistry())


def small_amrmesh():
    """Three levels with coarse-fine faces, a smooth blob on every leaf."""
    tree = Octree(domain=1.0)
    tree.refine(0, (0, 0, 0))
    tree.refine(1, (1, 1, 1))
    eos = IdealGas()
    for leaf in tree.leaves():
        I = interior(leaf.U)
        x, y, z = tree.cell_centers(leaf.level, leaf.ipos)
        blob = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2
                        + (z - 0.5) ** 2) / 0.02)
        I[RHO] = 1.0 + 0.5 * blob
        I[EGAS] = 1.0 + blob
        I[TAU] = eos.tau_from_eint(I[EGAS])
    return AmrMesh(tree, HydroOptions(eos=eos), bc="reflect")


class TestInteriorsAreTheState:
    """The record contract, for every mesh that steps through
    ``rk2_step``: a record holds block interiors and nothing else; a
    restore writes interiors and nothing else; the next stage-0 fill
    rebuilds every ghost shell, so the replay is byte-identical."""

    CASES = {
        "one-block": (small_mesh, False),
        "BlockMesh": (small_blockmesh, False),
        "DistBlockMesh": (small_distmesh, False),
        "DistBlockMesh-recover": (small_distmesh, True),
        "AmrMesh": (small_amrmesh, False),
    }

    @pytest.mark.parametrize("build,global_recovery", CASES.values(),
                             ids=CASES)
    def test_fault_restore_replay_is_byte_identical(self, build,
                                                    global_recovery):
        clean, faulted = build(), build()
        for _ in range(3):
            clean.step()
        mgr = CheckpointManager(interval=1, registry=CounterRegistry())
        coordinator = (RecoveryCoordinator(faulted, mgr)
                       if global_recovery else None)
        faulted.step()
        mgr.save(faulted)
        faulted.step()
        # the fault: every ghost shell *and* every interior is garbage
        for blk in faulted.blocks.values():
            blk[...] = np.nan
        if coordinator is None:
            mgr.restore_latest(faulted)
        else:
            # correlated dual kill: the victims' GIDs die with the memory
            for victim in (1, 3):
                faulted.agas.fail_locality(victim, evacuate=False)
            coordinator.recover()
        assert faulted.steps == 1
        for blk in faulted.blocks.values():
            assert np.isfinite(interior(blk)).all()
            assert np.isnan(blk).any()      # the shell was not restored
        faulted.step()
        # one step on, the stage-0 fill has rebuilt every ghost cell
        for blk in faulted.blocks.values():
            assert np.isfinite(blk).all()
        faulted.step()
        assert faulted.steps == clean.steps and faulted.time == clean.time
        for key, blk in clean.blocks.items():
            assert np.array_equal(interior(blk),
                                  interior(faulted.blocks[key]))

    def test_record_holds_interiors_only(self):
        reg = CounterRegistry()
        mesh = small_distmesh(n_localities=2, registry=reg)
        mgr = CheckpointManager(interval=1, registry=reg)
        RecoveryCoordinator(mesh, mgr, registry=reg)
        cp = mgr.save(mesh)
        assert cp.nbytes == len(mesh.blocks) * NF * SUBGRID_N ** 3 * 8
        for arr in cp.blocks.values():
            assert arr.shape == (NF,) + (SUBGRID_N,) * 3
            assert arr.flags.c_contiguous
        assert reg.value("/resilience/checkpoint/bytes-saved") == cp.nbytes
        # on two localities every block has a buddy: one replica each
        assert reg.value("/resilience/ckpt/replica-bytes") == cp.nbytes

    def test_torn_single_block_record_falls_back_one_generation(self):
        """A one-block record torn mid-write staged no payload at all; the
        missing manifest is what marks it, and the restore skips it."""
        reg = CounterRegistry()
        inj = FaultInjector(seed=3, torn_write_at_saves=(1,), registry=reg)
        mgr = CheckpointManager(interval=1, keep=3, registry=reg,
                                injector=inj)
        mesh = small_mesh()
        good = mgr.save(mesh)
        saved = mesh.interior.copy()
        mesh.step()
        torn = mgr.save(mesh)
        assert not torn.committed and not torn.verify()
        assert torn.blocks == {}
        mesh.step()
        assert mgr.restore_latest(mesh).generation == good.generation
        assert mesh.steps == 0 and np.array_equal(mesh.interior, saved)
        assert reg.value("/resilience/ckpt/torn") == 1.0
        assert reg.value("/resilience/ckpt/fallback") == 1.0
        assert reg.value("/resilience/ckpt/verified") == 1.0


class TestBlockChecksum:
    @staticmethod
    def old_formula(arr):
        a = np.ascontiguousarray(arr)
        head = f"{a.dtype.str}:{a.shape}".encode()
        return zlib.crc32(a.tobytes(), zlib.crc32(head)) & 0xFFFFFFFF

    def test_buffer_crc_equals_the_tobytes_formula(self):
        a = np.arange(2 * 5 * 6 * 7, dtype=np.float64).reshape(2, 5, 6, 7)
        assert block_checksum(a) == self.old_formula(a) == 1489406647
        view = a[:, 1:-1, ::2, 1:]      # not contiguous: staged first
        assert not view.flags.c_contiguous
        assert block_checksum(view) == self.old_formula(view)
        assert block_checksum(view) == block_checksum(view.copy())
        assert block_checksum(view) != block_checksum(a)


class TestCheckpointManager:
    def test_round_trip_is_bit_exact(self):
        reg = CounterRegistry()
        mesh = small_mesh()
        mon = ConservationMonitor()
        mon.sample(mesh)
        mgr = CheckpointManager(interval=1, registry=reg)
        mgr.save(mesh, mon)
        saved = mesh.interior.copy()
        saved_t, saved_steps = mesh.time, mesh.steps
        for _ in range(2):
            mesh.step(1e-3)
            mon.sample(mesh)
        assert not np.array_equal(mesh.interior, saved)
        mgr.restore_latest(mesh, mon)
        # interiors are the state; the ghost shell is the next fill's job
        assert np.array_equal(mesh.interior, saved)
        assert mesh.time == saved_t and mesh.steps == saved_steps
        assert len(mon.records) == 1
        assert reg.value("/resilience/checkpoint/saves") == 1.0
        assert reg.value("/resilience/checkpoint/restores") == 1.0

    def test_keeps_only_latest_n(self):
        mesh = small_mesh()
        mgr = CheckpointManager(interval=1, keep=2,
                                registry=CounterRegistry())
        for _ in range(4):
            mesh.step(1e-3)
            mgr.save(mesh)
        assert len(mgr) == 2
        assert mgr.latest_verified.step == 4

    def test_maybe_save_respects_interval(self):
        mesh = small_mesh()
        mgr = CheckpointManager(interval=3, registry=CounterRegistry())
        assert mgr.maybe_save(mesh) is not None     # first is always taken
        for _ in range(2):
            mesh.step(1e-3)
            assert mgr.maybe_save(mesh) is None
        mesh.step(1e-3)
        assert mgr.maybe_save(mesh) is not None

    def test_restore_without_checkpoint_raises(self):
        mgr = CheckpointManager(registry=CounterRegistry())
        with pytest.raises(CheckpointError):
            mgr.restore_latest(small_mesh())

    def test_concurrent_maybe_save_saves_exactly_once(self):
        """The interval check and the step claim are one atomic operation:
        many threads reaching the same step produce exactly one save."""
        mesh = small_mesh()
        for trial in range(10):
            mgr = CheckpointManager(interval=1, registry=CounterRegistry())
            n = 8
            barrier = threading.Barrier(n, timeout=5.0)
            results = [None] * n

            def worker(i):
                barrier.wait()
                results[i] = mgr.maybe_save(mesh)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5.0)
            saved = [r for r in results if r is not None]
            assert len(saved) == 1, f"trial {trial}: {len(saved)} saves"
            assert mgr.saves == 1 and len(mgr) == 1


class TestBlockMeshCheckpoint:
    def test_round_trip_is_bit_exact(self):
        reg = CounterRegistry()
        mesh = small_blockmesh()
        mon = ConservationMonitor()
        mon.sample(mesh)
        mgr = CheckpointManager(interval=1, registry=reg)
        cp = mgr.save(mesh, mon)
        assert set(cp.blocks) == set(mesh.blocks)
        assert cp.nbytes == sum(interior(b).nbytes
                                for b in mesh.blocks.values())
        saved = {ip: interior(blk).copy() for ip, blk in mesh.blocks.items()}
        saved_t, saved_steps = mesh.time, mesh.steps
        for _ in range(2):
            mesh.step()
            mon.sample(mesh)
        assert any(not np.array_equal(saved[ip], interior(mesh.blocks[ip]))
                   for ip in saved)  # the steps actually moved state
        mgr.restore_latest(mesh, mon)
        for ip, state in saved.items():
            assert np.array_equal(interior(mesh.blocks[ip]), state)
        assert mesh.time == saved_t and mesh.steps == saved_steps
        assert len(mon.records) == 1

    def test_restore_then_replay_is_bit_identical(self):
        """Restoring mid-run and replaying reproduces the uninterrupted
        run exactly — including re-filling the ghost shells at halo
        generations that restarted (the ``on_restore`` hook)."""
        straight, replayed = small_blockmesh(), small_blockmesh()
        for _ in range(3):
            straight.step()
        mgr = CheckpointManager(interval=1, registry=CounterRegistry())
        replayed.step()
        mgr.save(replayed)
        for _ in range(2):
            replayed.step()
        mgr.restore_latest(replayed)  # back to steps=1
        for _ in range(2):
            replayed.step()  # reuses generations 1..2 after the reset
        assert replayed.steps == straight.steps
        for ip in straight.blocks:
            assert np.array_equal(straight.blocks[ip],
                                  replayed.blocks[ip])
        assert replayed.time == straight.time


class TestFaultTolerantEvolve:
    def test_faulty_run_replays_fault_free_run_exactly(self):
        """Acceptance: with an injected mid-run failure and periodic
        checkpoints, the evolution completes and reproduces the
        fault-free conservation drifts bit for bit (Sec. 4.2/4.3)."""
        clean, faulty = small_mesh(), small_mesh()
        mon_clean = evolve(clean, 0.05, max_steps=6)
        inj = FaultInjector(seed=11, fail_at_steps=(3,),
                            registry=CounterRegistry())
        mon_faulty = evolve(faulty, 0.05, max_steps=6,
                            checkpoints=CheckpointManager(interval=2),
                            fault_injector=inj)
        assert inj.stats()["step"] == 1                # the fault fired
        # bitwise replay
        assert np.array_equal(clean.blocks[0, 0, 0], faulty.blocks[0, 0, 0])
        assert faulty.steps == clean.steps
        assert mon_clean.report() == mon_faulty.report()

    def test_probabilistic_faults_with_fixed_seed_complete(self):
        mesh = small_mesh()
        steps = tuple(random.Random(2).sample(range(6), 4))
        inj = FaultInjector(fail_at_steps=steps, registry=CounterRegistry())
        mgr = CheckpointManager(interval=1, registry=CounterRegistry())
        evolve(mesh, 0.05, max_steps=6, checkpoints=mgr, fault_injector=inj)
        assert mesh.steps == 6
        assert mgr.restores == inj.stats()["step"] == 4

    def test_fault_without_checkpointing_propagates(self):
        inj = FaultInjector(seed=0, fail_at_steps=(1,),
                            registry=CounterRegistry())
        with pytest.raises(SimulationFault):
            evolve(small_mesh(), 0.05, max_steps=4, fault_injector=inj)

    def test_restore_budget_fails_loudly_not_forever(self, monkeypatch):
        monkeypatch.setattr(stepper, "MAX_RESTORES", 3)
        inj = FaultInjector(fail_at_steps=range(4),
                            registry=CounterRegistry())
        with pytest.raises(FaultRecoveryExhausted):
            evolve(small_mesh(), 0.05, max_steps=4,
                   checkpoints=CheckpointManager(interval=1),
                   fault_injector=inj)
