"""Checkpoint/restore of mesh state and fault-tolerant evolve()."""

import threading

import numpy as np
import pytest

from repro.core import (BlockMesh, ConservationMonitor,
                        FaultRecoveryExhausted, equilibrium_star, evolve,
                        sedov_blast)
from repro.resilience import (CheckpointError, CheckpointManager,
                              FaultInjector, SimulationFault)
from repro.runtime import CounterRegistry


def small_mesh():
    return sedov_blast(n=16)


def small_blockmesh():
    star = equilibrium_star(n=16, domain=4.0)
    block = BlockMesh(blocks_per_edge=2, domain=star.domain,
                      origin=star.origin, options=star.options,
                      bc=star.bc, self_gravity=True)
    block.load_interior(star.interior.copy())
    return block


class TestCheckpointManager:
    def test_round_trip_is_bit_exact(self):
        reg = CounterRegistry()
        mesh = small_mesh()
        mon = ConservationMonitor()
        mon.sample(mesh)
        mgr = CheckpointManager(interval=1, registry=reg)
        mgr.save(mesh, mon)
        saved_U = mesh.U.copy()
        saved_t, saved_steps = mesh.time, mesh.steps
        for _ in range(2):
            mesh.step(1e-3)
            mon.sample(mesh)
        mgr.restore_latest(mesh, mon)
        assert np.array_equal(mesh.U, saved_U)
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
        assert mgr.latest.step == 4

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
        assert cp.U is None and set(cp.blocks) == set(mesh.blocks)
        assert cp.nbytes == sum(b.nbytes for b in mesh.blocks.values())
        saved = {ip: blk.copy() for ip, blk in mesh.blocks.items()}
        saved_t, saved_steps = mesh.time, mesh.steps
        for _ in range(2):
            mesh.step()
            mon.sample(mesh)
        assert any(not np.array_equal(saved[ip], mesh.blocks[ip])
                   for ip in saved)  # the steps actually moved state
        mgr.restore_latest(mesh, mon)
        for ip, blk in saved.items():
            assert np.array_equal(mesh.blocks[ip], blk)
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
        assert np.array_equal(clean.U, faulty.U)       # bitwise replay
        assert faulty.steps == clean.steps
        assert mon_clean.report() == mon_faulty.report()

    def test_probabilistic_faults_with_fixed_seed_complete(self):
        mesh = small_mesh()
        inj = FaultInjector(seed=2, step_fault_rate=0.3, max_step_faults=4,
                            registry=CounterRegistry())
        mgr = CheckpointManager(interval=1, registry=CounterRegistry())
        evolve(mesh, 0.05, max_steps=6, checkpoints=mgr, fault_injector=inj)
        assert mesh.steps == 6
        assert mgr.restores == inj.stats()["step"] > 0

    def test_fault_without_checkpointing_propagates(self):
        inj = FaultInjector(seed=0, fail_at_steps=(1,),
                            registry=CounterRegistry())
        with pytest.raises(SimulationFault):
            evolve(small_mesh(), 0.05, max_steps=4, fault_injector=inj)

    def test_restore_budget_fails_loudly_not_forever(self):
        inj = FaultInjector(seed=0, step_fault_rate=1.0,
                            registry=CounterRegistry())
        with pytest.raises(FaultRecoveryExhausted):
            evolve(small_mesh(), 0.05, max_steps=4,
                   checkpoints=CheckpointManager(interval=1),
                   fault_injector=inj, max_restores=3)
