"""PR 2 acceptance: the V1309 merger survives an unreliable machine.

With fault injection enabled (5% message loss on the halo parcel path, a
transient whole-locality failure, an injected mid-run step fault — all
from one fixed seed) the merger run completes via retry + checkpoint
restore and reproduces the fault-free conservation behaviour bit for bit;
retry-budget exhaustion surfaces as an exceptional future, never a hang.
"""

import numpy as np
import pytest

from repro.core import RHO, evolve, v1309_binary
from repro.network.retry import RetryPolicy
from repro.resilience import (CheckpointManager, FaultInjector,
                              ResilientParcelSender, RetryBudgetExhausted)
from repro.runtime import (AgasRuntime, Component, CounterRegistry, Parcel,
                           ParcelHandler)


def build_binary():
    return v1309_binary(M=16, scf_iters=12)


@pytest.mark.slow
class TestMergerUnderFaults:
    def test_checkpoint_restore_reproduces_fault_free_run(self):
        clean = build_binary()
        faulty = build_binary()
        # identical initial data
        assert np.array_equal(clean.blocks[0, 0, 0], faulty.blocks[0, 0, 0])

        mon_clean = evolve(clean, t_end=1.0, max_steps=3)
        inj = FaultInjector(seed=1309, fail_at_steps=(1,),
                            registry=CounterRegistry())
        mon_faulty = evolve(faulty, t_end=1.0, max_steps=3,
                            checkpoints=CheckpointManager(interval=1),
                            fault_injector=inj)

        assert inj.stats()["step"] == 1            # the failure happened
        assert faulty.steps == clean.steps == 3    # and the run completed
        # bitwise identical state
        assert np.array_equal(clean.blocks[0, 0, 0], faulty.blocks[0, 0, 0])
        rep_c, rep_f = mon_clean.report(), mon_faulty.report()
        assert rep_c == rep_f                      # identical drifts
        assert np.isfinite(faulty.interior[RHO]).all()

    def test_halo_parcels_survive_loss_and_locality_failure(self):
        """Distribute sub-grid payloads over 4 localities, lose 5% of the
        parcels and one whole locality mid-stream; every halo arrives."""

        class SubgridStore(Component):
            def __init__(self):
                super().__init__()
                self.halos = {}

            def put_halo(self, generation, buf):
                self.halos[generation] = buf
                return generation

        reg = CounterRegistry()
        ag = AgasRuntime(4, registry=reg)
        stores = [ag.register(SubgridStore(), loc) for loc in range(4)]
        inj = FaultInjector(seed=7, loss_rate=0.05, registry=reg)
        sender = ResilientParcelSender(
            ParcelHandler(ag), injector=inj, registry=reg,
            policy=RetryPolicy(max_attempts=8, base_backoff=1e-6),
            sleep=lambda _t: None)

        halo = np.arange(16 * 16, dtype=np.float64)
        futs = []
        for gen in range(25):
            if gen == 12:   # a node dies mid-run; survivors take over
                ag.fail_locality(3)
            for gid in stores:
                futs.append(sender.send(
                    Parcel(gid, "put_halo", (gen, halo * gen))))
        for f in futs:
            assert f.get() >= 0                    # every send was acked

        snap = reg.snapshot()
        assert snap["/resilience/injected/loss"] > 0
        assert snap["/resilience/parcels/recovered"] > 0
        assert snap["/resilience/agas/localities-failed"] == 1.0
        # the evacuated store kept its GID and collected all generations
        comp, home = ag.resolve(stores[3])
        assert home != 3
        assert sorted(comp.halos) == list(range(25))

    def test_retry_exhaustion_never_hangs(self):
        """A fully dead link yields an exceptional future promptly (the
        pytest-timeout cap in CI turns any regression into a failure)."""
        ag = AgasRuntime(1)

        class Sink(Component):
            def put(self, x):
                return x

        gid = ag.register(Sink())
        inj = FaultInjector(seed=3, loss_rate=1.0,
                            registry=CounterRegistry())
        sender = ResilientParcelSender(
            ParcelHandler(ag), injector=inj,
            policy=RetryPolicy(max_attempts=4, base_backoff=1e-6),
            sleep=lambda _t: None)
        fut = sender.send(Parcel(gid, "put", (1,)))
        assert fut.is_ready()
        with pytest.raises(RetryBudgetExhausted):
            fut.get()
