"""PR 9 acceptance: durable recovery of the distributed V1309 merger.

One scripted disaster (:func:`repro.resilience.merger.run_merger` under
the :data:`~repro.resilience.merger.DUAL_KILL_CORRUPT` plan): the merger runs
over four localities with every committed checkpoint buddy-replicated;
two non-adjacent localities are killed *together* mid-run (more than
evacuation capacity — their blocks' GIDs are lost with their memory),
and the newest checkpoint was silently corrupted on its way into the
store.  The acceptance bar (ISSUE 9):

* the phi-accrual detector declares both victims with no manual call;
* the :class:`~repro.resilience.durability.RecoveryCoordinator` rolls
  every survivor back to the newest globally-consistent **verified**
  generation (falling back past the corrupted one), remaps ownership
  over the two survivors, resurrects the lost GIDs, and the run replays
  to a final state **byte-identical** to the node-level reference;
* the drift reports match record for record and the halo / checkpoint /
  recovery counters reconcile exactly.
"""

import pytest

from repro.resilience.merger import (DUAL_KILL_CORRUPT, Topology,
                                     run_merger)
from repro.runtime.counters import CounterRegistry


@pytest.fixture(scope="module")
def recovery(merger_scenario, merger_reference):
    registry = CounterRegistry()
    result = run_merger(merger_scenario, Topology(), DUAL_KILL_CORRUPT,
                        registry, reference=merger_reference)
    return result, registry.snapshot()


@pytest.mark.slow
class TestRecoveryMerger:
    def test_completes_bit_identical_to_node_level(self, recovery):
        res, _snap = recovery
        assert res.dist.steps == res.plan.steps
        assert res.bitwise_identical
        assert res.reports_identical

    def test_both_victims_detected_without_manual_calls(self, recovery):
        res, snap = recovery
        assert res.killed == sorted(res.plan.kill)
        assert sorted(res.detector.declared_failed) == res.killed
        assert snap["/resilience/health/detected"] == len(res.killed)
        assert snap["/resilience/health/silenced"] == len(res.killed)
        # correlated loss: nothing was evacuated, the GIDs died with
        # the nodes and only the replicated store could bring them back
        assert snap.get("/resilience/health/evacuated", 0.0) == 0.0
        assert res.evacuated == []
        assert snap["/resilience/agas/components-lost"] == len(res.lost) > 0

    def test_global_rollback_fell_back_past_the_corrupt_generation(
            self, recovery):
        res, snap = recovery
        rep = res.report
        assert rep is not None
        assert res.coordinator.rollbacks == 1
        assert snap["/recovery/global-rollbacks"] == 1.0
        assert snap["/recovery/elastic-restarts"] == 1.0
        # the newest save (the corrupted one) was skipped
        assert res.injector.stats()["ckpt-corruption"] == 1
        assert snap["/resilience/ckpt/fallback"] >= 1.0
        assert snap["/resilience/ckpt/corrupt"] >= 1.0
        assert snap["/resilience/ckpt/verified"] >= 1.0
        assert rep.step < res.plan.kill_after_steps

    def test_elastic_restart_on_the_survivors(self, recovery):
        res, snap = recovery
        rep = res.report
        survivors = sorted(set(range(res.topology.n_localities))
                           - set(res.killed))
        assert rep.survivors == survivors
        assert snap["/recovery/localities-remaining"] == len(survivors)
        # every block now lives on a survivor; the victims host nothing
        owners = res.dist.owners()
        assert set(owners.values()) <= set(survivors)
        for victim in res.killed:
            assert res.dist.locality_blocks()[victim] == 0
        # the lost GIDs were resurrected (not migrated — they were dead)
        assert rep.components_restored > 0
        assert snap["/recovery/components-restored"] == \
            rep.components_restored
        assert snap["/resilience/agas/components-restored"] == \
            rep.components_restored
        assert res.dist.lost_blocks == set()
        assert rep.blocks_fetched == len(res.dist.blocks)

    def test_replication_and_counters_reconcile(self, recovery):
        res, snap = recovery
        assert res.counters_reconcile
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"]
        # replication was charged like real traffic and survived the loss
        assert snap["/resilience/ckpt/replicas"] > 0
        assert snap["/resilience/ckpt/replicas-lost"] > 0
        assert snap["/recovery/blocks-fetched"] == len(res.dist.blocks)
        st = res.dist.transport.stats
        assert st.onesided_msgs > 0
        port = res.dist.transport.port_snapshot()
        assert int(port["messages"]) == st.remote_msgs + st.onesided_msgs
        assert int(port["bytes"]) == st.remote_bytes + st.onesided_bytes
