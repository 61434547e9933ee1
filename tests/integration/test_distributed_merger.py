"""PR 7 acceptance: the real V1309 merger distributed over localities.

One supervised distributed run (:func:`repro.resilience.merger.run_merger`
under the :data:`~repro.resilience.merger.LOCALITY_KILL` plan): blocks
AGAS-sharded over four localities, halos charged through the parcelport
and delivered in a seeded shuffled order, one locality silenced
mid-merger.  The acceptance bar (ISSUE 7):

* the distributed final state is **byte-identical** to the node-level
  ``BlockMesh`` run — including after the phi-accrual detector found the
  silent locality, AGAS evacuated its blocks, and the run rolled back to
  checkpoint and replayed on the survivors;
* the conservation-drift reports are identical record for record;
* the counters reconcile: halo sets == halo gets, and every
  cross-locality halo was charged to the halo parcelport (transport
  tallies == ``/parcels/halo:<port>/*`` tallies, exactly).
"""

import numpy as np
import pytest

from repro.core.distmesh import box_partition
from repro.resilience import BuddyReplicatedStore
from repro.resilience.merger import LOCALITY_KILL, Topology, run_merger
from repro.runtime.counters import CounterRegistry


@pytest.fixture(scope="module")
def merger_run(merger_scenario, merger_reference):
    """The run, its counters and the ``holders`` map of every fetch its
    checkpoint store served."""
    registry = CounterRegistry()
    fetched, fetch = [], BuddyReplicatedStore.fetch

    def spy(store, manifest, holders, destination):
        fetched.append(dict(holders))
        return fetch(store, manifest, holders, destination)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BuddyReplicatedStore, "fetch", spy)
        result = run_merger(merger_scenario, Topology(), LOCALITY_KILL,
                            registry, reference=merger_reference)
    return result, registry.snapshot(), fetched


@pytest.fixture(scope="module")
def merger(merger_run):
    return merger_run[:2]


@pytest.mark.slow
class TestDistributedMerger:
    def test_completes_bit_identical_to_node_level(self, merger):
        res, _snap = merger
        assert res.dist.steps == res.plan.steps
        assert res.bitwise_identical
        assert res.reports_identical

    def test_locality_was_killed_detected_and_evacuated(self, merger):
        res, snap = merger
        (victim,) = res.plan.kill
        assert res.killed == [victim]
        # nobody called fail_locality by hand — the detector did
        assert victim in res.detector.declared_failed
        assert snap["/resilience/health/detected"] == 1
        assert snap["/resilience/health/silenced"] == 1
        # every block the victim hosted, plus its side-channel store
        assert len(res.evacuated) > 1
        assert snap["/resilience/health/evacuated"] == len(res.evacuated)
        assert res.lost == [] and res.report is None
        # the victim hosts nothing now; its blocks moved, none were lost
        assert res.dist.locality_blocks()[victim] == 0
        assert snap["/resilience/agas/components-lost"] == 0
        for gid in res.evacuated:
            assert res.dist.agas.resolve(gid)[1] != victim

    def test_victims_blocks_come_back_from_buddy_copies(self, merger_run):
        """The rollback reads the victim's blocks from their buddy copies
        (its own shard died with it), every other block from its owner."""
        res, _snap, fetched = merger_run
        (victim,) = res.plan.kill
        live = list(range(res.topology.n_localities))
        buddy = BuddyReplicatedStore._buddy_of(victim, live)
        owners = box_partition(res.dist.lattice, len(live))
        (holders,) = fetched
        assert holders == {ip: buddy if loc == victim else loc
                           for ip, loc in owners.items()}
        assert res.bitwise_identical and res.counters_reconcile

    def test_rollback_and_replay_engaged(self, merger):
        res, snap = merger
        assert res.coordinator.manager.restores >= 1
        assert snap["/resilience/checkpoint/restores"] >= 1
        # the replay re-ran at least one step's worth of supervised tasks
        assert snap["/resilience/tasks/submitted"] > 0

    def test_counters_reconcile(self, merger):
        res, snap = merger
        assert res.counters_reconcile
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"]
        st = res.dist.transport.stats
        assert st.remote_msgs > 0        # halos really crossed localities
        assert st.reordered == st.remote_msgs  # all were shuffle-delivered
        port = res.dist.transport.port_snapshot()
        assert int(port["messages"]) == st.remote_msgs + st.onesided_msgs
        assert int(port["bytes"]) == st.remote_bytes + st.onesided_bytes
        # the halo port's gauges were published (global tallies — they
        # include any earlier traffic on the same process-wide port, so
        # >= this run's share, never less)
        published = snap[f"/parcels/{res.dist.transport.port.name}/messages"]
        assert published >= port["messages"]
        total_blocks = sum(res.dist.locality_blocks().values())
        assert sum(int(snap[f"/distmesh/blocks/loc{i}"])
                   for i in range(res.topology.n_localities)) == total_blocks

    def test_conservation_drifts_are_finite_and_small(self, merger):
        res, _snap = merger
        report = res.dist_monitor.report()
        assert report == res.ref_monitor.report()
        for key, val in report.items():
            assert np.isfinite(val), key
