"""PR 4 acceptance: the V1309 merger under EVERY fault class at once.

One seeded run of :func:`repro.resilience.merger.run_merger` under the
:data:`~repro.resilience.merger.CHAOS` plan throws message loss,
message delays, transient task faults, a permanently poisoned CUDA
stream, an announced step fault, silent state corruption, a corrupt and
a torn checkpoint AND a silently dead locality at a scaled-down,
distributed V1309 merger — simultaneously.  The acceptance bar:

* the run completes, with conservation drifts **byte-identical** to a
  fault-free run of the same problem;
* every fault class fired at least once and every recovery mechanism
  engaged at least once (the chaos was real, and so was the healing);
* the dead locality was found by the phi-accrual detector — nobody
  called ``fail_locality`` by hand — and its components were evacuated;
* the poisoned stream ended up quarantined and no halo parcel was lost.
"""

import numpy as np
import pytest

from repro.analysis import format_report
from repro.resilience.merger import CHAOS, Topology, run_merger
from repro.runtime.counters import CounterRegistry, default_registry


@pytest.fixture(scope="module")
def chaos(merger_scenario, merger_reference):
    # the process-wide registry: runtime/cuda.py tallies /cuda/quarantined
    # there whatever registry the run is handed
    registry = default_registry()
    registry.reset()
    result = run_merger(merger_scenario, Topology(), CHAOS, registry,
                        reference=merger_reference)
    return result, registry.snapshot()


@pytest.mark.slow
class TestChaosMerger:
    def test_run_completes_bit_identical_to_fault_free(self, chaos):
        res, _snap = chaos
        assert res.dist.steps == res.plan.steps
        assert res.bitwise_identical
        assert res.reports_identical
        drifts = res.dist_monitor.report()
        assert np.isfinite(list(drifts.values())).all()

    def test_every_fault_class_fired(self, chaos):
        res, snap = chaos
        net = res.net_injector.stats()
        inj = res.injector.stats()
        assert net["loss"] >= 1
        assert net["delay"] >= 1
        assert inj["action"] >= 1
        assert inj["step"] >= 1
        assert inj["corruption"] >= 1
        assert inj["torn-write"] >= 1
        assert inj["ckpt-corruption"] >= 1
        assert snap["/resilience/health/silenced"] == 1.0
        # the injector tallies made it into the shared registry too
        assert snap["/resilience/injected/loss"] == float(net["loss"])
        assert snap["/resilience/injected/corruption"] == 1.0

    def test_every_recovery_mechanism_engaged(self, chaos):
        _res, snap = chaos
        assert snap["/resilience/parcels/retries"] >= 1.0   # net layer
        assert snap["/resilience/tasks/retried"] >= 1.0     # supervisor
        assert snap["/resilience/steps/restores"] >= 1.0    # checkpoints
        assert snap["/resilience/steps/rejected"] >= 1.0    # guards
        assert snap["/cuda/quarantined"] >= 1.0             # stream health
        # recoveries stayed within their budgets
        assert snap.get("/resilience/tasks/gave-up", 0.0) == 0.0
        assert snap.get("/resilience/parcels/exhausted", 0.0) == 0.0

    def test_dead_locality_found_by_detector_not_by_hand(self, chaos):
        res, snap = chaos
        (victim,) = res.plan.kill
        assert res.killed == [victim]
        assert res.detector.detected == [victim]
        assert res.dist.agas.failed_localities == {victim}
        assert snap["/resilience/health/detected"] == 1.0
        assert snap["/resilience/health/evacuated"] >= 1.0
        # the victim's store now answers from a surviving locality
        for gid in res.stores:
            assert res.dist.agas.resolve(gid)[1] != victim

    def test_poisoned_stream_quarantined_healthy_one_not(self, chaos):
        res, snap = chaos
        # quarantine outlives the run by construction (long period), so
        # the poisoned stream 0 is still benched; its sibling only ever
        # saw isolated injected task faults (never two in a row) and is not
        assert res.quarantined_streams == [0]
        assert snap["/cuda/quarantined"] >= 1.0

    def test_no_halo_parcel_lost(self, chaos):
        res, _snap = chaos
        # every completed step broadcasts to all localities; replayed
        # steps (rollbacks now fall back past the corrupted checkpoint
        # generation) re-broadcast their generation, so the total is a
        # whole number of full broadcasts, at least one per step
        expected = res.plan.steps * res.topology.n_localities
        assert res.halo_acked >= expected
        assert res.halo_acked % res.topology.n_localities == 0
        assert res.halo_failed == 0
        # every store holds every generation it was sent (the evacuated
        # one included — migration carried its state along)
        for gid in res.stores:
            store, _loc = res.dist.agas.resolve(gid)
            assert set(store.halos) == set(
                range(1, res.plan.steps + 1))

    def test_summary_is_reportable(self, chaos):
        res, _snap = chaos
        text = res.summary()
        assert "bitwise identical state : True" in text
        assert "failed" in text

    def test_report_renders_every_counter(self, chaos):
        """The soak prints the registry with ``format_report`` after the
        summary: every path of the chaos run is a row of it, once."""
        _res, snap = chaos
        registry = CounterRegistry()
        for path, value in snap.items():
            registry.set_gauge(path, value)
        rows = [line.split()[0] for line in
                format_report(registry).splitlines()
                if line.split() and line.split()[0] in snap]
        assert sorted(rows) == sorted(snap)
