"""Engine-level work aggregation: accounting, fast path, bit-identity."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockMesh, ExecutionEngine
from repro.core.scenario import equilibrium_star
from repro.resilience.supervisor import SupervisedEngine
from repro.runtime import (CounterRegistry, CudaDevice,
                           WorkStealingScheduler)
from repro.runtime.counters import default_registry


def make_star_block(engine=None):
    return BlockMesh.retile(equilibrium_star(n=16, domain=4.0),
                            engine=engine)


class TestLaunchReconciliation:
    def test_every_placement_is_counted(self):
        """/cuda/launched/gpu + /cuda/launched/cpu == /exec/tasks across
        device, use_device=False and stream-less dispatch."""
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=4, n_workers=2, name="rec-gpu") as gpu:
            engine = ExecutionEngine(devices=[gpu], agg_slots=4)
            bare = ExecutionEngine(agg_slots=4)  # no pool at all
            futs = engine.map(lambda x: x, [(i,) for i in range(9)])
            futs += engine.map(lambda x: x, [(i,) for i in range(5)],
                               use_device=False)
            futs += bare.map(lambda x: x, [(i,) for i in range(3)])
            for f in futs:
                f.get(timeout=5.0)
            engine.synchronize()
            engine.publish_counters(reg)
            bare.publish_counters(reg)
        snap = reg.snapshot()
        assert snap.get("/cuda/launched/gpu", 0.0) \
            + snap.get("/cuda/launched/cpu", 0.0) == snap.get("/exec/tasks")
        assert snap.get("/exec/tasks") == 17.0
        # the stream-less engine and use_device=False were counted as CPU
        assert snap.get("/cuda/launched/cpu", 0.0) >= 8.0
        assert engine.gpu_launches + engine.cpu_launches == 14
        assert bare.cpu_launches == 3 and bare.gpu_launches == 0

    def test_publish_counters_gauges_reconcile(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=4, n_workers=2, name="rec-gpu2") as gpu:
            engine = ExecutionEngine(devices=[gpu], agg_slots=4)
            futs = engine.map(lambda x: x * 2, [(i,) for i in range(8)])
            assert [f.get(timeout=5.0) for f in futs] \
                == [2 * i for i in range(8)]
            engine.synchronize()
            engine.publish_counters(reg)
        snap = reg.snapshot()
        assert snap.get("/exec/launched/gpu") \
            + snap.get("/exec/launched/cpu") == snap.get("/exec/tasks")
        assert snap.get("/exec/gpu-fraction") == pytest.approx(
            engine.gpu_fraction)
        assert snap.get("/cuda/aggregated-per-launch") == pytest.approx(
            engine.aggregated_per_launch)

    def test_aggregation_ratio_reflects_slot_buffering(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=4, n_workers=2, name="agg-gpu") as gpu:
            engine = ExecutionEngine(devices=[gpu], agg_slots=4)
            futs = engine.map(lambda x: x, [(i,) for i in range(8)])
            for f in futs:
                f.get(timeout=5.0)
            engine.synchronize()
            engine.publish_counters(reg)
        # 8 kernels in 2 aggregated launches of 4 slots each
        assert engine.agg_launches == 2
        assert engine.agg_tasks == 8
        assert engine.aggregated_per_launch == pytest.approx(4.0)
        assert reg.snapshot().get("/cuda/aggregated-per-launch") \
            == pytest.approx(4.0)

    def test_aggregate_false_degrades_to_single_slot(self):
        with CudaDevice(n_streams=4, n_workers=2, name="one-gpu") as gpu:
            engine = ExecutionEngine(devices=[gpu], agg_slots=1)
            futs = engine.map(lambda x: -x, [(i,) for i in range(6)])
            assert [f.get(timeout=5.0) for f in futs] \
                == [-i for i in range(6)]
            engine.synchronize()
        if engine.agg_launches:
            assert engine.aggregated_per_launch == pytest.approx(1.0)

    def test_agg_slots_validation(self):
        with pytest.raises(ValueError):
            ExecutionEngine(agg_slots=0)


class TestCountAfterEnqueue:
    def test_shut_down_device_is_not_a_gpu_launch(self):
        """Regression: work meant for a dead device used to be pre-counted
        as a GPU launch.  A shut-down device has no idle stream, so the
        kernels overflow to the CPU and the gauges reconcile."""
        reg = default_registry()
        reg.reset()
        gpu = CudaDevice(n_streams=2, n_workers=1, name="dead-gpu")
        engine = ExecutionEngine(devices=[gpu], agg_slots=4)
        gpu.shutdown()  # no stream takes a launch any more
        futs = engine.map(lambda x: x + 1, [(i,) for i in range(6)])
        assert [f.get(timeout=5.0) for f in futs] == list(range(1, 7))
        snap = reg.snapshot()
        assert engine.gpu_launches == 0
        assert engine.cpu_launches == 6
        assert snap.get("/cuda/launched/gpu", 0.0) == 0.0
        assert snap.get("/cuda/launched/cpu") == 6.0
        assert snap.get("/cuda/agg-launches", 0.0) == 0.0
        assert snap.get("/cuda/launched/cpu") == snap.get("/exec/tasks")

    def test_poisoned_kernels_still_count_as_placed(self):
        """Stream faults happen *after* the enqueue: the placement was
        real, so the launch counters must not unwind."""
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="sick-gpu",
                        quarantine_threshold=5) as gpu:
            gpu.streams[0].poison()  # every kernel faults, forever
            engine = ExecutionEngine(devices=[gpu], agg_slots=4)
            futs = engine.map(lambda x: x, [(i,) for i in range(4)])
            failed = 0
            for f in futs:
                f.wait(5.0)
                failed += f.has_exception()
            engine.synchronize()
        snap = reg.snapshot()
        assert failed == 4
        assert engine.gpu_launches == 4  # placed, even though they faulted
        assert snap.get("/cuda/launched/gpu") + \
            snap.get("/cuda/launched/cpu", 0.0) == snap.get("/exec/tasks")

    @pytest.mark.timeout(10)
    def test_shut_down_device_leaves_engine_synchronizable(self):
        """CPU overflow from a dead device leaves nothing queued on it,
        so the barrier behind ``synchronize()`` returns."""
        reg = CounterRegistry()
        gpu = CudaDevice(n_streams=2, n_workers=1, name="dead-gpu2")
        engine = ExecutionEngine(devices=[gpu], registry=reg, agg_slots=4)
        gpu.shutdown()
        futs = engine.map(lambda x: x + 1, [(i,) for i in range(4)])
        # one flush, no stream to take it, every slot from the CPU run
        assert [f.get(timeout=5.0) for f in futs] == [1, 2, 3, 4]
        assert reg.snapshot().get("/cuda/launched/cpu") == 4.0
        assert (engine.gpu_launches, engine.cpu_launches) == (0, 4)
        assert not any(s.busy() for s in gpu.streams)
        waiter = threading.Thread(target=engine.synchronize, daemon=True)
        waiter.start()
        waiter.join(5.0)
        assert not waiter.is_alive()


class TestOneLaunchRule:
    """The GPU-else-CPU rule is written once (``AggregationRegion._flush``);
    every engine shape must obey it."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_kernels=st.integers(0, 24), n_streams=st.integers(1, 6),
           agg_slots=st.sampled_from([1, 4, 16]), threaded=st.booleans())
    def test_placement_rule_over_engine_shapes(self, san, n_kernels,
                                               n_streams, agg_slots,
                                               threaded):
        gate = threading.Event()

        def kernel(i):
            # a kernel that reached the device holds its stream until the
            # gate opens; an overflowed one runs straight through
            if threading.current_thread().name.startswith("rule-gpu-sm-"):
                gate.wait(5.0)
            return i

        reg = CounterRegistry()
        sched = WorkStealingScheduler(2) if threaded else None
        try:
            with CudaDevice(n_streams=n_streams, n_workers=2,
                            name="rule-gpu") as gpu:
                engine = ExecutionEngine(scheduler=sched, devices=[gpu],
                                         registry=reg, agg_slots=agg_slots)
                futs = engine.map(kernel, [(i,) for i in range(n_kernels)])
                if sched is not None:
                    sched.wait_idle()
                # gates shut: no stream has come back yet, so the rule's
                # GPU branch was taken at most once per stream
                placed = engine.gpu_launches + engine.cpu_launches
                assert placed == n_kernels
                if agg_slots == 1:
                    assert engine.gpu_launches == min(n_kernels, n_streams)
                assert engine.agg_launches <= n_streams
                gate.set()
                assert [f.get(timeout=5.0) for f in futs] \
                    == list(range(n_kernels))
                engine.synchronize()
        finally:
            gate.set()
            if sched is not None:
                sched.shutdown()
        snap = reg.snapshot()
        assert snap.get("/cuda/launched/gpu", 0.0) \
            + snap.get("/cuda/launched/cpu", 0.0) \
            == snap.get("/exec/tasks") == n_kernels
        # no launch future left unresolved
        assert san.sweep() == []


class TestSingleTaskFastPath:
    def test_submit_posts_once(self):
        """A one-chunk batch skips the fan-out double-hop: exactly one
        scheduler post, not a fan-out task plus the chunk."""
        with WorkStealingScheduler(2) as sched:
            engine = ExecutionEngine(scheduler=sched, agg_slots=4)
            sched.wait_idle()
            before = sched.stats.posted
            fut = engine.submit(lambda: 41 + 1)
            assert fut.get(timeout=5.0) == 42
            sched.wait_idle()
            assert sched.stats.posted - before == 1

    def test_multi_chunk_batch_still_fans_out(self):
        with WorkStealingScheduler(2) as sched:
            engine = ExecutionEngine(scheduler=sched, agg_slots=2)
            sched.wait_idle()
            before = sched.stats.posted
            futs = engine.map(lambda x: x, [(i,) for i in range(6)])
            assert [f.get(timeout=5.0) for f in futs] == list(range(6))
            sched.wait_idle()
            # one fan-out post plus three chunk tasks
            assert sched.stats.posted - before == 4


class TestAggregatedMeshStep:
    def test_two_steps_bit_identical_with_tiny_slot_buffer(self):
        """Forcing many buffer-full flushes must not change a single bit
        of the V1309 step (recorded-order accumulation replay)."""
        reg = default_registry()
        reg.reset()
        serial = make_star_block()
        for _ in range(2):
            serial.step()

        with WorkStealingScheduler(2) as sched, \
                CudaDevice(n_streams=8, n_workers=4, name="agg-mesh") as gpu:
            engine = ExecutionEngine(scheduler=sched, devices=[gpu],
                                     agg_slots=3)
            fut = make_star_block(engine=engine)
            for _ in range(2):
                fut.step()
            engine.synchronize()
            engine.publish_counters(reg)
            state_s = serial.gather_interior()
            state_f = fut.gather_interior()

        assert state_s.tobytes() == state_f.tobytes()
        assert np.array_equal(fut.phi, serial.phi)
        snap = reg.snapshot()
        assert snap.get("/cuda/agg-flush/full", 0.0) > 0.0
        assert engine.aggregated_per_launch > 1.0
        assert snap.get("/cuda/launched/gpu", 0.0) \
            + snap.get("/cuda/launched/cpu", 0.0) == snap.get("/exec/tasks")


class TestSupervisedAggregation:
    def test_quarantined_mid_region_tasks_are_reexecuted(self):
        """A stream that sickens mid-region faults its slots; supervision
        re-executes them (placement re-decided, quarantined stream
        skipped) and the books still balance."""
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="sup-gpu",
                        quarantine_threshold=2,
                        quarantine_period=60.0) as gpu:
            gpu.streams[0].poison(count=4)
            engine = ExecutionEngine(devices=[gpu], agg_slots=2)
            sup = SupervisedEngine(engine)
            futs = sup.map(lambda x: x * x, [(i,) for i in range(8)])
            assert [f.get(timeout=5.0) for f in futs] \
                == [i * i for i in range(8)]
            sup.synchronize()
            # the first slot buffer drew the poison twice in a row
            assert gpu.streams[0].quarantined()
        snap = reg.snapshot()
        assert snap.get("/resilience/tasks/retried") == 2.0
        assert snap.get("/resilience/tasks/recovered") == 2.0
        assert snap.get("/resilience/tasks/gave-up", 0.0) == 0.0
        # 8 first attempts + 2 re-executions, every placement counted
        assert snap.get("/exec/tasks") == 10.0
        assert snap.get("/cuda/launched/gpu") == 2.0
        assert snap.get("/cuda/launched/cpu") == 8.0
