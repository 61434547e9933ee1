"""Work aggregation: slot buffers, flush triggers, launch accounting."""

import pytest

from repro.runtime import (AggregationRegion, CudaDevice, Promise,
                           StreamPool, trace)
from repro.runtime.counters import default_registry


def make_pool(gpu):
    return StreamPool([gpu])


def submit(region, fn, *args):
    """Buffer ``fn(*args)`` in ``region``; returns its future."""
    promise = Promise()
    region.push(fn, args, promise)
    return promise.get_future()


class TestFlushTriggers:
    def test_buffer_full_auto_flushes(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=2, n_workers=1, name="agg-gpu") as gpu:
            region = AggregationRegion(make_pool(gpu), slots=3)
            futs = [submit(region, lambda x=x: x * 10) for x in range(3)]
            # the third push filled the buffer: launched before exit
            assert [f.get(timeout=5.0) for f in futs] == [0, 10, 20]
            gpu.synchronize()
        snap = reg.snapshot()
        assert snap.get("/cuda/agg-flush/full") == 1.0
        assert snap.get("/cuda/agg-launches") == 1.0
        assert snap.get("/cuda/agg-tasks") == 3.0

    def test_exit_flushes_the_remainder(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=2, n_workers=1, name="agg-gpu") as gpu:
            with AggregationRegion(make_pool(gpu), slots=16) as region:
                futs = [submit(region, lambda x=x: -x) for x in range(5)]
            assert [f.get(timeout=5.0) for f in futs] == [0, -1, -2, -3, -4]
            gpu.synchronize()
        snap = reg.snapshot()
        assert snap.get("/cuda/agg-flush/exit") == 1.0
        assert snap.get("/cuda/aggregated-per-launch", None) is None  # gauge
        assert snap.get("/cuda/agg-launches") == 1.0
        assert snap.get("/cuda/agg-tasks") == 5.0

    def test_empty_flush_is_a_noop(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="agg-gpu") as gpu:
            with AggregationRegion(make_pool(gpu), slots=4):
                pass
            assert gpu.kernels_executed == 0
        assert reg.snapshot().get("/cuda/agg-launches", 0.0) == 0.0

    def test_slots_validation(self):
        with pytest.raises(ValueError):
            AggregationRegion(None, slots=0)


class TestOrderingAndIdentity:
    def test_futures_resolve_in_slot_order_across_flushes(self):
        """Determinism contract: per-kernel futures map 1:1 onto slots,
        in push order, however the buffer was cut into launches."""
        with CudaDevice(n_streams=4, n_workers=2, name="agg-gpu") as gpu:
            with AggregationRegion(make_pool(gpu), slots=4) as region:
                futs = [submit(region, lambda i=i: i) for i in range(11)]
            got = [f.get(timeout=5.0) for f in futs]
            gpu.synchronize()
        assert got == list(range(11))

    def test_cpu_region_runs_inline_in_order(self):
        order = []

        def record(i):
            order.append(i)
            return i

        placed = []
        with AggregationRegion(None, slots=4,
                               on_flush=lambda g, n: placed.append((g, n))
                               ) as region:
            futs = [submit(region, record, i) for i in range(10)]
        assert [f.get(timeout=0.0) for f in futs] == list(range(10))
        assert order == list(range(10))
        assert placed == [(False, 4), (False, 4), (False, 2)]

    def test_slot_exception_is_isolated(self):
        def boom():
            raise ValueError("slot 1 crashed")

        with CudaDevice(n_streams=1, n_workers=1, name="agg-gpu") as gpu:
            with AggregationRegion(make_pool(gpu), slots=8) as region:
                ok1 = submit(region, lambda: 1)
                bad = submit(region, boom)
                ok2 = submit(region, lambda: 2)
            assert ok1.get(timeout=5.0) == 1
            with pytest.raises(ValueError, match="slot 1"):
                bad.get(timeout=5.0)
            assert ok2.get(timeout=5.0) == 2
            gpu.synchronize()


class TestLaunchAccounting:
    def test_aggregated_launch_counts_every_slot(self):
        """kernels-executed advances by the slot count, not by 1."""
        with CudaDevice(n_streams=1, n_workers=1, name="agg-gpu") as gpu:
            with AggregationRegion(make_pool(gpu), slots=8) as region:
                futs = [submit(region, lambda: None) for _ in range(6)]
            for f in futs:
                f.wait(5.0)
            gpu.synchronize()
            assert gpu.kernels_executed == 6

    def test_on_flush_reports_gpu_and_cpu_placements(self):
        events = []
        with CudaDevice(n_streams=1, n_workers=1, name="agg-gpu") as gpu:
            with AggregationRegion(make_pool(gpu), slots=2,
                                   on_flush=lambda g, n: events.append((g, n))
                                   ) as region:
                futs = [submit(region, lambda: 0) for _ in range(2)]
            for f in futs:
                f.wait(5.0)
            gpu.synchronize()
        assert events == [(True, 2)]
        with AggregationRegion(None, slots=2,
                               on_flush=lambda g, n: events.append((g, n))
                               ) as region:
            submit(region, lambda: 0).wait(1.0)
        assert events == [(True, 2), (False, 1)]

    @pytest.mark.timeout(10)
    def test_shut_down_device_overflows_every_slot_to_cpu(self):
        """A shut-down device has no idle stream: every buffer runs on
        the CPU, is counted there and never as a GPU launch, and nothing
        waits on the dead device."""
        reg = default_registry()
        reg.reset()
        gpu = CudaDevice(n_streams=2, n_workers=1, name="dead-gpu")
        gpu.shutdown()
        events = []
        with AggregationRegion(make_pool(gpu), slots=4,
                               on_flush=lambda g, n: events.append((g, n))
                               ) as region:
            futs = [submit(region, lambda x=x: x + 1) for x in range(6)]
        assert [f.get(timeout=1.0) for f in futs] == [1, 2, 3, 4, 5, 6]
        assert events == [(False, 4), (False, 2)]  # CPU only, no launch
        assert not any(s.busy() for s in gpu.streams)
        assert reg.snapshot().get("/cuda/agg-launches", 0.0) == 0.0


class TestStreamHealth:
    def test_poison_drawn_per_slot_not_per_launch(self):
        """A sick stream faults individual slots; healthy slots of the
        same aggregated launch still compute."""
        with CudaDevice(n_streams=1, n_workers=1, name="agg-gpu",
                        quarantine_threshold=3) as gpu:
            gpu.streams[0].poison(count=2)
            with AggregationRegion(make_pool(gpu), slots=8) as region:
                futs = [submit(region, lambda i=i: i) for i in range(4)]
            outcomes = []
            for f in futs:
                f.wait(5.0)
                outcomes.append(not f.has_exception())
            gpu.synchronize()
        # first two slots drew the poison, the rest computed
        assert outcomes == [False, False, True, True]
        assert futs[2].get(timeout=0.0) == 2

    def test_aggregated_faults_quarantine_the_stream(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="agg-gpu",
                        quarantine_threshold=2,
                        quarantine_period=60.0) as gpu:
            gpu.streams[0].poison()  # permanent
            pool = make_pool(gpu)
            with AggregationRegion(pool, slots=4) as region:
                futs = [submit(region, lambda: 1) for _ in range(2)]
            for f in futs:
                f.wait(5.0)
            gpu.synchronize()
            assert gpu.streams[0].quarantined()
            assert pool.launch([(lambda: 1, ())]) is None
        assert reg.snapshot().get("/cuda/quarantined") == 1.0


class TestSlotBufferOp:
    def test_one_op_one_span_per_buffer(self):
        """A slot buffer is one stream op: one launch future carrying
        every slot's outcome, one ``cuda`` span, every slot executed."""
        def kernel(x):
            return x + 1

        trace.clear()
        trace.enable()
        try:
            with CudaDevice(n_streams=1, n_workers=1, name="op-gpu") as gpu:
                fut = gpu.streams[0].enqueue([(kernel, (1,)), (kernel, (2,))])
                assert fut.get(timeout=5.0) == [(True, 2), (True, 3)]
                gpu.synchronize()
                assert gpu.kernels_executed == 2
            spans = [e for e in trace.default_recorder().events()
                     if e["ph"] == "X" and e["cat"] == "cuda"]
        finally:
            trace.disable()
            trace.clear()
        assert [(e["name"], e["args"]) for e in spans] == [
            ("kernel", {"device": "op-gpu", "stream": 0, "slots": 2})]
