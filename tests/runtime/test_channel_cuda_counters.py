"""Channels (generation-matched halos), simulated CUDA, counters."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (AggregationRegion, Channel, CounterRegistry,
                           CudaDevice, Promise, StreamPool)


class TestChannel:
    def test_set_then_get(self):
        ch = Channel()
        ch.set("a")
        assert ch.get().get() == "a"

    def test_get_then_set(self):
        """Receives may be posted before sends (Sec. 5.2)."""
        ch = Channel()
        fut = ch.get()
        assert not fut.is_ready()
        ch.set("later")
        assert fut.get() == "later"

    def test_generations_match_out_of_order(self):
        ch = Channel()
        f5 = ch.get(5)
        f3 = ch.get(3)
        ch.set("three", 3)
        ch.set("five", 5)
        assert f3.get() == "three" and f5.get() == "five"

    def test_fetch_n_timesteps_ahead(self):
        ch = Channel()
        futs = [ch.get(g) for g in range(4)]
        for g in range(4):
            ch.set(g * 10, g)
        assert [f.get() for f in futs] == [0, 10, 20, 30]

    @pytest.mark.sanitize_tolerated

    def test_duplicate_generation_set_rejected(self):
        ch = Channel()
        ch.set("x", 7)
        with pytest.raises(ValueError):
            ch.set("y", 7)

    @pytest.mark.sanitize_tolerated

    def test_reset_of_consumed_generation_rejected(self):
        """Regression: once generation g is consumed, a second set(g) must
        raise instead of silently becoming a fresh value."""
        ch = Channel()
        ch.set(1, 0)
        assert ch.get(0).get() == 1
        with pytest.raises(ValueError, match="already consumed"):
            ch.set(2, 0)

    @pytest.mark.sanitize_tolerated

    def test_reset_after_promise_match_rejected(self):
        ch = Channel()
        fut = ch.get(5)
        ch.set("v", 5)
        assert fut.get() == "v"
        with pytest.raises(ValueError, match="already consumed"):
            ch.set("w", 5)

    @pytest.mark.sanitize_tolerated

    def test_out_of_order_generations_not_falsely_rejected(self):
        """Consuming a high generation must not block a lower, never-set
        one (sparse explicit-generation traffic stays legal)."""
        ch = Channel()
        ch.set("hi", 5)
        assert ch.get(5).get() == "hi"
        ch.set("lo", 3)           # 3 was never consumed
        assert ch.get(3).get() == "lo"
        with pytest.raises(ValueError):
            ch.set("again", 3)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=30,
                    unique=True))
    @settings(max_examples=30, deadline=None)
    def test_any_interleaving_delivers_by_generation(self, gens):
        ch = Channel()
        futs = {g: ch.get(g) for g in gens}
        for g in reversed(gens):
            ch.set(g * 2, g)
        for g in gens:
            assert futs[g].get() == g * 2

    def test_cross_thread_handoff(self):
        ch = Channel()
        fut = ch.get(0)
        threading.Timer(0.01, ch.set, args=("t", 0)).start()
        assert fut.get(timeout=2.0) == "t"

    def test_receives_posted_generations_ahead_of_sends(self):
        """The Sec. 5.2 contract: a receiver may post gets N timesteps
        ahead, sends arrive later in arbitrary order from another thread,
        and every future matches its generation."""
        import random

        ch = Channel("halo-xp")
        n = 64
        futs = [ch.get(g) for g in range(n)]       # all receives first
        assert not any(f.is_ready() for f in futs)

        order = list(range(n))
        random.Random(3).shuffle(order)

        def sender():
            for g in order:
                ch.set(g * 7, g)

        t = threading.Thread(target=sender)
        t.start()
        t.join(timeout=5.0)
        assert [f.get(timeout=2.0) for f in futs] == [g * 7 for g in range(n)]

        # and the converse: a fast sender runs generations ahead of the
        # receiver, values buffer until fetched
        for g in range(n, n + 8):
            ch.set(g, g)
        late = [ch.get(g) for g in range(n, n + 8)]
        assert all(f.is_ready() for f in late)
        assert [f.get() for f in late] == list(range(n, n + 8))


def one(fn, *args):
    """A one-slot buffer: the spelling of a single-kernel launch."""
    return [(fn, args)]


def submit(region, fn, *args):
    """Buffer ``fn(*args)`` in ``region``; returns its future."""
    promise = Promise()
    region.push(fn, args, promise)
    return promise.get_future()


class TestCudaSim:
    def test_enqueue_returns_result(self):
        with CudaDevice(n_streams=4, n_workers=2) as dev:
            assert dev.streams[0].enqueue(one(lambda: 5)).get() == [(True, 5)]

    def test_stream_preserves_fifo_order(self):
        with CudaDevice(n_streams=2, n_workers=2) as dev:
            order = []
            lock = threading.Lock()

            def op(i):
                with lock:
                    order.append(i)

            futs = [dev.streams[0].enqueue(one(op, i)) for i in range(20)]
            for f in futs:
                f.get()
            assert order == list(range(20))

    def test_record_event_waits_for_frontier(self):
        with CudaDevice(n_streams=1, n_workers=1) as dev:
            results = []
            for i in range(5):
                dev.streams[0].enqueue(one(lambda i=i: results.append(i)))
            dev.streams[0].record_event().get()
            assert results == list(range(5))

    def test_record_event_on_idle_stream_is_ready(self):
        with CudaDevice(n_streams=1, n_workers=1) as dev:
            assert dev.streams[0].record_event().get() is None

    def test_synchronize_drains_all_streams(self):
        with CudaDevice(n_streams=8, n_workers=3) as dev:
            for s in dev.streams:
                for _ in range(3):
                    s.enqueue(one(time.sleep, 0.001))
            dev.synchronize()
            assert dev.kernels_executed == 24

    def test_kernel_exception_goes_to_future(self):
        with CudaDevice(n_streams=1, n_workers=1) as dev:
            [(ok, exc)] = dev.streams[0].enqueue(one(lambda: 1 / 0)).get()
            assert not ok and isinstance(exc, ZeroDivisionError)
            # stream still usable
            assert dev.streams[0].enqueue(one(lambda: "ok")).get() \
                == [(True, "ok")]

    @pytest.mark.timeout(10)
    def test_enqueue_on_shut_down_device_leaves_stream_idle(self):
        """A refused enqueue queues nothing — a queued op no worker will
        run would make ``synchronize()`` wait forever."""
        dev = CudaDevice(n_streams=1, n_workers=1)
        dev.shutdown()
        stream = dev.streams[0]
        with pytest.raises(RuntimeError, match="shut down"):
            stream.enqueue(one(lambda: 1))
        assert not stream.busy() and not stream._queue
        # the launch rule sees no idle stream on a shut-down device
        assert StreamPool([dev]).launch(one(lambda: 1)) is None
        waiter = threading.Thread(target=dev.synchronize, daemon=True)
        waiter.start()
        waiter.join(5.0)
        assert not waiter.is_alive()

    def test_work_accepted_before_shutdown_drains(self):
        """Ops queued behind a running one still resolve after shutdown."""
        dev = CudaDevice(n_streams=1, n_workers=1)
        gate = threading.Event()
        first = dev.streams[0].enqueue(one(gate.wait, 5.0))
        second = dev.streams[0].enqueue(one(lambda: "drained"))
        closer = threading.Thread(target=dev.shutdown)
        closer.start()
        gate.set()
        assert first.get(timeout=5.0) == [(True, True)]
        assert second.get(timeout=5.0) == [(True, "drained")]
        closer.join(5.0)
        assert not closer.is_alive()

    def test_launch_policy_uses_gpu_when_idle(self):
        """One slot per region is the paper's one-kernel launch rule."""
        with CudaDevice(n_streams=64, n_workers=4) as dev:
            reg = CounterRegistry()
            region = AggregationRegion(StreamPool([dev]), slots=1,
                                       registry=reg)
            futs = [submit(region, lambda: 1) for _ in range(32)]
            assert sum(f.get() for f in futs) == 32
            assert reg.value("/cuda/agg-tasks") > 0

    def test_launch_policy_falls_back_when_streams_busy(self):
        """Sec. 5.1: busy streams mean CPU execution by the caller."""
        with CudaDevice(n_streams=2, n_workers=1) as dev:
            placed = []
            region = AggregationRegion(
                StreamPool([dev]), slots=1, registry=CounterRegistry(),
                on_flush=lambda gpu, n: placed.append(gpu))
            release = threading.Event()
            blockers = [submit(region, release.wait, 5.0) for _ in range(2)]
            f = submit(region, lambda: "on cpu")
            assert f.get(timeout=1.0) == "on cpu"
            assert placed == [True, True, False]
            release.set()
            for b in blockers:
                b.get()

    def test_stream_pool_round_robins_devices(self):
        with CudaDevice(n_streams=2, n_workers=1, name="g0") as d0, \
                CudaDevice(n_streams=2, n_workers=1, name="g1") as d1:
            pool = StreamPool([d0, d1])
            gate = threading.Event()
            first = pool.launch(one(gate.wait, 5.0))
            second = pool.launch(one(gate.wait, 5.0))
            # two launches, two different streams: both are now busy
            assert [s.busy() for s in d0.streams + d1.streams] \
                == [True, True, False, False]
            gate.set()
            first.get(timeout=5.0)
            second.get(timeout=5.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            CudaDevice(n_streams=0)
        with pytest.raises(ValueError):
            StreamPool([])


class TestCounters:
    def test_counter_increments(self):
        reg = CounterRegistry()
        reg.increment("/threads/count", 2)
        reg.increment("/threads/count")
        assert reg.value("/threads/count") == 3

    def test_gauge_stores_last_value(self):
        reg = CounterRegistry()
        reg.set_gauge("/util", 0.5)
        reg.set_gauge("/util", 0.9)
        assert reg.value("/util") == 0.9

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            CounterRegistry().value("/missing")

    def test_snapshot_and_names(self):
        reg = CounterRegistry()
        reg.increment("a")
        reg.set_gauge("b", 2.0)
        assert reg.names() == ["a", "b"]
        assert reg.snapshot() == {"a": 1.0, "b": 2.0}

    def test_reset(self):
        reg = CounterRegistry()
        reg.increment("a")
        reg.reset()
        assert reg.names() == []
