"""Stream health: fault streaks, quarantine, probation, poison."""

import time

import pytest

from repro.core.exec import ExecutionEngine
from repro.runtime.faults import TransientActionFault
from repro.runtime import CudaDevice, StreamPool
from repro.runtime.counters import default_registry


def run_kernel(pool, fn):
    """Acquire-enqueue-wait one kernel through the pool; returns future."""
    lease = pool.acquire()
    assert lease is not None
    with lease:
        fut = lease.enqueue(fn)
    fut.wait(5.0)
    return fut


def boom():
    raise RuntimeError("kernel crashed")


class TestQuarantine:
    def test_consecutive_faults_quarantine_the_stream(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=60.0) as gpu:
            pool = StreamPool([gpu])
            for _ in range(2):
                assert run_kernel(pool, boom).has_exception()
            gpu.synchronize()
            assert gpu.streams[0].quarantined()
            assert pool.acquire() is None  # the only stream is sick
            assert reg.snapshot()["/cuda/quarantined"] == 1.0

    def test_success_resets_the_streak(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=60.0) as gpu:
            pool = StreamPool([gpu])
            assert run_kernel(pool, boom).has_exception()
            assert run_kernel(pool, lambda: 1).get() == 1  # streak broken
            assert run_kernel(pool, boom).has_exception()
            gpu.synchronize()
            assert not gpu.streams[0].quarantined()

    def test_probation_readmits_then_requarantines_on_one_fault(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=0.05) as gpu:
            pool = StreamPool([gpu])
            for _ in range(2):
                run_kernel(pool, boom)
            gpu.synchronize()
            assert pool.acquire() is None
            time.sleep(0.08)  # quarantine served: probation re-admission
            fut = run_kernel(pool, boom)  # ONE fault on probation
            assert fut.has_exception()
            gpu.synchronize()
            assert gpu.streams[0].quarantined()
            snap = reg.snapshot()
            assert snap["/cuda/quarantined"] == 2.0
            assert snap["/cuda/readmitted"] == 1.0

    def test_probation_success_restores_full_threshold(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=0.05) as gpu:
            pool = StreamPool([gpu])
            for _ in range(2):
                run_kernel(pool, boom)
            gpu.synchronize()
            time.sleep(0.08)
            assert run_kernel(pool, lambda: "ok").get() == "ok"
            # back to the full threshold: one fault is not enough
            run_kernel(pool, boom)
            gpu.synchronize()
            assert not gpu.streams[0].quarantined()

    def test_quarantined_stream_overflows_to_cpu(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=1,
                        quarantine_period=60.0) as gpu:
            eng = ExecutionEngine(devices=[gpu])
            eng.submit(boom).wait(5.0)
            gpu.synchronize()
            # the only stream is now quarantined: work still completes,
            # via the CPU-overflow half of the launch rule
            assert eng.submit(lambda: 5).get(timeout=5.0) == 5
            assert eng.cpu_launches >= 1

    def test_threshold_none_disables_tracking(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=None) as gpu:
            pool = StreamPool([gpu])
            for _ in range(5):
                run_kernel(pool, boom)
            gpu.synchronize()
            assert not gpu.streams[0].quarantined()
            lease = pool.acquire()
            assert lease is not None
            lease.release()

    def test_validation(self):
        with pytest.raises(ValueError):
            CudaDevice(n_streams=1, quarantine_threshold=0)
        with pytest.raises(ValueError):
            CudaDevice(n_streams=1, quarantine_period=0.0)


class TestPoison:
    def test_poison_count_surfaces_transient_faults(self):
        with CudaDevice(n_streams=1, n_workers=1, name="p-gpu",
                        quarantine_threshold=None) as gpu:
            gpu.streams[0].poison(count=2)
            pool = StreamPool([gpu])
            for _ in range(2):
                fut = run_kernel(pool, lambda: 1)
                with pytest.raises(TransientActionFault):
                    fut.get()
            # poison exhausted: the stream computes again
            assert run_kernel(pool, lambda: 1).get() == 1

    def test_permanent_poison_quarantines(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=2, n_workers=1, name="p-gpu",
                        quarantine_threshold=2,
                        quarantine_period=60.0) as gpu:
            gpu.streams[0].poison()  # forever
            eng = ExecutionEngine(devices=[gpu])
            # keep submitting; the poisoned stream faults its way into
            # quarantine while stream 1 and the CPU absorb the work
            results = []
            for i in range(12):
                fut = eng.submit(lambda i=i: i)
                try:
                    results.append(fut.get(timeout=5.0))
                except TransientActionFault:
                    pass
            gpu.synchronize()
            assert gpu.streams[0].quarantined()
            assert not gpu.streams[1].quarantined()
            assert reg.snapshot()["/cuda/quarantined"] == 1.0

    def test_custom_poison_exception(self):
        with CudaDevice(n_streams=1, n_workers=1, name="p-gpu",
                        quarantine_threshold=None) as gpu:
            gpu.streams[0].poison(
                count=1, exc_factory=lambda: OSError("xid error"))
            pool = StreamPool([gpu])
            fut = run_kernel(pool, lambda: 0)
            with pytest.raises(OSError, match="xid"):
                fut.get()
