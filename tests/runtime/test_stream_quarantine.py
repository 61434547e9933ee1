"""Stream health: fault streaks, quarantine, probation, poison."""

import time

import pytest

from repro.core.exec import ExecutionEngine
from repro.runtime.faults import TransientActionFault
from repro.runtime import CudaDevice, StreamPool
from repro.runtime.counters import default_registry


def run_kernel(gpu, pool, fn):
    """Launch ``fn`` as a one-slot buffer and wait until its stream is
    idle again; returns the slot's ``(ok, value_or_exception)``."""
    fut = pool.launch([(fn, ())])
    assert fut is not None
    [outcome] = fut.get(timeout=5.0)
    deadline = time.monotonic() + 5.0
    while any(s.busy() for s in gpu.streams):
        assert time.monotonic() < deadline
        time.sleep(0.001)
    return outcome


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
                assert not run_kernel(gpu, pool, boom)[0]
            assert gpu.streams[0].quarantined()
            assert pool.launch([(lambda: 1, ())]) is None  # the only stream
            assert reg.snapshot()["/cuda/quarantined"] == 1.0

    def test_success_resets_the_streak(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=60.0) as gpu:
            pool = StreamPool([gpu])
            assert not run_kernel(gpu, pool, boom)[0]
            assert run_kernel(gpu, pool, lambda: 1) == (True, 1)  # broken
            assert not run_kernel(gpu, pool, boom)[0]
            assert not gpu.streams[0].quarantined()

    def test_probation_readmits_then_requarantines_on_one_fault(self):
        """An expired quarantine is re-admitted by the next launch, counted
        once under /cuda/readmitted; one more fault re-quarantines it."""
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=0.05) as gpu:
            pool = StreamPool([gpu])
            for _ in range(2):
                run_kernel(gpu, pool, boom)
            assert pool.launch([(lambda: 1, ())]) is None
            assert reg.snapshot().get("/cuda/readmitted", 0.0) == 0.0
            time.sleep(0.08)  # quarantine served: probation re-admission
            assert not run_kernel(gpu, pool, boom)[0]  # ONE fault on probation
            assert gpu.streams[0].quarantined()
            assert pool.launch([(lambda: 1, ())]) is None
            snap = reg.snapshot()
            assert snap["/cuda/quarantined"] == 2.0
            assert snap["/cuda/readmitted"] == 1.0

    def test_probation_success_restores_full_threshold(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=2,
                        quarantine_period=0.05) as gpu:
            pool = StreamPool([gpu])
            for _ in range(2):
                run_kernel(gpu, pool, boom)
            time.sleep(0.08)
            assert run_kernel(gpu, pool, lambda: "ok") == (True, "ok")
            # back to the full threshold: one fault is not enough
            run_kernel(gpu, pool, boom)
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

    def test_faults_below_threshold_keep_the_stream_in_service(self):
        with CudaDevice(n_streams=1, n_workers=1, name="q-gpu",
                        quarantine_threshold=6) as gpu:
            pool = StreamPool([gpu])
            for _ in range(5):
                run_kernel(gpu, pool, boom)
            assert not gpu.streams[0].quarantined()
            assert run_kernel(gpu, pool, lambda: 1) == (True, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            CudaDevice(n_streams=1, quarantine_threshold=0)
        with pytest.raises(TypeError):
            CudaDevice(n_streams=1, quarantine_threshold=None)
        with pytest.raises(ValueError):
            CudaDevice(n_streams=1, quarantine_period=0.0)


class TestPoison:
    def test_poison_count_surfaces_transient_faults(self):
        with CudaDevice(n_streams=1, n_workers=1, name="p-gpu",
                        quarantine_threshold=3) as gpu:
            gpu.streams[0].poison(count=2)
            pool = StreamPool([gpu])
            for _ in range(2):
                ok, exc = run_kernel(gpu, pool, lambda: 1)
                assert not ok and isinstance(exc, TransientActionFault)
            # poison exhausted: the stream computes again
            assert run_kernel(gpu, pool, lambda: 1) == (True, 1)

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
                        quarantine_threshold=2) as gpu:
            gpu.streams[0].poison(
                count=1, exc_factory=lambda: OSError("xid error"))
            ok, exc = run_kernel(gpu, StreamPool([gpu]), lambda: 0)
            assert not ok
            assert isinstance(exc, OSError) and "xid" in str(exc)
