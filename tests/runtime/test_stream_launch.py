"""StreamPool.launch: one check, one launch — never two buffers per stream."""

import sys
import threading
import time

import pytest

from repro.runtime import CudaDevice, StreamPool


@pytest.fixture
def fast_switching():
    """Shrink the GIL switch interval so thread races interleave densely."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def launch_concurrently(pool, n_threads, kernel):
    """``n_threads`` threads released by one barrier each launch a
    one-slot buffer; returns the futures (``None`` for a refused launch)."""
    barrier = threading.Barrier(n_threads, timeout=5.0)
    got = []
    lock = threading.Lock()

    def launch():
        barrier.wait()
        fut = pool.launch([(kernel, ())])
        with lock:
            got.append(fut)

    threads = [threading.Thread(target=launch) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    return got


def wait_idle(stream, timeout=5.0):
    """Poll until the device worker has handed ``stream`` back."""
    deadline = time.monotonic() + timeout
    while stream.busy():
        assert time.monotonic() < deadline
        time.sleep(0.001)


class TestLaunch:
    def test_launch_returns_slot_outcomes_and_occupies_stream(self):
        with CudaDevice(n_streams=1, n_workers=1, name="launch-gpu") as gpu:
            pool = StreamPool([gpu])
            gate = threading.Event()
            fut = pool.launch([(gate.wait, (5.0,)), (lambda: 7, ())])
            assert fut is not None
            assert gpu.streams[0].busy()
            assert pool.launch([(lambda: 8, ())]) is None  # still in flight
            gate.set()
            assert fut.get(timeout=5.0) == [(True, True), (True, 7)]

    def test_raising_kernel_does_not_pin_its_stream(self):
        with CudaDevice(n_streams=1, n_workers=1, name="launch-gpu",
                        quarantine_threshold=2) as gpu:
            pool = StreamPool([gpu])
            [(ok, exc)] = pool.launch([(_bad_kernel, ())]).get(timeout=5.0)
            assert not ok and isinstance(exc, RuntimeError)
            wait_idle(gpu.streams[0])
            # the stream came straight back, not after some timeout
            assert pool.launch([(lambda: 1, ())]).get(timeout=5.0) \
                == [(True, 1)]


class TestStreamPoolLaunch:
    """Regression for the double hand-out race: the idle check and the
    launch are one step, so concurrent launchers can never put two
    buffers on one idle stream."""

    @pytest.mark.parametrize("n_streams", [1, 4])
    def test_concurrent_launch_never_duplicates(self, fast_switching,
                                                n_streams):
        """8 launchers, a kernel that blocks until released: exactly one
        launch per stream gets a future, every other launcher gets None."""
        with CudaDevice(n_streams=n_streams, n_workers=1, name="race") as dev:
            pool = StreamPool([dev])
            for _ in range(100):
                gate = threading.Event()
                try:
                    futs = launch_concurrently(pool, 8, gate.wait)
                    launched = [f for f in futs if f is not None]
                    assert len(futs) == 8
                    assert len(launched) == n_streams
                    assert all(s.busy() for s in dev.streams)
                finally:
                    gate.set()
                for f in launched:
                    f.get(timeout=5.0)
                for s in dev.streams:
                    wait_idle(s)

    def test_launched_stream_reports_busy_until_drained(self):
        with CudaDevice(n_streams=1, n_workers=1) as dev:
            pool = StreamPool([dev])
            release = threading.Event()
            fut = pool.launch([(release.wait, (5.0,))])
            s = dev.streams[0]
            assert s.busy()
            assert pool.launch([(lambda: 1, ())]) is None
            release.set()
            fut.get(timeout=5.0)
            wait_idle(s)
            assert pool.launch([(lambda: 2, ())]).get(timeout=5.0) \
                == [(True, 2)]

    def test_direct_enqueue_bypasses_the_idle_check(self):
        """Streams used without the pool queue FIFO behind busy work."""
        with CudaDevice(n_streams=1, n_workers=1) as dev:
            release = threading.Event()
            first = StreamPool([dev]).launch([(release.wait, (5.0,))])
            second = dev.streams[0].enqueue([(lambda: 11, ())])
            release.set()
            assert first.get(timeout=5.0) == [(True, True)]
            assert second.get(timeout=5.0) == [(True, 11)]


class TestLaunchUnderFaults:
    def test_faulting_kernels_cannot_pin_streams(self):
        """Many threads launch kernels, some of which raise, while others
        find every stream busy.  No stream may stay pinned afterwards."""
        with CudaDevice(n_streams=2, n_workers=2, name="stress-gpu",
                        quarantine_threshold=100) as dev:
            pool = StreamPool([dev])
            faults = []
            completed = []

            def worker(tid):
                for it in range(10):
                    bad = it % 3 == 1
                    kernel = _bad_kernel if bad else (
                        lambda v=tid * 100 + it: v)
                    deadline = time.monotonic() + 5.0
                    fut = pool.launch([(kernel, ())])
                    while fut is None:
                        if time.monotonic() > deadline:
                            return
                        time.sleep(0.002)
                        fut = pool.launch([(kernel, ())])
                    [(ok, value)] = fut.get(timeout=5.0)
                    (completed if ok else faults).append(value)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
                assert not t.is_alive()
            assert len(faults) == 6 * 3 and len(completed) == 6 * 7

            # both streams come back: two concurrent launches both land
            for s in dev.streams:
                wait_idle(s)
            gate = threading.Event()
            held = [pool.launch([(gate.wait, (5.0,))]) for _ in range(2)]
            assert all(f is not None for f in held)
            gate.set()
            dev.synchronize()


def _bad_kernel():
    raise RuntimeError("kernel fault while holding the stream")
