"""Stream-lease lifecycle: no leaks, timeout reclaim, stale releases."""

import threading
import time

import pytest

from repro.runtime import (CudaDevice, StreamLease, StreamPool,
                           DEFAULT_LEASE_TIMEOUT_S)
from repro.runtime.counters import default_registry


@pytest.fixture
def gpu():
    with CudaDevice(n_streams=1, n_workers=1, name="lease-gpu") as dev:
        yield dev


class TestStreamLease:
    def test_acquire_returns_lease_and_reserves(self, gpu):
        pool = StreamPool([gpu])
        lease = pool.acquire()
        assert isinstance(lease, StreamLease)
        assert lease.stream.busy()
        assert pool.acquire() is None
        lease.release()
        assert not lease.stream.busy()

    def test_enqueue_consumes_lease(self, gpu):
        pool = StreamPool([gpu])
        lease = pool.acquire()
        fut = lease.enqueue(lambda: 7)
        assert fut.get() == 7
        # release after consumption must not free someone else's claim
        lease.release()
        again = pool.acquire()
        assert again is not None
        again.release()

    def test_context_manager_releases_on_exception(self, gpu):
        pool = StreamPool([gpu])
        with pytest.raises(RuntimeError):
            with pool.acquire():
                raise RuntimeError("holder crashed before enqueue")
        # the reservation came back immediately, not after the timeout
        lease = pool.acquire()
        assert lease is not None
        lease.release()

    def test_context_manager_keeps_consumed_lease(self, gpu):
        pool = StreamPool([gpu])
        with pool.acquire() as lease:
            assert lease.enqueue(lambda: 1).get() == 1
        gpu.synchronize()
        assert not gpu.streams[0].busy()

    @pytest.mark.sanitize_tolerated

    def test_expired_lease_is_reclaimed_and_counted(self, gpu):
        reg = default_registry()
        reg.reset()
        pool = StreamPool([gpu], lease_timeout=0.05)
        leaked = pool.acquire()
        assert leaked is not None
        assert pool.acquire() is None  # still within the lease
        time.sleep(0.08)
        lease = pool.acquire()  # reclaims the leaked reservation
        assert lease is not None
        assert reg.snapshot().get("/cuda/leases-reclaimed") == 1.0
        lease.release()

    @pytest.mark.sanitize_tolerated

    def test_stale_release_cannot_clobber_new_holder(self, gpu):
        pool = StreamPool([gpu], lease_timeout=0.05)
        leaked = pool.acquire()
        time.sleep(0.08)
        current = pool.acquire()
        assert current is not None
        leaked.release()  # late release of the reclaimed token: no-op
        assert gpu.streams[0].busy()
        assert pool.acquire() is None
        current.release()

    def test_pool_validates_lease_timeout(self, gpu):
        with pytest.raises(ValueError):
            StreamPool([gpu], lease_timeout=0.0)
        assert StreamPool([gpu]).lease_timeout == DEFAULT_LEASE_TIMEOUT_S


class TestLeaseReclaimUnderFaults:
    @pytest.mark.sanitize_tolerated
    def test_faulting_holders_cannot_pin_streams(self):
        """Many threads crash between acquire and enqueue (holding their
        lease forever) while others run kernels that themselves raise.
        No stream may stay pinned, and every abandoned reservation is
        reclaimed — exactly once — under ``/cuda/leases-reclaimed``."""
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=2, n_workers=2, name="stress-gpu",
                        quarantine_threshold=None) as dev:
            pool = StreamPool([dev], lease_timeout=0.05)
            leaks = []
            leak_lock = threading.Lock()
            completed = []

            def worker(tid):
                for it in range(10):
                    deadline = time.monotonic() + 5.0
                    lease = None
                    while lease is None:
                        lease = pool.acquire()
                        if lease is None:
                            if time.monotonic() > deadline:
                                return
                            time.sleep(0.002)
                    if it % 3 == 0:
                        # holder dies between acquire and enqueue: the
                        # lease is abandoned, never released
                        with leak_lock:
                            leaks.append(lease)
                        continue
                    if it % 3 == 1:
                        fut = lease.enqueue(_bad_kernel)
                        fut.wait(5.0)
                        assert fut.has_exception()
                    else:
                        fut = lease.enqueue(lambda v=tid * 100 + it: v)
                        completed.append(fut.get(timeout=5.0))

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
                assert not t.is_alive()
            assert leaks and completed  # both behaviours really happened

            # every abandoned reservation expires and is reclaimable:
            # after the lease timeout both streams can be acquired again
            time.sleep(0.06)
            drained = []
            deadline = time.monotonic() + 5.0
            while len(drained) < 2 and time.monotonic() < deadline:
                lease = pool.acquire()
                if lease is None:
                    time.sleep(0.002)
                    continue
                drained.append(lease)
            assert len(drained) == 2  # no stream stayed pinned
            dev.synchronize()
            for lease in drained:
                lease.release()

            # each leak sets the reservation that only a reclaim (counted)
            # clears — the tallies must agree exactly
            reclaimed = reg.snapshot().get("/cuda/leases-reclaimed", 0.0)
            assert reclaimed == float(len(leaks))


def _bad_kernel():
    raise RuntimeError("kernel fault while holding the stream")
