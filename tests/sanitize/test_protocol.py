"""Adversarial tests for the lease/channel protocol checkers."""

import gc
import time

import pytest

from repro.runtime.channel import Channel, ChannelGenerationError, ChannelReset
from repro.runtime.cuda import CudaDevice, StreamPool


@pytest.fixture
def device():
    with CudaDevice(n_streams=4, n_workers=2, name="san-gpu") as dev:
        yield dev


def test_leaked_lease_reported_at_sweep(san, device):
    pool = StreamPool([device])
    with san.scope() as caught:
        lease = pool.acquire()
        assert lease is not None
        found = san.sweep()
        assert [f.kind for f in found] == ["lease-leak"]
        assert "test_protocol.py" in found[0].site
        lease.release()  # cleanup; already reported
    assert [f.kind for f in caught] == ["lease-leak"]


def test_gc_of_held_lease_reported(san, device):
    pool = StreamPool([device])
    with san.scope() as caught:
        lease = pool.acquire()
        assert lease is not None
        del lease
        gc.collect()
    assert [f.kind for f in caught] == ["lease-leak"]
    assert "dropped without" in caught[0].message


def test_lease_use_after_release_reported(san, device):
    pool = StreamPool([device])
    with san.scope() as caught:
        lease = pool.acquire()
        lease.release()
        fut = lease.enqueue(lambda: 5)  # reservation no longer ours
        assert fut.get(timeout=5.0) == 5
        device.synchronize()
    assert [f.kind for f in caught] == ["lease-reuse"]
    assert "released" in caught[0].message


def test_timeout_reclaim_reported(san, device):
    pool = StreamPool([device], lease_timeout=0.05)
    with san.scope() as caught:
        stale = pool.acquire()
        assert stale is not None
        time.sleep(0.1)
        # every stream idle but reserved-and-expired: the next acquire
        # reclaims the reservation some holder leaked
        leases = [pool.acquire() for _ in range(len(device.streams))]
        assert any(lease is not None for lease in leases)
        for lease in leases:
            if lease is not None:
                lease.release()
        stale.release()
    assert "lease-leak" in [f.kind for f in caught]
    assert any("reclaimed" in f.message for f in caught)


def test_clean_lease_lifecycles(san, device):
    pool = StreamPool([device])
    with pool.acquire() as lease:
        assert lease.enqueue(lambda: 1).get(timeout=5.0) == 1
    released = pool.acquire()
    released.release()
    device.synchronize()
    assert san.sweep() == []
    assert san.finding_count() == 0


def test_double_set_reported_and_typed(san):
    ch = Channel("san-halo")
    ch.set(10, generation=0)
    with san.scope() as caught:
        with pytest.raises(ChannelGenerationError, match="already set"):
            ch.set(11, generation=0)
    assert [f.kind for f in caught] == ["channel-reset-generation"]
    assert caught[0].details["generation"] == 0


def test_reset_consumed_generation_reported(san):
    ch = Channel("san-halo2")
    ch.set(1, generation=3)
    assert ch.get(3).get() == 1
    with san.scope() as caught:
        with pytest.raises(ChannelGenerationError, match="already consumed"):
            ch.set(2, generation=3)
    assert [f.kind for f in caught] == ["channel-reset-generation"]
    assert caught[0].details["channel"] == "san-halo2"


def test_channel_reset_is_sanctioned_reuse(san):
    """reset() is the rollback path: generation reuse afterwards is clean."""
    ch = Channel("san-halo4")
    ch.set(1, generation=0)
    assert ch.get(0).get() == 1
    pending = ch.get(7)
    ch.reset()
    with pytest.raises(ChannelReset):
        pending.get()
    ch.set(2, generation=0)  # re-used generation, no finding
    assert ch.get(0).get() == 2
    assert san.finding_count() == 0
