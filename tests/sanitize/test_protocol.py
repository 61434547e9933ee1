"""Protocol checkers: channel generations, and a clean launch path."""

import pytest

from repro.runtime.aggregate import AggregationRegion
from repro.runtime.channel import Channel, ChannelGenerationError, ChannelReset
from repro.runtime.cuda import CudaDevice, StreamPool
from repro.runtime.future import Promise


@pytest.fixture
def device():
    with CudaDevice(n_streams=4, n_workers=2, name="san-gpu") as dev:
        yield dev


def test_clean_launches_leave_no_findings(san, device):
    pool = StreamPool([device])
    assert pool.launch([(lambda: 1, ())]).get(timeout=5.0) == [(True, 1)]
    with AggregationRegion(pool, slots=2) as region:
        promise = Promise()
        region.push(lambda: 2, (), promise)
    assert promise.get_future().get(timeout=5.0) == 2
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
