"""HaloTransport: local tally, parcelport charging, reordering."""

import numpy as np
import pytest

from repro.network.parcelport import EAGER_BYTES, PARCELPORTS, port_stats
from repro.network.transport import HaloTransport
from repro.runtime.channel import Channel
from repro.sanitize import schedules


class _FakeChannel:
    """Records (value, generation) deliveries in arrival order."""

    def __init__(self):
        self.delivered = []

    def set(self, value, generation):
        self.delivered.append((value, generation))


def _buf(nbytes):
    return np.zeros(nbytes, dtype=np.uint8)


class TestPaths:
    def test_local_send_is_not_charged(self):
        """A same-locality halo is the mesh's direct copy: the transport
        only tallies it, and refuses to carry one as a parcel."""
        tr = HaloTransport("libfabric")
        tr.tally_local(1, 100)
        tr.tally_local(3, 60)
        assert tr.stats.local_msgs == 4
        assert tr.stats.local_bytes == 160
        assert tr.stats.remote_msgs == 0
        assert tr.port_snapshot()["messages"] == 0
        ch = _FakeChannel()
        with pytest.raises(ValueError, match="within locality 1"):
            tr.send(ch, _buf(100), 3, src_locality=1, dst_locality=1)
        assert ch.delivered == []
        assert tr.stats.local_msgs == 4
        assert tr.port_snapshot()["messages"] == 0

    def test_remote_send_is_charged_to_the_halo_port(self):
        tr = HaloTransport("libfabric")
        ch = _FakeChannel()
        tr.send(ch, _buf(100), 0, src_locality=0, dst_locality=1)
        assert tr.stats.remote_msgs == 1
        snap = tr.port_snapshot()
        assert snap["messages"] == 1
        assert snap["bytes"] == 100
        assert tr.port.name == "halo:libfabric"
        # the base transport's own tallies are untouched
        assert tr.base_port.name == "libfabric"

    def test_eager_rendezvous_rma_split(self):
        small, big = EAGER_BYTES, EAGER_BYTES + 1
        for port, large_path in (("mpi", "rendezvous"),
                                 ("libfabric", "rma")):
            tr = HaloTransport(port)
            ch = _FakeChannel()
            tr.send(ch, _buf(small), 0, 0, 1)
            tr.send(ch, _buf(big), 1, 0, 1)
            assert tr.stats.eager == 1
            assert getattr(tr.stats, large_path) == 1
            snap = tr.port_snapshot()
            assert snap["eager"] == 1
            assert snap[large_path] == 1

    def test_onesided_charge(self):
        tr = HaloTransport("mpi")
        tr.charge_onesided(512, 0, 0)   # same locality: free
        assert tr.stats.onesided_msgs == 0
        tr.charge_onesided(512, 0, 1)
        assert tr.stats.onesided_msgs == 1
        assert tr.stats.onesided_bytes == 512
        assert tr.port_snapshot()["messages"] == 1

    def test_port_instance_accepted(self):
        tr = HaloTransport(PARCELPORTS["mpi"])
        assert tr.port.name == "halo:mpi"
        assert tr.port.rendezvous


class TestReordering:
    def test_without_seed_delivery_is_immediate_and_in_order(self):
        tr = HaloTransport("libfabric")
        ch = _FakeChannel()
        for gen in range(5):
            tr.send(ch, _buf(8), gen, 0, 1)
        assert [g for _v, g in ch.delivered] == list(range(5))
        assert tr.flush() == 0
        assert tr.stats.reordered == 0

    def test_seeded_flush_shuffles_but_delivers_everything(self):
        tr = HaloTransport("libfabric", reorder_seed=123)
        ch = _FakeChannel()
        for gen in range(16):
            tr.send(ch, _buf(8), gen, 0, 1)
        assert ch.delivered == []          # buffered until flush
        assert tr.flush() == 16
        gens = [g for _v, g in ch.delivered]
        assert sorted(gens) == list(range(16))
        assert gens != list(range(16))     # 1/16! chance, seed-fixed
        assert tr.stats.reordered == 16

    def test_same_seed_same_order(self):
        """Same (reorder seed, schedule seed) -> same delivery order."""
        orders = []
        explorer = schedules.EXPLORER
        for _ in range(2):
            if explorer is not None:
                # under REPRO_SCHEDULE_SEED the flush order also draws from
                # the explorer's "transport-flush" stream, which the first
                # run would leave advanced: restart it from its seed
                schedules.install(explorer.seed, explorer.intensity)
            tr = HaloTransport("libfabric", reorder_seed=7)
            ch = _FakeChannel()
            for gen in range(12):
                tr.send(ch, _buf(8), gen, 0, 1)
            tr.flush()
            orders.append([g for _v, g in ch.delivered])
        assert orders[0] == orders[1]

    def test_local_sends_never_buffered(self):
        """The local tally never touches the reorder buffer."""
        tr = HaloTransport("libfabric", reorder_seed=1)
        tr.tally_local(1, 8)
        assert tr.flush() == 0
        assert tr.discard_pending() == 0
        assert tr.stats.reordered == 0

    def test_discard_pending_drops_but_keeps_the_charge(self):
        tr = HaloTransport("libfabric", reorder_seed=1)
        ch = _FakeChannel()
        tr.send(ch, _buf(8), 0, 0, 1)
        assert tr.discard_pending() == 1
        assert tr.flush() == 0
        assert ch.delivered == []
        # the bytes travelled before the rollback; the charge stands
        assert tr.port_snapshot()["messages"] == 1
        assert tr.stats.remote_msgs == 1

    def test_reordered_delivery_matches_real_channel_generations(self):
        """Generation matching makes the shuffle invisible: every get
        resolves to the value sent for its generation."""
        tr = HaloTransport("libfabric", reorder_seed=99)
        ch = Channel(name="halo")
        futures = {gen: ch.get(gen) for gen in range(8)}
        for gen in range(8):
            tr.send(ch, np.full(4, float(gen)), gen, 0, 1)
        tr.flush()
        for gen, fut in futures.items():
            np.testing.assert_array_equal(fut.get(), np.full(4, float(gen)))


class TestReconciliation:
    def test_reconciles_counts_exactly(self):
        tr = HaloTransport("mpi")
        ch = _FakeChannel()
        tr.tally_local(1, 64)                        # local, uncharged
        tr.send(ch, _buf(64), 1, 0, 1)               # eager
        tr.send(ch, _buf(EAGER_BYTES + 1), 2, 1, 0)  # rendezvous
        tr.charge_onesided(32, 0, 1)
        assert tr.reconciles()

    def test_baseline_isolates_later_transports(self):
        """Port tallies are global by name; the construction-time
        baseline keeps a fresh transport's snapshot exact even after
        earlier transports already charged the same halo port."""
        before = port_stats("halo:libfabric").messages
        a = HaloTransport("libfabric")
        ch = _FakeChannel()
        a.send(ch, _buf(8), 0, 0, 1)
        assert a.port_snapshot()["messages"] == pytest.approx(1)
        assert a.reconciles()
        b = HaloTransport("libfabric")   # baseline excludes a's traffic
        b.send(ch, _buf(8), 0, 0, 1)
        b.send(ch, _buf(8), 1, 0, 1)
        assert b.port_snapshot()["messages"] == pytest.approx(2)
        assert b.reconciles()
        # the shared global tally saw all three
        assert port_stats("halo:libfabric").messages == before + 3
