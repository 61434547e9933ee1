"""Parcelport cost models: the Sec. 6.3 mechanism list as properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (EAGER_BYTES, DragonflyTopology, MessageCost,
                           PARCELPORTS, Parcelport)

LF = PARCELPORTS["libfabric"]
MPI = PARCELPORTS["mpi"]


class TestCatalogue:
    def test_both_ports_exist(self):
        assert set(PARCELPORTS) == {"mpi", "libfabric"}

    def test_mpi_is_two_sided(self):
        assert MPI.rendezvous and not LF.rendezvous

    def test_libfabric_is_zero_copy(self):
        """Sec. 5.2: pinned RMA buffers avoid internal copies."""
        assert LF.copy_per_byte == 0.0 and MPI.copy_per_byte > 0.0

    def test_libfabric_lower_base_overheads(self):
        assert LF.send_overhead < MPI.send_overhead
        assert LF.recv_overhead < MPI.recv_overhead
        assert LF.latency < MPI.latency


class TestMessageCost:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LF.message_cost(-1)

    def test_total_is_sum_of_parts(self):
        c = LF.message_cost(1000)
        assert c.total == pytest.approx(c.sender_cpu + c.wire
                                        + c.receiver_cpu)

    def test_rendezvous_kicks_in_above_eager(self):
        small = MPI.message_cost(EAGER_BYTES)
        large = MPI.message_cost(EAGER_BYTES + 1)
        # the round-trip adds two extra latencies beyond the one-byte delta
        assert large.wire - small.wire > 1.5 * MPI.latency

    def test_libfabric_has_no_rendezvous_jump(self):
        small = LF.message_cost(EAGER_BYTES)
        large = LF.message_cost(EAGER_BYTES + 1)
        assert large.wire - small.wire < 0.1 * LF.latency + 1e-9

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=50, deadline=None)
    def test_wire_time_monotone_in_size(self, size):
        a = LF.message_cost(size)
        b = LF.message_cost(size + 4096)
        assert b.wire >= a.wire

    def test_hops_increase_latency(self):
        near = LF.message_cost(100, hops=1)
        far = LF.message_cost(100, hops=4)
        assert far.wire > near.wire

    def test_mpi_interference_scales_with_senders_and_intensity(self):
        """Sec. 5.2: MPI locking interferes with the scheduler."""
        quiet = MPI.message_cost(100, concurrent_senders=1,
                                 comm_intensity=1.0)
        busy = MPI.message_cost(100, concurrent_senders=12,
                                comm_intensity=1.0)
        idle_comm = MPI.message_cost(100, concurrent_senders=12,
                                     comm_intensity=0.0)
        assert busy.sender_cpu > quiet.sender_cpu
        assert idle_comm.sender_cpu == pytest.approx(quiet.sender_cpu)

    def test_libfabric_poll_delay_when_workers_busy(self):
        """Sec. 6.3: nobody polls completions while all cores compute."""
        relaxed = LF.message_cost(100, busy_fraction=0.0,
                                  concurrent_senders=1)
        busy = LF.message_cost(100, busy_fraction=1.0, concurrent_senders=1)
        assert busy.receiver_cpu > relaxed.receiver_cpu

    def test_idle_contention_when_workers_starved(self):
        """Sec. 6.3: 'if no work is available, all cores compete for
        access to the network'."""
        calm = MPI.message_cost(100, busy_fraction=1.0,
                                concurrent_senders=12)
        starved = MPI.message_cost(100, busy_fraction=0.0,
                                   concurrent_senders=12)
        assert starved.receiver_cpu > calm.receiver_cpu

    def test_large_message_crossover(self):
        """For big halos libfabric must beat MPI on every component."""
        size = 64 * 1024
        a = LF.message_cost(size, concurrent_senders=12, busy_fraction=0.5,
                            comm_intensity=0.5)
        b = MPI.message_cost(size, concurrent_senders=12, busy_fraction=0.5,
                             comm_intensity=0.5)
        assert a.total < b.total


class TestSharedEagerConstant:
    def test_cost_model_and_serializer_share_the_threshold(self):
        """The eager/rendezvous boundary must be one constant: the cost
        model (network) and the parcel serializer (runtime) can never
        disagree."""
        from repro.network import parcelport
        from repro.runtime.parcel import EAGER_THRESHOLD
        assert parcelport.EAGER_BYTES is EAGER_THRESHOLD
        assert EAGER_BYTES == EAGER_THRESHOLD


class TestPortStats:
    def test_message_cost_tallies_components(self):
        from repro.network import parcelport
        parcelport.reset_port_stats()
        MPI.message_cost(100)                 # eager
        MPI.message_cost(EAGER_BYTES + 100)   # rendezvous
        LF.message_cost(EAGER_BYTES + 100)    # one-sided RMA
        mpi = parcelport.port_stats("mpi").snapshot()
        lf = parcelport.port_stats("libfabric").snapshot()
        assert mpi["messages"] == 2 and lf["messages"] == 1
        assert mpi["eager"] == 1 and mpi["rendezvous"] == 1 and mpi["rma"] == 0
        assert lf["eager"] == 0 and lf["rendezvous"] == 0 and lf["rma"] == 1
        assert mpi["sender_cpu"] > 0 and mpi["wire"] > 0 \
            and mpi["receiver_cpu"] > 0

    def test_publish_counters_into_registry(self):
        from repro.network import parcelport
        from repro.runtime import CounterRegistry
        parcelport.reset_port_stats()
        MPI.message_cost(10)
        MPI.message_cost(EAGER_BYTES * 2)
        reg = CounterRegistry()
        parcelport.publish_counters(reg)
        assert reg.value("/parcels/mpi/messages") == 2.0
        assert reg.value("/parcels/mpi/eager-fraction") == pytest.approx(0.5)
        assert reg.value("/parcels/mpi/rendezvous") == 1.0

    def test_reset(self):
        from repro.network import parcelport
        parcelport.reset_port_stats()
        LF.message_cost(1)
        parcelport.reset_port_stats()
        assert parcelport.port_stats("libfabric").messages == 0


class TestTopology:
    def test_zero_hops_to_self(self):
        topo = DragonflyTopology(100)
        assert topo.hops(5, 5) == 0

    def test_same_router_one_hop(self):
        topo = DragonflyTopology(100)
        assert topo.hops(0, 3) == 1

    def test_same_group_two_hops(self):
        topo = DragonflyTopology(1000)
        assert topo.hops(0, 100) == 2

    def test_cross_group_four_hops(self):
        topo = DragonflyTopology(5400)
        assert topo.hops(0, 5000) == 4

    def test_symmetry(self):
        topo = DragonflyTopology(5400)
        for a, b in [(0, 1), (0, 500), (17, 4999)]:
            assert topo.hops(a, b) == topo.hops(b, a)

    def test_out_of_range_rejected(self):
        topo = DragonflyTopology(10)
        with pytest.raises(ValueError):
            topo.hops(0, 10)

    def test_mean_hops(self):
        topo = DragonflyTopology(1000)
        assert 0.0 < topo.mean_hops(0, [1, 2, 500, 900]) <= 4.0
