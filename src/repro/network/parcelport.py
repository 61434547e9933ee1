"""Parcelport cost/behaviour models.

Section 6.3 of the paper attributes the libfabric-vs-MPI gap to a specific
list of mechanisms; this module turns that list into an explicit cost model
that the discrete-event simulator charges per message:

* explicit RMA for halo buffers (no rendezvous round-trip for large
  payloads in the libfabric port, an extra handshake in the MPI one);
* lower send/receive latency per parcel;
* direct control of memory copies (a per-byte copy tax in the MPI port,
  pinned pre-registered buffers in the libfabric port);
* reduced overhead between a completion event and setting the future;
* a lock-free polling interface vs MPI's internal locking, which
  "interfere[s] with the smooth running of the HPX runtime" — modelled as
  a progress-interference term that grows with the number of concurrently
  communicating worker threads;
* the known libfabric weakness at small scale (Fig. 3 dips below 1):
  "if all cores are busy with work, no polling is done" — modelled as a
  polling delay proportional to how busy the node's workers are.

All times are in seconds, sizes in bytes.  The constants are calibrated so
the Fig. 2 / Fig. 3 *shapes* (crossover, ~2.8x at the largest runs) emerge;
see EXPERIMENTS.md for paper-vs-measured values.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: eager/rendezvous switch-over — the single shared constant, so the cost
#: model and the parcel serializer can never disagree on the boundary
from ..runtime.parcel import EAGER_THRESHOLD as EAGER_BYTES
from ..runtime.counters import CounterRegistry, default_registry

__all__ = ["MessageCost", "Parcelport", "PARCELPORTS", "EAGER_BYTES",
           "PortStats", "port_stats", "reset_port_stats", "publish_counters"]


class PortStats:
    """Per-transport tallies of every :meth:`Parcelport.message_cost` call.

    The paper's APEX counters expose network throughput per parcelport;
    here each cost-model evaluation is tallied by port name — message and
    byte counts, the eager/rendezvous/RMA path split, and the accumulated
    cost components (sender CPU, wire, receiver CPU seconds).
    """

    __slots__ = ("messages", "bytes", "eager", "rendezvous", "rma",
                 "sender_cpu", "wire", "receiver_cpu")

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.eager = 0
        self.rendezvous = 0
        self.rma = 0
        self.sender_cpu = 0.0
        self.wire = 0.0
        self.receiver_cpu = 0.0

    def snapshot(self) -> dict[str, float]:
        return {s: getattr(self, s) for s in self.__slots__}


_stats_lock = threading.Lock()
_port_stats: dict[str, PortStats] = {}


def port_stats(name: str) -> PortStats:
    """The accumulated tallies for transport ``name`` (created on demand)."""
    with _stats_lock:
        st = _port_stats.get(name)
        if st is None:
            st = _port_stats[name] = PortStats()
        return st


def reset_port_stats() -> None:
    with _stats_lock:
        _port_stats.clear()


def publish_counters(registry: CounterRegistry | None = None) -> None:
    """Publish ``/parcels/<port>/...`` gauges into ``registry``."""
    registry = registry or default_registry()
    with _stats_lock:
        snaps = {name: st.snapshot() for name, st in _port_stats.items()}
    for name, snap in snaps.items():
        for key, value in snap.items():
            registry.set_gauge(f"/parcels/{name}/{key}", float(value))
        total = snap["messages"]
        registry.set_gauge(f"/parcels/{name}/eager-fraction",
                           snap["eager"] / total if total else 0.0)


@dataclass(frozen=True)
class MessageCost:
    """Decomposed cost of moving one parcel between two nodes.

    ``sender_cpu`` and ``receiver_cpu`` are charged to worker cores (they
    compete with compute tasks); ``wire`` is pure network time that
    futurization can overlap with computation.
    """

    sender_cpu: float
    wire: float
    receiver_cpu: float

    @property
    def total(self) -> float:
        return self.sender_cpu + self.wire + self.receiver_cpu


@dataclass(frozen=True)
class Parcelport:
    """A named transport with the paper's cost mechanisms as parameters.

    Parameters
    ----------
    latency:
        Base one-way wire latency for a small message (s).
    bandwidth:
        Effective per-link bandwidth (B/s) after protocol overheads.
    send_overhead / recv_overhead:
        CPU time consumed on each side to inject/retire a message (s).
    copy_per_byte:
        CPU time per payload byte spent copying between user buffers and
        the transport (zero-copy RMA ports set this to ~0).
    rendezvous:
        True if payloads above ``EAGER_BYTES`` need a request/ack
        round-trip before the data moves (two-sided MPI semantics).
    progress_interference:
        Extra CPU overhead per message *per concurrently communicating
        worker*, modelling internal transport locking that stalls the task
        scheduler (the MPI pathology of Sec. 5.2).
    poll_delay_busy:
        Added delivery delay when the destination's workers are fully busy
        and nobody polls the completion queue (the libfabric small-scale
        penalty of Sec. 6.3 / Fig. 3).
    """

    name: str
    latency: float
    bandwidth: float
    send_overhead: float
    recv_overhead: float
    copy_per_byte: float
    rendezvous: bool
    progress_interference: float
    poll_delay_busy: float
    idle_contention: float
    #: receive-side multiplier under an unthrottled many-to-one message
    #: storm (start-up/regridding): two-sided transports scan a linearly
    #: growing unexpected-message queue per unmatched receive, one-sided
    #: RMA does not.  Applied only when message_cost(storm=True).
    storm_factor: float = 1.0

    def message_cost(self, size: int, hops: int = 1,
                     concurrent_senders: int = 1,
                     busy_fraction: float = 0.0,
                     comm_intensity: float = 1.0,
                     storm: bool = False) -> MessageCost:
        """Cost of one parcel of ``size`` bytes over ``hops`` network hops.

        ``concurrent_senders`` and ``comm_intensity`` (0..1, the fraction
        of node time spent communicating) scale the progress-interference
        term — MPI's internal locking only hurts when many workers hit the
        transport often; ``busy_fraction`` (0..1) scales the polling delay
        — completions sit unnoticed while every worker is computing.
        """
        if size < 0:
            raise ValueError("negative message size")
        hop_latency = self.latency * (1.0 + 0.15 * max(hops - 1, 0))
        wire = hop_latency + size / self.bandwidth
        if self.rendezvous and size > EAGER_BYTES:
            # request + ack round trip before the payload moves
            wire += 2.0 * hop_latency
        sender = (self.send_overhead
                  + self.copy_per_byte * size
                  + self.progress_interference * max(concurrent_senders - 1, 0)
                  * comm_intensity)
        receiver = (self.recv_overhead
                    + self.copy_per_byte * size
                    + self.poll_delay_busy * busy_fraction
                    + self.idle_contention * (1.0 - busy_fraction)
                    * max(concurrent_senders - 1, 0))
        if storm:
            receiver *= self.storm_factor
        cost = MessageCost(sender, wire, receiver)
        st = port_stats(self.name)
        with _stats_lock:
            st.messages += 1
            st.bytes += size
            if size <= EAGER_BYTES:
                st.eager += 1
            elif self.rendezvous:
                st.rendezvous += 1
            else:
                st.rma += 1
            st.sender_cpu += cost.sender_cpu
            st.wire += cost.wire
            st.receiver_cpu += cost.receiver_cpu
        return cost


def _mpi() -> Parcelport:
    """Two-sided Cray-MPICH-like transport (the HPX default parcelport)."""
    return Parcelport(
        name="mpi",
        latency=1.7e-6,
        bandwidth=5.5e9,          # effective, after extra copies
        send_overhead=0.99e-6,    # Isend + parcel encode
        recv_overhead=1.35e-6,    # matching + unexpected-message queue
        copy_per_byte=1.1e-10,    # one extra copy at ~9 GB/s on each side
        rendezvous=True,
        progress_interference=0.36e-6,
        poll_delay_busy=0.0,      # MPI progresses inside its own calls
        idle_contention=19.2e-6,  # idle workers serialize on MPI's locks
        storm_factor=5.0,         # unexpected-message queue scans
    )


def _libfabric() -> Parcelport:
    """One-sided libfabric/GNI transport (the paper's new parcelport)."""
    return Parcelport(
        name="libfabric",
        latency=1.1e-6,
        bandwidth=9.5e9,          # RMA from pinned buffers, near line rate
        send_overhead=0.27e-6,    # lock-free injection
        recv_overhead=0.315e-6,   # completion event -> future, no matching
        copy_per_byte=0.0,        # zero-copy RMA (Biddiscombe et al. 2017)
        rendezvous=False,         # one-sided put/get, no handshake
        progress_interference=0.0225e-6,
        poll_delay_busy=10.0e-6,  # nobody polls while all workers compute
        idle_contention=8.0e-6,   # lock-free, but cores still contend
        storm_factor=1.0,         # RMA has no matching queue
    )


#: transport catalogue used by the scaling experiments
PARCELPORTS: dict[str, Parcelport] = {
    "mpi": _mpi(),
    "libfabric": _libfabric(),
}
