"""Halo transport: the accounting seam between a mesh and the parcelport.

The distributed :class:`~repro.core.distmesh.DistBlockMesh` stores each
locality's blocks in boxes and decides the route of every box-to-box
halo rectangle — periodic images across a seam included — from the AGAS
homes of the two boxes (frozen with the layout for one homes map), and
books each one here:

* **local tally** — sender and receiver share a locality; the mesh copies
  the rectangle straight out of the neighbour box's memory (an
  intra-node copy, exactly what HPX does when the AGAS resolution is
  local) and :meth:`~HaloTransport.tally_local` counts it: no channel, no
  parcelport charge, nothing to reorder (cells inside one box are never
  copied at all);
* **remote path** — all the halos of one directed locality pair are one
  parcel per stage (HPX's unit: one active message per destination
  locality): :meth:`~HaloTransport.send` charges the packed payload to a
  *dedicated* port (the configured transport renamed ``halo:<name>``, so
  ``/parcels/halo:...`` counters isolate halo traffic from other parcel
  users: eager vs rendezvous vs RMA by ``EAGER_BYTES``), then delivers it
  into the route's generation-matched
  :class:`~repro.runtime.channel.Channel` (Sec. 5.2).  ``remote_msgs``
  therefore counts route payloads, ``remote_bytes`` the halo bytes inside
  them.  With a ``reorder_seed`` the deliveries of one stage are buffered
  and :meth:`~HaloTransport.flush`-ed in a seeded random order — the
  generation matching of the channel protocol is what makes that
  reordering invisible to the receiver, and the distributed tests assert
  exactly that;
* **one-sided charge** — not a halo route: the checkpoint store of
  :mod:`repro.resilience.durability` puts block replicas and manifests
  straight into another locality's shard, and fetches them back on
  recovery; :meth:`~HaloTransport.charge_onesided` books each such
  cross-locality RMA so the port's tallies reconcile with the
  transport's.

The transport keeps its own tallies (:class:`TransportStats`) so a test
can reconcile them against the port's ``/parcels/halo:<name>/*`` stats:
``remote_msgs + onesided_msgs == port messages`` must hold exactly.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..sanitize import racecheck as _racecheck
from ..sanitize import schedules as _schedules
from ..sanitize import state as _sanitize_state
from .parcelport import EAGER_BYTES, PARCELPORTS, Parcelport, port_stats

__all__ = ["HaloTransport", "TransportStats"]


class TransportStats:
    """Tallies of every halo moved (or charged) through one transport."""

    __slots__ = ("local_msgs", "local_bytes", "remote_msgs", "remote_bytes",
                 "onesided_msgs", "onesided_bytes", "eager", "rendezvous",
                 "rma", "reordered")

    def __init__(self) -> None:
        self.local_msgs = 0
        self.local_bytes = 0
        self.remote_msgs = 0
        self.remote_bytes = 0
        self.onesided_msgs = 0
        self.onesided_bytes = 0
        self.eager = 0
        self.rendezvous = 0
        self.rma = 0
        self.reordered = 0

    def snapshot(self) -> dict[str, int]:
        return {s: getattr(self, s) for s in self.__slots__}


class HaloTransport:
    """Tally same-locality halos; charge cross-locality ones and deliver
    them into their channels.

    Parameters
    ----------
    port:
        Base transport (a :class:`Parcelport` or a name from
        :data:`PARCELPORTS`).  The instance actually charged is a copy
        renamed ``halo:<name>`` so halo traffic owns its
        ``/parcels/halo:<name>/*`` stats.
    reorder_seed:
        When not ``None``, remote deliveries are buffered per stage and
        :meth:`flush` hands them to the channels in a seeded random
        order, modelling out-of-order parcel arrival.  Local halos never
        come through here (there is no wire to reorder them on).
    """

    def __init__(self, port: Parcelport | str = "libfabric",
                 reorder_seed: int | None = None):
        if isinstance(port, str):
            port = PARCELPORTS[port]
        self.base_port = port
        self.port = replace(port, name=f"halo:{port.name}")
        self.stats = TransportStats()
        self._rng = (None if reorder_seed is None
                     else random.Random(reorder_seed))
        self._pending: list[tuple] = []
        #: port tallies are process-global by name; remember what was
        #: already there so this transport's snapshot is exact even when
        #: several meshes share the halo port in one process
        self._baseline = port_stats(self.port.name).snapshot()

    # -- local tally ----------------------------------------------------------

    def tally_local(self, msgs: int, nbytes: int) -> None:
        """Count ``msgs`` same-locality halos of ``nbytes`` in total that
        the mesh copied directly: never charged, never reordered."""
        self.stats.local_msgs += msgs
        self.stats.local_bytes += nbytes

    # -- channel path ---------------------------------------------------------

    def send(self, channel, value, generation: int,
             src_locality: int, dst_locality: int) -> None:
        """Publish ``value`` for ``generation`` on ``channel``, charged to
        the parcelport as one message and — under a reorder seed —
        buffered until :meth:`flush`.  ``value`` is a route's packed
        payload: every halo slab ``src_locality`` owes ``dst_locality``
        this stage.  Cross-locality only: a same-locality halo is a
        direct copy booked with :meth:`tally_local`, and sending one would
        charge the wire for bytes that never left the node.
        """
        if src_locality == dst_locality:
            raise ValueError(
                f"halo send within locality {src_locality}: same-locality "
                "halos are direct copies (tally_local), not parcels")
        nbytes = int(getattr(value, "nbytes", 0) or len(value))
        if _sanitize_state.ACTIVE:
            # the payload is read (serialized) at send time: any
            # unsynchronized later write to it would corrupt the wire copy
            _racecheck.access(value, "r",
                              owner=f"halo:{getattr(channel, 'name', '?')}")
        self._charge(nbytes)
        st = self.stats
        st.remote_msgs += 1
        st.remote_bytes += nbytes
        if self._rng is None:
            channel.set(value, generation)
        else:
            self._pending.append((channel, value, generation))

    def flush(self) -> int:
        """Deliver buffered remote sends in a seeded random order.

        Must be called before the receives of the stage are drained (the
        futures would otherwise never resolve); returns the number of
        deliveries.  A no-op without a reorder seed.
        """
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        self._rng.shuffle(batch)
        exp = _schedules.EXPLORER
        if exp is not None:
            # explorer permutation on top of the transport's own seeded
            # shuffle: generation matching must absorb any arrival order
            batch = exp.permute("transport-flush", batch)
        for channel, value, generation in batch:
            channel.set(value, generation)
        self.stats.reordered += len(batch)
        return len(batch)

    def discard_pending(self) -> int:
        """Drop buffered remote sends without delivering them.

        Used on checkpoint rollback: the buffered route payloads belong to
        the timeline being discarded, and their channels are about to be
        reset.  Their parcelport charge stands — the bytes did travel.
        """
        dropped = len(self._pending)
        self._pending.clear()
        return dropped

    # -- one-sided path -------------------------------------------------------

    def charge_onesided(self, nbytes: int, src_locality: int,
                        dst_locality: int) -> None:
        """Book the cost of a direct (channel-less) one-sided transfer.

        Checkpoint replication puts a block's payload straight into a
        buddy's store (and recovery fetches it back); when the two
        localities differ that transfer crosses the wire and must be
        charged like one.
        """
        if src_locality == dst_locality:
            return
        self._charge(nbytes)
        self.stats.onesided_msgs += 1
        self.stats.onesided_bytes += nbytes

    # -- accounting -----------------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        self.port.message_cost(nbytes)
        st = self.stats
        if nbytes <= EAGER_BYTES:
            st.eager += 1
        elif self.port.rendezvous:
            st.rendezvous += 1
        else:
            st.rma += 1

    def port_snapshot(self) -> dict[str, float]:
        """The ``/parcels`` tallies this transport added to its halo port."""
        snap = port_stats(self.port.name).snapshot()
        return {k: snap[k] - self._baseline[k] for k in snap}

    def reconciles(self) -> bool:
        """Every cross-locality halo charged — and nothing else."""
        snap = self.port_snapshot()
        st = self.stats
        return (int(snap["messages"]) == st.remote_msgs + st.onesided_msgs
                and int(snap["bytes"]) == st.remote_bytes + st.onesided_bytes
                and int(snap["eager"]) == st.eager
                and int(snap["rendezvous"]) == st.rendezvous
                and int(snap["rma"]) == st.rma)
