"""Active-message parcels.

"Active messages are used to transfer data and trigger a function on a
remote node; we refer to the triggering of remote functions with bound
arguments as *actions* and the messages containing the serialized data and
remote function as *parcels*" (Sec. 5.2).

A :class:`Parcel` carries a destination GID, an action name, pickled
arguments and bookkeeping for the transport layer (serialized size, whether
any argument is large enough to go through the RMA path — the paper's
"user/packed data buffers larger than the eager message size threshold are
encoded as pointers and exchanged ... using one-sided RMA put/get").

:class:`ParcelHandler` decodes parcels and invokes the action through AGAS,
recording per-action statistics.  The cost of moving a parcel across a
network is the business of :mod:`repro.network`.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..sanitize import racecheck as _racecheck
from ..sanitize import schedules as _schedules
from ..sanitize import state as _sanitize_state
from .agas import AgasRuntime, Gid
from .future import Future

__all__ = ["Parcel", "ParcelHandler", "EAGER_THRESHOLD", "serialized_size"]

#: Messages at or below this many bytes travel in the eager path; larger
#: payloads use rendezvous (MPI model) or RMA get (libfabric model).
EAGER_THRESHOLD = 4096


def serialized_size(args: tuple[Any, ...]) -> int:
    """Approximate wire size of an argument tuple in bytes.

    ndarray payloads count their buffer size (they would be RMA'd, not
    pickled, in the real transport); everything else is measured by pickle.
    """
    total = 0
    plain: list[Any] = []
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.nbytes
        else:
            plain.append(a)
    if plain:
        total += len(pickle.dumps(plain, protocol=pickle.HIGHEST_PROTOCOL))
    return total


@dataclass
class Parcel:
    """A serialized action invocation in flight."""

    destination: Gid
    action: str
    args: tuple[Any, ...] = ()
    #: filled in by __post_init__
    size_bytes: int = field(default=0)
    #: True when at least one buffer exceeds the eager threshold
    uses_rma: bool = field(default=False)
    #: per-parcel sequence number, useful for tracing/tests
    seq: int = field(default=-1)

    _counter = 0
    _counter_lock = threading.Lock()

    def __post_init__(self) -> None:
        self.size_bytes = serialized_size(self.args) + self._header_bytes()
        self.uses_rma = any(
            isinstance(a, np.ndarray) and a.nbytes > EAGER_THRESHOLD
            for a in self.args)
        with Parcel._counter_lock:
            Parcel._counter += 1
            self.seq = Parcel._counter
        if _sanitize_state.ACTIVE:
            # send edge: the sender's writes to the payload happen-before
            # delivery (the handler recvs on this parcel's seq)
            _racecheck.send(("parcel", self.seq))

    def _header_bytes(self) -> int:
        # GID (16) + action name + framing, mirroring HPX parcel headers
        return 16 + len(self.action) + 32


class ParcelHandler:
    """Receives parcels and executes their actions through AGAS."""

    def __init__(self, agas: AgasRuntime):
        self.agas = agas
        self._lock = threading.Lock()
        self.received = 0
        self.bytes_received = 0
        self.per_action: dict[str, int] = {}

    def deliver(self, parcel: Parcel) -> Future:
        """Decode and run the parcel's action; returns the action's future."""
        exp = _schedules.EXPLORER
        if exp is not None:
            exp.pause("parcel-deliver")
        if _sanitize_state.ACTIVE:
            _racecheck.recv(("parcel", parcel.seq))
        with self._lock:
            self.received += 1
            self.bytes_received += parcel.size_bytes
            self.per_action[parcel.action] = self.per_action.get(parcel.action, 0) + 1
        return self.agas.async_action(parcel.destination, parcel.action, *parcel.args)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "received": self.received,
                "bytes_received": self.bytes_received,
                "per_action": dict(self.per_action),
            }
