"""HPX channels.

"The asynchronous send/receive abstraction in HPX has been extended with
the concept of a channel that the receiving end may fetch futures from (for
N timesteps ahead if desired) and the sending end may push data into as it
is generated" (Sec. 5.2).

Octo-Tiger uses one channel per neighbour direction per sub-grid for halo
exchange; the key property is that *receives may be posted before sends*
(the future is handed out immediately and satisfied later) and values are
matched strictly by generation number, so a fast neighbour can run several
timesteps ahead without overwriting anything.

Protocol violations raise typed errors (the :class:`ChannelError`
hierarchy) and — when the sanitizers are enabled — are additionally
recorded as ``channel-reset-generation`` findings, so a caller that
swallows the exception cannot also swallow the report.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

from ..sanitize import lockdep as _sanitize_lockdep
from ..sanitize import racecheck as _racecheck
from ..sanitize import schedules as _schedules
from ..sanitize import state as _sanitize_state
from .future import Future, Promise

__all__ = ["Channel", "ChannelError", "ChannelReset", "ChannelGenerationError"]

T = TypeVar("T")


class ChannelError(RuntimeError):
    """Base class for channel protocol violations."""


class ChannelReset(ChannelError):
    """Raised into gets outstanding when :meth:`Channel.reset` discards them."""


class ChannelGenerationError(ChannelError, ValueError):
    """Raised on a re-``set`` of a generation (already set or consumed).

    Also a :class:`ValueError` for backwards compatibility with callers
    (and tests) written against the untyped error this used to be.
    """


class Channel(Generic[T]):
    """A generation-indexed single-producer mailbox of futures.

    ``set(value, generation)`` fulfils the matching ``get(generation)``;
    either side may go first.  Without explicit generations the channel
    behaves as a FIFO pipe (auto-incrementing counters on each side).

    **Generation protocol.**  Each generation number moves through at most
    three states, in order: *unset* → *set* (a value is buffered or an
    outstanding get is fulfilled) → *consumed* (the value was matched to a
    get).  The transitions are single-shot:

    * a generation may be ``set`` at most once —
      :class:`ChannelGenerationError` on a re-set, whether the first value
      is still buffered ("already set") or was already matched ("already
      consumed").  Halo exchange relies on this: a double-set means two
      timesteps computed the same boundary, and silently keeping either
      value would hide the divergence;
    * :meth:`reset` (checkpoint rollback) is the one sanctioned way to
      re-use generation numbers: it discards all generation state and
      fails outstanding gets with :class:`ChannelReset`.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = _sanitize_lockdep.make_lock("channel.Channel")
        self._promises: dict[int, Promise] = {}
        self._ready: dict[int, Any] = {}
        self._next_get = 0
        self._next_set = 0
        # consumed-generation tracking: a contiguous floor (every
        # generation below it has been matched) plus the sparse set of
        # matched generations at or above it — bounded for in-order
        # traffic, exact for out-of-order explicit generations.
        self._consumed_floor = 0
        self._consumed: set[int] = set()

    def get(self, generation: int | None = None) -> Future:
        """Future for the value of ``generation`` (default: next in order)."""
        with self._lock:
            if generation is None:
                generation = self._next_get
            if generation in self._ready:
                value = self._ready.pop(generation)
                self._next_get = max(self._next_get, generation + 1)
                self._mark_consumed(generation)
                if _sanitize_state.ACTIVE:
                    # the fresh promise below resolves on *this* thread,
                    # so the sender -> getter edge must come from the
                    # channel generation itself
                    _racecheck.recv(("chan", id(self), generation))
                p = Promise()
                p.set_value(value)
                return p.get_future()
            self._next_get = max(self._next_get, generation + 1)
            promise = self._promises.get(generation)
            if promise is None:
                promise = Promise()
                self._promises[generation] = promise
            return promise.get_future()

    def set(self, value: T, generation: int | None = None) -> None:
        """Publish ``value`` for ``generation`` (default: next in order)."""
        exp = _schedules.EXPLORER
        if exp is not None:
            exp.pause("channel-set")
        with self._lock:
            if generation is None:
                generation = self._next_set
                self._next_set += 1
            else:
                self._next_set = max(self._next_set, generation + 1)
            if generation in self._ready:
                if _sanitize_state.ACTIVE:
                    self._record_reset(generation, "already set")
                raise ChannelGenerationError(
                    f"generation {generation} already set on channel {self.name!r}")
            if (generation < self._consumed_floor
                    or generation in self._consumed):
                if _sanitize_state.ACTIVE:
                    self._record_reset(generation, "already consumed")
                raise ChannelGenerationError(
                    f"generation {generation} already consumed on channel "
                    f"{self.name!r}; refusing to re-set")
            if _sanitize_state.ACTIVE:
                # sender release edge for this generation (paired with
                # the recv in the buffered-get path; the promise path
                # additionally gets the future's own resolution edge)
                _racecheck.send(("chan", id(self), generation))
            promise = self._promises.pop(generation, None)
            if promise is None:
                self._ready[generation] = value
                return
            self._mark_consumed(generation)
        promise.set_value(value)

    def reset(self) -> None:
        """Forget all generation state (rollback support).

        A checkpoint restore rewinds the step counter, so halo generations
        derived from it will be re-used; without a reset, :meth:`set` would
        reject them as already consumed.  Outstanding gets are failed with
        :class:`ChannelReset` (their step is being discarded), buffered
        values are dropped, and both cursors rewind to generation 0 for
        the replay.
        """
        with self._lock:
            pending = list(self._promises.values())
            self._promises.clear()
            self._ready.clear()
            self._next_get = 0
            self._next_set = 0
            self._consumed_floor = 0
            self._consumed.clear()
        exc = ChannelReset(f"channel {self.name!r} reset while waiting")
        for p in pending:
            p.set_exception(exc)

    def _record_reset(self, generation: int, why: str) -> None:
        """Sanitizer finding for a refused re-set: it survives a caller
        that swallows the :class:`ChannelGenerationError`."""
        _sanitize_state.record(
            "channel-reset-generation",
            f"re-set of generation {generation} on channel {self.name!r} "
            f"({why}) — generations are single-assignment; a re-set "
            "clobbers ordering", channel=self.name, generation=generation)

    def _mark_consumed(self, generation: int) -> None:
        """Record a matched generation (caller holds the lock)."""
        self._consumed.add(generation)
        while self._consumed_floor in self._consumed:
            self._consumed.remove(self._consumed_floor)
            self._consumed_floor += 1
