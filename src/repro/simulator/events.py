"""Discrete-event simulation core: clock + ordered event queue.

A minimal, deterministic DES kernel: events are ``(time, seq, fn, args)``
tuples in a heap; ties in time break by insertion order so runs are
reproducible.  Event handlers may schedule further events; ``run`` drains
the queue (optionally up to a time horizon or event budget).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

__all__ = ["EventQueue", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling into the past or exceeding the event budget."""


class EventQueue:
    """Priority queue of timestamped callbacks with a simulation clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._heap:
            return False
        when, _seq, fn, args = heapq.heappop(self._heap)
        self.now = when
        self.processed += 1
        fn(*args)
        return True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> float:
        """Drain the queue; returns the final simulation time.

        ``until`` stops once the next event would exceed that time;
        ``max_events`` bounds total processed events (guards runaway models).
        """
        budget = max_events
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if budget is not None:
                if budget == 0:
                    raise SimulationError(
                        f"exceeded event budget of {max_events}")
                budget -= 1
            self.step()
        return self.now

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap
