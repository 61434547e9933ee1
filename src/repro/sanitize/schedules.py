"""Deterministic schedule exploration for the AMT runtime.

The bit-identity contracts (futurized == serial, distributed ==
node-level, chaos == clean) are only ever exercised on the one
interleaving the OS scheduler happens to produce.  This module drives
the runtime through *adversarial but replayable* schedules instead:

* **PCT-style priority churn** — at instrumented scheduling points
  (task post, task begin, channel set, parcel delivery) the explorer
  injects tiny seeded sleeps, perturbing which worker wins each race
  the way a priority-based probabilistic concurrency tester does;
* **delivery permutation** — batches that the runtime is free to
  reorder (``post_batch`` fan-outs, transport flush queues) are
  permuted with a seeded shuffle;
* **steal steering** — work-stealing victim scans start from a seeded
  index, exercising different steal orders.

Every decision comes from a per-``(point, thread-name)``
:class:`random.Random` derived from the master seed with a CRC (not
:func:`hash`, which is salted per process), so a failing schedule is
**replayable from the seed alone**: rerun with ``REPRO_SCHEDULE_SEED=<n>``
and the same decision stream is produced.

Hook contract: runtime modules read ``schedules.EXPLORER`` (one module
attribute load) and call into it only when not ``None`` — zero overhead
when exploration is off, independent of ``REPRO_SANITIZE``.  Combine
both to hunt races: the explorer shakes the schedule, racecheck reports
any pair of accesses the synchronization vocabulary failed to order.
"""

from __future__ import annotations

import os
import random
import threading
import time
import zlib
from typing import Any, Callable, Iterable, Sequence

__all__ = ["ScheduleExplorer", "EXPLORER", "install", "uninstall",
           "run_under_seeds"]

#: the active explorer, or None (the only thing hot paths ever read)
EXPLORER: "ScheduleExplorer | None" = None

#: scheduling points the runtime instruments (documented so tests and
#: reports can refer to them by name)
POINTS = (
    "sched-post",        # WorkStealingScheduler.post, before enqueue
    "sched-batch",       # post_batch fan-out (permutation point)
    "task-begin",        # worker about to run a task
    "steal",             # victim scan start index
    "channel-set",       # Channel.set, before publishing the value
    "parcel-deliver",    # ParcelHandler.deliver, before dispatch
    "transport-flush",   # HaloTransport.flush batch (permutation point)
)

#: cap on one pause point's sleep, in seconds
MAX_SLEEP_S = 5e-4


class ScheduleExplorer:
    """Seeded source of schedule perturbations.

    ``intensity`` scales how often pause points actually sleep (1.0 is
    the CI default); sleeps are capped at :data:`MAX_SLEEP_S` so even
    aggressive exploration stays inside test timeouts.
    """

    def __init__(self, seed: int, intensity: float = 1.0) -> None:
        self.seed = int(seed)
        self.intensity = float(intensity)
        self._lock = threading.Lock()
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self.perturbations = 0
        self.permutations = 0

    def _rng(self, point: str) -> random.Random:
        """The deterministic decision stream for (point, this thread)."""
        key = (point, threading.current_thread().name)
        with self._lock:
            rng = self._rngs.get(key)
            if rng is None:
                # CRC, not hash(): str hashing is salted per process and
                # would make the seed non-replayable
                basis = f"{self.seed}|{key[0]}|{key[1]}".encode()
                rng = self._rngs[key] = random.Random(zlib.crc32(basis))
            return rng

    def pause(self, point: str) -> None:
        """Maybe yield/sleep at a scheduling point (priority churn)."""
        rng = self._rng(point)
        roll = rng.random()
        if roll < 0.25 * self.intensity:
            with self._lock:
                self.perturbations += 1
            # sleep duration drawn from the same stream: replayable
            time.sleep(rng.random() * MAX_SLEEP_S)
        elif roll < 0.5 * self.intensity:
            with self._lock:
                self.perturbations += 1
            time.sleep(0)  # bare yield: cheap reordering pressure

    def permute(self, point: str, items: Sequence[Any]) -> list[Any]:
        """Seeded permutation of a batch the runtime may legally reorder."""
        out = list(items)
        if len(out) > 1:
            self._rng(point).shuffle(out)
            with self._lock:
                self.permutations += 1
        return out

    def pick(self, point: str, n: int) -> int:
        """Seeded index in [0, n) (steal-victim scan start etc.)."""
        if n <= 1:
            return 0
        return self._rng(point).randrange(n)


def install(seed: int, intensity: float = 1.0) -> ScheduleExplorer:
    """Activate schedule exploration process-wide; returns the explorer."""
    global EXPLORER
    EXPLORER = ScheduleExplorer(seed, intensity=intensity)
    return EXPLORER


def uninstall() -> None:
    global EXPLORER
    EXPLORER = None


def run_under_seeds(fn: Callable[[], Any], seeds: Iterable[int],
                    intensity: float = 1.0) -> list[Any]:
    """Run ``fn`` once per seed under an installed explorer.

    On failure the seed is attached to the exception and printed, so the
    schedule can be replayed with ``REPRO_SCHEDULE_SEED=<seed>`` (or
    ``install(seed)``); the previous explorer is always restored.
    """
    global EXPLORER
    prev = EXPLORER
    results = []
    try:
        for seed in seeds:
            install(seed, intensity=intensity)
            try:
                results.append(fn())
            except BaseException as exc:
                print(f"[repro.sanitize.schedules] failure under schedule "
                      f"seed {seed}: replay with REPRO_SCHEDULE_SEED={seed}")
                exc.repro_schedule_seed = seed
                raise
    finally:
        EXPLORER = prev
    return results


def install_from_env() -> "ScheduleExplorer | None":
    """Install from ``REPRO_SCHEDULE_SEED`` if set (pytest/CI entry point)."""
    raw = os.environ.get("REPRO_SCHEDULE_SEED", "").strip()
    if not raw:
        return None
    return install(int(raw))


# Environment opt-in: importing any runtime module (scheduler, channel,
# parcel, transport all read ``EXPLORER``) pulls this module in, so setting
# ``REPRO_SCHEDULE_SEED=<n>`` activates exploration process-wide — examples
# and CLI entry points replay a failing schedule from the seed alone, the
# same contract as ``REPRO_SANITIZE`` in :mod:`.state`.
if os.environ.get("REPRO_SCHEDULE_SEED", "").strip():
    install_from_env()
