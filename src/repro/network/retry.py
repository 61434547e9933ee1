"""Retry budget and backoff schedule for acknowledged sends: a pure
policy object.  It sits in the network layer because the cluster
simulator prices retries with it;
the sender that *executes* the schedule is
:class:`repro.resilience.retry.ResilientParcelSender`."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util import is_integer

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY", "NETWORK_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and backoff schedule for resilient sends.

    Times are in seconds.  The defaults keep worst-case test wall time in
    the milliseconds while still exercising a real exponential schedule.
    """

    max_attempts: int = 4
    base_backoff: float = 1e-3
    backoff_factor: float = 2.0
    max_backoff: float = 0.1
    ack_timeout: float = 0.25

    def __post_init__(self) -> None:
        if not is_integer(self.max_attempts) or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be an integer >= 1, got "
                             f"{self.max_attempts!r}")
        for name, least in (("base_backoff", 0.0), ("backoff_factor", 1.0),
                            ("max_backoff", 0.0), ("ack_timeout", 0.0)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= least):
                raise ValueError(f"{name} must be finite and >= {least}, "
                                 f"got {value!r}")

    def backoff(self, attempt: int) -> float:
        """Deterministic wait after failed attempt number ``attempt``."""
        return min(self.base_backoff * self.backoff_factor ** (attempt - 1),
                   self.max_backoff)

    # -- expectation helpers (used by the scaling model) --------------------

    def expected_attempts(self, loss_rate: float) -> float:
        """E[number of sends] per parcel under iid loss, budget-capped."""
        p = min(max(loss_rate, 0.0), 1.0)
        if p == 0.0:
            return 1.0
        if p == 1.0:
            return float(self.max_attempts)
        return (1.0 - p ** self.max_attempts) / (1.0 - p)

    def expected_backoff(self, loss_rate: float) -> float:
        """E[total backoff wait] per parcel under iid loss (seconds)."""
        p = min(max(loss_rate, 0.0), 1.0)
        return sum(p ** k * self.backoff(k)
                   for k in range(1, self.max_attempts))

    def delivery_probability(self, loss_rate: float) -> float:
        p = min(max(loss_rate, 0.0), 1.0)
        return 1.0 - p ** self.max_attempts


DEFAULT_RETRY_POLICY = RetryPolicy()

#: backoff on interconnect timescales (a few RTTs, not wall-clock millis) —
#: the right schedule for the *cost model* in the cluster simulator, where
#: message costs are microseconds and a millisecond backoff would dwarf them
NETWORK_RETRY_POLICY = RetryPolicy(max_attempts=4, base_backoff=10e-6,
                                   backoff_factor=2.0, max_backoff=1e-3,
                                   ack_timeout=1e-3)
