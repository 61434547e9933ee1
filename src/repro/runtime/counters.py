"""APEX-style performance counters.

"HPX provides a performance counter and adaptive tuning framework that
allows users to access performance data, such as core utilization, task
overheads, and network throughput; these diagnostic tools were instrumental
in scaling Octo-Tiger to the full machine" (Sec. 4.1).

Counters are named hierarchically (``/threads/count/cumulative``-style
paths).  Two kinds exist: monotonically increasing counters and gauges
(last-value); wall time is what :mod:`repro.runtime.trace` spans record.
A global default registry serves the common case; components may carry
their own registry.
"""

from __future__ import annotations

import threading

__all__ = ["CounterRegistry", "default_registry", "KNOWN_SECTIONS"]

#: Registered top-level counter sections -> the report title of each.
#: Counter names are hierarchical paths ``/section/name[/sub...]``; the
#: first component must be one of these.  The lint pass (``python -m
#: repro.analysis.lint``, rule REPRO004) enforces this against every
#: counter-name literal in the source tree, so a typo like
#: ``/thread/executed`` cannot silently create a parallel section no
#: report aggregates; :func:`repro.analysis.format_report` renders
#: one table per section, in this order, under this title.  Extend the
#: table here when introducing a genuinely new subsystem.
KNOWN_SECTIONS = {
    "threads": "scheduler (/threads) — work-stealing workers",
    "futures": "futures (/futures) — continuation dispatch",
    "cuda": "devices (/cuda) — streams, placement, work aggregation",
    "exec": "execution engine (/exec) — the Sec. 6.1.2 GPU share",
    "fmm": "gravity (/fmm) — FMM solves and interactions",
    "hydro": "hydrodynamics (/hydro)",
    "parcels": "parcelports (/parcels) — traffic and cost components",
    "distmesh": "distributed mesh (/distmesh) — placement and halos",
    "resilience": "resilience (/resilience) — injected faults, recoveries",
    "recovery": "global rollback & elastic restart (/recovery)",
    "simulator": "step model (/simulator)",
    "sanitize": "sanitizers (/sanitize) — findings and detector tallies",
}


class CounterRegistry:
    """Thread-safe registry of named counters and gauges."""

    def __init__(self) -> None:
        # Deliberately a *plain* lock, not a sanitize.make_lock: the
        # registry is a leaf every layer writes into, so nothing may call
        # out of it while holding this lock.
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # -- counters -------------------------------------------------------------

    def increment(self, name: str, by: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + by

    def value(self, name: str) -> float:
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            if name in self._gauges:
                return self._gauges[name]
            raise KeyError(name)

    # -- gauges -----------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    # -- enumeration ---------------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(set(self._counters) | set(self._gauges))

    def snapshot(self) -> dict[str, float]:
        """Flat view: counters + gauges."""
        with self._lock:
            out: dict[str, float] = dict(self._counters)
            out.update(self._gauges)
            return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


_default = CounterRegistry()


def default_registry() -> CounterRegistry:
    return _default
