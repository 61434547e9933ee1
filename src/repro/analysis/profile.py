"""The counters report: every registered section, rendered from one table.

APEX gives Octo-Tiger "access to performance data, such as core
utilization, task overheads, and network throughput" (Sec. 4.1).  This
module is the reporting end of our substitute: :func:`format_report`
turns a :class:`~repro.runtime.counters.CounterRegistry` snapshot into
one table per section of :data:`~repro.runtime.counters.KNOWN_SECTIONS`
(in that order, under that title), listing every counter and gauge by its
full path.  It derives nothing: a number is in the report because some
subsystem published it (the GPU share is ``/exec/gpu-fraction``, the
steal share ``/threads/steal-rate``).  ``examples/futurized_gpu_node.py``
is the instrumented demo that prints it next to a Chrome trace.
"""

from __future__ import annotations

from ..runtime.counters import (KNOWN_SECTIONS, CounterRegistry,
                                default_registry)
from .tables import format_table

__all__ = ["group_snapshot", "format_report"]

#: title of the last table: paths under no registered section
UNREGISTERED = "unregistered paths"


def group_snapshot(snapshot: dict[str, float]
                   ) -> dict[str | None, dict[str, float]]:
    """Group a flat registry snapshot by registered section.

    ``{"/threads/executed": 10, "/gpu/busy": 1}`` becomes
    ``{"threads": {"/threads/executed": 10}, None: {"/gpu/busy": 1}}``:
    paths keep their full spelling, and the ones under no section of
    :data:`KNOWN_SECTIONS` share the ``None`` group.
    """
    groups: dict[str | None, dict[str, float]] = {}
    for path, value in snapshot.items():
        head = path.split("/")[1] if path.startswith("/") else None
        section = head if head in KNOWN_SECTIONS else None
        groups.setdefault(section, {})[path] = value
    return groups


def _cell(path: str, value: float) -> str | int | float:
    """``*-rate`` / ``*-fraction`` as a percentage, whole numbers as ints."""
    if path.endswith(("-rate", "-fraction")):
        return f"{100.0 * value:.2f}%"
    return int(value) if float(value).is_integer() else float(value)


def format_report(registry: CounterRegistry | None = None) -> str:
    """Every counter and gauge of ``registry`` (default: the global one),
    one table per registered section, sorted by path; paths under no
    registered section form the last table."""
    groups = group_snapshot((registry or default_registry()).snapshot())
    titles = {**KNOWN_SECTIONS, None: UNREGISTERED}
    return "\n\n".join(
        format_table(["counter", "value"],
                     [[p, _cell(p, v)] for p, v in sorted(groups[s].items())],
                     title=title)
        for s, title in titles.items() if s in groups
    ) or "(no counters recorded)"
