"""Dynamic correctness sanitizers for the AMT runtime (opt-in).

The runtime guarantees HPX-grade invariants — bit-identical futurized
execution, generation-exact channels — but a latent lock-order
inversion or an abandoned future violates them silently, and three of
the last four PRs each fixed such a bug found by hand.  This package
detects those hazard classes mechanically:

* :mod:`.lockdep` — lock-order (ABBA) inversions over the runtime's lock
  classes, recursive self-deadlocks, user callbacks invoked under locks;
* :mod:`.futuregraph` — wait-for cycles through the future dependency
  graph, futures abandoned unresolved, exceptional futures whose error
  is never consumed, scheduler workers stalled in unbounded ``get``;
* :mod:`.protocol` — the channel generation protocol (set at most
  once, never after it was consumed);
* :mod:`.racecheck` — FastTrack-style vector-clock happens-before data
  races on shared buffers declared through :func:`access`, with the
  runtime's sync vocabulary (futures, channels, scheduler, stream
  launches, aggregation, AGAS, parcels) publishing the happens-before
  edges;
* :mod:`.schedules` — seeded, replayable adversarial schedule
  exploration (priority churn + delivery permutation) so the above run
  on many interleavings, not just the one the OS produced.

Enable with ``REPRO_SANITIZE=1`` in the environment (instruments the
whole process — how CI runs the suite) or :func:`enable` *before*
constructing the runtime objects to instrument: instrumentation is
decided when locks/futures are created, so a disabled sanitizer
costs the hot paths nothing.

Findings accumulate in :func:`findings`; :func:`tallies` hands them out
as ``/sanitize/...`` paths for a counter registry (this package imports
nothing from the runtime it instruments); :func:`sweep` audits quiesce
points (abandoned futures, swallowed errors); :func:`report`
renders everything for humans.  Tests isolate injected hazards with
:func:`scope`.
"""

from __future__ import annotations

from . import futuregraph, lockdep, racecheck, schedules, state
from .lockdep import make_condition, make_lock
from .racecheck import access
from .state import (Finding, clear, configure, disable, enable, enabled,
                    finding_count, findings, record, scope)

__all__ = [
    "Finding", "enable", "disable", "enabled", "configure",
    "findings", "finding_count", "clear", "scope", "record",
    "make_lock", "make_condition", "access",
    "sweep", "report", "tallies", "reset_graphs",
    "state", "lockdep", "futuregraph", "racecheck", "schedules",
]


def sweep() -> list[Finding]:
    """Quiesce-point audit across all checkers.

    Reports futures still pending (abandoned) and exceptional futures
    whose error was never consumed (swallowed).  Call after a
    drain/shutdown; the chaos harness calls it after the chaotic run
    completes.
    """
    return futuregraph.sweep()


def reset_graphs() -> None:
    """Drop accumulated graph state *and* findings (test isolation)."""
    lockdep.reset()
    futuregraph.reset()
    racecheck.reset()
    clear()


def tallies() -> dict[str, float]:
    """Every ``/sanitize/...`` tally as ``{path: value}`` — plain data.

    Findings are counted by kind (``/sanitize/<kind>``) over
    :func:`findings`, so those diverted into a :func:`scope` are not;
    the race detector's and the schedule explorer's tallies ride along.
    A caller that wants them in a counter registry sets each as a gauge.
    """
    live = findings()
    race = racecheck.stats()
    exp = schedules.EXPLORER
    explored = ((1, exp.seed, exp.perturbations, exp.permutations)
                if exp is not None else (0, -1, 0, 0))
    out = {"/sanitize/enabled": float(enabled()),
           "/sanitize/findings": float(len(live)),
           "/sanitize/futures-pending": float(futuregraph.pending_count()),
           "/sanitize/race/accesses": float(race["accesses"]),
           "/sanitize/race/hb-edges": float(race["edges"]),
           "/sanitize/race/races": float(race["races"]),
           "/sanitize/race/buffers-tracked": float(race["buffers"])}
    for key, value in zip(("active", "seed", "perturbations",
                           "permutations"), explored):
        out[f"/sanitize/schedules/{key}"] = float(value)
    for f in live:
        out[f"/sanitize/{f.kind}"] = out.get(f"/sanitize/{f.kind}", 0.0) + 1
    return out


def report() -> str:
    """Human-readable findings report (empty-state message when clean)."""
    all_findings = findings()
    lines = [f"sanitizers: {'enabled' if enabled() else 'disabled'}, "
             f"{len(all_findings)} finding(s)"]
    for i, f in enumerate(all_findings, 1):
        lines.append(f"  {i:>3}. [{f.kind}] {f.message}")
        lines.append(f"       at {f.site}")
        for key, value in sorted(f.details.items()):
            lines.append(f"       {key}: {value}")
    if not all_findings:
        lines.append("  (no findings)")
    return "\n".join(lines)
