"""Channel protocol checker.

Each generation of a :class:`~repro.runtime.channel.Channel` is set at
most once and never after it was consumed.  The channel itself raises
typed errors for these; the checker records a finding *as well*,
because a badly behaved caller may swallow the exception — the sanitizer
report survives the swallow.
"""

from __future__ import annotations

from . import state

__all__ = ["channel_reset_generation"]


def channel_reset_generation(name: str, generation: int, why: str) -> None:
    state.record(
        "channel-reset-generation",
        f"re-set of generation {generation} on channel {name!r} ({why}) — "
        "generations are single-assignment; a re-set clobbers ordering",
        dedupe_key=None, channel=name, generation=generation)
