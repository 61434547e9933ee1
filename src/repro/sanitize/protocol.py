"""Lease and channel protocol checkers.

Two runtime protocols carry invariants the type system cannot express:

**Stream leases** (:class:`~repro.runtime.cuda.StreamLease`): a lease is
*held* from ``StreamPool.acquire`` until exactly one of ``enqueue`` (the
kernel consumes the reservation) or ``release`` (given back unused) —
the lease object is the only way to hold a stream, and
``AggregationRegion._flush`` the only acquirer in ``src/``.  The
hazards: a lease that reaches neither (the stream stays reserved until
the timeout reclaims it — a silent throughput leak), and a lease used
again after it was consumed or released (the reservation it represents
belongs to someone else by then).

**Channels** (:class:`~repro.runtime.channel.Channel`): each generation
is set at most once and never after it was consumed.  The channel itself
raises typed errors for these; the checker records a finding *as well*,
because a badly behaved caller may swallow the exception — the sanitizer
report survives the swallow.

Leases are stamped with a sequence number (``_san_seq``) just like
futures; leases created while the sanitizers are inactive are invisible
here.
"""

from __future__ import annotations

import gc
import itertools
import threading
import weakref
from typing import Any

from . import state

__all__ = ["lease_created", "lease_consumed", "lease_released",
           "lease_reclaimed", "channel_reset_generation", "sweep_leases",
           "reset"]

_lock = threading.Lock()
_seq = itertools.count(1)

_HELD, _CONSUMED, _RELEASED = "held", "consumed", "released"

#: live leases: seq -> [weakref, acquire site, status]
_leases: dict[int, list] = {}


def lease_created(lease: Any) -> None:
    seq = next(_seq)
    lease._san_seq = seq
    site = state.call_site()

    def _gone(_ref: weakref.ref, seq: int = seq) -> None:
        with _lock:
            entry = _leases.pop(seq, None)
        # GC of a still-held lease is a leak even before any sweep: the
        # reservation can now only come back via the timeout reclaim
        if entry is not None and entry[2] == _HELD:
            state.record(
                "lease-leak",
                f"stream lease acquired at {entry[1]} was dropped without "
                "enqueue or release; the stream stays reserved until the "
                "lease timeout reclaims it",
                site=entry[1], dedupe_key=("lease-leak", seq))

    with _lock:
        _leases[seq] = [weakref.ref(lease, _gone), site, _HELD]


def _transition(lease: Any, new_status: str, verb: str) -> None:
    seq = getattr(lease, "_san_seq", None)
    if seq is None:
        return
    with _lock:
        entry = _leases.get(seq)
        if entry is None:
            return
        old = entry[2]
        if old == _HELD:
            entry[2] = new_status
            return
    state.record(
        "lease-reuse",
        f"stream lease acquired at {entry[1]} {verb} after it was already "
        f"{old} — the reservation no longer belongs to this holder",
        dedupe_key=("lease-reuse", seq, verb))


def lease_consumed(lease: Any) -> None:
    """``StreamLease.enqueue`` ran: the reservation is spent."""
    _transition(lease, _CONSUMED, "enqueued a kernel")


def lease_released(lease: Any) -> None:
    """An *effective* release (the idempotent no-op path is not reported)."""
    _transition(lease, _RELEASED, "released")


def lease_reclaimed() -> None:
    """The pool reclaimed an expired reservation: some holder leaked it."""
    state.record(
        "lease-leak",
        "stream reservation reclaimed after lease timeout — a holder "
        "acquired a stream and neither enqueued nor released",
        dedupe_key=None)


def sweep_leases(collect: bool = True) -> list[state.Finding]:
    """Report leases still *held* at a quiesce point."""
    if collect:
        gc.collect()
    out: list[state.Finding] = []
    with _lock:
        held = [(seq, e[0](), e[1]) for seq, e in _leases.items()
                if e[2] == _HELD]
    for seq, lease, site in held:
        if lease is None:
            continue
        f = state.record(
            "lease-leak",
            f"stream lease acquired at {site} still held at sweep — "
            "neither enqueued nor released",
            site=site, dedupe_key=("lease-leak", seq))
        if f is not None:
            out.append(f)
    return out


def channel_reset_generation(name: str, generation: int, why: str) -> None:
    state.record(
        "channel-reset-generation",
        f"re-set of generation {generation} on channel {name!r} ({why}) — "
        "generations are single-assignment; a re-set clobbers ordering",
        dedupe_key=None, channel=name, generation=generation)


def reset() -> None:
    """Forget all tracked leases (test isolation)."""
    with _lock:
        _leases.clear()
