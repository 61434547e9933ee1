"""Happens-before data-race detector (FastTrack-style vector clocks).

The byte-identity contracts of this codebase — futurized == serial,
distributed == node-level, chaos == clean — are only as good as the
*synchronization* between the tasks that share buffers: an unsynchronized
concurrent write to a shared ``out=``/workspace array corrupts results
silently on a schedule CI never sees.  This module detects that hazard
class mechanically, the dynamic analogue of ThreadSanitizer's FastTrack
algorithm (Flanagan & Freund, PLDI 2009):

* every thread carries a **vector clock** (its view of every other
  thread's progress);
* the runtime's synchronization vocabulary publishes **happens-before
  edges** through :func:`send` / :func:`recv` on per-object keys — future
  resolution/consumption, channel generations, scheduler post/begin/drain,
  stream-lease release/acquire and enqueue/execute, aggregation-region
  slot fill/flush, AGAS migration commit order, parcel send/deliver;
* every shared buffer the solver layer touches is declared through the
  shadow-access API :func:`access`, which keeps **epoch** shadow state per
  buffer — the last write ``(thread, clock)`` plus either a single read
  epoch or, after concurrent readers, a promoted read vector clock
  (FastTrack's read-share promotion).  Each access is O(1); two accesses
  with no happens-before path between them and at least one write is a
  **data race**, reported with both access stacks.

Activation follows the lockdep contract: everything above is gated on
``state.ACTIVE`` (``REPRO_SANITIZE=1`` or :func:`repro.sanitize.enable`),
so a disabled detector costs exactly one module-attribute read per hook
— zero overhead on the hot path.

Finding kind produced here: ``data-race`` — message carries the buffer
label and both conflicting accesses (mode, thread, ``file:line`` site).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Hashable

from . import state

__all__ = ["access", "send", "recv", "wrap_callback", "new_token", "reset",
           "stats"]

_lock = threading.Lock()
_tls = threading.local()
_tid_seq = itertools.count(1)
_token_seq = itertools.count(1)

#: sync-object vector clocks: key -> {tid: clock}
_sync: dict[Hashable, dict[int, int]] = {}
#: per-buffer shadow state: key -> _Shadow
_shadow: dict[Hashable, "_Shadow"] = {}

# tallies (under _lock), handed out as /sanitize/race/* by sanitize.tallies
_n_accesses = 0
_n_edges = 0
_n_races = 0


class _Thread:
    """This thread's identity and vector clock (only its owner mutates
    ``vc``; other threads read entries of it under ``_lock`` via joins)."""

    __slots__ = ("tid", "vc", "name")

    def __init__(self) -> None:
        self.tid = next(_tid_seq)
        self.vc: dict[int, int] = {self.tid: 1}
        self.name = threading.current_thread().name


def _me() -> _Thread:
    t = getattr(_tls, "t", None)
    if t is None:
        t = _tls.t = _Thread()
    return t


def _join(dst: dict[int, int], src: dict[int, int]) -> None:
    for tid, clk in src.items():
        if clk > dst.get(tid, 0):
            dst[tid] = clk


# -- happens-before edge publication ------------------------------------------


def send(key: Hashable) -> None:
    """Release edge: publish this thread's clock onto sync object ``key``.

    A later :func:`recv` on the same key by any thread establishes
    happens-before from everything this thread did up to now.
    """
    if not state.ACTIVE:
        return
    global _n_edges
    t = _me()
    with _lock:
        vc = _sync.get(key)
        if vc is None:
            vc = _sync[key] = {}
        _join(vc, t.vc)
        t.vc[t.tid] += 1
        _n_edges += 1


def recv(key: Hashable) -> None:
    """Acquire edge: join sync object ``key``'s clock into this thread's.

    A no-op when nothing was ever sent on ``key`` (there is then no edge
    to acquire — and claiming one would hide real races).
    """
    if not state.ACTIVE:
        return
    global _n_edges
    t = _me()
    with _lock:
        vc = _sync.get(key)
        if vc:
            _join(t.vc, vc)
        _n_edges += 1


def new_token() -> tuple:
    """A fresh one-shot sync key (callback registration edges etc.)."""
    return ("tok", next(_token_seq))


def wrap_callback(key: Hashable, cb: Callable[..., Any],
                  drain_key: Hashable | None = None) -> Callable[..., Any]:
    """Wrap a callback/task with its happens-before edges.

    Publishes a registration edge *now* (registrar → callback), and on
    invocation acquires both that edge and ``key`` (e.g. the resolving
    future / posting scheduler); after the body, optionally releases
    ``drain_key`` (task end → ``wait_idle``).  Returns ``cb`` unchanged
    when the sanitizers are inactive.
    """
    if not state.ACTIVE:
        return cb
    token = new_token()
    send(token)

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        recv(token)
        if key is not None:
            recv(key)
        with _lock:
            _sync.pop(token, None)  # one-shot: free the registration edge
        try:
            return cb(*args, **kwargs)
        finally:
            if drain_key is not None:
                send(drain_key)

    try:
        wrapped.__name__ = getattr(cb, "__name__", "task")
    except (AttributeError, TypeError):  # pragma: no cover
        pass
    return wrapped


# -- shadow accesses ----------------------------------------------------------


class _Shadow:
    """FastTrack epoch state for one buffer.

    ``w`` is the last-write epoch ``(tid, clock, site, thread_name)`` or
    ``None``; reads are a single epoch ``r`` until two concurrent readers
    promote to the read map ``rs`` (tid -> (clock, site, thread_name)).
    """

    __slots__ = ("label", "w", "r", "rs")

    def __init__(self, label: str) -> None:
        self.label = label
        self.w: tuple | None = None
        self.r: tuple | None = None
        self.rs: dict[int, tuple] | None = None


def _buffer_key(buf: Any, region: Hashable | None) -> Hashable:
    """Identity of a shared buffer: ndarray data pointer (so views of one
    allocation alias) or ``id()`` for plain objects, plus the caller's
    ``region`` discriminator for deliberately partitioned reuse."""
    iface = getattr(buf, "__array_interface__", None)
    if iface is not None:
        return ("nd", iface["data"][0], region)
    return ("py", id(buf), region)


def access(buf: Any, mode: str = "r", owner: str | None = None,
           region: Hashable | None = None, site: str | None = None) -> None:
    """Declare one access to a shared buffer (the shadow-access API).

    Parameters
    ----------
    buf:
        The buffer (ndarray or any object); identified by its data
        pointer so overlapping views alias correctly.
    mode:
        ``"r"`` or ``"w"``.
    owner:
        Human-readable label for reports (``"hydro/rhs-out"``); defaults
        to the buffer's type name.
    region:
        Optional discriminator for buffers deliberately partitioned into
        independently-synchronized regions (slot indices etc.); accesses
        with different regions never conflict.
    site:
        Override the reported ``file:line`` (defaults to the first frame
        outside the runtime).

    Reports a ``data-race`` finding when this access and the prior
    access epoch are unordered by happens-before and at least one is a
    write.  O(1) per access; a no-op when the sanitizers are disabled.
    """
    if not state.ACTIVE:
        return
    if mode not in ("r", "w"):
        raise ValueError(f"access mode must be 'r' or 'w', not {mode!r}")
    global _n_accesses, _n_races
    t = _me()
    if site is None:
        site = state.call_site()
    key = _buffer_key(buf, region)
    prior = None
    with _lock:
        _n_accesses += 1
        sh = _shadow.get(key)
        if sh is None:
            sh = _shadow[key] = _Shadow(
                owner or type(buf).__name__)
        elif owner is not None:
            sh.label = owner
        vc = t.vc
        clock = vc[t.tid]
        w = sh.w
        if w is not None and w[0] != t.tid and w[1] > vc.get(w[0], 0):
            prior = ("write", w)
        if mode == "w":
            if prior is None:
                if sh.rs is not None:
                    for tid, (clk, rsite, tname) in sh.rs.items():
                        if tid != t.tid and clk > vc.get(tid, 0):
                            prior = ("read", (tid, clk, rsite, tname))
                            break
                elif sh.r is not None:
                    r = sh.r
                    if r[0] != t.tid and r[1] > vc.get(r[0], 0):
                        prior = ("read", r)
            sh.w = (t.tid, clock, site, t.name)
            sh.r = None
            sh.rs = None
        else:
            epoch = (t.tid, clock, site, t.name)
            if sh.rs is not None:
                sh.rs[t.tid] = (clock, site, t.name)
            elif sh.r is None or sh.r[0] == t.tid:
                sh.r = epoch
            elif sh.r[1] <= vc.get(sh.r[0], 0):
                # prior reader happens-before us: stay in the exclusive
                # fast path (FastTrack's same-epoch optimization)
                sh.r = epoch
            else:
                sh.rs = {sh.r[0]: (sh.r[1], sh.r[2], sh.r[3]),
                         t.tid: (clock, site, t.name)}
                sh.r = None
        label = sh.label
        if prior is not None:
            _n_races += 1
    if prior is not None:
        kind, (_ptid, _pclk, psite, pname) = prior
        word = "write" if mode == "w" else "read"
        state.record(
            "data-race",
            f"data race on {label}: {word} at {site} (thread {t.name}) is "
            f"concurrent with prior {kind} at {psite} (thread {pname}) — "
            "no happens-before edge orders them",
            site=site,
            dedupe_key=("data-race", label, psite, site, kind, word),
            buffer=label,
            current_access=f"{word} at {site} (thread {t.name})",
            prior_access=f"{kind} at {psite} (thread {pname})")


# -- lifecycle / diagnostics --------------------------------------------------


def stats() -> dict[str, int]:
    with _lock:
        return {"accesses": _n_accesses, "edges": _n_edges,
                "races": _n_races, "buffers": len(_shadow),
                "sync_objects": len(_sync)}


def reset() -> None:
    """Drop all shadow/sync state and tallies (test isolation).

    Thread vector clocks survive (they are thread-local and only ever
    advance), which is safe: new sync objects and shadows start empty,
    so stale clock values can only *under*-report, never invent an edge.
    """
    global _n_accesses, _n_edges, _n_races
    with _lock:
        _sync.clear()
        _shadow.clear()
        _n_accesses = 0
        _n_edges = 0
        _n_races = 0
