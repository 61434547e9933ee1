"""Shared sanitizer state: the activation flag and the findings store.

Everything in :mod:`repro.sanitize` funnels observations through
:func:`record`; a :class:`Finding` carries the hazard kind, a message and
the *site* (file:line of the offending frame outside the runtime), so a
report can point at user code rather than at the sanitizer hook.

Activation is **creation-time** for instrumented objects: enabling the
sanitizers makes locks/futures/leases created *afterwards* tracked.  The
``REPRO_SANITIZE=1`` environment variable enables them before any runtime
module is imported, which is how CI instruments a whole test run; inside
a process, call :func:`enable` before constructing the runtime objects
under scrutiny.

This module imports only the standard library — the runtime imports it
from hot paths, so it must never import the runtime back.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "enable", "disable", "enabled", "findings",
           "finding_count", "clear", "record", "scope", "call_site",
           "configure", "config"]

#: Fast-path activation flag.  Runtime hooks read this module attribute
#: directly (``state.ACTIVE``) so a disabled sanitizer costs one global
#: load per hook.
ACTIVE = False

_findings_lock = threading.Lock()
_findings: list["Finding"] = []
_dedupe: set[tuple] = set()
#: innermost-first stack of active capture scopes (see :func:`scope`)
_scopes: list[list["Finding"]] = []


@dataclass(frozen=True)
class Finding:
    """One sanitizer observation.

    ``kind`` is a stable slug (``lock-order``, ``lock-recursion``,
    ``callback-under-lock``, ``wait-cycle``, ``abandoned-future``,
    ``swallowed-exception``, ``blocked-worker``, ``lease-leak``,
    ``lease-reuse``, ``channel-reset-generation``).
    ``site`` is the ``file:line in func`` of the first frame outside the
    instrumented runtime; ``details`` carries kind-specific context (for
    lock-order findings, both acquisition sites of the inverted edge).
    """

    kind: str
    message: str
    site: str
    timestamp: float = field(default_factory=time.time, compare=False)
    details: dict[str, Any] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.kind}] {self.message} (at {self.site})"


class _Config:
    """Tunables; mutate via :func:`configure`."""

    __slots__ = ("stall_timeout", "max_graph_sites")

    def __init__(self) -> None:
        #: seconds a scheduler worker may block in an unbounded
        #: ``Future.get`` before a ``blocked-worker`` finding is recorded
        self.stall_timeout = 5.0
        #: frames walked when resolving a call site
        self.max_graph_sites = 16


config = _Config()


def configure(stall_timeout: float | None = None) -> None:
    """Adjust sanitizer tunables (tests shrink the stall timeout)."""
    if stall_timeout is not None:
        config.stall_timeout = stall_timeout


def enable() -> None:
    """Turn the sanitizers on for objects created from now on."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    global ACTIVE
    ACTIVE = False


def enabled() -> bool:
    return ACTIVE


def clear() -> None:
    """Drop all recorded findings and dedupe state (not the graphs)."""
    with _findings_lock:
        _findings.clear()
        _dedupe.clear()


def findings() -> list[Finding]:
    """All findings recorded outside any :func:`scope` so far."""
    with _findings_lock:
        return list(_findings)


def finding_count() -> int:
    with _findings_lock:
        return len(_findings)


def record(kind: str, message: str, site: str | None = None,
           dedupe_key: tuple | None = None, **details: Any) -> Finding | None:
    """Store a finding; returns it, or ``None`` when deduplicated.

    ``dedupe_key`` suppresses repeats of the same structural hazard (the
    same inverted lock edge fires on every acquisition otherwise).
    """
    if dedupe_key is not None:
        with _findings_lock:
            if dedupe_key in _dedupe:
                return None
            _dedupe.add(dedupe_key)
    f = Finding(kind=kind, message=message,
                site=site if site is not None else call_site(),
                details=details)
    with _findings_lock:
        sink = _scopes[-1] if _scopes else _findings
        sink.append(f)
    return f


class scope:
    """Divert findings recorded while the scope is open into a local list.

    Used by the adversarial tests: hazards injected inside the scope do
    not pollute the global findings list (which the test harness asserts
    stays empty), yet the test can assert the exact findings produced::

        with sanitize.scope() as caught:
            inject_hazard()
        assert caught[0].kind == "lock-order"

    The diversion is global (not thread-local) on purpose — hazards fire
    on worker threads while the test thread owns the scope.
    """

    def __init__(self) -> None:
        self._captured: list[Finding] = []

    def __enter__(self) -> list[Finding]:
        with _findings_lock:
            _scopes.append(self._captured)
        return self._captured

    def __exit__(self, *exc: Any) -> None:
        with _findings_lock:
            _scopes.remove(self._captured)


_RUNTIME_DIRS = (os.sep + "repro" + os.sep + "sanitize" + os.sep,
                 os.sep + "repro" + os.sep + "runtime" + os.sep,
                 os.sep + "threading.py")


def call_site(skip_runtime: bool = True) -> str:
    """``file:line in func`` of the nearest frame outside the runtime.

    Cheap by construction: walks raw frame objects (no source loading),
    bounded by ``config.max_graph_sites`` frames.
    """
    try:
        frame = sys._getframe(1)
    except ValueError:  # pragma: no cover
        return "<unknown>"
    fallback = None
    for _ in range(config.max_graph_sites):
        if frame is None:
            break
        fn = frame.f_code.co_filename
        desc = f"{fn}:{frame.f_lineno} in {frame.f_code.co_name}"
        if fallback is None:
            fallback = desc
        if not skip_runtime or not any(part in fn for part in _RUNTIME_DIRS):
            return desc
        frame = frame.f_back
    return fallback or "<unknown>"


# Environment opt-in: importing any sanitize module (the runtime does, to
# create its locks) activates instrumentation process-wide.
if os.environ.get("REPRO_SANITIZE", "").strip().lower() in ("1", "true", "on"):
    enable()
