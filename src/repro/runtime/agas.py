"""Active Global Address Space (AGAS).

HPX names every distributed object with a *global identifier* (GID) that
stays valid when the object migrates between localities; the runtime
resolves GIDs to their current home transparently (Sec. 4.1: "load
balancing via object migration ... a uniform API for local and remote
execution", and Sec. 5.2: "Even when a grid cell is migrated from one node
to another during operation, the runtime manages the updated destination
address transparently").

This module implements that registry for the in-process model: components
register under fresh GIDs, live on a *locality* (an integer rank), can
migrate, and remote method invocation routes through :class:`AgasRuntime`
so callers never need to know where a component lives.  The home table is
the one record of placement: a caller that derives something from it
(the sharded mesh's storage layout and halo routes) reads it with
:meth:`AgasRuntime.homes` and rebuilds when a home moves; no component
is ever called back when it migrates.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Callable

from . import trace
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .counters import CounterRegistry, default_registry
from .future import Future, make_exceptional_future, make_ready_future

__all__ = ["Gid", "Component", "AgasRuntime", "AgasError", "LocalityFailed"]


class AgasError(RuntimeError):
    """Raised for unknown GIDs or invalid migrations."""


class LocalityFailed(AgasError):
    """The locality hosting (or targeted for) a component has failed.

    Distinct from a plain :class:`AgasError` so resilience layers can tell
    "this GID never existed" apart from "this GID died with its node".
    """


@dataclass(frozen=True, order=True)
class Gid:
    """A global identifier: (locality of birth, sequence number)."""

    msb: int  # birth locality
    lsb: int  # sequence number

    def __repr__(self) -> str:
        return f"gid({self.msb}:{self.lsb})"


class Component:
    """Base class for objects addressable through AGAS.

    Subclasses expose *actions* — plain methods invoked remotely via
    :meth:`AgasRuntime.async_action`.  Where a component lives is AGAS's
    record alone (:meth:`AgasRuntime.homes`): nobody is told when it
    moves, callers resolve its GID.
    """

    def __init__(self) -> None:
        self.gid: Gid | None = None


class AgasRuntime:
    """The AGAS resolver plus active-message dispatch.

    Parameters
    ----------
    n_localities:
        Number of simulated localities (compute nodes).
    executor:
        Optional thunk executor (e.g. ``WorkStealingScheduler.post``) used
        to run remotely-invoked actions asynchronously.
    registry:
        Counter sink for the ``/resilience/agas/...`` counters (default:
        the process-wide registry).
    """

    def __init__(self, n_localities: int = 1,
                 executor: Callable[[Callable[[], None]], None] | None = None,
                 registry: CounterRegistry | None = None):
        if n_localities < 1:
            raise ValueError("need at least one locality")
        self.n_localities = n_localities
        self._executor = executor
        self.registry = registry or default_registry()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._objects: dict[Gid, Component] = {}
        self._home: dict[Gid, int] = {}
        self._failed: set[int] = set()
        #: GIDs invalidated by a locality failure -> the locality that died
        self._lost: dict[Gid, int] = {}

    # -- registration -------------------------------------------------------

    def register(self, component: Component, locality: int = 0) -> Gid:
        """Give ``component`` a fresh GID homed at ``locality``."""
        self._check_locality(locality)
        self._check_alive(locality)
        with self._lock:
            gid = Gid(locality, next(self._seq))
            self._objects[gid] = component
            self._home[gid] = locality
            if _sanitize_state.ACTIVE:
                # registrant -> resolver edge: the component's constructed
                # state happens-before any access through its GID
                _racecheck.send(("agas", gid))
        component.gid = gid
        return gid

    # -- resolution -----------------------------------------------------------

    def resolve(self, gid: Gid) -> tuple[Component, int]:
        """Return ``(component, current locality)`` for a GID."""
        with self._lock:
            try:
                found = self._objects[gid], self._home[gid]
            except KeyError:
                dead = self._lost.get(gid)
                if dead is not None:
                    raise LocalityFailed(
                        f"{gid} was lost when locality {dead} failed") from None
                raise AgasError(f"unknown gid {gid}") from None
        if _sanitize_state.ACTIVE:
            # acquire the registration/migration commit order for this GID
            _racecheck.recv(("agas", gid))
        return found

    def homes(self, gids: list[Gid]) -> list[int]:
        """The home of every GID in ``gids``, read under one lock: a
        caller that keys a placement-derived plan by the homes rebuilds it
        on the next read after any move.  A lost GID reports the locality
        it was lost with; an unknown one raises :class:`AgasError`."""
        with self._lock:
            homes = [self._home.get(g, self._lost.get(g)) for g in gids]
        if None in homes:
            raise AgasError(f"unknown gid {gids[homes.index(None)]}")
        if _sanitize_state.ACTIVE:
            for gid in gids:
                _racecheck.recv(("agas", gid))
        return homes

    # -- migration --------------------------------------------------------------

    def migrate(self, gid: Gid, new_locality: int) -> None:
        """Move a component; its GID remains valid (the AGAS promise)."""
        self._check_locality(new_locality)
        self._check_alive(new_locality)
        with self._lock:
            if gid not in self._home:
                if gid in self._lost:
                    raise LocalityFailed(
                        f"{gid} was lost when locality "
                        f"{self._lost[gid]} failed")
                raise AgasError(f"unknown gid {gid}")
            self._home[gid] = new_locality
            if _sanitize_state.ACTIVE:
                # migration commit: the mover's writes happen-before any
                # post-migration resolve of this GID
                _racecheck.send(("agas", gid))
        self.registry.increment("/resilience/agas/components-migrated")

    # -- action invocation --------------------------------------------------------

    def async_action(self, gid: Gid, method: str, *args: Any) -> Future:
        """Invoke ``component.method(*args)`` wherever the component lives.

        This is the "semantic and syntactic equivalence of local and remote
        operations" of Sec. 4.1 — callers see a future either way, and
        *every* failure mode (unknown GID, missing action, failed locality,
        exception in the action body) arrives through that future rather
        than as a synchronous raise.
        """
        try:
            comp, _loc = self.resolve(gid)
        except AgasError as exc:
            return make_exceptional_future(exc)
        fn = getattr(comp, method, None)
        if fn is None or not callable(fn):
            return make_exceptional_future(
                AgasError(f"component {gid} has no action {method!r}"))
        if self._executor is None:
            try:
                return make_ready_future(fn(*args))
            except BaseException as exc:
                return make_exceptional_future(exc)
        from .future import async_execute
        return async_execute(fn, *args, executor=self._executor)

    # -- locality failure ------------------------------------------------------

    def fail_locality(self, locality: int,
                      evacuate: bool = True) -> dict[str, list[Gid]]:
        """Kill a locality; evacuate its components or invalidate them.

        With ``evacuate`` and a surviving locality, its components are
        re-homed round-robin across the survivors (their GIDs stay valid
        — the AGAS promise outlives the node); otherwise they are *lost*:
        their GIDs resolve to :class:`LocalityFailed` from now on.
        Idempotent.
        """
        self._check_locality(locality)
        with self._lock:
            if locality in self._failed:
                return {"migrated": [], "lost": []}
            self._failed.add(locality)
            survivors = [l for l in range(self.n_localities)
                         if l not in self._failed]
            homed = sorted(g for g, loc in self._home.items()
                           if loc == locality)
            migrated: list[Gid] = []
            lost: list[Gid] = []
            for gid in homed:
                if evacuate and survivors:
                    self._home[gid] = survivors[len(migrated) % len(survivors)]
                    if _sanitize_state.ACTIVE:
                        _racecheck.send(("agas", gid))
                    migrated.append(gid)
                else:
                    del self._objects[gid]
                    del self._home[gid]
                    self._lost[gid] = locality
                    lost.append(gid)
        self.registry.increment("/resilience/agas/localities-failed")
        self.registry.increment("/resilience/agas/components-migrated",
                                len(migrated))
        self.registry.increment("/resilience/agas/components-lost",
                                len(lost))
        trace.instant("locality-failed", "resilience", locality=locality,
                      migrated=len(migrated), lost=len(lost))
        return {"migrated": migrated, "lost": lost}

    def restore_component(self, component: Component, gid: Gid,
                          locality: int) -> Gid:
        """Resurrect a *lost* GID from durable state onto ``locality``.

        Evacuation (:meth:`fail_locality` with ``evacuate=True``) keeps
        GIDs valid because the component's memory survives; when the last
        copy died with its node the GID lands in ``_lost`` and only a
        recovery layer holding a replicated checkpoint can bring it back.
        This is that layer's hook: it re-binds the *same* GID — the AGAS
        promise that names outlive placement extends across restarts — to
        a freshly rebuilt component on a surviving locality.  Restoring a
        GID that is still live, or that was never lost, is an error.
        """
        self._check_locality(locality)
        self._check_alive(locality)
        with self._lock:
            if gid in self._home:
                raise AgasError(f"{gid} is still live; restore would alias it")
            if gid not in self._lost:
                raise AgasError(f"{gid} was never lost; nothing to restore")
            del self._lost[gid]
            self._objects[gid] = component
            self._home[gid] = locality
            if _sanitize_state.ACTIVE:
                # restore commit: the rebuilt state happens-before any
                # resolve of the resurrected GID
                _racecheck.send(("agas", gid))
        component.gid = gid
        self.registry.increment("/resilience/agas/components-restored")
        trace.instant("component-restored", "resilience",
                      gid=repr(gid), locality=locality)
        return gid

    @property
    def failed_localities(self) -> set[int]:
        with self._lock:
            return set(self._failed)

    # -- helpers ----------------------------------------------------------------

    def _check_locality(self, locality: int) -> None:
        if not 0 <= locality < self.n_localities:
            raise AgasError(
                f"locality {locality} out of range [0, {self.n_localities})")

    def _check_alive(self, locality: int) -> None:
        with self._lock:
            if locality in self._failed:
                raise LocalityFailed(f"locality {locality} has failed")
