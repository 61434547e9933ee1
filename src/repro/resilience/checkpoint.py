"""Periodic checkpoint/restore of mesh state, with content verification.

The conservation results of Sec. 4.2/4.3 (mass and angular momentum to
machine precision) are only worth having if a fault mid-run does not force
a restart from t=0.  A :class:`CheckpointManager` snapshots the evolution
state of a mesh every ``interval`` steps.  **Interiors are the state**:
every mesh steps through :func:`repro.core.mesh.rk2_step`, whose first act
is the stage-0 ghost fill, so a ghost shell is scratch that the next step
rewrites before anything reads it.  A record therefore holds, for every
block of ``mesh.blocks`` (one per lattice block of a
:class:`~repro.core.mesh.BlockMesh`, one per leaf of an
:class:`~repro.core.amr.AmrMesh`), a contiguous copy of its *interior* —
plus the simulation time, the step counter and the length of the
conservation monitor's record list.  A restore copies the interiors back
bit-for-bit, leaves the ghost shells to that fill, and truncates the
monitor, so a run that fails and restores produces a state stream
*identical* to the fault-free run: same dt sequence, same floating-point
operations, same drifts.  That bitwise-replay property is what the
resilience acceptance tests assert, on both the serial and the futurized
path.

This module alone knows the **record format**: a :class:`ManifestRecord`
header (generation, step, time, monitor length, per-block stamps, manifest
CRC) and a :class:`MeshCheckpoint` = header + ``{block key: interior}``
payloads.  Headers are built, committed and verified here;
:func:`restore_state` is the one routine that writes a record back into a
mesh, shared by :meth:`CheckpointManager.restore_latest` and the global
rollback of :class:`repro.resilience.durability.RecoveryCoordinator`.

Snapshots are **verified records** (the durable-recovery layer of
arXiv 2412.15518's fault-tolerance gap): every per-block payload is
stamped with a content checksum at snapshot time, and the record's
*manifest* — a checksum over the metadata and the sorted per-block
checksums — is committed only after all payloads are staged.  The write
path is therefore an atomic write-then-commit protocol: a crash (or an
injected :meth:`~repro.resilience.faults.FaultInjector.torn_write_due`)
mid-write leaves a staged record with no manifest, which
:meth:`CheckpointManager.restore_latest` detects and skips; a silently
damaged payload (bit rot,
:meth:`~repro.resilience.faults.FaultInjector.checkpoint_corruption_due`)
fails its checksum the same way.  ``restore_latest`` falls back
generation by generation past torn and corrupt records to the newest
*verified* one, and raises :class:`CheckpointError` only when no verified
generation survives.  Verification traffic is tallied under
``/resilience/ckpt/{verified,corrupt,torn,fallback}``.

After copying state back, a restore invokes the mesh's optional
``on_restore()`` hook — the uniform meshes drop their gravity cache, and
:class:`~repro.core.distmesh.DistBlockMesh` resets the channels of its
cross-locality halos, whose generation numbers are derived from the step
counter and would otherwise reject the replayed generations.

Checkpoints live in memory (``keep`` most recent are retained; the model
has no node-local disk to lose) — replication of records across
localities, so they survive the node they protect, is layered on top by
:class:`repro.resilience.durability.BuddyReplicatedStore`.  Saves and
restores are tallied under ``/resilience/checkpoint/...`` and emit trace
instants.

The interval check in :meth:`CheckpointManager.maybe_save` and the
append in :meth:`CheckpointManager.save` are one atomic claim: two worker
threads asking at the same step cannot double-save it.

Records round-trip through this module's API only: constructing a
:class:`MeshCheckpoint` or a :class:`ManifestRecord` elsewhere bypasses
checksum stamping, and mutating ``CheckpointManager._checkpoints``
directly bypasses the commit protocol — both are flagged by lint rule
REPRO009.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from ..core.mesh import interior
from ..runtime import trace
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import lockdep as _sanitize_lockdep

__all__ = ["CheckpointError", "ManifestRecord", "MeshCheckpoint",
           "CheckpointManager", "block_checksum", "restore_state"]


class CheckpointError(RuntimeError):
    """Raised when a restore is requested but no verified checkpoint exists."""


def block_checksum(arr: np.ndarray) -> int:
    """Content checksum of one payload array (dtype + shape + bytes).

    CRC32 is deliberate: the adversary here is bit rot and torn writes,
    not tampering, and the stamp runs on every block of every save.
    """
    a = np.ascontiguousarray(arr)
    head = f"{a.dtype.str}:{a.shape}".encode()
    # crc32 reads the contiguous array's buffer in place (no tobytes copy)
    return zlib.crc32(a, zlib.crc32(head)) & 0xFFFFFFFF


@dataclass(frozen=True)
class ManifestRecord:
    """The header of a record: metadata, per-block stamps, commit marker.

    Small (no payloads), so the durable layer replicates it to *every*
    survivor — any one of them can then validate any generation's block
    records.
    """

    #: monotonically increasing save index within one manager/store
    generation: int
    step: int
    time: float
    monitor_len: int
    #: block key -> content checksum, stamped at snapshot time
    checksums: dict
    #: commit marker: checksum over (metadata, sorted stamps); ``None``
    #: means the write never committed (torn)
    manifest: int | None = None

    @property
    def nbytes(self) -> int:
        # modelled wire size: fixed header + one (key, crc) entry per block
        return 48 + 24 * len(self.checksums)

    def _manifest_checksum(self) -> int:
        """Checksum over the metadata and the sorted per-block stamps."""
        parts = [f"{self.step}:{self.time!r}:{self.monitor_len}"]
        parts.extend(f"{key!r}={crc}" for key, crc in sorted(
            self.checksums.items(), key=lambda kv: repr(kv[0])))
        return zlib.crc32("|".join(parts).encode()) & 0xFFFFFFFF

    def commit(self) -> "ManifestRecord":
        """This header with its manifest stamped."""
        return replace(self, manifest=self._manifest_checksum())

    def verify(self) -> bool:
        return self.manifest == self._manifest_checksum()


@dataclass(frozen=True)
class MeshCheckpoint:
    """A frozen, checksummed snapshot of a mesh's evolution state: the
    ``header`` and, per block of ``mesh.blocks`` in sorted key order, a
    contiguous copy of its interior (no ghost shell)."""

    header: ManifestRecord
    blocks: dict

    @property
    def generation(self) -> int:
        return self.header.generation

    @property
    def step(self) -> int:
        return self.header.step

    @property
    def monitor_len(self) -> int:
        return self.header.monitor_len

    @property
    def committed(self) -> bool:
        return self.header.manifest is not None

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.blocks.values())

    def verify(self) -> bool:
        """Re-derive the manifest and every stamp; True iff all match."""
        stamps = self.header.checksums
        return (self.header.verify() and set(self.blocks) == set(stamps)
                and all(block_checksum(arr) == stamps[key]
                        for key, arr in self.blocks.items()))


def restore_state(mesh, header: ManifestRecord, payloads: dict,
                  monitor=None) -> None:
    """Write a verified record back into ``mesh``: interiors in, time and
    step counter set, the ``on_restore()`` hook run, ``monitor`` truncated.
    Ghost shells are left as they are — every stepping path refills them
    (stage-0 fill of :func:`repro.core.mesh.rk2_step`) before reading."""
    blocks = mesh.blocks
    for key, payload in payloads.items():
        interior(blocks[key])[...] = payload
    mesh.time = header.time
    mesh.steps = header.step
    hook = getattr(mesh, "on_restore", None)
    if hook is not None:
        hook()
    if monitor is not None:
        del monitor.records[header.monitor_len:]


class CheckpointManager:
    """Keeps the ``keep`` most recent verified snapshots of one mesh.

    Works with any object exposing ``time`` (float), ``steps`` (int) and
    ``blocks`` (``{key: ghosted block}`` — every mesh of
    :mod:`repro.core`); the optional monitor argument is a
    :class:`repro.core.stepper.ConservationMonitor` whose record list is
    truncated on restore so post-restore samples line up with the replay.

    An optional ``injector`` makes the manager its own adversary: each
    save first asks :meth:`~repro.resilience.faults.FaultInjector.torn_write_due`
    (stage a partial record, never commit) and then
    :meth:`~repro.resilience.faults.FaultInjector.checkpoint_corruption_due`
    (damage the committed payload in place).  Both are only *detectable*
    because of the checksums — the save path reports success either way,
    exactly like a real filesystem.
    """

    def __init__(self, interval: int = 10, keep: int = 2,
                 registry: CounterRegistry | None = None,
                 injector=None):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.interval = interval
        self.keep = keep
        self.registry = registry or default_registry()
        self.injector = injector
        self._lock = _sanitize_lockdep.make_lock("checkpoint.manager")
        self._checkpoints: list[MeshCheckpoint] = []
        self._generation = 0
        #: step of the newest save (claimed atomically in maybe_save so
        #: concurrent callers cannot double-save one step)
        self._last_saved_step: int | None = None
        self.saves = 0
        self.restores = 0
        #: hook invoked with each newly committed record (the durability
        #: layer replicates it to a buddy locality from here)
        self.on_commit = None

    # -- saving -------------------------------------------------------------

    def _snapshot(self, mesh, monitor) -> MeshCheckpoint:
        """Copy the interiors and stamp every payload (no manifest yet)."""
        with self._lock:
            generation = self._generation
            self._generation += 1
        monitor_len = len(monitor.records) if monitor is not None else 0
        copies = {key: interior(blk).copy()
                  for key, blk in sorted(mesh.blocks.items())}
        stamps = {key: block_checksum(arr) for key, arr in copies.items()}
        return MeshCheckpoint(
            ManifestRecord(generation, mesh.steps, mesh.time, monitor_len,
                           stamps), copies)

    def _commit(self, cp: MeshCheckpoint) -> MeshCheckpoint:
        """Write-then-commit: stage payloads, then stamp the manifest.

        With an injector, a due torn write stages only a strict prefix of
        the payloads and never commits; a due corruption damages one
        committed payload's bytes in place.  Either way the *caller* sees
        a successful save — detection is the restore path's job.
        """
        inj = self.injector
        if inj is not None and inj.torn_write_due():
            items = list(cp.blocks.items())
            kept = dict(items[:len(items) // 2])
            self.registry.increment("/resilience/ckpt/torn")
            trace.instant("checkpoint-torn", "resilience", step=cp.step)
            return MeshCheckpoint(replace(cp.header, checksums={
                key: cp.header.checksums[key] for key in kept}), kept)
        committed = replace(cp, header=cp.header.commit())
        if inj is not None and inj.checkpoint_corruption_due():
            # bit rot strikes the first payload: flip one byte in place
            arr = next(iter(committed.blocks.values()))
            arr.view(np.uint8).reshape(-1)[0] ^= 0xFF
            trace.instant("checkpoint-corrupted", "resilience", step=cp.step)
        return committed

    def _store(self, cp: MeshCheckpoint) -> MeshCheckpoint:
        cp = self._commit(cp)
        with self._lock:
            self._checkpoints.append(cp)
            del self._checkpoints[:-self.keep]
            self.saves += 1
        r = self.registry
        r.increment("/resilience/checkpoint/saves")
        r.increment("/resilience/checkpoint/bytes-saved", float(cp.nbytes))
        trace.instant("checkpoint-save", "resilience", step=cp.step)
        if cp.committed and self.on_commit is not None:
            self.on_commit(cp)
        return cp

    def save(self, mesh, monitor=None) -> MeshCheckpoint:
        """Snapshot ``mesh`` now (regardless of the interval)."""
        with self._lock:
            self._last_saved_step = mesh.steps
        return self._store(self._snapshot(mesh, monitor))

    def maybe_save(self, mesh, monitor=None) -> MeshCheckpoint | None:
        """Snapshot if ``interval`` steps have passed since the last one.

        The interval check and the claim of the step are one atomic
        operation: when several worker threads reach the same step, exactly
        one performs the save (the old read-unlock-save sequence let two
        threads both observe a stale last step and double-save).
        """
        step = mesh.steps
        with self._lock:
            if (self._last_saved_step is not None
                    and step - self._last_saved_step < self.interval):
                return None
            self._last_saved_step = step
        return self._store(self._snapshot(mesh, monitor))

    # -- restoring ----------------------------------------------------------

    def _newest_verified(self) -> MeshCheckpoint:
        """Scan newest-to-oldest for a record that verifies, dropping the
        torn/corrupt ones passed over on the way (they can never be
        restored and must not shadow older good generations again)."""
        r = self.registry
        with self._lock:
            while self._checkpoints:
                cp = self._checkpoints[-1]
                if cp.verify():
                    r.increment("/resilience/ckpt/verified")
                    return cp
                self._checkpoints.pop()
                r.increment("/resilience/ckpt/corrupt")
                r.increment("/resilience/ckpt/fallback")
                trace.instant("checkpoint-fallback", "resilience",
                              step=cp.step,
                              cause="torn" if not cp.committed else "corrupt")
        raise CheckpointError("no verified checkpoint survives "
                              "(all generations torn or corrupt)")

    def restore_latest(self, mesh, monitor=None) -> MeshCheckpoint:
        """Roll ``mesh`` (and ``monitor``) back to the newest *verified*
        checkpoint, falling back past torn/corrupt generations."""
        cp = self._newest_verified()
        with self._lock:
            self.restores += 1
            # replay re-arms the save cadence from the restored step
            self._last_saved_step = cp.step
        restore_state(mesh, cp.header, cp.blocks, monitor)
        self.registry.increment("/resilience/checkpoint/restores")
        trace.instant("checkpoint-restore", "resilience", step=cp.step)
        return cp

    # -- durability hooks ----------------------------------------------------

    def reset(self) -> int:
        """Drop every retained record (the durable layer calls this when
        the localities whose memory held them are gone); the save cadence
        and generation counter keep running.  Returns the drop count."""
        with self._lock:
            dropped = len(self._checkpoints)
            self._checkpoints.clear()
            self._last_saved_step = None
        if dropped:
            self.registry.increment("/resilience/ckpt/invalidated",
                                    float(dropped))
        return dropped

    # -- introspection ------------------------------------------------------

    @property
    def latest_verified(self) -> MeshCheckpoint | None:
        """Newest record that passes verification (no side effects)."""
        with self._lock:
            for cp in reversed(self._checkpoints):
                if cp.verify():
                    return cp
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)
