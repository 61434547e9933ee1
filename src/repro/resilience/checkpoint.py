"""Periodic checkpoint/restore of mesh state, with content verification.

The conservation results of Sec. 4.2/4.3 (mass and angular momentum to
machine precision) are only worth having if a fault mid-run does not force
a restart from t=0.  A :class:`CheckpointManager` snapshots the *complete*
evolution state of a mesh — for a single-block
:class:`~repro.core.mesh.Mesh` the conserved-variable array ``U`` (ghosts
included), for a :class:`~repro.core.mesh.BlockMesh` every per-sub-grid
block — plus the simulation time and the step counter, and the length of
the conservation monitor's record list — every ``interval`` steps.  A
restore copies the arrays back bit-for-bit and truncates the monitor, so a
run that fails and restores produces a state stream *identical* to the
fault-free run: same dt sequence, same floating-point operations, same
drifts.  That bitwise-replay property is what the resilience acceptance
tests assert, on both the serial and the futurized path.

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
:class:`MeshCheckpoint` elsewhere bypasses checksum stamping, and mutating
``CheckpointManager._checkpoints`` directly bypasses the commit protocol —
both are flagged by lint rule REPRO009.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..runtime import trace
from ..runtime.counters import CounterRegistry, default_registry
from ..sanitize import lockdep as _sanitize_lockdep

__all__ = ["CheckpointError", "MeshCheckpoint", "CheckpointManager",
           "block_checksum"]


class CheckpointError(RuntimeError):
    """Raised when a restore is requested but no verified checkpoint exists."""


def block_checksum(arr: np.ndarray) -> int:
    """Content checksum of one payload array (dtype + shape + bytes).

    CRC32 is deliberate: the adversary here is bit rot and torn writes,
    not tampering, and the stamp runs on every block of every save.
    """
    a = np.ascontiguousarray(arr)
    head = f"{a.dtype.str}:{a.shape}".encode()
    return zlib.crc32(a.tobytes(), zlib.crc32(head)) & 0xFFFFFFFF


def _manifest_checksum(step: int, time: float, monitor_len: int,
                       checksums: dict) -> int:
    """Checksum over the record metadata and the sorted per-block stamps."""
    parts = [f"{step}:{time!r}:{monitor_len}"]
    parts.extend(f"{key!r}={crc}" for key, crc in sorted(checksums.items(),
                                                         key=lambda kv: repr(kv[0])))
    return zlib.crc32("|".join(parts).encode()) & 0xFFFFFFFF


@dataclass(frozen=True)
class MeshCheckpoint:
    """A frozen, checksummed snapshot of a mesh's evolution state.

    Exactly one of ``U`` (single-block :class:`~repro.core.mesh.Mesh`) or
    ``blocks`` (per-sub-grid state of a :class:`~repro.core.mesh.BlockMesh`)
    is populated.  ``checksums`` maps each payload key (the block index
    triple, or ``"U"``) to its content checksum; ``manifest`` is the
    committed checksum over metadata + stamps, and is ``None`` for a
    record whose write was torn before commit.
    """

    step: int
    time: float
    U: np.ndarray | None
    monitor_len: int
    blocks: dict[tuple[int, int, int], np.ndarray] | None = field(
        default=None)
    #: monotonically increasing save index within one manager/store
    generation: int = 0
    #: payload key -> content checksum, stamped at snapshot time
    checksums: dict | None = None
    #: commit marker: checksum over (metadata, sorted stamps); ``None``
    #: means the write never committed (torn)
    manifest: int | None = None

    @property
    def nbytes(self) -> int:
        if self.blocks is not None:
            return sum(b.nbytes for b in self.blocks.values())
        return self.U.nbytes if self.U is not None else 0

    @property
    def committed(self) -> bool:
        return self.manifest is not None

    def payload_items(self) -> list[tuple[object, np.ndarray]]:
        """The (key, array) payloads this record protects."""
        if self.blocks is not None:
            return sorted(self.blocks.items())
        return [("U", self.U)] if self.U is not None else []

    def verify(self) -> bool:
        """Re-derive every stamp and the manifest; True iff all match."""
        if self.manifest is None or self.checksums is None:
            return False
        payloads = dict(self.payload_items())
        if set(payloads) != set(self.checksums):
            return False
        for key, arr in payloads.items():
            if block_checksum(arr) != self.checksums[key]:
                return False
        return self.manifest == _manifest_checksum(
            self.step, self.time, self.monitor_len, self.checksums)


class CheckpointManager:
    """Keeps the ``keep`` most recent verified snapshots of one mesh.

    Works with any object exposing ``time`` (float), ``steps`` (int) and
    either ``U`` (ndarray — :class:`repro.core.mesh.Mesh`) or ``blocks``
    (dict of per-sub-grid ndarrays — :class:`repro.core.mesh.BlockMesh`);
    the optional monitor argument is a
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
        """Copy the mesh state and stamp every payload (no manifest yet)."""
        monitor_len = len(monitor.records) if monitor is not None else 0
        blocks = getattr(mesh, "blocks", None)
        with self._lock:
            generation = self._generation
            self._generation += 1
        if blocks is not None:
            copies = {ip: blk.copy() for ip, blk in blocks.items()}
            cp = MeshCheckpoint(
                step=mesh.steps, time=mesh.time, U=None,
                monitor_len=monitor_len, blocks=copies,
                generation=generation)
        else:
            cp = MeshCheckpoint(step=mesh.steps, time=mesh.time,
                                U=mesh.U.copy(), monitor_len=monitor_len,
                                generation=generation)
        checksums = {key: block_checksum(arr)
                     for key, arr in cp.payload_items()}
        return replace(cp, checksums=checksums)

    def _commit(self, cp: MeshCheckpoint) -> MeshCheckpoint:
        """Write-then-commit: stage payloads, then stamp the manifest.

        With an injector, a due torn write stages only a strict prefix of
        the payloads and never commits; a due corruption damages one
        committed payload's bytes in place.  Either way the *caller* sees
        a successful save — detection is the restore path's job.
        """
        inj = self.injector
        if inj is not None and inj.torn_write_due():
            items = cp.payload_items()
            kept = dict(items[:len(items) // 2])
            if cp.blocks is not None:
                torn = replace(cp, blocks=kept, manifest=None,
                               checksums={k: cp.checksums[k] for k in kept})
            else:
                # single-payload record: staged bytes, commit never ran
                torn = replace(cp, manifest=None)
            self.registry.increment("/resilience/ckpt/torn")
            trace.instant("checkpoint-torn", "resilience", step=cp.step)
            return torn
        committed = replace(cp, manifest=_manifest_checksum(
            cp.step, cp.time, cp.monitor_len, cp.checksums))
        if inj is not None and inj.checkpoint_corruption_due():
            # bit rot strikes the first payload: flip one byte in place
            _, arr = committed.payload_items()[0]
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
        if cp.blocks is not None:
            for ip, blk in cp.blocks.items():
                mesh.blocks[ip][...] = blk
        else:
            mesh.U[...] = cp.U
        mesh.time = cp.time
        mesh.steps = cp.step
        hook = getattr(mesh, "on_restore", None)
        if hook is not None:
            hook()
        if monitor is not None:
            del monitor.records[cp.monitor_len:]
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
    def latest(self) -> MeshCheckpoint | None:
        with self._lock:
            return self._checkpoints[-1] if self._checkpoints else None

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
