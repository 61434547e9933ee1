"""Checkpoint records and the one store that holds them.

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
mesh.

Records are **verified** (the durable-recovery layer of arXiv
2412.15518's fault-tolerance gap): every payload is stamped with a
content checksum at snapshot time, and the record's *manifest* — a
checksum over the metadata and the sorted stamps — is committed only
after all payloads are staged.  A crash (or an injected
:meth:`~repro.resilience.faults.FaultInjector.torn_write_due`) mid-write
leaves a record with no manifest; a silently damaged payload (bit rot,
:meth:`~repro.resilience.faults.FaultInjector.checkpoint_corruption_due`)
fails its checksum.  A restore falls back generation by generation past
both to the newest *verified* one, and raises :class:`CheckpointError`
only when none survives.  Verification is tallied under
``/resilience/ckpt/{verified,corrupt,torn,fallback}``.

**One store.**  The manager keeps the cadence, the snapshot, the stamps,
the write-then-commit and the fault injection, and no record of its own:
every record it writes, torn ones included, goes into its
:class:`BuddyReplicatedStore`, and a block's snapshot array *is* the
owner's copy there.  On a node-level mesh the store is one locality with
no homes, no buddy and no charge.  A
:class:`~repro.resilience.durability.RecoveryCoordinator` binds the
owner-plus-buddy case over a :class:`~repro.core.distmesh.DistBlockMesh`:
each committed payload also gets a copy on the next live locality,
charged to the halo parcelport as a one-sided put, and its header goes to
every live locality.  Liveness is AGAS's: the store reads
``mesh.agas.failed_localities`` at every write and scan and drops a dead
locality's shard there, so no record lands on a dead node or is read
from one.  Every reader goes through the store's one scan,
:meth:`BuddyReplicatedStore.recovery_plan` (the newest generation whose
header verifies and whose every block has a verified live copy, the copy
already at the block's destination first), then one
:meth:`~BuddyReplicatedStore.fetch` and :func:`restore_state`; a restore
drops the generations newer than the one it landed on.  The ``keep``
newest generations are retained, in memory (the model has no node-local
disk to lose).

After copying state back, a restore invokes the mesh's optional
``on_restore()`` hook — the uniform meshes drop their gravity cache, and
:class:`~repro.core.distmesh.DistBlockMesh` resets the channels of its
cross-locality halos, whose generation numbers are derived from the step
counter and would otherwise reject the replayed generations.  Saves and
restores are tallied under ``/resilience/checkpoint/...``, buddy copies
under ``/resilience/ckpt/replicas``, fetches under ``/recovery/...``.

The interval check in :meth:`CheckpointManager.maybe_save` and the claim
of the step are one atomic operation: two worker threads asking at the
same step cannot double-save it.

Records round-trip through this module's API only: constructing a
:class:`MeshCheckpoint` or a :class:`ManifestRecord` elsewhere bypasses
checksum stamping, and mutating a store's ``_shards`` or ``_manifests``
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
           "BuddyReplicatedStore", "CheckpointManager", "block_checksum",
           "restore_state"]


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

    Small (no payloads), so the store keeps it on *every* live locality —
    any one of them can then validate any generation's block records.
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


class BuddyReplicatedStore:
    """Every checkpoint record, sharded by locality.

    ``mesh=None`` is the node-level case: one locality, no homes, no
    buddy, no charge.  Over a :class:`~repro.core.distmesh.DistBlockMesh`
    a committed record's payloads stay on their blocks' owners and get a
    copy on the next live locality (cyclically), charged as a one-sided
    put over the mesh's halo parcelport; its header is stored as is on
    every live locality, so any survivor can validate any generation.
    The two copies are independent arrays: bit rot on one node does not
    touch the other.  A torn record stays where its write died: staged
    payloads on their owners, the uncommitted header on the first live
    locality, nothing copied or charged.

    Liveness is read from ``mesh.agas.failed_localities`` at every write
    and scan; a dead locality's shard and headers are dropped there,
    like the memory of a dead node.
    """

    def __init__(self, mesh=None, *, keep: int = 4,
                 registry: CounterRegistry | None = None):
        if keep < 1:
            raise ValueError("must keep at least one generation")
        self.mesh = mesh
        self.keep = keep
        self.registry = registry or default_registry()
        self._lock = _sanitize_lockdep.make_lock("checkpoint.store")
        n = 1 if mesh is None else mesh.n_localities
        #: locality -> {(generation, key) -> payload}
        self._shards: dict[int, dict[tuple, np.ndarray]] = {
            loc: {} for loc in range(n)}
        #: locality -> {generation -> ManifestRecord}
        self._manifests: dict[int, dict[int, ManifestRecord]] = {
            loc: {} for loc in range(n)}
        self.replicated = 0

    @staticmethod
    def _buddy_of(owner: int, live: list[int]) -> int | None:
        """Next live locality after ``owner``, cyclically."""
        if len(live) < 2:
            return None
        after = [loc for loc in live if loc > owner]
        return after[0] if after else live[0]

    def homes(self) -> dict:
        """Block -> locality as AGAS records it now (one locality: none)."""
        return {} if self.mesh is None else self.mesh.owners()

    def _put(self, nbytes: int, src: int, dst: int) -> None:
        if self.mesh is not None:
            self.mesh.transport.charge_onesided(nbytes, src, dst)

    def _headers(self) -> tuple[list[int], dict[int, ManifestRecord]]:
        """The live localities and ``generation -> header`` over them; a
        dead locality's shard and headers are dropped here.  Caller holds
        the lock."""
        dead = (set() if self.mesh is None
                else self.mesh.agas.failed_localities)
        lost = sum(len(self._shards[loc]) for loc in dead)
        for loc in dead:
            self._shards[loc], self._manifests[loc] = {}, {}
        if lost:
            self.registry.increment("/resilience/ckpt/replicas-lost",
                                    float(lost))
        live = [loc for loc in self._shards if loc not in dead]
        return live, {gen: man for loc in live
                      for gen, man in self._manifests[loc].items()}

    def _retain(self, wanted) -> None:
        """Keep the generations ``wanted`` accepts (caller holds the lock)."""
        for loc in self._shards:
            self._manifests[loc] = {g: m for g, m in
                                    self._manifests[loc].items() if wanted(g)}
            self._shards[loc] = {gk: a for gk, a in self._shards[loc].items()
                                 if wanted(gk[0])}

    # -- write path ---------------------------------------------------------

    def replicate(self, cp: MeshCheckpoint) -> None:
        """Write one record into the shards, then keep the ``keep`` newest
        generations (see the class docstring for where each copy goes)."""
        homes, gen = self.homes(), cp.generation
        copies = copied = 0
        with self._lock:
            live, _ = self._headers()
            if not live:
                return
            for key, arr in cp.blocks.items():
                owner = homes.get(key)
                if owner not in live:
                    owner = live[0]
                self._shards[owner][gen, key] = arr
                buddy = self._buddy_of(owner, live)
                if cp.committed and buddy is not None:
                    self._shards[buddy][gen, key] = arr.copy()
                    self._put(arr.nbytes, owner, buddy)
                    copies, copied = copies + 1, copied + arr.nbytes
            for loc in live if cp.committed else live[:1]:
                self._manifests[loc][gen] = cp.header
                self._put(cp.header.nbytes, live[0], loc)
            gens = sorted(self._headers()[1])
            if len(gens) > self.keep:
                self._retain(lambda g: g >= gens[-self.keep])
            if cp.committed:
                self.replicated += 1
        if copies:
            self.registry.increment("/resilience/ckpt/replicas", float(copies))
            self.registry.increment("/resilience/ckpt/replica-bytes",
                                    float(copied))
        if cp.committed:
            trace.instant("checkpoint-replicated", "resilience",
                          generation=gen, step=cp.step)

    # -- read path ----------------------------------------------------------

    def _scan(self, destination: dict):
        """The one scan, newest generation first (caller holds the lock).

        Returns the first generation whose header verifies and whose every
        block has a verified live copy — the one at ``destination[key]``
        tried first — as ``(header, {key: holder})``, plus ``(generation,
        saw a rotten copy)`` for every newer generation passed over; the
        header is ``None`` when no generation qualifies.
        """
        live, headers = self._headers()
        passed = []
        for gen in sorted(headers, reverse=True):
            man, holders, rotten = headers[gen], {}, False
            verified = man.verify()
            for key, crc in man.checksums.items() if verified else ():
                near = destination.get(key)
                for loc in sorted(live, key=lambda loc: loc != near):
                    payload = self._shards[loc].get((gen, key))
                    if payload is None:
                        continue
                    if block_checksum(payload) == crc:
                        holders[key] = loc
                        break
                    rotten = True
                if key not in holders:
                    break
            if verified and len(holders) == len(man.checksums):
                return man, holders, passed
            passed.append((gen, rotten))
        return None, {}, passed

    def recovery_plan(self, destination: dict) -> tuple[ManifestRecord, dict]:
        """The scan, tallied: the newest restorable generation's header
        and ``key -> holder locality``, or :class:`CheckpointError`."""
        with self._lock:
            man, holders, passed = self._scan(destination)
        r = self.registry
        for gen, rotten in passed:
            if rotten:
                r.increment("/resilience/ckpt/corrupt")
            r.increment("/resilience/ckpt/fallback")
            trace.instant("checkpoint-fallback", "resilience", generation=gen)
        if man is None:
            raise CheckpointError(
                "no verified checkpoint survives: no globally-consistent "
                "generation (each is torn, corrupt or lost with its "
                "localities)")
        r.increment("/resilience/ckpt/verified")
        return man, holders

    def fetch(self, manifest: ManifestRecord, holders: dict,
              destination: dict) -> dict:
        """Read every block of a planned generation for its post-restore
        owner, charged holder -> ``destination[key]`` like any one-sided
        transfer.  Returns ``key -> payload``, read in place."""
        out: dict = {}
        with self._lock:
            for key, holder in holders.items():
                out[key] = payload = self._shards[holder][
                    manifest.generation, key]
                self._put(payload.nbytes, holder,
                          destination.get(key, holder))
        r = self.registry
        r.increment("/recovery/blocks-fetched", float(len(out)))
        r.increment("/recovery/bytes-fetched",
                    float(sum(p.nbytes for p in out.values())))
        return out

    def restore(self, mesh, destination: dict,
                monitor=None) -> MeshCheckpoint:
        """Plan, fetch, :func:`restore_state`; then drop every generation
        newer than the restored one (it belongs to the abandoned
        timeline)."""
        man, holders = self.recovery_plan(destination)
        payloads = self.fetch(man, holders, destination)
        restore_state(mesh, man, payloads, monitor)
        with self._lock:
            self._retain(lambda g: g <= man.generation)
        return MeshCheckpoint(man, payloads)

    def latest(self) -> MeshCheckpoint | None:
        """The record a restore would land on now, read in place: the
        scan without its tallies and without fetch traffic."""
        with self._lock:
            man, holders, _ = self._scan({})
            if man is None:
                return None
            return MeshCheckpoint(man, {
                key: self._shards[loc][man.generation, key]
                for key, loc in holders.items()})

    def __len__(self) -> int:
        """Generations retained on the live localities (torn included)."""
        with self._lock:
            return len(self._headers()[1])


class CheckpointManager:
    """Saves verified snapshots of one mesh into its store and rolls the
    mesh back to the newest one the store can restore.

    Works with any object exposing ``time`` (float), ``steps`` (int) and
    ``blocks`` (``{key: ghosted block}`` — every mesh of
    :mod:`repro.core`); the optional monitor argument is a
    :class:`repro.core.stepper.ConservationMonitor` whose record list is
    truncated on restore so post-restore samples line up with the replay.
    The records live in :attr:`store`: the one-locality store, until a
    :class:`~repro.resilience.durability.RecoveryCoordinator` binds the
    owner-plus-buddy one (before the first save).

    An optional ``injector`` makes the manager its own adversary: each
    save first asks :meth:`~repro.resilience.faults.FaultInjector.torn_write_due`
    (stage a partial record, never commit) and then
    :meth:`~repro.resilience.faults.FaultInjector.checkpoint_corruption_due`
    (damage the committed payload in place, before it is copied).  Both
    are only *detectable* because of the checksums — the save path
    reports success either way, exactly like a real filesystem.
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
        self._generation = 0
        #: step of the newest save (claimed atomically in maybe_save so
        #: concurrent callers cannot double-save one step)
        self._last_saved_step: int | None = None
        self.saves = 0
        self.restores = 0
        self.store = BuddyReplicatedStore(keep=keep, registry=self.registry)

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

    def _write(self, cp: MeshCheckpoint) -> MeshCheckpoint:
        cp = self._commit(cp)
        self.store.replicate(cp)
        with self._lock:
            self.saves += 1
        r = self.registry
        r.increment("/resilience/checkpoint/saves")
        r.increment("/resilience/checkpoint/bytes-saved", float(cp.nbytes))
        trace.instant("checkpoint-save", "resilience", step=cp.step)
        return cp

    def save(self, mesh, monitor=None) -> MeshCheckpoint:
        """Snapshot ``mesh`` now (regardless of the interval)."""
        with self._lock:
            self._last_saved_step = mesh.steps
        return self._write(self._snapshot(mesh, monitor))

    def maybe_save(self, mesh, monitor=None) -> MeshCheckpoint | None:
        """Snapshot if ``interval`` steps have passed since the last one.

        The interval check and the claim of the step are one atomic
        operation: when several worker threads reach the same step,
        exactly one performs the save.
        """
        step = mesh.steps
        with self._lock:
            if (self._last_saved_step is not None
                    and step - self._last_saved_step < self.interval):
                return None
            self._last_saved_step = step
        return self._write(self._snapshot(mesh, monitor))

    # -- restoring ----------------------------------------------------------

    def restore_latest(self, mesh, monitor=None) -> MeshCheckpoint:
        """Roll ``mesh`` (and ``monitor``) back to the newest *verified*
        generation, falling back past torn/corrupt ones; each block is
        read from the copy at its current home when that one verifies."""
        cp = self.store.restore(mesh, self.store.homes(), monitor)
        with self._lock:
            self.restores += 1
            # replay re-arms the save cadence from the restored step
            self._last_saved_step = cp.step
        self.registry.increment("/resilience/checkpoint/restores")
        trace.instant("checkpoint-restore", "resilience", step=cp.step)
        return cp

    # -- introspection ------------------------------------------------------

    @property
    def latest_verified(self) -> MeshCheckpoint | None:
        """The record a restore would land on (no tallies, no traffic)."""
        return self.store.latest()

    def __len__(self) -> int:
        return len(self.store)
