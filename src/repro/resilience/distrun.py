"""Distributed V1309 merger: the real physics sharded over localities.

This is the end-to-end driver for :class:`~repro.core.distmesh.DistBlockMesh`:
the Sec. 4.2 contact-binary merger (SCF-initialized, self-gravitating,
rotating frame) is run twice on identical initial data —

* **reference**: the node-level :class:`~repro.core.mesh.BlockMesh`
  (all blocks in one locality, no parcelport);
* **distributed**: blocks sharded over ``n_localities`` as AGAS
  components, halos charged through the parcelport and delivered in a
  seeded shuffled order, the whole run supervised — a
  :class:`~repro.resilience.supervisor.SupervisedEngine` re-executes
  faulted tasks, a :class:`~repro.resilience.checkpoint.CheckpointManager`
  snapshots every ``checkpoint_interval`` steps, and a phi-accrual
  :class:`~repro.resilience.health.FailureDetector` watches heartbeats on
  a deterministic event clock.

Optionally one locality goes **silent** mid-merger: the detector notices
(no manual ``fail_locality`` anywhere), AGAS evacuates the victim's block
components (their GIDs stay valid, ownership moves to survivors), the
harness clobbers the victim's block arrays with NaN — the data a real
node death takes with it — and the run rolls back to the latest
checkpoint and replays.  The acceptance bar, asserted by the integration
test and reported by ``examples/distributed_merger.py``:

* the distributed final state is **byte-identical** to the reference,
  with and without the failure;
* the conservation-drift reports are identical record for record;
* the counters reconcile: ``/distmesh/halo/sets == /distmesh/halo/gets``
  and every cross-locality halo was charged to the halo parcelport
  (transport tallies == ``/parcels/halo:<port>/*`` tallies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.distmesh import DistBlockMesh
from ..core.exec import ExecutionEngine
from ..core.grid import SUBGRID_N
from ..core.mesh import BlockMesh
from ..core.scenario import v1309_binary
from ..core.stepper import ConservationMonitor, evolve
from ..runtime.counters import CounterRegistry
from ..runtime.scheduler import WorkStealingScheduler
from ..simulator.events import EventQueue
from .checkpoint import CheckpointManager
from .durability import RecoveryCoordinator, RecoveryReport
from .faults import FaultInjector
from .health import FailureDetector
from .supervisor import SupervisedEngine

__all__ = ["DistributedMergerConfig", "DistributedMergerResult",
           "run_distributed_merger",
           "RecoveryMergerConfig", "RecoveryMergerResult",
           "run_recovery_merger"]


@dataclass(frozen=True)
class DistributedMergerConfig:
    """Knobs of the distributed run; defaults are the CI smoke settings."""

    #: merger problem size (cells per edge; must be a multiple of the
    #: sub-grid edge, with a power-of-two block count for self-gravity)
    M: int = 16
    scf_iters: int = 12
    steps: int = 3
    t_end: float = 1.0
    # -- distribution --
    n_localities: int = 4
    port: str = "libfabric"
    #: seeded out-of-order delivery of remote halos (None: in-order)
    reorder_seed: int | None = 1309
    # -- mid-run locality failure (None: fault-free) --
    kill_locality: int | None = 2
    #: silence the victim once this many steps have completed
    kill_after_steps: int = 2
    heartbeat_interval: float = 0.25
    phi_threshold: float = 3.0
    #: simulation seconds the event clock advances per merger step
    sim_seconds_per_step: float = 2.0
    #: event-clock horizon (s) to wait for detection after the silence
    detect_horizon: float = 64.0
    # -- supervision --
    checkpoint_interval: int = 1
    n_cpu_workers: int = 2


@dataclass
class DistributedMergerResult:
    """Everything the acceptance test asserts and the example reports."""

    config: DistributedMergerConfig
    reference: object          # node-level BlockMesh
    dist: object               # DistBlockMesh
    ref_monitor: object        # ConservationMonitor
    dist_monitor: object       # ConservationMonitor
    registry: CounterRegistry
    detector: FailureDetector | None
    checkpoints: CheckpointManager
    killed_locality: int | None = None
    evacuated: list = field(default_factory=list)
    lost: list = field(default_factory=list)

    @property
    def bitwise_identical(self) -> bool:
        return np.array_equal(self.reference.gather_interior(),
                              self.dist.gather_interior())

    @property
    def reports_identical(self) -> bool:
        return self.ref_monitor.report() == self.dist_monitor.report()

    @property
    def counters_reconcile(self) -> bool:
        snap = self.registry.snapshot()
        sets = snap.get("/distmesh/halo/sets", 0.0)
        gets = snap.get("/distmesh/halo/gets", 0.0)
        return (sets == gets and sets > 0
                and self.dist.transport.reconciles())

    def summary(self) -> str:
        """Human-readable outcome digest for the example / CI log."""
        cfg = self.config
        st = self.dist.transport.stats
        blocks = self.dist.locality_blocks()
        detected = (sorted(self.detector.declared_failed)
                    if self.detector is not None else [])
        lines = [
            "distributed merger outcome",
            "--------------------------",
            f"steps completed         : {self.dist.steps}",
            f"bitwise identical state : {self.bitwise_identical}",
            f"identical drift report  : {self.reports_identical}",
            f"counters reconcile      : {self.counters_reconcile}",
            "",
            f"localities              : {cfg.n_localities} "
            f"(blocks: {blocks})",
            f"killed / detected       : {self.killed_locality} / {detected}",
            f"evacuated blocks        : {len(self.evacuated)} "
            f"(lost: {len(self.lost)})",
            f"checkpoint restores     : {self.checkpoints.restores}",
            "",
            f"halo traffic ({self.dist.transport.port.name})",
            f"  local  : {st.local_msgs} msgs, {st.local_bytes} B",
            f"  remote : {st.remote_msgs} msgs, {st.remote_bytes} B "
            f"({st.reordered} delivered out of order)",
            f"   1-sided: {st.onesided_msgs} msgs, {st.onesided_bytes} B",
            f"  path    : eager={st.eager} rendezvous={st.rendezvous} "
            f"rma={st.rma}",
        ]
        return "\n".join(lines)


def run_distributed_merger(config: DistributedMergerConfig | None = None,
                           registry: CounterRegistry | None = None
                           ) -> DistributedMergerResult:
    """Run the node-level reference and the supervised distributed merger.

    Both meshes are loaded from one SCF solve, so their initial data is
    bitwise-equal by construction.  Pass a fresh
    :class:`CounterRegistry` (the default) when asserting on counter
    reconciliation; ``default_registry()`` works but accumulates across
    runs.
    """
    cfg = config or DistributedMergerConfig()
    registry = registry if registry is not None else CounterRegistry()
    if cfg.M % SUBGRID_N:
        raise ValueError(f"M={cfg.M} is not a multiple of the sub-grid "
                         f"edge {SUBGRID_N}")
    bpe = cfg.M // SUBGRID_N

    src = v1309_binary(M=cfg.M, scf_iters=cfg.scf_iters)
    mesh_kwargs = dict(domain=src.domain, origin=src.origin,
                       options=src.options, bc=src.bc, self_gravity=True)

    reference = BlockMesh(bpe, **mesh_kwargs)
    reference.load_interior(src.interior)
    dist = DistBlockMesh(bpe, n_localities=cfg.n_localities, port=cfg.port,
                         reorder_seed=cfg.reorder_seed, registry=registry,
                         **mesh_kwargs)
    dist.load_interior(src.interior)
    if not np.array_equal(reference.gather_interior(),
                          dist.gather_interior()):
        raise RuntimeError("reference and distributed initial data differ")

    # the fault-free node-level reference
    ref_monitor = evolve(reference, t_end=cfg.t_end, max_steps=cfg.steps)

    # supervision: checkpoints + phi-accrual detection on the event clock
    events = EventQueue()
    detector = FailureDetector(
        dist.agas, events, heartbeat_interval=cfg.heartbeat_interval,
        phi_threshold=cfg.phi_threshold, registry=registry)
    detector.start()
    checkpoints = CheckpointManager(interval=cfg.checkpoint_interval,
                                    keep=4, registry=registry)
    dist_monitor = ConservationMonitor()

    state = {"killed": False, "evacuated": [], "lost": []}

    def per_step(mesh) -> None:
        events.run(until=events.now + cfg.sim_seconds_per_step)
        if (state["killed"] or cfg.kill_locality is None
                or mesh.steps < cfg.kill_after_steps):
            return
        state["killed"] = True
        victim = cfg.kill_locality
        victim_blocks = [ip for ip, loc in mesh.owners().items()
                         if loc == victim]
        # the node goes silent; the detector must notice on its own
        detector.silence(victim)
        horizon = 0.0
        while (victim not in detector.declared_failed
               and horizon < cfg.detect_horizon):
            events.run(until=events.now + 1.0)
            horizon += 1.0
        if victim not in detector.declared_failed:
            raise RuntimeError(
                f"locality {victim} silent but never declared failed "
                f"within {cfg.detect_horizon}s of event time")
        state["evacuated"] = [mesh.gids[ip] for ip in victim_blocks]
        # the dead node's memory is gone: clobber what it hosted, then
        # roll back to the latest checkpoint and replay on the survivors
        for ip in victim_blocks:
            mesh.blocks[ip][...] = np.nan
        checkpoints.restore_latest(mesh, dist_monitor)

    with WorkStealingScheduler(cfg.n_cpu_workers) as sched:
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, registry=registry),
            registry=registry)
        dist.engine = engine
        evolve(dist, t_end=cfg.t_end, max_steps=cfg.steps,
               monitor=dist_monitor, callback=per_step,
               checkpoints=checkpoints)
        engine.synchronize()
    detector.stop()
    dist.publish_counters(registry)

    return DistributedMergerResult(
        config=cfg, reference=reference, dist=dist,
        ref_monitor=ref_monitor, dist_monitor=dist_monitor,
        registry=registry, detector=detector, checkpoints=checkpoints,
        killed_locality=cfg.kill_locality if state["killed"] else None,
        evacuated=state["evacuated"], lost=state["lost"])


# ---------------------------------------------------------------------------
# durable recovery demo: correlated multi-locality failure + elastic restart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryMergerConfig:
    """Knobs of the durable-recovery run; defaults are the CI soak settings.

    The scripted disaster: ``kill_localities`` go silent *together* after
    ``kill_after_steps`` steps — more concurrent failures than the
    evacuation capacity absorbs, so their blocks' GIDs are lost, not
    evacuated — and the newest checkpoint at kill time was silently
    corrupted on its way to the store (``corrupt_save_index``).  The run
    must roll back to the newest *verified* generation, restart
    elastically on the survivors, and still finish byte-identical.

    The default victims ``(1, 3)`` are deliberately non-adjacent: buddy
    replication places each block's copy on the *next* surviving
    locality, so losing an owner together with its buddy (an adjacent
    pair) destroys both copies — the unrecoverable case, like losing
    both halves of a RAID mirror.
    """

    M: int = 16
    scf_iters: int = 12
    steps: int = 3
    t_end: float = 1.0
    # -- distribution --
    n_localities: int = 4
    port: str = "libfabric"
    reorder_seed: int | None = 1309
    # -- the correlated failure --
    kill_localities: tuple[int, ...] = (1, 3)
    kill_after_steps: int = 2
    evacuation_capacity: int = 1
    # -- the corrupted checkpoint (save index; evolve saves at step 0,
    #    then after every step, so index 1 is the newest at kill time) --
    corrupt_save_index: int | None = 1
    #: torn-write save indices (none by default; the soak test adds some)
    torn_save_indices: tuple[int, ...] = ()
    fault_seed: int = 1309
    # -- degraded network while recovering (chaos soak) --
    loss_rate: float = 0.0
    delay_rate: float = 0.0
    # -- detection --
    heartbeat_interval: float = 0.25
    phi_threshold: float = 3.0
    sim_seconds_per_step: float = 2.0
    detect_horizon: float = 64.0
    # -- supervision --
    checkpoint_interval: int = 1
    keep_generations: int = 4
    n_cpu_workers: int = 2


@dataclass
class RecoveryMergerResult:
    """Everything the recovery acceptance test asserts and CI reports."""

    config: RecoveryMergerConfig
    reference: object
    dist: object
    ref_monitor: object
    dist_monitor: object
    registry: CounterRegistry
    detector: FailureDetector
    coordinator: RecoveryCoordinator
    injector: FaultInjector
    report: RecoveryReport | None = None
    killed: list = field(default_factory=list)
    escalations: int = 0

    @property
    def bitwise_identical(self) -> bool:
        return np.array_equal(self.reference.gather_interior(),
                              self.dist.gather_interior())

    @property
    def reports_identical(self) -> bool:
        return self.ref_monitor.report() == self.dist_monitor.report()

    @property
    def counters_reconcile(self) -> bool:
        """Halo sets==gets, parcelport tallies match the transport, and
        the checkpoint-store counters tell the scripted story exactly:
        every committed save was verified-or-skipped coherently."""
        snap = self.registry.snapshot()
        sets = snap.get("/distmesh/halo/sets", 0.0)
        gets = snap.get("/distmesh/halo/gets", 0.0)
        if not (sets == gets and sets > 0 and self.dist.transport.reconciles()):
            return False
        # ckpt ledger: exactly one global verification per rollback, and
        # every generation passed over on the way is tallied as fallback
        rollbacks = snap.get("/recovery/global-rollbacks", 0.0)
        verified = snap.get("/resilience/ckpt/verified", 0.0)
        return verified >= rollbacks >= 1.0

    def summary(self) -> str:
        cfg = self.config
        snap = self.registry.snapshot()
        st = self.dist.transport.stats
        rep = self.report
        lines = [
            "durable recovery outcome",
            "------------------------",
            f"steps completed         : {self.dist.steps}",
            f"bitwise identical state : {self.bitwise_identical}",
            f"identical drift report  : {self.reports_identical}",
            f"counters reconcile      : {self.counters_reconcile}",
            "",
            f"killed / detected       : {self.killed} / "
            f"{sorted(self.detector.declared_failed)}",
            f"global rollback         : "
            f"{rep.summary() if rep is not None else '(not triggered)'}",
            f"task escalations        : {self.escalations}",
            "",
            "checkpoint store",
            f"  saves / replicas      : "
            f"{snap.get('/resilience/checkpoint/saves', 0):.0f} / "
            f"{snap.get('/resilience/ckpt/replicas', 0):.0f}",
            f"  verified / corrupt    : "
            f"{snap.get('/resilience/ckpt/verified', 0):.0f} / "
            f"{snap.get('/resilience/ckpt/corrupt', 0):.0f}",
            f"  fallbacks / torn      : "
            f"{snap.get('/resilience/ckpt/fallback', 0):.0f} / "
            f"{snap.get('/resilience/ckpt/torn', 0):.0f}",
            f"  replicas lost         : "
            f"{snap.get('/resilience/ckpt/replicas-lost', 0):.0f}",
            f"  blocks re-fetched     : "
            f"{snap.get('/recovery/blocks-fetched', 0):.0f} "
            f"({snap.get('/recovery/bytes-fetched', 0):.0f} B)",
            "",
            f"halo traffic ({self.dist.transport.port.name})",
            f"  local  : {st.local_msgs} msgs, {st.local_bytes} B",
            f"  remote : {st.remote_msgs} msgs, {st.remote_bytes} B "
            f"({st.reordered} delivered out of order)",
            f"   1-sided: {st.onesided_msgs} msgs, {st.onesided_bytes} B",
            f"  path    : eager={st.eager} rendezvous={st.rendezvous} "
            f"rma={st.rma}",
        ]
        return "\n".join(lines)


def run_recovery_merger(config: RecoveryMergerConfig | None = None,
                        registry: CounterRegistry | None = None
                        ) -> RecoveryMergerResult:
    """Run the reference and the durably-checkpointed distributed merger
    through a correlated multi-locality failure.

    The distributed run checkpoints every step through a
    :class:`~repro.resilience.checkpoint.CheckpointManager` whose commits
    are buddy-replicated by a :class:`RecoveryCoordinator`; a seeded
    :class:`FaultInjector` corrupts the newest record at kill time.  When
    the victims go silent the phi-accrual detector declares them (no
    evacuation — the failure exceeds capacity, so their GIDs are *lost*),
    the coordinator rolls everything back to the newest verified
    generation, remaps ownership over the survivors, resurrects the lost
    GIDs, and the run replays to completion.
    """
    cfg = config or RecoveryMergerConfig()
    registry = registry if registry is not None else CounterRegistry()
    if cfg.M % SUBGRID_N:
        raise ValueError(f"M={cfg.M} is not a multiple of the sub-grid "
                         f"edge {SUBGRID_N}")
    if len(set(cfg.kill_localities)) != len(cfg.kill_localities):
        raise ValueError("kill_localities must be distinct")
    if len(cfg.kill_localities) >= cfg.n_localities:
        raise ValueError("at least one locality must survive")
    bpe = cfg.M // SUBGRID_N

    src = v1309_binary(M=cfg.M, scf_iters=cfg.scf_iters)
    mesh_kwargs = dict(domain=src.domain, origin=src.origin,
                       options=src.options, bc=src.bc, self_gravity=True)

    reference = BlockMesh(bpe, **mesh_kwargs)
    reference.load_interior(src.interior)
    dist = DistBlockMesh(bpe, n_localities=cfg.n_localities, port=cfg.port,
                         reorder_seed=cfg.reorder_seed, registry=registry,
                         **mesh_kwargs)
    dist.load_interior(src.interior)
    if not np.array_equal(reference.gather_interior(),
                          dist.gather_interior()):
        raise RuntimeError("reference and distributed initial data differ")

    ref_monitor = evolve(reference, t_end=cfg.t_end, max_steps=cfg.steps)

    # the adversary: silent corruption of scheduled checkpoint saves
    # (plus optional torn writes and degraded-network loss/delay)
    injector = FaultInjector(
        cfg.fault_seed,
        corrupt_ckpt_at_saves=((cfg.corrupt_save_index,)
                               if cfg.corrupt_save_index is not None else ()),
        torn_write_at_saves=cfg.torn_save_indices,
        loss_rate=cfg.loss_rate, delay_rate=cfg.delay_rate,
        registry=registry)

    events = EventQueue()
    # evacuate=False: the scripted failure is a *correlated* one, beyond
    # the single-locality evacuation capacity — AGAS must lose the
    # victims' GIDs so the durable-recovery path (restore_component) is
    # what brings them back
    detector = FailureDetector(
        dist.agas, events, heartbeat_interval=cfg.heartbeat_interval,
        phi_threshold=cfg.phi_threshold, evacuate=False, registry=registry)
    detector.start()
    checkpoints = CheckpointManager(interval=cfg.checkpoint_interval,
                                    keep=cfg.keep_generations,
                                    registry=registry, injector=injector)
    dist_monitor = ConservationMonitor()
    coordinator = RecoveryCoordinator(
        dist, checkpoints, evacuation_capacity=cfg.evacuation_capacity,
        registry=registry)

    state = {"killed": False, "report": None, "escalations": 0}

    def escalate(exc, args, attempt) -> None:
        state["escalations"] += 1

    def per_step(mesh) -> None:
        events.run(until=events.now + cfg.sim_seconds_per_step)
        if (state["killed"] or not cfg.kill_localities
                or mesh.steps < cfg.kill_after_steps):
            return
        state["killed"] = True
        victims = list(cfg.kill_localities)
        victim_blocks = [ip for ip, loc in mesh.owners().items()
                         if loc in victims]
        # the correlated failure: every victim goes silent in the same
        # heartbeat window; the detector must find them all on its own
        for victim in victims:
            detector.silence(victim)
        horizon = 0.0
        while (not all(v in detector.declared_failed for v in victims)
               and horizon < cfg.detect_horizon):
            events.run(until=events.now + 1.0)
            horizon += 1.0
        missing = [v for v in victims if v not in detector.declared_failed]
        if missing:
            raise RuntimeError(
                f"localities {missing} silent but never declared failed "
                f"within {cfg.detect_horizon}s of event time")
        # dead memory: the victims' block arrays and checkpoint shards
        # are gone; only the surviving replicas can restore them
        for ip in victim_blocks:
            mesh.blocks[ip][...] = np.nan
        if not coordinator.needs_global_recovery(len(victims)):
            raise RuntimeError("scripted failure should exceed evacuation "
                               "capacity; check the config")
        state["report"] = coordinator.recover(dist_monitor)

    with WorkStealingScheduler(cfg.n_cpu_workers) as sched:
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, registry=registry),
            escalate=escalate, registry=registry)
        dist.engine = engine
        evolve(dist, t_end=cfg.t_end, max_steps=cfg.steps,
               monitor=dist_monitor, callback=per_step,
               checkpoints=checkpoints)
        engine.synchronize()
    detector.stop()
    dist.publish_counters(registry)

    return RecoveryMergerResult(
        config=cfg, reference=reference, dist=dist,
        ref_monitor=ref_monitor, dist_monitor=dist_monitor,
        registry=registry, detector=detector, coordinator=coordinator,
        injector=injector, report=state["report"],
        killed=list(cfg.kill_localities) if state["killed"] else [],
        escalations=state["escalations"])
