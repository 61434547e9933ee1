"""The merger under faults: one driver, faults as data.

:func:`run_merger` takes a built scenario mesh (what ``v1309_binary`` or
``sedov_blast`` return), a :class:`Topology` and a :class:`FaultPlan`, and
runs the problem twice:

* **reference** — the node-level ``BlockMesh``, serial and fault-free;
* **candidate** — a ``DistBlockMesh`` sharded over the topology's
  localities: halos charged through the parcelport and delivered in a
  seeded shuffle, compute under a ``SupervisedEngine`` (work-stealing
  scheduler + simulated GPU), every step checkpointed and
  buddy-replicated, a phi-accrual detector on a deterministic event
  clock, and a lossy ``ResilientParcelSender`` side-channel broadcasting
  one boundary layer per step to a store on every locality.

What strikes the candidate is the plan's *data*; the presets keep the
historical scripted disasters.  The bar is the same under every plan:
final state **byte-identical** to the reference, drift reports equal
record for record, counters reconciling.  Everything is seeded, so a
fixed ``(topology, plan)`` reproduces the same fault schedule, detection
time and delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.distmesh import DistBlockMesh, box_partition
from ..core.exec import ExecutionEngine
from ..core.grid import NGHOST, RHO
from ..core.mesh import BlockMesh, subgrid_lattice
from ..core.stepper import ConservationMonitor, Recovery, drive, evolve
from ..network.parcelport import PARCELPORTS
from ..network.retry import RetryPolicy
from ..runtime.agas import Component
from ..runtime.counters import CounterRegistry
from ..runtime.cuda import CudaDevice
from ..runtime.parcel import Parcel, ParcelHandler
from ..runtime.scheduler import WorkStealingScheduler
from ..simulator.events import EventQueue
from ..util import is_integer
from .checkpoint import BuddyReplicatedStore, CheckpointManager
from .durability import (EVACUATION_CAPACITY, RecoveryCoordinator,
                         RecoveryReport)
from .faults import FaultInjector
from .health import FailureDetector
from .retry import ResilientParcelSender
from .supervisor import SupervisedEngine

__all__ = ["Topology", "FaultPlan", "MergerResult",
           "run_reference", "run_merger", "kill_and_recover",
           "CHAOS", "LOCALITY_KILL", "DUAL_KILL_CORRUPT"]

# One value each across every test, example and CI job: constants, not knobs.
T_END = 1.0                  # never reached: runs are step-bounded
HEARTBEAT_INTERVAL_S = 0.25  # detection, in event-clock seconds
PHI_THRESHOLD = 3.0
SIM_SECONDS_PER_STEP = 2.0
DETECT_HORIZON_S = 64.0      # a silence undeclared this long is a bug
MAX_DELAY_S = 0.05           # side-channel adversary; the finite loss
MAX_LOSSES = 4               # budget makes every loss transient
SIDE_CHANNEL_RETRY = RetryPolicy(max_attempts=8, base_backoff=1e-6,
                                 max_backoff=1e-4)
MAX_ACTION_FAULTS = 6        # task supervision
MAX_TASK_RETRIES = 4
N_CPU_WORKERS = 2
N_STREAMS = 2                # the simulated GPU
N_GPU_WORKERS = 2
QUARANTINE_THRESHOLD = 2
QUARANTINE_PERIOD_S = 30.0   # outlasts the run: still benched at the end
CHECKPOINT_INTERVAL = 1
KEEP_GENERATIONS = 4


@dataclass(frozen=True)
class Topology:
    """Where the candidate runs."""

    n_localities: int = 4
    port: str = "libfabric"
    #: seeded out-of-order delivery of remote halos (None: in order)
    reorder_seed: int | None = 1309

    def __post_init__(self) -> None:
        if not is_integer(self.n_localities) or self.n_localities < 1:
            raise ValueError(f"n_localities must be an integer >= 1 "
                             f"locality, got {self.n_localities!r}")
        if self.port not in PARCELPORTS:
            raise ValueError(f"port must be one of {sorted(PARCELPORTS)}, "
                             f"got {self.port!r}")


@dataclass(frozen=True)
class FaultPlan:
    """How long the candidate runs and everything that strikes it."""

    seed: int = 1309
    steps: int = 3
    #: localities silenced *together* once that many steps have completed
    kill: tuple[int, ...] = ()
    kill_after_steps: int = 2
    #: loss / delay on the per-step side-channel parcels
    loss_rate: float = 0.0
    delay_rate: float = 0.0
    #: transient faults inside supervised tasks; a permanently sick stream
    action_fault_rate: float = 0.0
    poison_stream: bool = False
    #: announced step faults; silent NaN corruption of a step's result
    fail_at_steps: tuple[int, ...] = ()
    corrupt_at_steps: tuple[int, ...] = ()
    #: checkpoint save indices (the drive loop saves at step 0, then after
    #: every step) whose record silently rots / is torn mid-write
    corrupt_saves: tuple[int, ...] = ()
    torn_saves: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name, least in (("steps", 1), ("kill_after_steps", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        for name in ("kill", "fail_at_steps", "corrupt_at_steps",
                     "corrupt_saves", "torn_saves"):
            indices = getattr(self, name)
            if not all(is_integer(i) for i in indices):
                raise ValueError(f"{name} holds a non-integer index: "
                                 f"{indices!r}")
            if any(i < 0 for i in indices):
                raise ValueError(f"{name} holds a negative index: {indices}")
        if len(set(self.kill)) != len(self.kill):
            raise ValueError(f"kill lists a locality twice: {self.kill}")


#: every fault class at once (the PR 4 chaos run)
CHAOS = FaultPlan(kill=(3,), loss_rate=0.3, delay_rate=0.3,
                  action_fault_rate=0.05, poison_stream=True,
                  fail_at_steps=(1,), corrupt_at_steps=(2,),
                  corrupt_saves=(1,), torn_saves=(2,))
#: one locality dies mid-run: detection, evacuation, local rollback
LOCALITY_KILL = FaultPlan(kill=(2,))
#: two non-adjacent localities die together and the newest checkpoint at
#: kill time is corrupt: global rollback past it, elastic restart
DUAL_KILL_CORRUPT = FaultPlan(kill=(1, 3), corrupt_saves=(1,))


class _HaloStore(Component):
    """Side-channel destination for per-step halo parcels (evacuated
    with the other components of a failed locality)."""

    def __init__(self) -> None:
        super().__init__()
        self.halos: dict[int, np.ndarray] = {}

    def put_halo(self, generation: int, buf: np.ndarray) -> int:
        self.halos[generation] = buf
        return generation


@dataclass
class MergerResult:
    """Everything the acceptance tests assert and the soak reports."""

    topology: Topology
    plan: FaultPlan
    reference: BlockMesh
    dist: DistBlockMesh
    ref_monitor: ConservationMonitor
    dist_monitor: ConservationMonitor
    registry: CounterRegistry
    injector: FaultInjector        # task / step / checkpoint faults
    net_injector: FaultInjector    # side-channel loss and delay
    detector: FailureDetector
    coordinator: RecoveryCoordinator   # .manager: the checkpoint store
    stores: list                   # side-channel GIDs, one per locality
    halo_acked: int = 0
    halo_failed: int = 0
    killed: list = field(default_factory=list)     # localities
    evacuated: list = field(default_factory=list)  # what AGAS did with
    lost: list = field(default_factory=list)       # the victims' GIDs
    #: the global rollback, when the kill exceeded evacuation capacity
    report: RecoveryReport | None = None
    #: stream indices still quarantined when the run ended
    quarantined_streams: list = field(default_factory=list)

    @property
    def bitwise_identical(self) -> bool:
        return np.array_equal(self.reference.gather_interior(),
                              self.dist.gather_interior())

    @property
    def reports_identical(self) -> bool:
        return self.ref_monitor.report() == self.dist_monitor.report()

    @property
    def counters_reconcile(self) -> bool:
        """Halo sets == gets, parcelport tallies == the transport's, one
        global rollback exactly when due and onto a verified generation.
        Needs a registry that saw only this run."""
        snap = self.registry.snapshot()
        sets = snap.get("/distmesh/halo/sets", 0.0)
        rollbacks = snap.get("/recovery/global-rollbacks", 0.0)
        return (sets > 0 and sets == snap.get("/distmesh/halo/gets", 0.0)
                and self.dist.transport.reconciles()
                and rollbacks == float(self.report is not None)
                and snap.get("/resilience/ckpt/verified", 0.0) >= rollbacks)

    def summary(self) -> str:
        """The verdict and the facts of this result, for the soak / CI
        log; every tally lives in ``registry`` (``format_report`` it)."""
        rep = self.report
        return "\n".join([
            "merger under faults: outcome",
            f"steps completed         : {self.dist.steps}",
            f"bitwise identical state : {self.bitwise_identical}",
            f"identical drift report  : {self.reports_identical}",
            f"counters reconcile      : {self.counters_reconcile}",
            "",
            f"localities              : {self.topology.n_localities} "
            f"(blocks: {self.dist.locality_blocks()})",
            f"killed / detected       : {self.killed} / "
            f"{sorted(self.detector.declared_failed)}",
            f"evacuated / lost GIDs   : {len(self.evacuated)} / "
            f"{len(self.lost)}",
            "global rollback         : "
            + (rep.summary() if rep is not None else "(not triggered)"),
            f"quarantined streams     : {self.quarantined_streams}",
            f"halo parcels            : {self.halo_acked} acked, "
            f"{self.halo_failed} failed",
        ])


def _check_kill(lattice: tuple[int, int, int], n_loc: int,
                kill: tuple[int, ...]) -> None:
    """Reject kill sets the topology cannot host or survive: the block
    owners are those of the mesh's default :func:`box_partition`."""
    outside = [v for v in kill if v >= n_loc]
    if outside:
        raise ValueError(f"kill names localities {outside} outside "
                         f"[0, {n_loc})")
    if kill and len(kill) >= n_loc:
        raise ValueError("at least one locality must survive the kill")
    if len(kill) <= EVACUATION_CAPACITY:
        return
    # beyond capacity the victims' GIDs are lost and only the buddy
    # replicas bring their blocks back
    owners = set(box_partition(lattice, n_loc).values())
    everyone = list(range(n_loc))
    doomed = sorted(v for v in owners.intersection(kill)
                    if BuddyReplicatedStore._buddy_of(v, everyone) in kill)
    if doomed:
        raise ValueError(
            f"kill {kill} takes block owners {doomed} down with their "
            f"checkpoint buddies: no copy of their blocks survives")


def run_reference(scenario, steps: int
                  ) -> tuple[BlockMesh, ConservationMonitor]:
    """The node-level fault-free run, ``steps`` steps: mesh and monitor."""
    mesh = BlockMesh.retile(scenario)
    return mesh, evolve(mesh, t_end=T_END, max_steps=steps)


def kill_and_recover(mesh, victims, detector: FailureDetector,
                     events: EventQueue, coordinator: RecoveryCoordinator,
                     monitor=None) -> RecoveryReport | None:
    """``victims`` die together; recover by whichever path suffices.

    They go silent and the event clock advances until the detector has
    declared them all (nobody calls ``fail_locality``); their blocks are
    then NaN-clobbered: a dead node takes its memory with it.  Within
    evacuation capacity AGAS re-homed their components and the latest
    local checkpoint is restored; beyond it the coordinator rolls back
    globally and restarts elastically (the returned report).
    """
    victims = set(victims)
    victim_blocks = [ip for ip, loc in mesh.owners().items()
                     if loc in victims]
    for victim in sorted(victims):
        detector.silence(victim)
    deadline = events.now + DETECT_HORIZON_S
    while not victims <= detector.declared_failed and events.now < deadline:
        events.run(until=events.now + 1.0)
    missing = sorted(victims - detector.declared_failed)
    if missing:
        raise RuntimeError(f"localities {missing} silent but never declared "
                           f"failed within {DETECT_HORIZON_S} s of event time")
    for ip in victim_blocks:
        mesh.blocks[ip][...] = np.nan
    if coordinator.needs_global_recovery(len(victims)):
        return coordinator.recover(monitor)
    coordinator.manager.restore_latest(mesh, monitor)
    return None


def run_merger(scenario, topology: Topology, plan: FaultPlan,
               registry: CounterRegistry | None = None,
               reference=None) -> MergerResult:
    """Run ``scenario`` distributed over ``topology`` under ``plan``.

    ``registry`` defaults to a fresh :class:`CounterRegistry`, so every
    tally is this run's alone (``counters_reconcile`` and the soak's exit
    gates need that).  The CUDA layer tallies ``/cuda/quarantined`` in the
    process-wide ``default_registry()`` regardless; pass that, reset, to
    see it next to the rest.  ``reference`` reuses one
    :func:`run_reference` result (it depends only on scenario and steps).
    """
    _check_kill(subgrid_lattice(scenario.shape), topology.n_localities,
                plan.kill)
    registry = registry if registry is not None else CounterRegistry()
    # two adversaries (their constructors reject rates outside [0, 1]): task
    # faults are drawn from worker threads, the wire's from this thread
    # only, so the loss schedule is a pure function of the seed
    injector = FaultInjector(
        plan.seed, action_fault_rate=plan.action_fault_rate,
        max_action_faults=MAX_ACTION_FAULTS,
        fail_at_steps=plan.fail_at_steps,
        corrupt_at_steps=plan.corrupt_at_steps,
        corrupt_ckpt_at_saves=plan.corrupt_saves,
        torn_write_at_saves=plan.torn_saves, registry=registry)
    net_injector = FaultInjector(
        plan.seed + 1, loss_rate=plan.loss_rate, delay_rate=plan.delay_rate,
        max_delay=MAX_DELAY_S, max_losses=MAX_LOSSES, registry=registry)

    ref_mesh, ref_monitor = reference or run_reference(scenario, plan.steps)
    dist = DistBlockMesh.retile(scenario, n_localities=topology.n_localities,
                                port=topology.port,
                                reorder_seed=topology.reorder_seed,
                                registry=registry)
    monitor = ConservationMonitor()
    checkpoints = CheckpointManager(interval=CHECKPOINT_INTERVAL,
                                    keep=KEEP_GENERATIONS,
                                    registry=registry, injector=injector)
    coordinator = RecoveryCoordinator(dist, checkpoints, registry=registry)
    events = EventQueue()

    def on_failure(_locality, moved) -> None:
        result.evacuated += moved["migrated"]
        result.lost += moved["lost"]

    # a kill beyond evacuation capacity is a correlated loss: AGAS must
    # lose the victims' GIDs so the replicated store is what restores them
    detector = FailureDetector(
        dist.agas, events, heartbeat_interval=HEARTBEAT_INTERVAL_S,
        phi_threshold=PHI_THRESHOLD,
        evacuate=not coordinator.needs_global_recovery(len(plan.kill)),
        on_failure=on_failure, registry=registry)
    detector.start()

    # the side-channel: one store per locality, reached over a lossy wire
    stores = [dist.agas.register(_HaloStore(), loc)
              for loc in range(topology.n_localities)]
    sender = ResilientParcelSender(
        ParcelHandler(dist.agas), injector=net_injector,
        policy=SIDE_CHANNEL_RETRY, registry=registry,
        sleep=lambda _t: None)

    result = MergerResult(
        topology=topology, plan=plan, reference=ref_mesh, dist=dist,
        ref_monitor=ref_monitor, dist_monitor=monitor,
        registry=registry, injector=injector, net_injector=net_injector,
        detector=detector, coordinator=coordinator, stores=stores)

    def per_step(mesh) -> None:
        halo = mesh.blocks[min(mesh.blocks)][RHO, NGHOST:NGHOST + 1].copy()
        for gid in stores:
            if gid in result.lost:
                continue  # died with its node: no destination any more
            # send() returns only once acked or out of attempts
            if sender.send(Parcel(gid, "put_halo", (mesh.steps, halo))
                           ).has_exception():
                result.halo_failed += 1
            else:
                result.halo_acked += 1
        events.run(until=events.now + SIM_SECONDS_PER_STEP)
        if (plan.kill and not result.killed
                and mesh.steps >= plan.kill_after_steps):
            result.killed = sorted(plan.kill)
            result.report = kill_and_recover(
                mesh, plan.kill, detector, events, coordinator, monitor)

    with WorkStealingScheduler(N_CPU_WORKERS) as sched, \
            CudaDevice(n_streams=N_STREAMS, n_workers=N_GPU_WORKERS,
                       name="merger-gpu",
                       quarantine_threshold=QUARANTINE_THRESHOLD,
                       quarantine_period=QUARANTINE_PERIOD_S) as gpu:
        if plan.poison_stream:
            gpu.streams[0].poison()
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, devices=[gpu], registry=registry),
            injector=injector, max_retries=MAX_TASK_RETRIES,
            registry=registry)
        dist.engine = engine
        drive(Recovery(dist, checkpoints, monitor, injector, registry),
              T_END, plan.steps, per_step)
        engine.synchronize()
        engine.publish_counters(registry)
        result.quarantined_streams = [s.index for s in gpu.streams
                                      if s.quarantined()]
    detector.stop()
    dist.publish_counters(registry)
    return result
