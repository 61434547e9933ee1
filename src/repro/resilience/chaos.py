"""Chaos harness: the V1309 merger under every fault class at once.

The individual resilience layers each have their own adversary and their
own tests; this module turns them all on **simultaneously** against one
scaled-down V1309 merger run (Sec. 4.2's scenario) and checks nothing
interferes:

* halo parcels ride a lossy, delaying network and survive through
  ack/timeout/retry (:class:`~repro.resilience.retry.ResilientParcelSender`);
* compute tasks suffer injected transient faults and a **permanently
  poisoned CUDA stream**; the
  :class:`~repro.resilience.supervisor.SupervisedEngine` re-executes
  them, and the stream-health layer quarantines the sick stream;
* one locality goes **silent** mid-run; the phi-accrual
  :class:`~repro.resilience.health.FailureDetector` notices and AGAS
  evacuates its components — no manual ``fail_locality`` call anywhere;
* an announced step fault and a silent state corruption strike the
  timestep loop; :class:`~repro.resilience.guard.GuardedStepper` rolls back
  to checkpoint and replays.

The acceptance bar (asserted by the integration test, reported by
``examples/chaos_merger.py``): the chaotic run completes, every fault
class fired at least once, every recovery mechanism engaged at least
once, and the final state and conservation drifts are **byte-identical**
to a fault-free run of the same problem.

Everything is seeded: a fixed :class:`ChaosConfig` reproduces the same
fault schedule, the same detection time and the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.exec import ExecutionEngine
from ..core.grid import NGHOST, RHO
from ..core.scenario import v1309_binary
from ..core.stepper import evolve
from ..runtime.agas import AgasRuntime, Component
from ..runtime.counters import CounterRegistry, default_registry
from ..runtime.cuda import CudaDevice
from ..runtime.parcel import Parcel, ParcelHandler
from ..runtime.scheduler import WorkStealingScheduler
from ..simulator.events import EventQueue
from .faults import FaultInjector
from .guard import GuardedStepper
from .health import FailureDetector
from .retry import ResilientParcelSender, RetryPolicy
from .supervisor import SupervisedEngine

__all__ = ["ChaosConfig", "ChaosResult", "run_chaos_merger"]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the chaos run; the defaults are the CI smoke settings."""

    seed: int = 1309
    #: merger problem size (cells per edge) and SCF iterations
    M: int = 16
    scf_iters: int = 12
    #: steps to evolve (t_end is effectively step-bounded)
    steps: int = 3
    t_end: float = 1.0
    # -- network faults (halo parcel side-channel) --
    loss_rate: float = 0.3
    delay_rate: float = 0.3
    max_delay: float = 0.05
    max_losses: int = 4
    # -- task-execution faults --
    action_fault_rate: float = 0.05
    max_action_faults: int = 6
    max_task_retries: int = 4
    # -- timestep faults --
    fail_at_steps: tuple[int, ...] = (1,)
    corrupt_at_steps: tuple[int, ...] = (2,)
    # -- checkpoint-store faults (save indices; the stepper saves at
    #    step 0 and then after every step) --
    #: the save the first rollback would restore is silently corrupted,
    #: so that restore must fall back a generation
    corrupt_ckpt_saves: tuple[int, ...] = (1,)
    #: a later save is torn mid-write (staged, never committed)
    torn_ckpt_saves: tuple[int, ...] = (2,)
    # -- silent locality failure --
    n_localities: int = 4
    silence_locality: int = 3
    #: silence the victim once this many steps have completed
    silence_after_steps: int = 2
    heartbeat_interval: float = 0.25
    phi_threshold: float = 3.0
    #: simulation seconds the event clock advances per merger step
    sim_seconds_per_step: float = 2.0
    # -- stream health --
    n_streams: int = 2
    n_gpu_workers: int = 2
    n_cpu_workers: int = 2
    quarantine_threshold: int = 2
    #: long enough that the poisoned stream sits out the whole run
    quarantine_period: float = 30.0


class _HaloStore(Component):
    """Side-channel destination for per-step halo parcels (migratable)."""

    def __init__(self) -> None:
        super().__init__()
        self.halos: dict[int, np.ndarray] = {}

    def put_halo(self, generation: int, buf: np.ndarray) -> int:
        self.halos[generation] = buf
        return generation


@dataclass
class ChaosResult:
    """Everything the acceptance test asserts and the example reports."""

    config: ChaosConfig
    clean_mesh: object
    chaotic_mesh: object
    clean_monitor: object      # ConservationMonitor
    chaos_monitor: object      # ConservationMonitor
    registry: CounterRegistry
    run_injector: FaultInjector
    net_injector: FaultInjector
    detector: FailureDetector
    stepper: object            # GuardedStepper
    agas: AgasRuntime
    stores: list = field(default_factory=list)
    halo_acked: int = 0
    halo_failed: int = 0

    @property
    def bitwise_identical(self) -> bool:
        return np.array_equal(self.clean_mesh.U, self.chaotic_mesh.U)

    @property
    def clean_report(self) -> dict[str, float]:
        return self.clean_monitor.report()

    @property
    def chaos_report(self) -> dict[str, float]:
        return self.chaos_monitor.report()

    def summary(self) -> str:
        """Human-readable outcome digest for the example / CI log."""
        snap = self.registry.snapshot()

        def c(name: str) -> int:
            return int(snap.get(name, 0.0))

        inj = self.run_injector.stats()
        net = self.net_injector.stats()
        lines = [
            "chaos merger outcome",
            "--------------------",
            f"steps completed        : {self.chaotic_mesh.steps}",
            f"bitwise identical state: {self.bitwise_identical}",
            f"identical drift report : "
            f"{self.clean_report == self.chaos_report}",
            "",
            "injected: "
            f"loss={net['loss']} delay={net['delay']} "
            f"action={inj['action']} step={inj['step']} "
            f"corruption={inj['corruption']} "
            f"torn-ckpt={inj['torn-write']} "
            f"corrupt-ckpt={inj['ckpt-corruption']}, "
            f"silenced localities={c('/resilience/health/silenced')}",
            "recovered: "
            f"parcel-retries={c('/resilience/parcels/retries')} "
            f"task-retries={c('/resilience/tasks/retried')} "
            f"restores={c('/resilience/steps/restores')} "
            f"rejected-steps={c('/resilience/steps/rejected')} "
            f"ckpt-fallbacks={c('/resilience/ckpt/fallback')}",
            "detected : "
            f"dead-localities={c('/resilience/health/detected')} "
            f"evacuated-components={c('/resilience/health/evacuated')} "
            f"quarantined-streams={c('/cuda/quarantined')}",
            f"halo parcels           : {self.halo_acked} acked, "
            f"{self.halo_failed} failed",
        ]
        return "\n".join(lines)


def run_chaos_merger(config: ChaosConfig | None = None,
                     registry: CounterRegistry | None = None,
                     build: Callable[[], object] | None = None
                     ) -> ChaosResult:
    """Run the fault-free and the everything-at-once chaotic merger.

    ``build`` constructs the problem mesh (called twice — identical
    initial data); defaults to the scaled-down V1309 binary.  Stream
    quarantine tallies into the *default* registry (where the CUDA layer
    publishes), so pass ``registry=default_registry()`` — the default —
    when asserting on ``/cuda/quarantined``.
    """
    cfg = config or ChaosConfig()
    registry = registry or default_registry()
    if build is None:
        def build() -> object:
            return v1309_binary(M=cfg.M, scf_iters=cfg.scf_iters)

    clean = build()
    chaotic = build()
    if not np.array_equal(clean.U, chaotic.U):
        raise RuntimeError("builder produced differing initial data")

    # the fault-free reference
    clean_monitor = evolve(clean, t_end=cfg.t_end, max_steps=cfg.steps)

    # adversaries: one injector on the compute/step path, one on the wire
    run_injector = FaultInjector(
        cfg.seed, action_fault_rate=cfg.action_fault_rate,
        max_action_faults=cfg.max_action_faults,
        fail_at_steps=cfg.fail_at_steps,
        corrupt_at_steps=cfg.corrupt_at_steps,
        corrupt_ckpt_at_saves=cfg.corrupt_ckpt_saves,
        torn_write_at_saves=cfg.torn_ckpt_saves, registry=registry)
    net_injector = FaultInjector(
        cfg.seed + 1, loss_rate=cfg.loss_rate, delay_rate=cfg.delay_rate,
        max_delay=cfg.max_delay, max_losses=cfg.max_losses,
        registry=registry)

    # distributed halo side-channel + health monitoring
    agas = AgasRuntime(cfg.n_localities, registry=registry)
    stores = [agas.register(_HaloStore(), loc)
              for loc in range(cfg.n_localities)]
    sender = ResilientParcelSender(
        ParcelHandler(agas), injector=net_injector,
        policy=RetryPolicy(max_attempts=8, base_backoff=1e-6,
                           max_backoff=1e-4),
        registry=registry, sleep=lambda _t: None)
    events = EventQueue()
    detector = FailureDetector(
        agas, events, heartbeat_interval=cfg.heartbeat_interval,
        phi_threshold=cfg.phi_threshold, registry=registry)
    detector.start()

    halo_futures: list = []
    silenced = False
    g = NGHOST

    with WorkStealingScheduler(cfg.n_cpu_workers) as sched, \
            CudaDevice(n_streams=cfg.n_streams,
                       n_workers=cfg.n_gpu_workers, name="chaos-gpu",
                       quarantine_threshold=cfg.quarantine_threshold,
                       quarantine_period=cfg.quarantine_period) as gpu:
        gpu.streams[0].poison()  # permanently sick stream
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, device=gpu,
                            registry=registry),
            injector=run_injector, max_retries=cfg.max_task_retries,
            registry=registry)
        chaotic.engine = engine
        stepper = GuardedStepper(chaotic, checkpoint_interval=1,
                                 fault_injector=run_injector,
                                 registry=registry)

        def per_step(mesh) -> None:
            nonlocal silenced
            # broadcast this step's boundary layer to every store
            halo = mesh.U[RHO, g:g + 1].copy()
            for gid in stores:
                halo_futures.append(sender.send(
                    Parcel(gid, "put_halo", (mesh.steps, halo))))
            if not silenced and mesh.steps >= cfg.silence_after_steps \
                    and cfg.silence_locality is not None:
                silenced = True
                detector.silence(cfg.silence_locality)
            events.run(until=events.now + cfg.sim_seconds_per_step)

        chaos_monitor = stepper.evolve(cfg.t_end, max_steps=cfg.steps,
                                       callback=per_step)
        engine.synchronize()
        # let detection complete if the victim was silenced late
        horizon = 0
        while (silenced
               and cfg.silence_locality not in detector.declared_failed
               and horizon < 64):
            events.run(until=events.now + 1.0)
            horizon += 1
        engine.publish_counters(registry)
    detector.stop()

    acked = failed = 0
    for fut in halo_futures:
        try:
            fut.get(timeout=5.0)
            acked += 1
        except BaseException:
            failed += 1

    return ChaosResult(
        config=cfg, clean_mesh=clean, chaotic_mesh=chaotic,
        clean_monitor=clean_monitor, chaos_monitor=chaos_monitor,
        registry=registry, run_injector=run_injector,
        net_injector=net_injector, detector=detector, stepper=stepper,
        agas=agas, stores=stores, halo_acked=acked, halo_failed=failed)
