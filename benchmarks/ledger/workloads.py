"""The ledger's four workloads: build, warm up, run a fixed block, check.

Load model: closed loop, one client.  A *repetition* builds the scenario
and mesh from scratch, takes one warm-up step (end of ``setup_s``), then
advances a fixed number of useful steps (the *run*); every ``mesh.step()``
inside is one step sample.  Meshes are fixed-resolution, so work per step
is constant and the result is work per second at a stated input size.
Repetitions are repeated until ``--seconds`` is used up (never fewer than
three untraced), which is what gives set-up and run several samples per
process and lets every process check its own determinism.

The host this runs on slows down by up to 1.6x for tens of seconds at a
time (README, "Noise"), so wall seconds of identical code spread 0.1-0.45
between processes.  Every timed step is therefore preceded by
:func:`probe`, a fixed numpy kernel of this file, and the end-to-end cost
metrics are *ratios to the probe taken right before*: ``step_cost`` is how
many probes a step is worth.  Raw seconds are kept as information.

``--seed`` feeds the halo ``reorder_seed`` and the ``FaultInjector`` seed
only; physics must come out byte-identical for every seed.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from repro.core import SUBGRID_N, BlockMesh, scenario
from repro.core.distmesh import DistBlockMesh
from repro.core.exec import ExecutionEngine
from repro.core.stepper import ConservationMonitor
from repro.network.parcelport import reset_port_stats
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.durability import RecoveryCoordinator
from repro.resilience.faults import FaultInjector
from repro.resilience.health import FailureDetector
from repro.resilience.supervisor import SupervisedEngine
from repro.runtime import CudaDevice, WorkStealingScheduler
from repro.runtime.counters import default_registry
from repro.simulator.events import EventQueue

from spans import FIRST_SOLVE, SpanRecorder

__all__ = ["Workload", "WORKLOADS", "QUICK", "run_workload", "p25"]

#: untimed steps that close set-up (the first one records the FMM lists)
WARMUP = 1
#: untraced repetitions per process, so setup_s/run_s have a median
MIN_REPS = 3
#: the correlated failure of ``sedov_dist_recover``: non-adjacent, so each
#: lost block still has its buddy replica on a survivor
VICTIMS = (1, 3)
#: event-clock seconds per step, and the horizon to wait for detection
SIM_S_PER_STEP = 2.0
DETECT_HORIZON_S = 64.0

#: program counters read (as end-minus-start of the timed block)
COUNTERS = {
    "solves": "/fmm/solves",
    "p2p": "/fmm/interactions/monopole",
    "m2l": "/fmm/interactions/multipole",
    "tasks": "/threads/executed",
    "steals": "/threads/stolen",
    "idle_sleeps": "/threads/idle-sleeps",
    "gpu": "/exec/launched/gpu",
    "cpu": "/exec/launched/cpu",
    "agg_launches": "/cuda/agg-launches",
    "agg_tasks": "/cuda/agg-tasks",
    "halo_sets": "/distmesh/halo/sets",
    "halo_gets": "/distmesh/halo/gets",
    "remote_msgs": "/distmesh/halo/remote-msgs",
    "remote_bytes": "/distmesh/halo/remote-bytes",
    "local_msgs": "/distmesh/halo/local-msgs",
    "local_bytes": "/distmesh/halo/local-bytes",
    "reordered": "/distmesh/halo/reordered",
    "eager": "/parcels/halo:libfabric/eager",
    "rendezvous": "/parcels/halo:libfabric/rendezvous",
    "rma": "/parcels/halo:libfabric/rma",
    "sender_cpu": "/parcels/halo:libfabric/sender_cpu",
    "wire": "/parcels/halo:libfabric/wire",
    "receiver_cpu": "/parcels/halo:libfabric/receiver_cpu",
    "ckpt_saves": "/resilience/checkpoint/saves",
    "ckpt_bytes": "/resilience/checkpoint/bytes-saved",
    "replica_bytes": "/resilience/ckpt/replica-bytes",
    "fallbacks": "/resilience/ckpt/fallback",
    "blocks_fetched": "/recovery/blocks-fetched",
    "bytes_fetched": "/recovery/bytes-fetched",
    "tasks_retried": "/resilience/tasks/retried",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str            # key of SCENARIOS
    n: int                   # cells per edge (n / 8 sub-grids per edge)
    steps: int               # useful steps per repetition
    mass_tol: float
    momentum_tol: float
    localities: int = 0      # 0: node-level serial BlockMesh, no engine
    sched_workers: int = 0
    gpu: bool = False        # one simulated device, 16 streams, 1 worker
    ckpt_interval: int = 0
    kill_after: int = 0      # useful steps before VICTIMS go silent (0: never)
    prefix_steps: int = 0    # compare with the node-level mesh after this
                             # many useful steps (0: after all of them)

    @property
    def n_subgrids(self) -> int:
        return (self.n // SUBGRID_N) ** 3


SCENARIOS = {
    "star": lambda n: scenario.equilibrium_star(n=n),
    "sedov": lambda n: scenario.sedov_blast(n=n),
    "v1309": lambda n: scenario.v1309_binary(M=n, scf_iters=12),
}

# Conservation thresholds are the ones the existing tests assert for the
# same scenarios (floors feed mass into the star's evacuated exterior; the
# binary sheds envelope through the outflow walls).
WORKLOADS = (
    Workload(
        "star_serial",
        "16^3 Lane-Emden star on a serial 2^3-sub-grid BlockMesh, 4 steps: "
        "the plain single-threaded baseline; FMM gravity is ~0.9 of the "
        "step, hydro ~0.1, no runtime, no network.",
        "star", 16, 4, mass_tol=1e-7, momentum_tol=1e-6),
    Workload(
        "sedov_serial",
        "24^3 Sedov blast on a serial 3^3-sub-grid BlockMesh, 10 steps: "
        "gravity bypassed, so hydro RHS (~0.85) and channel halos carry the "
        "step; a gravity change must not move it.",
        "sedov", 24, 10, mass_tol=1e-12, momentum_tol=1e-12),
    Workload(
        "v1309_dist",
        "16^3 SCF-built V1309 binary on 4 localities over libfabric, 1 "
        "worker + 1 simulated GPU, supervised, checkpoint+buddy replication "
        "every 5 of 5 steps: every layer at once, no fault.",
        "v1309", 16, 5, mass_tol=1e-2, momentum_tol=0.05,
        localities=4, sched_workers=1, gpu=True, ckpt_interval=5,
        prefix_steps=2),
    Workload(
        "sedov_dist_recover",
        "Same Sedov input on 4 localities with 1 worker, checkpoint every "
        "step; after step 2 of 4 two localities die and the newest "
        "checkpoint is corrupt: fall back, restart on 2 survivors, replay.",
        "sedov", 24, 4, mass_tol=1e-12, momentum_tol=1e-12,
        localities=4, sched_workers=1, ckpt_interval=1, kill_after=2),
)

def _quick(w: Workload) -> Workload:
    return replace(w, n=16, steps=2,
                   ckpt_interval=min(w.ckpt_interval, 2),
                   kill_after=2 if w.kill_after else 0,
                   prefix_steps=1 if w.prefix_steps else 0)


#: ``--quick`` sizes for ``test_ledger.py``: 16^3, 2 steps
QUICK = tuple(_quick(w) for w in WORKLOADS)


_PROBE_BLOCK = np.random.default_rng(1309).random((15, 14, 14, 14)) + 0.5


def probe() -> float:
    """Wall seconds of a fixed kernel in the style of the solver's hot
    loops: ~300 small elementwise numpy calls on slices of one ghosted
    block.  It depends on nothing under ``src/``, so it moves with the
    host's speed and with nothing else."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(6):
        for axis in (1, 2, 3):
            v = np.moveaxis(_PROBE_BLOCK, axis, 1)
            left, mid, right = v[:, :-2], v[:, 1:-1], v[:, 2:]
            dl, dr = mid - left, right - mid
            slope = np.where(dl * dr > 0.0,
                             np.minimum(np.abs(dl), np.abs(dr)), 0.0)
            face = mid + 0.5 * slope
            speed = np.sqrt(np.abs(face)) \
                + np.abs(face / np.maximum(mid, 1e-3))
            total += float((face * speed).sum())
    return time.perf_counter() - t0


def p25(samples) -> float:
    return float(np.percentile(samples, 25))


def state_crc(mesh) -> int:
    return zlib.crc32(mesh.gather_interior())


def mesh_kwargs(src) -> dict:
    """``BlockMesh`` geometry and physics of a scenario's single ``Mesh``."""
    return dict(domain=src.domain, origin=src.origin, options=src.options,
                bc=src.bc, self_gravity=src.self_gravity)


def read_counters(live) -> dict[str, float]:
    """Publish the gauges this repetition's objects own, then read
    :data:`COUNTERS` from the default registry."""
    reg = default_registry()
    if live.engine is not None:
        live.engine.publish_counters(reg)
        live.mesh.publish_counters(reg)
    snap = reg.snapshot()
    return {key: snap.get(path, 0.0) for key, path in COUNTERS.items()}


# -- one repetition ----------------------------------------------------------

def build(w: Workload, seed: int, stack: ExitStack) -> SimpleNamespace:
    """Scenario, mesh, and (distributed workloads) runtime + resilience."""
    src = SCENARIOS[w.scenario](w.n)
    kwargs = mesh_kwargs(src)
    bpe = w.n // SUBGRID_N
    live = SimpleNamespace(src=src, engine=None, checkpoints=None,
                           coordinator=None, detector=None, events=None)
    if not w.localities:
        live.mesh = BlockMesh(bpe, **kwargs)
    else:
        sched = stack.enter_context(WorkStealingScheduler(w.sched_workers))
        devices = [stack.enter_context(CudaDevice(
            n_streams=16, n_workers=1, name="ledger-gpu"))] if w.gpu else None
        live.engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, devices=devices))
        live.mesh = DistBlockMesh(
            bpe, n_localities=w.localities, port="libfabric",
            reorder_seed=seed, engine=live.engine, **kwargs)
        # the save after useful step kill_after - 1 is the newest one when
        # the victims die; it is the one that rots (saves count from 0,
        # the first being the one that opens the timed block)
        injector = FaultInjector(
            seed, corrupt_ckpt_at_saves=((w.kill_after - 1,)
                                         if w.kill_after else ()))
        live.checkpoints = CheckpointManager(
            interval=w.ckpt_interval, keep=4, injector=injector)
        live.coordinator = RecoveryCoordinator(live.mesh, live.checkpoints)
        if w.kill_after:
            live.events = EventQueue()
            live.detector = FailureDetector(
                live.mesh.agas, live.events, heartbeat_interval=0.25,
                phi_threshold=3.0, evacuate=False)
            live.detector.start()
    live.mesh.load_interior(src.interior.copy())
    return live


def disaster(live) -> float:
    """``VICTIMS`` go silent together; the detector must notice on its own,
    then everything rolls back to the newest verified generation and
    restarts on the survivors.  Returns event-clock seconds to detection."""
    mesh, detector, events = live.mesh, live.detector, live.events
    victim_blocks = [ip for ip, loc in mesh.owners().items()
                     if loc in VICTIMS]
    silenced_at = events.now
    for victim in VICTIMS:
        detector.silence(victim)
    while (not all(v in detector.declared_failed for v in VICTIMS)
           and events.now - silenced_at < DETECT_HORIZON_S):
        events.run(until=events.now + 1.0)
    missing = [v for v in VICTIMS if v not in detector.declared_failed]
    if missing:
        raise RuntimeError(f"localities {missing} silent but never declared "
                           f"failed within {DETECT_HORIZON_S} s of event time")
    detect_sim_s = events.now - silenced_at
    for ip in victim_blocks:  # a dead node takes its memory with it
        mesh.blocks[ip][...] = np.nan
    live.coordinator.recover()
    return detect_sim_s


def timed_block(w: Workload, live, rec: SpanRecorder | None) -> dict:
    """Advance ``w.steps`` useful steps: the run.  Each loop iteration is
    probe, step, then whatever follows the step (event clock, disaster,
    checkpoint); the probe's own wall is left out of every sum."""
    mesh = live.mesh
    monitor = ConservationMonitor()
    monitor.sample(mesh)
    before = read_counters(live)
    probes: list[float] = []
    walls: list[float] = []   # mesh.step() only
    iters: list[float] = []   # the whole iteration minus its probe
    out = {"crc_prefix": None, "recover_s": 0.0, "detect_sim_s": 0.0}
    target = mesh.steps + w.steps
    killed_at = None
    last = time.perf_counter()
    if w.kill_after:
        live.checkpoints.save(mesh)
    while mesh.steps < target:
        probes.append(probe())
        if rec is not None:
            rec.step = mesh.steps
        t0 = time.perf_counter()
        mesh.step()
        walls.append(time.perf_counter() - t0)
        done = mesh.steps - WARMUP
        if killed_at is not None and not out["recover_s"] \
                and done == w.kill_after:
            out["recover_s"] = time.perf_counter() - killed_at
        if live.events is not None:
            live.events.run(until=live.events.now + SIM_S_PER_STEP)
        if w.kill_after and killed_at is None and done == w.kill_after:
            killed_at = time.perf_counter()
            out["detect_sim_s"] = disaster(live)
        elif w.ckpt_interval and done % w.ckpt_interval == 0:
            live.checkpoints.save(mesh)
        if w.prefix_steps and done == w.prefix_steps:
            out["crc_prefix"] = state_crc(mesh)
        if mesh.steps == target and live.engine is not None:
            live.engine.synchronize()
        now = time.perf_counter()
        iters.append(now - last - probes[-1])
        last = now
    if rec is not None:
        rec.step = -1
    after = read_counters(live)
    monitor.sample(mesh)
    drift = monitor.report()
    out.update(
        steps=walls,
        step_costs=[s / p for s, p in zip(walls, probes)],
        probe_s=float(np.median(probes)),
        run_s=sum(iters),
        run_cost=sum(i / p for i, p in zip(iters, probes)),
        replayed=len(walls) - w.steps,
        counts={k: after[k] - before[k] for k in COUNTERS},
        crc=state_crc(mesh),
        finite=all(bool(np.isfinite(b).all()) for b in mesh.blocks.values()),
        mass_drift=drift["mass"], momentum_drift=drift["momentum"],
        reconciles=(None if live.engine is None
                    else bool(mesh.transport.reconciles())))
    return out


def run_rep(w: Workload, seed: int, rec: SpanRecorder | None
            ) -> tuple[dict, object]:
    """One repetition: set-up (through warm-up), then the timed block.
    Returns its samples and the scenario it ran on (for the reference)."""
    # every repetition counts from zero, so float tallies (the modelled
    # network seconds) repeat to the last digit whatever ran before
    default_registry().reset()
    reset_port_stats()
    with ExitStack() as stack:
        began = time.perf_counter()
        live = build(w, seed, stack)
        for _ in range(WARMUP):
            live.mesh.step()
        setup_s = time.perf_counter() - began
        out = timed_block(w, live, rec)
        out["setup_s"] = setup_s
        src = live.src
    del live
    gc.collect()  # mesh <-> component cycles; keeps peak RSS repeatable
    return out, src


def reference_run(w: Workload, src, steps: int) -> tuple[int, list[float]]:
    """Node-level serial ``BlockMesh`` on the same input: the state CRC
    after the comparison step and the costs (in probes) of ``steps``
    steady steps."""
    mesh = BlockMesh(w.n // SUBGRID_N, **mesh_kwargs(src))
    mesh.load_interior(src.interior.copy())
    for _ in range(WARMUP):
        mesh.step()
    compare_at = WARMUP + (w.prefix_steps or w.steps)
    crc, costs = None, []
    while len(costs) < steps or crc is None:
        unit = probe()
        t0 = time.perf_counter()
        mesh.step()
        costs.append((time.perf_counter() - t0) / unit)
        if mesh.steps == compare_at:
            crc = state_crc(mesh)
    return crc, costs


# -- one process: repetitions, checks, metrics -------------------------------

def run_workload(w: Workload, seed: int, seconds: float, trace: bool = False,
                 trace_file: str | None = None, min_reps: int = MIN_REPS
                 ) -> tuple[dict, dict]:
    """Run ``w`` for ``seconds`` and return ``(result, detail)``.

    ``result`` is the driver's contract (``correct``, ``attempted``,
    ``failed``, ``metrics``): the end-to-end metrics untraced, the
    per-layer metrics traced.  ``detail`` carries the raw samples the
    ledger pools over rounds.
    """
    rec = SpanRecorder() if trace else None
    reps: list[dict] = []
    src = None
    step_errors = 0
    began = time.perf_counter()
    if rec is not None:
        rec.install()
    try:
        while (len(reps) < (1 if trace else min_reps)
               or time.perf_counter() - began < seconds):
            try:
                out, src = run_rep(w, seed, rec)
                reps.append(out)
            except Exception:  # a step that raises is a failed operation
                traceback.print_exc()
                step_errors += 1
                break
    finally:
        if rec is not None:
            rec.restore()
    if not reps:
        raise RuntimeError(f"{w.name}: no repetition completed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    base = run_rep(w, seed, None)[0] if trace else None
    ref_crc = ref_costs = None
    if w.localities:
        ref_crc, ref_costs = reference_run(
            w, src, max(w.prefix_steps or w.steps, 5 if trace else 0))

    checks = {
        "state_finite": all(r["finite"] for r in reps),
        "mass_drift": all(r["mass_drift"] <= w.mass_tol for r in reps),
        "momentum_drift": all(r["momentum_drift"] <= w.momentum_tol
                              for r in reps),
        "repetitions_identical": len({r["crc"] for r in reps}) == 1,
    }
    if w.localities:
        checks["halo_counters_reconcile"] = all(
            r["reconciles"] and r["counts"]["halo_sets"] > 0
            and r["counts"]["halo_sets"] == r["counts"]["halo_gets"]
            for r in reps)
        key = "crc_prefix" if w.prefix_steps else "crc"
        checks["byte_identical_to_node_level"] = all(
            r[key] == ref_crc for r in reps)
    if w.kill_after:
        checks["replayed_two_steps"] = all(r["replayed"] == 2 for r in reps)
        checks["one_checkpoint_fallback"] = all(
            r["counts"]["fallbacks"] == 1 for r in reps)

    steps = [s for r in reps for s in r["steps"]]
    attempted = len(steps) + step_errors + len(checks)
    failed = step_errors + sum(not ok for ok in checks.values())
    if trace:
        metrics = layer_values(w, rec, reps, base, ref_costs)
        if trace_file:
            rec.export_chrome(trace_file)
    else:
        metrics = {
            "setup_s": float(np.median([r["setup_s"] for r in reps])),
            "step_cost": float(np.median(
                [c for r in reps for c in r["step_costs"]])),
            "run_cost": float(np.median([r["run_cost"] for r in reps])),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": w.name, "seed": seed, "trace": trace,
        "n": w.n, "n_subgrids": w.n_subgrids, "useful_steps": w.steps,
        "checks": checks, "crc": reps[0]["crc"],
        "steps": steps,
        "step_costs": [c for r in reps for c in r["step_costs"]],
        "run_cost": [r["run_cost"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "run_s": [r["run_s"] for r in reps],
        "peak_rss_mb": peak_rss_mb,
    }
    return result, detail


def layer_values(w: Workload, rec: SpanRecorder, reps: list[dict],
                 base: dict, ref_costs: list[float] | None
                 ) -> dict[str, float]:
    """Every per-layer metric from the spans and counters of the traced
    repetitions (0 where the workload bypasses the layer); ``base`` is the
    untraced repetition the raw seconds and the ratios' bases come from."""
    totals = rec.totals()
    n_reps = len(reps)
    steps = [s for r in reps for s in r["steps"]]
    n_steps = len(steps)

    def dur(name, timed=True):
        return totals.get((name, timed), (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get((name, True), (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get((name, True), (0.0, 0.0, 0))[2]

    def count(key):  # per repetition
        return sum(r["counts"][key] for r in reps) / n_reps

    def share(part, whole):
        return part / whole if whole else 0.0

    solve = dur("gravity.solve")
    rhs = dur("hydro.rhs")
    saves = calls("resilience.ckpt_save")
    halo = count("local_msgs") + count("remote_msgs")
    charged = count("eager") + count("rendezvous") + count("rma")
    base_cost = float(np.median(base["step_costs"]))
    return {
        "step_s": p25(base["steps"]),
        "run_s": base["run_s"],
        "subgrids_per_s": w.n_subgrids * w.steps / base["run_s"],
        "probe_s": base["probe_s"],
        "gravity.solve_s": solve / n_steps,
        "gravity.kernel_p2p_s": dur("gravity.kernel_p2p") / n_steps,
        "gravity.kernel_m2l_s": dur("gravity.kernel_m2l") / n_steps,
        "gravity.index_s": self_time("gravity.solve") / n_steps,
        "gravity.density_io_s": dur("gravity.density_io") / n_steps,
        "gravity.build_s": (dur("gravity.build", False)
                            + dur(FIRST_SOLVE, False)) / n_reps,
        "gravity.solves": count("solves"),
        "gravity.interactions_p2p": count("p2p"),
        "gravity.interactions_m2l": count("m2l"),
        "gravity.ns_per_interaction": 1e9 * share(
            solve, n_reps * (count("p2p") + count("m2l"))),
        "hydro.rhs_s": rhs / n_steps,
        "hydro.cfl_s": dur("hydro.cfl") / n_steps,
        "hydro.floors_s": dur("hydro.floors") / n_steps,
        "hydro.rhs_calls": calls("hydro.rhs") / n_reps,
        "hydro.ns_per_zone": 1e9 * rhs / (n_steps * w.n ** 3 * 2),
        "mesh.step_other_s": self_time("mesh.step") / n_steps,
        "mesh.halo_msgs": rec.halo_msgs / n_reps,
        "mesh.halo_bytes": rec.halo_bytes / n_reps,
        "scf.solve_s": dur("scf.solve", False) / n_reps,
        "exec.map_s": dur("exec.map") / n_steps,
        "runtime.tasks": count("tasks"),
        "runtime.steals": count("steals"),
        "runtime.idle_sleeps": count("idle_sleeps"),
        "runtime.gpu_launch_fraction": share(
            count("gpu"), count("gpu") + count("cpu")),
        "runtime.agg_tasks_per_launch": share(
            count("agg_tasks"), count("agg_launches")),
        "runtime.cpu_overflow_launches": count("cpu"),
        "runtime.futurized_ratio": (
            base_cost / float(np.median(ref_costs)) if ref_costs else 0.0),
        "network.send_s": dur("network.send") / n_steps,
        "network.remote_msgs": count("remote_msgs"),
        "network.remote_bytes": count("remote_bytes"),
        "network.local_msgs": count("local_msgs"),
        "network.local_bytes": count("local_bytes"),
        "network.reordered": count("reordered"),
        "network.local_fastpath_share": share(count("local_msgs"), halo),
        "network.eager_share": share(count("eager"), charged),
        "network.rma_share": share(count("rma"), charged),
        "network.modelled_s": (count("sender_cpu") + count("wire")
                               + count("receiver_cpu")),
        "resilience.ckpt_save_s": share(dur("resilience.ckpt_save"), saves),
        "resilience.replicate_s": share(dur("resilience.replicate"), saves),
        "resilience.ckpt_bytes": share(count("ckpt_bytes"),
                                       count("ckpt_saves")),
        "resilience.replica_bytes": share(count("replica_bytes"),
                                          count("ckpt_saves")),
        "resilience.ckpt_share": share(dur("resilience.ckpt_save"),
                                       sum(r["run_s"] for r in reps)),
        "resilience.recover_s": sum(r["recover_s"] for r in reps) / n_reps,
        "resilience.recover_call_s": share(
            dur("resilience.recover_call"), calls("resilience.recover_call")),
        "resilience.detect_sim_s": sum(r["detect_sim_s"]
                                       for r in reps) / n_reps,
        "resilience.replayed_steps": sum(r["replayed"]
                                         for r in reps) / n_reps,
        "resilience.fallbacks": count("fallbacks"),
        "resilience.blocks_fetched": count("blocks_fetched"),
        "resilience.bytes_fetched": count("bytes_fetched"),
        "resilience.tasks_retried": count("tasks_retried"),
        "trace.overhead_ratio": float(np.median(
            [c for r in reps for c in r["step_costs"]])) / base_cost,
    }
