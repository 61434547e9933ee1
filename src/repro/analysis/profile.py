"""Counter-snapshot aggregation and the runnable profiling harness.

APEX gives Octo-Tiger "access to performance data, such as core
utilization, task overheads, and network throughput" (Sec. 4.1).  This
module is the reporting end of our substitute: it turns a
:class:`~repro.runtime.counters.CounterRegistry` snapshot into the
utilization / GPU-launch-percentage tables EXPERIMENTS.md quotes, and
bundles a runnable scenario so

    python -m repro.analysis.profile

exercises the whole instrumented runtime stack (work-stealing scheduler,
futures, simulated CUDA streams + aggregation regions, parcelport cost models,
distributed step model), then writes ``trace.json`` (Chrome trace-event
format, loadable in ``chrome://tracing`` / Perfetto) and prints the
counters report.
"""

from __future__ import annotations

import argparse
import os
from typing import Any

import numpy as np

from ..runtime import trace
from ..runtime import future as future_mod
from ..runtime.counters import CounterRegistry, default_registry
from .tables import format_table

__all__ = ["group_snapshot", "format_report", "run_example_scenario", "main"]


def group_snapshot(snapshot: dict[str, float]) -> dict[str, dict[str, float]]:
    """Group a flat registry snapshot by top-level counter prefix.

    ``{"/threads/executed": 10, "/cuda/launched/gpu": 3}`` becomes
    ``{"threads": {"executed": 10}, "cuda": {"launched/gpu": 3}}``.
    """
    groups: dict[str, dict[str, float]] = {}
    for name, value in snapshot.items():
        parts = name.lstrip("/").split("/", 1)
        head = parts[0]
        tail = parts[1] if len(parts) > 1 else ""
        groups.setdefault(head, {})[tail] = value
    return groups


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


def format_report(registry: CounterRegistry | None = None) -> str:
    """Render the counters of ``registry`` as the EXPERIMENTS-style tables."""
    registry = registry or default_registry()
    snap = registry.snapshot()
    groups = group_snapshot(snap)
    sections: list[str] = []

    threads = groups.get("threads")
    if threads:
        rows = []
        for key in ("posted", "executed", "stolen", "rejected",
                    "idle-sleeps"):
            if key in threads:
                rows.append([key, int(threads[key])])
        if "steal-rate" in threads:
            rows.append(["steal-rate", _pct(threads["steal-rate"])])
        if "idle-rate" in threads:
            rows.append(["idle-rate", _pct(threads["idle-rate"])])
        sections.append(format_table(
            ["counter", "value"], rows, title="scheduler (/threads)"))
        workers = sorted((k, v) for k, v in threads.items()
                         if k.startswith("worker/"))
        if workers:
            total = max(sum(v for _, v in workers), 1.0)
            rows = [[k.split("/")[1], int(v), _pct(v / total)]
                    for k, v in workers]
            sections.append(format_table(
                ["worker", "executed", "share"], rows,
                title="per-worker utilization"))

    cuda = groups.get("cuda")
    if cuda:
        launched = {k.split("/", 1)[1]: v for k, v in cuda.items()
                    if k.startswith("launched/")}
        if launched:
            gpu = launched.get("gpu", 0.0)
            cpu = launched.get("cpu", 0.0)
            total = gpu + cpu
            rows = [["gpu stream", int(gpu)],
                    ["cpu overflow", int(cpu)],
                    ["gpu-launch %", _pct(gpu / total if total else 0.0)]]
            if "leases-reclaimed" in cuda:
                rows.append(["leases reclaimed",
                             int(cuda["leases-reclaimed"])])
            sections.append(format_table(
                ["placement", "count"], rows,
                title="execution engine placement (/cuda/launched) — "
                      "the Sec. 6.1.2 statistic on live work"))
        if "agg-launches" in cuda or "aggregated-per-launch" in cuda:
            rows = [
                ["aggregated launches", int(cuda.get("agg-launches", 0))],
                ["kernels carried", int(cuda.get("agg-tasks", 0))],
                ["tasks per launch",
                 f"{cuda.get('aggregated-per-launch', 0.0):.1f}"],
                ["buffer-full flushes", int(cuda.get("agg-flush/full", 0))],
                ["region-exit flushes", int(cuda.get("agg-flush/exit", 0))],
                ["enqueue failures", int(cuda.get("agg-enqueue-failed", 0))],
            ]
            sections.append(format_table(
                ["counter", "value"], rows,
                title="work aggregation (/cuda) — slot-buffer coalescing "
                      "(arXiv 2210.06438)"))
        health_keys = ("quarantined", "readmitted", "leases-reclaimed")
        if any(k in cuda for k in health_keys):
            rows = [[k, int(cuda.get(k, 0))] for k in health_keys]
            sections.append(format_table(
                ["event", "count"], rows,
                title="stream health (/cuda) — quarantine & lease "
                      "reclamation"))
        devices = sorted({k.split("/")[0] for k in cuda
                          if not k.startswith(("launched/", "agg-flush/"))
                          and "/" in k})
        rows = []
        for dev in devices:
            rows.append([dev,
                         int(cuda.get(f"{dev}/kernels-executed", 0)),
                         int(cuda.get(f"{dev}/streams", 0))])
        if rows:
            sections.append(format_table(
                ["device", "kernels", "streams"], rows,
                title="devices (/cuda)"))

    parcels = groups.get("parcels")
    if parcels:
        ports = sorted({k.split("/")[0] for k in parcels})
        rows = []
        for port in ports:
            def get(key: str, port: str = port) -> float:
                return parcels.get(f"{port}/{key}", 0.0)
            rows.append([
                port, int(get("messages")), int(get("bytes")),
                _pct(get("eager-fraction")),
                int(get("rendezvous")), int(get("rma")),
                get("sender_cpu"), get("wire"), get("receiver_cpu"),
            ])
        sections.append(format_table(
            ["port", "messages", "bytes", "eager", "rendezvous", "rma",
             "sender-cpu s", "wire s", "receiver-cpu s"], rows,
            title="parcelport cost components (/parcels)"))

    dmesh = groups.get("distmesh")
    if dmesh:
        locs = sorted((k, v) for k, v in dmesh.items()
                      if k.startswith("blocks/"))
        if locs:
            rows = [[k.split("/")[1], int(v)] for k, v in locs]
            if "localities" in dmesh:
                rows.append(["localities", int(dmesh["localities"])])
            if "migrations" in dmesh or "block-migrations" in dmesh:
                rows.append(["block migrations",
                             int(dmesh.get("block-migrations",
                                           dmesh.get("migrations", 0)))])
            if "plan-rebuilds" in dmesh:
                rows.append(["route-plan rebuilds",
                             int(dmesh["plan-rebuilds"])])
            sections.append(format_table(
                ["locality", "blocks"], rows,
                title="block placement (/distmesh/blocks) — AGAS-sharded "
                      "sub-grids"))
        halo_rows = []
        for key in ("sets", "gets", "local-msgs", "local-bytes",
                    "remote-msgs", "remote-bytes", "onesided-msgs",
                    "onesided-bytes", "eager", "rendezvous", "rma",
                    "reordered"):
            full = f"halo/{key}"
            if full in dmesh:
                halo_rows.append([key, int(dmesh[full])])
        if halo_rows:
            sections.append(format_table(
                ["counter", "value"], halo_rows,
                title="distributed halo traffic (/distmesh/halo) — "
                      "local direct copies vs parcelport-charged"))

    res = groups.get("resilience")
    if res:
        subgroups: dict[str, list[list]] = {}
        for key, value in sorted(res.items()):
            head, _, tail = key.partition("/")
            if not tail:  # top-level counter like /resilience/backoff-seconds
                head, tail = "(misc)", head
            subgroups.setdefault(head, []).append([tail, round(value, 6)])
        order = ("injected", "parcels", "tasks", "steps", "health",
                 "checkpoint", "ckpt", "agas")
        rows = []
        for head in sorted(subgroups, key=lambda h: (
                order.index(h) if h in order else len(order), h)):
            for name, value in subgroups[head]:
                rows.append([head, name, value])
        sections.append(format_table(
            ["layer", "counter", "value"], rows,
            title="resilience (/resilience) — injected faults and "
                  "recoveries"))

    recovery = groups.get("recovery")
    if recovery:
        rows = []
        for key in ("global-rollbacks", "elastic-restarts",
                    "components-migrated", "components-restored",
                    "blocks-fetched", "bytes-fetched", "generation",
                    "localities-remaining"):
            if key in recovery:
                rows.append([key, int(recovery[key])])
        for key, value in sorted(recovery.items()):
            if not any(row[0] == key for row in rows):
                rows.append([key, round(value, 6)])
        sections.append(format_table(
            ["counter", "value"], rows,
            title="global rollback & elastic restart (/recovery) — "
                  "verified-generation restore over the survivors"))

    futures = groups.get("futures")
    if futures:
        rows = [[k, int(v)] for k, v in sorted(futures.items())]
        sections.append(format_table(
            ["counter", "value"], rows, title="futures (/futures)"))

    sim = groups.get("simulator")
    if sim:
        rows = [[k, v] for k, v in sorted(sim.items())]
        sections.append(format_table(
            ["counter", "value"], rows, title="step model (/simulator)"))

    san = groups.get("sanitize")
    if san:
        race = {k.split("/", 1)[1]: v for k, v in san.items()
                if k.startswith("race/")}
        sched = {k.split("/", 1)[1]: v for k, v in san.items()
                 if k.startswith("schedules/")}
        findings = {k: v for k, v in san.items()
                    if not k.startswith(("race/", "schedules/"))}
        if findings:
            rows = [[k, int(v)] for k, v in sorted(findings.items())]
            sections.append(format_table(
                ["counter", "value"], rows,
                title="sanitizers (/sanitize) — findings by hazard kind"))
        if race:
            rows = [[k, int(race[k])] for k in
                    ("accesses", "hb-edges", "races", "buffers-tracked")
                    if k in race]
            rows += [[k, int(v)] for k, v in sorted(race.items())
                     if not any(r[0] == k for r in rows)]
            sections.append(format_table(
                ["counter", "value"], rows,
                title="race detector (/sanitize/race) — shadow accesses "
                      "vs happens-before edges"))
        if sched:
            rows = [[k, int(sched[k])] for k in
                    ("active", "seed", "perturbations", "permutations")
                    if k in sched]
            rows += [[k, int(v)] for k, v in sorted(sched.items())
                     if not any(r[0] == k for r in rows)]
            sections.append(format_table(
                ["counter", "value"], rows,
                title="schedule explorer (/sanitize/schedules) — seeded "
                      "perturbations (replay: REPRO_SCHEDULE_SEED)"))

    if not sections:
        return "(no counters recorded)"
    return "\n\n".join(sections)


# -- the runnable scenario ---------------------------------------------------

def _call_kernel(kernel):
    """Invoke a prepared zero-argument kernel (engine task body)."""
    return kernel()


def run_example_scenario(registry: CounterRegistry | None = None,
                         n_kernels: int = 192, n_streams: int = 16,
                         n_gpu_workers: int = 4, n_cpu_workers: int = 4,
                         pair_batch: int = 2000,
                         step_nodes: tuple[int, ...] = (2, 16, 64),
                         tree_level: int = 13,
                         seed: int = 1) -> dict[str, Any]:
    """Run the quickstart profiling scenario through the full runtime stack.

    A batch of monopole FMM kernels goes through an
    :class:`~repro.core.exec.ExecutionEngine` with ``agg_slots=1`` — the
    paper's one-kernel GPU-else-CPU rule, with continuation chaining on
    a work-stealing scheduler (the Sec. 5.1 node model; its tallies stay
    on a registry of its own and come back in the result); the same
    kernels are then re-dispatched through a default-slot engine, whose
    aggregation regions coalesce them into slot-buffer launches (the
    ``/cuda/aggregated-per-launch`` statistic of the report); finally
    the distributed step model evaluates a few node counts over both
    parcelports (the Sec. 6.3 cost model).  Everything else publishes
    its counters into ``registry``.
    """
    from ..core.exec import ExecutionEngine
    from ..core.gravity.kernels import p2p_pair
    from ..network.parcelport import PARCELPORTS
    from ..network import parcelport as parcelport_mod
    from ..runtime import CudaDevice, WorkStealingScheduler, when_all
    from ..simulator.distributed import StepModel
    from ..simulator.scaling import cached_profile
    from ..simulator.platforms import PIZ_DAINT

    registry = registry or default_registry()
    rng = np.random.default_rng(seed)

    def make_kernel():
        dR = rng.normal(size=(pair_batch, 3)) * 6 + 5
        mA = rng.uniform(0.5, 2.0, pair_batch)
        mB = rng.uniform(0.5, 2.0, pair_batch)

        def fmm_monopole_kernel():
            return p2p_pair(dR, mA, mB)[0].sum()
        return fmm_monopole_kernel

    kernels = [make_kernel() for _ in range(n_kernels)]

    with CudaDevice(n_streams=n_streams, n_workers=n_gpu_workers,
                    name="sim-gpu") as gpu, \
            WorkStealingScheduler(n_cpu_workers) as cpu:
        batch = [(k,) for k in kernels]
        one = ExecutionEngine(scheduler=cpu, devices=[gpu],
                              registry=CounterRegistry(), agg_slots=1)
        with trace.span("gravity-solve", "phase"):
            sends = [fut.then(lambda f, i=i: (i, f.get()), executor=cpu.post)
                     for i, fut in enumerate(one.map(_call_kernel, batch))]
            results = when_all(sends).get()
            total = sum(f.get()[1] for f in results)
        one.synchronize()
        engine = ExecutionEngine(scheduler=cpu, devices=[gpu],
                                 registry=registry)
        with trace.span("aggregated-solve", "phase"):
            agg_futs = engine.map(_call_kernel, batch)
            agg_total = sum(f.get(timeout=30.0) for f in agg_futs)
        engine.synchronize()
        engine.publish_counters(registry)  # scheduler + device gauges too

    with trace.span("step-model", "phase"):
        profile = cached_profile(tree_level)
        model = StepModel(profile, PIZ_DAINT, registry=registry)
        step_results = {}
        for port_name, port in PARCELPORTS.items():
            for n in step_nodes:
                step_results[(port_name, n)] = model.step_time(n, port)

    future_mod.publish_counters(registry)
    parcelport_mod.publish_counters(registry)
    from .. import sanitize
    if sanitize.enabled():
        sanitize.publish_counters(registry)
    return {
        "kernel_sum": float(total),
        "aggregated_sum": float(agg_total),
        "gpu_launches": one.gpu_launches,
        "cpu_launches": one.cpu_launches,
        "aggregated_launches": engine.agg_launches,
        "aggregated_per_launch": engine.aggregated_per_launch,
        "step_results": step_results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.profile",
        description="Run the instrumented quickstart scenario; write a "
                    "Chrome trace and print the counters report.")
    parser.add_argument("--out", default=".",
                        help="output directory for trace.json (default: .)")
    parser.add_argument("--kernels", type=int, default=192,
                        help="FMM kernel launches in the node phase")
    parser.add_argument("--level", type=int, default=13,
                        help="octree refinement level for the step model")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip span recording (counters only)")
    args = parser.parse_args(argv)

    registry = default_registry()
    registry.reset()
    if not args.no_trace:
        trace.clear()
        trace.enable()
    try:
        outcome = run_example_scenario(registry, n_kernels=args.kernels,
                                       tree_level=args.level)
    finally:
        trace.disable()

    report = format_report(registry)
    print(report)
    print()
    from .. import sanitize
    if sanitize.enabled():
        sanitize.sweep()
        print(sanitize.report())
        print()
    print(f"gravity phase: {outcome['gpu_launches']} GPU / "
          f"{outcome['cpu_launches']} CPU kernel launches, "
          f"reduction = {outcome['kernel_sum']:.3f}")
    print(f"aggregated phase: {outcome['aggregated_launches']} slot-buffer "
          f"launches, {outcome['aggregated_per_launch']:.1f} kernels per "
          f"launch (/cuda/aggregated-per-launch)")

    if not args.no_trace:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "trace.json")
        n_events = trace.export_chrome(path)
        print(f"wrote {n_events} trace events to {path} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
