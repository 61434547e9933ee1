#!/usr/bin/env python3
"""Futurization + simulated CUDA streams: the Sec. 5.1 execution model.

Demonstrates the runtime substrate on one "node": FMM kernels for a batch
of sub-grids go through an execution engine with one aggregation slot —
the paper's rule (GPU stream if one is idle, the CPU worker otherwise) —
with completions setting futures that chain into dependent tasks, no
explicit synchronization anywhere.  Prints the launch-fraction statistic
the paper reports (97.4995% / 99.9997% of kernels on the GPU,
Sec. 6.1.2; here the simulated device's four workers are host threads no
faster than the four CPU workers launching, so a large overflow share is
the rule working, not a fault), then the same batch through the
default-slot engine, which coalesces the kernels into aggregated
launches (arXiv 2210.06438).

This is the instrumented demo of the runtime: each solve is a ``phase``
trace span, the default-slot engine, its scheduler and device, the
futures layer and (under ``REPRO_SANITIZE=1``) the sanitizers publish
into one counter registry, printed as the counters report.  Given a
path, it also writes the Chrome trace (``chrome://tracing`` / Perfetto)
of the whole run there.

Run:  python examples/futurized_gpu_node.py [trace.json]
"""

import sys
import time

import numpy as np

from repro import sanitize
from repro.analysis import format_report
from repro.core.exec import ExecutionEngine
from repro.core.gravity.kernels import p2p_pair
from repro.runtime import (CounterRegistry, CudaDevice,
                           WorkStealingScheduler, dataflow, trace, when_all)
from repro.runtime import future


def make_batch(rng, n_pairs=2000):
    """One sub-grid's monopole interaction batch (separations, masses)."""
    dR = rng.normal(size=(n_pairs, 3)) * 6 + 5
    mA = rng.uniform(0.5, 2.0, n_pairs)
    mB = rng.uniform(0.5, 2.0, n_pairs)
    return dR, mA, mB


def monopole_kernel(dR, mA, mB):
    """The 12-flop kernel of Sec. 4.3 over one batch."""
    return p2p_pair(dR, mA, mB)[0].sum()


def solve(engine, cpu, batches, phase):
    """Launch every kernel, chain a send on each, reduce when all sent."""
    t0 = time.perf_counter()
    with trace.span(phase, "phase"):
        # attach a "communication" continuation to each kernel's future
        # (the halo send that follows the solve)
        sends = [fut.then(lambda f, i=i: ("sent", i, f.get()),
                          executor=cpu.post)
                 for i, fut in enumerate(engine.map(monopole_kernel, batches))]
        # a dependent reduction fires only when every send completed
        total = dataflow(lambda results: sum(r[2] for r in results),
                         when_all(sends).then(
                             lambda f: [x.get() for x in f.get()]))
        value = total.get()
    return value, time.perf_counter() - t0


def main(argv) -> None:
    trace_path = argv[0] if argv else None
    if trace_path:
        trace.enable()
    rng = np.random.default_rng(1)
    n_subgrids = 256
    batches = [make_batch(rng) for _ in range(n_subgrids)]
    registry = CounterRegistry()

    with CudaDevice(n_streams=32, n_workers=4, name="sim-P100") as gpu, \
            WorkStealingScheduler(4) as cpu:
        one = ExecutionEngine(scheduler=cpu, devices=[gpu],
                              registry=CounterRegistry(), agg_slots=1)
        value, elapsed = solve(one, cpu, batches, "one-kernel-solve")
        one.synchronize()
        agg = ExecutionEngine(scheduler=cpu, devices=[gpu], registry=registry)
        agg_value, agg_elapsed = solve(agg, cpu, batches, "aggregated-solve")
        agg.synchronize()
        agg.publish_counters(registry)  # scheduler + device gauges too
    trace.disable()
    future.publish_counters(registry)
    if sanitize.enabled():
        sanitize.sweep()
        for path, tally in sanitize.tallies().items():
            registry.set_gauge(path, tally)

    print(f"{n_subgrids} FMM kernels + continuations in {elapsed:.2f}s")
    print(f"GPU launches: {one.gpu_launches}, "
          f"CPU fallbacks: {one.cpu_launches}")
    print(f"GPU launch fraction: {one.gpu_fraction * 100:.4f}% "
          "(the Sec. 6.1.2 statistic)")
    print(f"reduction over all kernels: {value:.3f}")
    print(f"aggregated ({agg.agg_slots} slots): {agg.agg_launches} launches, "
          f"{agg.aggregated_per_launch:.1f} kernels per launch, "
          f"{agg_elapsed:.2f}s, reduction {agg_value:.3f}")
    print()
    print(format_report(registry))
    if trace_path:
        n_events = trace.export_chrome(trace_path)
        print(f"\nwrote {n_events} trace events to {trace_path} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")


if __name__ == "__main__":
    main(sys.argv[1:])
