"""Node-level step benchmark: serial vs futurized ``BlockMesh``.

The paper's Table 2 measures one node-level time step of Octo-Tiger with
kernels routed to GPU streams by the launch policy.  This script is the
repro analogue on real solver work: it times self-gravitating hydro
steps of a ``blocks_per_edge**3``-sub-grid :class:`repro.core.mesh.BlockMesh`
twice from the same initial state —

* **serial**: no scheduler, no device; the bit-identical reference;
* **futurized**: one RHS task per x-slab of the mesh's box (whole block
  layers, ``agg_slots`` sub-grids' worth each) on a work-stealing
  scheduler and FMM interaction batches
  coalesced into aggregated GPU-stream launches (with CPU overflow)
  through an :class:`repro.core.exec.ExecutionEngine`

— verifies the two end states are byte-identical, and writes
``BENCH_step.json`` with wall times, zone-update/interaction rates, the
work-aggregation ratio and the hot-path counters (``/cuda/launched/*``,
``/cuda/agg-*``, ``/threads/executed``, ``/fmm/*``).

Timing is **paired and noise-robust**: the two variants advance their
meshes in lock-step (serial step ``k``, then futurized step ``k``) and
each variant is scored by its *fastest* step.  Interleaving exposes
both variants to the same background load; min-of-N discards slow
outliers from shared-host memory-bandwidth contention — the same
estimator ``timeit`` uses.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_step.py            # 4^3 blocks
    PYTHONPATH=src python benchmarks/bench_step.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_step.py --check    # regression gate

``--check`` exits nonzero if the futurized throughput falls below
``--threshold`` (default 0.9) times the serial throughput, if the two
runs diverge bitwise, if the scheduler workers executed fewer tasks than
the RHS slab tasks issued (``/threads/executed``), or if the
aggregation ratio ``/cuda/aggregated-per-launch`` is not above
``--min-agg`` (default 4).  The throughput gate is "futurized costs no
more than a tenth over serial", not "futurized wins": a gravity solve is
one aggregated launch the calling thread waits for, so there is no
overlap to win yet, and what the gate protects is that dispatch,
aggregation and supervision stay cheap (EXPERIMENTS.md, futurized
step).

The report also carries a ``kernels`` block from
:mod:`kernels_micro` — per-kernel ns/interaction (p2p, m2l
fused-vs-reference, both dense M2L tilings vs the pair lists over the
same pairs, greens) and ns/zone (reconstruct, kt_flux, full RHS
fused-vs-reference, batched RHS vs a per-block loop) — and ``--check``
additionally requires the block to be present and the fused m2l and
hydro-RHS kernels to beat their retained reference implementations, and
the dense M2L tilings the pair lists, by ``--min-kernel-speedup``
(default 1.5x), and the ``halo_fill`` row to show a same-locality halo
(direct copy) at least ``HALO_FILL_MIN_SPEEDUP`` times cheaper than a
cross-locality one travelling alone (a one-slab route parcel).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from repro.core import BlockMesh, SUBGRID_N  # noqa: E402
from repro.core.exec import ExecutionEngine  # noqa: E402
from repro.core.scenario import equilibrium_star  # noqa: E402
from repro.runtime import CudaDevice, WorkStealingScheduler  # noqa: E402
from repro.runtime.counters import default_registry  # noqa: E402

from kernels_micro import (M2L_ROWS, dist_fill_line,  # noqa: E402
                           halo_fill_line,
                           m2l_dense_lines, rhs_batched_lines,
                           run_kernels_micro)

#: ``--check``: the direct-copy route of a halo must be at least this many
#: times cheaper than a one-slab route parcel (``kernels_micro``
#: ``halo_fill``)
HALO_FILL_MIN_SPEEDUP = 2.0

#: counters whose per-step delta feeds the interaction rate
_RATE_KEYS = ("/fmm/interactions/multipole", "/fmm/interactions/monopole")


def build_mesh(bpe: int, engine: ExecutionEngine | None = None) -> BlockMesh:
    """A Lane-Emden star tiled into ``bpe**3`` sub-grids."""
    return BlockMesh.retile(
        equilibrium_star(n=bpe * SUBGRID_N, domain=4.0), engine=engine)


def timed_step(mesh: BlockMesh) -> tuple[float, float]:
    """One step; returns (wall seconds, FMM interactions performed)."""
    reg = default_registry()
    before = [reg.snapshot().get(k, 0.0) for k in _RATE_KEYS]
    t0 = time.perf_counter()
    mesh.step()
    seconds = time.perf_counter() - t0
    after = reg.snapshot()
    interactions = sum(after.get(k, 0.0) - b
                       for k, b in zip(_RATE_KEYS, before))
    return seconds, interactions


def summarize(mesh: BlockMesh, walls: list[float],
              interactions: list[float]) -> dict:
    """Best-step throughput summary for one variant."""
    best = min(walls)
    zones = mesh.shape[0] ** 3
    per_step = interactions[walls.index(best)]
    return {
        "seconds": best,
        "step_seconds": walls,
        "steps": len(walls),
        "zone_updates_per_s": zones / best if best > 0 else 0.0,
        "fmm_interactions_per_s": per_step / best if best > 0 else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=None,
                        help="blocks per edge (power of two; default 4)")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per variant (default 3)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup steps (default 1)")
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="scheduler worker threads (default: the core "
                             "count, at most 4)")
    parser.add_argument("--streams", type=int, default=16,
                        help="simulated CUDA streams (default 16)")
    parser.add_argument("--gpu-workers", type=int, default=4,
                        help="simulated GPU executor workers (default 4)")
    parser.add_argument("--out", default="BENCH_step.json",
                        help="output JSON path (default BENCH_step.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration (4^3 blocks, 4 timed steps) "
                             "unless --blocks/--steps are given")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on bitwise divergence or if "
                             "futurized throughput < threshold * serial")
    parser.add_argument("--threshold", type=float, default=0.9,
                        help="minimum futurized/serial throughput ratio "
                             "for --check (default 0.9)")
    parser.add_argument("--min-agg", type=float, default=4.0,
                        help="minimum /cuda/aggregated-per-launch ratio "
                             "for --check (default 4)")
    parser.add_argument("--min-kernel-speedup", type=float, default=1.5,
                        help="minimum fused/reference speedup of the m2l, "
                             "hydro-RHS and dense-M2L microbenchmarks for "
                             "--check (default 1.5)")
    parser.add_argument("--skip-kernels", action="store_true",
                        help="skip the per-kernel microbenchmarks (the "
                             "kernels block is then absent and --check "
                             "fails)")
    parser.add_argument("--agg-slots", type=int, default=16,
                        help="aggregation slot-buffer capacity (default 16)")
    args = parser.parse_args(argv)

    bpe = args.blocks if args.blocks is not None else 4
    steps = args.steps if args.steps is not None else (4 if args.smoke else 3)
    reg = default_registry()
    reg.reset()

    with WorkStealingScheduler(args.workers) as sched, \
            CudaDevice(n_streams=args.streams, n_workers=args.gpu_workers,
                       name="bench-gpu") as gpu:
        engine = ExecutionEngine(scheduler=sched, devices=[gpu],
                                 agg_slots=args.agg_slots)
        serial_mesh = build_mesh(bpe)
        fut_mesh = build_mesh(bpe, engine=engine)
        for _ in range(args.warmup):  # builds the FMM plan
            serial_mesh.step()
            fut_mesh.step()
        serial_walls: list[float] = []
        serial_inter: list[float] = []
        fut_walls: list[float] = []
        fut_inter: list[float] = []
        for k in range(steps):  # paired: same background load for both;
            # alternate order so neither variant always draws the
            # earlier (possibly noisier or quieter) slot of a round
            order = ((serial_mesh, serial_walls, serial_inter),
                     (fut_mesh, fut_walls, fut_inter))
            for mesh, walls, inter in (order if k % 2 == 0
                                       else order[::-1]):
                w, n = timed_step(mesh)
                walls.append(w)
                inter.append(n)
        engine.synchronize()
        engine.publish_counters(reg)
        serial_state = serial_mesh.gather_interior()
        fut_state = fut_mesh.gather_interior()
    snap = reg.snapshot()

    serial = summarize(serial_mesh, serial_walls, serial_inter)
    futurized = summarize(fut_mesh, fut_walls, fut_inter)
    bit_identical = bool(np.array_equal(serial_state, fut_state))
    # every RK stage posts one RHS task per x-slab of the box: whole block
    # layers, min(layers, ceil(blocks / agg_slots)) of them
    rhs_tasks = (args.warmup + steps) * 2 * min(
        bpe, -(-bpe ** 3 // args.agg_slots))
    ratio = (futurized["zone_updates_per_s"] / serial["zone_updates_per_s"]
             if serial["zone_updates_per_s"] > 0 else 0.0)
    counters = {k: snap.get(k, 0.0) for k in (
        "/cuda/launched/gpu", "/cuda/launched/cpu", "/cuda/agg-launches",
        "/cuda/agg-tasks", "/cuda/aggregated-per-launch",
        "/threads/stolen", "/threads/executed", "/exec/batches",
        "/exec/tasks", "/fmm/solves", "/fmm/solves-futurized",
        "/fmm/interactions/multipole", "/fmm/interactions/monopole")}
    report = {
        "config": {
            "blocks_per_edge": bpe, "grid": fut_mesh.shape[0],
            "steps": steps, "warmup": args.warmup,
            "workers": args.workers, "streams": args.streams,
            "gpu_workers": args.gpu_workers, "agg_slots": args.agg_slots,
        },
        "serial": serial,
        "futurized": futurized,
        "throughput_ratio": ratio,
        "gpu_launch_fraction": engine.gpu_fraction,
        "aggregation": {
            "launches": engine.agg_launches,
            "tasks": engine.agg_tasks,
            "per_launch": engine.aggregated_per_launch,
        },
        "bit_identical": bit_identical,
        "rhs_slab_tasks": rhs_tasks,
        "counters": counters,
    }
    if not args.skip_kernels:
        report["kernels"] = run_kernels_micro()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)

    print(f"grid {fut_mesh.shape[0]}^3 ({bpe}^3 blocks), "
          f"best of {steps} paired steps:")
    print(f"  serial     {serial['seconds']:8.3f} s   "
          f"{serial['zone_updates_per_s']:12.0f} zones/s")
    print(f"  futurized  {futurized['seconds']:8.3f} s   "
          f"{futurized['zone_updates_per_s']:12.0f} zones/s   "
          f"({ratio:.2f}x serial)")
    print(f"  gpu/cpu launches {counters['/cuda/launched/gpu']:.0f}/"
          f"{counters['/cuda/launched/cpu']:.0f} "
          f"({100 * engine.gpu_fraction:.1f}% gpu), "
          f"worker tasks {counters['/threads/executed']:.0f} "
          f"({rhs_tasks} RHS slabs)")
    print(f"  aggregation: {engine.agg_tasks} kernels in "
          f"{engine.agg_launches} launches "
          f"({engine.aggregated_per_launch:.1f} per launch)")
    print(f"  bit-identical end state: {bit_identical}")
    if "kernels" in report:
        k = report["kernels"]
        print(f"  kernels: m2l {k['m2l']['ns_per_item']:.0f} ns/inter "
              f"({k['m2l_speedup']:.2f}x ref), "
              f"rhs {k['rhs']['ns_per_item']:.0f} ns/zone "
              f"({k['rhs_speedup']:.2f}x ref)")
        for line in (m2l_dense_lines(k) + rhs_batched_lines(k)
                     + [halo_fill_line(k), dist_fill_line(k)]):
            print(line)
    print(f"wrote {args.out}")

    if args.check:
        if not bit_identical:
            print("CHECK FAILED: futurized end state diverged bitwise",
                  file=sys.stderr)
            return 1
        if ratio < args.threshold:
            print(f"CHECK FAILED: futurized throughput {ratio:.2f}x serial "
                  f"< {args.threshold:.2f}x", file=sys.stderr)
            return 1
        if counters["/cuda/launched/gpu"] <= 0:
            print("CHECK FAILED: expected nonzero /cuda/launched/gpu",
                  file=sys.stderr)
            return 1
        if counters["/threads/executed"] < rhs_tasks:
            print(f"CHECK FAILED: scheduler workers executed "
                  f"{counters['/threads/executed']:.0f} tasks, fewer than "
                  f"the {rhs_tasks} RHS slab tasks issued",
                  file=sys.stderr)
            return 1
        if engine.aggregated_per_launch <= args.min_agg:
            print(f"CHECK FAILED: aggregation ratio "
                  f"{engine.aggregated_per_launch:.1f} tasks/launch "
                  f"<= {args.min_agg:.1f}", file=sys.stderr)
            return 1
        if "kernels" not in report:
            print("CHECK FAILED: kernels block missing from report",
                  file=sys.stderr)
            return 1
        kernels = report["kernels"]
        for name in ("m2l", "rhs", *M2L_ROWS):
            speedup = kernels[f"{name}_speedup"]
            if speedup < args.min_kernel_speedup:
                print(f"CHECK FAILED: {name} only {speedup:.2f}x its "
                      f"reference < {args.min_kernel_speedup:.2f}x",
                      file=sys.stderr)
                return 1
        halo = kernels["halo_fill"]["speedup"]
        if halo < HALO_FILL_MIN_SPEEDUP:
            print(f"CHECK FAILED: a local halo (direct copy) only "
                  f"{halo:.2f}x cheaper than a remote one (route parcel) "
                  f"< {HALO_FILL_MIN_SPEEDUP:.2f}x", file=sys.stderr)
            return 1
        print("check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
