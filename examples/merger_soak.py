#!/usr/bin/env python3
"""Merger under faults: the V1309 merger against a fault plan.

The Sec. 4.2 contact-binary merger runs twice on one SCF solve: once as
the node-level reference, once sharded over ``--localities`` simulated
localities under full supervision (seeded out-of-order halos, supervised
tasks on a scheduler + simulated GPU, per-step buddy-replicated
checkpoints, phi-accrual failure detection, a lossy side-channel).  What
strikes the distributed run is the ``--plan``:

* ``chaos`` — every fault class at once: lossy/delaying parcels,
  transient task faults, a poisoned CUDA stream, an announced step fault,
  a silent state corruption, a corrupt and a torn checkpoint, and a
  locality that goes silent mid-run;
* ``kill`` — one locality goes silent: the detector notices, AGAS
  evacuates its blocks, the run rolls back to checkpoint and replays;
* ``dual-kill`` — two localities go silent *together* (beyond evacuation
  capacity: their GIDs are lost) and the newest checkpoint is corrupt:
  global rollback past it, elastic restart on the survivors.

Every flag below overrides one field of the preset.  The exit gates (what
CI's ``merger-soak`` job enforces) are the same for every plan: the final
state is **byte-identical** to the reference, the drift reports match
record for record, the halo / checkpoint counters reconcile, a checkpoint
record is exactly the block interiors (no ghost shell is saved, replicated
or fetched), a kill beyond evacuation capacity did trigger the global
rollback, a degraded network (``--loss-rate``) did lose and retry
parcels, and — with ``REPRO_SANITIZE=1`` — the quiesce-point sanitizer
sweep is clean.

Run:  python examples/merger_soak.py --plan chaos
      python examples/merger_soak.py --plan kill --localities 8 --port mpi
      python examples/merger_soak.py --plan kill --no-kill --steps 5
      python examples/merger_soak.py --plan dual-kill --loss-rate 0.2 --delay-rate 0.2
"""

import argparse
from dataclasses import replace

from repro import sanitize
from repro.analysis import format_report
from repro.core.mesh import interior
from repro.core.scenario import v1309_binary
from repro.resilience.merger import (CHAOS, DUAL_KILL_CORRUPT, LOCALITY_KILL,
                                     Topology, run_merger)
from repro.runtime.counters import default_registry

PLANS = {"chaos": CHAOS, "kill": LOCALITY_KILL,
         "dual-kill": DUAL_KILL_CORRUPT}


def main() -> None:
    parser = argparse.ArgumentParser(
        description="V1309 merger under a fault plan, byte-checked against "
                    "the node-level run")
    parser.add_argument("--plan", choices=sorted(PLANS), required=True)
    parser.add_argument("--M", type=int, default=16,
                        help="cells per edge (multiple of 8, 2^k blocks)")
    parser.add_argument("--scf-iters", type=int, default=12)
    topo = Topology()
    parser.add_argument("--localities", type=int, default=topo.n_localities)
    parser.add_argument("--port", choices=("mpi", "libfabric"),
                        default=topo.port)
    parser.add_argument("--reorder-seed", type=int, default=topo.reorder_seed,
                        help="seed for out-of-order remote halo delivery")
    # plan overrides: unset means "what the preset says"
    parser.add_argument("--steps", type=int)
    parser.add_argument("--seed", type=int, help="fault-schedule seed")
    parser.add_argument("--kill", type=int, nargs="+",
                        help="localities silenced together mid-run (beyond "
                             "one, an owner+buddy adjacent pair is "
                             "unrecoverable and rejected)")
    parser.add_argument("--no-kill", action="store_true",
                        help="nobody dies")
    parser.add_argument("--kill-after", type=int,
                        help="steps to complete before the kill")
    parser.add_argument("--corrupt-save", type=int,
                        help="checkpoint save index to silently corrupt "
                             "(-1: none)")
    parser.add_argument("--loss-rate", type=float)
    parser.add_argument("--delay-rate", type=float)
    args = parser.parse_args()

    overrides = {"steps": args.steps, "seed": args.seed,
                 "kill_after_steps": args.kill_after,
                 "loss_rate": args.loss_rate, "delay_rate": args.delay_rate}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.no_kill:
        overrides["kill"] = ()
    elif args.kill:
        overrides["kill"] = tuple(args.kill)
    if args.corrupt_save is not None:
        overrides["corrupt_saves"] = ((args.corrupt_save,)
                                      if args.corrupt_save >= 0 else ())
    plan = replace(PLANS[args.plan], **overrides)
    topology = Topology(n_localities=args.localities, port=args.port,
                        reorder_seed=args.reorder_seed)

    print(f"running V1309 merger (M={args.M}) node-level and distributed "
          f"over {topology.n_localities} localities via {topology.port} "
          f"under {plan} ...\n")
    # the process-wide registry, so the CUDA layer's /cuda/quarantined
    # tally lands in the same report (fresh process: nothing else is in it)
    registry = default_registry()
    result = run_merger(v1309_binary(M=args.M, scf_iters=args.scf_iters),
                        topology, plan, registry)
    if sanitize.enabled():
        sanitize.sweep()
        for path, tally in sanitize.tallies().items():
            registry.set_gauge(path, tally)

    print(result.summary())
    print()
    print(format_report(registry))
    print()
    print("conservation drifts (reference == distributed, byte for byte):")
    for key, val in result.dist_monitor.report().items():
        print(f"  {key:<18} {val:.3e}")

    # the record a restore would land on, against the state it protects
    record = result.coordinator.manager.latest_verified
    interior_bytes = sum(interior(blk).nbytes
                         for blk in result.dist.blocks.values())
    print()
    print(f"checkpoint bytes / save : {record.nbytes if record else None} "
          f"(block interiors: {interior_bytes})")

    if sanitize.enabled():
        print()
        print(sanitize.report())
        if sanitize.finding_count():
            raise SystemExit("sanitizers reported findings during the run")

    snap = registry.snapshot()
    if not result.bitwise_identical:
        raise SystemExit("distributed run diverged from the node-level run")
    if not result.reports_identical:
        raise SystemExit("conservation reports differ")
    if not result.counters_reconcile:
        raise SystemExit("halo / checkpoint counters do not reconcile")
    if record is None or record.nbytes != interior_bytes:
        raise SystemExit("a checkpoint record is not the block interiors: "
                         "ghost shells are scratch and must not be saved")
    if len(result.killed) > 1 and result.report is None:
        raise SystemExit("global rollback never triggered")
    if plan.loss_rate > 0 and not (
            snap.get("/resilience/injected/loss", 0.0) > 0
            and snap.get("/resilience/parcels/retries", 0.0) > 0):
        raise SystemExit("degraded network lost or retried no parcel: "
                         "loss_rate is a dead knob again")


if __name__ == "__main__":
    main()
