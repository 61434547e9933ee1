#!/usr/bin/env python3
"""Scaling on a faulty machine: the Fig. 2 study under message loss.

The paper's runs assume a lossless interconnect.  This example reruns the
per-step model for the level-14 V1309 workload over 1..512 Piz Daint nodes
while the resilience layer recovers from 1% / 5% / 10% iid parcel loss
(retry with exponential backoff, budgets from NETWORK_RETRY_POLICY), and
prints how much scaling survives — the degraded-network curves the
/resilience counters are built to explain.

Run:  python examples/degraded_network.py
"""

from repro.analysis import format_table
from repro.network import PARCELPORTS
from repro.network.retry import NETWORK_RETRY_POLICY
from repro.runtime import CounterRegistry
from repro.simulator import PIZ_DAINT, StepModel
from repro.simulator.scaling import cached_profile

LOSS_RATES = (0.0, 0.01, 0.05, 0.10)
NODE_COUNTS = (1, 8, 64, 256, 512)


def main() -> None:
    profile = cached_profile(14)
    port = PARCELPORTS["libfabric"]
    policy = NETWORK_RETRY_POLICY
    print(f"level-14 V1309 workload, libfabric parcelport, retry budget "
          f"{policy.max_attempts} attempts / {policy.base_backoff * 1e6:.0f}"
          f" us base backoff\n")

    registry = CounterRegistry()
    models = {p: StepModel(profile, PIZ_DAINT, loss_rate=p,
                           registry=registry) for p in LOSS_RATES}
    rows = []
    for n in NODE_COUNTS:
        results = {p: m.step_time(n, port) for p, m in models.items()}
        base = results[0.0].t_step
        rows.append([n] + [f"{results[p].t_step * 1e3:.2f}"
                           for p in LOSS_RATES]
                    + [f"{100 * (results[0.10].t_step / base - 1):.1f}"])
    print(format_table(
        ["nodes"] + [f"t_step ms @{p:.0%} loss" for p in LOSS_RATES]
        + ["slowdown % @10%"], rows))

    print("\nresilience accounting at 512 nodes, 10% loss:")
    snap = registry.snapshot()
    name = port.name
    print(f"  expected sends per message  "
          f"{snap[f'/simulator/step/{name}/retry-attempts-per-msg']:.3f}")
    print(f"  retransmitted messages      "
          f"{snap[f'/simulator/step/{name}/retry-messages']:.0f}")
    print(f"  delivery probability        "
          f"{snap[f'/simulator/step/{name}/delivery-probability']:.6f}")
    undelivered = 1.0 - snap[f'/simulator/step/{name}/delivery-probability']
    print(f"  (per-message giving-up risk {undelivered:.2e} -> those fall "
          "back to checkpoint/restore, see examples in EXPERIMENTS.md)")


if __name__ == "__main__":
    main()
