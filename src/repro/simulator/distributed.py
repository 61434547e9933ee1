"""Distributed scaling model for the Fig. 2 / Fig. 3 experiments.

Combines a workload profile (real tree structure + SFC partition), a node
hardware model, and a parcelport cost model into a per-step time for an
N-node run.  The efficiency-loss mechanisms are the ones Sec. 6.2/6.3 name:

* **per-message CPU overheads** — transport work (injection, matching,
  completion handling) is *not* spread across all worker cores: "the
  receipt of data ... must be performed by polling of completion queues.
  This can only take place in-between the execution of other tasks", so it
  is charged to a small number of effective progress cores.  The MPI
  progress-interference and libfabric polling terms live in
  :mod:`repro.network.parcelport`; they produce the parcelport gap that
  "increases with higher node counts and refinement level";
* **load imbalance** — the step ends when the *slowest* node finishes.
  Sub-grids are distributed along the SFC weighted by estimated work (HPX
  load balancing), but surface (message) imbalance remains;
* **device starvation** — "Strong scaling tails off as the amount of
  sub-grids for each level becomes too small to generate sufficient work
  for all CPUs/GPUs": the GPU duty factor degrades when a rank holds too
  few sub-grids to keep 128 streams busy;
* **NIC serialization, rendezvous round-trips and wire time**, partially
  overlapped with compute (futurization hides communication when there is
  enough work);
* a **collective** (dt reduction / tree handshake) growing with log N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.parcelport import Parcelport
from ..network.retry import NETWORK_RETRY_POLICY
from ..network.topology import DragonflyTopology
from ..runtime.counters import CounterRegistry
from .flops import (MONOPOLE_KERNEL_FLOPS, MULTIPOLE_KERNEL_FLOPS,
                    OTHER_FLOPS_PER_SUBGRID)
from .machine import NodeSpec
from .taskgraph import WorkloadProfile

__all__ = ["StepModel", "StepResult"]

#: fraction of the GPUs' FMM rate a saturated rank sustains
GPU_DUTY = 0.70
#: messages per remote neighbour pair per timestep (one hydro halo plus one
#: gravity multipole/Taylor buffer per direction, batched per exchange)
MSGS_PER_PAIR_PER_STEP = 2
#: sub-grid count at which a rank's GPU reaches half duty (starvation knee)
GPU_STARVATION_KNEE = 8.0
#: fraction of communication time hidden by futurization overlap
OVERLAP = 0.85
#: effective cores doing transport work (polling happens between tasks)
NETWORK_PARALLELISM = 2.0


@dataclass(frozen=True)
class StepResult:
    """Per-step timing of one configuration."""

    n_nodes: int
    t_step: float
    t_compute_max: float
    t_comm_cpu_max: float
    subgrids: int
    total_messages: int

    @property
    def subgrids_per_second(self) -> float:
        return self.subgrids / self.t_step


class StepModel:
    """Evaluate the per-step time of a workload on N nodes over a transport.

    The calibration (:data:`GPU_DUTY`, :data:`MSGS_PER_PAIR_PER_STEP`,
    :data:`GPU_STARVATION_KNEE`, :data:`OVERLAP`,
    :data:`NETWORK_PARALLELISM`) is module data; retries are priced with
    :data:`~repro.network.retry.NETWORK_RETRY_POLICY`.
    """

    def __init__(self, profile: WorkloadProfile, node: NodeSpec,
                 registry: CounterRegistry | None = None,
                 loss_rate: float = 0.0):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.profile = profile
        self.node = node
        #: degraded-network model: iid parcel loss recovered by the
        #: resilience layer; the *expected* retry cost (extra sends on CPU
        #: and wire, backoff stalls) is charged below so faulty-machine
        #: scaling curves can be produced alongside the Fig. 2/3 ones
        self.loss_rate = loss_rate
        #: optional APEX-style counter sink; every step_time() publishes
        #: /simulator/step/... gauges into it (per-message cost components
        #: are tallied by the parcelport module itself)
        self.registry = registry
        self._fmm_flops = np.where(profile.is_interior,
                                   MULTIPOLE_KERNEL_FLOPS,
                                   MONOPOLE_KERNEL_FLOPS).astype(np.float64)
        self._owner_cache: dict[int, np.ndarray] = {}

    # -- partitioning -----------------------------------------------------------

    def _subgrid_time_estimate(self) -> np.ndarray:
        """Estimated wall time one sub-grid costs its owner per step."""
        node = self.node
        if node.has_gpu:
            fmm_rate = sum(node.fmm_gpu_rate(g) for g in node.gpus) \
                * GPU_DUTY * 1e9
        else:
            fmm_rate = node.cores * node.fmm_core_rate() * 1e9
        return (self._fmm_flops / fmm_rate
                + OTHER_FLOPS_PER_SUBGRID / (node.other_rate() * 1e9))

    def _partition(self, n_nodes: int) -> np.ndarray:
        """Time-weighted SFC block partition (HPX load balancing, Sec. 4.1)."""
        cached = self._owner_cache.get(n_nodes)
        if cached is not None:
            return cached
        weights = self._subgrid_time_estimate()
        cum = np.cumsum(weights)
        total = cum[-1]
        owner = np.minimum(
            ((cum - weights / 2.0) * n_nodes / total).astype(np.int64),
            n_nodes - 1)
        self._owner_cache[n_nodes] = owner
        return owner

    # -- per-node compute time ------------------------------------------------

    def _compute_times(self, owner: np.ndarray, n_nodes: int) -> np.ndarray:
        node = self.node
        counts = np.bincount(owner, minlength=n_nodes).astype(np.float64)
        fmm_flops = np.bincount(owner, weights=self._fmm_flops,
                                minlength=n_nodes)
        other_flops = counts * OTHER_FLOPS_PER_SUBGRID
        if node.has_gpu:
            duty = GPU_DUTY * counts / (counts + GPU_STARVATION_KNEE)
            gpu_rate = sum(node.fmm_gpu_rate(g) for g in node.gpus) * 1e9
            fmm_rate = np.maximum(gpu_rate * duty,
                                  node.cores * node.fmm_core_rate() * 1e9)
        else:
            fmm_rate = np.full(n_nodes, node.cores * node.fmm_core_rate() * 1e9)
        other_rate = node.other_rate() * 1e9
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(counts > 0,
                         fmm_flops / fmm_rate + other_flops / other_rate, 0.0)
        return t

    # -- full step ------------------------------------------------------------

    def step_time(self, n_nodes: int, port: Parcelport) -> StepResult:
        profile = self.profile
        owner = self._partition(n_nodes)
        t_comp = self._compute_times(owner, n_nodes)

        if n_nodes == 1:
            result = StepResult(1, float(t_comp[0]), float(t_comp[0]), 0.0,
                                profile.n_subgrids, 0)
            self._publish(result, port)
            return result

        msgs, byts, pair_ranks, pair_counts = profile.remote_traffic(owner)
        per_pair = MSGS_PER_PAIR_PER_STEP / 2.0   # remote_traffic counts both ends
        msgs = msgs.astype(np.float64) * per_pair
        byts = byts.astype(np.float64) * per_pair

        # degraded network: every logical message costs E[attempts] physical
        # sends (budget-capped geometric) plus the expected backoff stall,
        # which overlaps with compute exactly like wire time does
        attempts = NETWORK_RETRY_POLICY.expected_attempts(self.loss_rate)
        backoff_per_msg = NETWORK_RETRY_POLICY.expected_backoff(self.loss_rate)
        t_backoff = msgs * backoff_per_msg
        logical_msgs = msgs.sum()
        msgs = msgs * attempts
        byts = byts * attempts

        topo = DragonflyTopology(n_nodes)
        hops = np.fromiter(
            (topo.hops(int(a), int(b)) for a, b in pair_ranks),
            dtype=np.float64, count=len(pair_ranks))
        mean_hops = (float(np.average(hops, weights=pair_counts))
                     if len(hops) else 1.0)

        mean_size = byts / np.maximum(msgs, 1.0)
        # two-pass estimate: busy fraction drives the libfabric polling
        # penalty, comm intensity drives the MPI progress interference
        busy = np.ones(n_nodes)
        intensity = np.zeros(n_nodes)
        t_step_nodes = t_comp.copy()
        t_comm_cpu = np.zeros(n_nodes)
        for _ in range(3):
            cost = [port.message_cost(int(s), hops=max(int(round(mean_hops)), 1),
                                      concurrent_senders=self.node.cores,
                                      busy_fraction=float(b),
                                      comm_intensity=float(ci))
                    for s, b, ci in zip(mean_size, busy, intensity)]
            sender = np.array([c.sender_cpu for c in cost])
            recver = np.array([c.receiver_cpu for c in cost])
            wire = np.array([c.wire for c in cost])
            # transport CPU time, concentrated on the polling/progress cores
            t_comm_cpu = msgs * (sender + recver) / NETWORK_PARALLELISM
            # NIC serialization + exposed wire time after overlap
            t_nic = byts / port.bandwidth + msgs * 0.2e-6 + t_backoff
            t_wire_exposed = np.maximum(
                0.0, t_nic + wire - OVERLAP * (t_comp + t_comm_cpu))
            t_step_nodes = t_comp + t_comm_cpu + t_wire_exposed
            total = np.maximum(t_step_nodes, 1e-30)
            busy = np.clip(t_comp / total, 0.0, 1.0)
            intensity = np.clip(t_comm_cpu / total, 0.0, 1.0)

        collective = 2.0 * np.log2(max(n_nodes, 2)) * (port.latency + 3e-6)
        t_step = float(t_step_nodes.max() + collective)
        result = StepResult(
            n_nodes=n_nodes, t_step=t_step,
            t_compute_max=float(t_comp.max()),
            t_comm_cpu_max=float(t_comm_cpu.max()),
            subgrids=profile.n_subgrids,
            total_messages=int(msgs.sum()))
        self._publish(result, port, logical_msgs=float(logical_msgs))
        return result

    def _publish(self, result: StepResult, port: Parcelport,
                 logical_msgs: float = 0.0) -> None:
        if self.registry is None:
            return
        r = self.registry
        r.increment("/simulator/steps-evaluated")
        prefix = f"/simulator/step/{port.name}"
        if self.loss_rate > 0.0:
            policy = NETWORK_RETRY_POLICY
            r.set_gauge(f"{prefix}/loss-rate", self.loss_rate)
            r.set_gauge(f"{prefix}/retry-attempts-per-msg",
                        policy.expected_attempts(self.loss_rate))
            r.set_gauge(f"{prefix}/retry-messages",
                        logical_msgs
                        * (policy.expected_attempts(self.loss_rate) - 1.0))
            r.set_gauge(f"{prefix}/retry-backoff-per-msg",
                        policy.expected_backoff(self.loss_rate))
            r.set_gauge(f"{prefix}/delivery-probability",
                        policy.delivery_probability(self.loss_rate))
        r.set_gauge(f"{prefix}/n-nodes", float(result.n_nodes))
        r.set_gauge(f"{prefix}/t-step", result.t_step)
        r.set_gauge(f"{prefix}/t-compute-max", result.t_compute_max)
        r.set_gauge(f"{prefix}/t-comm-cpu-max", result.t_comm_cpu_max)
        r.set_gauge(f"{prefix}/messages", float(result.total_messages))
        r.set_gauge(f"{prefix}/subgrids-per-second",
                    result.subgrids_per_second)
