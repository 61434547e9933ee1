"""Node-level FMM performance simulator (Table 2, Sec. 6.1).

A discrete-event model of one compute node running the gravity solver of
the level-14 V1309 scenario, reproducing the paper's measurement setup:

* **workers** (CPU cores) prepare FMM kernels (tree traversal, halo
  staging) and then launch them;
* each worker owns an equal share of the node's CUDA streams ("Each CPU
  thread manages a certain number of CUDA streams"); a kernel goes to the
  GPU iff the worker holds an idle stream, *otherwise the worker executes
  it on the CPU* — the launch policy of Sec. 5.1;
* the GPU executes up to ``SMs/8`` kernels concurrently (each kernel uses
  8 blocks, Sec. 5.1), so a kernel's service time is constant and the
  device saturates when all kernel slots are busy;
* a completed stream is only recycled when its owning worker reaches its
  next scheduling point — a worker stuck in a long CPU fallback freezes
  its streams, the starvation mechanism Sec. 6.1.2 describes.

Outputs follow the paper's methodology: count kernel launches x constant
flops per kernel, divide by the measured FMM makespan, compare against the
device's theoretical peak.  CPU-only configurations pack kernels perfectly
across cores (each FMM kernel runs on one core, Sec. 6.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventQueue
from .flops import MONOPOLE_KERNEL_FLOPS, MULTIPOLE_KERNEL_FLOPS
from .machine import GpuSpec, NodeSpec

__all__ = ["NodeLevelResult", "simulate_gravity_solve", "measure_node"]

#: worker time to prepare one kernel launch in a GPU run, split into a CPU
#: part (tree traversal, halo staging) and a PCIe/driver part that
#: parallelizes across GPUs (calibrated, see EXPERIMENTS.md)
FEED_CPU_SECONDS = 78e-6
FEED_PCIE_SECONDS = 76e-6
#: each kernel occupies 8 SMs (8 blocks x 64 threads)
SMS_PER_KERNEL = 8
#: streaming multiprocessors per GPU model (P100: 56, V100: 80)
_GPU_SMS = {"NVIDIA P100 (PCI-E)": 56, "NVIDIA V100 (PCI-E)": 80}


@dataclass
class NodeLevelResult:
    """Outcome of one simulated gravity solve on one node."""

    node: NodeSpec
    fmm_seconds: float
    kernel_flops: float
    gpu_launches: int
    cpu_launches: int

    @property
    def gflops(self) -> float:
        return self.kernel_flops / self.fmm_seconds / 1e9

    @property
    def gpu_fraction(self) -> float:
        total = self.gpu_launches + self.cpu_launches
        return self.gpu_launches / total if total else 0.0

    @property
    def reference_peak_gflops(self) -> float:
        """Peak of the device class doing the FMM (the paper's denominator)."""
        if self.node.has_gpu:
            return self.node.gpu_peak_gflops
        return self.node.cpu_peak_gflops

    @property
    def fraction_of_peak(self) -> float:
        return self.gflops / self.reference_peak_gflops


class _Gpu:
    """Multi-server kernel executor: one per physical GPU."""

    def __init__(self, spec: GpuSpec, queue: EventQueue):
        self.spec = spec
        self.queue = queue
        sms = _GPU_SMS.get(spec.name, 56)
        self.slots = max(sms // SMS_PER_KERNEL, 1)
        self.rate = spec.peak_gflops * spec.kernel_efficiency * 1e9 / self.slots
        self.active = 0
        self.backlog: list[tuple[float, "_Stream"]] = []

    def submit(self, flops: float, stream: "_Stream") -> None:
        if self.active < self.slots:
            self.active += 1
            self.queue.schedule(flops / self.rate, self._complete, stream)
        else:
            self.backlog.append((flops, stream))

    def _complete(self, stream: "_Stream") -> None:
        stream.completed = True
        stream.sim.on_gpu_completion(stream)
        if self.backlog:
            flops, nxt = self.backlog.pop(0)
            self.queue.schedule(flops / self.rate, self._complete, nxt)
        else:
            self.active -= 1


class _Stream:
    __slots__ = ("gpu", "owner", "busy", "completed", "sim")

    def __init__(self, gpu: _Gpu, owner: int, sim: "_Simulation"):
        self.gpu = gpu
        self.owner = owner
        self.busy = False
        self.completed = False
        self.sim = sim


class _Simulation:
    """One gravity solve: workers launch a fixed shuffled kernel list."""

    def __init__(self, node: NodeSpec, kernel_flops_list: np.ndarray,
                 feed_seconds: float | None = None):
        self.node = node
        self.queue = EventQueue()
        self.tasks = list(kernel_flops_list)
        self.task_idx = 0
        if feed_seconds is None:
            n_gpus = max(len(node.gpus), 1)
            feed_seconds = FEED_CPU_SECONDS + FEED_PCIE_SECONDS / n_gpus
        self.feed = feed_seconds
        self.gpus = [_Gpu(g, self.queue) for g in node.gpus]
        self.streams: dict[int, list[_Stream]] = {w: [] for w in range(node.cores)}
        for gi, (gpu, spec) in enumerate(zip(self.gpus, node.gpus)):
            for s in range(spec.n_streams):
                owner = (s + gi * spec.n_streams) % node.cores
                self.streams[owner].append(_Stream(gpu, owner, self))
        self.gpu_launches = 0
        self.cpu_launches = 0
        self.kernels_done = 0
        self.n_kernels = len(self.tasks)
        self.finish_time = 0.0
        self.core_fmm_rate = node.fmm_core_rate() * 1e9

    def run(self) -> None:
        for w in range(self.node.cores):
            self.queue.schedule(0.0, self._decision, w)
        self.queue.run(max_events=20_000_000)

    # -- event handlers -----------------------------------------------------

    def on_gpu_completion(self, stream: _Stream) -> None:
        self.kernels_done += 1
        self.finish_time = self.queue.now
        # if the owner is idle (out of tasks), recycle immediately
        # (otherwise the owner recycles at its next decision point)

    def _recycle(self, worker: int) -> None:
        for s in self.streams[worker]:
            if s.completed:
                s.completed = False
                s.busy = False

    def _decision(self, worker: int) -> None:
        self._recycle(worker)
        if self.task_idx >= self.n_kernels:
            return
        flops = self.tasks[self.task_idx]
        self.task_idx += 1
        # preparation happens before the launch decision
        idle = next((s for s in self.streams[worker]
                     if not s.busy and self.node.has_gpu), None)
        if idle is not None:
            idle.busy = True
            self.gpu_launches += 1
            overhead = idle.gpu.spec.launch_overhead
            self.queue.schedule(self.feed + overhead, self._launch, idle, flops)
            self.queue.schedule(self.feed + overhead, self._decision, worker)
        else:
            # execute on this worker (the Sec. 5.1 fallback)
            self.cpu_launches += 1
            dur = self.feed + flops / self.core_fmm_rate
            self.queue.schedule(dur, self._cpu_done, worker)

    def _launch(self, stream: _Stream, flops: float) -> None:
        stream.gpu.submit(flops, stream)

    def _cpu_done(self, worker: int) -> None:
        self.kernels_done += 1
        self.finish_time = self.queue.now
        self._decision(worker)


#: an interior sub-grid's multipole kernel becomes ready when the M2M
#: upward pass of its subtree completes, so multipole launches arrive in
#: waves of roughly one sibling group (8) rather than uniformly at random
MULTIPOLE_WAVE = 4


def _kernel_list(n_interior: int, n_leaves: int, seed: int = 7) -> np.ndarray:
    """Kernel launch order of one gravity solve: monopole (leaf) kernels
    interleaved with clustered waves of multipole (interior) kernels."""
    rng = np.random.default_rng(seed)
    n_waves = max(n_interior // MULTIPOLE_WAVE, 1)
    slots = np.concatenate([
        np.zeros(n_leaves, dtype=np.int64),       # 0 = one monopole kernel
        np.ones(n_waves, dtype=np.int64)])        # 1 = one multipole wave
    rng.shuffle(slots)
    out = np.empty(n_leaves + n_interior, dtype=np.float64)
    pos = 0
    remaining_mult = n_interior
    waves_left = n_waves
    for kind in slots:
        if kind == 0:
            out[pos] = MONOPOLE_KERNEL_FLOPS
            pos += 1
        else:
            take = remaining_mult // waves_left
            out[pos:pos + take] = MULTIPOLE_KERNEL_FLOPS
            pos += take
            remaining_mult -= take
            waves_left -= 1
    assert pos == n_leaves + n_interior and remaining_mult == 0
    return out


#: dependency barriers inside one gravity solve (the three FMM passes and
#: the AMR-boundary sub-phases synchronize the kernel stream); a CPU
#: fallback of a 20 ms multipole kernel shortly before a barrier is fully
#: exposed in the makespan — the "large performance impact" of Sec. 6.1.2
SOLVE_PHASES = 3


def simulate_gravity_solve(node: NodeSpec, n_interior: int, n_leaves: int,
                           feed_seconds: float | None = None,
                           seed: int = 7,
                           phases: int = SOLVE_PHASES) -> NodeLevelResult:
    """Simulate one gravity solve; returns the Table 2 measurements."""
    kernels = _kernel_list(n_interior, n_leaves, seed)
    total_flops = float(kernels.sum())
    if not node.has_gpu:
        # CPU-only: each kernel runs on one core, all cores packed (Sec 6.1.1)
        fmm_seconds = total_flops / (node.cores * node.fmm_core_rate() * 1e9)
        return NodeLevelResult(node, fmm_seconds, total_flops, 0, len(kernels))
    elapsed = 0.0
    gpu_l = cpu_l = 0
    for chunk in np.array_split(kernels, max(phases, 1)):
        if not len(chunk):
            continue
        sim = _Simulation(node, chunk, feed_seconds)
        sim.run()
        if sim.kernels_done != len(chunk):
            raise RuntimeError(
                f"simulation stalled: {sim.kernels_done}/{len(chunk)} kernels")
        elapsed += sim.finish_time
        gpu_l += sim.gpu_launches
        cpu_l += sim.cpu_launches
    return NodeLevelResult(node, elapsed, total_flops, gpu_l, cpu_l)


def measure_node(node: NodeSpec, n_interior: int = 1449,
                 n_leaves: int = 10144,
                 feed_seconds: float | None = None) -> NodeLevelResult:
    """Table 2 measurement for one node on the level-14 tree composition."""
    return simulate_gravity_solve(node, n_interior, n_leaves, feed_seconds)
