"""Compute-node hardware models.

A :class:`NodeSpec` captures what the Table 2 measurement methodology
needs: CPU peak (cores x clock x flops/cycle), GPU peaks, the measured
fraction-of-peak the FMM kernels reach on each device class, and CUDA
stream counts.  Peak formulas follow the paper's own accounting ("We have
assumed the base (unthrottled) clock rate ... for calculating the
theoretical peak performance", Sec. 6.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["GpuSpec", "NodeSpec"]


@dataclass(frozen=True)
class GpuSpec:
    """A GPU model: nominal double-precision peak and stream capacity."""

    name: str
    peak_gflops: float
    n_streams: int = 128           # "usually 128 per GPU" (Sec. 5.1)
    #: fraction of peak the FMM multipole kernel itself sustains when the
    #: device is saturated (intrinsic kernel efficiency, before starvation)
    kernel_efficiency: float = 0.45
    #: host-side cost to launch one kernel + stage its buffers (s)
    launch_overhead: float = 12e-6


@dataclass(frozen=True)
class NodeSpec:
    """One compute node: CPU + zero or more GPUs."""

    name: str
    cores: int
    clock_ghz: float
    flops_per_cycle: int           # 16 for AVX2 FMA, 32 for AVX512/KNL
    #: fraction of CPU peak the vectorized FMM kernels sustain (Table 2
    #: measures ~0.30 on AVX2, ~0.17 on KNL, ~0.31 on Haswell-12c)
    cpu_kernel_efficiency: float = 0.30
    #: relative speed of the non-FMM (hydro, tree) part of Octo-Tiger on
    #: this CPU, as a fraction of peak; the paper notes this code is less
    #: vectorized, which is why KNL's FMM share drops to 20% (Sec. 6.1.2)
    cpu_other_efficiency: float = 0.06
    gpus: tuple[GpuSpec, ...] = field(default_factory=tuple)
    ram_gb: float = 64.0

    @property
    def cpu_peak_gflops(self) -> float:
        return self.cores * self.clock_ghz * self.flops_per_cycle

    @property
    def core_peak_gflops(self) -> float:
        return self.clock_ghz * self.flops_per_cycle

    @property
    def gpu_peak_gflops(self) -> float:
        return sum(g.peak_gflops for g in self.gpus)

    @property
    def has_gpu(self) -> bool:
        return bool(self.gpus)

    def fmm_core_rate(self) -> float:
        """GFLOP/s one CPU core sustains inside an FMM kernel."""
        return self.core_peak_gflops * self.cpu_kernel_efficiency

    def fmm_gpu_rate(self, gpu: GpuSpec) -> float:
        """GFLOP/s one GPU sustains on back-to-back FMM kernels."""
        return gpu.peak_gflops * gpu.kernel_efficiency

    def other_rate(self) -> float:
        """Node-aggregate GFLOP/s on the non-FMM part of a timestep."""
        return self.cpu_peak_gflops * self.cpu_other_efficiency
