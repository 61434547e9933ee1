"""Speedup and parallel-efficiency arithmetic for the scaling study."""

from __future__ import annotations

__all__ = ["speedup", "parallel_efficiency"]


def speedup(rate: float, reference_rate: float) -> float:
    """Throughput ratio w.r.t. the single-node reference (Fig. 2 y-axis)."""
    if reference_rate <= 0:
        raise ValueError("reference rate must be positive")
    return rate / reference_rate


def parallel_efficiency(rate: float, n_nodes: int,
                        reference_rate: float) -> float:
    """rate / (N x reference); the paper's '% of the efficiency of the
    reference value of level 14 on 1 node' (Sec. 6.3)."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return speedup(rate, reference_rate) / n_nodes
