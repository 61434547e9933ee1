"""Drivers for the paper's evaluation sweeps (Table 2, Table 4, Figs. 2/3).

These functions produce exactly the rows/series the paper reports;
``tests/simulator/`` asserts their shapes and
``examples/scaling_study.py`` prints them.  Workload profiles
are cached per refinement level because building the level-17 tree takes
a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..network.parcelport import PARCELPORTS, Parcelport
from .distributed import StepModel
from .machine import NodeSpec
from .nodelevel import NodeLevelResult, measure_node
from .platforms import PIZ_DAINT, TABLE2_CONFIGS
from .taskgraph import WorkloadProfile, profile_tree
from .treemodel import ScenarioTree, v1309_tree

__all__ = [
    "cached_profile", "cached_tree", "node_level_table", "subgrid_table",
    "ScalingPoint", "scaling_sweep", "parcelport_ratio",
    "PAPER_NODE_COUNTS", "reference_rate",
]

#: the node counts of Fig. 2: powers of two up to 4096, plus the 5400-node
#: full system
PAPER_NODE_COUNTS = [2 ** k for k in range(13)] + [5400]


@lru_cache(maxsize=None)
def cached_tree(level: int) -> ScenarioTree:
    return v1309_tree(level)


@lru_cache(maxsize=None)
def cached_profile(level: int) -> WorkloadProfile:
    return profile_tree(cached_tree(level))


@lru_cache(maxsize=None)
def _cached_model(level: int, node: NodeSpec) -> StepModel:
    return StepModel(cached_profile(level), node)


# -- Table 2 -----------------------------------------------------------------

def node_level_table() -> list[tuple[str, NodeLevelResult]]:
    """Simulate all nine Table 2 platform configurations."""
    return [(name, measure_node(node)) for name, node in TABLE2_CONFIGS]


# -- Table 4 ------------------------------------------------------------------

def subgrid_table(levels: tuple[int, ...] = (13, 14, 15, 16, 17)
                  ) -> list[tuple[int, int, float]]:
    """(level, sub-grids, memory GB) rows of Table 4 from the tree model."""
    return [(lvl, cached_tree(lvl).total_subgrids,
             cached_tree(lvl).memory_gb()) for lvl in levels]


# -- Figs. 2 and 3 ----------------------------------------------------------------


@dataclass(frozen=True)
class ScalingPoint:
    """One point of the Fig. 2 speedup graph."""

    level: int
    n_nodes: int
    parcelport: str
    subgrids_per_second: float
    speedup: float
    efficiency: float


def reference_rate(node: NodeSpec = PIZ_DAINT,
                   port: Parcelport | None = None) -> float:
    """Sub-grids/second of level 14 on one node — the Fig. 2 reference."""
    port = port or PARCELPORTS["libfabric"]
    return _cached_model(14, node).step_time(1, port).subgrids_per_second


def _node_counts(level: int, max_nodes: int,
                 min_subgrids_per_node: int = 2) -> list[int]:
    profile = cached_profile(level)
    return [n for n in PAPER_NODE_COUNTS
            if n <= max_nodes and profile.n_subgrids / n >= min_subgrids_per_node]


def scaling_sweep(levels: tuple[int, ...] = (14, 15, 16, 17),
                  max_nodes: int = 5400,
                  ports: tuple[str, ...] = ("mpi", "libfabric"),
                  node: NodeSpec = PIZ_DAINT) -> list[ScalingPoint]:
    """The Fig. 2 sweep: speedup w.r.t. sub-grids/s of level 14 on 1 node."""
    ref = reference_rate(node)
    points: list[ScalingPoint] = []
    for level in levels:
        model = _cached_model(level, node)
        for port_name in ports:
            port = PARCELPORTS[port_name]
            for n in _node_counts(level, max_nodes):
                rate = model.step_time(n, port).subgrids_per_second
                points.append(ScalingPoint(
                    level=level, n_nodes=n, parcelport=port_name,
                    subgrids_per_second=rate, speedup=rate / ref,
                    efficiency=rate / (n * ref)))
    return points


def parcelport_ratio(levels: tuple[int, ...] = (14, 15, 16),
                     max_nodes: int = 5400,
                     node: NodeSpec = PIZ_DAINT
                     ) -> list[tuple[int, int, float]]:
    """Fig. 3: (level, nodes, libfabric-rate / MPI-rate) series."""
    lf = PARCELPORTS["libfabric"]
    mpi = PARCELPORTS["mpi"]
    out: list[tuple[int, int, float]] = []
    for level in levels:
        model = _cached_model(level, node)
        for n in _node_counts(level, max_nodes):
            if n < 2:
                continue
            r_lf = model.step_time(n, lf).subgrids_per_second
            r_mpi = model.step_time(n, mpi).subgrids_per_second
            out.append((level, n, r_lf / r_mpi))
    return out
