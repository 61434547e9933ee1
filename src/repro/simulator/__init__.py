"""Discrete-event cluster simulator: the "Piz Daint" substrate (DESIGN.md §2).

Provides the event queue, node hardware models, the paper's evaluation
platforms, the structural V1309 octree (Table 4), workload profiling,
the node-level FMM performance DES (Table 2) and the distributed scaling
model (Figs. 2 and 3).
"""

from .events import EventQueue, SimulationError
from .machine import GpuSpec, NodeSpec
from .platforms import (V100, P100, XEON_E5_2660V3_10C, XEON_E5_2660V3_20C,
                        XEON_PHI_7210, PIZ_DAINT_CPU, PIZ_DAINT, with_gpus,
                        TABLE2_CONFIGS)
from .treemodel import (RefinementRegion, ScenarioTree, build_tree,
                        v1309_tree, v1309_regions, TABLE4_PAPER_COUNTS,
                        MEMORY_GB_PER_SUBGRID)
from .taskgraph import WorkloadProfile, profile_tree
from .distributed import StepModel, StepResult
from .nodelevel import NodeLevelResult, simulate_gravity_solve, measure_node
from .scaling import (cached_profile, cached_tree, node_level_table,
                      subgrid_table, ScalingPoint, scaling_sweep,
                      parcelport_ratio, reference_rate, PAPER_NODE_COUNTS)
from .startup import startup_time, startup_speedup

__all__ = [
    "EventQueue", "SimulationError", "GpuSpec", "NodeSpec",
    "V100", "P100", "XEON_E5_2660V3_10C", "XEON_E5_2660V3_20C",
    "XEON_PHI_7210", "PIZ_DAINT_CPU", "PIZ_DAINT", "with_gpus",
    "TABLE2_CONFIGS",
    "RefinementRegion", "ScenarioTree", "build_tree", "v1309_tree",
    "v1309_regions", "TABLE4_PAPER_COUNTS", "MEMORY_GB_PER_SUBGRID",
    "WorkloadProfile", "profile_tree",
    "StepModel", "StepResult",
    "NodeLevelResult", "simulate_gravity_solve", "measure_node",
    "cached_profile", "cached_tree", "node_level_table", "subgrid_table",
    "ScalingPoint", "scaling_sweep", "parcelport_ratio", "reference_rate",
    "PAPER_NODE_COUNTS", "startup_time", "startup_speedup",
]
