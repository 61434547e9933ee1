"""Octo-Tiger core physics: grid, octree AMR, hydro, FMM gravity, SCF."""

from .grid import RHO, SX, EGAS, TAU, PASSIVE0, LX, NF, NGHOST, SUBGRID_N
from .eos import IdealGas, DEFAULT_GAMMA
from .exec import ExecutionEngine
from .mesh import BlockMesh, interior
from .distmesh import DistBlockMesh, box_partition
from .octree import Octree, OctreeNode, prolong, restrict
from .amr import AmrMesh
from .hydro.solver import HydroOptions, compute_rhs, cfl_dt
from .gravity.fmm import FmmSolver, FmmLevel, GravityResult
from .gravity.stencil import p2p_stencil
from .scf import (LaneEmdenSolution, solve_lane_emden, Polytrope,
                  ScfResult, scf_single_star, scf_binary)
from .scenario import (sod_tube, sedov_blast, equilibrium_star,
                       v1309_binary, V1309_MASS_RATIO)
from .stepper import (ConservationMonitor, ConservationRecord, evolve,
                      FaultRecoveryExhausted, GuardViolation)

__all__ = [
    "RHO", "SX", "EGAS", "TAU", "PASSIVE0", "LX", "NF", "NGHOST",
    "SUBGRID_N", "IdealGas", "DEFAULT_GAMMA",
    "BlockMesh", "interior",
    "DistBlockMesh", "box_partition",
    "ExecutionEngine",
    "Octree", "OctreeNode", "prolong", "restrict", "AmrMesh",
    "HydroOptions", "compute_rhs", "cfl_dt",
    "FmmSolver", "FmmLevel", "GravityResult",
    "p2p_stencil",
    "LaneEmdenSolution", "solve_lane_emden", "Polytrope",
    "ScfResult", "scf_single_star", "scf_binary",
    "sod_tube", "sedov_blast", "equilibrium_star", "v1309_binary",
    "V1309_MASS_RATIO",
    "ConservationMonitor", "ConservationRecord", "evolve",
    "FaultRecoveryExhausted", "GuardViolation",
]
