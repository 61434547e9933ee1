"""Cell-based FMM gravity: stencils, kernels, solver."""

from .fmm import FmmLevel, FmmSolver, GravityResult
from .kernels import m2l_pair, p2p_pair
from .multipole import aggregate_m2m, taylor_shift
from .stencil import OPENING_R2, p2p_stencil, well_separated

__all__ = ["FmmLevel", "FmmSolver", "GravityResult",
           "m2l_pair", "p2p_pair",
           "aggregate_m2m", "taylor_shift",
           "OPENING_R2", "p2p_stencil", "well_separated"]
