"""Cell-based FMM gravity: stencils, kernels, solver, direct reference."""

from .direct import direct_field, direct_potential, direct_summation
from .fmm import FmmLevel, FmmSolver, GravityResult
from .kernels import greens, m2l_pair, p2p_pair
from .multipole import aggregate_m2m, taylor_shift
from .stencil import OPENING_R2, p2p_stencil, well_separated

__all__ = ["direct_field", "direct_potential", "direct_summation",
           "FmmLevel", "FmmSolver", "GravityResult",
           "greens", "m2l_pair", "p2p_pair",
           "aggregate_m2m", "taylor_shift",
           "OPENING_R2", "p2p_stencil", "well_separated"]
