"""FMM kernel flop accounting — the paper's own constants (Sec. 4.3).

"Each kernel launch applies a 1074 element stencil for each cell of the
octree's sub-grid.  As we have N^3 = 512 cells per sub-grid, this results
in 549 888 interactions per kernel launch. ... For monopole-monopole
interactions we execute 12 floating point operations per interaction, and
for multipole-multipole/monopole interaction 455 floating point
operations."

These constants drive both the Table 2 GFLOP/s methodology (count kernel
launches, multiply by constant flops, divide by measured kernel time) and
the scaling simulator's per-sub-grid work model.
"""

from __future__ import annotations

__all__ = [
    "STENCIL_SIZE", "CELLS_PER_SUBGRID", "INTERACTIONS_PER_LAUNCH",
    "FLOPS_PER_MONOPOLE_INTERACTION", "FLOPS_PER_MULTIPOLE_INTERACTION",
    "MONOPOLE_KERNEL_FLOPS", "MULTIPOLE_KERNEL_FLOPS",
    "OTHER_FLOPS_PER_SUBGRID",
]

#: same-level interaction stencil size (Sec. 4.3)
STENCIL_SIZE = 1074
#: 8^3 cells per octree sub-grid
CELLS_PER_SUBGRID = 512
#: 512 x 1074
INTERACTIONS_PER_LAUNCH = CELLS_PER_SUBGRID * STENCIL_SIZE
assert INTERACTIONS_PER_LAUNCH == 549_888

FLOPS_PER_MONOPOLE_INTERACTION = 12
FLOPS_PER_MULTIPOLE_INTERACTION = 455

#: flops of one monopole-monopole kernel launch (6.6 MFlop)
MONOPOLE_KERNEL_FLOPS = INTERACTIONS_PER_LAUNCH * FLOPS_PER_MONOPOLE_INTERACTION
#: flops of one multipole-multipole/monopole kernel launch (250.2 MFlop)
MULTIPOLE_KERNEL_FLOPS = INTERACTIONS_PER_LAUNCH * FLOPS_PER_MULTIPOLE_INTERACTION

#: calibrated non-FMM (hydro + tree traversal + reconstruction) work per
#: sub-grid per gravity solve, chosen so the FMM's share of total runtime
#: lands at the paper's ~40% on AVX2 CPUs (Sec. 4.3, Table 2)
OTHER_FLOPS_PER_SUBGRID = 8.75e6

