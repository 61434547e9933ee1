"""Sub-grid state: the 8^3 struct-of-arrays building block (Sec. 4.2).

Octo-Tiger's octree nodes each carry an N^3 sub-grid (N = 8 in all paper
runs) of evolved variables.  Following the paper's optimization story
(Sec. 4.3: "we changed it to a stencil-based approach and are now
utilizing a struct-of-arrays datastructure"), the state is one C-contiguous
``(NF, n, n, n)`` array — field-major, so every kernel streams through
contiguous memory.

Evolved fields (Sec. 4.2):

====  =======  ====================================================
idx   name     meaning
====  =======  ====================================================
0     rho      mass density
1-3   sx..sz   momentum density
4     egas     gas total energy density (internal + kinetic)
5     tau      entropy tracer of the dual-energy formalism
6-10  frac0..4 five passive scalars (accretor core/envelope, donor
               core/envelope, common atmosphere), units of density
11-13 lx..lz   spin angular momentum density (Despres-Labourasse)
====  =======  ====================================================
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RHO", "SX", "SY", "SZ", "EGAS", "TAU", "PASSIVE0", "LX", "NF", "NGHOST",
    "SUBGRID_N", "SubGrid",
]

RHO = 0
SX, SY, SZ = 1, 2, 3
EGAS = 4
TAU = 5
#: five passive scalars, PASSIVE0 + k
PASSIVE0 = 6
#: spin angular momentum, LX + d for d = x, y, z
LX = 11
NF = 14
#: ghost-cell width (PPM parabolas need 3 upstream cells)
NGHOST = 3
#: sub-grid edge length in cells, as in all the paper's runs
SUBGRID_N = 8


class SubGrid:
    """One octree node's N^3 sub-grid plus ghost shell.

    Parameters
    ----------
    origin:
        Physical coordinates of the *lower corner* of the first interior
        cell (ghosts extend below it).
    dx:
        Cell width.
    n:
        Interior cells per edge (default 8).
    """

    __slots__ = ("U", "origin", "dx", "n", "level", "ipos")

    def __init__(self, origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 dx: float = 1.0, n: int = SUBGRID_N, level: int = 0,
                 ipos: tuple[int, int, int] = (0, 0, 0)):
        if n < 1:
            raise ValueError("sub-grid edge must be positive")
        self.n = n
        self.dx = float(dx)
        self.origin = tuple(float(c) for c in origin)
        self.level = level
        self.ipos = tuple(ipos)
        m = n + 2 * NGHOST
        self.U = np.zeros((NF, m, m, m), dtype=np.float64)

    # -- views ----------------------------------------------------------------

    @property
    def interior(self) -> np.ndarray:
        """View of the evolved interior region, shape (NF, n, n, n)."""
        g = NGHOST
        return self.U[:, g:g + self.n, g:g + self.n, g:g + self.n]

    def field(self, idx: int) -> np.ndarray:
        """Interior view of one field."""
        return self.interior[idx]

    # -- geometry ---------------------------------------------------------------

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interior cell-centre coordinate arrays (broadcastable 3-D)."""
        n, dx = self.n, self.dx
        ax = [self.origin[d] + (np.arange(n) + 0.5) * dx for d in range(3)]
        return (ax[0][:, None, None], ax[1][None, :, None],
                ax[2][None, None, :])

    @property
    def cell_volume(self) -> float:
        return self.dx ** 3

    # -- diagnostics ------------------------------------------------------------------

    def total_mass(self) -> float:
        return float(self.field(RHO).sum()) * self.cell_volume

    def total_momentum(self) -> np.ndarray:
        v = self.cell_volume
        return np.array([float(self.field(SX).sum()),
                         float(self.field(SY).sum()),
                         float(self.field(SZ).sum())]) * v

    def copy(self) -> "SubGrid":
        out = SubGrid(self.origin, self.dx, self.n, self.level, self.ipos)
        out.U[...] = self.U
        return out

    def __repr__(self) -> str:
        return (f"SubGrid(n={self.n}, dx={self.dx:g}, level={self.level}, "
                f"ipos={self.ipos})")
