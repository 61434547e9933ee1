"""Sub-grid state layout: the 8^3 struct-of-arrays building block (Sec. 4.2).

Octo-Tiger's octree nodes each carry an N^3 sub-grid (N = 8 in all paper
runs) of evolved variables.  Following the paper's optimization story
(Sec. 4.3: "we changed it to a stencil-based approach and are now
utilizing a struct-of-arrays datastructure"), a sub-grid is one plain
C-contiguous ghosted block ``(NF, n + 2 NGHOST, n + 2 NGHOST,
n + 2 NGHOST)`` — field-major, so every kernel streams through
contiguous memory — and its state is the view
:func:`repro.core.mesh.interior` takes of it.  No class wraps the
array: a :class:`~repro.core.mesh.BlockMesh` block and an
:class:`~repro.core.octree.Octree` leaf are the same thing, and their
geometry (cell width, cell centres) comes from the mesh or tree that
holds them.  This module defines the field layout they share.

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

__all__ = [
    "RHO", "SX", "EGAS", "TAU", "PASSIVE0", "LX", "NF", "NGHOST", "SUBGRID_N",
]

RHO = 0
#: momentum density, SX + d for d = x, y, z
SX = 1
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

