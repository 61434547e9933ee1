"""AMR time-stepping driver with flux correction (refluxing).

Evolves an :class:`~repro.core.octree.Octree` of sub-grids with a global
CFL timestep, mirroring Octo-Tiger's execution per level (Sec. 4.2).
A leaf is a ghosted block (``OctreeNode.U``), exactly what a
:class:`~repro.core.mesh.BlockMesh` block is, and the mesh is stepped
the same way:

* ghost shells fill from same-level neighbours (direct copy), coarser
  neighbours (conservative piecewise-constant prolongation) or finer
  neighbours (conservative restriction of the interface cells), each
  found by the tree's one neighbour walk (:meth:`Octree.neighbor`);
* the leaves of one level share cell width and shape, so each level is
  one batched :func:`~repro.core.hydro.solver.compute_rhs` call (the
  kernel is elementwise across blocks: bit for bit the per-leaf
  result);
* at every coarse-fine face the coarse cell's flux is *replaced* by the
  area-weighted sum of the fine fluxes (refluxing), so mass, momentum and
  energy totals are conserved across resolution jumps to machine
  precision — the property the conservation tests assert.

The time integration itself is the stepping core shared with the
uniform meshes (:func:`repro.core.mesh.rk2_step`); this module injects
the tree ghost fill and the refluxed right-hand side.

The driver requires a 2:1 balanced tree (which :meth:`Octree.refine`
maintains and :meth:`Octree.coarsen` refuses to break).  Gravity on AMR
trees is available through
``Octree.fmm_levels`` + :meth:`~repro.core.gravity.fmm.FmmSolver.from_levels`,
on the same dense sweeps as the uniform meshes plus one coarse-fine
batch per level (which raises if a leaf lies near a refined cell whose
children are refined); the driver here is hydro-only (the coupled
AMR+gravity production path in the paper is exercised at fixed
resolution by :class:`~repro.core.mesh.BlockMesh`).
"""

from __future__ import annotations

import numpy as np

from .eos import IdealGas
from .grid import NF, NGHOST
from .hydro.solver import HydroOptions, compute_rhs
from .mesh import (_conserved_totals, fill_wall, interior, min_cfl_dt,
                   rk2_step)
from .octree import _OFFSETS, Octree, OctreeNode, restrict
from .workspace import Workspace

__all__ = ["AmrMesh"]


class AmrMesh:
    """Hydro evolution on an adaptive octree with refluxing."""

    def __init__(self, tree: Octree, options: HydroOptions | None = None,
                 bc: str = "outflow"):
        if bc not in ("outflow", "reflect"):
            raise ValueError("AMR driver supports outflow/reflect walls")
        self.tree = tree
        self.options = options or HydroOptions(eos=IdealGas())
        self.bc = bc
        self.time = 0.0
        self.steps = 0
        self._stage: dict = {}
        # the kernel scratch, reused across stages and steps
        self._ws = Workspace()

    @property
    def blocks(self) -> dict:
        """``{leaf key: ghosted block}`` of the current tree."""
        return {leaf.key: leaf.U for leaf in self.tree.leaves()}

    # -- ghost filling ----------------------------------------------------

    def _fill(self, blocks: dict, stage: int) -> None:
        """Ghost shells of ``blocks`` (leaf key -> block) from each other:
        tree neighbours first, then the domain walls."""
        virtual: dict = {}
        for node in self.tree.leaves():
            U = blocks[node.key]
            for d in _OFFSETS:
                nb = self.tree.neighbor(node, d)
                if nb is None:
                    continue        # wall handled below
                self._copy_halo(U, node, nb, d, blocks, virtual)
            for ax in range(3):
                for side in (-1, 1):
                    if not 0 <= node.ipos[ax] + side < (1 << node.level):
                        fill_wall(U, ax, side, self.bc)

    def _virtual_interior(self, node: OctreeNode, blocks: dict,
                          virtual: dict) -> np.ndarray:
        """Interior of a node at its own level; refined nodes assemble
        and conservatively restrict their children (recursively, cached
        in ``virtual`` for the duration of one fill)."""
        if not node.refined:
            return interior(blocks[node.key])
        cached = virtual.get(node.key)
        if cached is not None:
            return cached
        n = self.tree.subgrid_n
        merged = np.zeros((NF, 2 * n, 2 * n, 2 * n))
        for cip in node.children_ipos():
            child = self.tree.get(node.level + 1, cip)
            sub = self._virtual_interior(child, blocks, virtual)
            a = (cip[0] & 1) * n
            b = (cip[1] & 1) * n
            c = (cip[2] & 1) * n
            merged[:, a:a + n, b:b + n, c:c + n] = sub
        out = virtual[node.key] = restrict(merged)
        return out

    def _copy_halo(self, U: np.ndarray, node: OctreeNode, nb: OctreeNode,
                   d: tuple[int, int, int], blocks: dict,
                   virtual: dict) -> None:
        """Fill the ghost region of ``U`` (the block of ``node``) that
        faces the neighbour ``nb`` at offset ``d``."""
        n = self.tree.subgrid_n
        dst = (slice(None),) + tuple(_strip(d[ax], n, NGHOST)
                                     for ax in range(3))
        src = self._virtual_interior(nb, blocks, virtual)
        if nb.level == node.level:
            # the same strip in the neighbour's interior coordinates
            # (virtual if nb is refined)
            U[dst] = src[(slice(None),) + tuple(
                _strip(d[ax], n, -d[ax] * n) for ax in range(3))]
        elif nb.level == node.level - 1:
            # coarse neighbour: piecewise-constant prolongation of the
            # coarse strip covering our halo — fine ghost cell (node
            # frame) -> global fine index -> coarse cell
            idx = []
            for ax in range(3):
                r = _strip(d[ax], n, 0)
                fine_local = np.arange(r.start, r.stop)
                fine_global = node.ipos[ax] * n + fine_local
                coarse_local = fine_global // 2 - nb.ipos[ax] * n
                idx.append(np.clip(coarse_local, 0, n - 1))
            I, J, K = np.meshgrid(idx[0], idx[1], idx[2], indexing="ij")
            U[dst] = src[:, I, J, K]
        else:
            raise RuntimeError(
                f"tree not 2:1 balanced at {node.key} vs {nb.key}")

    # -- refluxing ----------------------------------------------------------

    def _reflux(self, rhs: dict, fluxes: dict) -> None:
        """Replace coarse fluxes at coarse-fine faces with the restricted
        fine fluxes, so face transfers cancel exactly in the totals."""
        for node in self.tree.leaves():
            for ax in range(3):
                for side in (-1, 1):
                    d = tuple(side if a == ax else 0 for a in range(3))
                    nb = self.tree.neighbor(node, d)
                    if nb is None or nb.refined or nb.level >= node.level:
                        continue
                    # `node` is fine, `nb` coarse: fix nb's rhs at the face
                    self._apply_flux_fix(node, nb, ax, side, rhs, fluxes)

    def _apply_flux_fix(self, fine: OctreeNode, coarse: OctreeNode,
                        ax: int, side: int, rhs: dict,
                        fluxes: dict) -> None:
        n = self.tree.subgrid_n
        dx_c = self.tree.cell_width(coarse.level)
        F_f = fluxes[fine.key][ax]
        F_c = fluxes[coarse.key][ax]
        # fine face plane at its low (side<0) or high (side>0) boundary
        f_plane = 0 if side < 0 else n
        slf = [slice(None)] * 4
        slf[1 + ax] = slice(f_plane, f_plane + 1)
        fine_face = F_f[tuple(slf)].squeeze(1 + ax)      # (NF, n, n)
        # restrict the fine face fluxes 2x2 -> coarse face cells
        t = fine_face.reshape(NF, n // 2, 2, n // 2, 2).mean(axis=(2, 4))
        # locate the coarse face cells this fine block touches
        axes_t = [a for a in range(3) if a != ax]
        # global coarse index of the face plane
        fine_global_face = fine.ipos[ax] * n + (0 if side < 0 else n)
        coarse_face_idx = fine_global_face // 2 - coarse.ipos[ax] * n
        # transverse offsets of the fine block inside the coarse block
        offs = []
        for a in axes_t:
            fine_global0 = fine.ipos[a] * n
            coarse_local0 = fine_global0 // 2 - coarse.ipos[a] * n
            offs.append(coarse_local0)
        # coarse flux array index along ax: face index == cell index on the
        # high side of the coarse cell when side<0 (fine block sits on the
        # +ax side of the coarse neighbour), etc.
        c_face = coarse_face_idx
        slc = [slice(None)] * 4
        slc[1 + ax] = slice(c_face, c_face + 1)
        t_slices = [slice(offs[0], offs[0] + n // 2),
                    slice(offs[1], offs[1] + n // 2)]
        slc[1 + axes_t[0]] = t_slices[0]
        slc[1 + axes_t[1]] = t_slices[1]
        old = F_c[tuple(slc)].squeeze(1 + ax)
        delta = t - old
        # correct the coarse cell adjacent to the face: the divergence of
        # that cell used `old`; swap in the restricted fine flux
        cell_idx = c_face - 1 if side < 0 else c_face
        if not 0 <= cell_idx < n:
            return
        rsl = [slice(None)] * 4
        rsl[1 + ax] = slice(cell_idx, cell_idx + 1)
        rsl[1 + axes_t[0]] = t_slices[0]
        rsl[1 + axes_t[1]] = t_slices[1]
        # side is the direction fine -> coarse: the shared face is the
        # coarse block's HIGH face when side < 0 (enters its divergence
        # with a minus sign) and its LOW face when side > 0
        sign = -1.0 if side < 0 else 1.0
        rhs[coarse.key][tuple(rsl)] += np.expand_dims(
            sign * delta / dx_c, 1 + ax)

    # -- stepping --------------------------------------------------------------

    def compute_dt(self) -> float:
        return min_cfl_dt(((leaf.U, self.tree.cell_width(leaf.level))
                           for leaf in self.tree.leaves()), self.options,
                          ws=self._ws)

    def _rhs(self, blocks: dict, acc, stage: int) -> dict:
        """Refluxed right-hand sides of every leaf (hydro only): one
        batched :func:`compute_rhs` call per level."""
        by_level: dict = {}
        for node in self.tree.leaves():
            by_level.setdefault(node.level, []).append(node.key)
        rhs: dict = {}
        fluxes: dict = {}
        for level, keys in by_level.items():
            out, flux = compute_rhs(
                [blocks[key] for key in keys], self.tree.cell_width(level),
                self.options, return_fluxes=True, ws=self._ws,
                centers=[tuple(np.ravel(ax)
                               for ax in self.tree.cell_centers(*key))
                         for key in keys])
            for b, key in enumerate(keys):
                rhs[key] = out[:, b]
                fluxes[key] = [F[:, b] for F in flux]
        self._reflux(rhs, fluxes)
        return rhs

    def step(self, dt: float | None = None) -> float:
        """One SSP-RK2 step over all leaves with refluxing; returns the
        dt used."""
        return rk2_step(self, self.blocks, dt, self._fill, self._rhs)

    # -- diagnostics ------------------------------------------------------------

    def conserved_totals(self) -> dict[str, float | np.ndarray]:
        """Mass, momentum, gas energy, angular momentum summed over the
        leaves (same keys as the uniform meshes; no potential energy)."""
        parts = [_conserved_totals(interior(leaf.U),
                                   self.tree.cell_width(leaf.level),
                                   self.tree.cell_centers(*leaf.key), None)
                 for leaf in self.tree.leaves()]
        return {key: sum(part[key] for part in parts) for key in parts[0]}


def _strip(side: int, n: int, shift: int) -> slice:
    """Along one axis of ``n`` interior cells, the cells a ghost shell
    covers on ``side`` (-1 low, +1 high; 0 the interior itself), in
    interior coordinates plus ``shift``: ``NGHOST`` gives the ghost
    strip in ghosted coordinates, ``-side * n`` the interior strip a
    same-level neighbour on ``side`` fills it from."""
    lo, hi = {-1: (-NGHOST, 0), 0: (0, n), 1: (n, n + NGHOST)}[side]
    return slice(lo + shift, hi + shift)
