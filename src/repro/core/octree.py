"""The adaptive octree of sub-grids (Sec. 4.2).

"Octo-Tiger's main datastructure is a rotating Cartesian grid with
adaptive mesh refinement (AMR).  It is based on an adaptive octree
structure.  Each node is an N^3 sub-grid (with N = 8 ...) containing the
evolved variables, and can be further refined into eight child nodes."

A leaf's sub-grid is a plain ghosted block, ``OctreeNode.U`` — the same
``(NF, n + 2 NGHOST, ...)`` array a :class:`~repro.core.mesh.BlockMesh`
block is — read and written through :func:`repro.core.mesh.interior`;
a refined node holds none.  Its geometry comes from the tree:
:meth:`Octree.cell_width` and :meth:`Octree.cell_centers` of its level
and position.

This module provides the tree structure itself: creation, density-based
refinement with 2:1 balance, conservative prolongation/restriction between
levels, the one neighbour walk (:meth:`Octree.neighbor`) that both the
balance rule and the AMR ghost fill use, Morton-ordered traversal (the
paper's SFC distribution order), and the bridge to the FMM solver
(:meth:`Octree.fmm_levels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..util import morton_encode
from .grid import NF, NGHOST, RHO, SUBGRID_N
from .mesh import interior

__all__ = ["OctreeNode", "Octree", "prolong", "restrict"]

#: the 26 offsets of a node's face, edge and corner neighbours
_OFFSETS = [tuple(int(c) - 1 for c in off) for off in np.ndindex(3, 3, 3)
            if off != (1, 1, 1)]


def prolong(parent_interior: np.ndarray) -> np.ndarray:
    """Conservative piecewise-constant prolongation: each parent cell maps
    to 2^3 identical children (preserves all volume integrals exactly)."""
    out = np.repeat(np.repeat(np.repeat(parent_interior, 2, axis=1),
                              2, axis=2), 2, axis=3)
    return out


def restrict(child_interior: np.ndarray) -> np.ndarray:
    """Conservative restriction: the mean over each 2^3 child block."""
    f, nx, ny, nz = child_interior.shape
    v = child_interior.reshape(f, nx // 2, 2, ny // 2, 2, nz // 2, 2)
    return v.mean(axis=(2, 4, 6))


@dataclass
class OctreeNode:
    """One octree node: a leaf holds its sub-grid ``U``, a ghosted
    block; a refined node is structural (``U`` is ``None``)."""

    level: int
    ipos: tuple[int, int, int]
    refined: bool = False
    U: np.ndarray | None = None

    @property
    def key(self) -> tuple[int, tuple[int, int, int]]:
        return (self.level, self.ipos)

    def children_ipos(self) -> list[tuple[int, int, int]]:
        i, j, k = self.ipos
        return [(2 * i + a, 2 * j + b, 2 * k + c)
                for a in (0, 1) for b in (0, 1) for c in (0, 1)]


class Octree:
    """Adaptive octree of N^3 sub-grids over a cubic domain.

    The tree always contains the root; leaves carry a ghosted block
    of ``subgrid_n``^3 interior cells.  ``domain`` is the physical edge
    length, with the lower corner at ``origin``.
    """

    def __init__(self, domain: float = 1.0,
                 origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 subgrid_n: int = SUBGRID_N):
        if subgrid_n < 1:
            raise ValueError("sub-grid edge must be positive")
        self.domain = float(domain)
        self.origin = tuple(float(c) for c in origin)
        self.subgrid_n = subgrid_n
        self.nodes: dict[tuple[int, tuple[int, int, int]], OctreeNode] = {}
        root = OctreeNode(level=0, ipos=(0, 0, 0), U=self._block())
        self.nodes[root.key] = root

    # -- geometry ----------------------------------------------------------

    def subgrid_edge(self, level: int) -> float:
        return self.domain / (1 << level)

    def cell_width(self, level: int) -> float:
        return self.subgrid_edge(level) / self.subgrid_n

    def cell_centers(self, level: int, ipos: tuple[int, int, int]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interior cell-centre coordinates of the node at ``(level,
        ipos)``, broadcastable 3-D like
        :meth:`repro.core.mesh.BlockMesh.cell_centers`: the node's
        corner plus the local offsets."""
        edge, dx = self.subgrid_edge(level), self.cell_width(level)
        ax = [(self.origin[d] + ipos[d] * edge)
              + (np.arange(self.subgrid_n) + 0.5) * dx for d in range(3)]
        return (ax[0][:, None, None], ax[1][None, :, None],
                ax[2][None, None, :])

    def _block(self) -> np.ndarray:
        """A zeroed ghosted block for one leaf."""
        m = self.subgrid_n + 2 * NGHOST
        return np.zeros((NF, m, m, m))

    # -- queries ------------------------------------------------------------

    def get(self, level: int, ipos: tuple[int, int, int]) -> OctreeNode | None:
        return self.nodes.get((level, ipos))

    def leaves(self) -> Iterator[OctreeNode]:
        for node in self.nodes.values():
            if not node.refined:
                yield node

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def max_level(self) -> int:
        return max(n.level for n in self.nodes.values())

    def neighbor(self, node: OctreeNode, off: tuple[int, int, int]
                 ) -> OctreeNode | None:
        """The node at ``node``'s level offset by ``off``, else the
        coarser leaf that covers that position; ``None`` past a domain
        wall."""
        level = node.level
        pos = tuple(p + o for p, o in zip(node.ipos, off))
        if any(c < 0 or c >= (1 << level) for c in pos):
            return None
        while level > 0 and (level, pos) not in self.nodes:
            pos = tuple(c // 2 for c in pos)
            level -= 1
        return self.nodes[level, pos]

    # -- refinement ----------------------------------------------------------------

    def refine(self, level: int, ipos: tuple[int, int, int]) -> list[OctreeNode]:
        """Split a leaf into 8 children, prolonging its state."""
        node = self.nodes.get((level, ipos))
        if node is None:
            raise KeyError(f"no node at level {level}, {ipos}")
        if node.refined:
            raise ValueError(f"node {node.key} is already refined")
        fine = prolong(interior(node.U))
        n = self.subgrid_n
        children = []
        for cip in node.children_ipos():
            child = OctreeNode(level=level + 1, ipos=cip, U=self._block())
            a = (cip[0] & 1) * n
            b = (cip[1] & 1) * n
            c = (cip[2] & 1) * n
            interior(child.U)[...] = fine[:, a:a + n, b:b + n, c:c + n]
            self.nodes[child.key] = child
            children.append(child)
        node.refined = True
        node.U = None
        self._enforce_balance(node)
        return children

    def coarsen(self, level: int, ipos: tuple[int, int, int]) -> OctreeNode:
        """Merge 8 leaf children back into their parent (restriction).

        Raises ``ValueError``, with the tree unchanged, unless every
        child is a leaf and no refined node neighbours a child: that
        node would face a leaf two levels coarser (2:1 balance)."""
        node = self.nodes.get((level, ipos))
        if node is None or not node.refined:
            raise ValueError(f"node ({level}, {ipos}) is not refined")
        children = [self.nodes.get((level + 1, cip))
                    for cip in node.children_ipos()]
        if any(child is None or child.refined for child in children):
            raise ValueError("can only coarsen a node with leaf children")
        for child in children:
            for off in _OFFSETS:
                nb = self.neighbor(child, off)
                if nb is not None and nb.refined:
                    raise ValueError(
                        f"coarsening ({level}, {ipos}) would break 2:1 "
                        f"balance at refined node {nb.key}")
        n = self.subgrid_n
        merged = np.zeros((NF, 2 * n, 2 * n, 2 * n))
        for child in children:
            a = (child.ipos[0] & 1) * n
            b = (child.ipos[1] & 1) * n
            c = (child.ipos[2] & 1) * n
            merged[:, a:a + n, b:b + n, c:c + n] = interior(child.U)
            del self.nodes[child.key]
        node.refined = False
        node.U = self._block()
        interior(node.U)[...] = restrict(merged)
        return node

    def _enforce_balance(self, node: OctreeNode) -> None:
        """2:1 balance: neighbours of a refined node may be at most one
        level coarser, so a coarser leaf beside it is refined too."""
        for off in _OFFSETS:
            nb = self.neighbor(node, off)
            if nb is not None and nb.level < node.level:
                self.refine(nb.level, nb.ipos)

    def refine_by(self, criterion: Callable[[OctreeNode], bool],
                  max_level: int) -> int:
        """Refine every leaf for which ``criterion`` holds, repeatedly,
        until no leaf below ``max_level`` wants refinement.  Returns the
        number of refinements performed."""
        count = 0
        changed = True
        while changed:
            changed = False
            for node in list(self.leaves()):
                if node.level >= max_level or node.refined:
                    continue
                if criterion(node):
                    self.refine(node.level, node.ipos)
                    count += 1
                    changed = True
        return count

    # -- FMM bridge ---------------------------------------------------------------------

    def fmm_levels(self) -> tuple[list, dict[int, np.ndarray]]:
        """Cell-level specs + leaf densities for
        :meth:`repro.core.gravity.fmm.FmmSolver.from_levels`.

        Returns ``(specs, rho_by_level)`` where specs is a list of
        (level, width, coords, leaf_mask) and densities are flat arrays in
        each level's Morton order.
        """
        n = self.subgrid_n
        local = np.stack(np.meshgrid(np.arange(n), np.arange(n),
                                     np.arange(n), indexing="ij"),
                         -1).reshape(-1, 3)
        per_level: dict[int, list] = {}
        rho_parts: dict[int, list] = {}
        for node in self.nodes.values():
            base = np.array(node.ipos, dtype=np.int64) * n
            coords = base[None, :] + local
            per_level.setdefault(node.level, []).append(
                (coords, not node.refined, node))
        specs = []
        rho_by_level: dict[int, np.ndarray] = {}
        for lvl in sorted(per_level):
            coords = np.concatenate([c for c, _leaf, _n in per_level[lvl]])
            leaf = np.concatenate([
                np.full(len(c), is_leaf)
                for c, is_leaf, _n in per_level[lvl]])
            width = self.cell_width(lvl)
            specs.append((lvl, width, coords, leaf))
            # leaf densities must follow the level's Morton order
            keys = morton_encode(coords[:, 0], coords[:, 1], coords[:, 2])
            order = np.argsort(keys, kind="stable")
            rho_flat = np.concatenate([
                (interior(node.U)[RHO].reshape(-1)
                 if not node.refined else np.zeros(len(c)))
                for c, _leaf, node in per_level[lvl]])
            leaf_sorted = leaf[order]
            rho_by_level[lvl] = rho_flat[order][leaf_sorted]
        return specs, rho_by_level
