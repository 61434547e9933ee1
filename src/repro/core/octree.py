"""The adaptive octree of sub-grids (Sec. 4.2).

"Octo-Tiger's main datastructure is a rotating Cartesian grid with
adaptive mesh refinement (AMR).  It is based on an adaptive octree
structure.  Each node is an N^3 sub-grid (with N = 8 ...) containing the
evolved variables, and can be further refined into eight child nodes."

This module provides the tree structure itself: creation, density-based
refinement with 2:1 balance, conservative prolongation/restriction between
levels, Morton-ordered traversal (the paper's SFC distribution order), and
the bridge to the FMM solver (:meth:`Octree.fmm_levels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..util import morton_encode
from .grid import NF, NGHOST, RHO, SUBGRID_N, SubGrid

__all__ = ["OctreeNode", "Octree", "prolong", "restrict"]


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
    """One octree node: a sub-grid when leaf, structural when refined."""

    level: int
    ipos: tuple[int, int, int]
    refined: bool = False
    grid: SubGrid | None = None

    @property
    def key(self) -> tuple[int, tuple[int, int, int]]:
        return (self.level, self.ipos)

    def children_ipos(self) -> list[tuple[int, int, int]]:
        i, j, k = self.ipos
        return [(2 * i + a, 2 * j + b, 2 * k + c)
                for a in (0, 1) for b in (0, 1) for c in (0, 1)]


class Octree:
    """Adaptive octree of N^3 sub-grids over a cubic domain.

    The tree always contains the root; leaves carry :class:`SubGrid`
    state.  ``domain`` is the physical edge length, with the lower corner
    at ``origin``.
    """

    def __init__(self, domain: float = 1.0,
                 origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 subgrid_n: int = SUBGRID_N):
        self.domain = float(domain)
        self.origin = tuple(float(c) for c in origin)
        self.subgrid_n = subgrid_n
        self.nodes: dict[tuple[int, tuple[int, int, int]], OctreeNode] = {}
        root = OctreeNode(level=0, ipos=(0, 0, 0))
        root.grid = self._make_grid(0, (0, 0, 0))
        self.nodes[root.key] = root

    # -- geometry ----------------------------------------------------------

    def subgrid_edge(self, level: int) -> float:
        return self.domain / (1 << level)

    def cell_width(self, level: int) -> float:
        return self.subgrid_edge(level) / self.subgrid_n

    def _make_grid(self, level: int, ipos: tuple[int, int, int]) -> SubGrid:
        edge = self.subgrid_edge(level)
        org = tuple(self.origin[d] + ipos[d] * edge for d in range(3))
        return SubGrid(origin=org, dx=self.cell_width(level),
                       n=self.subgrid_n, level=level, ipos=ipos)

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

    # -- refinement ----------------------------------------------------------------

    def refine(self, level: int, ipos: tuple[int, int, int]) -> list[OctreeNode]:
        """Split a leaf into 8 children, prolonging its state."""
        node = self.nodes.get((level, ipos))
        if node is None:
            raise KeyError(f"no node at level {level}, {ipos}")
        if node.refined:
            raise ValueError(f"node {node.key} is already refined")
        assert node.grid is not None
        fine = prolong(node.grid.interior)
        n = self.subgrid_n
        children = []
        for cip in node.children_ipos():
            child = OctreeNode(level=level + 1, ipos=cip)
            child.grid = self._make_grid(level + 1, cip)
            a = (cip[0] & 1) * n
            b = (cip[1] & 1) * n
            c = (cip[2] & 1) * n
            child.grid.interior[...] = fine[:, a:a + n, b:b + n, c:c + n]
            self.nodes[child.key] = child
            children.append(child)
        node.refined = True
        node.grid = None
        self._enforce_balance(node)
        return children

    def coarsen(self, level: int, ipos: tuple[int, int, int]) -> OctreeNode:
        """Merge 8 leaf children back into their parent (restriction)."""
        node = self.nodes.get((level, ipos))
        if node is None or not node.refined:
            raise ValueError(f"node ({level}, {ipos}) is not refined")
        n = self.subgrid_n
        merged = np.zeros((NF, 2 * n, 2 * n, 2 * n))
        for cip in node.children_ipos():
            child = self.nodes.get((level + 1, cip))
            if child is None or child.refined:
                raise ValueError("can only coarsen a node with leaf children")
            a = (cip[0] & 1) * n
            b = (cip[1] & 1) * n
            c = (cip[2] & 1) * n
            merged[:, a:a + n, b:b + n, c:c + n] = child.grid.interior
            del self.nodes[child.key]
        node.refined = False
        node.grid = self._make_grid(level, ipos)
        node.grid.interior[...] = restrict(merged)
        return node

    def _enforce_balance(self, node: OctreeNode) -> None:
        """2:1 balance: neighbours of a refined node may be at most one
        level coarser."""
        level, ipos = node.level, node.ipos
        for off in np.ndindex(3, 3, 3):
            d = np.array(off) - 1
            if not d.any():
                continue
            nb = tuple(np.array(ipos) + d)
            if any(c < 0 or c >= (1 << level) for c in nb):
                continue
            # walk up to find the containing leaf
            lvl, pos = level, nb
            while lvl > 0 and (lvl, tuple(pos)) not in self.nodes:
                pos = tuple(int(c) // 2 for c in pos)
                lvl -= 1
            neighbor = self.nodes.get((lvl, tuple(pos)))
            if neighbor is not None and not neighbor.refined \
                    and lvl < level - 0:
                if level - lvl >= 1:
                    self.refine(lvl, tuple(pos))

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

    # -- conservation diagnostics ----------------------------------------------------

    def total_mass(self) -> float:
        return sum(leaf.grid.total_mass() for leaf in self.leaves())

    def total_momentum(self) -> np.ndarray:
        return sum((leaf.grid.total_momentum() for leaf in self.leaves()),
                   np.zeros(3))

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
                (node.grid.interior[RHO].reshape(-1)
                 if not node.refined else np.zeros(len(c)))
                for c, _leaf, node in per_level[lvl]])
            leaf_sorted = leaf[order]
            rho_by_level[lvl] = rho_flat[order][leaf_sorted]
        return specs, rho_by_level
