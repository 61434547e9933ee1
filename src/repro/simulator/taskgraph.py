"""Workload profile of one Octo-Tiger timestep over a (structural) octree.

Turns a :class:`~repro.simulator.treemodel.ScenarioTree` into exactly what
the scaling model needs:

* a global space-filling-curve (Morton) order over all sub-grids — the
  paper's distribution scheme ("these octree nodes are distributed onto
  the compute nodes using a space filling curve", Sec. 4.2);
* same-level neighbour pairs (the 26-stencil) for halo-message counting,
  with unmatched neighbours falling back to the parent level (AMR
  boundaries);
* per-sub-grid work classification (interior -> multipole kernel,
  leaf -> monopole kernel).

Everything is vectorized NumPy; the level-17 tree (1.4M sub-grids, ~37M
candidate neighbour links) profiles in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util import morton_encode
from .treemodel import ScenarioTree

__all__ = ["WorkloadProfile", "profile_tree"]

_NEIGHBOR_OFFSETS = np.array(
    [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
     if (i, j, k) != (0, 0, 0)], dtype=np.int64)

#: halo bytes for one neighbour exchange, by |offset| (face/edge/corner):
#: 8x8x3 ghost cells x 15 fields x 8 B for faces, shrinking to edges/corners
_HALO_BYTES = {1: 8 * 8 * 3 * 15 * 8, 2: 8 * 3 * 3 * 15 * 8,
               3: 3 * 3 * 3 * 15 * 8}


@dataclass
class WorkloadProfile:
    """Per-step workload of a tree, in global SFC sub-grid order.

    Attributes
    ----------
    n_subgrids, n_interior, n_leaves:
        Tree composition (interior sub-grids launch the multipole kernel,
        leaves the monopole kernel).
    is_interior:
        Bool array over sub-grids in global SFC order.
    pair_a, pair_b:
        Same-level (or AMR parent-level) neighbour pairs as global SFC
        indices, each unordered pair listed once.
    pair_bytes:
        Halo payload per pair per exchange (bytes).
    """

    n_subgrids: int
    n_interior: int
    n_leaves: int
    is_interior: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_bytes: np.ndarray

    def partition(self, n_nodes: int) -> np.ndarray:
        """SFC block partition: owner rank of each sub-grid."""
        if n_nodes < 1:
            raise ValueError("need at least one node")
        idx = np.arange(self.n_subgrids, dtype=np.int64)
        return (idx * n_nodes) // self.n_subgrids

    def remote_traffic(self, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                         np.ndarray, np.ndarray]:
        """Message statistics for a partition.

        Returns ``(msgs_per_node, bytes_per_node, pair_ranks, pair_counts)``
        where the first two are per-rank totals counting both directions of
        every remote halo exchange, and the last two describe distinct
        communicating rank pairs (for topology hop lookups).
        """
        n_nodes = int(owner.max()) + 1 if len(owner) else 1
        oa = owner[self.pair_a]
        ob = owner[self.pair_b]
        remote = oa != ob
        oa, ob = oa[remote], ob[remote]
        nbytes = self.pair_bytes[remote]
        msgs = np.bincount(oa, minlength=n_nodes) + np.bincount(
            ob, minlength=n_nodes)
        byts = (np.bincount(oa, weights=nbytes, minlength=n_nodes)
                + np.bincount(ob, weights=nbytes, minlength=n_nodes))
        lo = np.minimum(oa, ob)
        hi = np.maximum(oa, ob)
        key = lo * np.int64(n_nodes) + hi
        uniq, counts = np.unique(key, return_counts=True)
        pair_ranks = np.stack([uniq // n_nodes, uniq % n_nodes], axis=1)
        return msgs, byts, pair_ranks, counts


def profile_tree(tree: ScenarioTree) -> WorkloadProfile:
    """Build the workload profile of a structural tree.

    The global order is the depth-first tree SFC Octo-Tiger distributes by:
    a sub-grid's key is its Morton code scaled to the deepest level, with
    parents ordered immediately before their first child.  This keeps
    parents, children and fine-level neighbours on nearby ranks.
    """
    max_level = len(tree.levels) - 1
    level_icoords: list[np.ndarray] = []
    level_sorted_keys: list[np.ndarray] = []
    level_global: list[np.ndarray] = []     # global index per sorted-slot
    interior_all: list[np.ndarray] = []
    scaled_all: list[np.ndarray] = []
    levels_all: list[np.ndarray] = []
    edge = tree.domain_edge
    for lvl, (centers, refined) in enumerate(zip(tree.levels, tree.refined)):
        width = edge / (2.0 ** lvl)
        icoord = np.floor((centers + edge / 2.0) / width).astype(np.int64)
        icoord = np.clip(icoord, 0, (1 << lvl) - 1 if lvl else 0)
        keys = morton_encode(icoord[:, 0], icoord[:, 1], icoord[:, 2])
        order = np.argsort(keys, kind="stable")
        level_icoords.append(icoord[order])
        level_sorted_keys.append(keys[order])
        interior_all.append(refined[order])
        scaled_all.append(keys[order] << np.uint64(3 * (max_level - lvl)))
        levels_all.append(np.full(len(centers), lvl, dtype=np.int64))

    scaled = np.concatenate(scaled_all) if scaled_all else np.empty(0, np.uint64)
    lvls = np.concatenate(levels_all) if levels_all else np.empty(0, np.int64)
    interior_sorted = (np.concatenate(interior_all) if interior_all
                       else np.empty(0, dtype=bool))
    # depth-first preorder: scaled key major, level minor (parent first)
    dfs = np.lexsort((lvls, scaled))
    n_total = len(dfs)
    global_of_slot = np.empty(n_total, dtype=np.int64)
    global_of_slot[dfs] = np.arange(n_total, dtype=np.int64)
    is_interior = np.empty(n_total, dtype=bool)
    is_interior[global_of_slot] = interior_sorted
    # per-level: map sorted-slot within level -> global DFS index
    base = 0
    for lvl in range(len(tree.levels)):
        n = len(tree.levels[lvl])
        level_global.append(global_of_slot[base:base + n])
        base += n

    pa_parts: list[np.ndarray] = []
    pb_parts: list[np.ndarray] = []
    bytes_parts: list[np.ndarray] = []
    for lvl in range(len(tree.levels)):
        icoord = level_icoords[lvl]                     # Morton-sorted
        n = len(icoord)
        if n == 0:
            continue
        max_c = (1 << lvl) - 1
        my_global = level_global[lvl]
        for off in _NEIGHBOR_OFFSETS:
            nb = icoord + off
            valid = ((nb >= 0) & (nb <= max_c)).all(axis=1)
            if not valid.any():
                continue
            nb_v = nb[valid]
            src = my_global[valid]
            keys = morton_encode(nb_v[:, 0], nb_v[:, 1], nb_v[:, 2])
            pos = np.searchsorted(level_sorted_keys[lvl], keys)
            pos = np.clip(pos, 0, n - 1)
            found = level_sorted_keys[lvl][pos] == keys
            # same-level matches: count unordered pairs once (src < dst)
            dst = level_global[lvl][pos[found]]
            s = src[found]
            keep = s < dst
            halo = _HALO_BYTES[int(np.abs(off).sum())]
            if keep.any():
                pa_parts.append(s[keep])
                pb_parts.append(dst[keep])
                bytes_parts.append(np.full(keep.sum(), halo, dtype=np.int64))
            # AMR boundary: unmatched neighbours exchange with the parent
            # level; count each such link once (from the finer side)
            if lvl > 0 and (~found).any():
                nb_p = nb_v[~found] >> 1
                src_p = src[~found]
                pkeys = morton_encode(nb_p[:, 0], nb_p[:, 1], nb_p[:, 2])
                ppos = np.searchsorted(level_sorted_keys[lvl - 1], pkeys)
                ppos = np.clip(ppos, 0, len(level_sorted_keys[lvl - 1]) - 1)
                pfound = level_sorted_keys[lvl - 1][ppos] == pkeys
                if pfound.any():
                    pa_parts.append(src_p[pfound])
                    pb_parts.append(level_global[lvl - 1][ppos[pfound]])
                    bytes_parts.append(
                        np.full(int(pfound.sum()), halo, dtype=np.int64))

    if pa_parts:
        pair_a = np.concatenate(pa_parts)
        pair_b = np.concatenate(pb_parts)
        pair_bytes = np.concatenate(bytes_parts)
        # normalize: unordered pairs stored with pair_a < pair_b
        lo = np.minimum(pair_a, pair_b)
        hi = np.maximum(pair_a, pair_b)
        pair_a, pair_b = lo, hi
    else:
        pair_a = np.empty(0, dtype=np.int64)
        pair_b = np.empty(0, dtype=np.int64)
        pair_bytes = np.empty(0, dtype=np.int64)

    n_interior = int(is_interior.sum())
    return WorkloadProfile(
        n_subgrids=n_total, n_interior=n_interior,
        n_leaves=n_total - n_interior, is_interior=is_interior,
        pair_a=pair_a, pair_b=pair_b, pair_bytes=pair_bytes)
