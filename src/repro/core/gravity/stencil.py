"""FMM interaction stencils (Sec. 4.3).

The paper counts flops with a fixed 1074-element same-level stencil,
``{w : ||w||_inf <= 5 and ||w||_2^2 > 16}`` ("each cell interacts with
1074 of its close neighbors"; ``repro.simulator.flops.STENCIL_SIZE``).
What lives here is the **exact partition** our solver uses instead: with
the opening criterion ``well_separated(w) <=> ||w||_2^2 > OPENING_R2``, a
cell pair is handled by the multipole (M2L) pass at the *coarsest* level
at which it is well separated — the level where the cells are well
separated and their parents are not, or the root — and by direct
summation (P2P) at leaf level otherwise.  Seen from the parents, the
same-level list depends on the cell's parity within its parent; the
union over parities is close to, but not identical to, the canonical
stencil — the canonical one is what the GPU kernels iterate, the parity
partition is what makes the mathematical partition exact (every pair
handled exactly once, the property the FMM-vs-direct tests rely on).

Every step-2 form of :mod:`.fmm` takes its geometry from here, the
partition restated as shifted slices of a parent grid plus static masks:
:func:`leaf_sweep_offsets` (parent offsets of the leaf-level near field),
:func:`m2l_sweep_tiles` / :func:`m2l_root_tiles` (the dense M2L, inside
the root's Morton cubes with face index arrays) and :func:`p2p_stencil`
(the near cells a leaf meets refined neighbours at).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["OPENING_R2", "well_separated", "p2p_stencil",
           "leaf_sweep_offsets", "m2l_sweep_offsets", "m2l_sweep_tiles",
           "m2l_root_tiles", "ROOT_CUBE", "lex_positive", "pair_counts"]

#: squared opening radius: pairs with ||w||^2 > 16 (distance > 4 cells) are
#: far enough for a quadrupole expansion at theta ~ 0.5
OPENING_R2 = 16


def well_separated(w: np.ndarray) -> np.ndarray:
    """Vectorized opening criterion on integer offset rows (n, 3)."""
    w = np.asarray(w)
    return (w * w).sum(axis=-1) > OPENING_R2


def _cube(r: int) -> np.ndarray:
    """Every integer offset in ``[-r, r]^3``, ``(n, 3)`` in lexicographic
    order."""
    axis = np.arange(-r, r + 1, dtype=np.int64)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)


@lru_cache(maxsize=1)
def p2p_stencil() -> np.ndarray:
    """Leaf-level direct-summation offsets: near, non-zero offsets."""
    pts = _cube(4)  # ||w||^2 <= 16 implies |w_i| <= 4
    pts = pts[(pts != 0).any(axis=1)]
    return pts[~well_separated(pts)]


def leaf_sweep_offsets(root_edge: int | None = None) -> np.ndarray:
    """Parent offsets of the dense leaf-level sweep, in lexicographic
    order (``W = 0`` included: siblings).

    Two leaf cells interact at leaf level exactly when their parents are
    *not* well separated (the parity partition plus :func:`p2p_stencil`,
    seen from the parents): ``||W||^2 <= OPENING_R2``, 257 offsets,
    whatever grid the level is staged on.  A root level has nothing
    coarser, so every pair is handled there: on a root parent grid of
    edge ``root_edge`` every offset that fits the grid is swept.
    """
    if root_edge is not None:
        return _cube(root_edge - 1)
    pts = _cube(int(OPENING_R2 ** 0.5))
    return pts[~well_separated(pts)]


def lex_positive(w: np.ndarray) -> np.ndarray:
    """Which rows of the offsets ``w`` (n, 3) are lexicographically
    greater than zero: one representative of every ``{w, -w}`` pair."""
    return (w[:, 0] > 0) | ((w[:, 0] == 0) & (w[:, 1] > 0)) \
        | ((w[:, 0] == 0) & (w[:, 1] == 0) & (w[:, 2] > 0))


#: ``float64`` entries of one :func:`pair_counts` chunk of windows (1 MB)
_COUNT_CHUNK = 1 << 17


def pair_counts(cells: np.ndarray, offsets: np.ndarray, masks: np.ndarray
                ) -> np.ndarray:
    """Cell pairs a mask selects, per parent offset: ``sum_I cells[I] @
    masks[k] @ cells[I + w_k]`` over the parents ``I`` with ``I`` and
    ``I + w_k`` inside the ``(P, P, P, 8)`` bool grid ``cells``, for
    every row ``w_k`` of ``offsets`` — ``masks[k][i, j]`` selects child
    ``i`` of ``I`` against child ``j`` of ``I + w_k``.

    One array pass for all offsets: the grid is zero-padded by the widest
    offset, the windows ``cells[I + w_k]`` are gathered from a sliding
    view of it, and one matmul per chunk of :data:`_COUNT_CHUNK` entries
    counts every child pair ``(j, i)`` of every offset in it.  The counts
    are sums of ``0.0`` / ``1.0`` (exact in ``float64``)."""
    P = len(cells)
    w = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    counts = np.zeros(len(w), dtype=np.int64)
    if not len(w):
        return counts
    r = np.abs(w).max(axis=0)
    windows = sliding_window_view(
        np.pad(cells, [(x, x) for x in r.tolist()] + [(0, 0)]), (P, P, P),
        axis=(0, 1, 2))                       # (*2r + 1, 8, P, P, P)
    at = tuple((w + r).T)
    own = cells.reshape(-1, 8).astype(np.float64)
    step = max(1, _COUNT_CHUNK // (8 * P ** 3))
    for lo in range(0, len(w), step):
        k = slice(lo, lo + step)
        src = windows[at[0][k], at[1][k], at[2][k]].reshape(-1, 8, P ** 3)
        # seen[k, j, i]: parents with child j of I + w_k and child i of I
        seen = src.astype(np.float64) @ own
        counts[k] = (seen * masks[k].swapaxes(1, 2)).sum(axis=(1, 2))
    return counts


def m2l_sweep_offsets() -> np.ndarray:
    """Parent offsets of the dense interior-level M2L sweep: the
    lex-positive half of the near parent offsets, 128 of
    :func:`leaf_sweep_offsets`' 257.

    Two cells meet in the same-level M2L pass exactly when they are well
    separated and their parents are not (the parity partition, seen
    from the parents); siblings (``W = 0``) are never well separated,
    and ``W`` / ``-W`` visit the same parent pairs, so one of each is
    swept and both partners are updated from it.
    """
    offsets = leaf_sweep_offsets()
    return offsets[lex_positive(offsets)]


def m2l_sweep_tiles(offsets: np.ndarray, child: np.ndarray,
                    present: np.ndarray, x0: int, full: int, blocks: int
                    ) -> tuple[list[tuple], int]:
    """Stage parent ``offsets`` of the interior-level M2L sweep on a
    parent grid: ``(tiles, pairs)``.

    ``present`` is the ``(P, P, P, 8)`` bool grid of the cells the level
    has, its first x layer is absolute parent x ``x0``, and ``full`` is
    the edge of the level's full parent grid.  A tile is ``(target
    slices, partner slices, mask)``: a slab of parents ``I`` with ``I +
    W`` inside the grid, the same slab shifted by ``W``, and the offset's
    static ``(8, 8)`` mask — ``0`` where target child ``i`` and partner
    child ``j`` (cell separation ``child[i] - 2 W - child[j]``) are well
    separated, i.e. the pair belongs to this level, ``+inf`` where it
    descends.  The mask is *added to r^2*, which zeroes every Green
    component of a masked entry exactly.  ``pairs`` counts the unmasked
    pairs of ``present`` cells, each once (:func:`pair_counts`).
    Offsets none of whose child pairs are far are dropped.

    The slabs are the full grid's, restricted to this grid: the full
    grid cuts the targets of ``W`` into x slabs of ``max(1, blocks //
    ((full - |W_y|) (full - |W_z|)))`` parent layers (about ``blocks``
    parents each) from its first target layer ``max(0, -W_x)`` on, at
    absolute positions.  A cell's target and partner terms of one offset
    are added in slab order, so they come in the same order on every
    grid that holds the cell.

    Built as arrays: the masks of all offsets in one broadcast, the
    slab bounds of every tile as integer rows, the pair counts in one
    :func:`pair_counts` pass; only the slices themselves are made one
    tile at a time.  A tile's mask is a view of its offset's row of the
    one mask array.
    """
    w = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    far = well_separated(child[None, :, None, :] - 2 * w[:, None, None, :]
                         - child[None, None, :, :])
    keep = far.any(axis=(1, 2))
    w, far = w[keep], far[keep]
    masks = np.where(far, 0.0, np.inf)
    ext = len(present) - np.abs(w)
    step = np.maximum(1, blocks // np.prod(full - np.abs(w[:, 1:]), axis=1))
    # one row per tile: its offset ``of`` and ``cut``, the first layer
    # of its full-grid slab counted from the offset's first target layer
    # here (the full grid's slabs start at multiples of ``step`` from its
    # own first target layer, which is ``-x0`` here); a tile's partners
    # are its targets shifted by W
    first = x0 // step
    count = (x0 + ext[:, 0] - 1) // step - first + 1
    of = np.repeat(np.arange(len(w)), count)
    cut = (np.arange(len(of)) - (np.cumsum(count) - count)[of]
           + first[of]) * step[of] - x0
    tgt = np.maximum(0, -w[of])
    end = tgt + ext[of]
    end[:, 0] = tgt[:, 0] + np.minimum(ext[of, 0], cut + step[of])
    tgt[:, 0] += np.maximum(0, cut)
    tiles = [(tuple(map(slice, t, t_end)), tuple(map(slice, s, s_end)),
              masks[k])
             for t, t_end, s, s_end, k in zip(
                 tgt.tolist(), end.tolist(), (tgt + w[of]).tolist(),
                 (end + w[of]).tolist(), of.tolist())]
    return tiles, int(pair_counts(present, w, far).sum())


#: edge of the Morton cubes the root level is tiled by: the largest edge
#: ``e`` on which two cells less than ``e - 1`` apart on every axis are
#: never well separated (``3 (e - 2)^2 <= OPENING_R2``), so every far
#: pair inside a cube sits on two opposite faces of it
ROOT_CUBE = 4


def m2l_root_tiles(coords: np.ndarray) -> tuple[list[tuple], int]:
    """Tiles of the root level's whole-level M2L: ``(tiles, pairs)`` as
    :func:`m2l_sweep_tiles` returns them, for Morton-sorted ``coords``.

    Nothing coarser exists on the root level, so every well-separated
    pair is handled there.  The cells of one
    aligned :data:`ROOT_CUBE`^3 cube are contiguous in Morton order, and
    the level is cut along those cubes, each pair landing in one tile:

    * a pair of two cubes: the rows ``[lo:hi]`` of a cube against every
      cell after it, ``[hi:n]`` — one tile per cube;
    * a pair inside a cube: it is far only if the two cells sit on
      opposite faces (``|d| = ROOT_CUBE - 1`` on some axis; see
      :data:`ROOT_CUBE`), so per axis the cells on the low face of each
      cube are tiled against those on its high face.  Cubes whose faces
      hold equally many cells are batched into one tile; its index is an
      integer array ``(cubes, face cells)``.  A pair on opposite faces of
      two axes belongs to the first.

    A mask is ``0`` where the pair is well separated (and, inside a cube,
    belongs to the tile's axis), else ``+inf``; masked diagonal blocks are
    not tiled at all.  Tiles without a far pair are dropped.

    Built as arrays: a cube tile's mask is one matmul of the cube's
    coordinates against those after it, and the face cells of every cube
    of one face shape are found and masked in one pass per axis; the
    tiles come in the order above (cube tiles in Morton order, then per
    axis the face batches in the order of their first cube).
    """
    n, edge = len(coords), ROOT_CUBE - 1
    cube = coords // ROOT_CUBE
    start = np.flatnonzero(np.r_[True, (cube[1:] != cube[:-1]).any(axis=1)])
    stop = np.r_[start[1:], n]
    cube_of = np.repeat(np.arange(len(start)), stop - start)
    # a cube's rows against every cell after it: r^2 = |a|^2 + |b|^2 -
    # 2 a.b by one matmul per cube, integer-valued doubles, so exact
    x = coords.astype(np.float64)
    sq = np.einsum("nc,nc->n", x, x)
    tiles = [((slice(lo, hi),), (slice(hi, n),),
              (-2.0 * x[lo:hi]) @ x[hi:].T + sq[lo:hi, None] + sq[hi:]
              > OPENING_R2)
             for lo, hi in zip(start.tolist(), stop.tolist())]
    local = coords % ROOT_CUBE
    for axis in range(3):
        low, high = local[:, axis] == 0, local[:, axis] == edge
        shape = np.stack([np.bincount(cube_of[low], minlength=len(start)),
                          np.bincount(cube_of[high], minlength=len(start))],
                         axis=1)
        # the cubes of one face shape as one batch, batches in the order
        # of their first cube that has a far pair
        batches = []
        for nl, nh in np.unique(shape[shape.all(axis=1)], axis=0).tolist():
            mine = (shape == (nl, nh)).all(axis=1)
            lows = np.flatnonzero(low & mine[cube_of]).reshape(-1, nl)
            highs = np.flatnonzero(high & mine[cube_of]).reshape(-1, nh)
            d = coords[lows][:, :, None, :] - coords[highs][:, None, :, :]
            f = well_separated(d) \
                & ~(np.abs(d[..., :axis]) == edge).any(axis=-1)
            keep = f.any(axis=(1, 2))
            if keep.any():
                batches.append((cube_of[lows[keep, 0]][0], lows[keep],
                                highs[keep], f[keep]))
        batches.sort(key=lambda batch: batch[0])
        tiles += [((lows,), (highs,), f) for _, lows, highs, f in batches]
    tiles = [(tgt, src, f) for tgt, src, f in tiles if f.any()]
    return ([(tgt, src, np.where(f, 0.0, np.inf)) for tgt, src, f in tiles],
            sum(int(f.sum()) for _, _, f in tiles))
