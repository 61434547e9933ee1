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

import itertools
from functools import lru_cache

import numpy as np

__all__ = ["OPENING_R2", "well_separated", "p2p_stencil",
           "leaf_sweep_offsets", "m2l_sweep_offsets", "m2l_sweep_tiles",
           "m2l_root_tiles", "ROOT_CUBE", "lex_positive"]

#: squared opening radius: pairs with ||w||^2 > 16 (distance > 4 cells) are
#: far enough for a quadrupole expansion at theta ~ 0.5
OPENING_R2 = 16


def well_separated(w: np.ndarray) -> np.ndarray:
    """Vectorized opening criterion on integer offset rows (n, 3)."""
    w = np.asarray(w)
    return (w * w).sum(axis=-1) > OPENING_R2


@lru_cache(maxsize=1)
def p2p_stencil() -> np.ndarray:
    """Leaf-level direct-summation offsets: near, non-zero offsets."""
    r = 4  # ||w||^2 <= 16 implies |w_i| <= 4
    pts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)),
                   dtype=np.int64)
    pts = pts[(pts != 0).any(axis=1)]
    return pts[~well_separated(pts)]


def leaf_sweep_offsets(edge: int, root: bool = False) -> np.ndarray:
    """Parent offsets of the dense leaf-level sweep on an ``edge``^3
    parent grid, in lexicographic order (``W = 0`` included: siblings).

    Two leaf cells interact at leaf level exactly when their parents are
    *not* well separated (the parity partition plus :func:`p2p_stencil`,
    seen from the parents): ``||W||^2 <=
    OPENING_R2``, 257 offsets.  On the ``root`` level nothing coarser
    exists, so every pair is handled here and every offset that fits the
    grid is swept.
    """
    r = edge - 1 if root else min(edge - 1, int(OPENING_R2 ** 0.5))
    pts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)),
                   dtype=np.int64)
    return pts if root else pts[~well_separated(pts)]


def lex_positive(offsets: np.ndarray) -> np.ndarray:
    """Keep one representative of every ``{w, -w}`` pair (``w``
    lexicographically greater than zero)."""
    w = offsets
    key = (w[:, 0] > 0) | ((w[:, 0] == 0) & (w[:, 1] > 0)) \
        | ((w[:, 0] == 0) & (w[:, 1] == 0) & (w[:, 2] > 0))
    return w[key]


def m2l_sweep_offsets(edge: int) -> np.ndarray:
    """Parent offsets of the dense interior-level M2L sweep on an
    ``edge``^3 parent grid: the lex-positive half of the near parent
    offsets (128 of :func:`leaf_sweep_offsets`' 257 once the grid is
    wide enough).

    Two cells meet in the same-level M2L pass exactly when they are well
    separated and their parents are not (the parity partition, seen
    from the parents); siblings (``W = 0``) are never well separated,
    and ``W`` / ``-W`` visit the same parent pairs, so one of each is
    swept and both partners are updated from it.
    """
    return lex_positive(leaf_sweep_offsets(edge))


def m2l_sweep_tiles(edge: int, offsets: np.ndarray, child: np.ndarray,
                    blocks: int, present: np.ndarray
                    ) -> tuple[list[tuple], int]:
    """Stage parent ``offsets`` of the interior-level M2L sweep on an
    ``edge``^3 parent grid: ``(tiles, pairs)``.

    A tile is ``(target slices, partner slices, mask)``: a slab of at
    most ~``blocks`` parents ``I`` with ``I + W`` inside the grid, the
    same slab shifted by ``W``, and the offset's static ``(8, 8)`` mask —
    ``0`` where target child ``i`` and partner child ``j`` (cell
    separation ``child[i] - 2 W - child[j]``) are well separated, i.e.
    the pair belongs to this level, ``+inf`` where it descends.  The
    mask is *added to r^2*, which zeroes every Green component of a
    masked entry exactly.  ``pairs`` counts the unmasked pairs of cells
    that are ``present`` (an ``(edge, edge, edge, 8)`` bool grid), each
    once.  Offsets none of whose child pairs are far are dropped.
    """
    tiles, pairs = [], 0
    for w in np.asarray(offsets).tolist():
        sep = child[:, None, :] - 2 * np.asarray(w) - child[None, :, :]
        far = well_separated(sep)
        if not far.any():
            continue
        mask = np.where(far, 0.0, np.inf)
        ext = [edge - abs(x) for x in w]
        rest_t = tuple(slice(max(0, -x), edge - max(0, x)) for x in w[1:])
        rest_s = tuple(slice(max(0, x), edge + min(0, x)) for x in w[1:])
        t0, s0 = max(0, -w[0]), max(0, w[0])
        step = max(1, blocks // (ext[1] * ext[2]))
        for lo in range(0, ext[0], step):
            hi = min(lo + step, ext[0])
            tiles.append(((slice(t0 + lo, t0 + hi),) + rest_t,
                          (slice(s0 + lo, s0 + hi),) + rest_s, mask))
            pairs += int(((present[tiles[-1][0]] @ far.astype(np.int64))
                          * present[tiles[-1][1]]).sum())
    return tiles, pairs


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
    """
    n, edge = len(coords), ROOT_CUBE - 1
    cube = coords // ROOT_CUBE
    cubes = np.split(np.arange(n), np.flatnonzero(
        (cube[1:] != cube[:-1]).any(axis=1)) + 1)
    local = coords % ROOT_CUBE
    tiles = []
    for cells in cubes:
        lo, hi = cells[0], cells[-1] + 1
        tiles.append(((slice(lo, hi),), (slice(hi, n),), well_separated(
            coords[lo:hi, None, :] - coords[None, hi:, :])))
    for axis in range(3):
        faces: dict[tuple, list] = {}
        for cells in cubes:
            low = cells[local[cells, axis] == 0]
            high = cells[local[cells, axis] == edge]
            d = coords[low, None, :] - coords[None, high, :]
            far = well_separated(d) \
                & ~(np.abs(d[..., :axis]) == edge).any(axis=-1)
            if far.any():
                faces.setdefault(far.shape, []).append((low, high, far))
        for batch in faces.values():
            low, high, far = map(np.stack, zip(*batch))
            tiles.append(((low,), (high,), far))
    tiles = [(tgt, src, far) for tgt, src, far in tiles if far.any()]
    return ([(tgt, src, np.where(far, 0.0, np.inf))
             for tgt, src, far in tiles],
            sum(int(far.sum()) for _, _, far in tiles))
