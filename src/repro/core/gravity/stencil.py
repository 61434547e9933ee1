"""FMM interaction stencils (Sec. 4.3).

Two related objects live here:

* :func:`canonical_stencil` — the fixed 1074-element same-level stencil
  the paper counts flops with: ``{w : ||w||_inf <= 5 and ||w||_2^2 > 16}``
  (verified by brute force to contain exactly 1074 offsets, matching
  "each cell interacts with 1074 of its close neighbors").

* the **exact partition** used by our solver: with the opening criterion
  ``well_separated(w) <=> ||w||_2^2 > OPENING_R2``, a cell pair is handled
  by the multipole (M2L) pass at the *coarsest* level at which it is well
  separated, and by direct summation (P2P) at leaf level otherwise.  The
  resulting same-level list depends on the cell's parity within its parent
  (:func:`parity_stencils`); the union over parities is close to, but not
  identical to, the canonical stencil — the canonical one is what the GPU
  kernels iterate, the parity lists are what makes the mathematical
  partition exact (every pair handled exactly once, the property the
  FMM-vs-direct tests rely on).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

__all__ = ["OPENING_R2", "well_separated", "canonical_stencil",
           "parity_stencils", "root_stencil", "p2p_stencil",
           "leaf_sweep_offsets", "STENCIL_HALF_WIDTH"]

#: squared opening radius: pairs with ||w||^2 > 16 (distance > 4 cells) are
#: far enough for a quadrupole expansion at theta ~ 0.5
OPENING_R2 = 16
#: the canonical stencil spans offsets -5..5 (an 11^3 box)
STENCIL_HALF_WIDTH = 5


def well_separated(w: np.ndarray) -> np.ndarray:
    """Vectorized opening criterion on integer offset rows (n, 3)."""
    w = np.asarray(w)
    return (w * w).sum(axis=-1) > OPENING_R2


@lru_cache(maxsize=1)
def canonical_stencil() -> np.ndarray:
    """The paper's 1074-element same-level stencil, shape (1074, 3)."""
    r = STENCIL_HALF_WIDTH
    pts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)),
                   dtype=np.int64)
    d2 = (pts * pts).sum(axis=1)
    out = pts[d2 > OPENING_R2]
    assert len(out) == 1074, f"canonical stencil has {len(out)} != 1074"
    return out


def _floor_div2(w: np.ndarray) -> np.ndarray:
    """Floor division by 2 (matches parent-coordinate arithmetic)."""
    return np.floor_divide(w, 2)


@lru_cache(maxsize=8)
def parity_stencils(max_w: int = 9) -> dict[tuple[int, int, int], np.ndarray]:
    """Same-level M2L offset lists keyed by the cell's parity in its parent.

    For a cell ``a`` with parity ``p = a & 1``, the list contains offsets
    ``w`` such that ``a`` and ``a + w`` are well separated at this level
    while their parents were *not* well separated — i.e. the pair is
    handled here and nowhere else.
    """
    rng = range(-max_w, max_w + 1)
    pts = np.array(list(itertools.product(rng, repeat=3)), dtype=np.int64)
    pts = pts[(pts != 0).any(axis=1)]
    far = well_separated(pts)
    out: dict[tuple[int, int, int], np.ndarray] = {}
    for p in itertools.product((0, 1), repeat=3):
        parent_off = _floor_div2(pts + np.asarray(p))
        parent_near = ~well_separated(parent_off)
        sel = pts[far & parent_near]
        out[p] = sel
    return out


@lru_cache(maxsize=1)
def root_stencil(n: int = 8) -> np.ndarray:
    """Coarsest-level M2L offsets: every well-separated pair in an n^3 box.

    The root sub-grid's cells have no parent pass, so all well-separated
    pairs are handled here (near pairs descend / go to P2P).
    """
    rng = range(-(n - 1), n)
    pts = np.array(list(itertools.product(rng, repeat=3)), dtype=np.int64)
    pts = pts[(pts != 0).any(axis=1)]
    return pts[well_separated(pts)]


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
    *not* well separated (:func:`parity_stencils` plus
    :func:`p2p_stencil`, seen from the parents): ``||W||^2 <=
    OPENING_R2``, 257 offsets.  On the ``root`` level nothing coarser
    exists, so every pair is handled here and every offset that fits the
    grid is swept.
    """
    r = edge - 1 if root else min(edge - 1, int(OPENING_R2 ** 0.5))
    pts = np.array(list(itertools.product(range(-r, r + 1), repeat=3)),
                   dtype=np.int64)
    return pts if root else pts[~well_separated(pts)]
