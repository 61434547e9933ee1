"""The three-step cell-based FMM gravity solver (Sec. 4.3).

Steps, exactly as the paper lays them out:

1. **Upward** (bottom-up tree traversal): leaf cells take their mass from
   the hydro density; every refined cell aggregates the multipole moments
   and centre of mass of its eight child cells (M2M).

2. **Same-level interactions**: each cell interacts with the neighbours
   selected by the opening criterion.  Our partition is parity-exact
   (see :mod:`.stencil`): a pair is processed by the multipole kernel at
   the coarsest level at which it is well separated; leaf-level near
   pairs go through the 12-flop monopole P2P kernel; a leaf near a
   refined cell meets that cell's children (the paper's
   monopole-multipole / multipole-monopole AMR-boundary kernels).

3. **Downward** (top-down): Taylor expansions (potential, acceleration,
   Hessian) shift from parents to children (L2L) and accumulate.

Conservation comes from construction: every pair force is applied
antisymmetrically, and the Hessian term of the downward pass realizes
the quadrupole (tidal) torques on child cells, so total linear and
angular momentum of the resulting field are conserved to machine
precision (see ``tests/core/test_fmm.py``).

Step 2 is one rule on every level of every tree.  The level is staged
into the parent grid of its bounding cube — a ``(P, P, P, 8)`` grid of
parents, absent cells at their geometric centres with zero moments, so
a full even cube stages exactly as itself — and runs up to three plan
entries, each over one fixed stencil of the grid:

* **Leaf sweep** (if the level has leaf cells).  Two leaves interact at
  leaf level when their parents are not well separated, and for each
  such parent offset the 8 x 8 child separations are constants of the
  grid.  So the near field is one ``(8, 32)`` Green table per offset
  (:func:`.kernels.green_tables`, built once) and, per solve, one BLAS
  ``C += A @ B`` per offset (:func:`.kernels.p2p_pair_staged`): the leaf
  masses are staged on the parent grid padded with massless parents in
  y and z by the widest offset, so every offset adds a fixed window of
  them into one contiguous x-slab of the output.  No index arrays, no
  gathers, no scatter-adds — the paper's stencil-over-SoA redesign of
  Sec. 4.3.  Outputs are kept at leaf targets.  On a level that also
  has refined cells the table zeroes the well-separated child pairs,
  which the M2L below takes.
* **Dense M2L** (if the level has refined cells): every well-separated
  pair whose parents are not, with every present cell's moments, through
  one kernel (:func:`.kernels.m2l_dense`).  Expansions are centred on
  centres of mass, so the Green tensors depend on the density and are
  evaluated every solve; what the dense form removes is everything
  around them.  Separations are broadcast differences of two slices of
  the staged level, a static ``0 / +inf`` mask on ``r^2`` selects the
  pairs that belong to the level, each Green component is contracted
  against the packed moments of all partners by one matmul per side
  (both partners from one evaluation) as soon as it is made, and the
  Taylor coefficients are assembled per cell.  The **root** is tiled
  along its 4^3 Morton cubes — each cube's rows against every cell after
  it, and the far pairs inside the cubes as face-against-face tiles
  batched over the cubes (1.27 evaluations per far pair on an 8^3 root)
  — in one plan entry; a level below it is swept one shifted-slice pair
  per lex-positive near parent offset over the same parent grid the leaf
  sweep uses, the parity partition being the static 8 x 8 mask.
* **Coarse-fine boundary** (if the level has both): one ``p2p_pair``
  batch of every leaf against the children of its near refined
  neighbours — the paper's monopole-multipole AMR-boundary kernels.  2:1
  balance makes those children leaves, which :meth:`FmmSolver.from_levels`
  checks.

All three are entries of one plan with one shape (``kind``, ``pairs``,
``compute(outs)``, ``accumulate(outs)``) that every solve walks the same
way, inline or through an execution engine.  Below the root a cell's
sums come in the same order whatever grid its level is staged on (the
offset groups of one fixed table, :func:`_offset_groups`, and the M2L
slabs of the level's full grid, :func:`.stencil.m2l_sweep_tiles`), so a
complete sub-tree, the rest massless, gets the full tree's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ...runtime.counters import default_registry
from ...sanitize import racecheck as _racecheck
from ...sanitize import state as _sanitize_state
from ...util import morton_key
from ..grid import SUBGRID_N
from ..workspace import Workspace
from .kernels import (N_GREEN, N_MOMENT, TINY_MASS, green_sweeps,
                      m2l_assemble, m2l_dense, p2p_pair, p2p_pair_staged,
                      pack_moments, sweep_pad)
# not called here: re-exported because the perf ledger's spans.TARGETS
# rebinds ``fmm.m2l_pair`` (and ``fmm.p2p_pair``) by name
from .kernels import m2l_pair  # noqa: F401
from .multipole import aggregate_m2m, taylor_shift
from .stencil import (leaf_sweep_offsets, m2l_root_tiles, m2l_sweep_offsets,
                      m2l_sweep_tiles, p2p_stencil)

__all__ = ["FmmLevel", "FmmSolver", "GravityResult"]

#: number of plan entries the parent offsets of a leaf sweep or of a
#: below-root M2L sweep are cut into — a constant, so every solve
#: (inline, futurized, distributed) runs the same matmuls in the same
#: groups and adds the same partials in the same order.  Eight keeps an
#: aggregated launch well filled.  The root's M2L is one entry: an
#: entry zeroes, fills and assembles a whole-level partial, and on the
#: 8^3 root (2-core host) eight entries took 7.9-8.9 ms, eight that
#: share one assemble 7.5-7.8 ms and one entry 6.8-6.9 ms
_DENSE_GROUPS = 8


def _offset_groups(offsets: np.ndarray, P: int) -> list[np.ndarray]:
    """The plan groups of a sweep over ``offsets`` on a ``P``^3 parent
    grid: ``offsets`` cut into :data:`_DENSE_GROUPS` lexicographic runs,
    each keeping the offsets the grid holds (``|W_i| < P``).  Below the
    root ``offsets`` is the fixed near set, so an offset lands in the
    same group on every grid, and where a grid does not hold it, it adds
    an exact ``+0.0`` on a larger one."""
    return [part[(np.abs(part) < P).all(axis=1)]
            for part in np.array_split(offsets, _DENSE_GROUPS)]


#: parents per tile of the interior-level M2L sweep: keeps a tile's
#: Green block (8 KB per parent pair) and scratch cache-sized (measured
#: flat from 128 to 1024 on a P = 8 level, slower below)
_SWEEP_BLOCKS = 256

#: the eight children of a parent in Morton order
_CHILD = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)])

_MONOPOLE = "/fmm/interactions/monopole"
_MULTIPOLE = "/fmm/interactions/multipole"


@dataclass
class FmmLevel:
    """All FMM cells of one octree level, Morton-sorted SoA."""

    level: int
    width: float                      # cell width
    coords: np.ndarray                # (n, 3) int64, Morton-sorted
    leaf: np.ndarray                  # (n,) bool
    keys: np.ndarray = field(init=False)
    # multipole data
    m: np.ndarray = field(init=False)
    com: np.ndarray = field(init=False)
    M2: np.ndarray = field(init=False)
    # Taylor accumulators
    phi: np.ndarray = field(init=False)
    acc: np.ndarray = field(init=False)
    hess: np.ndarray = field(init=False)
    parent_slot: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.coords)
        self.keys = morton_key(self.coords)
        if not np.all(np.diff(self.keys.astype(np.int64)) > 0):
            raise ValueError("level cells must be Morton-sorted and unique")
        self.m = np.zeros(n)
        self.com = np.zeros((n, 3))
        self.M2 = np.zeros((n, 3, 3))
        self.phi = np.zeros(n)
        self.acc = np.zeros((n, 3))
        self.hess = np.zeros((n, 3, 3))

    @property
    def n(self) -> int:
        return len(self.coords)

    def centers(self) -> np.ndarray:
        """Geometric cell centres (domain corner at the origin)."""
        return (self.coords + 0.5) * self.width

    def find(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Locate cells by integer coordinates: (slots, found mask)."""
        keys = morton_key(coords)
        pos = np.searchsorted(self.keys, keys)
        pos = np.minimum(pos, self.n - 1)
        found = self.keys[pos] == keys
        return pos, found


@dataclass(frozen=True)
class GravityResult:
    """Leaf-cell gravitational field, grouped per level."""

    phi: dict[int, np.ndarray]        # level -> (n_leaf_cells,)
    acc: dict[int, np.ndarray]        # level -> (n_leaf_cells, 3)
    leaf_slots: dict[int, np.ndarray]  # level -> slots into the level SoA


def _parent_grid(lv: FmmLevel) -> tuple[int, np.ndarray, np.ndarray]:
    """The level staged into the parent grid of its bounding cube:
    ``(P, flat, cells)`` — the grid edge, each slot's position in the
    flattened ``(P, P, P, 8)`` grid (parent, then child in Morton order)
    and the integer coordinates of every grid cell, ``(P, P, P, 8, 3)``.

    On a full cube with an even edge ``flat`` is a permutation: Morton
    order keeps siblings contiguous, so only the parents move."""
    parents = lv.coords >> 1
    corner = parents.min(axis=0)
    P = int((parents.max(axis=0) - corner).max()) + 1
    grid = np.stack(np.meshgrid(*[np.arange(P)] * 3, indexing="ij"), -1)
    cells = 2 * (corner + grid)[..., None, :] + _CHILD
    flat = 8 * np.ravel_multi_index(tuple((parents - corner).T), (P,) * 3) \
        + (lv.coords & 1) @ np.array([4, 2, 1])
    return P, flat, cells


def _accumulate(lv: FmmLevel, idx: np.ndarray, phi: np.ndarray,
                acc: np.ndarray) -> None:
    """Scatter-add pair contributions (bincount: much faster than add.at)."""
    lv.phi += np.bincount(idx, weights=phi, minlength=lv.n)
    for d in range(3):
        lv.acc[:, d] += np.bincount(idx, weights=acc[:, d], minlength=lv.n)


#: pair-tile size of the boundary batch: running the kernel over
#: cache-sized sub-batches keeps its temporaries resident.  The pair
#: kernel is elementwise along the pair axis, so tiling is bitwise
#: identical to the one-shot call.
_TILE = 16384


# -- plan entries --------------------------------------------------------------
#
# Every entry of a solver's plan answers to the same names: ``kind`` (which
# also keys the output pool), ``pairs`` (interactions it covers, each
# counted once, advanced on ``counter``), ``rows`` and ``out_shapes``
# (its pooled outputs: one ``(rows,) + shape`` array per shape; ``owner``
# names them to the race detector), ``compute(outs)`` — the pure kernel
# half, safe on any worker — and ``accumulate(outs)``, which adds the
# result into the level accumulators on the calling thread.


@dataclass
class _PairList:
    """The coarse-fine boundary of one level: leaf ``a`` of ``la``
    against child ``b`` of ``lb`` (the next level), pair by pair."""

    la: FmmLevel
    a: np.ndarray
    lb: FmmLevel
    b: np.ndarray
    kind = "p2p"
    owner = "fmm/pair-out"
    counter = _MONOPOLE
    # (phiA, phiB, accA, accB) per pair
    out_shapes = ((), (), (3,), (3,))

    @property
    def pairs(self) -> int:
        return len(self.a)

    rows = pairs              # one output row per pair

    def compute(self, outs) -> None:
        """Run the pair kernel in :data:`_TILE`-sized sub-batches,
        gathering *per tile* so each gathered tile stays cache-resident
        through the kernel call, which writes straight into slices of the
        batch outputs via ``out=``."""
        la, a, lb, b = self.la, self.a, self.lb, self.b
        for lo in range(0, len(a), _TILE):
            sl = slice(lo, min(lo + _TILE, len(a)))
            at, bt = a[sl], b[sl]
            p2p_pair(la.com[at] - lb.com[bt],
                     np.maximum(la.m[at], TINY_MASS),
                     np.maximum(lb.m[bt], TINY_MASS),
                     out=tuple(o[sl] for o in outs))

    def accumulate(self, outs) -> None:
        phiA, phiB, accA, accB = outs
        _accumulate(self.la, self.a, phiA, accA)
        _accumulate(self.lb, self.b, phiB, accB)


@dataclass
class _DenseLeaf:
    """Leaf-sweep state of one level: its leaf masses staged on the
    parent grid (:func:`_parent_grid`), everything else massless, with
    massless parents padding y and z by the sweep's widest offsets (see
    :func:`.kernels.green_sweeps`)."""

    lv: FmmLevel
    slots: np.ndarray | slice  # the level's leaf slots (all: a slice)
    flat: np.ndarray         # their positions in the flattened grid
    padded: np.ndarray       # ... and in the flattened padded grid
    m8: np.ndarray           # (P, P + 2 py, P + 2 pz, 8) leaf masses
    groups: list[tuple[list, int]]  # per group: sweeps, leaf pairs covered

    @classmethod
    def of(cls, lv: FmmLevel, root: bool) -> "_DenseLeaf":
        """The leaf sweep of ``lv`` (which has leaf cells).  On a level
        with refined cells the tables zero the well-separated pairs,
        which the level's M2L covers."""
        P, flat, _ = _parent_grid(lv)
        slots = slice(None) if lv.leaf.all() else np.flatnonzero(lv.leaf)
        flat = flat[slots]
        leaf = np.zeros((P, P, P, 8), dtype=bool)
        leaf.reshape(-1)[flat] = True
        parts = _offset_groups(leaf_sweep_offsets(P if root else None), P)
        pad = sweep_pad(np.concatenate(parts))
        m8 = np.zeros((P, P + 2 * pad[0], P + 2 * pad[1], 8))
        parent = np.unravel_index(flat // 8, (P,) * 3)
        padded = 8 * np.ravel_multi_index(
            (parent[0], parent[1] + pad[0], parent[2] + pad[1]),
            m8.shape[:3]) + flat % 8
        groups = [green_sweeps(P, part, _CHILD, lv.width, leaf, pad,
                               near_only=not lv.leaf.all())
                  for part in parts]
        return cls(lv, slots, flat, padded, m8, [g for g in groups if g[0]])

    def stage(self) -> None:
        """Refill the mass grid from the level (once per solve); the pad
        is never written."""
        self.m8.reshape(-1)[self.padded] = self.lv.m[self.slots]


@dataclass
class _LeafSweep:
    """One offset group of a level's Green-table leaf sweep."""

    dense: _DenseLeaf
    sweeps: list
    pairs: int
    ws: Workspace             # thread-local kernel scratch
    kind = "dense"
    owner = "fmm/pair-out"
    counter = _MONOPOLE
    #: 4 values per target child (see :func:`.kernels.green_tables`)
    out_shapes = ((32,),)

    @property
    def rows(self) -> int:
        return len(self.dense.m8) ** 3

    def compute(self, outs) -> None:
        m8 = self.dense.m8
        p2p_pair_staged(m8, self.sweeps,
                        outs[0].reshape((len(m8),) * 3 + (32,)), self.ws)

    def accumulate(self, outs) -> None:
        dense = self.dense
        part = np.take(outs[0].reshape(-1, 4), dense.flat, axis=0)
        dense.lv.phi[dense.slots] += part[:, 0]
        dense.lv.acc[dense.slots] += part[:, 1:]


#: column of a dense M2L partial (phi, acc x3, H xx yy zz xy xz yz) that
#: holds each entry of the flattened symmetric 3 x 3 Hessian
_HESS_OF = 4 + np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


@dataclass
class _DenseM2L:
    """Dense same-level M2L state of one level with refined cells: every
    present cell's moments staged once per solve in the layout its
    tiling slices.

    Two tilings, one kernel (:func:`.kernels.m2l_dense`):

    * the **root** level has no parent to sweep over and most of its
      pairs are far (73 % on an 8^3 root), so its cells are tiled in
      Morton order along their Morton cubes — rows of a cube against the
      cells after it, plus face-against-face tiles inside the cubes
      (:func:`.stencil.m2l_root_tiles`), all in one plan entry (see
      :data:`_DENSE_GROUPS`);
    * a level below it is staged on the parent grid as the leaf sweep's
      is (:func:`_parent_grid`) and swept one shifted-slice pair per
      lex-positive near parent offset (:func:`.stencil.m2l_sweep_tiles`).
    """

    lv: FmmLevel
    flat: np.ndarray            # staged position of each slot
    com: np.ndarray             # (3, *cells) centres of mass
    V: np.ndarray               # (*cells, N_MOMENT) packed moments
    groups: list[tuple[list, int]]  # per group: tiles, far pairs covered

    @classmethod
    def of(cls, lv: FmmLevel, root: bool) -> "_DenseM2L":
        """The dense M2L plan of ``lv``.  Absent grid cells sit at their
        geometric centres with zero moments, so they add nothing."""
        if root:
            groups = [m2l_root_tiles(lv.coords)]
            flat, cells = np.arange(lv.n), lv.coords
        else:
            P, flat, cells = _parent_grid(lv)
            present = np.zeros((P, P, P, 8), dtype=bool)
            present.reshape(-1)[flat] = True
            # slabs cut as on the level's full grid (a SUBGRID_N^3 root
            # refined), from the grid's absolute first parent layer x0
            x0, full = lv.coords[:, 0].min() >> 1, SUBGRID_N << lv.level >> 1
            groups = [m2l_sweep_tiles(part, _CHILD, present, x0, full,
                                      _SWEEP_BLOCKS)
                      for part in _offset_groups(m2l_sweep_offsets(), P)]
        com = np.moveaxis((cells + 0.5) * lv.width, -1, 0).copy()
        return cls(lv, flat, com, np.zeros(cells.shape[:-1] + (N_MOMENT,)),
                   [g for g in groups if g[1]])

    def stage(self) -> None:
        """Restage moments and centres of mass from the level (once per
        solve, after the upward pass)."""
        lv = self.lv
        self.V.reshape(-1, N_MOMENT)[self.flat] = pack_moments(
            lv.m, lv.M2, np.empty((lv.n, N_MOMENT)))
        self.com.reshape(3, -1)[:, self.flat] = lv.com.T


@dataclass
class _M2LSweep:
    """One tile group of a level's dense M2L."""

    dense: _DenseM2L
    tiles: list
    pairs: int
    ws: Workspace             # thread-local kernel scratch
    kind = "m2l-dense"
    owner = "fmm/m2l-out"
    counter = _MULTIPOLE
    #: phi, acc (3), six unique Hessian components per staged cell
    out_shapes = ((10,),)

    @property
    def rows(self) -> int:
        return self.dense.V.size // N_MOMENT

    def compute(self, outs) -> None:
        d = self.dense
        # two spare rows: m2l_assemble's derived components
        P = self.ws.buf("m2l:P", (N_GREEN + 2,) + d.V.shape)
        m2l_dense(d.com, d.V, self.tiles, P[:N_GREEN], self.ws)
        m2l_assemble(P.reshape(N_GREEN + 2, -1, N_MOMENT),
                     d.V.reshape(-1, N_MOMENT), outs[0])

    def accumulate(self, outs) -> None:
        lv, part = self.dense.lv, np.take(outs[0], self.dense.flat, axis=0)
        lv.phi += part[:, 0]
        lv.acc += part[:, 1:4]
        lv.hess.reshape(-1, 9)[...] += part[:, _HESS_OF]


def _spec_problem(lvl, width, coords: np.ndarray, leaf: np.ndarray,
                  prev: FmmLevel | None) -> str | None:
    """What is wrong with one :meth:`FmmSolver.from_levels` spec that
    follows level ``prev``, or ``None``."""
    if prev is not None and lvl != prev.level + 1:
        return "is not one below the level before it"
    if not (np.isfinite(width) and width > 0):
        return "needs a finite positive width"
    if prev is not None and not np.isclose(width, 0.5 * prev.width,
                                           rtol=1e-12, atol=0):
        return "is not half as wide as its parent"
    if coords.dtype.kind not in "iu" or coords.shape[1:] != (3,) \
            or not len(coords):
        return "needs non-empty (n, 3) integer coordinates"
    if (coords < 0).any():
        return "has negative coordinates"
    if leaf.dtype != bool or leaf.shape != (len(coords),):
        return f"needs a ({len(coords)},) bool leaf mask"
    return None


#: cells of the largest dense lookup grid :func:`_near_slots` builds (8
#: MB), and the most cells it looks up per Morton search pass without one
_LOOKUP_CELLS = 1 << 20


def _near_slots(lv: FmmLevel, wanted: np.ndarray, cells: np.ndarray,
                offsets: np.ndarray) -> np.ndarray:
    """``(len(offsets), len(cells))``: the slot of the ``wanted`` cell of
    ``lv`` at each cell of ``cells`` moved by each row of ``offsets``,
    ``-1`` where there is none.  Looked up in a dense grid of the wanted
    cells' slots over the box the moved cells span, or by Morton search
    where that grid would exceed :data:`_LOOKUP_CELLS`."""
    at = lv.coords[cells]
    reach = np.abs(offsets).max(axis=0)
    lo = at.min(axis=0) - reach
    shape = at.max(axis=0) + reach + 1 - lo
    if math.prod(shape.tolist()) > _LOOKUP_CELLS:
        step = max(1, _LOOKUP_CELLS // len(cells))
        out = []
        for k in range(0, len(offsets), step):
            slots, found = lv.find((at + offsets[k:k + step, None])
                                   .reshape(-1, 3))
            out.append(np.where(found & wanted[slots], slots, -1))
        return np.concatenate(out).reshape(len(offsets), len(cells))
    stride = np.array([shape[1] * shape[2], shape[2], 1])
    grid = np.full(math.prod(shape.tolist()), -1)
    other = np.flatnonzero(wanted)
    there = lv.coords[other] - lo
    inside = ((there >= 0) & (there < shape)).all(axis=1)
    grid[there[inside] @ stride] = other[inside]
    return grid[(at - lo) @ stride + (offsets @ stride)[:, None]]


def _boundary(lv: FmmLevel, child: FmmLevel) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """The coarse-fine boundary of ``lv``: ``(leaf slots, child slots)``,
    every leaf against the children (on ``child``, the next level) of the
    refined cells near it.  Raises ``ValueError`` if one of those children
    is refined itself: the tree is then not 2:1 balanced where the
    boundary batch needs it."""
    # look up the near cells of the smaller side (leaves, or refined
    # cells with the offsets negated) for every offset at once, then put
    # the pairs in offset-major, leaf-ascending order
    w = p2p_stencil()
    from_leaves = bool(2 * lv.leaf.sum() <= lv.n)
    mine = np.flatnonzero(lv.leaf == from_leaves)
    slots = _near_slots(lv, lv.leaf != from_leaves, mine,
                        w if from_leaves else -w)
    k, i = np.nonzero(slots >= 0)
    cell, other = mine[i], slots[k, i]
    a, b = (cell, other) if from_leaves else (other, cell)
    order = np.lexsort((a, k))
    a, b = a[order], b[order]
    # children are Morton-contiguous, so parent_slot is sorted
    first = np.searchsorted(child.parent_slot, b)
    count = np.searchsorted(child.parent_slot, b, side="right") - first
    take = np.arange(8) < count[:, None]
    kids = (first[:, None] + np.arange(8))[take]
    if not child.leaf[kids].all():
        raise ValueError(
            f"level {child.level} refines cells near leaves of level "
            f"{lv.level}: the tree is not 2:1 balanced")
    return np.repeat(a, count), kids


class FmmSolver:
    """Gravity solve over a hierarchy of FMM levels.

    Build with :meth:`from_uniform` (a single fine grid, coarser levels
    derived) or :meth:`from_levels` (adaptive cell sets).  Units: G = 1.
    """

    def __init__(self, levels: list[FmmLevel]):
        if not levels:
            raise ValueError("need at least one level")
        self.levels = levels
        self._link_parents()
        # leaf geometry is fixed: point masses at the cell centres
        # (M2 = 0, the zero-initialised state); a solve only writes m.
        # Staged per leaf-bearing level: the leaf slots and, once a cubic
        # density grid has been seen, (its shape, the leaves' flat index)
        self._leaf_slots: dict[int, np.ndarray] = {}
        self._leaf_flat: dict[int, tuple[tuple, np.ndarray]] = {}
        for lv in levels:
            if lv.leaf.any():
                slots = np.nonzero(lv.leaf)[0]
                lv.com[slots] = lv.centers()[slots]
                self._leaf_slots[lv.level] = slots
        # the coarse-fine boundary of every level with leaf and refined
        # cells: geometry only, checked here so a tree the boundary batch
        # cannot serve fails at construction
        self._boundary = {li: _boundary(lv, levels[li + 1])
                          for li, lv in enumerate(levels)
                          if lv.leaf.any() and not lv.leaf.all()}
        # the interaction plan depends only on geometry: built on the
        # first solve and walked by every one (a mesh re-solves gravity
        # every hydro stage on a fixed grid) — see _build_plan
        self._plan: list | None = None
        self._staged: list[_DenseLeaf | _DenseM2L] = []
        # per-entry output pool, keyed by (kind, chunk slot): _run_plan
        # fully accumulates each dispatched chunk before issuing the
        # next, so slot j's buffers are free again by the time the next
        # chunk's entry j starts computing
        self._out_pool: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}
        # (leaf level, grid edge) of a from_uniform solver
        self._uniform_shape: tuple[int, int] | None = None
        # thread-local kernel scratch of the dense sweeps
        self._ws = Workspace()

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_uniform(cls, rho: np.ndarray, dx: float,
                     subgrid_n: int = SUBGRID_N) -> "FmmSolver":
        """Solver for a uniform (M, M, M) density grid, M = subgrid_n * 2^L.

        Builds the full level hierarchy; only the finest level is leaf.
        """
        M = rho.shape[0]
        if rho.shape != (M, M, M):
            raise ValueError("density grid must be cubic")
        if not (np.isfinite(dx) and dx > 0):
            raise ValueError(f"cell width dx must be finite and positive, "
                             f"got {dx!r}")
        depth = 0
        while subgrid_n * (1 << depth) < M:
            depth += 1
        if subgrid_n * (1 << depth) != M:
            raise ValueError(
                f"grid edge {M} is not {subgrid_n} * 2^L for any L")
        levels: list[FmmLevel] = []
        for lvl in range(depth + 1):
            edge = subgrid_n * (1 << lvl)
            g = np.arange(edge, dtype=np.int64)
            coords = np.stack(np.meshgrid(g, g, g, indexing="ij"),
                              axis=-1).reshape(-1, 3)
            order = np.argsort(morton_key(coords), kind="stable")
            coords = coords[order]
            leaf = np.full(len(coords), lvl == depth)
            levels.append(FmmLevel(level=lvl, width=dx * (M // edge),
                                   coords=coords, leaf=leaf))
        solver = cls(levels)
        solver.set_leaf_density({depth: rho})
        solver._uniform_shape = (depth, M)
        return solver

    @classmethod
    def from_levels(cls, specs: list[tuple[int, float, np.ndarray, np.ndarray]]
                    ) -> "FmmSolver":
        """Adaptive solver from (level, width, coords, leaf_mask) specs,
        coarsest first.

        Checked here, each failure a ``ValueError`` naming the level:
        levels are consecutive, each of finite positive width and half
        as wide as its parent; ``coords`` is a non-empty ``(n, 3)``
        integer array of non-negative cells, ``leaf_mask`` an ``(n,)``
        bool array; every cell has a parent, every leaf no children and
        every refined cell some; and the tree is 2:1 balanced wherever a
        leaf meets a refined cell (see :func:`_boundary`).
        """
        levels: list[FmmLevel] = []
        for lvl, width, coords, leaf in specs:
            coords, leaf = np.asarray(coords), np.asarray(leaf)
            problem = _spec_problem(lvl, width, coords, leaf,
                                    levels[-1] if levels else None)
            if problem:
                raise ValueError(f"level {lvl} {problem}")
            order = np.argsort(morton_key(coords), kind="stable")
            levels.append(FmmLevel(level=lvl, width=float(width),
                                   coords=coords[order].astype(np.int64),
                                   leaf=leaf[order]))
        return cls(levels)

    def _link_parents(self) -> None:
        for lvl in range(1, len(self.levels)):
            child = self.levels[lvl]
            parent = self.levels[lvl - 1]
            slots, found = parent.find(child.coords >> 1)
            if not found.all():
                raise ValueError(
                    f"level {lvl} has cells without a parent at {lvl - 1}")
            child.parent_slot = slots
        for lvl, lv in enumerate(self.levels):
            kids = np.zeros(lv.n, dtype=np.int64)
            if lvl + 1 < len(self.levels):
                kids = np.bincount(self.levels[lvl + 1].parent_slot,
                                   minlength=lv.n)
            if kids[lv.leaf].any():
                raise ValueError(f"level {lvl} has leaf cells with children")
            if not kids[~lv.leaf].all():
                raise ValueError(
                    f"level {lvl} has refined cells without children")

    # -- state input -------------------------------------------------------------

    def set_leaf_density(self, rho_by_level: dict[int, np.ndarray]) -> None:
        """Assign leaf-cell masses from densities.

        ``rho_by_level[l]`` is either a flat array over that level's leaf
        cells (in the level's Morton order) or, for a fully-leaf uniform
        level, a cubic grid indexed by integer coordinates.  Densities
        must be finite and non-negative: a NaN here would otherwise
        surface as a NaN field twenty calls later.
        """
        for lv in self.levels:
            slots = self._leaf_slots.get(lv.level)
            if slots is None:
                continue
            rho = rho_by_level.get(lv.level)
            if rho is None:
                raise ValueError(f"missing density for level {lv.level}")
            rho = np.asarray(rho, dtype=np.float64)
            if rho.ndim == 3:
                shape, flat = self._leaf_flat.get(lv.level, (None, None))
                if rho.shape != shape:
                    c = lv.coords[slots]
                    flat = np.ravel_multi_index((c[:, 0], c[:, 1], c[:, 2]),
                                                rho.shape)
                    self._leaf_flat[lv.level] = rho.shape, flat
                vals = rho.reshape(-1)[flat]
            else:
                vals = rho
            if not np.isfinite(vals).all():
                raise ValueError(f"non-finite density on level {lv.level}")
            if np.any(vals < 0):
                raise ValueError(f"negative density on level {lv.level}")
            lv.m[slots] = vals * lv.width ** 3

    # -- the three FMM steps -----------------------------------------------------

    def solve(self, executor=None) -> GravityResult:
        """Run the three FMM steps; returns the leaf field.

        ``executor`` is an optional
        :class:`~repro.core.exec.ExecutionEngine`: the same-level plan
        entries are then dispatched as independent tasks onto scheduler
        workers and (when the engine holds a device) coalesced into
        aggregated launches on GPU streams with CPU overflow — the
        paper's futurized per-subgrid gravity (Sec. 5.1) plus the
        work-aggregation layer (arXiv 2210.06438).  Entry outputs are
        *accumulated* on the calling thread in plan order, so a
        futurized solve is bit-identical to a serial one.

        The very first solve builds the geometry-dependent plan and
        runs it inline; every subsequent solve walks the same plan,
        futurized when an executor is given.
        """
        reg = default_registry()
        reg.increment("/fmm/solves")
        self._reset_taylor()
        self._upward()
        if self._plan is None:
            self._build_plan()
            executor = None
        elif executor is not None:
            reg.increment("/fmm/solves-futurized")
        self._run_plan(executor)
        self._downward()
        return self._collect()

    def _pool_out(self, entry, slot: int) -> tuple[np.ndarray, ...]:
        """Capacity-grown output buffers of ``entry`` in chunk slot
        ``slot``.

        The pool is NOT thread-local: slot ``j``'s buffers are written
        by whichever worker computes a chunk's ``j``-th entry and read
        by the accumulating thread, which finishes the whole chunk
        before the next one is dispatched — so distinct in-flight
        entries never share a slot and reuse across chunks is safe.
        """
        key = (entry.kind, slot)
        n = entry.rows
        cur = self._out_pool.get(key)
        if cur is None or len(cur[0]) < n:
            cur = tuple(np.empty((n,) + t) for t in entry.out_shapes)
            self._out_pool[key] = cur
        return tuple(o[:n] for o in cur)

    def _compute_entry(self, i: int, slot: int):
        """Pure compute half of plan entry ``i`` (engine task): its
        kernel batch — a group of leaf-sweep offsets, a group of dense
        M2L tiles, the tiled boundary batch — written into outputs from
        the slot-indexed pool (see :meth:`_pool_out`).  No accumulation
        happens here, so entries are safe to compute concurrently and in
        any order.
        """
        entry = self._plan[i]
        outs = self._pool_out(entry, slot)
        if _sanitize_state.ACTIVE:
            # whole-batch write declaration for the pooled output
            # buffers this task is about to fill
            for o in outs:
                _racecheck.access(o, "w", owner=entry.owner)
        entry.compute(outs)
        return outs

    def _accumulate_entry(self, entry, outs) -> None:
        """Add one computed entry into the level accumulators (calling
        thread only, plan order)."""
        if _sanitize_state.ACTIVE:
            # the future's resolution edge orders these reads after the
            # computing worker's writes; slot reuse in the next chunk is
            # ordered through the re-dispatch
            for o in outs:
                _racecheck.access(o, "r", owner=entry.owner)
        default_registry().increment(entry.counter, entry.pairs)
        entry.accumulate(outs)

    def _run_plan(self, engine) -> None:
        """Step 2: compute every plan entry and accumulate it.

        Each entry is one task computing its kernel batch.  Without an
        ``engine`` they run inline, one at a time.  With one, each
        slot-buffer-sized chunk of entries is one ``engine.map``
        (coalesced into one aggregated stream launch when the engine
        holds a device).  Chunks are dispatched **one at a time**, each
        fully accumulated before the next is issued: a chunk of large
        batches produces hundreds of MB of kernel output, and two
        in-flight aggregated launches simply evict each other on a busy
        host.  Accumulation runs here, in plan order, so the result is
        byte-identical however the entries were placed or aggregated.
        """
        for staged in self._staged:
            staged.stage()
        plan = self._plan
        if engine is None:
            for i, entry in enumerate(plan):
                self._accumulate_entry(entry, self._compute_entry(i, 0))
            return
        chunk = engine.agg_slots
        for lo in range(0, len(plan), chunk):
            entries = plan[lo:lo + chunk]
            futs = engine.map(self._compute_entry,
                              [(lo + j, j) for j in range(len(entries))])
            for entry, fut in zip(entries, futs):
                self._accumulate_entry(entry, fut.get())

    def _reset_taylor(self) -> None:
        for lv in self.levels:
            lv.phi[:] = 0.0
            lv.acc[:] = 0.0
            lv.hess[:] = 0.0

    def _upward(self) -> None:
        """Step 1: M2M aggregation, finest to coarsest."""
        for lvl in range(len(self.levels) - 1, 0, -1):
            child = self.levels[lvl]
            parent = self.levels[lvl - 1]
            interior = ~parent.leaf
            if not interior.any():
                continue
            m, com, M2 = aggregate_m2m(child.m, child.com, child.M2,
                                       child.parent_slot, parent.n)
            parent.m[interior] = m[interior]
            parent.com[interior] = com[interior]
            parent.M2[interior] = M2[interior]

    # -- step 2: the plan ---------------------------------------------------------

    def _build_plan(self) -> None:
        """Record every same-level and near-field interaction, geometry
        only, as entries with one shape (see "plan entries" above), level
        by level: the leaf sweep's :class:`_LeafSweep` groups if the level
        has leaf cells, the dense M2L's :class:`_M2LSweep` groups if it
        has refined cells (refined x refined near pairs are their
        children's), and the coarse-fine :class:`_PairList` if it has
        both."""
        self._plan, self._staged = [], []
        for li, lv in enumerate(self.levels):
            if lv.leaf.any():
                leaf = _DenseLeaf.of(lv, li == 0)
                self._staged.append(leaf)
                self._plan += [_LeafSweep(leaf, sweeps, pairs, self._ws)
                               for sweeps, pairs in leaf.groups]
            if not lv.leaf.all():
                m2l = _DenseM2L.of(lv, li == 0)
                self._staged.append(m2l)
                self._plan += [_M2LSweep(m2l, tiles, pairs, self._ws)
                               for tiles, pairs in m2l.groups]
            if li in self._boundary:
                a, b = self._boundary[li]
                self._plan.append(_PairList(lv, a, self.levels[li + 1], b))

    def _downward(self) -> None:
        """Step 3: L2L Taylor shifts, coarsest to finest."""
        for lvl in range(1, len(self.levels)):
            child = self.levels[lvl]
            parent = self.levels[lvl - 1]
            ps = child.parent_slot
            d = child.com - parent.com[ps]
            phi, acc, hess = taylor_shift(parent.phi[ps], parent.acc[ps],
                                          parent.hess[ps], d)
            child.phi += phi
            child.acc += acc
            child.hess += hess

    # -- output ---------------------------------------------------------------

    def _collect(self) -> GravityResult:
        phi: dict[int, np.ndarray] = {}
        acc: dict[int, np.ndarray] = {}
        slots: dict[int, np.ndarray] = {}
        for lv in self.levels:
            sel = self._leaf_slots.get(lv.level)
            if sel is not None:
                phi[lv.level] = lv.phi[sel]
                acc[lv.level] = lv.acc[sel]
                slots[lv.level] = sel
        return GravityResult(phi=phi, acc=acc, leaf_slots=slots)

    def uniform_field(self, result: GravityResult
                      ) -> tuple[np.ndarray, np.ndarray]:
        """For ``from_uniform`` solvers: (phi, acc) as cubic grids.

        ``result`` must be a field of this solver's leaf cells (its
        :meth:`solve`, or one of a solver of the same grid): a
        ``ValueError`` names what does not fit, instead of scattering
        values onto the wrong cells."""
        if self._uniform_shape is None:
            raise ValueError("uniform_field needs a from_uniform solver; "
                             "this one was built from levels")
        depth, M = self._uniform_shape
        sel = result.leaf_slots.get(depth)
        if result.leaf_slots.keys() != {depth} \
                or not np.array_equal(sel, self._leaf_slots[depth]):
            raise ValueError(
                f"result is not a field of this solver's {M}^3 grid: it "
                f"holds leaves on levels {sorted(result.leaf_slots)}, not "
                f"all {M ** 3} cells of level {depth} alone")
        lv = self.levels[depth]
        phi = np.zeros((M, M, M))
        acc = np.zeros((M, M, M, 3))
        c = lv.coords[sel]
        phi[c[:, 0], c[:, 1], c[:, 2]] = result.phi[depth]
        acc[c[:, 0], c[:, 1], c[:, 2]] = result.acc[depth]
        return phi, acc
