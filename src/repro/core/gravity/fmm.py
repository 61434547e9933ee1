"""The three-step cell-based FMM gravity solver (Sec. 4.3).

Steps, exactly as the paper lays them out:

1. **Upward** (bottom-up tree traversal): leaf cells take their mass from
   the hydro density; every refined cell aggregates the multipole moments
   and centre of mass of its eight child cells (M2M).

2. **Same-level interactions**: each cell interacts with the neighbours
   selected by the opening criterion.  Our partition is parity-exact
   (see :mod:`.stencil`): a pair is processed by the multipole kernel at
   the coarsest level at which it is well separated; leaf-level near
   pairs go through the 12-flop monopole P2P kernel; near pairs between a
   leaf and a refined cell descend on the refined side (the paper's
   monopole-multipole / multipole-monopole AMR-boundary kernels).

3. **Downward** (top-down): Taylor expansions (potential, acceleration,
   Hessian) shift from parents to children (L2L) and accumulate.

Conservation comes from construction: every pair force is applied
antisymmetrically, and the Hessian term of the downward pass realizes
the quadrupole (tidal) torques on child cells, so total linear and
angular momentum of the resulting field are conserved to machine
precision (see ``tests/core/test_fmm_conservation.py``).

Step 2 has three forms, chosen per level from the level's own shape and
nothing else:

* **Dense Green-table sweep** — a fully populated all-leaf level (the
  finest level of every :meth:`FmmSolver.from_uniform` solver) is viewed
  as a ``(P, P, P, 8)`` grid of parents.  Two leaves interact at leaf
  level exactly when their parents are not well separated, and for each
  such parent offset the 8 x 8 child separations are constants of the
  grid.  So the whole leaf-level near field is one ``(8, 32)`` Green
  table per offset (:func:`.kernels.green_table`, built once) and, per
  solve, one shifted-slice matmul per offset
  (:func:`.kernels.p2p_pair_staged`): no index arrays, no gathers, no
  scatter-adds — the paper's stencil-over-SoA redesign of Sec. 4.3.
* **Dense M2L** — a level without leaf cells runs its same-level
  multipole interactions through one kernel (:func:`.kernels.m2l_dense`)
  in one of two tilings.  Expansions are centred on centres of mass, so
  the Green tensors depend on the density and are evaluated every solve;
  what the dense form removes is everything around them.  Separations are
  broadcast differences of two slices of the staged level, a static
  ``0 / +inf`` mask on ``r^2`` selects the pairs that belong to the level,
  each Green component is contracted against the packed moments of all
  partners by one matmul per side (both partners from one evaluation),
  and the Taylor coefficients are assembled per cell.  Each Green
  component is contracted as soon as it is made, so a tile never holds
  more than one component block.  The **root** level is one plan entry,
  tiled along its 4^3 Morton cubes: each cube's rows against every cell
  after it, and the far pairs inside the cubes — all of them on opposite
  faces — as three face-against-face tiles batched over the cubes, so no
  masked diagonal block is evaluated (1.27 evaluations per far pair on
  an 8^3 root).  An **interior** level that is a full cube with an even
  edge is swept one shifted-slice pair per lex-positive near parent
  offset over the same parent grid the leaf sweep uses, the parity
  partition being the static 8 x 8 mask.
* **Pair lists** — everything irregular (every level of an adaptive tree
  that has leaf cells or is not a full even cube, odd edges, mixed-level
  AMR boundaries): cells matched per stencil offset by Morton-key
  ``searchsorted`` once, when the plan is built, then whole pair batches
  gathered tile by tile through the vectorized pair kernels and
  scatter-added with ``bincount``.

All three are entries of one plan with one shape (``kind``, ``pairs``,
``compute(outs)``, ``accumulate(outs)``) that every solve walks the same
way, inline or through an execution engine; an even-edged uniform solver
records no pair list at any level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ...runtime.counters import default_registry
from ...sanitize import racecheck as _racecheck
from ...sanitize import state as _sanitize_state
from ...util import morton_key
from ..workspace import Workspace
from .kernels import (N_GREEN, N_MOMENT, TINY_MASS, green_sweeps,
                      m2l_assemble, m2l_dense, m2l_pair, p2p_pair,
                      p2p_pair_staged, pack_moments)
from .multipole import aggregate_m2m, taylor_shift
from .stencil import (OPENING_R2, leaf_sweep_offsets, lex_positive,
                      m2l_root_tiles, m2l_sweep_offsets, m2l_sweep_tiles,
                      p2p_stencil, parity_stencils, root_stencil)

__all__ = ["FmmLevel", "FmmSolver", "GravityResult"]

#: number of plan entries the parent offsets of a dense leaf or interior
#: level are cut into — a constant, so every solve (inline, futurized,
#: distributed) runs the same matmuls in the same groups and adds the
#: same partials in the same order.  Eight keeps an aggregated launch
#: well filled.  The root's M2L is one entry: an entry zeroes, fills and
#: assembles a whole-level partial, and on the 8^3 root (2-core host)
#: eight entries took 7.9-8.9 ms, eight that share one assemble 7.5-7.8
#: ms and one entry 6.8-6.9 ms
_DENSE_GROUPS = 8

#: parents per tile of the interior-level M2L sweep: keeps a tile's
#: Green block (8 KB per parent pair) and scratch cache-sized, the way
#: ``_TILE`` does for the pair lists (measured flat from 128 to 1024 on a
#: P = 8 level, slower below)
_SWEEP_BLOCKS = 256

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


@lru_cache(maxsize=1)
def _parity_offset_table() -> tuple[np.ndarray, np.ndarray]:
    """Union of the parity M2L lists (lex-positive) plus a per-offset map
    of which parities use it."""
    par_lists = parity_stencils()
    union = {tuple(w) for lst in par_lists.values() for w in lst}
    offsets = lex_positive(np.array(sorted(union), dtype=np.int64))
    sets = {p: {tuple(w) for w in lst} for p, lst in par_lists.items()}
    par_ok = np.zeros((len(offsets), 8), dtype=bool)
    for wi, w in enumerate(offsets):
        tw = tuple(int(c) for c in w)
        for p, lst in sets.items():
            par_ok[wi, (p[0] << 2) | (p[1] << 1) | p[2]] = tw in lst
    return offsets, par_ok


def _accumulate(lv: FmmLevel, idx: np.ndarray, phi: np.ndarray,
                acc: np.ndarray, hess: np.ndarray | None) -> None:
    """Scatter-add pair contributions (bincount: much faster than add.at)."""
    n = lv.n
    lv.phi += np.bincount(idx, weights=phi, minlength=n)
    for d in range(3):
        lv.acc[:, d] += np.bincount(idx, weights=acc[:, d], minlength=n)
    if hess is not None:
        for i in range(3):
            for j in range(i, 3):
                h = np.bincount(idx, weights=hess[:, i, j], minlength=n)
                lv.hess[:, i, j] += h
                if i != j:
                    lv.hess[:, j, i] += h


#: pair-tile size of the pair-list compute path.  A recorded batch can be
#: any size (a level's near-field and AMR-boundary lists are one entry
#: each) and a large one churns hundreds of MB of Green-function
#: temporaries (``g3`` alone is 216 B/pair); running the kernel over
#: cache-sized sub-batches keeps the temporaries resident and is
#: measurably faster on the same flops.  All pair kernels are elementwise
#: along the pair axis, so tiling is bitwise identical to the one-shot
#: call.
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
    """One recorded batch of cell pairs: the irregular path (adaptive
    levels, odd edges, mixed-level boundaries)."""

    kind: str                 # "p2p" | "m2l"
    la: FmmLevel
    a: np.ndarray
    lb: FmmLevel
    b: np.ndarray
    owner = "fmm/pair-out"

    @property
    def pairs(self) -> int:
        return len(self.a)

    rows = pairs              # one output row per pair

    @property
    def counter(self) -> str:
        return _MULTIPOLE if self.kind == "m2l" else _MONOPOLE

    @property
    def out_shapes(self) -> tuple:
        # (phiA, phiB, accA, accB[, HA, HB]) per pair
        pair = ((), (), (3,), (3,))
        return pair + ((3, 3), (3, 3)) if self.kind == "m2l" else pair

    def compute(self, outs) -> None:
        """Run the pair kernel in :data:`_TILE`-sized sub-batches,
        gathering *per tile* (rather than the whole batch up front) so
        each gathered tile stays cache-resident through the kernel call;
        every tile writes straight into slices of the batch outputs via
        the kernels' ``out=``."""
        la, a, lb, b = self.la, self.a, self.lb, self.b
        for lo in range(0, len(a), _TILE):
            sl = slice(lo, min(lo + _TILE, len(a)))
            at, bt = a[sl], b[sl]
            args = (la.com[at] - lb.com[bt],
                    np.maximum(la.m[at], TINY_MASS),
                    np.maximum(lb.m[bt], TINY_MASS))
            out = tuple(o[sl] for o in outs)
            if self.kind == "m2l":
                m2l_pair(*args, la.M2[at], lb.M2[bt], out=out)
            else:
                p2p_pair(*args, out=out)

    def accumulate(self, outs) -> None:
        if self.kind == "m2l":
            phiA, phiB, accA, accB, HA, HB = outs
        else:
            phiA, phiB, accA, accB = outs
            HA = HB = None
        _accumulate(self.la, self.a, phiA, accA, HA)
        _accumulate(self.lb, self.b, phiB, accB, HB)


def _parent_grid(lv: FmmLevel) -> np.ndarray | None:
    """A fully populated level with an even edge seen as a ``(P, P, P)``
    grid of parents: the Morton parent slot at each grid index, or
    ``None`` if the level's shape rules the view out.

    Morton order keeps siblings contiguous, so ``lv.m.reshape(-1, 8)``
    is already (parent, child); only the parents need permuting between
    Morton and grid order, and one index grid does both directions."""
    edge = round(lv.n ** (1.0 / 3.0))
    if not lv.n or edge % 2 or edge ** 3 != lv.n \
            or lv.coords.max() != edge - 1:
        return None
    P = edge // 2
    parents = lv.coords[::8] >> 1
    to_grid = np.empty((P, P, P), dtype=np.int64)
    to_grid[parents[:, 0], parents[:, 1], parents[:, 2]] = np.arange(P ** 3)
    return to_grid


@dataclass
class _DenseLeaf:
    """Dense-sweep state of one fully populated all-leaf level: the
    level seen as a ``(P, P, P)`` grid of parents with 8 children each
    (:func:`_parent_grid`)."""

    lv: FmmLevel
    to_grid: np.ndarray      # (P, P, P): Morton parent slot at grid index
    m8: np.ndarray           # (P, P, P, 8) leaf masses, refilled per solve
    groups: list[tuple[list, int]]  # per group: sweeps, leaf pairs covered

    @classmethod
    def of(cls, lv: FmmLevel, root: bool) -> "_DenseLeaf | None":
        """The dense plan of ``lv``, or ``None`` if its shape rules it
        out (not all-leaf, not a full cube, or an odd edge)."""
        to_grid = _parent_grid(lv) if lv.leaf.all() else None
        if to_grid is None:
            return None
        P = len(to_grid)
        child = lv.coords[:8] & 1
        groups = [green_sweeps(P, offsets, child, lv.width)
                  for offsets in np.array_split(leaf_sweep_offsets(P, root),
                                                _DENSE_GROUPS)]
        return cls(lv, to_grid, np.empty((P, P, P, 8)), groups)

    def stage(self) -> None:
        """Refill the mass grid from the level (once per solve)."""
        np.take(self.lv.m.reshape(-1, 8), self.to_grid, axis=0, out=self.m8)


@dataclass
class _LeafSweep:
    """One offset group of a dense leaf level's Green-table sweep."""

    dense: _DenseLeaf
    sweeps: list
    pairs: int
    kind = "dense"
    owner = "fmm/pair-out"
    counter = _MONOPOLE
    #: 4 values per target child (see :func:`.kernels.green_table`)
    out_shapes = ((32,),)

    @property
    def rows(self) -> int:
        return self.dense.lv.n // 8

    def compute(self, outs) -> None:
        m8 = self.dense.m8
        p2p_pair_staged(m8, self.sweeps,
                        out=outs[0].reshape(m8.shape[:3] + (32,)))

    def accumulate(self, outs) -> None:
        dense = self.dense
        lv = dense.lv
        part = outs[0].reshape(dense.m8.shape + (4,))
        lv.phi.reshape(-1, 8)[dense.to_grid] += part[..., 0]
        lv.acc.reshape(-1, 8, 3)[dense.to_grid] += part[..., 1:]


#: column of a dense M2L partial (phi, acc x3, H xx yy zz xy xz yz) that
#: holds each entry of the flattened symmetric 3 x 3 Hessian
_HESS_OF = 4 + np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


@dataclass
class _DenseM2L:
    """Dense same-level M2L state of one level without leaf cells: its
    moments staged once per solve in the layout its tiling slices.

    Two tilings, one kernel (:func:`.kernels.m2l_dense`):

    * the **root** level has no parent to sweep over and most of its
      pairs are far (73 % on an 8^3 root), so it is tiled along its
      Morton cubes — rows of a cube against the cells after it, plus
      face-against-face tiles inside the cubes
      (:func:`.stencil.m2l_root_tiles`), cells in Morton order, all in
      one plan entry (see :data:`_DENSE_GROUPS`);
    * an **interior** level that is a fully populated cube with an even
      edge is seen as a ``(P, P, P, 8)`` parent grid as in
      :class:`_DenseLeaf` and swept one shifted-slice pair per
      lex-positive near parent offset
      (:func:`.stencil.m2l_sweep_tiles`).
    """

    lv: FmmLevel
    order: np.ndarray | slice   # Morton slot of each staged cell
    com: np.ndarray             # (3, *cells) centres of mass
    V: np.ndarray               # (*cells, N_MOMENT) packed moments
    groups: list[tuple[list, int]]  # per group: tiles, far pairs covered

    @classmethod
    def of(cls, lv: FmmLevel, root: bool) -> "_DenseM2L | None":
        """The dense M2L plan of ``lv``, or ``None`` if its shape rules
        it out (leaf cells; below the root also not a full cube or an
        odd edge)."""
        if lv.leaf.any():
            return None
        if root:
            groups = [m2l_root_tiles(lv.coords)]
            order, cells = slice(None), (lv.n,)
        else:
            to_grid = _parent_grid(lv)
            if to_grid is None:
                return None
            P = len(to_grid)
            child = lv.coords[:8] & 1
            groups = [m2l_sweep_tiles(P, offsets, child, _SWEEP_BLOCKS)
                      for offsets in np.array_split(m2l_sweep_offsets(P),
                                                    _DENSE_GROUPS)]
            order = (8 * to_grid[..., None] + np.arange(8)).reshape(-1)
            cells = (P, P, P, 8)
        return cls(lv, order, np.empty((3,) + cells),
                   np.empty(cells + (N_MOMENT,)),
                   [g for g in groups if g[1]])

    def stage(self) -> None:
        """Restage moments and centres of mass from the level (once per
        solve, after the upward pass)."""
        lv, order = self.lv, self.order
        pack_moments(lv.m[order], lv.M2[order],
                     self.V.reshape(-1, N_MOMENT))
        self.com.reshape(3, -1)[...] = lv.com.T[:, order]


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
        return self.dense.lv.n

    def compute(self, outs) -> None:
        d = self.dense
        # two spare rows: m2l_assemble's derived components
        P = self.ws.buf("m2l:P", (N_GREEN + 2,) + d.V.shape)
        m2l_dense(d.com, d.V, self.tiles, P[:N_GREEN], self.ws)
        m2l_assemble(P.reshape(N_GREEN + 2, -1, N_MOMENT),
                     d.V.reshape(-1, N_MOMENT), outs[0])

    def accumulate(self, outs) -> None:
        lv, order, part = self.dense.lv, self.dense.order, outs[0]
        lv.phi[order] += part[:, 0]
        lv.acc[order] += part[:, 1:4]
        lv.hess.reshape(-1, 9)[order] += part[:, _HESS_OF]


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
        # the interaction plan depends only on geometry: built on the
        # first solve and walked by every one (a mesh re-solves gravity
        # every hydro stage on a fixed grid) — see _build_plan
        self._plan: list | None = None
        self._dense: list[_DenseLeaf] = []
        self._dense_m2l: list[_DenseM2L] = []
        # per-entry output pool, keyed by (kind, chunk slot): _run_plan
        # fully accumulates each dispatched chunk before issuing the
        # next, so slot j's buffers are free again by the time the next
        # chunk's entry j starts computing
        self._out_pool: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}
        # thread-local kernel scratch of the dense M2L tiles
        self._ws = Workspace()

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_uniform(cls, rho: np.ndarray, dx: float,
                     subgrid_n: int = 8) -> "FmmSolver":
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
        """Adaptive solver from (level, width, coords, leaf_mask) specs."""
        levels = []
        for lvl, width, coords, leaf in specs:
            order = np.argsort(morton_key(coords), kind="stable")
            levels.append(FmmLevel(level=lvl, width=width,
                                   coords=coords[order], leaf=leaf[order]))
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
        kernel batch — a tiled pair list, a group of shifted-slice
        matmuls, a group of dense M2L tiles — written into outputs from
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
        for staged in self._dense + self._dense_m2l:
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
        only, as entries with one shape (see "plan entries" above).  The
        form of step 2 on a level follows from the level's own shape: a
        dense leaf level is :class:`_LeafSweep` groups, a level without
        leaf cells :class:`_M2LSweep` groups (it has no near field of its
        own: interior x interior near pairs are their children's), and
        anything else records :class:`_PairList` batches."""
        self._plan, self._dense, self._dense_m2l = [], [], []
        mixed: list[tuple[int, np.ndarray, int, np.ndarray]] = []
        root_offsets = lex_positive(root_stencil())
        offsets_p, par_ok = _parity_offset_table()
        for li, lv in enumerate(self.levels):
            leaf = _DenseLeaf.of(lv, li == 0)
            if leaf is not None:
                self._dense.append(leaf)
                self._plan += [_LeafSweep(leaf, sweeps, pairs)
                               for sweeps, pairs in leaf.groups]
                continue
            m2l = _DenseM2L.of(lv, li == 0)
            if m2l is not None:
                self._dense_m2l.append(m2l)
                self._plan += [_M2LSweep(m2l, tiles, pairs, self._ws)
                               for tiles, pairs in m2l.groups]
                continue
            par_code = ((lv.coords[:, 0] & 1) << 2) \
                | ((lv.coords[:, 1] & 1) << 1) | (lv.coords[:, 2] & 1)
            if li == 0:
                self._m2l_offsets(lv, root_offsets, par_code, None)
            else:
                self._m2l_offsets(lv, offsets_p, par_code, par_ok)
            self._near_field(lv, mixed)
        self._mixed_descent(mixed)

    #: pair-batch flush threshold (keeps kernel temporaries ~100 MB)
    _CHUNK = 250_000

    def _m2l_offsets(self, lv: FmmLevel, offsets: np.ndarray,
                     par_code: np.ndarray,
                     par_ok: np.ndarray | None) -> None:
        buf_a: list[np.ndarray] = []
        buf_b: list[np.ndarray] = []
        buffered = 0
        for wi, w in enumerate(offsets):
            nb = lv.coords + w
            slots, found = lv.find(nb)
            sel = found
            if par_ok is not None:
                sel = sel & par_ok[wi][par_code]
            if not sel.any():
                continue
            buf_a.append(np.nonzero(sel)[0])
            buf_b.append(slots[sel])
            buffered += len(buf_a[-1])
            if buffered >= self._CHUNK:
                self._record_m2l(lv, np.concatenate(buf_a), lv,
                                 np.concatenate(buf_b))
                buf_a, buf_b, buffered = [], [], 0
        if buffered:
            self._record_m2l(lv, np.concatenate(buf_a), lv,
                             np.concatenate(buf_b))

    def _record_m2l(self, la: FmmLevel, a: np.ndarray,
                    lb: FmmLevel, b: np.ndarray) -> None:
        # leaf-leaf pairs carry no quadrupoles (M2 = 0) and need no
        # Hessian (no children to shift to): route them through the cheap
        # monopole kernel — the paper's 12-flop vs 455-flop split
        both_leaf = la.leaf[a] & lb.leaf[b]
        if both_leaf.any():
            self._record("p2p", la, a[both_leaf], lb, b[both_leaf])
            a, b = a[~both_leaf], b[~both_leaf]
        if len(a):
            self._record("m2l", la, a, lb, b)

    def _record(self, kind: str, la: FmmLevel, a: np.ndarray,
                lb: FmmLevel, b: np.ndarray) -> None:
        """Append one validated pair-list entry to the plan.

        The separation guard is hoisted out of the kernels: distinct
        cells always have distinct geometric centres (and the COMs the
        kernels divide by lie strictly inside their cells), so a zero
        geometric separation means the pair lists are broken — e.g. a
        cell paired with itself.  Checking once per recorded batch
        replaces a per-call ``r2 == 0`` scan on every solve.
        """
        cA = (la.coords[a] + 0.5) * la.width
        cB = (lb.coords[b] + 0.5) * lb.width
        d = cA - cB
        if np.any(np.einsum("ni,ni->n", d, d) == 0.0):
            raise ValueError("coincident cells in interaction kernel")
        self._plan.append(_PairList(kind, la, a, lb, b))

    def _near_field(self, lv: FmmLevel, mixed: list) -> None:
        buf_a: list[np.ndarray] = []
        buf_b: list[np.ndarray] = []
        for w in lex_positive(p2p_stencil()):
            nb = lv.coords + w
            slots, found = lv.find(nb)
            if not found.any():
                continue
            a = np.nonzero(found)[0]
            b = slots[found]
            a_leaf = lv.leaf[a]
            b_leaf = lv.leaf[b]
            both_leaf = a_leaf & b_leaf
            if both_leaf.any():
                buf_a.append(a[both_leaf])
                buf_b.append(b[both_leaf])
            # leaf x interior: descend on the interior side
            am = a_leaf & ~b_leaf
            if am.any():
                mixed.append((lv.level, a[am], lv.level, b[am]))
            bm = ~a_leaf & b_leaf
            if bm.any():
                mixed.append((lv.level, b[bm], lv.level, a[bm]))
            # interior x interior: children handle it (parity partition)
        if buf_a:
            self._record("p2p", lv, np.concatenate(buf_a), lv,
                         np.concatenate(buf_b))

    def _mixed_descent(self, queue: list) -> None:
        """AMR-boundary near-field: leaf cell vs refined cell.

        The refined side splits until the pair is well separated at the
        child scale (mixed M2L) or hits a leaf (P2P) — the paper's
        monopole-multipole / multipole-monopole kernel cases.
        """
        level_by_id = {lv.level: lv for lv in self.levels}
        while queue:
            leaf_lvl, leaf_idx, int_lvl, int_idx = queue.pop()
            lleaf = level_by_id[leaf_lvl]
            lint = level_by_id[int_lvl]
            lchild = level_by_id.get(int_lvl + 1)
            if lchild is None:
                # unbalanced input tree: treat as direct interaction
                self._record("p2p", lleaf, leaf_idx, lint, int_idx)
                continue
            # children of the interior cells (Morton-contiguous)
            child_parent = lchild.parent_slot
            order = np.argsort(child_parent, kind="stable")
            sorted_parents = child_parent[order]
            starts = np.searchsorted(sorted_parents, int_idx, side="left")
            ends = np.searchsorted(sorted_parents, int_idx, side="right")
            reps = ends - starts
            if (reps == 0).any():
                raise RuntimeError("interior cell without children")
            child_slots = np.concatenate([
                order[s:e] for s, e in zip(starts, ends)])
            leaf_rep = np.repeat(leaf_idx, reps)
            # separation test at the child scale, on geometric centres
            ctr_leaf = (lleaf.coords[leaf_rep] + 0.5) * lleaf.width
            ctr_child = (lchild.coords[child_slots] + 0.5) * lchild.width
            d2 = ((ctr_leaf - ctr_child) ** 2).sum(axis=1)
            far = d2 > OPENING_R2 * lchild.width ** 2
            if far.any():
                self._record_m2l(lleaf, leaf_rep[far], lchild,
                                 child_slots[far])
            near = ~far
            if near.any():
                c_leaf = lchild.leaf[child_slots[near]]
                if c_leaf.any():
                    self._record("p2p", lleaf, leaf_rep[near][c_leaf],
                                 lchild, child_slots[near][c_leaf])
                deeper = ~c_leaf
                if deeper.any():
                    queue.append((leaf_lvl, leaf_rep[near][deeper],
                                  int_lvl + 1, child_slots[near][deeper]))

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
        """For ``from_uniform`` solvers: (phi, acc) as cubic grids."""
        depth, M = self._uniform_shape
        lv = self.levels[depth]
        phi = np.zeros((M, M, M))
        acc = np.zeros((M, M, M, 3))
        sel = result.leaf_slots[depth]
        c = lv.coords[sel]
        phi[c[:, 0], c[:, 1], c[:, 2]] = result.phi[depth]
        acc[c[:, 0], c[:, 1], c[:, 2]] = result.acc[depth]
        return phi, acc
