"""The uniform mesh: the driver layer that owns state, boundaries and gravity.

One class, :class:`BlockMesh`: a box of cells cut into a lattice of equal
ghosted blocks — the paper's octree leaves at a fixed level, one
multi-sub-grid node.  Lattice and tile shape are constructor data:
``BlockMesh(3)`` is 3^3 blocks of the paper's 8^3 sub-grid,
``BlockMesh(1, n=(128, 8, 8))`` the Sod tube as one block, and any cut of
the same box advances byte-identically (tested as a property), which is
the paper's point that the runtime integration "does not change the
physics".

Storage is a *layout* frozen for one homes map ({block: locality}): a
greedy cover of every locality's blocks by boxes (:func:`_box_cover`),
one ghosted ``(NF, *(cells + 2 * NGHOST))`` array per box, and every
block an overlapping ghosted *view* of its box, so a block's ghost layers
inside the box are its neighbours' interiors — the paper's same-locality
sub-grids reading each other's memory directly (Sec. 4.1) with nothing
left to copy.  The rest of the ghost fill is a box-to-box plan: for each
destination box, source box and periodic image, the destination's ghost
shell meets the source's interior in one rectangle, and that rectangle is
one copy entry; the domain walls come last.  A ``BlockMesh`` homes every
block on one locality, so its layout is one box: no routes, image entries
only under ``periodic``, its six walls otherwise.  The sharded mesh
(:class:`repro.core.distmesh.DistBlockMesh`) is the same layout over
AGAS's homes; it adds only the homes, the cross-locality routes and the
transport that carries and counts them.  This module copies the
same-locality entries itself and imports no network layer.

The hydro right-hand side and the CFL reduction run per box: boxes of
one shape batch into one ``compute_rhs`` call of at most ``agg_slots``
sub-grids, and with an :class:`repro.core.exec.ExecutionEngine`
(work-stealing scheduler + GPU streams with CPU overflow) a box larger
than that is cut into a few balanced x-slabs of whole block layers, each
a zero-copy view posted as one task; the engine also coalesces the FMM
interaction batches into aggregated launches
(:mod:`repro.runtime.aggregate`) — the futurized execution style of
Sec. 4.1/5.1/5.2.  The blocks stay the unit of checkpoints, guards and
migration.  Self-gravity comes from the FMM solver when the mesh is a
cube of edge ``8 * 2^L`` cells.

The mesh — and :class:`repro.core.amr.AmrMesh` — advances through the one
stepping core, :func:`rk2_step`; a mesh injects only its ghost fill, its
right-hand-side evaluation and, optionally, a :class:`GravityCoupling`.

Boundary conditions: ``outflow`` (zero gradient), ``reflect`` (mirror,
normal momentum negated) and ``periodic``.

After a step, ``mesh.phi`` always holds the potential of the *current*
(post-step) density: the closing gravity solve of step N doubles as the
first-stage solve of step N+1 (the density is unchanged in between, so
the solve is reused, keeping the cost at two solves per step).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from ..runtime.aggregate import DEFAULT_AGG_SLOTS
from ..runtime.counters import default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .eos import IdealGas
from .grid import EGAS, LX, NF, NGHOST, RHO, SUBGRID_N, SX, TAU
from .gravity.fmm import FmmSolver
from .hydro.solver import HydroOptions, apply_floors, cfl_dt, compute_rhs
from .workspace import Workspace

__all__ = ["BlockMesh", "GravityCoupling", "fill_wall", "interior",
           "min_cfl_dt", "rk2_step", "subgrid_lattice"]


def interior(U: np.ndarray) -> np.ndarray:
    """View of a ghosted block without its ghost shell — the evolution
    state: the shell is scratch that every stage's fill rewrites."""
    g = NGHOST
    return U[:, g:-g, g:-g, g:-g]


def _conserved_totals(I: np.ndarray, dx: float,
                      origin: tuple[float, float, float],
                      phi: np.ndarray | None) -> dict:
    """Mass, momentum, gas energy, angular momentum of an interior array."""
    v = dx ** 3
    ax = [origin[d] + (np.arange(I.shape[1 + d]) + 0.5) * dx
          for d in range(3)]
    x, y, z = (ax[0][:, None, None], ax[1][None, :, None],
               ax[2][None, None, :])
    mom = np.array([I[SX].sum(), I[SX + 1].sum(), I[SX + 2].sum()]) * v
    lz = ((x * I[SX + 1] - y * I[SX]).sum() + I[LX + 2].sum()) * v
    lx = ((y * I[SX + 2] - z * I[SX + 1]).sum() + I[LX].sum()) * v
    ly = ((z * I[SX] - x * I[SX + 2]).sum() + I[LX + 1].sum()) * v
    out = {
        "mass": float(I[RHO].sum()) * v,
        "momentum": mom,
        "egas": float(I[EGAS].sum()) * v,
        "angular_momentum": np.array([lx, ly, lz]),
    }
    if phi is not None:
        out["etot"] = out["egas"] + 0.5 * float(
            (I[RHO] * phi).sum()) * v
    return out


# -- domain walls ---------------------------------------------------------------

_BCS = ("outflow", "reflect", "periodic")


def fill_wall(U: np.ndarray, axis: int, side: int, bc: str) -> None:
    """Fill the ghost slab of the low (``side`` -1) or high (+1) domain
    face along ``axis``.  The slab spans the full transverse extent, ghosts
    included, so sweeping the axes in order also fills edges and corners.
    ``periodic`` wraps the block onto itself; a :class:`BlockMesh` (and
    so a :class:`~repro.core.distmesh.DistBlockMesh`) wraps through its
    boxes' periodic image copies instead and fills walls only for the
    other conditions."""
    g = NGHOST
    n = U.shape[1 + axis] - 2 * g

    def sl(a, b):
        s = [slice(None)] * 4
        s[1 + axis] = slice(a, b)
        return tuple(s)

    if side < 0:
        ghost, edge, mirror, wrap = (sl(0, g), sl(g, g + 1), sl(g, 2 * g),
                                     sl(n, n + g))
    else:
        ghost, edge, mirror, wrap = (sl(n + g, n + 2 * g),
                                     sl(n + g - 1, n + g), sl(n, n + g),
                                     sl(g, 2 * g))
    if bc == "outflow":
        U[ghost] = U[edge]
    elif bc == "periodic":
        U[ghost] = U[wrap]
    elif bc == "reflect":
        U[ghost] = np.flip(U[mirror], 1 + axis)
        U[(SX + axis,) + ghost[1:]] *= -1.0
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")


# -- gravity coupling -----------------------------------------------------------

class GravityCoupling:
    """The FMM side of a self-gravitating uniform mesh: the shared
    :class:`FmmSolver` (built once, interaction plan built on the first
    solve), the contiguous ``mesh.shape`` density staging buffer it wants,
    and the end-of-step cache — the closing solve of step N, keyed by the
    density it was solved for, serves the first stage of step N+1
    (bit-identical to a fresh solve: same solver, same plan, same
    input).  ``mesh`` supplies ``shape``, ``dx``, ``engine`` (read at
    every solve: harnesses swap it) and the layout whose boxes the solves
    are handed."""

    def __init__(self, mesh) -> None:
        self._mesh = mesh
        self.solver: FmmSolver | None = None
        self.phi: np.ndarray | None = None
        self._rho: np.ndarray | None = None
        self._cache_rho: np.ndarray | None = None
        self._cache_acc: np.ndarray | None = None

    def _density(self, boxes: dict) -> np.ndarray:
        """Gather box-interior densities into the staging buffer."""
        if self._rho is None:
            self._rho = np.empty(self._mesh.shape)
        for b, box in boxes.items():
            self._rho[self._mesh._layout.boxes[b].cells] = interior(box)[RHO]
        return self._rho

    def _solve(self, rho: np.ndarray) -> np.ndarray:
        if self.solver is None:
            self.solver = FmmSolver.from_uniform(rho, self._mesh.dx,
                                                 subgrid_n=SUBGRID_N)
        depth = self.solver._uniform_shape[0]
        self.solver.set_leaf_density({depth: rho})
        self.phi, acc = self.solver.uniform_field(
            self.solver.solve(executor=self._mesh.engine))
        return np.moveaxis(acc, -1, 0)

    def solve(self, boxes: dict) -> np.ndarray:
        """Fresh solve for ``boxes`` ({box index: ghosted box}):
        acceleration ``(3, n, n, n)``; stores ``phi``."""
        return self._solve(self._density(boxes))

    def for_state(self, boxes: dict) -> np.ndarray:
        """Acceleration for ``boxes``, from the cache when their density
        is the one it was solved for (compared, never assumed)."""
        rho = self._density(boxes)
        if self._cache_rho is not None and np.array_equal(self._cache_rho,
                                                          rho):
            return self._cache_acc
        return self._solve(rho)

    def close_step(self, boxes: dict) -> None:
        """Post-step solve: ``phi`` matches the final density and the
        acceleration is cached for the next step's first stage."""
        self._cache_acc = self.solve(boxes)
        # the staging buffer holds the post-step density: swap, don't copy
        self._cache_rho, self._rho = self._rho, self._cache_rho

    def reset(self) -> None:
        """Drop the cache (after a rollback it describes a dead timeline)."""
        self._cache_rho = None
        self._cache_acc = None


# -- the stepping core ----------------------------------------------------------

def min_cfl_dt(blocks_dx: Iterable[tuple[np.ndarray, float]],
               options: HydroOptions, ws=None) -> float:
    """CFL reduction over ``(block, dx)`` pairs.  :func:`cfl_dt` reads
    interiors only, so ghost shells need not be filled first.  A NaN dt
    of any block is the result whatever the block order (Python's
    ``min`` would drop it unless it came first)."""
    return float(np.min([cfl_dt(U, dx, options, ws=ws)
                         for U, dx in blocks_dx]))


def rk2_step(mesh, blocks: dict, dt: float | None,
             fill: Callable[[dict, int], None],
             rhs: Callable[[dict, np.ndarray | None, int], dict],
             gravity: GravityCoupling | None = None) -> float:
    """One SSP-RK2 (Heun) step of ``blocks`` ({key: ghosted array}) in
    place; returns the dt used.  The uniform meshes hand over their boxes
    ({box index: ghosted box}), :class:`~repro.core.amr.AmrMesh` its
    blocks.  Every mesh class steps through here and injects what
    differs:

    ``fill(blocks, stage)``
        populate the ghost shells (walls, neighbour exchange), stage 0/1;
    ``rhs(blocks, acc, stage) -> {key: dU/dt}``
        interior right-hand sides of ghost-filled ``blocks`` under the
        acceleration ``acc`` (or ``None``) — per-block cell width and
        origin, task dispatch and refluxing live here;
    ``gravity``
        the mesh's :class:`GravityCoupling`, or ``None``.

    The predictor lives in ``mesh._stage`` buffers (made here, per key,
    where the mesh holds none; a mesh that drops them gets new ones)
    handed to the strategies explicitly — the mesh's own arrays are never
    rebound, so a fault raised mid-step leaves them in place for a
    checkpoint restore.  The update touches interiors only, and every
    fill rewrites the ghost shells before anything reads them.  A ``dt``
    that is not finite and positive is rejected before any block is
    written.
    """
    if dt is None:
        dt = mesh.compute_dt()
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    options = mesh.options
    eos = options.eos
    acc = gravity.for_state(blocks) if gravity is not None else None
    fill(blocks, 0)
    k1 = rhs(blocks, acc, 0)
    predicted = {}
    for key, U in blocks.items():
        U1 = mesh._stage.get(key)
        if U1 is None:
            U1 = mesh._stage[key] = np.empty_like(U)
        I = interior(U1)
        np.copyto(I, interior(U))
        I += dt * k1[key]
        apply_floors(I, options)
        predicted[key] = U1
    fill(predicted, 1)
    if gravity is not None:
        acc = gravity.solve(predicted)
    k2 = rhs(predicted, acc, 1)
    for key, U in blocks.items():
        I = interior(U)
        I += 0.5 * dt * (k1[key] + k2[key])
        apply_floors(I, options)
        I[TAU] = eos.sync_tau(I[RHO], I[SX], I[SX + 1], I[SX + 2],
                              I[EGAS], I[TAU])
    if gravity is not None:
        gravity.close_step(blocks)
    mesh.time += dt
    mesh.steps += 1
    default_registry().increment("/hydro/steps")
    return dt


def _per_axis(name: str, value, least: int) -> tuple[int, int, int]:
    """``value`` — an int or three of them — as a per-axis tuple of ints
    of at least ``least``."""
    axes = tuple(value) if isinstance(value, (tuple, list)) else (value,) * 3
    if len(axes) != 3 or not all(
            isinstance(v, (int, np.integer)) and v >= least for v in axes):
        raise ValueError(f"{name} must be an int >= {least} or three of "
                         f"them, got {value!r}")
    return tuple(int(v) for v in axes)


def subgrid_lattice(shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Blocks per axis of a ``shape``-cell box cut into ``SUBGRID_N``
    cubes — what :meth:`BlockMesh.retile` builds."""
    if any(s % SUBGRID_N for s in shape):
        raise ValueError(f"mesh shape {tuple(shape)} is not a multiple of "
                         f"the sub-grid edge {SUBGRID_N}")
    return tuple(s // SUBGRID_N for s in shape)


# -- the layout: boxes, views and the box-to-box ghost fill ---------------------

Block = tuple[int, int, int]


def _box_cover(owner: dict[Block, int]) -> list[tuple[int, Block, Block]]:
    """Greedy box cover of every locality's blocks: ``(locality, first
    block, past the last block)`` boxes.  From each block not yet covered
    (in sorted order) a box grows along z, then y, then x while every
    block it would take is uncovered and homed on the same locality — so
    a locality whose blocks form a box gets exactly that box."""
    free = set(owner)
    boxes = []
    for ip in sorted(owner):
        if ip not in free:
            continue
        loc, lo, hi = owner[ip], ip, [c + 1 for c in ip]
        for axis in (2, 1, 0):
            while True:
                face = list(zip(lo, hi))
                face[axis] = (hi[axis], hi[axis] + 1)
                grow = list(itertools.product(*(range(*f) for f in face)))
                if not all(b in free and owner[b] == loc for b in grow):
                    break
                hi[axis] += 1
        boxes.append((loc, lo, tuple(hi)))
        free -= set(itertools.product(*map(range, lo, hi)))
    return boxes


class _Box(NamedTuple):
    """One storage box: its locality, its window of the cell space and
    the blocks it holds."""

    locality: int
    cells: tuple
    n_blocks: int


class _Layout(NamedTuple):
    """The storage and ghost fill frozen for one homes map.

    ``boxes`` are the cover's boxes; ``views`` maps a block to ``(box,
    ghosted view)`` slices of that box's arrays; ``local`` holds the
    same-locality ``(dst box, ghost slab, src box, interior slab,
    nbytes)`` copy entries (``local_bytes`` in all), ``routes`` the
    cross-locality ones as :meth:`BlockMesh._routes` made them; ``walls``
    holds ``(box, axis, side)`` domain faces for :func:`fill_wall`."""

    homes: dict
    boxes: tuple
    views: dict
    local: tuple
    local_bytes: int
    routes: tuple
    walls: tuple

    @property
    def n_halos(self) -> int:
        return len(self.local) + sum(len(r.slabs) for r in self.routes)


class BlockMesh:
    """A uniform box of ``blocks`` x ``n`` cells: a lattice of equal
    ghosted blocks that are views of the boxes of one layout, stepped box
    by box by :func:`rk2_step`.

    Parameters
    ----------
    blocks:
        Blocks per edge, or per axis as a 3-tuple.
    n:
        Cells per block edge (at least the ghost width), or per axis;
        the paper's sub-grid is the default ``SUBGRID_N`` cube.
    domain:
        Physical length of the x edge, finite and positive (cells are
        cubes of ``dx = domain / (blocks[0] * n[0])``); the lower corner
        sits at ``origin``, three finite coordinates.
    bc:
        Boundary condition name applied on all six faces.
    engine:
        Optional :class:`repro.core.exec.ExecutionEngine` (work-stealing
        scheduler + GPU streams with CPU overflow): the hydro RHS calls
        and the FMM interaction batches then dispatch through it —
        futurized, bit-identical to serial.
    self_gravity:
        Solve gravity with the FMM each step (a cube of edge ``8 * 2^L``
        cells): one solver shared by all blocks, built on the first solve
        from the gathered interior densities.

    Each block is an HPX-component-like unit — what checkpoints store,
    guards scan and migration moves — but its memory is a window of its
    box: the blocks of one box read their neighbours' cells in place (the
    paper's local-communication optimisation, Sec. 4.1, taken to its end),
    so a stage copies only between boxes (and periodic images) and fills
    the domain walls, and the RHS runs in a few long sweeps per box
    instead of one short one per sub-grid.  ``BlockMesh`` homes every
    block on one locality: one box.  A subclass homes them elsewhere
    through two hooks, :meth:`_place` (the homes of the first layout) and
    :meth:`_routes` (what carries the cross-locality copy entries).  The
    tiling is data, not physics: any ``blocks`` x ``n`` cut of the same
    box advances byte-identically (tested).
    """

    def __init__(self, blocks: int | tuple[int, int, int],
                 n: int | tuple[int, int, int] = SUBGRID_N,
                 domain: float = 1.0,
                 origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 options: HydroOptions | None = None, bc: str = "outflow",
                 engine=None, self_gravity: bool = False):
        #: blocks per axis, cells per block per axis, cells per axis
        self.lattice = _per_axis("blocks", blocks, 1)
        # a block shows NGHOST interior layers to each neighbour (or wall)
        self.tile = _per_axis("n", n, NGHOST)
        self.shape = tuple(b * s for b, s in zip(self.lattice, self.tile))
        if bc not in _BCS:
            raise ValueError(f"bc must be one of {_BCS}, got {bc!r}")
        if not (np.isfinite(domain) and domain > 0):
            raise ValueError(
                f"domain must be finite and positive, got {domain!r}")
        origin = tuple(origin)
        if len(origin) != 3 or not np.all(np.isfinite(origin)):
            raise ValueError(
                f"origin must be three finite coordinates, got {origin!r}")
        leaves, odd = divmod(self.shape[0], SUBGRID_N)
        if self_gravity and (len(set(self.shape)) != 1 or odd
                             or leaves & (leaves - 1)):
            raise ValueError(
                f"self_gravity needs a cube of edge {SUBGRID_N} * 2^L cells "
                f"(the FMM level hierarchy must reach a single root "
                f"sub-grid), got {self.shape}")
        self.domain = float(domain)
        self.origin = tuple(float(c) for c in origin)
        self.dx = self.domain / self.shape[0]
        self.options = options or HydroOptions(eos=IdealGas())
        self.bc = bc
        self.engine = engine
        # cell centres along each axis the way a per-block evaluation
        # derives them (block corner + local offset), so every RHS call —
        # on a box, a slab or one block — sees the same coordinates bit
        # for bit
        self._centers = tuple(np.concatenate([
            (o + (i * s) * self.dx) + (np.arange(s) + 0.5) * self.dx
            for i in range(b)])
            for o, b, s in zip(self.origin, self.lattice, self.tile))
        self.time = 0.0
        self.steps = 0
        self.self_gravity = self_gravity
        self._gravity = GravityCoupling(self) if self_gravity else None
        # the kernel scratch, reused across steps (thread-local inside,
        # so futurized RHS tasks never alias)
        self._ws = Workspace()
        #: ``{lattice index: ghosted block}``, views of the layout's
        #: boxes; the interiors are the evolution state (what checkpoints
        #: store and guards scan)
        self.blocks: dict[Block, np.ndarray] = {}
        self._relayout(self._place())

    @classmethod
    def retile(cls, src: "BlockMesh", **kwargs) -> "BlockMesh":
        """``src`` — geometry, options, boundaries, gravity and state —
        cut into ``SUBGRID_N`` cubes; ``kwargs`` are the constructor's
        remaining arguments (``engine``, a subclass's own)."""
        mesh = cls(subgrid_lattice(src.shape), domain=src.domain,
                   origin=src.origin, options=src.options, bc=src.bc,
                   self_gravity=src.self_gravity, **kwargs)
        mesh.load_interior(src.gather_interior())
        return mesh

    # -- the layout -------------------------------------------------------------

    def _place(self) -> dict[Block, int]:
        """The homes the first layout is frozen for: every block on
        locality 0, so one box."""
        return dict.fromkeys(np.ndindex(*self.lattice), 0)

    def _routes(self, by_route: dict) -> tuple:
        """The layout's routes for the cross-locality copy entries
        (``{(src locality, dst locality): [entry]}``): one locality has
        none."""
        return ()

    def _relayout(self, homes: dict[Block, int]) -> None:
        """Freeze storage and ghost fill for ``homes``: the box cover, one
        zeroed ghosted array per box (``_boxes``) with every block's
        interior copied over from its previous view, the copy entries —
        same-locality ones direct, the rest through :meth:`_routes` — and
        the domain walls.  The predictors and the RHS outputs are made
        again on the next step."""
        g, tile = NGHOST, self.tile
        boxes, views = [], {}
        for loc, lo, hi in _box_cover(homes):
            boxes.append(_Box(loc, tuple(
                slice(l * s, h * s) for l, h, s in zip(lo, hi, tile)),
                math.prod(h - l for l, h in zip(lo, hi))))
            for ip in itertools.product(*map(range, lo, hi)):
                views[ip] = (len(boxes) - 1, (slice(None),) + tuple(
                    slice((c - l) * s, (c - l + 1) * s + 2 * g)
                    for c, l, s in zip(ip, lo, tile)))
        local, by_route, walls = self._halo_entries(boxes)
        self._layout = _Layout(
            dict(homes), tuple(boxes), views, tuple(local),
            sum(nbytes for *_, nbytes in local), self._routes(by_route),
            tuple(walls))
        old = self.blocks
        self._boxes = {b: np.zeros((NF,) + tuple(
            sl.stop - sl.start + 2 * g for sl in box.cells))
            for b, box in enumerate(boxes)}
        self.blocks = {ip: self._boxes[b][view]
                       for ip, (b, view) in views.items()}
        for ip, blk in old.items():
            np.copyto(interior(self.blocks[ip]), interior(blk))
        # rk2_step's predictor boxes and the per-stage RHS outputs
        self._stage, self._rhs_out = {}, {}

    def _halo_entries(self, boxes: list[_Box]) -> tuple[list, dict, list]:
        """The box-to-box ghost fill: one copy entry per (dst box, src
        box, periodic image) whose ghost shell and interior meet — split
        into same-locality entries and per-route ones — and, for the
        non-periodic boundary conditions, one wall per box face on the
        domain boundary.  A box's own cells copy nothing; under periodic
        boundaries its image across the seam is one more source (a
        one-box mesh wraps onto itself)."""
        g, shape = NGHOST, self.shape
        periodic = self.bc == "periodic"
        local, by_route, walls = [], {}, []
        for d, dst in enumerate(boxes):
            origin = [sl.start - g for sl in dst.cells]
            end = [sl.stop + g for sl in dst.cells]
            # a source image shifted by a whole domain matters only where
            # the ghosted box reaches past that side of the domain
            images = itertools.product(*(
                [0] + ([-n] if o < 0 else []) + ([n] if e > n else [])
                if periodic else [0]
                for o, e, n in zip(origin, end, shape)))
            for shift in images:
                for s, src in enumerate(boxes):
                    if s == d and not any(shift):
                        continue
                    lo = [max(o, sl.start + t) for o, sl, t in
                          zip(origin, src.cells, shift)]
                    hi = [min(e, sl.stop + t) for e, sl, t in
                          zip(end, src.cells, shift)]
                    if any(a >= b for a, b in zip(lo, hi)):
                        continue
                    ghost = (slice(None),) + tuple(
                        slice(a - o, b - o) for a, b, o in zip(lo, hi, origin))
                    layer = (slice(None),) + tuple(
                        slice(a - t - sl.start + g, b - t - sl.start + g)
                        for a, b, t, sl in zip(lo, hi, shift, src.cells))
                    entry = (d, ghost, s, layer,
                             8 * NF * math.prod(b - a for a, b in zip(lo, hi)))
                    if src.locality == dst.locality:
                        local.append(entry)
                    else:
                        by_route.setdefault((src.locality, dst.locality),
                                            []).append(entry)
            if not periodic:
                walls.extend(
                    (d, axis, side) for axis in range(3) for side in (-1, 1)
                    if (dst.cells[axis].start == 0 if side < 0
                        else dst.cells[axis].stop == shape[axis]))
        return local, by_route, walls

    @staticmethod
    def _copy_halos(boxes: dict, halos) -> None:
        """``dst[ghost] = src[layer]`` for every entry: a strided copy
        straight out of the source box's interior.  A caller that counts
        halos books the copies with its transport (lint rule REPRO007)."""
        sanitize = _sanitize_state.ACTIVE
        for dst, ghost, src, layer, _ in halos:
            if sanitize:
                _racecheck.access(boxes[src], "r", owner="halo/src-box")
                _racecheck.access(boxes[dst], "w", owner="halo/dst-box")
            boxes[dst][ghost] = boxes[src][layer]

    def _fill_walls(self, boxes: dict) -> None:
        """Domain walls, after the copies: a wall slab spans the
        transverse ghosts the neighbours just filled."""
        sanitize = _sanitize_state.ACTIVE
        for box, axis, side in self._layout.walls:
            if sanitize:
                _racecheck.access(boxes[box], "w", owner="halo/dst-box")
            fill_wall(boxes[box], axis, side, self.bc)

    # -- geometry and state as one flat array -----------------------------------

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = [self.origin[d] + (np.arange(self.shape[d]) + 0.5) * self.dx
              for d in range(3)]
        return (ax[0][:, None, None], ax[1][None, :, None],
                ax[2][None, None, :])

    def _window(self, ip: tuple[int, int, int]) -> tuple:
        """Where block ``ip`` sits in a ``(fields, *shape)`` array."""
        return (slice(None),) + tuple(
            slice(i * s, (i + 1) * s) for i, s in zip(ip, self.tile))

    @property
    def interior(self) -> np.ndarray:
        """Writable ``(NF, *shape)`` view of a one-block mesh's state; a
        tiled mesh has :meth:`gather_interior` / :meth:`load_interior`."""
        if len(self.blocks) != 1:
            raise AttributeError(
                f"a {self.lattice} tiling has no contiguous interior: use "
                f"gather_interior() / load_interior()")
        return interior(self.blocks[0, 0, 0])

    def load_interior(self, full: np.ndarray) -> None:
        """Scatter a ``(NF, *shape)`` interior into the blocks."""
        for ip, blk in self.blocks.items():
            interior(blk)[...] = full[self._window(ip)]

    def gather_interior(self) -> np.ndarray:
        full = np.zeros((NF,) + self.shape)
        for ip, blk in self.blocks.items():
            full[self._window(ip)] = interior(blk)
        return full

    def load_primitives(self, rho, vx, vy, vz, p) -> None:
        """Initialize conserved state from primitive fields (broadcastable
        to ``shape``); the other fields keep what they hold."""
        eos = self.options.eos
        I = self.gather_interior()
        rho = np.broadcast_to(np.asarray(rho, float), self.shape)
        I[RHO] = rho
        for d, v in enumerate((vx, vy, vz)):
            I[SX + d] = rho * np.broadcast_to(np.asarray(v, float),
                                              self.shape)
        p = np.broadcast_to(np.asarray(p, float), self.shape)
        eint = p / (eos.gamma - 1.0)
        kin = 0.5 * (I[SX] ** 2 + I[SX + 1] ** 2 + I[SX + 2] ** 2) \
            / np.maximum(rho, self.options.rho_floor)
        I[EGAS] = eint + kin
        I[TAU] = eos.tau_from_eint(eint)
        self.load_interior(I)

    # -- gravity ------------------------------------------------------------------

    @property
    def phi(self) -> np.ndarray | None:
        """Potential of the last gravity solve (``None`` before one)."""
        return self._gravity.phi if self._gravity is not None else None

    # -- stepping: fill, RHS and CFL per box -----------------------------------

    def compute_dt(self) -> float:
        """CFL reduction: one :func:`cfl_dt` per box (the minimum over
        blocks, bit for bit; NaN wherever it sits)."""
        return min_cfl_dt(((box, self.dx) for box in self._boxes.values()),
                          self.options, ws=self._ws)

    def _fill(self, boxes: dict, stage: int) -> None:
        """Ghost fill of one stage's ``boxes`` ({box index: array}) along
        the frozen layout: the direct copy entries, then the domain
        walls.  Every ghost layer inside a box is a neighbour's interior
        already."""
        self._copy_halos(boxes, self._layout.local)
        self._fill_walls(boxes)

    def _rhs(self, boxes: dict, acc: np.ndarray | None, stage: int) -> dict:
        """``{box index: dU/dt}`` of one stage's ghost-filled ``boxes``.

        One rule: boxes of one shape batch into one :func:`compute_rhs`
        call of at most ``agg_slots`` sub-grids (:data:`DEFAULT_AGG_SLOTS`
        without an engine; a larger box runs alone), and with an engine a
        box of more than ``agg_slots`` sub-grids is cut into
        ``min(layers, ceil(blocks / agg_slots))`` balanced x-slabs of
        whole block layers, each a zero-copy ghosted view that writes its
        window of the box's output — so ``agg_slots`` sizes a task in
        sub-grids.  Centres and accelerations are windows of the mesh's.
        A batch's output is one ``(NF, boxes, *box)`` array; each stage
        owns its own, allocated once (again if the batching changes)."""
        engine, layout, tx = self.engine, self._layout, self.tile[0]
        slots = DEFAULT_AGG_SLOTS if engine is None else engine.agg_slots
        by_shape: dict = {}
        for b, U in boxes.items():
            by_shape.setdefault(U.shape, []).append(b)
        batches = []
        for members in by_shape.values():
            per_call = max(1, slots // layout.boxes[members[0]].n_blocks)
            batches.extend(members[i:i + per_call]
                           for i in range(0, len(members), per_call))
        shapes = [(NF, len(batch)) + tuple(
            n - 2 * NGHOST for n in boxes[batch[0]].shape[1:])
            for batch in batches]
        outs = self._rhs_out.get(stage)
        if outs is None or [out.shape for out in outs] != shapes:
            outs = self._rhs_out[stage] = [np.empty(s) for s in shapes]
        k, calls = {}, []
        for batch, out in zip(batches, outs):
            layers = out.shape[2] // tx
            # > 1 only for a box of more than agg_slots sub-grids, alone
            n_slabs = 1 if engine is None else min(
                layers, -(-layout.boxes[batch[0]].n_blocks // slots))
            for s in range(n_slabs):
                x = slice(layers * s // n_slabs * tx,
                          layers * (s + 1) // n_slabs * tx)
                windows = [(slice(c[0].start + x.start, c[0].start + x.stop),
                            ) + c[1:] for c in
                           (layout.boxes[b].cells for b in batch)]
                calls.append((
                    [boxes[b][:, x.start:x.stop + 2 * NGHOST] for b in batch],
                    self.dx, self.options,
                    None if acc is None else [
                        acc[(slice(None),) + w] for w in windows],
                    False, out[:, :, x], self._ws,
                    [tuple(c[sl] for c, sl in zip(self._centers, w))
                     for w in windows]))
            k.update((b, out[:, i]) for i, b in enumerate(batch))
        self._run_rhs(calls)
        return k

    def _run_rhs(self, calls: list) -> None:
        """``compute_rhs(*args)`` for every call: in turn on the calling
        thread without an engine, else each posted as one engine task.
        RHS tasks stay on CPU workers (``use_device=False``); a call
        fully overwrites its output, so a supervised retry of one is
        idempotent."""
        if self.engine is None:
            for args in calls:
                compute_rhs(*args)
            return
        for fut in [self.engine.submit(compute_rhs, *args, use_device=False)
                    for args in calls]:
            fut.get()

    def step(self, dt: float | None = None) -> float:
        """One SSP-RK2 step of the boxes (futurized when an engine is
        present); returns the dt used."""
        return rk2_step(self, self._boxes, dt, self._fill, self._rhs,
                        self._gravity)

    def on_restore(self) -> None:
        """Rollback hook of
        :class:`repro.resilience.checkpoint.CheckpointManager`: the gravity
        cache holds post-fault state."""
        if self._gravity is not None:
            self._gravity.reset()

    # -- diagnostics ------------------------------------------------------------

    def conserved_totals(self) -> dict[str, float | np.ndarray]:
        """Mass, momentum, gas energy, total angular momentum (+spin)."""
        return _conserved_totals(self.gather_interior(), self.dx,
                                 self.origin, self.phi)
