"""The uniform mesh: the driver layer that owns state, boundaries and gravity.

One class, :class:`BlockMesh`: a box of cells cut into a lattice of equal
ghosted blocks — the paper's octree leaves at a fixed level, one
multi-sub-grid node.  Lattice and tile shape are constructor data:
``BlockMesh(3)`` is 3^3 blocks of the paper's 8^3 sub-grid,
``BlockMesh(1, n=(128, 8, 8))`` the Sod tube as one block, and any cut of
the same box advances byte-identically (tested as a property), which is
the paper's point that the runtime integration "does not change the
physics".

One address space holds one box: the state is a single ghosted
``(NF, *(shape + 2 * NGHOST))`` array (a second one, made on the first
step, holds the RK predictor), and every block is an overlapping ghosted *view* of it, so a
block's ghost layers are its neighbours' interiors — the paper's
same-locality sub-grids reading each other's memory directly (Sec. 4.1)
with nothing left to copy.  A stage's ghost fill is the one-block fill
of the box's six domain walls, and the hydro right-hand side is one
``compute_rhs`` sweep over the box; with an
:class:`repro.core.exec.ExecutionEngine` (work-stealing scheduler + GPU
streams with CPU overflow) the box is cut into a few balanced x-slabs of
whole block layers, each a zero-copy view posted as one task, and the
engine coalesces the FMM interaction batches into aggregated launches
(:mod:`repro.runtime.aggregate`) — the futurized execution style of
Sec. 4.1/5.1/5.2.  The blocks stay the unit of checkpoints, guards and
migration; a mesh sharded over localities keeps one such box per
locality (:class:`repro.core.distmesh.DistBlockMesh`).  Self-gravity comes
from the FMM solver when the box is a cube of edge ``8 * 2^L`` cells.

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

from typing import Callable, Iterable

import numpy as np

from ..runtime.counters import default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .eos import IdealGas
from .grid import EGAS, LX, NF, NGHOST, RHO, SUBGRID_N, SX, TAU
from .gravity.fmm import FmmSolver
from .hydro.solver import HydroOptions, apply_floors, cfl_dt, compute_rhs
from .workspace import Workspace

__all__ = ["BlockMesh", "GravityCoupling", "apply_boundary",
           "fill_wall", "interior", "min_cfl_dt", "rk2_step",
           "subgrid_lattice"]


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
    ``periodic`` wraps the block onto itself — a :class:`BlockMesh` box
    included (a :class:`~repro.core.distmesh.DistBlockMesh` wraps through
    its box-to-box copies instead)."""
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


def apply_boundary(U: np.ndarray, bc: str) -> None:
    """Fill the ghost shell of a block according to ``bc``."""
    for axis in range(3):
        for side in (-1, 1):
            fill_wall(U, axis, side, bc)


# -- gravity coupling -----------------------------------------------------------

class GravityCoupling:
    """The FMM side of a self-gravitating uniform mesh: the shared
    :class:`FmmSolver` (built once, interaction plan built on the first
    solve), the contiguous ``mesh.shape`` density staging buffer it wants,
    and the end-of-step cache — the closing solve of step N, keyed by the
    density it was solved for, serves the first stage of step N+1
    (bit-identical to a fresh solve: same solver, same plan, same
    input).  ``mesh`` supplies ``shape``, ``dx`` and ``engine``
    (read at every solve: harnesses swap it)."""

    def __init__(self, mesh) -> None:
        self._mesh = mesh
        self.solver: FmmSolver | None = None
        self.phi: np.ndarray | None = None
        self._rho: np.ndarray | None = None
        self._cache_rho: np.ndarray | None = None
        self._cache_acc: np.ndarray | None = None

    def _density(self, blocks: dict) -> np.ndarray:
        """Gather block-interior densities into the staging buffer."""
        if self._rho is None:
            self._rho = np.empty(self._mesh.shape)
        for ip, blk in blocks.items():
            self._rho[self._mesh._window(ip)[1:]] = interior(blk)[RHO]
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

    def solve(self, blocks: dict) -> np.ndarray:
        """Fresh solve: acceleration ``(3, n, n, n)``; stores ``phi``."""
        return self._solve(self._density(blocks))

    def for_state(self, blocks: dict) -> np.ndarray:
        """Acceleration for ``blocks``, from the cache when their density
        is the one it was solved for (compared, never assumed)."""
        rho = self._density(blocks)
        if self._cache_rho is not None and np.array_equal(self._cache_rho,
                                                          rho):
            return self._cache_acc
        return self._solve(rho)

    def close_step(self, blocks: dict) -> None:
        """Post-step solve: ``phi`` matches the final density and the
        acceleration is cached for the next step's first stage."""
        self._cache_acc = self.solve(blocks)
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
    """One SSP-RK2 (Heun) step of ``blocks`` ({key: ghosted block}) in
    place; returns the dt used.  Every mesh class steps through here and
    injects what differs:

    ``fill(blocks, stage)``
        populate the ghost shells (walls, neighbour exchange), stage 0/1;
    ``rhs(blocks, acc, stage) -> {key: dU/dt}``
        interior right-hand sides of ghost-filled ``blocks`` under the
        acceleration ``acc`` (or ``None``) — per-block cell width and
        origin, task dispatch and refluxing live here;
    ``gravity``
        the mesh's :class:`GravityCoupling`, or ``None``.

    The predictor lives in ``mesh._stage`` buffers (made here, per key,
    where the mesh holds none) handed to the
    strategies explicitly — the mesh's own blocks are never rebound, so a
    fault raised mid-step leaves them in place for a checkpoint restore.
    The update touches interiors only: blocks may be overlapping views of
    one array (a :class:`BlockMesh` box), where a block's ghost layers
    are a neighbour's interior, and every fill rewrites the ghosts before
    anything reads them.  A ``dt`` that is not finite and positive is
    rejected before any block is written.
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


class BlockMesh:
    """A uniform box of ``blocks`` x ``n`` cells: a lattice of equal
    ghosted blocks that are views of one ghosted box, stepped by
    :func:`rk2_step`.

    Parameters
    ----------
    blocks:
        Blocks per edge, or per axis as a 3-tuple.
    n:
        Cells per block edge (at least the ghost width), or per axis;
        the paper's sub-grid is the default ``SUBGRID_N`` cube.
    domain:
        Physical length of the x edge (cells are cubes of
        ``dx = domain / (blocks[0] * n[0])``); the lower corner sits at
        ``origin``.
    bc:
        Boundary condition name applied on all six faces.
    engine:
        Optional :class:`repro.core.exec.ExecutionEngine` (work-stealing
        scheduler + GPU streams with CPU overflow): the hydro RHS slabs
        and the FMM interaction batches then dispatch through it —
        futurized, bit-identical to serial.
    self_gravity:
        Solve gravity with the FMM each step (a cube of edge ``8 * 2^L``
        cells): one solver shared by all blocks, built on the first solve
        from the gathered interior densities.

    Each block is an HPX-component-like unit — what checkpoints store,
    guards scan and the gravity coupling gathers — but its memory is a
    window of the mesh's one ghosted box: the blocks of one address space
    read their neighbours' cells in place (the paper's local-communication
    optimisation, Sec. 4.1, taken to its end), so a stage fills only the
    box's domain walls and evaluates the RHS in a few long sweeps instead
    of one short one per sub-grid.  The tiling is data, not physics: any
    ``blocks`` x ``n`` cut of the same box advances byte-identically
    (tested).
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
        if not domain > 0:
            raise ValueError(f"domain must be positive, got {domain}")
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
        # on the box, a slab or one block — sees the same coordinates bit
        # for bit
        self._centers = tuple(np.concatenate([
            (o + (i * s) * self.dx) + (np.arange(s) + 0.5) * self.dx
            for i in range(b)])
            for o, b, s in zip(self.origin, self.lattice, self.tile))
        #: ``{lattice index: ghosted block}``; the interiors are the
        #: evolution state (what checkpoints store and guards scan)
        self.blocks: dict[tuple[int, int, int], np.ndarray] = \
            self._allocate()
        # the predictor blocks, made on the first step: a mesh that never
        # steps (a scenario's source mesh) holds none
        self._stage: dict = {}
        self.time = 0.0
        self.steps = 0
        self.self_gravity = self_gravity
        self._gravity = GravityCoupling(self) if self_gravity else None
        # per-stage RHS outputs and the kernel scratch, reused across
        # steps (the workspace is thread-local inside, so futurized RHS
        # tasks never alias)
        self._rhs_out: dict = {}
        self._ws = Workspace()

    def _allocate(self) -> dict:
        """State storage: one ghosted box (``_boxes[0]``), the blocks
        overlapping ghosted views of it."""
        self._boxes = [np.zeros((NF,) + tuple(s + 2 * NGHOST
                                              for s in self.shape))]
        return self._views(self._boxes[0])

    def _predictors(self) -> dict:
        """Predictor storage: a second box (``_boxes[1]``) and its views,
        uninitialised — every step writes its interior and fills its
        walls before reading it."""
        self._boxes.append(np.empty_like(self._boxes[0]))
        return self._views(self._boxes[1])

    def _views(self, box: np.ndarray) -> dict:
        """``{ip: ghosted view}``: block ``ip`` covers its window of the
        box widened by ``NGHOST`` cells on every side, so its ghost
        layers *are* its neighbours' interior layers."""
        return {ip: box[(slice(None),) + tuple(
            slice(i * s, (i + 1) * s + 2 * NGHOST)
            for i, s in zip(ip, self.tile))]
            for ip in np.ndindex(*self.lattice)}

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

    # -- stepping: fill, RHS and CFL on the box --------------------------------

    def compute_dt(self) -> float:
        """CFL reduction: one :func:`cfl_dt` over the box interior (the
        minimum over blocks, bit for bit; NaN wherever it sits)."""
        return cfl_dt(self._boxes[0], self.dx, self.options, ws=self._ws)

    def _fill(self, blocks: dict, stage: int) -> None:
        """Ghost fill of the box of ``stage`` (``blocks`` are its views):
        the one-block fill of its six domain walls — periodic wraps the
        box onto itself.  Every ghost layer inside the box is a
        neighbour's interior already."""
        box = self._boxes[stage]
        if _sanitize_state.ACTIVE:
            _racecheck.access(box, "w", owner="halo/box")
        apply_boundary(box, self.bc)

    def _rhs(self, blocks: dict, acc: np.ndarray | None, stage: int) -> dict:
        """The hydro RHS on the ghost-filled box of ``stage`` (``blocks``
        are its views): one :func:`compute_rhs` call without an engine.
        With one, the box is cut into ``min(lattice[0], ceil(len(blocks)
        / engine.agg_slots))`` balanced x-slabs of whole block layers,
        each a zero-copy ghosted view of the box posted as one task that
        writes its own window of the stage's ``(NF, *shape)`` output, so
        ``agg_slots`` still sizes a task in sub-grids.  ``k[key]`` are
        views of that output; the two stages' outputs must coexist, so
        each stage owns its own, allocated once."""
        box = self._boxes[stage]
        out = self._rhs_out.get(stage)
        if out is None:
            out = self._rhs_out[stage] = np.empty((NF,) + self.shape)
        engine = self.engine
        layers, tx = self.lattice[0], self.tile[0]
        n_slabs = 1 if engine is None else min(
            layers, -(-len(blocks) // engine.agg_slots))
        calls = []
        for s in range(n_slabs):
            cells = slice(layers * s // n_slabs * tx,
                          layers * (s + 1) // n_slabs * tx)
            ghosted = slice(cells.start, cells.stop + 2 * NGHOST)
            calls.append((box[:, ghosted], self.dx, self.options,
                          None if acc is None else acc[:, cells], False,
                          out[:, cells], self._ws,
                          (self._centers[0][cells],) + self._centers[1:]))
        self._run_rhs(calls)
        return {ip: out[self._window(ip)] for ip in blocks}

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
        """One SSP-RK2 step across all blocks (futurized when an engine
        is present); returns the dt used."""
        if not self._stage:
            self._stage = self._predictors()
        return rk2_step(self, self.blocks, dt, self._fill, self._rhs,
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
