"""The unsplit finite-volume update (Sec. 4.2).

Combines PPM reconstruction with Kurganov-Tadmor fluxes into the
conservative right-hand side of a batch of blocks, adds gravity and
rotating-frame sources, and implements the angular-momentum bookkeeping
of Despres & Labourasse (2015) as used by Octo-Tiger: a spin field absorbs
exactly the angular momentum the cell-centred momentum update cannot
represent, so

    sum_cells [ x cross s + l ]

changes only through boundary fluxes (conserved to machine precision on a
closed domain — the Sec. 4.2 claim, tested in
``tests/core/test_hydro_conservation.py``).

The module is dimension-agnostic: blocks are (NF, m, m, m) arrays with
``NGHOST`` ghost layers, of any interior size (one 8^3 sub-grid — a
uniform mesh's block or an AMR leaf — or a whole box of them).

Time integration is not here: the SSP-RK2 stepping core every mesh shares
is :func:`repro.core.mesh.rk2_step`.

Batching and layout (Sec. 4.3 kernel rework, and the work aggregation of
arXiv 2210.06438): :func:`compute_rhs` evaluates a whole *batch* of
equally shaped blocks — one aggregation chunk of 8^3 sub-grids — in one
pass, field-major ``(NF, B, ...)`` inside.  There is one call shape, a
list of blocks: a single block is a batch of one (``[U]``, result
``[:, 0]``), and so is the node-level mesh's whole box (or an x-slab of
it), whose sweeps are longer still; an AMR tree batches each level's
leaves.  An 8^3 sub-grid alone is too small for numpy: its PPM sweep is
~33 ufunc calls per field on strided views of at most 896 doubles, all
interpreter and dispatch overhead.  So every sweep is *pencil-major*:
per axis the carried primitives (the live rows below), restricted to
the interior transversally, are copied once into
``(rows, m, B, n, n)`` with the sweep axis leading; reconstruction and
fluxes then stream contiguous runs of at least ``B * n^2`` doubles, and
the flux difference is added back through a ``moveaxis`` view of the
output.  This is layout only — every
expression keeps its operands and order and is elementwise across
blocks — so each block's result is bitwise
:func:`repro.validation.reference.compute_rhs_reference` of that block,
the original per-block allocate-per-stage kernel composition kept as the
test oracle and microbenchmark baseline.

Two shortcuts skip arithmetic whose result is known bit for bit; the
oracle runs all of it.  Null rows: an advected field (TAU..NF-1) whose
primitives are +-0 over the whole batch, ghosts included (``not
W[f].any()``, NaN counting as nonzero), has faces equal to its cells
(see below), so every KT term ``rho (+-0) u_n`` and ``half_a (+-0 -
+-0)`` is +-0 as long as ``rho``, ``u_n`` and ``half_a`` are finite on
every face, and ``+0.0 + (+-0)`` is ``+0.0``.  Each call therefore
decides once which fields it carries ("live rows": RHO..EGAS first,
then the advected fields that are not null), and the pencils, PPM,
:func:`kt_flux` and the flux difference hold only those; the null rows
of ``rhs`` keep the ``+0.0`` they were zeroed to.  The spin correction
writes the spin rows from the momentum fluxes, which are always live,
and a row summed from ``+0.0`` never holds ``-0.0``, so the ``+-0`` it
skips would change no bit.  The guard: a non-finite ``rho``, ``u_n`` or
``half_a`` makes the density flux non-finite, so if ``F[RHO]`` is not
all finite on some axis the call is redone with every field carried,
and non-finite input gets the oracle's NaN rows.  ``return_fluxes``
carries every row, because AMR refluxing reads them all.  Uniform
fields: a carried pencil field that is uniform over the whole batch
(the momenta of a gas at rest, an AMR sub-grid in a quiet atmosphere)
reconstructs to itself bit for bit, so the fused PPM copies it instead
of running the arithmetic (:mod:`.reconstruct`).

Scratch: :func:`compute_rhs` and :func:`cfl_dt` accept a
:class:`repro.core.workspace.Workspace` (and ``compute_rhs`` an ``out=``
array) so steady-state stepping reuses the primitive batch, pencils, face
states and flux arrays across axes, chunks, stages and steps.  Each
quantity is computed once into memory that already exists: the
primitives straight into their slot of the batch, every face clipped
once (:mod:`.reconstruct`), the KT intermediates into the pencil buffer,
which is dead once PPM has read it (its ``NF`` rows of ``n + 6`` cells
hold :data:`.riemann.KT_SCRATCH` face arrays), and the flux difference
and the spin term ``0.5 (Flo + Fhi)`` into ``rhs:dF``, laid out like
``rhs`` so the adds into it walk one memory order.  A steady-state call
on the 24^3 Sedov box allocates no array; its traced peak is one 64 KB
buffer numpy's iterator takes where the flux difference changes layout
(gated below one face row by ``benchmarks/test_kernels_micro.py``).
Memory is the constraint on the batch size: the scratch of an 8-block
batch of 8^3 sub-grids is ~5 MB per calling thread (the primitive batch
is half of it), so blocks are converted to primitives one by one
straight into the batch and sources are added per block from the live
blocks — nothing conserved is staged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...sanitize import racecheck as _racecheck
from ...sanitize import state as _sanitize_state
from ..eos import IdealGas
from ..grid import EGAS, LX, NF, NGHOST, RHO, SX, TAU
from ..workspace import Workspace
from .reconstruct import ppm_faces
from .riemann import (KT_SCRATCH, conserved_signal_speed,
                      conserved_to_primitive, kt_flux)

__all__ = ["HydroOptions", "compute_rhs", "cfl_dt", "apply_floors"]


@dataclass(frozen=True)
class HydroOptions:
    """Solver configuration."""

    eos: IdealGas
    cfl: float = 0.4
    rho_floor: float = 1e-12
    #: angular velocity of the rotating frame about z (Sec. 4.2: "a
    #: rotating Cartesian grid"); 0 = inertial frame
    omega: float = 0.0
    #: evolve the Despres-Labourasse spin correction
    spin_correction: bool = True

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl: need 0 < cfl <= 1, got {self.cfl!r}")
        if not (np.isfinite(self.rho_floor) and self.rho_floor > 0.0):
            raise ValueError(
                f"rho_floor: need a finite positive density, got "
                f"{self.rho_floor!r}")
        if not np.isfinite(self.omega):
            raise ValueError(
                f"omega: need a finite angular velocity, got {self.omega!r}")
        # one definition of vacuum for the whole stack: the EOS clamps in
        # sound_speed/kinetic must agree with the floor applied to the
        # state, or a cell below the solver floor divides by a smaller
        # number than the solver ever allows (see eos.IdealGas).
        self.eos.rho_floor = self.rho_floor


def _check_dx(dx) -> None:
    if not (np.isfinite(dx) and dx > 0.0):
        raise ValueError(f"dx: need a finite positive cell width, got {dx!r}")


def _check_batch(blocks, dx, gravity, out, centers) -> tuple:
    """Reject a malformed batch before any arithmetic; returns the
    interior shape shared by its blocks."""
    _check_dx(dx)
    g = NGHOST
    if len(blocks) == 0:
        raise ValueError("compute_rhs needs at least one block")
    full = np.shape(blocks[0])
    if len(full) != 4 or full[0] != NF or min(full[1:]) <= 2 * g:
        raise ValueError(
            f"blocks must be ghosted (NF={NF}, m, m, m) arrays with "
            f"m > {2 * g}, got {full}")
    for b, blk in enumerate(blocks):
        if np.shape(blk) != full:
            raise ValueError(
                f"ragged batch: block {b} has shape {np.shape(blk)}, "
                f"block 0 {full}")
    shape = tuple(m - 2 * g for m in full[1:])
    B = len(blocks)
    if gravity is not None:
        if len(gravity) != B:
            raise ValueError(
                f"gravity: {len(gravity)} fields for {B} blocks")
        for b, acc in enumerate(gravity):
            if np.shape(acc) != (3,) + shape:
                raise ValueError(
                    f"gravity: block {b} needs shape {(3,) + shape}, "
                    f"got {np.shape(acc)}")
    if centers is not None:
        if len(centers) != B:
            raise ValueError(
                f"centers: {len(centers)} coordinate sets for {B} blocks")
        for b, axes in enumerate(centers):
            if [np.shape(a) for a in axes] != [(n,) for n in shape]:
                raise ValueError(
                    f"centers: block {b} needs axes of lengths {shape}, "
                    f"got {[np.shape(a) for a in axes]}")
    if out is not None:
        want = (NF, B) + shape
        if np.shape(out) != want:
            raise ValueError(
                f"out: need shape {want}, got {np.shape(out)}")
    return shape


def compute_rhs(U, dx: float, options: HydroOptions,
                gravity=None, return_fluxes: bool = False,
                out: np.ndarray | None = None, ws=None, centers=None):
    """dU/dt of the interiors of a batch of ghost-filled blocks.

    Parameters
    ----------
    U:
        A list of ``B`` equally shaped conserved blocks
        (NF, n+2g, n+2g, n+2g), ghosts filled — one aggregation chunk of
        sub-grids, one AMR level, or ``[box]``, a whole box of
        sub-grids as a batch of one.
    dx:
        Cell width, shared by the batch.
    gravity:
        Optional per-block (3, n, n, n) acceleration fields on the
        interiors.
    return_fluxes:
        Also return the per-axis face-flux arrays (for AMR refluxing),
        in block layout (NF, B, ...).  They are freshly allocated —
        never workspace views — so the caller may hold them across
        further solver calls.
    out:
        Optional (NF, B, n, n, n) output; fully overwritten, so running
        the same call again (a supervised retry) is idempotent.
    ws:
        Optional :class:`repro.core.workspace.Workspace` backing the
        primitive batch, pencils, face states and flux scratch.
    centers:
        Optional per-block ``(x, y, z)`` cell-centre coordinates of the
        interior, one 1-D array per axis: the positions the
        rotating-frame sources see (a mesh passes the coordinates each
        sub-grid derives from its own corner).  ``None`` puts every
        block's lower interior corner at the coordinate origin.

    Returns ``rhs`` with shape (NF, B, n, n, n) (plus fluxes if requested);
    block ``b`` of the batch is ``rhs[:, b]``.

    Every expression is elementwise across blocks and transverse columns,
    so the result of block ``b`` does not depend on what else is in the
    batch, on ``B``, or on the order of the blocks: it is bitwise
    :func:`repro.validation.reference.compute_rhs_reference` of that
    block alone.
    """
    g = NGHOST
    shape = _check_batch(U, dx, gravity, out, centers)
    B = len(U)
    if gravity is None:
        gravity = [None] * B
    if centers is None:
        centers = [tuple((np.arange(n) + 0.5) * dx for n in shape)] * B
    if ws is None:
        ws = Workspace()
    if out is None:
        out = np.empty((NF, B) + shape)
    if _sanitize_state.ACTIVE:
        # shadow-access declarations: this task body reads its conserved
        # blocks (and their gravity) and overwrites the shared out= buffer
        for blk, acc in zip(U, gravity):
            _racecheck.access(blk, "r", owner="hydro/U")
            if acc is not None:
                _racecheck.access(acc, "r", owner="hydro/gravity")
        _racecheck.access(out, "w", owner="hydro/rhs-out")
    # primitives, each block converted straight into its slot of the batch
    W = ws.buf("rhs:W", (NF, B) + tuple(n + 2 * g for n in shape))
    for b, blk in enumerate(U):
        conserved_to_primitive(blk, options.eos, options.rho_floor,
                               out=W[:, b], ws=ws)
    fluxes = [] if return_fluxes else None
    # AMR refluxing reads every row of the fluxes, so they carry all
    live = _ALL_ROWS if return_fluxes else _live_rows(W)
    if not _sweep(W, out, live, shape, dx, options, ws, fluxes):
        # guard: a non-finite density flux means a null row's fluxes
        # are not all +-0 there, so every field takes the arithmetic
        _sweep(W, out, _ALL_ROWS, shape, dx, options, ws, fluxes)

    for b, blk in enumerate(U):
        _add_sources(out[:, b], blk, shape, options, gravity[b], centers[b])
    if return_fluxes:
        return out, fluxes
    return out


#: every field carried, in order: one run of NF rows
_ALL_ROWS = tuple(range(NF))


def _live_rows(W: np.ndarray) -> tuple[int, ...]:
    """The fields a sweep carries: RHO..EGAS, then every advected field
    (TAU..NF-1) with a value other than +-0 anywhere in the primitive
    batch ``W``, ghosts included (NaN counts as nonzero)."""
    return tuple(range(TAU)) + tuple(f for f in range(TAU, NF)
                                     if W[f].any())


def _runs(live: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """``(first field, first row, rows)`` of each contiguous run of
    fields in ``live``, row ``r`` of the sweep carrying ``live[r]``."""
    runs = []
    for r, f in enumerate(live):
        if runs and runs[-1][0] + runs[-1][2] == f:
            f0, r0, k = runs[-1]
            runs[-1] = (f0, r0, k + 1)
        else:
            runs.append((f, r, 1))
    return runs


def _sweep(W: np.ndarray, rhs: np.ndarray, live: tuple[int, ...],
           shape: tuple, dx: float, options: HydroOptions, ws,
           fluxes: list | None) -> bool:
    """Zero ``rhs`` and add the flux differences (and spin correction)
    of the three axes, carrying only the ``live`` fields through the
    pencils, PPM and the KT fluxes; the other rows of ``rhs`` keep their
    ``+0.0``.  Returns ``False``, with ``rhs`` partly updated, if
    ``live`` is not every field and some density flux is not finite.
    ``fluxes`` (a list, or ``None``) receives every axis's face fluxes
    in block layout."""
    g = NGHOST
    rows = len(live)
    runs = _runs(live)
    rhs[...] = 0.0
    for axis in range(3):
        # Pencil-major sweep: copy the primitives once into
        # (rows, m, B, n, n), sweep axis leading, so every slice the
        # reconstruction takes along it is one contiguous run.  The
        # transverse extents are restricted to the interior on the way:
        # PPM is elementwise across transverse columns, so skipping ghost
        # columns whose faces would be discarded is bitwise-neutral and
        # trims (n+2g)^2/n^2 of the reconstruction.
        sl = [slice(None), slice(None)] + [slice(g, g + n) for n in shape]
        sl[2 + axis] = slice(None)
        pencil = np.moveaxis(W[tuple(sl)], 2 + axis, 1)
        n = shape[axis]
        cells, faces = pencil.shape[1:], (n + 1,) + pencil.shape[2:]
        # every row-scaled role is sized for NF rows from the first call,
        # so calls that carry different rows share one allocation each
        cell_rows = ws.buf("rhs:pencil", (NF,) + cells)
        Wp = cell_rows[:rows]
        ends = (n + 2,) + faces[1:]                 # parabolas of cells -1..n
        lo = ws.buf("rhs:lo", (NF,) + ends)[:rows]
        hi = ws.buf("rhs:hi", (NF,) + ends)[:rows]
        for f0, r0, k in runs:
            np.copyto(Wp[r0:r0 + k], pencil[f0:f0 + k])
        WL, WR = ppm_faces(Wp, NGHOST, 1, out=(lo, hi), ws=ws)
        # the pencil is dead once PPM returns: its NF rows of n + 6 cells
        # hold KT's KT_SCRATCH face arrays
        scratch = cell_rows.reshape(-1)[:KT_SCRATCH * math.prod(faces)] \
            .reshape((KT_SCRATCH,) + faces)
        F = kt_flux(WL, WR, options.eos, axis,
                    out=ws.buf("rhs:F", (NF,) + faces)[:rows],
                    scratch=scratch)
        # F[RHO] is finite only where rho, u_n and half_a are; its sum
        # is non-finite if any face is (or, costing only the redo, if
        # it overflows)
        if rows < NF and not np.isfinite(F[RHO].sum()):
            return False
        Flo, Fhi = F[:, 0:n], F[:, 1:n + 1]
        sweep = np.moveaxis(rhs, 2 + axis, 1)       # rhs, pencil-major view
        # dF is laid out like rhs and seen pencil-major like it: the adds
        # into rhs walk one memory order (numpy buffers the operands of a
        # ufunc whose memory orders disagree, 64 KB apiece)
        dF = np.moveaxis(ws.buf("rhs:dF", (NF,) + rhs.shape[1:])[:rows],
                         2 + axis, 1)
        np.subtract(Flo, Fhi, out=dF)
        dF /= dx
        for f0, r0, k in runs:
            sweep[f0:f0 + k] += dF[r0:r0 + k]
        if options.spin_correction:
            _add_spin_correction(sweep, Flo, Fhi, axis, dF[0])
        if fluxes is not None:
            fluxes.append(np.moveaxis(F, 1, 2 + axis).copy())
    return True


def _add_spin_correction(rhs: np.ndarray, Flo: np.ndarray, Fhi: np.ndarray,
                         axis: int, tmp: np.ndarray | None = None) -> None:
    """Despres-Labourasse spin source: the face momentum fluxes deposit
    the angular momentum that the cell-centred arms x_i cross s_i miss.
    ``Flo``/``Fhi`` are the fluxes through the low/high face of every
    cell of ``rhs`` along physical axis ``axis``, in ``rhs``'s layout.

    Derivation: choosing dl_i/dt = -(dx/2) e_ax cross (F_{i+1/2} +
    F_{i-1/2}) / dx makes sum(x cross s + l) follow the conservative
    angular-momentum flux x_face cross F_face, which telescopes.

    Only the momentum fluxes are summed, and the identically zero
    component of ``e_ax cross s`` (along ``ax``) is never added: ``rhs``
    accumulates from ``+0.0``, so adding it would change no bit.

    ``tmp`` (shaped like one row of ``Flo``) holds ``0.5 (Flo + Fhi)``;
    the sweep lends it, a caller without one gets a fresh array.
    """
    a, b = (axis + 1) % 3, (axis + 2) % 3
    if tmp is None:
        tmp = np.empty(Flo.shape[1:])
    # e_ax cross s = s_a e_b - s_b e_a; factor -(1/2) from the derivation
    np.add(Flo[SX + b], Fhi[SX + b], out=tmp)
    rhs[LX + a] += np.multiply(0.5, tmp, out=tmp)
    np.add(Flo[SX + a], Fhi[SX + a], out=tmp)
    rhs[LX + b] -= np.multiply(0.5, tmp, out=tmp)


def _add_sources(rhs: np.ndarray, U: np.ndarray, shape: tuple,
                 options: HydroOptions, gravity: np.ndarray | None,
                 centers) -> None:
    g = NGHOST
    inner = tuple(slice(g, g + shape[d]) for d in range(3))
    rho = U[(RHO,) + inner]
    s = [U[(SX + d,) + inner] for d in range(3)]
    if gravity is not None:
        for d in range(3):
            rhs[SX + d] += rho * gravity[d]
        rhs[EGAS] += s[0] * gravity[0] + s[1] * gravity[1] \
            + s[2] * gravity[2]
    om = options.omega
    if om != 0.0:
        x = centers[0][:, None, None]
        y = centers[1][None, :, None]
        # rotating frame about z: Coriolis -2 Omega x s, centrifugal
        # rho Omega^2 x_perp; the centrifugal term does work on the gas
        rhs[SX] += 2.0 * om * s[1] + rho * om * om * x
        rhs[SX + 1] += -2.0 * om * s[0] + rho * om * om * y
        rhs[EGAS] += om * om * (x * s[0] + y * s[1])


def cfl_dt(U: np.ndarray, dx: float, options: HydroOptions,
           ws=None) -> float:
    """CFL-limited timestep of a ghost-filled block's interior.

    Routed through the fused :func:`conserved_signal_speed` — the old
    path materialized a full 14-field primitive copy of the interior just
    to read density, velocities and pressure.  The resulting dt is
    bitwise identical.
    """
    _check_dx(dx)
    g = NGHOST
    inner = (slice(None),) + tuple(
        slice(g, U.shape[1 + d] - g) for d in range(3))
    vmax = conserved_signal_speed(U[inner], options.eos,
                                  options.rho_floor, ws=ws)
    peak = float(np.max(vmax))
    if peak <= 0.0:
        return np.inf
    return options.cfl * dx / peak


def apply_floors(U: np.ndarray, options: HydroOptions) -> None:
    """Vacuum floors, in place: raise rho, zero the raised cells' momenta,
    clamp tau nonnegative.

    Zeroing the momenta is the fix for the stale-kinetic-energy bug:
    raising rho while keeping the momentum of the evacuated cell leaves a
    kinetic energy s^2/(2 rho) computed at the *post-floor* density that
    can dwarf egas, driving the dual-energy ``diff = egas - kin`` wildly
    negative and locking the cell onto a stale tau tracer.  A cell thin
    enough to be floored carries no meaningful momentum.
    """
    rho = U[RHO]
    floored = rho < options.rho_floor
    if floored.any():
        for d in range(3):
            U[SX + d][floored] = 0.0
    np.maximum(rho, options.rho_floor, out=rho)
    np.maximum(U[TAU], 0.0, out=U[TAU])
