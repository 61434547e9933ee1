"""The unsplit finite-volume update (Sec. 4.2).

Combines PPM/minmod reconstruction with Kurganov-Tadmor fluxes into the
conservative right-hand side of one block, adds gravity and rotating-frame
sources, and implements the angular-momentum bookkeeping of Despres &
Labourasse (2015) as used by Octo-Tiger: a spin field absorbs exactly the
angular momentum the cell-centred momentum update cannot represent, so

    sum_cells [ x cross s + l ]

changes only through boundary fluxes (conserved to machine precision on a
closed domain — the Sec. 4.2 claim, tested in
``tests/core/test_hydro_conservation.py``).

The module is dimension-agnostic: blocks are (NF, m, m, m) arrays with
``NGHOST`` ghost layers, of any interior size (one 8^3 sub-grid or a whole
mesh block).

Time integration is not here: the SSP-RK2 stepping core every mesh shares
is :func:`repro.core.mesh.rk2_step`.

Scratch and fusion (Sec. 4.3 kernel rework): :func:`compute_rhs` and
:func:`cfl_dt` accept a :class:`repro.core.workspace.Workspace` (and
``compute_rhs`` an ``out=`` array) so steady-state stepping reuses the
primitive block, face states and flux arrays across stages and steps
instead of reallocating ~14 full-field temporaries per axis per stage.  The fused path is bitwise
identical to :func:`compute_rhs_reference`, which keeps the original
allocate-per-stage kernel composition as the test oracle and
microbenchmark baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...sanitize import racecheck as _racecheck
from ...sanitize import state as _sanitize_state
from ..eos import IdealGas
from ..grid import EGAS, LX, NF, NGHOST, RHO, SX, TAU
from .reconstruct import minmod_faces, ppm_faces
from .riemann import (conserved_signal_speed, conserved_to_primitive,
                      kt_flux, kt_flux_reference)

__all__ = ["HydroOptions", "compute_rhs", "compute_rhs_reference",
           "cfl_dt", "apply_floors"]


@dataclass
class HydroOptions:
    """Solver configuration."""

    eos: IdealGas
    reconstruction: str = "ppm"            # "ppm" | "minmod"
    cfl: float = 0.4
    rho_floor: float = 1e-12
    #: angular velocity of the rotating frame about z (Sec. 4.2: "a
    #: rotating Cartesian grid"); 0 = inertial frame
    omega: float = 0.0
    #: evolve the Despres-Labourasse spin correction
    spin_correction: bool = True

    def __post_init__(self):
        # one definition of vacuum for the whole stack: the EOS clamps in
        # sound_speed/kinetic must agree with the floor applied to the
        # state, or a cell below the solver floor divides by a smaller
        # number than the solver ever allows (see eos.IdealGas).
        self.eos.rho_floor = self.rho_floor


def _faces(q: np.ndarray, axis: int, options: HydroOptions, ws=None):
    # spatial axis `axis` is array dimension axis + 1 (dim 0 = field)
    ax = axis + 1
    if options.reconstruction == "ppm":
        return ppm_faces(q, NGHOST, ax, ws=ws)
    if options.reconstruction == "minmod":
        return minmod_faces(q, NGHOST, ax, ws=ws)
    raise ValueError(f"unknown reconstruction {options.reconstruction!r}")


def compute_rhs(U: np.ndarray, dx: float, options: HydroOptions,
                origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                gravity: np.ndarray | None = None,
                return_fluxes: bool = False,
                out: np.ndarray | None = None, ws=None):
    """dU/dt of the interior of a ghost-filled block (fused path).

    Parameters
    ----------
    U:
        Conserved block (NF, n+2g, n+2g, n+2g), ghosts filled.
    dx:
        Cell width.
    origin:
        Physical coordinates of the lower corner of the interior (needed
        for the spin correction torque arms and frame sources).
    gravity:
        Optional (3, n, n, n) acceleration field on the interior.
    return_fluxes:
        Also return the per-axis face-flux arrays (for AMR refluxing).
        Flux arrays are then freshly allocated — never workspace views —
        so the caller may hold them across further solver calls.
    out:
        Optional (NF, n, n, n) output; fully overwritten.
    ws:
        Optional :class:`repro.core.workspace.Workspace` backing the
        primitive block, face states and flux scratch.

    Returns ``rhs`` with shape (NF, n, n, n) (plus fluxes if requested).
    """
    g = NGHOST
    shape = tuple(U.shape[1 + d] - 2 * g for d in range(3))
    eos = options.eos
    W = conserved_to_primitive(U, eos, options.rho_floor, ws=ws)
    if out is not None:
        rhs = out
    elif ws is not None:
        rhs = ws.buf("rhs:out", (NF,) + shape)
    else:
        rhs = np.empty((NF,) + shape)
    if _sanitize_state.ACTIVE:
        # shadow-access declarations: this task body reads the conserved
        # block (and gravity) and overwrites the shared out= buffer
        _racecheck.access(U, "r", owner="hydro/U")
        if gravity is not None:
            _racecheck.access(gravity, "r", owner="hydro/gravity")
        _racecheck.access(rhs, "w", owner="hydro/rhs-out")
    rhs[...] = 0.0
    fluxes = []

    for axis in range(3):
        # restrict the transverse extents to the interior *before*
        # reconstructing: PPM is elementwise across transverse columns,
        # so skipping ghost columns whose faces would be discarded is
        # bitwise-neutral and trims (n+2g)^2/n^2 of the reconstruction
        sl = [slice(None)] + [slice(g, g + shape[d]) for d in range(3)]
        sl[1 + axis] = slice(None)
        WL, WR = _faces(W[tuple(sl)], axis, options, ws)
        if return_fluxes:
            F = kt_flux(WL, WR, eos, axis)
        else:
            F = kt_flux(WL, WR, eos, axis, ws=ws)
        n = shape[axis]
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[1 + axis] = slice(0, n)
        hi[1 + axis] = slice(1, n + 1)
        rhs += (F[tuple(lo)] - F[tuple(hi)]) / dx
        if options.spin_correction:
            _add_spin_correction(rhs, F, axis, n)
        if return_fluxes:
            fluxes.append(F)

    _add_sources(rhs, U, shape, dx, origin, options, gravity)
    if return_fluxes:
        return rhs, fluxes
    return rhs


def compute_rhs_reference(U: np.ndarray, dx: float, options: HydroOptions,
                          origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                          gravity: np.ndarray | None = None):
    """The RHS as the original allocate-per-stage kernel composition.

    Kept as the bitwise oracle for ``tests/core/test_kernel_fusion.py``
    and the baseline side of the ``kernels_micro`` benchmark; production
    callers use :func:`compute_rhs`.
    """
    g = NGHOST
    shape = tuple(U.shape[1 + d] - 2 * g for d in range(3))
    eos = options.eos
    W = conserved_to_primitive(U, eos, options.rho_floor)
    rhs = np.zeros((NF,) + shape)
    for axis in range(3):
        WL, WR = _faces(W, axis, options)
        sl = [slice(None)] + [slice(g, g + shape[d]) for d in range(3)]
        sl[1 + axis] = slice(None)
        F = kt_flux_reference(WL[tuple(sl)], WR[tuple(sl)], eos, axis)
        n = shape[axis]
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[1 + axis] = slice(0, n)
        hi[1 + axis] = slice(1, n + 1)
        rhs += (F[tuple(lo)] - F[tuple(hi)]) / dx
        if options.spin_correction:
            _add_spin_correction(rhs, F, axis, n)
    _add_sources(rhs, U, shape, dx, origin, options, gravity)
    return rhs


def _add_spin_correction(rhs: np.ndarray, F: np.ndarray, axis: int,
                         n: int) -> None:
    """Despres-Labourasse spin source: the face momentum fluxes deposit
    the angular momentum that the cell-centred arms x_i cross s_i miss.

    Derivation: choosing dl_i/dt = -(dx/2) e_ax cross (F_{i+1/2} +
    F_{i-1/2}) / dx makes sum(x cross s + l) follow the conservative
    angular-momentum flux x_face cross F_face, which telescopes.
    """
    lo = [slice(None)] * 4
    hi = [slice(None)] * 4
    lo[1 + axis] = slice(0, n)
    hi[1 + axis] = slice(1, n + 1)
    fsum = F[tuple(lo)] + F[tuple(hi)]          # F_minus + F_plus
    sx, sy, sz = fsum[SX], fsum[SX + 1], fsum[SX + 2]
    # e_ax cross (sx, sy, sz); factor -(1/2) from the derivation
    if axis == 0:
        cx, cy, cz = 0.0 * sx, -sz, sy
    elif axis == 1:
        cx, cy, cz = sz, 0.0 * sx, -sx
    else:
        cx, cy, cz = -sy, sx, 0.0 * sx
    rhs[LX] += -0.5 * cx
    rhs[LX + 1] += -0.5 * cy
    rhs[LX + 2] += -0.5 * cz


def _add_sources(rhs: np.ndarray, U: np.ndarray, shape: tuple, dx: float,
                 origin: tuple[float, float, float], options: HydroOptions,
                 gravity: np.ndarray | None) -> None:
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
        ax = [origin[d] + (np.arange(shape[d]) + 0.5) * dx
              for d in range(3)]
        x = ax[0][:, None, None]
        y = ax[1][None, :, None]
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
