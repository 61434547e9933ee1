"""Kurganov-Tadmor central-upwind fluxes (Sec. 4.2), fused SoA form.

Octo-Tiger "uses the central advection scheme of [Kurganov & Tadmor
2000]": a Riemann-solver-free flux built from the left/right reconstructed
states and the maximal local signal speed,

    F = 1/2 [F(qL) + F(qR)] - a/2 (U_R - U_L),   a = max(|u|+c over L,R).

States are primitive: (rho, u, v, w, p, plus advected scalars); the flux
acts on the conserved vector of :mod:`repro.core.grid`.

Two implementations live here, mirroring the paper's Sec. 4.3 kernel
rework:

* :func:`kt_flux` — the production kernel: one fused pass over each face
  batch that computes primitives-to-flux, conserved states and signal
  speeds **per component**, never materializing the ``FL``/``FR``/
  ``UL``/``UR`` full-field intermediates.  It is *bitwise identical* to
  the reference (the fusion only removes temporaries; every surviving
  operation runs in the reference order) and accepts ``out=``/``ws=``
  scratch so steady-state stepping allocates nothing.
* :func:`kt_flux_reference` — the original composition of
  :func:`physical_flux` / :func:`primitive_to_conserved` /
  :func:`max_signal_speed`, kept as the property-test oracle and the
  microbenchmark baseline.

Floored cells (the headline bugfix): :func:`conserved_to_primitive` used
to divide the raw momenta by the *floored* density, so a vacuum or
fault-corrupted cell with ``rho <= rho_floor`` but finite momentum
reported ~1e12 velocities, poisoning the KT dissipation of every face it
touched and collapsing ``cfl_dt``.  Specific quantities of such cells
(velocities, specific tau/passives/spin) are now zeroed — vacuum carries
no velocity or advected content; pressure still derives from the energy
fields, which are densities and need no division.
"""

from __future__ import annotations

import numpy as np

from ..eos import IdealGas
from ..grid import EGAS, NF, RHO, SX, TAU

__all__ = ["kt_flux", "kt_flux_reference", "conserved_to_primitive",
           "primitive_to_conserved", "physical_flux", "max_signal_speed",
           "conserved_signal_speed"]


def _scratch(ws, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A workspace buffer, or a throwaway array without a workspace."""
    return ws.buf(name, shape) if ws is not None else np.empty(shape)


def conserved_to_primitive(U: np.ndarray, eos: IdealGas,
                           rho_floor: float = 1e-12,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Primitive variables W from a conserved block (NF, ...).

    W layout matches U, with velocities in slots 1..3 and pressure in the
    EGAS slot; tau and the passives become specific (per-mass) fractions.
    Cells at or below the density floor get all their specific fields
    zeroed (see the module docstring) — dividing their momenta by the
    floored density would manufacture enormous velocities out of noise.

    ``out`` (an (NF, ...) array matching ``U``, any strides: the hydro RHS
    passes one block's slot of its batch) receives the result.
    """
    W = out if out is not None else np.empty(U.shape)
    np.maximum(U[RHO], rho_floor, out=W[RHO])
    rho = W[RHO]
    inv = 1.0 / rho
    for d in range(3):
        W[SX + d] = U[SX + d] * inv
    eint = eos.internal_energy(rho, U[SX], U[SX + 1], U[SX + 2],
                               U[EGAS], U[TAU])
    W[EGAS] = eos.pressure(rho, eint)
    for f in range(TAU, NF):
        W[f] = U[f] * inv
    floored = U[RHO] <= rho_floor
    if floored.any():
        for f in (SX, SX + 1, SX + 2, *range(TAU, NF)):
            W[f][floored] = 0.0
    return W


def primitive_to_conserved(W: np.ndarray, eos: IdealGas) -> np.ndarray:
    """Inverse of :func:`conserved_to_primitive`."""
    U = np.empty_like(W)
    rho = W[RHO]
    U[RHO] = rho
    for d in range(3):
        U[SX + d] = rho * W[SX + d]
    eint = W[EGAS] / (eos.gamma - 1.0)
    kin = 0.5 * rho * (W[SX] ** 2 + W[SX + 1] ** 2 + W[SX + 2] ** 2)
    U[EGAS] = eint + kin
    for f in range(TAU, NF):
        U[f] = rho * W[f]
    return U


def physical_flux(W: np.ndarray, eos: IdealGas, axis: int) -> np.ndarray:
    """Euler flux of the conserved vector along ``axis`` from primitives."""
    rho = W[RHO]
    un = W[SX + axis]
    p = W[EGAS]
    F = np.empty_like(W)
    F[RHO] = rho * un
    for d in range(3):
        F[SX + d] = rho * W[SX + d] * un
    F[SX + axis] = F[SX + axis] + p
    eint = p / (eos.gamma - 1.0)
    kin = 0.5 * rho * (W[SX] ** 2 + W[SX + 1] ** 2 + W[SX + 2] ** 2)
    F[EGAS] = (eint + kin + p) * un
    for f in range(TAU, NF):
        F[f] = rho * W[f] * un
    return F


def max_signal_speed(W: np.ndarray, eos: IdealGas, axis: int) -> np.ndarray:
    return np.abs(W[SX + axis]) + eos.sound_speed(W[RHO], W[EGAS])


def conserved_signal_speed(U: np.ndarray, eos: IdealGas, rho_floor: float,
                           ws=None) -> np.ndarray:
    """Per-cell max signal speed ``max_d(|u_d| + c)`` of a conserved batch.

    One fused pass reading only the six dynamic fields — no 14-field
    primitive block is materialized (the old ``cfl_dt`` converted the
    whole interior just to look at five of its fields).  Bitwise equal
    to ``max over d of |W[SX+d]| + sound_speed(W[RHO], W[EGAS])`` on the
    primitives of :func:`conserved_to_primitive`, floored-cell zeroing
    included.
    """
    shape = U.shape[1:]
    rho = np.maximum(U[RHO], rho_floor, out=_scratch(ws, "sig:rho", shape))
    inv = 1.0 / rho
    eint = eos.internal_energy(rho, U[SX], U[SX + 1], U[SX + 2],
                               U[EGAS], U[TAU])
    c = eos.sound_speed(rho, eos.pressure(rho, eint))
    floored = U[RHO] <= rho_floor
    zero_any = bool(floored.any())
    vmax = _scratch(ws, "sig:vmax", shape)
    vmax[...] = 0.0
    for d in range(3):
        u = U[SX + d] * inv
        if zero_any:
            u[floored] = 0.0
        np.maximum(vmax, np.abs(u) + c, out=vmax)
    return vmax


def kt_flux_reference(WL: np.ndarray, WR: np.ndarray, eos: IdealGas,
                      axis: int) -> np.ndarray:
    """The KT flux as the original kernel composition (test/bench oracle)."""
    FL = physical_flux(WL, eos, axis)
    FR = physical_flux(WR, eos, axis)
    a = np.maximum(max_signal_speed(WL, eos, axis),
                   max_signal_speed(WR, eos, axis))
    UL = primitive_to_conserved(WL, eos)
    UR = primitive_to_conserved(WR, eos)
    return 0.5 * (FL + FR) - 0.5 * a[None] * (UR - UL)


def kt_flux(WL: np.ndarray, WR: np.ndarray, eos: IdealGas, axis: int,
            out: np.ndarray | None = None, ws=None) -> np.ndarray:
    """Fused KT/local-Lax-Friedrichs flux from face-left/right primitives.

    Single pass per face batch: per-side signal speeds, kinetic/internal
    energies and per-field fluxes are formed component-wise and combined
    straight into ``out`` — the eight full-field ``FL``/``FR``/``UL``/
    ``UR`` temporaries of :func:`kt_flux_reference` never exist.  Every
    surviving floating-point operation matches the reference expression
    order, so the result is bitwise identical (asserted by
    ``tests/core/test_kernel_fusion.py``).

    Rows: RHO..EGAS lead, and every row after EGAS is an advected
    scalar, however many there are.  The hydro RHS passes only the
    advected fields it carries (see :mod:`.solver`); a full 14-row
    state is the same call with all of them.
    """
    rhoL, rhoR = WL[RHO], WR[RHO]
    unL, unR = WL[SX + axis], WR[SX + axis]
    pL, pR = WL[EGAS], WR[EGAS]
    if out is None:
        out = _scratch(ws, "kt:F", WL.shape)
    F = out
    # a = max(|u|+c over L,R); the 0.5 a prefactor is shared by all fields
    half_a = 0.5 * np.maximum(np.abs(unL) + eos.sound_speed(rhoL, pL),
                              np.abs(unR) + eos.sound_speed(rhoR, pR))
    F[RHO] = 0.5 * (rhoL * unL + rhoR * unR) - half_a * (rhoR - rhoL)
    for d in range(3):
        mL = rhoL * WL[SX + d]        # momentum density, also the U slot
        mR = rhoR * WR[SX + d]
        fL = mL * unL
        fR = mR * unR
        if d == axis:
            fL = fL + pL
            fR = fR + pR
        F[SX + d] = 0.5 * (fL + fR) - half_a * (mR - mL)
    ekL = pL / (eos.gamma - 1.0) \
        + 0.5 * rhoL * (WL[SX] ** 2 + WL[SX + 1] ** 2 + WL[SX + 2] ** 2)
    ekR = pR / (eos.gamma - 1.0) \
        + 0.5 * rhoR * (WR[SX] ** 2 + WR[SX + 1] ** 2 + WR[SX + 2] ** 2)
    F[EGAS] = 0.5 * ((ekL + pL) * unL + (ekR + pR) * unR) \
        - half_a * (ekR - ekL)
    for f in range(TAU, len(WL)):
        mL = rhoL * WL[f]
        mR = rhoR * WR[f]
        F[f] = 0.5 * (mL * unL + mR * unR) - half_a * (mR - mL)
    return F
