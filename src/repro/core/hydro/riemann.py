"""Kurganov-Tadmor central-upwind fluxes (Sec. 4.2), fused SoA form.

Octo-Tiger "uses the central advection scheme of [Kurganov & Tadmor
2000]": a Riemann-solver-free flux built from the left/right reconstructed
states and the maximal local signal speed,

    F = 1/2 [F(qL) + F(qR)] - a/2 (U_R - U_L),   a = max(|u|+c over L,R).

States are primitive: (rho, u, v, w, p, plus advected scalars); the flux
acts on the conserved vector of :mod:`repro.core.grid`.

This is the production kernel of the paper's Sec. 4.3 kernel rework:
:func:`kt_flux` makes one fused pass over each face batch that computes
primitives-to-flux, conserved states and signal speeds **per
component**, never materializing the ``FL``/``FR``/``UL``/``UR``
full-field intermediates, and writes into the caller's ``out=`` array
so steady-state stepping allocates nothing.  It is *bitwise identical*
to the original composition, kept as the oracle
:func:`repro.validation.reference.kt_flux_reference` (the fusion only
removes temporaries; every surviving operation runs in the reference
order).

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

__all__ = ["kt_flux", "conserved_to_primitive", "conserved_signal_speed"]


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


def kt_flux(WL: np.ndarray, WR: np.ndarray, eos: IdealGas, axis: int,
            out: np.ndarray) -> np.ndarray:
    """Fused KT/local-Lax-Friedrichs flux from face-left/right primitives.

    Single pass per face batch: per-side signal speeds, kinetic/internal
    energies and per-field fluxes are formed component-wise and combined
    straight into ``out`` (shaped like ``WL``) — the eight full-field
    ``FL``/``FR``/``UL``/``UR`` temporaries of the reference never
    exist.  Every surviving floating-point operation matches the
    reference expression order, so the result is bitwise identical
    (asserted by ``tests/core/test_kernel_fusion.py``).

    Rows: RHO..EGAS lead, and every row after EGAS is an advected
    scalar, however many there are.  The hydro RHS passes only the
    advected fields it carries (see :mod:`.solver`); a full 14-row
    state is the same call with all of them.
    """
    rhoL, rhoR = WL[RHO], WR[RHO]
    unL, unR = WL[SX + axis], WR[SX + axis]
    pL, pR = WL[EGAS], WR[EGAS]
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
