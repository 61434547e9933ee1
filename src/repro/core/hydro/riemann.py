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
full-field intermediates.  Every sub-expression is an ``out=`` ufunc:
the fluxes go into the caller's ``out``, the intermediates into
``KT_SCRATCH`` face arrays the caller lends (the hydro sweep lends its
primitive pencil, dead once PPM has read it), and
:func:`conserved_to_primitive` writes each product straight into its
row, so a steady-state RHS allocates no array.  The kernels are
*bitwise identical* to the original composition, kept as the oracle
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


def _scratch(ws, name: str, shape: tuple[int, ...],
             dtype=np.float64) -> np.ndarray:
    """A workspace buffer, or a throwaway array without a workspace."""
    if ws is None:
        return np.empty(shape, dtype)
    return ws.buf(name, shape, dtype)


def conserved_to_primitive(U: np.ndarray, eos: IdealGas,
                           rho_floor: float = 1e-12,
                           out: np.ndarray | None = None,
                           ws=None) -> np.ndarray:
    """Primitive variables W from a conserved block (NF, ...).

    W layout matches U, with velocities in slots 1..3 and pressure in the
    EGAS slot; tau and the passives become specific (per-mass) fractions.
    Cells at or below the density floor get all their specific fields
    zeroed (see the module docstring) — dividing their momenta by the
    floored density would manufacture enormous velocities out of noise.

    ``out`` (an (NF, ...) array matching ``U``, any strides: the hydro RHS
    passes one block's slot of its batch) receives the result.  Every
    product is written straight into its row, and the rows not yet
    written are the float scratch (``1/rho`` waits in the last one,
    which is written last, in place), so with ``ws`` (for the one bool
    mask) nothing is allocated.
    """
    W = out if out is not None else np.empty(U.shape)
    mask = _scratch(ws, "c2p:mask", U.shape[1:], bool)
    rho = np.maximum(U[RHO], rho_floor, out=W[RHO])
    inv = np.divide(1.0, rho, out=W[NF - 1])
    for d in range(3):
        np.multiply(U[SX + d], inv, out=W[SX + d])
    eos.internal_energy_into(rho, U[SX], U[SX + 1], U[SX + 2], U[EGAS],
                             U[TAU], out=W[EGAS],
                             tmp=(W[TAU], W[TAU + 1]), mask=mask)
    eos.pressure_into(W[EGAS], out=W[EGAS])
    for f in range(TAU, NF):
        np.multiply(U[f], inv, out=W[f])
    floored = np.less_equal(U[RHO], rho_floor, out=mask)
    if floored.any():
        for f in (SX, SX + 1, SX + 2, *range(TAU, NF)):
            np.copyto(W[f], 0.0, where=floored)
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


#: face arrays of scratch :func:`kt_flux` needs beside ``out``
KT_SCRATCH = 7


def kt_flux(WL: np.ndarray, WR: np.ndarray, eos: IdealGas, axis: int,
            out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fused KT/local-Lax-Friedrichs flux from face-left/right primitives.

    Single pass per face batch: per-side signal speeds, kinetic/internal
    energies and per-field fluxes are formed component-wise and combined
    straight into ``out`` (shaped like ``WL``) — the eight full-field
    ``FL``/``FR``/``UL``/``UR`` temporaries of the reference never
    exist, and neither does any other: every sub-expression is an
    ``out=`` ufunc into ``scratch``, the caller's ``(KT_SCRATCH, *faces)``
    array (any leading length of at least ``KT_SCRATCH``; its contents
    are overwritten).  Every floating-point operation keeps the operands
    and order of the reference expression, so the result is bitwise
    identical (asserted by ``tests/core/test_kernel_fusion.py``).

    Rows: RHO..EGAS lead, and every row after EGAS is an advected
    scalar, however many there are.  The hydro RHS passes only the
    advected fields it carries (see :mod:`.solver`); a full 14-row
    state is the same call with all of them.
    """
    rhoL, rhoR = WL[RHO], WR[RHO]
    unL, unR = WL[SX + axis], WR[SX + axis]
    pL, pR = WL[EGAS], WR[EGAS]
    F = out
    half_a, mL, mR, fL, fR, ekL, ekR = scratch[:KT_SCRATCH]
    # a = max(|u|+c over L,R); the 0.5 a prefactor is shared by all fields
    # (the per-side speeds sit in the ek buffers until those are formed)
    sL, sR = ekL, ekR
    for un, rho, p, s, tmp in ((unL, rhoL, pL, sL, mL),
                               (unR, rhoR, pR, sR, mR)):
        eos.sound_speed_into(rho, p, s, tmp)
        np.abs(un, out=tmp)
        np.add(tmp, s, out=s)
    np.maximum(sL, sR, out=half_a)
    np.multiply(0.5, half_a, out=half_a)

    def combine(row, dq):
        # F[row] = 0.5 (fL + fR) - half_a dq, dq = qR - qL (spent here)
        np.add(fL, fR, out=F[row])
        np.multiply(0.5, F[row], out=F[row])
        np.multiply(half_a, dq, out=dq)
        np.subtract(F[row], dq, out=F[row])

    np.multiply(rhoL, unL, out=fL)
    np.multiply(rhoR, unR, out=fR)
    np.subtract(rhoR, rhoL, out=mR)
    combine(RHO, mR)
    # the momenta, then the advected scalars: m = rho q is the U slot
    for f in (SX, SX + 1, SX + 2, *range(TAU, len(WL))):
        np.multiply(rhoL, WL[f], out=mL)
        np.multiply(rhoR, WR[f], out=mR)
        np.multiply(mL, unL, out=fL)
        np.multiply(mR, unR, out=fR)
        if f == SX + axis:
            np.add(fL, pL, out=fL)
            np.add(fR, pR, out=fR)
        np.subtract(mR, mL, out=mR)
        combine(f, mR)
    # ek = p / (gamma - 1) + 0.5 rho (u^2 + v^2 + w^2)
    for W, rho, p, ek in ((WL, rhoL, pL, ekL), (WR, rhoR, pR, ekR)):
        np.divide(p, eos.gamma - 1.0, out=ek)
        np.multiply(0.5, rho, out=fL)
        np.square(W[SX], out=fR)
        np.square(W[SX + 1], out=mL)
        np.add(fR, mL, out=fR)
        np.square(W[SX + 2], out=mL)
        np.add(fR, mL, out=fR)
        np.multiply(fL, fR, out=fR)
        np.add(ek, fR, out=ek)
    np.add(ekL, pL, out=fL)
    np.multiply(fL, unL, out=fL)
    np.add(ekR, pR, out=fR)
    np.multiply(fR, unR, out=fR)
    np.subtract(ekR, ekL, out=ekR)
    combine(EGAS, ekR)
    return F
