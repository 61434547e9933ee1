"""Reference implementations: the oracles the production kernels are
judged against.

The Sec. 4.3 kernel rework replaced the original kernel compositions
with fused SoA kernels; the originals live on here, outside
:mod:`repro.core`, so that nothing in production calls them and a
change to a kernel cannot change the oracle it is tested against.  The
property tests compare the two (``tests/core/test_kernel_fusion.py``)
and ``benchmarks/kernels_micro.py`` times them side by side.

* :func:`ppm_faces_reference` — PPM with every intermediate allocated,
  the arithmetic of :func:`repro.core.hydro.reconstruct.ppm_faces`
  without its uniform-field copy;
* :func:`kt_flux_reference` — the KT flux as the composition of
  :func:`physical_flux` / :func:`primitive_to_conserved` /
  :func:`max_signal_speed`;
* :func:`compute_rhs_reference` — the hydro RHS of one block, allocate
  per stage, every field through every axis;
* :func:`m2l_pair_reference` — the M2L pair interaction through full
  Green tensors (:func:`greens`, the derivative tensors of ``1/r``) and
  einsum contractions, with :data:`LEVI_CIVITA` for the torque checks;
* :func:`direct_field` / :func:`direct_potential` /
  :func:`direct_summation` — direct O(N^2) gravity, the verification
  reference for the FMM;
* :func:`apply_boundary` — a block's whole ghost shell from one
  boundary condition (a mesh fills its walls through its layout).

The hydro oracles are bitwise equal to the fused kernels; the M2L one
agrees to a few ulps (einsum sums in its own order).
"""

from __future__ import annotations

import numpy as np

from ..core.eos import IdealGas
from ..core.gravity.kernels import _g2_components
from ..core.grid import EGAS, NF, NGHOST, RHO, SX, TAU
from ..core.hydro.riemann import conserved_to_primitive
from ..core.hydro.solver import (HydroOptions, _add_sources,
                                 _add_spin_correction)
from ..core.mesh import fill_wall

__all__ = ["ppm_faces_reference", "primitive_to_conserved",
           "physical_flux", "max_signal_speed", "kt_flux_reference",
           "compute_rhs_reference", "LEVI_CIVITA", "greens",
           "m2l_pair_reference", "direct_field",
           "direct_potential", "direct_summation", "apply_boundary"]


# -- hydro ------------------------------------------------------------------------

def _ax(q: np.ndarray, lo: int, hi: int | None, axis: int) -> np.ndarray:
    sl = [slice(None)] * q.ndim
    sl[axis] = slice(lo, hi)
    return q[tuple(sl)]


def ppm_faces_reference(q: np.ndarray, ng: int, axis: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """PPM states (qL, qR) at the n+1 interior faces along ``axis`` of
    ``q`` (``ng`` ghost layers each side): fourth-order face
    interpolation followed by the Colella-Woodward monotonization of
    each cell's parabola, every stage a fresh array."""
    if ng < 3:
        raise ValueError("PPM needs at least 3 ghost layers")
    n = q.shape[axis] - 2 * ng
    # C holds cells -3 .. n+2 (length n+6) along `axis`
    C = _ax(q, ng - 3, ng + n + 3, axis)
    # F[j] = face value left of cell j-1, for j = 0 .. n+2
    F = (7.0 / 12.0) * (_ax(C, 1, -2, axis) + _ax(C, 2, -1, axis)) \
        - (1.0 / 12.0) * (_ax(C, 0, -3, axis) + _ax(C, 3, None, axis))
    # parabola cells -1 .. n
    c = _ax(C, 2, -2, axis)
    left = _ax(C, 1, -3, axis)                      # cell i-1
    right = _ax(C, 3, -1, axis)                     # cell i+1
    lo = _ax(F, 0, -1, axis)
    hi = _ax(F, 1, None, axis)

    lo = np.clip(lo, np.minimum(left, c), np.maximum(left, c))
    hi = np.clip(hi, np.minimum(c, right), np.maximum(c, right))
    extremum = (hi - c) * (c - lo) <= 0.0
    lo = np.where(extremum, c, lo)
    hi = np.where(extremum, c, hi)
    dqf = hi - lo
    avg = 0.5 * (lo + hi)
    six = dqf * dqf / 6.0
    steep_hi = dqf * (c - avg) > six
    lo = np.where(steep_hi, 3.0 * c - 2.0 * hi, lo)
    steep_lo = -six > dqf * (c - avg)
    hi = np.where(steep_lo, 3.0 * c - 2.0 * lo, hi)
    return _ax(hi, 0, -1, axis), _ax(lo, 1, None, axis)


def primitive_to_conserved(W: np.ndarray, eos: IdealGas) -> np.ndarray:
    """Inverse of :func:`repro.core.hydro.riemann.conserved_to_primitive`."""
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


def kt_flux_reference(WL: np.ndarray, WR: np.ndarray, eos: IdealGas,
                      axis: int) -> np.ndarray:
    """The KT flux ``1/2 [F(qL) + F(qR)] - a/2 (U_R - U_L)`` as the
    original kernel composition."""
    FL = physical_flux(WL, eos, axis)
    FR = physical_flux(WR, eos, axis)
    a = np.maximum(max_signal_speed(WL, eos, axis),
                   max_signal_speed(WR, eos, axis))
    UL = primitive_to_conserved(WL, eos)
    UR = primitive_to_conserved(WR, eos)
    return 0.5 * (FL + FR) - 0.5 * a[None] * (UR - UL)


def compute_rhs_reference(U: np.ndarray, dx: float, options: HydroOptions,
                          origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                          gravity: np.ndarray | None = None):
    """The RHS of one ghost-filled block as the original allocate-per-stage
    kernel composition, every field through every axis; the sources and
    the spin correction are the solver's own."""
    g = NGHOST
    shape = tuple(U.shape[1 + d] - 2 * g for d in range(3))
    eos = options.eos
    W = conserved_to_primitive(U, eos, options.rho_floor)
    rhs = np.zeros((NF,) + shape)
    for axis in range(3):
        WL, WR = ppm_faces_reference(W, NGHOST, axis + 1)
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
            _add_spin_correction(rhs, F[tuple(lo)], F[tuple(hi)], axis)
    _add_sources(rhs, U, shape, options, gravity, [
        origin[d] + (np.arange(shape[d]) + 0.5) * dx for d in range(3)])
    return rhs


def apply_boundary(U: np.ndarray, bc: str) -> None:
    """Fill the ghost shell of a block according to ``bc``."""
    for axis in range(3):
        for side in (-1, 1):
            fill_wall(U, axis, side, bc)


# -- gravity ----------------------------------------------------------------------

#: Levi-Civita tensor for the torque contractions of the M2L property tests
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    LEVI_CIVITA[_i, _j, _k] = _s


def greens(dR: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
    """Derivative tensors g0..g3 of 1/r at separations ``dR`` (n, 3).

    g0 = 1/r, g1_i = d_i(1/r), g2_ij = d_i d_j (1/r),
    g3_ijk = d_i d_j d_k (1/r).

    Built from the 6 unique g2 / 10 unique g3 components (no full outer
    products); the assembled tensors are exactly symmetric because the
    unique components are written to every symmetric slot.
    """
    dR = np.asarray(dR, dtype=np.float64)
    x, y, z = dR[:, 0], dR[:, 1], dR[:, 2]
    r2 = x * x + y * y + z * z
    if np.any(r2 == 0.0):
        raise ValueError("coincident cells in interaction kernel")
    inv = 1.0 / np.sqrt(r2)
    inv2 = inv * inv
    inv3 = inv * inv2
    inv5 = inv3 * inv2
    inv7 = inv5 * inv2
    g0 = inv
    g1 = -dR * inv3[:, None]
    n = len(dR)
    g2 = np.empty((n, 3, 3))
    xx, yy, zz, xy, xz, yz = _g2_components(x, y, z, inv3, inv5)
    g2[:, 0, 0] = xx
    g2[:, 1, 1] = yy
    g2[:, 2, 2] = zz
    g2[:, 0, 1] = g2[:, 1, 0] = xy
    g2[:, 0, 2] = g2[:, 2, 0] = xz
    g2[:, 1, 2] = g2[:, 2, 1] = yz
    # g3_ijk = -15 x_i x_j x_k / r^7 + 3 (d_ij x_k + d_ik x_j + d_jk x_i)/r^5
    p3 = 3.0 * inv5
    p9 = 9.0 * inv5
    p15 = 15.0 * inv7
    g3 = np.empty((n, 3, 3, 3))
    comps = _g3_components(x, y, z, p3, p9, p15)
    for (i, j, k), val in comps:
        g3[:, i, j, k] = g3[:, i, k, j] = g3[:, j, i, k] = val
        g3[:, j, k, i] = g3[:, k, i, j] = g3[:, k, j, i] = val
    return g0, g1, g2, g3


def _g3_components(x, y, z, p3, p9, p15):
    """The 10 unique components of g3, tagged with one index triple each."""
    return (((0, 0, 0), p9 * x - p15 * (x * x) * x),
            ((0, 0, 1), p3 * y - p15 * (x * x) * y),
            ((0, 0, 2), p3 * z - p15 * (x * x) * z),
            ((0, 1, 1), p3 * x - p15 * x * (y * y)),
            ((0, 1, 2), -p15 * (x * y) * z),
            ((0, 2, 2), p3 * x - p15 * x * (z * z)),
            ((1, 1, 1), p9 * y - p15 * (y * y) * y),
            ((1, 1, 2), p3 * z - p15 * (y * y) * z),
            ((1, 2, 2), p3 * y - p15 * y * (z * z)),
            ((2, 2, 2), p9 * z - p15 * (z * z) * z))


def m2l_pair_reference(dR: np.ndarray, mA: np.ndarray, mB: np.ndarray,
                       M2A: np.ndarray, M2B: np.ndarray
                       ) -> tuple[np.ndarray, ...]:
    """The M2L interaction via full Green tensors and einsum contractions:
    the original formulation of
    :func:`repro.core.gravity.kernels.m2l_pair`, same arguments and
    results."""
    g0, g1, g2, g3 = greens(dR)
    quad = mA[:, None, None] * M2B + mB[:, None, None] * M2A
    force = (mA * mB)[:, None] * g1 \
        + 0.5 * np.einsum("njk,nijk->ni", quad, g3)
    accA = force / mA[:, None]
    accB = -force / mB[:, None]
    phiA = -(mB * g0 + 0.5 * np.einsum("njk,njk->n", M2B, g2))
    phiB = -(mA * g0 + 0.5 * np.einsum("njk,njk->n", M2A, g2))
    HA = -mB[:, None, None] * g2
    HB = -mA[:, None, None] * g2
    return phiA, phiB, accA, accB, HA, HB


#: targets per chunk of the direct sum (bounds its (chunk, n, 3) scratch)
_CHUNK = 512


def direct_field(pos: np.ndarray, mass: np.ndarray,
                 targets: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(phi, acc) at ``targets`` (default: at every source) from point
    masses at ``pos`` — self-interaction excluded, G = 1.

    Every leaf cell is a point mass (the convention of the FMM's leaf
    level), so the FMM must converge to this sum as the opening
    criterion tightens.  Chunked to bound memory; fine up to a few times
    10^4 cells.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    if len(mass) != len(pos):
        raise ValueError("mass/position length mismatch")
    tg = pos if targets is None else np.asarray(targets, dtype=np.float64)
    phi = np.zeros(len(tg))
    acc = np.zeros((len(tg), 3))
    # chunk-sized scratch hoisted out of the loop (the last, possibly
    # shorter chunk uses leading views)
    c_max = min(_CHUNK, max(len(tg), 1))
    d_buf = np.empty((c_max, len(pos), 3))
    r2_buf = np.empty((c_max, len(pos)))
    for lo in range(0, len(tg), _CHUNK):
        hi = min(lo + _CHUNK, len(tg))
        c = hi - lo
        d = np.subtract(tg[lo:hi, None, :], pos[None, :, :],
                        out=d_buf[:c])                       # (c, n, 3)
        r2 = np.add(d[:, :, 0] * d[:, :, 0] + d[:, :, 1] * d[:, :, 1],
                    d[:, :, 2] * d[:, :, 2], out=r2_buf[:c])
        near_zero = r2 < 1e-24
        r2[near_zero] = 1.0
        inv = 1.0 / np.sqrt(r2)
        inv[near_zero] = 0.0
        phi[lo:hi] = -(mass[None, :] * inv).sum(axis=1)
        w = mass[None, :] * inv ** 3
        for k in range(3):
            acc[lo:hi, k] = -(w * d[:, :, k]).sum(axis=1)
    return phi, acc


def direct_potential(pos: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Potential only (see :func:`direct_field`)."""
    return direct_field(pos, mass)[0]


def direct_summation(rho: np.ndarray, dx: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(phi, acc) grids for a cubic density grid, matching the layout of
    :meth:`~repro.core.gravity.fmm.FmmSolver.uniform_field`."""
    M = rho.shape[0]
    if rho.shape != (M, M, M):
        raise ValueError("density grid must be cubic")
    g = (np.arange(M) + 0.5) * dx
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([X, Y, Z], -1).reshape(-1, 3)
    mass = (np.asarray(rho, dtype=np.float64) * dx ** 3).ravel()
    phi, acc = direct_field(pos, mass)
    return phi.reshape(M, M, M), acc.reshape(M, M, M, 3)
