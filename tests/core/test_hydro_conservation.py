"""Hydro solver: conservation to machine precision (the Sec. 4.2 claim).

The headline test verifies the Despres-Labourasse bookkeeping: the change
of total angular momentum (orbital x cross s plus spin l) over one explicit
update equals exactly the boundary angular-momentum flux — i.e. on any
closed control volume the scheme conserves L to machine precision.
"""

import numpy as np
import pytest

from repro.core import EGAS, LX, NF, NGHOST, RHO, SX, TAU, IdealGas
from repro.core.hydro.solver import (HydroOptions, _add_spin_correction,
                                     cfl_dt, compute_rhs)
from repro.validation.reference import apply_boundary


def _one_block_rhs(U, dx, opts, gravity=None, return_fluxes=False):
    """``compute_rhs`` of one block: the batch ``[U]``, read at
    ``[:, 0]`` (its fluxes too)."""
    got = compute_rhs([U], dx, opts, return_fluxes=return_fluxes,
                      gravity=None if gravity is None else [gravity])
    if return_fluxes:
        return got[0][:, 0], [F[:, 0] for F in got[1]]
    return got[:, 0]


def _random_block(rng, n=12):
    m = n + 2 * NGHOST
    U = np.zeros((NF, m, m, m))
    U[RHO] = rng.uniform(0.5, 2.0, (m, m, m))
    for d in range(3):
        U[SX + d] = rng.uniform(-0.3, 0.3, (m, m, m)) * U[RHO]
    eint = rng.uniform(0.5, 2.0, (m, m, m))
    kin = 0.5 * (U[SX] ** 2 + U[SX + 1] ** 2 + U[SX + 2] ** 2) / U[RHO]
    U[EGAS] = eint + kin
    U[TAU] = IdealGas().tau_from_eint(eint)
    return U


class TestRhsBasics:
    def test_uniform_state_has_zero_rhs(self):
        opts = HydroOptions(eos=IdealGas())
        m = 8 + 2 * NGHOST
        U = np.zeros((NF, m, m, m))
        U[RHO] = 1.0
        U[EGAS] = 1.0
        U[TAU] = IdealGas().tau_from_eint(np.array(1.0))
        rhs = _one_block_rhs(U, 0.1, opts)
        assert np.abs(rhs).max() < 1e-12

    def test_cfl_dt_scales_with_dx(self):
        opts = HydroOptions(eos=IdealGas())
        m = 8 + 2 * NGHOST
        U = np.zeros((NF, m, m, m))
        U[RHO] = 1.0
        U[EGAS] = 1.0
        assert cfl_dt(U, 0.2, opts) == pytest.approx(
            2.0 * cfl_dt(U, 0.1, opts))

    def test_static_gas_has_infinite_dt_at_zero_pressure(self):
        opts = HydroOptions(eos=IdealGas())
        m = 8 + 2 * NGHOST
        U = np.zeros((NF, m, m, m))
        U[RHO] = 1.0
        assert cfl_dt(U, 0.1, opts) == np.inf


def _spin_correction_14_fields(rhs, Flo, Fhi, axis):
    """The spin source as first written: ``Flo + Fhi`` over every field,
    all three components of ``-(1/2) e_ax cross s`` added."""
    fsum = Flo + Fhi
    sx, sy, sz = fsum[SX], fsum[SX + 1], fsum[SX + 2]
    if axis == 0:
        cx, cy, cz = 0.0 * sx, -sz, sy
    elif axis == 1:
        cx, cy, cz = sz, 0.0 * sx, -sx
    else:
        cx, cy, cz = -sy, sx, 0.0 * sx
    rhs[LX] += -0.5 * cx
    rhs[LX + 1] += -0.5 * cy
    rhs[LX + 2] += -0.5 * cz


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_spin_correction_matches_the_14_field_formula(axis):
    """Three momentum fluxes summed instead of 14 fields, the zero
    component skipped: bit for bit the original formula, on an ``rhs``
    accumulated from ``+0.0`` (as ``compute_rhs`` does) over fluxes with
    signed zeros; a NaN momentum flux still reaches the spin rows."""
    rng = np.random.default_rng(axis)
    shape = (NF, 6, 5, 4)
    Flo, Fhi = (rng.normal(size=shape) for _ in range(2))
    Flo[:, 0], Fhi[:, 1] = -0.0, 0.0
    Fhi[:, 0] = -0.0
    rhs = np.zeros(shape)
    rhs += np.where(rng.random(shape) < 0.5, -0.0, rng.normal(size=shape))
    ref = rhs.copy()
    _add_spin_correction(rhs, Flo, Fhi, axis)
    _spin_correction_14_fields(ref, Flo, Fhi, axis)
    assert rhs.tobytes() == ref.tobytes()
    for d in range(3):
        bad = Flo.copy()
        bad[SX + d, 2, 2, 2] = np.nan
        poisoned = rhs.copy()
        _add_spin_correction(poisoned, bad, Fhi, axis)
        spin = np.isnan(poisoned[LX:LX + 3, 2, 2, 2])
        assert spin.sum() == (d != axis)


class TestConservationBookkeeping:
    """Forward-Euler budget checks: interior change == boundary flux."""

    def _fluxed_update(self, rng, spin=True):
        opts = HydroOptions(eos=IdealGas(), spin_correction=spin)
        n = 10
        dx = 1.0 / n
        U = _random_block(rng, n)
        apply_boundary(U, "periodic")
        rhs, fluxes = _one_block_rhs(U, dx, opts, return_fluxes=True)
        return U, rhs, fluxes, dx, n

    def test_mass_momentum_energy_telescope_periodic(self, rng):
        """With periodic wrapping, opposite boundary fluxes cancel and
        every conserved total is exactly preserved."""
        U, rhs, fluxes, dx, n = self._fluxed_update(rng)
        for f in (RHO, SX, SX + 1, SX + 2, EGAS):
            total = rhs[f].sum() * dx ** 3
            scale = max(np.abs(rhs[f]).sum() * dx ** 3, 1e-30)
            assert abs(total) / scale < 1e-12, f"field {f}"

    def test_angular_momentum_conserved_with_spin_channel(self, rng):
        """Sec. 4.2: orbital + spin angular momentum changes only through
        the conservative boundary flux — zero under periodic wrapping."""
        opts = HydroOptions(eos=IdealGas(), spin_correction=True)
        n = 10
        dx = 1.0 / n
        U = _random_block(rng, n)
        apply_boundary(U, "periodic")
        rhs = _one_block_rhs(U, dx, opts)
        ax = (np.arange(n) + 0.5) * dx
        x = ax[:, None, None]
        y = ax[None, :, None]
        # dLz/dt = sum x (ds_y/dt) - y (ds_x/dt) + dl_z/dt
        dlz = (x * rhs[SX + 1] - y * rhs[SX] + rhs[LX + 2]).sum() * dx ** 3
        # boundary contribution under periodic wrap: the arm jumps by the
        # domain length L across the seam, dL/dt = -L dx^2 (e_ax x F)
        rhs2, fluxes = _one_block_rhs(U, dx, opts, return_fluxes=True)
        Fx = fluxes[0]      # momentum fluxes on x-faces
        Fy = fluxes[1]
        L = n * dx
        wrap_x = -L * Fx[SX + 1][0].sum() * dx ** 2
        wrap_y = L * Fy[SX][:, 0].sum() * dx ** 2
        expected = wrap_x + wrap_y
        scale = max(abs(x * rhs[SX + 1]).sum() * dx ** 3, 1e-30)
        assert abs(dlz - expected) / scale < 1e-12

    def test_without_spin_channel_L_is_not_conserved(self, rng):
        """Ablation: dropping the spin correction loses exactness."""
        opts_off = HydroOptions(eos=IdealGas(), spin_correction=False)
        n = 10
        dx = 1.0 / n
        U = _random_block(rng, n)
        apply_boundary(U, "periodic")
        rhs, fluxes = _one_block_rhs(U, dx, opts_off, return_fluxes=True)
        ax = (np.arange(n) + 0.5) * dx
        x = ax[:, None, None]
        y = ax[None, :, None]
        dlz = (x * rhs[SX + 1] - y * rhs[SX] + rhs[LX + 2]).sum() * dx ** 3
        Fx, Fy = fluxes[0], fluxes[1]
        L = n * dx
        expected = -L * Fx[SX + 1][0].sum() * dx ** 2 \
            + L * Fy[SX][:, 0].sum() * dx ** 2
        scale = max(abs(x * rhs[SX + 1]).sum() * dx ** 3, 1e-30)
        assert abs(dlz - expected) / scale > 1e-10

    def test_gravity_source_conserves_energy_budget(self, rng):
        """The s.g energy source matches the momentum work term."""
        opts = HydroOptions(eos=IdealGas())
        n = 8
        dx = 1.0 / n
        U = _random_block(rng, n)
        apply_boundary(U, "periodic")
        grav = rng.normal(size=(3, n, n, n)) * 0.1
        rhs0 = _one_block_rhs(U, dx, opts)
        rhs1 = _one_block_rhs(U, dx, opts, gravity=grav)
        g = NGHOST
        inner = (slice(g, g + n),) * 3
        for d in range(3):
            np.testing.assert_allclose(
                rhs1[SX + d] - rhs0[SX + d], U[RHO][inner] * grav[d],
                rtol=1e-12, atol=1e-14)
        work = sum(U[SX + d][inner] * grav[d] for d in range(3))
        np.testing.assert_allclose(rhs1[EGAS] - rhs0[EGAS], work,
                                   rtol=1e-12, atol=1e-14)

    def test_coriolis_does_no_work(self, rng):
        """Rotating-frame sources: energy change comes only from the
        centrifugal term."""
        n = 8
        dx = 1.0 / n
        U = _random_block(rng, n)
        opts0 = HydroOptions(eos=IdealGas(), omega=0.0)
        opts1 = HydroOptions(eos=IdealGas(), omega=0.7)
        apply_boundary(U, "periodic")
        rhs0 = _one_block_rhs(U, dx, opts0)
        rhs1 = _one_block_rhs(U, dx, opts1)
        g = NGHOST
        inner = (slice(g, g + n),) * 3
        ax = (np.arange(n) + 0.5) * dx
        x = ax[:, None, None]
        y = ax[None, :, None]
        om = 0.7
        expected = om * om * (x * U[SX][inner] + y * U[SX + 1][inner])
        np.testing.assert_allclose(rhs1[EGAS] - rhs0[EGAS], expected,
                                   rtol=1e-12, atol=1e-14)
