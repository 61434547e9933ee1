"""Sub-grids — an octree leaf's ghosted block — and the dual-energy EOS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (EGAS, LX, NF, NGHOST, RHO, SUBGRID_N, SX, TAU,
                        IdealGas, Octree, interior)
from repro.core.mesh import _conserved_totals


def _totals(U, dx=1.0, corner=(0.0, 0.0, 0.0)):
    """The conservation sums of a ghosted block whose lower interior
    corner sits at ``corner``, as every mesh books them."""
    n = U.shape[1] - 2 * NGHOST
    ax = [corner[d] + (np.arange(n) + 0.5) * dx for d in range(3)]
    return _conserved_totals(interior(U), dx, (
        ax[0][:, None, None], ax[1][None, :, None], ax[2][None, None, :]),
        None)


def _block(n):
    return np.zeros((NF,) + (n + 2 * NGHOST,) * 3)


class TestSubGrid:
    def test_default_is_paper_geometry(self):
        t = Octree()
        assert t.subgrid_n == SUBGRID_N == 8
        assert t.get(0, (0, 0, 0)).U.shape == (
            NF, 8 + 2 * NGHOST, 8 + 2 * NGHOST, 8 + 2 * NGHOST)

    def test_interior_view_is_writable_window(self):
        U = Octree().get(0, (0, 0, 0)).U
        interior(U)[RHO] = 2.0
        assert U[RHO, NGHOST, NGHOST, NGHOST] == 2.0
        assert U[RHO, 0, 0, 0] == 0.0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Octree(subgrid_n=0)

    def test_cell_centers_inside_bounds(self):
        t = Octree(domain=2.0, origin=(1.0, 2.0, 3.0), subgrid_n=4)
        assert t.cell_width(0) == 0.5
        x, y, z = t.cell_centers(0, (0, 0, 0))
        assert x.min() == pytest.approx(1.25)
        assert z.max() == pytest.approx(3.0 + 3.5 * 0.5)
        # a child sits at its parent's corner plus its position's edge
        x, y, z = t.cell_centers(1, (1, 0, 1))
        assert x.min() == pytest.approx(1.0 + 1.0 + 0.125)
        assert z.max() == pytest.approx(3.0 + 1.0 + 3.5 * 0.25)

    def test_total_mass(self):
        U = _block(4)
        interior(U)[RHO] = 2.0
        assert _totals(U, dx=0.5)["mass"] == pytest.approx(
            2.0 * (4 * 0.5) ** 3)

    def test_total_momentum(self):
        U = _block(2)
        interior(U)[SX] = 1.0
        interior(U)[SX + 1] = -2.0
        np.testing.assert_allclose(_totals(U)["momentum"],
                                   [8.0, -16.0, 0.0])

    def test_angular_momentum_includes_spin(self):
        U = _block(2)
        interior(U)[LX + 2] = 3.0
        assert _totals(U)["angular_momentum"][2] == pytest.approx(3.0 * 8.0)

    def test_angular_momentum_of_rotation(self):
        t = Octree(domain=4.0, origin=(-2.0, -2.0, -2.0), subgrid_n=4)
        U = t.get(0, (0, 0, 0)).U
        x, y, _z = t.cell_centers(0, (0, 0, 0))
        interior(U)[RHO] = 1.0
        interior(U)[SX] = -y + 0.0 * x
        interior(U)[SX + 1] = x + 0.0 * y
        L = _totals(U, corner=(-2.0, -2.0, -2.0))["angular_momentum"]
        expected = float((x * x + y * y + 0.0 * _z).sum())
        assert L[2] == pytest.approx(expected)
        assert abs(L[0]) < 1e-12 and abs(L[1]) < 1e-12


class TestIdealGas:
    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValueError):
            IdealGas(gamma=1.0)

    def test_pressure_relation(self):
        eos = IdealGas(gamma=5 / 3)
        assert eos.pressure(np.array(1.0), np.array(3.0)) \
            == pytest.approx(2.0)

    def test_sound_speed(self):
        eos = IdealGas(gamma=1.4)
        cs = eos.sound_speed(np.array(1.0), np.array(1.0))
        assert cs == pytest.approx(np.sqrt(1.4))

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_tau_roundtrip(self, eint):
        eos = IdealGas()
        tau = eos.tau_from_eint(np.array(eint))
        back = eos.eint_from_tau(tau)
        assert back == pytest.approx(eint, rel=1e-12)

    def test_internal_energy_from_total_when_reliable(self):
        eos = IdealGas()
        rho = np.array(1.0)
        s = np.array(0.1)
        egas = np.array(10.0)
        tau = eos.tau_from_eint(np.array(123.0))  # deliberately wrong
        eint = eos.internal_energy(rho, s, s * 0, s * 0, egas, tau)
        assert eint == pytest.approx(10.0 - 0.005)

    def test_internal_energy_from_tau_at_high_mach(self):
        """The dual-energy switch (Sec. 4.2): kinetic dwarfs internal."""
        eos = IdealGas()
        rho = np.array(1.0)
        s = np.array(100.0)       # kinetic = 5000
        true_eint = 1e-4
        egas = 0.5 * s * s / rho + true_eint
        tau = eos.tau_from_eint(np.array(true_eint))
        eint = eos.internal_energy(rho, s, s * 0, s * 0,
                                   np.array(egas), tau)
        assert eint == pytest.approx(true_eint, rel=1e-10)

    @staticmethod
    def _sync(eos, rho, sx, sy, sz, egas, tau):
        """``tau`` after an in-place :meth:`IdealGas.sync_tau`."""
        tau = np.array(tau, dtype=float)
        eos.sync_tau(rho, sx, sy, sz, egas, tau,
                     (np.empty(tau.shape), np.empty(tau.shape)),
                     np.empty(tau.shape, bool))
        return tau

    def test_sync_tau_updates_in_trusted_regime(self):
        eos = IdealGas()
        rho, s = np.array(1.0), np.array(0.0)
        egas = np.array(2.0)
        stale = eos.tau_from_eint(np.array(1.0))
        new = self._sync(eos, rho, s, s, s, egas, stale)
        assert new == pytest.approx(eos.tau_from_eint(np.array(2.0)))

    def test_sync_tau_keeps_value_at_high_mach(self):
        eos = IdealGas()
        rho = np.array(1.0)
        s = np.array(100.0)
        egas = np.array(0.5 * 100.0 ** 2 + 1e-4)
        tau = eos.tau_from_eint(np.array(1e-4))
        assert self._sync(eos, rho, s, s * 0, s * 0, egas, tau) == tau

    @pytest.mark.parametrize("gamma", [5 / 3, 1.4, 2.0])
    def test_sync_tau_in_place_is_the_allocating_expression(self, gamma,
                                                             rng):
        """On a strided interior, with NaN, vacuum and high-Mach cells:
        the bits of ``where(trust, tau_from_eint(max(diff, 0)), tau)``."""
        eos = IdealGas(gamma)
        U = rng.uniform(0.0, 2.0, (NF, 14, 14, 14)) \
            * 10.0 ** rng.integers(-4, 4, (NF, 14, 14, 14))
        U[SX:SX + 3] -= 1.0
        U.reshape(NF, -1)[RHO, ::37] = np.nan
        U.reshape(NF, -1)[RHO, 5::41] = 0.0
        I = interior(U)
        kin = eos.kinetic(I[RHO], I[SX], I[SX + 1], I[SX + 2])
        diff = I[EGAS] - kin
        trust = diff / np.maximum(I[EGAS], 1e-300) > 0.1
        want = np.where(trust, eos.tau_from_eint(np.maximum(diff, 0.0)),
                        I[TAU])
        assert 0 < trust.sum() < trust.size
        cells = I.shape[1:]
        eos.sync_tau(I[RHO], I[SX], I[SX + 1], I[SX + 2], I[EGAS], I[TAU],
                     (np.empty(cells), np.empty(cells)),
                     np.empty(cells, bool))
        np.testing.assert_array_equal(I[TAU].view(np.uint64),
                                      want.view(np.uint64))

    @given(st.floats(1e-8, 1e3), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_internal_energy_nonnegative(self, rho, v):
        eos = IdealGas()
        rhoa = np.array(rho)
        s = np.array(rho * v)
        egas = np.array(max(0.4 * rho * v * v, 1e-30))
        tau = np.array(0.0)
        assert eos.internal_energy(rhoa, s, s * 0, s * 0, egas, tau) >= 0.0
